"""Dump the engine's answers on a fixed corpus, to compare two checkouts.

Prints one tab-separated line per query and intersection mode (``cc``,
``mv``): the corpus, the mode, the query, then ``float.hex`` of P(Q) and
of P0(Q and not-W), or the class name of the `MvdbError` either raised.
The corpus:

* gen-dblp seed 1 scale 2000: 40 seeded point queries and the spanning
  query ``Q() :- Advisor(1, a), Advisor(2000, b)``;
* the chain at n = 160 (`helpers.chain_mvdb`): 40 seeded windows;
* `helpers.viable_random_mvdb` seeds 0-199: 4 `random_boolean_query` each.

Before each corpus database's answers, a ``translation`` line holds the
sha256 of its Indb's ``(fact, float.hex(weight))`` pairs in load order and
that of its ``w_lineage`` (keys in active-domain order, clauses as listed),
so the dump shows the grounding unchanged bit for bit.  Every corpus is
answered from its index written to ``.mvx`` bytes and loaded back, so the
dump also checks the file format; it prints the sha256
of the dblp and chain ``.mvx`` bytes, and one sha256 over the ``.mvx``
bytes of the random corpus and then of `helpers.random_mvdb` seeds 38, 400
and 443, in seed order.  In each of those three, two blocks with different
clauses compile to one structure, so the hash also checks that a shape is
stored once where two clause sets share it.  Usage::

    python tests/corpus_dump.py [ROOT] > out.txt
    python tests/corpus_dump.py --compare before.txt after.txt

The first form imports ``mvdb`` and the test helpers from the checkout at
ROOT (default: the one holding this script), so one copy of the script
dumps any checkout.  The second exits non-zero unless the two dumps hold
the same lines, the same hashes, the same P(Q) bits and error classes, and
P0(Q and not-W) values within 1e-12 relative; it prints each difference.
The script is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

REL_TOL = 1e-12


def _value(fn, q) -> str:
    from mvdb import MvdbError
    try:
        return float.hex(fn(q))
    except MvdbError as exc:
        return type(exc).__name__


def _reloaded(tr):
    """The index of *tr*, written to ``.mvx`` bytes and loaded back, and
    those bytes."""
    from mvdb import build_index, deserialize, serialize
    blob = serialize(build_index(tr))
    return deserialize(blob), blob


def _mvx(name, blob, out):
    print(f"{name}\tmvx\t{hashlib.sha256(blob).hexdigest()}", file=out)


def _translation(name, tr, out):
    """One line for the translation *tr*: the sha256 of the Indb's
    ``(fact, float.hex(weight))`` pairs in load order, then that of
    ``w_lineage``, its keys in active-domain order (None first) and each
    key's clauses as listed, joined by ``/``."""
    pairs = hashlib.sha256()
    for fact, w in tr.indb.weights.items():
        pairs.update(repr((fact, float.hex(w))).encode())
    rank = tr.indb.domain.rank
    lineage = hashlib.sha256()
    for key in sorted(tr.w_lineage, key=lambda k: -1 if k is None
                      else rank(k)):
        lineage.update(repr((key, tr.w_lineage[key])).encode())
    print(f"{name}\ttranslation\t{pairs.hexdigest()}/"
          f"{lineage.hexdigest()}", file=out)


def _dump(name, tr, index, queries, out):
    from mvdb import IndexEvaluator, query_probability
    inst = tr.indb.possible_instance()
    for mode in ("cc", "mv"):
        ev = IndexEvaluator(index, inst, mode)
        for q in queries:
            p = _value(lambda q: query_probability(q, tr, ev), q)
            p0 = _value(ev.prob_q_and_not_w, q)
            print(f"{name}\t{mode}\t{q}\t{p}\t{p0}", file=out)


def dump(out=sys.stdout):
    from helpers import (chain_mvdb, chain_window, random_boolean_query,
                         random_mvdb, viable_random_mvdb)
    from mvdb import build_indb, parse_query
    from mvdb.cli import _load_project
    from mvdb.gendata import generate_project

    with tempfile.TemporaryDirectory() as tmp:
        db = _load_project(str(generate_project(tmp, seed=1, scale=2000)))
    tr = build_indb(db)
    rng = random.Random(2000)
    rows = rng.sample(sorted(f.values for f in
                             db.possible_instance().facts_of("Advisor")), 40)
    texts = [f"Q() :- Advisor({s}, {a})" for s, a in rows]
    texts.append("Q() :- Advisor(1, a), Advisor(2000, b)")
    _translation("dblp", tr, out)
    index, blob = _reloaded(tr)
    _mvx("dblp", blob, out)
    _dump("dblp", tr, index, [parse_query(t, db.schema) for t in texts], out)

    tr = build_indb(chain_mvdb(160))
    rng = random.Random(160)
    windows = []
    for _ in range(40):
        lo = rng.randrange(160)
        windows.append(chain_window(lo, rng.randint(lo + 1, 160)))
    _translation("chain", tr, out)
    index, blob = _reloaded(tr)
    _mvx("chain", blob, out)
    _dump("chain", tr, index, windows, out)

    blobs = []
    for seed in range(200):
        _, tr, _, _ = viable_random_mvdb(seed)
        _translation(f"random {seed}", tr, out)
        rng = random.Random(seed)
        index, blob = _reloaded(tr)
        blobs.append(blob)
        _dump("random", tr, index,
              [random_boolean_query(rng) for _ in range(4)], out)
    for seed in (38, 400, 443):
        tr = build_indb(random_mvdb(random.Random(seed)))
        _translation(f"random_mvdb {seed}", tr, out)
        blobs.append(_reloaded(tr)[1])
    _mvx("random", b"".join(blobs), out)


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare(before: Path, after: Path) -> int:
    """Print every difference between two dumps; the number found."""
    old = before.read_text().splitlines()
    new = after.read_text().splitlines()
    bad = 0
    if len(old) != len(new):
        print(f"line counts differ: {len(old)} vs {len(new)}")
        bad += 1
    for a, b in zip(old, new):
        fa, fb = a.split("\t"), b.split("\t")
        if fa[:3] != fb[:3] or fa[3:4] != fb[3:4] or (
                len(fa) > 4 and not _close(fa[4], fb[4])):
            print(f"- {a}\n+ {b}")
            bad += 1
    return bad


def main(argv) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return 1 if compare(Path(argv[1]), Path(argv[2])) else 0
    if len(argv) > 1 or argv[:1] == ["--compare"]:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    dump()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
