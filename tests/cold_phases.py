"""Time the phases of `mvdb compile` and of a cold `mvdb query` in process,
to compare checkouts.

Writes two projects to a temporary directory and compiles each with
``mvdb compile``: gen-dblp seed 1 scale 2000 (query ``Q(a) :- Advisor(7,
a)``) and the benchmark's chain at n = 160, seed 7 (the window query
over positions 0-3).  Then, with the cyclic collector paused as in
`cli.main`, it prints the median milliseconds of REPEATS runs of each
compile phase:

* ``compile_load``: parsing the schema, views and TSV files into an `Mvdb`;
* ``build_indb``: the translation, which also grounds W;
* ``build_index``: compiling W's lineage into the index;
* ``serialize``: writing the index's bytes;

and ``compile_peak_mb``, the tracemalloc peak of one whole ``mvdb compile``
through `cli.main`.  Then it prints the same medians for each cold query
phase:

* ``project``: parsing the schema, views and TSV files into an `Mvdb`;
* ``digest``: `Mvdb.digest`;
* ``meta``: reading the index's columns and decoding the tuple order from
  them (`mvindex._read_columns`, then `mvindex._decode_order`);
* ``annotations`` and ``entry``: `Constituent.compute_annotations` and
  `Constituent.derive`, once per shape of the loaded index over that
  shape's constituents, as `MvIndex` calls them; a shape with ``_LANES``
  constituents or more takes the lane pass, and ``annotations`` includes
  gathering its lanes (`mvindex._rank_lanes`);
* ``load_rest``: the rest of `mvindex.deserialize`, i.e. the whole load
  minus the three phases above (so it holds the shape checks and, where
  a checkout derives them per shape, the entry codes);
* ``instance``: `Mvdb.possible_instance`;
* ``query``: parsing the query and answering it on the loaded index;
* ``cold_total``: the whole `mvdb query --tsv` through `cli.main`.

It also prints each ``.mvx`` file's size per ordered tuple
(``mvx_bytes_per_tuple``) and its sha256, and the loaded index's
``constituents``, ``shapes`` and ``lane_constituents`` (those whose shape
takes the lane pass).  Usage::

    python tests/cold_phases.py [ROOT] [REPEATS]

ROOT (default: the checkout holding this script) is the checkout whose
``mvdb`` is imported, so one copy of the script times any checkout that
writes ``.mvx`` format 6 and annotates per shape (an older checkout's
``meta``, ``annotations`` and ``entry`` phases are timed by its own copy of
the script); REPEATS defaults to 15.  The script is not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import gc
import hashlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        gc.disable()
        try:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
    return statistics.median(times) * 1e3


def _compile_phases(project: Path, repeats: int) -> dict:
    import tracemalloc
    from mvdb import cli, mvindex
    from mvdb.translate import build_indb

    db = cli._load_project(str(project))
    tr = build_indb(db)
    index = mvindex.build_index(tr)
    out = {
        "compile_load": _median_ms(lambda: cli._load_project(str(project)),
                                   repeats),
        "build_indb": _median_ms(lambda: build_indb(db), repeats),
        "build_index": _median_ms(lambda: mvindex.build_index(tr), repeats),
        "serialize": _median_ms(lambda: mvindex.serialize(index), repeats),
    }
    del db, tr, index
    tracemalloc.start()
    try:
        if cli.main(["compile", "--project", str(project)],
                    out=io.StringIO()):
            raise SystemExit(f"compile failed on {project}")
        out["compile_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return out


def _phases(project: Path, query: str, repeats: int) -> dict:
    from mvdb import cli, mvindex
    from mvdb.translate import answer_rows
    from mvdb.ucq import parse_query

    path = project / "index.mvx"
    blob = path.read_bytes()
    db = cli._load_project(str(project))
    index = mvindex.deserialize(blob)
    body = memoryview(blob)[:-4]
    probs, qs = index.probs, index.qs
    by_shape = {}
    for c in index.constituents:
        by_shape.setdefault(c.shape, []).append(c)
    groups = list(by_shape.values())
    lanes = [None] * len(groups)

    def annotations():
        for i, group in enumerate(groups):
            if len(group) >= mvindex._LANES:
                lanes[i] = mvindex._rank_lanes(group, probs, qs)
            mvindex.Constituent.compute_annotations(group, probs, qs,
                                                    lanes[i])

    def entry():
        for group, group_lanes in zip(groups, lanes):
            mvindex.Constituent.derive(group, probs, qs, group_lanes)

    def answer():
        q = parse_query(query, db.schema)
        ev = mvindex.IndexEvaluator(index, instance)
        answer_rows(q, instance, ev)

    def cold():
        out = io.StringIO()
        if cli.main(["query", "--project", str(project), "--tsv", query],
                    out=out):
            raise SystemExit(f"cold query failed on {project}")

    instance = db.possible_instance()
    out = {
        "project": _median_ms(lambda: cli._load_project(str(project)),
                              repeats),
        "digest": _median_ms(db.digest, repeats),
        "meta": _median_ms(
            lambda: mvindex._decode_order(mvindex._read_columns(body)),
            repeats),
        "annotations": _median_ms(annotations, repeats),
        "entry": _median_ms(entry, repeats),
        "load": _median_ms(lambda: mvindex.deserialize(blob), repeats),
        "instance": _median_ms(db.possible_instance, repeats),
        "query": _median_ms(answer, repeats),
        "cold_total": _median_ms(cold, repeats),
    }
    out["load_rest"] = (out.pop("load") - out["meta"] - out["annotations"]
                        - out["entry"])
    out["mvx_bytes_per_tuple"] = len(blob) / len(index.order)
    out["mvx_sha256"] = hashlib.sha256(blob).hexdigest()
    out["constituents"] = str(len(index.constituents))
    out["shapes"] = str(len(groups))
    out["lane_constituents"] = str(sum(
        len(group) for group in groups if len(group) >= mvindex._LANES))
    return out


def main(argv) -> int:
    if len(argv) > 2 or (argv and argv[0].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    repeats = int(argv[1]) if len(argv) > 1 else 15
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import chaingen
    from mvdb import cli
    from mvdb.gendata import generate_project

    with tempfile.TemporaryDirectory() as tmp:
        dblp = generate_project(Path(tmp) / "dblp", seed=1, scale=2000)
        chain = Path(tmp) / "chain"
        chaingen.generate_chain(chain, seed=7, n=160)
        cases = [("dblp", dblp, "Q(a) :- Advisor(7, a)"),
                 ("chain", chain, chaingen.window_query(0, 4, answer=True))]
        for name, project, query in cases:
            if cli.main(["compile", "--project", str(project), "--tsv"],
                        out=io.StringIO()):
                raise SystemExit(f"compile failed on {project}")
            phases = _compile_phases(project, repeats)
            phases.update(_phases(project, query, repeats))
            for phase, value in phases.items():
                shown = value if isinstance(value, str) else f"{value:.2f}"
                print(f"{name}\t{phase}\t{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
