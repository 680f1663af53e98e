"""Time the phases of `mvdb compile`, of a cold `mvdb query` and of a few
warm calls in process, to compare checkouts.

Writes two projects to a temporary directory and compiles each with
``mvdb compile``: gen-dblp seed 1 scale 2000 (query ``Q(a) :- Advisor(7,
a)``) and the benchmark's chain at n = 160, seed 7 (the window query
over positions 0-3).  Then, with the cyclic collector paused as in
`cli.main`, it prints the median milliseconds of REPEATS runs of each
compile phase:

* ``compile_load``: reading the schema, views and TSV files and parsing
  them into an `Mvdb` (`cli._load_project`);
* ``build_indb``: the translation, which also grounds W;
* ``ground``: `translate._ground_views`, the part of ``build_indb`` that
  runs the views' bodies through their join plans;
* ``indb``: the part of ``build_indb`` that builds the `Indb` from the
  database's weights and the auxiliary facts, as that checkout's
  `translate.build_indb` does: where `Indb` takes the `Mvdb`'s weights as
  ``checked``, it checks the auxiliary facts alone, else every fact;
* ``build_index``: compiling W's lineage into the index;
* ``order``: `obdd.tuple_order`, the part of ``build_index`` that orders
  the probabilistic tuples;
* ``blocks``: `mvindex._compile_blocks`, the part of ``build_index`` that
  ranks W's clauses, finds the block shapes and compiles each once;
* ``serialize``: writing the index's bytes;

and ``compile_peak_mb``, the tracemalloc peak of one whole ``mvdb compile``
through `cli.main`.  Then it prints the same medians for each cold query
phase:

* ``read``: reading the project's files and hashing their bytes
  (`core.ProjectFiles`, which also parses the schema);
* ``parse``: parsing the TSV files the query still parses, those of the
  relations it names that the index's tuple order does not hold
  completely (`cli._parse_rest`);
* ``meta``: reading the index's columns and decoding the tuple order from
  them (`mvindex._read_columns`, then `mvindex._decode_order`): in format
  8 the domain, the column checks and the duplicate checks on ids, with no
  fact built;
* ``domain`` and ``order_checks``, the two parts of ``meta`` after the
  columns are read: the relation names, the domain's ints and strings and
  the check that its values are distinct (`mvindex._decode_domain`), then
  the relation counts, the id bounds and the duplicate-tuple checks
  (`mvindex._order_runs`);
* ``annotations``: `Constituent.compute_annotations`, once per shape of
  the loaded index at its constituents' offsets in lane order, as
  `MvIndex` calls it, returning the shape's array; a shape of two
  constituents or more takes the lane pass, and ``annotations`` includes
  listing the offsets and gathering the lanes (`mvindex._rank_lanes`);
* ``decode`` (format 8 only): building the facts and ranks of the
  relations the query names (`VariableOrder.relation_facts`), on an order
  fresh from ``meta``;
* ``entry``: `Constituent.derive` of each constituent the cold query
  enters (found by answering it once), each alone, as the sweep derives
  them on first entry; in format 7, of every shape by lanes, as that
  loader did;
* ``load_rest``: the rest of `mvindex.deserialize`, i.e. the whole load
  minus ``meta`` and ``annotations`` (and in format 7 minus ``entry``), so
  it holds the shape checks, the entry codes and the constituents;
* ``instance``: building the query's instance as the cold query does,
  over the relations it names, from those rows and the tuple order's own
  facts (`cli._query_instance`); in format 8 on an index that has built
  those facts already (that is ``decode``);
* ``query``: parsing the query and answering it on the loaded index, whose
  entry tables the first run derived;
* ``cold_total``: the whole `mvdb query --tsv` through `cli.main`;

and the warm calls, in microseconds per call (the median of REPEATS
batches of 50): ``lineage_us`` of the Boolean form of each case's query
(on the chain, also of windows of length 1 and 16, ``lineage_w1_us`` and
``lineage_w16_us``) over an evaluator's instance that has answered it
before, and on dblp ``answer_query_us``, one `translate.answer_query`,
which builds the Indb's possible instance each time.  ``first_lineage_us``
is the first `ucq.lineage` of the case's Boolean query (that of
``lineage_us``) over a fresh `possible_instance` of the Indb, so it
includes building the indexes the query reads; it is timed one call at a
time, the instance built before the clock starts.

It also prints each ``.mvx`` file's size per ordered tuple
(``mvx_bytes_per_tuple``) and its sha256, the bytes the loaded index holds
per ordered tuple (``loaded_b_per_tuple``: tracemalloc's current bytes
after one `mvindex.deserialize` of the file), and the loaded index's
``constituents``, ``entered`` (those whose entry tables ``entry``
derives), ``shapes`` and ``lane_constituents`` (those whose shape takes
the lane pass).  Usage::

    python tests/cold_phases.py [ROOT] [REPEATS]
    python tests/cold_phases.py --against OTHER_ROOT [ROOT] [REPEATS]

ROOT (default: the checkout holding this script) is the checkout whose
``mvdb`` is timed, so one copy of the script times any checkout that
writes ``.mvx`` format 6, 7 or 8 and annotates per shape (an older
checkout's ``meta``, ``annotations`` and ``entry`` phases are timed by its
own copy of the script).  A checkout whose passes take the constituents
themselves is timed through that signature, by lanes from eight
constituents up, its threshold.  A format 7 checkout whose `cli._parse_rest` takes no
relations builds its cold query's instance over every relation, so there
``parse`` parses the TSVs of all the relations the index does not hold and
``instance`` holds every relation.  A format 6 checkout's cold query
parses every file and then hashes its facts (`Mvdb.digest`), so there
``read`` is that hash, ``parse`` parses the whole project into an `Mvdb`,
and ``instance`` is `Mvdb.possible_instance`; the sum of the three phases
compares across formats.  REPEATS defaults to 15.  The first form prints
``case<TAB>phase<TAB>value``.

With ``--against``, both checkouts' ``mvdb`` packages are imported into
this one process under distinct module names, each compiles its own copy
of the projects, and every phase is timed REPEATS times for each, the two
interleaved (alternating which goes first).  For each phase it prints
``case<TAB>phase<TAB>ROOT's median<TAB>OTHER_ROOT's median<TAB>median
paired ratio<TAB>wins``: the ratio is ROOT's time over OTHER_ROOT's in the
same pair, and wins counts the pairs ROOT was faster in.  Separate
processes on a busy host can differ by more than the change being
measured; pairs taken side by side in one process share its state.  A
phase OTHER_ROOT does not have (``decode`` against format 7, ``blocks``
against a checkout without `mvindex._compile_blocks`, ``domain`` and
``order_checks`` against one without `mvindex._order_runs`) prints
ROOT's median and ``-``; ``cold_total`` and ``load`` pair across
formats.  A non-timed value prints both and, for a number, their ratio (the peak and
the loaded bytes the median of three interleaved runs each).  This form
prints the whole ``load`` in place of ``load_rest``.  The script is not a
test module: pytest does not collect it.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import importlib.util
import inspect
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

_WARM_BATCH = 50


def _import_mvdb(root: Path, name: str):
    """The ``mvdb`` package of the checkout at *root*, imported as the
    module *name* together with the submodules timed here."""
    src = root / "src" / "mvdb"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "gendata", "mvindex", "obdd", "translate", "ucq"):
        setattr(pkg, sub, importlib.import_module(f"{name}.{sub}"))
    return pkg


def _time(fn) -> float:
    """Seconds of one call of *fn*, the cyclic collector paused.  A *fn*
    with a ``setup`` is called with what ``setup()`` returns, made before
    the clock starts."""
    setup = getattr(fn, "setup", None)
    args = () if setup is None else (setup(),)
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _warm(fn):
    """*fn* called `_WARM_BATCH` times, timed per call in microseconds."""
    def batch():
        for _ in range(_WARM_BATCH):
            fn()
    batch.scale = 1e6 / _WARM_BATCH
    return batch


def _first_lineage(ucq, q, fresh):
    """`ucq.lineage` of *q* over a new ``fresh()`` instance per call, timed
    in microseconds without building the instance."""
    def first(instance):
        ucq.lineage(q, instance)
    first.setup = fresh
    first.scale = 1e6
    return first


def _compile_phases(pkg, project: Path) -> tuple[dict, dict]:
    """The compile phases as ``{name: callable}``, and the tracemalloc peak
    of one whole compile."""
    import tracemalloc
    cli, mvindex, translate = pkg.cli, pkg.mvindex, pkg.translate

    db = cli._load_project(str(project))
    tr = translate.build_indb(db)
    index = mvindex.build_index(tr)
    indb, obdd = tr.indb, pkg.obdd
    aux = list(indb.weights.items())[len(db.weights):]
    if "checked" in inspect.signature(pkg.Indb).parameters:
        def make_indb():
            return pkg.Indb(indb.schema, aux, checked=db.weights)
    else:  # every fact checked
        def make_indb():
            return pkg.Indb(indb.schema, list(db.weights.items()) + aux)
    pi = {} if tr.w_query is None else obdd.choose_pi(
        tr.w_query, indb.schema, tr.var_rels)
    prob_facts = indb.probabilistic_facts()

    def order():
        return obdd.tuple_order(pi, prob_facts, indb.domain, indb.schema)
    groups = tr.w_lineage
    keys = (list(groups) if None in groups
            else sorted(groups, key=indb.domain.rank))
    ordered = order()
    timed = {
        "compile_load": lambda: cli._load_project(str(project)),
        "build_indb": lambda: translate.build_indb(db),
        "ground": lambda: translate._ground_views(db),
        "indb": make_indb,
        "build_index": lambda: mvindex.build_index(tr),
        "order": order,
        "blocks": lambda: mvindex._compile_blocks(groups, keys, ordered),
        "serialize": lambda: mvindex.serialize(index),
    }
    if not hasattr(mvindex, "_compile_blocks"):
        del timed["blocks"]

    def peak():
        gc.collect()
        tracemalloc.start()
        try:
            if cli.main(["compile", "--project", str(project)],
                        out=io.StringIO()):
                raise SystemExit(f"compile failed on {project}")
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return timed, {"compile_peak_mb": peak}


def _loaded_bytes(mvindex, blob: bytes) -> float:
    """tracemalloc's current bytes after one `deserialize` of *blob*, per
    ordered tuple of the index."""
    import tracemalloc
    gc.collect()
    tracemalloc.start()
    try:
        index = mvindex.deserialize(blob)
        return tracemalloc.get_traced_memory()[0] / len(index.order)
    finally:
        tracemalloc.stop()


def _query_phases(pkg, project: Path, query: str,
                  warm) -> tuple[dict, dict]:
    """The cold query phases and the warm calls as ``{name: callable}``,
    and the values read off the compiled index."""
    cli, mvindex, translate, ucq = pkg.cli, pkg.mvindex, pkg.translate, pkg.ucq

    path = project / "index.mvx"
    blob = path.read_bytes()
    db = cli._load_project(str(project))
    index = mvindex.deserialize(blob)
    if hasattr(cli, "ProjectFiles"):
        files = cli.ProjectFiles(project)
        named = ucq.parse_query(query, files.schema).relations()
        # a checkout whose cold query still reads every relation takes none
        follows = len(inspect.signature(cli._parse_rest).parameters) == 3
        some = (named,) if follows else ()
        parsed = cli._parse_rest(files, index, *some)
        phases = {"read": lambda: cli.ProjectFiles(project),
                  "parse": lambda: cli._parse_rest(files, index, *some),
                  "instance": lambda: cli._query_instance(files.schema, index,
                                                          parsed, *some)}
    else:  # format 6
        phases = {"read": db.digest,
                  "parse": lambda: cli._load_project(str(project)),
                  "instance": db.possible_instance}
    body = memoryview(blob)[:-4]
    # `MvIndex` runs the passes over lists of p and q.
    probs, qs = list(index.probs), list(index.qs)
    by_shape = {}
    for c in index.constituents:
        by_shape.setdefault(c.shape, []).append(c)
    groups = list(by_shape.values())
    passes = inspect.signature(mvindex.Constituent.compute_annotations)
    if "cons" in passes.parameters:  # passes of the constituents themselves
        fewest = 8

        def inputs(group):
            return (group,)
    else:  # passes of a shape and its offsets
        fewest = 2

        def inputs(group):
            return group[0].shape, [c.offset for c in group]
    args = [None] * len(groups)
    lanes = [None] * len(groups)

    def annotations():
        for i, group in enumerate(groups):
            args[i] = inputs(group)
            if len(group) >= fewest:
                lanes[i] = mvindex._rank_lanes(*args[i], probs, qs)
            mvindex.Constituent.compute_annotations(*args[i], probs, qs,
                                                    lanes[i])

    def meta():
        return mvindex._decode_order(mvindex._read_columns(body))[0]

    split = {}
    if hasattr(mvindex, "_order_runs"):  # `meta`'s two parts
        columns = mvindex._read_columns(body)
        names, domain = mvindex._decode_domain(columns)
        split = {"domain": lambda: mvindex._decode_domain(columns),
                 "order_checks": lambda: mvindex._order_runs(
                     columns, len(names), len(domain))}

    lazy = hasattr(mvindex.MvIndex, "entry_masses")
    if lazy:  # format 8: relations and entry tables built on first use
        def decode(order):
            for name in named:
                order.relation_facts(name)
        decode.setup = meta
        phases["decode"] = decode
        # the constituents the cold query enters, found by answering it
        first = phases["instance"]()
        translate.answer_rows(ucq.parse_query(query, files.schema), first,
                              mvindex.IndexEvaluator(index, first))
        entered = [c for c in index.constituents if c.entry is not None]

        def entry():
            for c in entered:
                mvindex.Constituent.derive(c.shape, [c.offset], index.probs,
                                           index.qs)
    else:
        entered = index.constituents
        annotations()

        def entry():
            for group_args, group_lanes in zip(args, lanes):
                mvindex.Constituent.derive(*group_args, probs, qs,
                                           group_lanes)
    instance = phases["instance"]()

    def answer():
        q = ucq.parse_query(query, db.schema)
        ev = mvindex.IndexEvaluator(index, instance)
        translate.answer_rows(q, instance, ev)

    def cold():
        out = io.StringIO()
        if cli.main(["query", "--project", str(project), "--tsv", query],
                    out=out):
            raise SystemExit(f"cold query failed on {project}")

    timed = {
        "read": phases["read"],
        "parse": phases["parse"],
        "meta": meta,
        **split,
        "annotations": annotations,
        **({"decode": phases["decode"]} if lazy else {}),
        "entry": entry,
        "load": lambda: mvindex.deserialize(blob),
        "instance": phases["instance"],
        "query": answer,
        "cold_total": cold,
    }

    tr = translate.build_indb(db)
    ev = mvindex.IndexEvaluator(index, tr.indb.possible_instance())
    for name, text in warm:
        q = ucq.parse_query(text, db.schema)
        if q.is_boolean():
            ucq.lineage(q, ev.instance)  # builds the columns it reads
            timed[name] = _warm(lambda q=q: ucq.lineage(q, ev.instance))
        else:
            timed[name] = _warm(
                lambda q=q: translate.answer_query(q, tr, ev))
    timed["first_lineage_us"] = _first_lineage(
        ucq, ucq.parse_query(warm[0][1], db.schema),
        tr.indb.possible_instance)
    values = {
        "mvx_bytes_per_tuple": len(blob) / len(index.order),
        "loaded_b_per_tuple": lambda: _loaded_bytes(mvindex, blob),
        "mvx_sha256": hashlib.sha256(blob).hexdigest(),
        "constituents": str(len(index.constituents)),
        "entered": str(len(entered)),
        "shapes": str(len(groups)),
        "lane_constituents": str(sum(
            len(group) for group in groups if len(group) >= fewest)),
    }
    return timed, values


def _cases(pkg, tmp: Path):
    """``(case, project, query, warm calls)`` of each case, the projects
    written under *tmp* and compiled by *pkg*.  A warm call is ``(phase,
    query)``: `ucq.lineage` of a Boolean query, else
    `translate.answer_query`; the first is the case's Boolean query."""
    import chaingen
    dblp = pkg.gendata.generate_project(tmp / "dblp", seed=1, scale=2000)
    chain = tmp / "chain"
    chaingen.generate_chain(chain, seed=7, n=160)
    cases = [("dblp", dblp, "Q(a) :- Advisor(7, a)",
              [("lineage_us", "Q() :- Advisor(7, a)"),
               ("answer_query_us", "Q(a) :- Advisor(7, a)")]),
             ("chain", chain, chaingen.window_query(0, 4, answer=True),
              [("lineage_us", chaingen.window_query(0, 4)),
               ("lineage_w1_us", chaingen.window_query(40, 41)),
               ("lineage_w16_us", chaingen.window_query(40, 56))])]
    for _, project, _, _ in cases:
        if pkg.cli.main(["compile", "--project", str(project), "--tsv"],
                        out=io.StringIO()):
            raise SystemExit(f"compile failed on {project}")
    return cases


def _phases(pkg, project: Path, query: str, warm) -> tuple[dict, dict]:
    timed, values = _compile_phases(pkg, project)
    more, query_values = _query_phases(pkg, project, query, warm)
    timed.update(more)
    values.update(query_values)
    return timed, values


def _scale(fn) -> float:
    return getattr(fn, "scale", 1e3)


def _single(pkg, repeats: int, tmp: Path):
    for name, project, query, warm in _cases(pkg, tmp):
        timed, values = _phases(pkg, project, query, warm)
        out = {phase: statistics.median(_time(fn) for _ in range(repeats))
               * _scale(fn) for phase, fn in timed.items()}
        # a format 8 load derives no entry table
        out["load_rest"] = (out.pop("load") - out["meta"] - out["annotations"]
                            - (0.0 if "decode" in out else out["entry"]))
        for key, fn in values.items():
            out[key] = fn() if callable(fn) else fn
        for phase, value in out.items():
            shown = value if isinstance(value, str) else f"{value:.2f}"
            print(f"{name}\t{phase}\t{shown}")


def _against(pkg, other, repeats: int, tmp: Path):
    pairs = list(zip(_cases(pkg, tmp / "this"),
                     _cases(other, tmp / "other")))
    for (name, project, query, warm), (_, o_project, _, _) in pairs:
        timed, values = _phases(pkg, project, query, warm)
        o_timed, o_values = _phases(other, o_project, query, warm)
        for phase, fn in timed.items():
            o_fn = o_timed.get(phase)
            if o_fn is None:  # a phase OTHER_ROOT's load does not have
                median = statistics.median(_time(fn) for _ in range(repeats))
                print(f"{name}\t{phase}\t{median * _scale(fn):.2f}\t-")
                continue
            mine, theirs = [], []
            for i in range(repeats):
                if i % 2:
                    theirs.append(_time(o_fn))
                    mine.append(_time(fn))
                else:
                    mine.append(_time(fn))
                    theirs.append(_time(o_fn))
            ratio = statistics.median(a / b for a, b in zip(mine, theirs))
            wins = sum(a < b for a, b in zip(mine, theirs))
            print(f"{name}\t{phase}\t{statistics.median(mine) * _scale(fn):.2f}"
                  f"\t{statistics.median(theirs) * _scale(o_fn):.2f}"
                  f"\t{ratio:.3f}\t{wins}/{repeats}")
        for key, value in values.items():
            o_value = o_values[key]
            if callable(value):  # one value per run, interleaved
                runs = [(value(), o_value()) for _ in range(3)]
                value = statistics.median(a for a, _ in runs)
                o_value = statistics.median(b for _, b in runs)
            if isinstance(value, float):
                print(f"{name}\t{key}\t{value:.2f}\t{o_value:.2f}"
                      f"\t{value / o_value:.3f}")
            else:
                print(f"{name}\t{key}\t{value}\t{o_value}")


def main(argv) -> int:
    other_root = None
    if argv[:1] == ["--against"] and len(argv) > 1:
        other_root, argv = Path(argv[1]), argv[2:]
    if len(argv) > 2 or (argv and argv[0].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    repeats = int(argv[1]) if len(argv) > 1 else 15
    sys.path.insert(0, str(root / "perfbench"))
    pkg = _import_mvdb(root, "mvdb")
    with tempfile.TemporaryDirectory() as tmp:
        if other_root is None:
            _single(pkg, repeats, Path(tmp))
        else:
            other = _import_mvdb(other_root, "mvdb_against")
            _against(pkg, other, repeats, Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
