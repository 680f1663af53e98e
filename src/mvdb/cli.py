"""Command-line driver: compile an index offline, answer queries online.

Project layout: a directory holding ``schema.txt``, ``views.txt`` and
``data/<Relation>.tsv`` (one TSV per relation).  The compiled index lives in
``index.mvx`` inside the project unless ``--index`` says otherwise.

``compile`` pays for the translation and the compilation of W once and
prints a summary, with the number of distinct constituent shapes the index
file stores; ``stats`` lists the constituents one per line, then that
number, and ``stats --dump`` then prints the tuple order once and every
constituent's root and nodes in rank order, one ``id rank low high`` line
per node (ids 0 and 1 are the sinks, positions count from 2).  The online
path of ``query --engine {ccmv,mv}`` does neither: it reads and hashes the
project's files (`ProjectFiles`; any byte-level edit of schema, views or
data, whitespace included, means recompile), loads the index and compares
their digests.  It then follows the relations the query names
(`Ucq.relations`), as grounding reads no other: it parses the TSVs of only
those of them whose facts the index's tuple order does not hold completely
(`MvIndex.complete`), and its base possible instance holds those relations
alone, taking the others' facts from the order itself (`_query_instance`),
so the index and the instance share one `Fact` per probabilistic tuple.
A file it does not parse still counts in the digest, so the bytes it skips
are those the compile parsed and checked.  Queries are parsed against the
base schema, so they cannot name an auxiliary relation and need none of
its tuples.  ``compile``, ``oracle`` and ``--engine oracle`` parse every file
through the same reader (`_load_project`); ``--engine oracle`` translates
and enumerates.

Every command runs with the cyclic garbage collector paused (`main`): a
command leaves no reference cycles that grow with the data, so the
collections its allocations would start, over the loaded project and index
or over the caller's heap, would find nothing to free.

Exit codes: 0 success, 1 usage, 2 input error, 3 inconsistent constraints,
4 world cap exceeded, 141 (128 + SIGPIPE, silently) when the reader closes
stdout early, as ``mvdb stats --dump | head`` does.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

from .core import (INF, DataError, InconsistentConstraintsError, Instance,
                   Mvdb, MvdbError, ProjectFiles, WorldCapError)
from . import ucq as U
from .translate import answer_rows, boolean_queries, build_indb, parse_views
from .oracle import DEFAULT_WORLD_CAP, EnumerationEvaluator, translation_check
from .mvindex import (IndexEvaluator, _collector_paused, build_index,
                      load_index, save_index, SINK0, SINK1)
from .gendata import generate_project

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_CAP = 4
EXIT_PIPE = 141

# How far a printed probability may stray outside [0, 1].
TOLERANCE = 1e-9


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_project(project) -> Mvdb:
    """Every file of the project, parsed and checked into an `Mvdb` that
    carries their digest."""
    files = ProjectFiles(project)
    schema = files.schema
    data = [row for rel in schema.relations for row in files.weighted(rel)]
    return Mvdb(schema, data, parse_views(files.views_text(), schema),
                files.digest)


def _parse_rest(files: ProjectFiles, index, relations) -> dict:
    """The rows of each of the base *relations* whose facts the index's
    tuple order does not hold completely (`MvIndex.complete`), by
    relation, parsed from its TSV.  The digest matched, so these are the
    bytes the compile read and checked."""
    return {rel.name: files.weighted(rel) for rel in files.schema.relations
            if rel.name in relations and rel.name not in index.complete}


def _query_instance(schema, index, parsed: dict, relations) -> Instance:
    """The base possible instance of a cold query over *relations* alone,
    those the query names: for each in schema order, its parsed rows
    (`_parse_rest`), or else the tuple order's own facts
    (`MvIndex.held_facts`, which a loaded index builds for these relations
    alone), so the instance and the index share one `Fact` per
    probabilistic tuple.  Grounding reads no other relation.  It is
    built relation by relation, one run each, as the rank order interleaves
    relations."""
    names = [r.name for r in schema.relations if r.name in relations]
    held = index.held_facts(names)
    facts = [held[name] if name in held
             else map(itemgetter(0), parsed[name]) for name in names]
    deterministic = [f for rows in parsed.values() for f, w in rows
                     if w == INF]
    return Instance(schema, chain.from_iterable(facts), deterministic)


def _index_path(args) -> Path:
    if args.index:
        return Path(args.index)
    return Path(args.project) / "index.mvx"


def _emit(out, columns, rows, tsv: bool):
    if tsv:
        for row in rows:
            print("\t".join(str(c) for c in row), file=out)
        return
    widths = [len(c) for c in columns]
    srows = [[str(c) for c in row] for row in rows]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)), file=out)
    for row in srows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)


def cmd_compile(args, out) -> int:
    db = _load_project(args.project)
    t0 = time.perf_counter()
    # The translation, W's lineage included, is freed before the write.
    index = build_index(build_indb(db))
    elapsed = time.perf_counter() - t0
    path = _index_path(args)
    save_index(index, path)
    if not db.views:
        print("warning: no views; index has zero constituents",
              file=sys.stderr)
    count = len(index.constituents)
    shapes = index.shape_count()
    total = sum(c.size() for c in index.constituents)
    if args.tsv:
        print(f"constituents\t{count}", file=out)
        print(f"shapes\t{shapes}", file=out)
        print(f"total\t{total}", file=out)
        _print_p0(index, ("p0_w",), out)
    else:
        print(f"{count} constituents in {shapes} shapes, total size {total}, "
              f"{_p0_text(index)}", file=out)
        print(f"wrote {path} in {elapsed * 1e3:.1f} ms", file=out)
    return EXIT_OK


def cmd_query(args, out) -> int:
    timings = []  # one per row: the timing of that row's own evaluation
    if args.engine == "oracle":
        db = _load_project(args.project)
        q = U.parse_query(args.query, db.schema)
        evaluator = EnumerationEvaluator(build_indb(db),
                                         world_cap=args.world_cap)
        probability = evaluator.probability
    else:
        files = ProjectFiles(args.project)
        q = U.parse_query(args.query, files.schema)
        index = load_index(_index_path(args))
        if index.source_digest != files.digest:
            raise DataError("index does not match the project; recompile")
        mode = "cc" if args.engine == "ccmv" else "mv"
        named = q.relations()
        instance = _query_instance(files.schema, index,
                                   _parse_rest(files, index, named), named)
        evaluator = IndexEvaluator(index, instance, mode)

        def probability(bq):
            p = evaluator.probability(bq)
            timings.append(evaluator.last_timing)
            return p

    results = answer_rows(q, evaluator.instance,
                          SimpleNamespace(probability=probability))
    for _, p in results:
        if not (-TOLERANCE <= p <= 1.0 + TOLERANCE):
            raise MvdbError(f"probability {p!r} outside [0, 1] beyond "
                            f"the tolerance {TOLERANCE}")
    columns = [f"x{i + 1}" for i in range(q.head_arity)] + ["probability"]
    timing = args.timing and args.engine != "oracle"
    if timing:
        columns += ["lineage_us", "build_us", "intersect_us"]
    rows = []
    for i, (answer, p) in enumerate(results):
        row = list(answer) + [repr(p)]
        if timing:
            row += [timings[i][k]
                    for k in ("lineage_us", "build_us", "intersect_us")]
        rows.append(row)
    _emit(out, columns, rows, args.tsv)
    return EXIT_OK


def cmd_oracle(args, out) -> int:
    db = _load_project(args.project)
    q = U.parse_query(args.query, db.schema)
    rows = []
    bool_queries = boolean_queries(q, db.possible_instance())
    checks = translation_check(db, [bq for _, bq in bool_queries],
                               world_cap=args.world_cap)
    for (answer, _), (lhs, rhs, delta) in zip(bool_queries, checks):
        label = args.query if not answer else \
            args.query + " @ " + ",".join(str(v) for v in answer)
        rows.append((label, repr(lhs), repr(rhs), repr(delta)))
    _emit(out, ["query", "lhs", "rhs", "delta"], rows, args.tsv)
    return EXIT_OK


def _p0_text(index) -> str:
    """P0(W) and P0(not W) where P0(not W) is a float, then log10 |P0(not
    W)| unless a block is a zero block: for a negative P0(not W), as the
    logarithm of -P0(not W)."""
    parts = []
    if index.p0_not_w is not None:
        parts.append(f"P0(W) = {index.p0_w!r}, "
                     f"P0(not W) = {index.p0_not_w!r}")
    if not index.zero_block:
        sign = "-" if index.sign_p0_not_w < 0 else ""
        parts.append(f"log10 {sign}P0(not W) = {index.log10_p0_not_w!r}")
    return ", ".join(parts)


def _print_p0(index, names, out):
    """One TSV line for each of the index's attributes *names*; where P0(not
    W) overflows, its sign and log10 |P0(not W)| in their place."""
    if index.p0_not_w is None:
        print(f"sign_p0_not_w\t{index.sign_p0_not_w}", file=out)
        print(f"log10_p0_not_w\t{index.log10_p0_not_w!r}", file=out)
        return
    for name in names:
        print(f"{name}\t{getattr(index, name)!r}", file=out)


def _node_id(code: int) -> int:
    """The dump's id of a constituent code: 0 and 1 for the sinks, then the
    positions from 2."""
    return {SINK0: 0, SINK1: 1}.get(code, code + 2)


def cmd_stats(args, out) -> int:
    index = load_index(_index_path(args))
    rows = [(repr(c.key), c.size(), c.shape.width, c.rank_lo, c.rank_hi,
             repr(c.prob_root))
            for c in index.constituents]
    _emit(out, ["key", "size", "width", "rank_lo", "rank_hi", "prob_root"],
          rows, args.tsv)
    if args.tsv:
        print(f"shapes\t{index.shape_count()}", file=out)
        _print_p0(index, ("p0_w", "p0_not_w"), out)
    else:
        print(f"{len(rows)} constituents in {index.shape_count()} shapes, "
              f"{_p0_text(index)}", file=out)
    if args.dump:
        print("order " + " ".join(str(f) for f in index.order.facts),
              file=out)
        for c in index.constituents:
            print(f"constituent {c.key!r}", file=out)
            print(f"root {_node_id(0 if c.shape.rank else SINK0)}", file=out)
            for pos, r in enumerate(c.shape.rank):
                print(f"{pos + 2} {r + c.offset} {_node_id(c.shape.lo[pos])} "
                      f"{_node_id(c.shape.hi[pos])}", file=out)
    return EXIT_OK


def cmd_gen_dblp(args, out) -> int:
    views = tuple(v.strip() for v in args.views.split(",") if v.strip())
    try:
        path = generate_project(args.out, seed=args.seed, scale=args.scale,
                                views=views)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(f"generated project at {path}", file=out)
    return EXIT_OK


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = _ArgumentParser(prog="mvdb")
    sub = parser.add_subparsers(dest="command", required=True)

    def world_cap(p):
        p.add_argument("--world-cap", dest="world_cap", type=int,
                       default=DEFAULT_WORLD_CAP)

    p = sub.add_parser("compile")
    p.add_argument("--project", required=True)
    p.add_argument("--index", default=None)
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("query")
    p.add_argument("--project", required=True)
    p.add_argument("--index", default=None)
    p.add_argument("--tsv", action="store_true")
    world_cap(p)
    p.add_argument("--engine", choices=["mv", "ccmv", "oracle"],
                   default="ccmv")
    p.add_argument("--timing", action="store_true")
    p.add_argument("query")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("oracle")
    p.add_argument("--project", required=True)
    p.add_argument("--tsv", action="store_true")
    world_cap(p)
    p.add_argument("query")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("stats")
    p.add_argument("--project", default=None)
    p.add_argument("--index", default=None)
    p.add_argument("--tsv", action="store_true")
    p.add_argument("--dump", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen-dblp")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=int, default=2)
    p.add_argument("--views", default="v1,v2")
    p.set_defaults(func=cmd_gen_dblp)
    return parser


@_collector_paused()
def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) == "stats" and not (
                args.index or args.project):
            raise _UsageError("stats needs --index or --project")
        return args.func(args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistentConstraintsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except WorldCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        # An OSError, but not an input error: the reader is gone.  Point
        # stdout at the null device so the exit-time flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (MvdbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
