#!/usr/bin/env python3
"""mvdb benchmark: one workload, one seed, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload {dblp,chain} --seed N --seconds S \\
        --trace {0,1} [--smoke]

Runs from a source checkout and imports mvdb from its ``src/`` directory; it
exits with code 2, printing no result, when that directory is missing.
Everything it writes stays under ``.perfbench_runs/`` in the checkout.

One run, all in this process, one client in a closed loop (the next
operation starts when the previous one returns, with no think time):

1. an untimed warm-up ``mvdb compile`` and load of the library session;
2. a measurement window of --seconds, cut into equal slots.  Each slot starts
   with one timed operation, in the order compile, cold, cold, compile, ...:
   an in-process ``mvdb compile`` (``mvdb.cli.main``; 5 per run) or an
   in-process ``mvdb query --tsv`` from the project files and the index to
   printed rows (10 per run), and fills
   the rest of the slot with whole rounds of warm queries: Boolean
   (`query_probability`) and answer (`answer_query`) on one loaded
   `IndexEvaluator`.  Spreading the repeats over the window makes every
   metric sample the machine's speed over the whole run, which drifts on a
   shared host;
3. untimed checks: answers against the enumeration oracle or the other
   intersection algorithm, and the known P0(not W) underflow probe.

About once a second the run also times a fixed reference burst
(`reference_burst`), and every time metric is scaled by the reference time
over the run's mean burst time, so figures from the host's fast and slow
phases compare.  The raw figures are printed beside them.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the window is split in two: an untraced half, then a half
with span wrappers installed around each layer (see `tracing.py`), each with
3 compiles and 6 cold queries; the last line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

# (compiles, cold queries) per pass; each compile slot is followed by
# `colds // compiles` cold-query slots.
REPEATS = {"end_to_end": (5, 10), "traced": (3, 6)}
# Seconds between reference bursts, and the mean burst time on the
# reference machine (2 vCPU, Python 3.11); time metrics are reported at
# that speed.
REFERENCE_EVERY_S = 1.0
REFERENCE_BURST_S = 0.045
# The whole run stays far below this; a runaway compile fails here instead
# of taking memory from other processes on the machine.
ADDRESS_SPACE_LIMIT = 4 << 30


def _import_mvdb():
    if not (SRC / "mvdb" / "__init__.py").is_file():
        print(f"error: no mvdb sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mvdb
    if Path(mvdb.__file__).resolve().parent != (SRC / "mvdb").resolve():
        print(f"error: imported mvdb from {mvdb.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


@dataclass
class Result:
    """One timed operation."""

    seconds: float
    ok: bool
    value: object = None
    error: str = ""


@dataclass
class Pass:
    """The timed operations of one set-up + cold + stream pass."""

    compiles: list = field(default_factory=list)
    colds: list = field(default_factory=list)
    stream: list = field(default_factory=list)  # [(Query, Result)]
    cold_rows: list = field(default_factory=list)
    rounds: int = 0
    busy: float = 0.0
    rng: Optional[random.Random] = None
    bursts: list = field(default_factory=list)
    _last_burst: float = -math.inf

    def calibrate(self):
        """Time a reference burst if none ran in the last second."""
        if time.perf_counter() - self._last_burst >= REFERENCE_EVERY_S:
            self.bursts.append(reference_burst())
            self._last_burst = time.perf_counter()

    def speed_factor(self) -> float:
        """Reference burst time over this pass's mean burst time."""
        return REFERENCE_BURST_S / statistics.fmean(self.bursts)

    def operations(self):
        return self.compiles + self.colds + [r for _, r in self.stream]


class Session:
    """The library objects the warm stream runs against, loaded after an
    untimed warm-up compile writes the index."""

    def __init__(self, project: Path, seed: int):
        code, _ = _cli(["compile", "--project", str(project)])
        if code != 0:
            raise RuntimeError(f"warm-up `mvdb compile` exited with {code}")
        from mvdb.core import Mvdb, load_data, load_schema
        from mvdb.mvindex import IndexEvaluator, load_index
        from mvdb.translate import build_indb, load_views
        schema = load_schema(project / "schema.txt")
        self.db = Mvdb(schema, load_data(schema, project / "data"),
                       load_views(project / "views.txt", schema))
        self.seed = seed
        self.tr = build_indb(self.db)
        self.index = load_index(project / "index.mvx")
        self.instance = self.tr.indb.possible_instance()
        self.evaluator = IndexEvaluator(self.index, self.instance)


def reference_burst() -> float:
    """Seconds to fill a fixed 60,000-entry table keyed by node triples.

    The shared host runs in fast and slow phases that last minutes and
    change the engine's speed by up to 1.5x.  This burst is dict- and
    allocation-bound like the engine, and its time follows the engine's
    time through those phases (correlation 0.96 over 10-query windows), so
    time metrics are scaled by it.  The collector is off during the burst,
    so its time does not depend on the size of the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        node = 0
        for i in range(60000):
            lo, hi = node % 50, (node * 7 + i) % 1000
            node = lo if lo == hi else table.setdefault((i % 997, lo, hi),
                                                        len(table) + 2)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _timed(tracer, kind, fn, *args) -> Result:
    t0 = time.perf_counter()
    try:
        value = tracer.request(kind, fn, *args) if tracer else fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Result(time.perf_counter() - t0, False, None,
                      f"{type(exc).__name__}: {exc}")
    return Result(time.perf_counter() - t0, True, value)


def _in_range(p) -> bool:
    return isinstance(p, float) and -1e-9 <= p <= 1.0 + 1e-9


def _parse_value(text: str):
    return int(text) if text.lstrip("-").isdigit() else text


def _parse_rows(text: str):
    rows = []
    for line in text.splitlines():
        *values, p = line.split("\t")
        rows.append((tuple(_parse_value(v) for v in values), float(p)))
    return rows


def _cli(argv):
    from mvdb import cli
    out = io.StringIO()
    return cli.main(argv, out=out), out.getvalue()


def _compile(tracer, project: Path) -> Result:
    r = _timed(tracer, "compile", _cli,
               ["compile", "--project", str(project), "--tsv"])
    if r.ok and r.value[0] != 0:
        r.ok, r.error = False, f"exit code {r.value[0]}"
    return r


def _cold(tracer, project: Path, query: str, result: "Pass") -> Result:
    r = _timed(tracer, "cold_query", _cli,
               ["query", "--project", str(project), "--tsv", query])
    if r.ok and r.value[0] != 0:
        r.ok, r.error = False, f"exit code {r.value[0]}"
    if r.ok:
        result.cold_rows = _parse_rows(r.value[1])
        r.ok = all(_in_range(p) for _, p in result.cold_rows)
    return r


def _round(wl, session: Session, tracer, result: "Pass"):
    from mvdb.translate import answer_query, query_probability
    from mvdb.ucq import parse_query
    batch = [(q, parse_query(q.text, session.db.schema))
             for q in wl.round(result.rng)]
    for q, parsed in batch:
        result.calibrate()
        if q.kind == "bool":
            r = _timed(tracer, "bool", query_probability, parsed,
                       session.tr, session.evaluator)
            r.ok = r.ok and _in_range(r.value)
        else:
            r = _timed(tracer, "answer", answer_query, parsed, session.tr,
                       session.evaluator)
            r.ok = r.ok and all(_in_range(p) for _, p in r.value)
        result.stream.append((q, r))
        result.busy += r.seconds
    result.rounds += 1


def run_pass(wl, project: Path, session: Session, seconds: float, tracer,
             repeats: tuple[int, int]) -> Pass:
    """One measurement window: timed compiles and cold queries at the start
    of equal slots, whole query rounds filling the rest of each slot."""
    compiles, colds = repeats
    per_compile = colds // compiles
    result = Pass(rng=random.Random(f"stream-{session.seed}"))
    slots = compiles * (1 + per_compile)
    start = time.perf_counter()
    for i in range(slots):
        result.calibrate()
        if i % (1 + per_compile) == 0:
            result.compiles.append(_compile(tracer, project))
        else:
            result.colds.append(_cold(tracer, project, wl.cold_query, result))
        slot_end = start + seconds * (i + 1) / slots
        while time.perf_counter() < slot_end or (i == slots - 1
                                                 and not result.rounds):
            _round(wl, session, tracer, result)
    return result


# ---------------------------------------------------------------------------
# End-to-end figures
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _latencies(results, window_s: float):
    # A failed operation counts as taking the whole measurement window.
    return [r.seconds if r.ok else window_s for r in results]


def end_to_end(wl, p: Pass, seconds: float, index_path: Path, n_tuples: int,
               rss_mb: float):
    """[(name, value, unit, samples, note)] for every end-to-end metric.

    Times are scaled by the pass's speed factor; the note gives the raw
    figure."""
    window = max(seconds, 1.0)
    f = p.speed_factor()
    bools = [r for q, r in p.stream if q.kind == "bool"]
    answers = [r for q, r in p.stream if q.kind == "answer"]
    bool_ms = [x * 1e3 for x in _latencies(bools, window)]
    answer_ms = [x * 1e3 for x in _latencies(answers, window)]
    completed = sum(1 for _, r in p.stream if r.ok)
    tb, ta = wl.tail["bool"], wl.tail["answer"]

    def beyond(n, pct):
        return f"p{pct}, {n - math.ceil(n * pct / 100)} beyond"

    timed = [
        ("setup_s", statistics.median(_latencies(p.compiles, window)), "s",
         len(p.compiles), "median in-process `mvdb compile`"),
        ("cold_query_ms",
         statistics.median(_latencies(p.colds, window)) * 1e3, "ms",
         len(p.colds), "median in-process `mvdb query --tsv`"),
        ("bool_p50_ms", percentile(bool_ms, 50), "ms", len(bool_ms),
         "warm query_probability"),
        ("bool_tail_ms", percentile(bool_ms, tb), "ms", len(bool_ms),
         beyond(len(bool_ms), tb)),
        ("answer_p50_ms", percentile(answer_ms, 50), "ms", len(answer_ms),
         "warm answer_query"),
        ("answer_tail_ms", percentile(answer_ms, ta), "ms", len(answer_ms),
         beyond(len(answer_ms), ta)),
    ]
    qps = completed / p.busy
    return [(name, value * f, unit, n, f"raw {value:.6g}; {note}")
            for name, value, unit, n, note in timed] + [
        ("queries_per_s", qps / f, "1/s", len(p.stream),
         f"raw {qps:.6g}; {p.rounds} rounds, {p.busy:.1f} s busy"),
        ("index_bytes_per_tuple", index_path.stat().st_size / n_tuples, "B",
         n_tuples, "`.mvx` bytes / tuples in the order"),
        ("peak_rss_mb", rss_mb, "MB", 1, "max RSS of this process"),
    ]


# ---------------------------------------------------------------------------
# Per-layer figures (traced run)
# ---------------------------------------------------------------------------

# (metric, request kind, span names): median per request of summed span time
LAYER_MS = (
    ("core.load_ms", "compile", ("core.load_schema", "core.load_data",
                                 "translate.load_views", "core.Mvdb")),
    ("core.possible_instance_ms", "answer", ("core.possible_instance",)),
    ("translate.build_indb_ms", "compile", ("translate.build_indb",)),
    ("ucq.lineage_ms", "bool", ("ucq.lineage",)),
    ("ucq.answer_tuples_ms", "answer", ("ucq.answer_tuples",)),
    ("obdd.choose_pi_ms", "compile", ("obdd.choose_pi",)),
    ("obdd.con_obdd_ms", "compile", ("obdd.con_obdd",)),
    ("obdd.from_lineage_ms", "bool", ("obdd.from_lineage",)),
    ("mvindex.build_index_ms", "compile", ("mvindex.build_index",)),
    ("mvindex.annotate_ms", "compile", ("mvindex.annotate",)),
    ("mvindex.derive_ms", "compile", ("mvindex.derive",)),
    ("mvindex.serialize_ms", "compile", ("mvindex.serialize",)),
    ("mvindex.deserialize_ms", "cold_query", ("mvindex.deserialize",)),
    ("mvindex.intersect_ms", "bool", ("mvindex.intersect",)),
)

# (metric, request kind, count key, unit): median per request of the count
LAYER_COUNTS = (
    ("translate.aux_tuples", "compile", "aux_tuples", "count"),
    ("ucq.lineage_clauses", "bool", "lineage_clauses", "count"),
    ("ucq.answers", "answer", "answers", "count"),
    ("obdd.w_nodes", "compile", "w_nodes", "count"),
    ("obdd.query_nodes", "bool", "query_nodes", "count"),
    ("obdd.query_rank_span", "bool", "query_rank_span", "count"),
    ("mvindex.index_bytes", "compile", "index_bytes", "B"),
    ("mvindex.constituents", "compile", "constituents", "count"),
    ("mvindex.max_width", "compile", "max_width", "count"),
    ("mvindex.total_nodes", "compile", "total_nodes", "count"),
    ("mvindex.memo_entries", "bool", "memo_entries", "count"),
    ("mvindex.visited", "bool", "visited", "count"),
    ("mvindex.memo_entries.first_decile", "decile_first", "memo_entries",
     "count"),
    ("mvindex.memo_entries.last_decile", "decile_last", "memo_entries",
     "count"),
    ("mvindex.log10_p0_not_w", "compile", "log10_p0_not_w", "log10"),
)

SELF_TIME_KINDS = ("compile", "cold_query", "bool", "bool_tail", "answer")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer, tail_rids, untraced: Pass, traced: Pass):
    """[(name, value, unit, samples, note)] plus the self-time table."""
    spans = tracer.per_request()
    counts = tracer.request_counts()
    by_kind: dict[str, list[int]] = {}
    for rid, kind in tracer.requests.items():
        by_kind.setdefault(kind, []).append(rid)
    by_kind["bool_tail"] = tail_rids
    rows = []
    for metric, kind, names in LAYER_MS:
        rids = by_kind.get(kind, [])
        values = [sum(spans[r].get(n, (0, 0))[0] for n in names) / 1e6
                  for r in rids]
        rows.append((metric, _median(values), "ms", len(values),
                     f"per {kind} request"))
    for metric, kind, key, unit in LAYER_COUNTS:
        rids = by_kind.get(kind, [])
        values = [counts.get(r, {}).get(key, 0) for r in rids]
        rows.append((metric, _median(values), unit, len(values),
                     f"per {kind} request"))
    width = _median([counts.get(r, {}).get("max_width", 0)
                     for r in by_kind.get("compile", [])])
    ratios = []
    for r in by_kind.get("bool", []):
        c = counts.get(r, {})
        bound = c.get("query_rank_span", 0) * width
        if bound:
            ratios.append(c.get("visited", 0) / bound)
    rows.append(("mvindex.visit_ratio", _median(ratios), "ratio",
                 len(ratios), "visited / (rank span x max width)"))
    cli_self = [spans[r]["cli.main"][1] / 1e6
                for r in by_kind.get("cold_query", [])
                if "cli.main" in spans[r]]
    rows.append(("cli.overhead_ms", _median(cli_self), "ms", len(cli_self),
                 "cold query minus its child spans"))
    # Each half is scaled by its own speed factor, so a change of the host's
    # phase between the halves does not show as tracing overhead.
    qps_u = (sum(1 for _, r in untraced.stream if r.ok) / untraced.busy
             / untraced.speed_factor())
    qps_t = (sum(1 for _, r in traced.stream if r.ok) / traced.busy
             / traced.speed_factor())
    setup_u = (statistics.median(r.seconds for r in untraced.compiles)
               * untraced.speed_factor())
    setup_t = (statistics.median(r.seconds for r in traced.compiles)
               * traced.speed_factor())
    rows.append(("trace.overhead_frac", 1.0 - qps_t / qps_u, "frac",
                 len(traced.stream), "queries_per_s lost to tracing"))
    rows.append(("trace.setup_overhead_frac", setup_t / setup_u - 1.0, "frac",
                 len(traced.compiles), "setup_s added by tracing"))

    table = {}
    for kind in SELF_TIME_KINDS:
        rids = by_kind.get(kind, [])
        totals: dict[str, float] = {}
        for r in rids:
            for name, (_, self_ns) in spans[r].items():
                totals[name] = totals.get(name, 0.0) + self_ns / 1e6
        table[kind] = (len(rids), sorted(
            ((name, t / len(rids)) for name, t in totals.items()),
            key=lambda kv: -kv[1]))
    return rows, table


def run_deciles(wl, session, tracer):
    from mvdb.translate import query_probability
    from mvdb.ucq import parse_query
    first, last = wl.decile_queries(random.Random(f"deciles-{session.seed}"))
    for kind, texts in (("decile_first", first), ("decile_last", last)):
        for text in texts:
            q = parse_query(text, session.db.schema)
            tracer.request(kind, query_probability, q, session.tr,
                           session.evaluator)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _print_rows(rows):
    print(f"{'metric':36} {'value':>16} {'unit':6} {'samples':>8}  note")
    for name, value, unit, samples, note in rows:
        print(f"{name:36} {value:16.6g} {unit:6} {samples:8d}  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dblp and n = 8 chain, for self-checks")
    args = parser.parse_args(argv)

    _import_mvdb()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    print(f"# mvdb benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print(f"# machine: nproc={os.cpu_count()} python="
          f"{platform.python_version()} {platform.platform()}; load: "
          "closed loop, 1 client, no think time")
    try:
        project = work / "project"
        wl.make_project(project, args.seed)
        session = Session(project, args.seed)
        wl.bind(session.db)
        tracer = None
        if args.trace:
            untraced = run_pass(wl, project, session, args.seconds / 2, None,
                                REPEATS["traced"])
            tracer = tracing.Tracer()
            tracer.install()
            try:
                final = run_pass(wl, project, session, args.seconds / 2,
                                 tracer, REPEATS["traced"])
                run_deciles(wl, session, tracer)
            finally:
                tracer.uninstall()
        else:
            final = run_pass(wl, project, session, args.seconds, None,
                             REPEATS["end_to_end"])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = wl.check(session, final.stream,
                          random.Random(f"check-{args.seed}"),
                          final.cold_rows)
        probes.append(workloads.underflow_probe())
        ops = final.operations()
        failed = sum(1 for r in ops if not r.ok)
        wrong = [p for p in probes if not p.ok]

        if args.trace:
            bool_rids = [rid for rid, kind in tracer.requests.items()
                         if kind == "bool"]
            durations = {rid: d for rid, d in
                         ((s[4], s[2] - s[1]) for s in tracer.spans
                          if s[3] == -1 and s[4] is not None)}
            cut = percentile([durations[r] for r in bool_rids],
                             wl.tail["bool"])
            tail_rids = [r for r in bool_rids if durations[r] >= cut]
            rows, table = per_layer(tracer, tail_rids, untraced, final)
            trace_path = RUNS_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
            tracer.dump(trace_path)
        else:
            rows = end_to_end(wl, final, args.seconds,
                              project / "index.mvx", len(session.index.order),
                              rss_mb)
        _print_rows(rows + [
            ("speed_factor", final.speed_factor(), "ratio",
             len(final.bursts), "reference / mean burst time"),
            ("failed_frac", failed / len(ops), "frac", len(ops),
             "timed operations that raised or left [0, 1]"),
            ("wrong_answers", len(wrong), "count", len(probes),
             "untimed probes that disagree or raise"),
        ])
        for r in ops:
            if not r.ok:
                print(f"# failed operation: {r.error or 'out of range'}")
        for p in wrong:
            kind = "known defect" if not p.workload else "WRONG"
            print(f"# {kind}: {p.name}: {p.detail}")
        if args.trace:
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
            for kind in SELF_TIME_KINDS:
                n, items = table[kind]
                total = sum(t for _, t in items) or 1.0
                print(f"# self time per {kind} request ({n} requests): " +
                      ", ".join(f"{name} {t:.3f} ms ({t / total:.0%})"
                                for name, t in items[:6]))
        correct = not any(p.workload for p in wrong)
        print(json.dumps({
            "correct": correct,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _, _ in rows},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
