"""Span recording for the traced run, installed from outside the program.

`Tracer.install` replaces each public layer function of mvdb with a wrapper
that records a span, at every name the program looks it up by: module
attributes (``mvdb.mvindex.from_lineage`` is the ``from_lineage`` that
`IndexEvaluator` calls) and class attributes (``Constituent.derive``).
`Tracer.uninstall` puts the originals back.  Spans stay in memory until the
run ends.

A span is ``[name, start_ns, end_ns, parent_index, request_id]``.  The
benchmark opens one request span around every operation it times; the
wrapped layer calls inside it become its descendants.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

_now = time.perf_counter_ns


def _obdd_counts(g):
    # A fresh Obdd keeps the caller's cached node list untouched, so the
    # counting does not move work out of the layer that would do it.
    from mvdb.mvindex import rank_span
    from mvdb.obdd import Obdd
    fresh = Obdd(g.table, g.root)
    return {"query_nodes": fresh.size(), "query_rank_span": rank_span(fresh)}


def _index_counts(index):
    logs = [math.log10(abs(c.prob_root)) if c.prob_root else -324.0
            for c in index.constituents]
    return {"constituents": len(index.constituents),
            "max_width": index.max_width(),
            "total_nodes": sum(c.size() for c in index.constituents),
            "log10_p0_not_w": sum(logs)}


def _intersect_counts(result, args):
    stats = args[2] if len(args) > 2 else None
    if stats is None:
        return {}
    return {"memo_entries": stats.memo_entries, "visited": stats.visited}


# (span name, module, attribute path, counter(result, args) -> {key: value})
LAYERS = (
    ("cli.main", "mvdb.cli", "main", None),
    ("core.load_schema", "mvdb.core", "load_schema", None),
    ("core.load_data", "mvdb.core", "load_data", None),
    ("core.Mvdb", "mvdb.core", "Mvdb.__init__", None),
    ("core.possible_instance", "mvdb.core", "Mvdb.possible_instance", None),
    ("core.possible_instance", "mvdb.core", "Indb.possible_instance", None),
    ("translate.load_views", "mvdb.translate", "load_views", None),
    ("translate.build_indb", "mvdb.translate", "build_indb",
     lambda r, a: {"aux_tuples": len(r.indb.weights) - len(r.source.weights)}),
    ("translate.materialize_view", "mvdb.translate", "materialize_view",
     None),
    ("translate.query_probability", "mvdb.translate", "query_probability",
     None),
    ("translate.answer_query", "mvdb.translate", "answer_query", None),
    ("ucq.lineage", "mvdb.ucq", "lineage",
     lambda r, a: {"lineage_clauses": len(r.clauses)}),
    ("ucq.answer_tuples", "mvdb.ucq", "answer_tuples",
     lambda r, a: {"answers": len(r)}),
    ("obdd.tuple_order", "mvdb.obdd", "tuple_order", None),
    ("obdd.choose_pi", "mvdb.obdd", "choose_pi", None),
    ("obdd.con_obdd", "mvdb.obdd", "con_obdd",
     lambda r, a: {"w_nodes": r.size()}),
    ("obdd.from_lineage", "mvdb.obdd", "from_lineage",
     lambda r, a: _obdd_counts(r)),
    ("mvindex.build_index", "mvdb.mvindex", "build_index",
     lambda r, a: _index_counts(r)),
    ("mvindex.annotate", "mvdb.mvindex", "Constituent.compute_annotations",
     None),
    ("mvindex.derive", "mvdb.mvindex", "Constituent.derive", None),
    ("mvindex.serialize", "mvdb.mvindex", "serialize",
     lambda r, a: {"index_bytes": len(r)}),
    ("mvindex.deserialize", "mvdb.mvindex", "deserialize", None),
    ("mvindex.prob_q_and_not_w", "mvdb.mvindex",
     "IndexEvaluator.prob_q_and_not_w", None),
    ("mvindex.intersect", "mvdb.mvindex", "cc_mv_intersect",
     _intersect_counts),
    ("mvindex.intersect", "mvdb.mvindex", "mv_intersect", _intersect_counts),
)


class Tracer:
    """In-memory span and count recorder with install/uninstall of wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple] = []  # (request_id, key, value)
        self.requests: dict[int, str] = {}  # request_id -> kind
        self._stack: list[int] = []
        self._request = None
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1,
                self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _now()
        return span

    def _close(self, span: list):
        span[2] = _now()
        self._stack.pop()

    def request(self, kind: str, fn, *args):
        """Run ``fn(*args)`` as one request of *kind* under a root span."""
        rid = len(self.requests)
        self.requests[rid] = kind
        self._request = rid
        span = self._open("request." + kind)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._request = None

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                for key, value in counter(result, args).items():
                    self.counts.append((self._request, key, value))
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, layers=LAYERS):
        """Wrap every layer at each place the program can look it up."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mvdb" or n.startswith("mvdb.")]
        for name, module, path, counter in layers:
            owner = importlib.import_module(module)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                had_own = attr in cls.__dict__
                original = getattr(cls, attr)
                setattr(cls, attr, self.wrap(name, original, counter))
                self._patches.append(
                    (cls, attr, original if had_own else None))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                if getattr(mod, path, None) is original:
                    setattr(mod, path, wrapper)
                    self._patches.append((mod, path, original))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def per_request(self):
        """{request_id: {span name: [inclusive_ns, self_ns]}}, plus the
        root request span under its own name."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[int, dict[str, list]] = {}
        for i, (name, start, end, _, rid) in enumerate(self.spans):
            if rid is None:
                continue
            row = out.setdefault(rid, {}).setdefault(name, [0, 0])
            row[0] += end - start
            row[1] += end - start - child_ns[i]
        return out

    def request_counts(self):
        """{request_id: {key: summed value}}."""
        out: dict[int, dict[str, float]] = {}
        for rid, key, value in self.counts:
            if rid is None:
                continue
            row = out.setdefault(rid, {})
            row[key] = row.get(key, 0) + value
        return out

    def dump(self, path):
        """Write spans and counts as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span[0], "start_ns": span[1],
                                     "end_ns": span[2], "parent": span[3],
                                     "request": span[4]}) + "\n")
            for rid, key, value in self.counts:
                fh.write(json.dumps({"count": key, "value": value,
                                     "request": rid}) + "\n")
