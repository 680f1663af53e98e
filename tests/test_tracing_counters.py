"""The attributes the benchmark's tracer counters read must exist in mvdb.

`perfbench/tracing.py` counts by reading attributes of what the wrapped
layers return: the index's constituents, widths, sizes and root
probabilities, the query OBDD's size and rank span, the intersection's
`IntersectStats`, and the translation's weight tables.  A rename of any of
them would otherwise break only the benchmark's traced runs.  Each counter
runs here on a small compiled index and must return numbers."""

import importlib.util
import math
import numbers
from pathlib import Path

from mvdb import (IntersectStats, build_indb, build_index, cc_mv_intersect,
                  from_lineage, lineage, mv_intersect)

from helpers import chain_mvdb, chain_window

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numeric(counts: dict, keys) -> dict:
    assert set(counts) == set(keys)
    for key, value in counts.items():
        assert isinstance(value, numbers.Real) and not isinstance(
            value, bool), (key, value)
        assert math.isfinite(value), (key, value)
    return counts


def test_every_counter_reads_numbers():
    tracing = _tracing_module()
    db = chain_mvdb(6)
    [build_indb_counter] = [counter for name, _, _, counter in tracing.LAYERS
                            if name == "translate.build_indb"]
    tr = build_indb(db)
    counts = _numeric(build_indb_counter(tr, (db,)), ["aux_tuples"])
    assert counts["aux_tuples"] > 0

    index = build_index(tr)
    counts = _numeric(tracing._index_counts(index),
                      ["constituents", "max_width", "total_nodes",
                       "log10_p0_not_w"])
    assert counts["constituents"] == len(index.constituents) > 0
    assert counts["max_width"] == index.max_width()

    q = chain_window(1, 4)
    gq = from_lineage(lineage(q, tr.indb.possible_instance()), index.order)
    counts = _numeric(tracing._obdd_counts(gq),
                      ["query_nodes", "query_rank_span"])
    assert counts["query_nodes"] == gq.size() > 2

    for intersect in (cc_mv_intersect, mv_intersect):
        stats = IntersectStats()
        result = intersect(gq, index, stats)
        counts = _numeric(tracing._intersect_counts(result,
                                                    (gq, index, stats)),
                          ["memo_entries", "visited"])
        assert counts["memo_entries"] > 0 and counts["visited"] > 0
    assert tracing._intersect_counts(0.0, (gq, index)) == {}
