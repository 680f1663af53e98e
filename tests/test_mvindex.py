"""Index construction, augmented annotations, intersection, serialization."""

import gc
import io
import math
import random
import struct
import sys
import zlib
from array import array

import pytest

from mvdb import (EnumerationEvaluator, Fact, IndexEvaluator, IndexFormatError,
                  IntersectStats, Lineage, Mvdb, MvdbError, OrderMismatchError,
                  UnrepresentableError, build_indb, build_index,
                  cc_mv_intersect, deserialize, from_lineage, lineage,
                  mv_intersect, parse_query, parse_schema, parse_view,
                  query_probability, rank_span, serialize)
from mvdb import mvindex, weight_to_probability
from mvdb.cli import _load_project, main
from mvdb.gendata import generate_project
from mvdb.mvindex import SINK0, SINK1, Constituent, MvIndex
from mvdb.obdd import NodeTable, Obdd, VariableOrder, con_obdd
from mvdb.translate import answer_rows

from helpers import (EX1_SCHEMA, RAND_SCHEMA, TWO_TABLE_SCHEMA, annotated,
                     chain_mvdb, chain_window, column_spans, constituents_of,
                     cut_ranks, entry_masses, entry_tables,
                     entry_tables_rescan, example1, intersect_memo,
                     derive_lanes, lone_lanes, prob_under, prob_unders,
                     random_boolean_query,
                     random_mvdb, ranks, read_columns, root_code,
                     shannon_probability, shape_of, signed_world_sum,
                     two_table_db, viable_random_mvdb, with_columns,
                     with_orphan, without_sink0)


def _ex1_index(w=0.5):
    db = example1(w=w)
    tr = build_indb(db)
    return db, tr, build_index(tr)


# -- build ---------------------------------------------------------------------

def test_build_index_example1_shape():
    db, tr, idx = _ex1_index()
    assert len(idx.constituents) == 1
    c = idx.constituents[0]
    assert c.key == "a"
    assert c.size() <= 5
    # P0(not W) against the 8-world signed enumeration
    probs = [tr.indb.probability(f) for f in idx.order.facts]
    qs = [1.0 / (1.0 + tr.indb.weights[f]) for f in idx.order.facts]
    ranks = {f: i for i, f in enumerate(idx.order.facts)}
    viol = (1 << ranks[Fact("R", ("a",))]) | (1 << ranks[Fact("S", ("a",))]) \
        | (1 << ranks[Fact("NV", ("a",))])
    want = signed_world_sum(probs, qs, lambda m: (m & viol) != viol)
    assert idx.p0_not_w == pytest.approx(want, abs=1e-12)


def test_build_index_denial_keys_by_separator():
    facts = [(Fact("S", ("a1", "b1")), 1.0), (Fact("S", ("a1", "b2")), 1.0),
             (Fact("S", ("a2", "b1")), 2.0), (Fact("S", ("a2", "b2")), 0.5),
             (Fact("S", ("a2", "b3")), 1.0)]
    db = Mvdb(TWO_TABLE_SCHEMA, facts,
              [parse_view("V(x, y, z) [0] :- S(x, y), S(x, z), y != z",
                          TWO_TABLE_SCHEMA)])
    tr = build_indb(db)
    idx = build_index(tr)
    assert [c.key for c in idx.constituents] == ["a1", "a2"]
    spans = [(c.rank_lo, c.rank_hi) for c in idx.constituents]
    assert spans[0][1] < spans[1][0]


def test_build_index_no_views():
    db = Mvdb(EX1_SCHEMA, [(Fact("R", ("a",)), 1.0)], [])
    tr = build_indb(db)
    idx = build_index(tr)
    assert idx.constituents == []
    assert idx.p0_w == 0.0
    ev = IndexEvaluator(idx, tr.indb.possible_instance())
    q = parse_query("Q() :- R('a')", EX1_SCHEMA)
    assert query_probability(q, tr, ev) == pytest.approx(0.5, abs=1e-15)


# -- annotations ------------------------------------------------------------------

def _two_table_obdd():
    db = two_table_db()
    inst = db.possible_instance()
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    pi = {"R": (0,), "S": (0, 1)}
    return con_obdd(pi, q, inst, db.domain)


def test_negation_by_sink_swap():
    g = _two_table_obdd()
    probs = [0.5, 0.25, -1.0, 2.0, 0.5, 0.75]
    [neg] = constituents_of([(None, g)])
    # the DFS preorder stable-sorted by rank, every edge into a sink sent to
    # the other
    nodes = sorted(g.reachable(), key=lambda u: g.table.var[u])
    assert nodes != g.reachable()
    swap = {0: SINK1, 1: SINK0}
    for i, u in enumerate(nodes):
        assert ranks(neg)[i] == g.table.var[u]
        for child, code in ((g.table.lo[u], neg.shape.lo[i]),
                            (g.table.hi[u], neg.shape.hi[i])):
            want = swap[child] if child <= 1 else nodes.index(child)
            assert code == want
    qs = [1.0 - p for p in probs]
    index = annotated([neg], probs, qs)
    assert prob_under(index, neg, root_code(neg)) == pytest.approx(
        1.0 - shannon_probability(g, probs, qs), abs=1e-12)


def test_prob_under_root_matches_shannon():
    g = _two_table_obdd()
    probs = [0.3, -0.5, 0.25, 0.8, 2.0, 0.1]
    [neg] = constituents_of([(None, g)])
    qs = [1.0 - p for p in probs]
    index = annotated([neg], probs, qs)
    assert prob_under(index, neg, root_code(neg)) == neg.prob_root
    assert neg.prob_root == pytest.approx(
        1.0 - shannon_probability(g, probs, qs), abs=1e-12)


def test_frontier_identities():
    # every entry table and every cut level must reproduce the root mass
    for seed in (0, 3, 5, 8, 11):
        db, tr, ev, _ = viable_random_mvdb(seed)
        idx = build_index(tr)
        for c in idx.constituents:
            if not c.shape.rank:
                continue
            entry = entry_tables(idx, c)
            for r, table in entry.items():
                total = sum(mass * prob_under(idx, c, code)
                            for code, mass in table)
                assert total == pytest.approx(c.prob_root, abs=1e-12), \
                    f"entry frontier at rank {r}"
            for r in cut_ranks(c, entry):
                level = [pos for pos, rank in enumerate(ranks(c)) if rank == r]
                assert [pos for pos, _ in entry[r]] == level
                total = sum(mass * prob_under(idx, c, pos)
                            for pos, mass in entry[r])
                assert total == pytest.approx(c.prob_root, abs=1e-12)


@pytest.fixture(scope="module")
def annotated_indices():
    indices = [build_index(build_indb(chain_mvdb(n))) for n in (20, 40)]
    indices += [build_index(viable_random_mvdb(seed)[1])
                for seed in range(12)]
    return indices


def test_derive_sweep_matches_rescan_reference(annotated_indices):
    # The engine's tables are the reference's without the 0-sink, whose
    # mass the sweep would drop; a rank whose reference table held the
    # 0-sink beside nodes of that rank alone is a cut of the engine's.
    assert any(len(idx.constituents) > 1 for idx in annotated_indices)
    dropped = 0
    for idx in annotated_indices:
        for c in idx.constituents:
            reference, cut = entry_tables_rescan(c, idx.probs, idx.qs)
            entry = without_sink0(reference)
            dropped += sum(map(len, reference.values())) - sum(
                map(len, entry.values()))
            tables = entry_tables(idx, c)
            assert tables.keys() == entry.keys()
            for r, table in entry.items():
                assert SINK0 not in [code for code, _ in tables[r]]
                assert [code for code, _ in tables[r]] == \
                    [code for code, _ in table], f"codes at rank {r}"
                for (_, got), (_, want) in zip(tables[r], table):
                    assert got == pytest.approx(want, abs=1e-12)
            assert cut_ranks(c, tables) == cut_ranks(c, entry) >= cut
    assert dropped  # the reference lists the 0-sink somewhere


# -- the lane pass ---------------------------------------------------------------

def _annotation_bits(index):
    """Every constituent's ranks and annotations, the floats by
    `float.hex`."""
    return [(list(ranks(c)), c.prob_root.hex(),
             [v.hex() for v in prob_unders(index, c)],
             [m.hex() for m in entry_masses(index, c)])
            for c in index.constituents]


def _constant_true_blocks():
    """A translation whose first two blocks are valid, so their
    constituents have the empty shape: R(a0) and R(a1) are certain."""
    db = Mvdb(EX1_SCHEMA,
              [(Fact("S", ("a1",)), 1.0), (Fact("R", ("a0",)), math.inf),
               (Fact("R", ("a1",)), math.inf), (Fact("R", ("a2",)), 2.0)],
              [parse_view("V(x) [0] :- R(x)", EX1_SCHEMA)])
    return build_indb(db)


def _hex(values) -> list:
    return [v.hex() for v in values]


def test_lanes_and_the_scalar_loop_agree_bit_for_bit(dblp_60, monkeypatch):
    # A shape of two or more constituents is annotated by lanes, and a
    # shape of one by the scalar loop.  Every constituent's lane of its
    # shape's probUnder array must equal, bit for bit, the scalar loop and
    # the lane pass run on that constituent alone; its entry tables, derived
    # alone on first use, must equal the lane reference (`derive_lanes`)
    # over its whole shape and over it alone.
    trs = [dblp_60[1], build_indb(chain_mvdb(20)), _constant_true_blocks()]
    trs += [viable_random_mvdb(seed)[1] for seed in range(60)]
    trs += [build_indb(random_mvdb(random.Random(seed)))
            for seed in (38, 400, 443)]
    gathers = []
    rank_lanes = mvindex._rank_lanes
    monkeypatch.setattr(mvindex, "_rank_lanes", lambda *args: (
        gathers.append(1), rank_lanes(*args))[1])
    for tr in trs:
        del gathers[:]
        built = build_index(tr)
        shared = sum(m > 1 for m, _ in built.annotations.values())
        loaded = deserialize(serialize(built))
        assert len(gathers) == 2 * shared
        assert _annotation_bits(loaded) == _annotation_bits(built)
        probs, qs = list(built.probs), list(built.qs)
        held = [(c.j, c.prob_root.hex()) for c in built.constituents]
        for shape in built.shapes:
            group = [c for c in built.constituents if c.shape is shape]
            m, under = built.annotations[shape]
            assert m == len(group)
            offsets = [c.offset for c in group]
            masses = derive_lanes(shape, offsets, probs, qs, (
                lone_lanes(shape, offsets[0], probs, qs) if m == 1
                else rank_lanes(shape, offsets, probs, qs)))
            for j, c in enumerate(group):
                assert c.j == j
                assert _hex(built.entry_masses(c)) == _hex(masses[j::m])
                for lanes in (None, lone_lanes(shape, c.offset, probs, qs)):
                    alone = Constituent.compute_annotations(
                        shape, [c.offset], probs, qs, lanes)
                    assert _hex(alone) == _hex(under[j::m])
                    assert c.prob_root.hex() == (
                        alone[0] if shape.rank else 0.0).hex()
                assert _hex(derive_lanes(
                    shape, [c.offset], probs, qs,
                    lone_lanes(shape, c.offset, probs, qs))) == \
                    _hex(masses[j::m])
        # The passes write nothing into the constituents.
        assert [(c.j, c.prob_root.hex()) for c in built.constituents] == held
    index = build_index(trs[2])
    empty = index.constituents[0]
    assert (len(empty.shape.rank), root_code(empty), empty.prob_root) == \
        (0, SINK0, 0.0)
    assert prob_unders(index, empty) == entry_masses(index, empty) == []
    assert ranks(empty) == ()
    assert not any(index.annotations[empty.shape][1:])


def test_lazily_derived_entry_tables_equal_the_lane_pass(tmp_path):
    # A loaded index derives no entry table until a query enters a
    # constituent, and then that constituent's alone, by the scalar loop.
    # Each must equal, bit for bit, its lane of the lane pass over its whole
    # shape (`derive_lanes`), which the loader once ran for every shape.
    dblp = generate_project(tmp_path / "dblp", seed=1, scale=2000)
    trs = [build_indb(_load_project(str(dblp))), build_indb(chain_mvdb(160))]
    trs += [viable_random_mvdb(seed)[1] for seed in range(60)]
    lanes_run = 0
    for tr in trs:
        loaded = deserialize(serialize(build_index(tr)))
        assert all(c.entry is None for c in loaded.constituents)
        probs, qs = list(loaded.probs), list(loaded.qs)
        for shape in loaded.shapes:
            group = [c for c in loaded.constituents if c.shape is shape]
            m, offsets = len(group), [c.offset for c in group]
            lanes_run += m > 1
            masses = derive_lanes(shape, offsets, probs, qs, (
                mvindex._rank_lanes(shape, offsets, probs, qs) if m > 1
                else lone_lanes(shape, offsets[0], probs, qs)))
            for j, c in enumerate(group):
                assert _hex(loaded.entry_masses(c)) == _hex(masses[j::m])
                assert loaded.entry_masses(c) is c.entry
    assert lanes_run


def _as_obdd(c, order):
    """Constituent *c*'s structure in a node table of its own, and the node
    of each position (and of each sink code)."""
    table = NodeTable(order)
    node = {SINK0: 0, SINK1: 1}
    rank, lo, hi = ranks(c), c.shape.lo, c.shape.hi
    for pos in range(len(rank) - 1, -1, -1):
        node[pos] = table.make(rank[pos], node[lo[pos]], node[hi[pos]])
    return table, node


@pytest.mark.parametrize("view_weight", [0.0, 1e-20, 3.0])
def test_annotations_match_the_references_at_extreme_weights(view_weight):
    # Twelve blocks R(i), S(i) of one shape, weighing 1e20, 1e-20 and 1 in
    # turn: p rounds to 1.0 at 1e20, where only q = 1/(1+w) is exact, on
    # the index's lane pass over all twelve, and on the scalar loop and the
    # lane pass over each constituent alone.
    weights = (1e20, 1e-20, 1.0)
    facts = [(Fact(rel, (i,)), weights[(i + j) % 3]) for i in range(12)
             for j, rel in enumerate(("R", "S"))]
    view = parse_view(f"V(x) [{view_weight}] :- R(x), S(x)", BLOCK_SCHEMA)
    tr = build_indb(Mvdb(BLOCK_SCHEMA, facts, [view]))
    built = build_index(tr)
    probs, qs = built.probs, built.qs
    assert 1.0 in probs and 1e-20 in qs
    assert [m for m, _ in built.annotations.values()] == [12]
    runs = [(built, built.constituents)]
    for c in built.constituents:
        for lanes in (None, lone_lanes(c.shape, c.offset, probs, qs)):
            alone = Constituent(c.key, c.shape, c.offset)
            runs.append((annotated([alone], probs, qs, lanes), [alone]))
    for idx, cons in runs:
        for c in cons:
            assert c.shape.rank
            table, node = _as_obdd(c, built.order)
            for pos, under in enumerate(prob_unders(idx, c)):
                assert under == shannon_probability(
                    Obdd(table, node[pos]), probs, qs)
            assert c.prob_root == shannon_probability(
                Obdd(table, node[root_code(c)]), probs, qs)
            assert c.prob_root != 0.0
            tables = entry_tables(idx, c)
            assert tables == without_sink0(
                entry_tables_rescan(c, probs, qs)[0])
            assert all(code != SINK0 for table in tables.values()
                       for code, _ in table)


# -- point probability ---------------------------------------------------------------

def _point_probability(fact, idx):
    """P0(X and not-W) for one tuple variable: the intersection of the
    fact's one-node OBDD."""
    g = from_lineage(Lineage((frozenset([fact]),)), idx.order)
    return cc_mv_intersect(g, idx)


def test_point_probability_absent_variable():
    db, tr, idx = _ex1_index()
    schema2 = EX1_SCHEMA
    # T is not part of this schema; extend the database instead
    facts = list(example1().weights.items())
    db2 = Mvdb(RAND_SCHEMA, [(Fact("R", ("a",)), 2.0), (Fact("S", ("a", "b")), 3.0),
                             (Fact("T", ("t",)), 1.5)],
               [parse_view("V(x) [0.5] :- R(x), S(x, y)", RAND_SCHEMA)])
    tr2 = build_indb(db2)
    idx2 = build_index(tr2)
    t = Fact("T", ("t",))
    r = idx2.order.rank_of(t)
    assert not any(c.rank_lo <= r <= c.rank_hi for c in idx2.constituents)
    want = tr2.indb.probability(t) * idx2.p0_not_w
    assert _point_probability(t, idx2) == pytest.approx(want, abs=1e-12)


def test_point_probability_against_enumeration():
    db, tr, idx = _ex1_index()
    ev = EnumerationEvaluator(tr)
    for fact in idx.order.facts:
        if fact.relation == "NV":
            continue
        q = parse_query(f"Q() :- {fact.relation}('{fact.values[0]}')",
                        EX1_SCHEMA)
        want = ev.prob_q_and_not_w(q)
        assert _point_probability(fact, idx) == pytest.approx(want, abs=1e-12)


def test_point_probability_root_variable_formula():
    db, tr, idx = _ex1_index()
    c = idx.constituents[0]
    root_fact = idx.order.facts[ranks(c)[0]]
    p = idx.probs[ranks(c)[0]]
    want = p * prob_under(idx, c, c.shape.hi[0])
    assert _point_probability(root_fact, idx) == pytest.approx(want, abs=1e-12)


def test_point_probability_fallback_on_level_skips():
    db = Mvdb(RAND_SCHEMA,
              [(Fact("R", ("a0",)), 2.0), (Fact("S", ("a0", "b0")), 1.0),
               (Fact("S", ("a0", "b1")), 3.0)],
              [parse_view("V(x) [2] :- R(x), S(x, y)", RAND_SCHEMA)])
    tr = build_indb(db)
    idx = build_index(tr)
    ev = EnumerationEvaluator(tr)
    skipped = Fact("S", ("a0", "b1"))
    # some path of the constituent skips the tuple's level
    r = idx.order.rank_of(skipped)
    [c] = [c for c in idx.constituents if c.rank_lo <= r <= c.rank_hi]
    assert r in ranks(c) and r not in cut_ranks(c, entry_tables(idx, c))
    q = parse_query("Q() :- S('a0', 'b1')", RAND_SCHEMA)
    assert _point_probability(skipped, idx) == pytest.approx(
        ev.prob_q_and_not_w(q), abs=1e-12)


# -- intersection -----------------------------------------------------------------

def test_intersect_sink_cases():
    db, tr, idx = _ex1_index()
    true_g = from_lineage(Lineage((frozenset(),)), idx.order)
    false_g = from_lineage(Lineage(()), idx.order)
    assert mv_intersect(true_g, idx) == pytest.approx(idx.p0_not_w, abs=1e-15)
    assert cc_mv_intersect(true_g, idx) == pytest.approx(idx.p0_not_w,
                                                         abs=1e-15)
    assert mv_intersect(false_g, idx) == 0.0
    assert cc_mv_intersect(false_g, idx) == 0.0


def test_intersect_disjoint_query_is_a_product():
    db = Mvdb(RAND_SCHEMA,
              [(Fact("R", ("a0",)), 2.0), (Fact("S", ("a0", "b0")), 3.0),
               (Fact("T", ("b2",)), 0.5)],
              [parse_view("V(x) [4] :- R(x), S(x, y)", RAND_SCHEMA)])
    tr = build_indb(db)
    idx = build_index(tr)
    q = parse_query("Q() :- T('b2')", RAND_SCHEMA)
    phi = lineage(q, tr.indb.possible_instance())
    gq = from_lineage(phi, idx.order)
    p_t = tr.indb.probability(Fact("T", ("b2",)))
    for fn in (mv_intersect, cc_mv_intersect):
        assert fn(gq, idx) == pytest.approx(p_t * idx.p0_not_w, abs=1e-12)


def test_intersect_matches_enumeration_randomized():
    rng = random.Random(19)
    for seed in range(30):
        db, tr, ev, _ = viable_random_mvdb(seed)
        idx = build_index(tr)
        inst = tr.indb.possible_instance()
        for _ in range(4):
            q = random_boolean_query(rng)
            phi = lineage(q, inst)
            gq = from_lineage(phi, idx.order)
            want = ev.prob_q_and_not_w(q)
            got_mv = mv_intersect(gq, idx)
            got_cc = cc_mv_intersect(gq, idx)
            assert got_mv == pytest.approx(want, abs=1e-9)
            assert got_cc == pytest.approx(got_mv, abs=1e-12)


def test_cc_visited_bound():
    rng = random.Random(29)
    for seed in range(20):
        db, tr, ev, _ = viable_random_mvdb(seed)
        idx = build_index(tr)
        if not idx.constituents:
            continue
        inst = tr.indb.possible_instance()
        for _ in range(4):
            q = random_boolean_query(rng)
            gq = from_lineage(lineage(q, inst), idx.order)
            stats = IntersectStats()
            cc_mv_intersect(gq, idx, stats)
            m = rank_span(gq)
            assert stats.visited <= m * max(1, idx.max_width())


def test_stats_describe_only_the_call_they_are_passed_to(blocks_1e3):
    # a stats object passed to a second, different query reports exactly
    # what a fresh object reports for that query
    tr, idx = blocks_1e3
    inst = tr.indb.possible_instance()
    wide, point = (
        from_lineage(lineage(parse_query(text, BLOCK_SCHEMA), inst),
                     idx.order)
        for text in ("Q() :- R(x), S(x)", "Q() :- R(7)"))
    for fn in (mv_intersect, cc_mv_intersect):
        reused, fresh = IntersectStats(), IntersectStats()
        fn(wide, idx, reused)
        first = (reused.visited, reused.memo_entries)
        fn(point, idx, reused)
        fn(point, idx, fresh)
        assert reused == fresh, fn.__name__
        assert (fresh.visited, fresh.memo_entries) != first
        assert 0 < fresh.visited < first[0]


def test_intersect_order_mismatch():
    db, tr, idx = _ex1_index()
    other = VariableOrder(tuple(reversed(idx.order.facts)))
    gq = from_lineage(Lineage((frozenset(),)), other)
    with pytest.raises(OrderMismatchError):
        mv_intersect(gq, idx)


@pytest.fixture(scope="module")
def dblp_60(tmp_path_factory):
    project = generate_project(tmp_path_factory.mktemp("dblp"), seed=1,
                               scale=60)
    db = _load_project(str(project))
    tr = build_indb(db)
    return db, tr, IndexEvaluator(build_index(tr), db.possible_instance())


def test_query_path_never_compares_orders(dblp_60, monkeypatch):
    db, _, ev = dblp_60
    s, a = ev.instance.facts_of("Advisor")[0].values
    point = parse_query(f"Q() :- Advisor({s}, {a})", db.schema)
    answers = parse_query(f"Q(s) :- Advisor(s, {a}), Student(s, y)",
                          db.schema)
    want = (ev.probability(point), answer_rows(answers, ev.instance, ev))

    def boom(*args):
        raise AssertionError("variable orders compared")

    monkeypatch.setattr(VariableOrder, "__eq__", boom)
    monkeypatch.setattr(VariableOrder, "__hash__", boom)
    for mode in ("cc", "mv"):
        fresh = IndexEvaluator(ev.index, ev.instance, mode)
        got = (fresh.probability(point),
               answer_rows(answers, fresh.instance, fresh))
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert [r for r, _ in got[1]] == [r for r, _ in want[1]]
        assert [p for _, p in got[1]] == pytest.approx(
            [p for _, p in want[1]], abs=1e-12)


def test_concurrent_queries_build_each_relation_once(dblp_60, monkeypatch):
    # Threads querying one freshly loaded index at once rank facts of
    # relations not built yet and enter constituents with no entry tables
    # yet: each relation is built once, and every answer keeps its bits.
    import threading
    import time
    db, _, ev = dblp_60
    facts = ev.instance.facts_of("Advisor")[::7]
    queries = [parse_query(f"Q() :- Advisor({s}, {a}), Student({s}, y)",
                           db.schema) for s, a in (f.values for f in facts)]
    modes = ("cc", "mv")
    want = {mode: [IndexEvaluator(ev.index, ev.instance, mode)
                   .probability(q).hex() for q in queries] for mode in modes}
    builds = []
    real = mvindex._relation_builder

    def counted(name, *args):
        build = real(name, *args)

        def slow():
            builds.append(name)
            time.sleep(0.01)  # widens the window for a second build
            return build()
        return slow

    monkeypatch.setattr(mvindex, "_relation_builder", counted)
    loaded = deserialize(serialize(ev.index))
    got, errors = {}, []
    start = threading.Barrier(6)

    def worker(i):
        try:
            start.wait(timeout=60)
            mine = IndexEvaluator(loaded, ev.instance, modes[i % 2])
            got[i] = [mine.probability(q).hex() for q in queries]
        except Exception as exc:  # reported below, with its thread
            errors.append((i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == {i: want[modes[i % 2]] for i in range(6)}
    assert sorted(builds) == ["Advisor", "Student"]


def test_equal_distinct_order_accepted_reversed_rejected(dblp_60):
    db, _, ev = dblp_60
    idx = ev.index
    phi = lineage(parse_query("Q() :- Advisor(s, a), Student(s, y)",
                              db.schema), ev.instance)
    want = cc_mv_intersect(from_lineage(phi, idx.order), idx)
    same = VariableOrder(idx.order.facts)
    assert same is not idx.order and same == idx.order
    assert hash(same) == hash(idx.order)
    for fn in (mv_intersect, cc_mv_intersect):
        assert fn(from_lineage(phi, same), idx) == pytest.approx(
            want, abs=1e-12)
    flipped = VariableOrder(reversed(idx.order.facts))
    assert flipped != idx.order
    for fn in (mv_intersect, cc_mv_intersect):
        with pytest.raises(OrderMismatchError):
            fn(from_lineage(phi, flipped), idx)


def test_index_evaluator_modes_agree(two_table=None):
    rng = random.Random(37)
    for seed in range(10):
        db, tr, ev, _ = viable_random_mvdb(seed)
        idx = build_index(tr)
        inst = tr.indb.possible_instance()
        cc = IndexEvaluator(idx, inst, "cc")
        mv = IndexEvaluator(idx, inst, "mv")
        for _ in range(3):
            q = random_boolean_query(rng)
            assert cc.prob_q_and_not_w(q) == pytest.approx(
                mv.prob_q_and_not_w(q), abs=1e-12)


# -- serialization ------------------------------------------------------------------

def test_serialize_roundtrip_identical():
    db, tr, idx = _ex1_index()
    blob = serialize(idx)
    idx2 = deserialize(blob)
    assert serialize(idx2) == blob
    assert idx2.p0_w == idx.p0_w
    assert idx2.order.facts == idx.order.facts
    assert [c.key for c in idx2.constituents] == \
        [c.key for c in idx.constituents]
    assert prob_unders(idx2, idx2.constituents[0]) == \
        prob_unders(idx, idx.constituents[0])


def test_loaded_index_memory_budget(tmp_path):
    # tracemalloc's bytes after one load, per ordered tuple: 520.8 with
    # per-constituent annotation rows and lists of floats, about 314 with
    # one flat array per shape and annotation.
    import tracemalloc
    db = _load_project(str(generate_project(tmp_path / "p", seed=1,
                                            scale=500)))
    blob = serialize(build_index(build_indb(db)))
    gc.collect()
    tracemalloc.start()
    try:
        index = deserialize(blob)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(index.order) <= 380


def test_serialize_deterministic_across_builds():
    b1 = serialize(build_index(build_indb(example1())))
    b2 = serialize(build_index(build_indb(example1())))
    assert b1 == b2


@pytest.mark.parametrize("enabled", [True, False])
def test_deserialize_pauses_the_collector_and_restores_it(enabled,
                                                          monkeypatch):
    blob = serialize(_ex1_index()[2])
    bad = bytearray(blob)
    bad[4:8] = struct.pack("<I", 99)
    bad[-4:] = struct.pack("<I", zlib.crc32(bytes(bad[:-4])))
    seen = []
    decode = mvindex._decode_order

    def spy(columns):
        seen.append(gc.isenabled())
        return decode(columns)

    monkeypatch.setattr(mvindex, "_decode_order", spy)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        deserialize(blob)
        assert seen == [False]
        assert gc.isenabled() is enabled
        with pytest.raises(IndexFormatError, match="version"):
            deserialize(bytes(bad))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_build_index_pauses_the_collector_and_restores_it(enabled,
                                                          monkeypatch):
    tr = build_indb(example1())
    seen = []
    compile_blocks = mvindex._compile_blocks

    def spy(*args):
        seen.append(gc.isenabled())
        return compile_blocks(*args)

    def fail(*args):
        seen.append(gc.isenabled())
        raise MvdbError("block failed")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(mvindex, "_compile_blocks", spy)
        build_index(tr)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(mvindex, "_compile_blocks", fail)
        with pytest.raises(MvdbError, match="block failed"):
            build_index(tr)
        assert gc.isenabled() is enabled
        assert seen == [False, False]
    finally:
        (gc.enable if was else gc.disable)()


def test_deserialize_checksum_failure():
    blob = bytearray(serialize(_ex1_index()[2]))
    blob[10] ^= 0xFF
    with pytest.raises(IndexFormatError, match="checksum"):
        deserialize(bytes(blob))


def test_deserialize_version_mismatch():
    blob = bytearray(serialize(_ex1_index()[2]))
    blob[4:8] = struct.pack("<I", 99)
    body = bytes(blob[:-4])
    patched = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(IndexFormatError, match="version"):
        deserialize(patched)


def test_deserialize_rejects_format_version_2():
    # versions 2 and 3 (DFS-ordered nodes with root codes and permutations),
    # 4 (every constituent's nodes stored, no shapes) and 5 (a JSON section)
    blob = bytearray(serialize(_ex1_index()[2]))
    for version in (2, 3, 4, 5):
        blob[4:8] = struct.pack("<I", version)
        body = bytes(blob[:-4])
        with pytest.raises(IndexFormatError, match=f"unsupported format "
                           f"version {version}; recompile"):
            deserialize(body + struct.pack("<I", zlib.crc32(body)))


def test_file_holds_structure_only(annotated_indices):
    # header, then columns: one weight per tuple, one head per constituent,
    # the nodes of each distinct shape once and no annotation; then CRC-32
    for idx in annotated_indices:
        blob = serialize(idx)
        columns = read_columns(blob)
        shapes = {shape_of(c) for c in idx.constituents}
        n_nodes = sum(len(rank) for rank, _, _ in shapes)
        assert columns["weight"] == idx.weights
        assert len(columns["relation"]) == len(idx.order)
        assert len(columns["nodes"]) == len(shapes)
        assert [len(columns[name]) for name in ("key", "shape", "gap")] \
            == [len(idx.constituents)] * 3
        assert [len(columns[name]) for name in ("rank", "lo", "hi")] \
            == [n_nodes] * 3
        assert len(blob) == 40 + sum(5 + c.itemsize * len(c)
                                     for c in columns.values()) + 4


def test_load_derives_the_build_annotations(annotated_indices):
    for idx in annotated_indices:
        loaded = deserialize(serialize(idx))
        assert len(loaded.constituents) == len(idx.constituents)
        for built, got in zip(idx.constituents, loaded.constituents):
            got_tables = entry_tables(loaded, got)
            built_tables = entry_tables(idx, built)
            assert prob_unders(loaded, got) == prob_unders(idx, built)
            assert got.prob_root == built.prob_root
            assert got_tables == built_tables
            assert cut_ranks(got, got_tables) == \
                cut_ranks(built, built_tables)


def test_round_trip_answers_are_bit_identical():
    # A loaded index derives its tables from the file alone and must answer
    # exactly as the index it was written from, in both modes.
    for seed in range(60):
        tr = viable_random_mvdb(seed)[1]
        built = build_index(tr)
        loaded = deserialize(serialize(built))
        assert [entry_tables(loaded, c) for c in loaded.constituents] == \
            [entry_tables(built, c) for c in built.constituents]
        inst = tr.indb.possible_instance()
        rng = random.Random(seed)
        for q in [random_boolean_query(rng) for _ in range(5)]:
            for mode in ("cc", "mv"):
                want, got = (IndexEvaluator(idx, inst, mode)
                             for idx in (built, loaded))
                assert repr(got.prob_q_and_not_w(q)) == \
                    repr(want.prob_q_and_not_w(q)), (seed, q, mode)
                assert repr(got.probability(q)) == \
                    repr(want.probability(q)), (seed, q, mode)


@pytest.mark.parametrize("where", ["rank_lo", "rank_hi"])
def test_deserialize_position_no_edge_reaches(where):
    # A compile never writes a node that no edge reaches; on load such a
    # node would inflate size() and the width, so the layout check rejects
    # it.
    blob = serialize(_denial_index())
    with pytest.raises(IndexFormatError, match="no edge's child"):
        deserialize(with_columns(blob, with_orphan(where == "rank_lo")))


def test_deserialize_truncation():
    blob = serialize(_ex1_index()[2])
    with pytest.raises(IndexFormatError):
        deserialize(blob[: len(blob) // 2])


def _denial_index():
    facts = [(Fact("S", ("a1", "b1")), 1.0), (Fact("S", ("a1", "b2")), 1.0),
             (Fact("S", ("a2", "b1")), 2.0), (Fact("S", ("a2", "b2")), 0.5),
             (Fact("S", ("a2", "b3")), 1.0)]
    db = Mvdb(TWO_TABLE_SCHEMA, facts,
              [parse_view("V(x, y, z) [0] :- S(x, y), S(x, z), y != z",
                          TWO_TABLE_SCHEMA)])
    return build_index(build_indb(db))


# Edits of the denial index's columns: its two constituents have one shape
# each, shape 0 the first one's and shape 1 the last one's.

def _child_out_of_range(columns):
    columns["lo"][0] = 10000


def _backward_edge(columns):
    columns["hi"][columns["nodes"][0] - 1] = 0


def _rank_outside_order(columns):
    # the last constituent's offset is the sum of the gaps
    columns["rank"][-1] = len(columns["relation"]) - sum(columns["gap"])


def _root_not_lowest_rank(columns):
    columns["rank"][-1] = -1


def _overlapping_ranges(columns):
    columns["gap"][1] = 0


@pytest.mark.parametrize("edit, message", [
    (_child_out_of_range, "child code 10000"),
    (_backward_edge, "child code 0"),
    (_rank_outside_order, "outside the variable order"),
    (_root_not_lowest_rank, "not in rank order"),
    (_overlapping_ranges, "overlap"),
])
def test_deserialize_rejects_malformed_structure(edit, message):
    idx = _denial_index()
    assert len(idx.constituents) == 2
    assert [c.shape for c in idx.constituents] == idx.shapes
    assert all(len(c.shape.rank) > 1 for c in idx.constituents)
    blob = serialize(idx)
    deserialize(with_columns(blob, lambda cols: cols))  # a re-encoding loads
    with pytest.raises(IndexFormatError, match=message):
        deserialize(with_columns(blob, lambda cols: edit(cols) or cols))


def test_deserialize_rejects_a_shape_past_the_order_before_building_it(
        monkeypatch):
    # The entry codes' scan runs over every rank of a shape, so a relative
    # rank far past the tuple order is rejected before any is found.
    def far_past(columns):
        columns["rank"][-1] = 2 ** 40
        return columns

    scanned = []
    real = mvindex._entry_codes

    def spy(rank, lo, hi):
        scanned.append(max(rank, default=0))
        return real(rank, lo, hi) if scanned[-1] < 2 ** 40 else ([], [0])

    monkeypatch.setattr(mvindex, "_entry_codes", spy)
    blob = with_columns(serialize(_denial_index()), far_past)
    with pytest.raises(IndexFormatError, match="outside the variable order"):
        deserialize(blob)
    assert scanned and max(scanned) < 2 ** 40


def test_deserialize_rejects_shape_ranks_not_starting_at_0():
    # A shape's ranks are relative to its first.  Shifted by one either way
    # the layout stays valid, but the file is no longer canonical, and below
    # 0 a constituent would read probabilities before its own offset.
    idx = _denial_index()
    blob = serialize(idx)
    n = len(idx.shapes[0].rank)
    assert read_columns(blob)["rank"][0] == 0
    for shift in (1, -1):
        def edit(columns):
            columns["rank"][:n] = [r + shift for r in columns["rank"][:n]]
            return columns
        with pytest.raises(IndexFormatError, match="do not start at 0"):
            deserialize(with_columns(blob, edit))


def _set(path, value):
    def edit(meta):
        target = meta
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return meta
    return edit


def _pop(name):
    def edit(columns):
        columns[name].pop()
        return columns
    return edit


def _domain_twice(columns):
    """The domain's last string, b3, spelled as its first, a1: S(a2, b3)
    becomes S(a2, a1), which no other tuple is."""
    columns["strings"][-2:] = list(b"a1")
    return columns


# The denial index holds one relation, S, and five tuples over a domain of
# five strings: a1, b1, b2, a2, b3, in that id order.
@pytest.mark.parametrize("edit, message", [
    # the column reader: a typecode the column may not have, and a count
    # past the bytes left
    (lambda cols: {**cols, "shape": b"z" + bytes(4)}, "bad index metadata"),
    (lambda cols: {**cols, "hi": struct.pack("<BI", ord("b"), 2 ** 31)},
     "bad index metadata"),
    # each column, by its length and its bounds
    (_set(("values", 0), 5), "layout"),  # past the domain
    (_set(("values", 0), -1), "layout"),
    (_pop("values"), "layout"),  # one short of the relations' arities
    (_pop("arity"), "layout"),  # a relation without an arity
    (_pop("complete"), "layout"),  # a relation without its flag
    (_set(("complete", 0), 2), "layout"),  # a flag neither 0 nor 1
    (_set(("arity", 0), -1), "layout"),
    (_set(("key", 0), 6), "layout"),  # past the domain, counting None
    (_set(("key", 0), -1), "layout"),
    (_set(("shape", 0), -1), "layout"),
    (_set(("gap", 1), -1), "layout"),  # heads out of rank order
    (_pop("gap"), "layout"),  # head columns of unequal lengths
    (_set(("nodes", 0), -1), "layout"),
    (_set(("name_ends", 0), 2), "layout"),  # past the names' text
    (_set(("string_ends", 1), 1), "layout"),  # ends out of order
    (_set(("strings", 0), 0xFF), "layout"),  # not UTF-8
    (_set(("ints",), list(b"1 x")), "layout"),  # not a decimal numeral
    (_set(("relation", 0), 1), "unknown relation"),
    # S is the one relation, so its values run in rank order: tuple 1 is
    # now tuple 0
    (_set(("values", 3), 1), "duplicate tuple"),
    (_domain_twice, "duplicate value in the index domain"),
])
def test_deserialize_rejects_malformed_metadata(edit, message):
    blob = serialize(_denial_index())
    assert deserialize(with_columns(blob, lambda cols: cols)).order == \
        deserialize(blob).order  # a re-encoding loads
    with pytest.raises(IndexFormatError, match=message):
        deserialize(with_columns(blob, edit))


def test_the_values_column_runs_relation_by_relation():
    # R(0), S(0), R(1), S(1) in rank order; the values column holds R's
    # tuples, then S's, each in rank order, so an edit of its item 1 makes
    # R(1) a second R(0).
    facts = [(Fact(rel, (i,)), 1.0) for i in range(2) for rel in ("R", "S")]
    db = Mvdb(BLOCK_SCHEMA, facts,
              [parse_view("V(x) [0] :- R(x), S(x)", BLOCK_SCHEMA)])
    idx = build_index(build_indb(db))
    assert [str(f) for f in idx.order.facts] == ["R(0)", "S(0)", "R(1)",
                                                 "S(1)"]
    blob = serialize(idx)
    columns = read_columns(blob)
    assert columns["relation"].tolist() == [0, 1, 0, 1]
    assert columns["values"].tolist() == [0, 1, 0, 1]
    loaded = deserialize(blob)
    assert loaded.held_facts(["S"]) == {"S": [Fact("S", (0,)),
                                              Fact("S", (1,))]}
    assert {f.relation for f in loaded.order.rank} == {"S"}
    assert loaded.order.rank_of(Fact("R", (1,))) == 2
    assert loaded.order.facts == idx.order.facts
    with pytest.raises(IndexFormatError,
                       match="duplicate tuple in variable order"):
        deserialize(with_columns(blob, _set(("values", 1), 0)))


def test_deserialize_rejects_an_empty_constituent_after_a_non_empty_one():
    # R(a0) is uncertain and R(a1) certain: a1's constituent is empty, and
    # a0's starts at rank 0.  With the heads swapped, the offsets stay 0,
    # but the empty one is no longer first in rank order.
    db = Mvdb(EX1_SCHEMA, [(Fact("R", ("a0",)), 2.0),
                           (Fact("R", ("a1",)), math.inf)],
              [parse_view("V(x) [0] :- R(x)", EX1_SCHEMA)])
    idx = build_index(build_indb(db))
    assert [(c.key, c.rank_lo) for c in idx.constituents] == [("a1", -1),
                                                              ("a0", 0)]
    blob = serialize(idx)

    def swap(columns):
        for name in ("key", "shape"):
            columns[name].reverse()
        return columns
    with pytest.raises(IndexFormatError,
                       match="empty constituent after a non-empty one"):
        deserialize(with_columns(blob, swap))


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
def test_deserialize_rejects_weights_without_a_probability(weight):
    blob = serialize(_denial_index())
    with pytest.raises(IndexFormatError, match="weight is NaN, infinite"):
        deserialize(with_columns(blob, _set(("weight", 2), weight)))


def test_weights_round_trip_beyond_probability_one():
    # p = w/(1+w) rounds to 1.0 at w = 1e20; the file stores w itself, and
    # the loader derives p bit for bit as the compiler does.
    facts = [(Fact("R", (0,)), 1e20), (Fact("S", (0,)), 1.0),
             (Fact("R", (1,)), 0.25), (Fact("S", (1,)), 3.0)]
    db = Mvdb(BLOCK_SCHEMA, facts,
              [parse_view("V(x) [0] :- R(x), S(x)", BLOCK_SCHEMA)])
    tr = build_indb(db)
    built = build_index(tr)
    loaded = deserialize(serialize(built))
    assert loaded.weights == built.weights
    assert sorted(loaded.weights) == [0.25, 1.0, 3.0, 1e20]
    want = [weight_to_probability(tr.indb.weights[f])
            for f in loaded.order.facts]
    assert list(map(float.hex, loaded.probs)) == list(map(float.hex, want))
    assert 1.0 in loaded.probs


@pytest.mark.parametrize("values, code", [
    ([], "B"), ([0, 255], "B"), ([256], "H"), ([0, 65535], "H"),
    ([65536], "I"), ([2 ** 31 - 1], "I"), ([2 ** 31], "I"),
    ([2 ** 32 - 1], "I"), ([2 ** 32], "Q"), ([2 ** 64 - 1], "Q"),
    ([-1], "b"), ([-2, -1, 127], "b"), ([-128], "b"), ([-129], "h"),
    ([-1, 128], "h"), ([-2, 32767], "h"), ([-1, 32768], "i"),
    ([-2 ** 31], "i"), ([-2 ** 31 - 1], "q"), ([-1, 2 ** 31], "q"),
    ([-2 ** 63, 2 ** 63 - 1], "q"),
])
def test_column_takes_the_narrowest_typecode(values, code):
    data = mvindex._column(values)
    assert data[:1] == code.encode()
    assert struct.unpack_from("<I", data, 1)[0] == len(values)
    assert len(data) == 5 + array(code).itemsize * len(values)
    column, end = mvindex._read_column(data, 0, "values")
    assert column.tolist() == values and end == len(data)


def test_column_beyond_64_bits_is_refused():
    for values in ([2 ** 64], [-2 ** 63 - 1], [-1, 2 ** 63]):
        with pytest.raises(OverflowError):
            mvindex._column(values)


@pytest.mark.parametrize("data, words", [
    (b"", "truncated"), (b"B\0\0\0", "truncated"),
    (struct.pack("<BI", ord("d"), 0), "typecode 'd'"),
    (struct.pack("<BI", 0, 0), "typecode"),
    (struct.pack("<BI", ord("B"), 3) + b"ab", "past the end"),
    (struct.pack("<BI", ord("H"), 2) + b"abc", "past the end"),
])
def test_column_reader_checks_typecode_count_and_bytes_left(data, words):
    with pytest.raises(IndexFormatError, match=words):
        mvindex._read_column(data, 0, "values")


_TYPECODES = b"bBhHiIqQdz"


def _mutations(blob: bytes, rng: random.Random, count: int):
    """*count* seeded mutations of *blob*'s body, each with a valid CRC:
    byte replacements, bit flips, deletions and insertions anywhere, and
    edits of one column's typecode, its count, or one of its items, set to
    all one bits (an id past any count, -1, or a NaN weight)."""
    body = blob[:-4]
    spans = column_spans(blob)
    for i in range(count):
        b = bytearray(body)
        kind = i % 5
        pos = rng.randrange(len(b))
        if kind == 0:
            b[pos] = rng.randrange(256)
        elif kind == 1:
            b[pos] ^= 1 << rng.randrange(8)
        elif kind == 2:
            del b[pos:pos + rng.randint(1, 8)]
        elif kind == 3:
            b[pos:pos] = bytes(rng.randrange(256)
                               for _ in range(rng.randint(1, 8)))
        else:
            _, code, start, end = rng.choice(spans)
            part = rng.randrange(3)
            if part == 2 and end > start + 5:
                size = array(code).itemsize
                at = rng.randrange(start + 5, end, size)
                b[at:at + size] = b"\xff" * size
            elif part == 1:
                n = struct.unpack_from("<I", b, start + 1)[0]
                struct.pack_into("<I", b, start + 1, max(0, n + rng.choice(
                    (-2, -1, 1, 2, 2 ** 20))))
            else:
                b[start] = rng.choice(_TYPECODES)
        yield bytes(b) + struct.pack("<I", zlib.crc32(b))


def test_deserialize_fuzz_raises_only_index_format_errors():
    rng = random.Random(20120801)
    outcomes = {"loaded": 0, "rejected": 0}
    for index in (_denial_index(), _ex1_index()[2],
                  build_index(build_indb(chain_mvdb(3)))):
        for mutated in _mutations(serialize(index), rng, 400):
            try:
                deserialize(mutated)
            except IndexFormatError:
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0, outcomes


def test_deserialized_index_answers_queries():
    db, tr, idx = _ex1_index()
    idx2 = deserialize(serialize(idx))
    ev = IndexEvaluator(idx2, tr.indb.possible_instance())
    q = parse_query("Q() :- R('a') ; S('a')", EX1_SCHEMA)
    assert query_probability(q, tr, ev) == pytest.approx(8 / 9, abs=1e-12)


def test_cc_worst_case_full_span_visits_at_most_everything():
    db, tr, idx = _ex1_index()
    first = idx.order.facts[0]
    last = idx.order.facts[len(idx.order) - 1]
    phi = Lineage((frozenset([first, last]),))
    gq = from_lineage(phi, idx.order)
    stats = IntersectStats()
    cc_mv_intersect(gq, idx, stats)
    total_nodes = sum(len(c.shape.rank) for c in idx.constituents)
    assert stats.visited <= total_nodes
    assert stats.visited <= rank_span(gq) * max(1, idx.max_width())


def test_cc_selective_query_visits_only_its_window():
    facts = [(Fact("S", (f"a{i}", f"b{j}")), 1.0)
             for i in range(6) for j in range(2)]
    db = Mvdb(TWO_TABLE_SCHEMA, facts,
              [parse_view("V(x, y, z) [0] :- S(x, y), S(x, z), y != z",
                          TWO_TABLE_SCHEMA)])
    tr = build_indb(db)
    idx = build_index(tr)
    ev = EnumerationEvaluator(tr)
    mid = idx.order.facts[len(idx.order) // 2]
    phi = Lineage((frozenset([mid]),))
    gq = from_lineage(phi, idx.order)
    stats = IntersectStats()
    got = cc_mv_intersect(gq, idx, stats)
    q = parse_query(f"Q() :- S('{mid.values[0]}', '{mid.values[1]}')",
                    TWO_TABLE_SCHEMA)
    assert got == pytest.approx(ev.prob_q_and_not_w(q), abs=1e-12)
    assert stats.visited <= 1 * max(1, idx.max_width())
    assert stats.visited < sum(len(c.shape.rank) for c in idx.constituents)


# -- normalization, underflow and zero blocks ------------------------------------

BLOCK_SCHEMA = parse_schema("""
relation R(x:int) key(x) probabilistic
relation S(x:int) key(x) probabilistic
""")
N_BLOCKS = 400


def _many_blocks(w):
    """N_BLOCKS independent denial blocks ``V(x)[0] :- R(x), S(x)``, every
    tuple at weight *w*: P(R(i)) = w / (1 + 2w) in each block."""
    facts = [(Fact(rel, (i,)), w) for i in range(N_BLOCKS)
             for rel in ("R", "S")]
    db = Mvdb(BLOCK_SCHEMA, facts,
              [parse_view("V(x) [0] :- R(x), S(x)", BLOCK_SCHEMA)])
    tr = build_indb(db)
    return tr, build_index(tr)


@pytest.fixture(scope="module")
def blocks_1e3():
    return _many_blocks(1e3)


def test_window_normalization_survives_p0_not_w_underflow(blocks_1e3):
    tr, idx = blocks_1e3
    w = 1e3
    assert len(idx.constituents) == N_BLOCKS
    assert idx.p0_not_w == 0.0 and not idx.zero_block
    one = w / (1 + 2 * w)
    cases = {f"Q() :- R({N_BLOCKS - 1})": one,
             "Q() :- R(0)": one,
             # windows spanning every block: their own product underflows too
             f"Q() :- R(0), R({N_BLOCKS - 1})": one * one,
             "Q() :- R(x)": 1 - ((1 + w) / (1 + 2 * w)) ** N_BLOCKS}
    inst = tr.indb.possible_instance()
    for mode in ("cc", "mv"):
        ev = IndexEvaluator(idx, inst, mode)
        for text, want in cases.items():
            got = query_probability(parse_query(text, BLOCK_SCHEMA), tr, ev)
            assert got == pytest.approx(want, abs=1e-9), (mode, text)


def test_log10_p0_not_w_survives_underflow(blocks_1e3):
    _, idx = blocks_1e3
    assert idx.p0_not_w == 0.0
    assert math.isfinite(idx.log10_p0_not_w)
    assert idx.log10_p0_not_w == pytest.approx(
        sum(math.log10(c.prob_root) for c in idx.constituents), abs=1e-9)
    p = 1e3 / (1 + 1e3)
    assert idx.log10_p0_not_w == pytest.approx(
        N_BLOCKS * math.log10(1 - p * p), rel=1e-9)


@pytest.fixture(scope="module")
def dblp_overflow(tmp_path_factory):
    """gen-dblp seed 1 scale 200 with V1's weight raised from ``cnt / 2`` to
    ``cnt * 1000000``: P0(not W) is about 10^1193, past the float range."""
    project = generate_project(tmp_path_factory.mktemp("overflow") / "p",
                               seed=1, scale=200)
    views = project / "views.txt"
    views.write_text(views.read_text().replace("[cnt / 2]",
                                               "[cnt * 1000000]"))
    tr = build_indb(_load_project(str(project)))
    return project, tr, build_index(tr)


def test_log10_p0_not_w_survives_overflow(dblp_overflow):
    _, tr, idx = dblp_overflow
    assert math.isinf(idx.nonzero_roots)
    assert idx.p0_not_w is None and idx.p0_w is None
    assert math.isfinite(idx.log10_p0_not_w)
    assert idx.log10_p0_not_w == pytest.approx(
        sum(math.log10(abs(c.prob_root)) for c in idx.constituents),
        abs=1e-9)
    assert idx.log10_p0_not_w > math.log10(sys.float_info.max)
    assert idx.sign_p0_not_w == 1
    loaded = deserialize(serialize(idx))
    assert loaded.p0_not_w is None
    assert loaded.log10_p0_not_w == idx.log10_p0_not_w
    # P(Q) stays a probability; P0(Q and not W) is not a float
    q = parse_query("Q() :- Advisor(9, a)", tr.indb.schema)
    inst = tr.indb.possible_instance()
    cc, mv = (IndexEvaluator(idx, inst, mode) for mode in ("cc", "mv"))
    assert 0.0 <= cc.probability(q) <= 1.0
    assert cc.probability(q) == pytest.approx(mv.probability(q), abs=1e-12)
    with pytest.raises(UnrepresentableError, match="log10"):
        cc.prob_q_and_not_w(q)


@pytest.mark.parametrize("text", ["Q() :- Advisor(9, a)",
                                  "Q() :- Advisor(9, 99999)"])
def test_p0_q_and_not_w_is_unrepresentable_past_the_float_range(
        dblp_overflow, text):
    # Every route to P0(Q and not W) raises alike, in both modes, where the
    # product of the roots would make it inf (a query that holds somewhere)
    # or nan (one that holds nowhere, total 0.0); P(Q) stays a probability.
    _, tr, idx = dblp_overflow
    q = parse_query(text, tr.indb.schema)
    inst = tr.indb.possible_instance()
    gq = from_lineage(lineage(q, inst), idx.order)
    for fn, mode in ((cc_mv_intersect, "cc"), (mv_intersect, "mv")):
        with pytest.raises(UnrepresentableError, match="log10"):
            fn(gq, idx)
        ev = IndexEvaluator(idx, inst, mode)
        with pytest.raises(UnrepresentableError, match="log10"):
            ev.prob_q_and_not_w(q)
        assert 0.0 <= ev.probability(q) <= 1.0
        assert (ev.probability(q) == 0.0) == text.endswith("99999)")


def test_a_negative_root_keeps_its_sign_in_the_logarithm(tmp_path):
    # Two denial blocks R(i), S(i): at weight -2 (p = 2.0) block 0's root
    # probability is 1 - 2 * 2 = -3.0, at weight 1 block 1's is 0.75.
    facts = [(Fact(rel, (i,)), 1.0) for i in range(2) for rel in ("R", "S")]
    db = Mvdb(BLOCK_SCHEMA, facts,
              [parse_view("V(x) [0] :- R(x), S(x)", BLOCK_SCHEMA)])
    base = build_index(build_indb(db))
    weights = [-2.0 if f.values == (0,) else 1.0 for f in base.order.facts]
    idx = MvIndex([Constituent(c.key, c.shape, c.offset)
                   for c in base.constituents], base.order, weights,
                  base.source_digest, base.complete)
    assert [c.prob_root for c in idx.constituents] == [-3.0, 0.75]
    assert (idx.sign_p0_not_w, idx.p0_not_w) == (-1, -2.25)
    assert idx.log10_p0_not_w == pytest.approx(math.log10(2.25), abs=1e-15)
    path = tmp_path / "index.mvx"
    mvindex.save_index(idx, path)
    out = io.StringIO()
    assert main(["stats", "--index", str(path)], out=out) == 0
    assert out.getvalue().splitlines()[-1].endswith(
        f"P0(not W) = -2.25, log10 -P0(not W) = {idx.log10_p0_not_w!r}")


def test_ten_weight_1e20_blocks_answer_one_half():
    # p = w/(1+w) rounds to 1.0 at w = 1e20, where 1 - p is 0.0 and made
    # every block's P0(not W) exactly 0.  q = 1/(1+w) is 1e-20, so each
    # block's root probability is q + p q = 2e-20, and P(R(0)) =
    # w/(1+2w) = 0.5, before and after a round trip.
    facts = [(Fact(rel, (i,)), 1e20) for i in range(10)
             for rel in ("R", "S")]
    db = Mvdb(BLOCK_SCHEMA, facts,
              [parse_view("V(x) [0] :- R(x), S(x)", BLOCK_SCHEMA)])
    tr = build_indb(db)
    built = build_index(tr)
    assert set(built.probs) == {1.0} and set(built.qs) == {1e-20}
    assert [c.prob_root for c in built.constituents] == [2e-20] * 10
    inst = tr.indb.possible_instance()
    q = parse_query("Q() :- R(0)", BLOCK_SCHEMA)
    for idx in (built, deserialize(serialize(built))):
        assert not idx.zero_block
        for mode in ("cc", "mv"):
            got = query_probability(q, tr, IndexEvaluator(idx, inst, mode))
            assert got == pytest.approx(0.5, abs=1e-9), mode
        _assert_sweep_matches_memo(_query_obdd("Q() :- R(0)", BLOCK_SCHEMA,
                                               inst, idx), idx)


@pytest.mark.parametrize("view_weight", [0.0, 0.5, 3.0])
def test_single_block_closed_forms_at_every_weight(view_weight):
    # One block of R(0), S(0) under V(x) [wv] :- R(x), S(x): the worlds {},
    # {R}, {S} and {R, S} weigh 1, wR, wS and wR wS wv, so P(R(0)) =
    # wR (1 + wS wv) / (1 + wR + wS + wR wS wv), and wR / (1 + wR + wS)
    # for the denial view (wv = 0).  Above 1, wv gives the view's auxiliary
    # tuple a weight in (-1, 0): its probability is below 0 and q above 1.
    view = parse_view(f"V(x) [{view_weight}] :- R(x), S(x)", BLOCK_SCHEMA)
    q = parse_query("Q() :- R(0)", BLOCK_SCHEMA)
    for k in range(-20, 21):
        w_r = 10.0 ** k
        for w_s in (w_r, 1.0 / w_r, 1.0):
            db = Mvdb(BLOCK_SCHEMA, [(Fact("R", (0,)), w_r),
                                     (Fact("S", (0,)), w_s)], [view])
            tr = build_indb(db)
            idx = build_index(tr)
            inst = tr.indb.possible_instance()
            both = w_r * w_s * view_weight
            want = (w_r + both) / (1.0 + w_r + w_s + both)
            for ev in (IndexEvaluator(idx, inst, "cc"),
                       IndexEvaluator(idx, inst, "mv"),
                       EnumerationEvaluator(tr)):
                assert query_probability(q, tr, ev) == pytest.approx(
                    want, abs=1e-9), (w_r, w_s, type(ev).__name__)


ZERO_BLOCK_QUERIES = ("Q() :- R(0)", "Q() :- R(1)", "Q() :- R(0) ; R(2)",
                      "Q() :- R(0), S(2)", "Q() :- S(x)")


def _zero_block_index():
    """Three denial blocks whose signed probabilities make block 1's root
    probability exactly 0.0: P0(R(1) and S(1)) = 1."""
    facts = [(Fact(rel, (i,)), 1.0) for i in range(3) for rel in ("R", "S")]
    db = Mvdb(BLOCK_SCHEMA, facts,
              [parse_view("V(x) [0] :- R(x), S(x)", BLOCK_SCHEMA)])
    tr = build_indb(db)
    base = build_index(tr)
    # weights -2 and 1 give the probabilities 2.0 and 0.5
    signed = {Fact("R", (1,)): -2.0, Fact("S", (1,)): 1.0}
    weights = [signed.get(f, 0.3) for f in base.order.facts]
    cons = [Constituent(c.key, c.shape, c.offset)
            for c in base.constituents]
    idx = MvIndex(cons, base.order, weights, base.source_digest,
                  base.complete)
    assert [idx.probs[base.order.rank_of(f)] for f in signed] == [2.0, 0.5]
    return tr, idx


def test_zero_block_inside_the_window():
    # The global P0(Q and not-W) must still match the world sum whether the
    # query reaches the zero block or only spans it.
    tr, idx = _zero_block_index()
    probs = idx.probs
    assert idx.zero_block and idx.p0_not_w == 0.0
    assert idx.log10_p0_not_w == -math.inf
    bit = {f: 1 << r for r, f in enumerate(idx.order.facts)}
    blocks = [bit[Fact("R", (i,))] | bit[Fact("S", (i,))] for i in range(3)]
    inst = tr.indb.possible_instance()
    for text in ZERO_BLOCK_QUERIES:
        phi = lineage(parse_query(text, BLOCK_SCHEMA), inst)
        clauses = [sum(bit[f] for f in cl) for cl in phi.clauses]
        want = signed_world_sum(probs, idx.qs, lambda m: (
            any(m & cl == cl for cl in clauses)
            and not any(m & b == b for b in blocks)))
        gq = from_lineage(phi, idx.order)
        for fn in (mv_intersect, cc_mv_intersect):
            assert fn(gq, idx) == pytest.approx(want, abs=1e-12), (fn, text)


def test_point_query_cost_independent_of_position(blocks_1e3):
    tr, idx = blocks_1e3
    inst = tr.indb.possible_instance()
    for fn in (mv_intersect, cc_mv_intersect):
        counts = []
        for i in (0, N_BLOCKS // 2, N_BLOCKS - 1):
            q = parse_query(f"Q() :- R({i})", BLOCK_SCHEMA)
            gq = from_lineage(lineage(q, inst), idx.order)
            stats = IntersectStats()
            fn(gq, idx, stats)
            counts.append(stats.memo_entries)
            assert stats.visited <= rank_span(gq) * idx.max_width()
        assert counts[0] == counts[1] == counts[2], fn.__name__


# -- the forward sweep against the memo reference --------------------------------

def _assert_sweep_matches_memo(gq, idx):
    """Both modes: ratio and global within 1e-12 relative of the memo, the
    same nodes visited, and every state expanded exactly once (the memo's
    tasks with a non-sink query node)."""
    for cc in (True, False):
        got_stats, want_stats = IntersectStats(), IntersectStats()
        total = mvindex._intersect(gq, idx, cc, got_stats)
        got = (total, mvindex._p0_q_and_not_w(idx, total))
        want = intersect_memo(gq, idx, cc, want_stats)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(abs(g), abs(w)), (cc, got, want)
        assert got_stats == want_stats, cc


def _query_obdd(text, schema, instance, idx):
    return from_lineage(lineage(parse_query(text, schema), instance),
                        idx.order)


def test_sweep_matches_memo_on_dblp(dblp_60):
    db, _, ev = dblp_60
    texts = [f"Q() :- Advisor({s}, {a})"
             for _, (s, a) in ev.instance.facts_of("Advisor")]
    texts += ["Q() :- Advisor(s, a)", "Q() :- Advisor(s, a), Student(s, y)"]
    for text in texts:
        _assert_sweep_matches_memo(
            _query_obdd(text, db.schema, ev.instance, ev.index), ev.index)


@pytest.mark.parametrize("n", [20, 40])
def test_sweep_matches_memo_on_every_chain_window(n):
    db = chain_mvdb(n)
    idx = build_index(build_indb(db))
    inst = db.possible_instance()
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            gq = from_lineage(lineage(chain_window(lo, hi), inst), idx.order)
            _assert_sweep_matches_memo(gq, idx)


def test_sweep_matches_memo_on_random_databases():
    rng = random.Random(61)
    for seed in range(60):
        _, tr, _, _ = viable_random_mvdb(seed)
        idx = build_index(tr)
        inst = tr.indb.possible_instance()
        for _ in range(4):
            gq = from_lineage(lineage(random_boolean_query(rng), inst),
                              idx.order)
            _assert_sweep_matches_memo(gq, idx)


def test_sweep_matches_memo_on_underflow_and_zero_blocks(blocks_1e3):
    tr, idx = blocks_1e3
    inst = tr.indb.possible_instance()
    for text in (f"Q() :- R({N_BLOCKS - 1})", "Q() :- R(0)",
                 f"Q() :- R(0), R({N_BLOCKS - 1})", "Q() :- R(x)",
                 "Q() :- R(x), S(x)"):
        _assert_sweep_matches_memo(
            _query_obdd(text, BLOCK_SCHEMA, inst, idx), idx)
    tr, idx = _zero_block_index()
    inst = tr.indb.possible_instance()
    for text in ZERO_BLOCK_QUERIES:
        _assert_sweep_matches_memo(
            _query_obdd(text, BLOCK_SCHEMA, inst, idx), idx)


def test_sweep_matches_memo_on_sink_queries(blocks_1e3):
    for idx in (_ex1_index()[2], blocks_1e3[1], _zero_block_index()[1]):
        for phi in (Lineage((frozenset(),)), Lineage(())):
            _assert_sweep_matches_memo(from_lineage(phi, idx.order), idx)


def test_sweep_passes_and_enters_at_one_rank_in_increasing_k():
    # Denial blocks 1, 2 and 3 (R(x), S(x)) after the block-free tuple R(0).
    # For Q = (R(0) and S(3)) or (S(2) and S(3)), splitting R(0) in front of
    # block 1 sends S(2) straight to block 2 and S(3) straight to block 3,
    # the first blocks whose ranks reach theirs.  S(3) also reaches block 3
    # from S(2) after block 2 is left through its 1-sink, and the two join
    # before block 3 is entered at S(3)'s rank, so each of the seven states
    # is expanded once: R(0) in front of block 1; S(2) in front of blocks 2
    # and 3; S(3) in front of block 3 and past the last block; S(2) against
    # block 2's S(2) node and S(3) against block 3's S(3) node.  The jumps
    # leave out the three states that passed a block one at a time: S(2)
    # in front of block 1, and S(3) in front of blocks 1 and 2.
    facts = [(Fact("R", (0,)), 2.0)]
    facts += [(Fact(rel, (i,)), 1.0 + i) for i in (1, 2, 3)
              for rel in ("R", "S")]
    db = Mvdb(BLOCK_SCHEMA, facts,
              [parse_view("V(x) [0] :- R(x), S(x)", BLOCK_SCHEMA)])
    tr = build_indb(db)
    idx = build_index(tr)
    rank = idx.order.rank_of
    assert [(c.rank_lo, c.rank_hi) for c in idx.constituents] == \
        [(rank(Fact("R", (i,))), rank(Fact("S", (i,)))) for i in (1, 2, 3)]
    assert rank(Fact("R", (0,))) < idx.constituents[0].rank_lo
    q = parse_query("Q() :- R(0), S(3) ; S(2), S(3)", BLOCK_SCHEMA)
    gq = from_lineage(lineage(q, tr.indb.possible_instance()), idx.order)
    _assert_sweep_matches_memo(gq, idx)
    stats = IntersectStats()
    got = cc_mv_intersect(gq, idx, stats)
    assert stats.memo_entries == 7
    want = EnumerationEvaluator(tr).prob_q_and_not_w(q)
    assert got == pytest.approx(want, abs=1e-12)


def test_point_query_counts_do_not_grow_with_the_database(tmp_path):
    # Online cost does not grow with the database: the same point query
    # expands the same states and visits the same nodes at four times the
    # size, and the index keeps its width.  Its bytes per tuple are
    # `test_index_size_grows_linearly_with_the_database`'s.
    seen = []
    for scale in (100, 400):
        db = _load_project(str(generate_project(tmp_path / str(scale),
                                                seed=1, scale=scale)))
        idx = build_index(build_indb(db))
        gq = _query_obdd("Q() :- Advisor(7, a)", db.schema,
                         db.possible_instance(), idx)
        counts = []
        for fn in (mv_intersect, cc_mv_intersect):
            stats = IntersectStats()
            fn(gq, idx, stats)
            counts.append((stats.visited, stats.memo_entries))
        seen.append((counts, idx.max_width()))
    (counts_100, width_100), (counts_400, width_400) = seen
    assert counts_100 == counts_400
    assert all(visited > 0 for visited, _ in counts_100)
    assert width_100 == width_400


def test_spanning_query_counts_do_not_grow_with_the_database(tmp_path):
    # A query that meets the first and the last student's constituents
    # jumps over every constituent between them: at four times the size it
    # expands the same states and visits the same nodes, in both modes.
    seen = []
    for scale in (100, 400):
        db = _load_project(str(generate_project(tmp_path / str(scale),
                                                seed=1, scale=scale)))
        idx = build_index(build_indb(db))
        gq = _query_obdd(f"Q() :- Advisor(1, a), Advisor({scale}, b)",
                         db.schema, db.possible_instance(), idx)
        counts = []
        for fn in (mv_intersect, cc_mv_intersect):
            stats = IntersectStats()
            fn(gq, idx, stats)
            counts.append((stats.visited, stats.memo_entries))
        seen.append(counts)
    assert seen[0] == seen[1]
    assert all(visited > 0 for visited, _ in seen[0])


def test_index_size_grows_linearly_with_the_database(tmp_path):
    # gen-dblp's blocks come in a fixed set of shapes, so as the database
    # grows the file holds the same shapes and node columns, and each other
    # column gains a fixed number of items per tuple or per constituent.
    # An id column takes the narrowest typecode that holds its ids: scale
    # 100 has 119 constants, one byte each, and scales 400 and 1,600 have
    # more than 256, two bytes each.  So within one id width the bytes per
    # tuple are flat within 1%, and the one step between widths adds at
    # most one byte per id.
    seen = {}
    for scale in (100, 400, 1600):
        db = _load_project(str(generate_project(tmp_path / str(scale),
                                                seed=1, scale=scale)))
        idx = build_index(build_indb(db))
        blob = serialize(idx)
        columns = read_columns(blob)
        n = len(idx.order)
        seen[scale] = (idx.shape_count(),
                       [columns[name] for name in ("nodes", "rank", "lo",
                                                   "hi")],
                       columns["values"].typecode, len(blob) / n,
                       (len(columns["values"]) + len(columns["key"])) / n)
    shapes, nodes, codes, bpt, ids = (
        {scale: row[i] for scale, row in seen.items()} for i in range(5))
    assert set(shapes.values()) == {2}
    assert nodes[100] == nodes[400] == nodes[1600]
    assert codes == {100: "B", 400: "H", 1600: "H"}
    assert abs(bpt[1600] - bpt[400]) <= 0.01 * bpt[400]
    assert bpt[100] < bpt[400] <= bpt[100] + ids[100]
