"""OBDD kernel: ordering, synthesis, concatenation, compilation, Shannon."""

import random

import pytest

import mvdb
from mvdb import (INF, Fact, Mvdb, NodeTable, Obdd, OrderMismatchError,
                  VariableOrder, choose_pi, from_lineage, lineage,
                  parse_query, synthesize, tuple_order)
from mvdb.ucq import Lineage

from helpers import (RAND_SCHEMA, TWO_TABLE_SCHEMA, chain_mvdb,
                     chain_window, con_obdd_structural as con_obdd,
                     concatenate, domain_constants, from_lineage_clausewise,
                     lineage_models, obdd_models, obdd_width,
                     probabilistic_relations, random_boolean_query,
                     random_mvdb, shannon_probability,
                     signed_world_sum, tuple_order_grouped, two_table_db)


def _assert_ordered_reduced(g: Obdd):
    seen = set()
    for u in g.reachable():
        key = (g.table.var[u], g.table.lo[u], g.table.hi[u])
        assert key not in seen, "duplicate node"
        seen.add(key)
        assert g.table.lo[u] != g.table.hi[u], "redundant node"
        for c in (g.table.lo[u], g.table.hi[u]):
            if c > 1:
                assert g.table.var[c] > g.table.var[u], "order violated"


# -- tuple order --------------------------------------------------------------

def test_tuple_order_two_table():
    db = two_table_db()
    pi = {"R": (0,), "S": (0, 1)}
    order = tuple_order(pi, db.probabilistic_facts(), db.domain, db.schema)
    assert [str(f) for f in order.facts] == [
        "R('a1')", "S('a1','b1')", "S('a1','b2')",
        "R('a2')", "S('a2','b3')", "S('a2','b4')"]


def test_tuple_order_swapped_permutation_groups_by_second_attribute():
    db = two_table_db()
    pi = {"R": (0,), "S": (1, 0)}
    order = tuple_order(pi, db.probabilistic_facts(), db.domain, db.schema)
    assert [str(f) for f in order.facts] == [
        "R('a1')", "R('a2')", "S('a1','b1')", "S('a1','b2')",
        "S('a2','b3')", "S('a2','b4')"]


def test_tuple_order_single_unary_relation_is_domain_order():
    from helpers import EX1_SCHEMA
    db = Mvdb(EX1_SCHEMA, [(Fact("R", (c,)), 1.0) for c in "cab"], [])
    order = tuple_order({}, db.probabilistic_facts(), db.domain, db.schema)
    assert [f.values[0] for f in order.facts] == ["c", "a", "b"]


def _assert_grouped(pi, facts, domain, schema):
    got = tuple_order(pi, facts, domain, schema)
    assert got.facts == tuple_order_grouped(pi, facts, domain, schema).facts
    return got


def test_tuple_order_is_recursive_grouping_on_dblp(tmp_path):
    from mvdb import build_indb
    from mvdb.cli import _load_project
    from mvdb.gendata import generate_project
    tr = build_indb(_load_project(generate_project(tmp_path / "p", seed=1,
                                                   scale=60)))
    indb = tr.indb
    pi = choose_pi(tr.w_query, indb.schema, tr.var_rels)
    assert pi
    _assert_grouped(pi, indb.probabilistic_facts(), indb.domain, indb.schema)


def test_tuple_order_is_recursive_grouping_on_chain():
    from mvdb import build_indb
    tr = build_indb(chain_mvdb(20))
    indb = tr.indb
    pi = choose_pi(tr.w_query, indb.schema, tr.var_rels)
    _assert_grouped(pi, indb.probabilistic_facts(), indb.domain, indb.schema)


def test_tuple_order_is_recursive_grouping_on_random_facts():
    # x and y share one pool of constants, so unary tuples of different
    # relations tie on their values and S tuples extend unary ones
    rng = random.Random(61)
    consts = ["a0", "a1", "a2", "a3"]
    pool = ([Fact(r, (c,)) for r in ("D", "R", "T") for c in consts]
            + [Fact("S", (c, d)) for c in consts for d in consts])
    for _ in range(200):
        facts = rng.sample(pool, rng.randint(1, 14))
        db = Mvdb(RAND_SCHEMA, [(f, INF if f.relation == "D" else 1.0)
                                for f in facts], [])
        pi = {r: tuple(rng.sample(range(n), n))
              for r, n in (("D", 1), ("R", 1), ("S", 2), ("T", 1))
              if rng.random() < 0.5}
        order = _assert_grouped(pi, facts, db.domain, db.schema)
        shuffled = list(facts)
        rng.shuffle(shuffled)
        assert tuple_order(pi, shuffled, db.domain, db.schema).facts == \
            order.facts


# -- from_lineage --------------------------------------------------------------

def test_from_lineage_sinks():
    order = VariableOrder([Fact("R", ("a",))])
    assert from_lineage(Lineage((frozenset(),)), order).root == 1
    assert from_lineage(Lineage(()), order).root == 0


def test_from_lineage_two_table_semantics():
    db = two_table_db()
    inst = db.possible_instance()
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    phi = lineage(q, inst)
    pi = {"R": (0,), "S": (0, 1)}
    order = tuple_order(pi, db.probabilistic_facts(), db.domain, db.schema)
    g = from_lineage(phi, order)
    _assert_ordered_reduced(g)
    assert obdd_models(g, 6) == lineage_models(phi, order, 6)
    # (X1 and (Y1 or Y2)) or (X2 and (Y3 or Y4)): six internal nodes
    assert g.size() == 8
    assert obdd_width(g) == 1


def test_from_lineage_ignores_the_clause_order():
    db = two_table_db()
    q = parse_query("Q() :- R(x), S(x, y) ; S(x, y), x != 'a2'",
                    TWO_TABLE_SCHEMA)
    phi = lineage(q, db.possible_instance())
    assert len(phi.clauses) > 2
    order = tuple_order({}, db.probabilistic_facts(), db.domain, db.schema)
    t = NodeTable(order)
    g = from_lineage(phi, order, t)
    size = len(t)
    assert from_lineage(Lineage(phi.clauses[::-1]), order, t).root == g.root
    assert len(t) == size


def test_from_lineage_matches_clausewise_reference_on_random_dnfs():
    rng = random.Random(41)
    order = VariableOrder([Fact("R", (f"c{i}",)) for i in range(8)])
    t = NodeTable(order)
    for _ in range(200):
        phi = Lineage.normalize(
            frozenset(Fact("R", (f"c{i}",))
                      for i in rng.sample(range(8), rng.randint(0, 4)))
            for _ in range(rng.randint(0, 6)))
        g = from_lineage(phi, order, t)
        assert g.root == from_lineage_clausewise(phi, order, t).root
        _assert_ordered_reduced(g)


def _chain_index(n):
    from mvdb import build_index, build_indb
    tr = build_indb(chain_mvdb(n))
    return tr, build_index(tr)


def test_from_lineage_matches_clausewise_reference_on_chain_windows():
    tr, idx = _chain_index(20)
    inst = tr.indb.possible_instance()
    t = NodeTable(idx.order)
    for lo, hi in ((0, 1), (3, 9), (12, 20), (0, 20)):
        phi = lineage(chain_window(lo, hi), inst)
        g = from_lineage(phi, idx.order, t)
        assert g.root == from_lineage_clausewise(phi, idx.order, t).root


def test_from_lineage_table_growth_is_linear_in_the_result():
    # ORing 320 clauses one full apply at a time left 178,886 nodes in the
    # table for this 1,120-node result
    tr, idx = _chain_index(160)
    phi = lineage(chain_window(0, 160), tr.indb.possible_instance())
    assert len(phi.clauses) == 320
    t = NodeTable(idx.order)
    g = from_lineage(phi, idx.order, t)
    assert len(t) <= 2 * g.size() + 16


# -- synthesize ----------------------------------------------------------------

def _single(table, rank):
    return Obdd(table, table.make(rank, 0, 1))


def test_synthesize_identities():
    order = VariableOrder([Fact("R", (c,)) for c in "abc"])
    t = NodeTable(order)
    g = _single(t, 0)
    assert synthesize("or", g, Obdd(t, 0)).root == g.root
    assert synthesize("and", g, Obdd(t, 1)).root == g.root
    assert synthesize("or", g, Obdd(t, 1)).root == 1
    assert synthesize("and", g, Obdd(t, 0)).root == 0


def test_synthesize_shared_variable():
    order = VariableOrder([Fact("R", (c,)) for c in "abc"])
    t = NodeTable(order)
    x1, y1, y2 = _single(t, 0), _single(t, 1), _single(t, 2)
    left = synthesize("and", x1, y1)
    right = synthesize("and", x1, y2)
    both = synthesize("or", left, right)
    want = synthesize("and", x1, synthesize("or", y1, y2))
    assert both.root == want.root
    assert obdd_models(both, 3) == {0b011, 0b101, 0b111}


def test_synthesize_random_matches_truth_tables():
    rng = random.Random(5)
    order = VariableOrder([Fact("R", (f"c{i}",)) for i in range(8)])
    for _ in range(40):
        t = NodeTable(order)
        def rand_dnf():
            return Lineage.normalize(
                frozenset(Fact("R", (f"c{i}",))
                          for i in rng.sample(range(8), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4)))
        p1, p2 = rand_dnf(), rand_dnf()
        g1 = from_lineage(p1, order, t)
        g2 = from_lineage(p2, order, t)
        for op, fn in (("or", lambda a, b: a | b), ("and", lambda a, b: a & b)):
            g = synthesize(op, g1, g2)
            _assert_ordered_reduced(g)
            assert obdd_models(g, 8) == fn(obdd_models(g1, 8),
                                           obdd_models(g2, 8))


def test_synthesize_table_mismatch():
    order = VariableOrder([Fact("R", ("a",))])
    g1 = _single(NodeTable(order), 0)
    g2 = _single(NodeTable(order), 0)
    with pytest.raises(OrderMismatchError):
        synthesize("or", g1, g2)


# -- concatenate ----------------------------------------------------------------

def test_concatenate_identities():
    order = VariableOrder([Fact("R", (c,)) for c in "ab"])
    t = NodeTable(order)
    g = _single(t, 0)
    assert concatenate("or", g, Obdd(t, 0)).root == g.root
    assert concatenate("and", g, Obdd(t, 1)).root == g.root


def test_concatenate_assembles_two_table_obdd():
    db = two_table_db()
    pi = {"R": (0,), "S": (0, 1)}
    order = tuple_order(pi, db.probabilistic_facts(), db.domain, db.schema)
    t = NodeTable(order)
    # block for a1: X1 and (Y1 or Y2); block for a2: X2 and (Y3 or Y4)
    def block(x, y1, y2):
        return synthesize("and", _single(t, x),
                          synthesize("or", _single(t, y1), _single(t, y2)))
    b1, b2 = block(0, 1, 2), block(3, 4, 5)
    g = concatenate("or", b1, b2)
    _assert_ordered_reduced(g)
    inst = db.possible_instance()
    phi = lineage(parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA), inst)
    assert obdd_models(g, 6) == lineage_models(phi, order, 6)
    assert g.size() == b1.size() + b2.size() - 2  # sinks shared in the arena


def test_concatenate_refuses_interleaved_ranges():
    order = VariableOrder([Fact("R", (c,)) for c in "abcd"])
    t = NodeTable(order)
    left = synthesize("and", _single(t, 0), _single(t, 2))
    right = _single(t, 1)
    with pytest.raises(OrderMismatchError):
        concatenate("or", left, right)


def test_concatenate_matches_synthesize_on_random_disjoint_pairs():
    rng = random.Random(9)
    order = VariableOrder([Fact("R", (f"c{i}",)) for i in range(12)])
    for _ in range(100):
        t = NodeTable(order)
        cut = rng.randint(1, 11)
        def rand_dnf(lo, hi):
            return Lineage.normalize(
                frozenset(Fact("R", (f"c{i}",))
                          for i in rng.sample(range(lo, hi),
                                              rng.randint(1, min(3, hi - lo))))
                for _ in range(rng.randint(1, 3)))
        g1 = from_lineage(rand_dnf(0, cut), order, t)
        g2 = from_lineage(rand_dnf(cut, 12), order, t)
        op = rng.choice(["or", "and"])
        if g1.root <= 1 or g2.root <= 1:
            continue
        got = concatenate(op, g1, g2)
        want = synthesize(op, g1, g2)
        assert got.root == want.root  # canonical arena: equal functions share roots


# -- con_obdd -------------------------------------------------------------------

def test_con_obdd_two_table_matches_canonical_form():
    db = two_table_db()
    inst = db.possible_instance()
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    pi = {"R": (0,), "S": (0, 1)}
    g = con_obdd(pi, q, inst, db.domain)
    assert [str(f) for f in g.order.facts] == [
        "R('a1')", "S('a1','b1')", "S('a1','b2')",
        "R('a2')", "S('a2','b3')", "S('a2','b4')"]
    phi = lineage(q, inst)
    assert obdd_models(g, 6) == lineage_models(phi, g.order, 6)
    assert from_lineage(phi, g.order, g.table).root == g.root
    assert obdd_width(g) == 1


def test_con_obdd_size_additivity_over_separator_blocks():
    from mvdb import find_separator, specialize_separator
    db = two_table_db()
    inst = db.possible_instance()
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    pi = {"R": (0,), "S": (0, 1)}
    whole = con_obdd(pi, q, inst, db.domain)
    sep = find_separator(q, probabilistic_relations(db.schema))
    total_internal = 0
    for c in domain_constants(db.domain):
        block = con_obdd(pi, specialize_separator(q, sep, c), inst, db.domain)
        total_internal += block.size() - 2
    assert whole.size() - 2 == total_internal


def test_con_obdd_inversion_case_falls_back_to_synthesis():
    facts = [(Fact("R", ("a0",)), 1.0), (Fact("R", ("a1",)), 1.0),
             (Fact("S", ("a0", "b0")), 1.0), (Fact("S", ("a1", "b0")), 1.0),
             (Fact("S", ("a1", "b1")), 1.0),
             (Fact("T", ("b0",)), 1.0), (Fact("T", ("b1",)), 1.0)]
    db = Mvdb(RAND_SCHEMA, facts, [])
    inst = db.possible_instance()
    q = parse_query("Q() :- R(x1), S(x1, y1) ; S(x2, y2), T(y2)", RAND_SCHEMA)
    pi = choose_pi(q, db.schema, probabilistic_relations(db.schema))
    g = con_obdd(pi, q, inst, db.domain)
    _assert_ordered_reduced(g)
    phi = lineage(q, inst)
    n = len(g.order)
    assert obdd_models(g, n) == lineage_models(phi, g.order, n)


def test_con_obdd_random_queries_match_lineage():
    rng = random.Random(17)
    for _ in range(60):
        db = random_mvdb(rng, max_tuples=10)
        inst = db.possible_instance()
        q = random_boolean_query(rng)
        pi = choose_pi(q, db.schema, probabilistic_relations(db.schema))
        g = con_obdd(pi, q, inst, db.domain)
        _assert_ordered_reduced(g)
        phi = lineage(q, inst)
        n = len(g.order)
        assert obdd_models(g, n) == lineage_models(phi, g.order, n)
        assert from_lineage(phi, g.order, g.table).root == g.root


def test_con_obdd_is_from_lineage_of_lineage():
    # mvdb.con_obdd compiles the lineage; the structural reference never
    # forms it.  Canonicity puts both on the same root of a shared table.
    rng = random.Random(17)
    for _ in range(200):
        db = random_mvdb(rng, max_tuples=10)
        inst = db.possible_instance()
        q = random_boolean_query(rng)
        pi = choose_pi(q, db.schema, probabilistic_relations(db.schema))
        want = con_obdd(pi, q, inst, db.domain)
        got = mvdb.con_obdd(pi, q, inst, db.domain, table=want.table)
        assert got.root == want.root
        assert mvdb.con_obdd(pi, q, inst, db.domain).order == want.order
    tr, idx = _chain_index(20)
    inst = tr.indb.possible_instance()
    pi = choose_pi(tr.w_query, tr.indb.schema, tr.var_rels)
    t = NodeTable(idx.order)
    for lo, hi in ((0, 1), (3, 9), (12, 20), (0, 20)):
        q = chain_window(lo, hi)
        want = con_obdd(pi, q, inst, tr.indb.domain, idx.order, t)
        got = mvdb.con_obdd(pi, q, inst, tr.indb.domain, idx.order, t)
        assert got.root == want.root and got.root > 1


def _chain_db(n):
    facts = []
    for i in range(n):
        facts.append((Fact("R", (f"a{i:04d}",)), 1.0))
        facts.append((Fact("S", (f"a{i:04d}", f"b{2 * i:04d}")), 1.0))
        facts.append((Fact("S", (f"a{i:04d}", f"b{2 * i + 1:04d}")), 1.0))
    return Mvdb(TWO_TABLE_SCHEMA, facts, [])


def test_con_obdd_constant_width_linear_size_scaling():
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    sizes, widths = {}, {}
    for n in (50, 100, 200):
        db = _chain_db(n)
        pi = choose_pi(q, db.schema, probabilistic_relations(db.schema))
        g = con_obdd(pi, q, db.possible_instance(), db.domain)
        sizes[n] = g.size()
        widths[n] = obdd_width(g)
    assert widths[50] == widths[100] == widths[200]
    assert 1.9 <= sizes[100] / sizes[50] <= 2.1
    assert 1.9 <= sizes[200] / sizes[100] <= 2.1


def test_obdd_metrics_bound():
    rng = random.Random(31)
    for _ in range(20):
        db = random_mvdb(rng, max_tuples=10)
        q = random_boolean_query(rng)
        pi = choose_pi(q, db.schema, probabilistic_relations(db.schema))
        g = con_obdd(pi, q, db.possible_instance(), db.domain)
        if obdd_width(g):
            assert g.size() - 2 <= obdd_width(g) * len(g.order)


# -- permutation choice ----------------------------------------------------------

def test_choose_pi_places_separator_position_first():
    q = parse_query("Q() :- S(y1, x1), T(x1) ; S(y2, x2), T(x2)", RAND_SCHEMA)
    pi = choose_pi(q, RAND_SCHEMA, probabilistic_relations(RAND_SCHEMA))
    assert pi.get("S", tuple(range(2)))[0] == 1


def test_choose_pi_no_separator_identity():
    q = parse_query("Q() :- R(x1), S(x1, y1) ; S(x2, y2), T(y2)", RAND_SCHEMA)
    pi = choose_pi(q, RAND_SCHEMA, probabilistic_relations(RAND_SCHEMA))
    assert pi.get("S", tuple(range(2))) == (0, 1)
    assert pi.get("R", tuple(range(1))) == (0,)


def test_choose_pi_denial_shape_uses_separator_rule():
    q = parse_query("Q() :- S(x, y), S(x, z), y != z", TWO_TABLE_SCHEMA)
    pi = choose_pi(q, TWO_TABLE_SCHEMA,
                   probabilistic_relations(TWO_TABLE_SCHEMA))
    assert pi.get("S", tuple(range(2))) == (0, 1)


# -- Shannon expansion -------------------------------------------------------------

def test_shannon_single_variable():
    order = VariableOrder([Fact("R", ("a",))])
    t = NodeTable(order)
    assert shannon_probability(_single(t, 0), [0.3], [0.7]) == \
        pytest.approx(0.3)


def test_shannon_two_table_uniform():
    db = two_table_db()
    inst = db.possible_instance()
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    pi = {"R": (0,), "S": (0, 1)}
    g = con_obdd(pi, q, inst, db.domain)
    got = shannon_probability(g, [0.5] * 6, [0.5] * 6)
    # brute force over all 64 assignments
    models = obdd_models(g, 6)
    brute = signed_world_sum([0.5] * 6, [0.5] * 6, lambda m: m in models)
    assert got == pytest.approx(brute, abs=1e-12)
    assert got == pytest.approx(0.609375, abs=1e-12)


def test_shannon_negative_probabilities_match_signed_enumeration():
    rng = random.Random(41)
    for _ in range(30):
        db = random_mvdb(rng, max_tuples=8)
        q = random_boolean_query(rng)
        pi = choose_pi(q, db.schema, probabilistic_relations(db.schema))
        g = con_obdd(pi, q, db.possible_instance(), db.domain)
        n = len(g.order)
        probs = [rng.choice([-1.0, -0.5, 0.25, 0.5, 2.0]) for _ in range(n)]
        qs = [1.0 - p for p in probs]
        models = obdd_models(g, n)
        brute = signed_world_sum(probs, qs, lambda m: m in models)
        assert shannon_probability(g, probs, qs) == pytest.approx(brute,
                                                                  abs=1e-9)


# -- canonicity ---------------------------------------------------------------------

def test_reduction_canonicity_random_formulas():
    rng = random.Random(53)
    order = VariableOrder([Fact("R", (f"c{i}",)) for i in range(8)])
    for _ in range(40):
        clauses = [frozenset(Fact("R", (f"c{i}",))
                             for i in rng.sample(range(8), rng.randint(1, 4)))
                   for _ in range(rng.randint(1, 5))]
        phi = Lineage.normalize(clauses)
        t = NodeTable(order)
        g1 = from_lineage(phi, order, t)
        # build again from a shuffled clause list into the same table
        shuffled = list(clauses)
        rng.shuffle(shuffled)
        g2 = from_lineage(Lineage.normalize(shuffled), order, t)
        assert g1.root == g2.root
        _assert_ordered_reduced(g1)
