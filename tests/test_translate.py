"""View materialization, the independent-database transform, and queries."""

import random

import pytest

from mvdb import (EnumerationEvaluator, Fact, HardConstraintError,
                  InconsistentConstraintsError, IndexEvaluator,
                  InvalidViewError, Mvdb, answer_query, build_indb,
                  build_index, materialize_view, mln_probability, parse_query,
                  parse_schema, parse_view, query_probability, substitute)
from mvdb.cli import _load_project
from mvdb.core import INF
from mvdb.gendata import generate_project
from mvdb.oracle import view_features
from mvdb.ucq import Const

from helpers import (EX1_SCHEMA, RAND_SCHEMA, example1, random_boolean_query,
                     typed_sorted_outputs, viable_random_mvdb)


def test_materialize_example1():
    db = example1(w=0.5)
    assert materialize_view(db.views[0], db.possible_instance()) == (
        (("a",), 0.5),)


def test_materialize_unsatisfiable_body_is_empty():
    db = Mvdb(EX1_SCHEMA, [(Fact("R", ("a",)), 1.0)], [])
    view = parse_view("V(x) [2] :- R(x), S(x)", EX1_SCHEMA)
    assert materialize_view(view, db.possible_instance()) == ()


def test_materialize_denial_weights():
    facts = [(Fact("S", ("a", "b1")), 1.0), (Fact("S", ("a", "b2")), 1.0),
             (Fact("S", ("a", "b3")), 1.0)]
    from helpers import TWO_TABLE_SCHEMA
    db = Mvdb(TWO_TABLE_SCHEMA, facts, [])
    view = parse_view("V(x, y, z) [0] :- S(x, y), S(x, z), y != z",
                      TWO_TABLE_SCHEMA)
    outputs = materialize_view(view, db.possible_instance())
    assert len(outputs) == 6  # ordered pairs of distinct partners
    assert all(w == 0.0 for _, w in outputs)


def test_materialize_order_is_the_typed_key_order():
    # Each head position holds values of one declared type, so plain tuple
    # order sorts the outputs as the typed key does, on int, string and
    # mixed-type heads alike; one head variable bound to both types across
    # disjuncts is an invalid view.
    schema = __import__("mvdb").parse_schema(
        "relation R(x:int, y:string) key(x,y) probabilistic\n"
        "relation S(y:string) key(y) probabilistic\n")
    rows = [(10, "b"), (9, "a"), (-3, "10"), (10, "a"), (2, "b"), (9, "B"),
            (123456789012345678901234567890, "")]
    db = Mvdb(schema, [(Fact("R", row), 1.0) for row in rows], [])
    inst = db.possible_instance()
    for text in ("V(x) [0.5] :- R(x, y)", "V(y) [2] :- R(x, y)",
                 "V(x, y) [0] :- R(x, y)", "V(y, x) [3] :- R(x, y)"):
        outputs = materialize_view(parse_view(text, schema), inst)
        assert len(outputs) > 1
        assert outputs == typed_sorted_outputs(outputs), text
    mixed = parse_view("V(v) [0] :- R(v, y) ; R(x, v)", schema)
    with pytest.raises(InvalidViewError, match="conflicting types"):
        materialize_view(mixed, inst)


def test_materialize_weight_expr_from_body_variable():
    schema = __import__("mvdb").parse_schema(
        "relation C(x:string, n:int) key(x) deterministic\n"
        "relation R(x:string) key(x) probabilistic\n")
    db = Mvdb(schema, [(Fact("C", ("a", 4)), INF), (Fact("R", ("a",)), 1.0)],
              [])
    view = parse_view("V(x) [n / 2] :- R(x), C(x, n)", schema)
    assert materialize_view(view, db.possible_instance()) == ((("a",), 2.0),)


def test_materialize_rejects_inconsistent_weights():
    schema = __import__("mvdb").parse_schema(
        "relation C(x:string, n:int) key(x,n) deterministic\n"
        "relation R(x:string) key(x) probabilistic\n")
    db = Mvdb(schema, [(Fact("C", ("a", 1)), INF), (Fact("C", ("a", 2)), INF),
                       (Fact("R", ("a",)), 1.0)], [])
    view = parse_view("V(x) [n] :- R(x), C(x, n)", schema)
    with pytest.raises(InvalidViewError):
        materialize_view(view, db.possible_instance())


def test_materialize_rejects_negative_and_infinite_weights():
    db = example1()
    bad = parse_view("V(x) [0 - 1] :- R(x), S(x)", EX1_SCHEMA)
    with pytest.raises(InvalidViewError):
        materialize_view(bad, db.possible_instance())
    hard = parse_view("V(x) [exp(9999)] :- R(x), S(x)", EX1_SCHEMA)
    with pytest.raises(HardConstraintError):
        materialize_view(hard, db.possible_instance())


_WEIGHT_SCHEMA = parse_schema(
    "relation C(x:string, n:int) key(x,n) deterministic\n"
    "relation R(x:string) key(x) probabilistic\n")


@pytest.mark.parametrize("weight,message", [
    ("x", "view V: weight is not a number: 'a'"),
    ("'w'", "view V: weight is not a number: 'w'"),
    ("exp(9999) - exp(9999)",
     "view V: weight nan for ('a',) is outside [0, inf)"),
    ("0 - n", "view V: weight -1.0 for ('a',) is outside [0, inf)"),
    ("n", "view V: weight for ('a',) differs across witnessing bindings "
          "(1.0 vs 2.0)"),
    ("1 / (n - n)", "view V: cannot evaluate (1 / (n - n)): division by zero"),
    ("x + 1", "view V: expected a number, got 'a'"),
    ("exp(x)", "view V: expected a number, got 'a'"),
])
def test_view_weight_errors_keep_their_class_and_message(weight, message):
    # The same error, class and text, from the compiler's pass over the
    # views and from the oracle's materialization.
    db = Mvdb(_WEIGHT_SCHEMA,
              [(Fact("C", ("a", 1)), INF), (Fact("C", ("a", 2)), INF),
               (Fact("R", ("a",)), 1.0)],
              [parse_view(f"V(x) [{weight}] :- R(x), C(x, n)",
                          _WEIGHT_SCHEMA)])
    for run in (build_indb,
                lambda db: view_features(db, db.possible_instance())):
        with pytest.raises(InvalidViewError) as caught:
            run(db)
        assert type(caught.value) is InvalidViewError
        assert str(caught.value) == message


# -- build_indb ---------------------------------------------------------------

def test_build_indb_example1_weights():
    db = example1(w1=2.0, w2=3.0, w=0.5)
    tr = build_indb(db)
    w = tr.indb.weights
    assert w[Fact("R", ("a",))] == 2.0
    assert w[Fact("S", ("a",))] == 3.0
    assert w[Fact("NV", ("a",))] == 1.0  # (1 - 0.5) / 0.5
    assert str(tr.w_query) == "NV(x), R(x), S(x)"


@pytest.mark.parametrize("w,expect_p", [(0.25, 0.75), (0.5, 0.5),
                                        (1.0, 0.0), (2.0, -1.0), (4.0, -3.0)])
def test_nv_probability_is_one_minus_w(w, expect_p):
    db = example1(w=w)
    tr = build_indb(db)
    assert tr.indb.probability(Fact("NV", ("a",))) == expect_p


def test_view_weight_one_makes_nv_impossible():
    tr = build_indb(example1(w=1.0))
    assert tr.indb.weights[Fact("NV", ("a",))] == 0.0


def test_all_denial_view_drops_auxiliary_relation():
    db = example1(w=0.0)
    tr = build_indb(db)
    assert not any(f.relation.startswith("NV") for f in tr.indb.weights)
    assert str(tr.w_query) == "R(x), S(x)"
    # explicit form keeps a deterministic auxiliary tuple instead
    tr2 = build_indb(db, denial_shortcut=False)
    assert tr2.indb.weights[Fact("NV", ("a",))] == INF
    assert str(tr2.w_query) == "NV(x), R(x), S(x)"


def test_denial_shortcut_equivalence():
    rng = random.Random(2)
    for seed in range(10):
        db, tr, ev, _ = viable_random_mvdb(seed)
        if not any(isinstance(v.weight_expr, Const)
                   and v.weight_expr.value == 0 for v in db.views):
            continue
        tr2 = build_indb(db, denial_shortcut=False)
        ev2 = EnumerationEvaluator(tr2)
        for _ in range(3):
            q = random_boolean_query(rng)
            assert query_probability(q, tr, ev) == pytest.approx(
                query_probability(q, tr2, ev2), abs=1e-12)


def test_build_indb_builds_one_possible_instance(tmp_path, monkeypatch):
    db = _load_project(generate_project(tmp_path / "proj", seed=1, scale=2))
    assert len(db.views) == 2
    calls = []
    original = Mvdb.possible_instance

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Mvdb, "possible_instance", counted)
    build_indb(db)
    assert calls == [db]


def test_build_indb_rejects_infinite_view_weight():
    db = example1()
    hard = parse_view("W(x) [exp(9999)] :- R(x), S(x)", EX1_SCHEMA)
    db2 = Mvdb(db.schema, list(db.weights.items()), [hard])
    with pytest.raises(HardConstraintError):
        build_indb(db2)


# -- query_probability ----------------------------------------------------------

def test_query_probability_closed_form():
    # P(R or S) = (w1 + w2 + w*w1*w2) / (1 + w1 + w2 + w*w1*w2)
    for w1, w2, w in [(2.0, 3.0, 0.5), (1.0, 1.0, 2.0), (0.25, 4.0, 0.25)]:
        db = example1(w1, w2, w)
        tr = build_indb(db)
        ev = EnumerationEvaluator(tr)
        q = parse_query("Q() :- R('a') ; S('a')", EX1_SCHEMA)
        phi = w1 + w2 + w * w1 * w2
        assert query_probability(q, tr, ev) == pytest.approx(
            phi / (1 + phi), abs=1e-12)


def test_query_probability_example_value():
    db = example1(2.0, 3.0, 0.5)
    tr = build_indb(db)
    ev = EnumerationEvaluator(tr)
    q = parse_query("Q() :- R('a') ; S('a')", EX1_SCHEMA)
    assert query_probability(q, tr, ev) == pytest.approx(8 / 9, abs=1e-12)


def test_query_probability_no_views_reduces_to_independent():
    db = Mvdb(EX1_SCHEMA, [(Fact("R", ("a",)), 1.0)], [])
    tr = build_indb(db)
    ev = EnumerationEvaluator(tr)
    assert ev.p_not_w == 1.0
    q = parse_query("Q() :- R('a')", EX1_SCHEMA)
    assert query_probability(q, tr, ev) == pytest.approx(0.5, abs=1e-15)


def test_query_probability_rejects_auxiliary_relations():
    tr = build_indb(example1())
    ev = EnumerationEvaluator(tr)
    q = parse_query("Q() :- NV(x)", tr.indb.schema)
    with pytest.raises(Exception):
        query_probability(q, tr, ev)


def test_inconsistent_constraints_raise():
    # a denial view grounded purely in deterministic tuples kills every world
    schema = __import__("mvdb").parse_schema(
        "relation D(x:string) key(x) deterministic\n"
        "relation R(x:string) key(x) probabilistic\n")
    db = Mvdb(schema, [(Fact("D", ("a",)), INF), (Fact("R", ("a",)), 1.0)],
              [parse_view("V(x) [0] :- D(x)", schema)])
    tr = build_indb(db)
    ev = EnumerationEvaluator(tr)
    q = parse_query("Q() :- R('a')", schema)
    with pytest.raises(InconsistentConstraintsError):
        query_probability(q, tr, ev)


# -- answer_query -----------------------------------------------------------------

def test_answer_query_boolean_singleton():
    tr = build_indb(example1())
    ev = EnumerationEvaluator(tr)
    q = parse_query("Q() :- R('a')", EX1_SCHEMA)
    rows = answer_query(q, tr, ev)
    assert len(rows) == 1 and rows[0][0] == ()


def test_answer_query_boolean_without_match_is_one_zero_row():
    tr = build_indb(example1())
    evaluators = (EnumerationEvaluator(tr),
                  IndexEvaluator(build_index(tr), tr.indb.possible_instance()))
    absent = parse_query("Q() :- R('zzz')", EX1_SCHEMA)
    present = parse_query("Q() :- R('a')", EX1_SCHEMA)
    for ev in evaluators:
        assert answer_query(absent, tr, ev) == [((), 0.0)]
        assert answer_query(present, tr, ev) == [
            ((), query_probability(present, tr, ev))]


def test_answer_query_empty_candidates():
    tr = build_indb(example1())
    ev = EnumerationEvaluator(tr)
    q = parse_query("Q(x) :- R(x), S(x), R('zzz')", EX1_SCHEMA)
    assert answer_query(q, tr, ev) == []


def test_answer_query_matches_boolean_substitution():
    db, tr, ev, rng = viable_random_mvdb(99)
    q = parse_query("Q(x) :- S(x, y)", RAND_SCHEMA)
    for answer, p in answer_query(q, tr, ev):
        direct = query_probability(substitute(q, answer), tr, ev)
        assert p == direct


# -- randomized equivalence against the world-enumeration oracle -------------------

def test_translation_equivalence_small_sample():
    rng = random.Random(77)
    for seed in range(25):
        db, tr, ev, _ = viable_random_mvdb(seed)
        for _ in range(3):
            q = random_boolean_query(rng)
            got = query_probability(q, tr, ev)
            want = mln_probability(db, q)
            assert got == pytest.approx(want, abs=1e-9)
            assert -1e-9 <= got <= 1 + 1e-9


def test_mixed_denial_view_keeps_regular_and_hard_tuples():
    schema = __import__("mvdb").parse_schema(
        "relation C(x:string, n:int) key(x) deterministic\n"
        "relation R(x:string) key(x) probabilistic\n")
    facts = [(Fact("C", ("a", 1)), INF), (Fact("C", ("b", 2)), INF),
             (Fact("R", ("a",)), 2.0), (Fact("R", ("b",)), 3.0)]
    view = parse_view("V(x) [n - 1] :- R(x), C(x, n)", schema)
    db = Mvdb(schema, facts, [view])
    tr = build_indb(db)
    assert tr.indb.weights[Fact("NV", ("a",))] == INF  # weight 0: hard denial
    assert tr.indb.weights[Fact("NV", ("b",))] == 0.0  # weight 1: vacuous
    ev = EnumerationEvaluator(tr)
    q = parse_query("Q() :- R('a')", schema)
    got = query_probability(q, tr, ev)
    want = mln_probability(db, q)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.0, abs=1e-12)  # denial forbids R('a')
