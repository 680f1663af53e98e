"""Parser, grounding, lineage, and separator analysis."""

import itertools
import random

import pytest

from mvdb import (Atom, Const, ConjunctiveQuery, Fact, Mvdb, MvdbError,
                  Predicate, QueryParseError, Ucq, Var, answer_tuples,
                  find_separator, lineage, parse_query, parse_view,
                  root_variables, specialize_separator, substitute)
from mvdb.ucq import BinOp, Func, Lineage

from helpers import (EX1_SCHEMA, RAND_SCHEMA, TWO_TABLE_SCHEMA,
                     domain_constants, eval_predicate, evaluate_on_world,
                     example1, iter_matches, lineage_holds,
                     lineage_variables, probabilistic_relations,
                     random_boolean_query, random_mvdb)

S3 = RAND_SCHEMA  # D deterministic, R(x), S(x,y), T(y)


# -- parsing ----------------------------------------------------------------

def test_parse_basic_cq():
    q = parse_query("Q(x) :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    assert q.head_arity == 1
    d = q.disjuncts[0]
    assert d.head == (Var("x"),)
    assert d.atoms == (Atom("R", (Var("x"),)),
                       Atom("S", (Var("x"), Var("y"))))


def test_parse_boolean_three_atoms():
    q = parse_query("Q() :- R(x), S(x, y), T(y)", S3)
    assert q.is_boolean()
    assert len(q.disjuncts[0].atoms) == 3


def test_parse_ground_atom_query():
    q = parse_query("Q() :- R('a')", EX1_SCHEMA)
    assert q.disjuncts[0].atoms == (Atom("R", (Const("a"),)),)


def test_parse_union_and_predicates():
    q = parse_query("Q(x) :- S(x, y), y != 'b1' ; R(x)", TWO_TABLE_SCHEMA)
    assert len(q.disjuncts) == 2
    assert q.disjuncts[0].predicates[0].op == "!="


def test_parse_arithmetic_predicate():
    schema = __import__("mvdb").parse_schema(
        "relation P(x:int, y:int) key(x,y) probabilistic")
    q = parse_query("Q() :- P(x, y), x - 1 <= y * 2", schema)
    assert q.disjuncts[0].predicates[0].op == "<="


def test_parse_errors():
    with pytest.raises(QueryParseError):
        parse_query("Q() :- Unknown(x)", EX1_SCHEMA)
    with pytest.raises(QueryParseError):
        parse_query("Q() :- R(x, y)", EX1_SCHEMA)  # arity
    with pytest.raises(QueryParseError):
        parse_query("Q() :- R(", EX1_SCHEMA)
    with pytest.raises(QueryParseError):
        parse_query("Q(z) :- R(x)", EX1_SCHEMA)  # unbound head var
    with pytest.raises(QueryParseError):
        parse_query("Q() :- R(x), y != 'a'", EX1_SCHEMA)  # loose pred var
    with pytest.raises(QueryParseError):
        parse_query("Q() :- R(A)", EX1_SCHEMA)  # bare uppercase constant
    with pytest.raises(QueryParseError):
        parse_query("Q() :- S('a', 1)", TWO_TABLE_SCHEMA)  # type mismatch


def test_parse_view_weight_scope():
    parse_view("V(x) [2 * 3] :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    with pytest.raises(QueryParseError):
        parse_view("V(x) [z] :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    with pytest.raises(QueryParseError):
        parse_view("R(x) [1] :- R(x)", EX1_SCHEMA)  # name collision


# -- substitution -----------------------------------------------------------

def test_substitute_simple():
    q = parse_query("Q(x) :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    b = substitute(q, ("a",))
    assert b.is_boolean()
    assert b.disjuncts[0].atoms[0] == Atom("R", (Const("a"),))
    assert b.disjuncts[0].atoms[1].terms[0] == Const("a")


def test_substitute_zero_arity_is_identity():
    q = parse_query("Q() :- R(x)", EX1_SCHEMA)
    assert substitute(q, ()) == q


def test_substitute_arity_mismatch():
    q = parse_query("Q(x) :- R(x)", EX1_SCHEMA)
    with pytest.raises(Exception):
        substitute(q, ("a", "b"))


def test_substitute_then_lineage_matches_restriction(two_table):
    inst = two_table.possible_instance()
    q = parse_query("Q(x) :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    full = {}
    for d in q.disjuncts:
        for bnd, used in iter_matches(d, inst):
            full.setdefault(bnd["x"], []).append(frozenset(used))
    for a, clauses in full.items():
        restricted = lineage(substitute(q, (a,)), inst)
        assert set(restricted.clauses) == set(clauses)


# -- lineage ----------------------------------------------------------------

def test_lineage_two_table(two_table):
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    phi = lineage(q, two_table.possible_instance())
    expect = {
        frozenset({Fact("R", ("a1",)), Fact("S", ("a1", "b1"))}),
        frozenset({Fact("R", ("a1",)), Fact("S", ("a1", "b2"))}),
        frozenset({Fact("R", ("a2",)), Fact("S", ("a2", "b3"))}),
        frozenset({Fact("R", ("a2",)), Fact("S", ("a2", "b4"))}),
    }
    assert set(phi.clauses) == expect


def test_lineage_deterministic_only_is_true():
    from mvdb.core import INF
    db = Mvdb(S3, [(Fact("D", ("a0",)), INF)], [])
    q = parse_query("Q() :- D('a0')", S3)
    phi = lineage(q, db.possible_instance())
    assert frozenset() in phi.clauses
    q2 = parse_query("Q() :- D('a1')", S3)
    assert lineage(q2, db.possible_instance()).clauses == ()


def test_lineage_of_disjunction_is_clause_union():
    rng = random.Random(11)
    for _ in range(25):
        db = random_mvdb(rng)
        inst = db.possible_instance()
        q1 = random_boolean_query(rng)
        q2 = random_boolean_query(rng)
        both = Ucq(q1.disjuncts + q2.disjuncts)
        assert set(lineage(both, inst).clauses) == \
            set(Lineage.normalize(lineage(q1, inst).clauses
                                  + lineage(q2, inst).clauses).clauses)


def test_normalize_drops_duplicates_and_keeps_first_occurrences():
    a, b, c = (Fact("R", (x,)) for x in ("a0", "a1", "a2"))
    phi = Lineage.normalize([[b, c], {a}, (c, b), [a], [], {b}, set()])
    assert phi.clauses == (frozenset({b, c}), frozenset({a}), frozenset(),
                           frozenset({b}))


def test_lineage_agrees_with_world_evaluation():
    rng = random.Random(23)
    checked = 0
    for _ in range(20):
        db = random_mvdb(rng, max_tuples=8)
        inst = db.possible_instance()
        prob = db.probabilistic_facts()
        q = random_boolean_query(rng)
        phi = lineage(q, inst)
        for mask in range(1 << len(prob)):
            present = frozenset(f for i, f in enumerate(prob)
                                if (mask >> i) & 1)
            assert (lineage_holds(phi, present)
                    == evaluate_on_world(q, inst, present))
            checked += 1
    assert checked > 1000


# -- answers ----------------------------------------------------------------

def test_answer_tuples_boolean(two_table):
    inst = two_table.possible_instance()
    sat = parse_query("Q() :- R(x)", TWO_TABLE_SCHEMA)
    assert answer_tuples(sat, inst) == [()]
    unsat = parse_query("Q() :- R('zzz')", TWO_TABLE_SCHEMA)
    assert answer_tuples(unsat, inst) == []


def test_answer_tuples_join(ex1):
    inst = ex1.possible_instance()
    q = parse_query("Q(x) :- R(x), S(x)", EX1_SCHEMA)
    assert answer_tuples(q, inst) == [("a",)]
    db2 = Mvdb(EX1_SCHEMA, [(Fact("R", ("a",)), 1.0)], [])
    assert answer_tuples(q, db2.possible_instance()) == []


# -- roots and separators -----------------------------------------------------

def test_root_variables():
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    assert root_variables(q.disjuncts[0]) == {"x"}
    q2 = parse_query("Q() :- S(x, y)", TWO_TABLE_SCHEMA)
    assert root_variables(q2.disjuncts[0]) == {"x", "y"}
    q3 = parse_query("Q() :- R(x), S(x, y), T(y)", S3)
    assert root_variables(q3.disjuncts[0]) == set()


def test_root_variables_skip_filter_atoms():
    q = parse_query("Q() :- R(x), S(x, y), D(z)", S3)
    assert root_variables(q.disjuncts[0]) == set()
    assert root_variables(q.disjuncts[0],
                          considered=probabilistic_relations(S3)) == {"x"}


def test_find_separator_positive():
    q = parse_query("Q() :- R(x1), S(x1, y1) ; T(x2), S(x2, y2)", S3)
    sep = find_separator(q, probabilistic_relations(S3))
    assert sep is not None
    assert sep.variables == ("x1", "x2")
    assert sep.positions["R"] == 0
    assert sep.positions["S"] == 0
    assert sep.positions["T"] == 0


def test_find_separator_negative():
    q = parse_query("Q() :- R(x1), S(x1, y1) ; S(x2, y2), T(y2)", S3)
    assert find_separator(q, probabilistic_relations(S3)) is None


def test_find_separator_ground_atom_is_none():
    q = parse_query("Q() :- R('a0')", S3)
    assert find_separator(q, probabilistic_relations(S3)) is None


def test_separator_blocks_have_disjoint_lineage(two_table):
    inst = two_table.possible_instance()
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    sep = find_separator(q, probabilistic_relations(TWO_TABLE_SCHEMA))
    assert sep is not None
    seen_vars = []
    for a in domain_constants(two_table.domain):
        phi = lineage(specialize_separator(q, sep, a), inst)
        seen_vars.append(lineage_variables(phi))
    for v1, v2 in itertools.combinations(seen_vars, 2):
        assert not (v1 & v2)


def test_lineage_requires_boolean():
    q = parse_query("Q(x) :- R(x)", EX1_SCHEMA)
    with pytest.raises(Exception):
        lineage(q, example1().possible_instance())


def test_substitute_repeated_head_variable():
    q = parse_query("Q(x, x) :- S(x, x)", TWO_TABLE_SCHEMA)
    same = substitute(q, ("a", "a"))
    assert not same.disjuncts[0].predicates
    diff = substitute(q, ("a", "b"))
    assert len(diff.disjuncts[0].predicates) == 1  # unsatisfiable guard


def test_self_join_lineage_and_grounding():
    from mvdb import Mvdb
    facts = [(Fact("S", ("a", "b")), 1.0), (Fact("S", ("b", "a")), 1.0),
             (Fact("S", ("a", "a")), 1.0)]
    db = Mvdb(TWO_TABLE_SCHEMA, facts, [])
    inst = db.possible_instance()
    q = parse_query("Q() :- S(x, y), S(y, x)", TWO_TABLE_SCHEMA)
    phi = lineage(q, inst)
    assert frozenset({Fact("S", ("a", "b")), Fact("S", ("b", "a"))}) \
        in set(phi.clauses)
    assert frozenset({Fact("S", ("a", "a"))}) in set(phi.clauses)
    diag = parse_query("Q(x) :- S(x, x)", TWO_TABLE_SCHEMA)
    assert answer_tuples(diag, inst) == [("a",)]


def test_integer_arithmetic_predicates_ground():
    schema = __import__("mvdb").parse_schema(
        "relation P(x:int, y:int) key(x,y) probabilistic")
    facts = [(Fact("P", (1, 3)), 1.0), (Fact("P", (2, 1)), 1.0)]
    db = Mvdb(schema, facts, [])
    q = parse_query("Q(x, y) :- P(x, y), x + 1 <= y", schema)
    assert answer_tuples(q, db.possible_instance()) == [(1, 3)]


# -- grounding: bindings and errors ---------------------------------------------

def test_iter_matches_yields_a_fresh_binding_per_match(two_table):
    # Every yielded binding stays as it was yielded after later matches,
    # and the caller's binding is left alone.
    inst = two_table.possible_instance()
    cq = parse_query("Q() :- R(x), S(x, y), S(x, z)",
                     TWO_TABLE_SCHEMA).disjuncts[0]
    given = {"w": 0}
    kept = list(iter_matches(cq, inst, given))
    snapshots = [(dict(bnd), used) for bnd, used in iter_matches(cq, inst,
                                                                 given)]
    assert given == {"w": 0}
    assert len(kept) == 8  # two partners per R fact, paired both ways
    assert len({id(bnd) for bnd, _ in kept}) == len(kept)
    assert kept == snapshots
    for bnd, used in kept:
        assert bnd["w"] == 0 and set(bnd) == {"w", "x", "y", "z"}
        assert used == (Fact("R", (bnd["x"],)), Fact("S", (bnd["x"], bnd["y"])),
                        Fact("S", (bnd["x"], bnd["z"])))


@pytest.mark.parametrize("pred,message", [
    (Predicate("<", Var("x"), Const(1)), "type mismatch comparing 'a1' and 1"),
    (Predicate(">=", Const(1), Var("x")), "type mismatch comparing 1 and 'a1'"),
    (Predicate("contains", Var("x"), Const(1)),
     "contains expects string operands"),
    (Predicate(">", BinOp("+", Var("x"), Const(1)), Const(2)),
     "expected a number, got 'a1'"),
    (Predicate("=", Var("z"), Const(1)), "unbound variable 'z'"),
    (Predicate("=", BinOp("/", Const(1), Const(0)), Var("x")),
     "cannot evaluate (1 / 0): division by zero"),
    (Predicate("~", Var("x"), Const("a")), "unknown comparison '~'"),
    (Predicate("=", BinOp("%", Const(1), Const(2)), Var("x")),
     "unknown operator '%'"),
    (Predicate("=", Func("log", Const(1)), Var("x")),
     "unknown function 'log'"),
])
def test_predicate_errors_keep_their_message(two_table, pred, message):
    # Grounding raises what `eval_predicate` raises on the same binding.
    inst = two_table.possible_instance()
    with pytest.raises(MvdbError) as expected:
        eval_predicate(pred, {"x": "a1"})
    assert str(expected.value) == message
    cq = ConjunctiveQuery((), (Atom("R", (Var("x"),)),), (pred,))
    for ground in (lambda: list(iter_matches(cq, inst)),
                   lambda: lineage(Ucq((cq,)), inst),
                   lambda: answer_tuples(Ucq((cq,)), inst)):
        with pytest.raises(MvdbError) as caught:
            ground()
        assert type(caught.value) is MvdbError
        assert str(caught.value) == message
