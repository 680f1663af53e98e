"""Grounding through the join plan: its matches (`helpers.iter_matches`)
against a brute-force product over the atoms' rows, the instance's fact
index against its facts, the facts a query reads, and a check that
grounding leaves no reference cycles for the collector."""

import gc
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdb import (Atom, Const, ConjunctiveQuery, Fact, IndexEvaluator,
                  Instance, MvdbError, Predicate, SchemaError, Var,
                  answer_query, build_indb, build_index, lineage, parse_query,
                  parse_schema)
from mvdb.cli import _load_project
from mvdb.gendata import generate_project
from mvdb.ucq import VARIABLE_FACTS, BinOp, join_plan

from helpers import chain_mvdb, eval_predicate, iter_matches

SCHEMA = parse_schema("""
relation R(a:int, b:int) key(a,b) probabilistic
relation S(a:int) key(a) probabilistic
relation T(a:int, b:int, c:int) key(a,b,c) deterministic
relation N(a:string, b:int) key(a,b) probabilistic
""")
ARITY = {r.name: r.arity for r in SCHEMA.relations}
VALUES = range(4)
STRINGS = ("a", "b", "c", "d")
COLUMN = {r.name: tuple(STRINGS if a.type == "string" else VALUES
                        for a in r.attributes) for r in SCHEMA.relations}
NAMES = ("x", "y", "z", "w")
# Constants a variable is compared with: every column's own type, floats
# and a bool against int columns, and each type against the other's column.
CONSTANTS = (0, 1, 2, 3, "a", "b", "c", "d", 1.5, 2.0, -0.5, True)


@st.composite
def instances(draw):
    present = []
    for rel, columns in COLUMN.items():
        facts = [Fact(rel, values) for values in itertools.product(*columns)]
        present += draw(st.lists(st.sampled_from(facts), max_size=6))
    return Instance(SCHEMA, present,
                    [f for f in present if f.relation == "T"])


def _expr(draw, names):
    """A variable among *names*, a constant, or their sum."""
    kind = draw(st.sampled_from(("var", "const", "sum")))
    if kind == "const" or not names:
        return Const(draw(st.sampled_from(VALUES)))
    var = Var(draw(st.sampled_from(names)))
    if kind == "var":
        return var
    return BinOp("+", var, Const(draw(st.sampled_from(VALUES))))


def _predicate(draw, names, var_const):
    """A comparison: ground (as `substitute` writes it), a variable against
    a constant in either orientation (what a probe may answer), or between
    two expressions; only the second with *var_const*."""
    op = draw(st.sampled_from(("=", "!=", "<", "<=", ">", ">=")))
    kind = 1 if var_const else draw(st.integers(0, 5))
    if kind == 0:
        return Predicate("=", Const(draw(st.sampled_from(VALUES))),
                         Const(draw(st.sampled_from(VALUES))))
    if kind <= 3 and names:
        var = Var(draw(st.sampled_from(names)))
        const = Const(draw(st.sampled_from(
            VALUES if draw(st.booleans()) else CONSTANTS)))
        return Predicate(op, *((var, const) if draw(st.booleans())
                               else (const, var)))
    return Predicate(op, _expr(draw, names), _expr(draw, names))


@st.composite
def queries(draw):
    """A CQ with self-joins, repeated variables, constants, string columns,
    predicates across atoms, ground predicates, mistyped comparisons and a
    pre-bound binding whose names may or may not occur in the atoms.  Half
    are window-shaped: no constant or binding, only variable-against-constant
    predicates, so the first atom placed probes a range or a value."""
    windows = draw(st.booleans())
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(sorted(ARITY)))
        terms = tuple(
            Const(draw(st.sampled_from(column))) if not windows
            and draw(st.booleans()) and draw(st.booleans())
            else Var(draw(st.sampled_from(NAMES)))
            for column in COLUMN[rel])
        atoms.append(Atom(rel, terms))
    binding = {} if windows else draw(st.dictionaries(
        st.sampled_from(NAMES), st.sampled_from(VALUES), max_size=2))
    names = sorted(set().union(*(a.variables() for a in atoms)) | set(binding))
    preds = [_predicate(draw, names, windows)
             for _ in range(draw(st.integers(windows, 3)))]
    return ConjunctiveQuery((), tuple(atoms), tuple(preds)), binding


def brute_force(cq, instance, binding):
    """Every combination of one row per atom that agrees with the
    constants, the binding and itself, and passes every predicate.  A
    combination that fails none but on which one raises raises that error:
    whether a comparison raises depends only on its operands' types, so
    every order of evaluation meets it there."""
    out = Counter()
    for rows in itertools.product(*([f.values for f in
                                      instance.facts_of(a.relation)]
                                     for a in cq.atoms)):
        bnd = dict(binding)
        ok = True
        for atom, row in zip(cq.atoms, rows):
            for t, v in zip(atom.terms, row):
                if isinstance(t, Const):
                    ok = ok and t.value == v
                elif bnd.setdefault(t.name, v) != v:
                    ok = False
        if not ok:
            continue
        errors = []
        for p in cq.predicates:
            try:
                ok = ok and eval_predicate(p, bnd)
            except MvdbError as exc:
                errors.append(exc)
        if ok and errors:
            raise errors[0]
        if ok:
            used = frozenset(Fact(a.relation, row)
                             for a, row in zip(cq.atoms, rows))
            out[tuple(sorted(bnd.items())), used] += 1
    return out


def planned(cq, instance, binding):
    return Counter((tuple(sorted(bnd.items())), frozenset(used))
                   for bnd, used in iter_matches(cq, instance, binding))


def outcome(ground, *args):
    """The matches *ground* finds, or the type of the MvdbError it raises."""
    try:
        return ground(*args)
    except MvdbError as exc:
        return type(exc)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(instances(), queries())
def test_iter_matches_equals_brute_force(instance, query):
    # Where nothing matches, the plan may meet a raising comparison on a
    # partial binding the brute force never completes.
    cq, binding = query
    expected = outcome(brute_force, cq, instance, binding)
    got = outcome(planned, cq, instance, binding)
    assert got == expected or (expected == Counter() and got is MvdbError)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances(), queries())
def test_predicate_error_propagates(instance, query):
    # a number compared with a string raises MvdbError in `eval_predicate`
    cq, binding = query
    names = sorted(cq.variables() | set(binding))
    expected = outcome(brute_force, cq, instance, binding)
    lhs, rhs = Const(0), Const("s")
    if names:
        lhs = Var(names[0])
        if isinstance(expected, Counter) and expected:
            if isinstance(dict(next(iter(expected))[0])[names[0]], str):
                rhs = Const(0)
    broken = ConjunctiveQuery((), cq.atoms,
                              cq.predicates + (Predicate("<", lhs, rhs),))
    if isinstance(expected, Counter) and expected:
        with pytest.raises(MvdbError, match="type mismatch"):
            planned(broken, instance, binding)
    else:
        try:
            planned(broken, instance, binding)
        except MvdbError:
            pass  # pruned differently, but the error stays typed


# Bounds a range is drawn with: the column's values and one past each end.
BOUNDS = {int: (-1, *VALUES, 4), str: ("", *STRINGS, "e")}


def _inside(v, lo, lo_open, hi, hi_open):
    return ((lo is None or (v > lo if lo_open else v >= lo))
            and (hi is None or (v < hi if hi_open else v <= hi)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instances(), st.data())
def test_one_fact_index_per_instance(instance, data):
    # Each access path hands out the instance's own facts: grouped by a
    # position's value in the order of `facts_of`, or in a range of them
    # in the order of a stable sort of `facts_of` by that position.
    own = set(map(id, instance.facts))
    for rel, columns in COLUMN.items():
        facts = instance.facts_of(rel)
        assert set(map(id, facts)) <= own
        for pos, column in enumerate(columns):
            by_value = instance.facts_by_value(rel, pos)
            assert list(by_value) == list(dict.fromkeys(
                f.values[pos] for f in facts))
            for value, group in by_value.items():
                want = [f for f in facts if f.values[pos] == value]
                assert len(group) == len(want)
                assert all(g is f for g, f in zip(group, want))
            ranked = sorted(facts, key=lambda f: f.values[pos])
            bound = st.one_of(st.none(), st.sampled_from(
                BOUNDS[type(column[0])]))
            for _ in range(3):
                window = (data.draw(bound), data.draw(st.booleans()),
                          data.draw(bound), data.draw(st.booleans()))
                got = instance.facts_in_range(rel, pos, *window)
                want = [f for f in ranked if _inside(f.values[pos], *window)]
                assert len(got) == len(want)
                assert all(g is f for g, f in zip(got, want))
    for call in (lambda: instance.facts_of("Q"),
                 lambda: instance.facts_by_value("Q", 0),
                 lambda: instance.facts_in_range("Q", 0, None, False, None,
                                                 False)):
        with pytest.raises(SchemaError, match="'Q'"):
            call()


class _Facts(list):
    """A fact list that counts, across lists, the facts read from it."""

    read = 0

    def __iter__(self):
        _Facts.read += len(self)
        return super().__iter__()


class _CountingInstance(Instance):
    """Hands out its facts as `_Facts`, and counts the calls of
    `facts_by_value` per (relation, position) in *consulted*."""

    def __init__(self, *args):
        super().__init__(*args)
        self.consulted = Counter()

    def facts_of(self, relation):
        return _Facts(super().facts_of(relation))

    def facts_by_value(self, relation, pos):
        self.consulted[relation, pos] += 1
        return {value: _Facts(group) for value, group
                in super().facts_by_value(relation, pos).items()}

    def facts_in_range(self, relation, pos, lo, lo_open, hi, hi_open):
        return _Facts(super().facts_in_range(relation, pos, lo, lo_open, hi,
                                             hi_open))


@pytest.mark.parametrize("window", ["'k0020' <= x, x < 'k0021'",
                                    "y >= 'k0020', 'k0021' > y"])
def test_window_reads_the_same_rows_at_every_chain_length(window):
    # R has n rows and T n + 1: the restricted atom goes first by its
    # range, whichever of the two it is, not by its size.
    read = []
    for n in (40, 640):
        db = chain_mvdb(n)
        instance = _CountingInstance(db.schema, db.weights)
        q = parse_query(f"Q() :- R(x), S(x, y), T(y), {window}", db.schema)
        lineage(q, instance)  # the first query builds the columns it reads
        _Facts.read = 0
        assert len(lineage(q, instance).clauses) == 2
        read.append(_Facts.read)
    assert read[0] == read[1] == 5  # 1 row in the window, 2 joined, 2 more


def test_constant_probe_after_a_join_reads_its_index_once_per_plan():
    # T(0, 1, z) binds z to four rows before S(2) runs: S's candidates are
    # fixed when the plan is made, not looked up again per row of T.
    rows = [Fact("T", (0, 1, z)) for z in VALUES]
    facts = rows + [Fact("S", (2,)), Fact("S", (3,)), Fact("R", (0, 1))]
    instance = _CountingInstance(SCHEMA, facts, rows)
    q = parse_query("Q() :- S(2), T(0, 1, z)", SCHEMA)
    plan = join_plan(q.disjuncts[0], instance, None, VARIABLE_FACTS)
    assert [step.relation for step in plan.steps] == ["T", "S"]
    assert len(plan.matches()) == 4
    for _ in range(2):
        instance.consulted.clear()
        assert lineage(q, instance).clauses == (frozenset({facts[4]}),)
        assert instance.consulted == Counter({("T", 0): 1, ("S", 0): 1})


def test_missing_relation_raises_schema_error():
    db = chain_mvdb(4)
    tr = build_indb(db)
    instance = db.possible_instance()
    with pytest.raises(SchemaError, match="'NV'"):
        lineage(parse_query("Q() :- NV('k0001', 'k0001')", tr.indb.schema),
                instance)
    # The plan reads every atom's facts when it is made, so a false ground
    # predicate does not hide the unknown relation.
    with pytest.raises(SchemaError, match="'NV'"):
        lineage(parse_query("Q() :- NV(x, y), 1 = 2", tr.indb.schema),
                instance)
    with pytest.raises(SchemaError, match="'NV'"):
        instance.facts_by_value("NV", 0)
    with pytest.raises(SchemaError, match="'NV'"):
        instance.facts_in_range("NV", 0, "k0001", False, None, False)


def test_grounding_leaves_no_cyclic_garbage(tmp_path):
    project = generate_project(tmp_path / "p", seed=1, scale=60)
    db = _load_project(str(project))
    tr = build_indb(db)
    ev = IndexEvaluator(build_index(tr), db.possible_instance())
    s, a = ev.instance.facts_of("Advisor")[0].values
    point = parse_query(f"Q() :- Advisor({s}, {a})", db.schema)
    answers = parse_query(f"Q(s) :- Advisor(s, {a}), Student(s, y)",
                          db.schema)
    chain = chain_mvdb(20)
    chain_tr = build_indb(chain)
    chain_ev = IndexEvaluator(build_index(chain_tr),
                              chain.possible_instance())
    body = "R(x), S(x, y), T(y), x >= 'k0003', x < 'k0006'"
    window = parse_query(f"Q() :- {body}", chain.schema)
    window_answers = parse_query(f"Q(x) :- {body}", chain.schema)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            lineage(point, ev.instance)
            lineage(window, chain_ev.instance)
        for _ in range(20):
            assert answer_query(answers, tr, ev)
            assert len(answer_query(window_answers, chain_tr, chain_ev)) == 3
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
