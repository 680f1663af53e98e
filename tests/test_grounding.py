"""Grounding through the join plan: `ucq.iter_matches` against a brute-force
product over the atoms' rows, the rows a window query reads, and a check
that grounding leaves no reference cycles for the collector."""

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
from mvdb.ucq import BinOp, eval_predicate, iter_matches

from helpers import chain_mvdb

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
    for rows in itertools.product(*(instance.rows_of(a.relation)
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


class _Rows(list):
    """A row list that counts, across lists, the rows read from it."""

    read = 0

    def __iter__(self):
        _Rows.read += len(self)
        return super().__iter__()


class _CountingInstance(Instance):
    """Hands out its rows as `_Rows`."""

    def rows_of(self, relation):
        return _Rows(super().rows_of(relation))

    def rows_with_value(self, relation, pos, value):
        return _Rows(super().rows_with_value(relation, pos, value))

    def rows_in_range(self, relation, pos, lo, lo_open, hi, hi_open):
        return _Rows(super().rows_in_range(relation, pos, lo, lo_open, hi,
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
        _Rows.read = 0
        assert len(lineage(q, instance).clauses) == 2
        read.append(_Rows.read)
    assert read[0] == read[1] == 5  # 1 row in the window, 2 joined, 2 more


def test_missing_relation_raises_schema_error():
    db = chain_mvdb(4)
    tr = build_indb(db)
    instance = db.possible_instance()
    with pytest.raises(SchemaError, match="'NV'"):
        lineage(parse_query("Q() :- NV('k0001', 'k0001')", tr.indb.schema),
                instance)
    with pytest.raises(SchemaError, match="'NV'"):
        instance.rows_with_value("NV", 0, "k0001")
    with pytest.raises(SchemaError, match="'NV'"):
        instance.rows_in_range("NV", 0, "k0001", False, None, False)


def test_grounding_leaves_no_cyclic_garbage(tmp_path):
    project = generate_project(tmp_path / "p", seed=1, scale=60)
    db = _load_project(str(project))
    tr = build_indb(db)
    ev = IndexEvaluator(build_index(tr), db.possible_instance())
    s, a = ev.instance.rows_of("Advisor")[0]
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
