"""Grounding through the join plan: `ucq.iter_matches` against a brute-force
product over the atoms' rows, and a check that grounding leaves no
reference cycles for the collector."""

import gc
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdb import (Atom, Const, ConjunctiveQuery, Fact, IndexEvaluator,
                  Instance, MvdbError, Predicate, Var, answer_query,
                  build_indb, build_index, lineage, parse_query, parse_schema)
from mvdb.cli import _load_project
from mvdb.gendata import generate_project
from mvdb.ucq import BinOp, eval_predicate, iter_matches

SCHEMA = parse_schema("""
relation R(a:int, b:int) key(a,b) probabilistic
relation S(a:int) key(a) probabilistic
relation T(a:int, b:int, c:int) key(a,b,c) deterministic
""")
ARITY = {r.name: r.arity for r in SCHEMA.relations}
VALUES = range(4)
NAMES = ("x", "y", "z", "w")


@st.composite
def instances(draw):
    facts = [Fact(rel, values) for rel, n in ARITY.items()
             for values in itertools.product(VALUES, repeat=n)]
    present = draw(st.lists(st.sampled_from(facts), max_size=14))
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


@st.composite
def queries(draw):
    """A CQ with self-joins, repeated variables, constants, predicates
    across atoms, ground predicates (as `substitute` writes them) and a
    pre-bound binding whose names may or may not occur in the atoms."""
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(sorted(ARITY)))
        terms = tuple(
            Const(draw(st.sampled_from(VALUES))) if draw(st.booleans())
            and draw(st.booleans()) else Var(draw(st.sampled_from(NAMES)))
            for _ in range(ARITY[rel]))
        atoms.append(Atom(rel, terms))
    binding = draw(st.dictionaries(st.sampled_from(NAMES),
                                   st.sampled_from(VALUES), max_size=2))
    names = sorted(set().union(*(a.variables() for a in atoms)) | set(binding))
    preds = []
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("=", "!=", "<", "<=", ">", ">=")))
        if draw(st.integers(0, 3)) == 0:
            preds.append(Predicate("=", Const(draw(st.sampled_from(VALUES))),
                                   Const(draw(st.sampled_from(VALUES)))))
        else:
            preds.append(Predicate(op, _expr(draw, names),
                                   _expr(draw, names)))
    return ConjunctiveQuery((), tuple(atoms), tuple(preds)), binding


def brute_force(cq, instance, binding):
    """Every combination of one row per atom that agrees with the
    constants, the binding and itself, and passes every predicate."""
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
        if ok and all(eval_predicate(p, bnd) for p in cq.predicates):
            used = frozenset(Fact(a.relation, row)
                             for a, row in zip(cq.atoms, rows))
            out[tuple(sorted(bnd.items())), used] += 1
    return out


def planned(cq, instance, binding):
    return Counter((tuple(sorted(bnd.items())), frozenset(used))
                   for bnd, used in iter_matches(cq, instance, binding))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(instances(), queries())
def test_iter_matches_equals_brute_force(instance, query):
    cq, binding = query
    assert planned(cq, instance, binding) == brute_force(cq, instance,
                                                         binding)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances(), queries())
def test_predicate_error_propagates(instance, query):
    # an int compared with a string raises MvdbError in `eval_predicate`
    cq, binding = query
    names = sorted(cq.variables() | set(binding))
    bad = Predicate("<", Var(names[0]) if names else Const(0), Const("s"))
    broken = ConjunctiveQuery((), cq.atoms, cq.predicates + (bad,))
    if brute_force(cq, instance, binding):
        with pytest.raises(MvdbError, match="type mismatch"):
            planned(broken, instance, binding)
    else:
        try:
            planned(broken, instance, binding)
        except MvdbError:
            pass  # pruned differently, but the error stays typed


def test_grounding_leaves_no_cyclic_garbage(tmp_path):
    project = generate_project(tmp_path / "p", seed=1, scale=60)
    db = _load_project(str(project))
    tr = build_indb(db)
    ev = IndexEvaluator(build_index(tr), db.possible_instance())
    s, a = ev.instance.rows_of("Advisor")[0]
    point = parse_query(f"Q() :- Advisor({s}, {a})", db.schema)
    answers = parse_query(f"Q(s) :- Advisor(s, {a}), Student(s, y)",
                          db.schema)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            lineage(point, ev.instance)
        for _ in range(20):
            assert answer_query(answers, tr, ev)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
