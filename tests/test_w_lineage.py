"""W's lineage comes from the views' own grounding pass.

`build_indb` grounds each view body once and keeps, per match, W's clause:
the non-deterministic body facts and the auxiliary fact of the output,
unless its weight is 0.  Grouped by W's separator constant, these clauses
must equal grounding `tr.w_query` itself over the Indb's possible instance
(`helpers.w_lineage_reference`), as multisets per key; `build_index` must
compile them without grounding anything.
"""

import random
from collections import Counter

import pytest

from mvdb import (Fact, IndexEvaluator, Indb, Mvdb, build_indb, build_index,
                  mln_probability, parse_query, parse_schema, parse_view,
                  query_probability, serialize)
from mvdb import ucq
from mvdb.cli import _load_project
from mvdb.core import INF
from mvdb.gendata import generate_project

from helpers import (chain_mvdb, random_mvdb, variable_relations,
                     viable_random_mvdb, w_lineage_reference)

SHORTCUT = pytest.mark.parametrize("shortcut", [True, False],
                                   ids=["shortcut", "explicit"])


def _check(tr):
    """tr.w_lineage equals the reference grounding, clause for clause per
    key, and each clause holds the Indb's own facts, each once."""
    own = {f: f for f in tr.indb.weights}
    for clauses in tr.w_lineage.values():
        assert clauses
        for clause in clauses:
            assert type(clause) is tuple
            assert len(set(map(id, clause))) == len(clause)
            assert all(own[f] is f for f in clause)
            assert not any(tr.indb.weights[f] == INF for f in clause)
    got = {k: Counter(map(frozenset, v)) for k, v in tr.w_lineage.items()}
    want = {k: Counter(v) for k, v in w_lineage_reference(tr).items()}
    assert got == want


@SHORTCUT
def test_dblp_w_lineage_matches_reference(tmp_path, shortcut):
    db = _load_project(generate_project(tmp_path / "p", seed=1, scale=60))
    tr = build_indb(db, denial_shortcut=shortcut)
    _check(tr)
    assert len(tr.w_lineage) == 60


@SHORTCUT
@pytest.mark.parametrize("n", [8, 20])
def test_chain_w_lineage_matches_reference(n, shortcut):
    tr = build_indb(chain_mvdb(n), denial_shortcut=shortcut)
    _check(tr)
    assert list(tr.w_lineage) == [None]


@SHORTCUT
def test_viable_random_w_lineage_matches_reference(shortcut):
    for seed in range(200):
        db = viable_random_mvdb(seed)[0]
        _check(build_indb(db, denial_shortcut=shortcut))


@SHORTCUT
def test_random_w_lineage_matches_reference(shortcut):
    keyed = 0
    for seed in range(500):
        tr = build_indb(random_mvdb(random.Random(seed)),
                        denial_shortcut=shortcut)
        _check(tr)
        keyed += None not in tr.w_lineage and bool(tr.w_lineage)
    assert keyed  # the corpus has separable W's as well


@SHORTCUT
def test_carried_variable_relations_match_the_weights(tmp_path, shortcut):
    # `build_indb` finds the relations with a non-deterministic fact while
    # it grounds the views; they are those the Indb's weights give.
    dbs = [_load_project(generate_project(tmp_path / "p", seed=1, scale=60)),
           chain_mvdb(8), chain_mvdb(20)]
    dbs += [viable_random_mvdb(seed)[0] for seed in range(200)]
    dbs += [random_mvdb(random.Random(seed)) for seed in range(500)]
    for db in dbs:
        tr = build_indb(db, denial_shortcut=shortcut)
        assert tr.var_rels == variable_relations(tr.indb)


def _built_twice(tr, monkeypatch):
    """build_index(tr) twice, with grounding and the possible instance
    patched to raise: the same bytes, and tr.w_lineage left as it was."""
    before = dict(tr.w_lineage)

    def grounded(*args, **kwargs):
        raise AssertionError("build_index grounded a query")

    monkeypatch.setattr(ucq, "join_plan", grounded)
    monkeypatch.setattr(Indb, "possible_instance", grounded)
    first = serialize(build_index(tr))
    assert serialize(build_index(tr)) == first
    assert tr.w_lineage == before
    monkeypatch.undo()


def test_build_index_grounds_nothing(tmp_path, monkeypatch):
    db = _load_project(generate_project(tmp_path / "p", seed=1, scale=60))
    for tr in (build_indb(db), build_indb(chain_mvdb(8))):
        _built_twice(tr, monkeypatch)


# -- edge cases of the views' pass ---------------------------------------------

EDGE_SCHEMA = parse_schema("""
relation C(x:string, n:int) key(x) deterministic
relation R(x:string) key(x) probabilistic
relation S(x:string, y:string) key(x,y) probabilistic
relation T(y:string) key(y) probabilistic
""")

EDGE_FACTS = [(Fact("C", ("a", 0)), INF), (Fact("C", ("b", 2)), INF),
              (Fact("C", ("c", 1)), INF),
              (Fact("R", ("a",)), 2.0), (Fact("R", ("b",)), 0.5),
              (Fact("R", ("c",)), 1.0),
              (Fact("S", ("a", "a")), 0.25), (Fact("S", ("a", "b")), 3.0),
              (Fact("S", ("b", "c")), 1.5),
              (Fact("T", ("a",)), 0.5), (Fact("T", ("b",)), 2.0),
              (Fact("T", ("c",)), 4.0)]

EDGE_QUERIES = ["Q() :- R('a')", "Q() :- R('b') ; T('c')",
                "Q() :- S('a', y)", "Q() :- R(x), S(x, y), T(y)",
                "Q() :- S(x, x)"]

EDGE_VIEWS = {
    "mixed weights": ["V(x) [n / 2] :- R(x), C(x, n)"],
    "two disjuncts, shared outputs": ["V(x) [0.5] :- R(x), S(x, y) ; T(x)"],
    "repeated head variable": ["V(x, x) [2] :- S(x, x)",
                               "U(x, y) [0.25] :- S(x, y), T(y)"],
    "no outputs": ["V(x) [2] :- R(x), C(x, 7)",
                   "U(x) [0.5] :- R(x), T(x)"],
    "deterministic atom": ["V(x, y) [0.25] :- S(x, y), C(y, n)"],
    "all denial": ["V(x, y) [0] :- S(x, y), T(y)"],
    "one fact twice": ["V(x) [2] :- S(x, y), S(x, z)"],
    # three steps over S: three pairs of them can share a fact
    "one fact at three steps": ["V(x) [2] :- S(x, y), S(x, z), S(w, z)"],
    "self-join around another atom": ["V(x) [0.5] :- S(x, y), T(y), "
                                      "S(x, z)"],
    # no soft atom, no root variable: W's separator is NV's head variable
    "no soft atom": ["V(x) [0.5] :- C(x, n), C(y, 2)"],
}


def _edge_db(name):
    return Mvdb(EDGE_SCHEMA, EDGE_FACTS,
                [parse_view(text, EDGE_SCHEMA) for text in EDGE_VIEWS[name]])


def _nv(clause):
    return [f for f in clause if f.relation.startswith("N")]


@SHORTCUT
@pytest.mark.parametrize("name", list(EDGE_VIEWS))
def test_edge_view_lineage_and_answers(name, shortcut):
    db = _edge_db(name)
    tr = build_indb(db, denial_shortcut=shortcut)
    _check(tr)
    ev = IndexEvaluator(build_index(tr), tr.indb.possible_instance())
    for text in EDGE_QUERIES:
        q = parse_query(text, EDGE_SCHEMA)
        assert query_probability(q, tr, ev) == pytest.approx(
            mln_probability(db, q), abs=1e-9)


def _clauses(tr):
    return [c for group in tr.w_lineage.values() for c in group]


@SHORTCUT
def test_weight_zero_outputs_drop_their_auxiliary_fact(shortcut):
    tr = build_indb(_edge_db("mixed weights"), denial_shortcut=shortcut)
    by_x = {c[0].values[0]: c for c in _clauses(tr)}
    assert sorted(by_x) == ["a", "b", "c"]
    assert _nv(by_x["a"]) == []  # C('a', 0): weight 0, NV('a') hard
    assert _nv(by_x["b"]) == [Fact("NV", ("b",))]
    assert _nv(by_x["c"]) == [Fact("NV", ("c",))]
    assert tr.indb.weights[Fact("NV", ("a",))] == INF


def test_shared_outputs_share_one_auxiliary_fact():
    tr = build_indb(_edge_db("two disjuncts, shared outputs"))
    nv = [f for c in _clauses(tr) for f in _nv(c)]
    # a: S('a', 'a'), S('a', 'b'), T('a'); b: S('b', 'c'), T('b'); c: T('c')
    assert Counter(f.values for f in nv) == {("a",): 3, ("b",): 2, ("c",): 1}
    assert len(set(map(id, nv))) == 3


def test_repeated_head_variable_repeats_the_value():
    tr = build_indb(_edge_db("repeated head variable"))
    assert tr.indb.schema.relation("NV").arity == 2
    assert [f for c in _clauses(tr) for f in _nv(c)
            if f.relation == "NV"] == [Fact("NV", ("a", "a"))]


def test_view_without_outputs_adds_no_clause():
    db = _edge_db("no outputs")
    assert build_indb(Mvdb(EDGE_SCHEMA, EDGE_FACTS,
                           db.views[:1])).w_lineage == {}
    tr = build_indb(db)
    assert {f.relation for c in _clauses(tr) for f in c} == {"R", "T", "NU"}
    assert len(build_index(tr).constituents) == len(tr.w_lineage) == 3


def test_deterministic_body_atoms_leave_the_clause():
    tr = build_indb(_edge_db("deterministic atom"))
    assert {f.relation for c in _clauses(tr) for f in c} == {"S", "NV"}


def test_explicit_all_denial_view_has_no_auxiliary_fact_in_w():
    db = _edge_db("all denial")
    explicit = build_indb(db, denial_shortcut=False)
    assert all(w == INF for f, w in explicit.indb.weights.items()
               if f.relation == "NV")
    shortcut = build_indb(db)
    assert "NV" not in {r.name for r in shortcut.indb.schema.relations}
    for tr in (explicit, shortcut):
        assert {f.relation for c in _clauses(tr) for f in c} == {"S", "T"}


def test_self_join_on_one_fact_keeps_it_once():
    tr = build_indb(_edge_db("one fact twice"))
    # y = z: S(x, y) and S(x, z) are one fact, in 3 of the 5 matches
    assert Counter(len(c) for c in _clauses(tr)) == {2: 3, 3: 2}
