"""Enumeration oracles: world traces, signed measures, translation checks."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from mvdb import (EnumerationEvaluator, Fact, Indb, Lineage, Mvdb,
                  WorldCapError, build_indb, mln_probability, parse_query,
                  translation_check)
import mvdb
from mvdb.core import INF
from mvdb.oracle import MlnEvaluator

from helpers import (EX1_SCHEMA, evaluate_on_world, example1,
                     indb_probability, indb_world_trace, mln_world_trace,
                     random_boolean_query, random_mvdb, viable_random_mvdb)


def test_example1_world_weights():
    db = example1(w1=2.0, w2=3.0, w=0.5)
    trace = mln_world_trace(db)
    weights = [w for _, w in trace]
    assert weights == [1.0, 2.0, 3.0, 0.5 * 2.0 * 3.0]


def test_example1_world_weights_symbolic():
    for w1, w2, w in [(0.25, 4.0, 2.0), (1.0, 1.0, 0.0), (2.0, 2.0, 4.0)]:
        trace = mln_world_trace(example1(w1, w2, w))
        assert [w_ for _, w_ in trace] == [1.0, w1, w2, w * w1 * w2]


def test_translated_seven_world_totals():
    # w1=2, w2=3, view weight 0.5 so the auxiliary weight w0 is 1:
    # grouped by the original tuples, the not-W worlds must total
    # (1+w0), (1+w0)w1, (1+w0)w2, w1w2
    db = example1(w1=2.0, w2=3.0, w=0.5)
    tr = build_indb(db)
    r, s, nv = Fact("R", ("a",)), Fact("S", ("a",)), Fact("NV", ("a",))
    totals = {(): 0.0, ("R",): 0.0, ("S",): 0.0, ("R", "S"): 0.0}
    n_not_w = 0
    for world, weight in indb_world_trace(tr.indb):
        violates = (r in world.present and s in world.present
                    and nv in world.present)
        if violates:
            continue
        n_not_w += 1
        key = tuple(sorted(x for x in ("R", "S")
                           if Fact(x, ("a",)) in world.present))
        totals[key] += weight
    assert n_not_w == 7
    assert totals[()] == 2.0          # 1 + w0
    assert totals[("R",)] == 4.0      # (1 + w0) w1
    assert totals[("S",)] == 6.0      # (1 + w0) w2
    assert totals[("R", "S")] == 6.0  # w1 w2


def test_mln_probability_true_is_one():
    db = example1()
    q = parse_query("Q() :- R('a') ; S('a') ; R('a'), S('a')", EX1_SCHEMA)
    # not literally true, so build truth via a tautology-free check instead:
    # P(R or not R) cannot be expressed; assert P over all worlds sums to 1
    trace = mln_world_trace(db)
    z = sum(w for _, w in trace)
    assert sum(w / z for _, w in trace) == pytest.approx(1.0, abs=1e-12)


def test_mln_probability_matches_world_trace_sums():
    rng = random.Random(4)
    for seed in range(15):
        db, tr, ev, _ = viable_random_mvdb(seed, max_tuples=8)
        q = random_boolean_query(rng)
        inst = db.possible_instance()
        z = zq = 0.0
        for world, w in mln_world_trace(db):
            z += w
            if evaluate_on_world(q, inst, world.present):
                zq += w
        assert mln_probability(db, q) == pytest.approx(zq / z, abs=1e-12)


def test_indb_probability_true_is_one_with_negative_probabilities():
    db = Indb(EX1_SCHEMA, [(Fact("R", ("a",)), -0.5),
                           (Fact("S", ("a",)), 2.0)])
    phi = Lineage((frozenset(),))
    assert indb_probability(db, phi) == pytest.approx(1.0, abs=1e-12)


def test_indb_inclusion_exclusion():
    rng = random.Random(8)
    facts = [Fact("R", ("a",)), Fact("S", ("a",))]
    db = Indb(EX1_SCHEMA, [(facts[0], -0.5), (facts[1], 4.0)])
    q1 = Lineage((frozenset([facts[0]]),))
    q2 = Lineage((frozenset([facts[1]]),))
    q_or = Lineage.normalize(q1.clauses + q2.clauses)
    q_and = Lineage((frozenset(facts),))
    lhs = indb_probability(db, q_or)
    rhs = (indb_probability(db, q1) + indb_probability(db, q2)
           - indb_probability(db, q_and))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_world_cap_enforced():
    facts = [(Fact("R", (f"c{i}",)), 1.0) for i in range(6)]
    db = Indb(EX1_SCHEMA, facts)
    with pytest.raises(WorldCapError):
        indb_probability(db, Lineage((frozenset(),)), world_cap=16)
    mdb = Mvdb(EX1_SCHEMA, facts, [])
    with pytest.raises(WorldCapError):
        mln_probability(mdb, parse_query("Q() :- R('c0')", EX1_SCHEMA),
                        world_cap=16)


# -- the translation identity ------------------------------------------------------

def _world_subset_probability_mln(db, subset):
    trace = mln_world_trace(db)
    z = sum(w for _, w in trace)
    return sum(w for world, w in trace
               if _project(world) in subset) / z


def _project(world):
    return tuple(sorted(x for x in ("R", "S")
                        if Fact(x, ("a",)) in world.present))


def _world_subset_probability_translated(db, subset):
    tr = build_indb(db)
    r, s = Fact("R", ("a",)), Fact("S", ("a",))
    nv = Fact("NV", ("a",))
    num = den = 0.0
    probs = {f: tr.indb.probability(f) for f in tr.indb.probabilistic_facts()}
    qs = {f: 1.0 / (1.0 + tr.indb.weights[f]) for f in probs}
    prob_facts = list(probs)
    for mask in range(1 << len(prob_facts)):
        present = {f for i, f in enumerate(prob_facts) if (mask >> i) & 1}
        w = 1.0
        for i, f in enumerate(prob_facts):
            w *= probs[f] if (mask >> i) & 1 else qs[f]
        if r in present and s in present and (nv not in probs or nv in present):
            continue  # violates not-W
        den += w
        key = tuple(sorted(x for x in ("R", "S") if Fact(x, ("a",)) in present))
        if key in subset:
            num += w
    return num / den


@pytest.mark.parametrize("w", [0.25, 0.5, 2.0, 4.0])
def test_sixteen_world_subset_queries_agree(w):
    db = example1(w1=2.0, w2=3.0, w=w)
    keys = [(), ("R",), ("S",), ("R", "S")]
    for bits in range(16):
        subset = {keys[i] for i in range(4) if (bits >> i) & 1}
        lhs = _world_subset_probability_mln(db, subset)
        rhs = _world_subset_probability_translated(db, subset)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_translation_check_example1():
    db = example1(2.0, 3.0, 0.5)
    q = parse_query("Q() :- R('a') ; S('a')", EX1_SCHEMA)
    [(lhs, rhs, delta)] = translation_check(db, [q])
    assert lhs == pytest.approx(8 / 9, abs=1e-12)
    assert delta <= 1e-12


def test_translation_check_enumerates_only_for_queries():
    db = example1()
    assert translation_check(db, [], world_cap=1) == []
    q = parse_query("Q() :- R('a')", EX1_SCHEMA)
    with pytest.raises(WorldCapError):
        translation_check(db, [q], world_cap=1)


def test_mln_evaluator_builds_one_possible_instance(monkeypatch):
    # The view features are grounded over the evaluator's own instance.
    calls = []
    real = Mvdb.possible_instance

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Mvdb, "possible_instance", counting)
    MlnEvaluator(example1())
    assert len(calls) == 1


def test_translation_check_denial_and_positive():
    for w in (0.0, 2.0):
        db = example1(2.0, 3.0, w)
        q = parse_query("Q() :- R('a'), S('a')", EX1_SCHEMA)
        [(lhs, rhs, delta)] = translation_check(db, [q])
        assert delta <= 1e-12
        if w == 0.0:
            assert lhs == pytest.approx(0.0, abs=1e-12)


def test_translation_check_randomized():
    rng = random.Random(13)
    for seed in range(20):
        db, _, _, _ = viable_random_mvdb(seed)
        q = random_boolean_query(rng)
        [(lhs, rhs, delta)] = translation_check(db, [q])
        assert delta <= 1e-12


def test_translation_check_rhs_is_the_oracle_engine():
    rng = random.Random(17)
    for seed in range(10):
        db, _, _, _ = viable_random_mvdb(seed)
        q = random_boolean_query(rng)
        [(_, rhs, _)] = translation_check(db, [q])
        assert rhs == EnumerationEvaluator(build_indb(db)).probability(q)


def test_mln_probability_valid_query_is_one():
    from mvdb.core import INF
    facts = [(Fact("D", ("a0",)), INF), (Fact("R", ("a0",)), 1.0)]
    from helpers import RAND_SCHEMA
    db = Mvdb(RAND_SCHEMA, facts, [])
    q = parse_query("Q() :- D('a0')", RAND_SCHEMA)
    assert mln_probability(db, q) == 1.0


def test_loading_mvdb_does_not_import_numpy():
    # only enumeration needs numpy; the engine and the CLI must not pay for it
    src = str(Path(mvdb.__file__).resolve().parent.parent)
    code = ("import sys; import mvdb, mvdb.cli, mvdb.oracle; "
            "sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], cwd=src).returncode == 0
