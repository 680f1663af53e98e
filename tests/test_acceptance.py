"""Acceptance suite: one test per criterion, strict tolerances.

Each test prints a single PASS line with its measured figures (visible with
pytest -s or -rA); an assertion failure is the FAIL case.
"""

import io
import random
import time

import numpy as np
import pytest

from mvdb import (Fact, IndexEvaluator, IntersectStats, build_indb,
                  build_index, cc_mv_intersect, from_lineage, lineage,
                  mln_probability, mv_intersect, parse_query,
                  query_probability, rank_span)
from mvdb.cli import main as cli_main
from mvdb.gendata import generate_project
from mvdb.obdd import con_obdd
from mvdb.oracle import _probability_array, _sat_array, _clause_masks, _bit_map
from helpers import (TWO_TABLE_SCHEMA, demo_query, example1,
                     indb_world_trace, mln_world_trace, obdd_models,
                     random_boolean_query, two_table_db, viable_random_mvdb)

TOL_ENGINE = 1e-9
TOL_EXACT = 1e-12


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. Translation equivalence on 200 random databases
# ---------------------------------------------------------------------------

def test_criterion_1_translation_equivalence_200_random_databases():
    rng = random.Random(2024)
    started = time.perf_counter()
    worst = 0.0
    n_queries = 0
    for seed in range(200):
        db, tr, _, _ = viable_random_mvdb(seed)
        idx = build_index(tr)
        engine = IndexEvaluator(idx, tr.indb.possible_instance(), "cc")
        for _ in range(5):
            q = random_boolean_query(rng)
            got = query_probability(q, tr, engine)
            want = mln_probability(db, q)
            delta = abs(got - want)
            worst = max(worst, delta)
            assert delta <= TOL_ENGINE, f"seed {seed}: {got} vs {want}"
            n_queries += 1
    elapsed = time.perf_counter() - started
    assert n_queries == 1000
    _report(1, f"1000 queries, max |delta| = {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. Running-example reproduction: world weights and all 16 subset queries
# ---------------------------------------------------------------------------

def _project_key(world):
    return tuple(sorted(x for x in ("R", "S") if Fact(x, ("a",))
                        in world.present))


def test_criterion_2_example_worlds_and_sixteen_queries():
    w1, w2 = 2.0, 3.0
    worst = 0.0
    for w in (0.5, 0.25, 2.0, 4.0):
        db = example1(w1, w2, w)
        trace = mln_world_trace(db)
        assert [wt for _, wt in trace] == [1.0, w1, w2, w * w1 * w2]
        z = sum(wt for _, wt in trace)
        tr = build_indb(db)
        nv = Fact("NV", ("a",))
        r, s = Fact("R", ("a",)), Fact("S", ("a",))
        translated = {}
        den = 0.0
        for world, wt in indb_world_trace(tr.indb):
            if r in world.present and s in world.present \
                    and nv in world.present:
                continue
            den += wt
            key = _project_key(world)
            translated[key] = translated.get(key, 0.0) + wt
        keys = [(), ("R",), ("S",), ("R", "S")]
        mln = {k: 0.0 for k in keys}
        for world, wt in trace:
            mln[_project_key(world)] += wt
        for bits in range(16):
            subset = {keys[i] for i in range(4) if (bits >> i) & 1}
            lhs = sum(mln[k] for k in subset) / z
            rhs = sum(translated.get(k, 0.0) for k in subset) / den
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= TOL_EXACT
    _report(2, f"4 weight settings x 16 queries, max delta = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Seven-world totals of the translated database
# ---------------------------------------------------------------------------

def test_criterion_3_seven_world_totals():
    db = example1(w1=2.0, w2=3.0, w=0.5)  # view weight 0.5 -> aux weight 1
    tr = build_indb(db)
    assert tr.indb.weights[Fact("NV", ("a",))] == 1.0
    r, s, nv = Fact("R", ("a",)), Fact("S", ("a",)), Fact("NV", ("a",))
    totals = {}
    kept = 0
    for world, wt in indb_world_trace(tr.indb):
        if r in world.present and s in world.present and nv in world.present:
            continue
        kept += 1
        key = _project_key(world)
        totals[key] = totals.get(key, 0.0) + wt
    assert kept == 7
    assert totals[()] == 2.0
    assert totals[("R",)] == 4.0
    assert totals[("S",)] == 6.0
    assert totals[("R", "S")] == 6.0
    _report(3, "totals (2, 4, 6, 6) = (1+w0, (1+w0)w1, (1+w0)w2, w1w2) exact")


# ---------------------------------------------------------------------------
# 4. Two-table compilation fidelity
# ---------------------------------------------------------------------------

def test_criterion_4_two_table_obdd_fidelity():
    db = two_table_db()
    inst = db.possible_instance()
    q = parse_query("Q() :- R(x), S(x, y)", TWO_TABLE_SCHEMA)
    pi = {"R": (0,), "S": (0, 1)}
    g = con_obdd(pi, q, inst, db.domain)
    got_order = [str(f) for f in g.order.facts]
    assert got_order == ["R('a1')", "S('a1','b1')", "S('a1','b2')",
                         "R('a2')", "S('a2','b3')", "S('a2','b4')"]
    # 64-row truth table against (X1 and (Y1 or Y2)) or (X2 and (Y3 or Y4))
    x1, y1, y2, x2, y3, y4 = range(6)
    want = set()
    for m in range(64):
        b = [(m >> i) & 1 for i in range(6)]
        if (b[x1] and (b[y1] or b[y2])) or (b[x2] and (b[y3] or b[y4])):
            want.add(m)
    assert obdd_models(g, 6) == want
    _report(4, f"order {got_order} and 64-row truth table match")


# ---------------------------------------------------------------------------
# 5. Constant width, linear size on the denial-view scale series
# ---------------------------------------------------------------------------

def test_criterion_5_denial_series_width_and_size(tmp_path):
    widths, sizes = {}, {}
    for n in (50, 100, 200):
        proj = tmp_path / f"series{n}"
        generate_project(proj, seed=1, scale=n, views=("v2",))
        from mvdb.core import load_schema, load_data, Mvdb
        from mvdb.translate import load_views
        schema = load_schema(proj / "schema.txt")
        db = Mvdb(schema, load_data(schema, proj / "data"),
                  load_views(proj / "views.txt", schema))
        idx = build_index(build_indb(db))
        assert len(idx.constituents) == n
        widths[n] = idx.max_width()
        sizes[n] = sum(c.size() for c in idx.constituents)
    assert widths[50] == widths[100] == widths[200]
    r1 = sizes[100] / sizes[50]
    r2 = sizes[200] / sizes[100]
    assert 1.9 <= r1 <= 2.1 and 1.9 <= r2 <= 2.1
    _report(5, f"width {widths[50]} at every scale; size ratios "
               f"{r1:.3f}, {r2:.3f}")


# ---------------------------------------------------------------------------
# 6. Visit bound and agreement of the two intersection algorithms
# ---------------------------------------------------------------------------

def test_criterion_6_intersection_bound_and_agreement():
    rng = random.Random(4096)
    pairs = 0
    t_mv = t_cc = 0.0
    bound_checked = 0
    while pairs < 500:
        db, tr, _, _ = viable_random_mvdb(9000 + pairs)
        idx = build_index(tr)
        inst = tr.indb.possible_instance()
        for _ in range(4):
            q = random_boolean_query(rng)
            gq = from_lineage(lineage(q, inst), idx.order)
            stats = IntersectStats()
            t0 = time.perf_counter()
            got_cc = cc_mv_intersect(gq, idx, stats)
            t1 = time.perf_counter()
            got_mv = mv_intersect(gq, idx)
            t2 = time.perf_counter()
            t_cc += t1 - t0
            t_mv += t2 - t1
            scale = max(abs(got_mv), abs(got_cc), 1.0)
            assert abs(got_cc - got_mv) <= 1e-12 * scale
            m = rank_span(gq)
            assert stats.visited <= m * max(1, idx.max_width())
            bound_checked += 1
            pairs += 1
            if pairs >= 500:
                break
    ratio = t_mv / t_cc if t_cc else float("nan")
    _report(6, f"500 pairs agree to 1e-12 rel; visit bound held on "
               f"{bound_checked}; wall-clock mv/cc = {ratio:.2f} (reported, "
               "not asserted)")


# ---------------------------------------------------------------------------
# 7. Negative-probability algebra on translated databases
# ---------------------------------------------------------------------------

def test_criterion_7_negative_probability_identities():
    rng = random.Random(777)
    checked = 0
    seed = 0
    worst_p = (0.0, 1.0)
    while checked < 20:
        seed += 1
        db, tr, ev, _ = viable_random_mvdb(seed)
        negatives = [f for f in tr.indb.probabilistic_facts()
                     if tr.indb.probability(f) < 0]
        if not negatives:
            continue
        checked += 1
        prob_facts = tr.indb.probabilistic_facts()
        n = len(prob_facts)
        bits = _bit_map(prob_facts)
        weights = _probability_array(tr.indb, prob_facts, n)
        inst = tr.indb.possible_instance()

        def p0(sat):
            return float(weights[sat].sum())

        def sat_of(q):
            return _sat_array(_clause_masks(lineage(q, inst), bits), n)

        q1 = random_boolean_query(rng)
        q2 = random_boolean_query(rng)
        s1, s2 = sat_of(q1), sat_of(q2)
        # complement
        assert abs(p0(~s1) - (1.0 - p0(s1))) <= TOL_EXACT
        # inclusion / exclusion
        assert abs(p0(s1 | s2) - (p0(s1) + p0(s2) - p0(s1 & s2))) <= TOL_EXACT
        # independence on variable-disjoint formulas
        r_facts = [f for f in prob_facts if f.relation == "R"]
        t_facts = [f for f in prob_facts if f.relation == "T"]
        if r_facts and t_facts:
            sr = _sat_array([1 << bits[r_facts[0]]], n)
            st = _sat_array([1 << bits[t_facts[0]]], n)
            assert abs(p0(sr & st) - p0(sr) * p0(st)) <= TOL_EXACT
            assert abs(p0(sr | st)
                       - (1 - (1 - p0(sr)) * (1 - p0(st)))) <= TOL_EXACT
        # final probabilities stay inside [0, 1] despite negative inputs
        idx = build_index(tr)
        engine = IndexEvaluator(idx, inst, "cc")
        for _ in range(3):
            q = random_boolean_query(rng)
            p = query_probability(q, tr, engine)
            assert -1e-9 <= p <= 1 + 1e-9
            worst_p = (min(worst_p[0], p), max(worst_p[1], p))
    _report(7, f"20 databases with negative probabilities; identities to "
               f"1e-12; P(Q) range [{worst_p[0]:.3f}, {worst_p[1]:.3f}]")


# ---------------------------------------------------------------------------
# 8. End-to-end generated project: engine vs oracle row for row
# ---------------------------------------------------------------------------

def test_criterion_8_end_to_end_generated_project(tmp_path):
    proj = tmp_path / "mini"
    generate_project(proj, seed=1, scale=2)
    out = io.StringIO()
    assert cli_main(["compile", "--project", str(proj)], out=out) == 0
    q = demo_query(proj)

    def rows(engine):
        buf = io.StringIO()
        rc = cli_main(["query", "--project", str(proj), "--engine", engine,
                       "--tsv", q], out=buf)
        assert rc == 0
        parsed = [line.split("\t") for line in buf.getvalue().strip()
                  .splitlines()]
        return [(r[0], float(r[1])) for r in parsed]

    got = rows("ccmv")
    want = rows("oracle")
    assert len(got) == len(want) >= 1
    worst = 0.0
    for (k1, p1), (k2, p2) in zip(got, want):
        assert k1 == k2
        worst = max(worst, abs(p1 - p2))
        assert abs(p1 - p2) <= TOL_ENGINE
    _report(8, f"query {q!r}: {len(got)} rows, max delta = {worst:.2e}")
