"""Shared builders and independent brute-force checkers for the tests.

Everything here is deliberately naive: truth tables, explicit world sums,
plain subset enumeration, and the direct, slower forms of layers the engine
computes faster.  The engine must agree with these, never the other way
around.
"""

from __future__ import annotations

import itertools
import math
import random

from mvdb import (Fact, Mvdb, NodeTable, Obdd, parse_schema, parse_query,
                  parse_view, synthesize)

EX1_SCHEMA = parse_schema("""
relation R(x:string) key(x) probabilistic
relation S(x:string) key(x) probabilistic
""")

TWO_TABLE_SCHEMA = parse_schema("""
relation R(x:string) key(x) probabilistic
relation S(x:string, y:string) key(x,y) probabilistic
""")

CHAIN_SCHEMA = parse_schema("""
relation R(x:string) key(x) probabilistic
relation S(x:string, y:string) key(x,y) probabilistic
relation T(y:string) key(y) probabilistic
""")

RAND_SCHEMA = parse_schema("""
relation D(x:string) key(x) deterministic
relation R(x:string) key(x) probabilistic
relation S(x:string, y:string) key(x,y) probabilistic
relation T(y:string) key(y) probabilistic
""")


def example1(w1=2.0, w2=3.0, w=0.5) -> Mvdb:
    """Two correlated unary tuples and one constant-weight view."""
    view = parse_view(f"V(x) [{w}] :- R(x), S(x)", EX1_SCHEMA)
    return Mvdb(EX1_SCHEMA,
                [(Fact("R", ("a",)), w1), (Fact("S", ("a",)), w2)],
                [view])


def two_table_db(weight=1.0) -> Mvdb:
    """Two unary R tuples, each with two S partners."""
    facts = [(Fact("R", ("a1",)), weight), (Fact("R", ("a2",)), weight),
             (Fact("S", ("a1", "b1")), weight), (Fact("S", ("a1", "b2")), weight),
             (Fact("S", ("a2", "b3")), weight), (Fact("S", ("a2", "b4")), weight)]
    return Mvdb(TWO_TABLE_SCHEMA, facts, [])


def chain_mvdb(n: int, seed: int = 7) -> Mvdb:
    """R(k_i), S(k_i, k_i), S(k_i, k_{i+1}), T(k_j) for i < n, j <= n, with
    the soft view V(x, y) [0.5] :- R(x), S(x, y), T(y).  Neighbours share a
    T tuple, so W has no separator and compiles to one constituent."""
    rng = random.Random(seed)
    weights = (0.5, 1.0, 2.0)
    k = [f"k{i:04d}" for i in range(n + 1)]
    facts = []
    for i in range(n):
        facts.append((Fact("R", (k[i],)), rng.choice(weights)))
        for j in (i, i + 1):
            facts.append((Fact("S", (k[i], k[j])), rng.choice(weights)))
    facts += [(Fact("T", (c,)), rng.choice(weights)) for c in k]
    view = parse_view("V(x, y) [0.5] :- R(x), S(x, y), T(y)", CHAIN_SCHEMA)
    return Mvdb(CHAIN_SCHEMA, facts, [view])


def chain_window(lo: int, hi: int):
    """Boolean chain query over positions lo <= i < hi."""
    return parse_query(f"Q() :- R(x), S(x, y), T(y), x >= 'k{lo:04d}', "
                       f"x < 'k{hi:04d}'", CHAIN_SCHEMA)


# ---------------------------------------------------------------------------
# Reference implementations of layers the engine computes faster
# ---------------------------------------------------------------------------

def from_lineage_clausewise(phi, order, table=None) -> Obdd:
    """OR the clause chains into the result one at a time, in the lineage's
    order, with the accumulator on the left: one full apply per clause."""
    t = table if table is not None else NodeTable(order)
    root = 0
    for clause in phi.clauses:
        ranks = sorted((order.rank_of(f) for f in clause), reverse=True)
        acc = 1
        for r in ranks:
            acc = t.make(r, 0, acc)
        root = synthesize("or", Obdd(t, root), Obdd(t, acc)).root
        if root == 1:
            break
    return Obdd(t, root)


def build_index_per_block(tr):
    """`build_index` with one `con_obdd` call per separator constant, every
    block in one shared node table, and the contiguity check on
    `NodeTable.span`; on interleaved blocks, one `con_obdd` over all of W."""
    from mvdb import ucq as U
    from mvdb.mvindex import (Constituent, MvIndex, _variable_relations)
    from mvdb.obdd import (PermutationSet, _Builder, choose_pi, con_obdd,
                           tuple_order)
    indb = tr.indb
    instance = indb.possible_instance()
    prob_facts = indb.probabilistic_facts()
    if tr.w_query is None:
        pi = PermutationSet.identity()
        order = tuple_order(pi, prob_facts, indb.domain, indb.schema)
        probs = [indb.probability(f) for f in order.facts]
        return MvIndex([], order, probs, pi, tr.source.digest())
    var_rels = _variable_relations(indb)
    pi = choose_pi(tr.w_query, indb.schema, var_rels)
    order = tuple_order(pi, prob_facts, indb.domain, indb.schema)
    probs = [indb.probability(f) for f in order.facts]
    table = NodeTable(order)
    blocks = []
    sep = U.find_separator(tr.w_query, indb.schema, var_rels)
    if sep is not None:
        builder = _Builder(pi, instance, indb.domain, table, var_rels)
        by_constant = {}
        for i, (d, var) in enumerate(zip(tr.w_query.disjuncts,
                                         sep.variables)):
            for c in builder._candidates(d.atoms, var):
                by_constant.setdefault(c, []).append(i)
        for c in sorted(by_constant, key=indb.domain.rank):
            residual = tuple(U._subst_cq(tr.w_query.disjuncts[i],
                                         {sep.variables[i]: c})
                             for i in by_constant[c])
            g = con_obdd(pi, U.Ucq(residual), instance, indb.domain,
                         order=order, table=table, var_rels=var_rels)
            if g.root != 0:
                blocks.append((c, g))
        spans = sorted(table.span(g.root) for _, g in blocks if g.root > 1)
        if any(a[1] >= b[0] for a, b in zip(spans, spans[1:])):
            blocks = []
            sep = None
    if sep is None:
        g = con_obdd(pi, tr.w_query, instance, indb.domain, order=order,
                     table=table, var_rels=var_rels)
        blocks = [] if g.root == 0 else [(None, g)]
    constituents = []
    for key, g in blocks:
        c = Constituent.from_obdd(g, key, negate=True)
        c.compute_annotations(probs)
        c.derive(probs)
        constituents.append(c)
    return MvIndex(constituents, order, probs, pi, tr.source.digest())


def entry_tables_rescan(c, probs):
    """Entry tables and cut ranks of constituent *c* by rescanning every node
    once per rank: entry[r] sums, per child at rank >= r, the mass
    reach[pos] * (1-p or p) of every edge from a node of rank < r."""
    entry, cut = {}, set()
    if not c.n:
        return entry, cut
    for r in range(c.rank_lo, c.rank_hi + 1):
        if c.rank[0] >= r:
            table = [(0, 1.0)]
        else:
            masses = {}
            for pos in range(c.n):
                if c.rank[pos] >= r:
                    continue
                p = probs[c.rank[pos]]
                for child, factor in ((c.lo[pos], 1.0 - p), (c.hi[pos], p)):
                    child_rank = c.rank[child] if child >= 0 else math.inf
                    if child_rank >= r:
                        masses[child] = (masses.get(child, 0.0)
                                         + c.reach[pos] * factor)
            table = sorted(masses.items())
        entry[r] = table
        if all(code >= 0 and c.rank[code] == r for code, _ in table):
            cut.add(r)
    return entry, cut


def obdd_models(g, n_vars: int) -> set[int]:
    """Satisfying assignments of an OBDD as bitmasks over ranks."""
    out = set()
    for mask in range(1 << n_vars):
        ranks = {r for r in range(n_vars) if (mask >> r) & 1}
        if g.evaluate(ranks):
            out.add(mask)
    return out


def lineage_models(phi, order, n_vars: int) -> set[int]:
    masks = []
    for clause in phi.clauses:
        m = 0
        for f in clause:
            m |= 1 << order.rank_of(f)
        masks.append(m)
    out = set()
    for mask in range(1 << n_vars):
        if any(mask & m == m for m in masks):
            out.add(mask)
    return out


def signed_world_sum(probs: list[float], sat) -> float:
    """Sum of product measures over assignments where sat(mask) holds."""
    total = 0.0
    n = len(probs)
    for mask in range(1 << n):
        w = 1.0
        for i, p in enumerate(probs):
            w *= p if (mask >> i) & 1 else 1.0 - p
        if sat(mask):
            total += w
    return total


# ---------------------------------------------------------------------------
# Randomized instances
# ---------------------------------------------------------------------------

WEIGHT_POOL = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]

_VIEW_TEMPLATES = [
    "V{i}(x) [{w}] :- R(x), S(x, y)",
    "V{i}(x, y) [{w}] :- S(x, y)",
    "V{i}(y) [{w}] :- S(x, y), T(y)",
    "V{i}(x) [{w}] :- R(x), D(x)",
    "V{i}(x) [{w}] :- R(x) ; T(x)",
    "V{i}(x, y, z) [0] :- S(x, y), S(x, z), y != z",
    "V{i}(x) [{w}] :- R(x), S(x, x)",
]

_QUERY_ATOMS = [
    lambda v: f"R({v[0]})",
    lambda v: f"S({v[0]}, {v[1]})",
    lambda v: f"T({v[1]})",
    lambda v: f"D({v[0]})",
]


def random_mvdb(rng: random.Random, max_tuples: int = 12,
                max_views: int = 2) -> Mvdb:
    a_dom = ["a0", "a1", "a2"]
    b_dom = ["b0", "b1", "b2"]
    pool = ([Fact("R", (a,)) for a in a_dom]
            + [Fact("S", (a, b)) for a in a_dom for b in b_dom]
            + [Fact("T", (b,)) for b in b_dom])
    count = rng.randint(3, max_tuples)
    chosen = rng.sample(pool, count)
    weighted = [(f, rng.choice(WEIGHT_POOL)) for f in chosen]
    for a in a_dom:
        if rng.random() < 0.5:
            weighted.append((Fact("D", (a,)), float("inf")))
    views = []
    for i in range(rng.randint(0, max_views)):
        template = rng.choice(_VIEW_TEMPLATES)
        w = rng.choice([x for x in WEIGHT_POOL])
        views.append(parse_view(template.format(i=i, w=w), RAND_SCHEMA))
    return Mvdb(RAND_SCHEMA, weighted, views)


def random_boolean_query(rng: random.Random):
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        n_atoms = rng.randint(1, 3)
        vars_pool = ["x", "y"]
        items = []
        for _ in range(n_atoms):
            make = rng.choice(_QUERY_ATOMS)
            v = list(vars_pool)
            if rng.random() < 0.25:
                v[0] = f"'a{rng.randint(0, 2)}'"
            if rng.random() < 0.25:
                v[1] = f"'b{rng.randint(0, 2)}'"
            items.append(make(v))
        if rng.random() < 0.2 and any(", y)" in it or it == "T(y)"
                                      for it in items):
            items.append(f"y != 'b{rng.randint(0, 2)}'")
        disjuncts.append(", ".join(sorted(set(items))))
    text = "Q() :- " + " ; ".join(disjuncts)
    return parse_query(text, RAND_SCHEMA)


def viable_random_mvdb(seed: int, max_tuples: int = 12):
    """A seeded random database whose constraints are satisfiable.

    Keeps at most 6 auxiliary tuples so the translated database stays well
    inside the enumeration cap.
    """
    from mvdb import build_indb, EnumerationEvaluator
    for attempt in itertools.count():
        rng = random.Random(seed * 1000003 + attempt)
        db = random_mvdb(rng, max_tuples=max_tuples)
        tr = build_indb(db)
        n_aux = (len(tr.indb.probabilistic_facts())
                 - len(db.probabilistic_facts()))
        if n_aux > 6:
            continue
        ev = EnumerationEvaluator(tr)
        if abs(ev.p_not_w) > 1e-6:
            return db, tr, ev, rng
