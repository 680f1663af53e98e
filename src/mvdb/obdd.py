"""Reduced ordered binary decision diagrams over tuple variables.

Nodes live in a shared, hash-consed arena (`NodeTable`), so every OBDD built
against the same table is reduced and canonical for its variable order.  Two
combination strategies are provided: `synthesize` (pairwise apply, product
cost) and `concatenate` (sink redirection, linear in the left operand), and
the paper's recursive query compiler `con_obdd` chooses between them:
independent parts whose variable ranges are consecutive in the order are
concatenated, everything else is synthesized.

The engine compiles every OBDD it uses with `from_lineage`: query lineage
online, and each block of the constraint query W's lineage offline
(`mvindex.build_index`).  It ORs one chain per clause into the result from
the highest first rank down.  Every apply then stops where that clause's
path resolves, so a lineage costs about the result's size plus the clause
lengths; ORing the clauses in ascending order walked the whole accumulator
once per clause.  A reduced OBDD is canonical for its function and order,
so `from_lineage` and `con_obdd` give the same diagram for the same query;
`con_obdd` stays as the public form of the paper's compiler and as the
tests' cross-check, off the compile path.

Finished OBDDs are immutable and shareable; construction is single-threaded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (Domain, Fact, Instance, MvdbError, OrderMismatchError,
                   Schema)
from . import ucq as U

_INF_RANK = math.inf


@dataclass(frozen=True)
class PermutationSet:
    """Per-relation permutations of attribute positions."""

    perms: dict

    def __post_init__(self):
        for rel, perm in self.perms.items():
            if sorted(perm) != list(range(len(perm))):
                raise MvdbError(f"{rel}: {perm!r} is not a permutation")

    def perm(self, relation: str, arity: int) -> tuple:
        got = self.perms.get(relation)
        if got is None:
            return tuple(range(arity))
        if len(got) != arity:
            raise MvdbError(f"{relation}: permutation arity mismatch")
        return tuple(got)

    @staticmethod
    def identity() -> "PermutationSet":
        return PermutationSet({})


class VariableOrder:
    """A total order over the probabilistic tuples of an instance."""

    def __init__(self, facts: Iterable[Fact]):
        self.facts: tuple[Fact, ...] = tuple(facts)
        self.rank: dict[Fact, int] = {f: i for i, f in enumerate(self.facts)}
        if len(self.rank) != len(self.facts):
            raise MvdbError("duplicate tuple in variable order")

    def __len__(self):
        return len(self.facts)

    def rank_of(self, fact: Fact) -> int:
        try:
            return self.rank[fact]
        except KeyError:
            raise OrderMismatchError(f"{fact} is not ranked") from None

    def __eq__(self, other):
        return isinstance(other, VariableOrder) and self.facts == other.facts

    def __hash__(self):
        return hash(self.facts)


def tuple_order(pi: PermutationSet, facts: Iterable[Fact], domain: Domain,
                schema: Schema) -> VariableOrder:
    """Order tuples by recursive grouping on permuted attributes.

    Constants are visited in active-domain order; within a group the
    examined attribute is projected out and the residue ordered recursively.
    Tuples that run out of attributes are emitted first, relations sorted
    smaller arity first (declaration order breaks ties).
    """
    rel_key = {r.name: (r.arity, i) for i, r in enumerate(schema.relations)}
    items = []
    for f in facts:
        perm = pi.perm(f.relation, len(f.values))
        items.append((f, tuple(f.values[p] for p in perm)))

    ordered: list[Fact] = []

    def emit(block):
        finished = [(f, pv) for f, pv in block if not pv]
        finished.sort(key=lambda t: rel_key[t[0].relation])
        ordered.extend(f for f, _ in finished)
        rest = [t for t in block if t[1]]
        groups: dict = {}
        for f, pv in rest:
            groups.setdefault(pv[0], []).append((f, pv[1:]))
        for value in sorted(groups, key=domain.rank):
            emit(groups[value])

    emit(items)
    return VariableOrder(ordered)


# ---------------------------------------------------------------------------
# Node storage
# ---------------------------------------------------------------------------

class NodeTable:
    """Shared arena with a uniqueness table; ids 0 and 1 are the sinks."""

    def __init__(self, order: VariableOrder):
        self.order = order
        self.var: list[int] = [-1, -1]
        self.lo: list[int] = [0, 1]
        self.hi: list[int] = [0, 1]
        self._unique: dict = {}
        self._span: dict[int, Optional[tuple]] = {0: None, 1: None}

    def __len__(self):
        return len(self.var)

    def make(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self.var)
            self.var.append(var)
            self.lo.append(lo)
            self.hi.append(hi)
            self._unique[key] = node
        return node

    def span(self, node: int) -> Optional[tuple]:
        """(min rank, max rank) over the sub-DAG, or None for sinks."""
        missing = [node]
        while missing:
            u = missing[-1]
            if u in self._span:
                missing.pop()
                continue
            deps = [c for c in (self.lo[u], self.hi[u]) if c not in self._span]
            if deps:
                missing.extend(deps)
                continue
            missing.pop()
            lo_s = self._span[self.lo[u]]
            hi_s = self._span[self.hi[u]]
            mn = min(s[0] for s in (lo_s, hi_s) if s) if (lo_s or hi_s) \
                else self.var[u]
            mx = max(s[1] for s in (lo_s, hi_s) if s) if (lo_s or hi_s) \
                else self.var[u]
            self._span[u] = (min(self.var[u], mn), max(self.var[u], mx))
        return self._span[node]


class Obdd:
    """A root in a shared node table, together with its variable order."""

    def __init__(self, table: NodeTable, root: int):
        self.table = table
        self.root = root
        self._reachable: Optional[list[int]] = None

    @property
    def order(self) -> VariableOrder:
        return self.table.order

    def reachable(self) -> list[int]:
        """Internal nodes in DFS preorder (low child first) from the root."""
        if self._reachable is None:
            out, seen, stack = [], set(), [self.root]
            while stack:
                u = stack.pop()
                if u <= 1 or u in seen:
                    continue
                seen.add(u)
                out.append(u)
                stack.append(self.table.hi[u])
                stack.append(self.table.lo[u])
            self._reachable = out
        return self._reachable

    def is_sink(self) -> bool:
        return self.root <= 1

    def var_ranks(self) -> set[int]:
        return {self.table.var[u] for u in self.reachable()}

    def size(self) -> int:
        """Node count including the two sinks."""
        return len(self.reachable()) + 2

    def width(self) -> int:
        counts: dict[int, int] = {}
        for u in self.reachable():
            r = self.table.var[u]
            counts[r] = counts.get(r, 0) + 1
        return max(counts.values(), default=0)

    def evaluate(self, true_ranks) -> bool:
        u = self.root
        while u > 1:
            u = self.table.hi[u] if self.table.var[u] in true_ranks \
                else self.table.lo[u]
        return u == 1

    def dump(self) -> str:
        lines = [f"root {self.root}",
                 "order " + " ".join(str(f) for f in self.order.facts)]
        for u in sorted(self.reachable()):
            lines.append(f"{u} {self.table.var[u]} "
                         f"{self.table.lo[u]} {self.table.hi[u]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ObddMetrics:
    size: int
    width: int


def obdd_metrics(g: Obdd) -> ObddMetrics:
    return ObddMetrics(g.size(), g.width())


def _rank_of(table: NodeTable, u: int):
    return _INF_RANK if u <= 1 else table.var[u]


def synthesize(op: str, g1: Obdd, g2: Obdd) -> Obdd:
    """Pairwise apply; memoized on node pairs, at most |g1|*|g2| visits."""
    if op not in ("and", "or"):
        raise MvdbError(f"unknown operation {op!r}")
    t = g1.table
    if g2.table is not t:
        raise OrderMismatchError("operands use different node tables")
    absorbing = 1 if op == "or" else 0
    memo: dict = {}
    stack = [(g1.root, g2.root)]
    while stack:
        pair = stack[-1]
        if pair in memo:
            stack.pop()
            continue
        u1, u2 = pair
        if u1 == absorbing or u2 == absorbing or u1 == u2:
            memo[pair] = absorbing if (u1 == absorbing or u2 == absorbing) \
                else u1
            stack.pop()
            continue
        if u1 <= 1:
            memo[pair] = u2
            stack.pop()
            continue
        if u2 <= 1:
            memo[pair] = u1
            stack.pop()
            continue
        r1, r2 = t.var[u1], t.var[u2]
        top = min(r1, r2)
        lo1, hi1 = (t.lo[u1], t.hi[u1]) if r1 == top else (u1, u1)
        lo2, hi2 = (t.lo[u2], t.hi[u2]) if r2 == top else (u2, u2)
        lo_pair, hi_pair = (lo1, lo2), (hi1, hi2)
        ready = True
        for child in (lo_pair, hi_pair):
            if child not in memo:
                stack.append(child)
                ready = False
        if ready:
            memo[pair] = t.make(top, memo[lo_pair], memo[hi_pair])
            stack.pop()
    return Obdd(t, memo[(g1.root, g2.root)])


def concatenate(op: str, g1: Obdd, g2: Obdd) -> Obdd:
    """Combine independent OBDDs by redirecting one sink of g1 to g2's root.

    Requires every variable of g1 to precede every variable of g2 in the
    shared order; refused otherwise so the caller can fall back to
    `synthesize`.  The redirect is a memoized copy-on-write substitution in
    the shared table; unchanged sub-DAGs are reused via hash-consing.
    """
    if op not in ("and", "or"):
        raise MvdbError(f"unknown operation {op!r}")
    t = g1.table
    if g2.table is not t:
        raise OrderMismatchError("operands use different node tables")
    s1, s2 = t.span(g1.root), t.span(g2.root)
    if s1 and s2 and s1[1] >= s2[0]:
        raise OrderMismatchError(
            "refused: left operand does not precede right operand")
    target = 0 if op == "or" else 1
    sub = {target: g2.root, 1 - target: 1 - target}
    stack = [g1.root]
    while stack:
        u = stack[-1]
        if u in sub:
            stack.pop()
            continue
        lo, hi = t.lo[u], t.hi[u]
        ready = True
        for child in (lo, hi):
            if child not in sub:
                stack.append(child)
                ready = False
        if ready:
            sub[u] = t.make(t.var[u], sub[lo], sub[hi])
            stack.pop()
    return Obdd(t, sub[g1.root])


def from_lineage(phi: U.Lineage, order: VariableOrder,
                 table: Optional[NodeTable] = None) -> Obdd:
    """Reduced OBDD of a monotone DNF under a fixed order.

    Each clause becomes a chain of nodes, ORed into the result with
    `synthesize`.  The clauses go in by their ascending rank lists in
    descending lexicographic order, so by first rank from the highest down.
    Everything already folded in then starts at or after the new clause's
    first rank, so the apply stops where the clause's path resolves and
    never walks the accumulator past it; among clauses with the same first
    rank, the one whose next rank is later goes in first, which leaves less
    of the accumulator to rebuild.  The cost is about the result's size plus
    the clause lengths, not a full apply per clause.
    """
    t = table if table is not None else NodeTable(order)
    clauses = []
    for clause in phi.clauses:
        if not clause:
            return Obdd(t, 1)
        clauses.append(sorted(order.rank_of(f) for f in clause))
    clauses.sort(reverse=True)
    root = 0
    for ranks in clauses:
        chain = 1
        for r in reversed(ranks):
            chain = t.make(r, 0, chain)
        root = synthesize("or", Obdd(t, chain), Obdd(t, root)).root
    return Obdd(t, root)


def shannon_values(g: Obdd, probs) -> dict[int, float]:
    """Bottom-up Shannon expansion: the probability of every sub-diagram
    reachable from the root, keyed by node (sinks included).  Probabilities
    may be negative."""
    p_of = probs.__getitem__ if not callable(probs) else probs
    var, lo, hi = g.table.var, g.table.lo, g.table.hi
    values = {0: 0.0, 1: 1.0}
    for u in sorted(g.reachable(), key=var.__getitem__, reverse=True):
        p = p_of(var[u])
        values[u] = (1.0 - p) * values[lo[u]] + p * values[hi[u]]
    return values


def shannon_probability(g: Obdd, probs) -> float:
    """Probability of the root under `shannon_values`."""
    return shannon_values(g, probs)[g.root]


# ---------------------------------------------------------------------------
# Permutation choice
# ---------------------------------------------------------------------------

def _positions_of(atom: U.Atom, var: str) -> list[int]:
    return [i for i, term in enumerate(atom.terms)
            if isinstance(term, U.Var) and term.name == var]


def _dominates(x: str, atoms, pi: PermutationSet, var_rels) -> bool:
    """True when x sits before every other variable in each variable-bearing
    atom (so grouping on x yields tuple-disjoint, order-contiguous blocks)."""
    for atom in atoms:
        if atom.relation not in var_rels:
            continue
        avars = atom.variables()
        if not avars:
            continue
        if x not in avars:
            return False
        perm = pi.perm(atom.relation, len(atom.terms))
        pi_index = {pos: k for k, pos in enumerate(perm)}
        x_first = min(pi_index[p] for p in _positions_of(atom, x))
        for y in avars:
            if y == x:
                continue
            y_first = min(pi_index[p] for p in _positions_of(atom, y))
            if x_first >= y_first:
                return False
    return True


def _split_components(atoms, preds):
    """Group non-ground atoms and predicates connected by shared variables."""
    items = [(a.variables(), a, True) for a in atoms if a.variables()]
    items += [(p.variables(), p, False) for p in preds if p.variables()]
    comps = []
    unused = list(range(len(items)))
    while unused:
        seed = unused.pop(0)
        comp_vars = set(items[seed][0])
        members = [seed]
        changed = True
        while changed:
            changed = False
            for i in list(unused):
                if items[i][0] & comp_vars:
                    comp_vars |= items[i][0]
                    members.append(i)
                    unused.remove(i)
                    changed = True
        catoms = [items[i][1] for i in members if items[i][2]]
        cpreds = [items[i][1] for i in members if not items[i][2]]
        comps.append((catoms, cpreds, comp_vars))
    return comps


def _sim_never_synthesizes(disjuncts, pi: PermutationSet, schema: Schema,
                           var_rels, counter) -> bool:
    """Structural check: would existential expansion always concatenate?"""
    live = [d for d in disjuncts if d.variables()]
    if not live:
        return True
    if len(live) > 1:
        q = U.Ucq(tuple(live))
        sep = U.find_separator(q, schema, var_rels)
        if sep is not None:
            # the compiler will expand on the separator, so its positions
            # must come first under pi in every disjunct for the blocks to
            # stay contiguous
            if not all(_dominates(var, d.atoms, pi, var_rels)
                       for d, var in zip(live, sep.variables)):
                return False
            marker = f"\x00sep{next(counter)}"
            residual = U.specialize_separator(q, sep, marker)
            return _sim_never_synthesizes(residual.disjuncts, pi, schema,
                                          var_rels, counter)
        return all(_sim_never_synthesizes((d,), pi, schema, var_rels, counter)
                   for d in live)
    d = live[0]
    for catoms, cpreds, cvars in _split_components(d.atoms, d.predicates):
        if not any(a.relation in var_rels for a in catoms):
            continue
        x = None
        for cand in sorted(cvars):
            if _dominates(cand, catoms, pi, var_rels):
                x = cand
                break
        if x is None:
            return False
        marker = f"\x00var{next(counter)}"
        sub = U._subst_cq(U.ConjunctiveQuery((), tuple(catoms), tuple(cpreds)),
                          {x: marker})
        if not _sim_never_synthesizes((sub,), pi, schema, var_rels, counter):
            return False
    return True


def is_inversion_free(q: U.Ucq, schema: Schema, var_rels=None,
                      search_cap: int = 100_000) -> Optional[PermutationSet]:
    """Search for a permutation set under which the query compiler never
    synthesizes at an existential step; None when no such set exists."""
    if var_rels is None:
        var_rels = U.variable_relations(schema)
    rels = sorted({a.relation for d in q.disjuncts for a in d.atoms
                   if a.relation in var_rels})
    arities = [schema.relation(r).arity for r in rels]
    total = 1
    for a in arities:
        total *= math.factorial(a)
        if total > search_cap:
            return None
    for combo in itertools.product(
            *[itertools.permutations(range(a)) for a in arities]):
        pi = PermutationSet(dict(zip(rels, combo)))
        if _sim_never_synthesizes(q.disjuncts, pi, schema, var_rels,
                                  itertools.count()):
            return pi
    return None


def choose_pi(q: U.Ucq, schema: Schema, var_rels=None) -> PermutationSet:
    """Pick attribute permutations that favour concatenation.

    Inversion-free witness when one exists; otherwise separator attribute
    positions are placed first, greedily repeating on the residual query;
    identity permutations as a last resort.
    """
    if var_rels is None:
        var_rels = U.variable_relations(schema)
    witness = is_inversion_free(q, schema, var_rels)
    if witness is not None:
        return witness
    prefix: dict[str, list[int]] = {}
    current = q
    counter = itertools.count()
    while True:
        if not any(d.variables() for d in current.disjuncts):
            break
        sep = U.find_separator(current, schema, var_rels)
        if sep is None:
            break
        for rel, pos in sep.positions.items():
            lst = prefix.setdefault(rel, [])
            if pos not in lst:
                lst.append(pos)
        current = U.specialize_separator(current, sep, f"\x00sep{next(counter)}")
    perms = {}
    for rel, front in prefix.items():
        arity = schema.relation(rel).arity
        perms[rel] = tuple(front) + tuple(p for p in range(arity)
                                          if p not in front)
    return PermutationSet(perms)


# ---------------------------------------------------------------------------
# Query compilation
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self, pi: PermutationSet, instance: Instance, domain: Domain,
                 table: NodeTable, var_rels):
        self.pi = pi
        self.instance = instance
        self.domain = domain
        self.table = table
        self.schema = instance.schema
        self.var_rels = var_rels
        self.order = table.order

    # combining ------------------------------------------------------------

    def _combine(self, op: str, roots: list[int]) -> int:
        absorbing = 1 if op == "or" else 0
        neutral = 1 - absorbing
        pieces = []
        for r in roots:
            if r == absorbing:
                return absorbing
            if r != neutral:
                pieces.append(r)
        if not pieces:
            return neutral
        pieces.sort(key=lambda r: self.table.span(r)[0])
        acc = pieces[-1]
        for r in reversed(pieces[:-1]):
            left, right = Obdd(self.table, r), Obdd(self.table, acc)
            try:
                acc = concatenate(op, left, right).root
            except OrderMismatchError:
                acc = synthesize(op, left, right).root
        return acc

    # candidate enumeration --------------------------------------------------

    def _candidates(self, atoms, var: str) -> list:
        values = None
        for atom in atoms:
            if var not in atom.variables():
                continue
            here = set()
            for bnd, _ in U._match_atom(atom, self.instance, {}):
                here.add(bnd[var])
            values = here if values is None else values & here
            if not values:
                return []
        return sorted(values or (), key=self.domain.rank)

    # recursion --------------------------------------------------------------

    def build_ucq(self, disjuncts) -> int:
        disjuncts = tuple(disjuncts)
        if len(disjuncts) > 1:
            sep = U.find_separator(U.Ucq(disjuncts), self.schema,
                                   self.var_rels)
            if sep is not None:
                by_constant: dict = {}
                for i, (d, var) in enumerate(zip(disjuncts, sep.variables)):
                    for c in self._candidates(d.atoms, var):
                        by_constant.setdefault(c, []).append(i)
                pieces = []
                for c in sorted(by_constant, key=self.domain.rank):
                    residual = [U._subst_cq(disjuncts[i],
                                            {sep.variables[i]: c})
                                for i in by_constant[c]]
                    pieces.append(self.build_ucq(residual))
                return self._combine("or", pieces)
            return self._combine("or", [self.build_cq(d) for d in disjuncts])
        return self.build_cq(disjuncts[0])

    def build_cq(self, d: U.ConjunctiveQuery) -> int:
        pieces = []
        open_preds = []
        for p in d.predicates:
            if p.variables():
                open_preds.append(p)
            elif not U.eval_predicate(p, {}):
                return 0
        ground, open_atoms = [], []
        for a in d.atoms:
            (open_atoms if a.variables() else ground).append(a)
        for a in ground:
            g = self._ground_atom(a)
            if g == 0:
                return 0
            pieces.append(g)
        for catoms, cpreds, cvars in _split_components(open_atoms, open_preds):
            pieces.append(self._build_component(catoms, cpreds, cvars))
        return self._combine("and", pieces)

    def _ground_atom(self, a: U.Atom) -> int:
        fact = Fact(a.relation, tuple(t.value for t in a.terms))
        if fact in self.instance.deterministic:
            return 1
        if fact in self.instance:
            return self.table.make(self.order.rank_of(fact), 0, 1)
        return 0

    def _build_component(self, atoms, preds, cvars) -> int:
        if not any(a.relation in self.var_rels for a in atoms):
            # no Boolean variables here: a pure filter, true iff satisfiable
            probe = U.ConjunctiveQuery((), tuple(atoms), tuple(preds))
            for _ in U.iter_matches(probe, self.instance):
                return 1
            return 0
        dominant = None
        ranked = []
        for x in sorted(cvars):
            cands = self._candidates(atoms, x)
            ranked.append((len(cands), x, cands))
            if dominant is None and _dominates(x, atoms, self.pi,
                                               self.var_rels):
                dominant = (x, cands)
        if dominant is None:
            # no safe grouping variable: expand the cheapest one and let the
            # combiner fall back to synthesis where ranges overlap
            ranked.sort()
            _, x, cands = ranked[0]
        else:
            x, cands = dominant
        pieces = []
        for c in cands:
            sub = U._subst_cq(U.ConjunctiveQuery((), tuple(atoms),
                                                 tuple(preds)), {x: c})
            pieces.append(self.build_cq(sub))
        return self._combine("or", pieces)


def con_obdd(pi: PermutationSet, q: U.Ucq, instance: Instance, domain: Domain,
             order: Optional[VariableOrder] = None,
             table: Optional[NodeTable] = None, var_rels=None) -> Obdd:
    """Compile a Boolean UCQ to a reduced OBDD under the tuple order of *pi*.

    Disjunctions with a separator expand over the active domain and
    concatenate; conjunctive components expand on a dominating variable when
    one exists; everything else falls back to synthesis.  Ground atoms over
    deterministic tuples reduce to sinks.

    This is the paper's compiler (concatenate versus synthesize).  The
    engine itself compiles through `from_lineage`, which builds the same
    reduced OBDD from the query's lineage: on a non-separable W such as the
    chain, the synthesis fallback here grows faster than linearly in the
    data, and the candidate matching ignores predicates.
    """
    if not q.is_boolean():
        raise MvdbError("con_obdd expects a Boolean query")
    if var_rels is None:
        var_rels = U.variable_relations(instance.schema)
    if order is None:
        prob_facts = [f for f in instance.facts
                      if f not in instance.deterministic]
        # instance.facts is a frozenset; rebuild a deterministic ordering
        prob_facts.sort(key=lambda f: (f.relation, f.values))
        order = tuple_order(pi, prob_facts, domain, instance.schema)
    if table is None:
        table = NodeTable(order)
    builder = _Builder(pi, instance, domain, table, var_rels)
    return Obdd(table, builder.build_ucq(q.disjuncts))
