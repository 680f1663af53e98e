"""Reduced ordered binary decision diagrams over tuple variables.

Nodes live in a shared, hash-consed arena (`NodeTable`), so every OBDD built
against the same table is reduced and canonical for its variable order.
`synthesize` is the pairwise apply; `from_ranks` is the one compiler built
on it, and `from_lineage` maps a lineage's tuples to ranks for it.

The engine compiles every OBDD it uses with `from_ranks`: query lineage
online through `from_lineage`, and each distinct block shape of the
constraint query W's lineage offline (`mvindex.build_index`).  It ORs one
chain per clause into the result from the highest first rank down.  Every
apply then stops where that clause's path resolves, so a lineage costs about
the result's size plus the clause lengths; ORing the clauses in ascending
order walked the whole accumulator once per clause.  `con_obdd`, the paper's
query compiler, is `from_lineage` of the query's lineage under the tuple
order of a permutation set.  A reduced OBDD is canonical for its function
and order, so this is the diagram the paper's structural compiler builds as
well (it joins independent parts whose ranks are consecutive by redirecting
a sink, and synthesizes the rest); that compiler lives in the test suite as
an independent reference.  The tuple order is one sort key (`tuple_order`)
over the paper's permutation set, a ``{relation: positions}`` dict from the
separator rule alone (`choose_pi`).

Finished OBDDs are immutable and shareable; construction is single-threaded.
"""

from __future__ import annotations

import itertools
import threading
from operator import itemgetter
from typing import Iterable, Optional

from .core import (Domain, Fact, Instance, MvdbError, OrderMismatchError,
                   Schema)
from . import ucq as U


class VariableOrder:
    """A total order over the probabilistic tuples of an instance, whose
    facts are built relation by relation.

    ``VariableOrder(facts)`` holds every relation at once, as the compiler
    builds it (`tuple_order`).  An index loader passes *size* and
    *unbuilt* instead, ``{relation: build}`` where ``build()`` returns the
    relation's facts and their ranks, both in rank order: a relation is
    built on first use, through `relation_facts`, or when `rank_of` misses
    a fact of it.  ``rank`` maps every fact built so far to its rank, so
    once a query's relations are built its lineage is ranked by dict
    lookups alone.  Building a relation takes a lock, so concurrent readers
    build it once."""

    def __init__(self, facts: Iterable[Fact] = (), size: int = 0,
                 unbuilt: Optional[dict] = None):
        self._facts: Optional[tuple] = None
        self.rank: dict[Fact, int] = {}
        if unbuilt is None:
            self._facts = tuple(facts)
            self.rank = dict(zip(self._facts, itertools.count()))
            if len(self.rank) != len(self._facts):
                raise MvdbError("duplicate tuple in variable order")
            size = len(self._facts)
        self._size = size
        self._unbuilt = dict(unbuilt or {})
        self._held: dict[str, list] = {}
        self._lock = threading.Lock()

    def __len__(self):
        return self._size

    @property
    def facts(self) -> tuple[Fact, ...]:
        """Every fact in rank order; on a loaded order this builds every
        relation (``stats --dump``, `serialize`, comparisons)."""
        if self._facts is None:
            for name in list(self._unbuilt):
                self.relation_facts(name)
            facts = [None] * self._size
            for fact, r in self.rank.items():
                facts[r] = fact
            self._facts = tuple(facts)
        return self._facts

    def relation_facts(self, name: str) -> list:
        """The facts of relation *name*, in rank order (none for a relation
        the order does not hold), built on first use."""
        held = self._held.get(name)
        if held is None:
            with self._lock:
                held = self._held.get(name)
                if held is None:
                    build = self._unbuilt.get(name)
                    if build is not None:
                        held, ranks = build()
                        # ranked before it leaves `_unbuilt` (`rank_of`)
                        self.rank.update(zip(held, ranks))
                        del self._unbuilt[name]
                    elif self._facts is not None:
                        held = [f for f in self._facts if f[0] == name]
                    else:  # not a relation of the order
                        held = []
                    self._held[name] = held
        return held

    def rank_of(self, fact: Fact) -> int:
        try:
            return self.rank[fact]
        except KeyError:
            if fact[0] in self._unbuilt:
                self.relation_facts(fact[0])
            rank = self.rank.get(fact)
            if rank is None:
                raise OrderMismatchError(f"{fact} is not ranked") from None
            return rank

    def __eq__(self, other):
        """Equal fact sequences.  The engine compares an order with itself;
        distinct orders compare their lengths, then their fact tuples."""
        return self is other or (isinstance(other, VariableOrder)
                                 and len(self) == len(other)
                                 and self.facts == other.facts)

    def __hash__(self):
        return hash(self.facts)


def tuple_order(pi: dict, facts: Iterable[Fact], domain: Domain,
                schema: Schema) -> VariableOrder:
    """Order tuples by one sort key: the active-domain ranks of a tuple's
    values read in its relation's permutation (*pi*, identity where
    absent), then the relation's (arity, declaration index).  A tuple whose
    ranks are a prefix of another's comes first, so each constant's tuples
    are contiguous at every depth.  The key is total, so the order does not
    depend on the order of *facts*.

    The keys are built relation by relation, as integer tuples: each
    permuted column's values are ranked in one pass (`Domain.ranks`, which
    raises `DataError` for a value outside *domain*), and the columns are
    zipped into each fact's rank tuple beside its relation's key (a
    nullary relation has no columns: each of its facts gets the empty
    rank tuple, so it leads the order).  One sort
    of the ``(ranks, relation key, fact)`` triples orders every fact; the
    keys are distinct, so it never compares two facts.
    """
    rel_key = {r.name: (r.arity, i) for i, r in enumerate(schema.relations)}
    by_relation: dict[str, list] = {}
    for name, run in itertools.groupby(facts, itemgetter(0)):
        by_relation.setdefault(name, []).extend(run)
    keyed = []
    for name, group in by_relation.items():
        columns = list(zip(*map(itemgetter(1), group)))
        ranks = (zip(*[domain.ranks(columns[p])
                       for p in pi.get(name, range(len(columns)))])
                 if columns else itertools.repeat((), len(group)))
        keyed += zip(ranks, itertools.repeat(rel_key[name]), group)
    keyed.sort()
    return VariableOrder(map(itemgetter(2), keyed))


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

    def var_ranks(self) -> set[int]:
        return {self.table.var[u] for u in self.reachable()}

    def size(self) -> int:
        """Node count including the two sinks."""
        return len(self.reachable()) + 2


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


def from_lineage(phi: U.Lineage, order: VariableOrder,
                 table: Optional[NodeTable] = None) -> Obdd:
    """Reduced OBDD of a monotone DNF under a fixed order: `from_ranks` of
    its clauses' ascending rank lists."""
    return from_ranks([sorted(map(order.rank_of, clause))
                       for clause in phi.clauses], order, table)


def from_ranks(clauses, order: VariableOrder,
               table: Optional[NodeTable] = None) -> Obdd:
    """Reduced OBDD of a monotone DNF given as one ascending rank list per
    clause (lists or tuples, not both); an empty one makes it valid.

    Each clause becomes a chain of nodes, ORed into the result with
    `synthesize`.  The clauses go in by their rank lists in descending
    lexicographic order, so by first rank from the highest down.
    Everything already folded in then starts at or after the new clause's
    first rank, so the apply stops where the clause's path resolves and
    never walks the accumulator past it; among clauses with the same first
    rank, the one whose next rank is later goes in first, which leaves less
    of the accumulator to rebuild.  The cost is about the result's size plus
    the clause lengths, not a full apply per clause.
    """
    t = table if table is not None else NodeTable(order)
    if not all(clauses):
        return Obdd(t, 1)
    root = 0
    for ranks in sorted(clauses, reverse=True):
        chain = 1
        for r in reversed(ranks):
            chain = t.make(r, 0, chain)
        root = synthesize("or", Obdd(t, chain), Obdd(t, root)).root
    return Obdd(t, root)


# ---------------------------------------------------------------------------
# Permutation choice
# ---------------------------------------------------------------------------

def choose_pi(q: U.Ucq, schema: Schema, var_rels: set) -> dict:
    """Pick attribute permutations by the separator rule: separator
    positions first, greedily repeating on the residual query, over the
    variable relations *var_rels*.  Relations absent from the returned
    ``{relation: positions}`` (all of them, ``{}``, without a separator)
    keep the identity.  Under the resulting `tuple_order` each separator
    constant's tuples are contiguous.
    """
    prefix: dict[str, list[int]] = {}
    current = q
    counter = itertools.count()
    while True:
        if not any(d.variables() for d in current.disjuncts):
            break
        sep = U.find_separator(current, var_rels)
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
    return perms


# ---------------------------------------------------------------------------
# Query compilation
# ---------------------------------------------------------------------------

def con_obdd(pi: dict, q: U.Ucq, instance: Instance, domain: Domain,
             order: Optional[VariableOrder] = None,
             table: Optional[NodeTable] = None) -> Obdd:
    """Compile a Boolean UCQ to a reduced OBDD under the tuple order of *pi*.

    The OBDD is `from_lineage` of the query's lineage over *instance*, so
    deterministic tuples drop out of it.  Without *order*, the table's order
    is used, or else `tuple_order` of *pi* over the instance's
    probabilistic tuples.  The paper's structural compiler gives the same
    diagram; the tests keep it as the reference this is checked against.
    """
    if not q.is_boolean():
        raise MvdbError("con_obdd expects a Boolean query")
    if order is None and table is not None:
        order = table.order
    if order is None:
        order = tuple_order(pi, (f for f in instance.facts
                                 if f not in instance.deterministic),
                            domain, instance.schema)
    return from_lineage(U.lineage(q, instance), order, table)
