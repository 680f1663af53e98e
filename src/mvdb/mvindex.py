"""The compiled constraint index and its intersection algorithms.

The constraint query W is compiled offline into negated, augmented OBDD
constituents over pairwise-disjoint variable ranges (one per separator
constant when W has a separator): the translation grounds W in its one
pass over the view bodies and groups the lineage clauses by separator
constant (`TranslationResult.w_lineage`).  `_compile_blocks` compiles each
distinct block structure once, with `from_ranks` (`from_lineage`'s
compiler), into a `Shape`; a `Constituent` is a shape at a rank offset.
Every node is annotated with the probability of its sub-diagram
(probUnder) and the signed mass of all root paths reaching it
(reachability), both derived from the structure and the tuples'
probabilities p = w/(1+w) and q = 1/(1+w) by
`Constituent.compute_annotations` and `Constituent.derive`, each a pure
function of a shape and its constituents' offsets.  probUnder is global:
P0(not-W) and the zero-block check need every root, so it runs once per
shape into one flat `array('d')` (`MvIndex.annotations`), where a
constituent holds only its lane j.  The entry tables, which carry the
reachability, are derived for one constituent on its first entry
(`MvIndex.entry_masses`), so a query pays only for the constituents it
enters, as the paper's intersection visits only those.
Online, a query OBDD ordered by the same tuple order is intersected against
the chain of constituents without materializing the conjunction, by one
forward sweep of signed probability mass over ranks (`_intersect`).  The
two modes differ only in where a query node enters a constituent:

* `mv_intersect` enters at the constituent's first rank, whose entry table
  is the root alone, so the sweep walks each constituent down from its
  root, guided by the query;
* `cc_mv_intersect` enters at the query node's own rank through that
  rank's entry table, so the nodes it expands all lie inside the query's
  rank span (the span-times-width visit bound).

Both start in front of the first constituent.  The constituents are
independent, and entering one scales the mass by the inverse of its root
probability, so the sweep's total is P(Q) = P0(Q and not-W) / P0(not-W)
without forming any product of root probabilities, which could underflow.
Passing a constituent the query does not touch thus multiplies by 1.0, or
by 0.0 for a zero block: a query node jumps over every constituent in front
of its rank with one bisection, and a prefix count of zero blocks
(`MvIndex.zeros`) says whether it jumped over one.  P0(Q and not-W) is the
total times one product of the non-zero root probabilities, a float
wherever that product is one; P0(not-W) is also kept as a sign and the
log10 of its magnitude (`MvIndex.sign_p0_not_w` and `log10_p0_not_w`),
finite where the product over- or underflows.
`InconsistentConstraintsError` means that one constituent's root probability
is exactly 0.0, i.e. one block is contradictory on its own.

The index's content is fixed at build; what is built later (a loaded
order's relations, a constituent's entry tables) is built the same way
whichever query asks first, and every query owns its own rank buckets, so
concurrent evaluation is safe.

The ``.mvx`` file (format version 8, `serialize` and `deserialize`) is:

* a header: the magic ``MVIX``, the u32 version and the 32-byte sha256
  source digest (`Mvdb.digest`: the `ProjectFiles.digest` of the bytes the
  compile read);
* the seventeen columns of `_COLUMNS`, each a 1-byte array typecode, a u32
  item count and the items, little-endian.  An int column has the
  narrowest typecode that holds its min and max (`_column`), so the bytes
  per tuple stay flat while the domain grows, and rise once when the ids
  pass 2^8 and once more past 2^16:
  - the relations: their names, as UTF-8 with each one's end, their
    arities, and a flag byte that is 1 where the order holds all of the
    relation's facts (`MvIndex.complete`: none is deterministic), so a
    cold query takes those facts from the order instead of their TSV;
  - the tuple order: each tuple's relation id, in rank order, then one
    column of domain ids that holds the tuples' values relation by
    relation (in relation id order), each relation's tuples in rank order,
    so one relation's values are one slice of it;
  - the domain, every value of the order and every constituent key: its
    ints as one ASCII run of decimal numerals, so ints of any size stay
    exact, then its strings as UTF-8 with each one's end;
  - each tuple's weight w as f64.  The probability w/(1+w) is derived on
    load; w is stored because it survives where p rounds to 1.0 (w = 1e20);
  - the constituent heads, in rank order: the key as domain id + 1 (0 for
    no key), the shape id and the gap from the previous head's rank offset,
    which stays small as the data grows (one byte on gen-dblp at every
    scale);
  - each shape's node count, then ``rank``, ``lo`` and ``hi``, each the
    concatenation over the shapes in id order (the sinks are -1 and -2);
* a CRC-32 of everything before it.

The compiler, the file and the loader share one `Shape` object per
distinct structure (`MvIndex.shapes`): its ranks relative to its first (so
a non-empty shape's ranks start at 0) and its child codes are stored once,
and its entry codes and width are found once.  `serialize` numbers
relations, domain values and shapes in order of first use, so the bytes
depend only on the index's content.  Files of version 7 (the values in
rank order) or older ask for a recompile.

Nothing derivable is stored: not the permutations the tuple order was
built from, not the probabilities, not the root codes (position 0, or the
0-sink for an empty constituent), and no annotation.  `MvIndex` derives p
and q from the weights and annotates each shape at its constituents'
offsets, for the compiler and the loader alike (see the passes of
`Constituent`; numpy is not used, as importing it costs a fresh process
more than a whole cold query), and keeps p, q and the annotations as
arrays of doubles.  The loader reads every column once, checking its
typecode and its count against the bytes left (`_read_column`), then
checks each column by its length and bounds, that no domain value and no
relation's id tuple appears twice, every shape's layout (`_check_layout`)
and last rank before building it, and every offset against the tuple order
and its neighbours' (the heads are in rank order, the empty constituents
first); any defect is an `IndexFormatError`, and so is a shape no
constituent uses.  The tuple order's checks run as C-level column passes
(`_order_runs`): a one-byte relation column is counted relation by
relation as bytes, so an unknown relation id shows as counts that fall
short of the column; the value ids take one `max` (and a `min` only where
their typecode is signed); and each relation's id tuples are counted
distinct with each record's bytes read as one machine int where they fit
one.  The weights are checked by the p pass itself: a weight of -1
divides by zero and a NaN or infinite one makes its p NaN, while every
other p is at most 2^53 in magnitude, so the sum of p is finite exactly
when every weight has a probability.  The loader builds no fact: the
tuple order builds a relation's `Fact`s and ranks from its slice of the
values on first use (`VariableOrder.relation_facts`, `_relation_builder`),
so a cold query builds only the relations it names.  Compiles are byte-reproducible.
"""

from __future__ import annotations

import gc
import math
import struct
import sys
import time
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, itemgetter, mul
from typing import Iterable, Optional

from .core import (Fact, InconsistentConstraintsError, Instance,
                   IndexFormatError, MvdbError, OrderMismatchError,
                   UnrepresentableError)
from . import ucq as U
from .obdd import (NodeTable, Obdd, VariableOrder, choose_pi, from_lineage,
                   from_ranks, tuple_order)
from .translate import TranslationResult

SINK0 = -1
SINK1 = -2

_MAGIC = b"MVIX"
_VERSION = 8
_HEADER = "<I32s"  # version, sha256 of the source (`ProjectFiles.digest`)
_COLUMNS_START = 4 + struct.calcsize(_HEADER)

class Shape:
    """One negated OBDD structure, in a vector layout whose positions are in
    rank order: position 0 is the root, alone at the lowest rank, every
    child code is a later position or a sink, and the nodes of one rank are
    contiguous.  The ranks are relative to the first.  The empty shape is
    the negation of a block whose W is valid: its root is the 0-sink.  The
    entry codes (`_entry_codes`) and the width, the most nodes at one rank,
    depend on the structure alone."""

    def __init__(self, rank, lo, hi):
        self.rank = rank
        self.lo = lo
        self.hi = hi
        self.entry_codes, self.entry_starts = _entry_codes(rank, lo, hi)
        self.width = max(Counter(rank).values(), default=0)


def _negation(g: Obdd) -> tuple[int, list, list, list]:
    """The negation of *g* (its sinks swapped) laid out as a shape: its DFS
    preorder stable-sorted by rank, so the root stays at position 0 and the
    nodes of one rank keep their DFS order.  Returns the root's rank (0 for
    the empty shape), then the shape's relative ranks and child codes."""
    if g.root == 0:
        raise MvdbError("internal error: a block of W is unsatisfiable")
    table = g.table
    nodes = sorted(g.reachable(), key=table.var.__getitem__)
    code = {u: i for i, u in enumerate(nodes)}
    code[0], code[1] = SINK1, SINK0
    offset = table.var[nodes[0]] if nodes else 0
    return (offset, [table.var[u] - offset for u in nodes],
            [code[table.lo[u]] for u in nodes],
            [code[table.hi[u]] for u in nodes])


class Constituent:
    """A shape at a rank offset (0 for the empty shape): its positions are
    the shape's, at the shape's ranks plus the offset.  The passes write
    nothing into it: `MvIndex` sets its lane ``j`` in its shape's probUnder
    array (`MvIndex.annotations`), its root probability, and ``entry``, its
    entry tables' masses, on its first entry (`MvIndex.entry_masses`)."""

    __slots__ = ("key", "shape", "offset", "j", "rank_lo", "rank_hi",
                 "prob_root", "entry")

    def __init__(self, key, shape: Shape, offset: int):
        self.key = key
        self.shape = shape
        self.offset = offset
        self.j = 0
        self.rank_lo = offset if shape.rank else -1
        self.rank_hi = offset + shape.rank[-1] if shape.rank else -1
        self.prob_root = 0.0
        self.entry: Optional[array] = None

    # -- augmentation -----------------------------------------------------
    #
    # Both passes read a shape (`MvIndex.shapes`) and the offsets of its
    # constituents, with p and q = 1/(1+w) over the tuple order, and return
    # one `array('d')`, node-major: entry e of the constituent at
    # ``offsets[j]`` at ``e * len(offsets) + j``.  They write nothing.
    # Without *lanes*, for one offset, they loop over the shape's
    # positions.  `compute_annotations` also takes *lanes*, p and q
    # gathered at every offset's own ranks (`_rank_lanes`), and then walks
    # the shape once: each step computes a lane, one list indexed by
    # constituent, with C-level ``map(add/mul, ...)``; the lanes in order
    # are the array.  A constituent sees the same float operations in the
    # same order either way, so its annotations keep their bits.  `derive`
    # runs for one constituent at a time, on its first entry.

    @staticmethod
    def compute_annotations(shape, offsets, probs, qs, lanes=None) -> array:
        """probUnder of every node, in one scan from the last position
        back: a node's is q times its low child's plus p times its high
        child's.  A constituent's root probability is its lane of node 0,
        or 0.0 for the empty shape."""
        rank, lo, hi = shape.rank, shape.lo, shape.hi
        n = len(rank)
        if lanes is None:
            [offset] = offsets
            # Two trailing slots hold the sinks' values, so that
            # values[SINK1] is 1.0 and values[SINK0] is 0.0.
            values = [0.0] * n + [1.0, 0.0]
            if n:
                span = slice(offset, offset + rank[-1] + 1)
                ps, qls = probs[span], qs[span]
                for pos in range(n - 1, -1, -1):
                    r = rank[pos]
                    values[pos] = (qls[r] * values[lo[pos]]
                                   + ps[r] * values[hi[pos]])
            return _doubles(values[:n])
        ps, qls = lanes
        m = len(offsets)
        values = [None] * n + [[1.0] * m, [0.0] * m]
        for pos in range(n - 1, -1, -1):
            r = rank[pos]
            # x * 1.0 is x, so an edge to the 1-sink adds its factor alone.
            low = (qls[r] if lo[pos] == SINK1
                   else map(mul, qls[r], values[lo[pos]]))
            high = (ps[r] if hi[pos] == SINK1
                    else map(mul, ps[r], values[hi[pos]]))
            values[pos] = list(map(add, low, high))
        return _doubles(list(chain.from_iterable(values[:n])))

    @staticmethod
    def derive(shape, offsets, probs, qs) -> array:
        """The entry tables' masses, carrying the reachability.

        The entry table at rank r lists, sorted by code, every node, and
        the 1-sink, that an edge from a rank below r reaches at rank r or
        later, with the signed mass of those edges; at the root's rank it is
        the root alone.  The 0-sink is not listed: its mass would be
        dropped.  The shape fixes the codes (`_entry_codes`) and the masses
        follow them, so the table at rank r is ``entry_codes`` zipped with
        the masses over ``entry_starts[r - rank_lo]`` up to the next start.
        One forward scan over the positions fills them, with the mass
        reaching each code in a list indexed by code (the sinks in two
        trailing slots): a node's mass is complete at its own rank, where it
        is its reachability (the signed mass of all root paths reaching it),
        and each child gains that mass times q (low edge) or p (high edge),
        in position order.  The cost is O(n + sum of |entry|) for the one
        constituent at ``offsets[0]``.
        """
        rank, lo, hi = shape.rank, shape.lo, shape.hi
        codes, starts = shape.entry_codes, shape.entry_starts
        n = len(rank)
        [offset] = offsets
        masses: list[float] = []
        if n:
            mass = [0.0] * (n + 2)
            mass[0] = 1.0
            at = mass.__getitem__
            pos = 0
            span = slice(offset, offset + rank[-1] + 1)
            for i, p, q in zip(count(), probs[span], qs[span]):
                masses += map(at, codes[starts[i]:starts[i + 1]])
                while pos < n and rank[pos] == i:
                    reach = mass[pos]
                    mass[lo[pos]] += reach * q
                    mass[hi[pos]] += reach * p
                    pos += 1
        return _doubles(masses)

    def size(self) -> int:
        return len(self.shape.rank) + 2


def _rank_lanes(shape: Shape, offsets, probs, qs) -> tuple[dict, dict]:
    """For each rank of *shape* that holds a node, the lanes of p and q at
    every offset's own rank there (the shape's plus the offset).  Each lane
    holds two or more items: `itemgetter` of one index returns the item,
    not a tuple."""
    ps, qls = {}, {}
    for r in dict.fromkeys(shape.rank):
        pick = itemgetter(*[r + offset for offset in offsets])
        ps[r], qls[r] = pick(probs), pick(qs)
    return ps, qls


def _doubles(values: list) -> array:
    """The floats *values* as an `array('d')`: `struct` converts them in one
    C loop, three times as fast as ``array('d', values)``."""
    return array("d", struct.pack(f"{len(values)}d", *values))


def _entry_codes(rank, lo, hi) -> tuple[list, list]:
    """The codes of a shape's entry tables, each table sorted (the 1-sink
    first) and the tables concatenated in rank order, and the start of
    every rank's table, then the end of the last.  The 0-sink is left out:
    the sweep drops whatever mass enters it (`_intersect`).  One forward
    scan: the table at rank r is the one at rank r - 1 minus the nodes of
    rank r - 1, plus their children; the 1-sink carries forward.  It relies
    on the rank-order layout and on every position but the root being some
    edge's child, which `deserialize` checks first."""
    codes, starts = [], [0]
    if rank:
        frontier = {0}
        pos, n = 0, len(rank)
        for r in range(rank[0], rank[-1] + 1):
            codes += sorted(frontier)
            starts.append(len(codes))
            while pos < n and rank[pos] == r:
                frontier.remove(pos)
                frontier.add(lo[pos])
                frontier.add(hi[pos])
                pos += 1
            frontier.discard(SINK0)
    return codes, starts


class MvIndex:
    """The constituents, in rank order, their distinct shapes in order of
    first use, each with its constituent count m and its probUnder array in
    ``annotations``, and the tuple order and weights they were built on.  A
    query node finds the next constituent it meets by bisecting their last
    ranks (``rank_hi``), and learns from the prefix count ``zeros`` whether
    it jumped over a zero block; `cc_mv_intersect` then enters each
    constituent it meets through its entry tables (`entry_masses`)."""

    def __init__(self, constituents, order: VariableOrder, weights,
                 source_digest: str, complete: frozenset):
        """*constituents* are in rank order, the empty ones first, and
        their non-empty rank ranges disjoint (`_overlapping`).  *weights*
        are the tuples' weights in rank order, each finite and not -1, else
        this raises `IndexFormatError` (a compile's weights always are).
        *complete* names the relations of the order that it holds
        completely: none of their facts in the translated database is
        deterministic, so `held_facts` can stand in for their TSVs.  The
        probabilities p = w/(1+w) and q = 1/(1+w), q exact
        where p rounds to 1.0 (1e-20 at w = 1e20), are derived here, and
        every shape's probUnder from them at its constituents' offsets, by
        lanes when it has two or more, since P0(not W) and the zero-block
        check need every root: the compiler and the loader both build their
        index through this one call, which alone sets each constituent's
        lane ``j`` and root probability.  The entry tables wait for a
        query (`entry_masses`)."""
        self.order = order
        self.weights = array("d", weights)
        # Lists while the pass reads them, arrays once it is done.  A
        # weight of -1 divides by zero, a NaN or infinite one makes its p
        # NaN, and any other gives |p| <= 2^53, so the sum of p is finite
        # exactly when every weight has a probability.
        try:
            probs = [w / (1.0 + w) for w in self.weights]
        except ZeroDivisionError:
            probs = [math.nan]
        if not math.isfinite(sum(probs)):
            raise IndexFormatError("a tuple weight is NaN, infinite or -1")
        qs = [1.0 / (1.0 + w) for w in self.weights]
        self.constituents: list[Constituent] = list(constituents)
        by_shape: dict[Shape, list] = {}
        for c in self.constituents:
            by_shape.setdefault(c.shape, []).append(c)
        self.shapes: list[Shape] = list(by_shape)
        # shape -> (m, prob_under)
        self.annotations: dict[Shape, tuple] = {}
        for shape, group in by_shape.items():
            offsets = [c.offset for c in group]
            lanes = (_rank_lanes(shape, offsets, probs, qs)
                     if len(offsets) > 1 else None)
            under = Constituent.compute_annotations(shape, offsets, probs, qs,
                                                    lanes)
            self.annotations[shape] = (len(group), under)
            for j, c in enumerate(group):
                c.j, c.prob_root = j, under[j] if shape.rank else 0.0
        self.probs, self.qs = _doubles(probs), _doubles(qs)
        self.source_digest = source_digest
        self.complete = complete
        roots = [c.prob_root for c in self.constituents]
        # Sorted and disjoint, so a query node finds the next constituent it
        # meets by bisection.
        self.rank_hi = [c.rank_hi for c in self.constituents]
        # zeros[k]: the zero blocks among constituents 0..k-1.  A block whose
        # root probability is exactly 0.0 admits no world.
        self.zeros = list(accumulate((not r for r in roots), initial=0))
        self.zero_block = self.zeros[-1] > 0
        # Per-constituent normalization; a zero block is left unscaled.
        self.inv_root = [1.0 / r if r else 1.0 for r in roots]
        # The product of the non-zero roots, from the last one back.
        self.nonzero_roots = 1.0
        for r in reversed(roots):
            self.nonzero_roots = (r or 1.0) * self.nonzero_roots
        # None where P0(not W) overflows (see `log10_p0_not_w`).
        self.p0_not_w = (0.0 if self.zero_block else self.nonzero_roots
                         if math.isfinite(self.nonzero_roots) else None)
        self.p0_w = None if self.p0_not_w is None else 1.0 - self.p0_not_w

    @property
    def log10_p0_not_w(self) -> float:
        """log10 |P0(not W)|, a sum over the constituents' root
        probabilities: finite where the product `p0_not_w` underflows to
        0.0 or overflows; -inf when a block's root probability is exactly
        0.0.  With `sign_p0_not_w`, it is P0(not W) as a signed
        logarithm."""
        if self.zero_block:
            return -math.inf
        return math.fsum(math.log10(abs(c.prob_root))
                         for c in self.constituents)

    @property
    def sign_p0_not_w(self) -> int:
        """The sign of P0(not W): -1, 0 (a zero block) or 1.  The
        translation's signed weights can make a root probability negative."""
        if self.zero_block:
            return 0
        negative = sum(c.prob_root < 0.0 for c in self.constituents)
        return -1 if negative % 2 else 1

    def held_facts(self, relations) -> dict:
        """The order's own facts of each of *relations* that it holds
        completely (`complete`), by relation, each list in rank order: a
        loaded order builds just these relations
        (`VariableOrder.relation_facts`)."""
        return {r: self.order.relation_facts(r) for r in relations
                if r in self.complete}

    def entry_masses(self, c: Constituent) -> array:
        """The masses of constituent *c*'s entry tables, in its shape's
        entry-code order: `Constituent.derive` of *c* alone, on the first
        call, kept in ``c.entry``.  Two threads entering *c* at once may
        both derive it; the arrays are equal bit for bit."""
        if c.entry is None:
            c.entry = Constituent.derive(c.shape, [c.offset], self.probs,
                                         self.qs)
        return c.entry

    def max_width(self) -> int:
        return max((s.width for s in self.shapes), default=0)

    def shape_count(self) -> int:
        """The number of distinct shapes, each stored once in the file."""
        return len(self.shapes)


@contextmanager
def _collector_paused():
    """Run a block with the cyclic garbage collector off, then restore the
    caller's collector state however the block ends.  For a block whose
    allocations all stay live or are freed by reference counting, the
    collections they would trigger find nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def build_index(tr: TranslationResult) -> MvIndex:
    """Compile the constraint query of a translation into an index.

    W's lineage comes grouped from the translation (``tr.w_lineage``, read
    and not changed, so the same translation builds the same index again):
    with a separator, one constituent per separator constant, keyed by it;
    otherwise all clauses form a single unkeyed constituent.
    `_compile_blocks` runs `from_ranks` once per block shape and shifts it
    for every other block of that shape.  `choose_pi` puts every separator
    position first, so the blocks cover disjoint rank ranges; interleaved
    blocks are an internal `MvdbError`.  Each compiled block gets a fresh
    node table that is dropped once the block is laid out, since a shared
    table would hold nothing another block reuses.  The cost is linear in
    W's lineage plus the distinct shapes' size.  Constituents are negated
    by swapping sinks and put in rank order, the empty ones first, then
    `MvIndex` annotates each from its own tuple probabilities.  The build
    runs with the cyclic collector paused (`_collector_paused`):
    compilation leaves no reference cycles.
    """
    indb = tr.indb
    prob_facts = indb.probabilistic_facts()
    digest = tr.source.digest
    # The order holds every fact of a relation with no deterministic one.
    complete = frozenset(map(itemgetter(0), prob_facts)).difference(
        map(itemgetter(0), indb.deterministic_facts()))
    pi = {} if tr.w_query is None else choose_pi(tr.w_query, indb.schema,
                                                 tr.var_rels)
    order = tuple_order(pi, prob_facts, indb.domain, indb.schema)
    weights = map(indb.weights.__getitem__, order.facts)
    if tr.w_query is None:
        return MvIndex([], order, weights, digest, complete)
    groups = tr.w_lineage
    # Without a separator the one group's key is None; no constant is.
    keys = (list(groups) if None in groups
            else sorted(groups, key=indb.domain.rank))
    constituents = sorted(_compile_blocks(groups, keys, order),
                          key=lambda c: (c.rank_lo, c.rank_hi))
    if _overlapping(constituents):
        raise MvdbError("internal error: W's separator blocks interleave "
                        "in the tuple order")
    return MvIndex(constituents, order, weights, digest, complete)


def _compile_blocks(groups: dict, keys, order: VariableOrder) -> list:
    """One negated constituent per key, from the clauses ``groups[key]``.

    Each block's clauses become their distinct ascending rank lists, in
    ascending order.  `from_ranks` and the layout compare ranks only by
    order, so blocks whose lists are equal relative to their first rank
    (the least rank in any non-empty clause) compile to one shape, at
    offsets as far apart as their first ranks: `from_ranks` runs for the
    first of them only.  A block's relative lists are keyed by their
    lengths and their ranks chained and shifted, one C-level `map` of
    ``(-base).__add__``.  Lists that differ can still have one Boolean
    function (a clause that subsumes another), so each layout is interned
    by content: one `Shape` per distinct structure.

    The compiler's order holds every fact at once, so clauses are ranked
    by lookups in its ``rank`` dict; a fact the order lacks is an internal
    `MvdbError`."""
    out = []
    compiled: dict = {}  # relative rank lists -> (shape, offset - first rank)
    shapes: dict = {}  # (rank, lo, hi) -> Shape
    rank_of = order.rank.__getitem__
    for key in keys:
        try:
            ranks = sorted({tuple(sorted(map(rank_of, clause)))
                            for clause in groups[key]})
        except KeyError as exc:
            raise MvdbError(f"internal error: W's lineage holds {exc.args[0]},"
                            " which the tuple order does not") from None
        # an empty clause sorts first; a block of none has base 0
        base = next(filter(None, ranks), (0,))[0]
        relative = (tuple(map(len, ranks)),
                    tuple(map((-base).__add__, chain.from_iterable(ranks))))
        if relative not in compiled:
            offset, *layout = _negation(
                from_ranks(ranks, order, NodeTable(order)))
            content = tuple(map(tuple, layout))
            if content not in shapes:
                shapes[content] = Shape(*layout)
            compiled[relative] = (shapes[content], offset - base)
        shape, shift = compiled[relative]
        out.append(Constituent(key, shape, base + shift if shape.rank else 0))
    return out


def _overlapping(constituents: list) -> bool:
    """True when two non-empty constituents' rank ranges overlap, for
    *constituents* in rank order: one pass over adjacent pairs."""
    return any(a.rank_hi >= b.rank_lo >= 0
               for a, b in zip(constituents, islice(constituents, 1, None)))


# ---------------------------------------------------------------------------
# Intersection
# ---------------------------------------------------------------------------

@dataclass
class IntersectStats:
    """Counters of the one intersection call a stats object is passed to,
    counted during the sweep: ``memo_entries`` is the number of states it
    expanded, ``visited`` the number of distinct constituent nodes it
    expanded against a query node of the same or a later rank (the quantity
    the span-times-width bound limits)."""
    visited: int = 0
    memo_entries: int = 0


def _intersect(gq: Obdd, index: MvIndex, cache_conscious: bool,
               stats: Optional[IntersectStats]) -> float:
    """Sweep the query's probability mass forward over the constituents,
    one rank at a time.

    Returns the total: P(Q) without a zero block, and always P0(Q and
    not-W) over the product of the non-zero root probabilities
    (`_p0_q_and_not_w`).  A state carries the signed mass of the paths that
    reach it: an entry state ``(k, v)`` holds query node v in front of
    constituent k (k == m: past the last), a pair state ``(k, pos, v)``
    holds v against node pos of constituent k.  Expanding a state splits
    its mass by the tuple at its rank, q = 1/(1+w) to the low children and
    p to the high ones; a query node before constituent k's ranks, or past
    the last, splits alone.
    A state that reaches the query's 1-sink adds its mass (times the pair's
    probUnder) to the total unless a constituent it has not left is a zero
    block; one that reaches a 0-sink is dropped.  Entering constituent k
    scales by ``inv_root[k]`` and nothing else changes scale, so an entry
    state whose query node lies past constituent k jumps to the first later
    constituent whose ranks reach it, dropping its mass if ``zeros`` says it
    jumped over a zero block.

    A pair state is kept at rank min(rank[pos], var[v]) and only moves to
    later ranks.  An entry state is kept at var[v], in ``mv`` mode at
    constituent k's first rank if that is earlier, and enters constituent k
    through its entry table at the rank it is kept at (derived on k's first
    entry, `MvIndex.entry_masses`); the table at the first rank is the root
    alone, with mass 1.0.  Entering a constituent
    straight onto the 1-sink of its entry table moves on at the same rank,
    so each rank expands its entry states in increasing k before its pair
    states.  A query OBDD built on ``index.order`` itself passes the order
    check without reading a fact.  *stats*, if given, is filled during the
    sweep."""
    if gq.order is not index.order and gq.order != index.order:
        raise OrderMismatchError("query OBDD does not follow the index order")
    cons = index.constituents
    m = len(cons)
    rank_hi, zeros, inv_root = index.rank_hi, index.zeros, index.inv_root
    probs, qs, annotations = index.probs, index.qs, index.annotations
    qvar, qlo, qhi = gq.table.var, gq.table.lo, gq.table.hi
    # rank -> (entry states {k: {v: mass}}, pair states {(k, pos, v): mass})
    buckets: dict[int, tuple[dict, dict]] = {}
    ranks: list[int] = []  # heap of the ranks holding a bucket
    total = 0.0

    def push_entry(k, v, mass):
        nonlocal total
        if v <= 1:
            if v and zeros[k] == zeros[m]:
                total += mass
            return
        r = qvar[v]
        if k < m and rank_hi[k] < r:
            j = bisect_left(rank_hi, r, k + 1, m)
            if zeros[j] != zeros[k]:
                return
            k = j
        if not cache_conscious and k < m and cons[k].rank_lo < r:
            r = cons[k].rank_lo
        b = buckets.get(r)
        if b is None:
            buckets[r] = b = ({}, {})
            heappush(ranks, r)
        states = b[0].setdefault(k, {})
        states[v] = states.get(v, 0.0) + mass

    def push_pair(k, code, v, mass):
        nonlocal total
        if code < 0:
            if code == SINK1:
                push_entry(k + 1, v, mass)
            return
        c = cons[k]
        if v <= 1:
            if v and zeros[k + 1] == zeros[m]:
                lanes, prob_under = annotations[c.shape]
                total += mass * prob_under[code * lanes + c.j]
            return
        r = c.shape.rank[code] + c.offset
        if qvar[v] < r:
            r = qvar[v]
        b = buckets.get(r)
        if b is None:
            buckets[r] = b = ({}, {})
            heappush(ranks, r)
        key = (k, code, v)
        b[1][key] = b[1].get(key, 0.0) + mass

    expanded = 0
    seen: set = set()
    push_entry(0, gq.root, 1.0)
    while ranks:
        r = heappop(ranks)
        entries, pairs = buckets[r]
        p, q = probs[r], qs[r]
        while entries:
            k = min(entries)
            states = entries.pop(k)
            if stats is not None:
                expanded += len(states)
            c = cons[k] if k < m else None
            for v, mass in states.items():
                if c is None or qvar[v] < c.rank_lo:  # var[v] == r
                    push_entry(k, qlo[v], mass * q)
                    push_entry(k, qhi[v], mass * p)
                else:
                    mass *= inv_root[k]
                    masses = c.entry
                    if masses is None:
                        masses = index.entry_masses(c)
                    i = r - c.rank_lo
                    a, b = c.shape.entry_starts[i], c.shape.entry_starts[i + 1]
                    for code in c.shape.entry_codes[a:b]:
                        push_pair(k, code, v, mass * masses[a])
                        a += 1
        if stats is not None:
            expanded += len(pairs)
            seen.update((k, pos) for k, pos, _ in pairs
                        if cons[k].shape.rank[pos] + cons[k].offset == r)
        for (k, pos, v), mass in pairs.items():
            c = cons[k]
            lo, hi = ((c.shape.lo[pos], c.shape.hi[pos])
                      if c.shape.rank[pos] + c.offset == r else (pos, pos))
            vlo, vhi = (qlo[v], qhi[v]) if qvar[v] == r else (v, v)
            push_pair(k, lo, vlo, mass * q)
            push_pair(k, hi, vhi, mass * p)
        del buckets[r]
    if stats is not None:
        stats.memo_entries = expanded
        stats.visited = len(seen)
    return total


def _p0_q_and_not_w(index: MvIndex, total: float) -> float:
    """P0(Q and not-W) from a sweep's total over *index*: the total times
    the non-zero root probabilities, a float wherever P0(not-W) is one.
    Where P0(not-W) overflows (`MvIndex.p0_not_w` is None), it raises
    `UnrepresentableError`, whatever P(Q) is: the product would be inf, or
    nan where the total is 0.0.  P(Q) (`IndexEvaluator.probability`) and
    log10 |P0(not-W)| (`MvIndex.log10_p0_not_w`) still hold there."""
    if index.p0_not_w is None:
        raise UnrepresentableError(
            "P0(Q and not W) is outside the float range: log10 "
            f"|P0(not W)| is {index.log10_p0_not_w!r}")
    return total * index.nonzero_roots


def mv_intersect(gq: Obdd, index: MvIndex,
                 stats: Optional[IntersectStats] = None) -> float:
    """P0(Q and not-W) (`_p0_q_and_not_w`): the sweep jumps to each
    constituent the query meets, enters it at its root and walks it down,
    guided by the query OBDD."""
    return _p0_q_and_not_w(index, _intersect(gq, index, False, stats))


def cc_mv_intersect(gq: Obdd, index: MvIndex,
                    stats: Optional[IntersectStats] = None) -> float:
    """Same value as `mv_intersect`; the sweep jumps to each constituent the
    query meets and enters it at the query node's rank via entry tables, so
    expanded nodes stay inside the query's rank span."""
    return _p0_q_and_not_w(index, _intersect(gq, index, True, stats))


def rank_span(gq: Obdd) -> int:
    ranks = gq.var_ranks()
    if not ranks:
        return 0
    return max(ranks) - min(ranks) + 1


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

class IndexEvaluator:
    """Evaluator for query_probability backed by a compiled index."""

    def __init__(self, index: MvIndex, instance: Instance, mode: str = "cc"):
        if mode not in ("mv", "cc"):
            raise MvdbError(f"unknown intersection mode {mode!r}")
        self.index = index
        self.instance = instance
        self.mode = mode
        self.last_timing: dict[str, int] = {}

    def _evaluate(self, q: U.Ucq) -> float:
        t0 = time.perf_counter_ns()
        phi = U.lineage(q, self.instance)
        t1 = time.perf_counter_ns()
        gq = from_lineage(phi, self.index.order)
        t2 = time.perf_counter_ns()
        result = _intersect(gq, self.index, self.mode == "cc", None)
        t3 = time.perf_counter_ns()
        self.last_timing = {"lineage_us": (t1 - t0) // 1000,
                            "build_us": (t2 - t1) // 1000,
                            "intersect_us": (t3 - t2) // 1000}
        return result

    def prob_q_and_not_w(self, q: U.Ucq) -> float:
        """P0(Q and not-W), P(Q) times P0(not-W), as `mv_intersect` and
        `cc_mv_intersect` give it (`_p0_q_and_not_w`)."""
        return _p0_q_and_not_w(self.index, self._evaluate(q))

    def probability(self, q: U.Ucq) -> float:
        """P(Q): the sweep's total, normalized by every constituent's root
        probability as it enters."""
        if self.index.zero_block:
            raise InconsistentConstraintsError(
                "no world satisfies the hard constraints: a constraint "
                "block has P0(not W) exactly 0")
        return self._evaluate(q)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# The integer typecodes, narrowest first.
_INT_CODES = "BbHhIiQq"

# The columns after the header, in file order, each with the typecodes it
# may have: UTF-8 text as bytes, the weights as f64, and ints of any
# integer typecode (`_column` writes the narrowest).
_COLUMNS = {
    "names": "B",              # the relation names, concatenated
    "name_ends": _INT_CODES,   # each name's end, in characters
    "arity": _INT_CODES,       # each relation's arity
    "complete": "B",           # each relation's 1 if in `MvIndex.complete`
    "relation": _INT_CODES,    # each tuple's relation id, in rank order
    "values": _INT_CODES,      # the values as domain ids, relation-major
    "ints": "B",               # the domain's ints, space-separated decimals
    "strings": "B",            # the domain's strings, concatenated
    "string_ends": _INT_CODES,  # each string's end, in characters
    "weight": "d",             # each tuple's weight w, in rank order
    "key": _INT_CODES,         # each head's key: domain id + 1, 0 for none
    "shape": _INT_CODES,       # each head's shape id
    "gap": _INT_CODES,         # each head's rank offset minus the last one's
    "nodes": _INT_CODES,       # each shape's node count
    "rank": _INT_CODES,        # the shapes' nodes, in shape id order
    "lo": _INT_CODES,
    "hi": _INT_CODES,
}


def _column(values, codes: str = _INT_CODES) -> bytes:
    """One column: a 1-byte typecode, a u32 item count, then the items,
    little-endian.  The typecode is the first of *codes* whose range holds
    every item (for ints, the narrowest that holds their min and max); an
    item that fits none raises `OverflowError`."""
    for code in codes[:-1]:
        try:
            items = array(code, values)
            break
        except OverflowError:
            pass
    else:
        items = array(codes[-1], values)
    if sys.byteorder == "big":
        items.byteswap()
    return (struct.pack("<BI", ord(items.typecode), len(items))
            + items.tobytes())


def _read_column(body, at: int, name: str) -> tuple[array, int]:
    """Column *name*, read at *at*, and where the next column starts.  Its
    typecode must be one `_COLUMNS` allows it, and its items must fit in
    the bytes left."""
    if len(body) - at < 5:
        raise IndexFormatError(f"bad index metadata: column {name} is "
                               "truncated")
    code, count = struct.unpack_from("<BI", body, at)
    code = chr(code)
    if code not in _COLUMNS[name]:
        raise IndexFormatError(f"bad index metadata: column {name} has "
                               f"typecode {code!r}")
    items = array(code)
    at += 5
    end = at + count * items.itemsize
    if end > len(body):
        raise IndexFormatError(f"bad index metadata: column {name} holds "
                               f"{count} items, past the end of the file")
    items.frombytes(body[at:end])
    if sys.byteorder == "big":
        items.byteswap()
    return items, end


def _read_columns(body) -> dict:
    """Every column of *body* (the file without its CRC-32), by name."""
    columns = {}
    at = _COLUMNS_START
    for name in _COLUMNS:
        columns[name], at = _read_column(body, at, name)
    if at != len(body):
        raise IndexFormatError("index blocks do not match their counts: "
                               f"{len(body) - at} bytes after the columns")
    return columns


def _text(strings: list) -> tuple[bytes, list]:
    """*strings* as a text column and an end column: their UTF-8
    concatenation, and where each one ends, in characters."""
    return "".join(strings).encode(), list(accumulate(map(len, strings)))


def _untext(data: array, ends: array) -> list:
    """The strings `_text` wrote, with the ends checked against the text."""
    try:
        text = data.tobytes().decode()
    except UnicodeDecodeError:
        raise IndexFormatError("bad index metadata layout") from None
    starts = [0, *ends]
    if starts[-1] != len(text) or any(a > b for a, b in zip(starts, ends)):
        raise IndexFormatError("bad index metadata layout")
    return list(map(text.__getitem__, map(slice, starts, ends)))


def serialize(index: MvIndex) -> bytes:
    """The v8 file: header, the columns of `_COLUMNS`, CRC-32; byte-stable.

    Relations are numbered in order of first use in the tuple order.  The
    domain is every value of the tuple order and every constituent key, the
    ints first, each kind in order of first use in rank order; shapes are
    numbered in order of first use (`MvIndex.shapes`).  Structure only, no
    annotation."""
    cons, shapes = index.constituents, index.shapes
    shape_id = dict(zip(shapes, range(len(shapes))))
    facts = index.order.facts
    names = list(map(itemgetter(0), facts))
    rows = list(map(itemgetter(1), facts))
    keys = [c.key for c in cons]
    arity = dict(zip(names, map(len, rows)))
    relation = list(map(dict(zip(arity, count())).__getitem__, names))
    seen = dict.fromkeys(chain(chain.from_iterable(rows),
                               (k for k in keys if k is not None)))
    ints = [v for v in seen if type(v) is int]
    strings = [v for v in seen if type(v) is not int]
    ids = dict(zip(ints + strings, range(len(seen))))
    # relation by relation: the sort is stable, so each relation's tuples
    # stay in rank order
    values = chain.from_iterable(map(rows.__getitem__, sorted(
        range(len(rows)), key=relation.__getitem__)))
    offsets = [c.offset for c in cons]
    columns = {"arity": list(arity.values()),
               "complete": [int(r in index.complete) for r in arity],
               "relation": relation,
               "values": list(map(ids.__getitem__, values)),
               "ints": " ".join(map(str, ints)).encode(),
               "weight": index.weights,
               "key": [0 if k is None else ids[k] + 1 for k in keys],
               "shape": [shape_id[c.shape] for c in cons],
               "gap": [b - a for a, b in zip([0, *offsets], offsets)],
               "nodes": [len(s.rank) for s in shapes]}
    columns["names"], columns["name_ends"] = _text(list(arity))
    columns["strings"], columns["string_ends"] = _text(strings)
    for name in ("rank", "lo", "hi"):
        columns[name] = [x for s in shapes for x in getattr(s, name)]
    body = b"".join([_MAGIC, struct.pack(_HEADER, _VERSION,
                                         bytes.fromhex(index.source_digest)),
                     *(_column(columns[name], codes)
                       for name, codes in _COLUMNS.items())])
    return body + struct.pack("<I", zlib.crc32(body))


def _check_layout(rank, lo, hi, n_ranks: int):
    """Reject a shape the traversals cannot walk: the positions must be in
    rank order from rank 0 to a rank below *n_ranks* (which also bounds the
    entry codes' scan), every child must be a sink or a position of a
    strictly greater rank, and every position but 0 must be some edge's
    child.  Together these make position 0 the root, alone at the lowest
    rank: no edge reaches a node of the lowest rank."""
    n = len(rank)
    if not n:
        return
    if any(a > b for a, b in zip(rank, rank[1:])):
        raise IndexFormatError("positions are not in rank order")
    if rank[0] != 0:
        raise IndexFormatError("shape ranks do not start at 0")
    if rank[-1] >= n_ranks:
        raise IndexFormatError("rank outside the variable order")
    for pos in range(n):
        for child in (lo[pos], hi[pos]):
            if child != SINK0 and child != SINK1 and not (
                    0 <= child < n and rank[child] > rank[pos]):
                raise IndexFormatError(
                    f"child code {child} of position {pos} is neither a "
                    "sink nor a later position")
    children = set(lo)
    children.update(hi)
    children.difference_update((SINK0, SINK1))
    if len(children) != n - 1:
        raise IndexFormatError(
            f"{n - 1 - len(children)} position(s) are no edge's child")


def _decode_domain(columns: dict) -> tuple[list, list]:
    """The relation names and the domain, from their columns; the domain's
    values must be distinct."""
    names = _untext(columns["names"], columns["name_ends"])
    try:
        ints = list(map(int, columns["ints"].tobytes().split()))
    except ValueError:
        raise IndexFormatError("bad index metadata layout") from None
    domain = ints + _untext(columns["strings"], columns["string_ends"])
    if len(set(domain)) != len(domain):
        raise IndexFormatError("duplicate value in the index domain")
    return names, domain


def _relation_column(relation: array, n_relations: int):
    """The relation column as the loader scans it: its bytes where each id
    is one unsigned byte and every relation id fits one, so `bytes.count`
    counts a relation and `bytes.translate` marks its ranks
    (`_relation_ranks`), else the array itself."""
    if relation.typecode == "B" and n_relations <= 256:
        return relation.tobytes()
    return relation


def _relation_ranks(column, rid: int) -> Iterable:
    """The ranks of relation *rid*: its positions in *column*, a column of
    `_relation_column`."""
    if type(column) is bytes:
        marks = column.translate(bytes(rid) + b"\1" + bytes(255 - rid))
        return compress(range(len(column)), marks)
    return compress(range(len(column)), map(eq, column, repeat(rid)))


# The unsigned typecode of each record size that is one machine int.
_RECORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _distinct_tuples(run: array, k: int, n: int) -> int:
    """How many distinct tuples *run* holds, as *n* arity-*k* tuples of ids.
    Where a tuple's k ids take 1, 2, 4 or 8 bytes, each record's bytes are
    read as one unsigned int, whose value stands for the tuple: byte order
    does not matter for distinctness.  Otherwise the tuples go into a
    set."""
    if not k:
        return min(n, 1)
    code = _RECORD_CODES.get(k * run.itemsize)
    if code is not None:
        return len(set(memoryview(run).cast("B").cast(code)))
    return len(set(zip(*[iter(run)] * k)))


def _order_runs(columns: dict, n_relations: int,
                n_domain: int) -> tuple[object, list, list]:
    """The relation column as `_relation_column` scans it, each relation's
    tuple count and its run of the values column, checked: the arities and
    flags by
    their length and bounds, every relation id by the counts (an id outside
    the relations is counted by none, so the counts fall short of the
    column), every value id against the domain, and each relation's id
    tuples distinct (`_distinct_tuples`)."""
    arity, flags = columns["arity"].tolist(), columns["complete"].tolist()
    relation, ids = columns["relation"], columns["values"]
    if (len(arity) != n_relations or min(arity, default=0) < 0
            or len(flags) != n_relations or max(flags, default=0) > 1):
        raise IndexFormatError("bad index metadata layout")
    column = _relation_column(relation, n_relations)
    counts = list(map(column.count, range(n_relations)))
    if sum(counts) != len(relation):
        raise IndexFormatError("fact names an unknown relation")
    starts = list(accumulate(map(mul, counts, arity), initial=0))
    # an unsigned column holds no id below 0
    if starts[-1] != len(ids) or ids and (
            max(ids) >= n_domain or ids.typecode in "bhiq" and min(ids) < 0):
        raise IndexFormatError("bad index metadata layout")
    runs = list(map(ids.__getitem__, map(slice, starts, starts[1:])))
    for run, k, n in zip(runs, arity, counts):
        if _distinct_tuples(run, k, n) != n:
            raise IndexFormatError("duplicate tuple in variable order")
    return column, counts, runs


def _decode_order(columns: dict) -> tuple[VariableOrder, list, frozenset]:
    """The tuple order, the domain and the relations the order holds
    completely, from their columns, each checked by its length and its
    bounds.  No fact is built here: the order builds each relation on its
    first use (`_relation_builder`).  Duplicate tuples are rejected here
    all the same, on ids: the domain's values must be distinct
    (`_decode_domain`), and so must each relation's id tuples.  The checks
    of the tuple order run as column passes (`_order_runs`): a one-byte
    relation column is counted relation by relation with `bytes.count`,
    the value ids are bounded by one `max` (and one `min` where their
    typecode is signed), and each relation's tuples are counted distinct
    record by record."""
    names, domain = _decode_domain(columns)
    column, counts, runs = _order_runs(columns, len(names), len(domain))
    unbuilt = {name: _relation_builder(name, k, n, run, domain, column, rid)
               for rid, name, k, n, run in zip(count(), names,
                                               columns["arity"], counts, runs)}
    order = VariableOrder(size=len(column), unbuilt=unbuilt)
    return order, domain, frozenset(compress(names, columns["complete"]))


def _relation_builder(name: str, k: int, n: int, run: array, domain: list,
                      column, rid: int):
    """The builder of relation *name* for `VariableOrder`: its facts from
    *run*, its *n* arity-*k* tuples' domain ids in rank order (a nullary
    relation's tuples are empty), and their ranks, the positions of *rid*
    in *column* (`_relation_ranks`)."""
    def build() -> tuple[list, Iterable]:
        values = map(domain.__getitem__, run)
        rows = zip(*[values] * k) if k else repeat((), n)
        facts = list(map(tuple.__new__, repeat(Fact),
                         zip(repeat(name), rows)))
        return facts, _relation_ranks(column, rid)
    return build


@_collector_paused()
def deserialize(buf: bytes) -> MvIndex:
    """Load a v8 index, with the cyclic garbage collector paused
    (`_collector_paused`): everything the loader allocates stays live.
    Only what every query needs is built: the shapes, the constituents and
    their probUnder; the facts and the entry tables wait for a query."""
    if len(buf) < 12:
        raise IndexFormatError("truncated index file")
    body = memoryview(buf)[:-4]
    if zlib.crc32(body) != struct.unpack("<I", buf[-4:])[0]:
        raise IndexFormatError("checksum mismatch")
    if body[:4] != _MAGIC:
        raise IndexFormatError("not an index file")
    version = struct.unpack_from("<I", body, 4)[0]
    if version != _VERSION:
        raise IndexFormatError(
            f"unsupported format version {version}; recompile")
    if len(body) < _COLUMNS_START:
        raise IndexFormatError("truncated index file")
    digest = struct.unpack_from(_HEADER, body, 4)[1]
    columns = _read_columns(body)
    order, domain, complete = _decode_order(columns)
    keys, sids, gaps, counts = (columns[name].tolist()
                                for name in ("key", "shape", "gap", "nodes"))
    if not (len(keys) == len(sids) == len(gaps)
            and min(chain(keys, sids, gaps, counts), default=0) >= 0
            and max(keys, default=0) <= len(domain)):
        raise IndexFormatError("bad index metadata layout")
    weights = columns["weight"]
    n_order = len(order)
    nodes = [columns[name].tolist() for name in ("rank", "lo", "hi")]
    if len(weights) != n_order or any(len(column) != sum(counts)
                                      for column in nodes):
        raise IndexFormatError("index blocks do not match their counts")
    shapes = []
    at = 0
    for n in counts:
        rank, lo, hi = (column[at:at + n] for column in nodes)
        at += n
        _check_layout(rank, lo, hi, n_order)
        shapes.append(Shape(rank, lo, hi))
    if sids and max(sids) >= len(shapes):
        raise IndexFormatError(f"shape id {max(sids)} out of range")
    if len(set(sids)) != len(shapes):
        raise IndexFormatError("a shape no constituent uses")
    # The heads are in rank order, the empty ones first: the gaps are not
    # negative, so what is left to check is each pair of neighbours.
    constituents = []
    key_of = [None, *domain]
    for key, sid, offset in zip(map(key_of.__getitem__, keys), sids,
                                accumulate(gaps)):
        shape = shapes[sid]
        if shape.rank:
            if offset + shape.rank[-1] >= n_order:
                raise IndexFormatError("rank outside the variable order")
        elif offset:
            raise IndexFormatError("empty constituent with an offset")
        elif constituents and constituents[-1].shape.rank:
            raise IndexFormatError("empty constituent after a non-empty one")
        constituents.append(Constituent(key, shape, offset))
    if _overlapping(constituents):
        raise IndexFormatError("constituent rank ranges overlap")
    return MvIndex(constituents, order, weights, digest.hex(), complete)


def save_index(index: MvIndex, path):
    from pathlib import Path
    Path(path).write_bytes(serialize(index))


def load_index(path) -> MvIndex:
    from pathlib import Path
    return deserialize(Path(path).read_bytes())
