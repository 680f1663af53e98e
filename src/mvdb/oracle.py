"""Ground-truth reference evaluation by exhaustive world enumeration.

Two measures are enumerated: the correlated-database measure, whose world
weight is the product of the weights of all present tuples and of all
satisfied view features, and the signed product measure of a translated
tuple-independent database, where per-tuple probabilities may be negative.
Both are exact up to float arithmetic and capped at 2**20 worlds.  Each
has one path: numpy arrays of world weights over all 2**n assignments,
summed where the formula holds.  The tests list the same worlds one by
one (`helpers.mln_world_trace` and `helpers.indb_world_trace`) and sum the
signed measure of a lineage (`helpers.indb_probability`) to check these.

numpy is imported by the enumerating functions themselves, so a process
that loads mvdb but never enumerates (every CLI command except the oracle
engine) does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import (Fact, InconsistentConstraintsError, Indb, Instance,
                   Mvdb, MvdbError, WorldCapError)
from . import ucq as U
from .translate import TranslationResult, build_indb, materialize_view

if TYPE_CHECKING:
    import numpy as np

DEFAULT_WORLD_CAP = 1 << 20


def _check_cap(n_tuples: int, world_cap: int):
    if 2 ** n_tuples > world_cap:
        raise WorldCapError(
            f"{n_tuples} probabilistic tuples exceed the world cap "
            f"of {world_cap} worlds")


def _bit_map(facts) -> dict[Fact, int]:
    return {f: i for i, f in enumerate(facts)}


def _clause_masks(phi: U.Lineage, bits: dict[Fact, int]) -> list[int]:
    masks = []
    for clause in phi.clauses:
        m = 0
        for f in clause:
            m |= 1 << bits[f]
        masks.append(m)
    return masks


def _sat_array(masks: list[int], n: int) -> np.ndarray:
    import numpy as np
    idx = np.arange(1 << n, dtype=np.int64)
    sat = np.zeros(1 << n, dtype=bool)
    for m in masks:
        if m == 0:
            sat[:] = True
            break
        sat |= (idx & m) == m
    return sat


def view_features(db: Mvdb, instance: Instance):
    """Grounded features of the views: (lineage, weight) per output tuple,
    over *instance*, the database's possible instance."""
    features = []
    for view in db.views:
        for values, w in materialize_view(view, instance):
            boolean = U.substitute(
                U.Ucq(tuple(U.ConjunctiveQuery(d.head, d.atoms, d.predicates)
                            for d in view.body.disjuncts)), values)
            features.append((U.lineage(boolean, instance), float(w)))
    return features


def _world_weight_array(db: Mvdb, features, bits, n) -> np.ndarray:
    import numpy as np
    idx = np.arange(1 << n, dtype=np.int64)
    weights = np.ones(1 << n, dtype=float)
    for f, i in bits.items():
        on = ((idx >> i) & 1) == 1
        weights[on] *= db.weights[f]
    for phi, w in features:
        weights[_sat_array(_clause_masks(phi, bits), n)] *= w
    return weights


class MlnEvaluator:
    """P(Q) by enumerating all worlds of the correlated database; the world
    weights and the partition function are computed once, on construction.
    """

    def __init__(self, db: Mvdb, world_cap: int = DEFAULT_WORLD_CAP):
        prob = db.probabilistic_facts()
        self._n = len(prob)
        _check_cap(self._n, world_cap)
        self._bits = _bit_map(prob)
        self.instance = db.possible_instance()
        self._weights = _world_weight_array(db, view_features(db,
                                                              self.instance),
                                            self._bits, self._n)
        self._z = float(self._weights.sum())
        if self._z == 0.0:
            raise InconsistentConstraintsError("partition function is zero")

    def probability(self, q: U.Ucq) -> float:
        q_masks = _clause_masks(U.lineage(q, self.instance), self._bits)
        return float(self._weights[_sat_array(q_masks, self._n)].sum()) \
            / self._z


def mln_probability(db: Mvdb, q: U.Ucq,
                    world_cap: int = DEFAULT_WORLD_CAP) -> float:
    """P(Q) by enumerating all worlds of the correlated database."""
    if not q.is_boolean():
        raise MvdbError("mln_probability expects a Boolean query")
    return MlnEvaluator(db, world_cap).probability(q)


def _probability_array(db: Indb, prob_facts, n) -> np.ndarray:
    import numpy as np
    idx = np.arange(1 << n, dtype=np.int64)
    weights = np.ones(1 << n, dtype=float)
    for i, f in enumerate(prob_facts):
        # q = 1/(1+w), the complement of p, exact where p rounds to 1.0
        p, q = db.probability(f), 1.0 / (1.0 + db.weights[f])
        on = ((idx >> i) & 1) == 1
        weights[on] *= p
        weights[~on] *= q
    return weights


class EnumerationEvaluator:
    """Evaluator for query_probability backed by signed enumeration."""

    def __init__(self, tr: TranslationResult,
                 world_cap: int = DEFAULT_WORLD_CAP):
        self.tr = tr
        self.world_cap = world_cap
        self.instance = tr.indb.possible_instance()
        prob_facts = tr.indb.probabilistic_facts()
        self._n = len(prob_facts)
        _check_cap(self._n, world_cap)
        self._bits = _bit_map(prob_facts)
        self._weights = _probability_array(tr.indb, prob_facts, self._n)
        w_masks = ([] if tr.w_query is None else _clause_masks(
            U.lineage(tr.w_query, self.instance), self._bits))
        self._sat_w = _sat_array(w_masks, self._n)
        self.p_not_w = float(self._weights[~self._sat_w].sum())

    def prob_q_and_not_w(self, q: U.Ucq) -> float:
        phi_q = U.lineage(q, self.instance)
        sat_q = _sat_array(_clause_masks(phi_q, self._bits), self._n)
        return float(self._weights[sat_q & ~self._sat_w].sum())

    def probability(self, q: U.Ucq) -> float:
        """P(Q) = P0(Q and not-W) / P0(not-W) over the whole database."""
        if self.p_not_w == 0.0:
            raise InconsistentConstraintsError(
                "no world satisfies the hard constraints")
        return self.prob_q_and_not_w(q) / self.p_not_w


def translation_check(db: Mvdb, queries,
                      world_cap: int = DEFAULT_WORLD_CAP) -> list[tuple]:
    """Compare direct world enumeration with the translated evaluation.

    Returns one (lhs, rhs, |lhs - rhs|) per Boolean query in *queries*,
    where lhs enumerates the correlated measure and rhs is
    P0(Q and not-W) / P0(not-W) enumerated on the translated independent
    database, the value ``query --engine oracle`` prints.  Both measures'
    world weights are computed once for all the queries, and not at all
    for none.
    """
    if not queries:
        return []
    mln = MlnEvaluator(db, world_cap)
    translated = EnumerationEvaluator(build_indb(db), world_cap)
    out = []
    for q in queries:
        lhs, rhs = mln.probability(q), translated.probability(q)
        out.append((lhs, rhs, abs(lhs - rhs)))
    return out
