"""Translation of a correlated database into a tuple-independent one.

Each view contributes an auxiliary relation holding one tuple per view
output, weighted (1 - w) / w, so its probability is 1 - w (negative when
w > 1).  A view output with weight 0 is a hard denial: its auxiliary tuple
is deterministic, and when every output of a view is a denial the auxiliary
atom is dropped altogether and the constraint disjunct is just the view
body.  Queries are then answered as P0(Q and not-W) / P0(not-W), which keeps
every final answer inside [0, 1] even though intermediate probabilities may
be negative.

The translation result is immutable; concurrent query evaluation against a
frozen evaluator is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol

from .core import (INF, VIEW_AUX, Attribute, Fact, HardConstraintError,
                   InvalidViewError, Indb, Instance, Mvdb, MvdbError,
                   QueryParseError, Relation, Schema, read_text)
from . import ucq as U


def materialize_view(view: U.MarkoView, instance: Instance) -> tuple:
    """The view's output tuples over *instance* (the base possible-tuple
    instance), as ``((values, weight), ...)`` sorted by values.

    The weight expression must evaluate to the same finite non-negative
    value under every witnessing binding of an output tuple.
    """
    weights: dict[tuple, float] = {}
    for d in view.body.disjuncts:
        for bnd, _ in U.iter_matches(d, instance):
            values = tuple(bnd[v.name] for v in d.head)
            try:
                w = U.eval_expr(view.weight_expr, bnd)
            except MvdbError as exc:
                raise InvalidViewError(f"view {view.name}: {exc}") from None
            if not isinstance(w, (int, float)) or isinstance(w, bool):
                raise InvalidViewError(
                    f"view {view.name}: weight is not a number: {w!r}")
            try:
                w = float(w)
            except OverflowError:
                raise InvalidViewError(
                    f"view {view.name}: weight for {values!r} is too large "
                    "for a float") from None
            if math.isnan(w) or w < 0:
                raise InvalidViewError(
                    f"view {view.name}: weight {w!r} for {values!r} "
                    "is outside [0, inf)")
            if w == INF:
                raise HardConstraintError(
                    f"view {view.name}: weight inf for {values!r} has no "
                    "translated form; model the complement as a denial view")
            prev = weights.get(values)
            if prev is None:
                weights[values] = w
            elif prev != w:
                raise InvalidViewError(
                    f"view {view.name}: weight for {values!r} differs "
                    f"across witnessing bindings ({prev!r} vs {w!r})")
    return tuple(sorted(weights.items(),
                        key=lambda kv: tuple((isinstance(v, str), v)
                                             for v in kv[0])))


@dataclass(frozen=True)
class TranslationResult:
    """The independent database, the constraint query W and its source."""

    indb: Indb
    w_query: Optional[U.Ucq]  # the views' constraint bodies; None if none
    source: Mvdb


def _head_types(view: U.MarkoView, schema: Schema) -> list[str]:
    types: dict[str, str] = {}
    for d in view.body.disjuncts:
        local: dict[str, str] = {}
        for a in d.atoms:
            rel = schema.relation(a.relation)
            for t, attr in zip(a.terms, rel.attributes):
                if isinstance(t, U.Var):
                    prev = local.get(t.name)
                    if prev is not None and prev != attr.type:
                        raise InvalidViewError(
                            f"view {view.name}: variable {t.name!r} used at "
                            "both int and string positions")
                    local[t.name] = attr.type
        for v in d.head:
            got = local.get(v.name)
            prev = types.get(v.name)
            if prev is not None and got is not None and prev != got:
                raise InvalidViewError(
                    f"view {view.name}: head variable {v.name!r} has "
                    "conflicting types across disjuncts")
            if got is not None:
                types[v.name] = got
    return [types[v.name] for v in view.head]


def _nv_name(view: U.MarkoView, schema: Schema, taken: set) -> str:
    name = "N" + view.name
    if schema.has(name) or name in taken:
        raise InvalidViewError(
            f"auxiliary relation name {name!r} collides; rename the view")
    return name


def build_indb(db: Mvdb, denial_shortcut: bool = True) -> TranslationResult:
    """Construct the associated tuple-independent database and W.

    Original tuples keep their weights.  Each view output becomes an
    auxiliary tuple of weight (1 - w) / w; weight-0 outputs become
    deterministic auxiliary tuples.  With *denial_shortcut* (default), a view
    whose outputs are all denials contributes its bare body as the
    constraint disjunct and no auxiliary tuples at all.  The views are
    materialized over one base possible instance.
    """
    instance = db.possible_instance()
    mats = [materialize_view(v, instance) for v in db.views]
    aux_relations: list[Relation] = []
    aux_facts: list[tuple[Fact, float]] = []
    components: list[U.Ucq] = []
    taken: set[str] = set()
    for view, outputs in zip(db.views, mats):
        all_denial = all(w == 0 for _, w in outputs)
        if denial_shortcut and all_denial:
            closed = tuple(U.ConjunctiveQuery((), d.atoms, d.predicates)
                           for d in view.body.disjuncts)
            components.append(U.Ucq(closed))
            continue
        nv = _nv_name(view, db.schema, taken)
        taken.add(nv)
        types = _head_types(view, db.schema)
        attrs = tuple(Attribute(f"a{i + 1}", t) for i, t in enumerate(types))
        aux_relations.append(Relation(nv, attrs,
                                      tuple(a.name for a in attrs), VIEW_AUX))
        for values, w in outputs:
            w0 = INF if w == 0 else (1.0 - w) / w
            aux_facts.append((Fact(nv, values), w0))
        disjuncts = []
        for d in view.body.disjuncts:
            nv_atom = U.Atom(nv, tuple(d.head))
            disjuncts.append(U.ConjunctiveQuery(
                (), (nv_atom,) + d.atoms, d.predicates))
        components.append(U.Ucq(tuple(disjuncts)))
    schema = db.schema.extended(aux_relations)
    weighted = list(db.weights.items()) + aux_facts
    indb = Indb(schema, weighted)
    w_query = None
    if components:
        w_query = U.Ucq(tuple(d for c in components for d in c.disjuncts))
    return TranslationResult(indb, w_query, db)


class Evaluator(Protocol):
    """Anything that can compute P(Q) for a Boolean query against a
    translation, raising `InconsistentConstraintsError` when no world
    satisfies the hard constraints."""

    def probability(self, q: U.Ucq) -> float: ...


def check_query_relations(q: U.Ucq, schema: Schema):
    for rel in sorted(q.relations()):
        if schema.relation(rel).kind == VIEW_AUX:
            raise MvdbError(
                f"queries may not reference auxiliary relation {rel!r}")


def query_probability(q: U.Ucq, tr: TranslationResult,
                      evaluator: Evaluator) -> float:
    """P(Q) = P0(Q and not-W) / P0(not-W) for a Boolean query."""
    if not q.is_boolean():
        raise MvdbError("query_probability expects a Boolean query")
    check_query_relations(q, tr.indb.schema)
    return evaluator.probability(q)


def answer_query(q: U.Ucq, tr: TranslationResult,
                 evaluator: Evaluator) -> list[tuple[tuple, float]]:
    """Per-answer probabilities over the translation's possible instance."""
    check_query_relations(q, tr.indb.schema)
    return answer_rows(q, tr.indb.possible_instance(), evaluator)


def answer_rows(q: U.Ucq, instance: Instance,
                evaluator: Evaluator) -> list[tuple[tuple, float]]:
    """Candidates over *instance*, then one Boolean evaluation per
    substituted head binding.  A Boolean query has exactly one row, the
    empty answer with P(Q), even when nothing matches it.  The caller has
    checked that *q* names no auxiliary relation, so the base possible
    instance serves as well as the translated one."""
    if q.is_boolean():
        return [((), evaluator.probability(q))]
    return [(answer, evaluator.probability(U.substitute(q, answer)))
            for answer in U.answer_tuples(q, instance)]


def parse_views(text: str, schema: Schema) -> list[U.MarkoView]:
    """Parse a views file: one ``NAME(head...) [expr] :- body`` per line."""
    views = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            view = U.parse_view(line, schema)
        except QueryParseError as exc:
            raise QueryParseError(str(exc), line=lineno) from None
        if view.name in names:
            raise QueryParseError(f"duplicate view {view.name!r}", line=lineno)
        names.add(view.name)
        views.append(view)
    return views


def load_views(path: Path | str, schema: Schema) -> list[U.MarkoView]:
    return parse_views(read_text(path, InvalidViewError), schema)
