"""Translation of a correlated database into a tuple-independent one.

Each view contributes an auxiliary relation holding one tuple per view
output, weighted (1 - w) / w, so its probability is 1 - w (negative when
w > 1).  A view output with weight 0 is a hard denial: its auxiliary tuple
is deterministic, and when every output of a view is a denial the auxiliary
atom is dropped altogether and the constraint disjunct is just the view
body.  Queries are then answered as P0(Q and not-W) / P0(not-W), which keeps
every final answer inside [0, 1] even though intermediate probabilities may
be negative.

W is the union of the view bodies, each joined with its auxiliary atom, so
its groundings are the views' own: one pass over each view body yields the
auxiliary tuples and W's lineage clauses, grouped by W's separator constant
for the index compiler.

The translation result is immutable; concurrent query evaluation against a
frozen evaluator is safe.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from operator import itemgetter
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
    return _sorted_outputs(view, _ground_view(view, instance)[0])


def _sorted_outputs(view: U.MarkoView, weights: dict) -> tuple:
    """The view's outputs ``((values, weight), ...)`` sorted by values.  A
    head position's values all have its declared type, so plain tuple order
    sorts them; a view whose disjuncts give one head variable both types
    is invalid."""
    try:
        return tuple(sorted(weights.items()))
    except TypeError:
        raise InvalidViewError(
            f"view {view.name}: a head variable has conflicting types "
            "across disjuncts") from None


# Above the largest float an int weight has no float form (`_weight`).
_MAX_FLOAT = sys.float_info.max


def _weight(view: U.MarkoView, w, values: tuple) -> float:
    """The view's weight *w*, its weight expression's value under one
    witnessing binding of *values*, checked and made a float."""
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
    return w


def _separator_candidates(d: U.ConjunctiveQuery, soft_rels) -> tuple:
    """The variables, sorted, that `find_separator` may pick for W's
    disjunct of body *d*, whichever way the views' outputs turn out.

    That disjunct is *d*, with ``NV(head)`` unless the denial shortcut drops
    it, and NV is a variable relation unless every output is a denial.  In
    each case the pick is a root variable of *d*'s atoms over *soft_rels*
    (the base relations with a non-deterministic fact), or, when *d* has no
    such atom, a root variable of all its atoms or a head variable.
    """
    roots = (U.root_variables(d, considered=soft_rels)
             or U.root_variables(d) | {v.name for v in d.head})
    return tuple(sorted(roots))


def _ground_view(view: U.MarkoView, instance: Instance,
                 with_clauses: bool = False, soft_rels=()) -> tuple:
    """Run each disjunct of the view's body through its join plan once.

    Returns ``(weights, nv_facts, clauses)``: the weight of each output's
    values, its expression compiled once per plan and checked to agree
    across the output's witnessing bindings (`_weight`), and, with
    *with_clauses*, W's clause of every match.  A clause is a tuple of
    *instance*'s own non-deterministic facts: the match's body facts, each
    once, and the auxiliary fact ``NV(values)`` unless the output's weight
    is 0, which makes that fact deterministic.  *nv_facts* maps values to
    that fact, made once per output.  *clauses* holds per body disjunct
    ``(names, {values of names: [clause, ...]})``, *names* being
    `_separator_candidates`, so the clauses can be grouped by W's separator
    once it is known without keeping the bindings.  Each match is handled
    as the join reaches it, so an error surfaces at the same match as the
    view's reference semantics (the tests' `helpers.eval_expr`) would meet
    it.
    """
    weights: dict[tuple, float] = {}
    nv_facts: dict[tuple, Fact] = {}
    per_disjunct = []
    nv = _aux_name(view)
    for d in view.body.disjuncts:
        plan = U.join_plan(d, instance, None,
                           U.VARIABLE_FACTS if with_clauses else U.NO_FACTS)
        values_of = plan.getter([v.name for v in d.head])
        weight_of = U.compile_expr(view.weight_expr, plan.slots)
        names = _separator_candidates(d, soft_rels)
        key_of = plan.getter(names)
        clause_of, repeats = plan.facts, plan.repeats()
        by_key = defaultdict(list)

        def match(t):
            values = values_of(t)
            try:
                w = weight_of(t)
            except MvdbError as exc:
                raise InvalidViewError(f"view {view.name}: {exc}") from None
            # A finite float or int of at least 0 passes `_weight` as is.
            if w.__class__ is float and 0.0 <= w < INF:
                pass
            elif w.__class__ is int and 0 <= w <= _MAX_FLOAT:
                w = float(w)
            else:
                w = _weight(view, w, values)
            prev = weights.get(values)
            if prev is None:
                weights[values] = w
                if w != 0 and with_clauses:
                    nv_facts[values] = Fact(nv, values)
            elif prev != w:
                raise InvalidViewError(
                    f"view {view.name}: weight for {values!r} differs "
                    f"across witnessing bindings ({prev!r} vs {w!r})")
            if not with_clauses:
                return
            clause = clause_of(t)
            if repeats is not None and repeats(t):
                clause = tuple(dict.fromkeys(clause))
            if w != 0:
                clause += (nv_facts[values],)
            by_key[key_of(t)].append(clause)

        plan.run(match)
        per_disjunct.append((names, by_key))
    return weights, nv_facts, per_disjunct


def _group_clauses(clauses: list, sep: Optional[U.Separator]) -> dict:
    """W's clauses (`_ground_view`'s, one entry per disjunct of W) grouped
    by the constant of each disjunct's separator variable, or all under
    None without a separator.  Each disjunct's lists are emptied into the
    groups as they go, so no clause list is held twice."""
    groups: dict = {}
    for i, (names, by_key) in enumerate(clauses):
        pick = (itemgetter(names.index(sep.variables[i])) if sep is not None
                else lambda key: None)
        for key in list(by_key):
            groups.setdefault(pick(key), []).extend(by_key.pop(key))
    for key, group in groups.items():
        groups[key] = tuple(group)
    return groups


@dataclass(frozen=True)
class TranslationResult:
    """The independent database, the constraint query W and its source.

    *w_lineage* is W's lineage over the Indb's possible instance, grouped
    by W's separator constant (`ucq.find_separator`), or under the one key
    None without a separator: each clause is a tuple of the Indb's own
    facts, without the deterministic ones.  It is empty without W or when
    W has no grounding, and is read, never changed, by `build_index`.
    *var_rels* is the Indb's relations with a non-deterministic fact, those
    `find_separator` and `choose_pi` may pick from.
    """

    indb: Indb
    w_query: Optional[U.Ucq]  # the views' constraint bodies; None if none
    source: Mvdb
    w_lineage: dict
    var_rels: set


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


def _aux_name(view: U.MarkoView) -> str:
    return "N" + view.name


def _nv_name(view: U.MarkoView, schema: Schema, taken: set) -> str:
    name = _aux_name(view)
    if schema.has(name) or name in taken:
        raise InvalidViewError(
            f"auxiliary relation name {name!r} collides; rename the view")
    return name


def _ground_views(db: Mvdb) -> tuple[list, set]:
    """`_ground_view` of every view over one base possible instance, which
    is freed on return, and the base relations with a non-deterministic
    fact."""
    instance = db.possible_instance()
    soft_rels = {r.name for r in db.schema.relations
                 if instance.facts_of(r.name)
                 and instance.deterministic_kind(r.name) != "all"}
    return ([_ground_view(v, instance, True, soft_rels) for v in db.views],
            soft_rels)


def build_indb(db: Mvdb, denial_shortcut: bool = True) -> TranslationResult:
    """Construct the associated tuple-independent database and W, and ground
    W once, by the views' own materialization.

    Original tuples keep their weights and load order, and are not checked
    again: the Indb starts from the database's weights (`Indb`), and only
    the auxiliary tuples are checked.  Each view output becomes an
    auxiliary tuple of weight (1 - w) / w; weight-0 outputs become
    deterministic auxiliary tuples.  With *denial_shortcut* (default), a view
    whose outputs are all denials contributes its bare body as the
    constraint disjunct and no auxiliary tuples at all.  The views are
    materialized over one base possible instance, each disjunct's join plan
    run once (`_ground_view`).  W's disjuncts are the view bodies, with the
    auxiliary atom of the outputs' values, so the same matches are W's
    groundings: their clauses, grouped by W's separator constant, are the
    result's *w_lineage*.
    """
    passes, var_rels = _ground_views(db)
    aux_relations: list[Relation] = []
    aux_facts: list[tuple[Fact, float]] = []
    components: list[U.Ucq] = []
    taken: set[str] = set()
    for view, (weights, nv_facts, _) in zip(db.views, passes):
        all_denial = all(w == 0 for w in weights.values())
        if denial_shortcut and all_denial:
            closed = tuple(U.ConjunctiveQuery((), d.atoms, d.predicates)
                           for d in view.body.disjuncts)
            components.append(U.Ucq(closed))
            continue
        nv = _nv_name(view, db.schema, taken)
        taken.add(nv)
        if not all_denial:
            var_rels.add(nv)
        types = _head_types(view, db.schema)
        attrs = tuple(Attribute(f"a{i + 1}", t) for i, t in enumerate(types))
        aux_relations.append(Relation(nv, attrs,
                                      tuple(a.name for a in attrs), VIEW_AUX))
        for values, w in _sorted_outputs(view, weights):
            w0 = INF if w == 0 else (1.0 - w) / w
            aux_facts.append((nv_facts.get(values) or Fact(nv, values), w0))
        disjuncts = []
        for d in view.body.disjuncts:
            nv_atom = U.Atom(nv, tuple(d.head))
            disjuncts.append(U.ConjunctiveQuery(
                (), (nv_atom,) + d.atoms, d.predicates))
        components.append(U.Ucq(tuple(disjuncts)))
    schema = db.schema.extended(aux_relations)
    indb = Indb(schema, aux_facts, checked=db.weights)
    if not components:
        return TranslationResult(indb, None, db, {}, var_rels)
    w_query = U.Ucq(tuple(d for c in components for d in c.disjuncts))
    sep = U.find_separator(w_query, var_rels)
    clauses = [c for _, _, per_view in passes for c in per_view]
    return TranslationResult(indb, w_query, db, _group_clauses(clauses, sep),
                             var_rels)


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


def boolean_queries(q: U.Ucq,
                    instance: Instance) -> list[tuple[tuple, U.Ucq]]:
    """Each candidate answer of *q* over *instance*, with *q* with its head
    bound to it.  A Boolean query has exactly one, the empty answer with
    *q* itself, even when nothing matches it."""
    if q.is_boolean():
        return [((), q)]
    return [(answer, U.substitute(q, answer))
            for answer in U.answer_tuples(q, instance)]


def answer_rows(q: U.Ucq, instance: Instance,
                evaluator: Evaluator) -> list[tuple[tuple, float]]:
    """One Boolean evaluation per candidate answer (`boolean_queries`).
    The caller has checked that *q* names no auxiliary relation, so the
    base possible instance serves as well as the translated one."""
    return [(answer, evaluator.probability(bq))
            for answer, bq in boolean_queries(q, instance)]


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
