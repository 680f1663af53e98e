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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from mvdb import (INF, Fact, Indb, Instance, Mvdb, MvdbError, NodeTable,
                  Obdd, OrderMismatchError, Schema, VariableOrder,
                  parse_schema, parse_query, parse_view, synthesize)
from mvdb import oracle as O
from mvdb import ucq as U
from mvdb.core import DETERMINISTIC
from mvdb.mvindex import SINK0, SINK1

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

def probability_to_weight(p: float) -> float:
    """Inverse of `mvdb.weight_to_probability`; p = 1 maps to infinity."""
    if p == 1.0:
        return INF
    return p / (1.0 - p)


def shannon_probability(g: Obdd, probs, qs) -> float:
    """Probability of the root by bottom-up Shannon expansion over every
    node reachable from it, a low edge weighed by q and a high edge by p
    (``qs[r]`` and ``probs[r]`` at rank r).  Probabilities may be
    negative."""
    var, lo, hi = g.table.var, g.table.lo, g.table.hi
    values = {0: 0.0, 1: 1.0}
    for u in sorted(g.reachable(), key=var.__getitem__, reverse=True):
        r = var[u]
        values[u] = qs[r] * values[lo[u]] + probs[r] * values[hi[u]]
    return values[g.root]


def evaluate_on_world(q, instance: Instance, present) -> bool:
    """Direct query evaluation on one world (deterministic facts implied)."""
    allowed = set(present) | instance.deterministic
    world = Instance(instance.schema, allowed, instance.deterministic)
    for d in q.disjuncts:
        for _ in iter_matches(d, world):
            return True
    return False


def iter_matches(cq: U.ConjunctiveQuery, instance: Instance,
                 binding: Optional[dict] = None):
    """Enumerate homomorphisms of *cq* into *instance*, by one
    `ucq.join_plan` run to its end before the first match is yielded.

    Yields (binding, used facts): a fresh dict per match, holding
    *binding*'s variables and then those the atoms bind in join order, and
    the instance's own fact objects as a tuple in join order."""
    plan = U.join_plan(cq, instance, binding, U.ALL_FACTS)
    names = tuple(plan.slots)
    values = plan.getter(names)
    for t in plan.matches():
        yield dict(zip(names, values(t))), plan.facts(t)


def eval_expr(expr, env: dict):
    """Evaluate an arithmetic expression under a variable binding."""
    if isinstance(expr, U.Const):
        return expr.value
    if isinstance(expr, U.Var):
        try:
            return env[expr.name]
        except KeyError:
            raise MvdbError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, U.Func):
        if expr.name != "exp":
            raise MvdbError(f"unknown function {expr.name!r}")
        try:
            return math.exp(U._as_number(eval_expr(expr.arg, env)))
        except OverflowError:
            return math.inf
    if isinstance(expr, U.BinOp):
        a = U._as_number(eval_expr(expr.lhs, env))
        b = U._as_number(eval_expr(expr.rhs, env))
        try:
            if expr.op == "+":
                return a + b
            if expr.op == "-":
                return a - b
            if expr.op == "*":
                return a * b
            if expr.op == "/":
                return a / b
        except (ZeroDivisionError, OverflowError) as exc:
            raise MvdbError(
                f"cannot evaluate {U._expr_str(expr)}: {exc}") from None
        raise MvdbError(f"unknown operator {expr.op!r}")
    raise MvdbError(f"not an expression: {expr!r}")


def eval_predicate(pred: U.Predicate, env: dict) -> bool:
    """Evaluate a comparison under a variable binding."""
    lhs = eval_expr(pred.lhs, env)
    rhs = eval_expr(pred.rhs, env)
    op = pred.op
    if op == "contains":
        if not isinstance(lhs, str) or not isinstance(rhs, str):
            raise MvdbError("contains expects string operands")
        return rhs in lhs
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    try:
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
    except TypeError:
        raise MvdbError(f"type mismatch comparing {lhs!r} and {rhs!r}") from None
    raise MvdbError(f"unknown comparison {op!r}")


def lineage_variables(phi: U.Lineage) -> set[Fact]:
    """The facts of *phi*'s clauses."""
    out = set()
    for c in phi.clauses:
        out |= c
    return out


def lineage_holds(phi: U.Lineage, present) -> bool:
    """Whether *phi* holds in the world of the facts *present*."""
    return any(c <= present for c in phi.clauses)


def typed_sorted_outputs(outputs) -> tuple:
    """View outputs ``((values, weight), ...)`` sorted by the typed key that
    materialization once used: per head position, ints before strings."""
    return tuple(sorted(outputs, key=lambda kv: tuple(
        (isinstance(v, str), v) for v in kv[0])))


def tuple_order_grouped(pi: dict, facts, domain, schema) -> VariableOrder:
    """`mvdb.tuple_order` by recursive grouping: group the tuples on the
    constant of their first permuted attribute, groups in active-domain
    order, and order each group's residues (that attribute projected out)
    the same way.  Tuples that run out of attributes come first, smaller
    arity first, declaration order breaking ties."""
    rel_key = {r.name: (r.arity, i) for i, r in enumerate(schema.relations)}
    items = [(f, tuple(f.values[p] for p in
                       pi.get(f.relation, range(len(f.values)))))
             for f in facts]
    ordered = []
    _emit_grouped(items, rel_key, domain, ordered)
    return VariableOrder(ordered)


def _emit_grouped(block, rel_key: dict, domain, ordered: list):
    finished = [(f, pv) for f, pv in block if not pv]
    finished.sort(key=lambda t: rel_key[t[0].relation])
    ordered.extend(f for f, _ in finished)
    groups: dict = {}
    for f, pv in block:
        if pv:
            groups.setdefault(pv[0], []).append((f, pv[1:]))
    for value in sorted(groups, key=domain.rank):
        _emit_grouped(groups[value], rel_key, domain, ordered)


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


def node_span(table, node: int, memo: dict):
    """(first rank, last rank) over the sub-DAG of *node*, or None for a
    sink.  *memo* caches the spans of *table*'s nodes for the caller."""
    stack = [node]
    while stack:
        u = stack[-1]
        if u <= 1 or u in memo:
            stack.pop()
            continue
        kids = [c for c in (table.lo[u], table.hi[u]) if c > 1]
        missing = [c for c in kids if c not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        # ranks increase along every path, so the node's own rank is first
        memo[u] = (table.var[u],
                   max([table.var[u]] + [memo[c][1] for c in kids]))
    return memo.get(node)


def concatenate(op: str, g1: Obdd, g2: Obdd, memo=None) -> Obdd:
    """Combine independent OBDDs by redirecting one sink of g1 to g2's root.

    Requires every variable of g1 to precede every variable of g2 in the
    shared order; refused otherwise so the caller can fall back to
    `synthesize`.  The redirect is a memoized copy-on-write substitution in
    the shared table; unchanged sub-DAGs are reused via hash-consing.
    *memo* is the table's `node_span` cache, if the caller keeps one.
    """
    if op not in ("and", "or"):
        raise MvdbError(f"unknown operation {op!r}")
    t = g1.table
    if g2.table is not t:
        raise OrderMismatchError("operands use different node tables")
    memo = {} if memo is None else memo
    s1, s2 = node_span(t, g1.root, memo), node_span(t, g2.root, memo)
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


def _positions_of(atom, var: str) -> list[int]:
    return [i for i, term in enumerate(atom.terms)
            if isinstance(term, U.Var) and term.name == var]


def _dominates(x: str, atoms, pi, var_rels) -> bool:
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
        perm = pi.get(atom.relation, tuple(range(len(atom.terms))))
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


class _StructuralBuilder:
    """The paper's recursive compiler: disjunctions with a separator expand
    over the active domain, conjunctive components on a dominating
    variable; independent parts whose ranks are consecutive concatenate,
    everything else synthesizes."""

    def __init__(self, pi, instance, domain, table: NodeTable, var_rels):
        self.pi = pi
        self.instance = instance
        self.domain = domain
        self.table = table
        self.var_rels = var_rels
        self.order = table.order
        self.spans: dict = {}

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
        pieces.sort(key=lambda r: node_span(self.table, r, self.spans)[0])
        acc = pieces[-1]
        for r in reversed(pieces[:-1]):
            left, right = Obdd(self.table, r), Obdd(self.table, acc)
            try:
                acc = concatenate(op, left, right, self.spans).root
            except OrderMismatchError:
                acc = synthesize(op, left, right).root
        return acc

    def candidates(self, atoms, var: str) -> list:
        values = None
        for atom in atoms:
            if var not in atom.variables():
                continue
            here = set()
            for bnd, _ in iter_matches(U.ConjunctiveQuery((), (atom,)),
                                       self.instance):
                here.add(bnd[var])
            values = here if values is None else values & here
            if not values:
                return []
        return sorted(values or (), key=self.domain.rank)

    def build_ucq(self, disjuncts) -> int:
        disjuncts = tuple(disjuncts)
        if len(disjuncts) > 1:
            sep = U.find_separator(U.Ucq(disjuncts), self.var_rels)
            if sep is not None:
                by_constant: dict = {}
                for i, (d, var) in enumerate(zip(disjuncts, sep.variables)):
                    for c in self.candidates(d.atoms, var):
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

    def build_cq(self, d) -> int:
        pieces = []
        open_preds = []
        for p in d.predicates:
            if p.variables():
                open_preds.append(p)
            elif not eval_predicate(p, {}):
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

    def _ground_atom(self, a) -> int:
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
            for _ in iter_matches(probe, self.instance):
                return 1
            return 0
        dominant = None
        ranked = []
        for x in sorted(cvars):
            cands = self.candidates(atoms, x)
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


def con_obdd_structural(pi, q, instance, domain, order=None, table=None,
                        var_rels=None) -> Obdd:
    """`mvdb.con_obdd` built by the paper's structural compiler instead of
    from the query's lineage; the same reduced OBDD, by a different route."""
    if not q.is_boolean():
        raise MvdbError("con_obdd expects a Boolean query")
    if var_rels is None:
        var_rels = probabilistic_relations(instance.schema)
    if order is None:
        order = tuple_order_grouped(pi, (f for f in instance.facts
                                         if f not in instance.deterministic),
                                    domain, instance.schema)
    if table is None:
        table = NodeTable(order)
    builder = _StructuralBuilder(pi, instance, domain, table, var_rels)
    return Obdd(table, builder.build_ucq(q.disjuncts))


def grouped_lineage(q, instance, variables=None) -> dict:
    """Lineage clauses of a Boolean UCQ in one grounding pass, grouped.

    One clause per homomorphism.  With *variables* (one name per disjunct,
    e.g. a separator's), each clause goes under the constant its disjunct's
    variable is bound to; without, every clause goes under None.  The
    clauses are frozensets without the deterministic facts."""
    assert q.is_boolean()
    groups: dict = {}
    for i, d in enumerate(q.disjuncts):
        var = variables[i] if variables is not None else None
        for bnd, used in iter_matches(d, instance):
            key = bnd[var] if var is not None else None
            groups.setdefault(key, []).append(frozenset(
                f for f in used if f not in instance.deterministic))
    return groups


def variable_relations(indb) -> set[str]:
    """The relations of *indb* with a non-deterministic fact, from its
    weights: those with a weight other than infinity."""
    return {f.relation for f, w in indb.weights.items() if w != math.inf}


def domain_constants(domain) -> list:
    """The values of `core.Domain` *domain*, in active-domain order."""
    return list(domain._rank)


def probabilistic_relations(schema: Schema) -> set[str]:
    """The relations *schema* declares non-deterministic: those whose atoms
    may bind Boolean variables, by kind rather than by the data."""
    return {r.name for r in schema.relations if r.kind != DETERMINISTIC}


def w_lineage_reference(tr) -> dict:
    """W's grouped lineage by grounding W itself: ``tr.w_query`` over the
    Indb's possible instance, grouped by `find_separator`'s variables."""
    if tr.w_query is None:
        return {}
    sep = U.find_separator(tr.w_query, variable_relations(tr.indb))
    return grouped_lineage(tr.w_query, tr.indb.possible_instance(),
                           sep and sep.variables)


def digest_reference(root) -> str:
    """`ProjectFiles.digest` by its definition: sha256 over ``schema.txt``,
    ``views.txt`` if present and the ``data/<Relation>.tsv`` of every
    relation of the schema that has one, in schema order, each as its path
    relative to *root*, a NUL, its length in decimal, a NUL and its
    bytes."""
    import hashlib
    root = Path(root)
    schema = parse_schema((root / "schema.txt").read_bytes().decode())
    names = ["schema.txt", "views.txt"]
    names += [f"data/{r.name}.tsv" for r in schema.relations]
    framed = b""
    for name in names:
        if (root / name).exists():
            data = (root / name).read_bytes()
            framed += b"\0".join([name.encode(), str(len(data)).encode(),
                                   data])
    return hashlib.sha256(framed).hexdigest()


def demo_query(project_dir) -> str:
    """A 'students of one advisor' query against the generated data."""
    advisor_file = Path(project_dir) / "data" / "Advisor.tsv"
    first = advisor_file.read_text().splitlines()[0].split("\t")
    return f"Q(s) :- Advisor(s, {first[1]}), Student(s, y)"


def schema_text(schema: Schema) -> str:
    """A schema file that parses back to *schema*."""
    lines = []
    for rel in schema.relations:
        attrs = ", ".join(f"{a.name}:{a.type}" for a in rel.attributes)
        key = ",".join(rel.key)
        lines.append(f"relation {rel.name}({attrs}) key({key}) {rel.kind}")
    return "\n".join(lines) + "\n"


def view_text(view) -> str:
    """A views-file line that parses back to *view*."""
    return "%s(%s) [%s] :- %s" % (view.name, ", ".join(map(str, view.head)),
                                  U._expr_str(view.weight_expr), view.body)


def write_project(root, db) -> None:
    """Write *db* as a project under *root*: its schema's canonical text,
    its views one per line (no ``views.txt`` without one), and one TSV per
    relation with a fact, each row its values and ``repr`` of its weight,
    in load order."""
    root = Path(root)
    (root / "data").mkdir(parents=True)
    (root / "schema.txt").write_text(schema_text(db.schema))
    if db.views:
        (root / "views.txt").write_text(
            "".join(view_text(v) + "\n" for v in db.views))
    rows: dict = {}
    for fact, w in db.weights.items():
        rows.setdefault(fact.relation, []).append(
            "\t".join([*map(str, fact.values), repr(w)]) + "\n")
    for name, lines in rows.items():
        (root / "data" / f"{name}.tsv").write_text("".join(lines))


def complete_relations(indb, order) -> frozenset:
    """`MvIndex.complete` by its definition: the relations of *order*
    whose every fact in *indb* has a finite weight."""
    return frozenset(f.relation for f in order.facts) - {
        f.relation for f, w in indb.weights.items() if w == INF}


def build_index_per_block(tr):
    """`build_index` with one `con_obdd_structural` call per separator
    constant, every block in one shared node table, and its own contiguity
    assertion on `node_span`; without a separator, one call over all of
    W."""
    from mvdb.mvindex import MvIndex
    from mvdb.obdd import choose_pi
    indb = tr.indb
    instance = indb.possible_instance()
    var_rels = variable_relations(indb)
    pi = {} if tr.w_query is None else choose_pi(tr.w_query, indb.schema,
                                                 var_rels)
    order = tuple_order_grouped(pi, indb.probabilistic_facts(), indb.domain,
                                indb.schema)
    weights = [indb.weights[f] for f in order.facts]
    if tr.w_query is None:
        return MvIndex([], order, weights, tr.source.digest,
                       complete_relations(indb, order))
    table = NodeTable(order)
    blocks = []
    sep = U.find_separator(tr.w_query, var_rels)
    if sep is not None:
        builder = _StructuralBuilder(pi, instance, indb.domain, table,
                                     var_rels)
        by_constant = {}
        for i, (d, var) in enumerate(zip(tr.w_query.disjuncts,
                                         sep.variables)):
            for c in builder.candidates(d.atoms, var):
                by_constant.setdefault(c, []).append(i)
        for c in sorted(by_constant, key=indb.domain.rank):
            residual = tuple(U._subst_cq(tr.w_query.disjuncts[i],
                                         {sep.variables[i]: c})
                             for i in by_constant[c])
            g = con_obdd_structural(pi, U.Ucq(residual), instance,
                                    indb.domain, order=order, table=table,
                                    var_rels=var_rels)
            if g.root != 0:
                blocks.append((c, g))
        memo = {}
        spans = sorted(node_span(table, g.root, memo)
                       for _, g in blocks if g.root > 1)
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:])), \
            "separator blocks interleave in the tuple order"
    else:
        g = con_obdd_structural(pi, tr.w_query, instance, indb.domain,
                                order=order, table=table, var_rels=var_rels)
        blocks = [] if g.root == 0 else [(None, g)]
    return MvIndex(sorted(constituents_of(blocks),
                          key=lambda c: (c.rank_lo, c.rank_hi)),
                   order, weights, tr.source.digest,
                   complete_relations(indb, order))


def constituents_of(blocks) -> list:
    """The negations of the OBDDs of *blocks*, ``(key, OBDD)`` pairs, as
    constituents, each at its root's rank; the shapes are found by content,
    one `Shape` per distinct structure."""
    from mvdb.mvindex import Constituent, Shape, _negation
    shapes = {}
    out = []
    for key, g in blocks:
        offset, *layout = _negation(g)
        content = tuple(map(tuple, layout))
        if content not in shapes:
            shapes[content] = Shape(*layout)
        out.append(Constituent(key, shapes[content], offset))
    return out


def build_index_unshared(tr):
    """`build_index` with `from_lineage` run on every block, and the shapes
    found by the content of the blocks' layouts (`constituents_of`), not by
    their clauses' relative ranks."""
    from unittest import mock
    from mvdb import mvindex

    def compile_every_block(groups, keys, order):
        return constituents_of(
            (key, mvindex.from_lineage(U.Lineage.normalize(groups[key]),
                                       order, NodeTable(order)))
            for key in keys)

    with mock.patch.object(mvindex, "_compile_blocks", compile_every_block):
        return mvindex.build_index(tr)


def compile_blocks_reference(groups: dict, keys, order) -> list:
    """`mvindex._compile_blocks` as first written, per fact and per rank:
    each clause ranked through `VariableOrder.rank_of`, a block's least
    first rank taken by a generator, and its relative rank lists a
    frozenset of tuples shifted one rank at a time."""
    from mvdb.mvindex import Constituent, Shape, _negation, from_ranks
    out = []
    compiled: dict = {}
    shapes: dict = {}
    rank_of = order.rank_of
    for key in keys:
        ranks = {tuple(sorted(map(rank_of, clause)))
                 for clause in groups[key]}
        base = min((r[0] for r in ranks if r), default=0)
        relative = frozenset(tuple(x - base for x in r) for r in ranks)
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


def compile_corpus(tmp: Path) -> list:
    """``(name, Mvdb)`` of each database the compiler's passes are checked
    on against their references: gen-dblp seed 1 scale 2000 (written under
    *tmp*), the chain at n = 160, `viable_random_mvdb` seeds 0-59 and the
    shape-sharing `random_mvdb` seeds 38, 400 and 443."""
    from mvdb.cli import _load_project
    from mvdb.gendata import generate_project
    dblp = generate_project(tmp / "dblp", seed=1, scale=2000)
    corpus = [("dblp", _load_project(str(dblp))), ("chain", chain_mvdb(160))]
    corpus += [(f"viable {seed}", viable_random_mvdb(seed)[0])
               for seed in range(60)]
    corpus += [(f"random {seed}", random_mvdb(random.Random(seed)))
               for seed in (38, 400, 443)]
    return corpus


def shape_of(c) -> tuple:
    """Constituent *c*'s structure up to a shift in rank: its ranks relative
    to its first, and its child codes."""
    rank = ranks(c)
    first = rank[0] if rank else 0
    return (tuple(r - first for r in rank), tuple(c.shape.lo),
            tuple(c.shape.hi))


def read_columns(blob: bytes) -> dict:
    """The columns of the ``.mvx`` *blob*, by name, as arrays."""
    from mvdb import mvindex
    return mvindex._read_columns(memoryview(blob)[:-4])


def order_scan_defects(columns: dict) -> list[str]:
    """The item-by-item scans the loader once made of the tuple order's
    columns and the weights, as predicates over *columns* as
    `read_columns` returns them: the names of those that fail, each a
    defect `deserialize` must reject.  ``relation ids``: an id outside
    ``0 <= id < len(names)``; ``value ids``: an id outside the domain;
    ``duplicates``: a relation whose id tuples repeat (checked where the
    ids and the arities fit the values column); ``weights``: a weight that
    is NaN, infinite or -1.  Names or a domain that do not decode fail
    ``layout``."""
    from mvdb import IndexFormatError, mvindex
    failed = []
    weights = columns["weight"]
    if not all(map(math.isfinite, weights)) or -1.0 in weights:
        failed.append("weights")
    try:
        names = mvindex._untext(columns["names"], columns["name_ends"])
        domain = (list(map(int, columns["ints"].tobytes().split()))
                  + mvindex._untext(columns["strings"],
                                    columns["string_ends"]))
    except (IndexFormatError, ValueError):
        return failed + ["layout"]
    relation, ids = columns["relation"], columns["values"]
    if relation and not 0 <= min(relation) <= max(relation) < len(names):
        failed.append("relation ids")
    if ids and not 0 <= min(ids) <= max(ids) < len(domain):
        failed.append("value ids")
    arity = columns["arity"].tolist()
    if "relation ids" in failed or len(arity) != len(names) or min(
            arity, default=0) < 0:
        return failed
    counts = list(map(relation.count, range(len(names))))
    starts = list(itertools.accumulate(map(int.__mul__, counts, arity),
                                       initial=0))
    if starts[-1] != len(ids):
        return failed
    for n, k, a in zip(counts, arity, starts):
        if len({tuple(ids[a + i * k:a + i * k + k]) for i in range(n)}) != n:
            failed.append("duplicates")
            break
    return failed


def with_columns(blob: bytes, edit) -> bytes:
    """The ``.mvx`` *blob* with *edit* applied to its columns, decoded by
    name into lists, and re-encoded with a valid checksum: each int column
    in the narrowest typecode for its edited values, and a column the edit
    sets to bytes written as they are."""
    import struct
    import zlib
    from mvdb import mvindex
    columns = edit({name: column.tolist()
                    for name, column in read_columns(blob).items()})
    body = blob[:mvindex._COLUMNS_START] + b"".join(
        columns[name] if isinstance(columns[name], bytes)
        else mvindex._column(columns[name], codes)
        for name, codes in mvindex._COLUMNS.items())
    return body + struct.pack("<I", zlib.crc32(body))


def with_orphan(at_root_rank: bool):
    """A `with_columns` edit that adds to shape 0 a node no edge reaches: at
    the root's rank it goes in at position 1, after the root, otherwise
    after the last position at the last rank, so the positions stay in
    rank order; every child code of shape 0 from there up shifts by one."""
    from mvdb.mvindex import SINK0, SINK1

    def edit(columns):
        n = columns["nodes"][0]
        at = 1 if at_root_rank else n
        for name in ("lo", "hi"):
            columns[name][:n] = [code + (code >= at)
                                 for code in columns[name][:n]]
        columns["rank"].insert(at, columns["rank"][at - 1])
        columns["lo"].insert(at, SINK0)
        columns["hi"].insert(at, SINK1)
        columns["nodes"][0] += 1
        return columns
    return edit


def column_spans(blob: bytes) -> list[tuple]:
    """Each column of the ``.mvx`` *blob* as ``(name, typecode, start,
    end)``: its typecode byte is at *start*, its items end at *end*."""
    from mvdb import mvindex
    spans = []
    at = mvindex._COLUMNS_START
    for name in mvindex._COLUMNS:
        column, end = mvindex._read_column(blob, at, name)
        spans.append((name, column.typecode, at, end))
        at = end
    return spans


def ranks(c) -> tuple[int, ...]:
    """Each position's rank in constituent *c*: its shape's plus its
    offset."""
    return tuple(r + c.offset for r in c.shape.rank)


def root_code(c) -> int:
    """The code of constituent *c*'s root: position 0, or the 0-sink for
    the empty shape."""
    return 0 if c.shape.rank else SINK0


def annotated(cons, probs, qs, lanes=None):
    """A stand-in for an `MvIndex` holding *cons*, constituents of one
    shape, for the accessors below: their annotations over *probs* and
    *qs*, probUnder by `Constituent.compute_annotations` and the entry
    tables by `derive_lanes` with *lanes*, or else both in the scalar loop
    for one constituent, and each one's lane ``j`` and root probability set
    as `MvIndex` sets them."""
    from types import SimpleNamespace
    from mvdb.mvindex import Constituent
    shape, offsets = cons[0].shape, [c.offset for c in cons]
    under = Constituent.compute_annotations(shape, offsets, probs, qs, lanes)
    masses = (Constituent.derive(shape, offsets, probs, qs) if lanes is None
              else derive_lanes(shape, offsets, probs, qs, lanes))
    for j, c in enumerate(cons):
        c.j, c.prob_root = j, under[j] if shape.rank else 0.0
    return SimpleNamespace(annotations={shape: (len(cons), under)},
                           entry_masses=lambda c: masses[c.j::len(cons)])


def derive_lanes(shape, offsets, probs, qs, lanes):
    """`Constituent.derive` for every offset of *shape* at once, by lanes
    (`mvindex._rank_lanes`, or `lone_lanes` for one offset): the entry
    tables' masses of the constituent at ``offsets[j]`` at ``e *
    len(offsets) + j``.  Each step computes a lane, one list indexed by
    constituent, with the scalar loop's float operations in its order, so a
    constituent's masses keep their bits."""
    from itertools import chain
    from operator import add, mul
    from mvdb.mvindex import _doubles
    rank, lo, hi = shape.rank, shape.lo, shape.hi
    codes, starts = shape.entry_codes, shape.entry_starts
    n, m = len(rank), len(offsets)
    ps, qls = lanes
    # A lane is replaced, never changed in place, so a table can hold the
    # lane a code has at its rank.
    mass = [[0.0] * m] * (n + 2)
    mass[0] = [1.0] * m
    at = mass.__getitem__
    tables: list = []
    pos = 0
    for i in range(len(starts) - 1):
        tables += map(at, codes[starts[i]:starts[i + 1]])
        while pos < n and rank[pos] == i:
            reach = mass[pos]
            mass[lo[pos]] = list(map(add, mass[lo[pos]],
                                     map(mul, reach, qls[i])))
            mass[hi[pos]] = list(map(add, mass[hi[pos]],
                                     map(mul, reach, ps[i])))
            pos += 1
    return _doubles(list(chain.from_iterable(tables)))


def lone_lanes(shape, offset: int, probs, qs) -> tuple[dict, dict]:
    """The lanes of the lane pass for *shape* at one *offset*: p and q at
    each rank of the shape holding a node, each in a list of one item, as
    `mvindex._rank_lanes` gathers them for two offsets or more."""
    return ({r: [probs[r + offset]] for r in shape.rank},
            {r: [qs[r + offset]] for r in shape.rank})


def reachability(c, probs, qs) -> list[float]:
    """Per-node reachability of constituent *c*, top-down over every
    position sorted by rank: the signed mass of all root paths reaching
    each node, the root's being 1.0; a low edge carries q, a high edge p."""
    rank, lo, hi = ranks(c), c.shape.lo, c.shape.hi
    reach = [0.0] * len(rank)
    if rank:
        reach[0] = 1.0
        for pos in sorted(range(len(rank)), key=rank.__getitem__):
            r = rank[pos]
            if lo[pos] >= 0:
                reach[lo[pos]] += reach[pos] * qs[r]
            if hi[pos] >= 0:
                reach[hi[pos]] += reach[pos] * probs[r]
    return reach


def prob_under(index, c, code: int) -> float:
    """probUnder of node or sink *code* of constituent *c* of *index*: 0.0
    for the 0-sink, 1.0 for the 1-sink."""
    if code == SINK0:
        return 0.0
    if code == SINK1:
        return 1.0
    m, under = index.annotations[c.shape]
    return under[code * m + c.j]


def prob_unders(index, c) -> list[float]:
    """probUnder of every position of constituent *c* of *index*."""
    return [prob_under(index, c, pos) for pos in range(len(c.shape.rank))]


def entry_masses(index, c) -> list[float]:
    """The masses of every entry table of constituent *c* of *index*, in
    the order of its shape's entry codes (derived on the first call)."""
    return list(index.entry_masses(c))


def entry_tables(index, c) -> dict[int, list]:
    """Every entry table of constituent *c* of *index*, as ``{rank: [(code,
    mass), ...]}``: its shape's entry codes zipped with its entry
    masses."""
    codes, starts = c.shape.entry_codes, c.shape.entry_starts
    masses = entry_masses(index, c)
    return {r: list(zip(codes[a:b], masses[a:b]))
            for r, a, b in zip(range(c.rank_lo, c.rank_hi + 1), starts,
                               starts[1:])}


def cut_ranks(c, tables) -> set[int]:
    """The ranks whose entry table, of *tables*, holds only nodes of that
    rank."""
    rank = ranks(c)
    return {r for r, table in tables.items()
            if all(code >= 0 and rank[code] == r for code, _ in table)}


def without_sink0(tables: dict) -> dict:
    """Entry tables ``{rank: [(code, mass), ...]}`` without their 0-sink
    rows, which the engine's tables leave out."""
    return {r: [(code, mass) for code, mass in table if code != SINK0]
            for r, table in tables.items()}


def entry_tables_rescan(c, probs, qs):
    """Entry tables and cut ranks of constituent *c* by rescanning every node
    once per rank: entry[r] sums, per child at rank >= r, the mass
    reach[pos] * (q or p) of every edge from a node of rank < r, with
    reach from `reachability`."""
    entry, cut = {}, set()
    rank, lo, hi = ranks(c), c.shape.lo, c.shape.hi
    if not rank:
        return entry, cut
    reach = reachability(c, probs, qs)
    for r in range(c.rank_lo, c.rank_hi + 1):
        if rank[0] >= r:
            table = [(0, 1.0)]
        else:
            masses = {}
            for pos in range(len(rank)):
                if rank[pos] >= r:
                    continue
                q, p = qs[rank[pos]], probs[rank[pos]]
                for child, factor in ((lo[pos], q), (hi[pos], p)):
                    child_rank = rank[child] if child >= 0 else math.inf
                    if child_rank >= r:
                        masses[child] = (masses.get(child, 0.0)
                                         + reach[pos] * factor)
            table = sorted(masses.items())
        entry[r] = table
        if all(code >= 0 and rank[code] == r for code, _ in table):
            cut.add(r)
    return entry, cut


def intersect_memo(gq, index, cache_conscious: bool, stats=None):
    """`mvdb.mvindex._intersect`'s value by a memo of tuple-keyed tasks on
    an explicit stack: the reference the forward sweep is checked against.

    Returns ``(ratio, global)``.  Without a zero block, ``ratio`` is P(Q);
    ``global`` is always P0(Q and not-W).  Every task value is normalized
    by the root probabilities of the constituents it has not left yet, so
    entering constituent k multiplies by ``inv_root[k]`` and nothing else
    changes scale, and ``global`` is ``ratio`` times the product of the
    non-zero root probabilities.  The traversal starts in front of
    constituent 0.  An entry task for query node v from constituent k on
    is created in front of the first constituent at or after k whose last
    rank reaches v's (`_etask`, a linear walk), or is the zero task if the
    walk passes a zero block.  A query node before constituent
    k's ranks, or past the last constituent (k == m), is split by Shannon
    expansion within the same memo, so the query's tail costs only the
    nodes the traversal reaches.  A query OBDD built on ``index.order``
    itself passes the order check without reading a fact.  *stats*, if
    given, is filled from the memo once the traversal ends:
    ``memo_entries`` is the number of tasks whose query node is not a sink,
    which are the states the sweep expands, each once; ``visited`` has the
    sweep's definition."""
    if gq.order is not index.order and gq.order != index.order:
        raise OrderMismatchError("query OBDD does not follow the index order")
    cons = index.constituents
    m = len(cons)
    inv_root = index.inv_root
    probs, qs = index.probs, index.qs
    qtab = gq.table
    zero = ("E", 0, 0)  # the constant-zero task: any v == 0 task works
    tables = {}  # k -> constituent k's entry tables

    def unit(k):
        """Normalized P0(not-W) of constituents k..m-1: 1.0 unless one of
        them is a zero block."""
        return 0.0 if any(c.prob_root == 0.0 for c in cons[k:]) else 1.0

    def _etask(k, v):
        if v > 1:
            rv = qtab.var[v]
            while k < m and cons[k].rank_hi < rv:
                if cons[k].prob_root == 0.0:
                    return zero
                k += 1
        return ("E", k, v)

    def expand(task):
        """The task's value, or the ``(coefficient, task)`` terms whose
        weighted sum it is."""
        kind = task[0]
        if kind == "E":
            _, k, v = task
            if v == 0:
                return 0.0
            if v == 1:
                return unit(k)
            rv = qtab.var[v]
            if k == m or rv < cons[k].rank_lo:
                return ((qs[rv], _etask(k, qtab.lo[v])),
                        (probs[rv], _etask(k, qtab.hi[v])))
            c = cons[k]
            inv = inv_root[k]
            if not cache_conscious:
                return ((inv, _xtask(k, root_code(c), v)),)
            if k not in tables:
                tables[k] = entry_tables(index, c)
            terms = []
            for code, mass in tables[k][rv]:
                if code == SINK0:
                    continue
                terms.append((mass * inv, _xtask(k, code, v)))
            return tuple(terms)
        _, k, pos, v = task
        c = cons[k]
        lo, hi = c.shape.lo, c.shape.hi
        if v == 0:
            return 0.0
        if v == 1:
            return prob_under(index, c, pos) * unit(k + 1)
        ru = c.shape.rank[pos] + c.offset
        rv = qtab.var[v]
        if ru > rv:
            return ((qs[rv], _xtask(k, pos, qtab.lo[v])),
                    (probs[rv], _xtask(k, pos, qtab.hi[v])))
        q, p = qs[ru], probs[ru]
        if ru < rv:
            return ((q, _xtask(k, lo[pos], v)),
                    (p, _xtask(k, hi[pos], v)))
        return ((q, _xtask(k, lo[pos], qtab.lo[v])),
                (p, _xtask(k, hi[pos], qtab.hi[v])))

    def _xtask(k, code, v):
        if code == SINK0:
            return zero
        if code == SINK1:
            return _etask(k + 1, v)
        return ("X", k, code, v)

    memo: dict = {}
    root = _etask(0, gq.root)
    stack = [root]
    while stack:
        task = stack[-1]
        if task in memo:
            stack.pop()
            continue
        res = expand(task)
        if isinstance(res, float):
            memo[task] = res
            stack.pop()
            continue
        missing = [t for _, t in res if t not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[task] = sum(coef * memo[t] for coef, t in res)
        stack.pop()
    if stats is not None:
        # A constituent node is visited when an X task pairs it with a
        # query node of the same or a later rank.
        var = qtab.var
        stats.memo_entries = sum(1 for t in memo if t[-1] > 1)
        stats.visited = len({t[1:3] for t in memo if t[0] == "X" and t[3] > 1
                             and cons[t[1]].shape.rank[t[2]]
                             + cons[t[1]].offset <= var[t[3]]})
    ratio = memo[root]
    return ratio, ratio * math.prod(c.prob_root for c in cons
                                    if c.prob_root != 0.0)


def obdd_width(g: Obdd) -> int:
    """The most nodes *g* reaches at one rank."""
    counts: dict[int, int] = {}
    for u in g.reachable():
        r = g.table.var[u]
        counts[r] = counts.get(r, 0) + 1
    return max(counts.values(), default=0)


def obdd_evaluate(g: Obdd, true_ranks) -> bool:
    """*g* on the assignment that sets the ranks *true_ranks* true."""
    u = g.root
    while u > 1:
        u = g.table.hi[u] if g.table.var[u] in true_ranks else g.table.lo[u]
    return u == 1


def obdd_models(g, n_vars: int) -> set[int]:
    """Satisfying assignments of an OBDD as bitmasks over ranks."""
    out = set()
    for mask in range(1 << n_vars):
        ranks = {r for r in range(n_vars) if (mask >> r) & 1}
        if obdd_evaluate(g, ranks):
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


def signed_world_sum(probs: list[float], qs: list[float], sat) -> float:
    """Sum of product measures over assignments where sat(mask) holds: tuple
    i weighs ``probs[i]`` when present and ``qs[i]`` when absent."""
    total = 0.0
    n = len(probs)
    for mask in range(1 << n):
        w = 1.0
        for i, (p, q) in enumerate(zip(probs, qs)):
            w *= p if (mask >> i) & 1 else q
        if sat(mask):
            total += w
    return total


@dataclass(frozen=True)
class World:
    """A possible world: the set of present tuples."""

    present: frozenset


def mln_world_trace(db: Mvdb):
    """(world, weight) per world in subset-counting order; exact products."""
    prob = db.probabilistic_facts()
    O._check_cap(len(prob), O.DEFAULT_WORLD_CAP)
    features = O.view_features(db, db.possible_instance())
    out = []
    for j in range(1 << len(prob)):
        present = frozenset(f for i, f in enumerate(prob) if (j >> i) & 1)
        weight = 1.0
        for i, f in enumerate(prob):
            if (j >> i) & 1:
                weight *= db.weights[f]
        for phi, w in features:
            if lineage_holds(phi, present):
                weight *= w
        out.append((World(present), weight))
    return out


def indb_world_trace(db: Indb):
    """(world, weight) with weight the product of present finite weights."""
    prob = db.probabilistic_facts()
    O._check_cap(len(prob), O.DEFAULT_WORLD_CAP)
    out = []
    for j in range(1 << len(prob)):
        present = frozenset(f for i, f in enumerate(prob) if (j >> i) & 1)
        weight = 1.0
        for i, f in enumerate(prob):
            if (j >> i) & 1:
                weight *= db.weights[f]
        out.append((World(present), weight))
    return out


def indb_probability(db: Indb, phi: U.Lineage,
                     world_cap: int = O.DEFAULT_WORLD_CAP) -> float:
    """Signed measure of the worlds of an independent database where the
    lineage *phi* holds."""
    prob_facts = db.probabilistic_facts()
    n = len(prob_facts)
    O._check_cap(n, world_cap)
    sat = O._sat_array(O._clause_masks(phi, O._bit_map(prob_facts)), n)
    return float(O._probability_array(db, prob_facts, n)[sat].sum())


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
