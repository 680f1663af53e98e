"""Unions of conjunctive queries: AST, parser, grounding, and lineage.

Surface syntax is datalog-style, one query per string::

    Q(x) :- R(x), S(x, y), y != 'b1' ; T(x)

Disjuncts are separated by ``;``.  Variables are lowercase identifiers,
constants are quoted strings or integer literals.  Parsed queries and
lineages are immutable values and safe to share across threads.

Grounding (`iter_matches`) runs each conjunctive query through a join plan
computed once per call, so a query costs the rows its atoms probe, not a
rescoring of every remaining atom at every step, and leaves no reference
cycles for the garbage collector.  An atom probes the positional index on a
constant or bound position; an atom with neither probes one of its own
variables that a predicate compares with a constant of the column's
declared type (an int for an int column, a str for a string one): `=`
through the positional index, `<`, `<=`, `>`, `>=` by bisecting a sorted
column, so a window query reads only the rows in its window.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional

from .core import (_TYPES, DETERMINISTIC, Fact, Instance, MvdbError,
                   QueryParseError, Schema)

COMPARISONS = ("=", "!=", "<", "<=", ">", ">=", "contains")


class Var(NamedTuple):
    name: str

    def __str__(self):
        return self.name


class Const(NamedTuple):
    value: object

    def __str__(self):
        return repr(self.value)


class BinOp(NamedTuple):
    op: str
    lhs: object
    rhs: object


class Func(NamedTuple):
    name: str
    arg: object


@dataclass(frozen=True)
class Atom:
    relation: str
    terms: tuple

    def variables(self) -> set[str]:
        return {t.name for t in self.terms if isinstance(t, Var)}

    def __str__(self):
        return "%s(%s)" % (self.relation, ", ".join(str(t) for t in self.terms))


@dataclass(frozen=True)
class Predicate:
    op: str
    lhs: object
    rhs: object

    def variables(self) -> set[str]:
        return expr_variables(self.lhs) | expr_variables(self.rhs)


@dataclass(frozen=True)
class ConjunctiveQuery:
    head: tuple[Var, ...]
    atoms: tuple[Atom, ...]
    predicates: tuple[Predicate, ...] = ()

    def variables(self) -> set[str]:
        out = set()
        for a in self.atoms:
            out |= a.variables()
        for p in self.predicates:
            out |= p.variables()
        return out

    def __str__(self):
        items = [str(a) for a in self.atoms]
        items += ["%s %s %s" % (_expr_str(p.lhs), p.op, _expr_str(p.rhs))
                  for p in self.predicates]
        return ", ".join(items)


@dataclass(frozen=True)
class Ucq:
    disjuncts: tuple[ConjunctiveQuery, ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise MvdbError("a UCQ needs at least one disjunct")
        arities = {len(d.head) for d in self.disjuncts}
        if len(arities) != 1:
            raise MvdbError("head arities differ across disjuncts")

    @property
    def head_arity(self) -> int:
        return len(self.disjuncts[0].head)

    def is_boolean(self) -> bool:
        return self.head_arity == 0

    def relations(self) -> set[str]:
        return {a.relation for d in self.disjuncts for a in d.atoms}

    def __str__(self):
        return " ; ".join(str(d) for d in self.disjuncts)


@dataclass(frozen=True)
class MarkoView:
    """A correlation view: a UCQ body plus a per-tuple weight expression."""

    name: str
    head: tuple[Var, ...]
    weight_expr: object
    body: Ucq


def expr_variables(expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, BinOp):
        return expr_variables(expr.lhs) | expr_variables(expr.rhs)
    if isinstance(expr, Func):
        return expr_variables(expr.arg)
    raise MvdbError(f"not an expression: {expr!r}")


def _expr_str(expr) -> str:
    if isinstance(expr, (Var, Const)):
        return str(expr)
    if isinstance(expr, BinOp):
        return f"({_expr_str(expr.lhs)} {expr.op} {_expr_str(expr.rhs)})"
    if isinstance(expr, Func):
        return f"{expr.name}({_expr_str(expr.arg)})"
    return repr(expr)


def eval_expr(expr, env: dict):
    """Evaluate an arithmetic expression under a variable binding."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise MvdbError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Func):
        if expr.name != "exp":
            raise MvdbError(f"unknown function {expr.name!r}")
        try:
            return math.exp(_as_number(eval_expr(expr.arg, env)))
        except OverflowError:
            return math.inf
    if isinstance(expr, BinOp):
        a = _as_number(eval_expr(expr.lhs, env))
        b = _as_number(eval_expr(expr.rhs, env))
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
                f"cannot evaluate {_expr_str(expr)}: {exc}") from None
        raise MvdbError(f"unknown operator {expr.op!r}")
    raise MvdbError(f"not an expression: {expr!r}")


def _as_number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MvdbError(f"expected a number, got {v!r}")
    return v


def eval_predicate(pred: Predicate, env: dict) -> bool:
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


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<str>'[^']*'|"[^"]*")
  | (?P<op><=|>=|!=|<>|:-|[()\[\],;=<>+\-*/])
""", re.X)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QueryParseError(f"unexpected character {text[pos]!r}", pos=pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, schema: Schema):
        self.text = text
        self.schema = schema
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise QueryParseError(f"expected {value!r}, got {val!r}", pos=pos)
        return val

    def error(self, message):
        raise QueryParseError(message, pos=self.peek()[2])

    # -- query / view entry points ------------------------------------

    def parse_query(self) -> Ucq:
        _, head_vars = self._head()
        self.expect(":-")
        disjuncts = [self._body(head_vars)]
        while self.peek()[1] == ";":
            self.next()
            disjuncts.append(self._body(head_vars))
        if self.peek()[0] != "eof":
            self.error(f"trailing input {self.peek()[1]!r}")
        return Ucq(tuple(disjuncts))

    def parse_view(self) -> MarkoView:
        name, head_vars = self._head()
        if self.schema.has(name):
            self.error(f"view name {name!r} collides with a relation")
        self.expect("[")
        weight_expr = self._expr()
        self.expect("]")
        self.expect(":-")
        disjuncts = [self._body(head_vars)]
        while self.peek()[1] == ";":
            self.next()
            disjuncts.append(self._body(head_vars))
        if self.peek()[0] != "eof":
            self.error(f"trailing input {self.peek()[1]!r}")
        body = Ucq(tuple(disjuncts))
        wvars = expr_variables(weight_expr)
        for d in body.disjuncts:
            missing = wvars - d.variables()
            if missing:
                self.error("weight expression uses variables not bound in "
                           "every disjunct: " + ", ".join(sorted(missing)))
        return MarkoView(name, tuple(head_vars), weight_expr, body)

    # -- grammar pieces -------------------------------------------------

    def _head(self):
        kind, name, pos = self.next()
        if kind != "name":
            raise QueryParseError("expected a head name", pos=pos)
        self.expect("(")
        head_vars = []
        if self.peek()[1] != ")":
            while True:
                k, v, p = self.next()
                if k != "name" or not (v[0].islower() or v[0] == "_"):
                    raise QueryParseError("head terms must be variables", pos=p)
                head_vars.append(Var(v))
                if self.peek()[1] != ",":
                    break
                self.next()
        self.expect(")")
        return name, head_vars

    def _body(self, head_vars) -> ConjunctiveQuery:
        atoms, predicates = [], []
        while True:
            item = self._item()
            if isinstance(item, Atom):
                atoms.append(item)
            else:
                predicates.append(item)
            if self.peek()[1] != ",":
                break
            self.next()
        cq = ConjunctiveQuery(tuple(head_vars), tuple(atoms), tuple(predicates))
        atom_vars = set()
        for a in atoms:
            atom_vars |= a.variables()
        for hv in head_vars:
            if hv.name not in atom_vars:
                self.error(f"head variable {hv.name!r} not bound by any atom")
        for p in predicates:
            loose = p.variables() - atom_vars
            if loose:
                self.error("predicate variables not bound by any atom: "
                           + ", ".join(sorted(loose)))
        if not atoms:
            self.error("a disjunct needs at least one atom")
        return cq

    def _item(self):
        kind, val, pos = self.peek()
        if kind == "name" and val != "exp" and self.tokens[self.i + 1][1] == "(":
            if not self.schema.has(val):
                raise QueryParseError(f"unknown relation {val!r}", pos=pos)
            return self._atom()
        lhs = self._expr()
        k, op, p = self.next()
        if op == "<>":
            op = "!="
        if op not in COMPARISONS:
            raise QueryParseError(f"expected a comparison, got {op!r}", pos=p)
        rhs = self._expr()
        return Predicate(op, lhs, rhs)

    def _atom(self) -> Atom:
        _, name, pos = self.next()
        rel = self.schema.relation(name)
        self.expect("(")
        terms = []
        if self.peek()[1] != ")":
            while True:
                terms.append(self._term())
                if self.peek()[1] != ",":
                    break
                self.next()
        self.expect(")")
        if len(terms) != rel.arity:
            raise QueryParseError(
                f"{name} expects {rel.arity} arguments, got {len(terms)}",
                pos=pos)
        for t, attr in zip(terms, rel.attributes):
            if isinstance(t, Const):
                if not isinstance(t.value, _TYPES[attr.type]):
                    raise QueryParseError(
                        f"{name}.{attr.name} expects {attr.type}, "
                        f"got {t.value!r}", pos=pos)
        return Atom(name, tuple(terms))

    def _term(self):
        kind, val, pos = self.next()
        if kind == "name":
            if val[0].islower() or val[0] == "_":
                return Var(val)
            raise QueryParseError(
                f"bare identifier {val!r}: constants must be quoted", pos=pos)
        if kind == "num":
            return Const(_num_value(val, pos, integer_only=True))
        if kind == "str":
            return Const(val[1:-1])
        if val == "-":
            k2, v2, p2 = self.next()
            if k2 != "num":
                raise QueryParseError("expected a number after '-'", pos=p2)
            return Const(-_num_value(v2, p2, integer_only=True))
        raise QueryParseError(f"expected a term, got {val!r}", pos=pos)

    def _expr(self):
        node = self._expr_mul()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self._expr_mul())
        return node

    def _expr_mul(self):
        node = self._expr_atom()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self._expr_atom())
        return node

    def _expr_atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Const(_num_value(val, pos))
        if kind == "str":
            return Const(val[1:-1])
        if val == "-":
            return BinOp("-", Const(0), self._expr_atom())
        if val == "(":
            node = self._expr()
            self.expect(")")
            return node
        if kind == "name":
            if val == "exp":
                self.expect("(")
                arg = self._expr()
                self.expect(")")
                return Func("exp", arg)
            if val[0].islower() or val[0] == "_":
                return Var(val)
        raise QueryParseError(f"expected an expression, got {val!r}", pos=pos)


def _num_value(token: str, pos: int, integer_only: bool = False):
    if re.fullmatch(r"\d+", token):
        return int(token)
    if integer_only:
        raise QueryParseError("expected an integer literal", pos=pos)
    return float(token)


def parse_query(text: str, schema: Schema) -> Ucq:
    """Parse ``HEAD :- body [; body]*`` against *schema*."""
    return _Parser(text, schema).parse_query()


def parse_view(text: str, schema: Schema) -> MarkoView:
    """Parse ``NAME(head...) [weight_expr] :- body`` against *schema*."""
    return _Parser(text, schema).parse_view()


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

class _Step(NamedTuple):
    """One atom of a join plan, resolved against the variables bound before
    it runs.  Every position holds a constant or a variable bound earlier
    (*probe* and *checked*), or a variable the atom binds (its first
    occurrence in *binds*, any later one in *repeated*).  An atom with no
    such position may still probe one of its own variables: an `=` on it
    reads the positional index, bounds on it a sorted column (*window*)."""

    relation: str
    probe: int  # position looked up in the positional index; -1: scan
    probe_term: object  # the Const or bound Var at *probe*
    window: Optional[tuple]  # (lo, lo_open, hi, hi_open) on *probe*
    checked: Optional[itemgetter]  # the other such positions of a row
    checks: tuple  # the Const or bound Var at each of them
    repeated: Optional[itemgetter]  # later occurrences of new variables
    first_of: Optional[itemgetter]  # the first occurrence of each
    binds: tuple  # (variable, position) of each new variable
    predicates: tuple  # predicates whose variables are all bound here


# The comparisons a probe answers, each with its sides swapped.
_SWAPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _take_ready(preds: list, bound) -> tuple:
    """Remove from *preds*, in order, those whose variables are all bound,
    in one pass over *preds*."""
    if not preds:
        return ()
    ready, waiting = [], []
    for p in preds:
        (ready if p.variables() <= bound else waiting).append(p)
    preds[:] = waiting
    return tuple(ready)


def _comparisons(preds) -> dict:
    """variable -> [(op, value, predicate)] of each `Var op Const` or
    `Const op Var` comparison in *preds* that a probe could answer, the
    constant put on the right."""
    out: dict = {}
    for p in preds:
        op = p.op
        if op not in _SWAPPED:
            continue
        if isinstance(p.lhs, Var) and isinstance(p.rhs, Const):
            var, value = p.lhs, p.rhs.value
        elif isinstance(p.lhs, Const) and isinstance(p.rhs, Var):
            var, value, op = p.rhs, p.lhs.value, _SWAPPED[op]
        else:
            continue
        out.setdefault(var.name, []).append((op, value, p))
    return out


def _probe_preds(atom: Atom, positions: dict, comparisons: dict,
                 schema: Schema) -> list:
    """(position, op, value, predicate) of each of *comparisons* on a
    variable *atom* binds (*positions*: name -> first position) whose
    constant has that column's declared type.  The type is exact (int or
    str, never bool or float), so a sorted column or the positional index
    answers the comparison as `eval_predicate` would."""
    out = []
    for name, pos in positions.items():
        for op, value, p in comparisons.get(name, ()):
            if type(value) is _TYPES[
                    schema.relation(atom.relation).attributes[pos].type]:
                out.append((pos, op, value, p))
    return out


def _probe(found: list) -> tuple:
    """Position, equality term, window and answered predicates of the probe
    `_probe_preds` found: the first `=`, else the first lower and the first
    upper bound on the first position compared."""
    for pos, op, value, p in found:
        if op == "=":
            return pos, Const(value), None, (p,)
    pos = found[0][0]
    bounds, answered = {}, []  # bounds: '>' or '<' -> (value, strict)
    for at, op, value, p in found:
        if at == pos and op[0] not in bounds:
            bounds[op[0]] = (value, len(op) == 1)
            answered.append(p)
    unbounded = (None, False)
    return (pos, None, bounds.get(">", unbounded) + bounds.get("<", unbounded),
            tuple(answered))


def _score(atom: Atom, bound, comparisons: dict, schema: Schema) -> int:
    """Positions of *atom* holding a constant or a bound variable; 1 for an
    atom with none that a comparison lets probe one of its variables."""
    n = sum(isinstance(t, Const) or t.name in bound for t in atom.terms)
    if n or not comparisons:
        return n
    positions = {}
    for i, t in enumerate(atom.terms):
        positions.setdefault(t.name, i)
    return 1 if _probe_preds(atom, positions, comparisons, schema) else 0


def _plan(cq: ConjunctiveQuery, instance: Instance, bound) -> tuple:
    """Join plan: the predicates to test before any atom, then the steps.

    Atoms go most constrained first (`_score`), then fewest rows, then
    query order.  Which variables are bound depends only on the atoms
    already placed, so the order is fixed before any row is read.  A
    predicate runs at the first step that binds all its variables, unless
    that step's probe answers it (`_probe_preds`); one whose variables no
    atom binds runs at the end, where `eval_expr` rejects it.  A comparison
    on a variable an atom binds is still pending at that atom's step."""
    schema = instance.schema
    bound = set(bound)
    preds = list(cq.predicates)
    atoms = list(cq.atoms)
    first = _take_ready(preds, bound) if atoms else tuple(preds)
    comparisons = _comparisons(preds)
    steps = []
    while atoms:
        best_i, best_score = 0, (-1, 0)  # a lone atom needs no scoring
        for i, a in enumerate(atoms if len(atoms) > 1 else ()):
            score = (_score(a, bound, comparisons, schema),
                     -len(instance.rows_of(a.relation)))
            if score > best_score:
                best_i, best_score = i, score
        atom = atoms.pop(best_i)
        probe, probe_term, window = -1, None, None
        checks, repeats, new = {}, {}, {}
        for i, t in enumerate(atom.terms):
            if isinstance(t, Const) or t.name in bound:
                if probe < 0:
                    probe, probe_term = i, t
                else:
                    checks[i] = t
            elif t.name in new:
                repeats[i] = new[t.name]
            else:
                new[t.name] = i
        bound.update(new)
        ready = _take_ready(preds, bound)
        found = probe < 0 and _probe_preds(atom, new, comparisons, schema)
        if found:
            probe, probe_term, window, answered = _probe(found)
            ready = tuple(p for p in ready if p not in answered)
        if not atoms:
            ready += tuple(preds)
        steps.append(_Step(atom.relation, probe, probe_term, window,
                           _getter(checks), tuple(checks.values()),
                           _getter(repeats), _getter(repeats.values()),
                           tuple(new.items()), ready))
    return first, tuple(steps)


def _getter(positions) -> Optional[itemgetter]:
    """Reads *positions* of a row: one value, or a tuple of several."""
    return itemgetter(*positions) if positions else None


def _value(term, binding: dict):
    return term.value if isinstance(term, Const) else binding[term.name]


def _run(steps: tuple, k: int, instance: Instance, binding: dict,
         used: tuple):
    """Matches of steps k.. extending *binding*.  A module-level generator,
    so a run leaves no reference cycle behind for the collector."""
    (relation, probe, probe_term, window, checked, checks, repeated,
     first_of, binds, preds) = steps[k]
    if probe < 0:
        rows = instance.rows_of(relation)
    elif window is not None:
        rows = instance.rows_in_range(relation, probe, *window)
    else:
        rows = instance.rows_with_value(relation, probe,
                                        _value(probe_term, binding))
    if checked is not None:
        # the values *checked* reads off a matching row: same shape
        want = tuple(_value(t, binding) for t in checks)
        if len(want) == 1:
            want = want[0]
    last = k + 1 == len(steps)
    for row in rows:
        if checked is not None and checked(row) != want:
            continue
        if repeated is not None and repeated(row) != first_of(row):
            continue
        bnd = binding
        if binds:
            bnd = binding.copy()
            for name, i in binds:
                bnd[name] = row[i]
        if preds and not all(eval_predicate(p, bnd) for p in preds):
            continue
        facts = used + (Fact(relation, row),)
        if last:
            yield bnd, facts
        else:
            yield from _run(steps, k + 1, instance, bnd, facts)


def iter_matches(cq: ConjunctiveQuery, instance: Instance,
                 binding: Optional[dict] = None):
    """Enumerate homomorphisms of *cq* into *instance*.

    Yields (binding, used facts), the facts as a tuple in plan order.  A
    join plan is computed once per call (`_plan`): atoms go most
    constrained first, each probes the positional index on its first
    constant or bound position, and each predicate is tested as soon as its
    variables are bound.  An atom with no such position probes instead a
    variable it binds that a predicate compares with a constant of the
    column's exact declared type (int or str; never bool or float): the
    positional index for `=`, a bisected sorted column for a bound or a
    window, and the predicates the probe answers are not tested again.
    Every other predicate, a mistyped one included, is tested on each row,
    so it raises as `eval_predicate` does.  Variables already in *binding*
    count as bound.
    Every grounding (query lineage, answers, view materialization, which
    also grounds W, and per-world evaluation) runs through here.
    """
    binding = dict(binding) if binding else {}
    first, steps = _plan(cq, instance, binding)
    if first and not all(eval_predicate(p, binding) for p in first):
        return
    if not steps:
        yield binding, ()
        return
    yield from _run(steps, 0, instance, binding, ())


@dataclass(frozen=True)
class Lineage:
    """Monotone DNF over probabilistic tuple variables."""

    clauses: tuple[frozenset, ...]

    @staticmethod
    def normalize(clause_iter) -> "Lineage":
        """Each distinct clause once, in first-seen order.  No reader needs
        a canonical clause order: `obdd.from_lineage` sorts by rank."""
        return Lineage(tuple(dict.fromkeys(map(frozenset, clause_iter))))

    def variables(self) -> set[Fact]:
        out = set()
        for c in self.clauses:
            out |= c
        return out

    def holds(self, present) -> bool:
        return any(c <= present for c in self.clauses)


def lineage(q: Ucq, instance: Instance) -> Lineage:
    """Lineage of a Boolean UCQ in one grounding pass: one clause per
    homomorphism.  Deterministic facts are always present, so they are
    dropped from the clauses; a clause that becomes empty makes the
    lineage valid."""
    if not q.is_boolean():
        raise MvdbError("lineage is defined for Boolean queries")
    deterministic = instance.deterministic.__contains__
    return Lineage.normalize(
        frozenset(itertools.filterfalse(deterministic, used))
        for d in q.disjuncts for _, used in iter_matches(d, instance))


def answer_tuples(q: Ucq, instance: Instance) -> list[tuple]:
    """All head bindings with at least one homomorphism into *instance*."""
    out = set()
    for d in q.disjuncts:
        for bnd, _ in iter_matches(d, instance):
            out.add(tuple(bnd[v.name] for v in d.head))
    return sorted(out, key=lambda t: tuple((isinstance(v, str), v) for v in t))


# ---------------------------------------------------------------------------
# Substitution and separator analysis
# ---------------------------------------------------------------------------

def _subst_term(t, mapping: dict):
    if isinstance(t, Var) and t.name in mapping:
        return Const(mapping[t.name])
    return t


def _subst_expr(e, mapping: dict):
    if isinstance(e, Var):
        return Const(mapping[e.name]) if e.name in mapping else e
    if isinstance(e, Const):
        return e
    if isinstance(e, BinOp):
        return BinOp(e.op, _subst_expr(e.lhs, mapping), _subst_expr(e.rhs, mapping))
    if isinstance(e, Func):
        return Func(e.name, _subst_expr(e.arg, mapping))
    raise MvdbError(f"not an expression: {e!r}")


def _subst_cq(cq: ConjunctiveQuery, mapping: dict,
              extra_preds=()) -> ConjunctiveQuery:
    atoms = tuple(Atom(a.relation, tuple(_subst_term(t, mapping) for t in a.terms))
                  for a in cq.atoms)
    preds = tuple(Predicate(p.op, _subst_expr(p.lhs, mapping),
                            _subst_expr(p.rhs, mapping))
                  for p in cq.predicates) + tuple(extra_preds)
    head = tuple(v for v in cq.head if v.name not in mapping)
    return ConjunctiveQuery(head, atoms, preds)


def substitute(q: Ucq, answer: tuple) -> Ucq:
    """Replace the head variables with *answer*, producing a Boolean UCQ."""
    if len(answer) != q.head_arity:
        raise MvdbError(f"answer arity {len(answer)} != head arity "
                        f"{q.head_arity}")
    disjuncts = []
    for d in q.disjuncts:
        mapping, extra = {}, []
        for v, value in zip(d.head, answer):
            if v.name in mapping and mapping[v.name] != value:
                extra.append(Predicate("=", Const(mapping[v.name]), Const(value)))
            else:
                mapping[v.name] = value
        disjuncts.append(_subst_cq(d, mapping, extra))
    return Ucq(tuple(disjuncts))


def root_variables(cq: ConjunctiveQuery,
                   considered=None) -> set[str]:
    """Variables occurring in every atom of the disjunct.

    With *considered* (a set of relation names), only atoms over those
    relations take part; atoms over other relations cannot bind Boolean
    variables and act as filters.
    """
    atoms = [a for a in cq.atoms
             if considered is None or a.relation in considered]
    if not atoms:
        return set()
    roots = atoms[0].variables()
    for a in atoms[1:]:
        roots &= a.variables()
    return roots


@dataclass(frozen=True)
class Separator:
    """A unified root variable: one name per disjunct, one position per
    relation symbol among the variable-bearing atoms."""

    variables: tuple[str, ...]
    positions: dict


def variable_relations(schema: Schema) -> set[str]:
    """Relations whose atoms may bind Boolean variables."""
    return {r.name for r in schema.relations if r.kind != DETERMINISTIC}


def find_separator(q: Ucq, schema: Schema,
                   var_rels: Optional[set] = None) -> Optional[Separator]:
    """Search for a separator: a root variable per disjunct such that any two
    variable-bearing atoms with the same relation symbol carry it at the same
    attribute position.  Returns the lexicographically first choice.  A
    disjunct with no variable-bearing atom grounds only to empty clauses,
    so it splits no block and takes its root variables over all its atoms.
    """
    if var_rels is None:
        var_rels = variable_relations(schema)
    per_disjunct = []
    for d in q.disjuncts:
        roots = sorted(root_variables(d, considered=var_rels)
                       or root_variables(d))
        if not roots:
            return None
        per_disjunct.append(roots)
    for choice in itertools.product(*per_disjunct):
        positions: dict = {}
        ok = True
        for d, var in zip(q.disjuncts, choice):
            for a in d.atoms:
                if a.relation not in var_rels:
                    continue
                here = {i for i, t in enumerate(a.terms)
                        if isinstance(t, Var) and t.name == var}
                prev = positions.get(a.relation)
                common = here if prev is None else prev & here
                if not common:
                    ok = False
                    break
                positions[a.relation] = common
            if not ok:
                break
        if ok:
            return Separator(tuple(choice),
                             {r: min(ps) for r, ps in positions.items()})
    return None


def specialize_separator(q: Ucq, sep: Separator, constant) -> Ucq:
    """Q[constant / z]: substitute each disjunct's separator variable."""
    disjuncts = []
    for d, var in zip(q.disjuncts, sep.variables):
        disjuncts.append(_subst_cq(d, {var: constant}))
    return Ucq(tuple(disjuncts))
