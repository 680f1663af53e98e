"""Unions of conjunctive queries: AST, parser, grounding, and lineage.

Surface syntax is datalog-style, one query per string::

    Q(x) :- R(x), S(x, y), y != 'b1' ; T(x)

Disjuncts are separated by ``;``.  Variables are lowercase identifiers,
constants are quoted strings or integer literals.  Parsed queries and
lineages are immutable values and safe to share across threads.

Grounding runs each conjunctive query through one join engine: a join
plan (`join_plan`) computed once per call, so a query costs the facts its
atoms read, not a rescoring of every remaining atom at every step, and
leaves no reference cycles for the garbage collector.  The plan reads each
atom's candidate facts off the instance's one fact index once: those with
a constant at a position (`Instance.facts_by_value`), in a window
(`Instance.facts_in_range`), or all of them; an atom on a variable bound
earlier looks its value up per partial match.  An atom with neither
probes one of its own variables that a predicate compares with a constant
of the column's declared type (an int for an int column, a str for a
string one): `=` by value, `<`, `<=`, `>`, `>=` by bisecting the sorted
facts, so a window query reads only the facts in its window.

The plan runs over binding *slots*: a partial match is one tuple holding
the row (`Fact.values`) of each atom it has joined and, when asked, its
fact, each variable at a slot the plan fixes, and the plan's predicates
are compiled once into closures over such tuples (`compile_expr`).  A
match yields the instance's own fact objects.  `lineage`, `answer_tuples`
and the views' materialization (`translate.materialize_view`, which also
grounds W) read the slots directly.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import partial
from itertools import filterfalse
from operator import (add, ge, gt, is_, itemgetter, le, lt, mul, sub,
                      truediv)
from typing import Callable, NamedTuple, Optional

from .core import _TYPES, Instance, MvdbError, QueryParseError, Schema

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


def _as_number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MvdbError(f"expected a number, got {v!r}")
    return v


# A join plan (`join_plan`) holds a binding as a tuple of *slots*, and
# compiles each expression once into a closure over such a tuple, given
# *slots*, the slot of each bound variable's name.  A compiled expression
# returns what the expression evaluates to under the binding the tuple
# holds, or raises `MvdbError`; a compiled predicate does the same.  The
# tests keep the interpreted evaluators (`helpers.eval_expr` and
# `helpers.eval_predicate`) as the reference semantics: the same values,
# and the same messages raised at the same points.

_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": truediv}
_ORDER = {"<": lt, "<=": le, ">": gt, ">=": ge}


def _raiser(message: str):
    """A compiled expression that raises `MvdbError` with *message*."""
    def fail(t):
        raise MvdbError(message)
    return fail


def compile_expr(expr, slots: dict):
    """*expr* as a callable of a slot tuple."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda t: value
    if isinstance(expr, Var):
        slot = slots.get(expr.name)
        if slot is None:
            return _raiser(f"unbound variable {expr.name!r}")
        return itemgetter(slot)
    if isinstance(expr, Func):
        if expr.name != "exp":
            return _raiser(f"unknown function {expr.name!r}")
        arg = _compile_number(expr.arg, slots)

        def exp(t):
            try:
                return math.exp(arg(t))
            except OverflowError:
                return math.inf
        return exp
    if isinstance(expr, BinOp):
        lhs = _compile_number(expr.lhs, slots)
        rhs = _compile_number(expr.rhs, slots)
        fn = _ARITHMETIC.get(expr.op)
        if fn is None:
            def unknown(t):
                lhs(t)
                rhs(t)
                raise MvdbError(f"unknown operator {expr.op!r}")
            return unknown

        def arithmetic(t):
            a = lhs(t)
            b = rhs(t)
            try:
                return fn(a, b)
            except (ZeroDivisionError, OverflowError) as exc:
                raise MvdbError(
                    f"cannot evaluate {_expr_str(expr)}: {exc}") from None
        return arithmetic
    return _raiser(f"not an expression: {expr!r}")


def _compile_number(expr, slots: dict):
    """`compile_expr` of *expr*, its value checked by `_as_number`."""
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return _raiser(f"expected a number, got {value!r}")
        return lambda t: value
    value_of = compile_expr(expr, slots)

    def number(t):
        v = value_of(t)
        return v if v.__class__ is float or v.__class__ is int \
            else _as_number(v)
    return number


def _compile_predicate(pred: Predicate, slots: dict):
    """*pred* as a callable of a slot tuple."""
    op = pred.op
    i = slots.get(pred.lhs.name) if isinstance(pred.lhs, Var) else None
    j = slots.get(pred.rhs.name) if isinstance(pred.rhs, Var) else None
    if i is not None and j is not None:  # two bound variables
        if op == "=":
            return lambda t: t[i] == t[j]
        if op == "!=":
            return lambda t: t[i] != t[j]
    lhs = compile_expr(pred.lhs, slots)
    rhs = compile_expr(pred.rhs, slots)
    if op == "=":
        return lambda t: lhs(t) == rhs(t)
    if op == "!=":
        return lambda t: lhs(t) != rhs(t)
    cmp = _ORDER.get(op)
    if cmp is not None:
        def order(t):
            a = lhs(t)
            b = rhs(t)
            try:
                return cmp(a, b)
            except TypeError:
                raise MvdbError(
                    f"type mismatch comparing {a!r} and {b!r}") from None
        return order
    if op == "contains":
        def contains(t):
            a = lhs(t)
            b = rhs(t)
            if not isinstance(a, str) or not isinstance(b, str):
                raise MvdbError("contains expects string operands")
            return b in a
        return contains

    def unknown(t):
        lhs(t)
        rhs(t)
        raise MvdbError(f"unknown comparison {op!r}")
    return unknown


def _all_of(preds, slots: dict):
    """*preds*, compiled over *slots*, as one callable testing each in
    order and stopping at the first false one."""
    tests = [_compile_predicate(p, slots) for p in preds]
    if len(tests) == 1:
        return tests[0]

    def all_of(t):
        for test in tests:
            if not test(t):
                return False
        return True
    return all_of


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

# Which facts a join plan keeps in its slot tuples (`join_plan`).
NO_FACTS = 0  # none
ALL_FACTS = 1  # every atom's fact
VARIABLE_FACTS = 2  # the non-deterministic ones: a clause of the lineage


class _Step(NamedTuple):
    """One atom of a join plan, resolved against the slots filled before it
    runs.  Every position holds a constant or a variable bound earlier
    (the first such position is the probe, the others are *checked*; *want*
    reads what they must hold off the slots), or a variable the atom binds
    (its first occurrence, any later one in *repeated*).  The plan fixes
    the candidate *facts* for a scan, a constant probe, or a probe of one
    of the atom's own variables (an `=` on a constant or a window); on a
    bound variable, *facts* is its position's `Instance.facts_by_value`,
    read at *probe_slot* per slot tuple.  A fact that passes extends the
    slot tuple by its whole row if the atom *binds* a variable (the
    variable's slot is its first position's), then by the fact itself if
    the step *keeps* it."""

    relation: str
    facts: object  # the candidate facts, or a dict of them by value
    probe_slot: int  # the slot of the bound variable probed, else -1
    checked: Optional[itemgetter]  # the other such positions of a row
    want: Optional[itemgetter]  # the slots those positions must equal
    repeated: Optional[itemgetter]  # later occurrences of new variables
    first_of: Optional[itemgetter]  # the first occurrence of each
    binds: bool  # whether the atom binds a variable
    keeps: bool  # whether the slot tuple keeps the fact
    test: Optional[Callable]  # the predicates ready here, compiled


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
    str, never bool or float), so the instance's facts sorted or grouped by
    that position answer the comparison as its compiled test would."""
    out = []
    attributes = None
    for name, pos in positions.items():
        compared = comparisons.get(name)
        if not compared:
            continue
        if attributes is None:
            attributes = schema.relation(atom.relation).attributes
        column = _TYPES[attributes[pos].type]
        for op, value, p in compared:
            if type(value) is column:
                out.append((pos, op, value, p))
    return out


def _probe(found: list) -> tuple:
    """Position, equal value, window and answered predicates of the probe
    `_probe_preds` found: the first `=`, else the first lower and the first
    upper bound on the first position compared."""
    for pos, op, value, p in found:
        if op == "=":
            return pos, value, None, (p,)
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
    n = 0
    for t in atom.terms:
        if isinstance(t, Const) or t.name in bound:
            n += 1
    if n or not comparisons:
        return n
    positions = {}
    for i, t in enumerate(atom.terms):
        positions.setdefault(t.name, i)
    return 1 if _probe_preds(atom, positions, comparisons, schema) else 0


class JoinPlan(NamedTuple):
    """A conjunctive query's join plan over one instance (`join_plan`),
    which holds the facts its steps read.

    A binding is a tuple of slots: the given binding's values, then, step
    by step, the step's row if it binds a variable (a variable's slot is
    its first position's) and, if the step keeps it, the step's fact."""

    start: tuple  # the slots before the first step
    first: Optional[Callable]  # the predicates to test before any atom
    steps: tuple  # the `_Step` of each atom, in join order
    slots: dict  # variable name -> slot: the binding's, then in join order
    facts: Callable  # the facts of a match, in join order (`join_plan`)
    kept: list  # the slot of each fact a match keeps, in join order

    def run(self, emit) -> None:
        """Call *emit* with the slot tuple of every match, in plan order:
        depth first, each step's facts in the order the instance hands
        them out."""
        start, first, steps = self[:3]
        if first is not None and not first(start):
            return
        if not steps:
            emit(start)
            return
        nxt = emit
        for step in steps[:0:-1]:
            nxt = partial(_extend, step, nxt)
        _extend(steps[0], nxt, start)

    def matches(self) -> list:
        """The slot tuple of every match, in plan order."""
        out: list = []
        self.run(out.append)
        return out

    def repeats(self) -> Optional[Callable]:
        """The test of whether a slot tuple holds one fact object at two of
        its kept slots, or None when no two of them are over one relation.
        The instance hands out its own facts, so one fact is one object,
        and only steps over one relation can share it: the test compares
        those slots' pairs alone."""
        kept = zip(self.kept, [s.relation for s in self.steps if s.keeps])
        pairs = [(a, b) for (a, ra), (b, rb)
                 in itertools.combinations(kept, 2) if ra == rb]
        if not pairs:
            return None
        if len(pairs) == 1:  # a self-join of two atoms
            (a, b), = pairs
            return lambda t: t[a] is t[b]
        left = _tuple_getter([a for a, _ in pairs])
        right = _tuple_getter([b for _, b in pairs])
        return lambda t: any(map(is_, left(t), right(t)))

    def getter(self, names):
        """Reads the values of the variables *names* off a slot tuple, as a
        tuple."""
        return _tuple_getter([self.slots[name] for name in names])


def _tuple_getter(positions):
    """Reads *positions* of a tuple, always as a tuple."""
    if len(positions) == 1:
        i, = positions
        return itemgetter(slice(i, i + 1))
    return itemgetter(*positions) if positions else lambda t: ()


def _extend(step: _Step, nxt, t: tuple) -> None:
    """Extend the slot tuple *t* by each fact of *step* that matches it,
    and call *nxt* with each extension.  A plain function, so a join leaves
    no reference cycle behind for the collector."""
    (_, facts, probe_slot, checked, want, repeated, first_of, binds, keeps,
     test) = step
    if probe_slot >= 0:
        facts = facts.get(t[probe_slot])
        if facts is None:
            return
    if checked is not None:
        wanted = want(t)
    for f in facts:
        row = f[1]
        if checked is not None and checked(row) != wanted:
            continue
        if repeated is not None and repeated(row) != first_of(row):
            continue
        u = t + row if binds else t
        if keeps:
            u += (f,)
        if test is None or test(u):
            nxt(u)


def join_plan(cq: ConjunctiveQuery, instance: Instance,
              binding: Optional[dict] = None,
              facts: int = NO_FACTS) -> JoinPlan:
    """Join plan of *cq* over *instance*: the predicates to test before any
    atom, then the steps, over slot tuples (`JoinPlan`).

    Atoms go most constrained first (`_score`), then fewest facts, then
    query order.  Which variables are bound depends only on the atoms
    already placed, so the order is fixed before the join runs.  A
    predicate runs at the first step that binds all its variables, unless
    that step's probe answers it (`_probe_preds`); one whose variables no
    atom binds runs at the end, where its compiled form raises on the
    unbound variable.  A comparison on a variable an atom binds is still
    pending at that atom's step.  The predicates of a step are compiled
    once, into one test of the slot tuple the step extends.  Each step's
    candidate facts are read from the instance while the plan is made, or,
    on a bound variable, the dict they are looked up in (`_Step`); so an
    unknown relation raises `SchemaError` here.  Variables in *binding*
    count as bound, and its values fill the first slots.  *facts* says
    which facts each match keeps: `NO_FACTS`, `ALL_FACTS`, or
    `VARIABLE_FACTS`, the non-deterministic ones.  Under `VARIABLE_FACTS`
    a relation's facts are kept unless all are deterministic
    (`Instance.deterministic_kind`); where a relation holds both kinds,
    `JoinPlan.facts` drops the deterministic ones from a match.
    `JoinPlan.repeats` tests whether a match keeps one fact at two
    steps."""
    schema = instance.schema
    if binding:
        bound = set(binding)
        slots = dict(zip(binding, range(len(binding))))
        start = tuple(binding.values())
    else:
        bound, slots, start = set(), {}, ()
    preds = list(cq.predicates)
    atoms = list(cq.atoms)
    before = _take_ready(preds, bound) if atoms else tuple(preds)
    first = _all_of(before, slots) if before else None
    comparisons = _comparisons(preds) if preds else {}
    width = len(start)  # the slots filled before the step being planned
    steps, fact_slots, some = [], [], False
    while atoms:
        best_i, best_score = 0, (-1, 0)  # a lone atom needs no scoring
        for i, a in enumerate(atoms if len(atoms) > 1 else ()):
            score = (_score(a, bound, comparisons, schema),
                     -len(instance.facts_of(a.relation)))
            if score > best_score:
                best_i, best_score = i, score
        atom = atoms.pop(best_i)
        probe, probe_slot, value, window = -1, -1, None, None
        checks, want, repeats, new = [], [], {}, {}
        for i, t in enumerate(atom.terms):
            if isinstance(t, Const) or t.name in bound:
                if probe >= 0:
                    checks.append(i)
                    want.append(t)
                elif isinstance(t, Const):
                    probe, value = i, t.value
                else:
                    probe, probe_slot = i, slots[t.name]
            elif t.name in new:
                repeats[i] = new[t.name]
            else:
                new[t.name] = i
        bound.update(new)
        ready = _take_ready(preds, bound) if preds else ()
        found = (probe < 0 and comparisons
                 and _probe_preds(atom, new, comparisons, schema))
        if found:
            probe, value, window, answered = _probe(found)
            ready = [p for p in ready if p not in answered]
        if preds and not atoms:
            ready = [*ready, *preds]
        if new:  # the slots of the row's values
            for name, i in new.items():
                slots[name] = width + i
            width += len(atom.terms)
        keeps = facts != NO_FACTS
        if facts == VARIABLE_FACTS and instance.deterministic:
            kind = instance.deterministic_kind(atom.relation)
            keeps = kind != "all"
            some = some or kind == "some"
        if keeps:
            fact_slots.append(width)
            width += 1
        relation = atom.relation
        if window is not None:
            candidates = instance.facts_in_range(relation, probe, *window)
        elif probe < 0:
            candidates = instance.facts_of(relation)
        else:
            candidates = instance.facts_by_value(relation, probe)
            if probe_slot < 0:  # a constant: its facts, fixed here
                candidates = candidates.get(value, ())
        # A NamedTuple's own constructor is a Python call: build the tuple.
        steps.append(tuple.__new__(_Step, (
            relation, candidates, probe_slot,
            itemgetter(*checks) if checks else None,
            _want(want, slots) if want else None,
            itemgetter(*repeats) if repeats else None,
            itemgetter(*repeats.values()) if repeats else None,
            True if new else False, keeps,
            _all_of(ready, slots) if ready else None)))
    read = _tuple_getter(fact_slots)
    if some:  # drop the deterministic facts of a match
        det = instance.deterministic.__contains__
        return JoinPlan(start, first, tuple(steps), slots,
                        lambda t: tuple(filterfalse(det, read(t))),
                        fact_slots)
    return JoinPlan(start, first, tuple(steps), slots, read, fact_slots)


def _want(terms: list, slots: dict):
    """Reads the values *terms* (constants or bound variables) require of
    a row's checked positions off a slot tuple: one value, or a tuple of
    several."""
    at = [None if isinstance(x, Const) else slots[x.name] for x in terms]
    if None not in at:
        return itemgetter(*at)
    if len(terms) == 1:
        value = terms[0].value
        return lambda t: value
    values = [x.value if isinstance(x, Const) else None for x in terms]
    return lambda t: tuple(v if i is None else t[i]
                           for i, v in zip(at, values))


@dataclass(frozen=True)
class Lineage:
    """Monotone DNF over probabilistic tuple variables."""

    clauses: tuple[frozenset, ...]

    @staticmethod
    def normalize(clause_iter) -> "Lineage":
        """Each distinct clause once, in first-seen order.  No reader needs
        a canonical clause order: `obdd.from_lineage` sorts by rank."""
        return Lineage(tuple(dict.fromkeys(map(frozenset, clause_iter))))


def lineage(q: Ucq, instance: Instance) -> Lineage:
    """Lineage of a Boolean UCQ in one grounding pass: one clause per
    homomorphism, of the instance's own facts.  Deterministic facts are
    always present, so they are left out of the clauses; a clause that
    becomes empty makes the lineage valid."""
    if not q.is_boolean():
        raise MvdbError("lineage is defined for Boolean queries")
    clauses: list = []
    for d in q.disjuncts:
        plan = join_plan(d, instance, None, VARIABLE_FACTS)
        clauses += map(frozenset, map(plan.facts, plan.matches()))
    return Lineage.normalize(clauses)


def answer_tuples(q: Ucq, instance: Instance) -> list[tuple]:
    """All head bindings with at least one homomorphism into *instance*."""
    out = set()
    for d in q.disjuncts:
        plan = join_plan(d, instance)
        out.update(map(plan.getter([v.name for v in d.head]),
                       plan.matches()))
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


def find_separator(q: Ucq, var_rels: set) -> Optional[Separator]:
    """Search for a separator: a root variable per disjunct such that any two
    variable-bearing atoms (those over the relations *var_rels*) with the
    same relation symbol carry it at the same attribute position.  Returns
    the lexicographically first choice.  A disjunct with no
    variable-bearing atom grounds only to empty clauses, so it splits no
    block and takes its root variables over all its atoms.
    """
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
