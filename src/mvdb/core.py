"""Relational core: schemas, ground facts, weights, and database containers.

Weights follow the odds convention: a tuple with weight w has probability
w / (1 + w), so 0, 1 and infinity correspond to probabilities 0, 1/2 and 1.
Deterministic tuples carry weight infinity and never become Boolean
variables.  Databases are immutable after construction and safe to share
across threads.  A database interns its active domain on the first read of
`domain`; two racing first reads build equal domains, so the sharing stays
safe.
"""

from __future__ import annotations

import hashlib
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, groupby, islice, repeat
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterable, NamedTuple

INF = math.inf

DETERMINISTIC = "deterministic"
PROBABILISTIC = "probabilistic"
VIEW_AUX = "view-aux"

_KINDS = (DETERMINISTIC, PROBABILISTIC, VIEW_AUX)
_TYPES = {"int": int, "string": str}  # declared type -> Python type


class MvdbError(Exception):
    """Base class for all engine errors."""


class SchemaError(MvdbError):
    pass


class DataError(MvdbError):
    pass


class QueryParseError(MvdbError):
    def __init__(self, message, pos=None, line=None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif pos is not None:
            loc = f" (at position {pos})"
        super().__init__(message + loc)
        self.pos = pos
        self.line = line


class DegenerateWeightError(MvdbError):
    pass


class InvalidViewError(MvdbError):
    pass


class HardConstraintError(InvalidViewError):
    """A view weight of infinity has no translated counterpart."""


class InconsistentConstraintsError(MvdbError):
    """No world satisfies the hard constraints: the conditional is undefined."""


class WorldCapError(MvdbError):
    pass


class OrderMismatchError(MvdbError):
    pass


class IndexFormatError(MvdbError):
    pass


class UnrepresentableError(MvdbError):
    """A value asked for lies outside the float range."""


def weight_to_probability(w: float) -> float:
    """Map an odds weight to a (possibly negative) probability w/(1+w)."""
    if w == INF:
        return 1.0
    if w == -1.0:
        raise DegenerateWeightError("weight -1 has no finite probability")
    return w / (1.0 + w)


class Fact(NamedTuple):
    """A ground tuple.  Identity is the pair (relation, values)."""

    relation: str
    values: tuple

    def __str__(self):
        return "%s(%s)" % (self.relation, ",".join(repr(v) for v in self.values))


@dataclass(frozen=True)
class Attribute:
    name: str
    type: str


@dataclass(frozen=True)
class Relation:
    name: str
    attributes: tuple[Attribute, ...]
    key: tuple[str, ...]
    kind: str

    @property
    def arity(self) -> int:
        return len(self.attributes)


class Schema:
    """An ordered collection of relation declarations."""

    def __init__(self, relations: Iterable[Relation]):
        self.relations: tuple[Relation, ...] = tuple(relations)
        self._by_name: dict[str, Relation] = {}
        for i, rel in enumerate(self.relations):
            if rel.name in self._by_name:
                raise SchemaError(f"duplicate relation name {rel.name!r}")
            if rel.kind not in _KINDS:
                raise SchemaError(f"unknown relation kind {rel.kind!r}")
            if not rel.key and rel.attributes:
                raise SchemaError(f"relation {rel.name!r} has an empty key")
            attr_names = [a.name for a in rel.attributes]
            if len(set(attr_names)) != len(attr_names):
                raise SchemaError(f"duplicate attribute in {rel.name!r}")
            for a in rel.attributes:
                if a.type not in _TYPES:
                    raise SchemaError(f"unknown type {a.type!r} in {rel.name!r}")
            for k in rel.key:
                if k not in attr_names:
                    raise SchemaError(f"key attribute {k!r} not in {rel.name!r}")
            self._by_name[rel.name] = rel

    def relation(self, name: str) -> Relation:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def extended(self, extra: Iterable[Relation]) -> "Schema":
        """New schema with additional (view-auxiliary) relations appended."""
        return Schema(self.relations + tuple(extra))


class Domain:
    """Dense interning dictionary over *values*; active-domain order is
    the order of first occurrence."""

    def __init__(self, values=()):
        self._rank: dict = {v: i for i, v in
                            enumerate(dict.fromkeys(values))}

    def rank(self, value) -> int:
        try:
            return self._rank[value]
        except KeyError:
            raise DataError(f"constant {value!r} not in active domain") from None

    def ranks(self, values) -> list[int]:
        """`rank` of each of *values*, in one C-level pass."""
        try:
            return list(map(self._rank.__getitem__, values))
        except KeyError as exc:
            raise DataError(f"constant {exc.args[0]!r} not in active "
                            "domain") from None

    def __contains__(self, value) -> bool:
        return value in self._rank

    def __len__(self) -> int:
        return len(self._rank)


class Instance:
    """A deterministic instance: all listed facts are present.

    Tracks which facts are deterministic (always present in every world of
    the owning database) so lineage computation can drop them from clauses.
    It keeps the facts it was given, each once in first-seen order, and
    hands out those objects themselves: per relation (`facts_of`), grouped
    by their value at a position (`facts_by_value`), or in a range of such
    values (`facts_in_range`).  A row is a fact's `values`, so only facts
    are indexed; each index is built on its first use.
    """

    def __init__(self, schema: Schema, facts: Iterable[Fact],
                 deterministic: Iterable[Fact] = ()):
        self.schema = schema
        self._facts: dict[Fact, None] = dict.fromkeys(facts)
        self._facts_of: dict[str, list[Fact]] = {
            r.name: [] for r in schema.relations}
        # Facts mostly arrive in runs of one relation: extend by runs.
        for relation, run in groupby(self._facts, itemgetter(0)):
            try:
                self._facts_of[relation].extend(run)
            except KeyError:
                raise SchemaError(f"unknown relation {relation!r}") from None
        self.deterministic: frozenset[Fact] = frozenset(deterministic)
        self._by_value: dict[tuple[str, int], dict] = {}
        self._sorted: dict[tuple[str, int], tuple] = {}
        self._kinds: dict[str, str] = {}
        self._det_relations: set | None = None

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    @property
    def facts(self) -> frozenset:
        return frozenset(self._facts)

    def facts_of(self, relation: str) -> list[Fact]:
        """The facts of *relation*, in first-seen order."""
        try:
            return self._facts_of[relation]
        except KeyError:
            raise SchemaError(f"unknown relation {relation!r}") from None

    def deterministic_kind(self, relation: str) -> str:
        """``"none"`` when no fact of *relation* is deterministic, ``"all"``
        when every one is, else ``"some"``; decided on first use, from the
        relation's own facts."""
        kind = self._kinds.get(relation)
        if kind is None:
            if self._det_relations is None:
                self._det_relations = set(map(itemgetter(0),
                                              self.deterministic))
            facts = self.facts_of(relation)
            kind = ("none" if relation not in self._det_relations
                    or self.deterministic.isdisjoint(facts) else
                    "all" if self.deterministic.issuperset(facts) else
                    "some")
            self._kinds[relation] = kind
        return kind

    def facts_by_value(self, relation: str, pos: int) -> dict:
        """The facts of *relation* grouped by their value at *pos*: value ->
        its facts, each group in the order of `facts_of`."""
        key = (relation, pos)
        idx = self._by_value.get(key)
        if idx is None:
            idx = {}
            for fact in self.facts_of(relation):
                idx.setdefault(fact[1][pos], []).append(fact)
            self._by_value[key] = idx
        return idx

    def facts_in_range(self, relation: str, pos: int, lo, lo_open: bool,
                       hi, hi_open: bool) -> list[Fact]:
        """The facts of *relation* whose value at *pos* lies between *lo*
        and *hi*, each bound excluded when its flag is set and ignored when
        None, in the order of a stable sort of `facts_of` by that value.
        The bounds must compare with the column's values."""
        key = (relation, pos)
        found = self._sorted.get(key)
        if found is None:
            facts = sorted(self.facts_of(relation), key=lambda f: f[1][pos])
            found = self._sorted[key] = facts, [f[1][pos] for f in facts]
        facts, column = found
        return facts[_bounds(column, lo, lo_open, hi, hi_open)]


def _bounds(column: list, lo, lo_open: bool, hi, hi_open: bool) -> slice:
    """The slice of the sorted *column* that holds the values between *lo*
    and *hi*, each bound as `Instance.facts_in_range` reads it."""
    start = 0 if lo is None else (bisect_right if lo_open else
                                  bisect_left)(column, lo)
    stop = len(column) if hi is None else (bisect_left if hi_open else
                                           bisect_right)(column, hi)
    return slice(start, stop)


def _runs(names: list) -> list:
    """``(start, stop)`` of each run of equal consecutive *names*."""
    starts = list(compress(range(len(names)),
                           map(ne, names, [None, *names])))
    return list(zip(starts, [*starts[1:], len(names)]))


class _Database:
    """Shared container logic for weighted-tuple databases."""

    def __init__(self, schema: Schema, weighted_facts, views=(),
                 checked: dict | None = None):
        """*checked*, a ``{fact: weight}`` dict whose facts have passed
        this class's checks or stricter ones, leads the weights as it is;
        only *weighted_facts* are checked, in load order."""
        self.schema = schema
        self.views = tuple(views)
        self.weights: dict[Fact, float] = ({} if checked is None
                                           else checked.copy())
        self._domain: Domain | None = None
        weighted = list(weighted_facts)
        facts = list(map(itemgetter(0), weighted))
        weights = list(map(itemgetter(1), weighted))
        # Facts arrive in runs of one relation: resolve and check each run
        # as a whole, in load order.
        names = list(map(itemgetter(0), facts))
        for start, stop in _runs(names):
            self._add_run(schema.relation(names[start]), facts[start:stop],
                          weights[start:stop])

    def _add_run(self, rel: Relation, facts: list, weights: list):
        """Check a run of facts of *rel* column by column while adding it.

        A fact is checked for its arity, its value types (exactly int or
        str), being a duplicate of an earlier fact, and its weight, in that
        order.  On a defect this raises the error of the first defective
        fact: each check reads only the facts in front of the first defect
        an earlier check found."""
        error = None
        end = len(facts)
        values = list(map(itemgetter(1), facts))
        if set(map(len, values)) != {rel.arity}:
            end = next(i for i, v in enumerate(values) if len(v) != rel.arity)
            error = DataError(f"{facts[end]} has arity {len(values[end])}, "
                              f"expected {rel.arity}")
        for attr, column in zip(rel.attributes, zip(*values[:end])):
            t = _TYPES[attr.type]
            if not {t}.issuperset(map(type, column[:end])):
                end = next(i for i, v in enumerate(column) if type(v) is not t)
                error = DataError(f"{facts[end]}: attribute {attr.name} "
                                  f"expects {attr.type}")
        known = len(self.weights)
        self.weights.update(zip(facts[:end], weights))
        if len(self.weights) != known + end:
            # The facts of earlier runs lead the dict; `set.add` is None.
            seen = set(islice(self.weights, known))
            end = next(i for i, fact in enumerate(facts)
                       if fact in seen or seen.add(fact))
            error = DataError(f"duplicate possible tuple {facts[end]}")
        if not self._weights_ok(rel, weights[:end]):
            for fact, w in zip(facts, weights):
                self._check_weight(rel, fact, w)
        if error is not None:
            raise error

    def _weights_ok(self, rel: Relation, weights: list) -> bool:
        """True when no weight in *weights* fails `_check_weight`."""
        raise NotImplementedError

    def _check_weight(self, rel: Relation, fact: Fact, w: float):
        raise NotImplementedError

    @property
    def domain(self) -> Domain:
        """The active domain, interned on first read: every value of every
        possible tuple, in load order."""
        domain = self._domain
        if domain is None:
            domain = self._domain = Domain(
                chain.from_iterable(map(itemgetter(1), self.weights)))
        return domain

    def probabilistic_facts(self) -> list[Fact]:
        """Possible tuples that are genuine random variables (finite weight)."""
        return [f for f, w in self.weights.items() if w != INF]

    def deterministic_facts(self) -> list[Fact]:
        return [f for f, w in self.weights.items() if w == INF]

    def possible_instance(self) -> Instance:
        """All possible tuples as a deterministic instance, weights forgotten."""
        return Instance(self.schema, self.weights.keys(),
                        deterministic=self.deterministic_facts())


# The `Mvdb.digest` of a database built in memory: no project's digest, as
# that is a sha256 of the files a project holds (`ProjectFiles`).
MEMORY_DIGEST = "0" * 64


class Mvdb(_Database):
    """Possible tuples with weights in [0, inf] plus correlation views.

    *digest* names its source for a compiled index's staleness check: the
    `ProjectFiles.digest` of the project it was read from, or
    `MEMORY_DIGEST`."""

    def __init__(self, schema: Schema, weighted_facts, views=(),
                 digest: str = MEMORY_DIGEST):
        super().__init__(schema, weighted_facts, views)
        self.digest = digest

    def _weights_ok(self, rel, weights):
        return (not any(map(math.isnan, weights))
                and min(weights, default=0.0) >= 0
                and (rel.kind != DETERMINISTIC
                     or weights.count(INF) == len(weights)))

    def _check_weight(self, rel, fact, w):
        if math.isnan(w) or w < 0:
            raise DataError(f"{fact}: weight must be in [0, inf], got {w!r}")
        if rel.kind == DETERMINISTIC and w != INF:
            raise DataError(f"{fact}: deterministic relation requires weight inf")

class Indb(_Database):
    """Tuple-independent database with signed weights; p = w/(1+w).

    The translation builds it as ``Indb(schema, aux, checked=db.weights)``:
    the `Mvdb`'s possible tuples lead, with their weights and in load
    order, and are not checked again, since `Mvdb` checked them under
    stricter rules (no weight is negative or NaN); only the auxiliary
    tuples are checked, each against every fact in front of it."""

    def _weights_ok(self, rel, weights):
        return not any(map(math.isnan, weights)) and -1.0 not in weights

    def _check_weight(self, rel, fact, w):
        if math.isnan(w):
            raise DataError(f"{fact}: weight is NaN")
        if w == -1.0:
            raise DegenerateWeightError(f"{fact}: weight -1 is degenerate")

    def probability(self, fact: Fact) -> float:
        return weight_to_probability(self.weights[fact])


_RELATION_RE = re.compile(
    r"^relation\s+(\w+)\s*\(([^)]*)\)\s*key\s*\(([^)]*)\)\s*(\w[\w-]*)\s*$")


def parse_schema(text: str) -> Schema:
    """Parse the one-line-per-relation schema format."""
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _RELATION_RE.match(line)
        if not m:
            raise SchemaError(f"line {lineno}: cannot parse {line!r}")
        name, attrs_s, key_s, kind = m.groups()
        if kind == VIEW_AUX:
            raise SchemaError(
                f"line {lineno}: {VIEW_AUX} relations cannot be declared")
        attrs = []
        for part in attrs_s.split(","):
            part = part.strip()
            if ":" not in part:
                raise SchemaError(f"line {lineno}: bad attribute {part!r}")
            aname, atype = (s.strip() for s in part.split(":", 1))
            attrs.append(Attribute(aname, atype))
        key = tuple(s.strip() for s in key_s.split(",") if s.strip())
        relations.append(Relation(name, tuple(attrs), key, kind))
    return Schema(relations)


def _decode(data: bytes, path, error: type) -> str:
    """The bytes *data* of the input file *path* as UTF-8 text; bad bytes
    raise *error* naming the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from None


def read_text(path: Path | str, error: type) -> str:
    """The UTF-8 text of an input file; bad bytes raise *error* naming it."""
    return _decode(Path(path).read_bytes(), path, error)


def load_schema(path: Path | str) -> Schema:
    return parse_schema(read_text(path, SchemaError))


def _first_defect(rel: Relation, lines: list[str], where: str) -> DataError:
    """The error of the first defective line of a data file, in line
    order: a ``#`` line with a row's field count, a row with the wrong
    field count, an int field `int` rejects, or a weight `float`
    rejects."""
    ncols = rel.arity + 1
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        cols = raw.split("\t")
        if raw.startswith("#"):
            if len(cols) == ncols:
                return DataError(f"{where} line {lineno}: starts with '#' "
                                 f"but has the {ncols} columns of a row")
            continue
        if len(cols) != ncols:
            return DataError(f"{where} line {lineno}: expected "
                             f"{ncols} columns, got {len(cols)}")
        for attr, tok in zip(rel.attributes, cols):
            if attr.type == "int":
                try:
                    int(tok)
                except ValueError:
                    return DataError(f"{where} line {lineno}: expected int "
                                     f"for {attr.name}, got {tok!r}")
        wtok = cols[-1].strip()
        try:
            float(wtok)
        except ValueError:
            return DataError(f"{where} line {lineno}: bad weight {wtok!r}")
    raise MvdbError(f"internal error: {where} has no defective line")


def parse_data_file(rel: Relation, text: str, where: str = "<data>"):
    """Parse a TSV data file: constant columns then a final weight column.

    Blank lines are skipped, and so is a comment: a line that starts with
    ``#`` and does not split into a row's arity + 1 tab-separated fields.
    A ``#`` line that does is an error, so a row's first field cannot start
    with ``#``.  The rows are converted column by column, one `map` per
    column; on any defect the lines are read again in order
    (`_first_defect`), so the error names the first defective line."""
    lines = text.splitlines()
    rows = [raw.split("\t") for raw in lines
            if raw.strip() and raw[0] != "#"]
    ncols = rel.arity + 1
    ok = set(map(len, rows)) <= {ncols} and not (
        "#" in text and any(raw.count("\t") == rel.arity
                            for raw in lines if raw.startswith("#")))
    if ok:
        *columns, weights = zip(*rows) if rows else [()] * ncols
        try:
            columns = [col if attr.type == "string" else list(map(int, col))
                       for attr, col in zip(rel.attributes, columns)]
            weights = list(map(float, weights))
        except ValueError:
            ok = False
    if not ok:
        raise _first_defect(rel, lines, where)
    facts = map(tuple.__new__, repeat(Fact),
                zip(repeat(rel.name), zip(*columns)))
    return list(zip(facts, weights))


def load_data(schema: Schema, data_dir: Path | str):
    """Load one TSV per relation from *data_dir*; missing files mean empty."""
    data_dir = Path(data_dir)
    weighted = []
    for rel in schema.relations:
        path = data_dir / f"{rel.name}.tsv"
        if not path.exists():
            continue
        weighted.extend(parse_data_file(rel, read_text(path, DataError),
                                        str(path)))
    return weighted


class ProjectFiles:
    """The input files of a project directory, each read once: its
    ``schema.txt``, its ``views.txt`` if present, and the
    ``data/<Relation>.tsv`` of every relation of the schema that has one (a
    missing one means an empty relation), in schema order.

    `digest` is the sha256 of what was read: each file's path relative to
    the project, its length and its bytes, in that order.  So any edit of
    a byte, whitespace included, and adding or removing a file change it,
    and the compiler and the online path hash the same bytes without
    parsing them.  The schema is parsed as it is read, since it names the
    data files; the views and the data are decoded and parsed on demand,
    each file's errors naming it."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        h = hashlib.sha256()

        def read(name: str) -> bytes:
            data = (self.root / name).read_bytes()
            h.update(b"%s\0%d\0" % (name.encode(), len(data)))
            h.update(data)
            return data

        self.schema = parse_schema(_decode(read("schema.txt"),
                                           self.root / "schema.txt",
                                           SchemaError))
        self._views = (read("views.txt")
                       if (self.root / "views.txt").exists() else None)
        self._data = {rel.name: read(f"data/{rel.name}.tsv")
                      for rel in self.schema.relations
                      if (self.root / "data" / f"{rel.name}.tsv").exists()}
        self.digest = h.hexdigest()

    def views_text(self) -> str:
        """The text of ``views.txt``; empty without one."""
        if self._views is None:
            return ""
        return _decode(self._views, self.root / "views.txt",
                       InvalidViewError)

    def weighted(self, rel: Relation) -> list:
        """`parse_data_file` of *rel*'s TSV; empty without one."""
        data = self._data.get(rel.name)
        if data is None:
            return []
        path = self.root / "data" / f"{rel.name}.tsv"
        return parse_data_file(rel, _decode(data, path, DataError), str(path))
