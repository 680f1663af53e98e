"""The benchmark's two workloads: project, query rounds, and answer checks.

Queries are issued in rounds.  A round is a stratified sample of the
workload's query mix (about one answer query per nine Boolean queries), and
a run only ever measures whole rounds, so every percentile falls at the same
place in the mix on every run and seed.

* `dblp`: ``generate_project(seed, scale=2000, views=("v1", "v2"))``.  W is
  separable into one small constituent per student, so the intersection's
  walk past the constituents in front of the query, translation over 12k
  tuples and `.mvx` load dominate.  The scale stays below the point where
  P0(not W) underflows to 0.0 (about 6,200 students at seed 1), where every
  query would fail with "inconsistent constraints".
* `chain`: the generated non-separable chain with n = 160 (`chaingen`).  W
  is one wide constituent, so `Constituent.derive` and `from_lineage`
  dominate and there is no constituent walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mvdb.core import Fact, Mvdb, parse_schema
from mvdb.gendata import generate_project
from mvdb.mvindex import IndexEvaluator, build_index
from mvdb.oracle import mln_probability
from mvdb.translate import answer_query, build_indb, query_probability
from mvdb.ucq import parse_query, parse_view, substitute

import chaingen

TOLERANCE = 1e-9


@dataclass
class Query:
    kind: str  # "bool" or "answer"
    text: str
    meta: tuple = ()


@dataclass
class Probe:
    name: str
    ok: bool
    detail: str = ""
    workload: bool = True  # False for the known-defect probe


def _stratum(rng: random.Random, k: int, parts: int) -> float:
    """A uniform draw from the k-th of *parts* equal slices of [0, 1)."""
    return (k + rng.random()) / parts


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def compare(got: float, want: float) -> tuple[bool, str]:
    return close(got, want), f"{got!r} vs {want!r}"


def compare_answers(got, want) -> tuple[bool, str]:
    ok = len(got) == len(want) and all(
        a == b and close(p, w) for (a, p), (b, w) in zip(got, want))
    return ok, f"{got!r} vs {want!r}"


def probe(name: str, check, workload: bool = True) -> Probe:
    """Run ``check() -> (ok, detail)``; a check that raises is a wrong
    answer, counted like any other, and never stops the run."""
    try:
        ok, detail = check()
    except Exception as exc:  # reported as a number, never fatal
        return Probe(name, False, f"raised {type(exc).__name__}: {exc}",
                     workload)
    return Probe(name, ok, detail, workload)


def cold_probe(session, text: str, cold_rows) -> Probe:
    """The rows `mvdb query --tsv` printed against the warm library answers
    to the same query; an empty or missing print disagrees."""
    def check():
        warm = answer_query(parse_query(text, session.db.schema),
                            session.tr, session.evaluator)
        ok, detail = compare_answers(cold_rows, warm)
        return ok and bool(warm), detail
    return probe(f"cold vs warm {text}", check)


class Dblp:
    name = "dblp"
    # Highest of p50/75/90/95/99 with at least ten samples beyond it at the
    # sample count of a 45 s run (about 1,500 Boolean, 165 answer queries).
    tail = {"bool": 99, "answer": 90}
    bool_per_round = 27
    cold_query = "Q(a) :- Advisor(7, a)"

    def __init__(self, smoke: bool = False):
        self.scale = 40 if smoke else 2000

    def make_project(self, path, seed: int):
        generate_project(path, seed=seed, scale=self.scale,
                         views=("v1", "v2"))

    def bind(self, db: Mvdb):
        self.db = db
        self.advisors = sorted({f.values[1] for f in db.weights
                                if f.relation == "Advisor"})

    def _student(self, u: float) -> int:
        return 1 + min(self.scale - 1, int(u * self.scale))

    def round(self, rng: random.Random) -> list[Query]:
        out = []
        for k in range(self.bool_per_round):
            s = self._student(_stratum(rng, k, self.bool_per_round))
            if rng.random() < 0.5:
                out.append(Query("bool", f"Q() :- Advisor({s}, a)", (s,)))
            else:
                out.append(Query("bool", f"Q() :- Student({s}, y)", (s,)))
        for k in range(2):
            s = self._student(_stratum(rng, k, 2))
            out.append(Query("answer", f"Q(a) :- Advisor({s}, a)", (s,)))
        a = rng.choice(self.advisors)
        out.append(Query("answer", f"Q(s) :- Advisor(s, {a}), Student(s, y)",
                         ()))
        rng.shuffle(out)
        return out

    def decile_queries(self, rng: random.Random, count: int = 20):
        """Point queries on the first and the last 10% of the students."""
        tenth = max(1, self.scale // 10)
        first = [rng.randint(1, tenth) for _ in range(count)]
        last = [rng.randint(self.scale - tenth + 1, self.scale)
                for _ in range(count)]
        return ([f"Q() :- Advisor({s}, a)" for s in first],
                [f"Q() :- Advisor({s}, a)" for s in last])

    # -- checks -----------------------------------------------------------

    def _student_db(self, s: int) -> Mvdb:
        """Student *s*'s block; blocks are independent, so its answers are
        exact for any query about s alone."""
        facts = [(f, w) for f, w in self.db.weights.items()
                 if f.relation in ("Student", "Advisor", "CoPubs")
                 and f.values[0] == s]
        return Mvdb(self.db.schema, facts, self.db.views)

    def _answers_probe(self, text: str, rows, student=None) -> Probe:
        """Each answer row against the oracle on its student's block: the
        query's own student, or else the answer's first column."""
        def check():
            q = parse_query(text, self.db.schema)
            for answer, p in rows:
                block = self._student_db(student or answer[0])
                ok, detail = compare(p, mln_probability(
                    block, substitute(q, answer)))
                if not ok:
                    return False, f"{answer}: {detail}"
            return True, f"{len(rows)} answers"
        return probe(f"oracle {text}", check)

    def check(self, session, stream, rng, cold_rows) -> list[Probe]:
        probes = []
        bools = [(q, r) for q, r in stream if q.kind == "bool" and r.ok]
        for q, r in rng.sample(bools, min(25, len(bools))):
            block = self._student_db(q.meta[0])
            probes.append(probe(f"oracle {q.text}", lambda: compare(
                r.value, mln_probability(
                    block, parse_query(q.text, self.db.schema)))))
        answers = [(q, r) for q, r in stream if q.kind == "answer" and r.ok]
        for q, r in rng.sample(answers, min(4, len(answers))):
            probes.append(self._answers_probe(q.text, r.value, *q.meta))
        probes.append(cold_probe(session, self.cold_query, cold_rows))
        probes.append(self._answers_probe(self.cold_query, cold_rows, 7))
        return probes


class Chain:
    name = "chain"
    # Same rule as dblp at a 45 s run (about 500 Boolean, 55 answer queries).
    tail = {"bool": 95, "answer": 75}
    # Window lengths are the stratum midpoints of a log-uniform distribution
    # on [1, n], fixed across seeds: a window's cost grows quadratically with
    # its length, so drawn lengths would make every percentile swing with
    # the seed.  The seed draws the window positions, the order and the data.
    bool_per_round = 45
    answer_per_round = 5

    def __init__(self, smoke: bool = False):
        self.n = 8 if smoke else 160
        self.cold_query = chaingen.window_query(0, 4, answer=True)

    def make_project(self, path, seed: int):
        chaingen.generate_chain(path, seed=seed, n=self.n)

    def bind(self, db: Mvdb):
        self.db = db

    def _length(self, k: int, parts: int) -> int:
        return max(1, min(self.n, round(self.n ** ((k + 0.5) / parts))))

    def _window(self, rng, length: int) -> tuple[int, int]:
        lo = rng.randint(0, self.n - length)
        return lo, lo + length

    def round(self, rng: random.Random) -> list[Query]:
        out = []
        for k in range(self.bool_per_round):
            lo, hi = self._window(rng, self._length(k, self.bool_per_round))
            out.append(Query("bool", chaingen.window_query(lo, hi),
                             (lo, hi)))
        for k in range(self.answer_per_round):
            lo, hi = self._window(rng, self._length(k, self.answer_per_round))
            out.append(Query("answer",
                             chaingen.window_query(lo, hi, answer=True),
                             (lo, hi)))
        rng.shuffle(out)
        return out

    def decile_queries(self, rng: random.Random, count: int = 20):
        """Length-1 windows on the first and the last 10% of the chain."""
        tenth = max(1, self.n // 10)
        first = [rng.randint(0, tenth - 1) for _ in range(count)]
        last = [rng.randint(self.n - tenth, self.n - 1) for _ in range(count)]
        return ([chaingen.window_query(i, i + 1) for i in first],
                [chaingen.window_query(i, i + 1) for i in last])

    def check(self, session, stream, rng, cold_rows) -> list[Probe]:
        probes = []
        # The stream itself is too large for the oracle: re-evaluate a
        # sample with the other intersection algorithm.
        mv = IndexEvaluator(session.index, session.instance, "mv")
        short = [(q, r) for q, r in stream
                 if r.ok and q.meta[1] - q.meta[0] <= 40]
        for q, r in rng.sample(short, min(8, len(short))):
            parsed = parse_query(q.text, self.db.schema)
            if q.kind == "bool":
                probes.append(probe(f"mv vs ccmv {q.text}", lambda: compare(
                    r.value, query_probability(parsed, session.tr, mv))))
            else:
                probes.append(probe(f"mv vs ccmv {q.text}", lambda: (
                    compare_answers(r.value, answer_query(parsed, session.tr,
                                                          mv)))))
        probes.append(cold_probe(session, self.cold_query, cold_rows))
        probes.extend(small_chain_probes(session.seed))
        return probes


def _load_small_chain(seed: int, n: int = 4):
    schema = parse_schema(chaingen.SCHEMA_TEXT)
    rows = chaingen.chain_rows(n, seed)
    facts = [(Fact(rel, values), w) for rel, items in rows.items()
             for values, w in items]
    view = parse_view(chaingen.VIEW_TEXT.strip(), schema)
    return Mvdb(schema, facts, [view])


def _engine(db: Mvdb):
    """The translation of *db* and an evaluator on its freshly built index."""
    tr = build_indb(db)
    return tr, IndexEvaluator(build_index(tr), tr.indb.possible_instance())


def small_chain_probes(seed: int) -> list[Probe]:
    """The chain generator at n = 4 (2^17 worlds) against the oracle."""
    db = _load_small_chain(seed)

    def window(lo, hi):
        tr, evaluator = _engine(db)
        q = parse_query(chaingen.window_query(lo, hi), db.schema)
        return compare(query_probability(q, tr, evaluator),
                       mln_probability(db, q))

    def answers():
        tr, evaluator = _engine(db)
        q = parse_query(chaingen.window_query(1, 4, answer=True), db.schema)
        got = answer_query(q, tr, evaluator)
        want = [(a, mln_probability(db, substitute(q, a))) for a, _ in got]
        return compare_answers(got, want)

    probes = [probe(f"n=4 oracle {chaingen.window_query(lo, hi)}",
                    lambda: window(lo, hi))
              for lo, hi in ((0, 1), (1, 3), (0, 4), (2, 4), (3, 4))]
    probes.append(probe(
        f"n=4 oracle {chaingen.window_query(1, 4, answer=True)}", answers))
    return probes


UNDERFLOW_SCHEMA = """\
relation R(x:int) key(x) probabilistic
relation S(x:int) key(x) probabilistic
"""


def underflow_probe() -> Probe:
    """Ten independent ``V(x)[0] :- R(x), S(x)`` blocks at tuple weight 1e20.

    The database is consistent and P(R(0)) = 1e20 / (1 + 2e20) = 0.5, but
    P0(not W) underflows to 0.0 and the engine reports inconsistent
    constraints.  This is a known defect; the probe keeps it visible.
    """
    def check():
        schema = parse_schema(UNDERFLOW_SCHEMA)
        facts = [(Fact(rel, (i,)), 1e20) for i in range(10)
                 for rel in ("R", "S")]
        db = Mvdb(schema, facts, [parse_view("V(x) [0] :- R(x), S(x)",
                                             schema)])
        tr, evaluator = _engine(db)
        return compare(query_probability(parse_query("Q() :- R(0)", schema),
                                         tr, evaluator),
                       1e20 / (1.0 + 2e20))
    return probe("underflow: Q() :- R(0) over ten weight-1e20 denial blocks",
                 check, workload=False)


WORKLOADS = {"dblp": Dblp, "chain": Chain}
