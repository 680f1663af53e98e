"""Compiling W: one grouped grounding pass, one `from_lineage` per shape.

`build_index` must write the same bytes as the per-block `con_obdd`
reference in `helpers.py`, key one constituent per separator constant
whenever W has a separator (also when a disjunct ranges only over
relations without soft facts), refuse blocks that interleave in the tuple
order with an internal error, and keep its node tables linear in the
constituents it produces.
"""

import io
import math
import random

import pytest

import mvdb
from mvdb import (EnumerationEvaluator, Fact, IndexEvaluator, Mvdb, MvdbError,
                  NodeTable, build_indb, build_index, deserialize,
                  find_separator, parse_query, parse_schema, parse_view,
                  query_probability, serialize)
from mvdb import mvindex, obdd
from mvdb.cli import _load_project, main
from mvdb.gendata import generate_project
from mvdb.mvindex import SINK0

from helpers import (EX1_SCHEMA, RAND_SCHEMA, build_index_per_block,
                     build_index_unshared, chain_mvdb, entry_tables,
                     prob_unders, random_boolean_query, random_mvdb, ranks,
                     read_columns, root_code, shape_of, viable_random_mvdb,
                     with_columns)

FLIP_SCHEMA = parse_schema("""
relation A(x:string, y:string) key(x,y) probabilistic
""")


def _project_tr(path):
    return build_indb(_load_project(path))


def _same_bytes(tr):
    idx = build_index(tr)
    assert serialize(idx) == serialize(build_index_per_block(tr))
    return idx


# -- equivalence with the per-block con_obdd reference --------------------------

def test_dblp_matches_per_block_reference(tmp_path):
    tr = _project_tr(generate_project(tmp_path / "p", seed=1, scale=60))
    idx = _same_bytes(tr)
    assert len(idx.constituents) == 60


@pytest.mark.parametrize("n", [20, 40])
def test_chain_matches_per_block_reference(n):
    idx = _same_bytes(build_indb(chain_mvdb(n)))
    assert [c.key for c in idx.constituents] == [None]


def test_random_databases_match_per_block_reference():
    keyed = 0
    for seed in range(200):
        idx = _same_bytes(viable_random_mvdb(seed)[1])
        keyed += sum(c.key is not None for c in idx.constituents)
    assert keyed


def test_constant_true_blocks_match_per_block_reference():
    # R(a0) and R(a1) are certain, so the denial's clauses for them lose
    # every fact and W holds in those blocks whatever the other tuples are.
    # S(a1) comes first, so the active domain (a1, a0, a2) orders the empty
    # blocks differently from the grounding of R (a0, a1, a2).
    db = Mvdb(EX1_SCHEMA,
              [(Fact("S", ("a1",)), 1.0), (Fact("R", ("a0",)), math.inf),
               (Fact("R", ("a1",)), math.inf), (Fact("R", ("a2",)), 2.0)],
              [parse_view("V(x) [0] :- R(x)", EX1_SCHEMA)])
    idx = _same_bytes(build_indb(db))
    assert [c.key for c in idx.constituents] == ["a1", "a0", "a2"]
    for empty in idx.constituents[:2]:
        assert (len(empty.shape.rank), root_code(empty)) == (0, SINK0)
    assert idx.zero_block


def test_compile_does_not_reach_con_obdd(tmp_path, monkeypatch):
    proj = generate_project(tmp_path / "p", seed=1, scale=3)
    want = serialize(build_index_per_block(_project_tr(proj)))

    def refuse(*args, **kwargs):
        raise AssertionError("con_obdd is not on the compile path")

    assert not hasattr(obdd, "_Builder")
    monkeypatch.setattr(obdd, "con_obdd", refuse)
    monkeypatch.setattr(mvdb, "con_obdd", refuse)
    assert main(["compile", "--project", str(proj)], out=io.StringIO()) == 0
    assert (proj / "index.mvx").read_bytes() == want


# -- shapes ----------------------------------------------------------------------

def _content(index, c):
    """Everything constituent *c* of *index* has, floats by `float.hex`."""
    return (c.key, ranks(c), c.shape.lo, c.shape.hi, c.prob_root.hex(),
            [v.hex() for v in prob_unders(index, c)],
            {r: [(code, m.hex()) for code, m in table]
             for r, table in entry_tables(index, c).items()})


def _matches_unshared(tr):
    """Build *tr*'s index with shared shapes and by the reference that runs
    `from_lineage` on every block; both must hold the same constituents."""
    idx, want = build_index(tr), build_index_unshared(tr)
    assert [_content(idx, c) for c in idx.constituents] == \
        [_content(want, c) for c in want.constituents]
    assert serialize(idx) == serialize(want)
    return idx


def test_dblp_shapes_match_compiling_every_block(tmp_path):
    idx = _matches_unshared(
        _project_tr(generate_project(tmp_path / "p", seed=1, scale=60)))
    assert len(idx.constituents) == 60
    for index in (idx, deserialize(serialize(idx))):
        assert index.shape_count() == len(index.shapes) == 2
        assert len({id(c.shape.lo) for c in index.constituents}) == 2
        assert len({id(c.shape.hi) for c in index.constituents}) == 2


def test_chain_shapes_match_compiling_every_block():
    idx = _matches_unshared(build_indb(chain_mvdb(20)))
    assert idx.shape_count() == 1


def test_random_shapes_match_compiling_every_block():
    shared = 0
    for seed in range(60):
        idx = _matches_unshared(viable_random_mvdb(seed)[1])
        shared += len(idx.constituents) - idx.shape_count()
    assert shared


def _assert_one_shape_per_structure(index):
    """``index.shapes`` holds one object per distinct structure, in order
    of first use, and each constituent is one of them at its offset."""
    first = []
    for c in index.constituents:
        if not any(c.shape is s for s in first):
            first.append(c.shape)
        assert (tuple(c.shape.rank), tuple(c.shape.lo),
                tuple(c.shape.hi)) == shape_of(c)
    assert len(first) == len(index.shapes)
    assert all(a is b for a, b in zip(first, index.shapes))
    assert len({(tuple(s.rank), tuple(s.lo), tuple(s.hi))
                for s in index.shapes}) == len(index.shapes)


def test_index_holds_one_shape_per_structure(tmp_path):
    trs = [_project_tr(generate_project(tmp_path / "p", seed=1, scale=60)),
           build_indb(chain_mvdb(20))]
    trs += [viable_random_mvdb(seed)[1] for seed in range(60)]
    trs += [build_indb(random_mvdb(random.Random(seed)))
            for seed in (38, 400, 443)]
    for tr in trs:
        built = build_index(tr)
        for index in (built, deserialize(serialize(built))):
            _assert_one_shape_per_structure(index)


@pytest.mark.parametrize("seed", [38, 400, 443])
def test_one_function_from_other_clauses_is_stored_once(seed):
    # One block's clauses include one that subsumes another, e.g. seed
    # 38's a1 block has clauses at relative ranks (0,) and (0, 1), the
    # other blocks (0,) alone: different relative rank lists, one Boolean
    # function, so one structure, one Shape and one shape in the file.
    tr = build_indb(random_mvdb(random.Random(seed)))
    idx = _matches_unshared(tr)
    rank_of = idx.order.rank_of
    relative = set()
    for clauses in tr.w_lineage.values():
        ranks = {tuple(sorted(map(rank_of, clause))) for clause in clauses}
        base = min(r[0] for r in ranks)
        relative.add(frozenset(tuple(x - base for x in r) for r in ranks))
    assert len(relative) == 2 and len(idx.constituents) >= 2
    blob = serialize(idx)
    assert len(read_columns(blob)["nodes"]) == 1
    for index in (idx, deserialize(blob)):
        assert len(index.shapes) == 1
        assert all(c.shape is index.shapes[0] for c in index.constituents)


SHAPE_SCHEMA = parse_schema("""
relation R(x:int) key(x) probabilistic
relation T(x:int) key(x) probabilistic
relation S(x:int) key(x) probabilistic
""")


def _two_block_index(facts):
    db = Mvdb(SHAPE_SCHEMA, facts,
              [parse_view("V(x) [0] :- R(x), S(x)", SHAPE_SCHEMA)])
    return _matches_unshared(build_indb(db))


def test_one_shape_shares_structure_not_annotations():
    # R(i), S(i) per i: one clause of two adjacent ranks in each block,
    # with different weights
    idx = _two_block_index([(Fact("R", (1,)), 1.0), (Fact("S", (1,)), 2.0),
                            (Fact("R", (2,)), 3.0), (Fact("S", (2,)), 0.5)])
    for index in (idx, deserialize(serialize(idx))):
        one, two = index.constituents
        assert one.shape is two.shape
        assert [r - one.rank_lo for r in ranks(one)] == \
            [r - two.rank_lo for r in ranks(two)]
        assert one.rank_lo != two.rank_lo
        assert prob_unders(index, one) != prob_unders(index, two)
        assert one.prob_root != two.prob_root
        assert entry_tables(index, one) != entry_tables(index, two)
        assert index.shape_count() == 1


def test_a_shape_stored_twice_is_written_back_twice():
    # The loader builds one Shape per stored shape and `serialize` numbers
    # the index's shapes, so a file that stores one structure twice writes
    # back the same bytes.
    idx = _two_block_index([(Fact("R", (1,)), 1.0), (Fact("S", (1,)), 2.0),
                            (Fact("R", (2,)), 3.0), (Fact("S", (2,)), 0.5)])

    def store_twice(columns):
        n = columns["nodes"][0]
        columns["nodes"].append(n)
        for name in ("rank", "lo", "hi"):
            columns[name] += columns[name][:n]
        columns["shape"][1] = 1
        return columns

    blob = with_columns(serialize(idx), store_twice)
    loaded = deserialize(blob)
    assert len(loaded.shapes) == 2
    assert [entry_tables(loaded, c) for c in loaded.constituents] == \
        [entry_tables(idx, c) for c in idx.constituents]
    assert serialize(loaded) == blob


def test_equal_clause_counts_at_other_relative_ranks_are_two_shapes(tables):
    # T(2) sits between R(2) and S(2), so block 2's one clause spans ranks
    # 0 and 2 from its first, block 1's spans 0 and 1
    idx = _two_block_index([(Fact("R", (1,)), 1.0), (Fact("S", (1,)), 1.0),
                            (Fact("R", (2,)), 1.0), (Fact("T", (2,)), 1.0),
                            (Fact("S", (2,)), 1.0)])
    one, two = idx.constituents
    assert shape_of(one) != shape_of(two)
    assert one.shape is not two.shape
    assert idx.shape_count() == 2
    assert len(tables) == 2  # build_index compiled both blocks


def _agrees_with_oracle(tr, idx, queries):
    oracle = EnumerationEvaluator(tr)
    for q in queries:
        want = query_probability(q, tr, oracle)
        for mode in ("cc", "mv"):
            ev = IndexEvaluator(idx, tr.indb.possible_instance(), mode)
            assert abs(query_probability(q, tr, ev) - want) <= 1e-9, q


# -- separators ------------------------------------------------------------------

def _hand_built_no_soft_r():
    # R is empty and D certain, so the denial R(x), D(x) has no
    # variable-bearing atom; S(x, y), T(y) is a hard denial per y.
    facts = [(Fact("D", ("a0",)), math.inf), (Fact("S", ("a0", "b0")), 2.0),
             (Fact("S", ("a1", "b0")), 0.5), (Fact("S", ("a0", "b1")), 3.0),
             (Fact("T", ("b0",)), 1.0), (Fact("T", ("b1",)), 0.25)]
    views = [parse_view("V0(x) [0.5] :- R(x), D(x)", RAND_SCHEMA),
             parse_view("V1(y) [0] :- S(x, y), T(y)", RAND_SCHEMA)]
    return build_indb(Mvdb(RAND_SCHEMA, facts, views))


# A W disjunct over relations that hold no soft fact grounds only to empty
# clauses.  It takes its separator variable over all its atoms, so W keeps
# its separator; without that, W compiled to one unkeyed constituent of
# width 1.
@pytest.mark.parametrize("make", [lambda: viable_random_mvdb(7)[1],
                                  _hand_built_no_soft_r],
                         ids=["viable_random_7", "hand_built"])
def test_disjunct_without_soft_facts_keeps_the_separator(make):
    tr = make()
    assert find_separator(tr.w_query, tr.var_rels) is not None
    idx = _same_bytes(tr)
    assert [c.key for c in idx.constituents] == ["b0", "b1"]
    assert idx.max_width() <= 1
    rng = random.Random(13)
    queries = [random_boolean_query(rng) for _ in range(15)]
    queries.append(parse_query("Q() :- S(x, 'b0')", RAND_SCHEMA))
    _agrees_with_oracle(tr, idx, queries)


def _flip_tr():
    # W = NV(x, y), A(y, x) has the separator x, at A's second position.
    facts = [(Fact("A", (x, y)), w) for (x, y), w in zip(
        [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")],
        [0.5, 2.0, 1.0, 3.0])]
    return build_indb(Mvdb(FLIP_SCHEMA, facts,
                           [parse_view("V(x, y) [0.5] :- A(y, x)",
                                       FLIP_SCHEMA)]))


def test_flipped_separator_compiles_to_keyed_blocks():
    tr = _flip_tr()
    idx = _same_bytes(tr)
    pi = mvdb.choose_pi(tr.w_query, tr.indb.schema, tr.var_rels)
    assert pi.get("A", tuple(range(2))) == (1, 0)
    assert [c.key for c in idx.constituents] == ["a", "b"]
    _agrees_with_oracle(tr, idx, [
        parse_query(text, FLIP_SCHEMA)
        for text in ("Q() :- A('a', 'b')", "Q() :- A(x, 'a')",
                     "Q() :- A(x, y), A(y, x)",
                     "Q() :- A('b', x) ; A(x, 'b')")])


def test_interleaved_blocks_are_an_internal_error(monkeypatch):
    # Under A's identity the tuple order groups A by y, so the x-blocks
    # interleave: A(a, b) sits between A(a, a) and A(b, a).
    witness = {"A": (0, 1), "NV": (1, 0)}
    monkeypatch.setattr(mvindex, "choose_pi", lambda *args: witness)
    with pytest.raises(MvdbError, match="interleave"):
        build_index(_flip_tr())


# -- growth ----------------------------------------------------------------------

@pytest.fixture
def tables(monkeypatch):
    """Every node table `build_index` creates."""
    made = []

    class CountingTable(NodeTable):
        def __init__(self, order):
            super().__init__(order)
            made.append(self)

    monkeypatch.setattr(mvindex, "NodeTable", CountingTable)
    return made


@pytest.mark.parametrize("n", [40, 80, 160, 320])
def test_compile_tables_stay_linear_on_chain(n, tables):
    idx = build_index(build_indb(chain_mvdb(n)))
    nodes = sum(len(c.shape.rank) for c in idx.constituents)
    assert tables
    assert sum(len(t) for t in tables) <= 2 * nodes + 16


def test_compile_uses_one_table_per_shape(tmp_path, tables):
    # gen-dblp's 60 blocks come in two shapes: `from_lineage` runs, with a
    # fresh table, for the first block of each shape only.
    tr = _project_tr(generate_project(tmp_path / "p", seed=1, scale=60))
    idx = build_index(tr)
    firsts = {}
    for c in idx.constituents:
        firsts.setdefault(shape_of(c), c)
    assert len(idx.constituents) == 60
    assert len(tables) == len(firsts) == 2
    for t, c in zip(tables, firsts.values()):
        assert len(t) <= 2 * len(c.shape.rank) + 16
