"""Weight arithmetic, schema/data loading, and database containers."""

import random

import pytest

from mvdb import (DataError, DegenerateWeightError, Fact, Indb, Instance,
                  Mvdb, MvdbError, Schema, SchemaError, parse_schema,
                  weight_to_probability)
from mvdb.core import parse_data_file, INF

from helpers import (domain_constants, probability_to_weight, signed_world_sum,
                     EX1_SCHEMA)


def test_weight_to_probability_reference_points():
    # odds 0, 1, inf correspond to probabilities 0, 1/2, 1
    assert weight_to_probability(0.0) == 0.0
    assert weight_to_probability(1.0) == 0.5
    assert weight_to_probability(INF) == 1.0
    # translated view weight 2 gives auxiliary weight -0.5, probability -1
    assert weight_to_probability(-0.5) == -1.0


def test_probability_to_weight_reference_points():
    assert probability_to_weight(0.5) == 1.0
    assert probability_to_weight(0.0) == 0.0
    assert probability_to_weight(-1.0) == -0.5
    assert probability_to_weight(1.0) == INF


def test_weight_minus_one_is_degenerate():
    with pytest.raises(DegenerateWeightError):
        weight_to_probability(-1.0)


def test_weight_probability_roundtrip_random():
    rng = random.Random(7)
    for _ in range(1000):
        p = rng.uniform(-5.0, 0.99)
        w = probability_to_weight(p)
        back = weight_to_probability(w)
        assert abs(back - p) <= 1e-12 * max(1.0, abs(p))


def test_signed_measure_sums_to_one():
    rng = random.Random(3)
    for n in (1, 4, 8, 12, 16):
        probs = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        total = signed_world_sum(probs, [1.0 - p for p in probs],
                                 lambda mask: True)
        assert abs(total - 1.0) <= 1e-9


def test_possible_instance_contents(ex1):
    inst = ex1.possible_instance()
    assert inst.facts == frozenset({Fact("R", ("a",)), Fact("S", ("a",))})
    assert inst.deterministic == frozenset()


def test_possible_instance_empty():
    db = Mvdb(EX1_SCHEMA, [], [])
    assert db.possible_instance().facts == frozenset()


def test_possible_instance_two_table(two_table):
    inst = two_table.possible_instance()
    expected = {Fact("R", ("a1",)), Fact("R", ("a2",)),
                Fact("S", ("a1", "b1")), Fact("S", ("a1", "b2")),
                Fact("S", ("a2", "b3")), Fact("S", ("a2", "b4"))}
    assert inst.facts == frozenset(expected)


_INSTANCE_SCHEMA = parse_schema("""
relation D(x:string) key(x) deterministic
relation P(x:int, y:string) key(x,y) probabilistic
relation E(x:int) key(x) probabilistic
""")


def test_instance_hands_out_its_own_facts_in_row_order():
    # Facts arrive interleaved across relations and with repeats: each is
    # kept once, at its first occurrence.  The indexes over these facts
    # are checked in `test_grounding.test_one_fact_index_per_instance`.
    given = [Fact("P", (2, "b")), Fact("D", ("d",)), Fact("P", (1, "a")),
             Fact("P", (2, "a")), Fact("D", ("e",)), Fact("P", (1, "b")),
             Fact("P", (3, "c"))]
    repeats = [Fact("P", (1, "a")), Fact("D", ("d",))]
    inst = Instance(_INSTANCE_SCHEMA, given + repeats, given[1:2])
    assert len(inst) == len(given)
    for rel in ("D", "P", "E"):
        facts = inst.facts_of(rel)
        assert [f for f in given if f.relation == rel] == facts
        assert all(any(f is g for g in given) for f in facts)
    with pytest.raises(SchemaError, match="'Q'"):
        inst.facts_of("Q")


def test_instance_rejects_a_fact_of_an_unknown_relation():
    schema = parse_schema("relation R(x:int) key(x) probabilistic")
    with pytest.raises(SchemaError, match="^unknown relation 'Nope'$"):
        Instance(schema, [Fact("Nope", (1,))])
    with pytest.raises(SchemaError, match="^unknown relation 'Nope'$"):
        Instance(schema, [Fact("R", (1,)), Fact("Nope", (1,))])


def test_deterministic_kind_is_decided_per_relation():
    d, e, p = Fact("D", ("d",)), Fact("E", (1,)), Fact("P", (1, "a"))
    facts = [d, e, p, Fact("P", (2, "b"))]
    inst = Instance(_INSTANCE_SCHEMA, facts, [d, p])
    assert [inst.deterministic_kind(r) for r in ("D", "E", "P")] == \
        ["all", "none", "some"]
    free = Instance(_INSTANCE_SCHEMA, facts)
    assert [free.deterministic_kind(r) for r in ("D", "E", "P")] == \
        ["none"] * 3
    # A deterministic fact the instance does not hold decides nothing.
    other = Instance(_INSTANCE_SCHEMA, [e, p], [d, Fact("P", (9, "z"))])
    assert [other.deterministic_kind(r) for r in ("D", "E", "P")] == \
        ["none"] * 3


def test_interning_order_is_load_order(two_table):
    assert domain_constants(two_table.domain) == ["a1", "a2", "b1", "b2",
                                                  "b3", "b4"]
    assert two_table.domain.rank("b3") == 4


def test_deterministic_tuples_are_not_variables():
    schema = parse_schema("""
relation D(x:string) key(x) deterministic
relation R(x:string) key(x) probabilistic
""")
    db = Mvdb(schema, [(Fact("D", ("a",)), INF), (Fact("R", ("a",)), 1.0),
                       (Fact("R", ("b",)), INF)], [])
    assert db.probabilistic_facts() == [Fact("R", ("a",))]
    assert set(db.deterministic_facts()) == {Fact("D", ("a",)),
                                             Fact("R", ("b",))}


def test_mvdb_rejects_negative_and_finite_deterministic_weights():
    schema = parse_schema("""
relation D(x:string) key(x) deterministic
relation R(x:string) key(x) probabilistic
""")
    with pytest.raises(DataError):
        Mvdb(schema, [(Fact("R", ("a",)), -0.5)], [])
    with pytest.raises(DataError):
        Mvdb(schema, [(Fact("D", ("a",)), 2.0)], [])


def test_indb_rejects_weight_minus_one():
    with pytest.raises(DegenerateWeightError):
        Indb(EX1_SCHEMA, [(Fact("R", ("a",)), -1.0)])


def test_indb_probability_signed():
    db = Indb(EX1_SCHEMA, [(Fact("R", ("a",)), -0.5)])
    assert db.probability(Fact("R", ("a",))) == -1.0


def test_schema_parse_and_validation():
    schema = parse_schema(
        "relation R(x:int, y:string) key(x) probabilistic\n"
        "# comment\n"
        "relation D(z:int) key(z) deterministic\n")
    assert schema.relation("R").arity == 2
    assert schema.relation("R").key == ("x",)
    assert schema.relation("D").kind == "deterministic"
    with pytest.raises(SchemaError):
        parse_schema("relation R(x:int) key(x) bogus-kind")
    with pytest.raises(SchemaError):
        parse_schema("relation R(x:float) key(x) probabilistic")
    with pytest.raises(SchemaError):
        parse_schema("relation R(x:int) key(x) view-aux")
    with pytest.raises(SchemaError):
        parse_schema("relation R(x:int) key(x) probabilistic\n"
                     "relation R(y:int) key(y) probabilistic")


def test_schema_takes_an_empty_key_only_without_attributes():
    # A Boolean MarkoView's auxiliary relation has no attributes, so its
    # key is empty; a relation with attributes still needs a key.
    from mvdb import Attribute, Relation
    from mvdb.core import VIEW_AUX
    schema = Schema([Relation("NV", (), (), VIEW_AUX)])
    assert schema.relation("NV").arity == 0
    with pytest.raises(SchemaError, match="^relation 'R' has an empty key$"):
        Schema([Relation("R", (Attribute("x", "int"),), (), "probabilistic")])
    # a schema file declares no nullary relation
    with pytest.raises(SchemaError, match="bad attribute ''"):
        parse_schema("relation R() key() probabilistic")


def test_duplicate_tuple_rejected():
    with pytest.raises(DataError):
        Mvdb(EX1_SCHEMA, [(Fact("R", ("a",)), 1.0),
                          (Fact("R", ("a",)), 2.0)], [])


def test_data_file_parsing():
    schema = parse_schema("relation P(x:int, y:string) key(x) probabilistic")
    rel = schema.relation("P")
    rows = parse_data_file(rel, "1\tfoo\t2.5\n3\tbar\tinf\n")
    assert rows == [(Fact("P", (1, "foo")), 2.5), (Fact("P", (3, "bar")), INF)]
    with pytest.raises(DataError):
        parse_data_file(rel, "1\tfoo\n")
    with pytest.raises(DataError):
        parse_data_file(rel, "x\tfoo\t1.0\n")
    with pytest.raises(DataError):
        parse_data_file(rel, "1\tfoo\tnot-a-weight\n")


LOADER_SCHEMA = parse_schema("relation P(x:int, y:string) key(x) probabilistic\n"
                             "relation D(x:string) key(x) deterministic\n")


@pytest.mark.parametrize("load, error, message", [
    (lambda rel: parse_data_file(rel, "1\tfoo\t1.0\n1\tfoo\n", "P.tsv"),
     DataError, "P.tsv line 2: expected 3 columns, got 2"),
    (lambda rel: parse_data_file(rel, "# c\n\n1\tfoo\t1.0\nx\tfoo\t1.0\n",
                                 "P.tsv"),
     DataError, "P.tsv line 4: expected int for x, got 'x'"),
    (lambda rel: parse_data_file(rel, "1\tfoo\tnot-a-weight\n"),
     DataError, "<data> line 1: bad weight 'not-a-weight'"),
    (lambda rel: Mvdb(LOADER_SCHEMA, parse_data_file(rel, "1\tfoo\tnan\n"),
                      []),
     DataError, "P(1,'foo'): weight must be in [0, inf], got nan"),
    (lambda rel: Mvdb(LOADER_SCHEMA, [(Fact("P", (1, "a")), -0.5)], []),
     DataError, "P(1,'a'): weight must be in [0, inf], got -0.5"),
    (lambda rel: Mvdb(LOADER_SCHEMA, [(Fact("D", ("a",)), 2.0)], []),
     DataError, "D('a'): deterministic relation requires weight inf"),
    (lambda rel: Mvdb(LOADER_SCHEMA, [(Fact("P", (1, "a")), 1.0),
                                      (Fact("P", (1, "a")), 2.0)], []),
     DataError, "duplicate possible tuple P(1,'a')"),
    (lambda rel: Mvdb(LOADER_SCHEMA, [(Fact("P", (1, "a")), 1.0),
                                      (Fact("X", (1,)), 2.0)], []),
     SchemaError, "unknown relation 'X'"),
    (lambda rel: Mvdb(LOADER_SCHEMA, [(Fact("P", (1,)), 1.0)], []),
     DataError, "P(1) has arity 1, expected 2"),
    (lambda rel: Mvdb(LOADER_SCHEMA, [(Fact("P", ("1", "a")), 1.0)], []),
     DataError, "P('1','a'): attribute x expects int"),
    (lambda rel: Mvdb(LOADER_SCHEMA, [(Fact("P", (1, 2)), 1.0)], []),
     DataError, "P(1,2): attribute y expects string"),
    (lambda rel: Indb(LOADER_SCHEMA, [(Fact("P", (1, "a")), float("nan"))]),
     DataError, "P(1,'a'): weight is NaN"),
    # A '#' line is a comment only when it cannot be read as a row.
    (lambda rel: parse_data_file(LOADER_SCHEMA.relation("D"),
                                 "# tags\n#ai\tinf\n", "D.tsv"),
     DataError, "D.tsv line 2: starts with '#' but has the 2 columns of a "
                "row"),
    # Two defects of different kinds: the first line's wins.
    (lambda rel: parse_data_file(rel, "# c\n\nx\tfoo\t1.0\n1\tfoo\t1.0\n"
                                      "1\tfoo\n", "P.tsv"),
     DataError, "P.tsv line 3: expected int for x, got 'x'"),
    (lambda rel: parse_data_file(rel, "1\tfoo\t1.0\n2\tbar\tw\n\n"
                                      "y\tbaz\t1.0\n", "P.tsv"),
     DataError, "P.tsv line 2: bad weight 'w'"),
    (lambda rel: parse_data_file(rel, "\n# c\t1\n1\tfoo\nx\tfoo\tw\n",
                                 "P.tsv"),
     DataError, "P.tsv line 3: expected 3 columns, got 2"),
    (lambda rel: parse_data_file(rel, "1\tfoo\t 2x \n#1\tfoo\t1.0\n",
                                 "P.tsv"),
     DataError, "P.tsv line 1: bad weight '2x'"),
], ids=["columns", "int-token", "weight-token", "nan-weight",
        "negative-weight", "finite-deterministic", "duplicate",
        "unknown-relation", "arity", "int-value", "string-value",
        "indb-nan-weight", "hash-row", "int-before-short-row",
        "weight-before-int", "short-row-before-int-and-weight",
        "weight-before-hash-row"])
def test_loader_errors_keep_class_and_message(load, error, message):
    with pytest.raises(MvdbError) as info:
        load(LOADER_SCHEMA.relation("P"))
    assert type(info.value) is error
    assert str(info.value) == message


def _run(*specs):
    """Weighted facts from ``(relation, values, weight)`` triples."""
    return [(Fact(name, values), w) for name, values, w in specs]


@pytest.mark.parametrize("make, facts, error, message", [
    # Runs P, D, P: a duplicate split across the two P runs.
    (Mvdb, _run(("P", (1, "a"), 1.0), ("D", ("x",), INF),
                ("P", (2, "b"), 1.0), ("P", (1, "a"), 2.0)),
     DataError, "duplicate possible tuple P(1,'a')"),
    (Indb, _run(("P", (1, "a"), 1.0), ("D", ("x",), INF),
                ("P", (1, "a"), 2.0)),
     DataError, "duplicate possible tuple P(1,'a')"),
    # Defects in two runs: the earlier run's wins.
    (Mvdb, _run(("P", (1, "a"), 1.0), ("D", ("x",), 2.0),
                ("P", (2, "b"), -1.0)),
     DataError, "D('x'): deterministic relation requires weight inf"),
    (Indb, _run(("P", (1, "a"), 1.0), ("D", ("y",), -1.0),
                ("P", (1, "a"), float("nan"))),
     DegenerateWeightError, "D('y'): weight -1 is degenerate"),
    (Mvdb, _run(("P", (1, "a"), 1.0), ("D", ("x",), INF),
                ("P", (2,), 1.0), ("D", (3,), INF)),
     DataError, "P(2) has arity 1, expected 2"),
    # Defects of different kinds in one run: the first fact's wins, and a
    # fact's own defects in the order arity, type, duplicate, weight.
    (Mvdb, _run(("P", (1, "a"), 1.0), ("P", ("2", "b"), 1.0),
                ("P", (1, "a"), 1.0)),
     DataError, "P('2','b'): attribute x expects int"),
    (Mvdb, _run(("P", (1, "a"), 1.0), ("P", (1, "a"), 1.0),
                ("P", ("2", "b"), 1.0)),
     DataError, "duplicate possible tuple P(1,'a')"),
    (Mvdb, _run(("P", (1, "a"), 1.0), ("P", (2, "b"), -2.0),
                ("P", (1, "a"), 1.0)),
     DataError, "P(2,'b'): weight must be in [0, inf], got -2.0"),
    (Indb, _run(("P", (1, "a"), float("nan")), ("P", (1,), 1.0)),
     DataError, "P(1,'a'): weight is NaN"),
    (Mvdb, _run(("P", (1, "a"), 1.0), ("P", (2, 3), -1.0), ("P", (4,), 1.0)),
     DataError, "P(2,3): attribute y expects string"),
    (Mvdb, _run(("P", (1, "a"), 1.0), ("P", (1, "a", 5), 1.0),
                ("P", ("x", "a"), 1.0)),
     DataError, "P(1,'a',5) has arity 3, expected 2"),
    (Mvdb, _run(("P", ("x", 7), 1.0)),
     DataError, "P('x',7): attribute x expects int"),
    (Mvdb, _run(("P", (1, "a"), 1.0), ("P", ("b", "c"), 1.0),
                ("P", (3, 4), 1.0)),
     DataError, "P('b','c'): attribute x expects int"),
], ids=["mvdb-split-duplicate", "indb-split-duplicate",
        "mvdb-earlier-run", "indb-earlier-run", "arity-in-later-run",
        "type-before-duplicate", "duplicate-before-type",
        "weight-before-duplicate", "weight-before-arity",
        "type-before-weight-and-arity", "arity-before-type",
        "first-attribute-first", "earlier-fact-of-another-column"])
def test_run_wise_validation_keeps_load_order(make, facts, error, message):
    with pytest.raises(MvdbError) as info:
        make(LOADER_SCHEMA, facts)
    assert type(info.value) is error
    assert str(info.value) == message


def _interned(db) -> list:
    """Every value of every possible tuple, interned eagerly in load
    order."""
    constants, seen = [], set()
    for fact in db.weights:
        for v in fact.values:
            if v not in seen:
                seen.add(v)
                constants.append(v)
    return constants


def test_lazy_domain_matches_eager_interning(tmp_path):
    from mvdb.cli import _load_project
    from mvdb.gendata import generate_project
    from helpers import chain_mvdb
    dblp = _load_project(str(generate_project(tmp_path / "p", seed=1,
                                              scale=60)))
    for db in (dblp, chain_mvdb(8)):
        assert db.domain is db.domain
        assert domain_constants(db.domain) == _interned(db)
        assert [db.domain.rank(v) for v in _interned(db)] == \
            list(range(len(db.domain)))


def test_loaded_project_digest_and_domain_order(tmp_path):
    from mvdb.cli import _load_project
    from mvdb.core import MEMORY_DIGEST, ProjectFiles, load_data, load_schema
    from mvdb.gendata import generate_project
    from mvdb.translate import load_views
    project = generate_project(tmp_path / "proj", seed=1, scale=60)
    digest = ("325c54020bfeb4efdd742e7651b274ad"
              "3310981b5dcfe8cdb8cce09e69fe4f69")
    assert ProjectFiles(project).digest == digest
    assert _load_project(project).digest == digest
    # The library loaders read no digest: the database is built in memory.
    schema = load_schema(project / "schema.txt")
    db = Mvdb(schema, load_data(schema, project / "data"),
              load_views(project / "views.txt", schema))
    assert db.digest == MEMORY_DIGEST != digest
    assert list(db.weights.items()) == \
        list(_load_project(project).weights.items())
    assert domain_constants(db.domain)[:20] == [
        1001, "a. stone", 1002, "b. rivera", 1003, "c. okafor", 1004,
        "d. madsen", 1005, "e. liu", 1006, "f. haines", 1007, "g. brandt",
        1008, "h. suzuki", 1009, "i. ferrara", 1, 4]


# -- digest: a sha256 of the bytes the project's files hold -------------------

def test_digest_matches_reference_on_corpora(tmp_path):
    # Each corpus database written as a project reads back with the same
    # weights and views (relation by relation, so in another load order),
    # and the byte digest of its files; two projects share a digest
    # exactly when their files hold the same bytes.
    from mvdb.cli import _load_project
    from mvdb.core import ProjectFiles
    from mvdb.gendata import generate_project
    from helpers import (chain_mvdb, digest_reference, random_mvdb,
                         viable_random_mvdb, write_project)
    roots = [generate_project(tmp_path / "p", seed=1, scale=60)]
    dbs = [chain_mvdb(8), chain_mvdb(20)]
    dbs += [viable_random_mvdb(seed)[0] for seed in range(200)]
    dbs += [random_mvdb(random.Random(seed)) for seed in range(500)]
    for i, db in enumerate(dbs):
        roots.append(tmp_path / str(i))
        write_project(roots[-1], db)
        loaded = _load_project(roots[-1])
        assert loaded.weights == db.weights and loaded.views == db.views
    contents = {}
    for root in roots:
        digest = ProjectFiles(root).digest
        assert digest == digest_reference(root)
        files = tuple((p.relative_to(root), p.read_bytes())
                      for p in _project_files(root))
        assert contents.setdefault(digest, files) == files
    assert len(set(contents.values())) == len(contents)


DIGEST_SCHEMA = parse_schema("""
relation A(x:string) key(x) probabilistic
relation B(x:int, y:string, z:int) key(x,y,z) probabilistic
relation D(x:int) key(x) deterministic
""")


def _project_files(root) -> list:
    """The paths of the project files under *root*, sorted."""
    return sorted(p for p in root.rglob("*") if p.suffix in (".txt", ".tsv"))


def _assert_digest_reads_bytes(root):
    """The digest of *root* is the reference's, and moves with any one
    byte of any file it reads."""
    from mvdb.core import ProjectFiles
    from helpers import digest_reference
    digest = ProjectFiles(root).digest
    assert digest == digest_reference(root)
    for path in _project_files(root):
        data = path.read_bytes()
        path.write_bytes(data + b" ")
        assert ProjectFiles(root).digest != digest, path
        path.write_bytes(data)
    assert ProjectFiles(root).digest == digest


@pytest.mark.parametrize("facts", [
    [(Fact("A", ("it's",)), 1.0), (Fact("A", ('say "hi"',)), 0.0),
     (Fact("A", ("back\\slash",)), 2.5), (Fact("A", ("both '\" \\'",)), 1.0),
     (Fact("A", ("naïve ünïcödé ✓ 𝔘",)), INF), (Fact("A", ("",)), 0.5),
     (Fact("A", ("%r %s %%",)), 1.0), (Fact("A", ("tab\tnew\nline",)), 1.0)],
    [(Fact("B", (-7, "x", 12345678901234567890)), 0.0),
     (Fact("B", (-98765432109876543210, "%d", 0)), INF),
     (Fact("D", (-1,)), INF), (Fact("D", (10 ** 19,)), INF),
     (Fact("A", ("a",)), 1e-300), (Fact("B", (1, "'", -1)), 1e300),
     (Fact("A", ("b",)), 3.0)],
    [],
], ids=["strings", "ints and runs", "empty"])
def test_digest_matches_reference_on_awkward_values(tmp_path, facts):
    # A tab or a newline in a value splits its row: the digest reads the
    # bytes, whether or not they parse back to the facts.
    from helpers import write_project
    write_project(tmp_path / "p", Mvdb(DIGEST_SCHEMA, facts, []))
    _assert_digest_reads_bytes(tmp_path / "p")


def test_digest_matches_reference_on_a_non_ascii_relation_name(tmp_path):
    # A relation name is part of a data file's path, and so of the digest.
    from mvdb.core import Attribute, Relation
    from helpers import write_project
    schema = Schema([Relation("Pé", (Attribute("x", "int"),), ("x",),
                              "probabilistic")])
    write_project(tmp_path / "p", Mvdb(schema, [(Fact("Pé", (1,)), 1.0)]))
    _assert_digest_reads_bytes(tmp_path / "p")
