"""Command-line driver: compile, query, oracle, stats, gen-dblp."""

import gc
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvdb
from mvdb.cli import (EXIT_CAP, EXIT_INCONSISTENT, EXIT_INPUT, EXIT_OK,
                      EXIT_PIPE, EXIT_USAGE, main)
from mvdb.core import (DataError, IndexFormatError, InvalidViewError,
                       OrderMismatchError, QueryParseError, SchemaError,
                       UnrepresentableError)
from mvdb.gendata import generate_project
from mvdb.mvindex import IndexEvaluator, load_index

from helpers import (demo_query, mln_world_trace, ranks, with_columns,
                     with_orphan)


def run(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


@pytest.fixture
def project(tmp_path):
    path = tmp_path / "proj"
    generate_project(path, seed=1, scale=2)
    return path


def test_gen_is_deterministic(tmp_path):
    p1 = generate_project(tmp_path / "one", seed=1, scale=3)
    p2 = generate_project(tmp_path / "two", seed=1, scale=3)
    for rel in ("schema.txt", "views.txt", "data/Advisor.tsv",
                "data/Student.tsv", "data/Author.tsv", "data/CoPubs.tsv"):
        assert (p1 / rel).read_bytes() == (p2 / rel).read_bytes()
    p3 = generate_project(tmp_path / "three", seed=2, scale=3)
    assert (p1 / "data/Advisor.tsv").read_bytes() != \
        (p3 / "data/Advisor.tsv").read_bytes()


@pytest.mark.parametrize("scale", ["0", "-3"])
def test_gen_scale_below_one_is_a_usage_error(tmp_path, capsys, scale):
    out = tmp_path / "proj"
    rc, _ = run(["gen-dblp", "--out", str(out), "--scale", scale])
    assert rc == EXIT_USAGE
    assert "scale must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_compile_writes_index_and_report(project):
    rc, text = run(["compile", "--project", str(project), "--tsv"])
    assert rc == EXIT_OK
    assert (project / "index.mvx").exists()
    lines = text.strip().splitlines()
    assert lines[-4:-2] == ["constituents\t2", "shapes\t2"]
    assert lines[-2].startswith("total\t")
    assert lines[-1].startswith("p0_w\t")


def test_compile_deterministic_output(project, tmp_path):
    rc1, t1 = run(["compile", "--project", str(project), "--tsv"])
    blob1 = (project / "index.mvx").read_bytes()
    rc2, t2 = run(["compile", "--project", str(project), "--tsv"])
    blob2 = (project / "index.mvx").read_bytes()
    assert (rc1, t1) == (rc2, t2)
    assert blob1 == blob2


def test_query_engines_agree(project):
    run(["compile", "--project", str(project)])
    q = demo_query(project)
    rows = {}
    for engine in ("mv", "ccmv", "oracle"):
        rc, text = run(["query", "--project", str(project), "--engine",
                        engine, "--tsv", q])
        assert rc == EXIT_OK
        parsed = [line.split("\t") for line in text.strip().splitlines()]
        rows[engine] = [(r[0], float(r[1])) for r in parsed]
    assert [k for k, _ in rows["ccmv"]] == [k for k, _ in rows["oracle"]]
    for (k1, p1), (k2, p2) in zip(rows["ccmv"], rows["oracle"]):
        assert abs(p1 - p2) <= 1e-9
    for (k1, p1), (k2, p2) in zip(rows["ccmv"], rows["mv"]):
        assert p1 == pytest.approx(p2, abs=1e-12)


def test_query_boolean_single_row(project):
    run(["compile", "--project", str(project)])
    rc, text = run(["query", "--project", str(project), "--tsv",
                    "Q() :- Student(1, y)"])
    assert rc == EXIT_OK
    lines = text.strip().splitlines()
    assert len(lines) == 1
    float(lines[0])  # just the probability column


def test_query_timing_columns(project):
    run(["compile", "--project", str(project)])
    q = demo_query(project)
    rc, text = run(["query", "--project", str(project), "--timing", "--tsv",
                    q])
    assert rc == EXIT_OK
    first = text.strip().splitlines()[0].split("\t")
    assert len(first) == 5  # answer, probability, three timing columns
    assert all(int(c) >= 0 for c in first[2:])


def test_query_timing_is_per_row(project, monkeypatch):
    run(["compile", "--project", str(project)])
    original = IndexEvaluator._evaluate
    stamps = itertools.count()

    def stamped(self, q):
        result = original(self, q)
        n = next(stamps)
        self.last_timing = {"lineage_us": n, "build_us": n,
                            "intersect_us": n}
        return result

    monkeypatch.setattr(IndexEvaluator, "_evaluate", stamped)
    rc, text = run(["query", "--project", str(project), "--timing", "--tsv",
                    "Q(s) :- Advisor(s, a)"])
    assert rc == EXIT_OK
    rows = [line.split("\t") for line in text.strip().splitlines()]
    assert len(rows) >= 2
    assert [r[-3:] for r in rows] == [[str(i)] * 3 for i in range(len(rows))]


def test_query_parse_error_exit_code(project):
    run(["compile", "--project", str(project)])
    rc, _ = run(["query", "--project", str(project), "Q() :- Nope(x)"])
    assert rc == EXIT_INPUT


def test_query_world_cap_exit_code(project):
    rc, _ = run(["query", "--project", str(project), "--engine", "oracle",
                 "--world-cap", "4", "Q() :- Student(1, y)"])
    assert rc == EXIT_CAP


def test_usage_error_exit_code():
    rc, _ = run(["query"])  # missing required arguments
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("command, option, value", [
    ("compile", "--tolerance", "1"), ("compile", "--world-cap", "8"),
    ("oracle", "--index", "x"), ("oracle", "--tolerance", "1"),
    ("query", "--tolerance", "1")])
def test_option_the_command_does_not_read_is_a_usage_error(
        project, command, option, value):
    query = [] if command == "compile" else ["Q() :- Student(1, y)"]
    rc, _ = run([command, "--project", str(project), option, value, *query])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("engine", ["ccmv", "mv", "oracle"])
def test_boolean_query_without_match_prints_one_row(project, engine):
    run(["compile", "--project", str(project)])
    rc, text = run(["query", "--project", str(project), "--engine", engine,
                    "--tsv", "Q() :- Student(99, y)"])
    assert (rc, text) == (EXIT_OK, "0.0\n")


def test_malformed_view_reports_line(tmp_path, capsys):
    proj = tmp_path / "broken"
    generate_project(proj, seed=1, scale=2)
    views = (proj / "views.txt").read_text().splitlines()
    views.insert(1, "V9(x) [ :- Advisor(x, y)")
    (proj / "views.txt").write_text("\n".join(views) + "\n")
    rc, _ = run(["compile", "--project", str(proj)])
    assert rc == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err


def test_inconsistent_constraints_exit_code(tmp_path):
    proj = tmp_path / "incon"
    (proj / "data").mkdir(parents=True)
    (proj / "schema.txt").write_text(
        "relation D(x:string) key(x) deterministic\n"
        "relation R(x:string) key(x) probabilistic\n")
    (proj / "views.txt").write_text("V(x) [0] :- D(x)\n")
    (proj / "data" / "D.tsv").write_text("a\tinf\n")
    (proj / "data" / "R.tsv").write_text("a\t1.0\n")
    run(["compile", "--project", str(proj)])
    rc, _ = run(["query", "--project", str(proj), "Q() :- R('a')"])
    assert rc == EXIT_INCONSISTENT


def test_stats_report(project):
    run(["compile", "--project", str(project)])
    rc, text = run(["stats", "--project", str(project), "--tsv"])
    assert rc == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[-3] == "shapes\t2"
    assert lines[-2].startswith("p0_w\t")
    data_rows = lines[:-3]
    assert len(data_rows) == 2  # one constituent per student
    widths = [int(r.split("\t")[2]) for r in data_rows]
    assert all(w >= 1 for w in widths)


def test_overflowing_p0_not_w_prints_no_inf(tmp_path):
    # V1's weight raised from cnt / 2 to cnt * 1000000 puts P0(not W) near
    # 10^1193: the commands print its logarithm and sign, never inf.
    proj = generate_project(tmp_path / "p", seed=1, scale=200)
    views = proj / "views.txt"
    views.write_text(views.read_text().replace("[cnt / 2]",
                                               "[cnt * 1000000]"))
    texts = {}
    for argv in (["compile"], ["compile", "--tsv"], ["stats"],
                 ["stats", "--tsv"], ["stats", "--dump"],
                 ["query", "Q() :- Advisor(9, a)"],
                 ["query", "--engine", "mv", "--tsv", "--timing",
                  "Q(a) :- Advisor(9, a)"]):
        rc, text = run([argv[0], "--project", str(proj), *argv[1:]])
        assert rc == EXIT_OK, argv
        assert "inf" not in text, argv
        texts[" ".join(argv[:2])] = text
    assert "log10 P0(not W) = 1193." in texts["compile"]
    assert "P0(W)" not in texts["stats"]
    tsv = texts["stats --tsv"].splitlines()
    assert tsv[-2:-1] == ["sign_p0_not_w\t1"]
    assert tsv[-1].startswith("log10_p0_not_w\t1193.")


def test_stats_empty_index(tmp_path):
    proj = tmp_path / "noviews"
    (proj / "data").mkdir(parents=True)
    (proj / "schema.txt").write_text(
        "relation R(x:string) key(x) probabilistic\n")
    (proj / "data" / "R.tsv").write_text("a\t1.0\n")
    run(["compile", "--project", str(proj)])
    rc, text = run(["stats", "--project", str(proj), "--tsv"])
    assert rc == EXIT_OK
    rows = [l for l in text.strip().splitlines() if not l.startswith("p0_")]
    assert rows == ["shapes\t0"]


def test_stats_dump(project):
    run(["compile", "--project", str(project)])
    rc, text = run(["stats", "--project", str(project), "--dump"])
    assert rc == EXIT_OK
    head, *sections = text.split("\nconstituent ")
    assert sections
    # the tuple order, once, before the first constituent
    assert text.count("order ") == 1
    order = head.splitlines()[-1]
    assert order.startswith("order ")
    n_ranks = len(order.split()) - 1
    for section in sections:
        lines = section.splitlines()
        root = int(lines[1].removeprefix("root "))
        nodes = [tuple(map(int, line.split())) for line in lines[2:]]
        assert all(len(node) == 4 for node in nodes)
        ids = {0, 1} | {node[0] for node in nodes}
        assert [node[0] for node in nodes] == list(range(2, len(nodes) + 2))
        assert root in ids
        ranks = [node[1] for node in nodes]
        assert ranks == sorted(ranks)  # positions in rank order
        for _, rank, lo, hi in nodes:
            assert 0 <= rank < n_ranks
            assert lo in ids and hi in ids


def test_stale_index_detected(project):
    run(["compile", "--project", str(project)])
    advisor = project / "data" / "Advisor.tsv"
    rows = advisor.read_text().splitlines()
    first = rows[0].split("\t")
    first[-1] = "3.25"
    rows[0] = "\t".join(first)
    advisor.write_text("\n".join(rows) + "\n")
    rc, _ = run(["query", "--project", str(project),
                 "Q() :- Student(1, y)"])
    assert rc == EXIT_INPUT


def test_malformed_index_structure_exit_code(project, capsys):
    from mvdb import load_index, serialize
    run(["compile", "--project", str(project)])
    path = project / "index.mvx"
    index = load_index(path)
    index.constituents[0].shape.lo[0] = 10000
    path.write_bytes(serialize(index))
    capsys.readouterr()
    rc, _ = run(["query", "--project", str(project), "Q() :- Student(1, y)"])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "child code 10000" in err


def test_orphan_position_exit_code(project, capsys):
    # a node that no edge reaches, at the root's rank of the first shape:
    # position 1, so the positions stay in rank order, every child code
    # from 1 up shifted by one
    run(["compile", "--project", str(project)])
    path = project / "index.mvx"
    path.write_bytes(with_columns(path.read_bytes(), with_orphan(True)))
    for argv in (["query", "--project", str(project), "Q() :- Student(1, y)"],
                 ["stats", "--project", str(project)]):
        capsys.readouterr()
        rc, _ = run(argv)
        assert rc == EXIT_INPUT, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no edge's child" in err


def _old_format_file(blob: bytes, version: int) -> bytes:
    """The index in *blob* in the layout of format 5 (a JSON section with
    the tuple order as rows, ``[key, shape id, offset]`` heads and each
    shape's node count, then f64 probabilities and the shapes' i32 node
    blocks), 4 (every constituent's node blocks, ``[key, node count]``
    heads) or 3 (also permutations in the JSON section and a root code in
    every head)."""
    import json
    import struct
    import zlib
    from mvdb import deserialize
    index = deserialize(blob)
    cons = index.constituents
    facts = index.order.facts
    relations = list(dict.fromkeys(f.relation for f in facts))
    meta = {"relations": relations,
            "facts": [[relations.index(f.relation), *f.values]
                      for f in facts]}
    if version == 5:
        shapes = index.shapes
        meta["shapes"] = [len(s.rank) for s in shapes]
        meta["constituents"] = [[c.key, shapes.index(c.shape), c.offset]
                                for c in cons]
        blocks = [[x for s in shapes for x in getattr(s, name)]
                  for name in ("rank", "lo", "hi")]
    else:
        meta["constituents"] = [[c.key, len(c.shape.rank)] for c in cons]
        if version == 3:
            meta["pi"] = {}
            meta["constituents"] = [[c.key, 0, len(c.shape.rank)]
                                    for c in cons]
        blocks = [[x for c in cons for x in ranks(c)],
                  [x for c in cons for x in c.shape.lo],
                  [x for c in cons for x in c.shape.hi]]
    text = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    body = (blob[:4] + struct.pack("<I", version) + blob[8:40]
            + struct.pack("<I", len(text)) + text
            + struct.pack(f"<{len(index.probs)}d", *index.probs)
            + b"".join(struct.pack(f"<{len(values)}i", *values)
                       for values in blocks))
    return body + struct.pack("<I", zlib.crc32(body))


def test_v3_index_needs_recompile(project, capsys):
    # the v5 layout (a JSON section), the v4 one (node blocks per
    # constituent) and the v3 one (permutations in the JSON section, a root
    # code in every head)
    run(["compile", "--project", str(project)])
    path = project / "index.mvx"
    blob = path.read_bytes()
    for version in (3, 4, 5):
        path.write_bytes(_old_format_file(blob, version))
        for argv in (["query", "--project", str(project),
                      "Q() :- Student(1, y)"],
                     ["stats", "--project", str(project)]):
            _input_error(argv, capsys,
                         f"unsupported format version {version}; recompile")


def _input_error(argv, capsys, *words):
    """Run *argv* and expect exit 2 with an ``error:`` line holding every
    one of *words*."""
    capsys.readouterr()
    rc, _ = run(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT, err
    assert err.startswith("error: ") and all(w in err for w in words), err


@pytest.mark.parametrize("error", [
    SchemaError, DataError, QueryParseError, InvalidViewError,
    IndexFormatError, OrderMismatchError, UnrepresentableError, OSError])
def test_an_input_error_exits_2_with_one_error_line(error, monkeypatch,
                                                     capsys):
    # Every engine error but those of exits 3 and 4, and every OSError but
    # a broken pipe, is an input error: one ``error:`` line, exit 2.
    def fail(path):
        raise error("no index here")
    monkeypatch.setattr("mvdb.cli.load_index", fail)
    capsys.readouterr()
    assert run(["stats", "--index", "index.mvx"]) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == "error: no index here\n"


def _assert_index_defect(project, capsys, edit, words,
                         query="Q() :- Student(1, y)"):
    """Compile *project*, apply *edit* to its index's columns, and expect
    `deserialize` to raise and ``mvdb query`` to exit 2, both naming
    *words*."""
    run(["compile", "--project", str(project)])
    path = project / "index.mvx"
    blob = with_columns(path.read_bytes(),
                        lambda columns: edit(columns) or columns)
    with pytest.raises(mvdb.IndexFormatError, match=words):
        mvdb.deserialize(blob)
    path.write_bytes(blob)
    _input_error(["query", "--project", str(project), query], capsys, words)


def _shape_id_out_of_range(columns):
    columns["shape"][0] = len(columns["nodes"])


def _offset_past_the_order(columns):
    # the last head's offset is the sum of the gaps
    columns["gap"][-1] += len(columns["relation"]) - sum(columns["gap"])


def _overlapping_offsets(columns):
    columns["gap"][1] = 0


def _unused_shape(columns):
    columns["nodes"].append(0)


def _shape_count_off_by_one(columns):
    columns["nodes"][0] += 1


@pytest.mark.parametrize("edit, words", [
    (_shape_id_out_of_range, "shape id 2 out of range"),
    (_offset_past_the_order, "rank outside the variable order"),
    (_overlapping_offsets, "rank ranges overlap"),
    (_unused_shape, "a shape no constituent uses"),
    (_shape_count_off_by_one, "blocks do not match their counts"),
])
def test_shape_defects_exit_2(project, capsys, edit, words):
    # the gen-dblp scale-2 index: two constituents, one per shape
    _assert_index_defect(project, capsys, edit, words)


def test_empty_constituent_with_an_offset_exits_2(tmp_path, capsys):
    # a block whose W is valid compiles to an empty constituent, the empty
    # shape at offset 0
    proj = tmp_path / "valid_block"
    (proj / "data").mkdir(parents=True)
    (proj / "schema.txt").write_text(
        "relation D(x:string) key(x) deterministic\n"
        "relation R(x:string) key(x) probabilistic\n")
    (proj / "views.txt").write_text("V(x) [0] :- D(x)\n")
    (proj / "data" / "D.tsv").write_text("a\tinf\n")
    (proj / "data" / "R.tsv").write_text("a\t1.0\n")

    def offset_one(columns):
        assert columns["nodes"] == [0]
        assert columns["shape"] == columns["gap"] == [0]
        columns["gap"][0] = 1

    _assert_index_defect(proj, capsys, offset_one,
                         "empty constituent with an offset", "Q() :- R('a')")


def _int_project(path, views: str):
    (path / "data").mkdir(parents=True)
    (path / "schema.txt").write_text(
        "relation R(x:int) key(x) probabilistic\n")
    (path / "views.txt").write_text(views)
    (path / "data" / "R.tsv").write_text("1\t2.0\n2\t0.5\n")
    return path


@pytest.mark.parametrize("command", ["compile", "oracle"])
def test_view_weight_division_by_zero_exit_code(tmp_path, capsys, command):
    proj = _int_project(tmp_path / "p", "V(x) [x / 0] :- R(x)\n")
    argv = [command, "--project", str(proj)]
    if command == "oracle":
        argv.append("Q() :- R(1)")
    _input_error(argv, capsys, "view V", "division by zero")


def test_view_weight_too_large_for_a_float_exit_code(tmp_path, capsys):
    proj = _int_project(tmp_path / "p", f"V(x) [{10 ** 400}] :- R(x)\n")
    _input_error(["compile", "--project", str(proj)], capsys,
                 "view V", "too large for a float")


def test_view_weight_sum_overflow_exit_code(tmp_path, capsys):
    proj = _int_project(tmp_path / "p",
                        f"V(x) [0.5 + {10 ** 400}] :- R(x)\n")
    _input_error(["compile", "--project", str(proj)], capsys,
                 "view V", "cannot evaluate")


def test_query_predicate_division_by_zero_exit_code(tmp_path, capsys):
    proj = _int_project(tmp_path / "p", "V(x) [0.5] :- R(x)\n")
    assert run(["compile", "--project", str(proj)])[0] == EXIT_OK
    for engine in ("ccmv", "mv", "oracle"):
        _input_error(["query", "--project", str(proj), "--engine", engine,
                      "Q() :- R(x), x / 0 > 1"], capsys, "division by zero")


@pytest.mark.parametrize("name", ["schema.txt", "views.txt",
                                  "data/Advisor.tsv"])
def test_non_utf8_input_file_exit_code(project, capsys, name):
    path = project / name
    path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
    query = "Q() :- Student(1, y)"
    for argv in (["compile", "--project", str(project)],
                 ["oracle", "--project", str(project), query]):
        _input_error(argv, capsys, str(path), "not UTF-8")


def test_index_path_that_is_a_directory_exit_code(project, capsys):
    run(["compile", "--project", str(project)])
    for argv in (["stats", "--index", str(project)],
                 ["query", "--project", str(project), "--index",
                  str(project), "Q() :- Student(1, y)"]):
        _input_error(argv, capsys, str(project))


def test_oracle_command(project):
    rc, text = run(["oracle", "--project", str(project), "--tsv",
                    "Q() :- Advisor(1, a), Student(1, y)"])
    assert rc == EXIT_OK
    row = text.strip().splitlines()[0].split("\t")
    assert len(row) == 4
    assert float(row[3]) <= 1e-12


def test_oracle_translates_once_for_all_answers(project, monkeypatch):
    # the translation and both world-weight arrays do not depend on the
    # answer, so one command builds them once
    from mvdb import cli, oracle, translate
    build_indb = translate.build_indb
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_indb(*args, **kwargs)

    for module in (translate, oracle, cli):
        monkeypatch.setattr(module, "build_indb", counted)
    rc, text = run(["oracle", "--project", str(project), "--tsv",
                    "Q(s, a) :- Advisor(s, a)"])
    assert rc == EXIT_OK
    rows = [line.split("\t") for line in text.strip().splitlines()]
    assert len(rows) > 1
    assert all(float(row[3]) <= 1e-12 for row in rows)
    assert len(calls) == 1


def test_gen_scale_series_sizes(tmp_path):
    sizes = {}
    for n in (20, 40):
        proj = tmp_path / f"s{n}"
        generate_project(proj, seed=1, scale=n, views=("v2",))
        rc, text = run(["compile", "--project", str(proj), "--tsv"])
        assert rc == EXIT_OK
        total = [l for l in text.splitlines() if l.startswith("total\t")][0]
        sizes[n] = int(total.split("\t")[1])
    assert 1.8 <= sizes[40] / sizes[20] <= 2.2


def test_generated_denial_view_zeroes_multi_advisor_worlds(tmp_path):
    from mvdb.core import load_schema, load_data, Mvdb
    from mvdb.translate import load_views
    proj = tmp_path / "denial"
    generate_project(proj, seed=1, scale=2)
    schema = load_schema(proj / "schema.txt")
    db = Mvdb(schema, load_data(schema, proj / "data"),
              load_views(proj / "views.txt", schema))
    saw_multi = 0
    for world, weight in mln_world_trace(db):
        advisors_of = {}
        for f in world.present:
            if f.relation == "Advisor":
                advisors_of.setdefault(f.values[0], []).append(f.values[1])
        if any(len(v) > 1 for v in advisors_of.values()):
            saw_multi += 1
            assert weight == 0.0
    assert saw_multi > 0


def _rows(text):
    return [line.split("\t") for line in text.strip().splitlines()]


def _edit_view_weight(project):
    views = project / "views.txt"
    views.write_text(views.read_text().replace("[cnt / 2]", "[cnt / 3]"))


def _add_data_row(project):
    with open(project / "data" / "Student.tsv", "a") as fh:
        fh.write("3\t2003\t1.5\n")


def _change_schema(project):
    with open(project / "schema.txt", "a") as fh:
        fh.write("relation Extra(x:int) key(x) probabilistic\n")


def _index_version_1(project):
    import struct
    import zlib
    path = project / "index.mvx"
    body = bytearray(path.read_bytes()[:-4])
    body[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))


@pytest.mark.parametrize("edit", [_edit_view_weight, _add_data_row,
                                  _change_schema, _index_version_1])
def test_stale_index_needs_recompile(project, capsys, edit):
    run(["compile", "--project", str(project)])
    edit(project)
    capsys.readouterr()
    rc, _ = run(["query", "--project", str(project), "Q() :- Student(1, y)"])
    assert rc == EXIT_INPUT
    assert "recompile" in capsys.readouterr().err


def test_digest_does_not_depend_on_hash_seed(project):
    code = ("import sys; from mvdb.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(mvdb.__file__).resolve().parents[1])
    q = demo_query(project)

    def cli(seed, *argv):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    assert cli("1", "compile", "--project", str(project)).returncode == 0
    done = cli("2", "query", "--project", str(project), "--tsv", q)
    assert done.returncode == 0, done.stderr
    assert done.stdout == run(["query", "--project", str(project), "--tsv",
                               q])[1]


def test_query_does_not_translate(project, monkeypatch):
    run(["compile", "--project", str(project)])
    q = demo_query(project)
    argv = {engine: ["query", "--project", str(project), "--engine", engine,
                     "--tsv", q] for engine in ("ccmv", "mv", "oracle")}
    before = {engine: run(argv[engine]) for engine in ("ccmv", "mv")}

    def translate(*args, **kwargs):
        raise RuntimeError("translated")

    monkeypatch.setattr("mvdb.cli.build_indb", translate)
    monkeypatch.setattr("mvdb.translate.materialize_view", translate)
    for engine, (rc, text) in before.items():
        assert rc == EXIT_OK and _rows(text)
        assert run(argv[engine]) == (rc, text)
    with pytest.raises(RuntimeError, match="translated"):
        run(argv["oracle"])


def test_int_constants_beyond_64_bits(tmp_path):
    big = 2 ** 70
    proj = tmp_path / "bigint"
    (proj / "data").mkdir(parents=True)
    (proj / "schema.txt").write_text(
        "relation R(x:int) key(x) probabilistic\n"
        "relation S(x:int) key(x) probabilistic\n")
    (proj / "views.txt").write_text("V(x) [0.5] :- R(x), S(x)\n")
    (proj / "data" / "R.tsv").write_text(f"{big}\t2.0\n{-big}\t1.0\n5\t3.0\n")
    (proj / "data" / "S.tsv").write_text(f"{big}\t1.5\n{-big}\t0.5\n")
    assert run(["compile", "--project", str(proj)])[0] == EXIT_OK
    rows = {}
    for engine in ("ccmv", "mv", "oracle"):
        rc, text = run(["query", "--project", str(proj), "--engine", engine,
                        "--tsv", "Q(x) :- R(x), S(x)"])
        assert rc == EXIT_OK
        rows[engine] = _rows(text)
    assert [r[0] for r in rows["ccmv"]] == [str(-big), str(big)]
    for engine in ("mv", "oracle"):
        assert [r[0] for r in rows[engine]] == [r[0] for r in rows["ccmv"]]
        for got, want in zip(rows[engine], rows["ccmv"]):
            assert float(got[1]) == pytest.approx(float(want[1]), abs=1e-9)


def test_python_dash_m_mvdb_runs_the_cli(project):
    run(["compile", "--project", str(project)])
    index = str(project / "index.mvx")
    env = dict(os.environ,
               PYTHONPATH=str(Path(mvdb.__file__).resolve().parents[1]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "mvdb", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = cli("stats", "--index", index, "--tsv")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == run(["stats", "--index", index, "--tsv"])[1]
    assert done.stdout.count("\n") > 2
    done = cli("stats", "--tsv")
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("usage error: ")


def test_cold_query_imports_no_numpy(tmp_path):
    # A fresh process pays for every module a cold query imports, and
    # importing numpy alone takes longer than a whole cold query.  At
    # scale 20 every shape has enough constituents for the lane pass.
    project = generate_project(tmp_path / "proj", seed=1, scale=20)
    assert run(["compile", "--project", str(project)])[0] == EXIT_OK
    index = load_index(project / "index.mvx")
    assert all(sum(c.shape is s for c in index.constituents) > 1
               for s in index.shapes)
    code = ("import sys; from mvdb.cli import main; "
            "rc = main(sys.argv[1:]); "
            "print('numpy' in sys.modules, file=sys.stderr); sys.exit(rc)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(mvdb.__file__).resolve().parents[1]))
    argv = ["query", "--project", str(project), "--tsv",
            "Q(a) :- Advisor(7, a)"]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout and done.stdout == run(argv)[1]
    assert done.stderr == "False\n"


def test_closed_stdout_exits_141_silently(tmp_path):
    # `head -1` on a dump larger than a 64 KiB pipe buffer: the reader
    # closes the pipe while the command still writes
    project = generate_project(tmp_path / "proj", seed=1, scale=400)
    assert run(["compile", "--project", str(project)])[0] == EXIT_OK
    index = str(project / "index.mvx")
    assert len(run(["stats", "--index", index, "--dump"])[1]) > 65536
    env = dict(os.environ,
               PYTHONPATH=str(Path(mvdb.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "mvdb", "stats",
                             "--index", index, "--dump"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"key")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_PIPE == 141
    assert stderr == b""


def _commands(project):
    return [["compile", "--project", str(project), "--tsv"],
            ["query", "--project", str(project), "--tsv",
             "Q() :- Advisor(1, a)"],
            ["query", "--project", str(project), "--tsv",
             "Q(a) :- Advisor(s, a)"],
            ["stats", "--project", str(project), "--tsv"]]


def test_commands_leave_cyclic_garbage_independent_of_scale(tmp_path):
    # `main` pauses the collector on the premise that a command leaves no
    # cyclic garbage growing with the data: only argparse's constant amount
    def garbage(argv):
        gc.collect()
        gc.disable()
        try:
            assert run(argv)[0] == EXIT_OK, argv
            return gc.collect()
        finally:
            gc.enable()

    counts = {}
    for scale in (20, 80):
        project = generate_project(tmp_path / str(scale), seed=1, scale=scale)
        counts[scale] = [garbage(argv) for argv in _commands(project)]
    assert counts[20] == counts[80]


def test_query_starts_no_collection(tmp_path):
    project = generate_project(tmp_path / "proj", seed=1, scale=20)
    compile_argv, query_argv = _commands(project)[:2]
    assert run(compile_argv)[0] == EXIT_OK
    # A young pass may start as `main` re-enables the collector, after the
    # command's frame is gone; none may start while that frame runs.
    body = getattr(main, "__wrapped__", main).__code__
    starts = []

    def record(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not body:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        assert gc.isenabled()
        assert run(query_argv)[0] == EXIT_OK
    finally:
        gc.callbacks.remove(record)
    assert starts == []


def test_main_restores_the_callers_collector_state(project):
    run(["compile", "--project", str(project)])
    ok = ["query", "--project", str(project), "Q() :- Student(1, y)"]
    bad = ["query", "--project", str(project), "Q() :- Student(1"]
    assert gc.isenabled()
    assert run(ok)[0] == EXIT_OK
    assert gc.isenabled()
    assert run(bad)[0] == EXIT_INPUT
    assert gc.isenabled()
    gc.disable()
    try:
        assert run(ok)[0] == EXIT_OK
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- the cold query: the index's facts, the project's bytes -------------------

def _parsed_relations(monkeypatch) -> list:
    """Patch `parse_data_file` to record the relation of every TSV parsed."""
    from mvdb import core
    seen = []
    real = core.parse_data_file

    def spy(rel, *args, **kwargs):
        seen.append(rel.name)
        return real(rel, *args, **kwargs)

    monkeypatch.setattr(core, "parse_data_file", spy)
    return seen


def _chain_project(root):
    from helpers import chain_mvdb, write_project
    write_project(root, chain_mvdb(8))
    return root


def test_cold_query_parses_only_what_the_index_lacks(tmp_path, monkeypatch):
    dblp = generate_project(tmp_path / "dblp", seed=1, scale=20)
    chain = _chain_project(tmp_path / "chain")
    # the relations parsed by a compile, then by each cold query: only
    # those it names that the index does not hold
    cases = [(dblp, ["Author", "CoPubs", "Student", "Advisor"],
              [("Q(a) :- Advisor(7, a)", []),
               ("Q(n) :- Advisor(7, a), Author(a, n)", ["Author"]),
               ("Q(a, c) :- Advisor(s, a), CoPubs(s, a, c), c > 3",
                ["CoPubs"])]),
             (chain, ["R", "S", "T"], [("Q() :- R(x), S(x, y), T(y)", [])])]
    for project, everything, queries in cases:
        seen = _parsed_relations(monkeypatch)
        assert run(["compile", "--project", str(project)])[0] == EXIT_OK
        assert seen == everything
        for q, parsed in queries:
            for engine in ("ccmv", "mv"):
                seen.clear()
                rc, _ = run(["query", "--project", str(project), "--engine",
                             engine, q])
                assert rc == EXIT_OK
                assert seen == parsed, (project, q, engine)


MIXED_SCHEMA = """\
relation D(x:string) key(x) deterministic
relation R(x:string) key(x) probabilistic
relation S(x:string, y:string) key(x,y) probabilistic
"""


@pytest.fixture
def mixed(tmp_path):
    """R holds inf-weight and weight-0 rows besides finite ones, so the
    tuple order holds only some of its facts; S's are all in it."""
    proj = tmp_path / "mixed"
    (proj / "data").mkdir(parents=True)
    (proj / "schema.txt").write_text(MIXED_SCHEMA)
    (proj / "views.txt").write_text("V(x) [0.5] :- R(x), S(x, y)\n"
                                    "W(y) [0] :- S(x, y), D(x), R(x)\n")
    (proj / "data" / "D.tsv").write_text("a0\tinf\na2\tinf\n")
    (proj / "data" / "R.tsv").write_text(
        "a0\tinf\na1\t0\na2\t2.0\na3\t0.5\na4\tinf\n")
    (proj / "data" / "S.tsv").write_text(
        "a0\tb0\t1.0\na1\tb1\t0.5\na2\tb0\t0\na2\tb1\t3.0\na3\tb2\t0.25\n"
        "a4\tb2\t1.5\n")
    assert run(["compile", "--project", str(proj)])[0] == EXIT_OK
    return proj


MIXED_QUERIES = ["Q(x) :- R(x), S(x, y)", "Q() :- R(x), S(x, 'b0')",
                 "Q(y) :- S(x, y), D(x)", "Q(x) :- R(x)", "Q() :- R('a4')"]

# gen-dblp queries naming {Advisor}, {Student, Advisor}, {Author, Advisor}
# and {CoPubs, Advisor}
DBLP_QUERIES = ["Q(a) :- Advisor(7, a)",
                "Q(s, y) :- Student(s, y), Advisor(s, 1002)",
                "Q(n) :- Advisor(7, a), Author(a, n)",
                "Q(a, c) :- Advisor(s, a), CoPubs(s, a, c), c > 3"]

# gen-dblp queries naming three relations, {Student, Advisor, Author} and
# {Student, Advisor, CoPubs}, each with a few answers at scale 2000 too
DBLP_THREE_QUERIES = [
    "Q(n, y) :- Student(7, y), Advisor(7, a), Author(a, n)",
    "Q(s, c) :- Student(s, y), Advisor(s, 1002), CoPubs(s, 1002, c)"]


@pytest.fixture(scope="module")
def dblp_2000(tmp_path_factory):
    """The gen-dblp scale-2000 project, compiled."""
    project = generate_project(tmp_path_factory.mktemp("dblp"), seed=1,
                               scale=2000)
    assert run(["compile", "--project", str(project)])[0] == EXIT_OK
    return project


def test_cold_query_on_a_mixed_relation(mixed, monkeypatch):
    from mvdb import answer_query, build_indb, parse_query
    from mvdb.cli import _load_project
    index = load_index(mixed / "index.mvx")
    assert index.complete == {"S", "NV"}
    tr = build_indb(_load_project(mixed))
    seen = _parsed_relations(monkeypatch)
    for text in MIXED_QUERIES:
        q = parse_query(text, tr.indb.schema)
        for engine, mode in (("ccmv", "cc"), ("mv", "mv")):
            seen.clear()
            rc, out = run(["query", "--project", str(mixed), "--engine",
                           engine, "--tsv", text])
            assert rc == EXIT_OK
            assert seen == [r for r in ("D", "R") if r in q.relations()]
            warm = IndexEvaluator(index, tr.indb.possible_instance(), mode)
            want = answer_query(q, tr, warm)
            assert _rows(out) == [[*map(str, a), repr(p)] for a, p in want]
        rc, out = run(["query", "--project", str(mixed), "--engine",
                       "oracle", "--tsv", text])
        assert rc == EXIT_OK
        got = _rows(out)
        assert [r[:-1] for r in got] == [list(map(str, a)) for a, _ in want]
        for row, (_, p) in zip(got, want):
            assert float(row[-1]) == pytest.approx(p, abs=1e-9)


def test_cold_rows_equal_a_warm_evaluator_over_every_relation(
        mixed, dblp_2000, tmp_path):
    # The cold query's instance holds only the relations the query names,
    # and its index builds only theirs; the warm evaluator's holds every
    # one, over an index whose relations its lineages build.  At scale 2000
    # the queries with many answers are left out.
    from mvdb import answer_query, build_indb, parse_query
    from mvdb.cli import _load_project
    dblp = generate_project(tmp_path / "dblp", seed=1, scale=20)
    assert run(["compile", "--project", str(dblp)])[0] == EXIT_OK
    for project, queries in (
            (dblp, DBLP_QUERIES + DBLP_THREE_QUERIES),
            (dblp_2000, DBLP_QUERIES[:3] + DBLP_THREE_QUERIES),
            (mixed, MIXED_QUERIES)):
        index = load_index(project / "index.mvx")
        tr = build_indb(_load_project(project))
        for text in queries:
            q = parse_query(text, tr.indb.schema)
            for engine, mode in (("ccmv", "cc"), ("mv", "mv")):
                rc, out = run(["query", "--project", str(project),
                               "--engine", engine, "--tsv", text])
                assert rc == EXIT_OK
                warm = IndexEvaluator(index, tr.indb.possible_instance(),
                                      mode)
                want = answer_query(q, tr, warm)
                assert want
                assert _rows(out) == [[*map(str, a), repr(p)]
                                      for a, p in want], (text, engine)


def test_a_cold_point_query_builds_one_relation_and_one_constituent(
        dblp_2000, monkeypatch):
    # `Q(a) :- Advisor(7, a)` names Advisor alone and meets student 7's
    # constituent alone: the loaded index builds the facts of Advisor and
    # no other relation, and derives the entry tables of that constituent.
    loaded = []

    def spy(path):
        loaded.append(load_index(path))
        return loaded[-1]

    monkeypatch.setattr(mvdb.cli, "load_index", spy)
    text = "Q(a) :- Advisor(7, a)"
    for engine in ("ccmv", "mv"):
        rc, out = run(["query", "--project", str(dblp_2000), "--engine",
                       engine, "--tsv", text])
        assert rc == EXIT_OK and len(_rows(out)) in (2, 3)
        index = loaded[-1]
        advisor = (dblp_2000 / "data" / "Advisor.tsv").read_text()
        assert len(index.order.rank) == advisor.count("\n") > 4000
        assert {f.relation for f in index.order.rank} == {"Advisor"}
        assert len(index.constituents) == 2000
        assert [c.key for c in index.constituents
                if c.entry is not None] == [7]
    fresh = load_index(dblp_2000 / "index.mvx")
    assert not fresh.order.rank
    assert all(c.entry is None for c in fresh.constituents)


def test_cold_instance_shares_the_index_facts(mixed, tmp_path):
    from mvdb.cli import _parse_rest, _query_instance
    from mvdb.core import ProjectFiles
    chain = _chain_project(tmp_path / "chain")
    dblp = generate_project(tmp_path / "dblp", seed=1, scale=20)
    for project in (mixed, chain, dblp):
        run(["compile", "--project", str(project)])
        index = load_index(project / "index.mvx")
        files = ProjectFiles(project)
        ranked = {f: f for f in index.order.facts}
        want = mvdb.cli._load_project(project).possible_instance()
        every = [rel.name for rel in files.schema.relations]
        assert index.complete & set(every)
        # every relation, then each alone: the instance of a query naming
        # only some holds theirs and nothing else
        for names in (set(every), *({name} for name in every)):
            instance = _query_instance(files.schema, index,
                                       _parse_rest(files, index, names),
                                       names)
            held = [f for name in names if name in index.complete
                    for f in instance.facts_of(name)]
            assert all(ranked[f] is f for f in held)
            assert bool(held) == bool(names & index.complete)
            assert instance.facts == {f for f in want.facts
                                      if f.relation in names}
            assert instance.deterministic == {f for f in want.deterministic
                                              if f.relation in names}


def _append(name, data=b" "):
    def edit(project):
        with open(project / name, "ab") as fh:
            fh.write(data)
    return edit


def _replace_byte(name, old: bytes, new: bytes):
    def edit(project):
        path = project / name
        data = path.read_bytes()
        assert len(old) == len(new) == 1 and old in data
        path.write_bytes(data.replace(old, new, 1))
    return edit


@pytest.mark.parametrize("edit", [
    # a trailing space: every file still parses to the same project
    _append("schema.txt"), _append("views.txt"),
    _append("data/Author.tsv"),  # deterministic, not named by the query
    _append("data/Student.tsv"),  # probabilistic, not parsed by a query
    # one byte changed in place
    _replace_byte("schema.txt", b" ", b"\t"),
    _replace_byte("views.txt", b"2", b"3"),
    _replace_byte("data/Author.tsv", b"e", b"f"),
    _replace_byte("data/Advisor.tsv", b"5", b"6"),
    lambda project: (project / "views.txt").unlink(),
], ids=["schema space", "views space", "deterministic tsv space",
        "skipped tsv space", "schema byte", "views byte",
        "deterministic tsv byte", "skipped tsv byte", "views removed"])
def test_a_byte_edit_needs_recompile(project, capsys, edit):
    run(["compile", "--project", str(project)])
    edit(project)
    _input_error(["query", "--project", str(project), "Q() :- Student(1, y)"],
                 capsys, "index does not match the project; recompile")


def test_an_unparsed_tsv_byte_edit_needs_recompile(project, capsys,
                                                  monkeypatch):
    # The query names neither Author nor any relation the index lacks, so
    # it parses no TSV; the digest still covers Author's bytes.
    q = "Q(a) :- Advisor(7, a)"
    run(["compile", "--project", str(project)])
    seen = _parsed_relations(monkeypatch)
    assert run(["query", "--project", str(project), q])[0] == EXIT_OK
    assert seen == []
    _replace_byte("data/Author.tsv", b"e", b"f")(project)
    _input_error(["query", "--project", str(project), q], capsys,
                 "index does not match the project; recompile")


def test_adding_a_tsv_needs_recompile(project, capsys):
    # An empty file holds no rows, but the compile did not read it.
    (project / "data" / "Author.tsv").unlink()
    run(["compile", "--project", str(project)])
    assert run(["query", "--project", str(project),
                "Q() :- Student(1, y)"])[0] == EXIT_OK
    (project / "data" / "Author.tsv").write_bytes(b"")
    _input_error(["query", "--project", str(project), "Q() :- Student(1, y)"],
                 capsys, "index does not match the project; recompile")


def test_v7_index_needs_recompile(project, capsys):
    # the v7 layout: the v8 one with the values column in rank order, so
    # of the same length; the version alone tells them apart
    import struct
    import zlib
    run(["compile", "--project", str(project)])
    path = project / "index.mvx"
    blob = path.read_bytes()
    body = blob[:4] + struct.pack("<I", 7) + blob[8:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    for argv in (["query", "--project", str(project), "Q() :- Student(1, y)"],
                 ["stats", "--project", str(project)]):
        _input_error(argv, capsys, "unsupported format version 7; recompile")


def test_v6_index_needs_recompile(project, capsys):
    # the v6 layout: the v7 one (and the v8 one) without the `complete`
    # column
    import struct
    import zlib
    from helpers import column_spans
    run(["compile", "--project", str(project)])
    path = project / "index.mvx"
    blob = path.read_bytes()
    start, end = [(a, b) for name, _, a, b in column_spans(blob)
                  if name == "complete"][0]
    body = (blob[:4] + struct.pack("<I", 6) + blob[8:start]
            + blob[end:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    for argv in (["query", "--project", str(project), "Q() :- Student(1, y)"],
                 ["stats", "--project", str(project)]):
        _input_error(argv, capsys, "unsupported format version 6; recompile")
