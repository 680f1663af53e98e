"""Print the statements of `src/mvdb` that the benchmark and the CLI never
run, function by function.

Under `sys.settrace`, all in this one process, it runs the benchmark's
smoke runs of every workload with tracing off and on (``perfbench/run.py
--workload W --seed 3 --seconds 1 --trace T --smoke``, by calling its
``main``), then these commands through `cli.main` on a ``gen-dblp``
project of seed 1 and scale 3: `CLI_COMMANDS`, i.e. ``compile``, ``stats
--dump``, ``query`` with each engine and with ``--timing``, and
``oracle``.  Each run must succeed: a benchmark run whose result line is
not ``correct`` with ``failed`` 0, or a command that exits non-zero, stops
the script.

Then, for each function and method of `src/mvdb`, nested ones listed
apart, it prints ``file:line qualname`` and the first lines of its
statements that never ran, docstrings excluded, or ``never called`` for a
function none of whose statements ran.  A statement ran when a line event
fell on one of its header lines: all of a simple statement's lines, and a
compound statement's lines before its body.  A ``try`` has no code of its
own, so only its body and handlers count.  The last line counts the
statements and those that never ran.  Usage::

    python tests/traffic_lines.py

It tells which of the engine's paths the benchmark's workloads and the CLI
take, and so which a change to them verifies by traffic.  The script is
not a test module: pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvdb"

# Each command's argv, {p} standing for the project directory.
CLI_COMMANDS = (
    ["compile", "--project", "{p}"],
    ["stats", "--project", "{p}", "--dump"],
    ["query", "--project", "{p}", "--engine", "ccmv", "Q(a) :- Advisor(1, a)"],
    ["query", "--project", "{p}", "--engine", "mv", "Q() :- Student(1, y)"],
    ["query", "--project", "{p}", "--engine", "oracle",
     "Q() :- Student(1, y)"],
    ["query", "--project", "{p}", "--timing", "--tsv",
     "Q(a) :- Advisor(1, a)"],
    ["oracle", "--project", "{p}", "Q(a) :- Advisor(1, a)"],
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tracer(hits: set):
    """A `sys.settrace` function that adds ``(filename, line)`` to *hits*
    for every line event in a file under `SRC`."""
    prefix = os.path.realpath(SRC) + os.sep
    inside: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return local if inside[name] else None
    return call


def _benchmark():
    """The benchmark's smoke runs, each checked by its result line."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    for workload in ("dblp", "chain"):
        for trace in ("0", "1"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.main(["--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", trace, "--smoke"])
            result = json.loads(out.getvalue().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"benchmark run {workload} --trace {trace} "
                                 f"failed: {result}")


def _commands():
    """`CLI_COMMANDS` on a fresh gen-dblp project, each checked by its exit
    code."""
    from mvdb.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        project = str(Path(tmp) / "proj")
        argvs = [["gen-dblp", "--out", project, "--seed", "1", "--scale",
                  "3"]]
        argvs += [[a.format(p=project) for a in argv]
                  for argv in CLI_COMMANDS]
        for argv in argvs:
            if main(argv, out=io.StringIO()):
                raise SystemExit(f"mvdb {' '.join(argv)} failed")


def _header(stmt) -> range:
    """The lines of *stmt* whose line events say that it ran."""
    first = min([stmt.lineno]
                + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(first, body[0].lineno - 1) + 1)
    return range(first, stmt.end_lineno + 1)


def _statements(body):
    """The statements of a function body that run code, recursing into
    compound statements but not into nested definitions, whose own
    statements are listed apart."""
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue  # a docstring, or any bare constant: no code
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        if not isinstance(stmt, ast.Try):
            yield stmt
        if isinstance(stmt, _DEFS):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, ()))
        for handler in getattr(stmt, "handlers", ()):
            yield from _statements(handler.body)


def _functions(tree, prefix=""):
    """``(qualname, node)`` of every function and method in *tree*."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name, node
            yield from _functions(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler,
                               ast.With, ast.For, ast.While)):
            yield from _functions(node, prefix)


def _report(hits: set) -> list[str]:
    """One line per function with a statement that never ran, then the
    totals."""
    lines_of: dict = {}
    for filename, line in hits:
        lines_of.setdefault(os.path.realpath(filename), set()).add(line)
    out, total, missed = [], 0, 0
    for path in sorted(SRC.glob("*.py")):
        ran = lines_of.get(os.path.realpath(path), set())
        tree = ast.parse(path.read_text(), str(path))
        for name, fn in _functions(tree):
            stmts = list(_statements(fn.body))
            never = [s.lineno for s in stmts
                     if ran.isdisjoint(_header(s))]
            total += len(stmts)
            missed += len(never)
            if not never:
                continue
            where = f"{path.name}:{fn.lineno} {name}"
            if len(never) == len(stmts):
                out.append(f"{where}: never called")
            else:
                out.append(f"{where}: " + " ".join(map(str, never)))
    out.append(f"{missed} of {total} statements never ran")
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    hits: set = set()
    sys.settrace(_tracer(hits))
    try:
        import mvdb
        if Path(mvdb.__file__).resolve().parent != SRC:
            raise SystemExit(f"imported mvdb from {mvdb.__file__}, not {SRC}")
        _benchmark()
        _commands()
    finally:
        sys.settrace(None)
    print("\n".join(_report(hits)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
