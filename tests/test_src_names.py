"""Every module-level function and class in mvdb has a caller.

A name defined at the top level of `src/mvdb/*.py` passes when the code of
mvdb names it outside its own definition (a call, an attribute read, a
table entry, an annotation), when the benchmark's sources name it, or when
`pyproject.toml`'s entry points do.  The re-exports of `__init__.py` do not
count: a name only the tests use belongs in `tests/helpers.py`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvdb"
PERFBENCH = ROOT / "perfbench"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIER_PATH = re.compile(r"[A-Za-z_][\w.]*")


def _named(tree: ast.AST, paths: bool = False) -> set:
    """The names *tree* reads: its names and its attributes, and with
    *paths* each part of a string that is a dotted identifier path
    (perfbench wraps layers by module and attribute path)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (paths and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _IDENTIFIER_PATH.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def _unreferenced() -> list:
    """``module.name`` of each top-level function or class of mvdb that
    nothing outside its own definition names."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, _DEFINITIONS):
                defined.append((path.stem, node.name))
                used.update(_named(node) - {node.name})
            else:
                used.update(_named(node))
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(_named(ast.parse(path.read_text(), str(path)), True))
    used.update(re.findall(r"[\w.]+:(\w+)",
                           (ROOT / "pyproject.toml").read_text()))
    return [f"{module}.{name}" for module, name in defined
            if name not in used]


def test_every_src_name_has_a_caller():
    assert _unreferenced() == []
