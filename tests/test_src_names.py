"""Every module-level function and class in mvdb, and every method and
property of its classes, has a caller.

A name defined at the top level of `src/mvdb/*.py`, or in the body of a
class there (dunders excepted: Python calls them), passes when the code of
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

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _class_names(node: ast.ClassDef, defined: list, prefix: str) -> set:
    """The names class *node* reads outside its methods' own definitions,
    each method or property (dunders apart) added to *defined* as
    ``(prefix.Class.name, name)``."""
    used = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTIONS):
            if not _dunder(child.name):
                defined.append((f"{prefix}.{node.name}.{child.name}",
                                child.name))
            used.update(_named(child) - {child.name})
        else:
            used.update(_named(child))
    return used


def _unreferenced() -> list:
    """``module.name`` of each top-level function or class of mvdb, and
    ``module.Class.name`` of each method or property, that nothing outside
    its own definition names."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                defined.append((f"{path.stem}.{node.name}", node.name))
                used.update(_class_names(node, defined, path.stem)
                            - {node.name})
            elif isinstance(node, _FUNCTIONS):
                defined.append((f"{path.stem}.{node.name}", node.name))
                used.update(_named(node) - {node.name})
            else:
                used.update(_named(node))
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(_named(ast.parse(path.read_text(), str(path)), True))
    used.update(re.findall(r"[\w.]+:(\w+)",
                           (ROOT / "pyproject.toml").read_text()))
    return [where for where, name in defined if name not in used]


def test_every_src_name_has_a_caller():
    assert _unreferenced() == []
