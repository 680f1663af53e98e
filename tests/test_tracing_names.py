"""The names the benchmark imports from mvdb and the layers its tracer
wraps must exist in mvdb.

`perfbench/` imports mvdb names, several inside functions, and
`perfbench/tracing.py` wraps public functions by module and attribute path,
so a rename in `src/` would otherwise break only the benchmark's runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _tracing_module().LAYERS
    assert layers
    missing = []
    for name, module, path, _ in layers:
        target = importlib.import_module(module)
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append((name, module, path))
    assert missing == []


def _mvdb_imports():
    """``(file, line, module, name)`` for every ``from mvdb... import name``
    in perfbench's sources, at any depth, found without importing them."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "mvdb"):
                found += [(path.name, node.lineno, node.module, alias.name)
                          for alias in node.names]
    return found


def test_every_name_the_benchmark_imports_resolves():
    imports = _mvdb_imports()
    assert imports
    missing = []
    for where, line, module, name in imports:
        if hasattr(importlib.import_module(module), name):
            continue
        try:  # ``from mvdb import cli`` names a submodule
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append((where, line, module, name))
    assert missing == []
