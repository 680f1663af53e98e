"""The layer names the benchmark's tracer wraps must exist in mvdb.

`perfbench/tracing.py` wraps public functions by module and attribute path,
so a rename in `src/` would otherwise break only its traced runs."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
