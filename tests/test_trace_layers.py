"""The benchmark's tracer wraps functions by name: every (module, function)
in bench/tracing.py's LAYERS must stay a module-level callable of semidyn,
or a traced run fails at its getattr."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, fn) for mod, fn, _ in module.LAYERS]


@pytest.mark.parametrize("mod,fn", load_layers())
def test_layer_is_a_module_level_function(mod, fn):
    module = importlib.import_module(f"semidyn.{mod}")
    target = getattr(module, fn, None)
    assert inspect.isfunction(target) and target.__qualname__ == fn, \
        f"semidyn.{mod}.{fn} is not a module-level function"
