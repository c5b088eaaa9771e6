"""The benchmark's tracer wraps wavetime functions by name, so a function that
is renamed or deleted would break `perfbench/run.py --trace 1`.  The tracer is
loaded here without installing it."""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracing().WRAPPED


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in WRAPPED],
                         ids=[entry[2] for entry in WRAPPED])
def test_every_wrapped_function_exists(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
