"""The benchmark's tracer wraps wavetime functions by name, so a function that
is renamed or deleted would break `perfbench/run.py --trace 1`, and a kernel
that stops calling the wrapped functions would make a counter read low.  The
tracer is loaded from its file; the tests that install it uninstall it."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from conftest import em_sweep_doc
from wavetime import cli
from wavetime.cli import Scenario

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


@pytest.mark.parametrize("parameter, grid", [("carrier", [9.0, 10.0, 11.0]),
                                             ("thickness", [0.5, 1.0])])
def test_transform_counter_sees_every_fft_of_a_row(monkeypatch, parameter, grid):
    # em_pulse.transforms counts to_spectrum and to_time calls, so an FFT
    # made any other way would be invisible to it.
    ffts = []
    for module in (scipy.fft, np.fft):
        for name in ("fft", "ifft"):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, _f=original, **k: ffts.append(_f) or _f(*a, **k)
            )
    tracing = load_tracing()
    scenario = Scenario(kind="em_pulse", payload=em_sweep_doc(parameter, grid),
                        sweep_parameter=parameter, sweep_grid=tuple(grid),
                        output_path="unused.csv", output_format="csv", digest="")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        table = cli.run_scenario(scenario)
    finally:
        tracer.uninstall()
    assert all(row[-1] is None for row in table.rows)
    metrics = tracing.layer_metrics(tracer.spans, passes=1, rows=len(grid))
    assert metrics["em_pulse.delay_decomposition.calls"] == len(grid)
    assert metrics["em_pulse.transforms"] == len(ffts) == 4 * len(grid)
