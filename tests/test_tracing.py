"""The benchmark's tracer wraps wavetime functions by name, so a function that
is renamed or deleted would break `perfbench/run.py --trace 1`, and a kernel
that stops calling the wrapped functions would make a counter read low.  The
tracer is loaded from its file; the tests that install it uninstall it."""
import importlib.util
import json
from pathlib import Path

import pytest

from wavetime import cli, em_pulse
from wavetime.cli import Scenario

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_declared_layer_metrics_are_the_tracers():
    # BENCHMARK.json declares the per-layer metrics that tracing.py reports:
    # the same names, units and order, so neither drifts from the other.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == list(load_tracing().LAYER_METRICS)


@pytest.mark.parametrize("parameter, grid", [("carrier", [9.0, 10.0, 11.0]),
                                             ("thickness", [0.5, 1.0])])
def test_band_rows_make_no_counted_transform(fft_lengths, parameter, grid):
    # em_pulse.transforms counts to_spectrum and to_time calls.  A row of the
    # benchmark grid (N = 16384) makes none: its 4 FFTs are of its band, of
    # length 4096, through numpy.fft, and the counter does not see them.
    tracing = load_tracing()
    scenario = Scenario(kind="em_pulse", sweep_parameter=parameter, sweep_grid=tuple(grid),
                        output_path="unused.csv", output_format="csv", digest="",
                        pulse=em_pulse.PulseSpec(carrier=10.0, duration=2.0, center=30.0,
                                                 n_samples=16384, span=200.0),
                        medium=em_pulse.MediumSpec(em_pulse.MediumKind.PLASMA, thickness=2.0,
                                                   plasma_strength=8.0, damping=0.05))
    em_pulse._grid_dispersion.cache_clear()
    em_pulse._moment_kernel.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        table = cli.run_scenario(scenario)
    finally:
        tracer.uninstall()
    assert all(row[-1] is None for row in table.rows)
    metrics = tracing.layer_metrics(tracer.spans, passes=1, rows=len(grid))
    assert metrics["em_pulse.delay_decomposition.calls"] == len(grid)
    assert metrics["em_pulse.transforms"] == 0
    # One more FFT builds the moment kernel, once per sweep.
    assert len(fft_lengths) == 4 * len(grid) + 1
    assert set(fft_lengths) == {4096}
    assert em_pulse._grid_dispersion.cache_info().misses == 1
