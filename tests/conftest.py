import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from wavetime import scatter
from wavetime.cli import main as cli_main
from wavetime.potentials import PotentialProfile, Segment


def random_real_profile(rng, max_segments=5, v_range=(-3.0, 6.0), clock_region=False):
    """Random piecewise-constant real profile (deterministic given the rng)."""
    n = int(rng.integers(1, max_segments + 1))
    segments = tuple(
        Segment(
            length=float(rng.uniform(0.1, 2.0)),
            v_real=float(rng.uniform(*v_range)),
        )
        for _ in range(n)
    )
    region = None
    if clock_region:
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
        region = (lo, hi)
    return PotentialProfile(segments=segments, clock_region=region)


def random_complex_profile(rng, max_segments=5):
    """Random profile including absorptive segments."""
    n = int(rng.integers(1, max_segments + 1))
    segments = tuple(
        Segment(
            length=float(rng.uniform(0.1, 2.0)),
            v_real=float(rng.uniform(-3.0, 6.0)),
            v_imag=float(rng.uniform(0.0, 1.0)),
        )
        for _ in range(n)
    )
    return PotentialProfile(segments=segments)


def safe_energy(rng, profile, margin=1e-2):
    """Random energy above both leads and away from every segment top."""
    floor = max(profile.v_left, profile.v_right)
    for _ in range(1000):
        e = float(rng.uniform(floor + 0.05, floor + 8.0))
        if all(abs(e - s.v_real) > margin for s in profile.segments):
            return e
    raise RuntimeError("could not find a non-degenerate energy")


def em_sweep_doc(parameter, grid, n_samples=2048, span=120.0):
    """em_pulse scenario (no output section) through a lossy plasma slab, whose
    omega = 0 point is singular and whose cutoff lies inside the carrier range."""
    return {
        "schema_version": 1,
        "kind": "em_pulse",
        "pulse": {"carrier": 10.0, "duration": 2.0, "center": 30.0,
                  "n_samples": n_samples, "span": span},
        "medium": {"model": "plasma", "thickness": 2.0, "plasma_strength": 8.0, "damping": 0.05},
        "sweep": {"parameter": parameter, "grid": list(grid)},
    }


# One sweep of each parameter that the split-grid invariance covers.
SPLIT_SWEEPS = {
    "energy": {
        "schema_version": 1,
        "kind": "timescale_sweep",
        "profile": {"segments": [{"length": 1.0, "v_real": 2.0}], "clock_region": [0, 0]},
        # E = 2.0 is the barrier top, so one row is reason-coded
        "sweep": {"parameter": "energy", "grid": [0.3, 0.9, 1.5, 2.0, 2.7, 4.1]},
    },
    "carrier": em_sweep_doc("carrier", [4.0, 6.5, 9.0, 12.0, 16.0, 21.0]),
    "thickness": em_sweep_doc("thickness", [0.25, 0.5, 1.0, 2.0, 3.5]),
}


def run_sweep(tmp_path, doc, name):
    """`wavetime run` on doc written to its own scenario file; returns the CSV
    data rows (bytes, metadata and header lines dropped)."""
    path = tmp_path / f"{name}.yaml"
    out = tmp_path / f"{name}.csv"
    path.write_text(yaml.safe_dump({**doc, "output": {"path": str(out), "format": "csv"}}))
    res = CliRunner().invoke(cli_main, ["run", str(path)])
    assert res.exit_code == 0, res.output
    return [line for line in out.read_bytes().splitlines() if not line.startswith(b"#")][1:]


def whole_and_split_rows(tmp_path, doc):
    """Data rows of the sweep run whole, and of its two halves concatenated.
    The second half runs first, so no row can depend on what ran before it."""
    grid = doc["sweep"]["grid"]
    half = len(grid) // 2
    parts = [{**doc, "sweep": {**doc["sweep"], "grid": g}} for g in (grid[:half], grid[half:])]
    second = run_sweep(tmp_path, parts[1], "second")
    first = run_sweep(tmp_path, parts[0], "first")
    return run_sweep(tmp_path, doc, "whole"), first + second


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def chain_builds(monkeypatch):
    """Records one entry per scatter._build_chain call (the prefix/suffix
    chain that only interior waves and partial_waves need)."""
    calls = []
    original = scatter._build_chain

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scatter, "_build_chain", counted)
    return calls
