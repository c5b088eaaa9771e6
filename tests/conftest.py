import cmath
from dataclasses import dataclass, replace

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from wavetime import scatter
from wavetime.cli import main as cli_main
from wavetime.errors import ResummationDivergenceError, ValidationError
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


def set_clock(profile, **strength):
    """profile with strength (omega_larmor=, v_imag=) set on every segment of
    its clock region: the clocked profile whose public solve a Larmor probe
    reproduces."""
    segments = list(profile.segments)
    for j in profile.clock_indices():
        segments[j] = replace(segments[j], **strength)
    return replace(profile, segments=tuple(segments))


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
    """Records one entry per scatter._segment_waves call (the interior-wave
    build that only wavefunction_at and the dwell time need)."""
    calls = []
    original = scatter._segment_waves

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scatter, "_segment_waves", counted)
    return calls


@pytest.fixture
def fft_lengths(monkeypatch):
    """Records the length of every numpy.fft and scipy.fft fft or ifft call."""
    import scipy.fft

    lengths = []
    for module in (scipy.fft, np.fft):
        for name in ("fft", "ifft"):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda a, n=None, *args, _f=original, **kw:
                    lengths.append(len(a) if n is None else n) or _f(a, n, *args, **kw),
            )
    return lengths


@dataclass(frozen=True)
class SMatrix:
    """Scalar 2-port scattering matrix.

    out_left  = r * in_left + t_rev * in_right
    out_right = t * in_left + r_rev * in_right
    """

    t: complex
    r: complex
    t_rev: complex
    r_rev: complex


def star(a, b):
    """Redheffer star product of SMatrix a followed (to the right) by b, in
    the arithmetic order the kernel's fold uses."""
    denom = 1.0 - a.r_rev * b.r
    if abs(denom) < 1e-300:
        raise ResummationDivergenceError("interface resummation diverges (unit-loop gain)")
    inv = 1.0 / denom
    return SMatrix(
        t=b.t * a.t * inv,
        r=a.r + a.t_rev * b.r * a.t * inv,
        t_rev=a.t_rev * b.t_rev * inv,
        r_rev=b.r_rev + b.t * a.r_rev * b.t_rev * inv,
    )


@dataclass(frozen=True)
class OracleChain:
    """A scattering chain composed element by element, with every cut kept."""

    prefix: list  # prefix[i] = star of elements[:i]
    suffix: list  # suffix[i] = star of elements[i:]
    left_cut: list  # per segment: element index after its entry interface
    right_start: list  # per segment: element index of its exit interface
    degenerate: list


def oracle_chain(ks, ds, k_left, k_right, prop_ks=None):
    """The interface, propagation and k ~ 0 block elements of a chain, and
    their prefix and suffix stars, composed with this module's own SMatrix and
    star, not the kernel's fold.  prop_ks, when given, replaces the
    wavevector of each segment's propagation factor only."""
    n = len(ks)
    dressed = prop_ks is not None
    prop_ks = prop_ks if dressed else ks
    degenerate = [scatter._is_degenerate(ks[j], ds[j], dressed) for j in range(n)]

    def interface(ka, kb):
        s = ka + kb
        if abs(s) < 1e-300:
            raise ValidationError("degenerate interface: ka + kb = 0")
        return SMatrix(2.0 * ka / s, (ka - kb) / s, 2.0 * kb / s, (kb - ka) / s)

    elements, left_cut, right_start = [], [0] * n, [0] * n
    j, k_prev, interface_pending = 0, k_left, True
    while j < n:
        if degenerate[j]:
            block, m, k_prev = scatter._degenerate_block(ks, ds, j, k_prev, k_right, prop_ks, dressed)
            elements.append(SMatrix(*block))
            for jj in range(j, m + 1):
                left_cut[jj] = right_start[jj] = len(elements)
            interface_pending = False
            j = m + 1
        else:
            if interface_pending:
                elements.append(interface(k_prev, ks[j]))
            left_cut[j] = len(elements)
            p = cmath.exp(1j * prop_ks[j] * ds[j])
            elements.append(SMatrix(p, 0j, p, 0j))
            right_start[j] = len(elements)
            k_prev, interface_pending = ks[j], True
            j += 1
    if interface_pending:
        elements.append(interface(k_prev, k_right))

    identity = SMatrix(1.0 + 0j, 0j, 1.0 + 0j, 0j)
    prefix = [identity]
    for el in elements:
        prefix.append(star(prefix[-1], el))
    suffix = [identity]
    for el in reversed(elements):
        suffix.append(star(el, suffix[-1]))
    suffix.reverse()
    return OracleChain(prefix, suffix, left_cut, right_start, degenerate)
