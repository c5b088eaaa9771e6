"""Piecewise-constant 1D scattering landscapes with clock-region annotations.

Units are natural throughout the quantum modules: hbar = 1 and 2m = 1, so a
plane wave in a region of constant potential V has wavevector k = sqrt(E - V).

Sign convention: time dependence exp(-iEt), and v_imag > 0 means absorption
(the Hamiltonian carries -i*v_imag, so flux decays).  This is fixed by a unit
test; see scatter.wavevector for the branch rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "Segment",
    "PotentialProfile",
    "make_rectangular_barrier",
    "validate",
]


@dataclass(frozen=True)
class Segment:
    """One constant-potential slab.

    Attributes:
        length: Spatial extent (> 0).
        v_real: Real potential height V0.
        v_imag: Imaginary potential strength V_I (positive = absorption).
        omega_larmor: Larmor angular frequency applied in this segment
            (zero when the segment carries no spin clock).
    """

    length: float
    v_real: float
    v_imag: float = 0.0
    omega_larmor: float = 0.0


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered piecewise-constant potential with an optional clock region.

    The profile occupies x in [0, extent()].  clock_region is an inclusive
    (start, stop) pair of segment indices, or None when no region is marked.
    Asymptotic leads are real constant potentials (default 0) extending to
    +/- infinity; they must support plane waves, so they carry no imaginary
    potential and no Larmor field by construction.
    """

    segments: tuple[Segment, ...]
    clock_region: tuple[int, int] | None = None
    v_left: float = 0.0
    v_right: float = 0.0

    def extent(self) -> float:
        """Total length of the profile."""
        return sum(s.length for s in self.segments)

    def edges(self) -> list[float]:
        """Interface positions, including x=0 and x=extent()."""
        xs = [0.0]
        for s in self.segments:
            xs.append(xs[-1] + s.length)
        return xs

    def clock_indices(self) -> tuple[int, ...]:
        """Segment indices inside the clock region (empty if unmarked)."""
        if self.clock_region is None:
            return ()
        lo, hi = self.clock_region
        return tuple(range(lo, hi + 1))


def make_rectangular_barrier(v0: float, width: float) -> PotentialProfile:
    """Single rectangular barrier of height v0; the barrier is the clock region.

    Raises:
        ValidationError: if width is not positive and finite.
    """
    if not (width > 0.0 and math.isfinite(width)):
        raise ValidationError(f"barrier width must be positive and finite, got {width}")
    if not math.isfinite(v0):
        raise ValidationError(f"barrier height must be finite, got {v0}")
    seg = Segment(length=width, v_real=v0)
    return PotentialProfile(segments=(seg,), clock_region=(0, 0))


def validate(profile: PotentialProfile) -> list[str]:
    """Check all profile invariants; returns a list of violations (empty if valid).

    Total: never raises for any finite-typed input.
    """
    violations: list[str] = []
    for i, seg in enumerate(profile.segments):
        if not (isinstance(seg.length, (int, float)) and math.isfinite(seg.length) and seg.length > 0):
            violations.append(f"segment {i}: length must be positive and finite, got {seg.length}")
        for name in ("v_real", "v_imag", "omega_larmor"):
            val = getattr(seg, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                violations.append(f"segment {i}: {name} must be finite, got {val}")
    if profile.clock_region is not None:
        lo, hi = profile.clock_region
        n = len(profile.segments)
        if not (isinstance(lo, int) and isinstance(hi, int) and 0 <= lo <= hi < n):
            violations.append(f"clock_region {profile.clock_region} out of range for {n} segments")
    for side, val in (("left", profile.v_left), ("right", profile.v_right)):
        if not (isinstance(val, (int, float)) and math.isfinite(val)):
            violations.append(f"{side} asymptotic potential must be finite, got {val}")
    # Leads are part of the type (real constants), so the asymptotic-region
    # invariant can only be broken by segments pretending to be leads; nothing
    # further to check here.
    return violations

