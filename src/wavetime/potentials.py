"""Piecewise-constant 1D scattering landscapes with clock-region annotations.

Units are natural throughout the quantum modules: hbar = 1 and 2m = 1, so a
plane wave in a region of constant potential V has wavevector k = sqrt(E - V).

Sign convention: time dependence exp(-iEt), and v_imag > 0 means absorption
(the Hamiltonian carries -i*v_imag, so flux decays).  This is fixed by a unit
test; see scatter.wavevector for the branch rule.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ValidationError, _finite

__all__ = [
    "Segment",
    "PotentialProfile",
    "make_rectangular_barrier",
]


def _index_pair(pair, n_segments: int, name: str) -> tuple[int, int] | None:
    """pair as (lo, hi) if it is a two-item sequence of integers (numpy
    integers too, booleans not), else None; a ValidationError names the field
    if such a pair is not 0 <= lo <= hi < n_segments."""
    try:
        lo, hi = pair
        if isinstance(lo, bool) or isinstance(hi, bool):
            return None
        lo, hi = operator.index(lo), operator.index(hi)
    except (TypeError, ValueError):
        return None
    if not 0 <= lo <= hi < n_segments:
        raise ValidationError(f"{name}: ({lo}, {hi}) out of range for {n_segments} segments")
    return lo, hi


@dataclass(frozen=True)
class Segment:
    """One constant-potential slab, checked and stored as floats on construction.

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

    def __post_init__(self) -> None:
        for name in ("length", "v_real", "v_imag", "omega_larmor"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if not self.length > 0.0:
            raise ValidationError(f"length: must be > 0, got {self.length!r}")


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered piecewise-constant potential with an optional clock region.

    The profile occupies x in [0, extent()].  clock_region is an inclusive
    (start, stop) pair of segment indices, or None when no region is marked;
    any in-range pair of integers is stored as a tuple of ints.
    Asymptotic leads are real constant potentials (default 0) extending to
    +/- infinity; they must support plane waves, so they carry no imaginary
    potential and no Larmor field by construction.
    """

    segments: tuple[Segment, ...]
    clock_region: tuple[int, int] | None = None
    v_left: float = 0.0
    v_right: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.segments, (tuple, list))
                and all(isinstance(seg, Segment) for seg in self.segments)):
            raise ValidationError(f"segments: expected a sequence of Segments, got {self.segments!r}")
        object.__setattr__(self, "segments", tuple(self.segments))
        for name in ("v_left", "v_right"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if self.clock_region is not None:
            pair = _index_pair(self.clock_region, len(self.segments), "clock_region")
            if pair is None:
                raise ValidationError(f"clock_region: expected a [first, last] pair of integer "
                                      f"segment indices, got {self.clock_region!r}")
            object.__setattr__(self, "clock_region", pair)

    def extent(self) -> float:
        """Total length of the profile: the last of edges(), so that every
        x below it lies in a segment."""
        return self.edges()[-1]

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

    def require_clock_region(self) -> tuple[int, int]:
        """The clock region, for a clock that times it; a ValidationError if none."""
        if self.clock_region is None:
            raise ValidationError("profile has no clock region")
        return self.clock_region


def make_rectangular_barrier(v0: float, width: float) -> PotentialProfile:
    """Single rectangular barrier of height v0; the barrier is the clock region.

    Raises:
        ValidationError: if width is not positive and finite, or v0 not finite.
    """
    return PotentialProfile(segments=(Segment(length=width, v_real=v0),), clock_region=(0, 0))
