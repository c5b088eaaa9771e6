"""Exact transfer-matrix / scattering-matrix solution of 1D Helmholtz scattering.

Piecewise-constant complex potentials are solved by composing per-interface and
per-segment scattering matrices with the Redheffer star product.  The star
product never mixes growing and decaying exponentials, so opaque barriers
(|Im k| * length >> 1) are handled without overflow or cancellation.

Every S-matrix comes from one composer, _fold: a left-to-right pass that
keeps a running (t, r, t_rev, r_rev), builds each element (an interface, or a
merged k ~ 0 run) as a plain tuple and applies the one Redheffer star.  Every
fold is prepared by one _Chain: the bare wavevectors, lengths and leads at one
energy, and the exit phase.  solve() reads its amplitudes off one fold of it,
and partial_waves folds the stacks on either side of the clock region.  The
interior waves come from two plain folds of a _Chain that record their state
at every segment: one over the chain, and one over its mirror image for the
reflection off everything to the right; a solution builds them on first
access (wavefunction_at), the dwell time with no solution.
The clock probes in timescales fold a _Chain directly, with wavevectors from _k
(wavevector's k^2 and branch rule on bare numbers), so a probe's amplitude is
that of solve(profile, E, channel) for the clocked profile (channel +1 or -1
for a Zeeman component).  The sojourn's dressed fold moves only propagation
wavevectors, and is an amplitude only: solve_with_propagation_override
returns it, and no solution or interior wave carries a dressing.

Amplitude conventions: the incident wave is exp(i k_L x) with unit amplitude in
absolute coordinates, so the empty (zero-potential) profile gives t = 1, r = 0.
The exit-plane-referenced amplitude t_local (transmitted amplitude at x = X
relative to incident amplitude at x = 0) is stored as well; its phase carries
the kinematic crossing phase and is what the Wigner delay differentiates.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    NoOpenChannelError,
    RegimeAmbiguityError,
    ResummationDivergenceError,
    ValidationError,
)
from .potentials import PotentialProfile, Segment

__all__ = [
    "wavevector",
    "solve",
    "wavefunction_at",
    "partial_waves",
    "ScatteringSolution",
    "PartialWaveSet",
]

# Below this |k|*d a segment takes the transfer-matrix block, entire in k^2 and
# bounded there, where plane-wave interfaces nearly cancel (flux is lost just
# above a segment top, and a thin strong absorber overflows).
_DEGENERATE_KD = 1e-2
# Below this |k|*(1+d) a segment sits at its barrier top.  A propagation
# override is defined on plane waves (interfaces at the bare k), so a dressed
# fold keeps them on every segment above its barrier top.
_BARRIER_TOP_K = 1e-5


def wavevector(E: float, segment: Segment, channel: int | None = None) -> complex:
    """Complex wavevector k = sqrt(E - V_eff) in a segment.

    V_eff combines the real potential, the absorption term and (optionally)
    the Zeeman shift: k^2 = E - v_real + i*v_imag + channel*omega_larmor/2,
    where channel is +1 for the spin-up Zeeman component (barrier lowered) and
    -1 for spin-down.  v_imag > 0 is absorption under the exp(-iEt)
    convention, hence the +i sign in k^2.

    Branch: principal square root for propagating-dominant segments
    (Re k^2 >= 0, keeps Re k > 0 through the V_I -> 0 limit for both signs);
    Im k >= 0 otherwise (decaying evanescent solutions).  The branch cut is
    never crossed by analytic continuation.
    """
    shift = None if channel is None else channel * segment.omega_larmor / 2.0
    return _k(E, segment.v_real, segment.v_imag, shift)


def _k(E: float, v_real: float, v_imag: float, shift: complex | None = None) -> complex:
    """wavevector's k^2 = complex(E - v_real, v_imag) (+ shift, which may be
    complex) and its branch, on bare numbers: the clock probes call it for the
    segments they move, so a probe's k is the public solve's to the bit."""
    k2 = complex(E - v_real, v_imag)
    if shift is not None:
        k2 += shift
    if k2.real >= 0.0:
        return cmath.sqrt(k2)
    # i * sqrt(-k2) has Im >= 0 and continues k(V_I) smoothly through 0.
    return 1j * cmath.sqrt(-k2)


def _check_energy(E: float) -> None:
    if not math.isfinite(E):
        raise ValidationError(f"E must be finite, got {E}")


def _sinkd_over_k(k: complex, d: float) -> complex:
    """sin(k d)/k, stable through k -> 0."""
    kd = k * d
    if abs(kd) < 1e-4:
        kd2 = kd * kd
        return d * (1.0 - kd2 / 6.0 + kd2 * kd2 / 120.0)
    return cmath.sin(kd) / k


def _segment_transfer(k: complex, d: float) -> tuple[complex, complex, complex, complex]:
    """(psi, psi') transfer matrix across one segment, as (m11, m12, m21, m22);
    exact for any k, det = 1."""
    c = cmath.cos(k * d)
    s = _sinkd_over_k(k, d)
    return c, s, -k * k * s, c


def _block_smatrix(
    M: tuple[complex, complex, complex, complex], ka: complex, kc: complex
) -> tuple[complex, complex, complex, complex]:
    """Convert a (psi, psi') transfer matrix to the (t, r, t_rev, r_rev) of an
    S-matrix between plane-wave bases ka (left) and kc (right).  Used for
    near-zero-k segments only, where M carries no large exponentials."""
    m11, m12, m21, m22 = M
    ika, ikc = 1j * ka, 1j * kc
    # Unknowns (C, B) for inputs (A, D); see continuity of psi and psi'.
    g11, g12 = 1.0 + 0j, -m11 + m12 * ika
    g21, g22 = ikc, -m21 + m22 * ika
    det = g11 * g22 - g12 * g21
    if abs(det) < 1e-300:
        raise ValidationError("singular basis conversion at a zero-k segment")

    def _solve(rhs1: complex, rhs2: complex) -> tuple[complex, complex]:
        c = (rhs1 * g22 - g12 * rhs2) / det
        b = (g11 * rhs2 - rhs1 * g21) / det
        return c, b

    t, r = _solve(m11 + m12 * ika, m21 + m22 * ika)
    r_rev, t_rev = _solve(-1.0 + 0j, ikc)
    return t, r, t_rev, r_rev


@dataclass(frozen=True)
class _SegmentWave:
    """Interior wavefunction data for one segment.

    kind "pw": psi(x) = a * exp(ik(x-x0)) + b * exp(-ik(x-x0-d))  (dual-edge
    referenced so both terms decay inward for evanescent k).
    kind "lin": psi(x) = a * cos(k(x-x0)) + b * sin(k(x-x0))/k  (stable k -> 0).
    """

    kind: str
    k: complex
    x0: float
    d: float
    a: complex
    b: complex

    def value(self, x: float) -> complex:
        u = x - self.x0
        if self.kind == "pw":
            return self.a * cmath.exp(1j * self.k * u) + self.b * cmath.exp(
                -1j * self.k * (u - self.d)
            )
        return self.a * cmath.cos(self.k * u) + self.b * _sinkd_over_k(self.k, u)

    def derivative(self, x: float) -> complex:
        u = x - self.x0
        if self.kind == "pw":
            return 1j * self.k * (
                self.a * cmath.exp(1j * self.k * u)
                - self.b * cmath.exp(-1j * self.k * (u - self.d))
            )
        return -self.k * self.k * _sinkd_over_k(self.k, u) * self.a + self.b * cmath.cos(
            self.k * u
        )


def _is_degenerate(k: complex, d: float, dressed: bool) -> bool:
    """Whether a segment takes the k ~ 0 block: in a fold with propagation
    overrides, only at its barrier top."""
    return abs(k) * (1.0 + d) < _BARRIER_TOP_K if dressed else abs(k) * d < _DEGENERATE_KD


def _degenerate_block(
    ks: list[complex],
    ds: list[float],
    j: int,
    k_prev: complex,
    k_right: complex,
    prop_ks: list[complex],
    dressed: bool,
) -> tuple[tuple[complex, complex, complex, complex], int, complex]:
    """Merge the run of consecutive k ~ 0 segments that starts at j into one
    block from medium k_prev into the medium after the run.  Returns the
    block's (t, r, t_rev, r_rev), the run's last segment index and that next
    medium's wavevector.  An override on any segment of the run is refused:
    the block has no propagation factor to carry it."""
    n = len(ks)
    m = j
    while m + 1 < n and _is_degenerate(ks[m + 1], ds[m + 1], dressed):
        m += 1
    if any(prop_ks[i] != ks[i] for i in range(j, m + 1)):
        raise RegimeAmbiguityError(
            "cannot dress a segment at its barrier top (k ~ 0); offset E"
        )
    m11, m12, m21, m22 = _segment_transfer(ks[j], ds[j])
    for i in range(j + 1, m + 1):
        c, s, sk, _ = _segment_transfer(ks[i], ds[i])
        m11, m12, m21, m22 = (
            c * m11 + s * m21, c * m12 + s * m22, sk * m11 + c * m21, sk * m12 + c * m22
        )
    kc = ks[m + 1] if m + 1 < n else k_right
    return _block_smatrix((m11, m12, m21, m22), k_prev, kc), m, kc


def _fold(
    ks: list[complex],
    ds: list[float],
    k_left: complex,
    k_right: complex,
    prop_ks: list[complex] | None = None,
    states: list | None = None,
) -> tuple[complex, complex, complex, complex]:
    """(t, r, t_rev, r_rev) of the whole chain, composed in one left-to-right
    pass of Redheffer stars with no element or prefix list.

    Each step builds the element that enters the next medium, as a plain
    (t, r, t_rev, r_rev): the interface from the previous medium, or a merged
    k ~ 0 run, which enters the medium after the run.  It stars that element
    into the running S-matrix, then the medium's propagation factor, which has
    r = r_rev = 0, so its star has denominator exactly 1 and reduces to the
    products below.  When states is given, the running (t, r_rev) is appended
    as the fold enters each segment (after its interface, before its
    propagation), and None for each segment of a k ~ 0 run.
    """
    n = len(ks)
    dressed = prop_ks is not None
    if not dressed:
        prop_ks = ks
    t, r, t_rev, r_rev = 1.0 + 0j, 0j, 1.0 + 0j, 0j
    k_prev = k_left
    j = 0
    while True:
        if j < n and _is_degenerate(ks[j], ds[j], dressed):
            (b_t, b_r, b_t_rev, b_r_rev), m, k = _degenerate_block(
                ks, ds, j, k_prev, k_right, prop_ks, dressed)
            if states is not None:
                states.extend([None] * (m + 1 - j))
            j = m + 1
        else:
            k = ks[j] if j < n else k_right
            s = k_prev + k
            if abs(s) < 1e-300:
                raise ValidationError("degenerate interface: ka + kb = 0")
            b_t, b_r = 2.0 * k_prev / s, (k_prev - k) / s
            b_t_rev, b_r_rev = 2.0 * k / s, (k - k_prev) / s
        # The Redheffer star of the running S-matrix followed by the element.
        denom = 1.0 - r_rev * b_r
        if abs(denom) < 1e-300:
            raise ResummationDivergenceError("interface resummation diverges (unit-loop gain)")
        inv = 1.0 / denom
        t, r, t_rev, r_rev = (
            b_t * t * inv,
            r + t_rev * b_r * t * inv,
            t_rev * b_t_rev * inv,
            b_r_rev + b_t * r_rev * b_t_rev * inv,
        )
        if j == n:
            return t, r, t_rev, r_rev
        if states is not None:
            states.append((t, r_rev))
        try:
            p = cmath.exp(1j * prop_ks[j] * ds[j])
        except (OverflowError, ValueError):  # a strong gain, or a phase beyond float range
            raise ResummationDivergenceError(f"exp(i k d) of segment {j} lies beyond float range") from None
        t, t_rev, r_rev = p * t, t_rev * p, p * r_rev * p
        k_prev = k
        j += 1


def _segment_waves(chain: _Chain) -> tuple[_SegmentWave, ...]:
    """Interior wave coefficients of every segment of the chain, from two
    recorded plain folds.

    The forward fold gives, at each segment's left edge, the transmission t
    into it and the reflection r_rev back off everything to its left, and its
    own r.  The fold of the mirrored chain (segments reversed, leads swapped)
    gives, at its right edge, the reflection off everything to its right as
    its own r_rev.  A uniform segment's transfer matrix is mirror-symmetric,
    so a k ~ 0 block mirrors like any other element.
    """
    ks, ds = chain.ks, chain.ds
    forward: list = []
    mirrored: list = []
    r = _fold(ks, ds, chain.k_l, chain.k_r, states=forward)[1]
    _fold(ks[::-1], ds[::-1], chain.k_r, chain.k_l, states=mirrored)
    mirrored.reverse()
    edges = chain.profile.edges()

    waves: list[_SegmentWave] = []
    for j, (left, right) in enumerate(zip(forward, mirrored)):
        if left is None:
            # psi, psi' at the left edge, taken from the left neighbour.
            if j == 0:
                a = 1.0 + r
                b = 1j * chain.k_l * (1.0 - r)
            else:
                prev = waves[j - 1]
                x_if = edges[j]
                a = prev.value(x_if)
                b = prev.derivative(x_if)
            waves.append(_SegmentWave("lin", ks[j], edges[j], ds[j], a, b))
        else:
            t_in, r_left = left
            r_right = right[1]
            p = cmath.exp(1j * ks[j] * ds[j])
            denom = 1.0 - r_left * r_right * p * p
            if abs(denom) < 1e-300:
                raise ResummationDivergenceError("internal resummation diverges")
            a = t_in / denom
            b = r_right * p * a  # left-mover, referenced at the right edge
            waves.append(_SegmentWave("pw", ks[j], edges[j], ds[j], a, b))
    return tuple(waves)


@dataclass(frozen=True)
class ScatteringSolution:
    """Scattering amplitudes plus interior wavefunction access at one energy.

    t, r, t_rev, r_rev use the absolute-coordinate convention (zero potential
    gives t = 1).  t_local and r carry the exit/entry-plane referencing used by
    the delay formulas: t_local = t * exp(i k_right * extent).
    """

    energy: float
    t: complex
    r: complex
    t_rev: complex
    r_rev: complex
    t_local: complex
    k_left: complex
    k_right: complex
    extent: float
    # The chain segment_waves is built from, on first access.
    _chain: _Chain = field(repr=False, compare=False)

    @property
    def incident_flux(self) -> float:
        """Flux of the unit incident wave, J = 2 k_left (2m = 1)."""
        return 2.0 * self.k_left.real

    @cached_property
    def segment_waves(self) -> tuple[_SegmentWave, ...]:
        """Per-segment interior waves, built on first access: no amplitude
        needs them, only wavefunction_at does.

        Raises:
            ResummationDivergenceError: if a segment's internal round trip
                has unit gain.
        """
        return _segment_waves(self._chain)


class _Chain:
    """The chain at one energy, prepared once for every fold of it: the bare
    segment wavevectors (of one Zeeman channel, or none), the segment lengths,
    the lead wavevectors and, on first use, the exit phase exp(-i k_R X),
    which turns a fold's local t into the absolute t.

    Raises:
        ValidationError: if E is not finite.
        NoOpenChannelError: if E does not lie above both leads.
    """

    def __init__(self, profile: PotentialProfile, E: float, channel: int | None = None):
        _check_energy(E)
        if not (E > profile.v_left and E > profile.v_right):
            raise NoOpenChannelError(
                f"E = {E} does not lie above both asymptotic potentials "
                f"({profile.v_left}, {profile.v_right})"
            )
        self.profile = profile
        self.ks = [wavevector(E, seg, channel) for seg in profile.segments]
        self.ds = [seg.length for seg in profile.segments]
        self.k_l = complex(math.sqrt(E - profile.v_left))
        self.k_r = complex(math.sqrt(E - profile.v_right))

    @cached_property
    def exit_phase(self) -> complex:
        try:
            return cmath.exp(-1j * self.k_r * self.profile.extent())
        except ValueError:
            raise ResummationDivergenceError("exit phase k_R X lies beyond float range") from None

    def fold(self, ks=(), prop_ks=()) -> tuple[complex, complex, complex, complex]:
        """(t, r, t_rev, r_rev) of one _fold, with the (j, k) pairs of ks
        replacing bare wavevectors, and those of prop_ks replacing only the
        propagation wavevectors (the interfaces keep the segment k)."""
        seg_ks = list(self.ks)
        for j, k in ks:
            seg_ks[j] = k
        prop = None
        if prop_ks:
            prop = list(seg_ks)
            for j, k in prop_ks:
                prop[j] = k
        return _fold(seg_ks, self.ds, self.k_l, self.k_r, prop)


def solve(profile: PotentialProfile, E: float, channel: int | None = None) -> ScatteringSolution:
    """Solve the scattering problem at energy E (left incidence).

    channel selects a Zeeman component (+1/-1) for spin-carrying profiles;
    None ignores omega_larmor entirely.

    Raises:
        ValidationError: if E is not finite.
        NoOpenChannelError: if E does not lie above both asymptotic potentials.
    """
    chain = _Chain(profile, E, channel)
    t, r, t_rev, r_rev = chain.fold()
    phase = chain.exit_phase
    return ScatteringSolution(
        energy=E,
        t=t * phase,
        r=r,
        t_rev=t_rev * phase,
        r_rev=r_rev * phase * phase,
        t_local=t,
        k_left=chain.k_l,
        k_right=chain.k_r,
        extent=profile.extent(),
        _chain=chain,
    )


def wavefunction_at(solution: ScatteringSolution, x: float) -> complex:
    """psi(x) from the stored segment coefficients (leads included).

    Raises:
        ValidationError: if x is not finite.
    """
    if not math.isfinite(x):
        raise ValidationError(f"x must be finite, got {x}")
    if x < 0.0:
        return cmath.exp(1j * solution.k_left * x) + solution.r * cmath.exp(
            -1j * solution.k_left * x
        )
    if x >= solution.extent:
        return solution.t_local * cmath.exp(1j * solution.k_right * (x - solution.extent))
    # extent is the last edge, so some segment holds x.
    for w in solution.segment_waves:
        if x < w.x0 + w.d:
            return w.value(x)


@dataclass(frozen=True)
class PartialWaveSet:
    """Interface-stack amplitudes around the clock region (Fig.-style 1|2|3 split).

    All amplitudes are S-matrix entries of the flanking stacks with outgoing
    boundary conditions at the region's entry/exit planes; r12 is referenced at
    x = 0 (the prompt reflection subtracted from R), r21/r23 at the region
    boundaries.
    """

    t12: complex
    r12: complex
    t21: complex
    r21: complex
    t23: complex
    r23: complex
    k_inner: complex | None
    region_length: float


def partial_waves(profile: PotentialProfile, E: float) -> PartialWaveSet:
    """Left/right interface-stack amplitudes for the profile's clock region.

    Raises:
        ValidationError: if the profile has no clock region.
        ResummationDivergenceError: if the internal geometric series diverges.
    """
    lo, hi = profile.require_clock_region()
    chain = _Chain(profile, E)
    ks, ds = chain.ks, chain.ds
    if any(_is_degenerate(ks[i], ds[i], True) for i in (lo, hi)):
        raise RegimeAmbiguityError(
            "clock region boundary sits at its barrier top (k ~ 0); offset E"
        )
    # The stacks on either side of the region, each folded on its own into
    # the region's edge media.
    t12, r12, t21, r21 = _fold(ks[:lo], ds[:lo], chain.k_l, ks[lo])
    t23, r23, _, _ = _fold(ks[hi + 1 :], ds[hi + 1 :], ks[hi], chain.k_r)
    k_inner = ks[lo] if lo == hi else None
    length = sum(ds[lo : hi + 1])
    if k_inner is not None:
        try:
            loop = r21 * r23 * cmath.exp(2j * k_inner * length)
        except (OverflowError, ValueError):
            raise ResummationDivergenceError("e^(2ik'L) lies beyond float range") from None
        if abs(loop) >= 1.0 + 1e-12:
            raise ResummationDivergenceError(
                f"|r21 r23 e^(2ik'L)| = {abs(loop):.6g} >= 1; series diverges"
            )
    return PartialWaveSet(
        t12=t12,
        r12=r12,
        t21=t21,
        r21=r21,
        t23=t23,
        r23=r23,
        k_inner=k_inner,
        region_length=length,
    )


def solve_with_propagation_override(
    profile: PotentialProfile,
    E: float,
    prop_override: dict[int, complex],
) -> tuple[complex, complex, complex, complex]:
    """The local (t, r, t_rev, r_rev) of one fold (t is a solution's t_local)
    with per-segment propagation wavevectors replaced while every interface
    keeps the bare wavevector: the paired-variable dressing that the sojourn
    ladder folds, interface scattering pinned at zero clock strength and
    internal propagation carrying the clock dependence."""
    return _Chain(profile, E).fold(prop_ks=tuple(prop_override.items()))
