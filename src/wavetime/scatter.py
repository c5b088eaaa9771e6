"""Exact transfer-matrix / scattering-matrix solution of 1D Helmholtz scattering.

Piecewise-constant complex potentials are solved by composing per-interface and
per-segment scattering matrices with the Redheffer star product.  The star
product never mixes growing and decaying exponentials, so opaque barriers
(|Im k| * length >> 1) are handled without overflow or cancellation.

Every clock reads only the chain's full S-matrix, so solve() gets its
amplitudes from one left-to-right fold that keeps a running (t, r, t_rev,
r_rev) and builds no element list.  The prefix/suffix chain that the interior
waves need is composed only for wavefunction_at (on the first access to
ScatteringSolution.segment_waves) and for partial_waves.

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

import numpy as np

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
    "solve_spinor",
    "partial_waves",
    "ScatteringSolution",
    "SpinorAmplitudes",
    "PartialWaveSet",
]

# Below this |k|*(1+d) a segment is treated by the linear-solution (k -> 0)
# limit to avoid catastrophic cancellation in the resonance denominator.
_DEGENERATE_KD = 1e-5


def wavevector(E: float, segment: Segment, channel: int | None = None) -> complex:
    """Complex wavevector k = sqrt(E - V_eff) in a segment.

    V_eff combines the real potential, the absorption term and (optionally)
    the Zeeman shift: k^2 = E - v_real + i*v_imag -/+ omega_larmor/2 is wrong;
    explicitly, k^2 = E - v_real + i*v_imag + channel*omega_larmor/2 where
    channel is +1 for the spin-up Zeeman component (barrier lowered) and -1
    for spin-down.  v_imag > 0 is absorption under the exp(-iEt) convention,
    hence the +i sign in k^2.

    Branch: principal square root for propagating-dominant segments
    (Re k^2 >= 0, keeps Re k > 0 through the V_I -> 0 limit for both signs);
    Im k >= 0 otherwise (decaying evanescent solutions).  The branch cut is
    never crossed by analytic continuation.
    """
    k2 = complex(E - segment.v_real, segment.v_imag)
    if channel is not None:
        k2 += channel * segment.omega_larmor / 2.0
    if k2.real >= 0.0:
        return cmath.sqrt(k2)
    # i * sqrt(-k2) has Im >= 0 and continues k(V_I) smoothly through 0.
    return 1j * cmath.sqrt(-k2)


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


_IDENTITY = SMatrix(1.0 + 0j, 0j, 1.0 + 0j, 0j)


def _star(a: SMatrix, b: SMatrix) -> SMatrix:
    """Redheffer star product: a followed (to the right) by b."""
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


def _interface(ka: complex, kb: complex) -> SMatrix:
    s = ka + kb
    if abs(s) < 1e-300:
        raise ValidationError("degenerate interface: ka + kb = 0")
    return SMatrix(t=2.0 * ka / s, r=(ka - kb) / s, t_rev=2.0 * kb / s, r_rev=(kb - ka) / s)


def _propagation(k: complex, d: float) -> SMatrix:
    p = cmath.exp(1j * k * d)
    return SMatrix(t=p, r=0j, t_rev=p, r_rev=0j)


def _sinkd_over_k(k: complex, d: float) -> complex:
    """sin(k d)/k, stable through k -> 0."""
    kd = k * d
    if abs(kd) < 1e-4:
        kd2 = kd * kd
        return d * (1.0 - kd2 / 6.0 + kd2 * kd2 / 120.0)
    return cmath.sin(kd) / k


def _segment_transfer(k: complex, d: float) -> np.ndarray:
    """(psi, psi') transfer matrix across one segment; exact for any k, det = 1."""
    c = cmath.cos(k * d)
    s = _sinkd_over_k(k, d)
    return np.array([[c, s], [-k * k * s, c]], dtype=complex)


def _block_smatrix(M: np.ndarray, ka: complex, kc: complex) -> SMatrix:
    """Convert a (psi, psi') transfer matrix to an S-matrix between plane-wave
    bases ka (left) and kc (right).  Used for near-zero-k segments only, where
    M carries no large exponentials."""
    m11, m12 = M[0, 0], M[0, 1]
    m21, m22 = M[1, 0], M[1, 1]
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
    return SMatrix(t=t, r=r, t_rev=t_rev, r_rev=r_rev)


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


@dataclass(frozen=True)
class _Chain:
    """Composed S-matrix chain with per-segment cut points."""

    elements: tuple[SMatrix, ...]
    prefix: tuple[SMatrix, ...]  # prefix[i] = star of elements[:i]
    suffix: tuple[SMatrix, ...]  # suffix[i] = star of elements[i:]
    left_cut: tuple[int, ...]  # per segment: element index after interface-in
    right_start: tuple[int, ...]  # per segment: element index of interface-out
    degenerate: tuple[bool, ...]


def _is_degenerate(k: complex, d: float) -> bool:
    return abs(k) * (1.0 + d) < _DEGENERATE_KD


def _degenerate_block(
    ks: list[complex],
    ds: list[float],
    j: int,
    k_prev: complex,
    k_right: complex,
    prop_ks: list[complex],
) -> tuple[SMatrix, int, complex]:
    """Merge the run of consecutive k ~ 0 segments that starts at j into one
    block from medium k_prev into the medium after the run.  Returns the
    block, the run's last segment index and that next medium's wavevector.
    An override on any segment of the run is refused: the block has no
    propagation factor to carry it."""
    n = len(ks)
    m = j
    while m + 1 < n and _is_degenerate(ks[m + 1], ds[m + 1]):
        m += 1
    if any(prop_ks[i] != ks[i] for i in range(j, m + 1)):
        raise RegimeAmbiguityError(
            "cannot dress a segment at its barrier top (k ~ 0); offset E"
        )
    M = _segment_transfer(ks[j], ds[j])
    for i in range(j + 1, m + 1):
        M = _segment_transfer(ks[i], ds[i]) @ M
    kc = ks[m + 1] if m + 1 < n else k_right
    return _block_smatrix(M, k_prev, kc), m, kc


def _build_chain(
    ks: list[complex],
    ds: list[float],
    k_left: complex,
    k_right: complex,
    prop_ks: list[complex] | None = None,
) -> _Chain:
    """Compose the element chain.  prop_ks, when given, replaces the wavevector
    used in each segment's propagation factor only (interfaces keep ks)."""
    n = len(ks)
    if prop_ks is None:
        prop_ks = ks
    degenerate = [_is_degenerate(ks[j], ds[j]) for j in range(n)]

    elements: list[SMatrix] = []
    left_cut = [0] * n
    right_start = [0] * n

    j = 0
    k_prev = k_left
    interface_pending = True  # next segment still owes its interface-in element
    while j < n:
        if degenerate[j]:
            block, m, k_prev = _degenerate_block(ks, ds, j, k_prev, k_right, prop_ks)
            elements.append(block)
            for jj in range(j, m + 1):
                left_cut[jj] = len(elements)  # unused for degenerate segments
                right_start[jj] = len(elements)
            interface_pending = False  # block already lands in the next medium
            j = m + 1
        else:
            if interface_pending:
                elements.append(_interface(k_prev, ks[j]))
            left_cut[j] = len(elements)
            elements.append(_propagation(prop_ks[j], ds[j]))
            right_start[j] = len(elements)
            k_prev = ks[j]
            interface_pending = True
            j += 1
    if interface_pending:
        elements.append(_interface(k_prev, k_right))

    prefix = [_IDENTITY]
    for el in elements:
        prefix.append(_star(prefix[-1], el))
    suffix = [_IDENTITY]
    for el in reversed(elements):
        suffix.append(_star(el, suffix[-1]))
    suffix.reverse()
    return _Chain(
        elements=tuple(elements),
        prefix=tuple(prefix),
        suffix=tuple(suffix),
        left_cut=tuple(left_cut),
        right_start=tuple(right_start),
        degenerate=tuple(degenerate),
    )


def _fold(
    ks: list[complex],
    ds: list[float],
    k_left: complex,
    k_right: complex,
    prop_ks: list[complex] | None = None,
) -> tuple[complex, complex, complex, complex]:
    """(t, r, t_rev, r_rev) of the whole chain: _build_chain(...).prefix[-1]
    computed in one left-to-right pass with no element or prefix list.

    Each interface is starred into the running S-matrix with _star's
    arithmetic in _star's order.  A propagation factor has r = r_rev = 0, so
    its star has denominator exactly 1 and reduces to the products below.
    """
    n = len(ks)
    if prop_ks is None:
        prop_ks = ks
    t, r, t_rev, r_rev = _IDENTITY.t, _IDENTITY.r, _IDENTITY.t_rev, _IDENTITY.r_rev
    k_prev = k_left
    interface_pending = True
    j = 0
    while True:
        if j < n and _is_degenerate(ks[j], ds[j]):
            block, m, k_prev = _degenerate_block(ks, ds, j, k_prev, k_right, prop_ks)
            full = _star(SMatrix(t, r, t_rev, r_rev), block)
            t, r, t_rev, r_rev = full.t, full.r, full.t_rev, full.r_rev
            interface_pending = False
            j = m + 1
            continue
        k = ks[j] if j < n else k_right
        if interface_pending:
            # _star(state, _interface(k_prev, k)), inlined
            s = k_prev + k
            if abs(s) < 1e-300:
                raise ValidationError("degenerate interface: ka + kb = 0")
            b_t, b_r = 2.0 * k_prev / s, (k_prev - k) / s
            b_t_rev, b_r_rev = 2.0 * k / s, (k - k_prev) / s
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
        p = cmath.exp(1j * prop_ks[j] * ds[j])
        t, t_rev, r_rev = p * t, t_rev * p, p * r_rev * p
        k_prev = k
        interface_pending = True
        j += 1


def _segment_waves(sol: ScatteringSolution) -> tuple[_SegmentWave, ...]:
    """Interior wave coefficients of every segment, from the prefix and
    suffix chains around it."""
    profile, ks, prop_ks = sol._profile, sol._ks, sol._prop_ks
    ds = [s.length for s in profile.segments]
    chain = _build_chain(ks, ds, sol.k_left, sol.k_right, prop_ks)
    edges = profile.edges()
    eff_ks = ks if prop_ks is None else prop_ks

    waves: list[_SegmentWave] = []
    for j in range(len(ks)):
        if chain.degenerate[j]:
            # psi, psi' at the left edge, taken from the left neighbour.
            if j == 0:
                a = 1.0 + sol.r
                b = 1j * sol.k_left * (1.0 - sol.r)
            else:
                prev = waves[j - 1]
                x_if = edges[j]
                a = prev.value(x_if)
                b = prev.derivative(x_if)
            waves.append(_SegmentWave("lin", ks[j], edges[j], ds[j], a, b))
        else:
            left = chain.prefix[chain.left_cut[j]]
            right = chain.suffix[chain.right_start[j]]
            p = cmath.exp(1j * eff_ks[j] * ds[j])
            denom = 1.0 - left.r_rev * right.r * p * p
            if abs(denom) < 1e-300:
                raise ResummationDivergenceError("internal resummation diverges")
            a = left.t / denom
            b = right.r * p * a  # left-mover, referenced at the right edge
            waves.append(_SegmentWave("pw", eff_ks[j], edges[j], ds[j], a, b))
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
    # The inputs segment_waves is built from, on first access.
    _profile: PotentialProfile = field(repr=False, compare=False)
    _ks: list[complex] = field(repr=False, compare=False)
    _prop_ks: list[complex] | None = field(repr=False, compare=False)

    @property
    def incident_flux(self) -> float:
        """Flux of the unit incident wave, J = 2 k_left (2m = 1)."""
        return 2.0 * self.k_left.real

    @cached_property
    def segment_waves(self) -> tuple[_SegmentWave, ...]:
        """Per-segment interior waves, built on first access: no amplitude
        needs them, only wavefunction_at (so the dwell time) does.

        Raises:
            ResummationDivergenceError: if a segment's internal round trip
                has unit gain.
        """
        return _segment_waves(self)


def _lead_wavevectors(profile: PotentialProfile, E: float) -> tuple[complex, complex]:
    if not (E > profile.v_left and E > profile.v_right):
        raise NoOpenChannelError(
            f"E = {E} does not lie above both asymptotic potentials "
            f"({profile.v_left}, {profile.v_right})"
        )
    return complex(math.sqrt(E - profile.v_left)), complex(math.sqrt(E - profile.v_right))


def _segment_ks(profile: PotentialProfile, E: float, channel: int | None) -> list[complex]:
    return [wavevector(E, seg, channel) for seg in profile.segments]


def _solve_prepared(
    profile: PotentialProfile,
    E: float,
    ks: list[complex],
    prop_ks: list[complex] | None = None,
) -> ScatteringSolution:
    k_l, k_r = _lead_wavevectors(profile, E)
    ds = [s.length for s in profile.segments]
    t, r, t_rev, r_rev = _fold(ks, ds, k_l, k_r, prop_ks)
    X = profile.extent()
    phase = cmath.exp(-1j * k_r * X)
    return ScatteringSolution(
        energy=E,
        t=t * phase,
        r=r,
        t_rev=t_rev * phase,
        r_rev=r_rev * phase * phase,
        t_local=t,
        k_left=k_l,
        k_right=k_r,
        extent=X,
        _profile=profile,
        _ks=ks,
        _prop_ks=prop_ks,
    )


def solve(profile: PotentialProfile, E: float, channel: int | None = None) -> ScatteringSolution:
    """Solve the scattering problem at energy E (left incidence).

    channel selects a Zeeman component (+1/-1) for spin-carrying profiles;
    None ignores omega_larmor entirely.

    Raises:
        NoOpenChannelError: if E does not lie above both asymptotic potentials.
    """
    return _solve_prepared(profile, E, _segment_ks(profile, E, channel))


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
    if x >= solution.extent or not solution.segment_waves:
        return solution.t_local * cmath.exp(1j * solution.k_right * (x - solution.extent))
    for w in solution.segment_waves:
        if x < w.x0 + w.d:
            return w.value(x)
    return solution.segment_waves[-1].value(x)


@dataclass(frozen=True)
class SpinorAmplitudes:
    """Transmission/reflection amplitudes of the two Zeeman components."""

    t_plus: complex
    t_minus: complex
    r_plus: complex
    r_minus: complex


def solve_spinor(profile: PotentialProfile, E: float) -> SpinorAmplitudes:
    """Solve the two decoupled Zeeman channels (sigma_z diagonal).

    The spin-up channel sees V - omega_larmor/2, spin-down V + omega_larmor/2;
    each channel is literally a scalar solve() with the shifted wavevectors.
    """
    up = solve(profile, E, channel=+1)
    down = solve(profile, E, channel=-1)
    return SpinorAmplitudes(
        t_plus=up.t,
        t_minus=down.t,
        r_plus=up.r,
        r_minus=down.r,
    )


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
    region = profile.clock_region
    if region is None:
        raise ValidationError("profile has no clock region")
    ks = _segment_ks(profile, E, None)
    k_l, k_r = _lead_wavevectors(profile, E)
    chain = _build_chain(ks, [s.length for s in profile.segments], k_l, k_r)
    lo, hi = region
    if chain.degenerate[lo] or chain.degenerate[hi]:
        raise RegimeAmbiguityError(
            "clock region boundary sits at its barrier top (k ~ 0); offset E"
        )
    s_left = chain.prefix[chain.left_cut[lo]]
    s_right = chain.suffix[chain.right_start[hi]]
    k_inner = ks[lo] if lo == hi else None
    length = sum(profile.segments[j].length for j in range(lo, hi + 1))
    if k_inner is not None:
        loop = s_left.r_rev * s_right.r * cmath.exp(2j * k_inner * length)
        if abs(loop) >= 1.0 + 1e-12:
            raise ResummationDivergenceError(
                f"|r21 r23 e^(2ik'L)| = {abs(loop):.6g} >= 1; series diverges"
            )
    return PartialWaveSet(
        t12=s_left.t,
        r12=s_left.r,
        t21=s_left.t_rev,
        r21=s_left.r_rev,
        t23=s_right.t,
        r23=s_right.r,
        k_inner=k_inner,
        region_length=length,
    )


def solve_with_propagation_override(
    profile: PotentialProfile,
    E: float,
    prop_override: dict[int, complex],
) -> ScatteringSolution:
    """Solve with per-segment propagation wavevectors replaced while every
    interface keeps the bare wavevector.  This realises the paired-variable
    dressing: interface scattering pinned at zero clock strength, internal
    propagation carrying the clock dependence."""
    ks = _segment_ks(profile, E, None)
    prop_ks = list(ks)
    for j, kp in prop_override.items():
        prop_ks[j] = kp
    return _solve_prepared(profile, E, ks, prop_ks)
