"""All traversal/dwell/sojourn timescales for piecewise-constant 1D scattering.

Implemented clocks and delays (natural units, hbar = 1, 2m = 1):

* Wigner delay: energy derivative of the exit-referenced scattering phase.
* Smith dwell time: integrated density over a region divided by incident flux,
  with each segment's stored wave integrated in closed form.
* Buttiker-Landauer time: segment-wise d/(2 kappa) below the barrier and the
  classical crossing d/(2 k) above it (the super-barrier form is an
  interpretation; the WKB expression is sub-barrier only).
* Larmor clock: spin precession (tau_y) and spin rotation (tau_z) from the two
  Zeeman channels, differentiated at the clock region's own field (zero unless
  a clock segment carries one).
* Imaginary-potential clock: logarithmic sensitivity of |T|^2 (or |R|^2) to a
  small absorptive potential in the clock region.
* Sojourn times: the paired-variable correction.  Interface scattering is
  pinned at zero clock strength while the internal propagation carries
  xi = V_I * L: each segment's propagation wavevector is the chain's own k
  dressed as k' = k + i (xi L_j/L)/(2 k L_j) in both regimes.  The xi -> 0
  derivative of the dressed amplitude (amplitude for propagating, phase for
  evanescent regions) gives a positive definite traversal time on a real
  region.  Prompt reflection r12 is subtracted before timing the reflected wave.

Every zero-strength limit goes through one probe ladder, _ladder: it evaluates
the clock's probe at [-h, -h/2, -h/4, h/4, h/2, h] (and at 0 where it anchors a
phase unwrap), with h a fixed fraction of the local energy scale, and returns h
and the values.  Wigner, the imaginary clock and the sojourn reduce the probe
amplitudes to ln|a|^2 or unwrapped phases with _reduce, the Larmor clock
reduces its spin pairs to <S_y> and <S_z> with _spin_expectations, and each
applies one fixed Richardson stencil, richardson, to the central differences.
_reduce unwraps with numpy.unwrap's arithmetic in plain floats, so the module
(and a clock sweep) needs no numpy.

A clock prepares the chain once per energy as a scatter._Chain: the bare
segment wavevectors, the segment lengths, the lead wavevectors and the exit
phase exp(-i k_R X).  Each probe is one _Chain.fold with the entries its
parameter moves replaced (the clock segments' k for the imaginary clock and the
Larmor clock, their propagation wavevectors for the sojourn); a Wigner probe
prepares the chain anew at E + dE.  The Larmor and imaginary clocks share
_clock_probe, which moves the clock segments' k^2 by one complex shift.  A
moved k comes from scatter._k, the rule scatter.wavevector applies, and the
public solves fold the same _Chain, so a probe gives the amplitude the public
solve gives for the clocked profile, to the bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import scatter
from .errors import (
    DerivativeError,
    DivergentIntegrandError,
    LogSingularityError,
    RegimeAmbiguityError,
    StepSizeError,
    ValidationError,
    WavetimeError,
    _reason,
)
from .potentials import PotentialProfile, _index_pair

__all__ = [
    "TimescaleReport",
    "wigner_delay",
    "dwell_time",
    "bl_time",
    "larmor_times",
    "imag_clock_time",
    "sojourn_transmission",
    "sojourn_reflection",
    "full_report",
]

_AMPLITUDE_FLOOR = 1e-8  # below this the log-derivative is declared singular
# Phases of exponentially small amplitudes stay accurate (the scattering chain
# is multiplicatively stable), so phase derivatives only guard against true
# zeros/underflow.
_PHASE_FLOOR = 1e-150


# Probe ladder realising every zero-strength limit: the largest probe h is
# this relative strength times the local energy scale max(E, |V0 - E|) at the
# point of use; the ladder also probes at h/2 and h/4.
_PROBE_STEP = 1e-2
# Unwrapped phases of neighbouring probes further apart than this undersample
# the phase.
_MAX_PHASE_JUMP = math.pi / 2

_CHANNELS = ("transmission", "reflection")

# The times of full_report, in column order; a clock's times are the labels
# that begin with its name.
METHOD_LABELS = ("wigner", "dwell", "bl", "larmor_y", "larmor_z", "larmor_pythagorean",
                 "imag_clock", "sojourn")


@dataclass(frozen=True)
class TimescaleReport:
    """All computed times at one energy.

    entries maps method labels (METHOD_LABELS) to times; a clock whose
    preconditions fail appears in reasons under its name (wigner, dwell, bl,
    larmor, imag_clock, sojourn) instead, never as NaN entries.
    diagnostics["larmor_y"]["raw_derivative_sign"] is the sign of the
    precession derivative that larmor_y reports as a magnitude.
    """

    energy: float
    channel: str
    entries: dict[str, float] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    diagnostics: dict[str, dict] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers


def _check_channel(channel: str) -> None:
    if channel not in _CHANNELS:
        raise ValidationError(f"channel: must be 'transmission' or 'reflection', got {channel!r}")


def _normalize_regions(
    profile: PotentialProfile, regions
) -> list[tuple[int, int]]:
    """Accept None (profile clock region), one (lo, hi) pair, or a sequence of
    disjoint pairs, a pair being any two-item sequence of integers (the pair
    rule of PotentialProfile.clock_region); returns validated, sorted pairs.

    Raises:
        ValidationError: naming regions if it is none of these, or a pair
            that is reversed or out of range, or pairs that overlap.
    """
    if regions is None:
        return [profile.require_clock_region()]
    n = len(profile.segments)
    pair = _index_pair(regions, n, "region")
    if pair is not None:
        return [pair]
    try:
        pairs = [_index_pair(p, n, "region") for p in regions]
    except TypeError:
        pairs = []
    if not pairs or None in pairs:
        raise ValidationError(
            f"region {regions!r} is neither a (lo, hi) pair of segment indices "
            "nor a sequence of them"
        )
    out = sorted(pairs)
    for (_, h1), (l2, _) in zip(out, out[1:]):
        if l2 <= h1:
            raise ValidationError("clock regions overlap")
    return out


def _one_region(regions: list[tuple[int, int]], what: str) -> tuple[int, int]:
    """The only pair of normalized regions, for a time defined on one region."""
    if len(regions) > 1:
        raise ValidationError(f"{what} is defined for a single contiguous region")
    return regions[0]


def _require_real(profile: PotentialProfile, segs, what: str) -> None:
    """ValidationError naming the first of the segments segs that absorbs or
    amplifies: what is defined for a real potential there."""
    for j in segs:
        if profile.segments[j].v_imag != 0.0:
            kind = "absorptive" if profile.segments[j].v_imag > 0 else "amplifying"
            raise ValidationError(f"{what} requires a real potential in the region; segment {j} is {kind}")


def _finite_time(value: float, what: str) -> float:
    """value, a closed-form time; DivergentIntegrandError if it is not finite."""
    if not math.isfinite(value):
        raise DivergentIntegrandError(f"{what} lies beyond float range")
    return value


def _energy_scale(profile: PotentialProfile, E: float, segs: list[int] | None = None) -> float:
    scatter._check_energy(E)
    vs = [profile.segments[j].v_real for j in (segs if segs is not None else range(len(profile.segments)))]
    gap = max((abs(v - E) for v in vs), default=E)
    return max(E, gap, 1e-12)


def _regime(profile: PotentialProfile, E: float, j: int) -> str:
    v = profile.segments[j].v_real
    if E > v:
        return "propagating"
    if E < v:
        return "evanescent"
    raise RegimeAmbiguityError(
        f"E = {E} sits exactly at the barrier top of segment {j}; offset E to pick a regime"
    )


def _ladder(probe, scale: float, centre: bool = False) -> tuple[float, list]:
    """The largest probe h = _PROBE_STEP * scale and probe(s) at the offsets
    [-h, -h/2, -h/4, (0,) h/4, h/2, h], evaluated in that order; the centre
    probe anchors phase unwrapping.  DerivativeError if h/4 underflows to
    zero or h is not finite."""
    h = _PROBE_STEP * scale
    if not 0.0 < 0.25 * h < math.inf:
        raise DerivativeError(f"probe step h = {h:g} is not a usable float")
    hs = [h, 0.5 * h, 0.25 * h]
    return h, [probe(s) for s in [-s for s in hs] + ([0.0] if centre else []) + hs[::-1]]


def richardson(values, h: float) -> float:
    """Derivative at zero of f from its values at the ladder offsets
    [-h, -h/2, -h/4, (0,) h/4, h/2, h].

    With the central differences D(s) = (f(s) - f(-s)) / (2 s), whose errors
    are even in s, the stencil (64 D(h/4) - 20 D(h/2) + D(h)) / 45 cancels the
    h^2 and h^4 terms.

    Raises:
        DerivativeError: if the result is not finite.
    """
    d1, d2, d4 = (
        (values[-1 - i] - values[i]) / (2.0 * s) for i, s in enumerate((h, 0.5 * h, 0.25 * h))
    )
    value = (64.0 * d4 - 20.0 * d2 + d1) / 45.0
    if not math.isfinite(value):
        raise DerivativeError("derivative extrapolation produced a non-finite value")
    return float(value)


def _reduce(amps: list[complex], kind: str, what: str) -> list[float]:
    """Guard the probe amplitudes against zeros, then reduce them to ln|a|^2
    (kind "log") or to continuous phases (kind "phase").

    The phases are numpy.unwrap's of the atan2 arguments, to the bit: a jump
    dd between neighbours with |dd| >= pi is folded into [-pi, pi) by
    (dd + pi) % 2pi - pi (pi where that gives -pi and dd > 0), and the running
    sum of the corrections is added to every phase after the first.

    Raises:
        StepSizeError: if neighbouring unwrapped phases still jump by more
            than _MAX_PHASE_JUMP.
    """
    floor = _AMPLITUDE_FLOOR if kind == "log" else _PHASE_FLOOR
    # Written so that a NaN amplitude fails it too.
    if not all(abs(a) >= floor for a in amps):
        raise LogSingularityError(
            f"{what} ~ 0 or undefined within the probe ladder; log-derivative singular"
        )
    if kind == "log":
        try:
            return [math.log(abs(a) ** 2) for a in amps]
        except OverflowError:
            raise DerivativeError(f"|{what}|^2 lies beyond float range") from None
    angles = [math.atan2(a.imag, a.real) for a in amps]
    phases, correction = angles[:1], 0.0
    for prev, angle in zip(angles, angles[1:]):
        dd = angle - prev
        if not abs(dd) < math.pi:  # a NaN corrects to NaN, as in numpy
            folded = (dd + math.pi) % (2.0 * math.pi) - math.pi
            correction += (math.pi if folded == -math.pi and dd > 0 else folded) - dd
        phases.append(angle + correction)
    jumps = [abs(b - a) for a, b in zip(phases, phases[1:])]
    # A NaN jump (an amplitude inf + nan j) raises nothing here, as numpy's
    # max would not; richardson refuses the non-finite derivative.
    if max(jumps) > _MAX_PHASE_JUMP and not any(map(math.isnan, jumps)):
        raise StepSizeError(
            f"phase of the {what} jumps by more than pi/2 between neighbouring probes; "
            "the probe ladder undersamples it"
        )
    return phases


# ---------------------------------------------------------------------------
# group-delay and flux-based times


def wigner_delay(profile: PotentialProfile, E: float, channel: str = "transmission") -> float:
    """Wigner group delay d(phase)/dE of t (exit-referenced) or r.

    With hbar = 1 the frequency is the energy, so this is literally
    d(Arg amplitude)/dE with continuous phase tracking across the probes.
    """
    _check_channel(channel)
    lead = max(profile.v_left, profile.v_right)

    def amplitude(dE: float) -> complex:
        if E + dE <= lead:
            raise ValidationError(
                f"probe energies dip below an asymptotic potential; E = {E} is too close to a lead"
            )
        t, r, _, _ = scatter._Chain(profile, E + dE).fold()
        return t if channel == "transmission" else r

    h, amps = _ladder(amplitude, _energy_scale(profile, E), centre=True)
    return richardson(_reduce(amps, "phase", f"{channel} amplitude"), h)


def _density_integral(w: scatter._SegmentWave) -> float:
    """Integral of |psi|^2 over one segment's stored wave (u in [0, d]),
    whose k^2 is real.

    A "pw" wave a e^{iku} + b e^{ik(d-u)} gives d|a+b|^2 - 2 Re(a b*) D for
    real k and [-expm1(-2 kappa d)/(2 kappa)] |a+b|^2 + 2 Re(a b*) e^{-kappa d} D
    for k = i kappa, with D = d - sin(kd)/k; e^{-kappa d} D is taken as
    d e^{-kappa d} - [-expm1(-2 kappa d)/(2 kappa)], which cannot overflow.  A
    "lin" wave a cos(ku) + b sin(ku)/k (|k| d < 1e-2) gives
    |a|^2 (d/2)(1 + sinc z) + Re(a b*) d^2 sinc^2(z/2) + |b|^2 (2d^3/z^2)(1 - sinc z)
    with z = 2kd, each by its series in z^2 to z^6: the next terms are below
    1e-19 of the first.
    """
    a, b, d = w.a, w.b, w.d
    kr, kap = w.k.real, w.k.imag  # one of the two is zero
    k2 = kr * kr - kap * kap
    ab = (a * b.conjugate()).real
    if w.kind == "lin":
        z2 = 4.0 * k2 * d * d
        return (
            abs(a) ** 2 * d * (1.0 - z2 * (1 / 12 - z2 * (1 / 240 - z2 / 10080)))
            + ab * d**2 * (1.0 - z2 * (1 / 12 - z2 * (1 / 360 - z2 / 20160)))
            + abs(b) ** 2 * d**3 * (1 / 3 - z2 * (1 / 60 - z2 * (1 / 2520 - z2 / 181440)))
        )
    s2 = abs(a + b) ** 2
    x2 = k2 * d * d
    series = abs(x2) < 1e-2
    if series:
        # D by its Taylor series in (kd)^2, free of cancellation.
        D = d * x2 * (1 / 6 - x2 * (1 / 120 - x2 * (1 / 5040 - x2 * (1 / 362880 - x2 / 39916800))))
    if kap == 0.0:
        return d * s2 - 2.0 * ab * (D if series else d - math.sin(kr * d) / kr)
    tail = -math.expm1(-2.0 * kap * d) / (2.0 * kap)
    decay = math.exp(-kap * d)
    return tail * s2 + 2.0 * ab * (decay * D if series else d * decay - tail)


def dwell_time(profile: PotentialProfile, E: float, region: tuple[int, int] | None = None) -> float:
    """Smith dwell time: integral of |psi|^2 over the region / incident flux.

    The region, one (lo, hi) pair, must carry a real potential (Hermitian
    problem); defaults to the clock region, or the whole profile when none is
    marked.

    Raises:
        ValidationError: if a segment of the region absorbs or amplifies
            (v_imag != 0).
    """
    if region is None and profile.clock_region is None:
        if not profile.segments:
            return 0.0
        region = (0, len(profile.segments) - 1)
    lo, hi = _one_region(_normalize_regions(profile, region), "dwell time")
    _require_real(profile, range(lo, hi + 1), "dwell time")
    chain = scatter._Chain(profile, E)
    try:
        density = sum(_density_integral(w) for w in scatter._segment_waves(chain)[lo : hi + 1])
    except (OverflowError, ValueError):  # a power or a sine of a huge length
        density = math.inf
    return _finite_time(density / (2.0 * chain.k_l.real), "dwell time")


def bl_time(profile: PotentialProfile, E: float, region: tuple[int, int] | None = None) -> float:
    """Buttiker-Landauer traversal time over the region, one (lo, hi) pair
    defaulting to the clock region (segment-wise additive).

    Sub-barrier segments contribute d/(2 kappa); super-barrier segments the
    classical crossing d/(2 k_r).

    Raises:
        ValidationError: if E is not finite.
        DivergentIntegrandError: if E equals a segment potential exactly.
    """
    scatter._check_energy(E)
    lo, hi = _one_region(_normalize_regions(profile, region), "Buttiker-Landauer time")
    total = 0.0
    for j in range(lo, hi + 1):
        seg = profile.segments[j]
        gap = abs(seg.v_real - E)
        if gap == 0.0:
            raise DivergentIntegrandError(
                f"E equals the potential of segment {j}; 1/kappa diverges"
            )
        total += seg.length / (2.0 * math.sqrt(gap))
    return _finite_time(total, "Buttiker-Landauer time")


# ---------------------------------------------------------------------------
# quantum clocks


def _spin_expectations(a: complex, b: complex, what: str) -> tuple[float, float]:
    """<S_y>, <S_z> of the spinor (a, b) after scattering."""
    try:
        norm = abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        raise DerivativeError(f"{what} lies beyond float range") from None
    if norm < _AMPLITUDE_FLOOR**2:
        raise LogSingularityError(f"{what} vanishes")
    s_y = (a.conjugate() * b).imag / norm
    s_z = 0.5 * (abs(a) ** 2 - abs(b) ** 2) / norm
    return s_y, s_z


def _clock_probe(profile: PotentialProfile, E: float, channel: str, spins=(None,)):
    """(energy scale of the clock region, amplitude): amplitude(shift, spin)
    is the channel amplitude (r, or the absolute t) of one fold of the chain of
    Zeeman channel spin, one of spins, with every clock segment's own
    k^2 = E - v_real + i v_imag (+ spin omega_larmor / 2) moved by shift, so
    the derivative is taken at the region's own field and V_I.  A real shift
    is the Larmor clock's Zeeman term and an imaginary one the imaginary
    clock's absorption: the two parts of one complex time (Sokolovski &
    Baskin, PRA 36, 4604 (1987)).  Each distinct (shift, spin) folds once, and
    with no Zeeman field on any segment both spins fold one field-free chain."""
    _check_channel(channel)
    profile.require_clock_region()
    clock_segs = list(profile.clock_indices())
    clocked = [(j, profile.segments[j]) for j in clock_segs]
    # A strong absorber or amplifier sets the scale too, so that no step is
    # lost to rounding in v_imag + shift.
    scale = max(_energy_scale(profile, E, clock_segs), *(abs(seg.v_imag) for _, seg in clocked))
    field_free = all(seg.omega_larmor == 0.0 for seg in profile.segments)
    chains = {spin: scatter._Chain(profile, E, spin) for spin in ((None,) if field_free else spins)}
    folded: dict[tuple[complex, int | None], complex] = {}

    def amplitude(shift: complex, spin: int | None = None) -> complex:
        if field_free:
            spin = None
        if (shift, spin) not in folded:
            chain = chains[spin]
            zeeman = 0.0 if spin is None else spin / 2.0
            t, r, _, _ = chain.fold(
                (j, scatter._k(E, seg.v_real, seg.v_imag, shift + zeeman * seg.omega_larmor)) for j, seg in clocked
            )
            folded[shift, spin] = r if channel == "reflection" else t * chain.exit_phase
        return folded[shift, spin]

    return scale, amplitude


def _larmor_detailed(
    profile: PotentialProfile, E: float, channel: str
) -> tuple[float, float, float]:
    """(tau_y, tau_z, sign of d<S_y>/d omega_L) of larmor_times."""
    scale, amplitude = _clock_probe(profile, E, channel, (+1, -1))
    h, pairs = _ladder(lambda omega: (amplitude(omega / 2.0, +1), amplitude(-omega / 2.0, -1)), scale)
    spins = [_spin_expectations(a, b, f"{channel} spinor amplitude") for a, b in pairs]
    d_sy = richardson([s_y for s_y, _ in spins], h)
    d_sz = richardson([s_z for _, s_z in spins], h)
    sign_y = math.copysign(1.0, d_sy) if d_sy != 0.0 else 0.0
    return abs(2.0 * d_sy), 2.0 * d_sz, sign_y


def larmor_times(
    profile: PotentialProfile, E: float, channel: str = "transmission"
) -> tuple[float, float]:
    """Spin precession and spin rotation times (tau_y, tau_z).

    tau_y = 2 |d<S_y>/d omega_L| and tau_z = 2 d<S_z>/d omega_L, with omega_L
    added to every clock segment's own field (hbar = 1; the derivative is
    taken in omega_L, so the gyromagnetic factors cancel).  tau_y is reported
    as a magnitude; the raw derivative sign is available through full_report
    diagnostics.
    """
    return _larmor_detailed(profile, E, channel)[:2]


def imag_clock_time(
    profile: PotentialProfile, E: float, channel: str = "transmission"
) -> float:
    """Imaginary-potential clock time from d ln|T|^2 / d V_I (or ln|R|^2).

    The probe absorption adds to each clock segment's v_imag, so the derivative
    is taken at the region's own V_I.  Positive V_I is absorption (flux
    decays), so the time is minus half the logarithmic derivative; free
    propagation then clocks the literal crossing time L/(2k).
    """
    scale, amplitude = _clock_probe(profile, E, channel)
    h, amps = _ladder(lambda v_imag: amplitude(complex(0.0, v_imag)), scale)
    return -0.5 * richardson(_reduce(amps, "log", f"{channel} amplitude"), h)


# ---------------------------------------------------------------------------
# sojourn times (paired-variable correction)


def _sojourn_detailed(
    profile: PotentialProfile,
    E: float,
    regions,
    channel: str,
) -> tuple[float, bool]:
    """Shared xi-derivative machinery for both scattering channels.

    Returns (time, mixed_regime).
    """
    region_list = _normalize_regions(profile, regions)
    segs = [j for lo, hi in region_list for j in range(lo, hi + 1)]
    _require_real(profile, segs, "sojourn time")
    chain = scatter._Chain(profile, E)
    regimes = {j: _regime(profile, E, j) for j in segs}

    r12 = 0j
    if channel == "reflection":
        region = _one_region(region_list, "reflection sojourn time")
        # partial_waves splits the chain at the profile's own clock region.
        marked = profile if region == profile.clock_region else replace(profile, clock_region=region)
        r12 = scatter.partial_waves(marked, E).r12

    def branch_time(active: list[int], regime: str) -> float:
        L_act = sum(profile.segments[j].length for j in active)
        # Propagating regions time the decay of |a|^2, evanescent ones the
        # phase the clock adds.
        propagating = regime == "propagating"
        # (j, L_j, k_j, 2 k_j L_j) per segment, k_j the chain's own wavevector.
        dressed = []
        for j in active:
            k, L = chain.ks[j], chain.ds[j]
            if 2.0 * k * L == 0.0:
                raise DerivativeError(f"2 k L of segment {j} underflows; its dressing is undefined")
            dressed.append((j, L, k, 2.0 * k * L))

        def amplitude(xi: float) -> complex:
            # The paired-variable propagation wavevector k' = k + i (xi L_j/L)/(2 k L_j):
            # for xi > 0 the amplitude decays when k is real, the phase shifts
            # when k = i kappa.  The interfaces keep the bare k.
            t, r, _, _ = chain.fold(
                prop_ks=[(j, k + 1j * (xi * L / L_act) / two_kL) for j, L, k, two_kL in dressed]
            )
            return r - r12 if channel == "reflection" else t

        h, amps = _ladder(amplitude, _energy_scale(profile, E, active) * L_act, centre=not propagating)
        derivative = richardson(
            _reduce(amps, "log" if propagating else "phase", f"dressed {channel} amplitude"), h
        )
        factor = -(L_act / 2.0) if propagating else L_act
        return factor * derivative

    unique_regimes = set(regimes.values())
    if len(unique_regimes) == 1:
        return branch_time(segs, unique_regimes.pop()), False
    # Mixed sub/super-barrier regions: per-segment contributions, each with
    # its own branch; additive by the chain rule, reported as extrapolated.
    total = 0.0
    for j in segs:
        total += branch_time([j], regimes[j])
    return total, True


def sojourn_transmission(profile: PotentialProfile, E: float, regions=None) -> float:
    """Positive definite sojourn time for transmission via the xi -> 0 limit.

    Propagating regions differentiate ln|T(xi)|^2, evanescent regions the
    phase of T(xi) (where the clock acts); regions may be a (lo, hi) pair or a
    sequence of disjoint pairs (times add over disjoint regions).

    Raises:
        ValidationError: if a segment of the regions absorbs or amplifies
            (v_imag != 0).
    """
    return _sojourn_detailed(profile, E, regions, "transmission")[0]


def sojourn_reflection(
    profile: PotentialProfile, E: float, region: tuple[int, int] | None = None
) -> float:
    """Sojourn time for reflection, timed on R' = R - r12 (prompt reflection
    removed).  Satisfies tau_s(R) = tau_s(T) + tau_BL for rectangular regions.

    Raises:
        ValidationError: if a segment of the region absorbs or amplifies
            (v_imag != 0).
        LogSingularityError: if |R'| vanishes (nothing but prompt reflection).
    """
    return _sojourn_detailed(profile, E, region, "reflection")[0]


# ---------------------------------------------------------------------------
# aggregation


def full_report(
    profile: PotentialProfile, E: float, channel: str = "transmission"
) -> TimescaleReport:
    """Compute every timescale at one energy; failed preconditions become
    reason-coded absences rather than errors."""
    _check_channel(channel)
    entries: dict[str, float] = {}
    reasons: dict[str, str] = {}
    diagnostics: dict[str, dict] = {}

    clock_segs = list(profile.clock_indices())
    flags = {
        "evanescent_regime": bool(clock_segs)
        and all(E < profile.segments[j].v_real for j in clock_segs),
        "extrapolated_beyond_paper": len(clock_segs) > 1,
    }

    def larmor() -> tuple[float, ...]:
        tau_y, tau_z, sign_y = _larmor_detailed(profile, E, channel)
        diagnostics["larmor_y"] = {"raw_derivative_sign": sign_y}
        # Optional derived quantity; no fundamental basis, reported for
        # comparison only.
        return tau_y, tau_z, math.hypot(tau_y, tau_z)

    def sojourn() -> tuple[float]:
        time, mixed = _sojourn_detailed(profile, E, None, channel)
        flags["extrapolated_beyond_paper"] |= mixed
        return (time,)

    clocks = (
        ("wigner", lambda: (wigner_delay(profile, E, channel),)),
        ("dwell", lambda: (dwell_time(profile, E),)),
        ("bl", lambda: (bl_time(profile, E),)),
        ("larmor", larmor),
        ("imag_clock", lambda: (imag_clock_time(profile, E, channel),)),
        ("sojourn", sojourn),
    )
    for name, clock in clocks:
        try:
            entries.update(zip([m for m in METHOD_LABELS if m.startswith(name)], clock()))
        except WavetimeError as exc:
            reasons[name] = _reason(exc)
    return TimescaleReport(
        energy=E,
        channel=channel,
        entries=entries,
        reasons=reasons,
        diagnostics=diagnostics,
        flags=flags,
    )
