"""All traversal/dwell/sojourn timescales for piecewise-constant 1D scattering.

Implemented clocks and delays (natural units, hbar = 1, 2m = 1):

* Wigner delay: energy derivative of the exit-referenced scattering phase.
* Smith dwell time: integrated density over a region divided by incident flux,
  with each segment's stored wave integrated in closed form.
* Buttiker-Landauer time: segment-wise d/(2 kappa) below the barrier and the
  classical crossing d/(2 k) above it (the super-barrier form is an
  interpretation; the WKB expression is sub-barrier only).
* Larmor clock: spin precession (tau_y) and spin rotation (tau_z) from the two
  Zeeman channels, extrapolated to zero field.
* Imaginary-potential clock: logarithmic sensitivity of |T|^2 (or |R|^2) to a
  small absorptive potential in the clock region.
* Sojourn times: the paired-variable correction.  Interface scattering is
  pinned at zero clock strength while the internal propagation carries
  xi = V_I * L; the xi -> 0 derivative of the dressed amplitude (amplitude for
  propagating, phase for evanescent regions) gives a positive definite
  traversal time.  Prompt reflection r12 is subtracted before timing the
  reflected wave.

Every zero-strength limit goes through one probe ladder: the clock names the
parameter it probes, the amplitude it reads and the factor it applies; the
ladder probes at +-h, +-h/2 and +-h/4, reduces the amplitudes to ln|a|^2 or
unwrapped phases and applies one fixed Richardson stencil to the central
differences.

A clock prepares the chain once per energy as a scatter._Chain: the bare
segment wavevectors, the segment lengths, the lead wavevectors and the exit
phase exp(-i k_R X).  Each probe is one _Chain.fold with the entries its
parameter moves replaced (the clock segments' k for the imaginary clock and the
Larmor clock, their propagation wavevectors for the sojourn); a Wigner probe
prepares the chain anew at E + dE.  A moved k comes from scatter._k, the rule
scatter.wavevector applies, and the public solves fold the same _Chain, so a
probe gives the amplitude the public solve gives for the clocked profile, to
the bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import scatter
from .errors import (
    DerivativeError,
    DivergentIntegrandError,
    LogSingularityError,
    RegimeAmbiguityError,
    StepSizeError,
    ValidationError,
    WavetimeError,
)
from .potentials import PotentialProfile

__all__ = [
    "TimescaleReport",
    "wigner_delay",
    "dwell_time",
    "bl_time",
    "larmor_times",
    "imag_clock_time",
    "sojourn_transmission",
    "sojourn_reflection",
    "sojourn_via_larmor_pairing",
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


@dataclass(frozen=True)
class TimescaleReport:
    """All computed times at one energy.

    entries maps method labels (wigner, dwell, bl, larmor_y, larmor_z,
    larmor_pythagorean, imag_clock, sojourn) to times; methods whose
    preconditions fail appear in reasons instead, never as NaN entries.
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


def _clock_region(profile: PotentialProfile) -> tuple[int, int]:
    if profile.clock_region is None:
        raise ValidationError("profile has no clock region")
    return profile.clock_region


def _normalize_regions(
    profile: PotentialProfile, regions
) -> list[tuple[int, int]]:
    """Accept None (profile clock region), one (lo, hi) pair, or a sequence of
    disjoint pairs; returns validated, sorted pairs."""
    if regions is None:
        regions = [_clock_region(profile)]
    elif isinstance(regions, tuple) and len(regions) == 2 and all(
        isinstance(v, int) for v in regions
    ):
        regions = [regions]
    else:
        regions = list(regions)
    n = len(profile.segments)
    out = []
    for lo, hi in sorted(regions):
        if not (0 <= lo <= hi < n):
            raise ValidationError(f"region ({lo}, {hi}) out of range for {n} segments")
        out.append((int(lo), int(hi)))
    for (_, h1), (l2, _) in zip(out, out[1:]):
        if l2 <= h1:
            raise ValidationError("clock regions overlap")
    return out


def _region_segments(regions: list[tuple[int, int]]) -> list[int]:
    idx: list[int] = []
    for lo, hi in regions:
        idx.extend(range(lo, hi + 1))
    return idx


def _energy_scale(profile: PotentialProfile, E: float, segs: list[int] | None = None) -> float:
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


def _zero_strength_roots(
    profile: PotentialProfile, E: float, segs: list[int], propagating: bool
) -> list[tuple[int, float, float]]:
    """(j, L_j, root) per segment, where root is k_j = sqrt(E - V_j) in a
    propagating region and kappa_j = sqrt(V_j - E) in an evanescent one: the
    real root that a paired-variable dressing shifts."""
    out = []
    for j in segs:
        seg = profile.segments[j]
        gap = E - seg.v_real if propagating else seg.v_real - E
        out.append((j, seg.length, math.sqrt(gap)))
    return out


def _ladder(scale: float, centre: bool = False) -> tuple[float, list[float]]:
    """The largest probe h and the probe offsets laid out as
    [-h, -h/2, -h/4, (0,) h/4, h/2, h]; the centre probe anchors phase
    unwrapping."""
    h = _PROBE_STEP * scale
    hs = [h, 0.5 * h, 0.25 * h]
    return h, [-s for s in hs] + ([0.0] if centre else []) + hs[::-1]


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


def _reduce(amps: list[complex], kind: str, what: str):
    """Guard the probe amplitudes against zeros, then reduce them to ln|a|^2
    (kind "log") or to continuous phases (kind "phase").

    Raises:
        StepSizeError: if neighbouring unwrapped phases still jump by more
            than _MAX_PHASE_JUMP.
    """
    floor = _AMPLITUDE_FLOOR if kind == "log" else _PHASE_FLOOR
    if min(abs(a) for a in amps) < floor:
        raise LogSingularityError(
            f"{what} ~ 0 within the probe ladder; log-derivative singular"
        )
    if kind == "log":
        return [math.log(abs(a) ** 2) for a in amps]
    phases = np.unwrap(np.angle(np.asarray(amps, dtype=complex)))
    if np.max(np.abs(np.diff(phases))) > _MAX_PHASE_JUMP:
        raise StepSizeError(
            f"phase of the {what} jumps by more than pi/2 between neighbouring probes; "
            "the probe ladder undersamples it"
        )
    return phases


def _ladder_derivative(
    amplitude, scale: float, kind: str, what: str, centre: bool = False
) -> float:
    """d/ds of ln|a(s)|^2 or arg a(s) at s = 0 over the probe ladder."""
    h, offsets = _ladder(scale, centre)
    return richardson(_reduce([amplitude(s) for s in offsets], kind, what), h)


# ---------------------------------------------------------------------------
# group-delay and flux-based times


def wigner_delay(profile: PotentialProfile, E: float, channel: str = "transmission") -> float:
    """Wigner group delay d(phase)/dE of t (exit-referenced) or r.

    With hbar = 1 the frequency is the energy, so this is literally
    d(Arg amplitude)/dE with continuous phase tracking across the probes.
    """
    lead = max(profile.v_left, profile.v_right)

    def amplitude(dE: float) -> complex:
        if E + dE <= lead:
            raise ValidationError(
                f"probe energies dip below an asymptotic potential; E = {E} is too close to a lead"
            )
        t, r, _, _ = scatter._Chain(profile, E + dE).fold()
        return t if channel == "transmission" else r

    return _ladder_derivative(
        amplitude, _energy_scale(profile, E), "phase", f"{channel} amplitude", centre=True
    )


def _density_integral(w: scatter._SegmentWave) -> float:
    """Integral of |psi|^2 over one segment's stored wave (u in [0, d]),
    whose k^2 is real.

    A "pw" wave a e^{iku} + b e^{ik(d-u)} gives d|a+b|^2 - 2 Re(a b*) D for
    real k and [-expm1(-2 kappa d)/(2 kappa)] |a+b|^2 + 2 Re(a b*) e^{-kappa d} D
    for k = i kappa, with D = d - sin(kd)/k; e^{-kappa d} D is taken as
    d e^{-kappa d} - [-expm1(-2 kappa d)/(2 kappa)], which cannot overflow.  A
    "lin" wave a cos(ku) + b sin(ku)/k (|k| d < 1e-5) is a + bu minus
    k^2 (a u^2/2 + b u^3/6) to first order; the rest is below (kd)^4 < 1e-20.
    """
    a, b, d = w.a, w.b, w.d
    kr, kap = w.k.real, w.k.imag  # one of the two is zero
    k2 = kr * kr - kap * kap
    ab = (a * b.conjugate()).real
    if w.kind == "lin":
        aa, bb = abs(a) ** 2, abs(b) ** 2
        return (
            aa * d + ab * d**2 + bb * d**3 / 3.0
            - k2 * (aa * d**3 + ab * d**4 + bb * d**5 / 5.0) / 3.0
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

    The region must carry a real potential (Hermitian problem); defaults to
    the clock region, or the whole profile when none is marked.
    """
    if region is None:
        region = profile.clock_region if profile.clock_region is not None else (
            (0, len(profile.segments) - 1) if profile.segments else None
        )
    if region is None:
        return 0.0
    lo, hi = region
    for j in range(lo, hi + 1):
        if profile.segments[j].v_imag != 0.0:
            raise ValidationError(
                f"dwell time requires a real potential in the region; segment {j} is absorptive"
            )
    sol = scatter.solve(profile, E)
    J = sol.incident_flux
    if J == 0.0:
        raise ValidationError("incident flux vanishes")
    return sum(_density_integral(w) for w in sol.segment_waves[lo : hi + 1]) / J


def bl_time(profile: PotentialProfile, E: float, region: tuple[int, int] | None = None) -> float:
    """Buttiker-Landauer traversal time over the region (segment-wise additive).

    Sub-barrier segments contribute d/(2 kappa); super-barrier segments the
    classical crossing d/(2 k_r).

    Raises:
        DivergentIntegrandError: if E equals a segment potential exactly.
    """
    if region is None:
        region = _clock_region(profile)
    lo, hi = region
    total = 0.0
    for j in range(lo, hi + 1):
        seg = profile.segments[j]
        gap = abs(seg.v_real - E)
        if gap == 0.0:
            raise DivergentIntegrandError(
                f"E equals the potential of segment {j}; 1/kappa diverges"
            )
        total += seg.length / (2.0 * math.sqrt(gap))
    return total


# ---------------------------------------------------------------------------
# quantum clocks


def _spin_expectations(a: complex, b: complex, what: str) -> tuple[float, float]:
    """<S_y>, <S_z> of the spinor (a, b) after scattering."""
    norm = abs(a) ** 2 + abs(b) ** 2
    if norm < _AMPLITUDE_FLOOR**2:
        raise LogSingularityError(f"{what} vanishes")
    s_y = (a.conjugate() * b).imag / norm
    s_z = 0.5 * (abs(a) ** 2 - abs(b) ** 2) / norm
    return s_y, s_z


def _spin_ladder(
    pair, scale: float, what: str, mirrored: bool
) -> tuple[float, list[tuple[float, float]]]:
    """The largest probe and (<S_y>, <S_z>) at each probe offset, in ladder
    order, for the Zeeman pair (spin-up, spin-down) = pair(s).

    When the probed field is the only one the spinor sees, spin-down at +s
    has the same k^2 shift as spin-up at -s (and vice versa); mirrored=True
    then reads each -s probe off the +s pair swapped instead of solving it.
    """
    h, offsets = _ladder(scale)
    pairs = {s: pair(s) for s in offsets if s > 0}
    for s in offsets:
        if s < 0:
            pairs[s] = pairs[-s][::-1] if mirrored else pair(s)
    return h, [_spin_expectations(*pairs[s], what) for s in offsets]


def _larmor_detailed(
    profile: PotentialProfile, E: float, channel: str
) -> tuple[float, float, float]:
    _clock_region(profile)
    clock_segs = profile.clock_indices()
    # A Zeeman field outside the clock region is not mirrored with the probe.
    mirrored = all(
        seg.omega_larmor == 0.0
        for j, seg in enumerate(profile.segments)
        if j not in clock_segs
    )
    scale = _energy_scale(profile, E, list(clock_segs))
    chains = {spin: scatter._Chain(profile, E, spin) for spin in (+1, -1)}
    clocked = [(j, profile.segments[j]) for j in clock_segs]

    def amplitude(spin: int, omega: float) -> complex:
        chain = chains[spin]
        t, r, _, _ = chain.fold(
            (j, scatter._k(E, seg.v_real, seg.v_imag, spin * omega / 2.0)) for j, seg in clocked
        )
        return r if channel == "reflection" else t * chain.exit_phase

    def pair(omega: float) -> tuple[complex, complex]:
        return amplitude(+1, omega), amplitude(-1, omega)

    h, spins = _spin_ladder(pair, scale, f"{channel} spinor amplitude", mirrored)
    d_sy = richardson([s_y for s_y, _ in spins], h)
    d_sz = richardson([s_z for _, s_z in spins], h)
    sign_y = math.copysign(1.0, d_sy) if d_sy != 0.0 else 0.0
    return d_sy, d_sz, sign_y


def larmor_times(
    profile: PotentialProfile, E: float, channel: str = "transmission"
) -> tuple[float, float]:
    """Spin precession and spin rotation times (tau_y, tau_z).

    tau_y = 2 |d<S_y>/d omega_L| and tau_z = 2 d<S_z>/d omega_L at zero field
    (hbar = 1; the derivative is taken in omega_L, so the gyromagnetic factors
    cancel).  tau_y is reported as a magnitude; the raw derivative sign is
    available through full_report diagnostics.
    """
    d_sy, d_sz, _ = _larmor_detailed(profile, E, channel)
    return abs(2.0 * d_sy), 2.0 * d_sz


def imag_clock_time(
    profile: PotentialProfile, E: float, channel: str = "transmission"
) -> float:
    """Imaginary-potential clock time from d ln|T|^2 / d V_I at V_I -> 0.

    Positive V_I is absorption (flux decays), so the time is minus half the
    logarithmic derivative; free propagation then clocks the literal crossing
    time L/(2k).
    """
    _clock_region(profile)
    clock_segs = profile.clock_indices()
    scale = _energy_scale(profile, E, list(clock_segs))
    chain = scatter._Chain(profile, E)
    clocked = [(j, profile.segments[j]) for j in clock_segs]

    def amplitude(v_imag: float) -> complex:
        t, r, _, _ = chain.fold((j, scatter._k(E, seg.v_real, v_imag)) for j, seg in clocked)
        return t * chain.exit_phase if channel == "transmission" else r

    return -0.5 * _ladder_derivative(amplitude, scale, "log", f"{channel} amplitude")


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
    segs = _region_segments(region_list)
    regimes = {j: _regime(profile, E, j) for j in segs}

    r12 = 0j
    if channel == "reflection":
        if len(region_list) > 1:
            raise ValidationError(
                "reflection sojourn time is defined for a single contiguous region"
            )
        r12 = scatter.partial_waves(replace(profile, clock_region=region_list[0]), E).r12
    chain = scatter._Chain(profile, E)

    def branch_time(active: list[int], regime: str) -> float:
        L_act = sum(profile.segments[j].length for j in active)
        # Propagating regions time the decay of |a|^2, evanescent ones the
        # phase the clock adds.
        propagating = regime == "propagating"
        roots = _zero_strength_roots(profile, E, active, propagating)

        def amplitude(xi: float) -> complex:
            # The paired-variable propagation wavevector of each segment:
            # k' = k + i xi_j/(2 k L_j) when propagating (amplitude decays for
            # xi > 0), k' = i kappa + xi_j/(2 kappa L_j) when evanescent (a
            # pure phase shift); its interfaces keep the bare k.
            prop_ks = []
            for j, L, root in roots:
                shift = xi * L / L_act / (2.0 * root * L)
                prop_ks.append((j, complex(root, shift) if propagating else complex(shift, root)))
            t, r, _, _ = chain.fold(prop_ks=prop_ks)
            return r - r12 if channel == "reflection" else t

        derivative = _ladder_derivative(
            amplitude,
            _energy_scale(profile, E, active) * L_act,
            "log" if propagating else "phase",
            f"dressed {channel} amplitude",
            centre=True,
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
    """
    return _sojourn_detailed(profile, E, regions, "transmission")[0]


def sojourn_reflection(
    profile: PotentialProfile, E: float, region: tuple[int, int] | None = None
) -> float:
    """Sojourn time for reflection, timed on R' = R - r12 (prompt reflection
    removed).  Satisfies tau_s(R) = tau_s(T) + tau_BL for rectangular regions.

    Raises:
        LogSingularityError: if |R'| vanishes (nothing but prompt reflection).
    """
    return _sojourn_detailed(profile, E, region, "reflection")[0]


def sojourn_via_larmor_pairing(profile: PotentialProfile, E: float, regions=None) -> float:
    """Sojourn time from the Larmor clock with the paired variable xi = omega_L L.

    Interfaces are pinned at zero field while the Zeeman-split internal
    propagation carries xi; the spin precession (propagating) or spin rotation
    (evanescent) derivative reproduces the imaginary-potential sojourn times.
    """
    region_list = _normalize_regions(profile, regions)
    segs = _region_segments(region_list)
    regimes = {j: _regime(profile, E, j) for j in segs}
    if len(set(regimes.values())) != 1:
        raise RegimeAmbiguityError(
            "Larmor pairing implemented for single-regime clock regions only"
        )
    propagating = regimes[segs[0]] == "propagating"
    L_tot = sum(profile.segments[j].length for j in segs)
    scale = _energy_scale(profile, E, segs) * L_tot
    chain = scatter._Chain(profile, E)
    roots = _zero_strength_roots(profile, E, segs, propagating)

    def amplitude(xi: float, sign: int) -> complex:
        # Zeeman shift of the internal propagation only: k'_+- from
        # kappa_+- ~ kappa -/+ xi_j/(4 kappa L_j) (and the propagating analogue).
        prop_ks = []
        for j, L, root in roots:
            xi_j = xi * L / L_tot
            if propagating:
                prop_ks.append((j, complex(root + sign * xi_j / (4.0 * root * L), 0.0)))
            else:
                prop_ks.append((j, complex(0.0, root - sign * xi_j / (4.0 * root * L))))
        return chain.fold(prop_ks=prop_ks)[0] * chain.exit_phase

    def pair(xi: float) -> tuple[complex, complex]:
        return amplitude(xi, +1), amplitude(xi, -1)

    # The probes leave omega_larmor out of every k, so the pair always mirrors.
    h, spins = _spin_ladder(pair, scale, "dressed spinor amplitude", mirrored=True)
    # Precession (S_y) for propagating regions, rotation (S_z) for evanescent.
    component = 0 if propagating else 1
    return abs(2.0 * L_tot * richardson([spin[component] for spin in spins], h))


# ---------------------------------------------------------------------------
# aggregation


def full_report(
    profile: PotentialProfile, E: float, channel: str = "transmission"
) -> TimescaleReport:
    """Compute every timescale at one energy; failed preconditions become
    reason-coded absences rather than errors."""
    entries: dict[str, float] = {}
    reasons: dict[str, str] = {}
    diagnostics: dict[str, dict] = {}

    clock_segs = list(profile.clock_indices())
    flags = {
        "evanescent_regime": bool(clock_segs)
        and all(E < profile.segments[j].v_real for j in clock_segs),
        "extrapolated_beyond_paper": len(clock_segs) > 1,
    }

    def attempt(label: str, fn) -> None:
        try:
            fn()
        except WavetimeError as exc:
            reasons[label] = f"{type(exc).__name__}: {exc}"

    def _wigner() -> None:
        entries["wigner"] = wigner_delay(profile, E, channel)

    def _dwell() -> None:
        entries["dwell"] = dwell_time(profile, E)

    def _bl() -> None:
        entries["bl"] = bl_time(profile, E)

    def _larmor() -> None:
        d_sy, d_sz, sign_y = _larmor_detailed(profile, E, channel)
        entries["larmor_y"] = abs(2.0 * d_sy)
        entries["larmor_z"] = 2.0 * d_sz
        diagnostics["larmor_y"] = {"raw_derivative_sign": sign_y}
        # Optional derived quantity; no fundamental basis, reported for
        # comparison only.
        entries["larmor_pythagorean"] = math.hypot(
            entries["larmor_y"], entries["larmor_z"]
        )

    def _imag() -> None:
        entries["imag_clock"] = imag_clock_time(profile, E, channel)

    def _sojourn() -> None:
        entries["sojourn"], mixed = _sojourn_detailed(profile, E, None, channel)
        if mixed:
            flags["extrapolated_beyond_paper"] = True

    attempt("wigner", _wigner)
    attempt("dwell", _dwell)
    attempt("bl", _bl)
    attempt("larmor", _larmor)
    attempt("imag_clock", _imag)
    attempt("sojourn", _sojourn)
    return TimescaleReport(
        energy=E,
        channel=channel,
        entries=entries,
        reasons=reasons,
        diagnostics=diagnostics,
        flags=flags,
    )
