"""All traversal/dwell/sojourn timescales for piecewise-constant 1D scattering.

Implemented clocks and delays (natural units, hbar = 1, 2m = 1):

* Wigner delay: energy derivative of the exit-referenced scattering phase.
* Smith dwell time: integrated density over a region divided by incident flux.
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
ladder lays out symmetric probes, reduces the amplitudes to ln|a|^2 or
unwrapped phases and Richardson-extrapolates the central differences.
Reported times carry step sizes and an extrapolation error estimate in their
diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from scipy.integrate import quad

from . import scatter
from .errors import (
    DivergentIntegrandError,
    LogSingularityError,
    RegimeAmbiguityError,
    ValidationError,
    WavetimeError,
)
from .numdiff import DerivativeResult, central_differences, richardson, unwrapped_phases
from .potentials import ClockKind, ClockSettings, PotentialProfile, with_clock

__all__ = [
    "TimescaleReport",
    "wigner_delay",
    "dwell_time",
    "bl_time",
    "larmor_times",
    "imag_clock_time",
    "dressed_transmission",
    "prompt_reflection",
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


# Probe ladder realising every zero-strength limit: relative probe strengths,
# strictly decreasing, scaled by the local energy scale max(E, |V0 - E|) at the
# point of use, and the number of Richardson levels applied to them.
_PROBE_STEPS = (1e-2, 5e-3, 2.5e-3)
_RICHARDSON_LEVELS = 2


@dataclass(frozen=True)
class TimescaleReport:
    """All computed times at one energy, with per-entry diagnostics.

    entries maps method labels (wigner, dwell, bl, larmor_y, larmor_z,
    larmor_pythagorean, imag_clock, sojourn) to times; methods whose
    preconditions fail appear in reasons instead, never as NaN entries.
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


def _dressed_wavevector(profile: PotentialProfile, E: float, j: int, xi: float) -> complex:
    """Paired-variable propagation wavevector for one clocked segment.

    Propagating: k' = k_r + i xi/(2 k_r L) (amplitude decays for xi > 0);
    evanescent:  k' = i kappa + xi/(2 kappa L) (pure phase shift).
    """
    seg = profile.segments[j]
    L = seg.length
    if _regime(profile, E, j) == "propagating":
        kr = math.sqrt(E - seg.v_real)
        return complex(kr, xi / (2.0 * kr * L))
    kap = math.sqrt(seg.v_real - E)
    return complex(xi / (2.0 * kap * L), kap)


def _dressed_solution(
    profile: PotentialProfile, E: float, xi_by_segment: dict[int, float]
) -> scatter.ScatteringSolution:
    override = {
        j: _dressed_wavevector(profile, E, j, xi) for j, xi in xi_by_segment.items()
    }
    return scatter.solve_with_propagation_override(profile, E, override)


def _ladder(scale: float, centre: bool = False) -> tuple[list[float], list[float]]:
    """Probe steps h_i = s_i * scale and the probe offsets laid out as
    [-h1..-hm, (0,) hm..h1]; the centre probe anchors phase unwrapping."""
    hs = [s * scale for s in _PROBE_STEPS]
    return hs, [-h for h in hs] + ([0.0] if centre else []) + hs[::-1]


def _reduce(amps: list[complex], kind: str, what: str):
    """Guard the probe amplitudes against zeros, then reduce them to ln|a|^2
    (kind "log") or to continuous phases (kind "phase")."""
    floor = _AMPLITUDE_FLOOR if kind == "log" else _PHASE_FLOOR
    if min(abs(a) for a in amps) < floor:
        raise LogSingularityError(
            f"{what} ~ 0 within the probe ladder; log-derivative singular"
        )
    if kind == "log":
        return [math.log(abs(a) ** 2) for a in amps]
    return unwrapped_phases(amps)


def _extrapolate(at: dict[float, float], hs: list[float]) -> DerivativeResult:
    """Richardson-extrapolated derivative at zero from values keyed by probe offset."""
    f_plus = [at[h] for h in hs]
    f_minus = [at[-h] for h in hs]
    return richardson(central_differences(f_plus, f_minus, hs), hs, _RICHARDSON_LEVELS)


def _ladder_derivative(
    amplitude, scale: float, kind: str, what: str, centre: bool = False
) -> DerivativeResult:
    """d/ds of ln|a(s)|^2 or arg a(s) at s = 0 over the probe ladder."""
    hs, offsets = _ladder(scale, centre)
    values = _reduce([amplitude(s) for s in offsets], kind, what)
    return _extrapolate(dict(zip(offsets, values)), hs)


def _diag(result: DerivativeResult, **extra) -> dict:
    d = {
        "steps": list(result.steps),
        "richardson_error": result.error_estimate,
        "table_diagonal": list(result.table_diagonal),
    }
    d.update(extra)
    return d


# ---------------------------------------------------------------------------
# group-delay and flux-based times


def _wigner_detailed(profile: PotentialProfile, E: float, channel: str) -> DerivativeResult:
    lead = max(profile.v_left, profile.v_right)

    def amplitude(dE: float) -> complex:
        if E + dE <= lead:
            raise ValidationError(
                f"probe energies dip below an asymptotic potential; E = {E} is too close to a lead"
            )
        sol = scatter.solve(profile, E + dE)
        return sol.t_local if channel == "transmission" else sol.r

    return _ladder_derivative(
        amplitude, _energy_scale(profile, E), "phase", f"{channel} amplitude", centre=True
    )


def wigner_delay(profile: PotentialProfile, E: float, channel: str = "transmission") -> float:
    """Wigner group delay d(phase)/dE of t (exit-referenced) or r.

    With hbar = 1 the frequency is the energy, so this is literally
    d(Arg amplitude)/dE with continuous phase tracking across the probes.
    """
    return _wigner_detailed(profile, E, channel).value


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
    edges = profile.edges()
    total = 0.0
    for j in range(lo, hi + 1):
        val, _ = quad(
            lambda x: abs(scatter.wavefunction_at(sol, x)) ** 2,
            edges[j],
            edges[j + 1],
            limit=200,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        total += val
    return total / J


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
) -> tuple[list[float], dict[float, tuple[float, float]]]:
    """Probe steps and (<S_y>, <S_z>) keyed by probe offset for the Zeeman
    pair (spin-up, spin-down) = pair(h).

    When the probed field is the only one the spinor sees, spin-down at +h
    has the same k^2 shift as spin-up at -h (and vice versa); mirrored=True
    then reads each -h probe off the +h pair swapped instead of solving it.
    """
    hs, offsets = _ladder(scale)
    pairs = {h: pair(h) for h in hs}
    for h in hs:
        pairs[-h] = pairs[h][::-1] if mirrored else pair(-h)
    return hs, {s: _spin_expectations(*pairs[s], what) for s in offsets}


def _larmor_detailed(
    profile: PotentialProfile, E: float, channel: str
) -> tuple[DerivativeResult, DerivativeResult, float]:
    _clock_region(profile)

    def pair(omega: float) -> tuple[complex, complex]:
        amps = scatter.solve_spinor(with_clock(profile, ClockSettings(ClockKind.LARMOR, omega)), E)
        if channel == "reflection":
            return amps.r_plus, amps.r_minus
        return amps.t_plus, amps.t_minus

    clock_segs = profile.clock_indices()
    # A Zeeman field outside the clock region is not mirrored with the probe.
    mirrored = all(
        seg.omega_larmor == 0.0
        for j, seg in enumerate(profile.segments)
        if j not in clock_segs
    )
    scale = _energy_scale(profile, E, list(clock_segs))
    hs, spins = _spin_ladder(pair, scale, f"{channel} spinor amplitude", mirrored)
    d_sy = _extrapolate({s: s_y for s, (s_y, _) in spins.items()}, hs)
    d_sz = _extrapolate({s: s_z for s, (_, s_z) in spins.items()}, hs)
    sign_y = math.copysign(1.0, d_sy.value) if d_sy.value != 0.0 else 0.0
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
    return abs(2.0 * d_sy.value), 2.0 * d_sz.value


def _imag_clock_detailed(profile: PotentialProfile, E: float, channel: str) -> DerivativeResult:
    _clock_region(profile)

    def amplitude(v_imag: float) -> complex:
        clocked = with_clock(profile, ClockSettings(ClockKind.IMAGINARY_POTENTIAL, v_imag))
        sol = scatter.solve(clocked, E)
        return sol.t if channel == "transmission" else sol.r

    scale = _energy_scale(profile, E, list(profile.clock_indices()))
    return _ladder_derivative(amplitude, scale, "log", f"{channel} amplitude")


def imag_clock_time(
    profile: PotentialProfile, E: float, channel: str = "transmission"
) -> float:
    """Imaginary-potential clock time from d ln|T|^2 / d V_I at V_I -> 0.

    Positive V_I is absorption (flux decays), so the time is minus half the
    logarithmic derivative; free propagation then clocks the literal crossing
    time L/(2k).
    """
    return -0.5 * _imag_clock_detailed(profile, E, channel).value


# ---------------------------------------------------------------------------
# sojourn times (paired-variable correction)


def prompt_reflection(profile: PotentialProfile, E: float) -> complex:
    """r12: the partial wave reflected at the clock region's entry that never
    samples the region (subtracted before timing the reflected wave)."""
    return scatter.partial_waves(profile, E).r12


def dressed_transmission(
    profile: PotentialProfile, E: float, xi: float, regions=None
) -> complex:
    """Transmission amplitude with interfaces pinned at zero clock strength and
    the clock-region propagation carrying the paired variable xi = V_I * L.

    xi is distributed over multi-segment regions proportionally to length.
    At xi = 0 this equals solve()'s amplitude exactly.
    """
    regions = _normalize_regions(profile, regions)
    segs = _region_segments(regions)
    L_tot = sum(profile.segments[j].length for j in segs)
    xis = {j: xi * profile.segments[j].length / L_tot for j in segs}
    return _dressed_solution(profile, E, xis).t


def _sojourn_detailed(
    profile: PotentialProfile,
    E: float,
    regions,
    channel: str,
) -> tuple[float, DerivativeResult, bool]:
    """Shared xi-derivative machinery for both scattering channels.

    Returns (time, derivative result of the innermost call, mixed_regime).
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

    def branch_time(active: list[int], regime: str) -> DerivativeResult:
        L_act = sum(profile.segments[j].length for j in active)

        def amplitude(xi: float) -> complex:
            xis = {j: xi * profile.segments[j].length / L_act for j in active}
            sol = _dressed_solution(profile, E, xis)
            return sol.r - r12 if channel == "reflection" else sol.t_local

        # Propagating regions time the decay of |a|^2, evanescent ones the
        # phase the clock adds.
        propagating = regime == "propagating"
        res = _ladder_derivative(
            amplitude,
            _energy_scale(profile, E, active) * L_act,
            "log" if propagating else "phase",
            f"dressed {channel} amplitude",
            centre=True,
        )
        factor = -(L_act / 2.0) if propagating else L_act
        return replace(res, value=factor * res.value)

    unique_regimes = set(regimes.values())
    if len(unique_regimes) == 1:
        res = branch_time(segs, unique_regimes.pop())
        return res.value, res, False
    # Mixed sub/super-barrier regions: per-segment contributions, each with
    # its own branch; additive by the chain rule, reported as extrapolated.
    total = 0.0
    last = None
    for j in segs:
        last = branch_time([j], regimes[j])
        total += last.value
    return total, last, True


def sojourn_transmission(profile: PotentialProfile, E: float, regions=None) -> float:
    """Positive definite sojourn time for transmission via the xi -> 0 limit.

    Propagating regions differentiate ln|T(xi)|^2, evanescent regions the
    phase of T(xi) (where the clock acts); regions may be a (lo, hi) pair or a
    sequence of disjoint pairs (times add over disjoint regions).
    """
    value, _, _ = _sojourn_detailed(profile, E, regions, "transmission")
    return value


def sojourn_reflection(
    profile: PotentialProfile, E: float, region: tuple[int, int] | None = None
) -> float:
    """Sojourn time for reflection, timed on R' = R - r12 (prompt reflection
    removed).  Satisfies tau_s(R) = tau_s(T) + tau_BL for rectangular regions.

    Raises:
        LogSingularityError: if |R'| vanishes (nothing but prompt reflection).
    """
    value, _, _ = _sojourn_detailed(profile, E, region, "reflection")
    return value


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
    regime = regimes[segs[0]]
    L_tot = sum(profile.segments[j].length for j in segs)

    def channel_override(xi: float, sign: int) -> dict[int, complex]:
        # Zeeman shift of the internal propagation only: k'_+- from
        # kappa_+- ~ kappa -/+ xi_j/(4 kappa L_j) (and the propagating analogue).
        out = {}
        for j in segs:
            seg = profile.segments[j]
            xi_j = xi * seg.length / L_tot
            if regime == "propagating":
                kr = math.sqrt(E - seg.v_real)
                out[j] = complex(kr + sign * xi_j / (4.0 * kr * seg.length), 0.0)
            else:
                kap = math.sqrt(seg.v_real - E)
                out[j] = complex(0.0, kap - sign * xi_j / (4.0 * kap * seg.length))
        return out

    def pair(xi: float) -> tuple[complex, complex]:
        return tuple(
            scatter.solve_with_propagation_override(profile, E, channel_override(xi, sign)).t
            for sign in (+1, -1)
        )

    scale = _energy_scale(profile, E, segs) * L_tot
    # The override solve ignores omega_larmor, so the pair always mirrors.
    hs, spins = _spin_ladder(pair, scale, "dressed spinor amplitude", mirrored=True)
    # Precession (S_y) for propagating regions, rotation (S_z) for evanescent.
    component = 0 if regime == "propagating" else 1
    res = _extrapolate({s: spin[component] for s, spin in spins.items()}, hs)
    return abs(2.0 * L_tot * res.value)


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
        res = _wigner_detailed(profile, E, channel)
        entries["wigner"] = res.value
        diagnostics["wigner"] = _diag(res)

    def _dwell() -> None:
        entries["dwell"] = dwell_time(profile, E)

    def _bl() -> None:
        entries["bl"] = bl_time(profile, E)

    def _larmor() -> None:
        d_sy, d_sz, sign_y = _larmor_detailed(profile, E, channel)
        entries["larmor_y"] = abs(2.0 * d_sy.value)
        entries["larmor_z"] = 2.0 * d_sz.value
        diagnostics["larmor_y"] = _diag(d_sy, raw_derivative_sign=sign_y)
        diagnostics["larmor_z"] = _diag(d_sz)
        # Optional derived quantity; no fundamental basis, reported for
        # comparison only.
        entries["larmor_pythagorean"] = math.hypot(
            entries["larmor_y"], entries["larmor_z"]
        )

    def _imag() -> None:
        res = _imag_clock_detailed(profile, E, channel)
        entries["imag_clock"] = -0.5 * res.value
        diagnostics["imag_clock"] = _diag(res)

    def _sojourn() -> None:
        value, res, mixed = _sojourn_detailed(profile, E, None, channel)
        entries["sojourn"] = value
        diagnostics["sojourn"] = _diag(res)
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
