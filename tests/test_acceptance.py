"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Tolerances are pinned here and nowhere else; oracles are computed inside each
test from independent constructions (closed forms, dense matrix exponentials,
analytic limits), never from the code paths under test.
"""
import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from conftest import SPLIT_SWEEPS, random_real_profile, safe_energy, whole_and_split_rows
from wavetime.errors import LogSingularityError, RegimeAmbiguityError
from wavetime.first_passage import LatticeSpec, evolve_project, fit_power_law, zeno_scan
from wavetime.potentials import PotentialProfile, Segment, make_rectangular_barrier
from wavetime.scatter import partial_waves, solve
from wavetime.timescales import (
    bl_time,
    dwell_time,
    imag_clock_time,
    larmor_times,
    sojourn_reflection,
    sojourn_transmission,
    wigner_delay,
)
from wavetime import em_pulse


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {label}{suffix}", flush=True)
    assert ok, f"criterion {number}: {label}{suffix}"


def closed_form_sojourn(profile, e):
    """The two rectangular-region closed forms, assembled from interface-stack
    amplitudes (an independent path from the xi-derivative)."""
    pw = partial_waves(profile, e)
    L = pw.region_length
    k = pw.k_inner
    loop = pw.r21 * pw.r23
    if k.real > abs(k.imag):  # propagating region
        kr = k.real
        tau_bl = L / (2.0 * kr)
        num = 1.0 - abs(loop) ** 2
        den = 1.0 + abs(loop) ** 2 - 2.0 * (loop * cmath.exp(2j * kr * L)).real
    else:  # evanescent region
        kappa = k.imag
        tau_bl = L / (2.0 * kappa)
        z = loop * math.exp(-2.0 * kappa * L)
        num = 1.0 - abs(z) ** 2
        den = abs(1.0 - z) ** 2
    return num / den * tau_bl


def flanked_barrier(rng, v0, width):
    """Rectangular clock region with randomized real flanking stacks whose
    potentials sit below the sweep energies (wells, so no extra regime
    crossings inside the E-grid)."""
    def stack():
        return [
            Segment(length=float(rng.uniform(0.2, 0.8)), v_real=float(rng.uniform(-2.0, -0.3)))
            for _ in range(int(rng.integers(1, 3)))
        ]

    left, right = stack(), stack()
    segments = tuple(left) + (Segment(width, v0),) + tuple(right)
    idx = len(left)
    return PotentialProfile(segments=segments, clock_region=(idx, idx))


def test_criterion_01_unitarity(rng):
    worst = 0.0
    for _ in range(200):
        prof = random_real_profile(rng)
        for _ in range(20):
            e = safe_energy(rng, prof)
            sol = solve(prof, e)
            worst = max(worst, abs(abs(sol.t) ** 2 + abs(sol.r) ** 2 - 1.0))
    report(1, "unitarity of random real profiles", worst < 1e-10, f"worst dev {worst:.2e}")


def test_criterion_02_closed_form_sojourn(rng):
    v0, width = 2.0, 1.2
    energies = np.linspace(0.1 * v0, 4.0 * v0, 50)
    worst = 0.0
    checked = 0
    for trial in range(4):
        prof = flanked_barrier(rng, v0, width)
        for e in energies:
            if abs(e - v0) < 1e-3:
                continue
            try:
                num = sojourn_transmission(prof, float(e))
            except (LogSingularityError, RegimeAmbiguityError):
                continue
            ref = closed_form_sojourn(prof, float(e))
            worst = max(worst, abs(num - ref) / abs(ref))
            checked += 1
    report(
        2,
        "sojourn transmission matches the closed forms",
        checked > 150 and worst < 1e-4,
        f"worst rel {worst:.2e} over {checked} points",
    )


def test_criterion_03_reflection_identity(rng):
    v0, width = 2.0, 1.2
    energies = np.linspace(0.1 * v0, 4.0 * v0, 50)
    worst = 0.0
    checked = 0
    for trial in range(4):
        prof = flanked_barrier(rng, v0, width)
        for e in energies:
            if abs(e - v0) < 1e-3:
                continue
            try:
                s_t = sojourn_transmission(prof, float(e))
                s_r = sojourn_reflection(prof, float(e))
            except (LogSingularityError, RegimeAmbiguityError):
                continue
            ref = s_t + bl_time(prof, float(e))
            worst = max(worst, abs(s_r - ref) / abs(ref))
            checked += 1
    report(
        3,
        "reflection sojourn = transmission sojourn + crossing time",
        checked > 150 and worst < 1e-4,
        f"worst rel {worst:.2e} over {checked} points",
    )


def test_criterion_04_positivity(rng):
    violations = 0
    samples = 0
    while samples < 1000:
        prof = random_real_profile(rng, clock_region=True)
        e = safe_energy(rng, prof)
        try:
            tau = sojourn_transmission(prof, e)
        except (LogSingularityError, RegimeAmbiguityError):
            continue
        samples += 1
        if tau < -1e-8:
            violations += 1
    report(4, "sojourn positivity over 1000 samples", violations == 0, f"{violations} violations")


def test_criterion_05_additivity(rng):
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 6))
        segments = tuple(
            Segment(float(rng.uniform(0.2, 1.0)), float(rng.uniform(-2.0, 4.0)))
            for _ in range(n)
        )
        a = 0
        b = int(rng.integers(2, n))
        prof = PotentialProfile(segments=segments)
        e = safe_energy(rng, prof)
        try:
            joint = sojourn_transmission(prof, e, regions=[(a, a), (b, b)])
            split = sojourn_transmission(prof, e, regions=(a, a)) + sojourn_transmission(
                prof, e, regions=(b, b)
            )
        except (LogSingularityError, RegimeAmbiguityError):
            continue
        scale = max(abs(joint), abs(split), 1e-12)
        worst = max(worst, abs(joint - split) / scale)
        checked += 1
    report(5, "sojourn additivity over disjoint regions", worst < 1e-4, f"worst rel {worst:.2e}")


def test_criterion_06_high_energy_limit():
    v0, width = 2.0, 1.0
    e = 100.0 * v0
    prof = make_rectangular_barrier(v0, width)
    classical = width / (2.0 * math.sqrt(e - v0))
    values = {
        "wigner": wigner_delay(prof, e),
        "larmor_y": larmor_times(prof, e)[0],
        "imag_clock": imag_clock_time(prof, e),
        "sojourn_T": sojourn_transmission(prof, e),
    }
    devs = {k: abs(v - classical) / classical for k, v in values.items()}
    ok = all(d < 0.01 for d in devs.values())
    detail = ", ".join(f"{k} {d:.2e}" for k, d in devs.items())
    report(6, "high-energy limit reaches the classical crossing time", ok, detail)


def test_criterion_07_opaque_limit():
    # Each clock is probed at kappa L = 10 in the regime where its limit is
    # claimed.  The finite-kappa-L corrections are analytic: larmor_z deviates
    # by (kappa^2-k^2)/((kappa^2+k^2) kappa L) and the uncorrected clock ratio
    # is 2 k kappa/((k^2+kappa^2) kappa L), so no single energy satisfies both
    # bounds at kappa L = 10 -- the spin-rotation limit is cleanest at
    # E = V0/2 (k = kappa) and the vanishing-ratio limit at far-sub-barrier
    # energy.
    v0 = 2.0
    e_sym = v0 / 2.0
    width = 10.0 / math.sqrt(v0 - e_sym)
    prof = make_rectangular_barrier(v0, width)
    tau_bl = bl_time(prof, e_sym)
    _, tau_z = larmor_times(prof, e_sym)
    tau_s = sojourn_transmission(prof, e_sym)

    e_deep = v0 / 26.0
    width_deep = 10.0 / math.sqrt(v0 - e_deep)
    prof_deep = make_rectangular_barrier(v0, width_deep)
    tau_i = imag_clock_time(prof_deep, e_deep)
    ratio_i = tau_i / bl_time(prof_deep, e_deep)

    ok = (
        abs(tau_z - tau_bl) / tau_bl < 0.01
        and abs(tau_s - tau_bl) / tau_bl < 0.01
        and ratio_i < 0.05
    )
    report(
        7,
        "opaque limit: spin rotation and sojourn reach the crossing time",
        ok,
        f"larmor_z/bl {tau_z / tau_bl:.4f}, sojourn/bl {tau_s / tau_bl:.4f}, "
        f"imag/bl {ratio_i:.4f} (deep sub-barrier)",
    )


def test_criterion_08_hartmann_saturation():
    v0, e = 2.0, 1.0  # kappa = 1
    tau_w8 = wigner_delay(make_rectangular_barrier(v0, 8.0), e)
    tau_w16 = wigner_delay(make_rectangular_barrier(v0, 16.0), e)
    tau_s8 = sojourn_transmission(make_rectangular_barrier(v0, 8.0), e)
    tau_s16 = sojourn_transmission(make_rectangular_barrier(v0, 16.0), e)
    wigner_change = abs(tau_w16 - tau_w8) / tau_w8
    sojourn_ratio = tau_s16 / tau_s8
    ok = wigner_change < 0.01 and abs(sojourn_ratio - 2.0) < 0.02
    report(
        8,
        "Hartmann saturation of the phase time, linear growth of the sojourn time",
        ok,
        f"wigner change {wigner_change:.2e}, sojourn ratio {sojourn_ratio:.4f}",
    )


def test_criterion_09_dwell_decomposition(rng):
    worst = 0.0
    checked = 0
    while checked < 50:
        prof = random_real_profile(rng, max_segments=3, clock_region=True)
        prof = PotentialProfile(segments=prof.segments, clock_region=(0, len(prof.segments) - 1))
        e = safe_energy(rng, prof)
        sol = solve(prof, e)
        try:
            tau_t = imag_clock_time(prof, e, channel="transmission")
            tau_r = imag_clock_time(prof, e, channel="reflection")
        except LogSingularityError:
            continue
        tau_d = dwell_time(prof, e)
        lhs = abs(sol.t) ** 2 * tau_t + abs(sol.r) ** 2 * tau_r
        worst = max(worst, abs(lhs - tau_d) / max(1.0, abs(tau_d)))
        checked += 1
    report(9, "dwell time equals the flux-weighted clock decomposition", worst < 1e-6,
           f"worst dev {worst:.2e}")


def test_criterion_10_first_passage_bookkeeping(rng):
    worst_book = 0.0
    worst_oracle = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        spec = LatticeSpec(
            n_sites=n,
            hopping=float(rng.uniform(0.2, 3.0)),
            initial_site=int(rng.integers(0, n)),
            detector_sites=frozenset(
                int(s) for s in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            ),
            tau=float(rng.uniform(0.05, 2.0)),
            n_steps=12,
        )
        rec = evolve_project(spec)
        worst_book = max(worst_book, float(np.max(np.abs(rec.total_probability() - 1.0))))
        # independent dense construction: expm step + explicit projector
        h = np.zeros((n, n))
        for i in range(n - 1):
            h[i, i + 1] = h[i + 1, i] = -spec.hopping
        u = expm(-1j * h * spec.tau)
        proj = np.eye(n)
        for d in spec.detector_sites:
            proj[d, d] = 0.0
        psi = np.zeros(n, dtype=complex)
        psi[spec.initial_site] = 1.0
        for step in range(spec.n_steps):
            psi = proj @ (u @ psi)
            worst_oracle = max(
                worst_oracle, abs(float(np.vdot(psi, psi).real) - rec.survival[step])
            )
    ok = worst_book < 1e-10 and worst_oracle < 1e-10
    report(10, "first-passage bookkeeping and dense-matrix oracle", ok,
           f"bookkeeping {worst_book:.2e}, oracle {worst_oracle:.2e}")


def test_criterion_11_zeno_limit():
    hopping = 1.0
    spec = LatticeSpec(
        n_sites=41, hopping=hopping, initial_site=20,
        detector_sites=frozenset({30}), tau=1.0, n_steps=1,
    )
    scan = zeno_scan(spec, [1e-3 / hopping], t_fixed=5.0 / hopping)
    survival = scan[0][1]
    report(11, "Zeno freezing under continuous measurement", survival >= 0.99,
           f"S = {survival:.6f}")


def renewal_first_detection(hopping, tau, x0, d, n_steps):
    """p(n) on the infinite chain from the first-detection renewal equation
    (Friedman, Kessler & Barkai, PRE 95, 032141 (2017); Dhar et al., PRA 91,
    062115 (2015)): phi_n = <d|U^n|x0> - sum_{j<n} <d|U^(n-j)|d> phi_j, with
    <x|U^m|y> = i^|x-y| J_|x-y|(2 J m tau) and p(n) = |phi_n|^2."""
    m = np.arange(1, n_steps + 1)
    dist = abs(d - x0)
    to_d = 1j**dist * jv(dist, 2.0 * hopping * tau * m)
    return_d = jv(0, 2.0 * hopping * tau * m)
    phi = np.zeros(n_steps, dtype=complex)
    for n in range(n_steps):
        phi[n] = to_d[n] - np.dot(return_d[:n][::-1], phi[:n])
    return np.abs(phi) ** 2


def test_criterion_12_power_law_regime():
    # Pre-recurrence window: boundary echo returns after ~n_sites/(2 J tau)
    # steps from either edge; the fit window stays well inside.
    spec = LatticeSpec(
        n_sites=401, hopping=1.0, initial_site=150,
        detector_sites=frozenset({200}), tau=0.25, n_steps=400,
    )
    rec = evolve_project(spec)
    exponent, resid = fit_power_law(rec.survival, (100, 400))
    # The survival levels off, so the fit alone cannot fail on wrong physics;
    # every p(n) is also gated against the infinite-chain renewal oracle.
    (detector,) = spec.detector_sites
    oracle = renewal_first_detection(spec.hopping, spec.tau, spec.initial_site, detector,
                                     spec.n_steps)
    deviation = float(np.max(np.abs(rec.p - oracle)))
    blocks = rec.p[100:400].reshape(-1, 20).mean(axis=1)
    centers = np.arange(100, 400, 20) + 10.5
    tail = np.polyfit(np.log(centers), np.log(blocks), 1)[0]
    report(12, "first detection matches the renewal oracle; survival fit is clean",
           resid < 0.05 and deviation < 1e-12,
           f"max |p - p_oracle| {deviation:.2e}, survival exponent {exponent:.4f}, "
           f"log-log rms residual {resid:.2e}, block-averaged p tail exponent {tail:.2f}")


def test_criterion_13_em_decomposition():
    pulse = em_pulse.PulseSpec(carrier=10.0, duration=2.0, center=30.0,
                               n_samples=4096, span=120.0)
    failures = []
    # (a) identity for fully propagating lorentz spectra
    worst_resid = 0.0
    for thickness in (0.5, 2.0, 5.0):
        medium = em_pulse.MediumSpec(
            kind=em_pulse.MediumKind.LORENTZ, thickness=thickness,
            resonance=20.0, plasma_strength=5.0, damping=0.1,
        )
        rep = em_pulse.delay_decomposition(pulse, medium)
        rel = abs(rep.residual) / max(abs(rep.delta_t), pulse.duration * 1e-3)
        worst_resid = max(worst_resid, rel)
    if worst_resid >= 1e-6:
        failures.append(f"identity residual {worst_resid:.2e}")
    # (b) vacuum reproduces L/c
    vac = em_pulse.MediumSpec(kind=em_pulse.MediumKind.VACUUM, thickness=5.0)
    rep = em_pulse.delay_decomposition(pulse, vac)
    grid_dt = pulse.span / pulse.n_samples
    if abs(rep.delta_t - 5.0) > grid_dt:
        failures.append(f"vacuum transit {rep.delta_t}")
    # (c) narrowband reshaping is negligible
    narrow = em_pulse.PulseSpec(carrier=10.0, duration=4.0, center=60.0,
                                n_samples=8192, span=240.0)
    medium = em_pulse.MediumSpec(
        kind=em_pulse.MediumKind.LORENTZ, thickness=5.0,
        resonance=20.0, plasma_strength=5.0, damping=0.1,
    )
    rep = em_pulse.delay_decomposition(narrow, medium)
    ratio = abs(rep.delta_t_reshape / rep.delta_t)
    if ratio >= 1e-3:
        failures.append(f"narrowband reshaping ratio {ratio:.2e}")
    report(13, "pulse delay decomposition (identity, vacuum, narrowband)",
           not failures, "; ".join(failures) or f"worst residual {worst_resid:.2e}")


def test_criterion_14_determinism(tmp_path):
    # Rows are independent kernel calls, so a sweep split in two must write
    # the same bytes as the whole: no state may pass from one row to the next.
    differ = []
    for parameter, doc in SPLIT_SWEEPS.items():
        whole, split = whole_and_split_rows(tmp_path, doc)
        if not whole or whole != split:
            differ.append(parameter)
    report(14, "byte-identical sweep rows, whole grid vs its two halves",
           not differ, f"differ: {differ}" if differ else "")
