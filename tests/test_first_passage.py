import math
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from wavetime import first_passage
from wavetime.errors import ValidationError
from wavetime.first_passage import (
    _MAX_GAMMA_TAU,
    _MAX_HOPPING_TAU,
    _MAX_STEPS,
    DetectionRecord,
    LatticeSpec,
    _expm1,
    _modes,
    calibrate_gamma,
    evolve_nonhermitian,
    evolve_project,
    fit_power_law,
    zeno_scan,
)


def site_hamiltonian(spec):
    h = np.zeros((spec.n_sites, spec.n_sites))
    for i in range(spec.n_sites - 1):
        h[i, i + 1] = h[i + 1, i] = -spec.hopping
    return h


def brute_force_run(spec):
    """Site-basis reference, sharing nothing with the sine modes: build U with
    expm and apply the projector explicitly as a matrix.

    Returns:
        (p, survival) per step.
    """
    u = expm(-1j * site_hamiltonian(spec) * spec.tau)
    proj = np.eye(spec.n_sites)
    for d in spec.detector_sites:
        proj[d, d] = 0.0
    psi = np.zeros(spec.n_sites, dtype=complex)
    psi[spec.initial_site] = 1.0
    p, s = [], []
    for _ in range(spec.n_steps):
        psi = u @ psi
        detected = psi - proj @ psi
        p.append(float(np.vdot(detected, detected).real))
        psi = proj @ psi
        s.append(float(np.vdot(psi, psi).real))
    return np.array(p), np.array(s)


def random_spec(rng, max_sites=5, n_steps=12):
    n = int(rng.integers(3, max_sites + 1))
    n_det = int(rng.integers(1, n))
    detectors = frozenset(int(s) for s in rng.choice(n, size=n_det, replace=False))
    return LatticeSpec(
        n_sites=n,
        hopping=float(rng.uniform(0.2, 3.0)),
        initial_site=int(rng.integers(0, n)),
        detector_sites=detectors,
        tau=float(rng.uniform(0.05, 2.0)),
        n_steps=n_steps,
    )


class TestValidation:
    def test_rejects_small_lattice(self):
        with pytest.raises(ValidationError):
            LatticeSpec(2, 1.0, 0, frozenset({1}), 1.0, 1)

    def test_rejects_out_of_range_detector(self):
        with pytest.raises(ValidationError):
            LatticeSpec(5, 1.0, 0, frozenset({5}), 1.0, 1)

    def test_rejects_empty_detectors(self):
        with pytest.raises(ValidationError):
            LatticeSpec(5, 1.0, 0, frozenset(), 1.0, 1)

    def test_rejects_unbounded_step_count(self):
        LatticeSpec(5, 1.0, 0, frozenset({4}), 1.0, _MAX_STEPS)
        for n_steps in (_MAX_STEPS + 1, int(1e300)):
            with pytest.raises(ValidationError, match="^n_steps: must be at most"):
                LatticeSpec(5, 1.0, 0, frozenset({4}), 1.0, n_steps)

    @pytest.mark.parametrize(
        "field, value, why",
        [("hopping", True, "a finite real number"), ("initial_site", False, "a finite real number"),
         ("detector_sites", [4, True], "a finite real number"),
         ("n_sites", 5.5, "an integer"), ("n_steps", 2.5, "an integer"),
         ("tau", math.nan, "a finite real number"), ("hopping", math.inf, "a finite real number"),
         ("detector_sites", 4, "sites")],
    )
    def test_rejects_malformed_field(self, field, value, why):
        fields = dict(n_sites=5, hopping=1.0, initial_site=0, detector_sites=[4], tau=1.0, n_steps=3)
        with pytest.raises(ValidationError, match=f"^{field}: (must be|expected) {why}"):
            LatticeSpec(**{**fields, field: value})

    def test_integral_floats_are_stored_as_ints(self):
        spec = LatticeSpec(5.0, 1, 0.0, [4.0], 1, 3.0)
        assert [type(v) for v in (spec.n_sites, spec.initial_site, spec.n_steps)] == [int] * 3
        assert (spec.n_sites, spec.initial_site, spec.n_steps) == (5, 0, 3)
        assert spec.detector_sites == frozenset({4}) and type(next(iter(spec.detector_sites))) is int
        assert type(spec.hopping) is float and type(spec.tau) is float

    def test_detector_may_sit_on_initial_site(self):
        spec = LatticeSpec(5, 1.0, 2, frozenset({2}), 1e-4, 1)
        rec = evolve_project(spec)
        # The state barely evolves before the first measurement, so it is
        # detected almost surely: p(1) = 1 - O(tau^2).
        assert rec.p[0] == pytest.approx(1.0, abs=1e-7)


class TestBookkeeping:
    def test_probability_conservation(self, rng):
        for _ in range(20):
            rec = evolve_project(random_spec(rng))
            assert np.max(np.abs(rec.total_probability() - 1.0)) < 1e-10
            assert np.all(rec.p >= -1e-15)
            assert np.all(rec.p <= 1.0 + 1e-12)

    def test_survival_nonincreasing(self, rng):
        for _ in range(20):
            rec = evolve_project(random_spec(rng))
            assert np.all(np.diff(rec.survival) <= 1e-12)


class TestOracle:
    def test_three_site_chain_matches_dense_exponential(self):
        spec = LatticeSpec(3, 1.0, 0, frozenset({2}), 1.0, 8)
        rec = evolve_project(spec)
        p, s = brute_force_run(spec)
        assert np.max(np.abs(rec.survival - s)) < 1e-12
        assert np.max(np.abs(rec.p - p)) < 1e-12

    def test_small_lattices_match_brute_force(self, rng):
        for _ in range(100):
            spec = random_spec(rng)
            rec = evolve_project(spec)
            p, s = brute_force_run(spec)
            assert np.max(np.abs(rec.survival - s)) < 1e-10
            assert np.max(np.abs(rec.p - p)) < 1e-10

    def test_modes_are_orthogonal_eigenvectors_at_large_n(self):
        n = 1201
        spec = LatticeSpec(n, 1.3, 0, frozenset({1}), 1.0, 1)
        v, energies = _modes(spec, range(n))
        assert np.max(np.abs(v @ v.T - np.eye(n))) < 1e-14
        assert np.array_equal(v, v.T)
        h = site_hamiltonian(spec)
        assert np.max(np.abs(h @ v - v * energies)) < 1e-14

    @pytest.mark.parametrize("spec, n_bright", [
        (LatticeSpec(1201, 1.0, 500, frozenset({600}), 0.25, 150), 601),
        (LatticeSpec(21, 1.0, 3, frozenset({10}), 1.0, 200), 11),
        (LatticeSpec(20, 1.3, 5, frozenset({5}), 1.3, 200), 18),
        (LatticeSpec(17, 0.8, 2, frozenset({8, 11}), 0.6, 200), 15),
    ])
    def test_bright_modes_match_full_mode_basis(self, spec, n_bright):
        # The run steps only the modes a detector sees.  The loop below steps
        # every sine mode, dark ones included, and reads S(n) = ||c||^2.
        rows, energies = _modes(spec, [spec.initial_site, *sorted(spec.detector_sites)])
        c, v_d = rows[0].astype(complex), rows[1:]
        phase = np.exp(-1j * energies * spec.tau)
        p, s = [], []
        for _ in range(spec.n_steps):
            c *= phase
            a = v_d @ c
            p.append(float(np.vdot(a, a).real))
            c -= a @ v_d
            s.append(float(np.vdot(c, c).real))
        assert len(first_passage._bright_modes(spec)[0]) == n_bright
        rec = evolve_project(spec)
        assert np.max(np.abs(rec.survival - s)) < 1e-13
        assert np.max(np.abs(rec.p - p)) < 1e-13

    def test_mirror_symmetry(self):
        spec = LatticeSpec(11, 1.3, 2, frozenset({8}), 0.7, 20)
        mirror = LatticeSpec(11, 1.3, 8, frozenset({2}), 0.7, 20)
        a = evolve_project(spec).survival
        b = evolve_project(mirror).survival
        assert np.max(np.abs(a - b)) < 1e-12


class TestNonHermitian:
    def test_small_gamma_barely_absorbs(self):
        spec = LatticeSpec(11, 1.0, 5, frozenset({8}), 0.5, 10)
        s = evolve_nonhermitian(spec, 1e-6)
        assert np.all(s > 1.0 - 1e-4)

    def test_monotone_decay(self):
        spec = LatticeSpec(11, 1.0, 5, frozenset({8}), 0.5, 40)
        s = evolve_nonhermitian(spec, 1.0)
        assert np.all(np.diff(s) <= 1e-12)

    def test_matches_site_basis_exponential(self, rng):
        for _ in range(10):
            spec = random_spec(rng, max_sites=7, n_steps=15)
            proj = np.zeros((spec.n_sites, spec.n_sites))
            for d in spec.detector_sites:
                proj[d, d] = 1.0
            for gamma in (0.1, 1.0, 10.0):
                step = expm(-1j * spec.tau * (site_hamiltonian(spec) - 1j * gamma * proj))
                psi = np.zeros(spec.n_sites, dtype=complex)
                psi[spec.initial_site] = 1.0
                ref = []
                for _ in range(spec.n_steps):
                    psi = step @ psi
                    ref.append(float(np.vdot(psi, psi).real))
                assert np.max(np.abs(evolve_nonhermitian(spec, gamma) - ref)) < 1e-12

    def test_rejects_nonpositive_gamma(self):
        spec = LatticeSpec(5, 1.0, 0, frozenset({4}), 1.0, 1)
        with pytest.raises(ValidationError):
            evolve_nonhermitian(spec, 0.0)
        with pytest.raises(ValidationError, match="positive and finite"):
            evolve_nonhermitian(spec, math.inf)

    def test_first_steps_of_a_longer_run_are_the_shorter_run(self):
        # Every step applies the same step matrix to the last amplitudes, so a
        # run's first k steps are the k-step run, to the bit.
        spec = LatticeSpec(11, 1.0, 5, [8], 0.5, 40)
        whole = evolve_nonhermitian(spec, 1.0)
        for k in (1, 7, 39):
            assert np.array_equal(whole[:k], evolve_nonhermitian(replace(spec, n_steps=k), 1.0))

    @pytest.mark.parametrize("spec", [LatticeSpec(161, 1.0, 79, [80], 0.25, 150),
                                      LatticeSpec(9, 1.0, 0, [4], 0.4, 60),
                                      LatticeSpec(20, 1.3, 3, [10, 15], 0.7, 30)])
    def test_every_gamma_is_a_survival_or_a_named_refusal(self, spec):
        # Across the whole float range, a survival in [0, 1] (to 1e-12) with
        # no numpy warning, or gamma * tau beyond the bound refused by name.
        refused, bound = 0, re.escape(f"{_MAX_GAMMA_TAU:g}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma in np.geomspace(1e-300, 1.7e308, 200):
                if gamma * spec.tau > _MAX_GAMMA_TAU:
                    with pytest.raises(ValidationError, match=f"^gamma: .* exceeds {bound}$"):
                        evolve_nonhermitian(spec, float(gamma))
                    refused += 1
                    continue
                s = evolve_nonhermitian(spec, float(gamma))
                assert 0.0 <= s.min() and s.max() <= 1.0 + 1e-12, gamma
        assert 0 < refused < 200

    @pytest.mark.parametrize("gamma_tau", [1e-3, 1.0])
    @pytest.mark.parametrize("chain", [(9, 1.0, 0, [4]), (20, 1.3, 3, [10, 15]), (161, 1.0, 79, [80])])
    def test_every_tau_is_a_survival_or_a_named_refusal(self, chain, gamma_tau):
        # Up to tau = 1e300, a survival in [0, 1] (to 1e-12) with no numpy
        # warning, or hopping * tau beyond the bound refused by name; the
        # phases of a longer step carry a rounding that S(n) would amplify.
        refused, bound = 0, re.escape(f"{_MAX_HOPPING_TAU:g}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau in np.geomspace(1e-3, 1e300, 120):
                spec = LatticeSpec(*chain, float(tau), 40)
                if spec.hopping * spec.tau > _MAX_HOPPING_TAU:
                    with pytest.raises(ValidationError, match=f"^tau: .* exceeds {bound}$"):
                        evolve_nonhermitian(spec, gamma_tau / spec.tau)
                    refused += 1
                    continue
                s = evolve_nonhermitian(spec, gamma_tau / spec.tau)
                assert 0.0 <= s.min() and s.max() <= 1.0 + 1e-12, tau
        assert 0 < refused < 120

    def test_unseen_modes_are_exactly_dark(self):
        # The centre of the 161-site chain sees only its 81 odd modes, and
        # site 5 of the 20-site chain misses modes 7 and 14 (6k = 0 mod 21):
        # their detector amplitudes are zero, not sin(pi) = 1.2e-16.
        for n_sites, site, dark in ((161, 80, 80), (20, 5, 2)):
            rows, _ = _modes(LatticeSpec(n_sites, 1.0, 0, [site], 1.0, 1), [site])
            assert np.count_nonzero(rows == 0.0) == dark
            assert np.min(np.abs(rows[rows != 0.0])) > 1e-3

    def test_calibrated_gamma_tracks_projective_run(self):
        spec = LatticeSpec(201, 1.0, 99, frozenset({100}), 0.25, 200)
        gamma, dev = calibrate_gamma(spec, (20, 150))
        assert dev < 0.05


def mpmath_survival(spec, gamma):
    """||psi(n tau)||^2, n = 1..n_steps, from mpmath's expm of the site-basis
    H - i gamma P_D at 30 digits: shares no code or basis with the sine modes."""
    with mpmath.workdps(30):
        h = mpmath.matrix(spec.n_sites)
        for i in range(spec.n_sites - 1):
            h[i, i + 1] = h[i + 1, i] = -spec.hopping
        for d in spec.detector_sites:
            h[d, d] = -1j * mpmath.mpf(gamma)
        step = mpmath.expm(-1j * mpmath.mpf(spec.tau) * h)
        psi = mpmath.matrix(spec.n_sites, 1)
        psi[spec.initial_site] = 1
        out = []
        for _ in range(spec.n_steps):
            psi = step * psi
            out.append(float(sum(abs(x) ** 2 for x in psi)))
    return np.array(out)


class TestMpmathOracle:
    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e4, 1e5])
    @pytest.mark.parametrize("spec", [LatticeSpec(9, 1.0, 0, [4], 0.4, 60),
                                      LatticeSpec(20, 1.3, 3, [10, 15], 0.7, 30)])
    def test_matches_thirty_digit_exponential(self, spec, gamma):
        # A generator of norm ~gamma carries a rounding of eps * gamma in
        # double precision when its entries mix the absorber into every mode:
        # an expm of the site basis was off by 6.8e-12 on the 20-site chain
        # at gamma = 1e4.
        tol = 1e-12 + 4 * np.finfo(float).eps * gamma
        assert np.max(np.abs(evolve_nonhermitian(spec, gamma) - mpmath_survival(spec, gamma))) < tol

    @pytest.mark.parametrize("gamma", [1e5, 1e8, 2e11])
    @pytest.mark.parametrize("spec", [LatticeSpec(9, 1.0, 0, [4], 0.4, 60),
                                      LatticeSpec(20, 1.3, 3, [10, 15], 0.7, 30)])
    def test_strong_absorber_keeps_double_precision(self, spec, gamma):
        # The step is formed where the absorber fills only the detector
        # block, so its rounding never reaches the surviving modes: the error
        # stays at 1e-15 up to the bound on gamma * tau, not eps * gamma.
        assert np.max(np.abs(evolve_nonhermitian(spec, gamma) - mpmath_survival(spec, gamma))) < 1e-14

    @pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12, 1e-3])
    def test_exceptional_point_is_refused_by_name(self, delta):
        # The 3-site chain seen from its centre has one bright pair, with
        # eigenvalues (-i gamma +- sqrt(8 - gamma^2)) / 2: they and their
        # eigenvectors merge at gamma = 2 sqrt 2.  An eigendecomposition had
        # to refuse it; the step matrix e^a - 1 is defined there, and is a
        # value right to 1e-12 at and near the merger.
        spec = LatticeSpec(3, 1.0, 0, [1], 0.5, 40)
        gamma = 2.0 * math.sqrt(2.0) * (1.0 + delta)
        survival = evolve_nonhermitian(spec, gamma)
        assert np.max(np.abs(survival - mpmath_survival(spec, gamma))) < 1e-12

    def test_calibration_passes_the_refusal_on(self):
        spec = LatticeSpec(3, 1.0, 0, [1], 0.5, 40)
        with pytest.raises(ValidationError, match="^gamma: "):
            calibrate_gamma(spec, (5, 40), [1.0, 4.0 * _MAX_GAMMA_TAU])
        with pytest.raises(ValidationError, match="^tau: "):
            calibrate_gamma(replace(spec, tau=2.0 * _MAX_HOPPING_TAU), (5, 40))


def dissipative(rng, n, norm):
    """-i H - P P^H for a random Hermitian H and rank-2 P, scaled to a 1-norm:
    its exponential is a contraction, as the absorbing step is."""
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    p = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    a = -1j * (h + h.conj().T) - p @ p.conj().T
    return a * (norm / np.linalg.norm(a, 1))


class TestExpm1:
    @pytest.mark.parametrize("n", [6, 17, 40])
    @pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4])
    def test_matches_scipy_expm(self, n, norm):
        a = dissipative(np.random.default_rng(n), n, norm)
        assert np.max(np.abs(_expm1(a) - (expm(a) - np.eye(n)))) < 1e-13

    @pytest.mark.parametrize("norm", [1e-12, 1e-6, 1e-3])
    def test_small_argument_keeps_relative_precision(self, norm):
        # e^a - 1 is carried as itself, not as 1 + X, so a weak step keeps
        # its digits: against the Taylor series, not expm(a) - I, which
        # loses them to the subtraction.
        a = dissipative(np.random.default_rng(5), 12, norm)
        term, series = a, a.copy()
        for k in range(2, 12):
            term = term @ a / k
            series += term
        assert np.max(np.abs(_expm1(a) - series)) < 1e-14 * np.max(np.abs(series))


class TestCalibrationInput:
    SPEC = LatticeSpec(41, 1.0, 20, frozenset({21}), 0.25, 60)

    @pytest.mark.parametrize("window", [(30, 10), (-5, 10), (10, 100), (10, 10), (0, 61)])
    def test_window_must_lie_in_the_run(self, window):
        # Reversed, negative, empty or past n_steps: refused by name, not cut
        # short by a slice or left to numpy.
        with pytest.raises(ValidationError, match=re.escape(f"window {window} invalid")):
            calibrate_gamma(self.SPEC, window, [1.0])

    def test_vanishing_projective_survival_is_refused(self):
        # With every site a detector, each projection leaves only rounding
        # (about 1e-32 of the survival), so S(n) underflows to exactly zero
        # by step 11 and no relative deviation is defined on the window.
        spec = LatticeSpec(7, 1.0, 0, frozenset(range(7)), 1.0, 30)
        assert evolve_project(spec).survival[20:].max() == 0.0
        with pytest.raises(ValidationError, match="^projective survival vanishes inside the window$"):
            calibrate_gamma(spec, (20, 30), [1.0])

    def test_empty_gamma_grid_is_refused(self):
        with pytest.raises(ValidationError, match="gammas"):
            calibrate_gamma(self.SPEC, (10, 40), [])

    @pytest.mark.parametrize("spec, gammas, message", [
        (LatticeSpec(161, 1.0, 79, [80], 200.0, 400000), None, "^tau: 200.0 times hopping 1.0 exceeds 100$"),
        (LatticeSpec(161, 1.0, 79, [80], 0.5, 400000), [1.0, 2.0, 4.0 * _MAX_GAMMA_TAU],
         f"^gamma: {4.0 * _MAX_GAMMA_TAU!r} times tau 0.5 exceeds 1e\\+12$"),
    ])
    def test_refusal_comes_before_either_run(self, monkeypatch, spec, gammas, message):
        # The spec and the grid alone decide these refusals: the projective
        # reference of the 400 000-step run took 2.2 s before the first
        # absorbing run refused its tau.
        def refused(*args, **kwargs):
            raise AssertionError("evolution started")

        for name in ("evolve_project", "evolve_nonhermitian"):
            monkeypatch.setattr(first_passage, name, refused)
        with pytest.raises(ValidationError, match=message):
            calibrate_gamma(spec, (10, spec.n_steps), gammas)

    def test_one_step_matrix_per_gamma_and_no_eigendecomposition(self, monkeypatch):
        # The absorbing run takes no eigendecomposition: one step matrix of
        # the 40 bright modes (site 21 of 41 misses mode 21) per gamma.
        def refused(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eig", refused)
        monkeypatch.setattr(np.linalg, "eigvals", refused)
        formed = []

        def counted(a, original=first_passage._expm1):
            formed.append(a.shape)
            return original(a)

        monkeypatch.setattr(first_passage, "_expm1", counted)
        gammas = [0.5, 2.0, 8.0, 32.0]
        calibrate_gamma(self.SPEC, (10, 40), gammas)
        assert formed == [(40, 40)] * len(gammas)

    def test_runs_stop_at_the_window_end(self, monkeypatch):
        # Both evolutions run to the window's end and no further, and the
        # result is the one of the full-length runs, to the bit.
        lo, hi = 10, 40
        gammas = [0.5, 2.0, 8.0]
        ref = evolve_project(self.SPEC).survival[lo:hi]
        devs = [np.max(np.abs(evolve_nonhermitian(self.SPEC, g)[lo:hi] - ref) / ref) for g in gammas]
        best = int(np.argmin(devs))
        lengths = []
        for name in ("evolve_project", "evolve_nonhermitian"):
            original = getattr(first_passage, name)

            def recorded(spec, *args, original=original):
                lengths.append(spec.n_steps)
                return original(spec, *args)

            monkeypatch.setattr(first_passage, name, recorded)
        assert calibrate_gamma(self.SPEC, (lo, hi), gammas) == (gammas[best], devs[best])
        assert lengths == [hi] * (1 + len(gammas))


class TestPowerLaw:
    def test_exact_power_law(self):
        n = np.arange(1, 301, dtype=float)
        exponent, resid = fit_power_law(n**-3, (9, 300))
        assert exponent == pytest.approx(-3.0, abs=1e-3)
        assert resid < 1e-12

    def test_constant_series(self):
        exponent, _ = fit_power_law(np.full(100, 0.37), (0, 100))
        assert exponent == pytest.approx(0.0, abs=1e-6)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError):
            fit_power_law([1.0, 0.0, 0.5], (0, 3))

    @pytest.mark.parametrize("window", [(0, 1), (2, 3)])
    def test_rejects_a_window_of_one_point(self, window):
        # One point fixes no slope: refused by name, not left to polyfit.
        with pytest.raises(ValidationError, match=re.escape(f"window {window} invalid for series of length 3")):
            fit_power_law([1.0, 0.5, 0.25], window)

    def test_exponent_depends_on_initial_distance(self):
        base = dict(n_sites=401, hopping=1.0, tau=0.25, n_steps=400)
        far = LatticeSpec(initial_site=120, detector_sites=frozenset({200}), **base)
        near = LatticeSpec(initial_site=199, detector_sites=frozenset({200}), **base)
        e_far, _ = fit_power_law(evolve_project(far).survival, (200, 400))
        e_near, _ = fit_power_law(evolve_project(near).survival, (200, 400))
        assert abs(e_far - e_near) > 1e-3


class TestZeno:
    def test_continuous_measurement_freezes_evolution(self):
        spec = LatticeSpec(41, 1.0, 20, frozenset({30}), 1.0, 1)
        scan = zeno_scan(spec, [1e-2, 1e-3], t_fixed=5.0)
        assert all(s > 0.99 for _, s in scan)

    def test_sparse_measurement_lets_the_packet_spread(self):
        spec = LatticeSpec(41, 1.0, 20, frozenset({19, 21}), 1.0, 1)
        (_, s_sparse), = zeno_scan(spec, [2.5], t_fixed=20.0)
        assert s_sparse < 0.8

    def test_monotone_in_small_tau_regime(self):
        spec = LatticeSpec(41, 1.0, 20, frozenset({25}), 1.0, 1)
        taus = [0.1, 0.05, 0.02, 0.01, 0.005]
        survivals = [s for _, s in zeno_scan(spec, taus, t_fixed=4.0)]
        assert survivals == sorted(survivals)

    def test_rejects_nonpositive_tau(self):
        spec = LatticeSpec(5, 1.0, 0, frozenset({4}), 1.0, 1)
        with pytest.raises(ValidationError):
            zeno_scan(spec, [0.1, 0.0], t_fixed=1.0)

    @pytest.mark.parametrize("tau", [1e-300, 5e-324])
    def test_rejects_tau_beyond_the_step_bound(self, tau):
        # t_fixed / 5e-324 is inf, which round() cannot take; 1e-300 asked
        # np.empty for 1e300 entries.
        spec = LatticeSpec(5, 1.0, 0, frozenset({4}), 1.0, 1)
        with pytest.raises(ValidationError, match="^n_steps = t_fixed / tau"):
            zeno_scan(spec, [0.5, tau], t_fixed=1.0)

    def test_split_scan_matches_whole(self):
        # Each tau is an independent run: the two halves of the tau list,
        # scanned second half first, must concatenate to the whole scan.
        spec = LatticeSpec(21, 1.0, 10, frozenset({15}), 1.0, 1)
        taus = [0.5, 0.2, 0.1, 0.05]
        second = zeno_scan(spec, taus[2:], t_fixed=3.0)
        first = zeno_scan(spec, taus[:2], t_fixed=3.0)
        assert first + second == zeno_scan(spec, taus, t_fixed=3.0)
