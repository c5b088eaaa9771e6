import numpy as np
import pytest
from scipy.linalg import expm

from wavetime.errors import ValidationError
from wavetime.first_passage import (
    DetectionRecord,
    LatticeSpec,
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

    def test_calibrated_gamma_tracks_projective_run(self):
        spec = LatticeSpec(201, 1.0, 99, frozenset({100}), 0.25, 200)
        gamma, dev = calibrate_gamma(spec, (20, 150))
        assert dev < 0.05


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

    def test_split_scan_matches_whole(self):
        # Each tau is an independent run: the two halves of the tau list,
        # scanned second half first, must concatenate to the whole scan.
        spec = LatticeSpec(21, 1.0, 10, frozenset({15}), 1.0, 1)
        taus = [0.5, 0.2, 0.1, 0.05]
        second = zeno_scan(spec, taus[2:], t_fixed=3.0)
        first = zeno_scan(spec, taus[:2], t_fixed=3.0)
        assert first + second == zeno_scan(spec, taus, t_fixed=3.0)
