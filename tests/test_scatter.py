import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_profile, random_real_profile, safe_energy
from wavetime import scatter
from wavetime.errors import (
    NoOpenChannelError,
    RegimeAmbiguityError,
    ResummationDivergenceError,
    ValidationError,
)
from wavetime.potentials import (
    ClockKind,
    ClockSettings,
    PotentialProfile,
    Segment,
    make_rectangular_barrier,
    with_clock,
)
from wavetime.scatter import (
    partial_waves,
    solve,
    solve_spinor,
    solve_with_propagation_override,
    wavefunction_at,
    wavevector,
)


class TestWavevector:
    def test_free_propagation(self):
        assert wavevector(4.0, Segment(1.0, 0.0)) == pytest.approx(2.0)

    def test_evanescent_is_positive_imaginary(self):
        k = wavevector(1.0, Segment(1.0, 2.0))
        assert k == pytest.approx(1j)

    def test_absorption_branch(self):
        # v_imag > 0 is absorption: the evanescent wavevector acquires a
        # positive real part, k = i + 0.005 for E=1, V=2, V_I=0.01, so that
        # exp(ikx) decays in both amplitude senses and |t|^2+|r|^2 < 1.
        k = wavevector(1.0, Segment(1.0, 2.0, v_imag=0.01))
        assert k.real == pytest.approx(0.005, rel=1e-4)
        assert k.imag == pytest.approx(1.0, rel=1e-4)

    def test_propagating_absorption(self):
        k = wavevector(4.0, Segment(1.0, 0.0, v_imag=0.1))
        assert k.imag > 0
        assert k * k == pytest.approx(4.0 + 0.1j)

    def test_branch_continuous_through_zero_absorption(self):
        k0 = wavevector(1.0, Segment(1.0, 2.0))
        k_eps = wavevector(1.0, Segment(1.0, 2.0, v_imag=1e-12))
        assert abs(k0 - k_eps) < 1e-10

    def test_zeeman_channels(self):
        seg = Segment(1.0, 2.0, omega_larmor=0.4)
        up = wavevector(1.0, seg, channel=+1)
        down = wavevector(1.0, seg, channel=-1)
        assert up * up == pytest.approx(1.0 - 2.0 + 0.2)
        assert down * down == pytest.approx(1.0 - 2.0 - 0.2)


class TestSolveBasics:
    def test_empty_profile_is_transparent(self):
        sol = solve(PotentialProfile(segments=()), 2.0)
        assert sol.t == pytest.approx(1.0)
        assert sol.r == pytest.approx(0.0)

    def test_free_segment_transmits_with_crossing_phase(self):
        sol = solve(PotentialProfile(segments=(Segment(2.0, 0.0),)), 4.0)
        assert sol.t == pytest.approx(1.0)
        assert sol.t_local == pytest.approx(cmath.exp(1j * 2.0 * 2.0))

    def test_textbook_rectangular_barrier(self):
        # E = V0/2 with kappa*L = 1: |t|^2 = [1 + sinh^2(1) *
        # V0^2/(4E(V0-E))]^(-1} = [1+sinh^2(1)]^{-1}, derived independently
        # from the standard closed form.
        v0 = 2.0
        e = 1.0
        kappa = math.sqrt(v0 - e)
        prof = make_rectangular_barrier(v0, 1.0 / kappa)
        sol = solve(prof, e)
        expected = 1.0 / (1.0 + math.sinh(1.0) ** 2)
        assert abs(sol.t) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_closed_channel_raises(self):
        prof = PotentialProfile(segments=(Segment(1.0, 0.0),), v_left=3.0)
        with pytest.raises(NoOpenChannelError):
            solve(prof, 2.0)

    def test_reciprocity_equal_leads(self, rng):
        for _ in range(20):
            prof = random_complex_profile(rng)
            e = safe_energy(rng, prof)
            sol = solve(prof, e)
            assert sol.t == pytest.approx(sol.t_rev, rel=1e-10)


def flux_sum(sol):
    """(k_R/k_L)|t|^2 + |r|^2: 1 for a real potential, <= 1 with absorption."""
    return abs(sol.t) ** 2 * sol.k_right.real / sol.k_left.real + abs(sol.r) ** 2


@st.composite
def open_channel_problems(draw, v_imag):
    """A 1-30 segment profile with random leads, and an energy above both leads."""
    segments = draw(
        st.lists(
            st.builds(
                Segment,
                length=st.floats(0.1, 2.0),
                v_real=st.floats(-3.0, 6.0),
                v_imag=v_imag,
            ),
            min_size=1,
            max_size=30,
        )
    )
    v_left = draw(st.floats(-2.0, 2.0))
    v_right = draw(st.floats(-2.0, 2.0))
    e = max(v_left, v_right) + draw(st.floats(0.01, 10.0))
    return PotentialProfile(segments=tuple(segments), v_left=v_left, v_right=v_right), e


class TestFluxConservation:
    def test_unitarity_random_real_profiles(self, rng):
        worst = 0.0
        for _ in range(100):
            prof = random_real_profile(rng)
            e = safe_energy(rng, prof)
            sol = solve(prof, e)
            worst = max(worst, abs(abs(sol.t) ** 2 + abs(sol.r) ** 2 - 1.0))
        assert worst < 1e-10

    def test_absorption_subunitarity(self, rng):
        for _ in range(50):
            prof = random_complex_profile(rng)
            e = safe_energy(rng, prof)
            sol = solve(prof, e)
            assert abs(sol.t) ** 2 + abs(sol.r) ** 2 < 1.0

    def test_step_potential_flux_weights(self):
        # Unequal leads: |t|^2 k_R/k_L + |r|^2 = 1.
        prof = PotentialProfile(segments=(Segment(1.0, 1.0),), v_right=1.0)
        assert flux_sum(solve(prof, 3.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.xfail(reason="plane-wave branch loses flux for 1e-5 < |k|(1+d) << 1 (ROADMAP)")
    def test_flux_is_conserved_just_above_a_segment_top(self):
        # Above the k -> 0 cutoff the plane-wave branch still runs, and its
        # flux error grows like eps/|k|: 3.7e-11 at E - V = 3e-11.  Below the
        # top (evanescent k) and at the top (linear block) it stays ~1e-15.
        worst = 0.0
        for de in (1e-8, 1e-9, 1e-10, 3e-11):
            for length in np.linspace(0.1, 2.0, 40):
                prof = PotentialProfile(segments=(Segment(length, 2.0), Segment(0.7, -1.0)))
                worst = max(worst, abs(flux_sum(solve(prof, 2.0 + de)) - 1.0))
        assert worst <= 1e-12

    @settings(derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_flux_is_conserved_on_any_real_profile(self, data):
        prof, e = data.draw(open_channel_problems(v_imag=st.just(0.0)))
        assert abs(flux_sum(solve(prof, e)) - 1.0) <= 1e-12

    @settings(derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_absorption_never_adds_flux(self, data):
        prof, e = data.draw(open_channel_problems(v_imag=st.floats(0.0, 2.0)))
        assert flux_sum(solve(prof, e)) <= 1.0 + 1e-12


class TestOpaqueStability:
    def test_deep_tunneling_no_overflow(self):
        # kappa*L up to 400; |t| ~ exp(-kappa L) must come out finite and the
        # log-slope must equal -kappa exactly in the opaque limit.
        kappa = math.sqrt(8.0)
        vals = []
        for L in (50.0, 100.0):
            sol = solve(make_rectangular_barrier(9.0, L), 1.0)
            assert math.isfinite(abs(sol.t))
            vals.append(math.log(abs(sol.t)))
        slope = (vals[1] - vals[0]) / 50.0
        assert slope == pytest.approx(-kappa, rel=1e-12)

    def test_barrier_top_is_continuous(self):
        # E exactly at V0 takes the linear-solution branch; it must join the
        # generic branch smoothly.
        prof = make_rectangular_barrier(4.0, 1.0)
        t_at = solve(prof, 4.0).t
        t_near = solve(prof, 4.0 + 1e-9).t
        assert abs(t_at - t_near) < 1e-7


class TestWavefunction:
    def test_matches_boundary_amplitudes(self, rng):
        for _ in range(20):
            prof = random_real_profile(rng)
            e = safe_energy(rng, prof)
            sol = solve(prof, e)
            assert wavefunction_at(sol, 0.0) == pytest.approx(1.0 + sol.r, rel=1e-9)
            assert wavefunction_at(sol, prof.extent()) == pytest.approx(
                sol.t_local, rel=1e-9
            )

    def test_continuity_at_interfaces(self, rng, chain_builds):
        for _ in range(20):
            prof = random_real_profile(rng, max_segments=4)
            e = safe_energy(rng, prof)
            sol = solve(prof, e)
            assert chain_builds == []  # the waves wait for the first interior read
            for x in prof.edges():
                lo = wavefunction_at(sol, x - 1e-9)
                hi = wavefunction_at(sol, x + 1e-9)
                assert abs(lo - hi) < 1e-6
            assert len(chain_builds) == 1  # and are built once per solution
            del chain_builds[:]

    def test_zero_potential_is_plane_wave_everywhere(self):
        sol = solve(PotentialProfile(segments=(Segment(3.0, 0.0),)), 1.0)
        for x in (-2.0, 0.3, 1.7, 5.0):
            assert wavefunction_at(sol, x) == pytest.approx(cmath.exp(1j * x), rel=1e-12)

    def test_rejects_non_finite_position(self):
        sol = solve(make_rectangular_barrier(1.0, 1.0), 2.0)
        with pytest.raises(ValidationError):
            wavefunction_at(sol, math.inf)


class TestSpinor:
    def test_zero_field_channels_coincide(self):
        prof = make_rectangular_barrier(2.0, 1.0)
        amps = solve_spinor(prof, 1.0)
        assert amps.t_plus == amps.t_minus
        assert amps.r_plus == amps.r_minus

    def test_field_splits_channels(self):
        prof = PotentialProfile(
            segments=(Segment(1.0, 2.0, omega_larmor=0.3),), clock_region=(0, 0)
        )
        amps = solve_spinor(prof, 1.0)
        # Spin-up sees the lower barrier, so it tunnels more easily.
        assert abs(amps.t_plus) > abs(amps.t_minus)

    def test_mirrored_field_swaps_channels_bitwise(self, rng):
        # Spin-up at +omega and spin-down at -omega both shift k^2 by
        # +omega/2, so the Larmor clock reads the -omega probe off the +omega
        # solve; the two must agree to the last bit.
        def bits(z):
            return z.real.hex(), z.imag.hex()

        for _ in range(20):
            prof = random_real_profile(rng, clock_region=True)
            e = safe_energy(rng, prof)
            h = float(rng.uniform(1e-4, 0.1))
            up = solve(with_clock(prof, ClockSettings(ClockKind.LARMOR, h)), e, channel=+1)
            down = solve(with_clock(prof, ClockSettings(ClockKind.LARMOR, -h)), e, channel=-1)
            assert bits(up.t) == bits(down.t)
            assert bits(up.r) == bits(down.r)


class TestPartialWaves:
    def test_entry_reflection_is_fresnel_for_bare_barrier(self):
        prof = make_rectangular_barrier(4.0, 1.0)
        e = 2.0
        pw = partial_waves(prof, e)
        k = cmath.sqrt(complex(e))
        kp = 1j * math.sqrt(4.0 - e)
        assert pw.r12 == pytest.approx((k - kp) / (k + kp), rel=1e-12)
        assert pw.t12 == pytest.approx(2 * k / (k + kp), rel=1e-12)

    def test_geometric_resummation_reconstructs_transmission(self, rng):
        for _ in range(20):
            prof = random_real_profile(rng, clock_region=True)
            lo = prof.clock_region[0]
            prof = PotentialProfile(segments=prof.segments, clock_region=(lo, lo))
            e = safe_energy(rng, prof)
            pw = partial_waves(prof, e)
            loop = pw.r21 * pw.r23 * cmath.exp(2j * pw.k_inner * pw.region_length)
            t_sum = (
                pw.t12
                * pw.t23
                * cmath.exp(1j * pw.k_inner * pw.region_length)
                / (1.0 - loop)
            )
            sol = solve(prof, e)
            assert t_sum == pytest.approx(sol.t_local, rel=1e-9)

    def test_requires_clock_region(self):
        prof = PotentialProfile(segments=(Segment(1.0, 1.0),))
        with pytest.raises(ValidationError):
            partial_waves(prof, 2.0)

    def test_mirror_symmetric_stacks_match(self):
        segs = (Segment(0.5, 1.0), Segment(1.0, 3.0), Segment(0.5, 1.0))
        prof = PotentialProfile(segments=segs, clock_region=(1, 1))
        pw = partial_waves(prof, 2.0)
        assert pw.r21 == pytest.approx(pw.r23, rel=1e-12)

    def test_gain_region_diverges(self):
        # A gain (v_imag < 0) region amplifies each internal round trip, so
        # the geometric series for the region's partial waves diverges.
        prof = PotentialProfile(
            segments=(Segment(1.0, 0.0), Segment(3.0, 2.0, v_imag=-1.5), Segment(1.0, 0.0)),
            clock_region=(1, 1),
        )
        with pytest.raises(ResummationDivergenceError, match=r"= 9\.644\d* >= 1"):
            partial_waves(prof, 2.5)


class TestPropagationOverride:
    def test_zero_override_is_identity(self, rng):
        for _ in range(10):
            prof = random_real_profile(rng, clock_region=True)
            e = safe_energy(rng, prof)
            base = solve(prof, e)
            lo = prof.clock_region[0]
            k_lo = wavevector(e, prof.segments[lo])
            dressed = solve_with_propagation_override(prof, e, {lo: k_lo})
            assert dressed.t == pytest.approx(base.t, rel=1e-12)
            assert dressed.r == pytest.approx(base.r, rel=1e-12)

    def test_pure_decay_override_only_attenuates(self):
        prof = make_rectangular_barrier(0.0, 1.0)
        e = 4.0
        eta = 0.05
        dressed = solve_with_propagation_override(prof, e, {0: 2.0 + 1j * eta})
        # No interface mismatch at bare k, so |t| = exp(-eta L) exactly.
        assert abs(dressed.t) == pytest.approx(math.exp(-eta), rel=1e-12)


def chain_amplitudes(profile, E, channel=None, prop_override=None):
    """(t, r, t_rev, r_rev, t_local) read off the last entry of the prefix
    chain that _build_chain composes element by element."""
    ks = scatter._segment_ks(profile, E, channel)
    prop_ks = None
    if prop_override is not None:
        prop_ks = list(ks)
        for j, kp in prop_override.items():
            prop_ks[j] = kp
    k_l, k_r = scatter._lead_wavevectors(profile, E)
    ds = [s.length for s in profile.segments]
    full = scatter._build_chain(ks, ds, k_l, k_r, prop_ks).prefix[-1]
    phase = cmath.exp(-1j * k_r * profile.extent())
    return full.t * phase, full.r, full.t_rev * phase, full.r_rev * phase * phase, full.t


def amplitudes(sol):
    return sol.t, sol.r, sol.t_rev, sol.r_rev, sol.t_local


class TestFoldOracle:
    """solve's one-pass fold must reproduce the prefix chain exactly."""

    @staticmethod
    def random_problem(rng, top_run):
        # Real, absorptive and gain segments, some with a Zeeman field, plus a
        # run of segments exactly at their barrier top (k = 0) when asked.
        e = float(rng.uniform(0.5, 8.0))
        segments = [
            Segment(
                length=float(rng.uniform(0.1, 2.0)),
                v_real=float(rng.uniform(-3.0, 6.0)),
                v_imag=float(rng.choice([0.0, rng.uniform(0.0, 1.0), -rng.uniform(0.0, 1.0)])),
                omega_larmor=float(rng.choice([0.0, rng.uniform(0.0, 0.5)])),
            )
            for _ in range(int(rng.integers(0, 8)))
        ]
        if top_run is not None:
            run = [Segment(float(rng.uniform(0.1, 2.0)), e) for _ in range(int(rng.integers(1, 4)))]
            at = {"start": 0, "middle": len(segments) // 2, "end": len(segments)}[top_run]
            segments[at:at] = run
        v_left, v_right = (float(v) for v in rng.choice([0.0, rng.uniform(-2.0, e)], size=2))
        prof = PotentialProfile(segments=tuple(segments), v_left=v_left, v_right=v_right)
        return prof, e

    @pytest.mark.parametrize("top_run", [None, "start", "middle", "end"])
    def test_solve_equals_prefix_chain(self, rng, top_run):
        for _ in range(60):
            prof, e = self.random_problem(rng, top_run)
            channel = [None, +1, -1][int(rng.integers(0, 3))]
            sol = solve(prof, e, channel)
            assert amplitudes(sol) == chain_amplitudes(prof, e, channel)

    @pytest.mark.parametrize("top_run", [None, "start", "middle", "end"])
    def test_propagation_override_equals_prefix_chain(self, rng, top_run):
        for _ in range(60):
            prof, e = self.random_problem(rng, top_run)
            ks = scatter._segment_ks(prof, e, None)
            dressable = [j for j, seg in enumerate(prof.segments) if seg.v_real != e]
            override = {
                int(j): ks[j] + complex(*rng.normal(0.0, 0.1, size=2))
                for j in rng.choice(dressable, size=min(2, len(dressable)), replace=False)
            }
            sol = solve_with_propagation_override(prof, e, override)
            assert amplitudes(sol) == chain_amplitudes(prof, e, prop_override=override)

    def test_empty_profile_equals_prefix_chain(self):
        for v_right in (0.0, 1.5):
            prof = PotentialProfile(segments=(), v_right=v_right)
            assert amplitudes(solve(prof, 2.0)) == chain_amplitudes(prof, 2.0)

    @pytest.mark.parametrize(
        "error, ks, ds, prop_ks",
        [
            # ka + kb = 0 at the entry interface (k_left = 1, k_right = 2)
            (ValidationError, [-1 + 0j], [1.0], None),
            # r_rev = i after the first interface meets r = -i at the second:
            # a unit loop gain, so the interface star's denominator is 0
            (ResummationDivergenceError, [1j, -1 + 0j], [0.0, 1.0], None),
            # a propagation override on a k = 0 segment
            (RegimeAmbiguityError, [0j, 1 + 0j], [1.0, 1.0], [0.1 + 0j, 1 + 0j]),
        ],
        ids=["degenerate-interface", "unit-loop-gain", "dressed-barrier-top"],
    )
    def test_fold_raises_where_chain_raises(self, error, ks, ds, prop_ks):
        for compose in (scatter._build_chain, scatter._fold):
            with pytest.raises(error):
                compose(ks, ds, 1 + 0j, 2 + 0j, prop_ks)

    def test_dressed_barrier_top_raises_from_solve(self):
        prof = make_rectangular_barrier(4.0, 1.0)
        with pytest.raises(RegimeAmbiguityError):
            solve_with_propagation_override(prof, 4.0, {0: 0.1 + 0j})

    @pytest.mark.parametrize("dressed", [0, 1, 2], ids=["first", "second", "last"])
    def test_override_anywhere_in_a_barrier_top_run_raises(self, dressed):
        # Three consecutive k = 0 segments merge into one block; an override
        # on any of them, not just the run's first, has nowhere to go.
        prof = PotentialProfile(segments=(
            Segment(0.5, 2.0), Segment(0.5, 2.0), Segment(0.7, 2.0), Segment(1.0, 0.0),
        ))
        with pytest.raises(RegimeAmbiguityError):
            solve_with_propagation_override(prof, 2.0, {dressed: 0.3 + 0.1j})
        ks = scatter._segment_ks(prof, 2.0, None)
        prop_ks = list(ks)
        prop_ks[dressed] = 0.3 + 0.1j
        ds = [seg.length for seg in prof.segments]
        k_lead = complex(math.sqrt(2.0))
        for compose in (scatter._build_chain, scatter._fold):
            with pytest.raises(RegimeAmbiguityError):
                compose(ks, ds, k_lead, k_lead, prop_ks)


class TestLazyWaves:
    def test_amplitude_solves_build_no_chain(self, rng, chain_builds):
        for _ in range(20):
            prof = random_real_profile(rng, clock_region=True)
            e = safe_energy(rng, prof)
            solve(prof, e)
            solve_spinor(prof, e)
            lo = prof.clock_region[0]
            solve_with_propagation_override(prof, e, {lo: wavevector(e, prof.segments[lo]) + 0.01j})
            wavefunction_at(solve(prof, e), -1.0)
            wavefunction_at(solve(prof, e), prof.extent() + 1.0)
        assert chain_builds == []
