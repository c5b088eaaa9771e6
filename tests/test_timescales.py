import cmath
import math

import numpy as np
import pytest

from conftest import random_real_profile, safe_energy
from wavetime.errors import (
    DivergentIntegrandError,
    LogSingularityError,
    RegimeAmbiguityError,
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
from wavetime import scatter
from wavetime.scatter import partial_waves, solve
from wavetime.timescales import (
    bl_time,
    dressed_transmission,
    dwell_time,
    full_report,
    imag_clock_time,
    larmor_times,
    prompt_reflection,
    sojourn_reflection,
    sojourn_transmission,
    sojourn_via_larmor_pairing,
    wigner_delay,
)

FREE = PotentialProfile(segments=(Segment(1.0, 0.0),), clock_region=(0, 0))
# 12-segment superlattice: barriers V=5, L=0.6 alternating with wells V=1, L=0.9
STACK = PotentialProfile(
    segments=tuple(Segment(0.6, 5.0) if i % 2 == 0 else Segment(0.9, 1.0) for i in range(12)),
    clock_region=(4, 7),
)


class TestFreeSegment:
    """A clocked stretch of empty space: every clock must read L/(2k) = 0.5
    at E = 1, L = 1 (group velocity 2k with 2m = 1)."""

    def test_wigner(self):
        assert wigner_delay(FREE, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_dwell(self):
        assert dwell_time(FREE, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_bl(self):
        assert bl_time(FREE, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_imag_clock(self):
        assert imag_clock_time(FREE, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_larmor_precession(self):
        tau_y, tau_z = larmor_times(FREE, 1.0)
        assert tau_y == pytest.approx(0.5, abs=1e-9)
        assert tau_z == pytest.approx(0.0, abs=1e-9)

    def test_sojourn(self):
        assert sojourn_transmission(FREE, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_reflection_sojourn_needs_reflection(self):
        with pytest.raises(LogSingularityError):
            sojourn_reflection(FREE, 1.0)


class TestWigner:
    def test_saturates_at_inverse_k_kappa_for_opaque_barrier(self):
        # Frozen limit of the rectangular-barrier phase derivative:
        # tau_w -> 1/(k kappa) as kappa L -> infinity.
        e, v0 = 1.0, 9.0
        kappa = math.sqrt(v0 - e)
        tau = wigner_delay(make_rectangular_barrier(v0, 8.0), e)
        assert tau == pytest.approx(1.0 / (math.sqrt(e) * kappa), rel=1e-6)

    def test_matches_fine_phase_difference(self, rng):
        for _ in range(5):
            prof = random_real_profile(rng)
            e = safe_energy(rng, prof)
            tau = wigner_delay(prof, e)
            h = 1e-6 * e
            lo, hi = solve(prof, e - h), solve(prof, e + h)
            fd = cmath.phase(hi.t_local / lo.t_local) / (2 * h)
            assert tau == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_probe_below_lead_rejected(self):
        prof = PotentialProfile(segments=(Segment(1.0, 0.5),))
        with pytest.raises(ValidationError):
            wigner_delay(prof, 1e-4)


class TestDwell:
    def test_rejects_absorptive_region(self):
        prof = PotentialProfile(
            segments=(Segment(1.0, 1.0, v_imag=0.2),), clock_region=(0, 0)
        )
        with pytest.raises(ValidationError):
            dwell_time(prof, 2.0)

    def test_region_restriction(self):
        prof = PotentialProfile(
            segments=(Segment(1.0, 0.0), Segment(1.0, 0.0)), clock_region=(0, 1)
        )
        half = dwell_time(prof, 1.0, region=(0, 0))
        full = dwell_time(prof, 1.0)
        assert half == pytest.approx(0.5, abs=1e-10)
        assert full == pytest.approx(1.0, abs=1e-10)


class TestBL:
    def test_segmentwise_values(self):
        prof = PotentialProfile(
            segments=(Segment(1.0, 4.0), Segment(2.0, 1.0)), clock_region=(0, 1)
        )
        e = 2.0
        expected = 1.0 / (2 * math.sqrt(2.0)) + 2.0 / (2 * 1.0)
        assert bl_time(prof, e) == pytest.approx(expected, rel=1e-12)

    def test_diverges_at_barrier_top(self):
        with pytest.raises(DivergentIntegrandError):
            bl_time(make_rectangular_barrier(2.0, 1.0), 2.0)


class TestClockIdentities:
    def test_larmor_precession_equals_imag_clock(self, rng):
        # Both clocks differentiate the same analytic amplitude along
        # conjugate directions (real vs imaginary potential), so they agree.
        for _ in range(10):
            prof = random_real_profile(rng, clock_region=True)
            e = safe_energy(rng, prof)
            tau_y, _ = larmor_times(prof, e)
            tau_i = imag_clock_time(prof, e)
            assert tau_y == pytest.approx(abs(tau_i), rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("channel", ["transmission", "reflection"])
    @pytest.mark.parametrize("e", [2.0, 5.0])
    def test_larmor_with_field_outside_clock_region(self, channel, e):
        # A fixed field outside the clock region shifts spin-up and spin-down
        # oppositely, so the -omega probe cannot be read off the +omega solve;
        # compare with a fine difference of direct +-omega spinor solves.
        prof = PotentialProfile(
            segments=(
                Segment(0.7, 1.5, omega_larmor=0.8),
                Segment(1.0, 4.0),
                Segment(0.5, 0.5, omega_larmor=-0.3),
            ),
            clock_region=(1, 1),
        )

        def spin(omega):
            amps = scatter.solve_spinor(
                with_clock(prof, ClockSettings(ClockKind.LARMOR, omega)), e
            )
            if channel == "transmission":
                a, b = amps.t_plus, amps.t_minus
            else:
                a, b = amps.r_plus, amps.r_minus
            norm = abs(a) ** 2 + abs(b) ** 2
            return (a.conjugate() * b).imag / norm, 0.5 * (abs(a) ** 2 - abs(b) ** 2) / norm

        h = 1e-6
        (sy_p, sz_p), (sy_m, sz_m) = spin(h), spin(-h)
        tau_y, tau_z = larmor_times(prof, e, channel=channel)
        assert tau_y == pytest.approx(abs(2.0 * (sy_p - sy_m) / (2.0 * h)), rel=1e-7)
        assert tau_z == pytest.approx(2.0 * (sz_p - sz_m) / (2.0 * h), rel=1e-7)

    def test_imag_clock_singular_when_opaque(self):
        # kappa L = 20 pushes |t| below the log-derivative guard.
        prof = make_rectangular_barrier(5.0, 10.0)
        with pytest.raises(LogSingularityError):
            imag_clock_time(prof, 1.0)

    def test_reflection_channel_is_finite_for_real_barrier(self):
        tau = imag_clock_time(make_rectangular_barrier(4.0, 1.0), 2.0, channel="reflection")
        assert math.isfinite(tau)
        assert tau > 0


class TestSojourn:
    def test_dressed_amplitude_reduces_to_bare(self, rng):
        for _ in range(10):
            prof = random_real_profile(rng, clock_region=True)
            e = safe_energy(rng, prof)
            assert dressed_transmission(prof, e, 0.0) == pytest.approx(
                solve(prof, e).t, rel=1e-12
            )

    def test_prompt_reflection_is_entry_stack_amplitude(self):
        prof = make_rectangular_barrier(4.0, 1.0)
        assert prompt_reflection(prof, 2.0) == partial_waves(prof, 2.0).r12

    def test_reflection_minus_transmission_is_bl(self, rng):
        for _ in range(10):
            prof = random_real_profile(rng, max_segments=3, clock_region=True)
            lo = prof.clock_region[0]
            prof = PotentialProfile(segments=prof.segments, clock_region=(lo, lo))
            e = safe_energy(rng, prof)
            try:
                s_t = sojourn_transmission(prof, e)
                s_r = sojourn_reflection(prof, e)
            except LogSingularityError:
                continue
            assert s_r - s_t == pytest.approx(bl_time(prof, e), rel=1e-5, abs=1e-7)

    def test_larmor_pairing_agrees(self, rng):
        for _ in range(10):
            prof = random_real_profile(rng, max_segments=3, clock_region=True)
            lo = prof.clock_region[0]
            prof = PotentialProfile(segments=prof.segments, clock_region=(lo, lo))
            e = safe_energy(rng, prof)
            direct = sojourn_transmission(prof, e)
            paired = sojourn_via_larmor_pairing(prof, e)
            assert paired == pytest.approx(abs(direct), rel=1e-6, abs=1e-9)

    def test_mixed_regime_region_is_segmentwise_sum(self):
        prof = PotentialProfile(
            segments=(Segment(0.8, 4.0), Segment(0.5, 1.0)), clock_region=(0, 1)
        )
        e = 2.0
        joint = sojourn_transmission(prof, e)
        parts = sojourn_transmission(prof, e, regions=(0, 0)) + sojourn_transmission(
            prof, e, regions=(1, 1)
        )
        assert joint == pytest.approx(parts, rel=1e-9)

    def test_regime_ambiguity_at_barrier_top(self):
        with pytest.raises(RegimeAmbiguityError):
            sojourn_transmission(make_rectangular_barrier(2.0, 1.0), 2.0)

    def test_overlapping_regions_rejected(self):
        prof = PotentialProfile(
            segments=(Segment(1.0, 1.0), Segment(1.0, 2.0)), clock_region=(0, 1)
        )
        with pytest.raises(ValidationError):
            sojourn_transmission(prof, 3.0, regions=[(0, 1), (1, 1)])

    def test_reflection_requires_contiguous_region(self):
        prof = PotentialProfile(
            segments=(Segment(1.0, 1.0), Segment(1.0, 0.0), Segment(1.0, 1.0)),
        )
        # Two disjoint pieces are fine for transmission but rejected for the
        # reflection channel (prompt reflection is only defined at one entry).
        assert math.isfinite(sojourn_transmission(prof, 3.0, regions=[(0, 0), (2, 2)]))
        with pytest.raises(ValidationError):
            sojourn_reflection(prof, 3.0, region=[(0, 0), (2, 2)])


class TestFullReport:
    def test_all_methods_present_for_generic_barrier(self):
        rep = full_report(make_rectangular_barrier(4.0, 1.0), 2.0)
        assert set(rep.entries) == {
            "wigner",
            "dwell",
            "bl",
            "larmor_y",
            "larmor_z",
            "larmor_pythagorean",
            "imag_clock",
            "sojourn",
        }
        assert rep.reasons == {}
        assert rep.flags["evanescent_regime"] is True
        assert rep.flags["extrapolated_beyond_paper"] is False
        assert rep.entries["larmor_pythagorean"] == pytest.approx(
            math.hypot(rep.entries["larmor_y"], rep.entries["larmor_z"])
        )
        assert "richardson_error" in rep.diagnostics["wigner"]

    def test_barrier_top_failures_are_reason_coded(self):
        rep = full_report(make_rectangular_barrier(4.0, 1.0), 4.0)
        assert "bl" in rep.reasons
        assert "sojourn" in rep.reasons
        assert "bl" not in rep.entries
        assert math.isfinite(rep.entries["wigner"])

    def test_divergent_resummation_is_reason_coded(self):
        prof = PotentialProfile(
            segments=(Segment(1.0, 0.0), Segment(3.0, 2.0, v_imag=-1.5), Segment(1.0, 0.0)),
            clock_region=(1, 1),
        )
        rep = full_report(prof, 2.5, "reflection")
        assert rep.reasons["sojourn"].startswith("ResummationDivergenceError: ")
        assert "sojourn" not in rep.entries
        assert math.isfinite(rep.entries["wigner"])

    @pytest.mark.parametrize("channel, chains", [("transmission", 27), ("reflection", 28)])
    def test_chain_count_per_energy(self, monkeypatch, channel, chains):
        # wigner 7 + dwell 1 + larmor 3 x 2 + imag_clock 6 + sojourn 7, plus
        # the prompt-reflection partial_waves call for the reflection channel.
        calls = []
        for name in ("solve", "solve_with_propagation_override", "partial_waves"):
            original = getattr(scatter, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scatter, name, counted)
        rep = full_report(make_rectangular_barrier(4.0, 1.0), 2.0, channel=channel)
        assert rep.reasons == {}
        assert len(calls) == chains

    @pytest.mark.parametrize("channel, builds", [("transmission", 1), ("reflection", 2)])
    def test_prefix_chain_builds_per_energy(self, chain_builds, channel, builds):
        # Only the dwell time's interior waves and the reflection channel's
        # prompt-reflection partial_waves need the prefix/suffix chain; every
        # other solve reads its amplitudes off the fold.
        for e in (0.7, 3.0, 7.5):
            del chain_builds[:]
            rep = full_report(STACK, e, channel=channel)
            assert rep.reasons == {}
            assert len(chain_builds) == builds

    def test_reflection_channel_report(self):
        rep = full_report(make_rectangular_barrier(4.0, 1.0), 2.0, channel="reflection")
        assert rep.channel == "reflection"
        assert math.isfinite(rep.entries["sojourn"])


class TestPositivity:
    def test_sojourn_nonnegative_sample(self, rng):
        for _ in range(50):
            prof = random_real_profile(rng, clock_region=True)
            e = safe_energy(rng, prof)
            try:
                tau = sojourn_transmission(prof, e)
            except LogSingularityError:
                continue
            assert tau >= -1e-8


class TestBarrierTopLadderDefect:
    """Just above a barrier top ln|T|^2 varies on a scale below the smallest
    probe, so the probe ladder misreads the sojourn time (ROADMAP item 3)."""

    PROF = make_rectangular_barrier(4.0, 1.0)
    E = 4.00071

    def fine_difference(self):
        # -(L/2) d ln|T|^2 / d xi at xi = 0, central difference at +-1e-7.
        h = 1e-7

        def log_t2(xi):
            return math.log(abs(dressed_transmission(self.PROF, self.E, xi)) ** 2)

        return -(1.0 / 2.0) * (log_t2(h) - log_t2(-h)) / (2.0 * h)

    def test_fine_difference_oracle(self):
        assert self.fine_difference() == pytest.approx(352.28, rel=1e-4)

    def test_ladder_value_is_pinned(self):
        assert sojourn_transmission(self.PROF, self.E) == pytest.approx(18.5247, rel=1e-4)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the Richardson probe ladder is far too coarse just "
        "above a barrier top, where ln|T|^2 varies on a scale below the smallest "
        "probe; exact derivatives through the chain fix it",
    )
    def test_ladder_matches_fine_difference(self):
        assert sojourn_transmission(self.PROF, self.E) == pytest.approx(
            self.fine_difference(), rel=1e-4
        )
