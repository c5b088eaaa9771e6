import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import random_real_profile, safe_energy, set_clock
from wavetime.errors import (
    DivergentIntegrandError,
    LogSingularityError,
    RegimeAmbiguityError,
    StepSizeError,
    ValidationError,
)
from wavetime.potentials import PotentialProfile, Segment, make_rectangular_barrier
from wavetime import scatter, timescales
from wavetime.scatter import solve
from wavetime.timescales import (
    bl_time,
    dwell_time,
    full_report,
    imag_clock_time,
    larmor_times,
    sojourn_reflection,
    sojourn_transmission,
    wigner_delay,
)

FREE = PotentialProfile(segments=(Segment(1.0, 0.0),), clock_region=(0, 0))
# 12-segment superlattice: barriers V=5, L=0.6 alternating with wells V=1, L=0.9
STACK = PotentialProfile(
    segments=tuple(Segment(0.6, 5.0) if i % 2 == 0 else Segment(0.9, 1.0) for i in range(12)),
    clock_region=(4, 7),
)


def dressed_wavevector(profile, E, j, xi):
    """The sojourn's paired-variable propagation wavevector of segment j at
    clock strength xi: k + i xi/(2 k L) above the barrier top, i kappa +
    xi/(2 kappa L) below it."""
    seg = profile.segments[j]
    if E > seg.v_real:
        k = math.sqrt(E - seg.v_real)
        return complex(k, xi / (2.0 * k * seg.length))
    kappa = math.sqrt(seg.v_real - E)
    return complex(xi / (2.0 * kappa * seg.length), kappa)


def add_clock_absorption(profile, s):
    """profile with s added to the v_imag of every segment of its clock region."""
    segments = list(profile.segments)
    for j in profile.clock_indices():
        segments[j] = replace(segments[j], v_imag=segments[j].v_imag + s)
    return replace(profile, segments=tuple(segments))


def absorption_difference(profile, E, h):
    """-1/2 d ln|T|^2 / d V_I at the clock region's own V_I, from public solves
    only: the central differences D(h) and D(h/2) of ln|T|^2, with s added to
    every clock segment's v_imag, combined as (4 D(h/2) - D(h)) / 3."""

    def log_t2(s):
        return math.log(abs(solve(add_clock_absorption(profile, s), E).t) ** 2)

    d1, d2 = ((log_t2(s) - log_t2(-s)) / (2.0 * s) for s in (h, 0.5 * h))
    return -0.5 * (4.0 * d2 - d1) / 3.0


def larmor_paired_sojourn(profile, E, h):
    """The sojourn time of a single-regime clock region through the Larmor
    pairing (Sokolovski & Baskin, PRA 36, 4604 (1987)): the Zeeman pair
    carries the paired variable xi = omega_L L on the internal propagation
    only, interfaces pinned at zero field.  Segment j propagates spin-up
    (sign +1) and spin-down (-1) at k + sign xi_j/(4 k L_j) above its barrier
    top and at i (kappa - sign xi_j/(4 kappa L_j)) below it, with
    xi_j = xi L_j / L.  The time is 2 L |d<S>/d xi| at xi = 0, the precession
    S_y when propagating and the rotation S_z when evanescent, here by a
    central difference at +-h."""
    segs = list(profile.clock_indices())
    L = sum(profile.segments[j].length for j in segs)

    def shifted(j, xi, sign):
        k, L_j = dressed_wavevector(profile, E, j, 0.0), profile.segments[j].length
        shift = sign * (xi * L_j / L) / (4.0 * abs(k) * L_j)
        return complex(k.real + shift, 0.0) if k.real else complex(0.0, k.imag - shift)

    def spin(xi):
        up, down = (
            scatter.solve_with_propagation_override(
                profile, E, {j: shifted(j, xi, sign) for j in segs}
            ).t
            for sign in (+1, -1)
        )
        return spin_expectations(up, down)

    component = 0 if E > profile.segments[segs[0]].v_real else 1
    return abs(2.0 * L * (spin(h)[component] - spin(-h)[component]) / (2.0 * h))


def spin_expectations(a, b):
    """<S_y>, <S_z> of the spinor (a, b)."""
    norm = abs(a) ** 2 + abs(b) ** 2
    return (a.conjugate() * b).imag / norm, 0.5 * (abs(a) ** 2 - abs(b) ** 2) / norm


def spin_pair(profile, E, channel):
    """The (spin-up, spin-down) amplitudes of channel, from the public solves
    of the two Zeeman components."""
    up, down = solve(profile, E, +1), solve(profile, E, -1)
    if channel == "reflection":
        return up.r, down.r
    return up.t, down.t


class RecordedLadder(list):
    """One ladder's probes in call order, and the probe itself as .probe."""

    def __init__(self, probe):
        super().__init__()
        self.probe = probe


def recording_probes(mp):
    """Patch the probe ladder so that each ladder records its probes in call
    order as [offset, value] (a spinor pair for the Larmor clock), or
    [offset] for a probe that raised, and keeps its probe.  Returns the list
    of ladders it fills."""
    ladders = []
    ladder = timescales._ladder

    def recorded(probe, *args, **kw):
        calls = RecordedLadder(probe)
        ladders.append(calls)

        def wrapped(s):
            calls.append([s])
            calls[-1].append(probe(s))
            return calls[-1][1]

        return ladder(wrapped, *args, **kw)

    mp.setattr(timescales, "_ladder", recorded)
    return ladders


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


def quad_dwell(profile, E, region=None):
    """Oracle: the per-segment quad of |wavefunction_at|^2 over the region,
    divided by the incident flux."""
    lo, hi = region if region is not None else (0, len(profile.segments) - 1)
    sol = solve(profile, E)
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
    return total / sol.incident_flux


@st.composite
def real_profile_and_energy(draw):
    """1-8 real segments, at a generic energy or within 1e-12..1e-3 of a
    segment top (either side)."""
    segments = tuple(
        Segment(draw(st.floats(0.1, 2.0)), draw(st.floats(-3.0, 6.0)))
        for _ in range(draw(st.integers(1, 8)))
    )
    if draw(st.booleans()):
        e = draw(st.floats(0.05, 8.0))
    else:
        top = draw(st.sampled_from(segments)).v_real
        e = top + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -3.0))
    assume(e > 0.05)
    return PotentialProfile(segments=segments), e


class TestDwell:
    @settings(derandomize=True, deadline=None, database=None)
    @given(real_profile_and_energy())
    def test_closed_form_matches_quad(self, case):
        prof, e = case
        assert dwell_time(prof, e) == pytest.approx(quad_dwell(prof, e), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "kind, k, d",
        [
            ("lin", 4e-6, 1.2),
            ("lin", 4e-6j, 1.2),
            ("lin", 8e-3, 1.2),  # |k| d just below the block's cutoff of 1e-2
            ("lin", 8e-3j, 1.2),
            ("pw", 0.05, 1.5),  # D from its series
            ("pw", 0.05j, 1.5),
            ("pw", 2.3, 1.5),
            ("pw", 2.3j, 1.5),
            ("pw", 9.9j, 80.0),
        ],
    )
    def test_segment_integral_matches_mpmath(self, kind, k, d):
        a, b = 0.7 - 1.1j, -0.4 + 0.9j
        wave = scatter._SegmentWave(kind, complex(k), 0.0, d, a, b)
        with mpmath.workdps(30):
            kk, aa, bb = mpmath.mpc(k), mpmath.mpc(a), mpmath.mpc(b)
            if kind == "lin":
                def psi(u):
                    return aa * mpmath.cos(kk * u) + bb * mpmath.sin(kk * u) / kk
            else:
                def psi(u):
                    return aa * mpmath.exp(1j * kk * u) + bb * mpmath.exp(1j * kk * (d - u))
            exact = mpmath.quad(lambda u: abs(psi(u)) ** 2, [0, 0.5, d / 2, d - 0.5, d])
        assert timescales._density_integral(wave) == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    def test_opaque_barrier_does_not_overflow(self):
        # kappa d = sqrt(98) * 80 ~ 792: sinh(kappa d) overflows, so the
        # evanescent integral must be taken in decaying exponentials only.
        prof = PotentialProfile(
            segments=(Segment(1.0, 0.5), Segment(80.0, 100.0), Segment(1.0, 0.5)),
            clock_region=(1, 1),
        )
        tau = dwell_time(prof, 2.0)
        assert tau == pytest.approx(1.0901375069857e-3, rel=1e-12, abs=0.0)
        assert tau == pytest.approx(quad_dwell(prof, 2.0, (1, 1)), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("channel", ["transmission", "reflection"])
    def test_thin_clock_segment_is_timed_by_every_clock(self, channel):
        # |k| d is 1e-3 to 3e-3 on the clock segment, so solve takes its k ~ 0
        # block; the sojourn's dressed folds keep plane waves above a barrier
        # top, so no clock refuses it.
        prof = PotentialProfile((Segment(1.0, 2.0), Segment(1e-3, 1.0), Segment(0.5, 3.0)),
                                clock_region=(1, 1))
        for e in (0.5, 2.5, 9.0):
            report = full_report(prof, e, channel=channel)
            assert report.reasons == {}
            assert report.entries["dwell"] == pytest.approx(quad_dwell(prof, e, (1, 1)), rel=1e-10)

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
        # conjugate directions (real vs imaginary shift of k^2), so they agree,
        # on a real clock region and, by analyticity, on one that absorbs or
        # amplifies: there both shifts start from the region's own V_I.
        for _ in range(10):
            real = random_real_profile(rng, clock_region=True)
            e = safe_energy(rng, real)
            complex_region = PotentialProfile(
                tuple(replace(seg, v_imag=float(rng.uniform(-1.0, 1.0)))
                      if j in real.clock_indices() else seg
                      for j, seg in enumerate(real.segments)),
                real.clock_region,
            )
            for prof in (real, complex_region):
                tau_y, _ = larmor_times(prof, e)
                tau_i = imag_clock_time(prof, e)
                assert tau_y == pytest.approx(abs(tau_i), rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("v_imag, expected", [(0.3, 0.3629728427), (-0.3, 0.4215851197)])
    def test_imag_clock_times_a_complex_region_at_its_own_v_imag(self, v_imag, expected):
        # An absorbing (or amplifying) region is timed as it stands: the probe
        # absorption adds to the segment's v_imag.  The reference is a
        # Richardson central difference of the public solve over that V_I.
        prof = PotentialProfile((Segment(1.0, 0.5, v_imag=v_imag),), (0, 0))
        reference = absorption_difference(prof, 2.0, 1e-3)
        assert reference == pytest.approx(expected, rel=1e-9)
        assert imag_clock_time(prof, 2.0) == pytest.approx(reference, rel=1e-10)

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
            return spin_expectations(*spin_pair(set_clock(prof, omega_larmor=omega), e, channel))

        h = 1e-6
        (sy_p, sz_p), (sy_m, sz_m) = spin(h), spin(-h)
        tau_y, tau_z = larmor_times(prof, e, channel=channel)
        assert tau_y == pytest.approx(abs(2.0 * (sy_p - sy_m) / (2.0 * h)), rel=1e-7)
        assert tau_z == pytest.approx(2.0 * (sz_p - sz_m) / (2.0 * h), rel=1e-7)

    @pytest.mark.parametrize("channel", ["transmission", "reflection"])
    @pytest.mark.parametrize("omega", [0.2, 1.0])
    @pytest.mark.parametrize("e", [1.0, 3.0])
    def test_larmor_at_the_clock_segments_own_field(self, channel, omega, e):
        # A field on a clock segment is where the derivative is taken, as the
        # imaginary clock is taken at the region's own V_I: compare with a
        # fine difference of direct spinor solves with every clock segment's
        # field moved by +-h about its own value.  The profile is the
        # timescale scenario's, whose second clock segment carries the field.
        prof = PotentialProfile(
            segments=(Segment(1.0, 2.0, v_imag=0.1), Segment(0.5, -1.0, omega_larmor=omega)),
            clock_region=(0, 1), v_left=0.0, v_right=-0.5,
        )

        def spin(h):
            moved = tuple(replace(seg, omega_larmor=seg.omega_larmor + h) for seg in prof.segments)
            return spin_expectations(*spin_pair(replace(prof, segments=moved), e, channel))

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
    def test_dressed_amplitude_reduces_to_bare(self, rng, monkeypatch):
        # Every sojourn ladder's probe dresses with xi = 0 to the bare
        # amplitude.  A log ladder folds no centre, so its probe is
        # evaluated at xi = 0 here; a phase ladder's folded centre is that
        # value.
        ladders = recording_probes(monkeypatch)
        for _ in range(10):
            prof = random_real_profile(rng, clock_region=True)
            e = safe_energy(rng, prof)
            del ladders[:]
            try:
                sojourn_transmission(prof, e)
            except (LogSingularityError, StepSizeError):
                pass
            assert ladders
            for probes in ladders:
                centre = probes.probe(0.0)
                assert centre == pytest.approx(solve(prof, e).t_local, rel=1e-12)
                assert [amp for s, amp in probes if s == 0.0] in ([], [centre])

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
        # The paper's identity: the Larmor clock with the paired variable
        # xi = omega_L L gives the imaginary-potential sojourn time.
        for _ in range(10):
            prof = random_real_profile(rng, max_segments=3, clock_region=True)
            lo = prof.clock_region[0]
            prof = PotentialProfile(segments=prof.segments, clock_region=(lo, lo))
            e = safe_energy(rng, prof)
            direct = sojourn_transmission(prof, e)
            seg = prof.segments[lo]
            h = 1e-5 * max(e, abs(seg.v_real - e)) * seg.length
            paired = larmor_paired_sojourn(prof, e, h)
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

    @pytest.mark.parametrize("v_imag", [1e2, 1e6, 1e10, -1e2])
    def test_region_must_be_real(self, v_imag):
        # The dressing is defined on a real potential: a clock region that
        # absorbs or amplifies is refused by name, where bl still reads the
        # crossing time L/(2k) and the imaginary clock times the region at its
        # own V_I.
        prof = PotentialProfile((Segment(1e-6, 0.0, v_imag=v_imag),), (0, 0))
        kind = "absorptive" if v_imag > 0 else "amplifying"
        for clock in (sojourn_transmission, sojourn_reflection, dwell_time):
            with pytest.raises(ValidationError, match=f"segment 0 is {kind}"):
                clock(prof, 1.0)
        rep = full_report(prof, 1.0)
        assert rep.reasons["sojourn"].startswith("ValidationError: ")
        assert "sojourn" not in rep.entries
        assert rep.entries["bl"] == pytest.approx(5e-7, rel=1e-12)
        # The reference is a central difference of the public solve over the
        # segment's own V_I.  ln|T|^2 moves by only ~1e-6 per unit of V_I
        # here, so rounding limits the difference to ~1e-8 relative at
        # |V_I| = 1e2; the tolerance is rel 1e-7.
        reference = absorption_difference(prof, 1.0, 1e-3 * abs(v_imag))
        assert rep.entries["imag_clock"] == pytest.approx(reference, rel=1e-7)

    def test_thin_real_region_reads_crossing_time(self):
        prof = PotentialProfile((Segment(1e-6, 0.0),), (0, 0))
        assert full_report(prof, 1.0).entries["sojourn"] == pytest.approx(5e-7, rel=1e-6)

    def test_reflection_requires_contiguous_region(self):
        prof = PotentialProfile(
            segments=(Segment(1.0, 1.0), Segment(1.0, 0.0), Segment(1.0, 1.0)),
        )
        # Two disjoint pieces are fine for transmission but rejected for the
        # reflection channel (prompt reflection is only defined at one entry).
        assert math.isfinite(sojourn_transmission(prof, 3.0, regions=[(0, 0), (2, 2)]))
        with pytest.raises(ValidationError):
            sojourn_reflection(prof, 3.0, region=[(0, 0), (2, 2)])


# Every finite float, with moderate values drawn as often as the extremes.
ANY_FINITE = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))
ANY_LENGTH = st.one_of(st.floats(0.01, 5.0),
                       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@st.composite
def constructible_profiles(draw):
    """Any profile that constructs: up to 4 segments with every field any
    float the type accepts, any in-range clock region or none, any leads."""
    segments = draw(st.lists(st.builds(Segment, ANY_LENGTH, ANY_FINITE, ANY_FINITE, ANY_FINITE),
                             max_size=4))
    region = None
    if segments and draw(st.booleans()):
        lo = draw(st.integers(0, len(segments) - 1))
        region = (lo, draw(st.integers(lo, len(segments) - 1)))
    return PotentialProfile(tuple(segments), region, draw(ANY_FINITE), draw(ANY_FINITE))


def _one_segment(length, v_real=0.0, region=(0, 0), leads=(0.0, 0.0)):
    return PotentialProfile((Segment(length, v_real),), region, *leads)


class TestFullReport:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(profile=constructible_profiles(),
           E=st.one_of(st.floats(-1.0, 20.0), st.floats()),
           channel=st.sampled_from(["transmission", "reflection"]))
    # Each example exercises one refusal that keeps the report total; at
    # the parent each ended in a raw float error or a non-finite entry.
    # A NaN E (bl was NaN)
    @example(make_rectangular_barrier(2.0, 1.0), math.nan, "transmission")
    # bl beyond float range
    @example(_one_segment(1.7e308, 1.0), 1.01, "transmission")
    # dwell beyond float range
    @example(_one_segment(2.2730697889164928e302, region=None), 3.9970025796044184e-13,
             "transmission")
    # exp(i k d) with k d = inf in the fold
    @example(_one_segment(2.2730697889155015e302), 619275938771.0, "transmission")
    # exp(2 i k L) beyond float range in partial_waves
    @example(_one_segment(8.98846567431158e307), 1.0, "reflection")
    # the exit phase exp(-i k_R X) with k_R X = inf
    @example(_one_segment(7.339051490861633e307, region=None, leads=(-1.0, -6.0)), 0.0,
             "transmission")
    # d**3 beyond float range in the dwell integral of a k = 0 segment
    @example(_one_segment(5.6e102, region=None, leads=(-1.0, -1.0)), 0.0, "transmission")
    # a probe step h that underflows to 0
    @example(_one_segment(5e-324, -1.0, leads=(-1.0, -1.0)), 0.0, "transmission")
    # 2 k L underflowing to 0 in the sojourn dressing
    @example(PotentialProfile((Segment(1.0, 0.0), Segment(5e-324, 0.0)), (0, 1)), 0.0625,
             "transmission")
    # |a|^2 beyond float range for a spinor amplitude, and for a dressed
    # amplitude, past an absorber 5e-324 long
    @example(PotentialProfile((Segment(5e-324, 0.0, 2.0483336071938364e46),), (0, 0)), 1.0,
             "transmission")
    @example(PotentialProfile((Segment(5e-324, 0.0, 1e47), Segment(1.0, 0.0)), (1, 1)), 1.0,
             "transmission")
    def test_report_is_total(self, profile, E, channel):
        try:
            rep = full_report(profile, E, channel)
        except ValidationError:
            return
        assert all(math.isfinite(v) for v in rep.entries.values()), rep

    @pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_is_refused_by_every_clock(self, E):
        rep = full_report(make_rectangular_barrier(2.0, 1.0), E)
        assert rep.entries == {}
        assert set(rep.reasons) == {"wigner", "dwell", "bl", "larmor", "imag_clock", "sojourn"}
        assert all(why.startswith("ValidationError: E must be finite") for why in rep.reasons.values())

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
        assert rep.diagnostics == {"larmor_y": {"raw_derivative_sign": -1.0}}

    def test_barrier_top_failures_are_reason_coded(self):
        rep = full_report(make_rectangular_barrier(4.0, 1.0), 4.0)
        assert "bl" in rep.reasons
        assert "sojourn" in rep.reasons
        assert "bl" not in rep.entries
        assert math.isfinite(rep.entries["wigner"])

    def test_divergent_resummation_is_reason_coded(self):
        # The gain segment lies left of the clock region, which the sojourn
        # requires to be real: r21 off the gain makes the region's round
        # trip |r21 r23 e^(2ik'L)| exceed 1.
        prof = PotentialProfile(
            segments=(Segment(1.0, 0.0), Segment(1.0, 2.0, v_imag=-1.5), Segment(1.0, 0.0),
                      Segment(1.0, 2.0)),
            clock_region=(2, 2),
        )
        rep = full_report(prof, 0.3, "reflection")
        assert rep.reasons["sojourn"].startswith("ResummationDivergenceError: ")
        assert "sojourn" not in rep.entries
        assert math.isfinite(rep.entries["wigner"])

    @pytest.mark.parametrize(
        "E, channel, folds",
        [(2.0, "transmission", 28), (2.0, "reflection", 30),
         (6.0, "transmission", 27), (6.0, "reflection", 29)],
    )
    def test_fold_count_per_energy(self, monkeypatch, E, channel, folds):
        # One fold per distinct probe: wigner 7 + larmor 6 (its 6 spin
        # pairs need the shifts +-h/2, +-h/4, +-h/8 of one field-free chain,
        # each folded once) + imag_clock 6 + sojourn 7 under the barrier (its
        # phase ladder folds the centre) or 6 above it (its log ladder does
        # not); the dwell time's two recorded folds; and the two stacks of
        # the prompt-reflection partial_waves call in the reflection channel.
        # No probe goes through a public solve or builds a profile, a
        # segment or a solution.
        barrier = make_rectangular_barrier(4.0, 1.0)
        counts = dict.fromkeys(("_fold", "PotentialProfile", "Segment", "ScatteringSolution"), 0)

        def counting(name, original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        def forbidden(*args, **kwargs):
            raise AssertionError("a clock went through the public clocked-solve path")

        monkeypatch.setattr(scatter, "_fold", counting("_fold", scatter._fold))
        monkeypatch.setattr(scatter, "ScatteringSolution",
                            counting("ScatteringSolution", scatter.ScatteringSolution))
        for cls in (PotentialProfile, Segment):
            monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
        monkeypatch.setattr(scatter, "solve_with_propagation_override", forbidden)
        rep = full_report(barrier, E, channel=channel)
        assert rep.reasons == {}
        assert counts == {
            "_fold": folds,
            # the reflection sojourn hands the profile itself to partial_waves
            "PotentialProfile": 0,
            "Segment": 0,
            # the dwell time builds its interior waves from a chain
            "ScatteringSolution": 0,
        }

    @pytest.mark.parametrize("channel, chains", [("transmission", 11), ("reflection", 12)])
    def test_chain_count_per_energy(self, monkeypatch, channel, chains):
        # One _Chain per Wigner probe (7, each at its own energy), and one
        # each for the dwell time, the field-free spin pair of the Larmor
        # clock, the imaginary clock and the sojourn; the reflection
        # channel's partial_waves prepares one more.
        built = []
        original = scatter._Chain.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(scatter._Chain, "__init__", counted)
        barrier = make_rectangular_barrier(4.0, 1.0)
        for E in (2.0, 6.0):
            del built[:]
            rep = full_report(barrier, E, channel=channel)
            assert rep.reasons == {}
            assert len(built) == chains

    @pytest.mark.parametrize("channel, builds", [("transmission", 1), ("reflection", 1)])
    def test_prefix_chain_builds_per_energy(self, chain_builds, channel, builds):
        # Only the dwell time reads interior waves; every other solve, and
        # the reflection channel's prompt-reflection partial_waves, reads its
        # amplitudes off one fold and builds none.
        for e in (0.7, 3.0, 7.5):
            del chain_builds[:]
            rep = full_report(STACK, e, channel=channel)
            assert rep.reasons == {}
            assert len(chain_builds) == builds

    def test_reflection_channel_report(self):
        rep = full_report(make_rectangular_barrier(4.0, 1.0), 2.0, channel="reflection")
        assert rep.channel == "reflection"
        assert math.isfinite(rep.entries["sojourn"])


def public_probes(profile, E, channel):
    """Each clock's probe amplitude at clock strength s, through the public
    solves of the clocked profile: (clock, [amplitude of s, one per ladder])."""
    segs = list(profile.clock_indices())
    try:
        regimes = {timescales._regime(profile, E, j) for j in segs}
    except RegimeAmbiguityError:
        regimes = set()  # the sojourn clocks raise before their first probe

    def wigner(s):
        if E + s <= max(profile.v_left, profile.v_right):
            raise ValidationError("probe below a lead")
        sol = solve(profile, E + s)
        return sol.t_local if channel == "transmission" else sol.r

    def imag(s):
        sol = solve(add_clock_absorption(profile, s), E)
        return sol.t if channel == "transmission" else sol.r

    def larmor(s):
        return spin_pair(set_clock(profile, omega_larmor=s), E, channel)

    def sojourn(active):
        L = sum(profile.segments[j].length for j in active)

        def amplitude(xi):
            override = {j: dressed_wavevector(profile, E, j, xi * profile.segments[j].length / L)
                        for j in active}
            sol = scatter.solve_with_propagation_override(profile, E, override)
            if channel == "reflection":
                return sol.r - scatter.partial_waves(profile, E).r12
            return sol.t_local

        return amplitude

    branches = [segs] if len(regimes) == 1 else [[j] for j in segs]
    return [
        (lambda: wigner_delay(profile, E, channel), [wigner]),
        (lambda: imag_clock_time(profile, E, channel), [imag]),
        (lambda: larmor_times(profile, E, channel), [larmor]),
        (lambda: timescales._sojourn_detailed(profile, E, None, channel),
         [sojourn(active) for active in branches]),
    ]


@st.composite
def probe_problems(draw):
    """A clocked profile of 1-4 segments with absorption, gain, a Zeeman field
    outside the clock region, unequal leads and k ~ 0 runs (segments at or
    within 1e-12 of E), an energy above both leads, and a channel."""
    E = draw(st.floats(0.3, 6.0))
    n = draw(st.integers(1, 4))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    segments = []
    for j in range(n):
        length = draw(st.floats(0.1, 3.0))
        kind = draw(st.sampled_from(["real", "absorbing", "gain", "flat", "near-flat"]))
        if kind == "flat":
            segments.append(Segment(length, E))
            continue
        if kind == "near-flat":
            segments.append(Segment(length, E + draw(st.sampled_from([-1e-12, 1e-12]))))
            continue
        v_imag = 0.0
        if kind == "absorbing":
            v_imag = draw(st.floats(0.01, 1.0))
        elif kind == "gain":
            v_imag = draw(st.floats(-2.0, -0.01))
        omega = 0.0
        if not lo <= j <= hi and draw(st.booleans()):
            omega = draw(st.floats(-1.0, 1.0))
        segments.append(Segment(length, draw(st.floats(-2.0, 6.0)), v_imag, omega))
    # A lead within 0.05 of E puts the widest Wigner probes below it.
    leads = [draw(st.one_of(st.floats(-1.0, E - 0.05), st.floats(E - 0.05, E - 1e-3)))
             for _ in range(2)]
    profile = PotentialProfile(tuple(segments), (lo, hi), *leads)
    return profile, E, draw(st.sampled_from(["transmission", "reflection"]))


class TestProbeParity:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(problem=probe_problems())
    def test_probe_amplitudes_equal_public_solves(self, problem):
        # Every probe's amplitude is the public solve's amplitude of the
        # clocked profile, to the bit, and a probe raises where that solve
        # raises, with the same exception type.  A ladder stops only at a
        # probe that raised; otherwise it records all its probes, the Larmor
        # clock's -omega pairs (folded once per distinct shift) included.
        profile, E, channel = problem
        for clock, public in public_probes(profile, E, channel):
            with pytest.MonkeyPatch.context() as mp:
                ladders = recording_probes(mp)
                try:
                    clock()
                    raised = None
                except Exception as exc:
                    raised = type(exc)
            assert len(ladders) <= len(public)
            for probes, amplitude in zip(ladders, public):
                assert len(probes[-1]) == 1 or len(probes) in (6, 7)
                for probe in probes:
                    if len(probe) == 2:
                        assert amplitude(probe[0]) == probe[1]
                    else:
                        with pytest.raises(raised):
                            amplitude(probe[0])


BARRIER = make_rectangular_barrier(2.0, 1.0)


@pytest.mark.parametrize("channel", ["transmision", "Transmission", "", None])
@pytest.mark.parametrize(
    "clock", [full_report, wigner_delay, larmor_times, imag_clock_time],
    ids=lambda f: f.__name__,
)
def test_unknown_channel_rejected(clock, channel):
    # A misspelt channel must not fall through to either amplitude.
    with pytest.raises(ValidationError, match=repr(channel)):
        clock(BARRIER, 1.5, channel)


class TestRegions:
    """Every clock that takes a region reads it through one parser."""

    @pytest.mark.parametrize("region", [(0, 1), (0, 3), (1, 0), (-1, 0), (0, -1)])
    @pytest.mark.parametrize("clock", [dwell_time, bl_time, sojourn_transmission,
                                       sojourn_reflection], ids=lambda f: f.__name__)
    def test_out_of_range_or_reversed_rejected(self, clock, region):
        with pytest.raises(ValidationError, match="out of range"):
            clock(BARRIER, 1.5, region)

    @pytest.mark.parametrize("region", [[0, 0], (np.int64(0), np.int64(0)), np.array([0, 0]),
                                        [(0, 0)], ((0, 0),)])
    @pytest.mark.parametrize("clock", [dwell_time, bl_time, sojourn_transmission,
                                       sojourn_reflection], ids=lambda f: f.__name__)
    def test_any_integer_pair_is_one_region(self, clock, region):
        assert clock(BARRIER, 1.5, region) == clock(BARRIER, 1.5, (0, 0))

    @pytest.mark.parametrize("region", ["ab", (0.0, 0.0), (True, False), [], [(0, 0), 1], 3,
                                        ((0, 0, 0),)])
    @pytest.mark.parametrize("clock", [dwell_time, bl_time, sojourn_transmission,
                                       sojourn_reflection], ids=lambda f: f.__name__)
    def test_non_pair_is_named(self, clock, region):
        with pytest.raises(ValidationError, match="neither a"):
            clock(BARRIER, 1.5, region)

    @pytest.mark.parametrize("clock", [dwell_time, bl_time], ids=lambda f: f.__name__)
    def test_dwell_and_bl_take_one_pair(self, clock):
        prof = PotentialProfile(
            segments=(Segment(1.0, 1.0), Segment(1.0, 0.0), Segment(1.0, 1.0)),
        )
        with pytest.raises(ValidationError, match="single contiguous region"):
            clock(prof, 3.0, [(0, 0), (2, 2)])

    def test_dwell_defaults_to_whole_unmarked_profile(self):
        prof = PotentialProfile(segments=(Segment(1.0, 1.0), Segment(1.0, 0.0)))
        assert dwell_time(prof, 3.0) == dwell_time(prof, 3.0, (0, 1))
        assert dwell_time(PotentialProfile(segments=()), 3.0) == 0.0


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
            override = {0: dressed_wavevector(self.PROF, self.E, 0, xi)}
            sol = scatter.solve_with_propagation_override(self.PROF, self.E, override)
            return math.log(abs(sol.t) ** 2)

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


class TestHighEnergyLadderDefect:
    """At high energy the largest probe moves the phase by ~1e-2 sqrt(E) L,
    which aliases, so the ladder misreads wigner and larmor_y with no reason
    code (ROADMAP item 3)."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the probe step grows with E, so the unwrapped "
        "phase aliases at high energy; exact derivatives through the chain fix it",
    )
    def test_clocks_agree_with_dwell(self):
        barrier = make_rectangular_barrier(2.0, 1.0)
        misread = {}
        for e in (1e6, 1e8):
            rep = full_report(barrier, e)
            for label in ("wigner", "larmor_y"):
                value = rep.entries.get(label)
                if value is None or value != pytest.approx(rep.entries["dwell"], rel=1e-3):
                    misread[e, label] = value if value is not None else rep.reasons
        assert misread == {}
