import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavetime import em_pulse
from wavetime.em_pulse import (
    MediumKind,
    MediumSpec,
    PulseSpec,
    centroid_time,
    delay_decomposition,
    detector_absorption_time,
    group_wavevector_derivative,
    permittivity,
    propagate,
    refractive_index,
    to_spectrum,
    to_time,
)
from wavetime.errors import GridError, ValidationError, ZeroFluxError

PULSE = PulseSpec(carrier=10.0, duration=2.0, center=30.0, n_samples=4096, span=120.0)
VACUUM = MediumSpec(kind=MediumKind.VACUUM, thickness=5.0)
LORENTZ = MediumSpec(
    kind=MediumKind.LORENTZ, thickness=5.0, resonance=20.0, plasma_strength=5.0, damping=0.1
)
PLASMA = MediumSpec(kind=MediumKind.PLASMA, thickness=2.0, plasma_strength=8.0, damping=0.05)


class TestSpecs:
    def test_pulse_rejects_undersampled_grid(self):
        with pytest.raises(ValidationError):
            PulseSpec(carrier=100.0, duration=2.0, center=30.0, n_samples=64, span=120.0)

    def test_pulse_rejects_short_window(self):
        with pytest.raises(ValidationError):
            PulseSpec(carrier=10.0, duration=2.0, center=5.0, n_samples=4096, span=10.0)

    def test_pulse_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            PulseSpec(carrier=10.0, duration=2.0, center=30.0, n_samples=1000, span=120.0)

    def test_medium_rejects_negative_damping(self):
        with pytest.raises(ValidationError):
            MediumSpec(kind=MediumKind.VACUUM, thickness=1.0, damping=-0.1)

    @pytest.mark.parametrize("field", ["thickness", "resonance", "plasma_strength", "damping"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_medium_rejects_non_finite_field(self, field, value):
        # nan < 0 is false, so a NaN damping or plasma strength and an
        # infinite thickness passed the sign checks.
        with pytest.raises(ValidationError, match=f"^{field}: must be a finite real number"):
            replace(LORENTZ, **{field: value})

    @pytest.mark.parametrize(
        "field, value, why",
        [("carrier", True, "a finite real number"), ("center", False, "a finite real number"),
         ("n_samples", 4096.5, "an integer"), ("n_samples", True, "a finite real number"),
         ("span", math.nan, "a finite real number"), ("duration", math.inf, "a finite real number")],
    )
    def test_pulse_rejects_malformed_field(self, field, value, why):
        with pytest.raises(ValidationError, match=f"^{field}: must be {why}"):
            replace(PULSE, **{field: value})

    @pytest.mark.parametrize(
        "field, value, why",
        [("damping", False, "must be a finite real number"),
         ("thickness", True, "must be a finite real number"),
         ("plasma_strength", math.nan, "must be a finite real number"),
         ("kind", "lorentz", "expected a MediumKind")],
    )
    def test_medium_rejects_malformed_field(self, field, value, why):
        with pytest.raises(ValidationError, match=f"^{field}: {why}"):
            replace(LORENTZ, **{field: value})

    def test_integral_sample_count_is_stored_as_an_int(self):
        pulse = replace(PULSE, n_samples=4096.0, carrier=10)
        assert type(pulse.n_samples) is int and pulse.n_samples == 4096
        assert type(pulse.carrier) is float

    def test_lorentz_needs_resonance(self):
        with pytest.raises(ValidationError):
            MediumSpec(kind=MediumKind.LORENTZ, thickness=1.0, plasma_strength=1.0)


class TestDispersion:
    def test_vacuum_is_unity(self):
        w = np.linspace(0.1, 50.0, 7)
        assert np.allclose(permittivity(VACUUM, w), 1.0)
        assert np.allclose(refractive_index(VACUUM, w), 1.0)

    def test_lorentz_static_enhancement(self):
        eps = permittivity(LORENTZ, 1e-6)
        assert eps.real == pytest.approx(1.0 + (5.0 / 20.0) ** 2, rel=1e-6)

    def test_plasma_below_cutoff_is_evanescent(self):
        medium = MediumSpec(kind=MediumKind.PLASMA, thickness=1.0, plasma_strength=15.0)
        n = refractive_index(medium, 10.0)
        assert n.real == pytest.approx(0.0, abs=1e-12)
        assert n.imag == pytest.approx(math.sqrt(1.0 - (10.0 / 15.0) ** 2) * 1.5, rel=1e-6)

    def test_absorption_branch(self):
        n = refractive_index(LORENTZ, 20.0)  # on resonance
        assert n.imag > 0

    # omega = 10 lies above the plasma's cutoff at omega_p = 8.
    @pytest.mark.parametrize("medium", [LORENTZ, PLASMA, VACUUM], ids=["lorentz", "plasma", "vacuum"])
    def test_group_derivative_matches_finite_difference(self, medium):
        w, h = 10.0, 1e-6
        fd = (refractive_index(medium, w + h) * (w + h)
              - refractive_index(medium, w - h) * (w - h)) / (2 * h)
        assert group_wavevector_derivative(medium, w) == pytest.approx(fd, rel=1e-6)

    def test_damped_plasma_is_drude(self):
        # A plasma is the Lorentz resonance at zero frequency, which is the
        # Drude form, whatever its (ignored) resonance field holds; the grid
        # spans the cutoff at omega_p = 8.
        w = np.linspace(0.5, 20.0, 40)
        drude = 1.0 - 8.0**2 / (w**2 + 1j * 0.05 * w)
        for medium in (PLASMA, replace(PLASMA, resonance=20.0)):
            assert np.allclose(permittivity(medium, w), drude, rtol=1e-14, atol=0.0)


class TestTransforms:
    @pytest.mark.parametrize("kind", ["pulse", "random"])
    def test_match_numpy_definitions(self, kind):
        # E~ = dt N ifft(E) and E = fft(E~) / (dt N), the scale folded in.
        if kind == "pulse":
            x = PULSE.field()
        else:
            rng = np.random.default_rng(7)
            x = rng.normal(size=PULSE.n_samples) + 1j * rng.normal(size=PULSE.n_samples)
        dt = PULSE.span / PULSE.n_samples
        spec = dt * PULSE.n_samples * np.fft.ifft(x)
        assert np.max(np.abs(to_spectrum(x, PULSE) - spec)) <= 1e-14 * np.max(np.abs(spec))
        field = np.fft.fft(x) / (dt * PULSE.n_samples)
        assert np.max(np.abs(to_time(x, PULSE) - field)) <= 1e-14 * np.max(np.abs(field))

    def test_round_trip(self):
        field = PULSE.field()
        assert np.max(np.abs(to_time(to_spectrum(field, PULSE), PULSE) - field)) < 1e-12

    def test_parseval(self):
        field = PULSE.field()
        spec = to_spectrum(field, PULSE)
        dt = PULSE.span / PULSE.n_samples
        dw = 2 * np.pi / PULSE.span
        e_t = float(np.sum(np.abs(field) ** 2) * dt)
        e_w = float(np.sum(np.abs(spec) ** 2) * dw / (2 * np.pi))
        assert abs(e_t - e_w) / e_t < 1e-10

    def test_parseval_after_propagation(self):
        _, exit_ = propagate(PULSE, LORENTZ)
        spec = to_spectrum(exit_.e, PULSE)
        dt = PULSE.span / PULSE.n_samples
        dw = 2 * np.pi / PULSE.span
        e_t = float(np.sum(np.abs(exit_.e) ** 2) * dt)
        e_w = float(np.sum(np.abs(spec) ** 2) * dw / (2 * np.pi))
        assert abs(e_t - e_w) / e_t < 1e-10


class TestPropagation:
    def test_vacuum_translates_exactly(self):
        dt = PULSE.span / PULSE.n_samples
        slab = MediumSpec(kind=MediumKind.VACUUM, thickness=512 * dt)  # grid-aligned
        entry, exit_ = propagate(PULSE, slab)
        assert np.max(np.abs(np.roll(entry.e, 512) - exit_.e)) < 1e-10

    def test_absorption_reduces_energy(self):
        entry, exit_ = propagate(PULSE, LORENTZ)
        assert np.sum(exit_.poynting()) < np.sum(entry.poynting())

    def test_pulse_at_window_edge_raises(self):
        bad = PulseSpec(carrier=10.0, duration=2.0, center=2.0, n_samples=4096, span=120.0)
        with pytest.raises(GridError):
            propagate(bad, VACUUM)


class TestCentroid:
    def test_symmetric_pulse_centroid_is_center(self):
        entry, _ = propagate(PULSE, VACUUM)
        assert centroid_time(entry) == pytest.approx(PULSE.center, abs=1e-9)

    def test_vacuum_transit_is_thickness(self):
        entry, exit_ = propagate(PULSE, VACUUM)
        assert centroid_time(exit_) - centroid_time(entry) == pytest.approx(
            VACUUM.thickness, abs=1e-9
        )

    def test_absorptive_slab_still_well_defined(self):
        _, exit_ = propagate(PULSE, LORENTZ)
        assert math.isfinite(centroid_time(exit_))

    def test_lossless_slab_under_its_cutoff_has_no_flux(self):
        # |sum S| / sum |S| is 1.3e-16 at both planes (1.0 for a propagating
        # spectrum); the absolute 1e-300 test gave centroids of -1.38e16 and
        # +1.32e16 where delay_decomposition raises.
        medium = MediumSpec(kind=MediumKind.PLASMA, thickness=0.5, plasma_strength=15.0)
        for plane in propagate(PULSE, medium):
            with pytest.raises(ZeroFluxError):
                centroid_time(plane)


class TestDecomposition:
    def test_vacuum_budget(self):
        rep = delay_decomposition(PULSE, VACUUM)
        assert rep.delta_t == pytest.approx(5.0, abs=1e-9)
        assert rep.delta_t_group == pytest.approx(5.0, abs=1e-9)
        assert rep.delta_t_reshape == pytest.approx(0.0, abs=1e-9)
        assert rep.residual_ok

    def test_identity_for_propagating_lorentz(self):
        rep = delay_decomposition(PULSE, LORENTZ)
        assert rep.residual_ok
        assert abs(rep.residual) / max(abs(rep.delta_t), 2e-3) < 1e-6

    def test_narrowband_is_group_dominated(self):
        narrow = PulseSpec(carrier=10.0, duration=4.0, center=60.0, n_samples=8192, span=240.0)
        rep = delay_decomposition(narrow, LORENTZ)
        assert abs(rep.delta_t_reshape / rep.delta_t) < 1e-3
        pred = group_wavevector_derivative(LORENTZ, 10.0).real * LORENTZ.thickness
        assert rep.delta_t == pytest.approx(pred, rel=1e-3)

    def test_anomalous_dispersion_reshaping_compensates(self):
        # Carrier parked on the resonance: steep anomalous dispersion gives a
        # negative net group delay; the reshaping delay is positive and pulls
        # the total back toward (but, for an on-resonance absorber, not all
        # the way to) the luminal side.  The identity still holds exactly.
        pulse = PulseSpec(carrier=20.0, duration=1.0, center=60.0, n_samples=16384, span=240.0)
        medium = MediumSpec(
            kind=MediumKind.LORENTZ, thickness=0.1, resonance=20.0,
            plasma_strength=5.0, damping=2.0,
        )
        rep = delay_decomposition(pulse, medium)
        assert rep.delta_t_group < 0
        assert rep.delta_t_reshape > 0
        assert rep.delta_t > rep.delta_t_group
        assert rep.residual_ok

    def test_plasma_evanescent_regime_is_flagged(self):
        # The carrier lies under the cutoff; the damping gives n a real part
        # there, so the evanescent spectrum still carries a net flux.
        medium = MediumSpec(kind=MediumKind.PLASMA, thickness=0.5, plasma_strength=15.0,
                            damping=2.0)
        rep = delay_decomposition(PULSE, medium)
        assert rep.evanescent_regime
        assert rep.residual_ok

    def test_lossless_slab_under_its_cutoff_has_no_flux(self):
        # Re n = 0 wherever the spectrum lives, so the net flux is rounding
        # noise: the sampled entry spectrum gave t_in = -7.8e30, delta_t =
        # 7.8e30 and residual_ok.
        medium = MediumSpec(kind=MediumKind.PLASMA, thickness=0.5, plasma_strength=15.0)
        with pytest.raises(ZeroFluxError):
            delay_decomposition(PULSE, medium)

    def test_fully_absorbed_exit_spectrum_is_zero_flux(self):
        # exp(-Im k L) underflows to zero on the whole band of a pulse whose
        # band leaves out omega = 0 (where k = 0 and nothing is absorbed), so
        # the exit spectrum is identically zero: refused before any moment.
        pulse = PulseSpec(carrier=10.0, duration=4.0, center=50.0, n_samples=2048, span=128.0)
        medium = MediumSpec(kind=MediumKind.LORENTZ, thickness=1e6, resonance=10.0,
                            plasma_strength=8.0, damping=1.0)
        with pytest.raises(ZeroFluxError, match="^exit spectrum is identically zero$"):
            delay_decomposition(pulse, medium)

    def test_cancelling_fluxes_cannot_widen_the_residual_tolerance(self):
        # Just above the cutoff of a lossless slab the entry flux nearly
        # cancels (1.1e-9 of the flux without cancellation): t_in = -1.43e8,
        # delta_t = 1.43e8 and residual 0.64.  Scaling the tolerance by
        # |delta_t| passed that as residual_ok.
        medium = MediumSpec(kind=MediumKind.PLASMA, thickness=0.5, plasma_strength=15.0)
        rep = delay_decomposition(replace(PULSE, carrier=13.0), medium)
        assert abs(rep.delta_t) > 1e6
        assert not rep.residual_ok

    @pytest.mark.parametrize("center, fits", [(2.0, False), (10.0, False), (11.0, True)])
    def test_entry_pulse_must_fit_its_window(self, center, fits):
        # |E|^2 at the first sample is exp(-(t0/T)^2): 1.4e-11 at t0 = 10,
        # 7.3e-14 at t0 = 11, against _EDGE_TOL = 1e-12.  The closed-form
        # entry spectrum is the sampled one only once the pulse fits.
        pulse = replace(PULSE, center=center)
        if not fits:
            with pytest.raises(GridError, match="entry pulse"):
                delay_decomposition(pulse, PLASMA)
        else:
            rep = delay_decomposition(pulse, VACUUM)
            assert rep.t_in == pytest.approx(center, abs=1e-9)
            assert rep.delta_t == pytest.approx(VACUUM.thickness, abs=1e-9)

    @pytest.mark.parametrize("center", [-30.0, 150.0])
    def test_entry_pulse_outside_its_window_raises(self, center):
        # Both edge samples are below _EDGE_TOL, but the window holds no pulse.
        with pytest.raises(GridError, match="entry pulse"):
            delay_decomposition(replace(PULSE, center=center), VACUUM)

    @settings(derandomize=True, deadline=None, database=None, max_examples=120)
    @given(carrier=st.floats(0.5, 40.0), duration=st.floats(0.3, 4.0),
           spans=st.floats(8.0, 60.0), place=st.floats(0.0, 1.0),
           log2n=st.integers(9, 13))
    def test_closed_form_entry_matches_sampled_dft(self, carrier, duration, spans, place, log2n):
        span = spans * duration
        try:
            pulse = PulseSpec(carrier=carrier, duration=duration, center=place * span,
                              n_samples=2**log2n, span=span)
            w = em_pulse._omegas(pulse.n_samples, pulse.span)
            spec_in, q_in = em_pulse._entry_spectrum(pulse, w)
        except (ValidationError, GridError):
            assume(False)
        field = pulse.field()
        spectrum = to_spectrum(field, pulse)
        moment = to_spectrum(pulse.times() * field, pulse)
        assert np.max(np.abs(spec_in - spectrum)) <= 1e-6 * np.max(np.abs(spectrum))
        assert np.max(np.abs(q_in - moment)) <= 1e-6 * np.max(np.abs(moment))

    @pytest.mark.parametrize("carrier, truncated", [(5.81, True), (12.0, False)])
    def test_window_truncation_is_flagged(self, carrier, truncated):
        # The pulse_dispersion benchmark grid.  Near the cutoff the exit field
        # has not decayed by the window's end and wraps around, so doubling
        # the span at equal dt moves delta_t; far above it nothing moves.
        pulse = PulseSpec(carrier=carrier, duration=2.0, center=60.0, n_samples=16384, span=200.0)
        rep = delay_decomposition(pulse, PLASMA)
        assert rep.window_truncated is truncated
        wide = delay_decomposition(replace(pulse, n_samples=32768, span=400.0), PLASMA)
        moved = abs(wide.delta_t - rep.delta_t)
        assert moved > 1e-3 if truncated else moved < 1e-12

    @pytest.mark.parametrize("medium", [VACUUM, LORENTZ, PLASMA], ids=["vacuum", "lorentz", "plasma"])
    def test_spectral_centroids_match_time_domain(self, medium, monkeypatch):
        # delay_decomposition takes its arrival times from spectral centroids;
        # propagate + centroid_time is the independent time-domain path that
        # keeps criterion 13's identity from checking itself, so it must not
        # share the kernel's cached slab factors.
        rep = delay_decomposition(PULSE, medium)

        def shared(*args):
            raise AssertionError("the time-domain path read the kernel's slab factors")

        monkeypatch.setattr(em_pulse, "_slab_factors", shared)
        entry, exit_ = propagate(PULSE, medium)
        assert rep.t_in == pytest.approx(centroid_time(entry), rel=1e-12)
        assert rep.t_out == pytest.approx(centroid_time(exit_), rel=1e-12)

    def test_each_row_transforms_four_times_and_sweep_disperses_once(self, monkeypatch,
                                                                     fft_lengths):
        # A row's spectra live on a band of the N-point grid, so it makes
        # exactly 4 numpy FFTs, each of the band's length m < N, and no
        # N-point transform; building the moment kernel takes one more.
        calls = []
        for name in ("to_spectrum", "to_time"):
            original = getattr(em_pulse, name)
            monkeypatch.setattr(
                em_pulse, name, lambda *args, _f=original: calls.append(_f) or _f(*args)
            )

        def sampled_entry(self):
            raise AssertionError("the kernel sampled the entry field")

        monkeypatch.setattr(PulseSpec, "field", sampled_entry)
        em_pulse._grid_dispersion.cache_clear()
        em_pulse._slab_factors.cache_clear()
        em_pulse._moment_kernel.cache_clear()
        carrier_rows = [(replace(PULSE, carrier=c), PLASMA) for c in (9.0, 10.0, 11.0)]
        for pulse, medium in carrier_rows:
            delay_decomposition(pulse, medium)
        assert em_pulse._slab_factors.cache_info().misses == 1
        thicknesses = (0.5, 1.0)
        for t in thicknesses:
            delay_decomposition(PULSE, replace(PLASMA, thickness=t))
        assert calls == []
        assert em_pulse._moment_kernel.cache_info().misses == 1
        assert len(fft_lengths) == 4 * (len(carrier_rows) + len(thicknesses)) + 1
        assert set(fft_lengths) == {PULSE.n_samples // 2}
        assert em_pulse._grid_dispersion.cache_info().misses == 1
        assert em_pulse._slab_factors.cache_info().misses == 1 + len(thicknesses)
        key = (PLASMA.kind, PLASMA.resonance, PLASMA.plasma_strength, PLASMA.damping,
               PULSE.n_samples, PULSE.span)
        for factor in em_pulse._slab_factors(*key, thicknesses[-1]):
            assert not factor.flags.writeable
        for factor in em_pulse._moment_kernel(PULSE.n_samples, PULSE.n_samples // 2):
            assert not factor.flags.writeable

    def test_luminal_total_for_propagating_spectra(self):
        for thickness in (0.5, 2.0, 5.0):
            medium = MediumSpec(
                kind=MediumKind.LORENTZ, thickness=thickness, resonance=20.0,
                plasma_strength=5.0, damping=0.1,
            )
            rep = delay_decomposition(PULSE, medium)
            assert rep.t_out >= rep.t_in


def reference_decomposition(pulse, medium):
    """delay_decomposition on the whole N-point grid: the exit and attenuated
    time moments by the round trip to_time, times t, to_spectrum, the window
    edges and peak read on every time sample, and the guards on the sampled
    spectra.  Returns the five times and two flags, or the error's type and
    message."""
    w = em_pulse._omegas(pulse.n_samples, pulse.span)
    n = em_pulse._on_grid(refractive_index, medium, w)
    kprime = em_pulse._on_grid(group_wavevector_derivative, medium, w)
    times = pulse.times()

    def centroid(spectrum, q):
        ns = n * spectrum
        return em_pulse._p_operator(spectrum, ns, np.vdot(ns, q).real)

    def time_moment(spectrum):
        field = to_time(spectrum, pulse)
        edge = max(abs(field[0]), abs(field[-1])) ** 2
        wraps = bool(edge > em_pulse._EDGE_TOL * float(np.max(np.abs(field))) ** 2)
        return to_spectrum(times * field, pulse), wraps

    try:
        spec_in, q_in = em_pulse._entry_spectrum(pulse, w)
        em_pulse._check_aliasing(spec_in, "entry spectrum")
        spec_out = spec_in * np.exp(1j * n * w * medium.thickness)
        em_pulse._check_aliasing(spec_out, "exit spectrum")
        spec_att = spec_in * np.exp(-np.imag(n * w) * medium.thickness)
        t_in = centroid(spec_in, q_in)
        q_out, out_wraps = time_moment(spec_out)
        t_out = centroid(spec_out, q_out)
        weight = np.real(n) * np.abs(spec_att) ** 2
        group = medium.thickness * np.sum(np.real(kprime) * weight) / np.sum(weight)
        q_att, att_wraps = time_moment(spec_att)
        reshape = centroid(spec_att, q_att) - t_in
    except (GridError, ZeroFluxError) as exc:
        return type(exc), str(exc)
    evanescent = False
    if medium.kind is MediumKind.PLASMA:
        below = np.abs(w) < medium.plasma_strength
        frac = np.sum(np.abs(spec_in[below]) ** 2) / np.sum(np.abs(spec_in) ** 2)
        evanescent = bool(frac > 1e-9)
    return {"t_in": t_in, "t_out": t_out, "delta_t": t_out - t_in, "delta_t_group": group,
            "delta_t_reshape": reshape, "evanescent_regime": evanescent,
            "window_truncated": out_wraps or att_wraps}


def band_decomposition(pulse, medium):
    try:
        return vars(delay_decomposition(pulse, medium))
    except (GridError, ZeroFluxError) as exc:
        return type(exc), str(exc)


def disagreements(band, reference):
    """The fields where the band kernel and the N-point reference differ.  An
    error must agree in type and message, which carries the leakage ratio."""
    if isinstance(band, tuple) or isinstance(reference, tuple):
        return [] if band == reference else ["error"]
    bad = [f for f in ("evanescent_regime", "window_truncated") if band[f] != reference[f]]
    return bad + [f for f in ("t_in", "t_out", "delta_t", "delta_t_group", "delta_t_reshape")
                  if not abs(band[f] - reference[f]) <= 1e-11 + 1e-11 * abs(reference[f])]


BENCHMARK_PULSE = PulseSpec(carrier=10.0, duration=2.0, center=60.0, n_samples=16384, span=200.0)


class TestBandKernel:
    """delay_decomposition sums over the entry spectrum's band with the
    window's circulant time moment; the N-point round trip it replaced is the
    oracle.  Both see the same periodic window, so they agree to rounding."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=250)
    @given(kind=st.sampled_from(list(MediumKind)), duration=st.floats(0.3, 4.0),
           spans=st.floats(8.0, 80.0), place=st.floats(0.0, 1.0), log2n=st.integers(9, 13),
           carrier=st.floats(0.0, 1.0), thickness=st.floats(0.05, 6.0),
           strength=st.floats(0.5, 20.0), damping=st.sampled_from([0.0, 0.05, 2.0]))
    # The band reaches the top of the grid, and the band covers the whole grid.
    @example(kind=MediumKind.LORENTZ, duration=1.0, spans=12.0, place=0.5, log2n=9,
             carrier=0.999, thickness=1.0, strength=5.0, damping=0.05)
    @example(kind=MediumKind.PLASMA, duration=2.0, spans=60.0, place=0.5, log2n=9,
             carrier=0.9, thickness=1.0, strength=2.0, damping=0.05)
    def test_band_kernel_matches_the_n_point_round_trip(
        self, kind, duration, spans, place, log2n, carrier, thickness, strength, damping
    ):
        # carrier is a fraction of the widest carrier the grid admits, and the
        # pulse fits its window (|E|^2 < 1e-12 at the edges) from spans = 11 on.
        span = spans * duration
        top = math.pi * 2**log2n / span - 6.0 / duration
        try:
            pulse = PulseSpec(carrier=max(carrier * top, 1e-3), duration=duration,
                              center=duration * (5.5 + place * (spans - 11.0)),
                              n_samples=2**log2n, span=span)
            medium = MediumSpec(kind=kind, thickness=thickness, resonance=strength,
                                plasma_strength=strength, damping=damping)
        except ValidationError:
            assume(False)
        band = band_decomposition(pulse, medium)
        assert disagreements(band, reference_decomposition(pulse, medium)) == []

    @pytest.mark.parametrize("offset, width", [(0, 64), (40, 300), (200, 56), (0, 512)])
    def test_window_edges_are_the_sampled_field(self, offset, width):
        # A random spectrum on `width` samples from frequency index `offset`
        # of a 512-point grid, against its N-point field N dt E = fft(S).
        n_samples, m = 512, 512 if width > 128 else 128
        rng = np.random.default_rng(offset + width)
        spectrum = rng.normal(size=width) + 1j * rng.normal(size=width)
        full = np.zeros(n_samples, dtype=complex)
        full[(offset + np.arange(width)) % n_samples] = spectrum
        field = np.abs(np.fft.fft(full))
        _, last = em_pulse._moment_kernel(n_samples, m)
        edges = em_pulse._window_edges(spectrum, np.fft.fft(spectrum, m), last)
        expected = (field[0], field[-1], np.max(field[:: n_samples // m]))
        assert edges == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("carrier", [5.81, 12.0])
    def test_benchmark_rows_match_the_n_point_round_trip(self, carrier):
        pulse = replace(BENCHMARK_PULSE, carrier=carrier)
        band = band_decomposition(pulse, PLASMA)
        assert disagreements(band, reference_decomposition(pulse, PLASMA)) == []

    def test_infinite_window_kernel_fails_the_oracle(self, monkeypatch):
        # The periodic part of the circulant, cot(pi l/N), replaced by its
        # infinite-window limit N/(pi l): the attenuated field that wraps the
        # window at carrier 5.81 then moves delta_t_reshape by 1.8e-9.
        def infinite_window_kernel(n_samples, m):
            lag = np.arange(m)
            lag[m // 2 :] -= m
            g = np.empty(m, dtype=complex)
            g[0] = 0.5 * (n_samples - 1)
            g[1:] = -0.5 - 0.5j * n_samples / (np.pi * lag[1:])
            return np.fft.fft(g) / m, np.exp(2j * np.pi * np.arange(m) / n_samples)

        monkeypatch.setattr(em_pulse, "_moment_kernel", infinite_window_kernel)
        pulse = replace(BENCHMARK_PULSE, carrier=5.81)
        band = band_decomposition(pulse, PLASMA)
        assert disagreements(band, reference_decomposition(pulse, PLASMA)) == ["delta_t_reshape"]


class TestDetectorCrossCheck:
    def test_thin_absorber_matches_centroid(self):
        _, exit_ = propagate(PULSE, LORENTZ)
        t_det = detector_absorption_time(exit_)
        t_cen = centroid_time(exit_)
        assert abs(t_det - t_cen) / abs(t_cen) < 1e-3

    @pytest.mark.parametrize("eta", [0.0, 1e-16, 1e-18])
    def test_absorption_below_rounding_has_no_flux(self, eta):
        # The detection rate is the difference of two fluxes; with eta = 1e-16
        # it is 2e-18 of them, rounding noise, and gave an arrival time of
        # 26.6 for a pulse centred at 30 (38.4 at eta = 1e-18).
        entry, _ = propagate(PULSE, VACUUM)
        with pytest.raises(ZeroFluxError):
            detector_absorption_time(entry, eta=eta)
