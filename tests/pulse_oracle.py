"""The pulse kernel's time-domain oracle: the entry field sampled on the whole
N-point window, propagated on the full FFT grid, and each arrival time the
first moment of the sampled Poynting flux S(t) = Re[E H*]/2.  Fields are
(e, h) pairs of arrays on the pulse's time grid.  Only the transform
convention (to_spectrum, to_time), the dispersion and the error rules come
from em_pulse; none of the kernel's closed forms, bands or caches does."""
import numpy as np

from wavetime import em_pulse
from wavetime.em_pulse import MediumKind, to_spectrum, to_time
from wavetime.errors import GridError, ZeroFluxError


def times(pulse):
    return np.linspace(0.0, pulse.span, pulse.n_samples, endpoint=False)


def entry_field(pulse):
    """Analytic-signal entry field E(t) = exp(-(t-t0)^2/(2T^2) - i w0 (t-t0))."""
    t = times(pulse) - pulse.center
    return np.exp(-(t**2) / (2.0 * pulse.duration**2) - 1j * pulse.carrier * t)


def check_aliasing(spectrum, what):
    """The kernel's leakage rule on the samples next to Nyquist of an FFT-ordered spectrum."""
    n = len(spectrum)
    em_pulse._check_leakage(float(np.max(np.abs(spectrum))),
                            float(np.max(np.abs(spectrum[n // 2 - 1 : n // 2 + 2]))), what)


def _grid(pulse, medium):
    """(omega, n, dk/domega) on the pulse's FFT grid."""
    w = em_pulse._omegas(pulse.n_samples, pulse.span)
    return (w, *em_pulse._on_grid(medium, w))


def propagate(pulse, medium):
    """(e, h) at the entry and exit planes of an index-matched slab: the exit
    spectrum is E~ exp(i n w L), and H~ = n E~."""
    w, n, _ = _grid(pulse, medium)
    spec_in = to_spectrum(entry_field(pulse), pulse)
    check_aliasing(spec_in, "entry spectrum")
    spec_out = spec_in * np.exp(1j * n * w * medium.thickness)
    check_aliasing(spec_out, "exit spectrum")
    return tuple((to_time(s, pulse), to_time(n * s, pulse)) for s in (spec_in, spec_out))


def poynting(e, h):
    return 0.5 * np.real(e * np.conj(h))


def _centroid(pulse, s, scale, what):
    """First moment of the series s; its sum is zero at most _FLUX_FLOOR of scale."""
    total = float(np.sum(s))
    if not np.isfinite(total) or abs(total) <= em_pulse._FLUX_FLOOR * scale:
        raise ZeroFluxError(what)
    return float(np.sum(times(pulse) * s) / total)


def centroid_time(pulse, e, h):
    """Centroid of the Poynting flux, its net flux set against sum |S| (no cancellation)."""
    s = poynting(e, h)
    return _centroid(pulse, s, float(np.sum(np.abs(s))), "net energy flux through the plane vanishes")


def detector_absorption_time(pulse, e, eta=1e-3, thickness=1e-3):
    """Centroid of the power S_ref - S_out that a thin detector slab of index
    1 + i eta absorbs; S_ref crosses the same thickness with no loss."""
    w = em_pulse._omegas(pulse.n_samples, pulse.span)
    spec = to_spectrum(e, pulse)
    n_det = np.where(w >= 0, 1.0 + 1j * eta, 1.0 - 1j * eta)
    spec_abs = spec * np.exp(1j * n_det * w * thickness)
    e_ref = to_time(spec * np.exp(1j * w * thickness), pulse)
    s_ref = poynting(e_ref, e_ref)
    s_out = poynting(to_time(spec_abs, pulse), to_time(n_det * spec_abs, pulse))
    scale = float(np.sum(np.abs(s_ref)) + np.sum(np.abs(s_out)))
    return _centroid(pulse, s_ref - s_out, scale, "detector absorbs no energy")


def reference_decomposition(pulse, medium):
    """delay_decomposition on the whole N-point grid: the exit and attenuated
    time moments by the round trip to_time, times t, to_spectrum, the window
    edges and peak read on every time sample, and the guards on the sampled
    spectra.  Returns the five times and two flags, or the error's type and
    message."""
    w, n, dk = _grid(pulse, medium)
    wraps = []

    def centroid(spectrum, q=None):
        if q is None:  # the round trip's time moment, and whether the field wraps the window
            field = to_time(spectrum, pulse)
            edge = max(abs(field[0]), abs(field[-1])) ** 2
            wraps.append(edge > em_pulse._EDGE_TOL * np.max(np.abs(field)) ** 2)
            q = to_spectrum(times(pulse) * field, pulse)
        ns = n * spectrum
        return em_pulse._p_operator(spectrum, ns, np.vdot(ns, q).real)

    try:
        spec_in, q_in = em_pulse._entry_spectrum(pulse, w)
        check_aliasing(spec_in, "entry spectrum")
        spec_out = spec_in * np.exp(1j * n * w * medium.thickness)
        check_aliasing(spec_out, "exit spectrum")
        spec_att = spec_in * np.exp(-np.imag(n * w) * medium.thickness)
        t_in, t_out = centroid(spec_in, q_in), centroid(spec_out)
        weight = np.real(n) * np.abs(spec_att) ** 2
        group = medium.thickness * np.sum(np.real(dk) * weight) / np.sum(weight)
        reshape = centroid(spec_att) - t_in
    except (GridError, ZeroFluxError) as exc:
        return type(exc), str(exc)
    below = np.abs(w) < medium.plasma_strength
    frac = np.sum(np.abs(spec_in[below]) ** 2) / np.sum(np.abs(spec_in) ** 2)
    return {"t_in": t_in, "t_out": t_out, "delta_t": t_out - t_in, "delta_t_group": group,
            "delta_t_reshape": reshape, "window_truncated": bool(any(wraps)),
            "evanescent_regime": medium.kind is MediumKind.PLASMA and bool(frac > 1e-9)}
