"""Pulse propagation through dispersive slabs and Poynting-centroid arrival times.

Units: c = 1, mu = 1.  Fields are analytic signals (spectral content at
omega > 0 only); the physical field is the real part.  The spectral
convention is E~(omega) = integral E(t) exp(+i omega t) dt, so a carrier
exp(-i omega0 t) peaks at +omega0 and a slab multiplies by
exp(+i n(omega) omega L).

Dispersion has one formula, epsilon = 1 + omega_p^2/(omega0^2 - omega^2 - i gamma omega),
a plasma being the resonance at omega0 = 0 (the Drude form); n = sqrt(epsilon)
on the branch Im(n) >= 0 and dk/domega come from the same denominator.

The arrival time at a plane is the first temporal moment of the Poynting flux
S(t) = Re[E H*]/2 with H~ = n E~ (index-matched slab, no interface
reflections).  The total transit splits exactly into

* a net group delay: the spectral average of L d(Re k)/d omega weighted by
  the exit-plane flux spectrum Re(n) |E~_exit|^2, and
* a reshaping delay: the arrival-time shift the entry pulse would suffer if
  its spectrum were merely attenuated (|exp(i k L)| applied, no phase).

The split is an identity, not an approximation: the omega-derivative inside
the centroid of the attenuated spectrum produces exactly the Im(k') Im(n)
cross term that the Re-weighted group average omits.  Residuals therefore
measure only grid aliasing.

delay_decomposition is the per-row kernel of a sweep.  It takes each arrival
time from the spectrum alone: with q = -i dE~/domega, the spectrum of the time
moment t E(t), the centroid is Re <n E~, q> / Re <E~, n E~> (_p_operator).
The entry spectrum of the Gaussian pulse and its moment are closed forms
(_entry_spectrum), so the kernel never samples pulse.field().  Every spectrum
of a row is exactly zero outside the entry spectrum's band, the B samples
within _BAND_REACH/T of the carrier (about 1240 of the 16384 on a 200-long
window at T = 2), so every sum of the row runs over that band alone.

The exit and attenuated moments are those of the N-point window.  On it the
round trip to_spectrum(t to_time(S)) is a circulant in frequency,
q_a = (dt/N) sum_b G(a - b) S_b with G(0) = N(N - 1)/2 and
G(l) = N(-1/2 - (i/2) cot(pi l/N)).  On a band of B samples it is a circular
convolution of length m >= 2B (or the whole circulant, m = N), so each moment
takes two m-point FFTs (_moment_kernel, _band_centroid): a row makes 4 FFTs of
length m (4096 on that window) and none of length N.  The result is the
N-point round trip's to rounding, not an approximation of it: the same
periodic window and the same sums, with the zeros left out.  n(omega) and
dk/domega are cached once per sweep, the slab factors exp(i k L) and
exp(-Im k L) once per thickness, and the circulant's spectrum once per (N, m),
so a carrier sweep computes all of them once.  propagate, centroid_time and
detector_absorption_time sample the field and transform on the whole grid:
they are the independent time-domain check of the kernel.

The transforms are periodic in time, so a field that has not decayed by the
edges of the window wraps around it, and no spectral check can see that.
The closed-form entry spectrum is the sampled one only when the entry pulse
fits its window, so delay_decomposition refuses (GridError) a pulse whose
peak lies outside the window or whose |E|^2 at the first or last sample
exceeds _EDGE_TOL of the peak.  Up to one phase and scale, the m-point FFT of
a band spectrum is its field at every (N/m)-th time sample, and the field at
the last sample is one dot product over the band.  A row whose exit or
attenuated |E|^2 at the first or last sample exceeds _EDGE_TOL of the peak on
that subgrid is flagged window_truncated, not refused: the arrival times are
then not converged in the window span.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridError, ValidationError, ZeroFluxError, _finite

__all__ = [
    "MediumKind",
    "MediumSpec",
    "PulseSpec",
    "DelayReport",
    "PlaneFields",
    "permittivity",
    "refractive_index",
    "to_spectrum",
    "to_time",
    "group_wavevector_derivative",
    "propagate",
    "centroid_time",
    "delay_decomposition",
    "detector_absorption_time",
]

_ALIAS_TOL = 1e-6
# |E|^2 at the first or last sample of the time window above this fraction of
# its peak means the field wraps around the periodic window.
_EDGE_TOL = 1e-12
# A net flux at most this fraction of the flux without cancellation is zero.
_FLUX_FLOOR = 1e-12
# exp(-x^2/2) is exactly 0.0 in double precision beyond x = 38.6, so the entry
# spectrum vanishes at every sample more than this many 1/T from the carrier.
_BAND_REACH = 39.0


class MediumKind(Enum):
    VACUUM = "vacuum"
    LORENTZ = "lorentz"
    PLASMA = "plasma"


@dataclass(frozen=True)
class MediumSpec:
    """Dispersive slab: a single Lorentz resonance, a plasma, or vacuum.

    Attributes:
        kind: dispersion model.
        thickness: slab length L (> 0).
        resonance: Lorentz resonance frequency (ignored for plasma/vacuum).
        plasma_strength: omega_p.
        damping: gamma (>= 0).
    """

    kind: MediumKind
    thickness: float
    resonance: float = 0.0
    plasma_strength: float = 0.0
    damping: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MediumKind):
            raise ValidationError(f"kind: expected a MediumKind, got {self.kind!r}")
        for name in ("thickness", "resonance", "plasma_strength", "damping"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if not self.thickness > 0:
            raise ValidationError(f"thickness: must be positive, got {self.thickness}")
        if self.damping < 0:
            raise ValidationError(f"damping: must be >= 0, got {self.damping}")
        if self.plasma_strength < 0:
            raise ValidationError(f"plasma_strength: must be >= 0, got {self.plasma_strength}")
        if self.kind is MediumKind.LORENTZ and not self.resonance > 0:
            raise ValidationError(f"resonance: must be positive in a lorentz medium, got {self.resonance}")


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian pulse on a uniform time grid.

    Attributes:
        carrier: carrier frequency omega0 (> 0).
        duration: gaussian envelope 1/e half-width T.
        center: envelope peak time t0.
        n_samples: grid size (power of two).
        span: total window length.

    Grid invariants: span >= 8 durations and Nyquist frequency above
    carrier + 6/duration, so the spectrum is resolved and fits the grid.
    """

    carrier: float
    duration: float
    center: float
    n_samples: int
    span: float

    def __post_init__(self) -> None:
        for name in ("carrier", "duration", "center", "n_samples", "span"):
            object.__setattr__(self, name, _finite(getattr(self, name), name, name == "n_samples"))
        if not self.carrier > 0:
            raise ValidationError(f"carrier: must be positive, got {self.carrier}")
        if not self.duration > 0:
            raise ValidationError(f"duration: must be positive, got {self.duration}")
        if self.n_samples < 2 or self.n_samples & (self.n_samples - 1):
            raise ValidationError(f"n_samples: must be a power of two, got {self.n_samples}")
        if self.span < 8 * self.duration:
            raise ValidationError(f"span: must cover at least 8 pulse durations, got {self.span}")
        nyquist = math.pi * self.n_samples / self.span
        if nyquist <= self.carrier + 6.0 / self.duration:
            raise ValidationError(
                f"n_samples: Nyquist frequency {nyquist:.4g} does not clear the spectral band "
                f"{self.carrier + 6.0 / self.duration:.4g}"
            )

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.span, self.n_samples, endpoint=False)

    def field(self) -> np.ndarray:
        """Analytic-signal entry field E(t) = exp(-(t-t0)^2/(2T^2) - i w0 (t-t0))."""
        t = self.times() - self.center
        return np.exp(-(t**2) / (2.0 * self.duration**2) - 1j * self.carrier * t)


@dataclass(frozen=True)
class DelayReport:
    """Arrival-time budget across a slab.

    residual = delta_t - (delta_t_group + delta_t_reshape); it is checked
    against the tolerance and reported, never silently dropped.
    evanescent_regime marks pulses with non-negligible spectral content below
    a plasma cutoff, where luminality of the total delay is not guaranteed.
    window_truncated marks an exit or attenuated field that has not decayed
    at the edges of the time window: it wraps around the periodic grid, so
    the arrival times are not converged in the window span.
    """

    t_in: float
    t_out: float
    delta_t: float
    delta_t_group: float
    delta_t_reshape: float
    residual: float
    residual_ok: bool
    evanescent_regime: bool
    window_truncated: bool


# ---------------------------------------------------------------------------
# dispersion


def _denominator(medium: MediumSpec, w: np.ndarray) -> np.ndarray:
    """omega0^2 - omega^2 - i gamma omega, the resonance denominator of
    epsilon; a plasma is the Lorentz resonance at omega0 = 0."""
    w0 = medium.resonance if medium.kind is MediumKind.LORENTZ else 0.0
    return w0**2 - w**2 - 1j * medium.damping * w


def _dispersion(medium: MediumSpec, omega, quantity: str) -> np.ndarray | complex:
    """quantity ("eps", "n" or "dk") of the medium at omega: a scalar omega
    gives a complex, an array an array."""
    w = np.asarray(omega, dtype=complex)
    if medium.kind is MediumKind.VACUUM:
        out = np.ones_like(w)
    else:
        denom = _denominator(medium, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            if quantity == "dk":
                deps = medium.plasma_strength**2 * (2.0 * w + 1j * medium.damping) / denom**2
            out = 1.0 + medium.plasma_strength**2 / denom
            del denom  # not held while n is formed, which would raise a grid's peak memory
            if quantity != "eps":
                n = np.sqrt(out)
                out = n = np.where(n.imag < 0, -n, n)
            if quantity == "dk":
                out = n + w * deps / (2.0 * n)
    return complex(out) if np.isscalar(omega) else out


def permittivity(medium: MediumSpec, omega) -> np.ndarray | complex:
    """epsilon(omega) = 1 + omega_p^2/(omega0^2 - omega^2 - i gamma omega), with
    omega0 = resonance (Lorentz) or 0 (plasma: the Drude form 1 - omega_p^2/(omega^2
    + i gamma omega)), and 1 in vacuum.  Array in, array out."""
    return _dispersion(medium, omega, "eps")


def refractive_index(medium: MediumSpec, omega) -> np.ndarray | complex:
    """n = sqrt(epsilon) on the absorption branch Im(n) >= 0."""
    return _dispersion(medium, omega, "n")


def group_wavevector_derivative(medium: MediumSpec, omega) -> np.ndarray | complex:
    """dk/domega = n + omega dn/domega, with dn/domega = eps'/(2n) analytically."""
    return _dispersion(medium, omega, "dk")


# ---------------------------------------------------------------------------
# spectral transforms (convention E~(w) = int E(t) exp(+iwt) dt)


def _on_grid(f, medium: MediumSpec, w: np.ndarray) -> np.ndarray:
    """f(medium, |w|) over a full FFT grid, extended to w < 0 by the reality symmetry
    f(-w) = conj(f(w)); for n this keeps Im(k) = Im(n w) >= 0 (decay) at every w."""
    v = f(medium, np.abs(w))
    v = np.where(np.isfinite(v), v, 0.0)
    return np.where(w >= 0, v, np.conj(v))


def _omegas(n_samples: int, span: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n_samples, d=span / n_samples)


@functools.lru_cache(maxsize=1)
def _grid_dispersion(kind: MediumKind, resonance: float, plasma_strength: float, damping: float,
                     n_samples: int, span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (omega, n, dk/domega) on the FFT grid in ascending frequency
    order (fftshift), so that a spectral band is one slice of each.  They depend
    on neither the carrier nor the slab thickness, so a sweep over either
    computes them once."""
    medium = MediumSpec(kind, 1.0, resonance, plasma_strength, damping)
    w = np.fft.fftshift(_omegas(n_samples, span))
    out = (w, _on_grid(refractive_index, medium, w), _on_grid(group_wavevector_derivative, medium, w))
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1)
def _slab_factors(kind: MediumKind, resonance: float, plasma_strength: float, damping: float,
                  n_samples: int, span: float, thickness: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only slab factors exp(i k L) and exp(-Im k L), k = n omega, on the
    grid of _grid_dispersion.  A carrier sweep never changes them, so it
    computes them once; the dispersion itself stays keyed without L, so a
    thickness sweep reuses it."""
    w, n, _ = _grid_dispersion(kind, resonance, plasma_strength, damping, n_samples, span)
    k = n * w
    out = (np.exp(1j * k * thickness), np.exp(-np.imag(k) * thickness))
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1)
def _moment_kernel(n_samples: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only spectrum K that applies the window's circulant G (module
    docstring) to a band as an m-point circular convolution, and the phases
    exp(2 pi i j/N), j < m, that read a band's field at the window's last sample.

    A band of B samples meets only the lags |l| < B, so for m >= 2B (or m = N,
    the whole circulant) sum_a conj(U_a) q_a = dt sum_k conj(U^_k) S^_k K_k,
    where U^ and S^ are the m-point FFTs of the zero-padded bands and
    K = fft(g)/m with g[l mod m] = G(l)/N.  The cot form keeps G(l) to
    rounding at small l, where N/(exp(2 pi i l/N) - 1) cancels."""
    lag = np.arange(m)
    lag[m // 2 :] -= m
    g = np.empty(m, dtype=complex)
    g[0] = 0.5 * (n_samples - 1)
    g[1:] = -0.5 - 0.5j / np.tan(np.pi * lag[1:] / n_samples)
    out = (np.fft.fft(g) / m, np.exp(2j * np.pi * np.arange(m) / n_samples))
    for a in out:
        a.flags.writeable = False
    return out


def to_spectrum(field: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """E~ on the FFT grid: dt * sum_t E(t) exp(+i w t).  The unscaled sum is
    numpy's inverse transform under norm="forward"; dt is applied in place."""
    spectrum = np.fft.ifft(field, norm="forward")
    spectrum *= pulse.span / pulse.n_samples
    return spectrum


def to_time(spectrum: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """E(t) = sum_w E~(w) exp(-i w t) / (N dt): numpy's forward transform under
    norm="forward" divides by N, and the division by dt is done in place."""
    field = np.fft.fft(spectrum, norm="forward")
    field /= pulse.span / pulse.n_samples
    return field


def _check_aliasing(spectrum: np.ndarray, what: str) -> None:
    n = len(spectrum)
    _check_leakage(float(np.max(np.abs(spectrum))),
                   float(np.max(np.abs(spectrum[n // 2 - 1 : n // 2 + 2]))), what)


def _check_leakage(peak: float, edge: float, what: str) -> None:
    """Refuse a spectrum whose largest modulus at the three samples next to the
    Nyquist frequency exceeds _ALIAS_TOL of its peak modulus."""
    if peak == 0.0:
        raise ZeroFluxError(f"{what} is identically zero")
    if edge / peak > _ALIAS_TOL:
        raise GridError(
            f"{what}: relative spectral leakage {edge / peak:.3g} at the grid edge "
            f"exceeds {_ALIAS_TOL}; enlarge the grid"
        )


# ---------------------------------------------------------------------------
# propagation and arrival times


@dataclass(frozen=True)
class PlaneFields:
    """Analytic-signal E and H time series at one plane, on the pulse grid."""

    e: np.ndarray
    h: np.ndarray
    pulse: PulseSpec

    def poynting(self) -> np.ndarray:
        return 0.5 * np.real(self.e * np.conj(self.h))


def _fields_at(spectrum: np.ndarray, n: np.ndarray, pulse: PulseSpec) -> PlaneFields:
    return PlaneFields(e=to_time(spectrum, pulse), h=to_time(n * spectrum, pulse), pulse=pulse)


def propagate(pulse: PulseSpec, medium: MediumSpec) -> tuple[PlaneFields, PlaneFields]:
    """Entry- and exit-plane fields for an index-matched slab.

    Each spectral component is multiplied by exp(i n(omega) omega L); H follows
    from the local impedance (H~ = n E~ with c = mu = 1).

    Raises:
        GridError: if spectral leakage at the grid edge exceeds 1e-6 of the
            peak (entry or exit), i.e. the grid aliases.
    """
    w = _omegas(pulse.n_samples, pulse.span)
    n = _on_grid(refractive_index, medium, w)
    spec_in = to_spectrum(pulse.field(), pulse)
    _check_aliasing(spec_in, "entry spectrum")
    spec_out = spec_in * np.exp(1j * n * w * medium.thickness)
    _check_aliasing(spec_out, "exit spectrum")
    return _fields_at(spec_in, n, pulse), _fields_at(spec_out, n, pulse)


def centroid_time(fields: PlaneFields) -> float:
    """First temporal moment of the Poynting flux through the plane.

    Raises:
        ZeroFluxError: if the net energy flux through the plane vanishes: it
            is at most _FLUX_FLOOR of sum |S|, the flux with no cancellation.
    """
    s = fields.poynting()
    total = float(np.sum(s))
    if not np.isfinite(total) or abs(total) <= _FLUX_FLOOR * float(np.sum(np.abs(s))):
        raise ZeroFluxError("net energy flux through the plane vanishes")
    return float(np.sum(fields.pulse.times() * s) / total)


def _p_operator(spectrum: np.ndarray, ns: np.ndarray, moment: float) -> float:
    """Spectral form of the Poynting centroid at a plane with local index n,
    given ns = n E~ and moment = Re sum conj(n E~) q, where q = -i dE~/domega is
    the spectrum of the time moment t E(t).  The centroid is the moment over the
    net flux Re sum n |E~|^2; by discrete Parseval it equals centroid_time of
    the plane's fields.

    The net flux is zero when it is at most _FLUX_FLOOR of sum |n E~| |E~|,
    the flux the plane would carry with no cancellation: below that it is
    rounding noise (a lossless slab whose spectrum lies under its cutoff), and
    the centroid would be noise divided by noise.  That sum is at most the
    product of the norms ||n E~|| ||E~|| (Cauchy-Schwarz, two more vdots), so
    only a net flux below _FLUX_FLOOR of that product pays for the elementwise
    moduli."""
    den = np.vdot(spectrum, ns).real
    if not np.isfinite(den) or (
        abs(den) <= _FLUX_FLOOR * math.sqrt(np.vdot(ns, ns).real * np.vdot(spectrum, spectrum).real)
        and abs(den) <= _FLUX_FLOOR * np.dot(np.abs(ns), np.abs(spectrum))
    ):
        raise ZeroFluxError("net energy flux through the plane vanishes")
    return float(moment / den)


def _envelope(pulse: PulseSpec, w: np.ndarray) -> np.ndarray:
    """|E~_in| = T sqrt(2 pi) exp(-(w - w0)^2 T^2 / 2), the entry spectrum's modulus."""
    envelope = np.exp(-0.5 * (pulse.duration * (w - pulse.carrier)) ** 2)
    envelope *= pulse.duration * math.sqrt(2.0 * math.pi)
    return envelope


def _entry_spectrum(pulse: PulseSpec, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form entry spectrum of pulse.field() and its time moment on the
    frequencies w: E~_in = T sqrt(2 pi) exp(-(w - w0)^2 T^2 / 2) exp(i w t0) and
    q_in = -i dE~_in/domega = (t0 + i T^2 (w - w0)) E~_in.

    Both equal the sampled DFTs of the field and of t E(t) only while the pulse
    fits its window: the periodic DFT cuts off the Gaussian tails that the
    closed form keeps.

    Raises:
        GridError: if the pulse peak lies outside the window, or |E|^2 at its
            first or last sample exceeds _EDGE_TOL of the peak.
    """
    t0, T = pulse.center, pulse.duration
    last = pulse.span - pulse.span / pulse.n_samples
    edge = max(math.exp(-((t0 / T) ** 2)), math.exp(-(((last - t0) / T) ** 2)))
    if not 0.0 <= t0 <= last or edge > _EDGE_TOL:
        raise GridError(
            f"entry pulse centred at {t0:.6g} does not fit the window [0, {last:.6g}]: "
            f"enlarge the span or move the center"
        )
    spec_in = _envelope(pulse, w) * np.exp(1j * t0 * w)
    q_in = (t0 + 1j * T**2 * (w - pulse.carrier)) * spec_in
    return spec_in, q_in


def _band_centroid(spectrum: np.ndarray, n: np.ndarray, pulse: PulseSpec,
                   m: int) -> tuple[float, bool]:
    """Poynting centroid of a band spectrum with local index n, its time moment
    taken on the pulse's N-sample window (_moment_kernel), and whether |E|^2 at
    the window's first or last sample exceeds _EDGE_TOL of its peak.

    The peak is read on every (N/m)-th sample (_window_edges)."""
    kernel, last = _moment_kernel(pulse.n_samples, m)
    ns = n * spectrum
    s_hat = np.fft.fft(spectrum, m)
    moment = np.vdot(np.fft.fft(ns, m), s_hat * kernel).real * (pulse.span / pulse.n_samples)
    first, final, peak = _window_edges(spectrum, s_hat, last)
    truncated = bool(max(first, final) ** 2 > _EDGE_TOL * peak**2)
    return _p_operator(spectrum, ns, moment), truncated


def _window_edges(spectrum: np.ndarray, s_hat: np.ndarray,
                  last: np.ndarray) -> tuple[float, float, float]:
    """|E| at the window's first and last samples, and its peak on every
    (N/m)-th sample, all times N dt, of a band spectrum with m-point FFT s_hat.
    Up to one phase, s_hat[k] is N dt E at sample k N/m, and N dt E at the
    last sample is the band's dot product with last = exp(2 pi i j/N)."""
    final = abs(np.dot(spectrum, last[: len(spectrum)]))
    return float(abs(s_hat[0])), float(final), float(np.max(np.abs(s_hat)))


def delay_decomposition(pulse: PulseSpec, medium: MediumSpec) -> DelayReport:
    """Split the slab transit time into net group delay and reshaping delay.

    Group part: flux-spectrum-weighted average of L d(Re k)/domega at the exit.
    Reshaping part: arrival-time shift of the entry pulse when its spectrum is
    attenuated by |exp(i k L)| with no phase applied.  Arrival times are
    spectral centroids (_p_operator), so no field is transformed back in time;
    the entry spectrum and its moment are closed forms (_entry_spectrum).

    Every sum runs over the entry spectrum's band, outside which every
    spectrum of the row is exactly zero.  The exit and attenuated moments are
    the N-point window's circulant on the band (_moment_kernel): 4 FFTs of
    length m, the least power of two that holds twice the widest band, or N.
    They equal the N-point round trip through the time domain to rounding.
    The aliasing checks read the three samples next to the Nyquist frequency
    in closed form.

    Raises:
        GridError: if the entry pulse does not fit its time window, or the
            entry or exit spectrum leaks more than 1e-6 of its peak into the
            grid edge.
        ZeroFluxError: if the net energy flux through the entry, exit or
            attenuated plane vanishes (a lossless slab whose spectrum lies
            entirely under its cutoff).
    """
    key = (medium.kind, medium.resonance, medium.plasma_strength, medium.damping,
           pulse.n_samples, pulse.span)
    w, n, kprime = _grid_dispersion(*key)
    phase, attenuation = _slab_factors(*key, medium.thickness)
    reach = _BAND_REACH / pulse.duration
    band = slice(*np.searchsorted(w, (pulse.carrier - reach, pulse.carrier + reach)))
    widest = int(reach * pulse.span / math.pi) + 2  # no band holds more samples
    m = min(pulse.n_samples, 1 << (2 * widest - 1).bit_length())

    spec_in, q_in = _entry_spectrum(pulse, w[band])
    # The samples next to the Nyquist frequency open and close the ascending grid.
    nyquist = [0, 1, -1]
    edge_in = _envelope(pulse, w[nyquist])
    _check_leakage(float(np.max(np.abs(spec_in))), float(np.max(edge_in)), "entry spectrum")
    spec_out = spec_in * phase[band]
    _check_leakage(float(np.max(np.abs(spec_out))),
                   float(np.max(edge_in * np.abs(phase[nyquist]))), "exit spectrum")
    spec_att = spec_in * attenuation[band]
    n = n[band]

    ns_in = n * spec_in
    t_in = _p_operator(spec_in, ns_in, np.vdot(ns_in, q_in).real)
    t_out, out_truncated = _band_centroid(spec_out, n, pulse, m)
    delta_t = t_out - t_in

    weight = np.real(n) * np.abs(spec_att) ** 2
    dt_group = float(
        medium.thickness * np.sum(np.real(kprime[band]) * weight) / np.sum(weight)
    )
    t_att, att_truncated = _band_centroid(spec_att, n, pulse, m)
    dt_reshape = t_att - t_in

    residual = delta_t - (dt_group + dt_reshape)
    # A delta_t of nearly cancelling fluxes must not widen its own tolerance,
    # so the scale is capped at the pulse duration.
    tol_scale = min(max(abs(delta_t), pulse.duration * 1e-3), pulse.duration)
    residual_ok = abs(residual) / tol_scale < 1e-6

    evanescent = False
    if medium.kind is MediumKind.PLASMA:
        below = np.abs(w[band]) < medium.plasma_strength
        frac = np.sum(np.abs(spec_in[below]) ** 2) / np.sum(np.abs(spec_in) ** 2)
        evanescent = bool(frac > 1e-9)

    return DelayReport(
        t_in=t_in,
        t_out=t_out,
        delta_t=delta_t,
        delta_t_group=dt_group,
        delta_t_reshape=dt_reshape,
        residual=float(residual),
        residual_ok=residual_ok,
        evanescent_regime=evanescent,
        window_truncated=out_truncated or att_truncated,
    )


def detector_absorption_time(
    fields: PlaneFields, eta: float = 1e-3, thickness: float = 1e-3
) -> float:
    """Arrival time registered by a thin weakly absorbing detector slab.

    The slab has index n = 1 + i eta; the detection-rate series is the
    absorbed power S_in(t) - S_out(t), and the arrival time is its centroid.
    Cross-checks centroid_time: for thin, weak absorbers the two agree to
    O(eta thickness bandwidth / carrier).

    Raises:
        ZeroFluxError: if the absorbed energy is at most _FLUX_FLOOR of the
            flux the two branches carry, whose difference it is rounding
            noise of.
    """
    pulse = fields.pulse
    w = _omegas(pulse.n_samples, pulse.span)
    spec = to_spectrum(fields.e, pulse)
    n_det = np.where(w >= 0, 1.0 + 1j * eta, 1.0 - 1j * eta)
    spec_abs = spec * np.exp(1j * n_det * w * thickness)
    spec_ref = spec * np.exp(1j * w * thickness)
    # Both branches carry the same phase delay, so the difference of their
    # fluxes isolates the absorbed power (the detection-rate series).
    out = PlaneFields(e=to_time(spec_abs, pulse), h=to_time(n_det * spec_abs, pulse), pulse=pulse)
    ref = PlaneFields(e=to_time(spec_ref, pulse), h=to_time(spec_ref, pulse), pulse=pulse)
    s_ref, s_out = ref.poynting(), out.poynting()
    rate = s_ref - s_out
    total = float(np.sum(rate))
    if not np.isfinite(total) or abs(total) <= _FLUX_FLOOR * float(
        np.sum(np.abs(s_ref)) + np.sum(np.abs(s_out))
    ):
        raise ZeroFluxError("detector absorbs no energy")
    return float(np.sum(pulse.times() * rate) / total)
