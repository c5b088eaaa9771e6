"""Pulse propagation through dispersive slabs and Poynting-centroid arrival times.

Units: c = 1, mu = 1.  Fields are analytic signals (spectral content at
omega > 0 only); the physical field is the real part.  The spectral
convention is E~(omega) = integral E(t) exp(+i omega t) dt, so a carrier
exp(-i omega0 t) peaks at +omega0 and a slab multiplies by
exp(+i n(omega) omega L).

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
(_entry_spectrum), so the kernel never samples pulse.field(); the exit and
attenuated moments take a round trip through the time domain each, so a row
makes 4 transforms, through scipy.fft under norm="forward" with dt applied in
place.  n(omega) and dk/domega are cached once per sweep, the entry delay
factor exp(i omega t0) once per pulse window, and the slab factors
exp(i k L) and exp(-Im k L) once per thickness, so a carrier sweep computes
all of them once.  propagate, centroid_time and detector_absorption_time
sample the field and build their own factors: they are the independent
time-domain check of the kernel.

The transforms are periodic in time, so a field that has not decayed by the
edges of the window wraps around it, and no spectral check can see that.
The closed-form entry spectrum is the sampled one only when the entry pulse
fits its window, so delay_decomposition refuses (GridError) a pulse whose
peak lies outside the window or whose |E|^2 at the first or last sample
exceeds _EDGE_TOL of the peak.  _time_moment reads the exit and attenuated
fields at their first and last samples on its way through the time domain,
and a row where either has not decayed is flagged window_truncated, not
refused: the arrival times are then not converged in the window span.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.fft

from .errors import GridError, ValidationError, ZeroFluxError

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
        for name in ("thickness", "resonance", "plasma_strength", "damping"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"medium.{name}: must be finite, got {getattr(self, name)}")
        if not self.thickness > 0:
            raise ValidationError(f"thickness must be positive, got {self.thickness}")
        if self.damping < 0:
            raise ValidationError(f"damping must be >= 0, got {self.damping}")
        if self.plasma_strength < 0:
            raise ValidationError(f"plasma strength must be >= 0, got {self.plasma_strength}")
        if self.kind is MediumKind.LORENTZ and not self.resonance > 0:
            raise ValidationError("lorentz medium needs a positive resonance frequency")


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
        if not self.carrier > 0:
            raise ValidationError(f"carrier must be positive, got {self.carrier}")
        if not self.duration > 0:
            raise ValidationError(f"duration must be positive, got {self.duration}")
        for name in ("center", "span"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"pulse.{name}: must be finite, got {getattr(self, name)}")
        if self.n_samples < 2 or self.n_samples & (self.n_samples - 1):
            raise ValidationError(f"n_samples must be a power of two, got {self.n_samples}")
        if self.span < 8 * self.duration:
            raise ValidationError("time span must cover at least 8 pulse durations")
        nyquist = math.pi * self.n_samples / self.span
        if nyquist <= self.carrier + 6.0 / self.duration:
            raise ValidationError(
                f"Nyquist frequency {nyquist:.4g} does not clear the spectral band "
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


def permittivity(medium: MediumSpec, omega) -> np.ndarray | complex:
    """epsilon(omega) for the medium; array in, array out."""
    w = np.asarray(omega, dtype=complex)
    if medium.kind is MediumKind.VACUUM:
        eps = np.ones_like(w)
    elif medium.kind is MediumKind.LORENTZ:
        eps = 1.0 + medium.plasma_strength**2 / (
            medium.resonance**2 - w**2 - 1j * medium.damping * w
        )
    else:
        denom = w**2 + 1j * medium.damping * w
        with np.errstate(divide="ignore", invalid="ignore"):
            eps = 1.0 - medium.plasma_strength**2 / denom
    if np.isscalar(omega):
        return complex(eps)
    return eps


def refractive_index(medium: MediumSpec, omega) -> np.ndarray | complex:
    """n = sqrt(epsilon) on the absorption branch Im(n) >= 0."""
    n = np.sqrt(np.asarray(permittivity(medium, omega), dtype=complex))
    n = np.where(n.imag < 0, -n, n)
    if np.isscalar(omega):
        return complex(n)
    return n


def group_wavevector_derivative(medium: MediumSpec, omega) -> np.ndarray | complex:
    """dk/domega = n + omega dn/domega, with dn/domega = eps'/(2n) analytically."""
    w = np.asarray(omega, dtype=complex)
    if medium.kind is MediumKind.VACUUM:
        out = np.ones_like(w)
    else:
        if medium.kind is MediumKind.LORENTZ:
            denom = medium.resonance**2 - w**2 - 1j * medium.damping * w
            deps = medium.plasma_strength**2 * (2.0 * w + 1j * medium.damping) / denom**2
        else:
            denom = w**2 + 1j * medium.damping * w
            with np.errstate(divide="ignore", invalid="ignore"):
                deps = medium.plasma_strength**2 * (2.0 * w + 1j * medium.damping) / denom**2
        n = refractive_index(medium, omega)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = n + w * deps / (2.0 * n)
    if np.isscalar(omega):
        return complex(out)
    return out


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
    """Read-only (omega, n, dk/domega) on the FFT grid.  They depend on neither
    the carrier nor the slab thickness, so a sweep over either computes them once."""
    medium = MediumSpec(kind, 1.0, resonance, plasma_strength, damping)
    w = _omegas(n_samples, span)
    out = (w, _on_grid(refractive_index, medium, w), _on_grid(group_wavevector_derivative, medium, w))
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1)
def _slab_factors(kind: MediumKind, resonance: float, plasma_strength: float, damping: float,
                  n_samples: int, span: float, thickness: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only slab factors exp(i k L) and exp(-Im k L), k = n omega, on the FFT
    grid.  A carrier sweep never changes them, so it computes them once; the
    dispersion itself stays keyed without L, so a thickness sweep reuses it."""
    w, n, _ = _grid_dispersion(kind, resonance, plasma_strength, damping, n_samples, span)
    k = n * w
    out = (np.exp(1j * k * thickness), np.exp(-np.imag(k) * thickness))
    for a in out:
        a.flags.writeable = False
    return out


def to_spectrum(field: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """E~ on the FFT grid: dt * sum_t E(t) exp(+i w t).  The unscaled sum is
    scipy's inverse transform under norm="forward"; dt is applied in place."""
    spectrum = scipy.fft.ifft(field, norm="forward")
    spectrum *= pulse.span / pulse.n_samples
    return spectrum


def to_time(spectrum: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """E(t) = sum_w E~(w) exp(-i w t) / (N dt): scipy's forward transform under
    norm="forward" divides by N, and the division by dt is done in place."""
    field = scipy.fft.fft(spectrum, norm="forward")
    field /= pulse.span / pulse.n_samples
    return field


def _time_moment(
    spectrum: np.ndarray, pulse: PulseSpec, times: np.ndarray
) -> tuple[np.ndarray, bool]:
    """q = -i dE~/domega, the spectrum of the time moment t E(t) (exact duality),
    and whether |E(t)|^2 at the window's first or last sample exceeds _EDGE_TOL
    of its peak."""
    field = to_time(spectrum, pulse)
    edge = max(abs(field[0]), abs(field[-1])) ** 2
    truncated = bool(edge > _EDGE_TOL * float(np.max(np.abs(field))) ** 2)
    field *= times
    return to_spectrum(field, pulse), truncated


def _check_aliasing(spectrum: np.ndarray, what: str) -> None:
    peak = float(np.max(np.abs(spectrum)))
    if peak == 0.0:
        raise ZeroFluxError(f"{what} is identically zero")
    n = len(spectrum)
    edge = float(np.max(np.abs(spectrum[n // 2 - 1 : n // 2 + 2])))
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
        ZeroFluxError: if the net energy flux through the plane vanishes.
    """
    s = fields.poynting()
    total = float(np.sum(s))
    if abs(total) < 1e-300 or not np.isfinite(total):
        raise ZeroFluxError("net energy flux through the plane vanishes")
    return float(np.sum(fields.pulse.times() * s) / total)


def _p_operator(spectrum: np.ndarray, q: np.ndarray, n: np.ndarray) -> float:
    """Spectral form of the Poynting centroid: the arrival-time functional of a
    spectrum at a plane with local index n, given its time moment q = -i dE~/domega.
    The flux-weighted moment is Re sum conj(n E~) q over Re sum n |E~|^2, two
    vdots with no temporaries beyond n E~.  By discrete Parseval it equals
    centroid_time of the plane's fields.

    The net flux Re sum n |E~|^2 is zero when it is at most _FLUX_FLOOR of
    sum |n E~| |E~|, the flux the plane would carry with no cancellation: below
    that it is rounding noise (a lossless slab whose spectrum lies under its
    cutoff), and the centroid would be noise divided by noise.  That sum is
    at most the product of the norms ||n E~|| ||E~|| (Cauchy-Schwarz, two more
    vdots), so only a net flux below _FLUX_FLOOR of that product pays for the
    elementwise moduli."""
    ns = n * spectrum
    num = np.vdot(ns, q).real
    den = np.vdot(spectrum, ns).real
    if not np.isfinite(den) or (
        abs(den) <= _FLUX_FLOOR * math.sqrt(np.vdot(ns, ns).real * np.vdot(spectrum, spectrum).real)
        and abs(den) <= _FLUX_FLOOR * np.dot(np.abs(ns), np.abs(spectrum))
    ):
        raise ZeroFluxError("net energy flux through the plane vanishes")
    return float(num / den)


@functools.lru_cache(maxsize=1)
def _entry_phase(center: float, n_samples: int, span: float) -> np.ndarray:
    """Read-only exp(i omega t0) on the FFT grid: the entry pulse's delay factor.
    It depends on neither the carrier nor the medium, so a sweep computes it once."""
    phase = np.exp(1j * center * _omegas(n_samples, span))
    phase.flags.writeable = False
    return phase


def _entry_spectrum(pulse: PulseSpec, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form entry spectrum of pulse.field() and its time moment on the grid w:
    E~_in = T sqrt(2 pi) exp(-(w - w0)^2 T^2 / 2) exp(i w t0) and
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
    detuning = w - pulse.carrier
    envelope = np.exp(-0.5 * (T * detuning) ** 2)
    envelope *= T * math.sqrt(2.0 * math.pi)
    spec_in = envelope * _entry_phase(t0, pulse.n_samples, pulse.span)
    q_in = (t0 + 1j * T**2 * detuning) * spec_in
    return spec_in, q_in


def delay_decomposition(pulse: PulseSpec, medium: MediumSpec) -> DelayReport:
    """Split the slab transit time into net group delay and reshaping delay.

    Group part: flux-spectrum-weighted average of L d(Re k)/domega at the exit.
    Reshaping part: arrival-time shift of the entry pulse when its spectrum is
    attenuated by |exp(i k L)| with no phase applied.  Arrival times are
    spectral centroids (_p_operator), so no field is transformed back in time;
    the entry spectrum and its moment are closed forms (_entry_spectrum).

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
    spec_in, q_in = _entry_spectrum(pulse, w)
    _check_aliasing(spec_in, "entry spectrum")
    spec_out = spec_in * phase
    _check_aliasing(spec_out, "exit spectrum")
    spec_att = spec_in * attenuation

    times = pulse.times()
    t_in = _p_operator(spec_in, q_in, n)
    q_out, out_truncated = _time_moment(spec_out, pulse, times)
    t_out = _p_operator(spec_out, q_out, n)
    delta_t = t_out - t_in

    weight = np.real(n) * np.abs(spec_att) ** 2
    dt_group = float(
        medium.thickness * np.sum(np.real(kprime) * weight) / np.sum(weight)
    )
    q_att, att_truncated = _time_moment(spec_att, pulse, times)
    dt_reshape = _p_operator(spec_att, q_att, n) - t_in

    residual = delta_t - (dt_group + dt_reshape)
    tol_scale = max(abs(delta_t), pulse.duration * 1e-3)
    residual_ok = abs(residual) / tol_scale < 1e-6

    evanescent = False
    if medium.kind is MediumKind.PLASMA:
        below = np.abs(w) < medium.plasma_strength
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
    rate = ref.poynting() - out.poynting()
    total = float(np.sum(rate))
    if abs(total) < 1e-300:
        raise ZeroFluxError("detector absorbs no energy")
    return float(np.sum(pulse.times() * rate) / total)
