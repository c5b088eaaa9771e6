"""Exception types shared across the package, the field check that every
spec runs on construction, and the reason text of a refused value."""
import math
import numbers


class WavetimeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WavetimeError):
    """An input value or configuration violates a documented invariant."""


class NoOpenChannelError(WavetimeError):
    """Requested energy is below an asymptotic potential; no propagating lead."""


class ResummationDivergenceError(WavetimeError):
    """The scattering series does not converge (|r21 r23 e^{2ik'L}| >= 1, a
    unit-gain loop, or a propagation factor exp(i k d) beyond float range)."""


class DerivativeError(WavetimeError):
    """A finite-difference limit failed to converge or probe data is unusable."""


class StepSizeError(DerivativeError):
    """Phase jump between derivative probes too large for reliable unwrapping."""


class LogSingularityError(WavetimeError):
    """Logarithmic derivative requested where the amplitude vanishes."""


class RegimeAmbiguityError(WavetimeError):
    """Energy sits exactly at a barrier top; propagating/evanescent branch undefined."""


class DivergentIntegrandError(WavetimeError):
    """Integrand diverges (e.g. 1/kappa at E equal to a segment potential)."""


class ZeroFluxError(WavetimeError):
    """No net flux through the plane; a flux-normalised quantity is undefined."""


class GridError(WavetimeError):
    """Sampling grid is inadequate (aliasing or spectral leakage detected)."""


def _finite(value, name: str, integer: bool = False) -> float | int:
    """value as a float, or as an int when integer is set; a ValidationError
    ("name: why") unless it is a finite real number (a boolean is not) and,
    when integer is set, integral (41.0 is 41)."""
    try:
        out = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond float range
        out = math.nan
    if not math.isfinite(out):
        raise ValidationError(f"{name}: must be a finite real number, got {value!r}")
    if not integer:
        return out
    if not out.is_integer():
        raise ValidationError(f"{name}: must be an integer, got {value!r}")
    return int(out)


def _reason(exc: WavetimeError) -> str:
    """The reason code of a refused value: "ExcName: message"."""
    return f"{type(exc).__name__}: {exc}"
