"""wavetime: timescales of 1D quantum/wave scattering, lattice first passage,
and electromagnetic pulse arrival."""

__version__ = "0.1.0"

from .errors import (
    DerivativeError,
    DivergentIntegrandError,
    GridError,
    LogSingularityError,
    NoOpenChannelError,
    RegimeAmbiguityError,
    ResummationDivergenceError,
    StepSizeError,
    ValidationError,
    WavetimeError,
    ZeroFluxError,
)
from .potentials import PotentialProfile, Segment, make_rectangular_barrier
from .scatter import ScatteringSolution, partial_waves, solve, wavefunction_at
from .timescales import (
    TimescaleReport,
    bl_time,
    dwell_time,
    full_report,
    imag_clock_time,
    larmor_times,
    sojourn_reflection,
    sojourn_transmission,
    wigner_delay,
)

__all__ = [
    "__version__",
    "WavetimeError",
    "ValidationError",
    "NoOpenChannelError",
    "ResummationDivergenceError",
    "DerivativeError",
    "StepSizeError",
    "LogSingularityError",
    "RegimeAmbiguityError",
    "DivergentIntegrandError",
    "ZeroFluxError",
    "GridError",
    "Segment",
    "PotentialProfile",
    "make_rectangular_barrier",
    "ScatteringSolution",
    "solve",
    "partial_waves",
    "wavefunction_at",
    "TimescaleReport",
    "wigner_delay",
    "dwell_time",
    "bl_time",
    "larmor_times",
    "imag_clock_time",
    "sojourn_transmission",
    "sojourn_reflection",
    "full_report",
]
