"""The public surface: every name that wavetime or one of its modules lists in
__all__ resolves, and wavetime.__all__ is pinned, so that a name leaves (or
joins) the package surface only on purpose."""
import importlib
import pkgutil

import pytest

import wavetime

MODULES = ["wavetime"] + [
    f"wavetime.{info.name}" for info in pkgutil.iter_modules(wavetime.__path__)
]

PACKAGE_ALL = {
    "__version__",
    # errors
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
    # potentials
    "Segment",
    "PotentialProfile",
    "make_rectangular_barrier",
    # scatter
    "ScatteringSolution",
    "solve",
    "partial_waves",
    "wavefunction_at",
    # timescales
    "TimescaleReport",
    "wigner_delay",
    "dwell_time",
    "bl_time",
    "larmor_times",
    "imag_clock_time",
    "sojourn_transmission",
    "sojourn_reflection",
    "full_report",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_star_import_gives_the_package_surface():
    namespace = {}
    exec("from wavetime import *", namespace)
    assert PACKAGE_ALL <= set(namespace)


def test_package_surface_is_pinned():
    assert sorted(wavetime.__all__) == sorted(PACKAGE_ALL)
