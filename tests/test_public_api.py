"""The public surface: every name that wavetime or one of its modules lists in
__all__ resolves, and wavetime.__all__ and every module's __all__ are pinned,
so that a name leaves (or joins) a surface only on purpose.  The packages that
pyproject.toml declares are the ones that wavetime imports."""
import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

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

# Each module's __all__; None for a module that lists none.
MODULE_ALL = {
    "wavetime.cli": {"Scenario", "ResultTable", "load_scenario", "run_scenario", "compare_tables", "main"},
    "wavetime.em_pulse": {
        "MediumKind", "MediumSpec", "PulseSpec", "DelayReport", "permittivity", "refractive_index",
        "to_spectrum", "to_time", "group_wavevector_derivative", "delay_decomposition",
    },
    "wavetime.errors": None,
    "wavetime.first_passage": {
        "LatticeSpec", "DetectionRecord", "evolve_project", "evolve_nonhermitian", "calibrate_gamma",
        "fit_power_law", "zeno_scan",
    },
    "wavetime.potentials": {"Segment", "PotentialProfile", "make_rectangular_barrier"},
    "wavetime.scatter": {
        "wavevector", "solve", "wavefunction_at", "partial_waves", "ScatteringSolution", "PartialWaveSet",
    },
    "wavetime.timescales": {
        "TimescaleReport", "wigner_delay", "dwell_time", "bl_time", "larmor_times", "imag_clock_time",
        "sojourn_transmission", "sojourn_reflection", "full_report",
    },
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


def test_every_module_is_pinned():
    assert sorted(MODULE_ALL) == sorted(MODULES[1:])


@pytest.mark.parametrize("name", sorted(MODULE_ALL))
def test_module_surface_is_pinned(name):
    exported = getattr(importlib.import_module(name), "__all__", None)
    assert (None if exported is None else set(exported)) == MODULE_ALL[name]


ROOT = Path(__file__).resolve().parents[1]

# A distribution's top-level module, where its name is not the distribution's.
MODULE_OF = {"pyyaml": "yaml"}


def test_declared_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    names = (re.match(r"[\w.-]+", requirement).group().lower() for requirement in requirements)
    declared = {MODULE_OF.get(name, name) for name in names}
    imported = set()
    for path in (ROOT / "src" / "wavetime").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert declared == imported - sys.stdlib_module_names - {"wavetime"}
