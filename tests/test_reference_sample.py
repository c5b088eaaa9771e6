"""A fixed sample of the benchmark's reference cells, checked with the tests.

perfbench/reference holds one table per workload part, computed at every
candidate sweep point.  Every STRIDE-th candidate of each of the six tables is
run here through the path the benchmark takes and tallied at the table's own
rtol/atol, so a kernel change that moves a reference cell fails before the
benchmark runs.  The perfbench modules are loaded from their files, and
nothing under perfbench/ is written."""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STRIDE = 40


def load(name):
    # Registered under a prefixed name, which dataclasses look up while the
    # module executes.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """perfbench/workloads.py and the cells module it imports by that name."""
    cells = load("cells")
    saved = sys.modules.get("cells")
    sys.modules["cells"] = cells
    try:
        return load("workloads"), cells
    finally:
        if saved is None:
            del sys.modules["cells"]
        else:
            sys.modules["cells"] = saved


workloads, cells = load_workloads()
PARTS = [(name, part) for name, w in workloads.WORKLOADS.items() for part in w.parts]


@pytest.mark.parametrize("workload, part", PARTS, ids=[f"{n}.{p.part}" for n, p in PARTS])
def test_sampled_cells_match_reference(tmp_path, workload, part):
    grid = list(part.candidates[::STRIDE])
    if isinstance(part, workloads.CliSweep):
        run = workloads.PreparedSweep(part, grid, str(tmp_path))
    else:
        run = workloads.PreparedCalibration(part, grid)
    run.load()
    run.run()
    path = workloads.reference_path(str(PERFBENCH / "reference"), workload, part.part)
    columns, reference = cells.read_table(path)
    tally = workloads.check(run, columns, reference)
    assert tally.attempted >= len(grid)
    assert tally.mismatched == 0, (
        f"{tally.mismatched} of {tally.attempted} sampled cells differ from {path} "
        f"beyond rtol {part.rtol}, atol {part.atol}"
    )
