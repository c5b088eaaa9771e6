"""The benchmark workloads: seeded scenario files, one pass each, and the
reference tables their value cells are checked against.

Every sweep grid is stratified.  The axis is cut into equal strata (linear or
geometric) and each stratum holds CANDIDATES fixed points; a seed picks one
point per stratum.  Grids therefore differ between seeds while the work per
pass stays the same, and one reference table, computed at every candidate
point, covers every seed.

Sizes are chosen so that one pass takes about two seconds on a 2-core x86
machine, which leaves several passes per run.
"""
from __future__ import annotations

import os
import random
import time
import traceback
from dataclasses import dataclass

import yaml

from wavetime import cli, first_passage, timescales
from wavetime.errors import WavetimeError
from wavetime.potentials import PotentialProfile, Segment

import cells

CANDIDATES = 2


def stratified(lo: float, hi: float, strata: int, geometric: bool = False) -> tuple[float, ...]:
    """All candidate points, stratum by stratum, CANDIDATES per stratum."""
    points = []
    for i in range(strata):
        for j in range(CANDIDATES):
            u = (i + (j + 0.5) / CANDIDATES) / strata
            points.append(lo * (hi / lo) ** u if geometric else lo + u * (hi - lo))
    return tuple(points)


def pick(candidates: tuple[float, ...], strata: int, rng: random.Random) -> list[float]:
    """One candidate per stratum."""
    per = len(candidates) // strata
    return [candidates[i * per + rng.randrange(per)] for i in range(strata)]


# ---------------------------------------------------------------------------
# parts: a workload is one or more of these, run back to back in each pass


@dataclass(frozen=True)
class CliSweep:
    """One `wavetime run` scenario whose sweep grid the seed picks."""

    part: str
    body: dict
    parameter: str
    candidates: tuple[float, ...]
    strata: int
    rtol: float
    atol: float

    def prepare(self, workdir: str, rng: random.Random) -> "PreparedSweep":
        return PreparedSweep(self, pick(self.candidates, self.strata, rng), workdir)

    def write_reference(self, path: str, workdir: str) -> None:
        run = PreparedSweep(self, list(self.candidates), workdir)
        run.load()
        run.run()
        columns, rows = run.result()
        cells.write_table(path, columns, rows)

    def expected(self, columns: list[str], reference: dict, grid: list[float]) -> tuple[list[str], dict]:
        return columns, {key: reference[key] for key in grid}


class PreparedSweep:
    """A CliSweep with its grid fixed and its scenario file written."""

    def __init__(self, sweep: CliSweep, grid: list[float], workdir: str):
        self.definition = sweep
        self.grid = grid
        self.rows = len(grid)
        self.scenario_path = os.path.join(workdir, f"{sweep.part}.yaml")
        self.output_path = os.path.join(workdir, f"{sweep.part}.csv")
        scenario = {
            "schema_version": 1,
            **sweep.body,
            "sweep": {"parameter": sweep.parameter, "grid": grid},
            "output": {"path": self.output_path, "format": "csv"},
        }
        with open(self.scenario_path, "w") as fh:
            yaml.safe_dump(scenario, fh)
        self.scenario = None
        self.error: str | None = None

    def load(self) -> None:
        self.scenario = cli.load_scenario(self.scenario_path)

    def outputs(self) -> list[str]:
        """The CSV table and its JSON mirror."""
        return [self.output_path, os.path.splitext(self.output_path)[0] + ".json"]

    def clear(self) -> None:
        # Each pass writes fresh files, as the first run of a scenario does:
        # ext4 flushes a file truncated and rewritten in place when it is
        # closed, which adds tens of milliseconds of disk noise per file.
        for path in self.outputs():
            if os.path.exists(path):
                os.remove(path)

    def run(self) -> None:
        table = cli.run_scenario(self.scenario)
        cli.write_table(table, self.scenario.output_path, self.scenario.output_format)

    def result(self) -> tuple[list[str], dict]:
        return cells.read_table(self.output_path)

    def output_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.outputs() if os.path.exists(p))


@dataclass(frozen=True)
class GammaCalibration:
    """Library `calibrate_gamma` over a seeded grid of absorbing strengths.

    The reference holds the deviation of every candidate gamma on its own, so
    the expected result for any seed is the candidate with the least deviation.
    """

    part: str
    spec: dict
    window: tuple[int, int]
    candidates: tuple[float, ...]
    strata: int
    rtol: float
    atol: float

    def lattice(self) -> first_passage.LatticeSpec:
        return first_passage.LatticeSpec(**self.spec)

    def prepare(self, workdir: str, rng: random.Random) -> "PreparedCalibration":
        return PreparedCalibration(self, pick(self.candidates, self.strata, rng))

    def write_reference(self, path: str, workdir: str) -> None:
        spec = self.lattice()
        rows = {g: [first_passage.calibrate_gamma(spec, self.window, [g])[1]] for g in self.candidates}
        cells.write_table(path, ["deviation"], rows)

    def expected(self, columns: list[str], reference: dict, grid: list[float]) -> tuple[list[str], dict]:
        best = min(grid, key=lambda g: reference[g][0])
        return ["gamma", *columns], {0.0: [best, reference[best][0]]}


class PreparedCalibration:
    """A GammaCalibration with its gamma grid fixed."""

    def __init__(self, calibration: GammaCalibration, grid: list[float]):
        self.definition = calibration
        self.grid = grid
        self.rows = 0
        self.spec = calibration.lattice()
        self.value: tuple[float, float] | None = None
        self.error: str | None = None

    def load(self) -> None:
        pass

    def clear(self) -> None:
        self.value = None

    def run(self) -> None:
        self.value = first_passage.calibrate_gamma(self.spec, self.definition.window, self.grid)

    def result(self) -> tuple[list[str], dict]:
        return ["gamma", "deviation"], {0.0: list(self.value)}

    def output_bytes(self) -> int:
        return 0


def check(part, reference_columns: list[str], reference: dict) -> cells.CellTally:
    """Tally one prepared part's latest output against its reference; output
    with other columns than expected counts as missing."""
    definition = part.definition
    columns, expected = definition.expected(reference_columns, reference, part.grid)
    got = None
    if part.error is None:
        out_columns, rows = part.result()
        if out_columns == columns:
            got = rows
    return cells.tally(expected, got, definition.rtol, definition.atol)


# ---------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple
    # (profile, channel) for the per-clock timings of clock workloads
    clocks: tuple[PotentialProfile, str] | None = None


def _profile(body: dict) -> PotentialProfile:
    cfg = body["profile"]
    return PotentialProfile(
        segments=tuple(Segment(**seg) for seg in cfg["segments"]),
        clock_region=tuple(cfg["clock_region"]),
    )


def _clock_sweep(part: str, segments: list, region: list, channel: str, lo, hi, strata) -> CliSweep:
    body = {
        "kind": "timescale_sweep",
        "profile": {"segments": segments, "clock_region": region},
        "channel": channel,
    }
    return CliSweep(part, body, "energy", stratified(lo, hi, strata), strata, rtol=1e-6, atol=1e-9)


# 12-segment superlattice: barriers V=5, L=0.6 alternating with wells V=1, L=0.9.
_STACK = _clock_sweep(
    "sweep",
    [{"length": 0.6, "v_real": 5.0} if i % 2 == 0 else {"length": 0.9, "v_real": 1.0} for i in range(12)],
    [4, 7], "transmission", 0.3, 9.0, 400,
)
_BARRIER = _clock_sweep("sweep", [{"length": 1.0, "v_real": 4.0}], [0, 0], "reflection", 0.3, 12.0, 2500)

_ZENO = CliSweep(
    "tau",
    {
        "kind": "first_passage",
        "lattice": {"n_sites": 501, "hopping": 1.0, "initial_site": 250, "detector_sites": [260],
                    "tau": 0.1, "n_steps": 1},
        "t_fixed": 20.0,
    },
    "tau", stratified(0.02, 1.0, 24, geometric=True), 24, rtol=1e-9, atol=1e-12,
)
# Power-law run: the detector sits 100 sites from the start, and the chain
# edges are far enough away that no echo returns within the 2000 steps.
_STEPS = CliSweep(
    "step",
    {
        "kind": "first_passage",
        "lattice": {"n_sites": 1201, "hopping": 1.0, "initial_site": 500, "detector_sites": [600],
                    "tau": 0.25, "n_steps": 2000},
    },
    "step", tuple(float(n) for n in range(1, 2001)), 500, rtol=1e-9, atol=1e-12,
)
_GAMMA = GammaCalibration(
    "gamma",
    {"n_sites": 161, "hopping": 1.0, "initial_site": 79, "detector_sites": frozenset({80}),
     "tau": 0.25, "n_steps": 200},
    (20, 150), stratified(0.2, 200.0, 40, geometric=True), 40, rtol=1e-6, atol=1e-12,
)

_PULSE = CliSweep(
    "sweep",
    {
        "kind": "em_pulse",
        "pulse": {"carrier": 10.0, "duration": 2.0, "center": 60.0, "n_samples": 16384, "span": 200.0},
        "medium": {"model": "plasma", "thickness": 2.0, "plasma_strength": 8.0, "damping": 0.05},
    },
    "carrier", stratified(4.0, 40.0, 500), 500, rtol=1e-9, atol=1e-9,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("stack_transmission", (_STACK,), (_profile(_STACK.body), "transmission")),
        Workload("barrier_reflection", (_BARRIER,), (_profile(_BARRIER.body), "reflection")),
        Workload("lattice_detection", (_ZENO, _STEPS, _GAMMA)),
        Workload("pulse_dispersion", (_PULSE,)),
    )
}


def reference_path(directory: str, workload: str, part: str) -> str:
    return os.path.join(directory, f"{workload}.{part}.csv.gz")


CLOCK_METRICS = tuple(
    f"timescales.{name}.s"
    for name in ("wigner_delay", "dwell_time", "larmor_times", "imag_clock_time", "sojourn")
)


def clock_seconds(profile: PotentialProfile, channel: str, grid: list[float]) -> dict[str, float]:
    """Wall time of each public clock called on its own over the grid."""
    sojourn = timescales.sojourn_reflection if channel == "reflection" else timescales.sojourn_transmission
    clocks = {
        "wigner_delay": lambda e: timescales.wigner_delay(profile, e, channel=channel),
        "dwell_time": lambda e: timescales.dwell_time(profile, e),
        "larmor_times": lambda e: timescales.larmor_times(profile, e, channel=channel),
        "imag_clock_time": lambda e: timescales.imag_clock_time(profile, e, channel=channel),
        "sojourn": lambda e: sojourn(profile, e),
    }
    out = {}
    for name, fn in clocks.items():
        t0 = time.perf_counter()
        for energy in grid:
            try:
                fn(energy)
            except WavetimeError:
                pass
        out[f"timescales.{name}.s"] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# a run: one workload at one seed, passes back to back


class Run:
    """A workload's seeded parts, their references, and the tally of value
    cells over every pass."""

    def __init__(self, workload: Workload, workdir: str, seed: int, reference_dir: str):
        self.workload = workload
        rng = random.Random(f"{workload.name}/{seed}")
        self.parts = [part.prepare(workdir, rng) for part in workload.parts]
        self.references = [
            cells.read_table(reference_path(reference_dir, workload.name, part.part))
            for part in workload.parts
        ]
        self.tally = cells.CellTally()
        self.errors: list[str] = []

    @property
    def rows(self) -> int:
        return sum(p.rows for p in self.parts)

    def load(self) -> None:
        for part in self.parts:
            part.load()

    def one_pass(self) -> float:
        """Run every part once and return the wall time; then check the output."""
        for part in self.parts:
            part.clear()
        t0 = time.perf_counter()
        for part in self.parts:
            part.error = None
            try:
                part.run()
            except Exception as exc:  # the pass goes on; the part's cells count as missing
                part.error = f"{type(exc).__name__}: {exc}"
                if not self.errors:
                    traceback.print_exc()
        elapsed = time.perf_counter() - t0
        for part, (columns, reference) in zip(self.parts, self.references):
            if part.error is not None:
                self.errors.append(f"{part.definition.part}: {part.error}")
            self.tally.add(check(part, columns, reference))
        return elapsed

    def timed_passes(self, seconds: float, minimum: int) -> list[float]:
        times = []
        start = time.perf_counter()
        while len(times) < minimum or time.perf_counter() - start < seconds:
            times.append(self.one_pass())
        return times
