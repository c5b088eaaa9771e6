"""Spans around wavetime's public functions, recorded from outside the package.

install() replaces module attributes with timing wrappers.  Every caller that
looks the name up at call time is traced: the CLI, other modules, and the
module itself (`solve_spinor` calling `solve`, `zeno_scan` calling
`evolve_project`).  uninstall() restores the originals.  Spans stay in memory
and are written once, when the run ends.

The CLI runs sweep rows on a thread pool, so each span records its thread,
and a span opened on a pool thread with nothing open on that thread takes the
innermost span open on the main thread as its parent.
"""
from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

from wavetime import cli, em_pulse, first_passage, scatter, timescales

# (module, attribute, span name, row span).  A row span is one sweep row; its
# thread CPU time is recorded for cli.pool_wait_frac.  richardson is wrapped
# where timescales looks it up.
WRAPPED = (
    (cli, "load_scenario", "cli.load_scenario", False),
    (cli, "run_scenario", "cli.run_scenario", False),
    (cli, "write_table", "cli.write_table", False),
    (timescales, "full_report", "timescales.full_report", True),
    (timescales, "richardson", "numdiff.richardson", False),
    (scatter, "solve", "scatter.solve", False),
    (scatter, "solve_with_propagation_override", "scatter.solve_with_propagation_override", False),
    (scatter, "partial_waves", "scatter.partial_waves", False),
    (first_passage, "zeno_scan", "first_passage.zeno_scan", False),
    (first_passage, "calibrate_gamma", "first_passage.calibrate_gamma", False),
    (first_passage, "evolve_project", "first_passage.evolve_project", True),
    (first_passage, "evolve_nonhermitian", "first_passage.evolve_nonhermitian", False),
    (em_pulse, "delay_decomposition", "em_pulse.delay_decomposition", True),
    (em_pulse, "to_spectrum", "em_pulse.to_spectrum", False),
    (em_pulse, "to_time", "em_pulse.to_time", False),
)

CHAINS = ("scatter.solve", "scatter.solve_with_propagation_override", "scatter.partial_waves")
TRANSFORMS = ("em_pulse.to_spectrum", "em_pulse.to_time")

# Per-layer metrics, in report order, with their units.
LAYER_METRICS = (
    ("scatter.solve.calls", "count"),
    ("scatter.solve.s", "s"),
    ("scatter.solve_with_propagation_override.calls", "count"),
    ("scatter.solve_with_propagation_override.s", "s"),
    ("scatter.partial_waves.calls", "count"),
    ("scatter.partial_waves.s", "s"),
    ("scatter.chains_per_row", "count"),
    ("timescales.full_report.calls", "count"),
    ("timescales.full_report.s", "s"),
    ("timescales.full_report.self_s", "s"),
    ("timescales.wigner_delay.s", "s"),
    ("timescales.dwell_time.s", "s"),
    ("timescales.larmor_times.s", "s"),
    ("timescales.imag_clock_time.s", "s"),
    ("timescales.sojourn.s", "s"),
    ("numdiff.richardson.calls", "count"),
    ("cli.load_scenario.s", "s"),
    ("cli.run_scenario.s", "s"),
    ("cli.write_table.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.pool_wait_frac", "ratio"),
    ("first_passage.evolve_project.calls", "count"),
    ("first_passage.evolve_project.s", "s"),
    ("first_passage.steps", "count"),
    ("first_passage.evolve_nonhermitian.calls", "count"),
    ("first_passage.evolve_nonhermitian.s", "s"),
    ("first_passage.zeno_scan.s", "s"),
    ("first_passage.calibrate_gamma.s", "s"),
    ("em_pulse.delay_decomposition.calls", "count"),
    ("em_pulse.delay_decomposition.s", "s"),
    ("em_pulse.transforms", "count"),
    ("em_pulse.transforms.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0: no parent
    thread: int
    cpu: float | None  # thread CPU seconds, row spans only
    steps: int | None  # n_steps of an evolve_project call


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    def _wrap(self, original, name: str, row: bool):
        tracer = self
        counts_steps = name == "first_passage.evolve_project"

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = time.thread_time() if row else 0.0
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0 if row else None
                stack.pop()
                steps = args[0].n_steps if counts_steps else None
                tracer.spans.append(
                    Span(sid, name, t0, t1, parent, threading.get_ident(), cpu, steps)
                )

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for module, attr, name, row in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, row))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """All spans as gzipped CSV, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,thread,cpu_s,steps\n")
            for s in self.spans:
                cpu = "" if s.cpu is None else f"{s.cpu:.9f}"
                steps = "" if s.steps is None else s.steps
                fh.write(f"{s.id},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                         f"{s.parent},{s.thread},{cpu},{steps}\n")


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted((max(c.start, start), min(c.end, end)) for c in children):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def layer_metrics(spans: list[Span], passes: int, rows: int) -> dict[str, float]:
    """Per-layer figures per pass from the spans of `passes` traced passes.

    Self time is a span's duration minus the part its child spans cover (for
    full_report: its scatter and numdiff children).  pool_wait_frac is the
    share of row-span wall time not spent in the row thread's own CPU time.
    """
    calls: Counter = Counter()
    busy: dict[str, float] = defaultdict(float)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        children[s.parent].append(s)

    m: dict[str, float] = {}
    for name in (*CHAINS, "timescales.full_report", "first_passage.evolve_project",
                 "first_passage.evolve_nonhermitian", "em_pulse.delay_decomposition"):
        m[f"{name}.calls"] = calls[name] / passes
        m[f"{name}.s"] = busy[name] / passes
    for name in ("cli.load_scenario", "cli.run_scenario", "cli.write_table",
                 "first_passage.zeno_scan", "first_passage.calibrate_gamma"):
        m[f"{name}.s"] = busy[name] / passes
    m["scatter.chains_per_row"] = sum(calls[n] for n in CHAINS) / (rows * passes) if rows else 0.0
    m["timescales.full_report.self_s"] = sum(
        (s.end - s.start) - _covered(s.start, s.end, children[s.id])
        for s in spans if s.name == "timescales.full_report"
    ) / passes
    m["numdiff.richardson.calls"] = calls["numdiff.richardson"] / passes
    m["first_passage.steps"] = sum(
        s.steps for s in spans if s.name == "first_passage.evolve_project"
    ) / passes
    m["em_pulse.transforms"] = sum(calls[n] for n in TRANSFORMS) / passes
    m["em_pulse.transforms.s"] = sum(busy[n] for n in TRANSFORMS) / passes
    row_wall = sum(s.end - s.start for s in spans if s.cpu is not None)
    row_cpu = sum(s.cpu for s in spans if s.cpu is not None)
    m["cli.pool_wait_frac"] = 1.0 - row_cpu / row_wall if row_wall > 0 else 0.0
    return m
