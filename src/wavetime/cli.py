"""Batch front end: scenario files in, deterministic sweep tables out.

A scenario is one YAML file with a versioned schema.  Unknown keys are hard
errors (silent typos corrupt physics parameters).  Sweep rows run in grid
order on the calling thread, each row an independent kernel call, so a sweep
split into parts writes the same rows as the whole.  Per-point failures become
reason-coded rows instead of aborting the sweep.

Verbs:
    wavetime run <scenario.yaml>
    wavetime validate <scenario.yaml>
    wavetime compare <a.csv> <b.csv> --tol 1e-6 [--tol column=1e-4 ...]
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field, replace

import click
import yaml

from . import __version__, em_pulse, first_passage, timescales
from .errors import ValidationError, WavetimeError
from .potentials import PotentialProfile, Segment, validate as validate_profile

__all__ = ["Scenario", "ResultTable", "load_scenario", "run_scenario", "compare_tables", "main"]

SCHEMA_VERSION = 1
_KINDS = ("timescale_sweep", "first_passage", "em_pulse")

METHOD_LABELS = (
    "wigner",
    "dwell",
    "bl",
    "larmor_y",
    "larmor_z",
    "larmor_pythagorean",
    "imag_clock",
    "sojourn",
)


@dataclass(frozen=True)
class Scenario:
    kind: str
    payload: dict
    sweep_parameter: str
    sweep_grid: tuple[float, ...]
    output_path: str
    output_format: str
    digest: str


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[list]
    metadata: dict = field(default_factory=dict)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _require_keys(mapping: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where}: must be a mapping, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown, key=repr)}")
    missing = required - set(mapping)
    if missing:
        raise ValidationError(f"{where}: missing key(s) {sorted(missing)}")


_INTEGER_FIELDS = frozenset({"n_samples", "n_sites", "initial_site", "n_steps"})


def _number(value, where: str, integer: bool = False) -> float | int:
    """A scalar field as a float, or as an int; a ValidationError names the field."""
    try:
        # YAML's !!binary, which float() would parse (b"1"), and booleans,
        # which are ints to Python
        if isinstance(value, (bytes, bool)):
            raise TypeError
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}: expected a number, got {value!r}") from None
    if integer and not out.is_integer():
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return int(out) if integer else out


def _numbers(values, where: str, integer: bool = False) -> list:
    if not isinstance(values, list):
        raise ValidationError(f"{where}: must be a list, got {values!r}")
    return [_number(v, where, integer) for v in values]


def _scalars(cfg: dict, where: str, exclude: tuple[str, ...] = ()) -> dict:
    """The scalar fields of cfg as numbers, keyed by their dataclass field names."""
    return {k: _number(v, f"{where}.{k}", integer=k in _INTEGER_FIELDS)
            for k, v in cfg.items() if k not in exclude}


def _parse_profile(cfg: dict) -> PotentialProfile:
    _require_keys(cfg, {"segments", "clock_region", "v_left", "v_right"}, {"segments"}, "profile")
    segments = []
    if not isinstance(cfg["segments"], list):
        raise ValidationError(f"profile.segments: must be a list, got {cfg['segments']!r}")
    for i, seg in enumerate(cfg["segments"]):
        where = f"profile.segments[{i}]"
        _require_keys(seg, {"length", "v_real", "v_imag", "omega_larmor"}, {"length", "v_real"}, where)
        segments.append(Segment(**_scalars(seg, where)))
    region = cfg.get("clock_region")
    if region is not None:
        region = tuple(_numbers(region, "profile.clock_region", integer=True))
        if len(region) != 2:
            raise ValidationError(f"profile.clock_region: expected [first, last], got {list(region)}")
    profile = PotentialProfile(
        segments=tuple(segments),
        clock_region=region,
        **_scalars(cfg, "profile", exclude=("segments", "clock_region")),
    )
    problems = validate_profile(profile)
    if problems:
        raise ValidationError("profile: " + "; ".join(problems))
    return profile


def _parse_lattice(cfg: dict) -> first_passage.LatticeSpec:
    _require_keys(
        cfg,
        {"n_sites", "hopping", "initial_site", "detector_sites", "tau", "n_steps"},
        {"n_sites", "hopping", "initial_site", "detector_sites", "tau", "n_steps"},
        "lattice",
    )
    sites = _numbers(cfg["detector_sites"], "lattice.detector_sites", integer=True)
    return first_passage.LatticeSpec(
        detector_sites=frozenset(sites),
        **_scalars(cfg, "lattice", exclude=("detector_sites",)),
    )


def _parse_t_fixed(payload: dict, spec: first_passage.LatticeSpec) -> float:
    t_fixed = _number(payload.get("t_fixed", 5.0 / spec.hopping), "t_fixed")
    if not (math.isfinite(t_fixed) and t_fixed > 0):
        raise ValidationError(f"t_fixed: must be positive and finite, got {t_fixed}")
    return t_fixed


def _parse_pulse(cfg: dict) -> em_pulse.PulseSpec:
    _require_keys(
        cfg,
        {"carrier", "duration", "center", "n_samples", "span"},
        {"carrier", "duration", "center", "n_samples", "span"},
        "pulse",
    )
    return em_pulse.PulseSpec(**_scalars(cfg, "pulse"))


def _parse_medium(cfg: dict) -> em_pulse.MediumSpec:
    _require_keys(
        cfg,
        {"model", "thickness", "resonance", "plasma_strength", "damping"},
        {"model", "thickness"},
        "medium",
    )
    try:
        kind = em_pulse.MediumKind(cfg["model"])
    except ValueError:
        raise ValidationError(f"medium.model: unknown model {cfg['model']!r}") from None
    return em_pulse.MediumSpec(kind=kind, **_scalars(cfg, "medium", exclude=("model",)))


_SWEEP_PARAMS = {
    "timescale_sweep": ("energy",),
    "first_passage": ("step", "tau"),
    "em_pulse": ("carrier", "thickness"),
}

_PAYLOAD_KEYS = {
    "timescale_sweep": ({"profile", "channel"}, {"profile"}),
    "first_passage": ({"lattice", "t_fixed"}, {"lattice"}),
    "em_pulse": ({"pulse", "medium"}, {"pulse", "medium"}),
}


def load_scenario(path: str) -> Scenario:
    """Parse and validate one scenario file.

    Raises:
        ValidationError: naming the offending field on any schema violation.
    """
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario file is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("scenario file must contain a mapping")
    top_allowed = {"schema_version", "kind", "sweep", "output"}
    payload_allowed = {"profile", "lattice", "pulse", "medium", "channel", "t_fixed"}
    _require_keys(
        raw,
        top_allowed | payload_allowed,
        {"schema_version", "kind", "sweep", "output"},
        "scenario",
    )
    if raw["schema_version"] != SCHEMA_VERSION or isinstance(raw["schema_version"], bool):
        raise ValidationError(
            f"schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']}"
        )
    kind = raw["kind"]
    if kind not in _KINDS:
        raise ValidationError(f"kind: must be one of {_KINDS}, got {kind!r}")
    allowed, required = _PAYLOAD_KEYS[kind]
    _require_keys(
        {k: v for k, v in raw.items() if k not in top_allowed},
        allowed,
        required,
        f"scenario ({kind})",
    )

    sweep = raw["sweep"]
    _require_keys(sweep, {"parameter", "grid"}, {"parameter", "grid"}, "sweep")
    if sweep["parameter"] not in _SWEEP_PARAMS[kind]:
        raise ValidationError(
            f"sweep.parameter: {sweep['parameter']!r} not valid for kind {kind} "
            f"(allowed: {sorted(_SWEEP_PARAMS[kind])})"
        )
    step = sweep["parameter"] == "step"
    grid = [float(v) for v in _numbers(sweep["grid"], "sweep.grid", integer=step)]
    if not grid:
        raise ValidationError("sweep.grid: must be non-empty")
    if not all(map(math.isfinite, grid)):
        raise ValidationError(f"sweep.grid: values must be finite, got {grid}")
    if not (all(a < b for a, b in zip(grid, grid[1:])) or all(a > b for a, b in zip(grid, grid[1:]))):
        raise ValidationError("sweep.grid: must be strictly monotone")

    output = raw["output"]
    _require_keys(output, {"path", "format"}, {"path", "format"}, "output")
    if output["format"] not in ("csv", "json"):
        raise ValidationError(f"output.format: must be csv or json, got {output['format']!r}")
    if not isinstance(output["path"], str) or not output["path"]:
        raise ValidationError(f"output.path: must be a non-empty string, got {output['path']!r}")

    payload = {k: raw[k] for k in allowed if k in raw}
    # Parse eagerly so validation failures surface in `validate`.
    if kind == "timescale_sweep":
        _parse_profile(payload["profile"])
        channel = payload.get("channel", "transmission")
        if channel not in ("transmission", "reflection"):
            raise ValidationError(f"channel: must be transmission or reflection, got {channel!r}")
    elif kind == "first_passage":
        _parse_t_fixed(payload, _parse_lattice(payload["lattice"]))
    else:
        _parse_pulse(payload["pulse"])
        _parse_medium(payload["medium"])

    digest_src = json.dumps(
        {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload,
         "sweep": {"parameter": sweep["parameter"], "grid": grid}},
        sort_keys=True,
    )
    return Scenario(
        kind=kind,
        payload=payload,
        sweep_parameter=sweep["parameter"],
        sweep_grid=tuple(grid),
        output_path=output["path"],
        output_format=output["format"],
        digest=hashlib.sha256(digest_src.encode()).hexdigest()[:16],
    )


# ---------------------------------------------------------------------------
# sweep execution


def _timescale_row(profile: PotentialProfile, channel: str, energy: float) -> list:
    try:
        report = timescales.full_report(profile, energy, channel=channel)
    except WavetimeError as exc:
        return [energy] + [None] * len(METHOD_LABELS) + [f"{type(exc).__name__}: {exc}"]
    cells = [report.entries.get(label) for label in METHOD_LABELS]
    reason = "; ".join(
        f"{label}: {why}" for label, why in sorted(report.reasons.items())
    )
    return [energy] + cells + [reason or None]


def _run_timescale(scenario: Scenario) -> ResultTable:
    profile = _parse_profile(scenario.payload["profile"])
    channel = scenario.payload.get("channel", "transmission")
    rows = [_timescale_row(profile, channel, e) for e in scenario.sweep_grid]
    return ResultTable(columns=["energy", *METHOD_LABELS, "reason"], rows=rows)


def _zeno_row(spec: first_passage.LatticeSpec, tau: float, t_fixed: float) -> list:
    try:
        ((_, survival),) = first_passage.zeno_scan(spec, [tau], t_fixed)
    except WavetimeError as exc:
        return [tau, None, f"{type(exc).__name__}: {exc}"]
    return [tau, survival, None]


def _run_first_passage(scenario: Scenario) -> ResultTable:
    spec = _parse_lattice(scenario.payload["lattice"])
    if scenario.sweep_parameter == "tau":
        t_fixed = _parse_t_fixed(scenario.payload, spec)
        rows = [_zeno_row(spec, tau, t_fixed) for tau in scenario.sweep_grid]
        return ResultTable(columns=["tau", "survival", "reason"], rows=rows)
    # step sweep: indices into a single stroboscopic run
    record = first_passage.evolve_project(spec)
    rows = []
    for v in scenario.sweep_grid:
        n = int(v)
        if 1 <= n <= spec.n_steps:
            rows.append([float(n), record.p[n - 1], record.survival[n - 1], None])
        else:
            rows.append([float(n), None, None, f"step {n} outside 1..{spec.n_steps}"])
    return ResultTable(columns=["step", "p", "survival", "reason"], rows=rows)


def _em_row(pulse: em_pulse.PulseSpec, medium: em_pulse.MediumSpec, parameter: str, value: float) -> list:
    try:
        # The specs validate themselves, so a bad sweep value is a bad row.
        if parameter == "carrier":
            pulse = replace(pulse, carrier=value)
        else:
            medium = replace(medium, thickness=value)
        rep = em_pulse.delay_decomposition(pulse, medium)
    except WavetimeError as exc:
        return [value] + [None] * 7 + [f"{type(exc).__name__}: {exc}"]
    flags = []
    if not rep.residual_ok:
        flags.append("residual_above_tolerance")
    if rep.evanescent_regime:
        flags.append("evanescent_regime")
    if rep.window_truncated:
        flags.append("window_truncated")
    return [
        value, rep.t_in, rep.t_out, rep.delta_t, rep.delta_t_group,
        rep.delta_t_reshape, rep.residual, "|".join(flags) or None, None,
    ]


def _run_em(scenario: Scenario) -> ResultTable:
    pulse = _parse_pulse(scenario.payload["pulse"])
    medium = _parse_medium(scenario.payload["medium"])
    rows = [_em_row(pulse, medium, scenario.sweep_parameter, v) for v in scenario.sweep_grid]
    return ResultTable(
        columns=[scenario.sweep_parameter, "t_in", "t_out", "delta_t",
                 "delta_t_group", "delta_t_reshape", "residual", "flags", "reason"],
        rows=rows,
    )


def run_scenario(scenario: Scenario) -> ResultTable:
    """Execute a sweep; rows are ordered by sweep index, failures reason-coded."""
    runner = {
        "timescale_sweep": _run_timescale,
        "first_passage": _run_first_passage,
        "em_pulse": _run_em,
    }[scenario.kind]
    table = runner(scenario)
    table.metadata = {
        "units": "natural units: hbar = 1, 2m = 1 (quantum); c = 1 (electromagnetic)",
        "tool_version": __version__,
        "scenario_digest": scenario.digest,
    }
    return table


def _render_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    for key, val in sorted(table.metadata.items()):
        buf.write(f"# {key}: {val}\r\n")
    writer = csv.writer(buf)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _render_json(table: ResultTable) -> str:
    rows = [
        {col: (_fmt(v) if isinstance(v, float) else v) for col, v in zip(table.columns, row)}
        for row in table.rows
    ]
    return json.dumps(
        {"metadata": table.metadata, "columns": table.columns, "rows": rows},
        indent=2, sort_keys=True,
    ) + "\n"


def write_table(table: ResultTable, path: str, fmt: str) -> None:
    text = _render_csv(table) if fmt == "csv" else _render_json(table)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    if fmt == "csv":
        # JSON mirror carrying the same rows plus metadata, for diagnostics.
        with open(os.path.splitext(path)[0] + ".json", "w") as fh:
            fh.write(_render_json(table))


# A timescale reason joins "label: ExcName: message" parts; an EM row's reason,
# or a timescale row that failed whole, is one "ExcName: message".
_LABELLED_CAUSE = re.compile(r"(?:^|; )(\w+): (?=\w+Error: )")


def _reason_causes(reason: str) -> list[str]:
    labels = _LABELLED_CAUSE.findall(reason)
    if labels:
        return labels
    head, sep, _ = reason.partition(": ")
    return [head] if sep and head.endswith("Error") else ["other"]


def _reason_summary(table: ResultTable) -> str:
    """One line on the reason-coded rows of a sweep: their number, and how many
    rows name each method label (timescale sweeps) or exception (other sweeps).
    A lattice step outside the run is counted as "other"."""
    reasons = [row[-1] for row in table.rows if row[-1] is not None]
    counts = Counter(cause for reason in reasons for cause in _reason_causes(reason))
    line = f"reason-coded rows: {len(reasons)} of {len(table.rows)}"
    if counts:
        line += " (" + ", ".join(f"{cause}: {n}" for cause, n in sorted(counts.items())) + ")"
    return line


# ---------------------------------------------------------------------------
# comparison


def _read_csv_table(path: str) -> ResultTable:
    metadata = {}
    with open(path, newline="") as fh:
        header_rows = []
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition(":")
                metadata[key.strip()] = val.strip()
            else:
                header_rows.append(line)
    reader = csv.reader(header_rows)
    columns = next(reader)
    rows = [list(r) for r in reader]
    return ResultTable(columns=columns, rows=rows, metadata=metadata)


def compare_tables(
    a: ResultTable, b: ResultTable, tolerances: dict[str, float], default_tol: float
) -> list[str]:
    """Per-cell relative comparison; returns failure descriptions (empty = pass).

    Raises:
        ValidationError: if the column sets differ, row counts mismatch, or a
            per-column tolerance names a column the tables do not have.
    """
    if a.columns != b.columns:
        raise ValidationError(f"column mismatch: {a.columns} vs {b.columns}")
    unknown = [col for col in tolerances if col not in a.columns]
    if unknown:
        raise ValidationError(
            f"--tol: no column named {', '.join(map(repr, unknown))} "
            f"(columns: {', '.join(a.columns)})"
        )
    if len(a.rows) != len(b.rows):
        raise ValidationError(f"row count mismatch: {len(a.rows)} vs {len(b.rows)}")
    failures = []
    for i, (ra, rb) in enumerate(zip(a.rows, b.rows)):
        for col, va, vb in zip(a.columns, ra, rb):
            try:
                fa, fb = float(va), float(vb)
            except (TypeError, ValueError):
                if (va or "") != (vb or ""):
                    failures.append(f"row {i}, {col}: {va!r} != {vb!r}")
                continue
            tol = tolerances.get(col, default_tol)
            scale = max(abs(fa), abs(fb), 1e-300)
            rel = abs(fa - fb) / scale
            if not (rel <= tol) and not (math.isnan(fa) and math.isnan(fb)):
                failures.append(f"row {i}, {col}: {fa:.17g} vs {fb:.17g} (rel {rel:.3g} > {tol:g})")
    return failures


# ---------------------------------------------------------------------------
# click entry points


@click.group()
def main() -> None:
    """Timescales of wave traversal: scattering clocks, lattice first passage,
    and pulse arrival, driven by scenario files."""


@main.command("run")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
def run_cmd(scenario_file: str) -> None:
    """Execute a scenario sweep and write its result table."""
    try:
        scenario = load_scenario(scenario_file)
        table = run_scenario(scenario)
        write_table(table, scenario.output_path, scenario.output_format)
    except (WavetimeError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(_reason_summary(table), err=True)
    click.echo(f"wrote {scenario.output_path} ({len(table.rows)} rows)")


@main.command("validate")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
def validate_cmd(scenario_file: str) -> None:
    """Check a scenario file against the schema without running it."""
    try:
        scenario = load_scenario(scenario_file)
    except WavetimeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"valid: kind={scenario.kind} digest={scenario.digest}")


@main.command("compare")
@click.argument("table_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("table_b", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--tol",
    "tols",
    multiple=True,
    default=("1e-9",),
    help="Relative tolerance: a bare number applies to all columns; "
    "column=value overrides one column. Repeatable.",
)
def compare_cmd(table_a: str, table_b: str, tols: tuple[str, ...]) -> None:
    """Compare two result tables cell by cell."""
    default_tol = 1e-9
    per_column: dict[str, float] = {}
    try:
        for spec in tols:
            col, sep, val = spec.rpartition("=")
            tol = _number(val, "--tol")
            if not tol >= 0:
                raise ValidationError(f"--tol: must be a number >= 0, got {val!r}")
            if sep:
                per_column[col.strip()] = tol
            else:
                default_tol = tol
        failures = compare_tables(
            _read_csv_table(table_a), _read_csv_table(table_b), per_column, default_tol
        )
    except WavetimeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if failures:
        for line in failures:
            click.echo(f"FAIL {line}", err=True)
        click.echo(f"compare: {len(failures)} failing cell(s)", err=True)
        sys.exit(1)
    click.echo("compare: all cells within tolerance")
