"""Batch front end: scenario files in, deterministic sweep tables out.

A scenario is one YAML file with a versioned schema, parsed once, when it
loads: every spec is built from its YAML mapping by _build and checks itself,
and Scenario carries the built specs to the sweep.  Unknown keys are hard
errors (silent typos corrupt physics parameters), and every field error
names its YAML path ("lattice.tau: why").  One table, _KINDS, holds each
kind's sweep parameters, payload keys and sweep, and run_scenario runs every
kind's rows through one loop: in grid order on the calling thread, each row an
independent kernel call, so a sweep split into parts writes the same rows as
the whole, and a WavetimeError in a row becomes its reason code.  The lattice
and pulse kernels (first_passage, em_pulse, and numpy with them) are imported
only where their kind loads or runs, so a timescale sweep never loads them.
write_table streams the rows once, to the CSV table and its JSON mirror
together, so its memory does not grow with the length of the sweep.

Verbs, parsed by argparse in main:
    wavetime run <scenario.yaml>
    wavetime validate <scenario.yaml>
    wavetime compare <a.csv> <b.csv> --tol 1e-6 [--tol column=1e-4 ...]

A WavetimeError or OSError (say, a missing file) from any verb ends in main's
one handler: "error: why" on stderr and exit status 2.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
from collections import Counter, namedtuple
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import yaml

from . import __version__, timescales
from .errors import ValidationError, WavetimeError, _finite, _reason
from .potentials import PotentialProfile, Segment

if TYPE_CHECKING:
    from . import em_pulse, first_passage

__all__ = ["Scenario", "ResultTable", "load_scenario", "run_scenario", "compare_tables", "main"]

SCHEMA_VERSION = 1

METHOD_LABELS = timescales.METHOD_LABELS


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: its sweep, its output, and the specs of its kind,
    built and checked (the profile and channel of a timescale sweep, the
    lattice and t_fixed of a first-passage sweep, the pulse and medium of an
    em_pulse sweep).  t_fixed is None where a step sweep sets none."""

    kind: str
    sweep_parameter: str
    sweep_grid: tuple[float, ...]
    output_path: str
    output_format: str
    digest: str
    profile: PotentialProfile | None = None
    channel: str = "transmission"
    lattice: first_passage.LatticeSpec | None = None
    t_fixed: float | None = None
    pulse: em_pulse.PulseSpec | None = None
    medium: em_pulse.MediumSpec | None = None


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


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: must be a list, got {value!r}")
    return value


def _unquoted(value):
    """value, or the float a string spells: PyYAML reads 1e3 (no dot) as a string."""
    try:
        return float(value) if isinstance(value, str) else value
    except ValueError:
        return value


def _numbers(values, where: str) -> list:
    return [_unquoted(v) for v in _list(values, where)]


def _build(cls, cfg, where: str, **parse):
    """cls built from the YAML mapping cfg at the path where.

    The keys of cfg are the fields of cls (MediumSpec.kind is medium.model),
    and a field with no default is required.  The value of a key in parse is
    parse[key](value, path); any other value goes to cls as a number if a
    string spells one, else as YAML read it.  cls checks its fields itself,
    and its ValidationError ("field: why") comes out prefixed with where.
    """
    fields = {"model" if f.name == "kind" else f.name: f for f in dataclasses.fields(cls)}
    required = {key for key, f in fields.items() if f.default is dataclasses.MISSING}
    _require_keys(cfg, set(fields), required, where)
    values = {fields[key].name: parse[key](value, f"{where}.{key}") if key in parse else _unquoted(value)
              for key, value in cfg.items()}
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{where}.{exc}") from None


def _segments(cfg, where: str) -> list[Segment]:
    return [_build(Segment, seg, f"{where}[{i}]") for i, seg in enumerate(_list(cfg, where))]


def _medium_kind(model, where: str) -> em_pulse.MediumKind:
    from . import em_pulse

    try:
        return em_pulse.MediumKind(model)
    except ValueError:
        raise ValidationError(f"{where}: unknown model {model!r}") from None


def load_scenario(path: str) -> Scenario:
    """Parse and validate one scenario file.

    Raises:
        ValidationError: naming the offending field on any schema violation.
    """
    try:
        with open(path, "rb") as fh:  # PyYAML names undecodable bytes a YAMLError
            # libyaml's parser where PyYAML has it (8x faster on a long grid),
            # with safe_load's resolver and constructor either way.
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario file is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("scenario file must contain a mapping")
    top_allowed = {"schema_version", "kind", "sweep", "output"}
    _require_keys(raw, top_allowed.union(*(rules.payload for rules in _KINDS.values())), top_allowed,
                  "scenario")
    if raw["schema_version"] != SCHEMA_VERSION or isinstance(raw["schema_version"], bool):
        raise ValidationError(
            f"schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']}"
        )
    kind = raw["kind"]
    rules = _KINDS.get(kind) if isinstance(kind, str) else None
    if rules is None:
        raise ValidationError(f"kind: must be one of {tuple(_KINDS)}, got {kind!r}")
    _require_keys({k: v for k, v in raw.items() if k not in top_allowed}, rules.payload,
                  rules.required, f"scenario ({kind})")

    sweep = raw["sweep"]
    _require_keys(sweep, {"parameter", "grid"}, {"parameter", "grid"}, "sweep")
    if sweep["parameter"] not in rules.params:
        raise ValidationError(
            f"sweep.parameter: {sweep['parameter']!r} not valid for kind {kind} "
            f"(allowed: {sorted(rules.params)})"
        )
    step = sweep["parameter"] == "step"
    grid = [float(_finite(v, "sweep.grid", step)) for v in _numbers(sweep["grid"], "sweep.grid")]
    if not grid:
        raise ValidationError("sweep.grid: must be non-empty")
    if not (all(a < b for a, b in zip(grid, grid[1:])) or all(a > b for a, b in zip(grid, grid[1:]))):
        raise ValidationError("sweep.grid: must be strictly monotone")

    output = raw["output"]
    _require_keys(output, {"path", "format"}, {"path", "format"}, "output")
    if output["format"] not in ("csv", "json"):
        raise ValidationError(f"output.format: must be csv or json, got {output['format']!r}")
    if not isinstance(output["path"], str) or not output["path"]:
        raise ValidationError(f"output.path: must be a non-empty string, got {output['path']!r}")

    if kind == "timescale_sweep":
        specs = {"profile": _build(PotentialProfile, raw["profile"], "profile", segments=_segments),
                 "channel": raw.get("channel", "transmission")}
        timescales._check_channel(specs["channel"])
    elif kind == "first_passage":
        from . import first_passage

        lattice = _build(first_passage.LatticeSpec, raw["lattice"], "lattice", detector_sites=_numbers)
        specs = {"lattice": lattice}
        # Only a tau sweep reads t_fixed, but a t_fixed that is set is checked.
        if "t_fixed" in raw or sweep["parameter"] == "tau":
            t_fixed = _finite(_unquoted(raw.get("t_fixed", 5.0 / lattice.hopping)), "t_fixed")
            if not t_fixed > 0:
                raise ValidationError(f"t_fixed: must be positive, got {t_fixed}")
            specs["t_fixed"] = t_fixed
    else:
        from . import em_pulse

        specs = {"pulse": _build(em_pulse.PulseSpec, raw["pulse"], "pulse"),
                 "medium": _build(em_pulse.MediumSpec, raw["medium"], "medium", model=_medium_kind)}

    payload = {k: raw[k] for k in rules.payload if k in raw}
    digest_src = json.dumps(
        {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload,
         "sweep": {"parameter": sweep["parameter"], "grid": grid}},
        sort_keys=True,
    )
    return Scenario(
        kind=kind,
        sweep_parameter=sweep["parameter"],
        sweep_grid=tuple(grid),
        output_path=output["path"],
        output_format=output["format"],
        digest=hashlib.sha256(digest_src.encode()).hexdigest()[:16],
        **specs,
    )


# ---------------------------------------------------------------------------
# sweep execution


def _timescale_sweep(scenario: Scenario):
    def cells(energy: float):
        report = timescales.full_report(scenario.profile, energy, channel=scenario.channel)
        reason = "; ".join(f"{label}: {why}" for label, why in sorted(report.reasons.items()))
        return [report.entries.get(label) for label in METHOD_LABELS], reason or None

    return list(METHOD_LABELS), cells


def _first_passage_sweep(scenario: Scenario):
    from . import first_passage

    spec = scenario.lattice
    if scenario.sweep_parameter == "tau":
        def cells(tau: float):
            ((_, survival),) = first_passage.zeno_scan(spec, [tau], scenario.t_fixed)
            return [survival], None

        return ["survival"], cells
    # step sweep: indices into a single stroboscopic run
    record = first_passage.evolve_project(spec)

    def cells(step: float):
        n = int(step)
        if 1 <= n <= spec.n_steps:
            return [record.p[n - 1], record.survival[n - 1]], None
        return [None, None], f"step {n} outside 1..{spec.n_steps}"

    return ["p", "survival"], cells


_EM_COLUMNS = ("t_in", "t_out", "delta_t", "delta_t_group", "delta_t_reshape", "residual", "flags")


def _em_sweep(scenario: Scenario):
    from . import em_pulse

    def cells(value: float):
        # The specs validate themselves, so a bad sweep value is a bad row.
        pulse, medium = scenario.pulse, scenario.medium
        if scenario.sweep_parameter == "carrier":
            pulse = replace(pulse, carrier=value)
        else:
            medium = replace(medium, thickness=value)
        rep = em_pulse.delay_decomposition(pulse, medium)
        flags = [flag for flag, on in (("residual_above_tolerance", not rep.residual_ok),
                                       ("evanescent_regime", rep.evanescent_regime),
                                       ("window_truncated", rep.window_truncated)) if on]
        return [*(getattr(rep, column) for column in _EM_COLUMNS[:-1]), "|".join(flags) or None], None

    return list(_EM_COLUMNS), cells


# Per kind: its sweep parameters, allowed and required payload keys, and sweep,
# which returns the value columns and cells(value) -> (values, reason) of a row.
_Kind = namedtuple("_Kind", "params payload required sweep")
_KINDS = {
    "timescale_sweep": _Kind(("energy",), {"profile", "channel"}, {"profile"}, _timescale_sweep),
    "first_passage": _Kind(("step", "tau"), {"lattice", "t_fixed"}, {"lattice"}, _first_passage_sweep),
    "em_pulse": _Kind(("carrier", "thickness"), {"pulse", "medium"}, {"pulse", "medium"}, _em_sweep),
}


def run_scenario(scenario: Scenario) -> ResultTable:
    """Execute a sweep; rows are ordered by sweep index, failures reason-coded."""
    columns, cells = _KINDS[scenario.kind].sweep(scenario)
    rows = []
    for value in scenario.sweep_grid:
        try:
            values, reason = cells(value)
        except WavetimeError as exc:
            values, reason = [None] * len(columns), _reason(exc)
        rows.append([value, *values, reason])
    return ResultTable(
        columns=[scenario.sweep_parameter, *columns, "reason"],
        rows=rows,
        metadata={
            "units": "natural units: hbar = 1, 2m = 1 (quantum); c = 1 (electromagnetic)",
            "tool_version": __version__,
            "scenario_digest": scenario.digest,
        },
    )


def _write_rows(table: ResultTable, csv_fh, json_fh) -> None:
    """Stream the table in one pass over its rows, each cell formatted once by
    _fmt: to csv_fh (unless None) as # key: value lines and csv rows, and to
    json_fh as json.dumps({"metadata", "columns", "rows"}, indent=2,
    sort_keys=True) + "\n", a row's keys in name order and its float cells as
    the CSV's strings."""
    if csv_fh is not None:
        for key, val in sorted(table.metadata.items()):
            csv_fh.write(f"# {key}: {val}\r\n")
        writerow = csv.writer(csv_fh).writerow
        writerow(table.columns)
    head = {"columns": table.columns, "metadata": table.metadata, "rows": []}
    json_fh.write(json.dumps(head, indent=2, sort_keys=True)[:-3])  # ends at "rows": [
    encode = json.encoder.encode_basestring_ascii
    last = {col: i for i, col in enumerate(table.columns)}
    keys = [(last[col], "\n      " + encode(col) + ": ") for col in sorted(last)]
    sep = "\n    {"
    for row in table.rows:
        cells = [_fmt(v) for v in row]
        if csv_fh is not None:
            writerow(cells)
        json_fh.write(sep + ",".join(
            key + (encode(cells[i]) if isinstance(row[i], (float, str)) else json.dumps(row[i]))
            for i, key in keys
        ) + "\n    }")
        sep = ",\n    {"
    json_fh.write("\n  ]\n}\n" if table.rows else "]\n}\n")


def write_table(table: ResultTable, path: str, fmt: str) -> None:
    """Write the table to path as CSV with a .json mirror beside it, or, for
    fmt "json", the JSON alone: one streamed pass, whose memory does not grow
    with the number of rows."""
    with open(path, "w", newline="") as fh:
        if fmt != "csv":
            _write_rows(table, None, fh)
            return
        with open(os.path.splitext(path)[0] + ".json", "w") as mirror:
            _write_rows(table, fh, mirror)


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
    """The table write_table wrote to path: # key: value lines, then csv rows."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    metadata = {key.strip(): val.strip() for key, _, val in
                (line[1:].strip().partition(":") for line in lines if line.startswith("#"))}
    reader = csv.reader(line for line in lines if not line.startswith("#"))
    columns = next(reader, None)
    if not columns:
        raise ValidationError(f"{path}: no header row")
    return ResultTable(columns=columns, rows=list(reader), metadata=metadata)


def compare_tables(
    a: ResultTable, b: ResultTable, tolerances: dict[str, float], default_tol: float
) -> list[str]:
    """Per-cell relative comparison; returns failure descriptions (empty = pass),
    one per failing cell and one per row whose cell count is not the header's.

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
        if not len(ra) == len(rb) == len(a.columns):
            failures.append(f"row {i}: {len(ra)} vs {len(rb)} cells for {len(a.columns)} columns")
            continue
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
# command line


def _run(scenario_file: str) -> None:
    scenario = load_scenario(scenario_file)
    table = run_scenario(scenario)
    write_table(table, scenario.output_path, scenario.output_format)
    print(_reason_summary(table), file=sys.stderr)
    print(f"wrote {scenario.output_path} ({len(table.rows)} rows)")


def _validate(scenario_file: str) -> None:
    scenario = load_scenario(scenario_file)
    print(f"valid: kind={scenario.kind} digest={scenario.digest}")


def _compare(table_a: str, table_b: str, tols: list[str]) -> int | None:
    default_tol = 1e-9
    per_column: dict[str, float] = {}
    for spec in tols:
        col, sep, val = spec.rpartition("=")
        try:
            tol = float(val)
        except ValueError:
            tol = math.nan
        if not tol >= 0:
            raise ValidationError(f"--tol: must be a number >= 0, got {val!r}")
        if sep:
            per_column[col.strip()] = tol
        else:
            default_tol = tol
    failures = compare_tables(_read_csv_table(table_a), _read_csv_table(table_b), per_column, default_tol)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        print(f"compare: {len(failures)} failing cell(s)", file=sys.stderr)
        return 1
    print("compare: all cells within tolerance")


_VERBS = {"run": _run, "validate": _validate, "compare": _compare}


def main(argv: list[str] | None = None) -> None:
    """Run the verb that argv (sys.argv[1:] by default) names and exit with its
    status: 0, 1 for a compare that finds failing cells, and 2 for a usage
    error or for a WavetimeError or OSError, which stderr reads as "error: why"."""
    parser = argparse.ArgumentParser(
        prog="wavetime", description="Scenario files in, deterministic sweep tables out.")
    verbs = parser.add_subparsers(dest="verb", required=True)
    verbs.add_parser("run", help="execute a scenario sweep and write its result table"
                     ).add_argument("scenario_file")
    verbs.add_parser("validate", help="check a scenario file against the schema without running it"
                     ).add_argument("scenario_file")
    compare = verbs.add_parser("compare", help="compare two result tables cell by cell")
    compare.add_argument("table_a")
    compare.add_argument("table_b")
    compare.add_argument("--tol", dest="tols", metavar="TOL", action="append", default=[],
                         help="relative tolerance: a bare number applies to all columns; "
                         "column=value overrides one column. Repeatable.")
    args = vars(parser.parse_args(argv))
    try:
        status = _VERBS[args.pop("verb")](**args)
    except (WavetimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    main()
