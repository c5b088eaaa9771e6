import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import SPLIT_SWEEPS, em_sweep_doc, invoke, run_sweep, whole_and_split_rows
from wavetime.cli import (
    METHOD_LABELS,
    ResultTable,
    Scenario,
    _fmt,
    _read_csv_table,
    _reason_summary,
    compare_tables,
    load_scenario,
    run_scenario,
    write_table,
)
import wavetime
from wavetime import first_passage
from wavetime.em_pulse import MediumKind, MediumSpec, PulseSpec
from wavetime.errors import ValidationError
from wavetime.first_passage import LatticeSpec
from wavetime.potentials import PotentialProfile, Segment


def timescale_scenario(tmp_path, grid=(0.5, 1.0, 3.0), extra=None):
    doc = {
        "schema_version": 1,
        "kind": "timescale_sweep",
        "profile": {
            "segments": [{"length": 1.0, "v_real": 2.0}],
            "clock_region": [0, 0],
        },
        "sweep": {"parameter": "energy", "grid": list(grid)},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
    }
    if extra:
        doc.update(extra)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def zeno_doc(tmp_path, parameter):
    """first_passage scenario sweeping tau (a Zeno scan) or the step index."""
    return {
        "schema_version": 1,
        "kind": "first_passage",
        "lattice": {
            "n_sites": 21, "hopping": 1.0, "initial_site": 10,
            "detector_sites": [15], "tau": 1.0, "n_steps": 5,
        },
        "t_fixed": 5.0,
        "sweep": {"parameter": parameter,
                  "grid": [1.0, 0.1, 0.01] if parameter == "tau" else [1.0, 2.0, 3.0]},
        "output": {"path": str(tmp_path / "zeno.csv"), "format": "csv"},
    }


def _set(section, key, value, **beside):
    """An edit that sets section.key to value (a detector_sites list to [value])."""
    def edit(doc):
        doc[section].update({key: [value] if key == "detector_sites" else value, **beside})
    return edit


# Every field of LatticeSpec, PulseSpec and MediumSpec: the sweep of the
# document that sets it, its YAML section and key, a value of the wrong sign
# and what its refusal says (None where any sign is valid), and what the
# wrong sign needs set beside it.
_SPEC_FIELDS = [
    ("tau", "lattice", "n_sites", -21, ">= 3", {}),
    ("tau", "lattice", "hopping", -1.0, "positive", {}),
    ("tau", "lattice", "initial_site", -1, "out of range", {}),
    ("tau", "lattice", "detector_sites", -1, "out of range", {}),
    ("step", "lattice", "tau", -1.0, "positive", {}),
    ("step", "lattice", "n_steps", -5, ">= 1", {}),
    ("carrier", "pulse", "carrier", -10.0, "positive", {}),
    ("carrier", "pulse", "duration", -2.0, "positive", {}),
    ("carrier", "pulse", "center", None, None, {}),
    ("carrier", "pulse", "n_samples", -2048, "power of two", {}),
    ("carrier", "pulse", "span", -120.0, "8 pulse durations", {}),
    ("carrier", "medium", "model", None, None, {}),
    ("carrier", "medium", "thickness", -2.0, "positive", {}),
    ("carrier", "medium", "resonance", -12.0, "positive in a lorentz", {"model": "lorentz"}),
    ("carrier", "medium", "plasma_strength", -8.0, ">= 0", {}),
    ("carrier", "medium", "damping", -0.05, ">= 0", {}),
]
# A non-finite, a boolean and a wrong-sign case of each, as
# test_malformed_field_is_named_error takes them, and their ids.
_SPEC_FIELD_CASES, _SPEC_FIELD_IDS = [], []
for _sweep, _section, _key, _wrong_sign, _why, _beside in _SPEC_FIELDS:
    _refusal = "unknown model" if _key == "model" else "must be a finite real number"
    _path = f"{_section}.{_key}"
    _SPEC_FIELD_CASES += [(_sweep, _set(_section, _key, math.inf), _path, _refusal),
                          (_sweep, _set(_section, _key, True), _path, _refusal)]
    _SPEC_FIELD_IDS += [f"{_path}-inf", f"{_path}-bool"]
    if _wrong_sign is not None:
        _SPEC_FIELD_CASES.append((_sweep, _set(_section, _key, _wrong_sign, **_beside), _path, _why))
        _SPEC_FIELD_IDS.append(f"{_path}-sign")


class TestSchema:
    def test_valid_scenario_loads(self, tmp_path):
        scenario = load_scenario(str(timescale_scenario(tmp_path)))
        assert scenario.kind == "timescale_sweep"
        assert len(scenario.digest) == 16

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = timescale_scenario(tmp_path, extra={"proflie": {}})
        with pytest.raises(ValidationError, match="proflie"):
            load_scenario(str(path))

    def test_unknown_nested_key_names_field(self, tmp_path):
        doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        doc["profile"]["segments"][0]["v_reel"] = 1.0
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValidationError, match="v_reel"):
            load_scenario(str(path))

    def test_wrong_schema_version(self, tmp_path):
        doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        doc["schema_version"] = 2
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValidationError, match="schema_version"):
            load_scenario(str(path))

    def test_non_monotone_grid_rejected(self, tmp_path):
        path = timescale_scenario(tmp_path, grid=(1.0, 3.0, 2.0))
        with pytest.raises(ValidationError, match="monotone"):
            load_scenario(str(path))

    def test_empty_grid_rejected(self, tmp_path):
        path = timescale_scenario(tmp_path, grid=())
        with pytest.raises(ValidationError, match="non-empty"):
            load_scenario(str(path))

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text(yaml.safe_dump([{"schema_version": 1}]))
        with pytest.raises(ValidationError, match="^scenario file must contain a mapping$"):
            load_scenario(str(path))

    def test_sweep_parameter_of_another_kind_rejected(self, tmp_path):
        # tau is a first_passage parameter, not a timescale_sweep one.
        doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        doc["sweep"]["parameter"] = "tau"
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValidationError,
                           match=r"^sweep.parameter: 'tau' not valid for kind timescale_sweep \(allowed: \['energy'\]\)$"):
            load_scenario(str(path))

    def test_validate_reports_kind_and_digest(self, tmp_path):
        path = timescale_scenario(tmp_path)
        res = invoke(["validate", str(path)])
        assert res.exit_code == 0, res.output
        assert res.stdout == f"valid: kind=timescale_sweep digest={load_scenario(str(path)).digest}\n"

    @pytest.mark.parametrize(
        "sweep, edit, field, why",
        [
            ("energy", lambda d: d["sweep"].update(grid=[float("nan")]), "sweep.grid", "finite"),
            ("energy", lambda d: d["sweep"].update(grid=[float("nan"), 1.0]), "sweep.grid", "finite"),
            ("energy", lambda d: d["sweep"].update(grid=[0.5, float("inf")]), "sweep.grid", "finite"),
            ("energy", lambda d: d["sweep"].update(grid="1.0"), "sweep.grid", "list"),
            ("energy", lambda d: d["profile"]["segments"][0].update(length="abc"),
             "profile.segments[0].length", "number"),
            ("energy", lambda d: d["profile"].update(clock_region=[0]),
             "profile.clock_region", "[first, last]"),
            ("energy", lambda d: d["profile"].update(clock_region=[0, 0.5]),
             "profile.clock_region", "integer"),
            ("energy", lambda d: d["profile"].update(v_left=[1]), "profile.v_left", "number"),
            ("energy", lambda d: d["profile"]["segments"][0].update(length=-1.0),
             "profile.segments[0].length", "> 0"),
            ("energy", lambda d: d["profile"]["segments"][0].update(v_imag=float("inf")),
             "profile.segments[0].v_imag", "finite"),
            ("energy", lambda d: d["profile"].update(clock_region=[0, 3]),
             "profile.clock_region", "out of range"),
            ("energy", lambda d: d["profile"].update(v_right=float("nan")), "profile.v_right",
             "finite"),
            ("step", lambda d: d["sweep"].update(grid=[1.0, 1.5]), "sweep.grid", "integer"),
            ("tau", lambda d: d["lattice"].update(hopping="fast"), "lattice.hopping", "number"),
            ("tau", lambda d: d["lattice"].update(detector_sites=[15.5]),
             "lattice.detector_sites", "integer"),
            ("tau", lambda d: d.update(t_fixed="abc"), "t_fixed", "number"),
            ("tau", lambda d: d.update(t_fixed=float("nan")), "t_fixed", "finite"),
            ("carrier", lambda d: d["pulse"].update(n_samples=1024.5), "pulse.n_samples", "integer"),
            ("carrier", lambda d: d["medium"].update(thickness="thick"), "medium.thickness", "number"),
            # A step sweep that sets no t_fixed, and never reads one: the
            # error names the hopping, not the default t_fixed = 5 / hopping.
            ("step", lambda d: (d.pop("t_fixed"), d["lattice"].update(hopping=math.inf)),
             "lattice.hopping", "finite"),
            ("tau", lambda d: d.update(t_fixed=-1.0), "t_fixed", "positive"),
            ("step", lambda d: d.update(t_fixed=math.inf), "t_fixed", "finite"),
            *_SPEC_FIELD_CASES,
        ],
        ids=["nan", "nan-first", "inf", "grid-not-list", "length-abc", "region-one-index",
             "region-fraction", "v_left-list", "length-negative", "v_imag-inf",
             "region-out-of-range", "v_right-nan", "step-fraction", "hopping", "detector-fraction",
             "t_fixed-abc", "t_fixed-nan", "n_samples-fraction", "thickness-abc",
             "hopping-inf-no-t_fixed", "t_fixed-negative", "t_fixed-inf-step",
             *_SPEC_FIELD_IDS],
    )
    def test_malformed_field_is_named_error(self, tmp_path, sweep, edit, field, why):
        if sweep == "energy":
            doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        elif sweep == "carrier":
            doc = em_sweep_doc("carrier", [8.0, 12.0])
        else:
            doc = zeno_doc(tmp_path, sweep)
        edit(doc)
        doc["output"] = {"path": str(tmp_path / "bad.csv"), "format": "csv"}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        res = invoke(["run", str(path)])
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith(f"error: {field}:")
        assert why in res.stderr
        assert "Traceback" not in res.output
        assert not (tmp_path / "bad.csv").exists()

    def test_numbers_yaml_reads_as_strings_load(self, tmp_path):
        # YAML 1.1 reads an exponent without a dot (1e3) as a string.
        path = tmp_path / "spelled.yaml"
        path.write_text(yaml.safe_dump(zeno_doc(tmp_path, "step")).replace(
            "hopping: 1.0", "hopping: 1e0").replace("n_steps: 5", "n_steps: 5e0"))
        assert "hopping: 1e0" in path.read_text()
        lattice = load_scenario(str(path)).lattice
        assert (lattice.hopping, lattice.n_steps) == (1.0, 5)
        assert type(lattice.n_steps) is int

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unbounded_n_steps_is_named_error(self, tmp_path, command):
        # 1e300 steps validated, and the run then failed in np.empty.
        doc = zeno_doc(tmp_path, "step")
        doc["lattice"]["n_steps"] = 1.0e300
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        res = invoke([command, str(path)])
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith("error: lattice.n_steps: must be at most")
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("bad", [None, "", 3], ids=["null", "empty", "integer"])
    def test_output_path_must_be_a_nonempty_string(self, tmp_path, command, bad):
        doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        doc["output"]["path"] = bad
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValidationError, match="output.path"):
            load_scenario(str(path))
        res = invoke([command, str(path)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: output.path: must be a non-empty string")

    def test_digest_ignores_output_path(self, tmp_path):
        a = load_scenario(str(timescale_scenario(tmp_path)))
        doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        doc["output"]["path"] = str(tmp_path / "elsewhere.csv")
        path = tmp_path / "moved.yaml"
        path.write_text(yaml.safe_dump(doc))
        b = load_scenario(str(path))
        assert a.digest == b.digest


class TestRun:
    def test_timescale_sweep_has_all_method_columns(self, tmp_path):
        table = run_scenario(load_scenario(str(timescale_scenario(tmp_path))))
        assert table.columns == [
            "energy", "wigner", "dwell", "bl", "larmor_y", "larmor_z",
            "larmor_pythagorean", "imag_clock", "sojourn", "reason",
        ]
        assert len(table.rows) == 3

    def test_barrier_top_point_is_reason_coded_not_fatal(self, tmp_path):
        # E = 2.0 sits exactly at the barrier top; bl and sojourn fail there
        # but the sweep must complete with a populated reason cell.
        table = run_scenario(load_scenario(str(timescale_scenario(tmp_path, grid=(1.0, 2.0, 3.0)))))
        row = table.rows[1]
        reason = row[-1]
        assert "bl" in reason and "sojourn" in reason
        assert row[table.columns.index("wigner")] is not None
        assert row[table.columns.index("bl")] is None

    def test_energies_beyond_the_kernel_are_reason_coded(self, tmp_path):
        # Both ended the run with exit 1 and no table: at 1e10 a NaN probe
        # amplitude passed the amplitude floor and math.log(0.0) raised; at
        # 1e12 a gain probe's propagation factor overflowed in cmath.exp.
        doc = {**SPLIT_SWEEPS["energy"],
               "sweep": {"parameter": "energy", "grid": [1.5, 1.0e10, 1.0e12]}}
        rows = list(csv.reader(line.decode() for line in run_sweep(tmp_path, doc, "far")))
        assert len(rows) == 3
        assert rows[0][-1] == ""
        for row in rows[1:]:
            reason = row[-1]
            for label, cell in zip(METHOD_LABELS, row[1:-1]):
                if cell:
                    assert math.isfinite(float(cell))
                else:
                    assert ("larmor" if label.startswith("larmor") else label) + ": " in reason
        assert "imag_clock: LogSingularityError" in rows[1][-1]
        for label in ("imag_clock", "sojourn"):
            assert f"{label}: ResummationDivergenceError" in rows[2][-1]

    def test_cli_run_writes_csv_and_json_mirror(self, tmp_path):
        res = invoke(["run", str(timescale_scenario(tmp_path))])
        assert res.exit_code == 0, res.output
        csv_text = (tmp_path / "out.csv").read_text()
        assert "# scenario_digest:" in csv_text
        mirror = json.loads((tmp_path / "out.json").read_text())
        assert mirror["columns"][0] == "energy"

    def test_module_entry_point_runs_and_validates(self, tmp_path):
        # `python -m wavetime.cli` is the console script: it writes the table
        # and exits 0, and refuses a bad file with exit 2.
        scenario = timescale_scenario(tmp_path)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"schema_version": 1, "kind": "timescale_sweep"}))
        ran = fresh_python("-m", "wavetime.cli", "run", str(scenario), check=False)
        assert ran.returncode == 0, ran.stderr
        assert "(3 rows)" in ran.stdout
        rows = [line for line in (tmp_path / "out.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 4 and rows[0].startswith("energy,")
        refused = fresh_python("-m", "wavetime.cli", "validate", str(bad), check=False)
        assert refused.returncode == 2
        assert refused.stderr.startswith("error: ")

    def test_values_round_trip_at_17_digits(self, tmp_path):
        scenario = load_scenario(str(timescale_scenario(tmp_path)))
        table = run_scenario(scenario)
        assert invoke(["run", str(timescale_scenario(tmp_path))]).exit_code == 0
        lines = [
            l for l in (tmp_path / "out.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        cells = lines[1].split(",")
        assert float(cells[1]) == table.rows[0][1]

    def test_malformed_config_is_structured_error(self, tmp_path, monkeypatch):
        # libyaml words its errors its own way, and PyYAML's own reader, where
        # there is no libyaml, its own; each still arrives as one named error
        # with exit 2.  The undecodable bytes (a UTF-16 mark before an odd
        # byte count, and Latin-1) ended in a UnicodeDecodeError traceback and
        # exit 1 while the scenario was opened as text.
        path = tmp_path / "broken.yaml"
        texts = [text.encode() for text in (
            "kind: timescale_sweep\nsweep: [not, a, mapping\n", "kind: a: b\n", "  - x\n- y\n",
            "kind: 'unterminated\n", "kind:\n\t- 1\n", "kind: *nope\n", "- a\nkind: 1\n",
            "kind: \x07\n")] + [b"\xff\xfe\x00garbage\n", b"kind: caf\xe9\n"]
        for libyaml in (True, False):
            if not libyaml:
                monkeypatch.delattr(yaml, "CSafeLoader")
            for text in texts:
                path.write_bytes(text)
                res = invoke(["run", str(path)])
                assert res.exit_code == 2, (libyaml, text, res.output)
                assert "error: scenario file is not valid YAML: " in res.stderr
                assert "Traceback" not in res.output

    def test_unwritable_output_is_error(self, tmp_path):
        doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        doc["output"]["path"] = str(tmp_path / "missing" / "out.csv")
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        res = invoke(["run", str(path)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "No such file or directory" in res.stderr

    def test_first_passage_zeno_table(self, tmp_path):
        doc = zeno_doc(tmp_path, "tau")
        path = tmp_path / "zeno.yaml"
        path.write_text(yaml.safe_dump(doc))
        table = run_scenario(load_scenario(str(path)))
        assert table.columns == ["tau", "survival", "reason"]
        survivals = [row[1] for row in table.rows]
        assert survivals == sorted(survivals)  # smaller tau -> higher survival

    def test_em_pulse_sweep(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "em_pulse",
            "pulse": {"carrier": 10.0, "duration": 2.0, "center": 30.0,
                      "n_samples": 2048, "span": 120.0},
            "medium": {"model": "lorentz", "thickness": 5.0, "resonance": 20.0,
                       "plasma_strength": 5.0, "damping": 0.1},
            "sweep": {"parameter": "thickness", "grid": [1.0, 2.0]},
            "output": {"path": str(tmp_path / "em.csv"), "format": "csv"},
        }
        path = tmp_path / "em.yaml"
        path.write_text(yaml.safe_dump(doc))
        table = run_scenario(load_scenario(str(path)))
        assert "delta_t_group" in table.columns
        assert all(row[-1] is None for row in table.rows)

    def test_em_carrier_beyond_nyquist_is_one_reason_coded_row(self, tmp_path):
        # Nyquist is 16.08 on this grid; carrier 15 needs the band up to 18.
        rows = run_sweep(tmp_path, em_sweep_doc("carrier", [5.0, 10.0, 15.0], 1024, 200.0), "em")
        reasons = [row[-1] for row in csv.reader(r.decode() for r in rows)]
        assert len(reasons) == 3
        assert reasons[:2] == ["", ""]
        assert reasons[2].startswith("ValidationError: n_samples: Nyquist frequency 16.08")

    def test_em_window_truncation_reaches_flags_column(self, tmp_path):
        rows = run_sweep(tmp_path, em_sweep_doc("carrier", [5.81, 12.0], 4096, 200.0), "em")
        flags = [row[-2] for row in csv.reader(r.decode() for r in rows)]
        assert flags == ["residual_above_tolerance|evanescent_regime|window_truncated", ""]

    def test_em_nonpositive_thickness_is_reason_coded(self, tmp_path):
        rows = run_sweep(tmp_path, em_sweep_doc("thickness", [-1.0, 0.0, 2.0]), "em")
        reasons = [row[-1] for row in csv.reader(r.decode() for r in rows)]
        assert reasons == ["ValidationError: thickness: must be positive, got -1.0",
                           "ValidationError: thickness: must be positive, got 0.0", ""]


class TestReasonSummary:
    def run(self, tmp_path, doc):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({**doc, "output": {"path": str(tmp_path / "out.csv"),
                                                         "format": "csv"}}))
        res = invoke(["run", str(path)])
        assert res.exit_code == 0, res.output
        assert res.stdout == f"wrote {tmp_path / 'out.csv'} ({len(doc['sweep']['grid'])} rows)\n"
        return res.stderr

    def test_timescale_counts_per_method_label(self, tmp_path):
        # E = 2.0 is the barrier top: bl and sojourn are reason-coded there.
        doc = yaml.safe_load(timescale_scenario(tmp_path, grid=(1.0, 2.0, 3.0)).read_text())
        assert self.run(tmp_path, doc) == "reason-coded rows: 1 of 3 (bl: 1, sojourn: 1)\n"

    def test_em_counts_per_exception(self, tmp_path):
        doc = em_sweep_doc("carrier", [-1.0, 5.0, 10.0, 15.0], 1024, 200.0)
        assert self.run(tmp_path, doc) == "reason-coded rows: 2 of 4 (ValidationError: 2)\n"

    def test_lattice_step_outside_run_is_other(self, tmp_path):
        doc = zeno_doc(tmp_path, "step")
        doc["sweep"]["grid"] = [1.0, 5.0, 6.0, 7.0]
        assert self.run(tmp_path, doc) == "reason-coded rows: 2 of 4 (other: 2)\n"

    def test_lattice_tau_beyond_the_step_bound_is_reason_coded(self, tmp_path):
        doc = zeno_doc(tmp_path, "tau")
        doc["sweep"]["grid"] = [1.0, 1e-300, 5e-324]
        assert self.run(tmp_path, doc) == "reason-coded rows: 2 of 3 (ValidationError: 2)\n"

    def test_whole_row_failure_counts_its_exception(self):
        table = ResultTable(columns=["energy", "wigner", "reason"], rows=[
            [1.0, None, "NoOpenChannelError: no open channel: E below a lead"],
            [2.0, None, "larmor: StepSizeError: probe a; b; sojourn: ValidationError: c"],
            [3.0, 0.5, None],
        ])
        assert _reason_summary(table) == (
            "reason-coded rows: 2 of 3 (NoOpenChannelError: 1, larmor: 1, sojourn: 1)"
        )

    def test_clean_sweep_reports_zero(self, tmp_path):
        assert self.run(tmp_path, zeno_doc(tmp_path, "tau")) == "reason-coded rows: 0 of 3\n"


class TestDeterminism:
    @pytest.mark.parametrize("parameter", sorted(SPLIT_SWEEPS))
    def test_split_grid_is_byte_identical(self, tmp_path, parameter):
        whole, split = whole_and_split_rows(tmp_path, SPLIT_SWEEPS[parameter])
        assert len(whole) == len(SPLIT_SWEEPS[parameter]["sweep"]["grid"])
        assert whole == split


# Nyquist is 26.8 on this 512-sample grid, so carriers above about 20.8 fail
# PulseSpec's band check.  Carriers below 8 lie under the plasma cutoff.
_SMALL_PULSE = {"duration": 1.0, "center": 30.0, "n_samples": 512, "span": 60.0}
_MEDIA = [
    MediumSpec(MediumKind.PLASMA, thickness=2.0, plasma_strength=8.0, damping=0.05),
    MediumSpec(MediumKind.LORENTZ, thickness=2.0, resonance=12.0, plasma_strength=5.0,
               damping=0.1),
    MediumSpec(MediumKind.VACUUM, thickness=2.0),
]


def _grid(draw, values):
    """A strictly monotone grid of one to eight of the values, either way round."""
    grid = sorted(draw(st.lists(values, min_size=1, max_size=8, unique=True)))
    if draw(st.booleans()):
        grid.reverse()
    return tuple(grid)


@st.composite
def em_grids(draw):
    """An em_pulse scenario with a random, strictly monotone carrier or thickness
    grid that reaches zero, negative values and carriers past Nyquist."""
    parameter = draw(st.sampled_from(["carrier", "thickness"]))
    values = st.floats(-10.0, 40.0) if parameter == "carrier" else st.floats(-5.0, 60.0)
    grid = _grid(draw, values)
    return Scenario(kind="em_pulse", sweep_parameter=parameter, sweep_grid=grid,
                    output_path="unused.csv", output_format="csv", digest="",
                    pulse=PulseSpec(carrier=draw(st.floats(0.5, 20.0)), **_SMALL_PULSE),
                    medium=draw(st.sampled_from(_MEDIA)))


# A barrier with unequal leads, a well-barrier pair with a Larmor field, and
# an absorbing barrier.  The energy grids reach below the leads and the
# segment tops, where rows are reason-coded.
_PROFILES = [
    PotentialProfile((Segment(1.0, 2.0),), clock_region=(0, 0), v_right=-0.5),
    PotentialProfile((Segment(0.7, -1.0, omega_larmor=0.2), Segment(0.5, 3.0)),
                     clock_region=(0, 1)),
    PotentialProfile((Segment(1.0, 2.0, v_imag=0.1),), clock_region=(0, 0)),
]
# The exact segment tops and lead levels of _PROFILES.
_SPECIAL_ENERGIES = [-1.0, -0.5, 0.0, 2.0, 3.0]


@st.composite
def timescale_grids(draw):
    """A timescale_sweep scenario with a random energy grid."""
    energies = st.one_of(st.floats(-2.0, 12.0), st.sampled_from(_SPECIAL_ENERGIES))
    return Scenario(kind="timescale_sweep", sweep_parameter="energy",
                    sweep_grid=_grid(draw, energies), output_path="unused.csv",
                    output_format="csv", digest="", profile=draw(st.sampled_from(_PROFILES)),
                    channel=draw(st.sampled_from(["transmission", "reflection"])))


@st.composite
def lattice_grids(draw):
    """A first_passage scenario with a random tau grid, zero and negative taus
    included, or a random step grid that reaches outside the run."""
    parameter = draw(st.sampled_from(["tau", "step"]))
    if parameter == "tau":
        # Small positive taus are left out: a run takes t_fixed / tau steps.
        values = st.floats(-2.0, 4.0).filter(lambda tau: tau <= 0.0 or tau >= 0.05)
    else:
        values = st.integers(-3, 9).map(float)
    return Scenario(kind="first_passage", sweep_parameter=parameter,
                    sweep_grid=_grid(draw, values), output_path="unused.csv",
                    output_format="csv", digest="",
                    lattice=LatticeSpec(**zeno_doc(Path("."), parameter)["lattice"]), t_fixed=5.0)


def assert_one_row_per_value(scenario, n_values):
    """Rows follow the grid; each row has n_values finite values, or a reason
    for every value it lacks.  filterwarnings = error, so a warning escaping a
    row fails here too."""
    table = run_scenario(scenario)
    assert [row[0] for row in table.rows] == list(scenario.sweep_grid)
    for row in table.rows:
        values, reason = row[1:1 + n_values], row[-1]
        assert all(v is None or (isinstance(v, float) and math.isfinite(v)) for v in values)
        assert (reason is None) == all(v is not None for v in values)
        assert reason is None or reason
    return table


class TestRandomGrids:
    @settings(derandomize=True, deadline=None, database=None)
    @given(em_grids())
    def test_every_em_grid_value_is_one_row(self, scenario):
        for row in assert_one_row_per_value(scenario, 6).rows:
            if row[-1] is not None:
                assert row[1:8] == [None] * 7

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(timescale_grids())
    def test_every_energy_grid_value_is_one_row(self, scenario):
        assert_one_row_per_value(scenario, len(METHOD_LABELS))

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(lattice_grids())
    def test_every_lattice_grid_value_is_one_row(self, scenario):
        n_values = 1 if scenario.sweep_parameter == "tau" else 2
        assert_one_row_per_value(scenario, n_values)


def valid_scenario_docs():
    """One valid document per kind and sweep parameter, output included."""
    timescale = {
        "schema_version": 1,
        "kind": "timescale_sweep",
        "profile": {
            "segments": [{"length": 1.0, "v_real": 2.0, "v_imag": 0.1},
                         {"length": 0.5, "v_real": -1.0, "omega_larmor": 0.2}],
            "clock_region": [0, 1], "v_left": 0.0, "v_right": -0.5,
        },
        "channel": "reflection",
        "sweep": {"parameter": "energy", "grid": [0.5, 1.0, 3.0]},
    }
    docs = [timescale, zeno_doc(Path("."), "tau"), zeno_doc(Path("."), "step"),
            em_sweep_doc("carrier", [8.0, 12.0]), em_sweep_doc("thickness", [0.5, 1.0])]
    for doc in docs:
        doc["output"] = {"path": "out.csv", "format": "csv"}
    return docs


# Values a hand-edited scenario could hold: YAML nulls, booleans, integers,
# non-finite floats, strings, binary, dates and containers.  NUMBERISH values
# replace a number and reach float(): among them an integer too large for a
# float, b"1" (YAML's !!binary) and the booleans, which float() parses, and
# the non-finite floats, which it passes.
NUMBERISH = st.sampled_from([10**400, b"1", "1e3", True, False, -1, math.inf, math.nan])
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(), st.text(max_size=6),
    st.binary(max_size=4), st.dates(),
    st.lists(st.one_of(st.integers(-3, 3), st.floats()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(), st.none())


@st.composite
def mutated_scenarios(draw, actions=("number", "replace", "delete", "add"), numbers=NUMBERISH):
    """A valid scenario with one to three mutations, each one of actions: a
    number replaced by one of numbers, any field replaced by junk or deleted,
    or keys added."""
    doc = copy.deepcopy(draw(st.sampled_from(valid_scenario_docs())))
    for _ in range(draw(st.integers(1, 3))):
        slots = []

        def walk(node):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                slots.append((node, key))
                if isinstance(value, (dict, list)):
                    walk(value)

        walk(doc)
        action = draw(st.sampled_from(actions))
        if action == "number":
            slots = [(node, key) for node, key in slots if type(node[key]) in (int, float)]
        node, key = draw(st.sampled_from(slots))
        if action == "number":
            node[key] = draw(numbers)
        elif action == "replace":
            node[key] = draw(JUNK)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node.update(draw(st.dictionaries(KEYS, JUNK, min_size=1, max_size=3)))
        else:
            node.append(draw(JUNK))
    return doc


def holds_boolean(node) -> bool:
    """Whether a YAML boolean sits anywhere in the document, as a key or a
    value.  No field of a scenario takes one, so such a document must not load."""
    if isinstance(node, bool):
        return True
    if isinstance(node, dict):
        return any(holds_boolean(k) or holds_boolean(v) for k, v in node.items())
    if isinstance(node, list):
        return any(map(holds_boolean, node))
    return False


def lattice_work(scenario) -> int:
    """Sites times measure-and-project steps over the runs of a first-passage
    sweep (0 for other kinds): a tau row the step bound refuses runs none."""
    if scenario.kind != "first_passage":
        return 0
    if scenario.sweep_parameter == "step":
        return scenario.lattice.n_sites * scenario.lattice.n_steps
    t_fixed = scenario.t_fixed
    steps = [max(1, round(t_fixed / tau)) for tau in scenario.sweep_grid
             if tau > 0 and t_fixed / tau <= first_passage._MAX_STEPS]
    return scenario.lattice.n_sites * sum(steps)


def lattice_step_doc(**lattice):
    doc = valid_scenario_docs()[2]
    doc["lattice"].update(lattice)
    return doc


class TestScenarioFuzz:
    @settings(derandomize=True, deadline=None, database=None, max_examples=500)
    @given(doc=mutated_scenarios())
    # Both loaded, and every step wrote nan for p and survival with no reason.
    @example(doc=lattice_step_doc(tau=math.inf))
    @example(doc=lattice_step_doc(hopping=math.inf))
    def test_mutated_scenario_loads_or_is_validation_error(self, tmp_path_factory, doc):
        # validate and run report a ValidationError with exit 2; any other
        # exception would end in a traceback.  What loads also runs: one row
        # per grid value, each finite or reason-coded.
        path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        if holds_boolean(doc):
            with pytest.raises(ValidationError):
                load_scenario(str(path))
            return
        self.load_and_run(path)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(doc=mutated_scenarios(actions=("number",), numbers=st.one_of(
        NUMBERISH, st.floats(1e-3, 1e3), st.integers(1, 100))))
    def test_renumbered_scenario_loads_and_runs_or_is_validation_error(self, tmp_path_factory,
                                                                        doc):
        # Most mutations above leave no scenario to run; these mostly do.
        path = tmp_path_factory.getbasetemp() / "renumbered.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        self.load_and_run(path)

    @staticmethod
    def load_and_run(path):
        """load_scenario, and if the scenario loads, run_scenario too: one row
        per grid value, each finite or reason-coded."""
        try:
            scenario = load_scenario(str(path))
        except ValidationError:
            return
        assume(lattice_work(scenario) <= 10**5)
        assume(scenario.pulse is None or scenario.pulse.n_samples <= 2**14)
        n_values = {"timescale_sweep": len(METHOD_LABELS), "em_pulse": 6, "tau": 1, "step": 2}
        assert_one_row_per_value(scenario, n_values.get(scenario.kind) or
                                 n_values[scenario.sweep_parameter])

    def test_boolean_schema_version_is_refused(self, tmp_path):
        # True == 1, so the version check let it through.
        path = timescale_scenario(tmp_path, extra={"schema_version": True})
        res = invoke(["validate", str(path)])
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith("error: schema_version:")

    @pytest.mark.parametrize(
        "text, field",
        [
            ("{length: " + "1" * 400 + ", v_real: 2.0}", "profile.segments[0].length"),
            ('{length: !!binary "MQ==", v_real: 2.0}', "profile.segments[0].length"),
            ("{length: 1.0, v_real: 2.0, 1: a, b: c}", "profile.segments[0]"),
            ("{length: true, v_real: false}", "profile.segments[0].length"),
        ],
        ids=["int-beyond-float", "binary", "mixed-type-keys", "booleans"],
    )
    def test_fuzz_findings_are_named_errors(self, tmp_path, text, field):
        # The first three ended in a traceback (OverflowError, a TypeError
        # from json, a TypeError from sorting the unknown keys) with exit 1;
        # the booleans loaded as a segment of length 1.0 at V = 0.
        path = tmp_path / "bad.yaml"
        path.write_text(timescale_scenario(tmp_path).read_text().replace(
            "- length: 1.0\n    v_real: 2.0", "- " + text))
        res = invoke(["validate", str(path)])
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith(f"error: {field}:")


@pytest.mark.parametrize("field", ["span", "center"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_pulse_field_is_named_error(tmp_path, field, value):
    # A NaN span or center validated, and every row was then reason-coded
    # ZeroFluxError.
    doc = em_sweep_doc("carrier", [8.0, 12.0])
    doc["pulse"][field] = value
    doc["output"] = {"path": str(tmp_path / "out.csv"), "format": "csv"}
    path = tmp_path / "pulse.yaml"
    path.write_text(yaml.safe_dump(doc))
    res = invoke(["validate", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: pulse.{field}: must be a finite real number")


@pytest.mark.parametrize("field", ["thickness", "resonance", "plasma_strength", "damping"])
def test_non_finite_medium_field_is_named_error(tmp_path, field):
    # A NaN damping or plasma strength and an infinite thickness validated,
    # and every row was then reason-coded ZeroFluxError.
    doc = em_sweep_doc("carrier", [8.0, 12.0])
    doc["medium"][field] = math.inf if field == "thickness" else math.nan
    doc["output"] = {"path": str(tmp_path / "out.csv"), "format": "csv"}
    path = tmp_path / "medium.yaml"
    path.write_text(yaml.safe_dump(doc))
    res = invoke(["validate", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: medium.{field}: must be a finite real number")


class TestCompare:
    def test_table_vs_itself_passes(self, tmp_path):
        invoke(["run", str(timescale_scenario(tmp_path))])
        out = str(tmp_path / "out.csv")
        res = invoke(["compare", out, out, "--tol", "1e-12"])
        assert res.exit_code == 0

    def test_perturbed_copy_fails_with_enumerated_rows(self, tmp_path):
        invoke(["run", str(timescale_scenario(tmp_path))])
        out = tmp_path / "out.csv"
        text = out.read_text()
        lines = text.splitlines()
        data = lines[-1].split(",")
        data[1] = f"{float(data[1]) * 1.01:.17g}"
        perturbed = tmp_path / "perturbed.csv"
        perturbed.write_text("\n".join(lines[:-1] + [",".join(data)]) + "\n")
        res = invoke(["compare", str(out), str(perturbed), "--tol", "1e-6"])
        assert res.exit_code == 1
        assert "FAIL" in res.stderr
        assert "wigner" in res.stderr

    @pytest.mark.parametrize("tol", ["abc", "nan", "-1", "wigner=abc", "wigner=-1e-6"])
    def test_bad_tolerance_is_error(self, tmp_path, tol):
        invoke(["run", str(timescale_scenario(tmp_path))])
        out = str(tmp_path / "out.csv")
        res = invoke(["compare", out, out, "--tol", tol])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: --tol:")
        assert "FAIL" not in res.stderr

    @pytest.mark.parametrize("tol", ["nosuchcol=1", "wigenr=10"])
    def test_tolerance_for_unknown_column_is_error(self, tmp_path, tol):
        invoke(["run", str(timescale_scenario(tmp_path))])
        out = str(tmp_path / "out.csv")
        res = invoke(["compare", out, out, "--tol", tol])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: --tol:")
        assert repr(tol.partition("=")[0]) in res.stderr

    def test_per_column_tolerance_is_applied_from_the_command_line(self, tmp_path):
        invoke(["run", str(timescale_scenario(tmp_path))])
        out = tmp_path / "out.csv"
        lines = out.read_text().splitlines()
        data = lines[-1].split(",")
        data[1] = f"{float(data[1]) * 1.001:.17g}"
        perturbed = tmp_path / "perturbed.csv"
        perturbed.write_text("\n".join(lines[:-1] + [",".join(data)]) + "\n")
        args = ["compare", str(out), str(perturbed), "--tol", "1e-9"]
        assert invoke(args).exit_code == 1
        assert invoke([*args, "--tol", "wigner=1e-2"]).exit_code == 0

    @pytest.mark.parametrize("scale, code", [(1.0 + 1e-10, 0), (1.0 + 1e-8, 1)])
    def test_default_tolerance_is_1e_minus_9(self, tmp_path, scale, code):
        # With no bare --tol, every column, a per-column override aside,
        # compares at 1e-9.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("energy,wigner\n1,1.0\n")
        b.write_text(f"energy,wigner\n1,{scale!r}\n")
        for extra in ([], ["--tol", "energy=1"]):
            assert invoke(["compare", str(a), str(b), *extra]).exit_code == code

    def test_per_column_tolerance_override(self, tmp_path):
        from wavetime.cli import ResultTable

        a = ResultTable(columns=["x", "y"], rows=[["1.0", "1.0"]])
        b = ResultTable(columns=["x", "y"], rows=[["1.0", "1.001"]])
        assert compare_tables(a, b, {"y": 1e-2}, 1e-9) == []
        assert compare_tables(a, b, {}, 1e-9) != []

    def test_row_count_mismatch_is_error(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("energy,wigner\n1,1.0\n")
        b.write_text("energy,wigner\n1,1.0\n2,1.0\n")
        res = invoke(["compare", str(a), str(b)])
        assert res.exit_code == 2, res.output
        assert res.stderr == "error: row count mismatch: 1 vs 2\n"

    def test_differing_text_cells_fail(self, tmp_path):
        # A reason code against a number, and two different reason codes,
        # are failing cells; equal text and two empty cells are not.
        a = ResultTable(columns=["energy", "wigner", "dwell", "bl"], rows=[["1", "1.0", "", "x"]])
        b = ResultTable(columns=["energy", "wigner", "dwell", "bl"], rows=[["1", "ValidationError", "", "y"]])
        assert compare_tables(a, b, {}, 1e-9) == [
            "row 0, wigner: '1.0' != 'ValidationError'", "row 0, bl: 'x' != 'y'"
        ]
        assert compare_tables(b, b, {}, 1e-9) == []

    def test_column_mismatch_is_error(self):
        from wavetime.cli import ResultTable

        a = ResultTable(columns=["x"], rows=[])
        b = ResultTable(columns=["y"], rows=[])
        with pytest.raises(ValidationError):
            compare_tables(a, b, {}, 1e-9)

    @pytest.mark.parametrize("cells", [1, 3], ids=["short", "long"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_row_whose_cell_count_is_not_the_headers_fails(self, tmp_path, cells, side):
        # zip stopped at the shorter row, so a missing or extra cell passed unchecked.
        good, odd = tmp_path / "good.csv", tmp_path / "odd.csv"
        good.write_text("energy,wigner\n1.0,2.0\n")
        odd.write_text("energy,wigner\n" + ",".join(["1.0", "2.0", "3.0"][:cells]) + "\n")
        tables, counts = [str(good), str(good)], [2, 2]
        tables[side], counts[side] = str(odd), cells
        res = invoke(["compare", *tables])
        assert res.exit_code == 1, res.output
        assert res.stderr == (f"FAIL row 0: {counts[0]} vs {counts[1]} cells for 2 columns\n"
                              "compare: 1 failing cell(s)\n")

    @pytest.mark.parametrize("content, why", [
        (b"", "no header row"),
        (b"# tool_version: 0.1.0\r\n# units: none\r\n", "no header row"),
        (b"\xff\xfe\x00garbage\n", "not UTF-8 text"),
        (b"energy,wigner\r\n1.0,caf\xe9\r\n", "not UTF-8 text"),
    ], ids=["empty", "metadata-only", "utf-16-mark", "latin-1"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_unreadable_table_is_named_error(self, tmp_path, content, why, side):
        # Each ended in a StopIteration or UnicodeDecodeError traceback, exit 1.
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("energy,wigner\n1.0,2.0\n")
        bad.write_bytes(content)
        tables = [str(good), str(good)]
        tables[side] = str(bad)
        res = invoke(["compare", *tables])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == f"error: {bad}: {why}\n"


@pytest.mark.parametrize("kind, message", [("missing", "No such file or directory"),
                                           ("directory", "Is a directory")], ids=["missing", "directory"])
@pytest.mark.parametrize("verb, slot", [("validate", 0), ("run", 0), ("compare", 0), ("compare", 1)],
                         ids=["validate", "run", "compare-a", "compare-b"])
def test_unopenable_path_is_named_error(tmp_path, kind, message, verb, slot):
    # A path that is missing or a directory reaches the one error handler as
    # the OSError that opening it raises, whichever verb and argument it is.
    if verb == "compare":
        (tmp_path / "out.csv").write_text("energy,wigner\n1.0,2.0\n")
        paths = [str(tmp_path / "out.csv")] * 2
    else:
        paths = [str(timescale_scenario(tmp_path))]
    paths[slot] = str(tmp_path / "nowhere.yaml") if kind == "missing" else str(tmp_path)
    res = invoke([verb, *paths])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ")
    assert message in res.stderr and paths[slot] in res.stderr
    assert "Traceback" not in res.output
    assert res.stdout == ""


def fresh_python(*args, cwd=None, check=True):
    """python run with args in a fresh interpreter that imports wavetime
    from the sources under test."""
    src = str(Path(wavetime.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env, check=check)


# Runs each scenario file of argv[1:] as `wavetime run` does (load, run, write)
# and calibrates the absorbing lattice after a first_passage one, then prints
# the kinds and the modules that all this loaded.
_SWEEP_CHILD = """
import json, sys
before = set(sys.modules)
import wavetime.cli as cli
kinds = []
for path in sys.argv[1:]:
    scenario = cli.load_scenario(path)
    cli.write_table(cli.run_scenario(scenario), scenario.output_path, scenario.output_format)
    kinds.append(scenario.kind)
if "first_passage" in kinds:
    from wavetime.first_passage import LatticeSpec, calibrate_gamma
    calibrate_gamma(LatticeSpec(11, 1.0, 5, [8], 0.5, 20), (5, 20), [0.5, 2.0])
print(json.dumps([kinds, sorted(set(sys.modules) - before)]))
"""


def sweep_in_fresh_process(tmp_path, doc):
    """(kind, modules loaded) of _SWEEP_CHILD on doc, run in tmp_path."""
    path = tmp_path / f"{doc['kind']}.yaml"
    path.write_text(yaml.safe_dump(doc))
    (kind,), modules = json.loads(fresh_python("-c", _SWEEP_CHILD, str(path), cwd=tmp_path).stdout)
    return kind, set(modules)


def test_import_leaves_out_integrate_and_optimize(tmp_path):
    # Nothing in wavetime needs scipy, and a clock sweep needs no numpy
    # either.  Per kind, the only packages outside the standard library that
    # importing the CLI and running one sweep may load (and, for the lattice,
    # calibrating the absorber) are these (numpy brings its Cython runtime
    # modules along): each other import would cost every run its setup time.
    allowed = {"timescale_sweep": {"yaml", "wavetime"},
               "first_passage": {"numpy", "yaml", "wavetime"},
               "em_pulse": {"numpy", "yaml", "wavetime"}}
    for doc in valid_scenario_docs():
        kind, modules = sweep_in_fresh_process(tmp_path, doc)
        packages = {m.split(".")[0] for m in modules} - sys.stdlib_module_names
        packages = {p for p in packages if p != "cython_runtime" and not p.startswith("_cython_")}
        assert packages <= allowed[kind], (kind, packages)


def test_clock_sweep_loads_no_numpy(tmp_path):
    # numpy and the lattice and pulse kernels are most of the setup time of
    # `wavetime run`, and a clock sweep needs none of them.
    kind, modules = sweep_in_fresh_process(tmp_path, valid_scenario_docs()[0])
    assert kind == "timescale_sweep"
    assert not modules & {"numpy", "wavetime.em_pulse", "wavetime.first_passage"}, modules
    code = "import sys; before = set(sys.modules); import wavetime; print('numpy' in set(sys.modules) - before)"
    assert fresh_python("-c", code).stdout.strip() == "False"


class TestModuleEntryPoint:
    """`python -m wavetime.cli` in fresh processes, which import the lattice
    and pulse kernels only where their kind runs."""

    @pytest.mark.parametrize("doc", valid_scenario_docs(),
                             ids=lambda doc: f"{doc['kind']}-{doc['sweep']['parameter']}")
    def test_every_valid_document_validates_and_runs(self, tmp_path, doc):
        (tmp_path / "doc.yaml").write_text(yaml.safe_dump(doc))
        for verb in ("validate", "run"):
            done = fresh_python("-m", "wavetime.cli", verb, "doc.yaml", cwd=tmp_path, check=False)
            assert done.returncode == 0, (verb, done.stderr)
        assert len(_read_csv_table(str(tmp_path / "out.csv")).rows) == len(doc["sweep"]["grid"])

    @pytest.mark.parametrize("section, key, value, message", [
        ("medium", "model", "metal", "medium.model: unknown model 'metal'"),
        ("lattice", "n_sites", 2, "lattice.n_sites: must be >= 3, got 2"),
    ])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_bad_kernel_field_exits_2_by_name(self, tmp_path, section, key, value, message, verb):
        doc = next(d for d in valid_scenario_docs() if section in d)
        doc[section][key] = value
        (tmp_path / "doc.yaml").write_text(yaml.safe_dump(doc))
        done = fresh_python("-m", "wavetime.cli", verb, "doc.yaml", cwd=tmp_path, check=False)
        assert done.returncode == 2
        assert done.stderr == f"error: {message}\n"


def rendered_csv(table):
    """The CSV table as a whole-table StringIO rendering writes it."""
    buf = io.StringIO()
    for key, val in sorted(table.metadata.items()):
        buf.write(f"# {key}: {val}\r\n")
    writer = csv.writer(buf)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode()


def rendered_json(table):
    """The JSON mirror as one json.dumps of the whole table writes it."""
    rows = [{col: (_fmt(v) if isinstance(v, float) else v) for col, v in zip(table.columns, row)}
            for row in table.rows]
    return (json.dumps({"metadata": table.metadata, "columns": table.columns, "rows": rows},
                       indent=2, sort_keys=True) + "\n").encode()


HOSTILE = ResultTable(
    columns=["energy", "wigner", "dwell", "reason"],
    rows=[
        [0.5, np.float64(1.0) / 3.0, -0.0, None],
        [math.nan, math.inf, -math.inf, 'ValueError: a "quoted", comma'],
        [1e-300, None, None, "γ: LogSingularityError: line\r\nbreak \\ and \x07 bell"],
    ],
    metadata={"units": "ħ = 1", "scenario_digest": "0" * 64, "tool_version": "x"},
)


class TestWriter:
    """write_table streams the rows once, and writes the bytes a whole-table
    rendering (StringIO CSV, one json.dumps mirror) writes."""

    def assert_written_as_rendered(self, tmp_path, table, fmt="csv"):
        path = tmp_path / f"out.{fmt}"
        write_table(table, str(path), fmt)
        if fmt == "csv":
            assert path.read_bytes() == rendered_csv(table)
        assert (tmp_path / "out.json").read_bytes() == rendered_json(table)

    @pytest.mark.parametrize("doc", valid_scenario_docs(),
                             ids=lambda doc: f"{doc['kind']}-{doc['sweep']['parameter']}")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_valid_document(self, tmp_path, doc, fmt):
        doc = {**doc, "output": {"path": str(tmp_path / "scenario_out.csv"), "format": "csv"}}
        (tmp_path / "doc.yaml").write_text(yaml.safe_dump(doc))
        table = run_scenario(load_scenario(str(tmp_path / "doc.yaml")))
        self.assert_written_as_rendered(tmp_path, table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, tmp_path, fmt):
        self.assert_written_as_rendered(tmp_path, ResultTable(HOSTILE.columns, [], HOSTILE.metadata), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_hostile_cells(self, tmp_path, fmt):
        # Quotes, commas, CRLF, backslashes, non-ASCII and control characters
        # in reasons; numpy float64, nan, inf and -0.0 as values.
        self.assert_written_as_rendered(tmp_path, HOSTILE, fmt)

    def test_json_format_writes_no_csv(self, tmp_path):
        write_table(HOSTILE, str(tmp_path / "out.json"), "json")
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("n_rows", [2500, 10_000])
    def test_memory_does_not_grow_with_rows(self, tmp_path, n_rows):
        # A whole-table rendering holds every formatted cell at once: 7.8 MB
        # at 2500 rows of 10 columns and 31 MB at 10 000.
        columns = ["energy", *(f"c{j}" for j in range(8)), "reason"]
        rows = [[1.0 + i / 7, *(i * 1.234567891234e-3 + j for j in range(8)),
                 None if i % 5 else "ValueError: no root"] for i in range(n_rows)]
        table = ResultTable(columns, rows, HOSTILE.metadata)
        tracemalloc.start()
        try:
            write_table(table, str(tmp_path / "out.csv"), "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
