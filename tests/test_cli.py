import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPLIT_SWEEPS, em_sweep_doc, run_sweep, whole_and_split_rows
from wavetime.cli import (
    METHOD_LABELS,
    ResultTable,
    Scenario,
    _reason_summary,
    compare_tables,
    load_scenario,
    main,
    run_scenario,
)
import wavetime
from wavetime.errors import ValidationError


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
            ("step", lambda d: d["sweep"].update(grid=[1.0, 1.5]), "sweep.grid", "integer"),
            ("tau", lambda d: d["lattice"].update(hopping="fast"), "lattice.hopping", "number"),
            ("tau", lambda d: d["lattice"].update(detector_sites=[15.5]),
             "lattice.detector_sites", "integer"),
            ("tau", lambda d: d.update(t_fixed="abc"), "t_fixed", "number"),
            ("tau", lambda d: d.update(t_fixed=float("nan")), "t_fixed", "finite"),
            ("carrier", lambda d: d["pulse"].update(n_samples=1024.5), "pulse.n_samples", "integer"),
            ("carrier", lambda d: d["medium"].update(thickness="thick"), "medium.thickness", "number"),
        ],
        ids=["nan", "nan-first", "inf", "grid-not-list", "length-abc", "region-one-index",
             "region-fraction", "v_left-list", "step-fraction", "hopping", "detector-fraction",
             "t_fixed-abc", "t_fixed-nan", "n_samples-fraction", "thickness-abc"],
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
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith(f"error: {field}:")
        assert why in res.stderr
        assert "Traceback" not in res.output
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("bad", [None, "", 3], ids=["null", "empty", "integer"])
    def test_output_path_must_be_a_nonempty_string(self, tmp_path, command, bad):
        doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        doc["output"]["path"] = bad
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValidationError, match="output.path"):
            load_scenario(str(path))
        res = CliRunner().invoke(main, [command, str(path)])
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

    def test_cli_run_writes_csv_and_json_mirror(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["run", str(timescale_scenario(tmp_path))])
        assert res.exit_code == 0, res.output
        csv_text = (tmp_path / "out.csv").read_text()
        assert "# scenario_digest:" in csv_text
        mirror = json.loads((tmp_path / "out.json").read_text())
        assert mirror["columns"][0] == "energy"

    def test_values_round_trip_at_17_digits(self, tmp_path):
        scenario = load_scenario(str(timescale_scenario(tmp_path)))
        table = run_scenario(scenario)
        runner = CliRunner()
        assert runner.invoke(main, ["run", str(timescale_scenario(tmp_path))]).exit_code == 0
        lines = [
            l for l in (tmp_path / "out.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        cells = lines[1].split(",")
        assert float(cells[1]) == table.rows[0][1]

    def test_malformed_config_is_structured_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("kind: timescale_sweep\nsweep: [not, a, mapping\n")
        runner = CliRunner()
        res = runner.invoke(main, ["run", str(path)])
        assert res.exit_code == 2
        assert "error:" in res.stderr

    def test_unwritable_output_is_error(self, tmp_path):
        doc = yaml.safe_load(timescale_scenario(tmp_path).read_text())
        doc["output"]["path"] = str(tmp_path / "missing" / "out.csv")
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        res = CliRunner().invoke(main, ["run", str(path)])
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
        assert reasons[2].startswith("ValidationError: Nyquist frequency 16.08")

    def test_em_window_truncation_reaches_flags_column(self, tmp_path):
        rows = run_sweep(tmp_path, em_sweep_doc("carrier", [5.81, 12.0], 4096, 200.0), "em")
        flags = [row[-2] for row in csv.reader(r.decode() for r in rows)]
        assert flags == ["residual_above_tolerance|evanescent_regime|window_truncated", ""]

    def test_em_nonpositive_thickness_is_reason_coded(self, tmp_path):
        rows = run_sweep(tmp_path, em_sweep_doc("thickness", [-1.0, 0.0, 2.0]), "em")
        reasons = [row[-1] for row in csv.reader(r.decode() for r in rows)]
        assert reasons == ["ValidationError: thickness must be positive, got -1.0",
                           "ValidationError: thickness must be positive, got 0.0", ""]


class TestReasonSummary:
    def run(self, tmp_path, doc):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({**doc, "output": {"path": str(tmp_path / "out.csv"),
                                                         "format": "csv"}}))
        res = CliRunner().invoke(main, ["run", str(path)])
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
    {"model": "plasma", "thickness": 2.0, "plasma_strength": 8.0, "damping": 0.05},
    {"model": "lorentz", "thickness": 2.0, "resonance": 12.0, "plasma_strength": 5.0,
     "damping": 0.1},
    {"model": "vacuum", "thickness": 2.0},
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
    payload = {
        "pulse": {**_SMALL_PULSE, "carrier": draw(st.floats(0.5, 20.0))},
        "medium": draw(st.sampled_from(_MEDIA)),
    }
    return Scenario(kind="em_pulse", payload=payload, sweep_parameter=parameter,
                    sweep_grid=grid, output_path="unused.csv", output_format="csv",
                    digest="")


# A barrier with unequal leads, a well-barrier pair with a Larmor field, and
# an absorbing barrier.  The energy grids reach below the leads and the
# segment tops, where rows are reason-coded.
_PROFILES = [
    {"segments": [{"length": 1.0, "v_real": 2.0}], "clock_region": [0, 0],
     "v_left": 0.0, "v_right": -0.5},
    {"segments": [{"length": 0.7, "v_real": -1.0, "omega_larmor": 0.2},
                  {"length": 0.5, "v_real": 3.0}], "clock_region": [0, 1]},
    {"segments": [{"length": 1.0, "v_real": 2.0, "v_imag": 0.1}], "clock_region": [0, 0]},
]
# The exact segment tops and lead levels of _PROFILES.
_SPECIAL_ENERGIES = [-1.0, -0.5, 0.0, 2.0, 3.0]


@st.composite
def timescale_grids(draw):
    """A timescale_sweep scenario with a random energy grid."""
    energies = st.one_of(st.floats(-2.0, 12.0), st.sampled_from(_SPECIAL_ENERGIES))
    payload = {"profile": draw(st.sampled_from(_PROFILES)),
               "channel": draw(st.sampled_from(["transmission", "reflection"]))}
    return Scenario(kind="timescale_sweep", payload=payload, sweep_parameter="energy",
                    sweep_grid=_grid(draw, energies), output_path="unused.csv",
                    output_format="csv", digest="")


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
    payload = {"lattice": zeno_doc(Path("."), parameter)["lattice"], "t_fixed": 5.0}
    return Scenario(kind="first_passage", payload=payload, sweep_parameter=parameter,
                    sweep_grid=_grid(draw, values), output_path="unused.csv",
                    output_format="csv", digest="")


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
# float, and b"1" (YAML's !!binary) and the booleans, which float() parses.
NUMBERISH = st.sampled_from([10**400, b"1", "1e3", True, False, -1])
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(), st.text(max_size=6),
    st.binary(max_size=4), st.dates(),
    st.lists(st.one_of(st.integers(-3, 3), st.floats()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(), st.none())


@st.composite
def mutated_scenarios(draw):
    """A valid scenario with one to three mutations: a number replaced by a
    NUMBERISH value, any field replaced by junk or deleted, or keys added."""
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
        action = draw(st.sampled_from(["number", "replace", "delete", "add"]))
        if action == "number":
            slots = [(node, key) for node, key in slots if type(node[key]) in (int, float)]
        node, key = draw(st.sampled_from(slots))
        if action == "number":
            node[key] = draw(NUMBERISH)
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


class TestScenarioFuzz:
    @settings(derandomize=True, deadline=None, database=None, max_examples=500)
    @given(doc=mutated_scenarios())
    def test_mutated_scenario_loads_or_is_validation_error(self, tmp_path_factory, doc):
        # validate and run report a ValidationError with exit 2; any other
        # exception would end in a traceback.
        path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        if holds_boolean(doc):
            with pytest.raises(ValidationError):
                load_scenario(str(path))
            return
        try:
            load_scenario(str(path))
        except ValidationError:
            pass

    def test_boolean_schema_version_is_refused(self, tmp_path):
        # True == 1, so the version check let it through.
        path = timescale_scenario(tmp_path, extra={"schema_version": True})
        res = CliRunner().invoke(main, ["validate", str(path)])
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
        res = CliRunner().invoke(main, ["validate", str(path)])
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
    res = CliRunner().invoke(main, ["validate", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: pulse.{field}: must be finite")


@pytest.mark.parametrize("field", ["thickness", "resonance", "plasma_strength", "damping"])
def test_non_finite_medium_field_is_named_error(tmp_path, field):
    # A NaN damping or plasma strength and an infinite thickness validated,
    # and every row was then reason-coded ZeroFluxError.
    doc = em_sweep_doc("carrier", [8.0, 12.0])
    doc["medium"][field] = math.inf if field == "thickness" else math.nan
    doc["output"] = {"path": str(tmp_path / "out.csv"), "format": "csv"}
    path = tmp_path / "medium.yaml"
    path.write_text(yaml.safe_dump(doc))
    res = CliRunner().invoke(main, ["validate", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: medium.{field}: must be finite")


class TestCompare:
    def test_table_vs_itself_passes(self, tmp_path):
        runner = CliRunner()
        runner.invoke(main, ["run", str(timescale_scenario(tmp_path))])
        out = str(tmp_path / "out.csv")
        res = runner.invoke(main, ["compare", out, out, "--tol", "1e-12"])
        assert res.exit_code == 0

    def test_perturbed_copy_fails_with_enumerated_rows(self, tmp_path):
        runner = CliRunner()
        runner.invoke(main, ["run", str(timescale_scenario(tmp_path))])
        out = tmp_path / "out.csv"
        text = out.read_text()
        lines = text.splitlines()
        data = lines[-1].split(",")
        data[1] = f"{float(data[1]) * 1.01:.17g}"
        perturbed = tmp_path / "perturbed.csv"
        perturbed.write_text("\n".join(lines[:-1] + [",".join(data)]) + "\n")
        res = runner.invoke(
            main, ["compare", str(out), str(perturbed), "--tol", "1e-6"]
        )
        assert res.exit_code == 1
        assert "FAIL" in res.stderr
        assert "wigner" in res.stderr

    @pytest.mark.parametrize("tol", ["abc", "nan", "-1", "wigner=abc", "wigner=-1e-6"])
    def test_bad_tolerance_is_error(self, tmp_path, tol):
        runner = CliRunner()
        runner.invoke(main, ["run", str(timescale_scenario(tmp_path))])
        out = str(tmp_path / "out.csv")
        res = runner.invoke(main, ["compare", out, out, "--tol", tol])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: --tol:")
        assert "FAIL" not in res.stderr

    @pytest.mark.parametrize("tol", ["nosuchcol=1", "wigenr=10"])
    def test_tolerance_for_unknown_column_is_error(self, tmp_path, tol):
        runner = CliRunner()
        runner.invoke(main, ["run", str(timescale_scenario(tmp_path))])
        out = str(tmp_path / "out.csv")
        res = runner.invoke(main, ["compare", out, out, "--tol", tol])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: --tol:")
        assert repr(tol.partition("=")[0]) in res.stderr

    def test_per_column_tolerance_is_applied_from_the_command_line(self, tmp_path):
        runner = CliRunner()
        runner.invoke(main, ["run", str(timescale_scenario(tmp_path))])
        out = tmp_path / "out.csv"
        lines = out.read_text().splitlines()
        data = lines[-1].split(",")
        data[1] = f"{float(data[1]) * 1.001:.17g}"
        perturbed = tmp_path / "perturbed.csv"
        perturbed.write_text("\n".join(lines[:-1] + [",".join(data)]) + "\n")
        args = ["compare", str(out), str(perturbed), "--tol", "1e-9"]
        assert runner.invoke(main, args).exit_code == 1
        assert runner.invoke(main, [*args, "--tol", "wigner=1e-2"]).exit_code == 0

    def test_per_column_tolerance_override(self, tmp_path):
        from wavetime.cli import ResultTable

        a = ResultTable(columns=["x", "y"], rows=[["1.0", "1.0"]])
        b = ResultTable(columns=["x", "y"], rows=[["1.0", "1.001"]])
        assert compare_tables(a, b, {"y": 1e-2}, 1e-9) == []
        assert compare_tables(a, b, {}, 1e-9) != []

    def test_column_mismatch_is_error(self):
        from wavetime.cli import ResultTable

        a = ResultTable(columns=["x"], rows=[])
        b = ResultTable(columns=["y"], rows=[])
        with pytest.raises(ValidationError):
            compare_tables(a, b, {}, 1e-9)


def test_import_leaves_out_integrate_and_optimize():
    # Nothing the command line imports needs scipy's quadrature or optimisers.
    code = (
        "import sys, wavetime.cli; print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    src = str(Path(wavetime.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
