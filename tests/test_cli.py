import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carscid.cid
import carscid.cli
import carscid.errors
import carscid.model_io
from carscid.cli import main
from carscid.errors import CarscidError, SchemaError
from carscid.model_io import _tensor_stack, parse_model, serialize_model
from conftest import bench_workloads, readme_states_model
from test_model_io import STATES_MODEL

ACHIRAL_MODEL = {
    "constants": {"c": 137.035999},
    "beams": {"omega1": 0.10, "omega3": 0.11},
    "scan": {"start_cm1": 900.0, "stop_cm1": 1100.0, "step_cm1": 100.0},
    "modes": [
        {
            "name": "achiral",
            "shift_cm1": 1000.0,
            "alpha34": [[1.3, 0.2, 0.0], [0.2, 0.9, -0.1], [0.0, -0.1, 1.7]],
            "alpha12": [[0.8, 0.0, 0.3], [0.0, 1.1, 0.0], [0.3, 0.0, 0.6]],
        }
    ],
}


def chiral_model():
    rng = np.random.default_rng(2024)
    m = rng.normal(size=(3, 3))
    a34 = (0.5 * (m + m.T)).tolist()
    m = rng.normal(size=(3, 3))
    a12 = (0.5 * (m + m.T)).tolist()
    g = rng.normal(size=(3, 3)).tolist()
    a = rng.normal(size=(3, 3, 3))
    a = 0.5 * (a + np.swapaxes(a, 1, 2))
    model = json.loads(json.dumps(ACHIRAL_MODEL))
    model["modes"][0].update(name="chiral", gprime34=g,
                             a34=a.reshape(27).tolist(), alpha34=a34,
                             alpha12=a12)
    return model


@pytest.fixture
def achiral_path(tmp_path):
    path = tmp_path / "achiral.json"
    path.write_text(json.dumps(ACHIRAL_MODEL))
    return str(path)


@pytest.fixture
def chiral_path(tmp_path):
    path = tmp_path / "chiral.json"
    path.write_text(json.dumps(chiral_model()))
    return str(path)


class TestVerifyCommand:
    def test_isotropic_fixture_exits_2(self, capsys, tmp_path):
        out = str(tmp_path / "report.json")
        code = main(["verify", "--sets", "0", "--samples", "2000",
                     "--seed", "3", "--output", out])
        assert code == 2
        text = capsys.readouterr().out
        assert "isotropic fixture" in text
        assert "magnetic" in text and "FAIL" in text
        payload = json.loads(open(out).read())
        assert payload["exit_code"] == 2
        assert payload["reports"][0]["authoritative_pass"] is True

    def test_random_chiral_set_exits_1_on_quadrupole_finding(self, capsys):
        code = main(["verify", "--sets", "1", "--samples", "2000",
                     "--seed", "42"])
        assert code == 1
        text = capsys.readouterr().out
        assert "quadrupole (equal-frequency)" in text

    def test_bad_quad_order_is_operational_error(self, capsys):
        code = main(["verify", "--quad-order", "4"])
        assert code == 1
        assert "quad-order" in capsys.readouterr().err

    def test_report_bytes_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            main(["verify", "--sets", "0", "--samples", "2000",
                  "--seed", "5", "--output", str(out)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_nonconverged_quadrature_is_a_failed_check(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main(["verify", "--quad-order", "2,2,2", "--sets", "1",
                     "--samples", "1000", "--output", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" not in captured.out + captured.err
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 2
        assert any(not check["passed_quadrature"]
                   for report in payload["reports"] for check in report["checks"])

    def test_achiral_model_input_exits_0(self, achiral_path, capsys):
        # zero optical activity: every closed form and rendition agrees at 0
        code = main(["verify", "--input", achiral_path,
                     "--samples", "2000", "--seed", "6"])
        assert code == 0
        assert "mode 'achiral'" in capsys.readouterr().out


class TestDeltaCommand:
    def test_achiral_model_exits_0_with_zero_deltas(self, achiral_path, capsys,
                                                    tmp_path):
        out = str(tmp_path / "delta.json")
        code = main(["delta", "--input", achiral_path, "--output", out])
        assert code == 0
        payload = json.loads(open(out).read())
        mode = payload["modes"][0]
        assert mode["delta"] == 0.0
        assert mode["delta_two_frequency"] == 0.0
        assert mode["delta_single_frequency"] == 0.0

    def test_chiral_model_reports_renditions(self, chiral_path, capsys):
        code = main(["delta", "--input", chiral_path])
        assert code == 0
        text = capsys.readouterr().out
        assert "delta=" in text and "natural renditions" in text


class TestSpectrumCommand:
    def test_three_point_scan_csv(self, achiral_path, capsys):
        code = main(["spectrum", "--input", achiral_path])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "shift_cm1,omega2_au,rate_R,rate_L,delta"
        assert len(lines) == 4
        for line in lines[1:]:
            assert len(line.split(",")) == 5

    def test_deterministic_bytes(self, chiral_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["spectrum", "--input", chiral_path,
                         "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scan_override(self, achiral_path, capsys):
        code = main(["spectrum", "--input", achiral_path,
                     "--scan", "950,1050,50"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4  # header + 3 rows
        assert lines[1].startswith("950,")

    @pytest.mark.parametrize("scan,points,last", [
        ("0,1,0.35", 3, 0.7), ("900,1100,7", 29, 1096.0),
        ("0,0.7,0.1", 8, 0.7),  # (stop - start) / step is 6.999999999999999
    ])
    def test_scan_grid_ends_at_or_before_stop(self, achiral_path, capsys, scan, points, last):
        assert main(["spectrum", "--input", achiral_path, "--scan", scan]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == points
        assert float(rows[-1].split(",")[0]) == pytest.approx(last, rel=1e-15)

    def test_width_envelope_shapes_rates(self, chiral_path, capsys):
        assert main(["spectrum", "--input", chiral_path, "--width", "20"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rates = [float(line.split(",")[2]) for line in lines[1:]]
        assert rates[1] > rates[0] and rates[1] > rates[2]  # peak at the mode


class TestInvariantsCommand:
    def test_runs_and_reports(self, chiral_path, capsys, tmp_path):
        out = str(tmp_path / "inv.json")
        code = main(["invariants", "--input", chiral_path, "--output", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "[alpha]_1..10" in text and "dependence residuals" in text
        payload = json.loads(open(out).read())
        assert len(payload["modes"][0]["alpha"]) == 10
        assert len(payload["modes"][0]["gprime"]) == 14
        assert len(payload["modes"][0]["aquad"]) == 10


class TestFrequencyOverrides:
    def test_omega3_flag_overrides_beams(self, chiral_path, capsys):
        assert main(["invariants", "--input", chiral_path,
                     "--omega3", "0.2"]) == 0
        assert "omega3=0.2" in capsys.readouterr().out

    def test_model_omega2_overrides_mode_shift(self, tmp_path, capsys):
        raw = json.loads(json.dumps(ACHIRAL_MODEL))
        raw["beams"]["omega2"] = 0.09
        path = tmp_path / "omega2.json"
        path.write_text(json.dumps(raw))
        assert main(["invariants", "--input", str(path)]) == 0
        # omega4 = omega1 - omega2 + omega3 = 0.10 - 0.09 + 0.11
        assert "omega4=0.12" in capsys.readouterr().out


class TestStatesFormVerify:
    def test_states_model_runs_through_verify(self, tmp_path, capsys):
        path = tmp_path / "states.json"
        path.write_text(json.dumps(STATES_MODEL))
        # the fixture model is deliberately not route-consistent, so the
        # tensor build warns while verify still runs
        with pytest.warns(UserWarning, match="route disagreement"):
            code = main(["verify", "--input", str(path),
                         "--samples", "2000", "--seed", "21"])
        text = capsys.readouterr().out
        # omega3 = omega4 here, so the closed forms all pass their oracles;
        # this single-component model even has a vanishing magnetic average,
        # so the renditions agree too and the whole run is clean
        assert code == 0
        assert "mode 'two-level'" in text

    def test_a_pair_given_twice_is_an_error(self, tmp_path, capsys):
        raw = json.loads(json.dumps(STATES_MODEL))
        raw["moments"]["mu"].append({"pair": ["s", "t"], "value": [2.0, 0.0, 0.0]})
        path = tmp_path / "states.json"
        path.write_text(json.dumps(raw))
        assert main(["delta", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == ("error: moments.mu[4].pair: 's', 't' is already given "
                                "by moments.mu[0]\n")


# every control character, the characters the writer splits or formats at
# ("," and "\n", "%" and "s"), quotes, backslashes, and characters beyond ASCII
# and beyond the BMP
_ODD_CHARACTERS = [chr(c) for c in range(0x20)] + ['"', "\\", ",", "%", "s", "{", "}", ":",
                                                   "\u00e9", "\u2028", "\ud800", "\U0001d6fc"]
_ODD_NAMES = st.text(st.sampled_from(_ODD_CHARACTERS) | st.characters(), max_size=6)
_ODD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                1.7976931348623157e308, -1.7976931348623157e308, True, False])
_CELLS = _ODD_NUMBERS | st.floats() | st.integers() | st.none() | _ODD_NAMES


def _record(columns: dict, j: int) -> dict:
    """Record `j` of the column table `columns`; a dict of columns is a nested record."""
    return {key: _record(column, j) if isinstance(column, dict) else column[j]
            for key, column in columns.items()}


def _assert_written_as_records(columns: dict, rows: int, depth: int):
    """`cli` writes the table `columns` of `rows` records as json.dumps of them,
    each record at `depth` and all of them as the `modes` list of one object."""
    records = [_record(columns, j) for j in range(rows)]
    assert carscid.cli._records(columns, depth) == [
        json.dumps(r, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
        for r in records]
    assert carscid.cli._modes_json(columns) == json.dumps({"modes": records}, indent=2,
                                                          sort_keys=True)


def _columns(rows: int, nesting: int):
    """Tables of `rows` records whose columns are of each kind `cli` writes:
    scalars, rows of scalars (empty ones too) and, `nesting` levels deep,
    nonempty dicts of such columns."""
    kinds = [st.lists(_CELLS, min_size=rows, max_size=rows),
             st.lists(st.lists(_CELLS, max_size=3), min_size=rows, max_size=rows)]
    if nesting:
        kinds.append(_columns(rows, nesting - 1))
    return st.dictionaries(_ODD_NAMES, st.one_of(kinds), min_size=1, max_size=4)


@st.composite
def _column_tables(draw):
    rows = draw(st.integers(0, 4))
    return draw(_columns(rows, 2)), rows


class TestJsonTextTables:
    """The column-table writer against json.dumps of the table's records."""

    @settings(max_examples=60, deadline=None)
    @given(_column_tables(), st.integers(0, 2))
    def test_a_table_is_written_as_its_records(self, table, depth):
        _assert_written_as_records(*table, depth)

    @pytest.mark.parametrize("rows", [0, 1, 1024, 1025])
    def test_tables_across_a_batch_seam(self, rows):
        rng = np.random.default_rng(rows)
        odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
        names = ["".join(rng.choice(_ODD_CHARACTERS, size=3)) + str(j) for j in range(rows)]
        columns = {"mode": names, "delta": (rng.normal(size=rows) * 1e-3).tolist(),
                   "rate_R": [odd[j % len(odd)] for j in range(rows)],
                   "two_frequency_consistent": (rng.random(rows) < 0.5).tolist(),
                   "alpha": [odd[:j % 4] for j in range(rows)],
                   "dependence": {"alpha": {"relative": rng.random(rows).tolist(),
                                            "residual": rng.normal(size=(rows, 2)).tolist()}},
                   "naturals": {"a": {"0,1,1": rng.normal(size=rows).tolist()}}}
        for depth in range(3):
            _assert_written_as_records(columns, rows, depth)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_special_values_and_escapes(self, depth):
        columns = {"mode": ['quote " back \\ tab \t nl \n bell \x07',
                            "\u00e9t\u00e9 \u03b1\u2032 \U0001d6fc"],
                   "delta": [-0.0, 1e-320], "rate_R": [math.inf, 1.5e300],
                   "rate_L": [-math.inf, 0.1], "deviation": [math.nan, None],
                   "consistent": [True, False], "count": [3, -7],
                   "alpha": [[1.0, -0.0, math.nan], []], "nested": [[-math.inf], [1, 2]],
                   "dependence": {"alpha": {"residual": [math.nan, -0.0],
                                            "relative": [0.5, math.inf]},
                                  "%s": {"{}": ["%", "%s"]}}}
        _assert_written_as_records(columns, 2, depth)


def _delta_json(raw, tmp_path, command="delta") -> tuple:
    """(exit code, stdout, JSON text) of `command --output` on the model `raw`."""
    path, report = tmp_path / "model.json", tmp_path / f"{command}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        code = main([command, "--input", str(path), "--output", str(report)])
    return code, out.getvalue(), report.read_text(encoding="utf-8")


def _odd_named_modes(count: int) -> dict:
    from test_model_io import many_modes

    raw = many_modes(count)
    for j, mode in enumerate(raw["modes"]):
        mode["name"] = _ODD_CHARACTERS[j % len(_ODD_CHARACTERS)] + f"\\ \u00e9 {j}"
    raw["modes"][count // 2]["alpha34"][0][1] += 1e-9  # warns: parsed mode by mode
    return raw


@pytest.mark.parametrize("count", [1, 1024, 1025])
def test_delta_json_is_json_dumps_of_its_records_across_the_batch_seam(count, tmp_path):
    raw = _odd_named_modes(count)
    code, out, text = _delta_json(raw, tmp_path)
    records = json.loads(text)["modes"]
    assert code == 0 and text == json.dumps({"modes": records}, indent=2, sort_keys=True) + "\n"
    assert [r["mode"] for r in records] == [mode["name"] for mode in raw["modes"]]
    deltas = re.findall(r"^mode .*: delta=(\S+)  rate_R=", out, re.MULTILINE)
    assert [float(d) for d in deltas] == [r["delta"] for r in records]


# recorded with the nested per-mode records of the recursive JSON writer:
# stdout and --output digests
INVARIANTS_PINS = {1: ("1d64c690088d9362", "7afc0737dd579706"),
                   1024: ("62b4060db48d2d4f", "57c6e77cf65c2065"),
                   1025: ("47ba03b8cdd44f56", "1249c915bfd1bc5f")}


@pytest.mark.parametrize("count", [1, 1024, 1025])
def test_invariants_json_is_json_dumps_of_its_records_across_the_batch_seam(count, tmp_path):
    raw = _odd_named_modes(count)
    code, out, text = _delta_json(raw, tmp_path, "invariants")
    assert (_digest(out), _digest(text)) == INVARIANTS_PINS[count]
    records = json.loads(text)["modes"]
    assert code == 0 and text == json.dumps({"modes": records}, indent=2, sort_keys=True) + "\n"
    assert [r["mode"] for r in records] == [mode["name"] for mode in raw["modes"]]
    lines = out.split("\n")
    assert [line for line in lines if line.startswith("=== mode ")] == [
        f"=== mode {r['mode']!r} (omega3={r['omega3']:.12g}, omega4={r['omega4']:.12g}) ==="
        for r in records]
    alphas = [line.split(" : ")[1].split("  ") for line in lines
              if line.startswith("  [alpha]_1..10 : ")]
    assert [[float(v) for v in alpha] for alpha in alphas] == [r["alpha"] for r in records]


def test_delta_json_keeps_its_bytes_when_a_batch_is_rerun_mode_by_mode(tmp_path, monkeypatch):
    monkeypatch.setattr(carscid.errors, "MAX_BATCH", 4)
    raw = _odd_named_modes(11)  # batches of 4, 4 and 3 modes
    want = _delta_json(raw, tmp_path)
    signal, sizes = carscid.cli.signal_for_tensors, []

    def fail_on_the_first_batch(tensors, beams, ctx):
        sizes.append(beams.omega.shape[1])
        if len(sizes) == 1:
            raise CarscidError("the first batch")
        return signal(tensors, beams, ctx)

    monkeypatch.setattr(carscid.cli, "signal_for_tensors", fail_on_the_first_batch)
    (tmp_path / "rerun").mkdir()
    assert _delta_json(raw, tmp_path / "rerun") == want
    assert sizes == [4, 1, 1, 1, 1, 4, 3]


class TestErrors:
    def test_missing_input_file(self, capsys):
        code = main(["delta", "--input", "/nonexistent/path.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_schema_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code = main(["delta", "--input", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_too_few_mc_samples(self, capsys):
        code = main(["verify", "--sets", "1", "--samples", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--sets=-2", "--seed=-1"])
    def test_negative_verify_integer(self, capsys, flag):
        # --sets -2 was accepted silently, --seed -1 ended in a numpy traceback
        code = main(["verify", "--sets", "0", "--samples", "1000", flag])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag.split("=")[0] in err

    @pytest.mark.parametrize("text", [
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(json.dumps(ACHIRAL_MODEL).replace("1.3", "true").encode(),
                     id="bool-leaf"),
        pytest.param(json.dumps(ACHIRAL_MODEL).replace("1.3", '"1.3"').encode(),
                     id="string-leaf")])
    def test_model_outside_the_schema(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code = main(["delta", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("scan", ["1100,900,10", "900,1100,0", "0,1e300,1e-300",
                                      "0,1e10,1e-5"])
    def test_bad_scan_range(self, achiral_path, capsys, scan):
        code = main(["spectrum", "--input", achiral_path, "--scan", scan])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scan" in err

    @pytest.mark.parametrize("width", ["0", "-3", "nan"])
    def test_bad_width(self, achiral_path, capsys, width):
        # the one-point grid sits on the mode centre
        code = main(["spectrum", "--input", achiral_path, "--scan", "1000,1000,1",
                     "--width", width])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "width" in err
        assert "Traceback" not in err


def _with(beams=None, shift_cm1=None):
    """ACHIRAL_MODEL with beams entries and the mode's shift replaced."""
    raw = json.loads(json.dumps(ACHIRAL_MODEL))
    raw["beams"].update(beams or {})
    if shift_cm1 is not None:
        raw["modes"][0]["shift_cm1"] = shift_cm1
    return raw


# each row ended in nan output, a silent acceptance or a traceback
BAD_BEAMS = [
    pytest.param(["delta", "--omega1", "nan"], None, id="delta-omega1-nan"),
    pytest.param(["delta", "--omega3", "inf"], None, id="delta-omega3-inf"),
    pytest.param(["spectrum", "--omega1", "nan"], None, id="spectrum-omega1-nan"),
    pytest.param(["invariants", "--omega3", "nan"], None, id="invariants-omega3-nan"),
    pytest.param(["verify", "--sets", "0", "--samples", "1000", "--omega3", "nan"], None,
                 id="verify-fixtures-omega3-nan"),
    pytest.param(["verify", "--sets", "0", "--samples", "1000", "--omega4=-0.2"], None,
                 id="verify-fixtures-omega4-negative"),
    pytest.param(["verify", "--sets", "0", "--samples", "1000", "--omega1", "nan"], None,
                 id="verify-fixtures-reject-omega1"),
    pytest.param(["verify", "--samples", "1000", "--omega4", "nan"], _with(),
                 id="verify-input-rejects-omega4"),
    pytest.param(["verify", "--samples", "1000", "--sets", "50"], _with(),
                 id="verify-input-rejects-sets"),
    pytest.param(["delta", "--omega3=-0.1"], None, id="delta-omega3-negative"),
    pytest.param(["delta"], _with(shift_cm1=-40000.0), id="delta-shift-drives-omega4-negative"),
    pytest.param(["verify", "--samples", "1000"], _with(shift_cm1=-40000.0),
                 id="verify-shift-drives-omega4-negative"),
    pytest.param(["delta"], _with(beams={"omega2": 0.25}), id="delta-omega2-too-large"),
    pytest.param(["verify", "--samples", "1000"], _with(beams={"omega2": 0.25}),
                 id="verify-omega2-too-large"),
    pytest.param(["spectrum", "--omega1", "0.001", "--scan", "1000,1002,1"], None,
                 id="spectrum-scan-drives-omega2-negative"),
    pytest.param(["delta"], _with(beams={"photons": [-1, 1, 1, 1]}),
                 id="delta-negative-photons"),
    pytest.param(["spectrum"], _with(beams={"photons": [-1, 1, 1, 1]}),
                 id="spectrum-negative-photons"),
]


@pytest.mark.parametrize("argv,model", BAD_BEAMS)
def test_bad_beam_value_is_an_error_line(argv, model, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model or ACHIRAL_MODEL))
    if argv[0] != "verify" or model is not None:
        argv = argv + ["--input", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert "nan" not in captured.out


_DROP = object()
STATES = readme_states_model()


def _edited(base, *edits):
    """A copy of `base` with each (keys, value) edit applied: `keys` leads to the
    entry that takes `value`, or that is removed when `value` is `_DROP`."""
    raw = json.loads(json.dumps(base))
    for keys, value in edits:
        *parents, last = keys
        target = functools.reduce(operator.getitem, parents, raw)
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
    return raw


def _case(message, *edits, base=ACHIRAL_MODEL, argv=("delta",)):
    return pytest.param(list(argv), _edited(base, *edits), message, id=message)


TINY = [[1e-100] * 3] * 3

# every message of an error path that no other test reaches
ERROR_PATHS = [
    _case("beams: expected an object", (("beams",), [])),
    _case("scan: expected an object", (("scan",), "x")),
    _case("beams.photons: expected a list of four numbers", (("beams", "photons"), [1, 1, 1])),
    _case("beams.omega1: must be positive", (("beams", "omega1"), -0.1)),
    _case("modes[0]: expected an object", (("modes",), [1])),
    _case("modes[0].name: expected a nonempty string", (("modes", 0, "name"), "")),
    _case("modes: expected a nonempty list", (("modes",), [])),
    _case("constants: expected an object", (("constants",), [])),
    _case("constants.c: must be positive", (("constants", "c"), 0)),
    _case("levels: expected a nonempty list", (("levels",), []), base=STATES),
    _case("levels[0]: expected an object", (("levels",), [1]), base=STATES),
    _case("levels[2].id: expected a nonempty string", (("levels", 2, "id"), ""), base=STATES),
    _case("levels[5].id: duplicate level id 'g'",
          (("levels",), STATES["levels"] + [{"id": "g", "energy": 1.0}]), base=STATES),
    _case("moments: expected an object", (("moments",), []), base=STATES),
    _case("moments.mu: expected a list of {pair, value} objects",
          (("moments", "mu"), {}), base=STATES),
    _case("moments.mu[0]: expected an object", (("moments", "mu"), [1]), base=STATES),
    _case("roles: expected an object", (("roles",), []), base=STATES),
    _case("roles.ground: expected a level id string", (("roles", "ground"), 1), base=STATES),
    _case("roles.pump_intermediates: expected a list of level ids",
          (("roles", "pump_intermediates"), "abc"), base=STATES),
    _case("roles.probe_intermediates[1]: duplicate level id 'r'",
          (("roles", "probe_intermediates"), ["r", "r"]), base=STATES),
    _case("resonance_guard: must be positive", (("resonance_guard",), -1), base=STATES),
    _case("name: expected a nonempty string", (("name",), ""), base=STATES),
    _case("mode 'two-level': no electric-quadrupole moment stored for level pair (r, s)",
          (("moments", "quadrupole"), _DROP), base=STATES),
    _case("model has no beams block; pass --omega1 and --omega3", (("beams",), _DROP)),
    _case("--scan: expected start,stop,step in cm^-1", argv=("spectrum", "--scan", "1,2")),
    _case("--scan: expected three numbers", argv=("spectrum", "--scan", "a,b,c")),
    _case("no scan grid: give --scan or a scan block in the model", (("scan",), _DROP),
          argv=("spectrum",)),
    _case("--samples: 10000001 Monte Carlo samples, more than the 10000000 allowed",
          argv=("verify", "--samples", "10000001")),
    _case("--quad-order: the doubled-order grid has 10080000 rotations, more than the "
          "10000000 allowed", argv=("verify", "--quad-order", "100,100,126")),
    _case("total rate vanished at shift 1000.0 cm^-1",
          (("modes", 0, "alpha34"), TINY), (("modes", 0, "alpha12"), TINY),
          argv=("spectrum", "--scan", "1000,1001,1")),
    # a warning that the filter turns into an error: one mode's, raised as it is
    # parsed, and one of a grid of three points, issued once the grid has passed
    *(pytest.param([command], _edited(ACHIRAL_MODEL, (("modes", 0, "alpha34", 0, 1), 0.2 + 1e-9)),
                   "alpha34: symmetrized away relative asymmetry 5.882e-10",
                   id=f"{command} on a warning mode")
      for command in ("delta", "invariants", "verify", "spectrum")),
    _case("gprime34: route disagreement 2.000e+00 above 1e-06; model may be inconsistent",
          base=STATES_MODEL, argv=("spectrum", "--scan", "900,1100,100")),
]


@pytest.mark.parametrize("argv,model,message", ERROR_PATHS)
def test_an_error_path_is_its_one_error_line(argv, model, message, tmp_path, capsys):
    path, output = tmp_path / "model.json", tmp_path / "out"
    path.write_text(json.dumps(model))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        code = main(argv + ["--input", str(path), "--output", str(output)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out and not output.exists()
    # the whole of stderr: one error line, no traceback
    assert captured.err == f"error: {message}\n"


# an --output that cannot be written is the one error line, before any report is printed
UNWRITABLE_OUTPUTS = [
    pytest.param(["delta", "--input", "{model}"], id="delta"),
    pytest.param(["invariants", "--input", "{model}"], id="invariants"),
    pytest.param(["verify", "--quad-order", "4,4,4", "--samples", "1000", "--input", "{model}"],
                 id="verify-input"),
    pytest.param(["verify", "--sets", "0", "--samples", "1000"], id="verify-fixtures"),
    pytest.param(["spectrum", "--input", "{model}"], id="spectrum"),
]


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUTS)
def test_an_unwritable_output_is_its_one_error_line(argv, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(ACHIRAL_MODEL))
    output = tmp_path / "missing" / "out"
    code = main([arg.format(model=path) for arg in argv] + ["--output", str(output)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(output)!r}\n"


# a usage error is an operational error, exit 1, so it is not taken for verify's 2
USAGE_ERRORS = [
    (["verify", "--samples", "abc"], "argument --samples: invalid int value: 'abc'"),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    (["delta"], "the following arguments are required: --input"),
    (["spectrum", "--scan", "-100,100,50"], "argument --scan: expected one argument"),
    (["invariants"], "the following arguments are required: --input"),
    (["spectrum"], "the following arguments are required: --input"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_a_usage_error_is_its_one_error_line(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == f"error: {message}\n"


HELP_OPTIONS = {
    "verify": ["--input", "--output", "--omega1", "--omega3", "--omega4", "--seed", "--samples",
               "--quad-order", "--sets"],
    "invariants": ["--input", "--output", "--omega1", "--omega3"],
    "delta": ["--input", "--output", "--omega1", "--omega3", "--normalize"],
    "spectrum": ["--input", "--output", "--omega1", "--omega3", "--normalize", "--scan",
                 "--width"],
}


def test_help_still_exits_0(capsys):
    for command, options in HELP_OPTIONS.items():  # each command lists its options
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        assert all(re.search(rf"^  {option}\b", out, re.MULTILINE) for option in options)



def test_main_builds_its_parser_once(chiral_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(
                            self, *args, **kwargs))
    carscid.cli._build_parser.cache_clear()
    assert main(["delta", "--input", chiral_path]) == 0
    count = len(built)  # the parser, its subparsers and the shared option groups
    assert count and main(["delta", "--input", chiral_path]) == 0
    assert main(["spectrum", "--input", chiral_path]) == 0 and len(built) == count


def _outcome(argv, capsys) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_state_carries_over_from_one_call_to_the_next(chiral_path, tmp_path, capsys):
    spectrum = ["spectrum", "--input", chiral_path]
    plain = _outcome(spectrum, capsys)
    assert plain[0] == 0 and plain[1]
    assert _outcome(spectrum + ["--width", "7.5"], capsys) != plain
    assert _outcome(spectrum, capsys) == plain
    verify = ["verify", "--sets", "1", "--samples", "1000"]
    default = _outcome(verify, capsys)
    assert _outcome(verify + ["--seed", "7"], capsys) != default
    assert _outcome(verify, capsys) == default == _outcome(verify + ["--seed", "2025"], capsys)
    usage = _outcome(["spectrum", "--input", chiral_path, "--width"], capsys)
    assert usage == (1, "", "error: argument --width: expected one argument\n")
    assert _outcome(spectrum, capsys) == plain


def test_the_module_entry_point_runs_main(capsys):
    argv = ["verify", "--sets", "0", "--samples", "1000"]
    code = main(argv)
    out = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "carscid.cli", *argv], env=env,
                         capture_output=True, text=True, check=False)
    assert (run.returncode, run.stdout) == (code, out)


NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
# mostly usable values, so that both outcomes are drawn often
FREQUENCY = st.one_of(st.none(), st.floats(0.05, 0.5), st.floats(-0.5, 0.5),
                      st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(["delta", "spectrum"]),
       omega1=FREQUENCY, omega3=FREQUENCY,
       omega2=st.one_of(st.none(), st.floats(-0.5, 0.5)),
       photons=st.one_of(st.just([1.0] * 4),
                         st.lists(st.floats(-2.0, 10.0), min_size=4, max_size=4)),
       shift_cm1=st.floats(-50000.0, 50000.0))
def test_beam_inputs_give_finite_output_or_one_error_line(command, omega1, omega3,
                                                          omega2, photons, shift_cm1):
    raw = _with(beams={"omega2": omega2, "photons": photons}, shift_cm1=shift_cm1)
    argv = [command]
    for flag, value in (("--omega1", omega1), ("--omega3", omega3)):
        if value is not None:
            argv.append(f"{flag}={value!r}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--input", path])
    if code == 0:
        assert out.getvalue() and not NON_FINITE.search(out.getvalue())
        assert not err.getvalue()
    else:
        assert code == 1
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# each argument is drawn valid about half the time, so that examples reach
# the Monte Carlo seed as well as each argument check
QUAD_ORDER = st.one_of(
    *(st.lists(st.integers(lo, 12), min_size=3, max_size=3).map(
        lambda ns: ",".join(str(n) for n in ns)) for lo in (2, -1)),
    st.sampled_from(["10,5", "10,5,10,5", "a,b,c", "10.5,5,10", ""]))


@settings(max_examples=25, deadline=None)
@given(seed=st.one_of(st.integers(-2, -1), st.integers(0, 2**63)),
       sets=st.integers(-2, 2),
       samples=st.one_of(st.integers(1000, 5000), st.integers(-10, 999)),
       quad_order=QUAD_ORDER)
def test_verify_arguments_give_a_finite_report_or_one_error_line(seed, sets, samples,
                                                                 quad_order):
    argv = ["verify", f"--seed={seed}", f"--sets={sets}", f"--samples={samples}",
            f"--quad-order={quad_order}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if err.getvalue():
        assert code == 1 and not out.getvalue()
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        # exit 1 without an error line is a reported finding: a failed check
        # (the quadrupole split at omega3 != omega4, or a non-converged rule)
        assert code in (0, 2) or (code == 1 and "[FAIL]" in out.getvalue())
        assert out.getvalue() and not NON_FINITE.search(out.getvalue())


def _scaled(raw, **scales):
    """`raw` with tensors of its first mode multiplied, as in `alpha34=2.0`."""
    raw = json.loads(json.dumps(raw))
    for key, scale in scales.items():
        raw["modes"][0][key] = (np.asarray(raw["modes"][0][key]) * scale).tolist()
    return raw


def _total_overflows():
    """The chiral model at one shift, where rate_R and rate_L are finite (about
    1.1e308 each) but their sum is not."""
    raw = chiral_model()
    raw["beams"]["photons"] = [1.5e307, 0, 1, 0]
    raw["scan"] = {"start_cm1": 1000.0, "stop_cm1": 1000.0, "step_cm1": 1.0}
    return raw


def _states_scaled(scale):
    """The two-level states model, made route-consistent (m(f, r) = -m(r, s)),
    with its dipole moments multiplied by `scale`."""
    raw = json.loads(json.dumps(STATES_MODEL))
    for entry in raw["moments"]["mu"]:
        entry["value"] = [v * scale for v in entry["value"]]
    raw["moments"]["m_imag"][0]["value"] = [0.0, -1.0, 0.0]
    raw["scan"] = {"start_cm1": 0.0, "stop_cm1": 2.0, "step_cm1": 1.0}
    return raw


# each row exited with an OverflowError traceback, or 0 with inf, nan or
# (spectrum-total-rate-overflows) a delta of 0 from an infinite total rate
OVERFLOWS = [
    pytest.param(command, model, "mode 'achiral'", id=f"{command}-{name}")
    for name, model in (
        ("c-1e100", {**_with(), "constants": {"c": 1e100}}),
        ("photons-1e200", _with(beams={"photons": [1e200, 1, 1e200, 1]})),
        ("tensors-1e200", _scaled(ACHIRAL_MODEL, alpha34=1e200, alpha12=1e200)))
    for command in ("delta", "spectrum")
] + [pytest.param("invariants", _scaled(ACHIRAL_MODEL, alpha34=1e200, alpha12=1e200),
                  "mode 'achiral'", id="invariants-tensors-1e200"),
     pytest.param("spectrum", _total_overflows(), "shift 1000.0 cm^-1",
                  id="spectrum-total-rate-overflows"),
     # finite rates, but delta = chiral / electric past the float range
     pytest.param("delta", _scaled(chiral_model(), alpha34=1e-74, alpha12=1e-74,
                                   gprime34=1e300),
                  "mode 'chiral'", id="delta-ratio-overflows"),
     pytest.param("spectrum", {**_with(beams={"omega1": 1e300, "omega3": 1e300}),
                               "scan": {"start_cm1": 1e304, "stop_cm1": 1e304,
                                        "step_cm1": 1.0, "width_cm1": 1.0}},
                  "mode 'achiral' at shift 1e+304 cm^-1", id="spectrum-lorentzian-overflows"),
     # exited 1 with inf and nan closed forms, RuntimeWarnings from the oracles
     # and NaN and Infinity in the JSON report
     pytest.param("verify", {**chiral_model(), "constants": {"c": 1e-320}},
                  "mode 'chiral': closed-form averages are not finite", id="verify-c-1e-320")
] + [
    # RuntimeWarnings from the sum over states, then a ValueError traceback
    pytest.param(command, _states_scaled(1e160), f"{where}: sum-over-states tensors overflow",
                 id=f"{command}-sum-over-states-overflows")
    for command, where in (*((c, "mode 'two-level'") for c in ("delta", "invariants", "verify")),
                           ("spectrum", "mode 'two-level' at shift 0.0 cm^-1"))
] + [
    # finite sum-over-states alpha34 near the float maximum: a ValueError
    # traceback from its symmetrization, which overflowed
    pytest.param("delta", _states_scaled(9.5e153), "mode 'two-level': isotropic invariants",
                 id="delta-sum-over-states-symmetrization")]


@pytest.mark.parametrize("command,model,where", OVERFLOWS)
def test_overflow_is_one_error_line_naming_where(command, model, where, tmp_path,
                                                    capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out"
    code = main([command, "--input", str(path), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out and not out.exists()
    assert captured.err.startswith(f"error: {where}")
    assert captured.err.count("\n") == 1


def test_verify_at_a_large_tensor_scale_reports_finite_monte_carlo_errors(tmp_path, capsys):
    # scaled by 1e60 the brackets are finite (about 1e240) but their squares
    # are not, which made every Monte Carlo standard error inf
    raw = _scaled(chiral_model(), **dict.fromkeys(("alpha34", "alpha12", "gprime34", "a34"),
                                                  1e60))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    code = main(["verify", "--input", str(path), "--samples", "1000", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and "[FAIL]" in captured.out and not captured.err  # the split finding
    text = out.read_text()
    assert not re.search(r"NaN|Infinity", text)
    stderrs = [check["mc_stderr"] for check in json.loads(text)["reports"][0]["checks"]]
    assert all(0.0 < value < math.inf for value in stderrs[:2])


def test_invariants_run_wherever_delta_does_at_a_large_tensor_scale(tmp_path, capsys):
    # scaled by 4e76 the invariants are finite (up to about 3e307) and delta
    # ran, but sum |coef| |value| overflowed and invariants exited 1
    raw = _scaled(chiral_model(), **dict.fromkeys(("alpha34", "alpha12", "gprime34", "a34"),
                                                  4e76))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "invariants.json"
    assert main(["delta", "--input", str(path)]) == 0
    assert main(["invariants", "--input", str(path), "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert not captured.err and not NON_FINITE.search(captured.out)
    dependence = json.loads(out.read_text())["modes"][0]["dependence"]
    assert all(0.0 <= family["relative"] <= 1e-12 for family in dependence.values())


def _three_modes(swapped):
    """The chiral mode, then one with alpha12 = 0 (delta's electric term
    vanishes) and one whose shift makes omega2 negative; swapped, the far
    shift comes second."""
    raw = chiral_model()
    first = raw["modes"][0]
    zero = dict(first, name="zero-alpha12", alpha12=[[0.0] * 3] * 3)
    far = dict(first, name="far-shift", shift_cm1=40000.0)
    raw["modes"] = [first, far, zero] if swapped else [first, zero, far]
    return raw


FAR_SHIFT = ("error: mode 'far-shift': BeamSet.omega[1] = -0.08225341011647747 "
             "must be positive and finite\n")


@pytest.mark.parametrize("swapped,command,err", [
    (False, "delta", "error: mode 'zero-alpha12': electric reference term 0.0 is not positive\n"),
    (False, "invariants", FAR_SHIFT), (False, "verify", FAR_SHIFT),
    *((True, command, FAR_SHIFT) for command in ("delta", "invariants", "verify"))])
def test_the_first_failing_mode_in_file_order_ends_the_command(swapped, command, err,
                                                                 tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_three_modes(swapped)))
    out = tmp_path / "out.json"
    code = main([command, "--input", str(path), "--output", str(out)]
                + (["--samples", "1000"] if command == "verify" else []))
    captured = capsys.readouterr()
    assert code == 1 and not captured.out and not out.exists()
    assert captured.err == err


def test_verify_ends_at_a_mode_that_fails_before_a_later_mode_fails(tmp_path, capsys):
    # the first mode's invariants overflow in the oracles and the last mode's shift
    # makes omega2 negative: mode by mode, the first mode's error ends the command
    raw = _scaled(_three_modes(False), **dict.fromkeys(("alpha34", "alpha12", "gprime34", "a34"),
                                                       1e100))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--input", str(path), "--samples", "1000"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: mode 'chiral': isotropic invariants overflow the float range\n"


def test_verify_ends_at_the_first_failing_mode_in_batches_of_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)
    test_verify_ends_at_a_mode_that_fails_before_a_later_mode_fails(tmp_path, capsys)


# a tensor scale from 1e-300 to 1e300, so both overflow and finite runs are drawn
SCALE = st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 10.0), st.integers(-300, 299))


@settings(max_examples=50, deadline=None)
@given(omega1=FREQUENCY, omega3=FREQUENCY,
       omega2=st.one_of(st.none(), st.floats(-0.5, 0.5)),
       shift_cm1=st.floats(-50000.0, 50000.0), scale=SCALE)
def test_invariants_inputs_give_finite_output_or_one_error_line(omega1, omega3, omega2,
                                                                shift_cm1, scale):
    raw = _scaled(chiral_model(), **dict.fromkeys(("alpha34", "alpha12", "gprime34", "a34"),
                                                  scale))
    raw["beams"]["omega2"] = omega2
    raw["modes"][0]["shift_cm1"] = shift_cm1
    argv = ["invariants"]
    for flag, value in (("--omega1", omega1), ("--omega3", omega3)):
        if value is not None:
            argv.append(f"{flag}={value!r}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        report = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--input", path, "--output", report])
        written = open(report, encoding="utf-8").read() if os.path.exists(report) else ""
    if code == 0:
        assert out.getvalue() and not NON_FINITE.search(out.getvalue())
        assert written and not re.search(r"NaN|Infinity", written)
        assert not err.getvalue()
    else:
        assert code == 1 and not written
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def _unstackable_model(kind):
    """Four tensor modes, "clean", or with symmetrization warnings in m0's alpha12,
    m1's alpha34 and m3's a34 ("warn"), in m1's alpha34 only ("warn_one") or in
    those three and m2's alpha34 ("warn_all"); with m1's warning and m3's shift a
    string ("warn_then_fail"), or m2's alpha34 warning and its a34 rejected
    ("warn_reject"); or with a34 nested in m1 and m3 and flat in m0 and m2
    ("ragged"); or three with gprime12, a field the schema does not name, in m0
    and m2 only ("mixed").  Entries are rounded to six decimals."""
    rng = np.random.default_rng(2014)
    modes = []
    for j in range(3 if kind == "mixed" else 4):
        m, n, a = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3, 3))
        modes.append({"name": f"m{j}", "shift_cm1": 900.0 + 150.0 * j,
                      "alpha34": np.round(0.5 * (m + m.T), 6).tolist(),
                      "alpha12": np.round(0.5 * (n + n.T), 6).tolist(),
                      "gprime34": np.round(rng.normal(size=(3, 3)), 6).tolist(),
                      "a34": np.round(0.5 * (a + a.swapaxes(1, 2)), 6).reshape(27).tolist()})
        if kind == "mixed" and j != 1:
            modes[j]["gprime12"] = np.round(rng.normal(size=(3, 3)), 6).tolist()
    if kind in ("warn", "warn_all"):  # m0's alpha12 too, so field order is not mode order
        modes[0]["alpha12"][2][0] += 1e-9
        modes[3]["a34"][5] += 1e-9  # [0][1][2], against [0][2][1]
    if kind.startswith("warn"):
        modes[1]["alpha34"][0][1] += 1e-9
    if kind in ("warn_all", "warn_reject"):
        modes[2]["alpha34"][1][2] += 1e-9
    if kind == "warn_reject":
        modes[2]["a34"][5] += 0.1
    if kind == "warn_then_fail":
        modes[3]["shift_cm1"] = str(modes[3]["shift_cm1"])
    if kind == "ragged":  # the a34 column is no array: the modes form no stack
        for mode in modes[1::2]:
            mode["a34"] = np.reshape(mode["a34"], (3, 3, 3)).tolist()
    return {"constants": {"c": 137.035999}, "beams": {"omega1": 0.09, "omega3": 0.08},
            "modes": modes}


def _digest(text):
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_recorded(raw, command, tmp, samples="1000"):
    """(exit code, stdout digest, stderr, warnings, output digest) of `command`
    on the model `raw`, every warning recorded; "roundtrip" is parse then
    serialize.  `verify` runs `samples` Monte Carlo rotations (None: the default)."""
    text = json.dumps(raw)
    path, report = os.path.join(tmp, "model.json"), os.path.join(tmp, "out.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if command == "roundtrip":
                code, written = 0, serialize_model(parse_model(text))
            else:
                code = main([command, "--input", path, "--output", report]
                            + (["--samples", samples] if command == "verify" and samples
                               else []))
                written = None
                if os.path.exists(report):
                    with open(report, encoding="utf-8") as handle:
                        written = handle.read()
    return (code, _digest(out.getvalue()), err.getvalue(),
            [f"{w.category.__name__}: {w.message}" for w in caught], _digest(written))


def _without_gprime12(raw):
    return dict(raw, modes=[{k: v for k, v in mode.items() if k != "gprime12"}
                            for mode in raw["modes"]])


def _a34_flat(raw):
    return dict(raw, modes=[dict(mode, a34=np.ravel(mode["a34"]).tolist())
                            for mode in raw["modes"]])


# recorded with the mode-by-mode parse and evaluation that the stack replaced:
# exit code, stdout digest, stderr, warnings and output digest; or a map to an
# equivalent file, whose outputs are the pin.  The delta stdout digests are of
# that output with line 1 replaced by the current rate header.
_WARNINGS = ["UserWarning: alpha12: symmetrized away relative asymmetry 4.149e-10",
             "UserWarning: alpha34: symmetrized away relative asymmetry 6.048e-10",
             "UserWarning: a34: symmetrized away relative asymmetry 3.486e-10"]
_WARN_ALL = [*_WARNINGS[:2], "UserWarning: alpha34: symmetrized away relative asymmetry 8.317e-10",
             _WARNINGS[2]]
UNSTACKABLE = {
    ("clean", "delta"): (0, "f7d1684d02773de1", "", [], "5dba3d2abf0db1a1"),
    ("clean", "invariants"): (0, "4450323e910ecfcd", "", [], "d9f59ac0c656dfe9"),
    ("clean", "roundtrip"): (0, "e3b0c44298fc1c14", "", [], "41775651fbe935d2"),
    ("clean", "verify"): (1, "dc2eaab078e369e6", "", [], "79e0ac58aa3b30b8"),
    ("mixed", "delta"): (0, "a0d8cb0ce0812f7f", "", [], "2db1bf5389ff4a02"),
    ("mixed", "invariants"): (0, "e8d9746cb7940da1", "", [], "6b9578538c6dff11"),
    ("mixed", "roundtrip"): _without_gprime12,
    ("mixed", "verify"): (1, "9975d3e08377137a", "", [], "3d5657c84b9f4109"),
    ("warn", "delta"): (0, "a77eb8a3724aef23", "", _WARNINGS, "b6a507b18b23f7ba"),
    ("warn", "invariants"): (0, "b39f03024f1d8a09", "", _WARNINGS, "4c719d5c7dd5bcf8"),
    ("warn", "roundtrip"): (0, "e3b0c44298fc1c14", "", _WARNINGS, "cee727cdd2928eb7"),
    ("warn", "verify"): (1, "ce324e4cf91bae7e", "", _WARNINGS, "657db8fbabeb4907"),
    ("warn_one", "delta"): (0, "740605e39306b18b", "", _WARNINGS[1:2], "a5fff2f070040b11"),
    ("warn_one", "invariants"): (0, "24179cc5129cf176", "", _WARNINGS[1:2], "269fe27a572a1d23"),
    ("warn_one", "roundtrip"): (0, "e3b0c44298fc1c14", "", _WARNINGS[1:2], "1c8ed331ca13c144"),
    ("warn_one", "verify"): (1, "7691837883d1ccf3", "", _WARNINGS[1:2], "a2defb883404a05b"),
    ("warn_all", "delta"): (0, "21d4d6e8aa03a001", "", _WARN_ALL, "15e2dec3f8d1e323"),
    ("warn_all", "invariants"): (0, "a499102e00ba9f49", "", _WARN_ALL, "a87cd5c6a2893622"),
    ("warn_all", "roundtrip"): (0, "e3b0c44298fc1c14", "", _WARN_ALL, "6e67d0cccc58c0ff"),
    ("warn_all", "verify"): (1, "3477081af11226af", "", _WARN_ALL, "4358c0ff38de42db"),
    **{("warn_then_fail", command): (
        1, "e3b0c44298fc1c14", "error: modes[3].shift_cm1: expected a number, got str\n",
        _WARNINGS[1:2], None) for command in ("delta", "invariants", "verify")},
    **{("warn_reject", command): (
        1, "e3b0c44298fc1c14", "error: mode 'm2': a34: relative asymmetry in the last two "
        "indices 6.030e-02 exceeds 1e-06\n", _WARN_ALL[1:3], None)
       for command in ("delta", "invariants", "verify")},
    **{("ragged", command): _a34_flat for command in ("delta", "invariants", "roundtrip",
                                                       "verify")},
}


@pytest.mark.parametrize("kind,command", list(UNSTACKABLE))
def test_files_that_form_no_stack_report_as_mode_by_mode(kind, command, tmp_path):
    raw, expected = _unstackable_model(kind), UNSTACKABLE[kind, command]
    if callable(expected):
        (tmp_path / "equivalent").mkdir()
        expected = _run_recorded(expected(raw), command, str(tmp_path / "equivalent"))
    assert _run_recorded(raw, command, str(tmp_path)) == expected


@pytest.mark.parametrize("kind,command", list(UNSTACKABLE))
def test_files_that_form_no_stack_report_alike_in_batches_of_two(kind, command, tmp_path,
                                                                 monkeypatch):
    monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)
    test_files_that_form_no_stack_report_as_mode_by_mode(kind, command, tmp_path)


def test_verify_at_the_default_samples_keeps_its_bits(tmp_path):
    # recorded with the einsum formulation of lab_components; 100,000 rotations
    # are thirteen Monte Carlo chunks per mode, so every chunk seam is pinned
    assert _run_recorded(_unstackable_model("clean"), "verify", str(tmp_path),
                         samples=None) == (1, "c9e9f32138bd7a44", "", [], "b9b897484f2e2282")


_ROUTE = "UserWarning: gprime34: route disagreement 2.000e+00 above 1e-06; model may be inconsistent"

# recorded with the row-per-point spectrum: exit code, stdout digest, stderr,
# warnings and CSV digest.  The tensor scan 300,2000,1.5 is 1134 points, two
# batches of errors.MAX_BATCH, so the seam between batches is pinned; the states
# model warns at each of its three points, and at each of the 1100 of its seam scan
SPECTRUM_PINS = {
    "clean": (0, "e3b0c44298fc1c14", "", [], "1b85e989daa27651"),
    "warn": (0, "e3b0c44298fc1c14", "", _WARNINGS, "546ec3cc5069c270"),
    "states": (0, "e3b0c44298fc1c14", "", [_ROUTE] * 3, "bffa3c09a8de6231"),
    "states_seam": (0, "e3b0c44298fc1c14", "", [_ROUTE] * 1100, "a7dd8360bcc21828"),
}


@pytest.mark.parametrize("kind", list(SPECTRUM_PINS))
def test_spectrum_csv_keeps_its_bytes(kind, tmp_path):
    if kind == "states":
        raw = dict(STATES_MODEL, scan={"start_cm1": 900.0, "stop_cm1": 1100.0,
                                       "step_cm1": 100.0})
    elif kind == "states_seam":  # 1100 points, each warning: two batches
        raw = dict(STATES_MODEL, scan={"start_cm1": 900.0, "stop_cm1": 1119.8,
                                       "step_cm1": 0.2})
    else:
        raw = dict(_unstackable_model(kind), scan={"start_cm1": 300.0, "stop_cm1": 2000.0,
                                                   "step_cm1": 1.5, "width_cm1": 20.0})
    assert _run_recorded(raw, "spectrum", str(tmp_path)) == SPECTRUM_PINS[kind]


#: Option variants of the `spectrum-tensor` benchmark command; the scan is 3201
#: points, four batches of errors.MAX_BATCH, so three seams are pinned.
BENCH_TENSOR_OPTIONS = {
    "default": [], "width": ["--width", "3"], "normalize": ["--normalize"],
    "scan": ["--scan", "400,2000,0.5"], "beams": ["--omega1", "0.2", "--omega3", "0.15"],
}

# sha256 of the CSV of the `spectrum-tensor` benchmark model per seed and option
# variant, recorded with the mode-by-mode scan
BENCH_TENSOR_CSV = {
    (7, "default"): "6aea20bd5d66cf279a61877b832029c6751632eb8334d1175931d1470fcbb811",
    (7, "width"): "8024316177fe0d9aa06ee08f966f2d9405cd92987cfe4721b8c5a4cbd92ce76c",
    (7, "normalize"): "bbb28f6a0c710170adc3d279b7ee5782258c9ac1b69d6c59dbec6b349b85ee8e",
    (7, "scan"): "960a7d658a646812e075abf0624e0d4bede31f21c7d3d486635a7dee70945e2e",
    (7, "beams"): "bd2c0ace07137f616ed6aee3454bee5297d4e2f6c4e56f8e3e9d03a8f9fbb7c6",
    (13, "default"): "2a2343f5d407b5184e77cd513a3e62c189d32aa822452f4870536d6c0792b795",
    (13, "width"): "8d0af094e7820e2fbe422b59587e81c1c0f4da075725eccb75ff14591c3f964d",
    (13, "normalize"): "b44c69c616dc7d1a33b3486cd67d182309301b0df5caa8e642ac71ca08844623",
    (13, "scan"): "36a4f013f8908fa79524ffc9cf605683da65b1f0e94f2e5e5f06ee26b46ff384",
    (13, "beams"): "50e31a4066951380d2bebe8928b820c77185411a7c398d5ac15f9526fcfc6e06",
    (29, "default"): "298915d6ec75d8719a8cb88574bdf81bf98268d3e6ec71f3a09beea9318ff1b0",
    (29, "width"): "dc8087f4bc1c2f1b01f41b71e1bc38f8364c4bd9bd44b00e3597bb7c255b6fce",
    (29, "normalize"): "c771af25516d48c3ad9279d24f5830d4c51f5c6a9b0e6eccb2f275b1f425e77d",
    (29, "scan"): "5bd1c957fb09a5a32513c0fa667c90767e92fd7af5e34dfce9ee57dad19e3c95",
    (29, "beams"): "cf6cb78c127df281d1fe55ed327860eb8ec28186f9f30ea528160535db772a0d",
}


@pytest.mark.parametrize("seed,option", list(BENCH_TENSOR_CSV))
def test_bench_tensor_spectrum_csv_keeps_its_bytes(seed, option, tmp_path):
    workload = bench_workloads().make("spectrum-tensor", seed)
    model, output = tmp_path / "model.json", tmp_path / "out.csv"
    model.write_text(workload.model_text(), encoding="utf-8")
    assert main(workload.command(str(model), str(output)) + BENCH_TENSOR_OPTIONS[option]) == 0
    assert hashlib.sha256(output.read_bytes()).hexdigest() == BENCH_TENSOR_CSV[seed, option]


def test_bench_tensor_spectrum_streams_the_same_bytes_to_stdout(tmp_path):
    workload = bench_workloads().make("spectrum-tensor", 7)
    model = tmp_path / "model.json"
    model.write_text(workload.model_text(), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["spectrum", "--input", str(model), *BENCH_TENSOR_OPTIONS["scan"]]) == 0
    assert not out.closed  # the stdout of the call is written to, never closed
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == BENCH_TENSOR_CSV[7, "scan"]


def _spectrum_peak(path, output, points) -> int:
    """The tracemalloc peak, in bytes, of `spectrum --output` on the model at `path`
    over `points` grid points."""
    argv = ["spectrum", "--input", path, "--output", output, "--scan",
            f"500,{500 + points - 1},1"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_memory_per_grid_point_is_the_result_columns(chiral_path, tmp_path):
    # the CSV is written a batch of rows at a time, so what grows with the grid is
    # the five float64 result columns and the grid; every line held was ~430 B a point
    output = str(tmp_path / "out.csv")
    main(["spectrum", "--input", chiral_path, "--output", output, "--scan", "500,510,1"])
    small, large = (_spectrum_peak(chiral_path, output, n) for n in (2_000, 20_000))
    assert (large - small) / 18_000 < 200


def test_a_ragged_file_is_joined_from_one_mode_stacks():
    raw = _unstackable_model("ragged")
    with pytest.raises(SchemaError, match=r"modes\[0\]\.a34"):
        _tensor_stack(raw["modes"], 0)
    assert parse_model(json.dumps(raw)).tensors.a34.shape == (4, 3, 3, 3)


def _with_pump_stokes_optical(raw):
    """`raw` with the pump/Stokes optical-activity fields that no command reads:
    the states form's pump_stokes_optical, every tensor mode's gprime12 and a12."""
    if "levels" in raw:
        return dict(raw, pump_stokes_optical=True)
    rng = np.random.default_rng(12)
    return dict(raw, modes=[dict(mode, gprime12=rng.normal(size=(3, 3)).tolist(),
                                 a12=rng.normal(size=27).tolist()) for mode in raw["modes"]])


@pytest.mark.parametrize("command", ["delta", "invariants", "roundtrip", "spectrum", "verify"])
@pytest.mark.parametrize("form", ["tensor", "states"])
def test_pump_stokes_optical_fields_are_ignored(form, command, tmp_path):
    raw = dict(STATES_MODEL if form == "states" else _unstackable_model("clean"),
               scan={"start_cm1": 900.0, "stop_cm1": 1100.0, "step_cm1": 100.0})
    (tmp_path / "without").mkdir()
    assert _run_recorded(_with_pump_stokes_optical(raw), command, str(tmp_path)) == (
        _run_recorded(raw, command, str(tmp_path / "without")))


_FIELDS = ("alpha34", "alpha12", "gprime34", "a34")


@pytest.mark.parametrize("kind", ["warn_one", "warn_all"])
def test_a_file_that_warns_keeps_one_stack(kind, tmp_path, monkeypatch):
    raw = _unstackable_model(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mf = parse_model(json.dumps(raw))
        alone = [parse_model(json.dumps(dict(raw, modes=[mode]))).modes[0].tensors
                 for mode in raw["modes"]]
    assert mf.tensors.alpha34.shape == (4, 3, 3)
    for j, tensors in enumerate(alone):
        for name in _FIELDS:
            row, value = getattr(mf.tensors, name), getattr(tensors, name)
            assert list(map(float.hex, row[j].ravel().tolist())) == list(
                map(float.hex, value.ravel().tolist()))
    calls, stacks = [], []
    signal, stack = carscid.cli.signal_for_tensors, carscid.model_io._tensor_stack
    monkeypatch.setattr(carscid.cli, "signal_for_tensors",
                        lambda *args: calls.append(args) or signal(*args))
    monkeypatch.setattr(carscid.model_io, "_tensor_stack",
                        lambda *args: stacks.append(args) or stack(*args))
    assert _run_recorded(raw, "delta", str(tmp_path)) == UNSTACKABLE[kind, "delta"]
    assert len(calls) == 1 and len(stacks) == 1  # one pass: no rerun mode by mode


def _recorded_parse(raw, action):
    """(text, filename, line) of each warning that parsing `raw` shows under the
    filter `action`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        parse_model(json.dumps(raw))
    return [(str(w.message), w.filename, w.lineno) for w in caught]


def _twin_warnings_model():
    """Three modes of the "clean" file, m0 and m2 with one alpha34 that warns:
    the same text at the same line."""
    raw = _unstackable_model("clean")
    raw["modes"] = raw["modes"][:3]
    raw["modes"][2]["alpha34"] = [list(row) for row in raw["modes"][0]["alpha34"]]
    for mode in raw["modes"][::2]:
        mode["alpha34"][0][1] += 1e-9
    return raw


def test_the_default_action_shows_a_repeated_warning_once():
    assert [text for text, *_ in _recorded_parse(_twin_warnings_model(), "default")] == [
        "alpha34: symmetrized away relative asymmetry 1.175e-09"]


def test_a_warning_of_a_stack_names_the_line_a_mode_alone_names():
    raw = _twin_warnings_model()
    alone = _recorded_parse(dict(raw, modes=raw["modes"][:1]), "always")
    assert len(alone) == 1 and _recorded_parse(raw, "always") == alone * 2


def _located_states_model(kind):
    """The two-level states model with a scan block: "resonant" puts omega1 on an
    intermediate's gap, "missing" drops the last electric-dipole moment, and
    "warn" keeps the model, whose G' routes disagree."""
    raw = json.loads(json.dumps(STATES_MODEL))
    raw["scan"] = {"start_cm1": 900.0, "stop_cm1": 1100.0, "step_cm1": 100.0}
    if kind == "resonant":
        raw["beams"]["omega1"] = 2.0
    elif kind == "missing":
        raw["moments"]["mu"].pop()
    return raw


@pytest.mark.parametrize("command", ["delta", "invariants", "verify", "spectrum"])
@pytest.mark.parametrize("kind", ["resonant", "missing"])
def test_an_error_evaluating_a_mode_names_the_mode(kind, command, tmp_path, capsys):
    path, out = tmp_path / "model.json", tmp_path / "out"
    path.write_text(json.dumps(_located_states_model(kind)))
    code = main([command, "--input", str(path), "--output", str(out)]
                + (["--samples", "1000"] if command == "verify" else []))
    captured = capsys.readouterr()
    assert code == 1 and not captured.out and not out.exists()
    where = "mode 'two-level' at shift 900.0 cm^-1" if command == "spectrum" else "mode 'two-level'"
    assert captured.err.startswith(f"error: {where}: ") and captured.err.count("\n") == 1
    assert captured.err[len(f"error: {where}: ")] not in "'\""


@pytest.mark.parametrize("command", ["delta", "invariants", "verify", "spectrum"])
def test_a_one_mode_file_that_warns_is_built_once(command, tmp_path, monkeypatch):
    calls = []
    build = carscid.cid.build_property_tensors
    monkeypatch.setattr(carscid.cid, "build_property_tensors",
                        lambda *args: calls.append(args) or build(*args))
    code, _, err, caught, written = _run_recorded(_located_states_model("warn"), command,
                                                  str(tmp_path))
    assert code == 0 and not err and written
    # spectrum warns at each of its three grid points, in one pass over them
    assert len(caught) == (3 if command == "spectrum" else 1)
    assert all(w.startswith("UserWarning: gprime34: route disagreement") for w in caught)
    assert len(calls) == 1
