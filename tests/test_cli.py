import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carscid.cli import main

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
        from test_model_io import STATES_MODEL

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

    @pytest.mark.parametrize("scan", ["1100,900,10", "900,1100,0"])
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
