import json

import numpy as np
import pytest

from carscid.cid import StatesMode, TensorMode
from carscid.errors import RoleError, SchemaError, SymmetryError
from carscid.model_io import model_to_dict, parse_model, serialize_model
from carscid.scattering import BeamSet
from carscid.sos import build_property_tensors

MINIMAL_TENSOR_MODEL = {
    "constants": {"c": 137.035999},
    "beams": {"omega1": 0.10, "omega3": 0.11},
    "modes": [
        {
            "name": "breathing",
            "shift_cm1": 1000.0,
            "alpha34": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "alpha12": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    ],
}

STATES_MODEL = {
    "constants": {"c": 137.035999},
    "beams": {"omega1": 1.0, "omega3": 1.0},
    "name": "two-level",
    "levels": [
        {"id": "g", "energy": 0.0},
        {"id": "s", "energy": 0.0},
        {"id": "f", "energy": 0.0},
        {"id": "t", "energy": 2.0},
        {"id": "r", "energy": 2.0},
    ],
    "moments": {
        "mu": [
            {"pair": ["s", "t"], "value": [1.0, 0.0, 0.0]},
            {"pair": ["t", "g"], "value": [1.0, 0.0, 0.0]},
            {"pair": ["f", "r"], "value": [1.0, 0.0, 0.0]},
            {"pair": ["r", "s"], "value": [1.0, 0.0, 0.0]},
        ],
        "m_imag": [
            {"pair": ["f", "r"], "value": [0.0, 1.0, 0.0]},
            {"pair": ["r", "s"], "value": [0.0, 1.0, 0.0]},
        ],
        "quadrupole": [
            {"pair": ["f", "r"], "value": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            {"pair": ["r", "s"], "value": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        ],
    },
    "roles": {
        "ground": "g",
        "excited": "s",
        "final": "f",
        "pump_intermediates": ["t"],
        "probe_intermediates": ["r"],
    },
}


class TestTensorForm:
    def test_minimal_parses_with_zero_defaults(self):
        mf = parse_model(json.dumps(MINIMAL_TENSOR_MODEL))
        assert len(mf.modes) == 1
        mode = mf.modes[0]
        assert isinstance(mode, TensorMode)
        assert np.array_equal(mode.tensors.gprime34, np.zeros((3, 3)))
        assert np.array_equal(mode.tensors.a34, np.zeros((3, 3, 3)))
        assert mode.tensors.gprime12 is None

    def test_asymmetric_alpha_names_mode(self):
        bad = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        bad["modes"][0]["alpha34"][0][1] = 0.5
        with pytest.raises(SymmetryError, match="breathing"):
            parse_model(json.dumps(bad))

    def test_flat_a34_accepted(self):
        raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        a = np.zeros((3, 3, 3))
        a[0, 1, 2] = a[0, 2, 1] = 0.4
        raw["modes"][0]["a34"] = a.reshape(27).tolist()
        mf = parse_model(json.dumps(raw))
        assert mf.modes[0].tensors.a34[0, 1, 2] == 0.4

    def test_missing_field_has_path(self):
        raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        del raw["modes"][0]["alpha12"]
        with pytest.raises(SchemaError, match=r"modes\[0\]"):
            parse_model(json.dumps(raw))

    def test_duplicate_mode_names_rejected(self):
        raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        raw["modes"].append(raw["modes"][0])
        with pytest.raises(SchemaError, match="unique"):
            parse_model(json.dumps(raw))


class TestStatesForm:
    def test_tensors_match_hand_values(self):
        mf = parse_model(json.dumps(STATES_MODEL))
        mode = mf.modes[0]
        assert isinstance(mode, StatesMode)
        beams = BeamSet.collinear_vvv(1.0, 1.0, 1.0)
        # this minimal fixture is deliberately not route-consistent, so the
        # builder flags the gyration route disagreement
        with pytest.warns(UserWarning, match="route disagreement"):
            ts = build_property_tensors(mode.model, beams)
        assert ts.alpha12[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert ts.alpha34[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert ts.gprime34[0, 1] == pytest.approx(-4.0 / 3.0, rel=1e-15)
        assert np.allclose(ts.a34[0], (4.0 / 3.0) * np.eye(3), atol=1e-15)

    def test_bad_role_reference(self):
        raw = json.loads(json.dumps(STATES_MODEL))
        raw["roles"]["final"] = "nope"
        with pytest.raises(RoleError):
            parse_model(json.dumps(raw))

    def test_inconsistent_moment_storage_rejected(self):
        raw = json.loads(json.dumps(STATES_MODEL))
        raw["moments"]["m_imag"].append(
            {"pair": ["r", "f"], "value": [0.0, 1.0, 0.0]})  # must be negated
        with pytest.raises(SchemaError, match="m_imag"):
            parse_model(json.dumps(raw))


class TestSchemaShape:
    def test_both_forms_rejected(self):
        raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        raw["levels"] = STATES_MODEL["levels"]
        with pytest.raises(SchemaError, match="exactly one"):
            parse_model(json.dumps(raw))

    def test_neither_form_rejected(self):
        with pytest.raises(SchemaError):
            parse_model(json.dumps({"constants": {"c": 137.0}}))

    def test_invalid_json(self):
        with pytest.raises(SchemaError, match="JSON"):
            parse_model(b"{not json")

    def test_scan_validation(self):
        raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        raw["scan"] = {"start_cm1": 1100.0, "stop_cm1": 900.0, "step_cm1": 10.0}
        with pytest.raises(SchemaError, match="scan"):
            parse_model(json.dumps(raw))


class TestRoundTrip:
    @pytest.mark.parametrize("raw", [MINIMAL_TENSOR_MODEL, STATES_MODEL],
                             ids=["tensor-form", "states-form"])
    def test_serialize_parse_is_idempotent(self, raw):
        first = serialize_model(parse_model(json.dumps(raw)))
        second = serialize_model(parse_model(first))
        assert first == second

    def test_normalized_dict_contains_defaults(self):
        payload = model_to_dict(parse_model(json.dumps(MINIMAL_TENSOR_MODEL)))
        mode = payload["modes"][0]
        assert "gprime34" in mode and "a34" in mode
        assert len(mode["a34"]) == 27
