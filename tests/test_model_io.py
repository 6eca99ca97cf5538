import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carscid.cid import StatesMode, TensorMode
from carscid.errors import CarscidError, RoleError, SchemaError, SymmetryError
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

    def test_non_utf8_rejected(self):
        with pytest.raises(SchemaError, match="UTF-8"):
            parse_model(b"\xff\xfe{}")

    def test_nesting_beyond_the_recursion_limit_rejected(self):
        with pytest.raises(SchemaError, match="JSON"):
            parse_model(b"[" * 100_000)

    @pytest.mark.parametrize("field,value", [
        ("shift_cm1", 10 ** 400), ("alpha34", [[10 ** 400, 0, 0], [0, 1, 0], [0, 0, 1]])],
        ids=["shift_cm1", "alpha34"])
    def test_integer_beyond_the_float_range_rejected(self, field, value):
        raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        raw["modes"][0][field] = value
        with pytest.raises(SchemaError, match=rf"modes\[0\]\.{field}"):
            parse_model(json.dumps(raw))

    @pytest.mark.parametrize("leaf", [True, "1"], ids=["bool", "string"])
    def test_tensor_leaf_must_be_a_number(self, leaf):
        for field, value, where in (
                ("alpha34", [[1, leaf, 0], [0, 1, 0], [0, 0, 1]], r"alpha34\[0\]\[1\]"),
                ("a34", [0] * 5 + [leaf] + [0] * 21, r"a34\[5\]")):
            raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
            raw["modes"][0][field] = value
            with pytest.raises(SchemaError, match=rf"modes\[0\]\.{where}: expected a number"):
                parse_model(json.dumps(raw))

    @pytest.mark.parametrize("leaf", [True, "1"], ids=["bool", "string"])
    def test_moment_leaf_must_be_a_number(self, leaf):
        raw = json.loads(json.dumps(STATES_MODEL))
        raw["moments"]["mu"][0]["value"][0] = leaf
        with pytest.raises(SchemaError,
                           match=r"moments\.mu\[0\]\.value\[0\]: expected a number"):
            parse_model(json.dumps(raw))

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


def tensor_model(seed: int, n_modes: int, pump_tensors: bool, blocks: bool) -> dict:
    """A valid tensor-form model with entries over twelve decades."""
    rng = np.random.default_rng(seed)

    def entries(shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)

    def sym2():
        m = entries((3, 3))
        return np.triu(m) + np.triu(m, 1).T

    def rank3():
        a = entries((3, 3, 3))
        return np.triu(a) + np.swapaxes(np.triu(a, 1), 1, 2)

    modes = []
    for j in range(n_modes):
        mode = {"name": f"m{j}", "shift_cm1": float(entries(())),
                "alpha34": sym2().tolist(), "alpha12": sym2().tolist(),
                "gprime34": entries((3, 3)).tolist(), "a34": rank3().tolist()}
        if pump_tensors:
            mode.update(gprime12=entries((3, 3)).tolist(), a12=rank3().reshape(27).tolist())
        modes.append(mode)
    raw = {"constants": {"c": float(rng.uniform(1.0, 200.0))}, "modes": modes}
    if blocks:
        raw["beams"] = {"omega1": 0.1, "omega3": 0.11, "omega2": 0.09,
                        "photons": rng.uniform(0.0, 5.0, size=4).tolist()}
        raw["scan"] = {"start_cm1": 900.0, "stop_cm1": 1100.0, "step_cm1": 2.5,
                       "width_cm1": 12.0}
    return raw


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 3),
       pump_tensors=st.booleans(), blocks=st.booleans())
def test_tensor_form_round_trip_is_byte_stable(seed, n_modes, pump_tensors, blocks):
    first = serialize_model(parse_model(json.dumps(tensor_model(seed, n_modes,
                                                                pump_tensors, blocks))))
    assert serialize_model(parse_model(first)) == first


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=8)


def json_paths(value, path=()):
    """Every node of a JSON document, as key/index paths from the root."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_paths(item, path + (key,))


def parses_or_raises_a_carscid_error(data) -> None:
    # a symmetrization warning in the repair band is a result, not a failure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            parse_model(data)
        except CarscidError:
            pass


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_model_parses_or_raises_a_carscid_error(data):
    raw = json.loads(json.dumps(data.draw(st.sampled_from(
        [MINIMAL_TENSOR_MODEL, STATES_MODEL, tensor_model(1, 1, True, True)]))))
    path = data.draw(st.sampled_from(list(json_paths(raw))))
    if not path:
        raw = data.draw(JSON_VALUES)
    else:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    parses_or_raises_a_carscid_error(json.dumps(raw))


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=64))
def test_arbitrary_bytes_parse_or_raise_a_carscid_error(data):
    parses_or_raises_a_carscid_error(data)
