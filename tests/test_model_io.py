import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carscid.cid import StatesMode, TensorMode
from carscid.errors import CarscidError, RoleError, SchemaError, SymmetryError
from carscid.model_io import (
    ScanSpec,
    model_to_dict,
    parse_model,
    parse_model_file,
    serialize_model,
)
from carscid.scattering import BeamSet
from carscid.sos import build_property_tensors
from conftest import readme_states_model

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

    def test_nonzero_diagonal_magnetic_moment_rejected(self):
        # Hermiticity gives <r|m|r> both +i m and -i m, so m must vanish
        raw = json.loads(json.dumps(STATES_MODEL))
        raw["moments"]["m_imag"].append({"pair": ["r", "r"], "value": [0.5, 0.0, 0.0]})
        with pytest.raises(SchemaError, match=r"^moments\.m_imag\[2\]: .* inconsistent"):
            parse_model(json.dumps(raw))

    @pytest.mark.parametrize("table, value", [("m_imag", [0.0, 0.0, 0.0]),
                                              ("mu", [0.0, 0.0, 0.3])])
    def test_zero_magnetic_and_permanent_dipole_diagonals_parse(self, table, value):
        raw = json.loads(json.dumps(STATES_MODEL))
        raw["moments"][table].append({"pair": ["r", "r"], "value": value})
        model = parse_model(json.dumps(raw)).modes[0].model
        assert np.array_equal(getattr(model, table).get("r", "r"), value)

    @pytest.mark.parametrize("table, entry", [
        ("mu", {"pair": ["zz", "g"], "value": [1, 0, 0]}),
        ("m_imag", {"pair": ["r", "zz"], "value": [0, 1, 0]}),
        ("quadrupole", {"pair": ["zz", "s"], "value": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})])
    def test_a_moment_of_an_undeclared_level_rejected(self, table, entry):
        # such an entry was once kept silently, and the README model ran on
        raw = readme_states_model()
        raw["moments"][table].append(entry)
        where = f"moments.{table}[{len(raw['moments'][table]) - 1}].pair"
        with pytest.raises(SchemaError, match=f"^{re.escape(where)}: unknown level id 'zz'$"):
            parse_model(json.dumps(raw))

    def test_mirrored_moments_at_the_float_maximum_rejected_without_warning(self):
        # the mirror difference 2e308 overflows; it must still be one SchemaError
        raw = json.loads(json.dumps(STATES_MODEL))
        raw["moments"]["mu"] += [{"pair": ["t", "f"], "value": [1e308, 0.0, 0.0]},
                                 {"pair": ["f", "t"], "value": [-1e308, 0.0, 0.0]}]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match="inconsistent"):
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
        # inside a stack: the index is the mode's and the leaf's within its tensor
        raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        raw["modes"] = [dict(raw["modes"][0], name=f"m{j}") for j in range(3)]
        raw["modes"][2]["alpha34"] = [[1, leaf, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(SchemaError, match=r"modes\[2\]\.alpha34\[0\]\[1\]: expected a number"):
            parse_model(json.dumps(raw))

    def test_constant_must_be_a_number(self):
        raw = json.loads(json.dumps(MINIMAL_TENSOR_MODEL))
        raw["constants"] = {"c": "137"}
        with pytest.raises(SchemaError, match=r"^constants\.c: expected a number, got str$"):
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
        # a grid of finite bounds but no finite number of steps
        raw["scan"] = {"start_cm1": 0.0, "stop_cm1": 1e300, "step_cm1": 1e-300}
        with pytest.raises(SchemaError, match="scan .*number of steps"):
            parse_model(json.dumps(raw))
        # a finite number of steps, but a grid far too large to build
        raw["scan"] = {"start_cm1": 0.0, "stop_cm1": 1e10, "step_cm1": 1e-5}
        with pytest.raises(SchemaError, match="scan .*1000000000000001 grid points"):
            parse_model(json.dumps(raw))

    @pytest.mark.parametrize("start,stop,step,points", [
        (0.0, 0.7, 0.1, 8), (900.0, 1100.0, 7.0, 29), (300.0, 2000.0, 0.017, 100_001)])
    def test_scan_shifts_have_the_bits_of_start_plus_i_step(self, start, stop, step, points):
        shifts = ScanSpec(start, stop, step).shifts()
        assert shifts.dtype == np.float64 and shifts.shape == (points,)
        assert list(map(float.hex, shifts.tolist())) == [
            float.hex(start + i * step) for i in range(points)]


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


@pytest.mark.parametrize("raw", [tensor_model(7, 3, True, True), STATES_MODEL],
                         ids=["tensor-form", "states-form"])
def test_parsed_files_and_their_parts_compare_by_identity(raw, tmp_path):
    # `==` of two parses once raised numpy's ValueError (tensor form) or read
    # False through an element-wise array comparison (states form)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    first, second = parse_model_file(path), parse_model_file(path)
    beams = BeamSet.collinear_vvv(0.10, 0.09, 0.11)
    pairs = [(first, second), (first.modes[0], second.modes[0]),
             (beams, BeamSet.collinear_vvv(0.10, 0.09, 0.11))]
    if first.tensors is not None:
        pairs.append((first.tensors, second.tensors))
    for a, b in pairs:
        assert a == a and not a != a
        assert a != b and not a == b


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


# --------------------------------------------------------------------------
# tensor modes read as columns
# --------------------------------------------------------------------------

def many_modes(count: int = 1025) -> dict:
    """A tensor-form model of `count` modes, one more than `errors.MAX_BATCH` by
    default, so its last mode is a batch of its own.  Entries are quarters, whose
    JSON text is short, so that the tests read and write the file fast."""
    rng = np.random.default_rng(count)

    def normal(shape):
        return np.round(4.0 * rng.normal(size=shape)) / 4.0

    def sym2():
        m = normal((3, 3))
        return (m + m.T).tolist()

    modes = []
    for j in range(count):
        a34 = normal((3, 3, 3))
        modes.append({"name": f"m{j:04d}", "shift_cm1": 500.0 + 0.75 * j, "alpha34": sym2(),
                      "alpha12": sym2(), "gprime34": normal((3, 3)).tolist(),
                      "a34": (a34 + a34.transpose(0, 2, 1)).ravel().tolist()})
    return {"constants": {"c": 137.035999}, "beams": {"omega1": 0.09, "omega3": 0.08},
            "modes": modes}


def _fault(raw: dict, kind: str, j: int) -> str:
    """Put the fault `kind` at mode `j` of `raw`; the error a mode-by-mode parse gives."""
    mode = raw["modes"][j]
    if kind == "missing name":
        del mode["name"]
        return f"modes[{j}]: missing required field 'name'"
    if kind == "empty name":
        mode["name"] = ""
        return f"modes[{j}].name: expected a nonempty string"
    if kind == "number name":
        mode["name"] = 7
        return f"modes[{j}].name: expected a nonempty string"
    if kind == "bool shift":
        mode["shift_cm1"] = True
        return f"modes[{j}].shift_cm1: expected a number, got bool"
    if kind == "string shift":
        mode["shift_cm1"] = "1000"
        return f"modes[{j}].shift_cm1: expected a number, got str"
    if kind == "missing shift":
        del mode["shift_cm1"]
        return f"modes[{j}]: missing required field 'shift_cm1'"
    if kind == "huge shift":
        mode["shift_cm1"] = 10 ** 400
        return f"modes[{j}].shift_cm1: number must be finite"
    if kind == "not an object":
        raw["modes"][j] = [mode]
        return f"modes[{j}]: expected an object"
    assert kind == "duplicate name"
    mode["name"] = raw["modes"][j - 1 if j else 1]["name"]
    return "modes: mode names must be unique"


FAULTS = ["missing name", "empty name", "bool shift", "string shift", "duplicate name",
          "number name", "missing shift", "huge shift", "not an object"]


@pytest.fixture(scope="module")
def many_modes_text():
    return json.dumps(many_modes())


class TestModeColumns:
    @pytest.mark.parametrize("kind,j", [(kind, j) for kind in FAULTS[:5] for j in (0, 700, 1024)]
                             + [(kind, 1024) for kind in FAULTS[5:]])
    def test_a_bad_mode_head_gives_the_mode_by_mode_error(self, many_modes_text, kind, j):
        raw = json.loads(many_modes_text)
        message = _fault(raw, kind, j)
        with pytest.raises(SchemaError) as caught:
            parse_model(json.dumps(raw))
        assert str(caught.value) == message

    def test_the_first_bad_mode_and_its_first_bad_field_win(self, many_modes_text):
        raw = json.loads(many_modes_text)
        _fault(raw, "bool shift", 701)  # a later mode
        _fault(raw, "duplicate name", 1024)  # checked once every mode is read
        raw["modes"][700]["shift_cm1"] = "1"  # the name is checked before the shift
        message = _fault(raw, "empty name", 700)
        with pytest.raises(SchemaError) as caught:
            parse_model(json.dumps(raw))
        assert str(caught.value) == message
        raw["modes"][699]["alpha34"][0][1] = None  # a tensor of an earlier mode
        with pytest.raises(SchemaError) as caught:
            parse_model(json.dumps(raw))
        assert str(caught.value) == "modes[699].alpha34: expected a 3x3 array of finite numbers"

    def test_the_modes_are_the_rows_of_the_file(self, many_modes_text):
        raw = json.loads(many_modes_text)
        raw["modes"][3]["shift_cm1"] = 2 ** 53 + 1  # an integer rounds as float() does
        mf = parse_model(json.dumps(raw))
        assert mf.names == tuple(mode["name"] for mode in raw["modes"])
        assert mf.modes is mf.modes and len(mf.modes) == 1025
        for mode, want in zip(mf.modes, raw["modes"]):
            assert isinstance(mode, TensorMode)
            assert mode.name == want["name"]
            assert type(mode.shift_cm1) is float and mode.shift_cm1 == float(want["shift_cm1"])
            for field in ("alpha34", "alpha12", "gprime34"):
                assert np.array_equal(getattr(mode.tensors, field), want[field])
            assert np.array_equal(mode.tensors.a34, np.reshape(want["a34"], (3, 3, 3)))
            assert mode.tensors.gprime12 is None and mode.tensors.a12 is None
        assert np.array_equal(mf.shifts, [mode.shift_cm1 for mode in mf.modes])

    def test_a_states_file_has_one_mode_column(self):
        mf = parse_model(json.dumps(STATES_MODEL))
        assert mf.tensors is None and mf.names == ("two-level",)
        assert mf.modes == (mf.states,) and mf.shifts.tolist() == [mf.states.shift_cm1]


def _array_whole(value, path: str, shape: tuple, stack: tuple = ()) -> np.ndarray:
    """`model_io._array` as it read every array before the flat-leaf path: the
    whole value through numpy, then the leaf types.  The reference below."""
    import itertools

    from carscid.model_io import _ARRAY_NAMES

    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{path}: expected {_ARRAY_NAMES[shape]} of numbers") from None
    given = a.shape
    if shape == (3, 3, 3) and given == stack + (27,):
        a = a.reshape(stack + shape)
    if a.shape != stack + shape or not np.all(np.isfinite(a)):
        raise SchemaError(f"{path}: expected {_ARRAY_NAMES[shape]} of finite numbers")
    leaves = value
    for _ in given[1:]:
        leaves = list(itertools.chain.from_iterable(leaves))
    if not {int, float}.issuperset(map(type, leaves)):
        index, leaf = next((j, v) for j, v in enumerate(leaves) if type(v) not in (int, float))
        where = "".join(f"[{i}]" for i in np.unravel_index(index, given)[len(stack):])
        raise SchemaError(f"{path}{where}: expected a number, got {type(leaf).__name__}")
    return a


def _outcome(read, value, shape, stack):
    try:
        return read(value, "p", shape, stack).tobytes()
    except SchemaError as exc:
        return str(exc)


_ODD_LEAVES = st.sampled_from([True, None, "1", "x", "", 10 ** 400, -(10 ** 400), 2 ** 64,
                               math.nan, math.inf, -0.0, [], [1.0], {}, {"a": 1}, "abc"])


@st.composite
def _near_arrays(draw):
    """(value, shape, stack): a valid array, or one with a leaf replaced, or one
    level's list shortened, lengthened or replaced."""
    shape = draw(st.sampled_from([(3,), (3, 3), (3, 3, 3)]))
    stack = draw(st.sampled_from([(), (1,), (2,)]))
    dims = stack + ((27,) if shape == (3, 3, 3) and draw(st.booleans()) else shape)
    value = np.arange(math.prod(dims), dtype=float).reshape(dims).tolist()
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.lists(st.integers(0, 26), min_size=1, max_size=len(dims)))
        parent = value
        for index in path[:-1]:
            if not isinstance(parent, list) or not parent:
                break
            parent = parent[index % len(parent)]
        if not isinstance(parent, list) or not parent:
            continue
        index = path[-1] % len(parent)
        action = draw(st.sampled_from(["leaf", "drop", "append", "int"]))
        if action == "leaf":
            parent[index] = draw(_ODD_LEAVES)
        elif action == "drop":
            del parent[index]
        elif action == "append":
            parent.append(parent[index])
        elif not isinstance(parent[index], list):
            parent[index] = draw(st.integers(-(2 ** 70), 2 ** 70))
    return value, shape, stack


@settings(max_examples=100, deadline=None)
@given(_near_arrays())
@example(([[0, 1], [2, 3, 4, 5], [6, 7, 8]], (3, 3), ()))  # ragged, with 9 leaves in all
@example(([[[0, 1, 2]] * 4, [[0, 1, 2]] * 2], (3, 3), (2,)))  # 3 rows a mode on average
@example(([list(range(26)), list(range(28))], (3, 3, 3), (2,)))
def test_arrays_read_from_their_flat_leaves_as_from_the_whole_value(case):
    from carscid.model_io import _array

    value, shape, stack = case
    assert _outcome(_array, value, shape, stack) == _outcome(_array_whole, value, shape, stack)
