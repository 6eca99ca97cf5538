"""Model-file parsing, validation, and canonical serialization.

Input is UTF-8 JSON in one of two forms: a tensor form (per-mode property
tensors given directly) or a states form (level energies, transition-moment
tables, and a role assignment from which the tensors are built sum-over-states
style).  Exactly one of the two must be present.  Validation reports the JSON
path of every offense; tensors go through the same validators as the in-memory
API, so symmetry defects are caught here with the mode named.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cid import StatesMode, TensorMode
from .errors import SchemaError, batch_or_items, located
from .scattering import C_AU, PropertyTensorSet
from .sos import (
    DEFAULT_RESONANCE_GUARD,
    MolecularModel,
    MomentTable,
    Roles,
)


@dataclass(frozen=True)
class BeamsSpec:
    omega1: float
    omega3: float
    omega2: Optional[float] = None
    photons: tuple = (1.0, 1.0, 1.0, 1.0)


#: Most points a scan grid may have; a finite grid can still be far too large to build.
MAX_SCAN_POINTS = 10**6


@dataclass(frozen=True)
class ScanSpec:
    start_cm1: float
    stop_cm1: float
    step_cm1: float
    width_cm1: Optional[float] = None

    def __post_init__(self):
        grid = f"scan {self.start_cm1!r},{self.stop_cm1!r},{self.step_cm1!r} cm^-1"
        if not (self.step_cm1 > 0.0 and -math.inf < self.start_cm1 <= self.stop_cm1 < math.inf):
            raise SchemaError(f"{grid}: need finite start <= stop and step > 0")
        if not math.isfinite((self.stop_cm1 - self.start_cm1) / self.step_cm1):
            raise SchemaError(f"{grid}: the number of steps (stop - start) / step is not finite")
        if self.points > MAX_SCAN_POINTS:
            raise SchemaError(f"{grid}: {self.points} grid points, more than the "
                              f"{MAX_SCAN_POINTS} allowed")
        if self.width_cm1 is not None and not 0.0 < self.width_cm1 < math.inf:
            raise SchemaError(f"scan width {self.width_cm1!r} cm^-1: "
                              "must be positive and finite")

    @property
    def points(self) -> int:
        """The grid's points, the last at or before stop: a step count within 1e-9,
        or 4 ulps, of an integer counts as that integer."""
        steps = (self.stop_cm1 - self.start_cm1) / self.step_cm1
        return math.floor(steps + max(1e-9, 4.0 * math.ulp(steps))) + 1

    def shifts(self) -> np.ndarray:  # start + i * step, as on Python floats
        return self.start_cm1 + np.arange(self.points, dtype=float) * self.step_cm1


@dataclass(frozen=True, eq=False)
class ModelFile:
    """A parsed model file; a tensor form's modes are three columns: `names`,
    `shifts` and `tensors`, the rows of one stack.  Files compare by identity,
    as their arrays have no single truth value."""

    c: float
    beams: Optional[BeamsSpec]
    scan: Optional[ScanSpec]
    names: tuple  # the modes' names, in file order
    shifts: np.ndarray  # their Raman shifts in cm^-1
    tensors: Optional[PropertyTensorSet] = None  # a tensor form's modes as rows of one stack
    states: Optional[StatesMode] = None  # a states form's one mode

    @functools.cached_property
    def modes(self) -> tuple:
        """The TensorMode or StatesMode entries; a tensor form's are built on first read."""
        if self.states is not None:
            return (self.states,)
        return tuple(TensorMode(name, shift, self.tensors[j])
                     for j, (name, shift) in enumerate(zip(self.names, self.shifts.tolist())))


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return mapping[key]


def _object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    return raw


def _name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}: expected a nonempty string")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not np.isfinite(v):
        raise SchemaError(f"{path}: number must be finite")
    return v


_ARRAY_NAMES = {(3,): "a 3-vector", (3, 3): "a 3x3 array",
                (3, 3, 3): "27 numbers (flat, i-major) or a 3x3x3 array"}


def _leaves(value, dims: tuple) -> Optional[list]:
    """The leaves of `value`, flat, if its nesting has exactly the lengths `dims`.
    A string or an object of such a length is not a list, but its leaves are
    strings, which no JSON number check passes."""
    level = [value]
    for n in dims:
        try:
            if set(map(len, level)) != {n}:
                return None
        except TypeError:  # a number, true, false or null above the leaves
            return None
        level = list(itertools.chain.from_iterable(level))
    return level


def _array(value, path: str, shape: tuple, stack: tuple = ()) -> np.ndarray:
    """A finite float array of `stack + shape` from nested lists of JSON numbers;
    a rank-3 array may come as 27 flat values.  A bad leaf is named by its index
    within one array, without the stack axes.  Well-formed input is read from its
    flat leaves; anything else is read whole, which is what names its fault."""
    leaves = (shape == (3, 3, 3) and _leaves(value, stack + (27,))) or _leaves(value, stack + shape)
    if leaves and {int, float}.issuperset(map(type, leaves)):
        try:
            a = np.array(leaves, dtype=float).reshape(stack + shape)
            if np.isfinite(a).all():
                return a
        except OverflowError:  # an integer beyond the float range
            pass
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{path}: expected {_ARRAY_NAMES[shape]} of numbers") from None
    given = a.shape
    if shape == (3, 3, 3) and given == stack + (27,):
        a = a.reshape(stack + shape)
    if a.shape != stack + shape or not np.all(np.isfinite(a)):
        raise SchemaError(f"{path}: expected {_ARRAY_NAMES[shape]} of finite numbers")
    # numpy reads true and "1" as 1.0: every leaf must be a JSON number
    leaves = value
    for _ in given[1:]:
        leaves = list(itertools.chain.from_iterable(leaves))
    if not {int, float}.issuperset(map(type, leaves)):
        index, leaf = next((j, v) for j, v in enumerate(leaves) if type(v) not in (int, float))
        where = "".join(f"[{i}]" for i in np.unravel_index(index, given)[len(stack):])
        raise SchemaError(f"{path}{where}: expected a number, got {type(leaf).__name__}")
    return a


def _parse_beams(raw, path: str) -> BeamsSpec:
    _object(raw, path)
    omega1 = _number(_require(raw, "omega1", path), f"{path}.omega1")
    omega3 = _number(_require(raw, "omega3", path), f"{path}.omega3")
    omega2 = None
    if raw.get("omega2") is not None:
        omega2 = _number(raw["omega2"], f"{path}.omega2")
    photons = raw.get("photons", [1.0, 1.0, 1.0, 1.0])
    if not isinstance(photons, list) or len(photons) != 4:
        raise SchemaError(f"{path}.photons: expected a list of four numbers")
    photons = tuple(_number(p, f"{path}.photons[{j}]") for j, p in enumerate(photons))
    for j, n in enumerate(photons):
        if n < 0.0:
            raise SchemaError(f"{path}.photons[{j}]: must be nonnegative")
    for name, v in (("omega1", omega1), ("omega3", omega3)):
        if v <= 0.0:
            raise SchemaError(f"{path}.{name}: must be positive")
    return BeamsSpec(omega1=omega1, omega3=omega3, omega2=omega2, photons=photons)


def _parse_scan(raw, path: str) -> ScanSpec:
    _object(raw, path)
    start = _number(_require(raw, "start_cm1", path), f"{path}.start_cm1")
    stop = _number(_require(raw, "stop_cm1", path), f"{path}.stop_cm1")
    step = _number(_require(raw, "step_cm1", path), f"{path}.step_cm1")
    width = None
    if raw.get("width_cm1") is not None:
        width = _number(raw["width_cm1"], f"{path}.width_cm1")
    return ScanSpec(start_cm1=start, stop_cm1=stop, step_cm1=step, width_cm1=width)


def _mode_head(raw, path: str) -> tuple:
    """(name, shift_cm1) of a tensor mode's object."""
    name = _name(_require(_object(raw, path), "name", path), f"{path}.name")
    return name, _number(_require(raw, "shift_cm1", path), f"{path}.shift_cm1")


def _mode_heads(raws: list, start: int) -> tuple:
    """(names, shifts) of the mode objects `raws`, the file's from index `start`,
    read as two columns.  A column that is not all nonempty strings or all finite
    JSON numbers is read again mode by mode, so the first bad mode's `_mode_head`
    raises its error."""
    try:
        names = [raw["name"] for raw in raws]
        shifts = [raw["shift_cm1"] for raw in raws]
        if set(map(type, names)) == {str} and all(names) and {int, float}.issuperset(
                map(type, shifts)):
            shifts = np.array(shifts, dtype=float)  # the bits of float(), as `_number`
            if np.isfinite(shifts).all():
                return names, shifts
    except (KeyError, TypeError, OverflowError):
        pass
    names, shifts = zip(*(_mode_head(raw, f"modes[{start + j}]") for j, raw in enumerate(raws)))
    return list(names), np.array(shifts)


_TENSOR_SHAPES = {"alpha34": (3, 3), "alpha12": (3, 3), "gprime34": (3, 3), "a34": (3, 3, 3)}
_ZEROS = {"gprime34": [[0.0] * 3] * 3, "a34": [0.0] * 27}


def _tensor_stack(raws: list, start: int) -> tuple:
    """(names, shifts, stack) of the mode objects `raws`, the file's from index
    `start`: each tensor field of all of them read into one (M, ...) array and
    validated once, as one set whose rows are the modes' tensors.  Errors name
    the first mode, so a stack of one fails as that mode alone."""
    path = f"modes[{start}]"
    names, shifts = _mode_heads(raws, start)
    fields = {}
    for key, shape in _TENSOR_SHAPES.items():
        if key in _ZEROS:  # optional: absent or null is zero
            column = [raw.get(key) for raw in raws]
            if None in column:
                column = [_ZEROS[key] if value is None else value for value in column]
        else:
            try:
                column = [raw[key] for raw in raws]
            except KeyError:
                column = [_require(raw, key, path) for raw in raws]
        fields[key] = _array(column, f"{path}.{key}", shape, (len(raws),))
    with located(f"mode {names[0]!r}"):
        stack = PropertyTensorSet(**fields)
    return names, shifts, stack


def _parse_moment_entries(raw, path: str, shape, kind: str, parity: int,
                          levels: dict) -> MomentTable:
    """The table of the {pair, value} entries `raw`, each pair two ids of `levels`."""
    table = MomentTable(kind, shape, parity)
    if raw is None:
        return table
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a list of {{pair, value}} objects")
    seen = {}  # ordered pair -> index of its entry
    for j, entry in enumerate(raw):
        epath = f"{path}[{j}]"
        pair = _require(_object(entry, epath), "pair", epath)
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)):
            raise SchemaError(f"{epath}.pair: expected two level ids")
        unknown = [p for p in pair if p not in levels]
        if unknown:
            raise SchemaError(f"{epath}.pair: unknown level id {unknown[0]!r}")
        first = seen.setdefault(tuple(pair), j)
        if first != j:
            raise SchemaError(f"{epath}.pair: {pair[0]!r}, {pair[1]!r} is already "
                              f"given by {path}[{first}]")
        value = _array(_require(entry, "value", epath), f"{epath}.value", shape)
        try:
            table.set(pair[0], pair[1], value)
        except ValueError as exc:  # a SymmetryError too
            raise SchemaError(f"{epath}: {exc}") from None
    return table


def _parse_states(raw: dict, path: str = "") -> StatesMode:
    levels_raw = _require(raw, "levels", path or "model")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise SchemaError("levels: expected a nonempty list")
    energies = {}
    for j, level in enumerate(levels_raw):
        lpath = f"levels[{j}]"
        lid = _name(_require(_object(level, lpath), "id", lpath), f"{lpath}.id")
        if lid in energies:
            raise SchemaError(f"{lpath}.id: duplicate level id {lid!r}")
        energies[lid] = _number(_require(level, "energy", lpath), f"{lpath}.energy")

    moments = _object(raw.get("moments", {}), "moments")
    mu = _parse_moment_entries(moments.get("mu"), "moments.mu", (3,),
                               "electric-dipole", +1, energies)
    m_imag = _parse_moment_entries(moments.get("m_imag"), "moments.m_imag", (3,),
                                   "magnetic-dipole", -1, energies)
    quad = _parse_moment_entries(moments.get("quadrupole"), "moments.quadrupole",
                                 (3, 3), "electric-quadrupole", +1, energies)

    roles_raw = _object(_require(raw, "roles", "model"), "roles")

    def role_id(key: str) -> str:
        v = _require(roles_raw, key, "roles")
        if not isinstance(v, str):
            raise SchemaError(f"roles.{key}: expected a level id string")
        return v

    def role_list(key: str) -> tuple:
        v = roles_raw.get(key, [])
        if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
            raise SchemaError(f"roles.{key}: expected a list of level ids")
        for index, level in enumerate(v):
            if level in v[:index]:
                raise SchemaError(f"roles.{key}[{index}]: duplicate level id {level!r}")
        return tuple(v)

    roles = Roles(ground=role_id("ground"), excited=role_id("excited"),
                  final=role_id("final"),
                  pump_intermediates=role_list("pump_intermediates"),
                  probe_intermediates=role_list("probe_intermediates"))

    guard = raw.get("resonance_guard", DEFAULT_RESONANCE_GUARD)
    guard = _number(guard, "resonance_guard")
    if guard <= 0.0:
        raise SchemaError("resonance_guard: must be positive")

    model = MolecularModel(energies=energies, mu=mu, m_imag=m_imag,
                           quadrupole=quad, roles=roles, resonance_guard=guard)
    return StatesMode(name=_name(raw.get("name", "states"), "name"), model=model)


def parse_model(data: Union[str, bytes]) -> ModelFile:
    """Parse and validate a model file; see the module docstring for the shape."""
    try:
        raw = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    _object(raw, "top level")

    has_modes = "modes" in raw
    has_states = "levels" in raw
    if has_modes == has_states:
        raise SchemaError("exactly one of 'modes' (tensor form) or 'levels' "
                          "(states form) must be present")

    constants = _object(raw.get("constants", {}), "constants")
    c = _number(constants.get("c", C_AU), "constants.c")
    if c <= 0.0:
        raise SchemaError("constants.c: must be positive")

    beams = _parse_beams(raw["beams"], "beams") if raw.get("beams") is not None else None
    scan = _parse_scan(raw["scan"], "scan") if raw.get("scan") is not None else None

    if has_modes:
        modes_raw = raw["modes"]
        if not isinstance(modes_raw, list) or not modes_raw:
            raise SchemaError("modes: expected a nonempty list")
        # modes that fail or form no stack are parsed one by one, each a stack of
        # one, and those stacks joined
        names, shifts, stacks = zip(*batch_or_items(
            len(modes_raw), lambda lo, hi: _tensor_stack(modes_raw[lo:hi], lo)))
        names = tuple(itertools.chain.from_iterable(names))
        if len(set(names)) != len(names):
            raise SchemaError("modes: mode names must be unique")
        return ModelFile(c=c, beams=beams, scan=scan, names=names,
                         shifts=np.concatenate(shifts),
                         tensors=stacks[0] if len(stacks) == 1 else PropertyTensorSet.joined(stacks))
    states = _parse_states(raw)
    return ModelFile(c=c, beams=beams, scan=scan, names=(states.name,),
                     shifts=np.array([states.shift_cm1]), states=states)


def parse_model_file(path) -> ModelFile:
    with open(path, "rb") as handle:
        return parse_model(handle.read())


# --------------------------------------------------------------------------
# canonical serialization (round-trip stable)
# --------------------------------------------------------------------------

def _tensor_mode_dict(mode: TensorMode) -> dict:
    t = mode.tensors
    return {
        "name": mode.name,
        "shift_cm1": mode.shift_cm1,
        "alpha34": t.alpha34.tolist(),
        "alpha12": t.alpha12.tolist(),
        "gprime34": t.gprime34.tolist(),
        "a34": t.a34.reshape(27).tolist(),
    }


def _states_mode_dict(mode: StatesMode) -> dict:
    model = mode.model

    def entries(table: MomentTable):
        return [{"pair": [a, b], "value": table.get(a, b).tolist()}
                for (a, b) in table.pairs()]

    return {
        "name": mode.name,
        "levels": [{"id": lid, "energy": model.energies[lid]}
                   for lid in sorted(model.energies)],
        "moments": {
            "mu": entries(model.mu),
            "m_imag": entries(model.m_imag),
            "quadrupole": entries(model.quadrupole),
        },
        "roles": {
            "ground": model.roles.ground,
            "excited": model.roles.excited,
            "final": model.roles.final,
            "pump_intermediates": list(model.roles.pump_intermediates),
            "probe_intermediates": list(model.roles.probe_intermediates),
        },
        "resonance_guard": model.resonance_guard,
    }


def model_to_dict(mf: ModelFile) -> dict:
    out: dict = {"constants": {"c": mf.c}}
    if mf.beams is not None:
        beams = {"omega1": mf.beams.omega1, "omega3": mf.beams.omega3,
                 "photons": list(mf.beams.photons)}
        if mf.beams.omega2 is not None:
            beams["omega2"] = mf.beams.omega2
        out["beams"] = beams
    if mf.scan is not None:
        scan = {"start_cm1": mf.scan.start_cm1, "stop_cm1": mf.scan.stop_cm1,
                "step_cm1": mf.scan.step_cm1}
        if mf.scan.width_cm1 is not None:
            scan["width_cm1"] = mf.scan.width_cm1
        out["scan"] = scan
    if len(mf.modes) == 1 and isinstance(mf.modes[0], StatesMode):
        out.update(_states_mode_dict(mf.modes[0]))
    else:
        out["modes"] = [_tensor_mode_dict(m) for m in mf.modes]
    return out


def serialize_model(mf: ModelFile) -> str:
    """Canonical JSON text; parse/serialize is idempotent on this form."""
    return json.dumps(model_to_dict(mf), indent=2, sort_keys=True) + "\n"
