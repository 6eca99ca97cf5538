"""Command-line interface: verify, invariants, delta, spectrum.

Exit status convention: 0 on success, 1 on any operational failure (a usage
error, bad input, oracle failure of an authoritative closed form), 2 from
`verify` when the authoritative closed forms all pass but a natural-invariant
rendition deviates, which is the documented expected state (see the report notes).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .averaging import DEFAULT_QUAD_ORDER, MAX_ROTATIONS, MIN_MC_SAMPLES, verify_closed_forms
from .cid import HARTREE_TO_CM1, signal_for_tensors, spectrum
from .errors import CarscidError, batch_or_items, located
from .invariants import dependence_report, natural_from_isotropic
from .model_io import ModelFile, ScanSpec, parse_model_file
from .scattering import (
    BeamSet,
    PhysicalContext,
    PropertyTensorSet,
    positive_frequency,
    random_property_tensors,
)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _pump_probe(mf: ModelFile, args) -> tuple:
    """(omega1, omega3, photons): the frequencies from the command line, else
    from the beams block, and the photons of the beams block, else 1 each."""
    if mf.beams is None and (args.omega1 is None or args.omega3 is None):
        raise CarscidError("model has no beams block; pass --omega1 and --omega3")
    omega1 = args.omega1 if args.omega1 is not None else mf.beams.omega1
    omega3 = args.omega3 if args.omega3 is not None else mf.beams.omega3
    return omega1, omega3, mf.beams.photons if mf.beams is not None else (1.0,) * 4


def _per_mode(mf: ModelFile, args, evaluate):
    """(names, values) per batch of modes in file order: `evaluate(tensors, beams)` on
    a stack of modes and their (4, M) `BeamSet`, omega2 from the beams block, else
    from each mode's Raman shift, gives a dict of value columns with one leading mode
    axis, handed on with the batch's name column.  Each batch of at most
    `errors.MAX_BATCH` modes is one stack; when that raises or warns, each of its
    modes is a stack of one, lazily, so `verify` checks each mode before the next
    one is evaluated."""
    omega1, omega3, photons = _pump_probe(mf, args)
    stokes = mf.beams.omega2 if mf.beams is not None else None

    def run(lo: int, hi: int) -> tuple:
        names = mf.names[lo:hi]
        # an overflow gives inf or nan, never a warning, as on floats
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), located(
                f"mode {names[0]!r}"):
            shift = mf.shifts[lo:hi]
            omega2 = omega1 - shift / HARTREE_TO_CM1 if stokes is None else stokes
            beams = BeamSet.collinear_vvv(*np.broadcast_arrays(omega1, omega2, omega3, shift)[:3],
                                          photons=photons)
            tensors = mf.states.tensors_at(beams) if mf.tensors is None else mf.tensors[lo:hi]
            return names, evaluate(tensors, beams)

    return batch_or_items(len(mf.names), run)


def _write_output(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class _Table:
    """A list of records held as columns: `columns` maps each key to its values,
    one per record, every column as long.  `_json_text` writes it as that list."""

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


_CONTAINERS = (dict, list, tuple, _Table)


@functools.lru_cache(maxsize=None)
def _flat_encoder(depth: int):
    """The C encoder of a container at `depth` whose items are all scalars: its
    item separator carries the newline and indent that `indent=2` would."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _records(table: _Table, depth: int) -> list:
    """The JSON text of each record of `table` at `depth`, through one record
    template.  A column of scalars is one C-encoder call whose item separator is
    ",\n", a newline the encoder escapes inside strings, so splitting at it gives
    the values; a column that holds containers is written value by value."""
    keys = sorted(table.columns)
    cells = []
    for key in keys:
        column = table.columns[key]
        if any(issubclass(kind, _CONTAINERS) for kind in set(map(type, column))):
            cells.append([_json_text(value, depth + 1) for value in column])
        else:
            cells.append(_flat_encoder(-1)(column)[1:-1].split(",\n"))
    field = "\n" + "  " * (depth + 1)
    template = "{" + field + ("," + field).join(
        json.dumps(key).replace("%", "%%") + ": %s" for key in keys) + field[:-2] + "}"
    return [template % row for row in zip(*cells)]


def _json_text(value, depth: int = 0) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` byte for byte, for string keys,
    with each `_Table` written as its list of records.  The indenting encoder is
    pure Python, so every container that holds no container is encoded in one
    C-encoder call, and so is a table's column of scalars; only the levels above
    them are joined here."""
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, _Table):
        text = "[" + ("," + inner).join(_records(value, depth + 1)) + "]"
    elif not any(isinstance(item, _CONTAINERS)
                 for item in (value.values() if isinstance(value, dict) else value)):
        text = _flat_encoder(depth)(value)
    elif isinstance(value, dict):
        text = "{" + ("," + inner).join(f"{json.dumps(key)}: {_json_text(item, depth + 1)}"
                                         for key, item in sorted(value.items())) + "}"
    else:
        text = "[" + ("," + inner).join(_json_text(item, depth + 1) for item in value) + "]"
    return text[0] + inner + text[1:-1] + inner[:-2] + text[-1]


def _write_json(args, payload: dict) -> None:  # before the text: a failed write prints none
    if args.output:
        _write_output(args, _json_text(payload) + "\n")


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_sets(args):
    """(label, tensors, omega3, omega4, c) tuples to verify."""
    if args.input:
        mf = parse_model_file(args.input)
        for names, (tensors, omega3, omega4) in _per_mode(
                mf, args, lambda tensors, beams: (tensors, *beams.omega[2:].tolist())):
            for j, name in enumerate(names):
                yield f"mode {name!r}", tensors[j], omega3[j], omega4[j], mf.c
        return
    c = PhysicalContext().c
    omega3 = positive_frequency(args.omega3 if args.omega3 is not None else 0.10, "--omega3")
    omega4 = positive_frequency(args.omega4 if args.omega4 is not None else 0.12, "--omega4")
    iso_set = PropertyTensorSet(alpha34=np.eye(3), alpha12=np.eye(3),
                                gprime34=np.eye(3), a34=np.zeros((3, 3, 3)))
    yield ("isotropic fixture (alpha = G' = I, A = 0)", iso_set, omega3, omega4, c)
    rng = np.random.default_rng(args.seed)
    for j in range(3 if args.sets is None else args.sets):
        yield (f"random chiral set {j}", random_property_tensors(rng),
               omega3, omega4, c)


def _cmd_verify(args) -> int:
    try:
        quad_order = tuple(int(x) for x in args.quad_order.split(","))
    except ValueError:
        raise CarscidError("--quad-order: expected three integers >= 2") from None
    if len(quad_order) != 3 or any(n < 2 for n in quad_order):
        raise CarscidError("--quad-order: expected three integers >= 2")
    doubled = math.prod(2 * n for n in quad_order)
    if doubled > MAX_ROTATIONS:
        raise CarscidError(f"--quad-order: the doubled-order grid has {doubled} rotations, "
                           f"more than the {MAX_ROTATIONS} allowed")
    if args.sets is not None and args.sets < 0:
        raise CarscidError("--sets: expected a nonnegative number of random sets")
    if args.seed < 0:
        raise CarscidError("--seed: expected a nonnegative integer")
    if args.samples < MIN_MC_SAMPLES:
        raise CarscidError(f"--samples: need at least {MIN_MC_SAMPLES} Monte Carlo samples")
    if args.samples > MAX_ROTATIONS:
        raise CarscidError(f"--samples: {args.samples} Monte Carlo samples, more than the "
                           f"{MAX_ROTATIONS} allowed")
    if args.input and args.omega4 is not None:
        raise CarscidError("--omega4: only for the built-in fixtures; "
                           "with --input it follows from the model")
    if args.input and args.sets is not None:
        raise CarscidError("--sets: only for the built-in fixtures; "
                           "with --input the model's modes are verified")
    if not args.input and args.omega1 is not None:
        raise CarscidError("--omega1: only with --input; "
                           "the built-in fixtures take --omega3 and --omega4")
    reports = []
    lines = []
    for label, tensors, omega3, omega4, c in _verify_sets(args):
        with located(label):
            report = verify_closed_forms(tensors, omega3, omega4, c=c,
                                         quad_order=quad_order,
                                         mc_samples=args.samples, seed=args.seed)
        reports.append((label, report))
        lines.append(f"=== {label} ===")
        lines.append(report.to_text())
        lines.append("")
    codes = [report.exit_code() for _, report in reports]
    # 1 (authoritative failure) dominates 2 (rendition finding) dominates 0
    exit_code = 1 if 1 in codes else (2 if 2 in codes else 0)
    _write_json(args, {
        "exit_code": exit_code,
        "reports": [{"label": label} | report.to_dict() for label, report in reports],
    })
    print("\n".join(lines))
    return exit_code


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

def _cmd_invariants(args) -> int:
    mf = parse_model_file(args.input)

    def evaluate(tensors, beams):
        iso = tensors.invariants
        nat = natural_from_isotropic(iso, *beams.omega[2:])
        return {"omega3": beams.omega[2], "omega4": beams.omega[3], "alpha": iso.alpha,
                "gprime": iso.gprime, "aquad": iso.aquad, "dependence": dependence_report(iso),
                "naturals": {"a": nat.a, "g": nat.g, "k_omega3": nat.k3, "k_omega4": nat.k4}}

    def split(value) -> list:  # a batch's values as one record of Python numbers per mode
        if isinstance(value, dict):
            columns = [split(v) for v in value.values()]
            return [dict(zip(value, row)) for row in zip(*columns)]
        return value if isinstance(value, list) else np.asarray(value).tolist()

    labels = {"a": "a", "g": "g", "k_omega3": "k(omega3)", "k_omega4": "k(omega4)"}
    records = []
    lines = []
    for name, record in itertools.chain.from_iterable(
            zip(names, split(values)) for names, values in _per_mode(mf, args, evaluate)):
        records.append({"mode": name, **record, "naturals": {
            key: {"{},{},{}".format(*k): v for k, v in table.items()}
            for key, table in record["naturals"].items()}})
        lines.append(f"=== mode {name!r} "
                     f"(omega3={record['omega3']:.12g}, omega4={record['omega4']:.12g}) ===")
        lines.append("  [alpha]_1..10 : " + "  ".join(_fmt(v) for v in record["alpha"]))
        lines.append("  [G']_1..14    : " + "  ".join(_fmt(v) for v in record["gprime"]))
        lines.append("  [A]_5..14     : " + "  ".join(_fmt(v) for v in record["aquad"]))
        lines.append("  dependence residuals (relative): " + "  ".join(
            f"{name}={deps['relative']:.3e}" for name, deps in record["dependence"].items()))
        for key, table in record["naturals"].items():
            body = "  ".join(f"{labels[key]}_{j}^({t1}{t2})={_fmt(v)}"
                             for (j, t1, t2), v in sorted(table.items()))
            lines.append(f"  {body}")
        lines.append("")
    _write_json(args, {"modes": records})
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# delta
# --------------------------------------------------------------------------

def _cmd_delta(args) -> int:
    mf = parse_model_file(args.input)
    ctx = PhysicalContext(c=mf.c, normalize=args.normalize)
    lines = ["rates in arbitrary units: 2*pi * pi^2 (c/(2 eps0))^4 k1 k2 k3 k4 n1 n3 (n2+1)(n4+1)"
             + (" (normalized to 1)" if ctx.normalize else "")
             + ", with hbar = V = rho_s = rho_f = 1 and 4 pi eps0 = 1 fixed"]

    def evaluate(tensors, beams):
        r = signal_for_tensors(tensors, beams, ctx)
        return {"delta": r.delta, "delta_two_frequency": r.delta_two_frequency,
                "delta_single_frequency": r.delta_single_frequency,
                "rate_R": r.rate_r, "rate_L": r.rate_l,
                "two_frequency_deviation": r.two_frequency_deviation,
                "single_frequency_deviation": r.single_frequency_deviation,
                "two_frequency_consistent": r.two_frequency_consistent,
                "single_frequency_consistent": r.single_frequency_consistent}

    columns = {}  # the JSON records, as one column of Python values per key
    for names, values in _per_mode(mf, args, evaluate):
        values = {key: value.tolist() for key, value in values.items()}
        for key, column in {"mode": names, **values}.items():
            columns.setdefault(key, []).extend(column)
        for name, delta, d12, d13, rate_r, rate_l, dev12, dev13, ok12, ok13 in zip(
                names, *values.values()):
            lines.append(f"mode {name!r}: delta={_fmt(delta)}  "
                         f"rate_R={_fmt(rate_r)}  rate_L={_fmt(rate_l)}")
            lines.append(
                f"  natural renditions: two-frequency={_fmt(d12)} "
                f"(dev {dev12:.3e}, {'consistent' if ok12 else 'DEVIATES'})  "
                f"single-frequency={_fmt(d13)} "
                f"(dev {dev13:.3e}, {'consistent' if ok13 else 'DEVIATES'})")
    _write_json(args, {"modes": _Table(columns)})
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    mf = parse_model_file(args.input)
    ctx = PhysicalContext(c=mf.c, normalize=args.normalize)
    if args.scan:
        parts = args.scan.split(",")
        if len(parts) != 3:
            raise CarscidError("--scan: expected start,stop,step in cm^-1")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise CarscidError("--scan: expected three numbers") from None
        scan = ScanSpec(start, stop, step)
    elif mf.scan is not None:
        scan = mf.scan
    else:
        raise CarscidError("no scan grid: give --scan or a scan block in the model")
    if args.width is not None:
        scan = dataclasses.replace(scan, width_cm1=args.width)

    omega1, omega3, photons = _pump_probe(mf, args)

    columns = spectrum(mf.modes, omega1, omega3, scan.shifts(), ctx,
                       width_cm1=scan.width_cm1, photons=photons)
    _write_output(args, "shift_cm1,omega2_au,rate_R,rate_L,delta\n" + "".join(map(
        "{:.17g},{:.17g},{:.17g},{:.17g},{:.17g}\n".format, *(c.tolist() for c in columns))))
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is one error line and exit 1, not 2
        raise CarscidError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="carscid",
        description="Orientationally averaged chiral CARS signals: closed-form "
                    "rotational averages, their SO(3) oracles, and the circular "
                    "intensity difference.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check closed-form averages against "
                                           "the SO(3) quadrature and Monte Carlo oracles")
    verify.add_argument("--input", help="model file; defaults to built-in fixtures")
    verify.add_argument("--output", help="write the JSON report here")
    verify.add_argument("--seed", type=int, default=2025)
    verify.add_argument("--samples", type=int, default=100_000,
                        help="Monte Carlo sample count")
    verify.add_argument("--quad-order", default=",".join(str(n) for n in DEFAULT_QUAD_ORDER),
                        help="quadrature nodes as n_alpha,n_beta,n_gamma")
    verify.add_argument("--sets", type=int, default=None,
                        help="number of built-in random chiral sets (default 3); "
                             "not with --input")
    verify.add_argument("--omega1", type=float, default=None,
                        help="only with --input")
    verify.add_argument("--omega3", type=float, default=None)
    verify.add_argument("--omega4", type=float, default=None,
                        help="only for the built-in fixtures")
    verify.set_defaults(handler=_cmd_verify)

    invariants = sub.add_parser("invariants", help="tabulate isotropic and natural "
                                                   "invariants per mode")
    invariants.add_argument("--input", required=True)
    invariants.add_argument("--output", help="write JSON here")
    invariants.add_argument("--omega1", type=float, default=None)
    invariants.add_argument("--omega3", type=float, default=None)
    invariants.set_defaults(handler=_cmd_invariants)

    delta = sub.add_parser("delta", help="circular intensity difference per mode")
    delta.add_argument("--input", required=True)
    delta.add_argument("--output", help="write JSON here")
    delta.add_argument("--omega1", type=float, default=None)
    delta.add_argument("--omega3", type=float, default=None)
    delta.add_argument("--normalize", action="store_true",
                       help="force all rate prefactors to 1")
    delta.set_defaults(handler=_cmd_delta)

    spec = sub.add_parser("spectrum", help="CSV spectrum over a Raman-shift grid")
    spec.add_argument("--input", required=True)
    spec.add_argument("--output", help="CSV path; stdout when omitted")
    spec.add_argument("--scan", help="start,stop,step in cm^-1 (overrides the model)")
    spec.add_argument("--width", type=float, default=None,
                      help="Lorentzian envelope FWHM in cm^-1 (positive)")
    spec.add_argument("--omega1", type=float, default=None)
    spec.add_argument("--omega3", type=float, default=None)
    spec.add_argument("--normalize", action="store_true")
    spec.set_defaults(handler=_cmd_spectrum)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (CarscidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
