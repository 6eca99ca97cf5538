"""Command-line interface: verify, invariants, delta, spectrum.

Exit status convention: 0 on success, 1 on any operational failure (a usage
error, bad input, a warning that a filter turns into an error, oracle failure
of an authoritative closed form), 2 from
`verify` when the authoritative closed forms all pass but a natural-invariant
rendition deviates, which is the documented expected state (see the report notes).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
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


_fmt = "{:.17g}".format  # a float of the text lines


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
    from each mode's Raman shift, gives the batch's values, each with one leading
    mode axis, handed on with the batch's name column.  Each batch of at most
    `errors.MAX_BATCH` modes is one stack, its warnings issued mode by mode once it
    has passed; when it raises, each of its modes is a stack of one, lazily, so
    `verify` checks each mode before the next one is evaluated."""
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


def _write_json(args, text) -> None:
    """`text()` to `--output`, if given; called before the text lines print, so a
    failed write prints none."""
    if args.output:
        _write_output(args, text() + "\n")


def _extend(columns: dict, batch: dict) -> dict:
    """Append each column of `batch` to the same key of `columns`, a dict of
    columns key by key, and give the batch as those Python values."""
    values = {}
    for key, column in batch.items():
        if isinstance(column, dict):
            values[key] = _extend(columns.setdefault(key, {}), column)
        else:
            values[key] = column.tolist() if isinstance(column, np.ndarray) else column
            columns.setdefault(key, []).extend(values[key])
    return values


@functools.lru_cache(maxsize=None)
def _flat_encoder(depth: int):
    """The C encoder of a list at `depth` whose items are all scalars: its item
    separator carries the newline and indent that `indent=2` would."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _records(columns: dict, depth: int) -> list:
    """The JSON text at `depth` of each record of the table `columns`, as
    `json.dumps(..., indent=2, sort_keys=True)` would write it, through one
    record template.  Each key maps to one value per record: a list of scalars,
    one C-encoder call whose item separator ",\n" is a newline the encoder
    escapes inside strings, so splitting at it gives the values; a list of rows
    of scalars, one call per row; or a nonempty dict of such columns, whose
    records nest."""
    keys = sorted(columns)
    field = "\n" + "  " * (depth + 1)
    cells = []
    for key in keys:
        column = columns[key]
        if isinstance(column, dict):
            cells.append(_records(column, depth + 1))
        elif column and isinstance(column[0], list):
            encode = _flat_encoder(depth + 1)
            cells.append(["[" + field + "  " + encode(row)[1:-1] + field + "]" if row else "[]"
                          for row in column])
        else:  # an empty column is no cell, not the one empty cell of splitting ""
            cells.append(_flat_encoder(-1)(column)[1:-1].split(",\n") if column else [])
    template = "{" + field + ("," + field).join(
        json.dumps(key).replace("%", "%%") + ": %s" for key in keys) + field[:-2] + "}"
    return [template % row for row in zip(*cells)]


def _modes_json(columns: dict) -> str:
    """`{"modes": records}` of the table `columns` (see `_records`)."""
    records = ",\n    ".join(_records(columns, 2))
    return '{\n  "modes": ' + ("[\n    " + records + "\n  ]" if records else "[]") + "\n}"


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
    _write_json(args, lambda: json.dumps({
        "exit_code": exit_code,
        "reports": [{"label": label} | report.to_dict() for label, report in reports],
    }, indent=2, sort_keys=True))
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
                "naturals": {key: {"{},{},{}".format(*k): table[k] for k in sorted(table)}
                             for key, table in (("a", nat.a), ("g", nat.g),
                                                ("k_omega3", nat.k3), ("k_omega4", nat.k4))}}

    labels = {"a": "a", "g": "g", "k_omega3": "k(omega3)", "k_omega4": "k(omega4)"}
    columns = {}  # the JSON records, as one column per key, nested as they nest
    lines = []
    for names, values in _per_mode(mf, args, evaluate):
        values = _extend(columns, {"mode": names, **values})
        naturals = []  # per table: the format of its text line, and its values per mode
        for key, table in values["naturals"].items():
            line = "  ".join("{}_{}^({}{})=".format(labels[key], *k.split(",")) + "{:.17g}"
                             for k in table)  # each value as `_fmt` writes it
            naturals.append(("  " + line, list(zip(*table.values()))))
        for j, name in enumerate(names):
            lines.append(f"=== mode {name!r} (omega3={values['omega3'][j]:.12g}, "
                         f"omega4={values['omega4'][j]:.12g}) ===")
            lines.append("  [alpha]_1..10 : " + "  ".join(map(_fmt, values["alpha"][j])))
            lines.append("  [G']_1..14    : " + "  ".join(map(_fmt, values["gprime"][j])))
            lines.append("  [A]_5..14     : " + "  ".join(map(_fmt, values["aquad"][j])))
            lines.append("  dependence residuals (relative): " + "  ".join(
                f"{family}={deps['relative'][j]:.3e}"
                for family, deps in values["dependence"].items()))
            lines.extend(line.format(*rows[j]) for line, rows in naturals)
            lines.append("")
    _write_json(args, lambda: _modes_json(columns))
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

    columns = {}  # the JSON records, as one column per key
    for names, values in _per_mode(mf, args, evaluate):
        values = _extend(columns, {"mode": names, **values})
        for name, delta, d12, d13, rate_r, rate_l, dev12, dev13, ok12, ok13 in zip(
                *values.values()):
            lines.append(f"mode {name!r}: delta={_fmt(delta)}  "
                         f"rate_R={_fmt(rate_r)}  rate_L={_fmt(rate_l)}")
            lines.append(
                f"  natural renditions: two-frequency={_fmt(d12)} "
                f"(dev {dev12:.3e}, {'consistent' if ok12 else 'DEVIATES'})  "
                f"single-frequency={_fmt(d13)} "
                f"(dev {dev13:.3e}, {'consistent' if ok13 else 'DEVIATES'})")
    _write_json(args, lambda: _modes_json(columns))
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
    except (CarscidError, OSError, Warning) as exc:  # a Warning only if a filter made it one
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
