"""Command-line interface: verify, invariants, delta, spectrum.

Exit status convention: 0 on success, 1 on any operational failure (bad
input, oracle failure of an authoritative closed form), 2 from `verify` when
the authoritative closed forms all pass but a natural-invariant rendition
deviates, which is the documented expected state (see the report notes).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .averaging import DEFAULT_QUAD_ORDER, MIN_MC_SAMPLES, verify_closed_forms
from .cid import HARTREE_TO_CM1, signal_for_tensors, spectrum
from .errors import CarscidError, FrequencyError
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
    """(omega1, omega3) from the command line, else from the beams block."""
    if mf.beams is None and (args.omega1 is None or args.omega3 is None):
        raise CarscidError("model has no beams block; pass --omega1 and --omega3")
    omega1 = args.omega1 if args.omega1 is not None else mf.beams.omega1
    omega3 = args.omega3 if args.omega3 is not None else mf.beams.omega3
    return omega1, omega3


def _mode_beams(mf: ModelFile, mode, args) -> BeamSet:
    """Per-mode beams with the photons of the beams block: omega2 from the
    mode's Raman shift unless given explicitly in the beams block."""
    omega1, omega3 = _pump_probe(mf, args)
    if mf.beams is not None and mf.beams.omega2 is not None:
        omega2 = mf.beams.omega2
    else:
        omega2 = omega1 - mode.shift_cm1 / HARTREE_TO_CM1
    photons = mf.beams.photons if mf.beams is not None else (1.0,) * 4
    try:
        return BeamSet.collinear_vvv(omega1, omega2, omega3, photons=photons)
    except FrequencyError as exc:
        raise FrequencyError(f"mode {mode.name!r}: {exc}") from None


def _context(mf: Optional[ModelFile], args) -> PhysicalContext:
    c = mf.c if mf is not None else PhysicalContext().c
    return PhysicalContext(c=c, normalize=bool(getattr(args, "normalize", False)))


def _write_output(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, payload: dict) -> None:
    if args.output:
        _write_output(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_sets(args):
    """(label, tensors, omega3, omega4, c) tuples to verify."""
    if args.input:
        mf = parse_model_file(args.input)
        for mode in mf.modes:
            beams = _mode_beams(mf, mode, args)
            yield (f"mode {mode.name!r}", mode.tensors_at(beams),
                   *beams.omega[2:].tolist(), mf.c)
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
    if args.sets is not None and args.sets < 0:
        raise CarscidError("--sets: expected a nonnegative number of random sets")
    if args.seed < 0:
        raise CarscidError("--seed: expected a nonnegative integer")
    if args.samples < MIN_MC_SAMPLES:
        raise CarscidError(f"--samples: need at least {MIN_MC_SAMPLES} Monte Carlo samples")
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
    text = "\n".join(lines)
    print(text)
    _write_json(args, {
        "exit_code": exit_code,
        "reports": [{"label": label} | report.to_dict() for label, report in reports],
    })
    return exit_code


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

def _natural_key(key) -> str:
    j, t1, t2 = key
    return f"{j}^({t1}{t2})"


def _cmd_invariants(args) -> int:
    mf = parse_model_file(args.input)
    records = []
    lines = []
    for mode in mf.modes:
        beams = _mode_beams(mf, mode, args)
        omega3, omega4 = beams.omega[2:].tolist()
        iso = mode.tensors_at(beams).invariants
        nat = natural_from_isotropic(iso, omega3, omega4)
        deps = dependence_report(iso)
        records.append({
            "mode": mode.name,
            "omega3": omega3,
            "omega4": omega4,
            "alpha": iso.alpha.tolist(),
            "gprime": iso.gprime.tolist(),
            "aquad": iso.aquad.tolist(),
            "dependence": deps,
            "naturals": {
                "a": {"{},{},{}".format(*k): v for k, v in sorted(nat.a.items())},
                "g": {"{},{},{}".format(*k): v for k, v in sorted(nat.g.items())},
                "k_omega3": {"{},{},{}".format(*k): v for k, v in sorted(nat.k3.items())},
                "k_omega4": {"{},{},{}".format(*k): v for k, v in sorted(nat.k4.items())},
            },
        })
        lines.append(f"=== mode {mode.name!r} "
                     f"(omega3={omega3:.12g}, omega4={omega4:.12g}) ===")
        lines.append("  [alpha]_1..10 : " + "  ".join(_fmt(v) for v in iso.alpha))
        lines.append("  [G']_1..14    : " + "  ".join(_fmt(v) for v in iso.gprime))
        lines.append("  [A]_5..14     : " + "  ".join(_fmt(v) for v in iso.aquad))
        lines.append("  dependence residuals (relative): " + "  ".join(
            f"{name}={deps[name]['relative']:.3e}" for name in ("alpha", "gprime", "aquad")))
        for label, table in (("a", nat.a), ("g", nat.g),
                             ("k(omega3)", nat.k3), ("k(omega4)", nat.k4)):
            body = "  ".join(f"{label}_{_natural_key(k)}={_fmt(v)}"
                             for k, v in sorted(table.items()))
            lines.append(f"  {body}")
        lines.append("")
    print("\n".join(lines))
    _write_json(args, {"modes": records})
    return 0


# --------------------------------------------------------------------------
# delta
# --------------------------------------------------------------------------

def _cmd_delta(args) -> int:
    mf = parse_model_file(args.input)
    ctx = _context(mf, args)
    records = []
    lines = ["rates in arbitrary units: golden-rule factor 2*pi*rho_f/hbar times "
             "pi^2 rho_s^2 (hbar c/(2 eps0 V))^4 k1 k2 k3 k4 n1 n3 (n2+1)(n4+1)"
             + (" (normalized to 1)" if ctx.normalize else "")]
    for mode in mf.modes:
        beams = _mode_beams(mf, mode, args)
        result = signal_for_tensors(mode.tensors_at(beams), beams, ctx)
        records.append({
            "mode": mode.name,
            "delta": result.delta,
            "delta_two_frequency": result.delta_two_frequency,
            "delta_single_frequency": result.delta_single_frequency,
            "rate_R": result.rate_r,
            "rate_L": result.rate_l,
            "two_frequency_deviation": result.two_frequency_deviation,
            "single_frequency_deviation": result.single_frequency_deviation,
            "two_frequency_consistent": result.two_frequency_consistent,
            "single_frequency_consistent": result.single_frequency_consistent,
        })
        lines.append(
            f"mode {mode.name!r}: delta={_fmt(result.delta)}  "
            f"rate_R={_fmt(result.rate_r)}  rate_L={_fmt(result.rate_l)}")
        lines.append(
            f"  natural renditions: two-frequency={_fmt(result.delta_two_frequency)} "
            f"(dev {result.two_frequency_deviation:.3e}, "
            f"{'consistent' if result.two_frequency_consistent else 'DEVIATES'})  "
            f"single-frequency={_fmt(result.delta_single_frequency)} "
            f"(dev {result.single_frequency_deviation:.3e}, "
            f"{'consistent' if result.single_frequency_consistent else 'DEVIATES'})")
    print("\n".join(lines))
    _write_json(args, {"modes": records})
    return 0


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    mf = parse_model_file(args.input)
    ctx = _context(mf, args)
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

    omega1, omega3 = _pump_probe(mf, args)
    photons = mf.beams.photons if mf.beams is not None else (1.0,) * 4

    rows = spectrum(mf.modes, omega1, omega3, scan.shifts(), ctx,
                    width_cm1=scan.width_cm1, photons=photons)
    out = ["shift_cm1,omega2_au,rate_R,rate_L,delta"]
    for row in rows:
        out.append(",".join(_fmt(v) for v in
                            (row.shift_cm1, row.omega2, row.rate_r, row.rate_l, row.delta)))
    _write_output(args, "\n".join(out) + "\n")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CarscidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
