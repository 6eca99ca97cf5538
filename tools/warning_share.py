"""Share of warning inputs: the four benchmark workloads as built, and copies of
the `spectrum-states` level model written as other programs write one.

Run from anywhere; it uses the `carscid` of the checkout this file is in:

    python3 tools/warning_share.py --seeds 7,13,29

Each workload's command runs in-process through `differential.run_cases`,
which records its warnings under `warnings.simplefilter("always")`.  Each level
model is then built alone at every point of its scan grid, and a point warns
when its sum-over-states build does.  Besides the model as built, whose moments
obey per intermediate the closure relations under which both routes of every
optical-activity tensor coincide, written with 17 significant digits, it builds

* `digits=D`: every moment entry written with D significant digits, as
  `%.{D-1}e` prints it, which breaks the closure relations at round-off;
* `untied`: the second moment of every closure pair (mu(t, ket), m(bra, t) and
  q(bra, t)) drawn on its own, as the moments of a molecule are, not tied to
  the first.

It prints one JSON record per input.  Standard library and numpy only.
"""
from __future__ import annotations

import argparse
import copy
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from carscid.cid import HARTREE_TO_CM1  # noqa: E402
from carscid.model_io import parse_model  # noqa: E402
from carscid.scattering import BeamSet  # noqa: E402
from differential import load_workloads, run_cases  # noqa: E402

#: Significant digits of the written copies of each level model.
DIGITS = (9, 8, 7, 6)


def warned_points(model: dict) -> tuple:
    """(points that warn, points) of the states model's scan grid, each built alone."""
    mf = parse_model(json.dumps(model))
    [mode] = mf.modes
    shifts = mf.scan.shifts()
    warned = 0
    for shift in shifts.tolist():
        beams = BeamSet.collinear_vvv(mf.beams.omega1, mf.beams.omega1 - shift / HARTREE_TO_CM1,
                                      mf.beams.omega3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mode.tensors_at(beams)
        warned += bool(caught)
    return warned, len(shifts)


def written(model: dict, digits: int) -> dict:
    """`model` with every moment entry rounded to `digits` significant digits."""
    out = copy.deepcopy(model)
    for table in out["moments"].values():
        for entry in table:
            entry["value"] = np.vectorize(lambda v: float(f"{v:.{digits - 1}e}"))(
                entry["value"]).tolist()
    return out


def untied(model: dict, rng) -> dict:
    """`model` with the second moment of every closure pair drawn on its own."""
    out = copy.deepcopy(model)
    for name, table in out["moments"].items():
        for entry in table[1::2]:  # each pair is written (first, second)
            value = rng.normal(size=np.shape(entry["value"]))
            entry["value"] = (0.5 * (value + value.T) if name == "quadrupole" else value).tolist()
    return out


def main_(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,13,29")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        for seed in (int(s) for s in args.seeds.split(",")):
            for name in workloads.NAMES:
                w = workloads.make(name, seed)
                path.write_text(w.model_text())
                [found] = run_cases({name: w.command(str(path), "{output}")},
                                    Path(tmp) / "output").values()
                print(json.dumps({"seed": seed, "input": name, "items": w.items,
                                  "warnings": len(found["warnings"])}))
            states = workloads.make("spectrum-states", seed).model
            copies = {"as built": states, "untied": untied(states, np.random.default_rng(seed))}
            copies.update({f"digits={d}": written(states, d) for d in DIGITS})
            for label, model in copies.items():
                warned, points = warned_points(model)
                print(json.dumps({"seed": seed, "input": f"spectrum-states {label}",
                                  "points": points, "warned_points": warned}))
    return 0


if __name__ == "__main__":
    sys.exit(main_())
