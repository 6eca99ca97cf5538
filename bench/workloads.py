"""Seeded inputs for the four benchmark workloads.

Each workload is a model file generated from the benchmark seed plus the
`carscid` command line that runs on it.  The program sees only the files; the
seed never reaches it except as the Monte Carlo seed of `verify`, which is a
documented input of that command.

Why these four (the layer each stresses, and the layer each bypasses):

* verify-oracle: the SO(3) oracles (Euler grids, tensor rotation, bracket
  kernel, quadrature, Monte Carlo) on a few chiral tensor sets at
  omega3 != omega4.  Closed forms are a negligible share; no SOS, no spectrum.
* spectrum-tensor: ~10 frequency-independent tensor modes over 801 grid
  points, so the same invariants are recomputed at every point.  Invariant
  reuse and grid vectorization show here; the oracles and SOS are bypassed.
* spectrum-states: the same spectrum loop on one states model whose SOS
  tensors change at every point, so invariant reuse across points gains
  nothing.  A spectrum change that helps tensor modes must not slow this one.
* delta-many: ~1000 distinct tensor modes through `delta --output`.  No work
  is shared between modes; parsing, validation, the natural renditions and
  JSON output carry weight.  A per-mode cache cannot help.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: The speed of light written into every model file (atomic units).
C_AU = 137.035999

#: hartree -> wavenumber conversion (CODATA).
HARTREE_TO_CM1 = 219474.6313632

#: Scan grids of the two spectrum workloads have this many points.
SPECTRUM_POINTS = 801


@dataclass(frozen=True)
class Workload:
    """A generated model plus the CLI arguments that consume it.

    `argv` uses the placeholders ``{model}`` and ``{output}``; `items` is the
    amount of work one invocation completes (see `ITEM_UNITS`).
    """

    name: str
    model: dict
    argv: tuple
    output_suffix: str
    items: int

    def command(self, model_path: str, output_path: str) -> list:
        return [a.format(model=model_path, output=output_path) for a in self.argv]

    def model_text(self) -> str:
        return json.dumps(self.model, sort_keys=True)


ITEM_UNITS = {
    "verify-oracle": "verified tensor set",
    "spectrum-tensor": "(mode, grid point) pair",
    "spectrum-states": "(mode, grid point) pair",
    "delta-many": "mode",
}

NAMES = tuple(ITEM_UNITS)


def _sym2(rng) -> list:
    m = rng.normal(size=(3, 3))
    return (0.5 * (m + m.T)).tolist()


def _rank3_sym_last(rng) -> list:
    a = rng.normal(size=(3, 3, 3))
    return (0.5 * (a + np.swapaxes(a, 1, 2))).reshape(27).tolist()


def _beams(rng) -> dict:
    return {"omega1": float(rng.uniform(0.085, 0.095)),
            "omega3": float(rng.uniform(0.075, 0.085))}


def _tensor_modes(rng, count: int, lo_cm1: float, hi_cm1: float) -> list:
    """Random chiral tensor modes with distinct Raman shifts in [lo, hi)."""
    shifts = np.sort(rng.choice(np.arange(lo_cm1, hi_cm1, 0.25), size=count,
                                replace=False))
    return [{
        "name": f"m{j:04d}",
        "shift_cm1": float(shift),
        "alpha34": _sym2(rng),
        "alpha12": _sym2(rng),
        "gprime34": rng.normal(size=(3, 3)).tolist(),
        "a34": _rank3_sym_last(rng),
    } for j, shift in enumerate(shifts)]


def _verify_oracle(rng, seed: int) -> Workload:
    model = {"constants": {"c": C_AU}, "beams": _beams(rng),
             "modes": _tensor_modes(rng, 3, 800.0, 1800.0)}
    return Workload("verify-oracle", model,
                    ("verify", "--input", "{model}", "--output", "{output}",
                     "--seed", str(seed % 2**31)),
                    ".json", len(model["modes"]))


def _spectrum_tensor(rng, seed: int) -> Workload:
    start = 400.0
    step = 2.0
    stop = start + step * (SPECTRUM_POINTS - 1)
    model = {"constants": {"c": C_AU}, "beams": _beams(rng),
             "scan": {"start_cm1": start, "stop_cm1": stop, "step_cm1": step,
                      "width_cm1": float(rng.uniform(10.0, 30.0))},
             "modes": _tensor_modes(rng, 10, start + 50.0, stop - 50.0)}
    return Workload("spectrum-tensor", model,
                    ("spectrum", "--input", "{model}", "--output", "{output}"),
                    ".csv", len(model["modes"]) * SPECTRUM_POINTS)


def _states_model(rng, n_intermediates: int) -> dict:
    """A level model obeying the closure relations under which both SOS routes
    of every optical-activity tensor coincide, so no defect warning fires:
    per intermediate, mu(t,ket) = lam mu(bra,t), m(bra,t) = -m(t,ket)/lam and
    q(bra,t) = q(t,ket)/lam."""
    gap = float(rng.uniform(0.008, 0.012))
    levels = [{"id": "g", "energy": 0.0}, {"id": "s", "energy": gap},
              {"id": "f", "energy": gap}]
    mu, m_imag, quad = [], [], []
    probe, pump = [], []
    for j in range(n_intermediates):
        for bra, ket, bucket in (("f", "s", probe), ("s", "g", pump)):
            t = f"{bra}{ket}{j}"
            levels.append({"id": t, "energy": 1.5 + float(rng.uniform(0.0, 1.0))})
            bucket.append(t)
            lam = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
            p = rng.normal(size=3)
            q = rng.normal(size=3)
            qq = np.asarray(_sym2(rng))
            mu += [{"pair": [bra, t], "value": p.tolist()},
                   {"pair": [t, ket], "value": (lam * p).tolist()}]
            m_imag += [{"pair": [t, ket], "value": q.tolist()},
                       {"pair": [bra, t], "value": (-q / lam).tolist()}]
            quad += [{"pair": [t, ket], "value": qq.tolist()},
                     {"pair": [bra, t], "value": (qq / lam).tolist()}]
    return {"name": "states", "levels": levels,
            "moments": {"mu": mu, "m_imag": m_imag, "quadrupole": quad},
            "roles": {"ground": "g", "excited": "s", "final": "f",
                      "pump_intermediates": pump, "probe_intermediates": probe}}


def _spectrum_states(rng, seed: int) -> Workload:
    model = _states_model(rng, 5)
    centre = round(model["levels"][1]["energy"] * HARTREE_TO_CM1)
    step = 1.0
    start = centre - step * (SPECTRUM_POINTS - 1) / 2
    model.update({
        "constants": {"c": C_AU}, "beams": _beams(rng),
        "scan": {"start_cm1": start, "stop_cm1": start + step * (SPECTRUM_POINTS - 1),
                 "step_cm1": step, "width_cm1": float(rng.uniform(10.0, 30.0))}})
    return Workload("spectrum-states", model,
                    ("spectrum", "--input", "{model}", "--output", "{output}"),
                    ".csv", SPECTRUM_POINTS)


def _delta_many(rng, seed: int) -> Workload:
    model = {"constants": {"c": C_AU}, "beams": _beams(rng),
             "modes": _tensor_modes(rng, 1000, 200.0, 3500.0)}
    return Workload("delta-many", model,
                    ("delta", "--input", "{model}", "--output", "{output}"),
                    ".json", len(model["modes"]))


_BUILDERS = {
    "verify-oracle": _verify_oracle,
    "spectrum-tensor": _spectrum_tensor,
    "spectrum-states": _spectrum_states,
    "delta-many": _delta_many,
}


def make(name: str, seed: int) -> Workload:
    """The workload `name` for benchmark seed `seed`; same seed, same inputs."""
    rng = np.random.default_rng([abs(seed), NAMES.index(name)])
    return _BUILDERS[name](rng, abs(seed))
