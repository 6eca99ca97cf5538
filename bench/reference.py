"""Reference outputs for the benchmark workloads, and the check against them.

The reference is computed here, independently of the program's own code
paths: invariants are batched `einsum`s over all modes or grid points at once,
the oracle brackets are built from lab-frame components instead of fully
rotated tensors, and sums run in another order.  Only the exact-rational
coefficient tables are taken from `carscid.coefficients`, the single source of
those fixed reference data.  The formulas are those of the seed commit, so the
program's output must agree at round-off level: a reordered summation passes,
a changed number does not.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

from carscid import coefficients as coef

from workloads import HARTREE_TO_CM1, Workload

#: Relative tolerance of every numeric comparison: round-off with headroom for
#: reordered sums and cancellation, far below any change of formula.
RTOL = 1e-10

#: Absolute floor, relative to the integrand scale, for oracle values that are
#: themselves round-off (quadrature convergence, near-zero averages).
ORACLE_ATOL = 1e-12

#: Absolute floor for dimensionless ratios: delta, whose absolute round-off
#: stays ~1e-16 however close to zero cancellation brings it, and relative
#: deviations that are themselves round-off (passing renditions sit at ~1e-16).
RATIO_ATOL = 1e-13

# Seed-commit verification settings: `verify` defaults and the report's
# pass/fail tolerances.
QUAD_ORDER = (16, 32, 16)
MC_SAMPLES = 100_000
RTOL_QUAD = 1e-9
MC_SIGMA = 5.0
CONSISTENCY_TOL = 1e-9
NATURAL_TOL = {"electric": 1e-12, "magnetic": 1e-9, "quadrupole": 1e-12}

#: The documented findings every chiral set at omega3 != omega4 reproduces:
#: (term, passed_quadrature, passed_mc) per oracle check and (term, passed)
#: per natural rendition.  The quadrupole closed form fails its quadrature
#: oracle, the equal-frequency diagnostic passes, and the magnetic g rendition
#: deviates; `verify` therefore exits 1 by design.  Whether the quadrupole
#: split defect also exceeds the Monte Carlo band depends on the set (None).
DOCUMENTED_CHECKS = (("electric", True, True), ("magnetic", True, True),
                     ("quadrupole", False, None),
                     ("quadrupole (equal-frequency)", True, True))
DOCUMENTED_RENDITIONS = (("electric", True), ("magnetic", False),
                         ("quadrupole", True))
DOCUMENTED_EXIT_CODE = 1

# Contraction patterns of the isotropic invariants, factor order
# (alpha34, alpha12, alpha34, alpha12) and (T, alpha12, alpha34, alpha12).
_ALPHA_PATTERNS = (
    "ii,jj,kk,ll", "ii,jj,kl,kl", "ii,jk,jl,kl", "ii,jk,ll,jk",
    "ij,ij,kl,kl", "ij,ik,jk,ll", "ij,ik,jl,kl", "ij,ik,kl,jl",
    "ij,kk,ij,ll", "ij,kl,ij,kl",
)
_RANK2_PATTERNS = (
    "ii,jj,kk,ll", "ii,jj,kl,kl", "ii,jk,jl,kl", "ii,jk,ll,jk",
    "ij,ij,kk,ll", "ij,ij,kl,kl", "ij,ik,jk,ll", "ij,ik,jl,kl",
    "ij,ik,kl,jl", "ij,ik,ll,jk", "ij,jk,ik,ll", "ij,jk,il,kl",
    "ij,kk,ij,ll", "ij,kl,ij,kl",
)

_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_i, _j, _k] = 1.0
    _LEVI_CIVITA[_i, _k, _j] = -1.0


# --------------------------------------------------------------------------
# batched closed forms
# --------------------------------------------------------------------------

def _contract(patterns, *factors) -> np.ndarray:
    """(N, len(patterns)) full contractions of N stacked factor quadruples."""
    return np.stack([
        np.einsum(",".join("z" + f for f in p.split(",")) + "->z", *factors,
                  optimize=True)
        for p in patterns], axis=1)


def _vector(table: dict, size: int, offset: int) -> np.ndarray:
    v = np.zeros(size)
    for i, c in table.items():
        v[i - offset] = float(c)
    return v


def _matrix(table: dict, size: int, offset: int):
    """Isotropic -> natural linear map as (keys, (size, len(keys)) matrix)."""
    keys = list(table)
    m = np.zeros((size, len(keys)))
    for col, key in enumerate(keys):
        for i, c in table[key].items():
            m[i - offset, col] = float(c)
    return keys, m


def _form(table: dict, naturals: dict) -> np.ndarray:
    return sum(float(c) * naturals[key] for key, c in table.items())


class Tensors:
    """N stacked property-tensor sets (alpha34, alpha12, gprime34, a34)."""

    def __init__(self, alpha34, alpha12, gprime34, a34):
        self.alpha34 = np.asarray(alpha34, dtype=float)
        self.alpha12 = np.asarray(alpha12, dtype=float)
        self.gprime34 = np.asarray(gprime34, dtype=float)
        self.a34 = np.asarray(a34, dtype=float)

    @classmethod
    def from_modes(cls, modes) -> "Tensors":
        return cls([m["alpha34"] for m in modes], [m["alpha12"] for m in modes],
                   [m["gprime34"] for m in modes],
                   [np.reshape(m["a34"], (3, 3, 3)) for m in modes])


def averages(t: Tensors, omega3, omega4, c: float) -> dict:
    """Closed forms and natural-invariant quantities for N tensor sets.

    `omega3`/`omega4` broadcast against N.  Returns arrays keyed electric,
    magnetic, quadrupole, quadrupole_eq (both frequencies at omega3),
    electric_nat, magnetic_nat, quadrupole_nat, delta12, delta13.
    """
    a34, a12 = t.alpha34, t.alpha12
    b = np.einsum("mni,zmnj->zij", _LEVI_CIVITA, t.a34)
    alpha = _contract(_ALPHA_PATTERNS, a34, a12, a34, a12)
    gprime = _contract(_RANK2_PATTERNS, t.gprime34, a12, a34, a12)
    aquad = _contract(_RANK2_PATTERNS[4:], b, a12, a34, a12)

    k3 = np.asarray(omega3, dtype=float) / c
    k4 = np.asarray(omega4, dtype=float) / c
    probe = aquad @ _vector(coef.QUADRUPOLE_AVERAGE_PROBE, 10, 5)
    anti = aquad @ _vector(coef.QUADRUPOLE_AVERAGE_ANTISTOKES, 10, 5)
    out = {
        "electric": alpha @ _vector(coef.ELECTRIC_AVERAGE, 10, 1),
        "magnetic": gprime @ _vector(coef.MAGNETIC_AVERAGE, 14, 1) / c,
        "quadrupole": -(k3 / 3.0) * probe + (k4 / 3.0) * anti,
        "quadrupole_eq": -(k3 / 3.0) * probe + (k3 / 3.0) * anti,
    }

    nat = {}
    for name, table, values, size, offset in (
            ("a", coef.NATURAL_A_FROM_ALPHA, alpha, 10, 1),
            ("g", coef.NATURAL_G_FROM_GPRIME, gprime, 14, 1),
            ("k", coef.NATURAL_K_FROM_AQUAD, aquad, 10, 5)):
        keys, m = _matrix(table, size, offset)
        nat[name] = dict(zip(keys, (values @ m).T))
    zero = np.zeros(len(alpha))
    k3n = {key: omega3 * v for key, v in nat["k"].items()}
    k4n = {key: omega4 * v for key, v in nat["k"].items()}
    for key in coef.NATURAL_K_ZERO_KEYS:
        k3n[key] = k4n[key] = zero

    den = _form(coef.ELECTRIC_NATURAL_FORM, nat["a"])
    g_form = _form(coef.MAGNETIC_NATURAL_FORM, nat["g"])
    probe_nat = _form(coef.QUADRUPOLE_NATURAL_FORM_PROBE, k3n)
    anti_nat = _form(coef.QUADRUPOLE_NATURAL_FORM_ANTISTOKES, k4n)
    single = sum(float(cf) * (nat["g"][key] - k3n[key] / 3.0)
                 for key, cf in coef.MAGNETIC_NATURAL_FORM.items())
    out.update({
        "electric_nat": den,
        "magnetic_nat": g_form / c,
        "quadrupole_nat": (probe_nat + coef.ANTISTOKES_BLOCK_SIGN * anti_nat) / (3.0 * c),
        "delta12": (g_form + probe_nat / 3.0
                    + coef.ANTISTOKES_BLOCK_SIGN * anti_nat / 3.0) / (c * den),
        "delta13": single / (c * den),
    })
    return out


def rate_prefactor(omega1, omega2, omega3, omega4, c: float):
    """Golden-rule times field prefactor at unit volume, densities and photon
    numbers n = 1 (so n1 n3 (n2+1)(n4+1) = 4), atomic units."""
    eps0 = 1.0 / (4.0 * math.pi)
    field = (c / (2.0 * eps0)) ** 4
    k1, k2, k3, k4 = (np.asarray(w, dtype=float) / c
                      for w in (omega1, omega2, omega3, omega4))
    return 2.0 * math.pi * math.pi ** 2 * field * k1 * k2 * k3 * k4 * 4.0


def _rel_dev(a, b, floor=0.0):
    """|a - b| relative to max(|a|, |b|), or absolute where that scale is at
    or below `floor` (the program uses floors 0 and 1e-15)."""
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return np.where(scale > floor, diff / np.where(scale > floor, scale, 1.0), diff)


# --------------------------------------------------------------------------
# per-workload references
# --------------------------------------------------------------------------

def _mode_frequencies(model: dict, shifts):
    omega1 = model["beams"]["omega1"]
    omega3 = model["beams"]["omega3"]
    omega2 = omega1 - np.asarray(shifts, dtype=float) / HARTREE_TO_CM1
    return omega1, omega2, omega3, omega1 - omega2 + omega3


def _delta_reference(model: dict) -> dict:
    modes = model["modes"]
    c = model["constants"]["c"]
    omega1, omega2, omega3, omega4 = _mode_frequencies(
        model, [m["shift_cm1"] for m in modes])
    av = averages(Tensors.from_modes(modes), omega3, omega4, c)
    chiral = av["magnetic"] + av["quadrupole"]
    delta = chiral / av["electric"]
    pref = rate_prefactor(omega1, omega2, omega3, omega4, c)
    two = _rel_dev(delta, av["delta12"])
    single = _rel_dev(delta, av["delta13"])
    return {"modes": [{
        "mode": m["name"],
        "delta": float(delta[j]),
        "delta_two_frequency": float(av["delta12"][j]),
        "delta_single_frequency": float(av["delta13"][j]),
        "rate_R": float(pref[j] * (av["electric"][j] + chiral[j])),
        "rate_L": float(pref[j] * (av["electric"][j] - chiral[j])),
        "two_frequency_consistent": bool(two[j] <= CONSISTENCY_TOL),
        "single_frequency_consistent": bool(single[j] <= CONSISTENCY_TOL),
    } for j, m in enumerate(modes)]}


def _scan(model: dict) -> np.ndarray:
    s = model["scan"]
    n = int(round((s["stop_cm1"] - s["start_cm1"]) / s["step_cm1"])) + 1
    return s["start_cm1"] + np.arange(n) * s["step_cm1"]


def _lorentzian(shift, centre, width):
    half = 0.5 * width
    return half * half / ((shift - centre) ** 2 + half * half)


def _spectrum_rows(shifts, omega2, pref, parts) -> np.ndarray:
    """Rows (shift, omega2, rate_R, rate_L, delta) from per-mode
    (electric, chiral, weight) arrays over the grid."""
    rate_r = sum(w * pref * (e + x) for e, x, w in parts)
    rate_l = sum(w * pref * (e - x) for e, x, w in parts)
    delta = (rate_r - rate_l) / (rate_r + rate_l)
    return np.stack([shifts, omega2, rate_r, rate_l, delta], axis=1)


def _spectrum_tensor_reference(model: dict) -> np.ndarray:
    c = model["constants"]["c"]
    shifts = _scan(model)
    omega1, omega2, omega3, omega4 = _mode_frequencies(model, shifts)
    pref = rate_prefactor(omega1, omega2, omega3, omega4, c)
    width = model["scan"]["width_cm1"]
    parts = []
    for mode in model["modes"]:
        av = averages(Tensors.from_modes([mode]), omega3, omega4, c)
        parts.append((av["electric"], av["magnetic"] + av["quadrupole"],
                      _lorentzian(shifts, mode["shift_cm1"], width)))
    return _spectrum_rows(shifts, omega2, pref, parts)


def _moments(entries) -> dict:
    return {tuple(e["pair"]): np.asarray(e["value"], dtype=float) for e in entries}


def _sos_tensors(model: dict, omega1, omega2, omega3, omega4) -> Tensors:
    """Sum-over-states tensors at every grid point (route 1 of each
    optical-activity tensor; the closure relations make both routes agree)."""
    energy = {lv["id"]: lv["energy"] for lv in model["levels"]}
    mu = _moments(model["moments"]["mu"])
    m = _moments(model["moments"]["m_imag"])
    q = _moments(model["moments"]["quadrupole"])
    roles = model["roles"]
    n = len(omega2)

    def polarizability(bra, ket, intermediates, omega_a, omega_b):
        alpha = np.zeros((n, 3, 3))
        for t in intermediates:
            d1 = energy[t] - energy[ket] - omega_a
            d2 = energy[t] - energy[ket] + omega_b
            alpha += (np.outer(mu[bra, t], mu[t, ket]) / d1
                      + np.outer(mu[t, ket], mu[bra, t]) / d2[:, None, None])
        return 0.5 * (alpha + np.swapaxes(alpha, 1, 2))

    bra, ket = roles["final"], roles["excited"]
    g = np.zeros((n, 3, 3))
    a = np.zeros((n, 3, 3, 3))
    for t in roles["probe_intermediates"]:
        d1 = energy[t] - energy[ket] - omega3
        d2 = (energy[t] - energy[ket] + omega4)[:, None, None]
        g -= np.outer(mu[bra, t], m[t, ket]) / d1 + np.outer(mu[t, ket], m[bra, t]) / d2
        a += (np.einsum("i,jn->ijn", mu[bra, t], q[t, ket]) / d1
              + np.einsum("i,jn->ijn", mu[t, ket], q[bra, t]) / d2[..., None])
    return Tensors(
        polarizability(bra, ket, roles["probe_intermediates"], omega3, omega4),
        polarizability(ket, roles["ground"], roles["pump_intermediates"],
                       omega1, omega2),
        g, 0.5 * (a + np.swapaxes(a, 2, 3)))


def _spectrum_states_reference(model: dict) -> np.ndarray:
    c = model["constants"]["c"]
    shifts = _scan(model)
    omega1, omega2, omega3, omega4 = _mode_frequencies(model, shifts)
    pref = rate_prefactor(omega1, omega2, omega3, omega4, c)
    energy = {lv["id"]: lv["energy"] for lv in model["levels"]}
    roles = model["roles"]
    centre = (energy[roles["excited"]] - energy[roles["ground"]]) * HARTREE_TO_CM1
    av = averages(_sos_tensors(model, omega1, omega2, omega3, omega4),
                  omega3, omega4, c)
    weight = _lorentzian(shifts, centre, model["scan"]["width_cm1"])
    return _spectrum_rows(shifts, omega2, pref,
                          [(av["electric"], av["magnetic"] + av["quadrupole"], weight)])


def euler_grid(order):
    """z-y-z product rule on SO(3): rotations Rz(a) Ry(b) Rz(g) and weights
    summing to 1 (uniform in a and g, Gauss-Legendre in cos b)."""
    na, nb, ng = order
    a = 2.0 * math.pi * np.arange(na) / na
    g = 2.0 * math.pi * np.arange(ng) / ng
    x, w = np.polynomial.legendre.leggauss(nb)

    def rz(angle):
        r = np.zeros((len(angle), 3, 3))
        r[:, 0, 0] = r[:, 1, 1] = np.cos(angle)
        r[:, 0, 1] = -np.sin(angle)
        r[:, 1, 0] = np.sin(angle)
        r[:, 2, 2] = 1.0
        return r

    ry = np.zeros((nb, 3, 3))
    ry[:, 0, 0] = ry[:, 2, 2] = x
    ry[:, 0, 2] = np.sqrt(1.0 - x * x)
    ry[:, 2, 0] = -ry[:, 0, 2]
    ry[:, 1, 1] = 1.0
    rot = np.einsum("aij,bjk,gkl->abgil", rz(a), ry, rz(g)).reshape(-1, 3, 3)
    weights = (np.full((na, 1, 1), 1.0 / na) * (0.5 * w)[None, :, None]
               * np.full((1, 1, ng), 1.0 / ng)).reshape(-1)
    return rot, weights


def haar_rotations(seed: int, n: int) -> np.ndarray:
    """Haar rotations from normalized Gaussian quaternions, drawn exactly as
    the seed commit draws its Monte Carlo batch."""
    q = np.random.default_rng(seed).normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def brackets(rot, t: Tensors, j: int, omega3: float, omega4: float, c: float):
    """The four oracle integrands of set j from lab-frame components only:
    (electric, magnetic, quadrupole, quadrupole at omega4 = omega3)."""
    rx, ry, rz = rot[:, 0], rot[:, 1], rot[:, 2]

    def lab2(tensor, u, v):
        return np.einsum("na,ab,nb->n", u, tensor, v, optimize=True)

    def lab3(u, v, s):
        return np.einsum("na,nb,nc,abc->n", u, v, s, t.a34[j], optimize=True)

    a34_xx = lab2(t.alpha34[j], rx, rx)
    a34_yx = lab2(t.alpha34[j], ry, rx)
    a12_xx2 = lab2(t.alpha12[j], rx, rx) ** 2
    g_sum = lab2(t.gprime34[j], rx, rx) + lab2(t.gprime34[j], ry, ry)
    a_yxz, a_xyz, a_xxz = lab3(ry, rx, rz), lab3(rx, ry, rz), lab3(rx, rx, rz)

    def quadrupole(k3, k4):
        return ((-(k3 / 3.0) * a_yxz + (k4 / 3.0) * a_xyz) * a34_xx
                + ((k3 - k4) / 3.0) * a_xxz * a34_yx) * a12_xx2

    return (0.5 * (a34_xx ** 2 + a34_yx ** 2) * a12_xx2,
            g_sum * a34_xx * a12_xx2 / c,
            quadrupole(omega3 / c, omega4 / c),
            quadrupole(omega3 / c, omega3 / c))


_TERMS = ("electric", "magnetic", "quadrupole", "quadrupole (equal-frequency)")


def _verify_reference(model: dict, mc_seed: int) -> dict:
    modes = model["modes"]
    c = model["constants"]["c"]
    _, _, omega3, omega4 = _mode_frequencies(model, [m["shift_cm1"] for m in modes])
    t = Tensors.from_modes(modes)
    av = averages(t, omega3, omega4, c)
    grids = [euler_grid(QUAD_ORDER), euler_grid([2 * n for n in QUAD_ORDER])]
    haar = haar_rotations(mc_seed, MC_SAMPLES)
    reports = []
    for j, mode in enumerate(modes):
        closed = (av["electric"][j], av["magnetic"][j], av["quadrupole"][j],
                  av["quadrupole_eq"][j])
        (f1, f2) = [brackets(r, t, j, omega3, omega4[j], c) for r, _ in grids]
        fmc = brackets(haar, t, j, omega3, omega4[j], c)
        checks = []
        for k, term in enumerate(_TERMS):
            v1 = float(grids[0][1] @ f1[k])
            v2 = float(grids[1][1] @ f2[k])
            mean = float(fmc[k].mean())
            stderr = float(fmc[k].std(ddof=1) / math.sqrt(MC_SAMPLES))
            checks.append({
                "term": term, "closed": float(closed[k]), "quadrature": v2,
                "quadrature_convergence": abs(v2 - v1),
                "mc_mean": mean, "mc_stderr": stderr,
                "passed_quadrature": bool(_rel_dev(closed[k], v2, 1e-15) <= RTOL_QUAD),
                "passed_mc": bool(abs(closed[k] - mean) <= MC_SIGMA * stderr + 1e-12),
                "scale": float(np.max(np.abs(f2[k]))),
            })
        renditions = []
        for term, closed_value, natural in (
                ("electric", closed[0], av["electric_nat"][j]),
                ("magnetic", closed[1], av["magnetic_nat"][j]),
                ("quadrupole", closed[2], av["quadrupole_nat"][j])):
            dev = _rel_dev(closed_value, natural, 1e-15)
            renditions.append({"term": term, "closed": float(closed_value),
                               "natural": float(natural),
                               "passed": bool(dev <= NATURAL_TOL[term])})
        reports.append({"label": f"mode {mode['name']!r}", "omega3": omega3,
                        "omega4": float(omega4[j]), "c": c,
                        "checks": checks, "renditions": renditions})
    failed = any(not (ch["passed_quadrature"] and ch["passed_mc"])
                 for r in reports for ch in r["checks"])
    return {"exit_code": 1 if failed else 0, "reports": reports}


def expected(workload: Workload):
    """The reference output of one invocation of `workload`."""
    if workload.name == "verify-oracle":
        return _verify_reference(workload.model, int(workload.argv[-1]))
    if workload.name == "delta-many":
        return _delta_reference(workload.model)
    if workload.name == "spectrum-tensor":
        return _spectrum_tensor_reference(workload.model).tolist()
    return _spectrum_states_reference(workload.model).tolist()


def documented_findings(reference: dict) -> list:
    """Where a verify reference departs from the documented findings."""
    problems = []
    if reference["exit_code"] != DOCUMENTED_EXIT_CODE:
        problems.append(f"reference exit code {reference['exit_code']}")
    for r in reference["reports"]:
        checks = tuple((c["term"], c["passed_quadrature"],
                        None if documented[2] is None else c["passed_mc"])
                       for c, documented in zip(r["checks"], DOCUMENTED_CHECKS))
        renditions = tuple((x["term"], x["passed"]) for x in r["renditions"])
        if checks != DOCUMENTED_CHECKS or renditions != DOCUMENTED_RENDITIONS:
            problems.append(f"{r['label']}: findings {checks} {renditions}")
    return problems


# --------------------------------------------------------------------------
# checking program output
# --------------------------------------------------------------------------

def _close(a, b, atol: float = 0.0) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + atol


def _check_verify(ref: dict, out: dict, exit_code: int) -> list:
    problems = []
    if exit_code != ref["exit_code"] or out.get("exit_code") != ref["exit_code"]:
        problems.append(f"exit code {exit_code}/{out.get('exit_code')}, "
                        f"expected {ref['exit_code']}")
    if len(out["reports"]) != len(ref["reports"]):
        return problems + ["report count"]
    for r, o in zip(ref["reports"], out["reports"]):
        where = r["label"]
        if o["label"] != r["label"]:
            problems.append(f"{where}: label {o['label']!r}")
        for key in ("omega3", "omega4", "c"):
            if not _close(o[key], r[key]):
                problems.append(f"{where}: {key} {o[key]!r} != {r[key]!r}")
        if [c["term"] for c in o["checks"]] != list(_TERMS):
            problems.append(f"{where}: check terms {[c['term'] for c in o['checks']]}")
            continue
        for rc, oc in zip(r["checks"], o["checks"]):
            atol = ORACLE_ATOL * rc["scale"]
            for key in ("closed", "quadrature", "quadrature_convergence",
                        "mc_mean", "mc_stderr"):
                if not _close(oc[key], rc[key], atol):
                    problems.append(f"{where} {rc['term']}: {key} {oc[key]!r} "
                                    f"!= {rc[key]!r}")
            for key in ("passed_quadrature", "passed_mc"):
                if oc[key] != rc[key]:
                    problems.append(f"{where} {rc['term']}: {key} {oc[key]}")
        for rr, orr, rc in zip(r["renditions"], o["renditions"], r["checks"]):
            if orr["term"] != rr["term"] or orr["passed"] != rr["passed"]:
                problems.append(f"{where} rendition {orr['term']}: "
                                f"passed {orr['passed']}")
            for key in ("closed", "natural"):
                if not _close(orr[key], rr[key], ORACLE_ATOL * rc["scale"]):
                    problems.append(f"{where} rendition {rr['term']}: {key} "
                                    f"{orr[key]!r} != {rr[key]!r}")
            # checked against the reported values, which match the reference:
            # a deviation between nearly equal numbers is itself round-off
            deviation = float(_rel_dev(orr["closed"], orr["natural"], 1e-15))
            if not _close(orr["deviation"], deviation, RATIO_ATOL):
                problems.append(f"{where} rendition {rr['term']}: deviation "
                                f"{orr['deviation']!r} != {deviation!r}")
    return problems


def _check_delta(ref: dict, out: dict, exit_code: int) -> list:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if len(out["modes"]) != len(ref["modes"]):
        return problems + ["mode count"]
    for r, o in zip(ref["modes"], out["modes"]):
        expected = dict(r)
        # deviations of the reported deltas, which must match the reference:
        # near delta = 0 a deviation amplifies their round-off
        for rendition in ("two_frequency", "single_frequency"):
            expected[rendition + "_deviation"] = float(
                _rel_dev(o["delta"], o["delta_" + rendition]))
        for key, value in expected.items():
            got = o.get(key)
            if isinstance(value, (str, bool)):
                same = got == value
            else:
                atol = 0.0 if key.startswith("rate") else RATIO_ATOL
                same = isinstance(got, float) and _close(got, value, atol)
            if not same:
                problems.append(f"mode {r['mode']}: {key} {got!r} != {value!r}")
    return problems


def _check_spectrum(ref: list, text: str, exit_code: int) -> list:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != ["shift_cm1", "omega2_au", "rate_R", "rate_L", "delta"]:
        return problems + ["CSV header"]
    if len(rows) - 1 != len(ref):
        return problems + [f"{len(rows) - 1} CSV rows, expected {len(ref)}"]
    atols = (0.0, 0.0, 0.0, 0.0, RATIO_ATOL)
    for r, row in zip(ref, rows[1:]):
        got = [float(v) for v in row]
        if not all(_close(g, e, atol) for g, e, atol in zip(got, r, atols)):
            problems.append(f"row at shift {r[0]!r}: {got} != {r}")
    return problems


def check(workload: str, reference, exit_code: int, output_text: str) -> list:
    """Mismatches between one invocation's output and the reference of
    workload `workload`; empty when the output is correct."""
    if workload == "verify-oracle":
        return _check_verify(reference, json.loads(output_text), exit_code)
    if workload == "delta-many":
        return _check_delta(reference, json.loads(output_text), exit_code)
    return _check_spectrum(reference, output_text, exit_code)
