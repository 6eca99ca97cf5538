"""Sum-over-states construction of the property tensors from level data.

A `MolecularModel` carries level energies and transition-moment tables, all in
atomic units.  Electric-dipole and electric-quadrupole matrix elements are
real; magnetic-dipole elements are purely imaginary and stored through their
real factor m (matrix element = +i m for the pair ordering as stored, hence
-i m for the reversed ordering).  Off resonance the small imaginary shift in
the energy denominators is dropped entirely and replaced by a configurable
resonance guard.

Every tensor comes from one two-route kernel, `sum_over_states`, which takes
plain moment tables: the dipole factor sits on either side of the energy
denominator, the first route is returned, signed by the table's Hermitian
parity (+1 for mu and Q, -1 for the magnetic factor, so G' = -Im(mu . i m)),
and the relative disagreement between routes is reported as a defect (for the
polarizability the second route is the transpose, so the defect is its
asymmetry).  For a physically consistent model the routes coincide.  One pass
over the intermediates builds every tensor of a frequency pair, or of a grid.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from .errors import MissingMomentError, NonFiniteResult, ResonanceError, RoleError
from .scattering import BeamSet, PropertyTensorSet
from .tensors import as_sym_rank2, relative_deviation

DEFAULT_RESONANCE_GUARD = 1e-8


class MomentTable:
    """Directed transition-moment table with Hermitian completion.

    Entries are stored per ordered level pair.  Looking up the reversed pair
    returns the stored value times `parity`: +1 for real symmetric operators
    (electric dipole, electric quadrupole) and -1 for the stored imaginary
    factor of the magnetic dipole.  Storing both orderings inconsistently is
    rejected at construction, and so is a diagonal entry that differs from
    parity times itself (for parity -1, any nonzero one).
    """

    def __init__(self, kind: str, shape: Tuple[int, ...], parity: int):
        self.kind = kind
        self.shape = shape
        self.parity = parity
        self._data: Dict[Tuple[str, str], np.ndarray] = {}

    def set(self, a: str, b: str, value) -> None:
        v = np.asarray(value, dtype=float)
        if v.shape != self.shape:
            raise ValueError(f"{self.kind} moment for pair ({a}, {b}): expected "
                             f"shape {self.shape}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{self.kind} moment for pair ({a}, {b}) must be finite")
        if self.shape == (3, 3):
            v = as_sym_rank2(v, f"{self.kind} moment ({a}, {b})")
        mirror = v if a == b else self._data.get((b, a))  # a diagonal entry is its own mirror
        if mirror is not None:
            # on Python floats: a difference past the float range is inf, no warning
            mirror = (self.parity * mirror).ravel().tolist()
            if max(abs(x - y) for x, y in zip(v.ravel().tolist(), mirror)) > 1e-12:
                raise ValueError(
                    f"{self.kind} moment stored for both ({a}, {b}) and ({b}, {a}) "
                    "with inconsistent values")
        v = v.copy()
        v.setflags(write=False)
        self._data[(a, b)] = v

    def get(self, a: str, b: str) -> np.ndarray:
        if (a, b) in self._data:
            return self._data[(a, b)]
        if (b, a) in self._data:
            return self.parity * self._data[(b, a)]
        raise MissingMomentError(
            f"no {self.kind} moment stored for level pair ({a}, {b})")

    def pairs(self):
        return sorted(self._data)


@dataclass(frozen=True)
class Roles:
    """Level-role assignment: which levels play ground, excited, final, and
    which intermediate sets the two frequency pairs sum over."""

    ground: str
    excited: str
    final: str
    pump_intermediates: Tuple[str, ...]
    probe_intermediates: Tuple[str, ...]


@dataclass
class MolecularModel:
    energies: Dict[str, float]
    mu: MomentTable
    m_imag: MomentTable
    quadrupole: MomentTable
    roles: Roles
    resonance_guard: float = DEFAULT_RESONANCE_GUARD

    def __post_init__(self):
        for name, energy in self.energies.items():
            if not np.isfinite(energy):
                raise ValueError(f"level {name!r} has non-finite energy")
        known = set(self.energies)
        for role, ids in (("ground", [self.roles.ground]),
                          ("excited", [self.roles.excited]),
                          ("final", [self.roles.final]),
                          ("pump_intermediates", self.roles.pump_intermediates),
                          ("probe_intermediates", self.roles.probe_intermediates)):
            for level in ids:
                if level not in known:
                    raise RoleError(f"role {role!r} references unknown level {level!r}")

    def energy_gap(self, upper: str, lower: str) -> float:
        return self.energies[upper] - self.energies[lower]


def _denominators(model: MolecularModel, t: str, ket: str, omega_a, omega_b):
    gap = model.energy_gap(t, ket)
    d1 = gap - omega_a
    d2 = gap + omega_b
    for d, label in ((d1, f"E({t},{ket}) - omega_a"), (d2, f"E({t},{ket}) + omega_b")):
        near = np.ravel(np.abs(d) < model.resonance_guard)
        if near.any():
            raise ResonanceError(
                f"denominator {label} = {np.ravel(d)[np.argmax(near)].item()!r} is "
                f"within the resonance guard {model.resonance_guard:g}")
    return d1, d2


def sum_over_states(model: MolecularModel, bra: str, ket: str,
                    intermediates: Iterable[str], omega_a, omega_b, tables):
    """One pass over `intermediates` for every `MomentTable` X in `tables`.

    Route 1 is parity * sum_t [ mu(bra,t) (x) X(t,ket) / d1 + mu(t,ket) (x) X(bra,t) / d2 ]
    with d1 = E_t,ket - omega_a, d2 = E_t,ket + omega_b and the table's
    Hermitian `parity` as its sign.  Route 2 swaps d1 and d2 and carries the
    parity twice, a factor 1, so it is the exact transpose of route 1 for the
    polarizability.  On the tables of a `MolecularModel` route 1 reads

        alpha_ij = sum_t [ mu(bra,t)_i mu(t,ket)_j / d1 + mu(bra,t)_j mu(t,ket)_i / d2 ]
        G'_ij    = - sum_t [ mu(bra,t)_i m(t,ket)_j / d1 + m(bra,t)_j mu(t,ket)_i / d2 ]
        A_i,jn   = sum_t [ mu(bra,t)_i q(t,ket)_jn / d1 + q(bra,t)_jn mu(t,ket)_i / d2 ]

    for `mu`, `m_imag` (elements +i m, parity -1: G' = -Im(mu . i m)) and
    `quadrupole` (A inherits the (j, n) symmetry of q).  Each intermediate's
    denominators and dipole pair are looked up once for all tables.  Returns
    one (route-1 tensor, relative route disagreement) pair per table, or
    stacks of both over frequency arrays (G,), each entry with its own bits;
    for alpha the disagreement is the relative asymmetry max|a_ij - a_ji| / max|a|.
    """
    grid = np.broadcast_shapes(np.shape(omega_a), np.shape(omega_b))
    routes = [(np.zeros(grid + (3,) + table.shape), np.zeros(grid + (3,) + table.shape))
              for table in tables]
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        for t in intermediates:
            d1, d2 = _denominators(model, t, ket, omega_a, omega_b)
            mu_bt = model.mu.get(bra, t)
            mu_tk = model.mu.get(t, ket)
            for table, (route1, route2) in zip(tables, routes):
                first = np.multiply.outer(mu_bt, table.get(t, ket))
                second = np.multiply.outer(mu_tk, table.get(bra, t))
                e1, e2 = (np.reshape(d, np.shape(d) + (1,) * first.ndim) for d in (d1, d2))
                route1 += table.parity * (first / e1 + second / e2)
                route2 += second / e1 + first / e2
    if not all(np.isfinite(route).all() for pair in routes for route in pair):
        raise NonFiniteResult("sum-over-states tensors overflow the float range")
    # one vector per grid point, its size explicit so that an empty grid reshapes too
    return [(r1, relative_deviation(*(r.reshape(grid + (3 * math.prod(table.shape),))
                                      for r in (r1, r2))))
            for table, (r1, r2) in zip(tables, routes)]


#: Above this relative defect the symmetrized/averaged result is suspect.
DEFECT_WARN = 1e-6


def build_property_tensors(model: MolecularModel, beams: BeamSet) -> PropertyTensorSet:
    """Assemble the property-tensor set of one vibrational transition at the
    frequencies of `beams`, or the stack of G sets for (4, G) frequencies.

    One sum-over-states pass per frequency pair: the probe/anti-Stokes pass
    connects (final, excited) through the probe intermediates at
    (omega3, omega4) and gives alpha34, G'34 and A34; the pump/Stokes pass
    connects (excited, ground) through the pump intermediates at
    (omega1, omega2) and gives alpha12, the one pump/Stokes tensor the
    collinear x-polarized configuration uses.  The polarizabilities are
    symmetrized here; `PropertyTensorSet` validates the result.  A defect
    above `DEFECT_WARN` warns once per set.
    """
    r = model.roles
    omega1, omega2, omega3, omega4 = beams.omega
    (a34, d34), (g34, gd), (aq34, qd) = sum_over_states(
        model, r.final, r.excited, r.probe_intermediates, omega3, omega4,
        [model.mu, model.m_imag, model.quadrupole])
    [(a12, d12)] = sum_over_states(model, r.excited, r.ground, r.pump_intermediates,
                                   omega1, omega2, [model.mu])
    defects = np.stack(np.broadcast_arrays(d34, d12, gd, qd), axis=-1)
    for *point, j in np.argwhere(defects > DEFECT_WARN):  # set by set
        label = ("alpha34", "alpha12", "gprime34", "a34")[j]
        what = ("asymmetry defect", "symmetrizing anyway") if j < 2 else (
            "route disagreement", "model may be inconsistent")
        warnings.warn(f"{label}: {what[0]} {defects[(*point, j)]:.3e} above "
                      f"{DEFECT_WARN:g}; {what[1]}", stacklevel=2)

    return PropertyTensorSet(
        alpha34=0.5 * a34 + 0.5 * np.swapaxes(a34, -1, -2),  # halved first: no overflow
        alpha12=0.5 * a12 + 0.5 * np.swapaxes(a12, -1, -2),
        gprime34=g34,
        a34=aq34,
    )
