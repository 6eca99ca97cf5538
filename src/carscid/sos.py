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
Only route 1 is accumulated there, one row per tensor entry over the grid
points, with the bits of the element-by-element sum.  Route 2 only feeds the
defect and is never accumulated: the polarizability's is route 1 transposed,
exactly, and every other table's is one matrix product of its outer products
with the reciprocal denominators.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from .errors import MissingMomentError, NonFiniteResult, ResonanceError, RoleError, warn
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
            for index, level in enumerate(ids):
                if level not in known:
                    raise RoleError(f"role {role!r} references unknown level {level!r}")
                if level in ids[:index]:
                    raise RoleError(f"role {role!r} lists level {level!r} twice")

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


def _blocks(sizes) -> list:
    """Consecutive slices of the given sizes, from 0."""
    return [slice(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]


def _add_term(route, parity, first, second, d1, d2, work) -> None:
    """route += parity * (first / d1 + second / d2), with the bits of that
    expression, for a route of one row per entry over the grid of d1 and d2
    and vectors `first` and `second` of one value per entry: the term is
    formed in the leading rows of the two buffers `work`, then added, or
    subtracted for parity -1."""
    column = (-1,) + (1,) * (route.ndim - 1)
    term, other = (w[:len(route)] for w in work)
    np.add(np.divide(first.reshape(column), d1, out=term),
           np.divide(second.reshape(column), d2, out=other), out=term)
    (np.subtract if parity < 0 else np.add)(route, term, out=route)


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
    denominators and dipole pair are looked up once for all tables.

    Route 1 is accumulated intermediate by intermediate, each entry a row over
    the grid points: its term is added for parity +1 and subtracted for
    parity -1, the bits of adding parity times it.  Route 2 is formed only for
    the defect.  For `model.mu` it is route 1's transpose, exactly, since the
    outer products commute.  For any other table it is sum_t S_t / d1 + F_t /
    d2, with S_t and F_t the second and first outer products: one matrix
    product of the products of every intermediate with their reciprocal
    denominators.  Returns one (route-1 tensor, relative route disagreement)
    pair per table, or stacks of both over frequency arrays (G,), each entry
    with its own bits; for alpha the disagreement is the relative asymmetry
    max|a_ij - a_ji| / max|a|.
    """
    grid = np.broadcast_shapes(np.shape(omega_a), np.shape(omega_b))
    intermediates = tuple(intermediates)
    count = len(intermediates)
    sizes = [3 * math.prod(table.shape) for table in tables]
    # route 2 of the polarizability is route 1 transposed; of the others, a product
    sizes2 = [0 if table is model.mu else size for table, size in zip(tables, sizes)]
    # every entry of a table is one row over the grid points, in each route
    rows, rows2 = _blocks(sizes), _blocks(sizes2)
    route1 = np.zeros((sum(sizes),) + grid)
    work = np.empty((2, max(sizes, default=0)) + grid)  # the terms of one table
    # per intermediate i: route 2's second outer products and 1 / d1 in row i,
    # its first outer products and 1 / d2 in row count + i
    products = np.empty((2 * count, sum(sizes2)))
    reciprocals = np.empty((2 * count,) + grid)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        for i, t in enumerate(intermediates):
            d1, d2 = _denominators(model, t, ket, omega_a, omega_b)
            mu_bt = model.mu.get(bra, t)
            mu_tk = model.mu.get(t, ket)
            for table, row, row2 in zip(tables, rows, rows2):
                first = np.multiply.outer(mu_bt, table.get(t, ket)).ravel()
                second = np.multiply.outer(mu_tk, table.get(bra, t)).ravel()
                _add_term(route1[row], table.parity, first, second, d1, d2, work)
                if table is not model.mu:
                    products[i, row2], products[count + i, row2] = second, first
            np.divide(1.0, d1, out=reciprocals[i, ...])
            np.divide(1.0, d2, out=reciprocals[count + i, ...])
        del work  # freed before route 2 and the defects
        # the product in einsum's own loops, not BLAS: the first BLAS call of
        # a process adds its buffers, 0.2-0.5 MB, to the peak memory
        route2 = np.einsum("tk,t...->k...", products, reciprocals)
    if not (np.isfinite(route1).all() and np.isfinite(route2).all()):
        raise NonFiniteResult("sum-over-states tensors overflow the float range")
    defects = []
    for table, size, row, row2 in zip(tables, sizes, rows, rows2):
        if table is model.mu:  # route 1 transposed
            other = route1[row].reshape((3, 3) + grid).swapaxes(0, 1).reshape((size,) + grid)
        else:
            other = route2[row2]
        # one vector per grid point
        defects.append(relative_deviation(np.moveaxis(route1[row], 0, -1),
                                          np.moveaxis(other, 0, -1)))
    return [(np.moveaxis(route1[row], 0, -1).reshape(grid + (3,) + table.shape).copy(), defect)
            for table, row, defect in zip(tables, rows, defects)]  # copies C-ordered


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
    symmetrized here, and the set is handed over as validated: the route-1
    tensors are finite, and A34 is exactly symmetric in (j, n) as q is.  A
    defect above `DEFECT_WARN` warns once per set.
    """
    r = model.roles
    omega1, omega2, omega3, omega4 = beams.omega
    (a34, d34), (g34, gd), (aq34, qd) = sum_over_states(
        model, r.final, r.excited, r.probe_intermediates, omega3, omega4,
        [model.mu, model.m_imag, model.quadrupole])
    [(a12, d12)] = sum_over_states(model, r.excited, r.ground, r.pump_intermediates,
                                   omega1, omega2, [model.mu])
    defects = np.stack(np.broadcast_arrays(d34, d12, gd, qd), axis=-1).reshape(-1, 4)
    for point, j in np.argwhere(defects > DEFECT_WARN):  # set by set
        label = ("alpha34", "alpha12", "gprime34", "a34")[j]
        what = ("asymmetry defect", "symmetrizing anyway") if j < 2 else (
            "route disagreement", "model may be inconsistent")
        warn(f"{label}: {what[0]} {defects[point, j]:.3e} above {DEFECT_WARN:g}; {what[1]}",
             point, 2)

    alpha34, alpha12 = (0.5 * a + 0.5 * np.swapaxes(a, -1, -2)  # halved first: no overflow
                        for a in (a34, a12))
    for t in (alpha34, alpha12, aq34):  # the bits validation gives: on an exactly symmetric
        t *= 0.5                        # x its 0.5 x + 0.5 x^T is 2 (0.5 x), which rounds
        t *= 2.0                        # the odd subnormal entries
    return PropertyTensorSet.exact(alpha34=alpha34, alpha12=alpha12, gprime34=g34, a34=aq34)
