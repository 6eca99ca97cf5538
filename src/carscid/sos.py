"""Sum-over-states construction of the property tensors from level data.

A `MolecularModel` carries level energies and transition-moment tables, all in
atomic units.  Electric-dipole and electric-quadrupole matrix elements are
real; magnetic-dipole elements are purely imaginary and stored through their
real factor m (matrix element = +i m for the pair ordering as stored, hence
-i m for the reversed ordering).  Off resonance the small imaginary shift in
the energy denominators is dropped entirely and replaced by a configurable
resonance guard.

Every tensor comes from one two-route kernel: the dipole factor sits on
either side of the energy denominator, the first route is returned and the
relative disagreement between routes is reported as a defect (for the
polarizability the second route is the transpose, so the defect is its
asymmetry).  For a physically consistent model the routes coincide.  One pass
over the intermediates of a frequency pair builds every tensor of that pair.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from .errors import MissingMomentError, ResonanceError, RoleError
from .scattering import BeamSet, PropertyTensorSet
from .tensors import as_sym_rank2, relative_deviation

DEFAULT_RESONANCE_GUARD = 1e-8


class MomentTable:
    """Directed transition-moment table with Hermitian completion.

    Entries are stored per ordered level pair.  Looking up the reversed pair
    returns the stored value times `parity`: +1 for real symmetric operators
    (electric dipole, electric quadrupole) and -1 for the stored imaginary
    factor of the magnetic dipole.  Storing both orderings inconsistently is
    rejected at construction.
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
        if (b, a) in self._data:
            mirror = self.parity * self._data[(b, a)]
            if not np.allclose(v, mirror, rtol=0.0, atol=1e-12):
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


def _denominators(model: MolecularModel, t: str, ket: str,
                  omega_a: float, omega_b: float) -> Tuple[float, float]:
    gap = model.energy_gap(t, ket)
    d1 = gap - omega_a
    d2 = gap + omega_b
    for d, label in ((d1, f"E({t},{ket}) - omega_a"), (d2, f"E({t},{ket}) + omega_b")):
        if abs(d) < model.resonance_guard:
            raise ResonanceError(
                f"denominator {label} = {d!r} is within the resonance guard "
                f"{model.resonance_guard:g}")
    return d1, d2


def _sos(model: MolecularModel, bra: str, ket: str, intermediates: Iterable[str],
         omega_a: float, omega_b: float, tables):
    """One pass over `intermediates` for every `(MomentTable, sign)` in `tables`.

    Route 1 is sign * sum_t [ mu(bra,t) (x) X(t,ket) / d1 + mu(t,ket) (x) X(bra,t) / d2 ]
    with d1 = E_t,ket - omega_a and d2 = E_t,ket + omega_b.  Route 2 swaps d1
    and d2 and carries the table's Hermitian parity, so it is the exact
    transpose of route 1 for the polarizability.  Each intermediate's
    denominators and dipole pair are looked up once for all tables.  Returns
    one (route-1 tensor, relative route disagreement) pair per table.
    """
    routes = [(np.zeros((3,) + table.shape), np.zeros((3,) + table.shape))
              for table, _ in tables]
    for t in intermediates:
        d1, d2 = _denominators(model, t, ket, omega_a, omega_b)
        mu_bt = model.mu.get(bra, t)
        mu_tk = model.mu.get(t, ket)
        for (table, sign), (route1, route2) in zip(tables, routes):
            first = np.multiply.outer(mu_bt, table.get(t, ket))
            second = np.multiply.outer(mu_tk, table.get(bra, t))
            route1 += sign * (first / d1 + second / d2)
            route2 += sign * table.parity * (second / d1 + first / d2)
    return [(route1, relative_deviation(route1, route2)) for route1, route2 in routes]


def polarizability_sos(model: MolecularModel, bra: str, ket: str,
                       intermediates: Iterable[str],
                       omega_a: float, omega_b: float):
    """Electric-dipole polarizability between `bra` and `ket`.

    alpha_ij = sum_t [ mu(bra,t)_i mu(t,ket)_j / (E_t,ket - omega_a)
                     + mu(bra,t)_j mu(t,ket)_i / (E_t,ket + omega_b) ].

    Returns the raw (generally slightly asymmetric) tensor together with its
    relative asymmetry defect max|a_ij - a_ji| / max|a|.
    """
    return _sos(model, bra, ket, intermediates, omega_a, omega_b, [(model.mu, 1)])[0]


def gyration_sos(model: MolecularModel, bra: str, ket: str,
                 intermediates: Iterable[str],
                 omega_a: float, omega_b: float):
    """Electric-dipole--magnetic-dipole optical activity tensor G'.

    With magnetic matrix elements +i m, the first route gives the real tensor

        G'_ij = - sum_t [ mu(bra,t)_i m(t,ket)_j / (E_t,ket - omega_a)
                        + m(bra,t)_j mu(t,ket)_i / (E_t,ket + omega_b) ],

    and the second route (dipole and magnetic factors exchanged across the
    denominators, transposed back) must coincide with it for a consistent
    model.  Returns (route-1 tensor, relative route disagreement).
    """
    return _sos(model, bra, ket, intermediates, omega_a, omega_b, [(model.m_imag, -1)])[0]


def quadrupole_activity_sos(model: MolecularModel, bra: str, ket: str,
                            intermediates: Iterable[str],
                            omega_a: float, omega_b: float):
    """Electric-dipole--electric-quadrupole optical activity tensor A_{i,jn}.

    A_{i,jn} = sum_t [ mu(bra,t)_i q(t,ket)_jn / (E_t,ket - omega_a)
                     + q(bra,t)_jn mu(t,ket)_i / (E_t,ket + omega_b) ];

    symmetry in (j, n) is inherited from the quadrupole tables.  The exchanged
    route is evaluated alongside and its disagreement reported.
    """
    return _sos(model, bra, ket, intermediates, omega_a, omega_b, [(model.quadrupole, 1)])[0]


#: Above this relative defect the symmetrized/averaged result is suspect.
DEFECT_WARN = 1e-6


def build_property_tensors(model: MolecularModel, beams: BeamSet,
                           pump_stokes_optical: bool = False) -> PropertyTensorSet:
    """Assemble the full property-tensor set of one vibrational transition at
    the frequencies of `beams`.

    One sum-over-states pass per frequency pair: the probe/anti-Stokes pass
    connects (final, excited) through the probe intermediates at
    (omega3, omega4) and gives alpha34, G'34 and A34; the pump/Stokes pass
    connects (excited, ground) through the pump intermediates at
    (omega1, omega2) and gives alpha12, plus G'12 and A12 only on request
    since the collinear x-polarized configuration never uses them.  The
    polarizabilities are symmetrized here; `PropertyTensorSet` validates the
    result.
    """
    r = model.roles
    omega1, omega2, omega3, omega4 = beams.omega.tolist()
    optical = [(model.m_imag, -1), (model.quadrupole, 1)]
    (a34, d34), (g34, gd), (aq34, qd) = _sos(
        model, r.final, r.excited, r.probe_intermediates, omega3, omega4,
        [(model.mu, 1), *optical])
    (a12, d12), *pump_optical = _sos(
        model, r.excited, r.ground, r.pump_intermediates, omega1, omega2,
        [(model.mu, 1), *(optical if pump_stokes_optical else ())])
    for label, defect in (("alpha34", d34), ("alpha12", d12)):
        if defect > DEFECT_WARN:
            warnings.warn(f"{label}: asymmetry defect {defect:.3e} above "
                          f"{DEFECT_WARN:g}; symmetrizing anyway", stacklevel=2)
    for label, defect in (("gprime34", gd), ("a34", qd)):
        if defect > DEFECT_WARN:
            warnings.warn(f"{label}: route disagreement {defect:.3e} above "
                          f"{DEFECT_WARN:g}; model may be inconsistent", stacklevel=2)
    g12, aq12 = [tensor for tensor, _ in pump_optical] or (None, None)

    return PropertyTensorSet(
        alpha34=0.5 * (a34 + a34.T),
        alpha12=0.5 * (a12 + a12.T),
        gprime34=g34,
        a34=aq34,
        gprime12=g12,
        a12=aq12,
    )
