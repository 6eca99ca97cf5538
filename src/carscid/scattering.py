"""Fixed-orientation scattering strength |M|^2 for four-wave mixing beams.

`m_squared_general` evaluates the full nine-bracket expression for arbitrary
beam geometries and complex polarizations: the pure electric-dipole term plus
the eight optical-activity corrections (four magnetic-dipole brackets scaled
by 1/c, four electric-quadrupole brackets scaled by wavenumber/3), in one pass
over the two frequency pairs.  All molecular tensors are real off resonance,
so only the polarization products are complex.  All three evaluators take a
stack of tensor sets and (4, G) frequency sets and give one value per set.

`m_squared_vvvr` / `m_squared_vvvl` are the collinear specialization: three
x-polarized inputs along z with right/left circular analysis of the scattered
beam.  Circular analyzers are normalized, e_R = (x - i y)/sqrt(2); that
normalization is the one consistent with the 1/2 weights of the specialized
expression and is pinned by the generic/specialized equality test.
`check_collinear` holds that geometry (wavevectors, the three input
polarizations and a circular analyzer): both evaluators check it with their own
analyzer, `cid.signal_for_tensors` with either, and refuse any other beam set.
Their brackets read only the seven components of `lab_components`, the same
kernel the SO(3) oracles evaluate on the rows of every rotation.  The kernel
works component first: the lab axes are read as (3, n) planes of unit-stride
rows, each tensor contraction is one BLAS product and each three-term dot is
written out in einsum's order, so its components keep the bits of the
row-major einsum formulation it replaced.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FrequencyError, warn
from .invariants import IsotropicInvariantSet, isotropic_invariants
from .tensors import (
    _readonly,
    as_rank2,
    as_rank3_sym_last,
    as_sym_rank2,
    rotate_rank2,
    rotate_rank3,
)

#: Speed of light in atomic units (hartree based); overridable per context.
C_AU = 137.035999

#: Vacuum permittivity in atomic units, 4 pi eps0 = 1.
EPS0 = 1.0 / (4.0 * math.pi)

#: Energy-conservation tolerance for omega4 = omega1 - omega2 + omega3.
FREQUENCY_TOL = 1e-12

#: Tolerance on the squared norm sum conj(v) v of beam directions and polarizations.
UNIT_TOL = 1e-12


def positive_frequency(value: float, name: str) -> float:
    """`value` if it is a positive, finite angular frequency, else `FrequencyError`."""
    if not 0.0 < value < np.inf:
        raise FrequencyError(f"{name} = {value!r} must be positive and finite")
    return value


E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])
E_Z = np.array([0.0, 0.0, 1.0])
POL_RIGHT = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)
POL_LEFT = np.array([1.0, +1.0j, 0.0]) / math.sqrt(2.0)
#: The circular analyzers of the collinear geometry: {analyzer: (name, e4)}.
_ANALYZERS = {"R": ("POL_RIGHT", POL_RIGHT), "L": ("POL_LEFT", POL_LEFT)}


@dataclass(frozen=True)
class PhysicalContext:
    """Speed of light and prefactor switch in atomic units: hbar = 1, 4 pi eps0 = 1
    (`EPS0`), and the volume V and state densities rho_s, rho_f are fixed at 1.

    With ``normalize=True`` every overall prefactor is forced to 1, which is
    the natural setting for the circular intensity difference where all
    prefactors cancel.
    """

    c: float = C_AU
    normalize: bool = False

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"PhysicalContext.c = {self.c!r} must be positive and finite")

    def m2_prefactor(self, beams: "BeamSet"):
        """pi^2 (c / 2 eps0)^4 k1 k2 k3 k4 n1 n3 (n2+1)(n4+1), one per set, or 1;
        an overflow gives inf or nan, never a warning."""
        if self.normalize:
            return 1.0
        k, n = beams.wavenumbers(self.c), beams.photons
        with np.errstate(over="ignore", invalid="ignore"):
            return (math.pi ** 2 * np.float64(self.c / (2.0 * EPS0)) ** 4
                    * k[0] * k[1] * k[2] * k[3]
                    * n[0] * n[2] * (n[1] + 1.0) * (n[3] + 1.0))

    def rate_prefactor(self) -> float:
        """Golden-rule factor 2 pi rho_f / hbar = 2 pi, or 1 when normalized."""
        return 1.0 if self.normalize else 2.0 * math.pi


def _unit_rows(value, dtype, name: str) -> np.ndarray:
    """`value` as four finite rows of three components, each with
    |sum conj(v) v - 1| <= UNIT_TOL, else `ValueError` naming the row."""
    a = np.array(value, dtype=dtype)
    if a.shape != (4, 3):
        raise ValueError(f"{name}[0..3]: expected four 3-vectors, got shape {a.shape}")
    norms = np.einsum("ja,ja->j", a.conj(), a).real
    bad = ~(np.abs(norms - 1.0) <= UNIT_TOL)  # true for nan and inf entries too
    if bad.any():
        j = int(np.argmax(bad))
        if not np.all(np.isfinite(a[j])):
            raise ValueError(f"{name}[{j}]: entries must be finite")
        raise ValueError(f"{name}[{j}]: squared norm {float(norms[j])!r} "
                         f"is not 1 within {UNIT_TOL:g}")
    return a


@dataclass(frozen=True, eq=False)
class BeamSet:
    """Four beams: angular frequencies, unit wavevectors, polarizations, photons.

    Beam order is (pump, Stokes, probe, anti-Stokes); `omega` is (4,) or (4, G)
    for G sets.  Energy conservation omega4 = omega1 - omega2 + omega3 is enforced.
    """

    omega: np.ndarray
    khat: np.ndarray
    pol: np.ndarray
    photons: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape[:1] != (4,) or omega.ndim > 2:
            raise ValueError("BeamSet.omega: four angular frequencies required")
        sets = omega.reshape(4, -1)
        with np.errstate(over="ignore", invalid="ignore"):  # as on floats
            target = sets[0] - sets[1] + sets[2]
            bad = ~np.all((sets > 0.0) & (sets < np.inf), axis=0) | (
                abs(sets[3] - target) > FREQUENCY_TOL * np.maximum(1.0, abs(target)))
        if bad.any():  # the first failing set, positivity before conservation
            g = np.argmax(bad)
            for j, value in enumerate(sets[:, g].tolist()):
                positive_frequency(value, f"BeamSet.omega[{j}]")
            raise ValueError(f"BeamSet: omega4={sets[3, g].item()!r} "
                             f"violates omega1-omega2+omega3={target[g].item()!r}")
        khat = _unit_rows(self.khat, float, "khat")
        pol = _unit_rows(self.pol, complex, "pol")
        photons = np.asarray(self.photons, dtype=float)
        if photons.shape != (4,) or np.any(photons < 0.0):
            raise ValueError("BeamSet.photons: four nonnegative photon numbers required")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "khat", khat)
        object.__setattr__(self, "pol", pol)
        object.__setattr__(self, "photons", photons)

    @classmethod
    def collinear_vvv(cls, omega1: float, omega2: float, omega3: float,
                      omega4: Optional[float] = None, analyzer: str = "R",
                      photons=(1.0, 1.0, 1.0, 1.0)) -> "BeamSet":
        """All four beams along z, three x-polarized inputs, circular analyzer."""
        if omega4 is None:
            omega4 = omega1 - omega2 + omega3
        if analyzer not in _ANALYZERS:
            raise ValueError(f"analyzer must be 'R' or 'L', got {analyzer!r}")
        return cls(
            omega=np.array([omega1, omega2, omega3, omega4]),
            khat=np.tile(E_Z, (4, 1)),
            pol=np.array([E_X, E_X, E_X, _ANALYZERS[analyzer][1]], dtype=complex),
            photons=np.asarray(photons, dtype=float),
        )

    def wavenumbers(self, c: float) -> np.ndarray:
        return self.omega / c


@dataclass(frozen=True, eq=False)
class PropertyTensorSet:
    """One molecule or mode's property tensors for the two frequency pairs.

    The probe/anti-Stokes pair carries the full set (alpha34, gprime34, a34);
    the pump/Stokes optical-activity tensors are optional because the
    collinear x-polarized configuration never probes them.  Tensors may share
    leading axes, a stack of sets.  The set owns its isotropic invariants
    (`invariants`), so every average of one set contracts its tensors once.
    Sets compare by identity, as their arrays have no single truth value.
    """

    alpha34: np.ndarray
    alpha12: np.ndarray
    gprime34: np.ndarray
    a34: np.ndarray
    gprime12: Optional[np.ndarray] = None
    a12: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha34", as_sym_rank2(self.alpha34, "alpha34"))
        object.__setattr__(self, "alpha12", as_sym_rank2(self.alpha12, "alpha12"))
        object.__setattr__(self, "gprime34", as_rank2(self.gprime34, "gprime34"))
        object.__setattr__(self, "a34", as_rank3_sym_last(self.a34, "a34"))
        if self.gprime12 is not None:
            object.__setattr__(self, "gprime12", as_rank2(self.gprime12, "gprime12"))
        if self.a12 is not None:
            object.__setattr__(self, "a12", as_rank3_sym_last(self.a12, "a12"))
        stack = self.alpha34.shape[:-2]
        for name, rank in (("alpha12", 2), ("gprime34", 2), ("a34", 3), ("gprime12", 2),
                           ("a12", 3)):
            value = getattr(self, name)
            if value is not None and value.shape[:-rank] != stack:
                raise ValueError(f"{name}: stack shape {value.shape[:-rank]} differs "
                                 f"from alpha34's {stack}")

    def __getitem__(self, index) -> "PropertyTensorSet":
        """Set `index` of a stack through `exact`: views of the validated read-only
        arrays for a contiguous index, else read-only C-ordered copies."""
        values = {name: getattr(self, name) for name in self.__dataclass_fields__}
        return self.exact(**{name: v[index] for name, v in values.items() if v is not None})

    @classmethod
    def exact(cls, **fields) -> "PropertyTensorSet":
        """A set of finite tensors that have their index symmetries exactly, as a
        builder makes them, handed over read-only and C-ordered with their bits,
        not validated again."""
        exact = object.__new__(cls)
        for name in cls.__dataclass_fields__:
            value = fields.get(name)
            object.__setattr__(exact, name, None if value is None else _readonly(value))
        return exact

    @classmethod
    def joined(cls, stacks) -> "PropertyTensorSet":
        """One stack of the validated `stacks` in order, a single set counting as a
        stack of one, not validated again; an optional field that any of them lacks
        is absent."""
        single = [stack.alpha34.ndim == 2 for stack in stacks]
        fields = {}
        for name in cls.__dataclass_fields__:
            values = [getattr(stack, name) for stack in stacks]
            if all(v is not None for v in values):
                fields[name] = np.concatenate(
                    [v[None] if one else v for v, one in zip(values, single)])
        return cls.exact(**fields)

    @functools.cached_property
    def invariants(self) -> IsotropicInvariantSet:
        """The isotropic invariants, computed on first access and kept: the set
        is frozen and its validated arrays are read-only."""
        return isotropic_invariants(self)

    def enantiomer(self) -> "PropertyTensorSet":
        """Mirror-image tensors: alpha unchanged, G' and A negated."""
        return PropertyTensorSet(
            alpha34=self.alpha34, alpha12=self.alpha12,
            gprime34=-self.gprime34, a34=-self.a34,
            gprime12=None if self.gprime12 is None else -self.gprime12,
            a12=None if self.a12 is None else -self.a12,
        )

    def rotated(self, rotation) -> "PropertyTensorSet":
        return PropertyTensorSet(
            alpha34=rotate_rank2(rotation, self.alpha34),
            alpha12=rotate_rank2(rotation, self.alpha12),
            gprime34=rotate_rank2(rotation, self.gprime34),
            a34=rotate_rank3(rotation, self.a34),
            gprime12=None if self.gprime12 is None else rotate_rank2(rotation, self.gprime12),
            a12=None if self.a12 is None else rotate_rank3(rotation, self.a12),
        )


def _planes(v: np.ndarray) -> np.ndarray:
    """An axis batch (..., 3) as planes (3, n), copied only when a row is not
    unit-stride."""
    v = v.reshape(-1, 3).T
    return v if v.strides[-1] == v.itemsize else np.ascontiguousarray(v)


def lab_components(tensors: PropertyTensorSet, x, y, z):
    """The seven lab-frame components that the collinear brackets read:
    alpha34_xx, alpha34_yx, alpha12_xx, G'34_xx + G'34_yy, A34_yxz, A34_xyz
    and A34_xxz.

    The lab axes `x`, `y`, `z` are given in the molecule frame, as unit
    vectors (3,) or batches (..., 3) such as the rows of rotation matrices,
    so that T'_yx = y_a T_ab x_b.  With E_X, E_Y, E_Z every product is with
    an exact 0 or 1, and the components are the tensor entries bit for bit.
    A stack of M sets takes axes (3,) and gives one component per set (M,).

    Evaluated component first: each axis batch is read as planes (3, n) of
    unit-stride rows, copied only when its rows are not unit-stride (the
    oracles' batches are views of (3, 3, N) arrays, so theirs never are).
    Each tensor contraction is one BLAS product (`A @ x`, and
    `a34.reshape(9, 3) @ z` for A34, whose three-term entries BLAS sums in the
    same order in either layout), and each three-term dot is written out in
    einsum's order, (u0 v0 + u2 v2) + u1 v1, into one of its two temporaries.
    So the components keep the bits of the row-major einsum formulation at
    every batch size (the tests keep it as the reference), reshaped back to
    the stack shape then the batch shape.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    batch = x.shape[:-1]
    x, y, z = (_planes(v) for v in (x, y, z))

    def dot(u, v):
        out = u[..., 0, :] * v[..., 0, :]
        tmp = u[..., 2, :] * v[..., 2, :]
        out += tmp
        out += np.multiply(u[..., 1, :], v[..., 1, :], out=tmp)
        return out

    alpha34_x = tensors.alpha34 @ x
    g = tensors.gprime34
    # A34 contracted with z once; the A components are bilinear forms of it
    a34 = tensors.a34
    az = (a34.reshape(a34.shape[:-3] + (9, 3)) @ z).reshape(a34.shape[:-1] + (-1,))
    az_x, az_y = dot(az, x), dot(az, y)
    g_sum = dot(x, g @ x)
    g_sum += dot(y, g @ y)
    components = (dot(x, alpha34_x), dot(y, alpha34_x), dot(x, tensors.alpha12 @ x),
                  g_sum, dot(y, az_x), dot(x, az_y), dot(x, az_x))
    return tuple(c.reshape(c.shape[:-1] + batch)[()] for c in components)


def vvvr_bracket_terms(a34_xx, a34_yx, a12_xx, g_sum, a_yxz, a_xyz, a_xxz,
                       omega3: float, omega4: float, c: float):
    """Electric, magnetic, and quadrupole brackets of the collinear configuration.

    Takes the seven lab-frame components of `lab_components`, as scalars or
    arrays over any batch of orientations.  The brackets are returned
    separately so callers can average or sign-flip them: the right-analyzer
    strength is electric + magnetic + quadrupole, the left-analyzer strength
    electric - magnetic - quadrupole (both before the overall prefactor).
    The three are formed in place, each operation in the order of

        electric = 0.5 * (a34_xx**2 + a34_yx**2) * a12_xx**2
        magnetic = g_sum * a34_xx * a12_xx**2 / c
        quadrupole = ((-(k3/3) a_yxz + (k4/3) a_xyz) a34_xx
                      + ((k3 - k4)/3) a_xxz a34_yx) * a12_xx**2

    with k = omega/c; the quadrupole takes the broadcast shape of the
    components and both frequencies.
    """
    k3 = omega3 / c
    k4 = omega4 / c
    a12_xx2 = a12_xx ** 2

    electric = a34_xx ** 2
    electric += a34_yx ** 2
    electric *= 0.5
    electric *= a12_xx2
    magnetic = g_sum * a34_xx
    magnetic *= a12_xx2
    magnetic /= c
    cross = ((k3 - k4) / 3.0) * a_xxz
    cross *= a34_yx
    quadrupole = np.multiply(-(k3 / 3.0), a_yxz, out=np.empty_like(cross))
    quadrupole += (k4 / 3.0) * a_xyz
    quadrupole *= a34_xx
    quadrupole += cross
    quadrupole *= a12_xx2
    return electric, magnetic, quadrupole[()]


def check_collinear(beams: BeamSet, analyzers: str = "RL") -> None:
    """The collinear geometry: every khat E_Z, pol rows 0-2 E_X and row 3 the
    circular analyzer of one of `analyzers` ("R", "L"), each within 1e-12, else
    `ValueError` naming the first row that fails."""
    e4 = [_ANALYZERS[analyzer] for analyzer in analyzers]
    for name, want in (("khat", [[("E_Z", E_Z)]] * 4), ("pol", [[("E_X", E_X)]] * 3 + [e4])):
        for j, allowed in enumerate(want):
            if not any(np.all(np.abs(getattr(beams, name)[j] - vector) <= 1e-12)
                       for _, vector in allowed):
                raise ValueError(f"{name}[{j}]: the collinear evaluator needs "
                                 f"{' or '.join(label for label, _ in allowed)} within 1e-12")


def _m_squared_collinear(tensors: PropertyTensorSet, beams: BeamSet,
                         ctx: PhysicalContext, sign: int):
    """The collinear |M|^2 with analyzer sign +1 (R) or -1 (L), a float or one per
    (4, G) frequency set, after `check_collinear` with that analyzer."""
    check_collinear(beams, "R" if sign > 0 else "L")
    electric, magnetic, quadrupole = vvvr_bracket_terms(
        *lab_components(tensors, E_X, E_Y, E_Z),
        omega3=beams.omega[2], omega4=beams.omega[3], c=ctx.c)
    value = ctx.m2_prefactor(beams) * (electric + sign * (magnetic + quadrupole))
    return value if np.ndim(value) else float(value)


def m_squared_vvvr(tensors: PropertyTensorSet, beams: BeamSet,
                   ctx: PhysicalContext) -> float:
    """|M|^2 for three x-polarized collinear inputs, right-circular analyzer."""
    return _m_squared_collinear(tensors, beams, ctx, +1)


def m_squared_vvvl(tensors: PropertyTensorSet, beams: BeamSet,
                   ctx: PhysicalContext) -> float:
    """|M|^2 for three x-polarized collinear inputs, left-circular analyzer."""
    return _m_squared_collinear(tensors, beams, ctx, -1)


def m_squared_general(tensors: PropertyTensorSet, beams: BeamSet,
                      ctx: PhysicalContext) -> float:
    """Full |M|^2 for arbitrary beams: electric term plus eight chiral brackets.

    One pass over the frequency pairs (pump, Stokes) with alpha12, G'12, A12
    and (probe, anti-Stokes) with alpha34, G'34, A34.  With u the polarization
    of the emitted beam j and v = conj(e_i) of the absorbed beam i, a pair has
    amplitude s = u.alpha.v, magnetic brackets G'(v, k_j x u) - G'(u, k_i x v)
    and quadrupole brackets k_i A(u, v, k_i) - k_j A(v, u, k_j), unit k in the
    arguments.  The electric term is |s12 s34|^2; each pair's brackets X enter
    as |s_other|^2 Im(X conj(s_own)).  A stack of sets, such as
    `tensors.rotated(R_batch)`, and (4, G) frequencies give one value per set,
    as in `m_squared_vvvr`; one set gives a float.  Missing pump/Stokes
    optical-activity tensors are treated as zero with a warning.
    """
    if tensors.gprime12 is None or tensors.a12 is None:
        warn("pump/Stokes optical-activity tensors missing; treated as zero", 0, 2)
    g12 = np.zeros((3, 3)) if tensors.gprime12 is None else tensors.gprime12
    a12 = np.zeros((3, 3, 3)) if tensors.a12 is None else tensors.a12
    k = beams.wavenumbers(ctx.c)
    pairs = ((0, 1, tensors.alpha12, g12, a12),
             (2, 3, tensors.alpha34, tensors.gprime34, tensors.a34))
    # per pair: u and v, and the cross products k_j x u and k_i x v, all four in
    # one np.cross call (four calls were most of the time of a one-set call)
    us, vs = beams.pol[[1, 3]], beams.pol[[0, 2]].conj()
    kxus, kxvs = np.cross(beams.khat[[[1, 3], [0, 2]]], np.stack((us, vs)))
    amplitude, brackets = [], []
    for (i, j, alpha, g, a), u, v, kxu, kxv in zip(pairs, us, vs, kxus, kxvs):
        ki, kj = beams.khat[i], beams.khat[j]
        amplitude.append(np.einsum("...ab,a,b->...", alpha, u, v))
        magnetic = np.einsum("...ab,ab->...", g, np.outer(v, kxu) - np.outer(u, kxv))
        quadrupole = (k[i] * np.einsum("...abc,a,b,c->...", a, u, v, ki)
                      - k[j] * np.einsum("...abc,a,b,c->...", a, v, u, kj))
        brackets.append((2.0 / ctx.c) * magnetic + (2.0 / 3.0) * quadrupole)
    (s12, s34), (x12, x34) = amplitude, brackets
    n12, n34 = abs(s12) ** 2, abs(s34) ** 2
    value = ctx.m2_prefactor(beams) * (
        n12 * n34 + n34 * (x12 * s12.conj()).imag + n12 * (x34 * s34.conj()).imag)
    return value if np.ndim(value) else float(value)


def random_property_tensors(rng: np.random.Generator) -> PropertyTensorSet:
    """Seeded random chiral tensor set for the built-in verification fixtures:
    standard-normal entries, no pump/Stokes optical-activity tensors."""
    def sym2():
        m = rng.normal(size=(3, 3))
        return 0.5 * (m + m.T)

    def rank3():
        a = rng.normal(size=(3, 3, 3))
        return 0.5 * (a + np.swapaxes(a, 1, 2))

    return PropertyTensorSet(alpha34=sym2(), alpha12=sym2(),
                             gprime34=rng.normal(size=(3, 3)), a34=rank3())
