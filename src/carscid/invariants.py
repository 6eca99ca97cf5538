"""Isotropic invariants, their dependence residuals, and the natural invariants.

The isotropic invariants are full contractions of a four-tensor product with
Kronecker deltas (plus one Levi-Civita symbol for the quadrupole set).  Their
index patterns are written out literally as einsum subscripts, in the fixed
factor order (probe/anti-Stokes tensor, pump/Stokes alpha, probe alpha,
pump/Stokes alpha); the four tensors are distinguished only by which frequency
pair they belong to, so this argument-order convention is what pins every
pattern down.  Natural invariants are the weight/seniority-resolved linear
combinations of the isotropic ones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coefficients as coef
from .tensors import epsilon_contract

# Contraction patterns for the fully symmetric (alpha-only) rank-8 block.
# Factor order: alpha34, alpha12, alpha34, alpha12.
_ALPHA_PATTERNS = (
    "ii,jj,kk,ll", "ii,jj,kl,kl", "ii,jk,jl,kl", "ii,jk,ll,jk",
    "ij,ij,kl,kl", "ij,ik,jk,ll", "ij,ik,jl,kl", "ij,ik,kl,jl",
    "ij,kk,ij,ll", "ij,kl,ij,kl",
)

# Patterns for one general rank-2 tensor against three symmetric alphas.
# Factor order: T, alpha12, alpha34, alpha12.  The quadrupole invariants reuse
# patterns 5..14 with T replaced by the Levi-Civita contraction of A.
_RANK2_PATTERNS = (
    "ii,jj,kk,ll", "ii,jj,kl,kl", "ii,jk,jl,kl", "ii,jk,ll,jk",
    "ij,ij,kk,ll", "ij,ij,kl,kl", "ij,ik,jk,ll", "ij,ik,jl,kl",
    "ij,ik,kl,jl", "ij,ik,ll,jk", "ij,jk,ik,ll", "ij,jk,il,kl",
    "ij,kk,ij,ll", "ij,kl,ij,kl",
)


def alpha_invariants(alpha34, alpha12) -> np.ndarray:
    """The ten rank-8 contractions [alpha]_1 .. [alpha]_10 (0-based array)."""
    a34 = np.asarray(alpha34, dtype=float)
    a12 = np.asarray(alpha12, dtype=float)
    return np.array([np.einsum(f"{p}->", a34, a12, a34, a12) for p in _ALPHA_PATTERNS])


def gprime_invariants(gprime, alpha34, alpha12) -> np.ndarray:
    """The fourteen contractions [G']_1 .. [G']_14 (0-based array)."""
    g = np.asarray(gprime, dtype=float)
    a34 = np.asarray(alpha34, dtype=float)
    a12 = np.asarray(alpha12, dtype=float)
    return np.array([np.einsum(f"{p}->", g, a12, a34, a12) for p in _RANK2_PATTERNS])


def aquad_invariants(a_tensor, alpha34, alpha12) -> np.ndarray:
    """The ten contractions [A]_5 .. [A]_14 (0-based array of length 10).

    Computed by first forming B_ij = eps_mni A_mnj and then reusing the
    rank-2 patterns 5..14; the four leading patterns would contract B's trace,
    which vanishes identically for A symmetric in its last two indices.
    """
    b = epsilon_contract(a_tensor)
    a34 = np.asarray(alpha34, dtype=float)
    a12 = np.asarray(alpha12, dtype=float)
    return np.array([np.einsum(f"{p}->", b, a12, a34, a12) for p in _RANK2_PATTERNS[4:]])


@dataclass(frozen=True)
class IsotropicInvariantSet:
    """The full invariant inventory of one property-tensor set.

    `alpha` holds [alpha]_1..10, `gprime` holds [G']_1..14, and `aquad` holds
    [A]_5..14, each as a plain float array in ascending index order.
    """

    alpha: np.ndarray
    gprime: np.ndarray
    aquad: np.ndarray


def isotropic_invariants(tensors) -> IsotropicInvariantSet:
    """All isotropic invariants of a `PropertyTensorSet` (probe-pair chirality)."""
    return IsotropicInvariantSet(
        alpha=alpha_invariants(tensors.alpha34, tensors.alpha12),
        gprime=gprime_invariants(tensors.gprime34, tensors.alpha34, tensors.alpha12),
        aquad=aquad_invariants(tensors.a34, tensors.alpha34, tensors.alpha12),
    )


def dependence_report(iso: IsotropicInvariantSet) -> dict:
    """Raw dependence residuals, and relative to sum |coef| |value|, per family."""
    out = {}
    for name, values, relation in (("alpha", iso.alpha, coef.ALPHA_DEPENDENCE_VEC),
                                   ("gprime", iso.gprime, coef.GPRIME_DEPENDENCE_VEC),
                                   ("aquad", iso.aquad, coef.AQUAD_DEPENDENCE_VEC)):
        raw = float(relation @ values)
        scale = float(np.abs(relation) @ np.abs(values))
        out[name] = {"residual": raw, "relative": abs(raw) / scale if scale > 0.0 else 0.0}
    return out


@dataclass(frozen=True)
class NaturalInvariantSet:
    """Natural invariants over `coefficients.A_KEYS` (a) and `G_KEYS` (g, k).

    The four structurally vanishing k values are exact +0.0 (they would need
    contractions that do not exist for a tensor symmetric in its last two
    indices).  `a`, `g`, `k3`, `k4` key the values by (weight J, seniority pair).
    """

    a_values: np.ndarray
    g_values: np.ndarray
    k3_values: np.ndarray
    k4_values: np.ndarray
    omega3: float
    omega4: float

    a = property(lambda self: dict(zip(coef.A_KEYS, self.a_values.tolist())))
    g = property(lambda self: dict(zip(coef.G_KEYS, self.g_values.tolist())))
    k3 = property(lambda self: dict(zip(coef.G_KEYS, self.k3_values.tolist())))
    k4 = property(lambda self: dict(zip(coef.G_KEYS, self.k4_values.tolist())))


def natural_from_isotropic(iso: IsotropicInvariantSet,
                           omega3: float, omega4: float) -> NaturalInvariantSet:
    """Evaluate every a, g, and k natural invariant from the isotropic set.

    The k values are produced for both the probe and the anti-Stokes
    frequency, since the two enter the full two-frequency ratio separately.
    """
    k_unit = coef.NATURAL_K_FROM_AQUAD_MAT @ iso.aquad
    k3, k4 = (np.where(coef.NATURAL_K_ZERO_MASK, 0.0, omega * k_unit)
              for omega in (omega3, omega4))
    return NaturalInvariantSet(a_values=coef.NATURAL_A_FROM_ALPHA_MAT @ iso.alpha,
                               g_values=coef.NATURAL_G_FROM_GPRIME_MAT @ iso.gprime,
                               k3_values=k3, k4_values=k4,
                               omega3=float(omega3), omega4=float(omega4))
