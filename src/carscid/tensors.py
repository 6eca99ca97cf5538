"""Dense Cartesian tensors of rank 1 to 3, proper rotations, and Levi-Civita machinery.

Tensors are plain float ndarrays over the axes {x, y, z} -> {0, 1, 2}.  The
``as_*`` validators are the single entry point for outside data: they check
(and where allowed, repair) the declared index symmetries and hand back
read-only arrays, so validated values can be shared freely across workers.

Rotation helpers accept either a single (3, 3) matrix or a batch with shape
(..., 3, 3); batches are what the orientation-averaging code feeds through.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import RotationError, SymmetryError

# Asymmetry thresholds, relative to the largest entry: below WARN the defect is
# treated as round-off and silently symmetrized, between WARN and REJECT it is
# symmetrized with a warning, above REJECT it is a modeling error.
SYMMETRY_WARN = 1e-12
SYMMETRY_REJECT = 1e-6

ROTATION_TOL = 1e-12
UNIT_TOL = 1e-12

LEVI_CIVITA = np.zeros((3, 3, 3))
for _perm, _sign in ((((0, 1, 2)), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
                     ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0)):
    LEVI_CIVITA[_perm] = _sign
LEVI_CIVITA.setflags(write=False)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _as_float_array(value, shape, name: str) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: entries must be finite")
    return a


def as_rank2(value, name: str = "rank-2 tensor") -> np.ndarray:
    """Validate a general (3, 3) real tensor; no symmetry is assumed."""
    return _readonly(_as_float_array(value, (3, 3), name))


def _symmetrized(a: np.ndarray, swapped: np.ndarray, name: str, where: str) -> np.ndarray:
    """0.5 (a + swapped) under the repair/reject policy of `as_sym_rank2`."""
    scale = np.max(np.abs(a))
    rel = np.max(np.abs(a - swapped)) / scale if scale > 0.0 else 0.0
    if rel > SYMMETRY_REJECT:
        raise SymmetryError(
            f"{name}: relative asymmetry{where} {rel:.3e} exceeds {SYMMETRY_REJECT:g}")
    if rel > SYMMETRY_WARN:
        warnings.warn(f"{name}: symmetrized away relative asymmetry {rel:.3e}",
                      stacklevel=3)
    return _readonly(0.5 * (a + swapped))


def as_sym_rank2(value, name: str = "symmetric rank-2 tensor") -> np.ndarray:
    """Validate and symmetrize a (3, 3) real tensor.

    The asymmetry defect max|T_ij - T_ji| relative to max|T| is tolerated up
    to SYMMETRY_REJECT; between SYMMETRY_WARN and SYMMETRY_REJECT the input is
    symmetrized with a warning so that file round-off does not abort a run.
    """
    a = _as_float_array(value, (3, 3), name)
    return _symmetrized(a, a.T, name, "")


def as_rank3_sym_last(value, name: str = "rank-3 tensor") -> np.ndarray:
    """Validate a (3, 3, 3) tensor required to be symmetric in its last two indices.

    Accepts either a (3, 3, 3) nested array or a flat list of 27 values in
    i-major order.  Same repair/reject policy as `as_sym_rank2`.
    """
    a = np.asarray(value, dtype=float)
    if a.shape == (27,):
        a = a.reshape(3, 3, 3)
    if a.shape != (3, 3, 3):
        raise ValueError(f"{name}: expected shape (3, 3, 3) or 27 flat values, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: entries must be finite")
    return _symmetrized(a, np.swapaxes(a, 1, 2), name, " in the last two indices")


def as_rotation(value, name: str = "rotation") -> np.ndarray:
    """Validate a proper rotation matrix: R Rt = I and det R = +1 within 1e-12."""
    r = _as_float_array(value, (3, 3), name)
    orth = np.max(np.abs(r @ r.T - np.eye(3)))
    if orth > ROTATION_TOL:
        raise RotationError(f"{name}: orthogonality defect {orth:.3e} exceeds {ROTATION_TOL:g}")
    det = np.linalg.det(r)
    if abs(det - 1.0) > ROTATION_TOL:
        raise RotationError(f"{name}: determinant {det!r} is not +1 within {ROTATION_TOL:g}")
    return _readonly(r)


def as_unit_direction(value, name: str = "unit vector") -> np.ndarray:
    v = _as_float_array(value, (3,), name)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"{name}: norm {norm!r} is not 1 within {UNIT_TOL:g}")
    return _readonly(v)


def as_unit_polarization(value, name: str = "polarization vector") -> np.ndarray:
    """Validate a complex 3-vector with unit Hermitian norm (sum conj(e) e = 1)."""
    v = np.asarray(value, dtype=complex)
    if v.shape != (3,):
        raise ValueError(f"{name}: expected 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError(f"{name}: entries must be finite")
    norm = float(np.real(np.vdot(v, v)))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"{name}: Hermitian norm {norm!r} is not 1 within {UNIT_TOL:g}")
    return _readonly(v)


def rotate_rank2(rotation, tensor) -> np.ndarray:
    """Rotate a rank-2 tensor: T'_ij = R_ia R_jb T_ab.

    `rotation` may be a single matrix or a batch (..., 3, 3); the result has
    the matching leading shape.  Symmetry of the input is preserved exactly up
    to round-off.
    """
    r = np.asarray(rotation, dtype=float)
    t = np.asarray(tensor, dtype=float)
    return np.einsum("...ia,...jb,ab->...ij", r, r, t, optimize=True)


def rotate_rank3(rotation, tensor) -> np.ndarray:
    """Rotate a rank-3 tensor: A'_ijn = R_ia R_jb R_nc A_abc (batch-aware)."""
    r = np.asarray(rotation, dtype=float)
    a = np.asarray(tensor, dtype=float)
    return np.einsum("...ia,...jb,...nc,abc->...ijn", r, r, r, a, optimize=True)


def epsilon_contract(tensor) -> np.ndarray:
    """Contract a rank-3 tensor with the Levi-Civita symbol: B_ij = eps_mni A_mnj.

    The result transforms as a rank-2 tensor under proper rotations; it
    vanishes identically when A is symmetric in its first two indices, which
    holds in particular for totally symmetric A.
    """
    a = np.asarray(tensor, dtype=float)
    return np.einsum("mni,...mnj->...ij", LEVI_CIVITA, a)


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` (radians) about a 3-vector `axis` (Rodrigues form)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    k = np.einsum("ijk,j->ik", LEVI_CIVITA, n)  # cross-product matrix, (k v) = n x v
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def haar_random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw `n` rotations from the Haar measure on SO(3).

    Sampling goes through uniform unit quaternions (normalized 4d Gaussians),
    which is exactly uniform and free of Euler-angle bias.  Deterministic for
    a fixed generator state.
    """
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((n, 3, 3))
    out[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[:, 0, 1] = 2.0 * (x * y - w * z)
    out[:, 0, 2] = 2.0 * (x * z + w * y)
    out[:, 1, 0] = 2.0 * (x * y + w * z)
    out[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[:, 1, 2] = 2.0 * (y * z - w * x)
    out[:, 2, 0] = 2.0 * (x * z - w * y)
    out[:, 2, 1] = 2.0 * (y * z + w * x)
    out[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def haar_random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Single Haar-distributed rotation from a seeded generator."""
    return haar_random_rotations(rng, 1)[0]
