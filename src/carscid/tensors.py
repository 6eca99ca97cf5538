"""Dense Cartesian tensors of rank 1 to 3, proper rotations, and Levi-Civita machinery.

Tensors are plain float ndarrays over the axes {x, y, z} -> {0, 1, 2}.  The
``as_*`` validators are the single entry point for outside data: they check
(and where allowed, repair) the declared index symmetries and hand back
read-only arrays, so validated values can be shared freely across workers.

Validators take a stack of tensors too; rotation helpers take a single (3, 3)
matrix or a batch (..., 3, 3), which is what the orientation-averaging code feeds.
"""
from __future__ import annotations

import numpy as np

from .errors import SymmetryError, warn

# Asymmetry thresholds, relative to the largest entry: below WARN the defect is
# treated as round-off and silently symmetrized, between WARN and REJECT it is
# symmetrized with a warning, above REJECT it is a modeling error.
SYMMETRY_WARN = 1e-12
SYMMETRY_REJECT = 1e-6

#: Rotations per step of the batch loops here and of the SO(3) oracles: a
#: step's temporaries stay in cache, and only the result grows with the batch.
CHUNK = 8192

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
    if a.shape[a.ndim - len(shape):] != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: entries must be finite")
    return a


def as_rank2(value, name: str = "rank-2 tensor") -> np.ndarray:
    """Validate a general (3, 3) real tensor; no symmetry is assumed."""
    return _readonly(_as_float_array(value, (3, 3), name))


def relative_deviation(a, b, floor: float = 0.0):
    """max|a - b| / max(|a|, |b|) over two scalars or vectors, or max|a - b|
    when that scale is at most `floor`: a float for one pair, one value per
    vector for two stacks (..., n)."""
    a, b = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b))  # a scalar: one entry
    with np.errstate(over="ignore"):  # inf, as on floats
        diff = abs(a - b).max(axis=-1)
    scale = np.maximum(abs(a), abs(b)).max(axis=-1)
    rel = diff / np.where(scale > floor, scale, 1.0)
    return rel.item() if rel.ndim == 0 else rel


def _symmetrized(a: np.ndarray, swapped: np.ndarray, rank: int, name: str,
                 where: str) -> np.ndarray:
    """(a + swapped) / 2 per rank-`rank` tensor, under the policy of `as_sym_rank2`."""
    flat = a.shape[:a.ndim - rank] + (3 ** rank,)
    rels = relative_deviation(a.reshape(flat), swapped.reshape(flat))
    for row, rel in enumerate(np.ravel(rels).tolist()):  # a row is a tensor of the stack
        if rel > SYMMETRY_REJECT:
            raise SymmetryError(
                f"{name}: relative asymmetry{where} {rel:.3e} exceeds {SYMMETRY_REJECT:g}")
        if rel > SYMMETRY_WARN:
            warn(f"{name}: symmetrized away relative asymmetry {rel:.3e}", row, 3)
    # halved first: no overflow near the float maximum, same bits for normal entries
    return _readonly(0.5 * a + 0.5 * swapped)


def as_sym_rank2(value, name: str = "symmetric rank-2 tensor") -> np.ndarray:
    """Validate and symmetrize a (3, 3) real tensor.

    The asymmetry defect max|T_ij - T_ji| relative to max|T| is tolerated up
    to SYMMETRY_REJECT; between SYMMETRY_WARN and SYMMETRY_REJECT the input is
    symmetrized with a warning so that file round-off does not abort a run.
    """
    a = _as_float_array(value, (3, 3), name)
    return _symmetrized(a, a.swapaxes(-1, -2), 2, name, "")


def as_rank3_sym_last(value, name: str = "rank-3 tensor") -> np.ndarray:
    """Validate a (3, 3, 3) tensor required to be symmetric in its last two indices.

    Accepts either a (3, 3, 3) nested array or a flat list of 27 values in
    i-major order.  Same repair/reject policy as `as_sym_rank2`.
    """
    a = np.asarray(value, dtype=float)
    a = _as_float_array(a.reshape(3, 3, 3) if a.shape == (27,) else a, (3, 3, 3), name)
    return _symmetrized(a, a.swapaxes(-1, -2), 3, name, " in the last two indices")


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
    """Draw `n` rotations from the Haar measure on SO(3), C-contiguous (n, 3, 3).

    Sampling goes through uniform unit quaternions (normalized 4d Gaussians),
    which is exactly uniform and free of Euler-angle bias.  Deterministic for
    a fixed generator state.  The output is filled `CHUNK` rotations at a
    time from one stream of draws, so the bits do not depend on `CHUNK` and
    the temporaries stay chunk-sized.
    """
    out = np.empty((n, 3, 3))
    for lo in range(0, n, CHUNK):
        q = rng.normal(size=(min(CHUNK, n - lo), 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w, x, y, z = q.T
        r = out[lo:lo + CHUNK]
        r[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
        r[:, 0, 1] = 2.0 * (x * y - w * z)
        r[:, 0, 2] = 2.0 * (x * z + w * y)
        r[:, 1, 0] = 2.0 * (x * y + w * z)
        r[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
        r[:, 1, 2] = 2.0 * (y * z - w * x)
        r[:, 2, 0] = 2.0 * (x * z - w * y)
        r[:, 2, 1] = 2.0 * (y * z + w * x)
        r[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def haar_random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Single Haar-distributed rotation from a seeded generator."""
    return haar_random_rotations(rng, 1)[0]
