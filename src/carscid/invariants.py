"""Isotropic invariants, their dependence residuals, and the natural invariants.

The isotropic invariants are full contractions of four tensors with Kronecker
deltas (and one Levi-Civita symbol for the quadrupole set).  All 34 come from
one table of 14 index patterns, factor order (T, alpha12, alpha34, alpha12),
over the stack T = (alpha34, G'34, B), B_ij = eps_mni A_mnj: `_INVARIANTS`
lists them as (T, pattern) pairs, [alpha]_1..10, [G']_1..14 and [A]_5..14.

Each entry is a sum of 81 products in a fixed order: the (i, j, k, l) label
values run lexicographically, each product is formed left to right,
((T a12) a34) a12, and the sum starts from +0.0 and adds one product at a
time.  Sums share products and prefixes, so each distinct product of each
level is formed once (243, 1053 and 1629 for the 34 invariants' 2754 terms),
and for a block of sets the terms of every sum are gathered into one C-ordered
array with the 81 terms on its leading axis, which numpy reduces row by row:
that layout is what fixes the order (a sum along the contiguous
axis would be pairwise), so every set gets the same bits alone or in any stack.
Natural invariants are the weight/seniority-resolved linear combinations of
the isotropic ones.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import coefficients as coef
from .errors import NonFiniteResult
from .tensors import epsilon_contract

# The table's patterns: rank-2 T, alpha12, alpha34, alpha12, each with a stack's `...`.
_RANK2_PATTERNS = (
    "...ii,...jj,...kk,...ll", "...ii,...jj,...kl,...kl", "...ii,...jk,...jl,...kl",
    "...ii,...jk,...ll,...jk", "...ij,...ij,...kk,...ll", "...ij,...ij,...kl,...kl",
    "...ij,...ik,...jk,...ll", "...ij,...ik,...jl,...kl", "...ij,...ik,...kl,...jl",
    "...ij,...ik,...ll,...jk", "...ij,...jk,...ik,...ll", "...ij,...jk,...il,...kl",
    "...ij,...kk,...ij,...ll", "...ij,...kl,...ij,...kl",
)

# [alpha]_1..10, [G']_1..14 and [A]_5..14 as (T, pattern) pairs: alpha34's
# patterns 5, 10, 11, 12 repeat 2, 3, 7, 8, and B's 1..4 contract tr B = 0
_INVARIANTS = (tuple((0, p) for p in (0, 1, 2, 3, 5, 6, 7, 8, 12, 13))
               + tuple((1, p) for p in range(14)) + tuple((2, p) for p in range(4, 14)))

# Sets per block of the contraction: bounds its (81, pair, block) buffers
_BLOCK = 16


@functools.lru_cache(maxsize=None)
def _plan(pairs: tuple) -> tuple:
    """The distinct products of the sums of `pairs` (T, pattern), level by level:
    per level, (product of the level before, factor) index arrays.  The first
    level's products are the rows 9 T + ij of the stacked T, its and the third's
    factors index a12, the second's a34; it holds every (T row, a12 row) pair in
    row-major order, which `_sums` forms as one broadcast product.  Then the
    (term, pair) gather from the last level, the 81 terms in (i, j, k, l)
    lexicographic order."""
    label = dict(zip("ijkl", np.indices((3, 3, 3, 3)).reshape(4, 81)))
    table = np.array([[3 * label[a] + label[b] for a, b in p.replace("...", "").split(",")]
                      for p in _RANK2_PATTERNS])
    t, patterns = np.array(pairs).T
    first, second, *factors = table[patterns].transpose(1, 2, 0)  # (factor, term, pair)
    # flat keys, as np.unique sorts them; the (term, pair) shape comes back once, at the end
    product = (9 * (9 * t + first) + second).ravel()
    levels = [np.divmod(np.arange(81 * (t.max() + 1)), 9)]
    for factor in factors:  # integer keys: far cheaper than np.unique(axis=...)
        keys, product = np.unique(9 * product + factor.ravel(), return_inverse=True)
        levels.append(np.divmod(keys, 9))
    return tuple(levels), product.reshape(first.shape)


@dataclass(frozen=True)
class IsotropicInvariantSet:
    """The full invariant inventory of one property-tensor set.

    `alpha` holds [alpha]_1..10, `gprime` holds [G']_1..14, and `aquad` holds
    [A]_5..14, each as a float array in ascending index order on its last axis.
    """

    alpha: np.ndarray
    gprime: np.ndarray
    aquad: np.ndarray


def isotropic_invariants(tensors) -> IsotropicInvariantSet:
    """All isotropic invariants of a `PropertyTensorSet`, or `NonFiniteResult`;
    each set of a stack (leading axes) gets the bits it gets alone."""
    a34 = tensors.alpha34
    t = np.stack((a34, tensors.gprime34, epsilon_contract(tensors.a34)))
    families = np.split(_sums(t, tensors.alpha12, a34, _INVARIANTS), (10, 24))
    # a C-ordered copy per family: each set's row contiguous (see `form`)
    iso = IsotropicInvariantSet(*(np.ascontiguousarray(f.T).reshape(*a34.shape[:-2], len(f))
                                  for f in families))
    _require_finite("isotropic invariants", iso.alpha, iso.gprime, iso.aquad)
    return iso


def pattern_sums(t, a12, a34) -> np.ndarray:
    """The full contractions `_RANK2_PATTERNS` of (T, a12, a34, a12) for each T of
    `t` (K, ..., 3, 3) and a12, a34 (..., 3, 3), as a (pattern, K, set) array
    over the sets' flattened leading axes, from the kernel and summation order
    of the invariants; overflow gives inf or nan, no warning."""
    k, n = len(t), math.prod(a34.shape[:-2])
    pairs = tuple((j, p) for p in range(len(_RANK2_PATTERNS)) for j in range(k))
    return _sums(t, a12, a34, pairs).reshape(len(_RANK2_PATTERNS), k, n)


def _sums(t, a12, a34, pairs) -> np.ndarray:
    """The (pair, set) sums of `pairs` (T, pattern): per block of sets, the first
    level of `_plan` as one broadcast product of T's and a12's rows, each further
    level gathered into a (product, set) array and multiplied in place by its
    gathered factors, then the 81 terms of every sum reduced row by row onto
    `initial`, +0.0, so that products that are all -0.0 give +0.0."""
    levels, gather = _plan(pairs)
    k, n = len(t), math.prod(a34.shape[:-2])
    # (row, set): T's rows are 9 T + ij; a block of sets is a slice
    t = t.reshape(k, n, 9).transpose(0, 2, 1).reshape(9 * k, n)
    f12, f34 = (np.ascontiguousarray(f.reshape(n, 9).T) for f in (a12, a34))
    sums = np.empty((gather.shape[1], n))
    # one block's buffers for all blocks: fresh temporaries this large made the time
    # hang on the allocator's state, up to 3x.  The last block ends at the last set and
    # so redoes some sets, bit for bit; the last level, extending the rest, is largest.
    # A block's sums go to a contiguous buffer first: reducing into strided columns is slower
    width = min(n, _BLOCK)
    first = np.empty((len(levels[0][0]) // 9, 9, width))
    into = [np.empty((len(product), width)) for product, _ in levels[1:]]
    factors, terms = np.empty((len(levels[-1][0]), width)), np.empty(gather.shape + (width,))
    part = np.empty((gather.shape[1], width))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, _BLOCK):
            block = slice(min(s, n - width), min(s, n - width) + width)
            products = np.multiply(t[:len(first), None, block], f12[:, block],
                                   out=first).reshape(-1, width)
            for (product, factor), f, out in zip(levels[1:], (f34, f12), into):
                products = np.take(products, product, axis=0, out=out, mode="clip")
                products *= np.take(f[:, block], factor, axis=0, out=factors[:len(factor)],
                                    mode="clip")  # in range; "raise" would buffer `out`
            np.add.reduce(np.take(products, gather, axis=0, out=terms, mode="clip"), axis=0,
                          out=part, initial=0.0)
            sums[:, block] = part
    return sums


def form(table: np.ndarray, values: np.ndarray):
    """A coefficient vector or matrix applied to `values` along their last axis, a
    float for a vector and one set; a stack takes one BLAS product per contiguous
    set, so each gets the bits it gets alone (one matrix product would not)."""
    value = (table @ values[..., None])[..., 0]
    return value if value.ndim else float(value)


def _require_finite(what: str, *values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise NonFiniteResult(f"{what} overflow the float range")


def dependence_report(iso: IsotropicInvariantSet) -> dict:
    """Raw dependence residuals, and relative to sum |coef| |value|, per family and
    set; the relative one over each set's values / 2^e near their largest, exact
    and free of overflow."""
    out = {}
    for name, values, relation in (("alpha", iso.alpha, coef.ALPHA_DEPENDENCE_VEC),
                                   ("gprime", iso.gprime, coef.GPRIME_DEPENDENCE_VEC),
                                   ("aquad", iso.aquad, coef.AQUAD_DEPENDENCE_VEC)):
        with np.errstate(over="ignore", invalid="ignore"):
            raw = form(relation, values)
        _require_finite(f"[{name}] dependence residuals", raw)
        largest = np.abs(values).max(axis=-1, keepdims=True)
        values = np.ldexp(values, -np.frexp(largest)[1])
        scale = form(np.abs(relation), np.abs(values))  # 0 only where the residual is 0
        relative = np.abs(form(relation, values)) / np.where(scale > 0.0, scale, 1.0)
        out[name] = {"residual": raw, "relative": relative}
    return out


def _by_key(keys, values) -> dict:
    """`values` by key along their last axis: floats, or lists over a stack's sets."""
    return dict(zip(keys, np.moveaxis(values, -1, 0).tolist()))


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

    a = property(lambda self: _by_key(coef.A_KEYS, self.a_values))
    g = property(lambda self: _by_key(coef.G_KEYS, self.g_values))
    k3 = property(lambda self: _by_key(coef.G_KEYS, self.k3_values))
    k4 = property(lambda self: _by_key(coef.G_KEYS, self.k4_values))


def natural_from_isotropic(iso: IsotropicInvariantSet,
                           omega3: float, omega4: float) -> NaturalInvariantSet:
    """Evaluate every a, g, and k natural invariant from the isotropic set.

    The k values are produced for both the probe and the anti-Stokes
    frequency, since the two enter the full two-frequency ratio separately.
    For a stack of sets the frequencies may be one per set.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k_unit = form(coef.NATURAL_K_FROM_AQUAD_MAT, iso.aquad)
        k3, k4 = (np.where(coef.NATURAL_K_ZERO_MASK, 0.0, np.asarray(omega)[..., None] * k_unit)
                  for omega in (omega3, omega4))
        a = form(coef.NATURAL_A_FROM_ALPHA_MAT, iso.alpha)
        g = form(coef.NATURAL_G_FROM_GPRIME_MAT, iso.gprime)
    _require_finite("natural invariants", a, g, k3, k4)
    return NaturalInvariantSet(a_values=a, g_values=g, k3_values=k3, k4_values=k4)
