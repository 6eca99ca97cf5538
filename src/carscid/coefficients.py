"""Exact rational coefficient tables for the closed-form rotational averages.

Every coefficient that enters a closed-form SO(3) average, a dependence
relation, a natural-invariant definition, or the circular-intensity-difference
numerator/denominator lives here as a `fractions.Fraction`, which keeps the
coefficient identities between the two-frequency and the single-frequency
forms exactly testable and makes transcription errors auditable in one place.
Floating-point conversion happens once, at import: `compiled` turns each table
into the float array at the end of this module that every evaluation uses.

Index conventions
-----------------
Isotropic invariants of the rank-8 electric block are numbered 1..10; those of
the magnetic (and, via the Levi-Civita contraction, quadrupole) blocks are
numbered 1..14, with the quadrupole set starting at 5 because the first four
contractions vanish identically for a tensor symmetric in its last two
indices.  Natural invariants are keyed by (weight J, seniority of the first
factor, seniority of the second factor).
"""
from __future__ import annotations

from fractions import Fraction as F

import numpy as np

# --------------------------------------------------------------------------
# Closed-form orientational averages, as linear forms over the isotropic
# invariants.  The electric average is dimensionless; the magnetic form is
# multiplied by 1/c and the quadrupole forms by (omega/c)/3 at evaluation.
# --------------------------------------------------------------------------

#: Rank-8 electric average: sum_i ELECTRIC_AVERAGE[i] * [alpha]_i.
ELECTRIC_AVERAGE = {
    i + 1: F(n, 3780)
    for i, n in enumerate([1, 8, 16, 2, 8, 52, 104, 16, 11, 22])
}

#: Rank-8 magnetic average: (1/c) * sum_i MAGNETIC_AVERAGE[i] * [G']_i.
MAGNETIC_AVERAGE = {
    i + 1: F(n, 7560)
    for i, n in enumerate([40, 160, 320, 80, 16, 32, 32, 64, 64, 32, 32, 64, 8, 16])
}

#: Rank-9 quadrupole average, probe-frequency block; enters with -(k3/3).
QUADRUPOLE_AVERAGE_PROBE = {
    i + 5: F(n, 22680)
    for i, n in enumerate([48, 96, 96, 192, 192, 96, 144, 288, 36, 72])
}

#: Rank-9 quadrupole average, anti-Stokes-frequency block; enters with +(k4/3).
QUADRUPOLE_AVERAGE_ANTISTOKES = {
    11: F(48, 22680), 12: F(96, 22680), 13: F(12, 22680), 14: F(24, 22680),
}

# --------------------------------------------------------------------------
# Linear dependence relations between the isotropic invariants.  The
# delta/epsilon basis is overcomplete at these ranks, so one signed
# combination of each set vanishes identically on valid inputs.
# --------------------------------------------------------------------------

ALPHA_DEPENDENCE = {1: F(1), 2: F(-4), 3: F(4), 4: F(-1), 5: F(2),
                    6: F(4), 7: F(-4), 8: F(-2), 9: F(-1), 10: F(1)}

GPRIME_DEPENDENCE = {1: F(1), 2: F(-2), 3: F(2), 4: F(-1), 5: F(-2),
                     6: F(2), 7: F(2), 8: F(-2), 9: F(-2), 10: F(2),
                     11: F(2), 12: F(-2), 13: F(-1), 14: F(1)}

#: Same structure as GPRIME_DEPENDENCE with the nonexistent entries 1..4 dropped.
AQUAD_DEPENDENCE = {5: F(-2), 6: F(2), 7: F(2), 8: F(-2), 9: F(-2),
                    10: F(2), 11: F(2), 12: F(-2), 13: F(-1), 14: F(1)}

# --------------------------------------------------------------------------
# Natural invariants as linear maps from the isotropic invariants.
# Keys are (J, tau1, tau2).
# --------------------------------------------------------------------------

NATURAL_A_FROM_ALPHA = {
    (0, 1, 1): {1: F(2, 15)},
    (0, 1, 2): {4: F(-1, 15)},
    (0, 2, 1): {9: F(-1, 15)},
    (0, 2, 2): {10: F(1, 5)},
    (2, 1, 1): {1: F(-10, 21), 2: F(10, 7)},
    (2, 1, 2): {3: F(-8, 7), 4: F(8, 21)},
    (2, 2, 1): {6: F(-8, 7), 9: F(8, 21)},
    (2, 2, 2): {7: F(12, 7), 10: F(-4, 7)},
    (4, 1, 1): {1: F(-11, 70), 2: F(4, 7), 3: F(-6, 7), 4: F(13, 70),
                6: F(-6, 7), 7: F(2, 7), 8: F(1), 9: F(13, 70), 10: F(-9, 70)},
}

NATURAL_G_FROM_GPRIME = {
    (0, 1, 1): {1: F(2, 15)},
    (0, 1, 2): {4: F(-1, 15)},
    (0, 2, 1): {13: F(-1, 15)},
    (0, 2, 2): {14: F(1, 5)},
    (2, 1, 1): {1: F(-5, 21), 2: F(5, 7)},
    (2, 1, 2): {3: F(-4, 7), 4: F(4, 21)},
    (2, 2, 1): {11: F(-4, 7), 13: F(4, 21)},
    (2, 2, 2): {12: F(6, 7), 14: F(-2, 7)},
    (2, 3, 1): {7: F(-4, 7), 13: F(4, 21)},
    (2, 3, 2): {8: F(6, 7), 14: F(-2, 7)},
    (2, 4, 1): {1: F(-5, 21), 5: F(5, 7)},
    (2, 4, 2): {4: F(4, 21), 10: F(-4, 7)},
    (4, 1, 1): {1: F(-153, 245), 2: F(8, 7), 3: F(-12, 7), 4: F(184, 245),
                5: F(8, 7), 7: F(-12, 7), 8: F(4, 7), 9: F(4), 10: F(-12, 7),
                11: F(-12, 7), 12: F(4, 7), 13: F(184, 245), 14: F(-122, 245)},
}

#: The frequency-carrying naturals, per unit angular frequency:
#: k_J(omega) = omega * sum_i NATURAL_K_FROM_AQUAD[key][i] * [A]_i.
NATURAL_K_FROM_AQUAD = {
    (0, 2, 1): {13: F(-1, 15)},
    (0, 2, 2): {14: F(1, 5)},
    (2, 2, 1): {11: F(-4, 7), 13: F(4, 21)},
    (2, 2, 2): {12: F(6, 7), 14: F(-2, 7)},
    (2, 3, 1): {7: F(-4, 7), 13: F(4, 21)},
    (2, 3, 2): {8: F(6, 7), 14: F(-2, 7)},
    (2, 4, 1): {5: F(5, 7)},
    (2, 4, 2): {10: F(-4, 7)},
    (4, 1, 1): {5: F(8, 7), 7: F(-12, 7), 8: F(4, 7), 9: F(4), 10: F(-12, 7),
                11: F(-12, 7), 12: F(4, 7), 13: F(184, 245), 14: F(-122, 245)},
}

#: Keys whose k naturals vanish structurally (they would require the
#: nonexistent quadrupole invariants 1..4); accessors report exact zero.
NATURAL_K_ZERO_KEYS = ((0, 1, 1), (0, 1, 2), (2, 1, 1), (2, 1, 2))

# --------------------------------------------------------------------------
# Natural-invariant renditions of the three averages.  These are the same
# linear forms that build the circular-intensity-difference ratio: the
# magnetic and quadrupole forms are its numerator blocks and the electric
# form its denominator.
# --------------------------------------------------------------------------

ELECTRIC_NATURAL_FORM = {
    (0, 1, 1): F(1, 120), (0, 1, 2): F(-1, 30),
    (0, 2, 1): F(-7, 60), (0, 2, 2): F(7, 90),
    (2, 1, 1): F(1, 525), (2, 1, 2): F(-1, 210),
    (2, 2, 1): F(-11, 840), (2, 2, 2): F(11, 630),
    (4, 1, 1): F(2, 315),
}

MAGNETIC_NATURAL_FORM = {
    (0, 1, 1): F(514, 5145), (0, 1, 2): F(-2056, 15435),
    (0, 2, 1): F(-341, 5145), (0, 2, 2): F(682, 15435),
    (2, 1, 1): F(16, 525), (2, 1, 2): F(-8, 105),
    (2, 2, 1): F(-1, 105), (2, 2, 2): F(4, 315),
    (2, 3, 1): F(-1, 105), (2, 3, 2): F(4, 315),
    (2, 4, 1): F(2, 525), (2, 4, 2): F(-1, 105),
    (4, 1, 1): F(1, 315),
}

#: Quadrupole natural form, probe block: +(1/(3c)) * sum coef * k_{J,omega3}.
QUADRUPOLE_NATURAL_FORM_PROBE = {
    (0, 2, 1): F(7853, 92610), (0, 2, 2): F(-7853, 138915),
    (2, 2, 1): F(5, 378), (2, 2, 2): F(-10, 567),
    (2, 3, 1): F(1, 105), (2, 3, 2): F(-4, 315),
    (2, 4, 1): F(-2, 525), (2, 4, 2): F(1, 105),
    (4, 1, 1): F(-1, 315),
}

#: Quadrupole natural form, anti-Stokes block.  This block admits two sign
#: conventions; the minus sign adopted here (see
#: ANTISTOKES_BLOCK_SIGN) is the one that reproduces the isotropic-invariant
#: closed form exactly and that collapses onto the single-frequency
#: coefficients when omega3 = omega4.  The `verify` report restates this.
QUADRUPOLE_NATURAL_FORM_ANTISTOKES = {
    (0, 2, 1): F(1, 54), (0, 2, 2): F(-1, 81),
    (2, 2, 1): F(1, 270), (2, 2, 2): F(-2, 405),
}

ANTISTOKES_BLOCK_SIGN = -1


# --------------------------------------------------------------------------
# Float arrays of the tables above, built once at import.  Array order: the
# isotropic indices ascending ([A] from 5), the natural keys as tabulated,
# the k naturals over the g keys.
# --------------------------------------------------------------------------

ALPHA_INDICES, GPRIME_INDICES, AQUAD_INDICES = range(1, 11), range(1, 15), range(5, 15)
A_KEYS = tuple(NATURAL_A_FROM_ALPHA)
G_KEYS = tuple(NATURAL_G_FROM_GPRIME)


def compiled(table: dict, keys, columns=None) -> np.ndarray:
    """`table` as floats, entry `key` at `keys.index(key)` and 0.0 elsewhere (a
    key outside `keys` raises ValueError); with `columns`, a matrix of rows."""
    if columns is not None:
        return np.array([compiled(table.get(key, {}), columns) for key in keys])
    out = np.zeros(len(keys))
    for key, value in table.items():
        out[keys.index(key)] = float(value)
    return out


ELECTRIC_AVERAGE_VEC = compiled(ELECTRIC_AVERAGE, ALPHA_INDICES)
MAGNETIC_AVERAGE_VEC = compiled(MAGNETIC_AVERAGE, GPRIME_INDICES)
QUADRUPOLE_AVERAGE_PROBE_VEC = compiled(QUADRUPOLE_AVERAGE_PROBE, AQUAD_INDICES)
QUADRUPOLE_AVERAGE_ANTISTOKES_VEC = compiled(QUADRUPOLE_AVERAGE_ANTISTOKES, AQUAD_INDICES)
ALPHA_DEPENDENCE_VEC = compiled(ALPHA_DEPENDENCE, ALPHA_INDICES)
GPRIME_DEPENDENCE_VEC = compiled(GPRIME_DEPENDENCE, GPRIME_INDICES)
AQUAD_DEPENDENCE_VEC = compiled(AQUAD_DEPENDENCE, AQUAD_INDICES)
NATURAL_A_FROM_ALPHA_MAT = compiled(NATURAL_A_FROM_ALPHA, A_KEYS, ALPHA_INDICES)
NATURAL_G_FROM_GPRIME_MAT = compiled(NATURAL_G_FROM_GPRIME, G_KEYS, GPRIME_INDICES)
NATURAL_K_FROM_AQUAD_MAT = compiled(NATURAL_K_FROM_AQUAD, G_KEYS, AQUAD_INDICES)
NATURAL_K_ZERO_MASK = np.array([key in NATURAL_K_ZERO_KEYS for key in G_KEYS])
ELECTRIC_NATURAL_VEC = compiled(ELECTRIC_NATURAL_FORM, A_KEYS)
MAGNETIC_NATURAL_VEC = compiled(MAGNETIC_NATURAL_FORM, G_KEYS)
QUADRUPOLE_NATURAL_PROBE_VEC = compiled(QUADRUPOLE_NATURAL_FORM_PROBE, G_KEYS)
QUADRUPOLE_NATURAL_ANTISTOKES_VEC = compiled(QUADRUPOLE_NATURAL_FORM_ANTISTOKES, G_KEYS)
