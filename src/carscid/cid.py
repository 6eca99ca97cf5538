"""Circular intensity difference and Raman-shift spectra.

The production value of the circular intensity difference is the ratio of the
oracle-validated averaged terms, delta = (magnetic + quadrupole) / electric,
identical to (rate_R - rate_L)/(rate_R + rate_L) because every prefactor
cancels.  The two natural-invariant renditions (full two-frequency form and
the single-frequency approximation) are computed alongside and flagged when
they deviate; the two-frequency form inherits the known inconsistency of the
tabulated magnetic g coefficients, so its flag documents rather than alarms.
Every value is for the geometry of `scattering.check_collinear`; `raman_beams`
is the one place a Raman shift becomes a Stokes frequency.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Protocol, Sequence

import numpy as np

from . import coefficients as coef
from .averaging import AveragedTerms, averaged_terms, natural_terms
from .errors import (CarscidError, DegenerateDenominator, NonFiniteResult, batch_or_items,
                     located)
from .invariants import NaturalInvariantSet, form, natural_from_isotropic
from .scattering import BeamSet, PhysicalContext, PropertyTensorSet, check_collinear
from .sos import MolecularModel, build_property_tensors
from .tensors import relative_deviation

#: hartree -> wavenumber conversion (CODATA).
HARTREE_TO_CM1 = 219474.6313632

#: Below this the achiral reference intensity is treated as vanished.
_DENOMINATOR_FLOOR = 1e-300

#: Natural-rendition deviations above this are flagged in `SignalResult`.
CONSISTENCY_TOL = 1e-9


def _first(values, where) -> float:
    """The first entry of `values` (a float or a stack) at which `where` holds."""
    return np.ravel(values)[np.argmax(np.ravel(where))].item()


def delta_from_averaged_terms(terms: AveragedTerms) -> float:
    """delta = (magnetic + quadrupole) / electric, the (R-L)/(R+L) ratio; one per set."""
    vanished = np.asarray(terms.electric) <= _DENOMINATOR_FLOOR
    if vanished.any():
        raise DegenerateDenominator(
            f"electric reference term {_first(terms.electric, vanished)!r} is not positive")
    return terms.chiral / terms.electric


def _natural_ratio(chiral: float, den: float) -> float:
    vanished = np.abs(den) <= _DENOMINATOR_FLOOR
    if vanished.any():
        raise DegenerateDenominator(
            f"natural-invariant denominator {_first(den, vanished)!r} vanished")
    return chiral / den


def delta_eq12(nat: NaturalInvariantSet, c: float) -> float:
    """Two-frequency natural-invariant ratio (g block plus both k blocks),
    (magnetic + quadrupole) / electric over the natural renditions.

    The anti-Stokes k block enters with the minus sign fixed by the exact
    coefficient collapse onto the single-frequency form.
    """
    terms = natural_terms(nat, c)
    return _natural_ratio(terms.chiral, terms.electric)


def delta_eq13(nat: NaturalInvariantSet, c: float) -> float:
    """Single-frequency natural-invariant ratio for omega3 ~ omega4.

    Every g and k pair shares one coefficient table: the numerator is
    sum coef * (g - k/3) over all thirteen keys with k at the probe frequency,
    the four structurally zero k values contributing pure g terms.
    """
    chiral = form(coef.MAGNETIC_NATURAL_VEC, nat.g_values - nat.k3_values / 3.0) / c
    return _natural_ratio(chiral, natural_terms(nat, c).electric)


@dataclass(frozen=True)
class SignalResult:
    """Per-mode circular intensity difference with consistency diagnostics.

    `delta` is the production ratio from the averaged terms; the two natural
    renditions ride along with their relative deviations from it.  Rates are
    in proportional units (the golden-rule and field prefactors are applied
    but never affect `delta`).
    """

    delta: float
    delta_two_frequency: float
    delta_single_frequency: float
    rate_r: float
    rate_l: float
    two_frequency_deviation: float
    single_frequency_deviation: float
    terms: AveragedTerms

    @property
    def two_frequency_consistent(self) -> bool:
        return self.two_frequency_deviation <= CONSISTENCY_TOL

    @property
    def single_frequency_consistent(self) -> bool:
        return self.single_frequency_deviation <= CONSISTENCY_TOL


def _rates(scale, terms: AveragedTerms) -> tuple:
    """(rate_R, rate_L) = scale * (electric +- chiral), or `NonFiniteResult`."""
    rate_r = scale * (terms.electric + terms.chiral)
    rate_l = scale * (terms.electric - terms.chiral)
    finite = np.isfinite(rate_r) & np.isfinite(rate_l)
    if not finite.all():
        r, l = (_first(rate, ~finite) for rate in (rate_r, rate_l))
        raise NonFiniteResult(f"rates are not finite: R {r!r}, L {l!r}")
    return rate_r, rate_l


def signal_for_tensors(tensors: PropertyTensorSet, beams: BeamSet,
                       ctx: PhysicalContext) -> SignalResult:
    """Averaged rates and all three delta renditions: floats for one tensor set
    and one beam set, arrays for a stack of M sets and (4, M) beams, each set
    with the bits it gets alone; the beams must pass `check_collinear`, either analyzer."""
    check_collinear(beams)
    omega3, omega4 = beams.omega[2:]
    terms = averaged_terms(tensors, omega3, omega4, ctx.c)
    delta = delta_from_averaged_terms(terms)

    nat = natural_from_isotropic(tensors.invariants, omega3, omega4)
    d12 = delta_eq12(nat, ctx.c)
    d13 = delta_eq13(nat, ctx.c)

    prefactor = ctx.rate_prefactor() * ctx.m2_prefactor(beams)
    rate_r, rate_l = _rates(prefactor, terms)
    finite = np.isfinite(delta) & np.isfinite(d12) & np.isfinite(d13)
    if not finite.all():
        raise NonFiniteResult("delta renditions are not finite: " + ", ".join(
            repr(_first(value, ~finite)) for value in (delta, d12, d13)))
    deviations = relative_deviation(np.asarray([delta, delta])[..., None],
                                    np.asarray([d12, d13])[..., None])  # (2,) or (2, M)
    dev12, dev13 = deviations

    return SignalResult(
        delta=delta,
        delta_two_frequency=d12,
        delta_single_frequency=d13,
        rate_r=rate_r,
        rate_l=rate_l,
        two_frequency_deviation=dev12,
        single_frequency_deviation=dev13,
        terms=terms,
    )


# --------------------------------------------------------------------------
# Raman-shift spectra
# --------------------------------------------------------------------------

def raman_beams(omega1: float, omega3: float, shifts_cm1, photons, omega2=None) -> BeamSet:
    """The collinear `BeamSet` of the Raman shifts `shifts_cm1` (cm^-1), (4, G) for G
    shifts, at omega2 = omega1 - shift or the given `omega2`; an overflow gives inf or nan."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if omega2 is None:
            omega2 = omega1 - np.asarray(shifts_cm1) / HARTREE_TO_CM1
        return BeamSet.collinear_vvv(
            *np.broadcast_arrays(omega1, omega2, omega3, shifts_cm1)[:3], photons=photons)


class Mode(Protocol):
    """A vibrational mode that can produce tensors for the frequencies of a beam set."""

    name: str
    shift_cm1: float

    def tensors_at(self, beams: BeamSet) -> PropertyTensorSet:
        """The mode's tensors at the G points of the (4, G) `beams`: one set that
        serves every point, or a stack of one set per point, as `StatesMode` builds;
        `spectrum` refuses a stack of any other size."""


@dataclass(frozen=True, eq=False)
class TensorMode:
    """Mode given directly by one set of frequency-independent property tensors."""

    name: str
    shift_cm1: float
    tensors: PropertyTensorSet

    def __post_init__(self):
        if self.tensors.alpha34.ndim != 2:
            raise ValueError(f"mode {self.name!r}: a TensorMode holds one tensor set, not a stack")

    def tensors_at(self, beams: BeamSet) -> PropertyTensorSet:
        return self.tensors


@dataclass(frozen=True)
class StatesMode:
    """Mode built from a molecular level model; over a spectrum grid one
    sum-over-states pass builds the tensors of every grid point."""

    name: str
    model: MolecularModel

    @property
    def shift_cm1(self) -> float:
        gap = self.model.energy_gap(self.model.roles.excited, self.model.roles.ground)
        return gap * HARTREE_TO_CM1

    def tensors_at(self, beams: BeamSet) -> PropertyTensorSet:
        return build_property_tensors(self.model, beams)


class Spectrum(NamedTuple):
    """A spectrum as five float64 columns, one entry per grid point, in CSV order."""

    shift_cm1: np.ndarray
    omega2: np.ndarray
    rate_r: np.ndarray
    rate_l: np.ndarray
    delta: np.ndarray


def lorentzian_weight(shift_cm1, center_cm1: float, width_cm1: float):
    """Amplitude-style Lorentzian envelope, peak value 1 at the mode center."""
    half = 0.5 * width_cm1
    offset = np.subtract(shift_cm1, center_cm1)
    square = np.float_power(offset, 2)  # libm pow, as float ** (x * x can differ by an ulp)
    if np.any(np.isfinite(offset) & np.isinf(square)):  # where float ** raises
        raise NonFiniteResult("Lorentzian offset overflows the float range")
    return half * half / (square + half * half)


def spectrum(modes: Iterable[Mode], omega1: float, omega3: float,
             shifts_cm1: Sequence[float], ctx: PhysicalContext,
             width_cm1: Optional[float] = None,
             photons=(1.0, 1.0, 1.0, 1.0)) -> Spectrum:
    """Scan the Stokes frequency over a Raman-shift grid.

    At each grid point omega2 = omega1 - shift and omega4 follows from energy
    conservation; rates of all modes are summed, each scaled by its Lorentzian
    envelope when a width is given.  The envelope weights rates only; for a
    single mode it cancels from the ratio, so delta is envelope-free.  Columns come
    back in grid order, empty for an empty grid.  `modes` is read once.  The one set
    of each `TensorMode` is joined into one stack, whose invariants are computed once per
    call; each batch of at most `errors.MAX_BATCH` points evaluates that stack as
    (modes, points) arrays, and every other mode alone, and adds the modes' rates in
    mode order, so each sum has the bits of the mode-by-mode loop.  A batch that fails
    is rerun point by point.  The package's warnings of a batch that passes come sorted
    by the row of the stack they concern, so a user's `Mode.tensors_at` that builds one
    set warns once, as row 0; its own warnings pass as raised.  A width must be
    positive and finite."""
    if width_cm1 is not None and not 0.0 < width_cm1 < np.inf:
        raise ValueError(f"width_cm1 {width_cm1!r}: must be positive and finite")
    shifts = np.array(shifts_cm1, dtype=float)
    if shifts.ndim != 1:
        raise ValueError("spectrum requires a one-dimensional shift grid")
    if np.any(shifts[1:] < shifts[:-1]):
        raise ValueError("spectrum requires a monotonically increasing shift grid")
    modes = list(modes)
    fixed = [j for j, mode in enumerate(modes) if isinstance(mode, TensorMode)]
    stack = None
    if fixed:  # the sets that serve every point, one per row of an (M, 1) stack
        stack = PropertyTensorSet.joined([modes[j].tensors for j in fixed])[:, None]
    centers = np.array([[modes[j].shift_cm1] for j in fixed])
    parts = batch_or_items(len(shifts), lambda lo, hi: _scan(
        modes, fixed, stack, centers, omega1, omega3, shifts[lo:hi], ctx, width_cm1, photons))
    return Spectrum(*map(np.concatenate, zip(*parts)))


def _mode_rates(tensors: PropertyTensorSet, centers, shifts: np.ndarray, omega3: float,
                omega4: np.ndarray, prefactor, ctx: PhysicalContext,
                width_cm1: Optional[float]) -> tuple:
    """(rate_R, rate_L) of M modes as (M, G) arrays over the G points of `shifts`:
    `tensors` are the (M, 1) sets that serve every point, or one mode's (1, G) sets of
    the grid or (1, 1) set, and `centers` their Raman shifts, broadcasting as (M, 1)."""
    terms = averaged_terms(tensors, omega3, omega4, ctx.c)
    if width_cm1 is None:
        return _rates(prefactor, terms)
    weight = lorentzian_weight(shifts, centers, width_cm1)
    weight *= prefactor
    return _rates(weight, terms)


def _scan(modes: list, fixed: list, stack: Optional[PropertyTensorSet], centers: np.ndarray,
          omega1: float, omega3: float, shifts: np.ndarray, ctx: PhysicalContext,
          width_cm1: Optional[float], photons) -> Spectrum:
    """`spectrum` over `shifts` with one (4, G) `BeamSet`: the modes `fixed` at once from
    their `stack` and `centers`, each other mode alone, and the rates added on in mode
    order.  When the joined evaluation raises a `CarscidError`, every mode is evaluated
    alone, so the first failing mode raises as it does alone; errors name it and the
    first shift.  A `tensors_at` stack that is neither one set nor one per point of
    `shifts` is an error of its mode."""
    where = f"shift {shifts[0].item()!r} cm^-1" if len(shifts) else ""
    with located(where):
        beams = raman_beams(omega1, omega3, shifts, photons)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as on floats
        prefactor = ctx.rate_prefactor() * ctx.m2_prefactor(beams)
        try:  # {mode index: (rate_R, rate_L) row}; when this raises, each mode alone
            rows = dict(zip(fixed, zip(*_mode_rates(
                stack, centers, shifts, omega3, beams.omega[3], prefactor, ctx,
                width_cm1)))) if fixed else {}
        except CarscidError:
            rows = {}
        rate_r, rate_l = np.zeros(len(shifts)), np.zeros(len(shifts))
        for j, mode in enumerate(modes):
            if j not in rows:
                with located(f"mode {mode.name!r} at {where}"):
                    tensors = mode.tensors_at(beams)
                    stack = tensors.alpha34.shape[:-2]
                    if stack not in ((), (1,), shifts.shape):
                        raise CarscidError(f"tensors_at gave a stack of shape {stack} over "
                                           f"a grid of shape {shifts.shape}: expected one "
                                           "set or one per point")
                    row = tensors[(None,) * (4 - tensors.alpha34.ndim)]  # (1, 1) or (1, G)
                    mode_r, mode_l = _mode_rates(row, mode.shift_cm1, shifts, omega3,
                                                 beams.omega[3], prefactor, ctx, width_cm1)
                    rows[j] = mode_r[0], mode_l[0]
            rate_r += rows[j][0]
            rate_l += rows[j][1]
        total = rate_r + rate_l
        delta = (rate_r - rate_l) / total
    if np.any(total <= _DENOMINATOR_FLOOR):
        raise DegenerateDenominator(f"total rate vanished at {where}")
    if not np.all(np.isfinite(total) & np.isfinite(delta)):  # then so are both rates
        raise NonFiniteResult(f"{where}: the summed rates overflow")
    return Spectrum(shifts, beams.omega[1], rate_r, rate_l, delta)
