"""Circular intensity difference and Raman-shift spectra.

The production value of the circular intensity difference is the ratio of the
oracle-validated averaged terms, delta = (magnetic + quadrupole) / electric,
identical to (rate_R - rate_L)/(rate_R + rate_L) because every prefactor
cancels.  The two natural-invariant renditions (full two-frequency form and
the single-frequency approximation) are computed alongside and flagged when
they deviate; the two-frequency form inherits the known inconsistency of the
tabulated magnetic g coefficients, so its flag documents rather than alarms.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from . import coefficients as coef
from .averaging import (
    AveragedTerms,
    averaged_terms,
    electric_from_natural,
    magnetic_from_natural,
    quadrupole_from_natural,
)
from .errors import DegenerateDenominator, FrequencyError, ResonanceError
from .invariants import NaturalInvariantSet, natural_from_isotropic
from .scattering import BeamSet, PhysicalContext, PropertyTensorSet
from .sos import MolecularModel, build_property_tensors
from .tensors import relative_deviation

#: hartree -> wavenumber conversion (CODATA).
HARTREE_TO_CM1 = 219474.6313632

#: Below this the achiral reference intensity is treated as vanished.
_DENOMINATOR_FLOOR = 1e-300

#: Natural-rendition deviations above this are flagged in `SignalResult`.
CONSISTENCY_TOL = 1e-9


def delta_from_averaged_terms(terms: AveragedTerms) -> float:
    """delta = (magnetic + quadrupole) / electric, the (R-L)/(R+L) ratio."""
    if terms.electric <= _DENOMINATOR_FLOOR:
        raise DegenerateDenominator(
            f"electric reference term {terms.electric!r} is not positive")
    return terms.chiral / terms.electric


def _natural_ratio(chiral: float, nat: NaturalInvariantSet) -> float:
    den = electric_from_natural(nat)
    if abs(den) <= _DENOMINATOR_FLOOR:
        raise DegenerateDenominator(f"natural-invariant denominator {den!r} vanished")
    return chiral / den


def delta_eq12(nat: NaturalInvariantSet, c: float) -> float:
    """Two-frequency natural-invariant ratio (g block plus both k blocks),
    (magnetic + quadrupole) / electric over the natural renditions.

    The anti-Stokes k block enters with the minus sign fixed by the exact
    coefficient collapse onto the single-frequency form.
    """
    return _natural_ratio(magnetic_from_natural(nat, c) + quadrupole_from_natural(nat, c),
                          nat)


def delta_eq13(nat: NaturalInvariantSet, c: float) -> float:
    """Single-frequency natural-invariant ratio for omega3 ~ omega4.

    Every g and k pair shares one coefficient table: the numerator is
    sum coef * (g - k/3) over all thirteen keys with k at the probe frequency,
    the four structurally zero k values contributing pure g terms.
    """
    chiral = float(coef.MAGNETIC_NATURAL_VEC @ (nat.g_values - nat.k3_values / 3.0)) / c
    return _natural_ratio(chiral, nat)


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


def signal_for_tensors(tensors: PropertyTensorSet, beams: BeamSet,
                       ctx: PhysicalContext) -> SignalResult:
    """Averaged rates and all three delta renditions for one tensor set."""
    omega3, omega4 = float(beams.omega[2]), float(beams.omega[3])
    terms = averaged_terms(tensors, omega3, omega4, ctx.c)
    delta = delta_from_averaged_terms(terms)

    nat = natural_from_isotropic(tensors.invariants, omega3, omega4)
    d12 = delta_eq12(nat, ctx.c)
    d13 = delta_eq13(nat, ctx.c)

    prefactor = ctx.rate_prefactor() * ctx.m2_prefactor(beams)
    rate_r = prefactor * (terms.electric + terms.chiral)
    rate_l = prefactor * (terms.electric - terms.chiral)

    return SignalResult(
        delta=delta,
        delta_two_frequency=d12,
        delta_single_frequency=d13,
        rate_r=rate_r,
        rate_l=rate_l,
        two_frequency_deviation=relative_deviation(delta, d12),
        single_frequency_deviation=relative_deviation(delta, d13),
        terms=terms,
    )


# --------------------------------------------------------------------------
# Raman-shift spectra
# --------------------------------------------------------------------------

class Mode(Protocol):
    """A vibrational mode that can produce tensors for the frequencies of a beam set."""

    name: str
    shift_cm1: float

    def tensors_at(self, beams: BeamSet) -> PropertyTensorSet: ...


@dataclass(frozen=True)
class TensorMode:
    """Mode given directly by frequency-independent property tensors."""

    name: str
    shift_cm1: float
    tensors: PropertyTensorSet

    def tensors_at(self, beams: BeamSet) -> PropertyTensorSet:
        return self.tensors


@dataclass(frozen=True)
class StatesMode:
    """Mode built from a molecular level model; tensors are rebuilt per grid
    point so that their frequency dependence is honored."""

    name: str
    model: MolecularModel
    pump_stokes_optical: bool = False

    @property
    def shift_cm1(self) -> float:
        gap = self.model.energy_gap(self.model.roles.excited, self.model.roles.ground)
        return gap * HARTREE_TO_CM1

    def tensors_at(self, beams: BeamSet) -> PropertyTensorSet:
        return build_property_tensors(self.model, beams, self.pump_stokes_optical)


@dataclass(frozen=True)
class SpectrumRow:
    shift_cm1: float
    omega2: float
    rate_r: float
    rate_l: float
    delta: float


def lorentzian_weight(shift_cm1: float, center_cm1: float, width_cm1: float) -> float:
    """Amplitude-style Lorentzian envelope, peak value 1 at the mode center."""
    half = 0.5 * width_cm1
    return half * half / ((shift_cm1 - center_cm1) ** 2 + half * half)


def spectrum(modes: Sequence[Mode], omega1: float, omega3: float,
             shifts_cm1: Sequence[float], ctx: PhysicalContext,
             width_cm1: Optional[float] = None,
             photons=(1.0, 1.0, 1.0, 1.0)) -> list[SpectrumRow]:
    """Scan the Stokes frequency over a Raman-shift grid.

    At each grid point omega2 = omega1 - shift and omega4 follows from energy
    conservation; rates of all modes are summed, each scaled by its Lorentzian
    envelope when a width is given.  The envelope weights rates only; for a
    single mode it cancels from the ratio, so delta is envelope-free.  Rows
    come back in grid order.
    """
    shifts = [float(s) for s in shifts_cm1]
    if any(b < a for a, b in zip(shifts, shifts[1:])):
        raise ValueError("spectrum requires a monotonically increasing shift grid")

    rows = []
    for shift in shifts:
        omega2 = omega1 - shift / HARTREE_TO_CM1
        try:
            beams = BeamSet.collinear_vvv(omega1, omega2, omega3, photons=photons)
        except FrequencyError as exc:
            raise FrequencyError(f"shift {shift!r} cm^-1: {exc}") from None
        omega4 = float(beams.omega[3])
        prefactor = ctx.rate_prefactor() * ctx.m2_prefactor(beams)

        rate_r = rate_l = 0.0
        for mode in modes:
            try:
                tensors = mode.tensors_at(beams)
            except ResonanceError as exc:
                raise ResonanceError(
                    f"mode {mode.name!r} at shift {shift!r} cm^-1: {exc}") from exc
            terms = averaged_terms(tensors, omega3, omega4, ctx.c)
            weight = 1.0 if width_cm1 is None else lorentzian_weight(
                shift, mode.shift_cm1, width_cm1)
            rate_r += weight * prefactor * (terms.electric + terms.chiral)
            rate_l += weight * prefactor * (terms.electric - terms.chiral)
        total = rate_r + rate_l
        if total <= _DENOMINATOR_FLOOR:
            raise DegenerateDenominator(
                f"total rate vanished at shift {shift!r} cm^-1")
        rows.append(SpectrumRow(
            shift_cm1=shift, omega2=omega2,
            rate_r=rate_r, rate_l=rate_l,
            delta=(rate_r - rate_l) / total,
        ))
    return rows
