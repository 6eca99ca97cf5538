"""Exception types shared across the package."""


class CarscidError(Exception):
    """Base class for all package-specific errors."""


class SymmetryError(CarscidError, ValueError):
    """A tensor violates its required index symmetry beyond tolerance."""


class ResonanceError(CarscidError, ValueError):
    """A sum-over-states denominator is smaller than the resonance guard."""


class FrequencyError(CarscidError, ValueError):
    """A beam angular frequency is not positive and finite."""


class MissingMomentError(CarscidError, KeyError):
    """A required transition-moment table entry is absent."""


class RoleError(CarscidError, ValueError):
    """A level-role assignment references an unknown level id."""


class SchemaError(CarscidError, ValueError):
    """A model file violates the input schema."""


class DegenerateDenominator(CarscidError, ZeroDivisionError):
    """The achiral (electric) reference intensity vanishes; no ratio exists."""


class NonConvergence(CarscidError, RuntimeError):
    """Doubling the quadrature order changed the result (`result`) beyond tolerance."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
