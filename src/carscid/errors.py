"""Exception types shared across the package, `located` to say where one arose,
and `batch_or_items`, the rule for a batch that raises or warns."""
import contextlib
import warnings


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


class NonFiniteResult(CarscidError, ArithmeticError):
    """A computed quantity overflowed the float range."""


class NonConvergence(CarscidError, RuntimeError):
    """Doubling the quadrature order changed the result (`result`) beyond tolerance."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


@contextlib.contextmanager
def located(where: str, *kinds):
    """Re-raise a `kinds` error of the block as its type, prefixed with `where`."""
    try:
        yield
    except kinds as exc:
        raise type(exc)(f"{where}: {exc}") from None


def batch_or_items(n: int, run):
    """The parts of `run(lo, hi)`, the work on items lo..hi-1: [run(0, n)], unless
    that raises or warns; then run(j, j + 1) for each item j, lazily, the same code
    on a slice of one, so errors and warnings come item by item under the caller's
    filters.  The batch's warnings are dropped ("always": a "once" registry is not
    spent)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parts = [run(0, n)]
        except Exception:
            caught.append(None)
    return (run(j, j + 1) for j in range(n)) if caught else parts
