"""Exception types shared across the package, `located` to say where one arose,
and `batch_or_items`, the rule for a batch that raises or warns."""
import contextlib
import itertools
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


#: Most items that one `run` call of `batch_or_items` takes.
MAX_BATCH = 1024


def batch_or_items(n: int, run):
    """The parts of `run(lo, hi)`, the work on items lo..hi-1, lazily, over batches
    of at most `MAX_BATCH` items in order (one `run(0, 0)` when n = 0), so memory
    stays bounded.  A batch that raises or warns is rerun as run(j, j + 1) for
    each of its items j, lazily, the same code on a slice of one, so errors and
    warnings come item by item under the caller's filters.  The batch's warnings
    are dropped ("always": a "once" registry is not spent)."""
    return itertools.chain.from_iterable(
        _one_batch(lo, min(lo + MAX_BATCH, n), run)
        for lo in range(0, max(n, 1), MAX_BATCH))


def _one_batch(lo: int, hi: int, run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parts = [run(lo, hi)]
        except Exception:
            caught.append(None)
    return (run(j, j + 1) for j in range(lo, hi)) if caught else parts
