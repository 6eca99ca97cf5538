"""Exception types shared across the package, `located` to say where one arose,
`warn`, through which the package warns, and `batch_or_items`, the rule for a
batch: it is rerun item by item only when it raises, and the warnings it holds
are issued in item order."""
import contextlib
import itertools
import sys
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
    __str__ = CarscidError.__str__  # the message, not KeyError's quoted repr


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
def located(where: str):
    """Re-raise every `CarscidError` of the block as its type, prefixed with `where`."""
    try:
        yield
    except CarscidError as exc:
        raise type(exc)(f"{where}: {exc}") from None


#: Most items that one `run` call of `batch_or_items` takes.
MAX_BATCH = 1024

#: The warnings held by the batch that `batch_or_items` is running, or None outside
#: one and in a run that holds nothing.
_held = None


def warn(message: str, item: int, stacklevel: int = 1) -> None:
    """`warnings.warn(message, stacklevel=stacklevel)` of a `UserWarning` about row
    `item` of the caller's stack; while `batch_or_items` runs a batch of two or
    more items, held with the file, line, module and registry that it would use."""
    if _held is None:
        warnings.warn(message, stacklevel=stacklevel + 1)
    else:
        frame = sys._getframe(stacklevel)
        module = frame.f_globals
        _held.append((item, (message, UserWarning, frame.f_code.co_filename, frame.f_lineno,
                             module.get("__name__", "<string>"),
                             module.setdefault("__warningregistry__", {}))))


def batch_or_items(n: int, run):
    """The parts of `run(lo, hi)`, the work on items lo..hi-1, lazily, over batches
    of at most `MAX_BATCH` items in order (one `run(0, 0)` when n = 0), so memory
    stays bounded.  A batch of at most one item runs once, as it is.  A larger
    batch holds the warnings of `warn` and, once it has passed, issues them in item
    order under the caller's filters; one that raises drops them and is rerun as
    run(j, j + 1) for each of its items j, lazily, the same code on a slice of one,
    so errors and warnings come item by item.  A run of one item and a rerun item
    hold nothing, even inside another batch.  Other code's warnings pass as raised."""
    return itertools.chain.from_iterable(
        _one_batch(lo, min(lo + MAX_BATCH, n), run)
        for lo in range(0, max(n, 1), MAX_BATCH))


def _holding(held, run, lo: int, hi: int):
    """`run(lo, hi)` with `held` (None: no hold) as the hold of `warn`, and the hold
    that was active restored after it: a user's code may run a batch inside a batch."""
    global _held
    outer, _held = _held, held
    try:
        return run(lo, hi)
    finally:
        _held = outer


def _one_batch(lo: int, hi: int, run):
    if hi - lo <= 1:  # rerunning it item by item would repeat this call
        return [_holding(None, run, lo, hi)]
    held = []
    try:
        parts = [_holding(held, run, lo, hi)]
    except Exception:
        return (_holding(None, run, j, j + 1) for j in range(lo, hi))
    for _, args in sorted(held, key=lambda h: h[0]):  # stable: a row keeps its order
        warnings.warn_explicit(*args)
    return parts
