"""The one failure rule of `carscid.errors`: `located` names where every
`CarscidError` arose, and `batch_or_items` gives what an item-by-item run gives."""
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carscid.errors
from carscid.errors import CarscidError, batch_or_items, located


def _subclasses(cls):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _subclasses(child)]


ERRORS = _subclasses(CarscidError)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_prints_its_message(cls):
    assert str(cls("m")) == "m"


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_located_names_where_every_error_arose(cls):
    with pytest.raises(cls) as info:
        with located("mode 'm'"):
            raise cls("went wrong")
    assert str(info.value) == "mode 'm': went wrong"


def test_located_passes_other_errors_unchanged():
    with pytest.raises(ValueError, match=r"^plain$"):
        with located("mode 'm'"):
            raise ValueError("plain")


def _synthetic_run(kinds, calls):
    """run(lo, hi) over items whose kinds are "ok", "warn" or "raise": each "warn"
    item of the slice warns, the first "raise" item raises, and otherwise the
    slice's labels come back.  Every call is appended to `calls`."""
    def run(lo, hi):
        calls.append((lo, hi))
        for j in range(lo, hi):
            if kinds[j] == "warn":
                warnings.warn(f"item {j} warns")
            elif kinds[j] == "raise":
                raise CarscidError(f"item {j} fails")
        return [f"item {j}" for j in range(lo, hi)]
    return run


def _outcome(parts):
    """(flattened parts, warning texts in order, first error) of consuming `parts`."""
    flat, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for part in parts:
                flat.extend(part)
        except CarscidError as exc:
            error = str(exc)
    return flat, [str(w.message) for w in caught], error


@pytest.mark.parametrize("size", [1, 2, 3, 1024])
@settings(max_examples=200, deadline=None)
@given(kinds=st.lists(st.sampled_from(["ok", "warn", "raise"]), max_size=9))
def test_batches_give_what_an_item_by_item_run_gives(size, kinds):
    run = _synthetic_run(kinds, [])
    expected = _outcome(run(j, j + 1) for j in range(len(kinds)))
    with mock.patch.object(carscid.errors, "MAX_BATCH", size):
        assert _outcome(batch_or_items(len(kinds), run)) == expected


def test_an_empty_batch_passes_its_error_through():
    def run(lo, hi):
        raise CarscidError("no items")

    with pytest.raises(CarscidError, match="no items"):
        list(batch_or_items(0, run))


@pytest.mark.parametrize("kind", ["ok", "warn", "raise"])
def test_a_batch_of_one_runs_once(kind):
    calls = []
    _outcome(batch_or_items(1, _synthetic_run([kind], calls)))
    assert calls == [(0, 1)]


def test_a_failing_batch_reruns_item_by_item_up_to_its_first_error(monkeypatch):
    monkeypatch.setattr(carscid.errors, "MAX_BATCH", 3)
    calls = []
    outcome = _outcome(batch_or_items(5, _synthetic_run(["ok", "warn", "raise", "ok", "ok"],
                                                        calls)))
    assert outcome == (["item 0", "item 1"], ["item 1 warns"], "item 2 fails")
    assert calls == [(0, 3), (0, 1), (1, 2), (2, 3)]
