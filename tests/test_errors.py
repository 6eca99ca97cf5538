"""The one failure rule of `carscid.errors`: `located` names where every
`CarscidError` arose, and `batch_or_items`, with the warnings of `warn`, gives
what an item-by-item run gives."""
import importlib.machinery
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


def _synthetic_run(kinds, calls, name="item"):
    """run(lo, hi) over items whose kinds are "ok", "warn" or "raise": each "warn"
    item of the slice warns through `carscid.errors.warn`, the last one first, so
    that only the batch's sort restores item order; then the first "raise" item
    raises, and otherwise the slice's labels come back.  Every call is appended
    to `calls`; texts and labels begin with `name`."""
    def run(lo, hi):
        calls.append((lo, hi))
        for j in reversed(range(lo, hi)):
            if kinds[j] == "warn":
                carscid.errors.warn(f"{name} {j} warns", j - lo)
        for j in range(lo, hi):
            if kinds[j] == "raise":
                raise CarscidError(f"{name} {j} fails")
        return [f"{name} {j}" for j in range(lo, hi)]
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


def test_other_code_warns_as_raised_inside_a_batch(monkeypatch):
    monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)

    def run(lo, hi):
        for j in reversed(range(lo, hi)):
            carscid.errors.warn(f"held {j}", j - lo)
            warnings.warn(f"plain {j}")
        return list(range(lo, hi))

    outcome = _outcome(batch_or_items(2, run))
    assert outcome == ([0, 1], ["plain 1", "plain 0", "held 0", "held 1"], None)


def _nested_outcome(size, fails):
    """`_outcome` of an outer batch of two items that warns, then runs an inner
    batch of `size` items that warn, which raises as a whole, while each of its
    items passes, if it `fails`."""
    outer = _synthetic_run(["warn", "warn"], [], "outer")
    items = _synthetic_run(["warn"] * size, [], "inner")

    def inner(lo, hi):
        parts = items(lo, hi)
        if fails and hi - lo > 1:
            raise CarscidError("the inner batch fails")
        return parts

    def run(lo, hi):
        parts = outer(lo, hi)
        parts += [label for part in batch_or_items(size, inner) for label in part]
        # the outer batch's hold, intact
        assert [args[0] for _, args in carscid.errors._held] == ["outer 1 warns",
                                                                 "outer 0 warns"]
        return parts

    return _outcome(batch_or_items(2, run))


def test_a_batch_run_inside_a_batch_keeps_its_own_hold(monkeypatch):
    # the inner batch issues its warnings as it passes, or item by item as it is
    # rerun or runs one item, never held by the outer batch that is running it
    monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)
    for size, fails in ((2, False), (2, True), (1, False)):  # passing, failing, one item
        inner = [f"inner {j}" for j in range(size)]
        assert _nested_outcome(size, fails) == (
            ["outer 0", "outer 1", *inner],
            [f"{label} warns" for label in inner] + ["outer 0 warns", "outer 1 warns"], None)
        assert carscid.errors._held is None


def test_a_held_warning_of_code_with_no_source_is_issued(monkeypatch):
    # a `python -c` script: its loader cannot give the source of `__main__`
    monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)
    script = {"__name__": "__main__", "__loader__": importlib.machinery.BuiltinImporter,
              "warn": carscid.errors.warn}
    exec(compile("def run(lo, hi):\n"
                 "    for j in range(lo, hi):\n"
                 "        warn(f'item {j} warns', j - lo)\n"
                 "    return [lo]\n", "<string>", "exec"), script)
    assert _outcome(batch_or_items(2, script["run"])) == (
        [0], ["item 0 warns", "item 1 warns"], None)
