from enum import IntEnum
from functools import lru_cache
from types import CellType, FunctionType

import pytest

from modfold import simulate
from modfold.robust import FoldingFailure


def watch(family):
    """The family's checked scan, calling its solve through a recorder.

    family is (scan, checked_scan, solve) as simulate._compile_scans
    returns it.  The checked scan is rebuilt from its code with a new
    cell for solve, holding a function that records each call's
    arguments, a failing trial's erroneous remainders, and then runs the
    family's solve; the family itself is left as it was.  Returns
    (checked_scan, calls), calls the list of recorded argument tuples.
    """
    _, checked_scan, solve = family
    calls = []

    def recorder(*rt):
        calls.append(rt)
        return solve(*rt)

    code = checked_scan.__code__
    closure = tuple(
        CellType(recorder) if name == "solve" else cell
        for name, cell in zip(code.co_freevars, checked_scan.__closure__)
    )
    rebuilt = FunctionType(code, checked_scan.__globals__, code.co_name,
                           None, closure)
    return rebuilt, calls


def scored(scan, rows, span, off, tau):
    """What one scan call adds into a fresh level over rows: (total, top,
    bad, failures, skipped), the level's sums as simulate._compile_scans
    lays a level out."""
    level = [span, off, tau, 0, 0, 0, 0, 0]
    scan(rows, level)
    assert level[:3] == [span, off, tau]
    return tuple(level[3:])


# the watched checked scan of each family checked_move has scored with
_watched = lru_cache(maxsize=None)(watch)


def _checked_move(plan, errors):
    """The move the plan's checked scan gives one error vector, or None
    when the scan solves the trial instead.

    The vector is scored as a one-row block, laid out as
    tests/test_moves.py::block_of lays one out: off exceeds every |error|
    and span = 2 off + 1, so the raw draw d + off maps to error d.  The
    anchor offset is off, and every move lies between the least and the
    greatest error, so a passing trial's total is off + move.
    """
    off = 1 + max(map(abs, errors))
    row = (*[d + off for d in errors], *[0] * len(errors), off, 0)
    checked_scan, calls = _watched(simulate._scans(plan, False))
    calls.clear()
    total, *_ = scored(checked_scan, [row], 2 * off + 1, off, 0)
    if calls:
        # a failing trial is solved on its erroneous remainders, handed
        # over as one tuple
        assert calls == [(tuple(errors),)]
        return None
    return total - off


@pytest.fixture
def checked_move():
    return _checked_move


def result_of(call):
    """call()'s value, or the exception it raised as its type and message,
    with a FoldingFailure's partial results."""
    try:
        return call()
    except FoldingFailure as exc:
        return FoldingFailure, exc.reason, exc.partial_folding, exc.partial_estimate
    except Exception as exc:
        return type(exc), str(exc)


class Unseen(dict):
    """A warm table that finds nothing and hashes no key: a decode with
    it in place runs the checked path alone."""

    def get(self, key, default=None):
        return default


class Tone(IntEnum):
    """Remainders of 1244 over (135, 180, 162) as int subclass values."""

    LOW = 29
    HIGH = 164


class Moduli(tuple):
    """A tuple subclass: it hashes and compares as its tuple."""


class HashRaises(tuple):
    """A tuple subclass whose hash raises what a key's hash seldom does."""

    def __hash__(self):
        raise ArithmeticError("no hash")
