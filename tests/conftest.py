import pytest

from modfold.simulate import _scans


def _checked_move(plan, errors):
    """The move the plan's checked scan gives one error vector, or None
    when the scan hands the trial back.

    The vector is scored as a one-row block, laid out as
    tests/test_moves.py::block_of lays one out: off exceeds every |error|
    and span = 2 off + 1, so the raw draw d + off maps to error d.  The
    anchor offset is off, and every move lies between the least and the
    greatest error, so the scan's total is off + move.
    """
    off = 1 + max(map(abs, errors))
    row = [d + off for d in errors] + [0] * len(errors) + [off]
    failed = []
    total, _, _ = _scans(plan, False)[1]([row], 2 * off + 1, off, 0, failed)
    if failed:
        # a failing trial is handed back with its erroneous remainders
        assert failed == [(0, *errors)]
        return None
    return total - off


@pytest.fixture
def checked_move():
    return _checked_move
