"""Exact integer and rational primitives shared by the whole package.

Everything here is arbitrary precision: moduli products routinely overflow
64-bit types, and the rounding rule decides folding numbers right at the
boundary, so no floating point is allowed anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "NotInvertibleError",
    "mod_inverse",
    "round_half_up_div",
    "round_half_up",
]


class NotInvertibleError(ValueError):
    """Raised when a modular inverse does not exist (gcd != 1)."""


def _check_int(name: str, value, low: int | None = None) -> int:
    """Return value if it is an int (not a bool) and at least low.

    Every public entry point passes its integer inputs through here or
    through _check_ints, the one gate for sequences of ints, so a float or
    a bool is rejected instead of being truncated or carried on.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def _check_index(name: str, value, size: int) -> int:
    """Return value if it is an int in [0, size); the message names no
    value, which may be past the digit limit."""
    if not 0 <= _check_int(name, value) < size:
        raise ValueError(f"{name} out of range")
    return value


def _check_exact(name: str, value, low: int | None = None) -> int | Fraction:
    """Return value if it is an int (not a bool) or a Fraction, at least low.

    The exact-rational counterpart of _check_int, for error bounds.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def _check_ints(name: str, values: Iterable) -> tuple[int, ...]:
    """_check_int on every value; returns them as a tuple.

    A tuple of plain ints passes in one type scan and is returned as is.
    """
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):
        for v in values:
            _check_int(name, v)
    return values


def _check_positive(moduli: Sequence[int]) -> None:
    """ValueError naming by index, not value, a modulus that is <= 0."""
    if moduli and min(moduli) <= 0:
        i = next(i for i, m in enumerate(moduli) if m <= 0)
        raise ValueError(f"moduli must be positive, index {i} is not")


def mod_inverse(a: int, m: int) -> int:
    """Return b in [0, m) with a*b == 1 (mod m).

    a and m must be ints (not bools).  Raises NotInvertibleError when
    gcd(a, m) != 1.
    """
    _check_int("a", a)
    _check_int("modulus", m, 1)
    return _mod_inverse(a, m)


def _mod_inverse(a: int, m: int) -> int:
    """mod_inverse on ints already known to be valid (m >= 1).

    Plan builders call it with constants they derived from checked moduli.
    """
    try:
        return pow(a % m, -1, m)
    except ValueError:
        # no values: they may be too long to print
        raise NotInvertibleError(
            "a has no inverse modulo the modulus: they share a factor"
        ) from None


def round_half_up_div(num: int, den: int) -> int:
    """Nearest integer to num/den, exact halves rounding up.

    Returns the unique z with -1/2 <= num/den - z < 1/2.  num and den must
    be ints (not bools) and den > 0.
    """
    _check_int("numerator", num)
    if _check_int("denominator", den) <= 0:
        raise ValueError("denominator must be positive")
    return _round_half_up_div(num, den)


def _round_half_up_div(num: int, den: int) -> int:
    """round_half_up_div on ints already known to be valid (den > 0)."""
    return (2 * num + den) // (2 * den)


def round_half_up(x: Fraction | int) -> int:
    """round_half_up_div for exact rationals: an int or a Fraction only."""
    f = Fraction(_check_exact("x", x))
    return _round_half_up_div(f.numerator, f.denominator)
