"""Exact integer and rational primitives shared by the whole package.

Everything here is arbitrary precision: moduli products routinely overflow
64-bit types, and the rounding rule decides folding numbers right at the
boundary, so no floating point is allowed anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = [
    "NotInvertibleError",
    "ext_gcd",
    "lcm_all",
    "mod_inverse",
    "round_half_up_div",
    "round_half_up",
]


class NotInvertibleError(ValueError):
    """Raised when a modular inverse does not exist (gcd != 1)."""


def _check_int(name: str, value, low: int | None = None) -> int:
    """Return value if it is an int (not a bool) and at least low.

    Every public entry point passes its integer inputs through here, so a
    float or a bool is rejected instead of being truncated or carried on.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def _check_ints(name: str, values: Iterable) -> list[int]:
    """_check_int on every value; returns them as a list."""
    values = list(values)
    if set(map(type, values)) - {int}:  # only then can a value be rejected
        for v in values:
            _check_int(name, v)
    return values


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with g = gcd(|a|, |b|) and a*x + b*y = g.

    gcd of signed inputs is the gcd of the absolute values; gcd(0, a) = |a|.
    Raises ValueError when both inputs are zero.
    """
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def lcm_all(values: Iterable[int]) -> int:
    """Least common multiple of a nonempty iterable of positive integers."""
    vals = list(values)
    if not vals:
        raise ValueError("lcm of an empty collection is undefined")
    for v in vals:
        if v <= 0:
            raise ValueError(f"lcm requires positive entries, got {v}")
    return math.lcm(*vals)


def mod_inverse(a: int, m: int) -> int:
    """Return b in [0, m) with a*b == 1 (mod m).

    Raises NotInvertibleError when gcd(a, m) != 1.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    try:
        return pow(a % m, -1, m)
    except ValueError:
        raise NotInvertibleError(f"{a} has no inverse modulo {m}") from None


def round_half_up_div(num: int, den: int) -> int:
    """Nearest integer to num/den, exact halves rounding up.

    Returns the unique z with -1/2 <= num/den - z < 1/2.  den must be > 0.
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    return (2 * num + den) // (2 * den)


def round_half_up(x: Fraction | int) -> int:
    """round_half_up_div for exact rationals."""
    f = Fraction(x)
    return (2 * f.numerator + f.denominator) // (2 * f.denominator)
