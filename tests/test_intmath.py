import math
from fractions import Fraction

import pytest

from modfold.intmath import (
    NotInvertibleError,
    _check_exact,
    mod_inverse,
    round_half_up,
    round_half_up_div,
)


class TestModInverse:
    def test_identity(self):
        assert mod_inverse(1, 7) == 1

    def test_small(self):
        assert mod_inverse(3, 7) == 5

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            mod_inverse(4, 6)

    def test_modulus_one(self):
        assert mod_inverse(3, 1) == 0

    def test_range_and_product(self):
        for m in range(1, 40):
            for a in range(1, m + 1):
                if math.gcd(a, m) == 1:
                    b = mod_inverse(a, m)
                    assert 0 <= b < m
                    assert (a * b) % m == 1 % m
                else:
                    with pytest.raises(NotInvertibleError):
                        mod_inverse(a, m)


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "num,den,expected",
        [(1, 2, 1), (-1, 2, 0), (7, 3, 2), (0, 5, 0), (3, 2, 2), (-3, 2, -1)],
    )
    def test_examples(self, num, den, expected):
        assert round_half_up_div(num, den) == expected

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ValueError):
            round_half_up_div(3, 0)
        with pytest.raises(ValueError):
            round_half_up_div(3, -2)

    def test_window_exhaustive(self):
        # z is the rounding of n/d iff -1/2 <= n/d - z < 1/2
        for d in range(1, 51):
            for n in range(-1000, 1001):
                z = round_half_up_div(n, d)
                diff = Fraction(n, d) - z
                assert Fraction(-1, 2) <= diff < Fraction(1, 2), (n, d, z)

    def test_fraction_variant_matches(self):
        for d in range(1, 30):
            for n in range(-200, 201):
                assert round_half_up(Fraction(n, d)) == round_half_up_div(n, d)
        assert round_half_up(7) == 7
        assert round_half_up(Fraction(5, 2)) == 3
        assert round_half_up(Fraction(-5, 2)) == -2


class TestExactIntsOnly:
    @pytest.mark.parametrize(
        "num, den", [(7, 2.0), (7.0, 2), (True, 2), (7, True), ("7", 2)]
    )
    def test_round_half_up_div(self, num, den):
        with pytest.raises(ValueError, match="must be an int"):
            round_half_up_div(num, den)

    @pytest.mark.parametrize("x", [2.5, 3.0, True, "3", None])
    def test_round_half_up(self, x):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            round_half_up(x)

    @pytest.mark.parametrize("a, m", [(3, 7.0), (3.0, 7), (True, 7), (3, True)])
    def test_mod_inverse(self, a, m):
        with pytest.raises(ValueError, match="must be an int"):
            mod_inverse(a, m)

    def test_mod_inverse_modulus_below_one(self):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            mod_inverse(3, 0)


class TestCheckExact:
    @pytest.mark.parametrize("value", [0, 3, Fraction(5, 2)])
    def test_accepts_ints_and_fractions(self, value):
        assert _check_exact("tau", value, 0) is value

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_rejects_other_types(self, value):
        with pytest.raises(ValueError, match="tau must be an int or a Fraction"):
            _check_exact("tau", value)

    @pytest.mark.parametrize("value", [-1, Fraction(-1, 2)])
    def test_rejects_below_low(self, value):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            _check_exact("tau", value, 0)
