import math
import random
from enum import IntEnum
from fractions import Fraction

import pytest

from modfold.congruence import CongruenceSystem, remainders_of
from modfold.grouping import candidate_sets, minimal_covers
from modfold.intmath import (
    NotInvertibleError,
    _check_exact,
    _check_int,
    _check_ints,
    mod_inverse,
    round_half_up,
    round_half_up_div,
)
from modfold.multistage import fused_error_bound, reconstruct_tree
from modfold.robust import check_ns_condition, folding_oracle, solve_folding


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


class Level(IntEnum):
    LOW = 1
    HIGH = 7


def _rejection(fn, *args):
    """The message of the ValueError fn raises on args, None if it accepts."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _per_value(name, values):
    for v in values:
        _check_int(name, v)


class IntLike:
    """An integer that is no int subclass, as np.int64 is: it converts
    through __index__ and __int__, and it compares and hashes as its int,
    so a cache keyed on it would take it for that int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    __int__ = __index__

    def __eq__(self, other):
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"IntLike({self.value})"


INTS = (0, 1, -7, 12, 10**30, Level.HIGH)
MIXED = INTS + (True, False, 2.0, 0.5, -3.0, Fraction(3), Fraction(1, 2))


class TestOneGate:
    """_check_ints, the one exact-int gate, against a per-value loop."""

    def _differential(self, pool, seed):
        rng = random.Random(seed)
        for _ in range(3000):
            kinds = INTS if rng.random() < 0.4 else pool
            values = [rng.choice(kinds) for _ in range(rng.randint(0, 6))]
            expected = _rejection(_per_value, "modulus", values)
            assert _rejection(_check_ints, "modulus", values) == expected
            if expected is None:
                out = _check_ints("modulus", values)
                assert type(out) is tuple
                assert all(a is b for a, b in zip(out, values))
                assert len(out) == len(values)

    def test_matches_the_per_value_check(self):
        self._differential(MIXED, 21)

    def test_int_like_values_are_rejected_alike(self):
        # the numpy case below, without numpy
        like = IntLike(5)
        assert (like, int(like), hash(like)) == (5, 5, hash(5))
        assert {(3, like): 0}[(3, 5)] == 0  # one cache key with the int
        self._differential(MIXED + (IntLike(3), IntLike(-2)), 23)
        with pytest.raises(ValueError, match="must be an int, got IntLike"):
            _check_ints("modulus", (3, like))

    def test_numpy_ints_are_rejected_alike(self):
        np = pytest.importorskip("numpy")
        self._differential(MIXED + (np.int64(3), np.int64(-2)), 22)
        with pytest.raises(ValueError, match="must be an int"):
            _check_ints("modulus", (3, np.int64(5)))

    def test_an_int_tuple_passes_through(self):
        values = (3, 5, 7)
        assert _check_ints("modulus", values) is values
        assert _check_ints("modulus", iter([3, 5])) == (3, 5)


MS = (135, 180, 162)
RT = [5, 184, 114]
TREE = "[[0,1],[2]]"
BAD_TREE = "[[0,1.0],[2]]"
solve, recon, system = solve_folding, reconstruct_tree, CongruenceSystem

# (call, arguments, the exact message); the first bad input found wins
REJECTIONS = [
    (solve, ((135.0, 180, 162), RT, 0), "modulus must be an int, got 135.0"),
    (solve, ((135, True, 162), RT, 0), "modulus must be an int, got True"),
    (solve, (MS, [5, 184.0, 114], 0), "remainder must be an int, got 184.0"),
    (solve, (MS, [5, 184, False], 0), "remainder must be an int, got False"),
    (solve, (MS, [5, 184.0], 0), "remainders and moduli lengths differ"),
    (solve, ((135, 2.0, 162), [5, 184.0], 0), "modulus must be an int, got 2.0"),
    (solve, (MS, RT, True), "reference index must be an int, got True"),
    (solve, (MS, [5.0, 184, 114], 1.0), "reference index must be an int, got 1.0"),
    (solve, (MS, [5.0, 184, 114], 3), "reference index out of range"),
    (recon, ((135, 180.0, 162), RT, TREE), "modulus must be an int, got 180.0"),
    (recon, (MS, [5, 184, 114.0], TREE), "remainder must be an int, got 114.0"),
    (recon, (MS, [True, 184, 114], TREE), "remainder must be an int, got True"),
    (recon, (MS, [5, 184.0], TREE), "remainders and moduli lengths differ"),
    (recon, (MS, RT, BAD_TREE), "leaf index must be an int, got 1.0"),
    (recon, (MS, [5, 2.0], BAD_TREE), "leaf index must be an int, got 1.0"),
    (recon, ((2.0, 180), [5, 2.0], BAD_TREE), "modulus must be an int, got 2.0"),
    (system, ([1, 2.0], [3, 5]), "residue must be an int, got 2.0"),
    (system, ([1, 2], [3, 5.0]), "modulus must be an int, got 5.0"),
    (system, ([1, 2], [True, 5]), "modulus must be an int, got True"),
    (system, ([1, 2, 3], [3, 5.0]), "modulus must be an int, got 5.0"),
    (system, ([False], [3.0, 5]), "residue must be an int, got False"),
    (system, ([1, 2, 3], [3, 5]), "3 residues but 2 moduli"),
    (system, ([1, 2], [3, 0]), "moduli must be positive, index 1 is not"),
    (remainders_of, (7.0, (3, 5)), "n must be an int, got 7.0"),
    (remainders_of, (True, (3, 5)), "n must be an int, got True"),
    (remainders_of, (7, (3, 5.0)), "modulus must be an int, got 5.0"),
    (remainders_of, (7.0, (3, 5.0)), "n must be an int, got 7.0"),
    (remainders_of, (7, (3, 0.0)), "modulus must be an int, got 0.0"),
    (remainders_of, (7, (3, 0)), "moduli must be positive, index 1 is not"),
]


class TestPublicRejectionOrder:
    @pytest.mark.parametrize(
        "call, args, message",
        REJECTIONS,
        ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(REJECTIONS)],
    )
    def test_message(self, call, args, message):
        assert _rejection(call, *args) == message

    def test_int_subclasses_are_accepted(self):
        ms = (Level.HIGH, 9)
        assert remainders_of(Level.HIGH * 10, ms) == (0, 7)
        assert CongruenceSystem([Level.LOW, 2], ms).residues == (1, 2)
        assert solve_folding(MS, [Level.HIGH, 7, 7], 0).estimate == 7
        tree = reconstruct_tree(MS, [Level.HIGH, 7, 7], TREE)
        assert tree.final.estimate == 7


class TestIteratorInputs:
    """Each sequence argument may be any iterable, read exactly once."""

    @pytest.mark.parametrize(
        "call, args",
        [
            (solve_folding, (MS, [31, 162, 111], 0)),
            (reconstruct_tree, (MS, [31, 162, 111], TREE)),
            (check_ns_condition, ([1, -2, 3], MS, 0)),
            (fused_error_bound, ([Fraction(9, 2), 3], [2, 1])),
            (folding_oracle, ((8, 12, 15), [5, 9, 14], 1)),
            (minimal_covers, (
                candidate_sets((210, 143, 77, 128, 81, 125, 169)), 7
            )),
        ],
        ids=["solve_folding", "reconstruct_tree", "check_ns_condition",
             "fused_error_bound", "folding_oracle", "minimal_covers"],
    )
    def test_an_iterator_acts_as_its_list(self, call, args):
        expected = call(*args)
        iterated = [iter(a) if isinstance(a, list) else a for a in args]
        assert call(*iterated) == expected

    def test_an_iterator_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            solve_folding(MS, iter([5, 184]), 0)
        with pytest.raises(ValueError, match="lengths differ"):
            reconstruct_tree(MS, iter([5, 184]), TREE)
