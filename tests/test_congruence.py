import math
import random
from itertools import permutations

import pytest

from modfold.congruence import (
    CongruenceSystem,
    InconsistentSystem,
    crt_coprime_closed_form,
    crt_general,
    crt_pair_merge,
    remainders_of,
)


def brute_force_crt(residues, moduli):
    """Scan 0..lcm-1 for the smallest solution; None if there is none."""
    lam = math.lcm(*moduli)
    for x in range(lam):
        if all(x % m == r % m for r, m in zip(residues, moduli)):
            return x
    return None


class TestPairMerge:
    def test_equal_residues(self):
        assert crt_pair_merge(2, 4, 2, 6) == (2, 12)

    def test_inconsistent(self):
        with pytest.raises(InconsistentSystem):
            crt_pair_merge(1, 4, 2, 6)

    def test_brute_force_example(self):
        assert crt_pair_merge(3, 4, 5, 6) == (11, 12)

    def test_requires_positive_moduli(self):
        with pytest.raises(ValueError):
            crt_pair_merge(0, 0, 1, 3)

    def test_random_pairs_against_scan(self):
        rng = random.Random(11)
        for _ in range(300):
            m, n = rng.randint(1, 40), rng.randint(1, 40)
            a, b = rng.randrange(m), rng.randrange(n)
            expected = brute_force_crt([a, b], [m, n])
            if expected is None:
                with pytest.raises(InconsistentSystem):
                    crt_pair_merge(a, m, b, n)
            else:
                c, l = crt_pair_merge(a, m, b, n)
                assert (c, l) == (expected, math.lcm(m, n))
                assert c % m == a and c % n == b


class TestGeneral:
    def test_all_zero(self):
        assert crt_general(CongruenceSystem([0, 0, 0], [4, 6, 9])) == 0

    def test_common_residue(self):
        assert crt_general(CongruenceSystem([2, 2], [9, 11])) == 2

    def test_non_coprime_example(self):
        assert crt_general(CongruenceSystem([5, 2, 3], [6, 9, 4])) == 11

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crt_general(CongruenceSystem([], []))

    def test_inconsistent_detected(self):
        with pytest.raises(InconsistentSystem):
            crt_general(CongruenceSystem([1, 2], [4, 6]))

    def test_merge_order_irrelevant(self):
        residues, moduli = (5, 2, 3, 7), (6, 9, 4, 10)
        base = crt_general(CongruenceSystem(residues, moduli))
        for perm in permutations(range(4)):
            sys_p = CongruenceSystem(
                [residues[i] for i in perm], [moduli[i] for i in perm]
            )
            assert crt_general(sys_p) == base

    def test_roundtrip_random_sets(self):
        rng = random.Random(23)
        for _ in range(40):
            count = rng.randint(2, 4)
            ms = rng.sample(range(2, 30), count)
            lam = math.lcm(*ms)
            for n in rng.sample(range(lam), min(lam, 25)):
                sys_ = CongruenceSystem(remainders_of(n, ms), ms)
                assert crt_general(sys_) == n


class TestCoprimeClosedForm:
    def test_all_zero(self):
        assert crt_coprime_closed_form(CongruenceSystem([0, 0], [3, 5])) == 0

    def test_small_example(self):
        assert crt_coprime_closed_form(CongruenceSystem([2, 3], [3, 5])) == 8

    def test_agrees_with_general(self):
        sys_ = CongruenceSystem([1, 2, 3], [4, 9, 5])
        assert crt_coprime_closed_form(sys_) == crt_general(sys_) == 173

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            crt_coprime_closed_form(CongruenceSystem([1, 2], [4, 6]))

    def test_random_equivalence(self):
        rng = random.Random(37)
        done = 0
        while done < 60:
            count = rng.randint(2, 4)
            ms = rng.sample(range(2, 40), count)
            if any(
                math.gcd(ms[i], ms[j]) != 1
                for i in range(count)
                for j in range(i + 1, count)
            ):
                continue
            rs = [rng.randrange(m) for m in ms]
            sys_ = CongruenceSystem(rs, ms)
            assert crt_coprime_closed_form(sys_) == crt_general(sys_)
            done += 1


class TestModulusOne:
    """A modulus 1 holds for every x: its congruence adds nothing."""

    @pytest.mark.parametrize("ms", [(1, 5), (5, 1), (1, 3, 7), (3, 7, 1)])
    def test_general_and_closed_form(self, ms):
        for n in range(math.lcm(*ms)):
            sys_ = CongruenceSystem(remainders_of(n, ms), ms)
            assert crt_general(sys_) == crt_coprime_closed_form(sys_) == n
        # residues are reduced, so any residue modulo 1 is 0
        sys_ = CongruenceSystem([4] * len(ms), ms)
        assert crt_general(sys_) == crt_coprime_closed_form(sys_) == 4

    def test_single_modulus_one(self):
        sys_ = CongruenceSystem([3], [1])
        assert crt_general(sys_) == crt_coprime_closed_form(sys_) == 0

    def test_pair_merge(self):
        for b in range(5):
            assert crt_pair_merge(3, 1, b, 5) == (b, 5)
            assert crt_pair_merge(b, 5, 3, 1) == (b, 5)
        assert crt_pair_merge(2, 1, 0, 1) == (0, 1)


class TestRemaindersOf:
    def test_zero(self):
        assert remainders_of(0, [7, 11, 13]) == (0, 0, 0)

    def test_known_vector(self):
        assert remainders_of(1000, [70, 75, 80, 90]) == (20, 25, 40, 10)

    def test_single_modulus(self):
        assert remainders_of(123, [8]) == (123 % 8,)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            remainders_of(5, [3, 0])

    def test_moduli_from_an_iterator(self):
        # the moduli are read once, by the int check
        assert remainders_of(1000, iter([70, 75, 80, 90])) == (20, 25, 40, 10)
        assert CongruenceSystem(iter([15, -1]), iter([4, 6])).residues == (3, 5)


class TestCongruenceSystem:
    def test_residues_reduced(self):
        sys_ = CongruenceSystem([15, -1], [4, 6])
        assert sys_.residues == (3, 5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CongruenceSystem([1], [2, 3])

    def test_positive_moduli_required(self):
        with pytest.raises(ValueError):
            CongruenceSystem([1], [0])

    def test_empty_system_rejected_at_construction(self):
        with pytest.raises(ValueError) as info:
            CongruenceSystem([], [])
        assert type(info.value) is ValueError
        assert str(info.value) == "empty congruence system"
        # lengths are compared first, as before
        with pytest.raises(ValueError, match="1 residues but 0 moduli"):
            CongruenceSystem([1], [])

    def test_rejects_non_int(self):
        with pytest.raises(ValueError, match="n must be an int"):
            remainders_of(1000.5, (7, 9))
        with pytest.raises(ValueError, match="modulus"):
            crt_pair_merge(1, 4.0, 3, 6)
        with pytest.raises(ValueError, match="residue"):
            CongruenceSystem([1.5], [4])
        with pytest.raises(ValueError, match="modulus"):
            CongruenceSystem([1], [4.2])
        with pytest.raises(ValueError, match="residue"):
            CongruenceSystem([True], [4])
