import inspect
import math
import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

import modfold.multistage as multistage
import modfold.robust as robust
from conftest import HashRaises, Moduli, Tone, Unseen, result_of

from modfold.congruence import (
    CongruenceSystem,
    InconsistentSystem,
    _merge,
    _merge_schedule,
    crt_coprime_closed_form,
    crt_general,
    crt_pair_merge,
    remainders_of,
)
from modfold.grouping import propose_grouping
from modfold.intmath import NotInvertibleError, mod_inverse, round_half_up_div
from modfold.multistage import (
    DegenerateTreeError,
    StageSolution,
    parse_tree,
    stage_bounds,
    validate_tree,
)
from modfold.robust import (
    FoldingFailure,
    FoldingSolution,
    _FoldingPlan,
    _folding_plan,
    _maxmin_gcd,
    _solve_with_plan,
    SearchCapExceeded,
    check_ns_condition,
    folding_oracle,
    per_remainder_bounds,
    prune_redundant,
    select_reference,
    solve_folding,
    theta_bound,
    validate_moduli,
)
from modfold.simulate import (
    TrialConfig,
    TrialStats,
    sweep,
    verify_exactness_condition,
)

EX1 = (70, 75, 80, 90)


def true_folding(n, ms):
    return tuple(n // m for m in ms)


class TestThetaBound:
    @pytest.mark.parametrize(
        "ms,expected",
        [
            ((70, 75, 80, 90), Fraction(10, 4)),
            ((180, 220, 486, 513), Fraction(9, 4)),
            ((135, 180, 162), Fraction(27, 4)),
            ((192, 144, 168, 112), Fraction(24, 4)),
        ],
    )
    def test_goldens(self, ms, expected):
        assert theta_bound(ms) == expected

    def test_matches_direct_maxmin(self):
        rng = random.Random(3)
        for _ in range(60):
            ms = tuple(rng.sample(range(2, 400), rng.randint(2, 6)))
            direct = max(
                min(
                    Fraction(math.gcd(ms[i], ms[j]), 4)
                    for j in range(len(ms))
                    if j != i
                )
                for i in range(len(ms))
            )
            assert theta_bound(ms) == direct

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            theta_bound([7])

    def test_scaling_invariance(self):
        rng = random.Random(17)
        for _ in range(40):
            ms = tuple(rng.sample(range(2, 200), rng.randint(2, 5)))
            c = rng.randint(2, 9)
            scaled = tuple(c * m for m in ms)
            assert theta_bound(scaled) == c * theta_bound(ms)
            assert select_reference(scaled) == select_reference(ms)


class TestSelectReference:
    def test_example_one(self):
        assert select_reference(EX1) == 3

    def test_tie_breaks_smallest(self):
        assert select_reference((330, 310, 1050, 1110)) == 0
        assert select_reference((21, 14)) == 0

    def test_attains_theta(self):
        rng = random.Random(29)
        for _ in range(40):
            ms = tuple(rng.sample(range(2, 300), rng.randint(2, 6)))
            k = select_reference(ms)
            attained = Fraction(
                min(math.gcd(ms[k], ms[j]) for j in range(len(ms)) if j != k),
                4,
            )
            assert attained == theta_bound(ms)


class TestPerRemainderBounds:
    def test_example_one(self):
        rep = per_remainder_bounds(EX1, 3)
        assert rep.theta == Fraction(10, 4)
        assert rep.per_remainder == (
            Fraction(10, 4),
            Fraction(20, 4),
            Fraction(10, 4),
            Fraction(10, 4),
        )
        assert rep.strict == (False, False, False, True)

    def test_example_two(self):
        rep = per_remainder_bounds((330, 310, 1050, 1110), 0)
        assert rep.per_remainder == (
            Fraction(10, 4),
            Fraction(10, 4),
            Fraction(50, 4),
            Fraction(50, 4),
        )
        assert rep.strict == (True, False, False, False)

    def test_two_moduli(self):
        rep = per_remainder_bounds((12, 18), 0)
        g4 = Fraction(6, 4)
        assert rep.per_remainder == (g4, g4)
        assert rep.strict == (True, False)

    def test_invalid_reference_rejected(self):
        with pytest.raises(ValueError):
            per_remainder_bounds(EX1, 0)  # 70 does not attain the max-min
        with pytest.raises(ValueError):
            per_remainder_bounds(EX1, 9)


class TestPruneRedundant:
    def test_drops_divisor(self):
        assert prune_redundant((10, 45, 30)) == (45, 30)

    def test_keeps_non_divisor(self):
        assert prune_redundant((20, 45, 30)) == (20, 45, 30)

    def test_no_divisibility_unchanged(self):
        assert prune_redundant((8, 12, 15)) == (8, 12, 15)

    def test_chain(self):
        assert prune_redundant((2, 4, 8, 3)) == (8, 3)

    def test_lcm_preserved_and_theta_never_drops(self):
        rng = random.Random(41)
        for _ in range(80):
            base = rng.sample(range(2, 120), rng.randint(2, 5))
            ms = list(base)
            # graft in some divisors to create prunable entries
            for m in base:
                if rng.random() < 0.5:
                    d = rng.choice([d for d in range(1, m + 1) if m % d == 0])
                    if d not in ms:
                        ms.append(d)
            pruned = prune_redundant(ms)
            # by definition: every modulus no other one is a multiple of
            assert pruned == tuple(
                m
                for i, m in enumerate(ms)
                if not any(j != i and o % m == 0 for j, o in enumerate(ms))
            )
            assert math.lcm(*pruned) == math.lcm(*ms)
            if len(pruned) >= 2:
                assert theta_bound(pruned) >= theta_bound(ms)


class TestQHatAndCondition:
    def test_zero_deltas(self):
        assert check_ns_condition([0, 0, 0, 0], EX1, 3)

    def test_boundary_violation(self):
        # difference of 5 must be strictly below gcd(70, 90)/2 = 5
        assert not check_ns_condition([5, 0, 0, 0], EX1, 3)

    def test_inside_window(self):
        assert check_ns_condition([2, -2, 1, 0], EX1, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_ns_condition([0, 0], EX1, 3)

    @pytest.mark.parametrize(
        "deltas,moduli",
        [
            ([0.4, 0, 0], (8, 12, 15)),
            ([0, True, 0], (8, 12, 15)),
            ([0, 0, 0], (8.0, 12, 15)),
            ([0, 0, 0], (8, 12, 12)),
        ],
    )
    def test_rejects_non_int_input(self, deltas, moduli):
        with pytest.raises(ValueError):
            check_ns_condition(deltas, moduli, 1)


    def test_one_modulus(self):
        # no pair to check, though no folding plan exists for it
        assert check_ns_condition([0], (8,), 0)
        assert check_ns_condition([5], (8,), 0)
        with pytest.raises(ValueError, match="at least two moduli"):
            _FoldingPlan((8,), 0)


class TestCheckedScan:
    def test_pairs(self):
        plan = _folding_plan(EX1, 3)
        assert plan.pairs == ((0, 10), (1, 15), (2, 10))

    def test_none_exactly_when_the_solve_misses(self, checked_move):
        # every unknown below the lcm and every error vector in [-2, 2]^3,
        # scored through the plan's checked scan: a certificate is the
        # solve's exact outcome, a refusal a miss
        ms = (8, 12, 15)
        plan = _folding_plan(ms, select_reference(ms))
        moves = {
            deltas: checked_move(plan, deltas)
            for deltas in product(range(-2, 3), repeat=3)
        }
        issued = refused = 0
        for n in range(math.lcm(*ms)):
            truth = true_folding(n, ms)
            for deltas, move in moves.items():
                try:
                    folding, est = _solve_with_plan(
                        plan, [n % m + d for m, d in zip(ms, deltas)]
                    )
                except FoldingFailure:
                    folding = est = None
                if move is None:
                    refused += 1
                    assert folding != truth, (n, deltas)
                else:
                    issued += 1
                    assert (folding, est) == (truth, n + move), (n, deltas)
                # the paper's condition, from the moduli alone
                mk, dk = ms[plan.k], deltas[plan.k]
                assert (move is not None) == all(
                    -math.gcd(mk, m) <= 2 * (d - dk) < math.gcd(mk, m)
                    for m, d in zip(ms, deltas)
                )
        assert issued > 1000 and refused > 1000


class TestMaxminGcd:
    def test_matches_brute_force(self):
        rng = random.Random(17)
        ties = 0
        for size in [1, 2] * 100 + [rng.randint(3, 8) for _ in range(800)]:
            base = rng.choice([2, 3, 4, 6, 12])
            values = [base * rng.randint(1, 20) for _ in range(size)]
            rows = [
                min(
                    [math.gcd(v, w) for j, w in enumerate(values) if j != i]
                    or [v]
                )
                for i, v in enumerate(values)
            ]
            best = max(rows)
            assert _maxmin_gcd(values) == (best, rows.index(best)), values
            ties += rows.count(best) > 1
        assert ties > 600  # the first index must win many real ties

    def test_single_and_pair(self):
        assert _maxmin_gcd([7]) == (7, 0)
        assert _maxmin_gcd([12, 18]) == (6, 0)
        assert _maxmin_gcd([18, 12]) == (6, 0)


class TestSolveFolding:
    def test_exact_remainders(self):
        n = 1000
        sol = solve_folding(EX1, [n % m for m in EX1], 3)
        assert sol.folding == (14, 13, 12, 11)
        assert sol.estimate == 1000
        assert sol.reference_index == 3

    def test_noisy_within_condition(self):
        r = [1000 % m for m in EX1]
        rt = [a + d for a, d in zip(r, (2, -2, 1, 0))]
        sol = solve_folding(EX1, rt, 3)
        assert sol.folding == (14, 13, 12, 11)
        assert sol.estimate == 1000  # rounded from 4001/4

    def test_boundary_breaks_recovery(self):
        r = [1000 % m for m in EX1]
        rt = [r[0] + 5, r[1], r[2], r[3]]
        try:
            sol = solve_folding(EX1, rt, 3)
            assert sol.folding != (14, 13, 12, 11)
        except FoldingFailure:
            pass

    def test_negative_folding_reports_partial(self):
        with pytest.raises(FoldingFailure) as exc:
            solve_folding((8, 12), [-6, 4], 0)
        assert exc.value.reason == "negative folding number"
        assert exc.value.partial_folding == (0, -1)
        assert exc.value.partial_estimate == -7

    def test_contradictory_congruences(self):
        # q estimates with mismatched parity make the merge impossible
        ms = (135, 180, 162)
        found = False
        for n in (7, 500, 1200):
            r = [n % m for m in ms]
            try:
                sol = solve_folding(ms, [r[0], r[1], r[2] + 14], 0)
                assert sol.folding != true_folding(n, ms)
            except FoldingFailure as e:
                assert e.partial_estimate is None
                found = True
        assert found

    def test_coprime_plan_matches_oracle(self):
        # reference 3 on EX1 yields pairwise-coprime congruence moduli
        plan = _folding_plan(EX1, 3)
        cong_moduli = [n for _, n, _ in plan.derive]
        assert math.lcm(*cong_moduli) == math.prod(cong_moduli)
        rng = random.Random(53)
        for _ in range(12):
            n = rng.randrange(math.lcm(*EX1))
            rt = [n % m + rng.randint(-2, 2) for m in EX1]
            sol = solve_folding(EX1, rt, 3)
            assert sol.folding == true_folding(n, EX1)
            oracle = folding_oracle(EX1, rt, 2)
            assert (sol.folding, sol.estimate) in [
                (s.folding, s.estimate) for s in oracle
            ]

    @pytest.mark.parametrize("bad", [22.5, 23.0, False])
    def test_rejects_non_int_remainders(self, bad):
        with pytest.raises(ValueError, match="remainder"):
            solve_folding(EX1, [bad, 23, 41, 10], 3)

    def test_rejects_non_int_reference(self):
        solve_folding(EX1, [22, 23, 41, 10], 3)  # plan for index 3 cached
        with pytest.raises(ValueError, match="reference index"):
            solve_folding(EX1, [22, 23, 41, 10], 3.0)
        with pytest.raises(ValueError, match="reference index"):
            per_remainder_bounds(EX1, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_folding((8,), [0], 0)
        with pytest.raises(ValueError):
            solve_folding((8, 8), [0, 0], 0)
        with pytest.raises(ValueError):
            solve_folding((8, 12), [0], 0)
        with pytest.raises(ValueError):
            solve_folding((8, 12), [0, 0], 5)

    @pytest.mark.parametrize(
        "moduli, k",
        [
            ((8.0, 12, 15), 0),  # hashes equal to the cached int tuple
            ((8, 12, True), 0),
            ((8,), 0),
            ((8, 8, 15), 0),
            ((-8, 12, 15), 1),
            ((0, 12, 15), 1),
        ],
    )
    def test_validation_with_warm_cache(self, moduli, k):
        # the moduli checks live in the plan; a cached plan must not let
        # a bad moduli set through, and a failed build is not cached
        rt = [4, 4, 10]  # the remainders of 100
        solve_folding((8, 12, 15), rt, 0)
        solve_folding((8, 12, 15), rt, 1)
        rt = rt[: len(moduli)]
        for _ in range(2):
            with pytest.raises(ValueError):
                solve_folding(moduli, rt, k)


class TestExactnessConditionSampled:
    """Exhaustive sweep lives in the acceptance suite; spot-check here."""

    def test_sufficiency_and_necessity(self):
        ms = (8, 12, 15)
        k = select_reference(ms)
        lam = math.lcm(*ms)
        rng = random.Random(61)
        for _ in range(3000):
            n = rng.randrange(lam)
            deltas = tuple(rng.randint(-4, 4) for _ in ms)
            rt = [n % m + d for m, d in zip(ms, deltas)]
            ok = check_ns_condition(deltas, ms, k)
            try:
                exact = solve_folding(ms, rt, k).folding == true_folding(n, ms)
            except FoldingFailure:
                exact = False
            assert ok == exact, (n, deltas)


class TestThetaGuarantee:
    def test_random_sets_below_theta(self):
        rng = random.Random(71)
        checked = 0
        while checked < 30:
            ms = tuple(sorted(rng.sample(range(4, 90), rng.randint(2, 4))))
            if math.lcm(*ms) > 300_000:
                continue
            theta = theta_bound(ms)
            tau = int(theta) if theta != int(theta) else int(theta) - 1
            if tau < 0:
                continue
            k = select_reference(ms)
            lam = math.lcm(*ms)
            for _ in range(40):
                n = rng.randrange(lam)
                deltas = [rng.randint(-tau, tau) for _ in ms]
                rt = [n % m + d for m, d in zip(ms, deltas)]
                sol = solve_folding(ms, rt, k)
                assert sol.folding == true_folding(n, ms)
                assert abs(sol.estimate - n) <= tau
            checked += 1


class TestFoldingOracle:
    def test_exact_remainders_unique(self):
        ms = (8, 12, 15)
        sols = folding_oracle(ms, [97 % m for m in ms], 0)
        assert len(sols) == 1
        assert sols[0].folding == true_folding(97, ms)

    def test_window_example(self):
        sols = folding_oracle((8, 12), (1, 5), 1)
        assert [s.folding for s in sols] == [(2, 1)]
        assert sols[0].estimate == 17

    def test_inconsistent_empty(self):
        assert folding_oracle((4, 6), (1, 2), 0) == []

    def test_rejects_non_int_remainders(self):
        # a float remainder once leaked into the estimate (2.0)
        with pytest.raises(ValueError, match="remainder"):
            folding_oracle((8, 12), (1.5, 2), 1)
        with pytest.raises(ValueError, match="remainder"):
            folding_oracle((8, 12), (True, 2), 1)

    def test_fraction_tau_accepted(self):
        sols = folding_oracle((8, 12), (1, 5), Fraction(3, 2))
        assert [s.folding for s in sols] == [(2, 1)]
        assert type(sols[0].estimate) is int

    def test_cap(self):
        with pytest.raises(SearchCapExceeded):
            folding_oracle((1013, 1019, 1021), (0, 0, 0), 0, cap=10_000)

    @pytest.mark.parametrize("tau", [2.5, 2.0, True, "3", None])
    def test_rejects_inexact_tau(self, tau):
        # 2.5 and True once ran as bounds; "3" died with a bare TypeError
        with pytest.raises(ValueError, match="tau"):
            folding_oracle((8, 12, 15), [1, 2, 3], tau)

    @pytest.mark.parametrize("cap", [1e9, 10.5, True, "100"])
    def test_rejects_non_int_cap(self, cap):
        # 1e9 was accepted as a cap
        with pytest.raises(ValueError, match="cap"):
            folding_oracle((8, 12, 15), [1, 2, 3], 1, cap=cap)

    @pytest.mark.parametrize("tau", [-1, Fraction(-1, 2)])
    def test_rejects_negative_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            folding_oracle((8, 12, 15), [1, 2, 3], tau)

    def test_agrees_with_solver_inside_bound(self):
        ms = (40, 60, 45)
        theta = theta_bound(ms)
        assert Fraction(3) < theta  # 15/4
        k = select_reference(ms)
        rng = random.Random(83)
        for _ in range(15):
            n = rng.randrange(math.lcm(*ms))
            rt = [n % m + rng.randint(-3, 3) for m in ms]
            sols = folding_oracle(ms, rt, 3)
            solved = solve_folding(ms, rt, k).folding
            assert solved in [s.folding for s in sols]


class TestValidateModuli:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            validate_moduli((3, -1))
        with pytest.raises(ValueError):
            validate_moduli(())

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "5", Fraction(5)])
    def test_rejects_non_int(self, bad):
        with pytest.raises(ValueError, match="modulus"):
            validate_moduli((bad, 7))
        with pytest.raises(ValueError, match="modulus"):
            theta_bound((12, bad))


# an int whose str() exceeds the interpreter's default digit limit (4,300)
HUGE = 10**4400 + 1


class TestMessagesPastTheDigitLimit:
    """Errors about moduli too long to print name positions, not values."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda: validate_moduli((HUGE, HUGE)),
                ValueError,
                "moduli must be distinct, indices 0 and 1 are equal",
            ),
            (
                lambda: validate_moduli((-HUGE, 3)),
                ValueError,
                "moduli must be positive, index 0 is not",
            ),
            (
                lambda: stage_bounds("[[0,1],[0,1]]", (2 * HUGE, 3 * HUGE)),
                DegenerateTreeError,
                "children 0 and 1 of node () share an lcm",
            ),
            (
                lambda: propose_grouping((HUGE, 2 * HUGE, 3 * HUGE, 5)),
                ValueError,
                "the modulus at index 0 divides the one at index 1; "
                "run prune_redundant first",
            ),
            (
                lambda: mod_inverse(2 * HUGE, 4 * HUGE),
                NotInvertibleError,
                "a has no inverse modulo the modulus: they share a factor",
            ),
            (
                lambda: folding_oracle((HUGE, HUGE + 1), [0, 0], 1),
                SearchCapExceeded,
                "the lcm of the moduli exceeds the cap",
            ),
            (
                lambda: verify_exactness_condition((HUGE, HUGE + 1)),
                SearchCapExceeded,
                "the number of cases exceeds the cap",
            ),
            (
                lambda: per_remainder_bounds(
                    (4 * HUGE, 6 * HUGE, 9 * HUGE), 2
                ),
                ValueError,
                "index 2 does not attain the max-min bound; index 1 does",
            ),
            (
                lambda: crt_pair_merge(0, 2 * HUGE, 1, 4 * HUGE),
                InconsistentSystem,
                "x == a (mod m) contradicts x == b (mod n)",
            ),
            (
                lambda: crt_general(
                    CongruenceSystem([0, 1], [2 * HUGE, 4 * HUGE])
                ),
                InconsistentSystem,
                "congruences 0 and 1 contradict each other",
            ),
            (
                lambda: crt_coprime_closed_form(
                    CongruenceSystem([0, 1], [2 * HUGE, 3 * HUGE])
                ),
                ValueError,
                "the moduli at indices 0 and 1 are not coprime",
            ),
            (
                lambda: CongruenceSystem([0, 1], [-HUGE, 3]),
                ValueError,
                "moduli must be positive, index 0 is not",
            ),
            (
                lambda: remainders_of(5, [3, -HUGE]),
                ValueError,
                "moduli must be positive, index 1 is not",
            ),
            (
                lambda: per_remainder_bounds((4, 6, 9), HUGE),
                ValueError,
                "reference index out of range",
            ),
            (
                lambda: check_ns_condition([0, 0], (3, 5), HUGE),
                ValueError,
                "reference index out of range",
            ),
            (
                lambda: solve_folding((3, 5), [0, 0], -HUGE),
                ValueError,
                "reference index out of range",
            ),
            (
                lambda: verify_exactness_condition((3, 5), reference=HUGE),
                ValueError,
                "reference index out of range",
            ),
            (
                lambda: round_half_up_div(1, -HUGE),
                ValueError,
                "denominator must be positive",
            ),
            (
                lambda: validate_tree([[0], [HUGE]], 2),
                ValueError,
                "leaf index out of range",
            ),
            (
                lambda: validate_tree([[0], [1, HUGE, HUGE]], 2),
                ValueError,
                "a leaf repeats an index",
            ),
            (
                lambda: parse_tree([[0], HUGE]),
                ValueError,
                "tree nodes must be nonempty lists, got int",
            ),
        ],
        ids=[
            "distinct", "positive", "degenerate_tree", "divisor", "inverse",
            "oracle_cap", "verify_cap", "reference_bounds", "pair_merge",
            "crt_general", "coprime", "system_positive",
            "remainders_positive", "bounds_reference", "ns_reference",
            "solve_reference", "verify_reference", "denominator",
            "leaf_index", "leaf_repeat", "tree_node",
        ],
    )
    def test_type_and_message(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message


def random_sets(rng, count, scale=1):
    """Seeded moduli sets of 2-5 distinct values with shared factors."""
    out = []
    while len(out) < count:
        ms = {
            scale * math.prod(rng.choice((1, 2, 3, 4, 5, 6, 9)) for _ in range(3))
            for _ in range(rng.randint(2, 5))
        }
        if len(ms) >= 2:
            out.append(tuple(rng.sample(sorted(ms), len(ms))))
    return out


class TestBoundEdges:
    """The bound theorems at their edges, not only by uniform sampling."""

    def test_largest_integer_below_theta_recovers(self):
        rng = random.Random(307)
        for ms in random_sets(rng, 150):
            t = math.ceil(theta_bound(ms)) - 1  # largest int < theta
            k = select_reference(ms)
            lam = math.lcm(*ms)
            for _ in range(12):
                n = rng.randrange(lam)
                deltas = [rng.choice((-t, t)) for _ in ms]
                rt = [n % m + d for m, d in zip(ms, deltas)]
                sol = solve_folding(ms, rt, k)
                assert sol.folding == true_folding(n, ms), (ms, n, deltas)
                assert abs(sol.estimate - n) <= t

    def test_inclusive_per_remainder_bounds_recover(self):
        # moduli scaled by 4 make every per-remainder bound an integer, so
        # the errors sit exactly on the inclusive bounds
        rng = random.Random(311)
        for ms in random_sets(rng, 150, scale=4):
            k = select_reference(ms)
            rep = per_remainder_bounds(ms, k)
            assert all(b.denominator == 1 for b in rep.per_remainder)
            edge = [
                int(b) - 1 if strict else int(b)
                for b, strict in zip(rep.per_remainder, rep.strict)
            ]
            lam = math.lcm(*ms)
            for _ in range(12):
                n = rng.randrange(lam)
                deltas = [rng.choice((-e, e)) for e in edge]
                rt = [n % m + d for m, d in zip(ms, deltas)]
                assert check_ns_condition(deltas, ms, k)
                sol = solve_folding(ms, rt, k)
                assert sol.folding == true_folding(n, ms), (ms, n, deltas)

    def test_one_past_an_inclusive_bound_can_fail(self):
        # the inclusive bounds are tight: one more unit on a non-reference
        # remainder, against the reference error, breaks exactness
        rng = random.Random(313)
        for ms in random_sets(rng, 60, scale=4):
            k = select_reference(ms)
            rep = per_remainder_bounds(ms, k)
            i = next(j for j in range(len(ms)) if j != k)
            deltas = [0] * len(ms)
            deltas[k] = -(int(rep.per_remainder[k]) - 1)
            deltas[i] = int(rep.per_remainder[i]) + 1
            assert not check_ns_condition(deltas, ms, k)
            n = rng.randrange(math.lcm(*ms))
            rt = [n % m + d for m, d in zip(ms, deltas)]
            try:
                assert solve_folding(ms, rt, k).folding != true_folding(n, ms)
            except FoldingFailure:
                pass


def separate_passes_solve(moduli, k, remainders):
    """The solve as separate passes: estimates, CRT merge, derivation, sum.

    Builds its own per-index constants and runs congruence._merge, so only
    the merge schedule (checked by the congruence tests) is common to it
    and the fused kernel.
    """
    mk, rt_ref = moduli[k], remainders[k]
    terms = []
    for i, m in enumerate(moduli):
        if i != k:
            g = math.gcd(mk, m)
            n, c = m // g, mk // g
            terms.append((i, g, n, pow(c, -1, n) if n > 1 else 0, c))
    qs = []
    xis = []
    for i, g, n, inv, _ in terms:
        q = (2 * (remainders[i] - rt_ref) + g) // (2 * g)
        qs.append(q)
        xis.append((q * inv) % n)
    n_ref = _merge(_merge_schedule(tuple(t[2] for t in terms)), xis)
    if n_ref is None:
        raise FoldingFailure(
            "remainder errors produced contradictory congruences"
        )
    folding = [0] * len(moduli)
    folding[k] = n_ref
    for (i, _, n, _, c), q in zip(terms, qs):
        num = n_ref * c - q
        if num % n != 0:
            raise FoldingFailure("folding derivation is not an exact division")
        folding[i] = num // n
    total = sum(f * m + r for f, m, r in zip(folding, moduli, remainders))
    est = round_half_up_div(total, len(moduli))
    if any(f < 0 for f in folding):
        raise FoldingFailure(
            "negative folding number",
            partial_folding=tuple(folding),
            partial_estimate=est,
        )
    return tuple(folding), est


def outcome(solve, *args):
    try:
        return solve(*args)
    except FoldingFailure as exc:
        return exc.reason, exc.partial_folding, exc.partial_estimate


class TestFusedKernel:
    """The fused kernel against the separate-passes solve, field by field."""

    def test_matches_separate_passes(self):
        rng = random.Random(701)
        kinds: dict[str, int] = {}
        plans = divisor_terms = 0
        for size in range(2, 9):
            for _ in range(12):
                ms = set()
                while len(ms) < size:
                    ms.add(math.prod(rng.choice((1, 2, 3, 4, 5, 7, 9))
                                     for _ in range(4)))
                ms = list(ms)
                if rng.random() < 0.5:  # a modulus dividing another
                    j = rng.randrange(size)
                    d = ms[j] // rng.choice([p for p in (2, 3, 5, 7, 9)
                                             if ms[j] % p == 0] or [1])
                    if d > 1 and d not in ms:
                        ms[rng.randrange(size)] = d
                ms = tuple(rng.sample(ms, size))
                if len(set(ms)) < size or min(ms) < 2:
                    continue
                lam = math.lcm(*ms)
                for k in range(size):  # every reference, not only theta's
                    plan = _folding_plan(ms, k)
                    plans += 1
                    divisor_terms += [n for _, n, _ in plan.derive].count(1)
                    g_min = min(math.gcd(ms[k], m) for m in ms)
                    for _ in range(15):
                        n = rng.randrange(lam)
                        tau = rng.choice((0, 1, g_min // 4, g_min, 3 * g_min))
                        rt = [n % m + rng.randint(-tau, tau) for m in ms]
                        if rng.random() < 0.2:  # far outside [0, M_i)
                            rt = [rng.randint(-3 * m, 3 * m) for m in ms]
                        want = outcome(separate_passes_solve, ms, k, rt)
                        assert outcome(_solve_with_plan, plan, rt) == want, (
                            ms, k, rt
                        )
                        kind = want[0] if isinstance(want[0], str) else "ok"
                        kinds[kind] = kinds.get(kind, 0) + 1
        assert plans > 300 and divisor_terms > 50
        # n_k meets every congruence n_k c_i == q_i (mod n_i), so on a
        # plan built from the moduli the derivation is always exact
        assert set(kinds) == {
            "ok",
            "remainder errors produced contradictory congruences",
            "negative folding number",
        }, kinds
        assert min(kinds.values()) > 20, kinds

    def test_rounding_edges(self):
        # remainder differences at every offset of two periods of g, so
        # each quotient estimate meets its exact-half boundary from both
        # sides; the fused sum's rounding sees every residue class of 2L
        for ms in ((8, 12), (12, 18, 30), (70, 75, 80, 90), (6, 10, 15)):
            for k in range(len(ms)):
                plan = _folding_plan(ms, k)
                g = max(math.gcd(ms[k], m) for j, m in enumerate(ms) if j != k)
                base = [1000 % m for m in ms]
                for d in range(-2 * g, 2 * g + 1):
                    for j in range(len(ms)):
                        rt = base[:]
                        rt[j] += d
                        rt[(j + 1) % len(ms)] -= d // 3
                        want = outcome(separate_passes_solve, ms, k, rt)
                        assert outcome(_solve_with_plan, plan, rt) == want


def run_outcome(plan, rt):
    """plan.run's outcome as outcome(_solve_with_plan, plan, rt) lays it
    out: (folding, estimate), or the failure's (reason, partial folding,
    partial estimate).  A success's other slots are checked here: a
    single stage has no groups and no outer folding, and its occurrence
    estimate is its root estimate."""
    try:
        groups, root, outer, folding, estimate = plan.run(rt)
    except FoldingFailure as exc:
        return exc.reason, exc.partial_folding, exc.partial_estimate
    assert (groups, outer, estimate) == ((), (), root)
    return folding, root


def plan_cases(rng):
    """(moduli, k, readings) per plan: L = 2..7, every reference k, plain
    moduli and moduli times HUGE, whose constants no str() can print,
    and 12 readings each: successes, contradictions and negative folding
    numbers among them."""
    for size in range(2, 8):
        for scale in (1, 1, HUGE):
            for _ in range(3):
                ms = set()
                while len(ms) < size:
                    ms.add(math.prod(rng.choice((1, 2, 3, 4, 5, 7, 9))
                                     for _ in range(4)))
                ms.discard(1)
                if len(ms) < size:
                    continue
                ms = tuple(scale * m for m in rng.sample(sorted(ms), size))
                lam = math.lcm(*ms)
                for k in range(size):  # every reference
                    g_min = min(math.gcd(ms[k], m) for m in ms)
                    readings = []
                    for _ in range(12):
                        n = rng.randrange(lam)
                        tau = rng.choice((0, 1, g_min // 4, g_min,
                                          3 * g_min))
                        rt = [n % m + rng.randint(-tau, tau) for m in ms]
                        roll = rng.random()
                        if roll < 0.2:  # far outside [0, M_i)
                            rt = [rng.randint(-3 * m, 3 * m) for m in ms]
                        elif roll < 0.35:
                            # N = -x, reduced except at the reference:
                            # each q_i is n_i, so n_k is 0 and every
                            # other folding number -1
                            x = rng.randrange(1, min(ms))
                            rt = [-x if i == k else -x % m
                                  for i, m in enumerate(ms)]
                        readings.append(rt)
                    yield ms, k, readings


def check_kinds(kinds):
    """Every outcome kind of the solve was met, each more than 20 times."""
    assert set(kinds) == {
        "ok",
        "remainder errors produced contradictory congruences",
        "negative folding number",
    }, kinds
    assert min(kinds.values()) > 20, kinds


def kind_of(result):
    return result[0] if len(result) == 3 else "ok"


class TestPlanRun:
    """A single-stage plan's run, which wraps its generated solve, against
    the pure solver, outcome by outcome."""

    def test_matches_the_solver(self):
        kinds = Counter()
        huge = 0
        for ms, k, readings in plan_cases(random.Random(3305)):
            plan = _FoldingPlan(ms, k)  # uncached: a fresh solve
            huge += ms[0] > HUGE
            for rt in readings:
                want = outcome(_solve_with_plan, plan, rt)
                assert run_outcome(plan, rt) == want, (ms, k, rt)
                kinds[kind_of(want)] += 1
        assert huge >= 3
        check_kinds(kinds)


def decoded(ms, rt, k):
    """solve_folding's outcome as outcome(_solve_with_plan, ...) lays it
    out, after checking the solution's reference index."""
    try:
        sol = solve_folding(ms, rt, k)
    except FoldingFailure as exc:
        return exc.reason, exc.partial_folding, exc.partial_estimate
    assert type(sol) is FoldingSolution and sol.reference_index == k
    return sol.folding, sol.estimate


class TestTiering:
    """solve_folding runs a plan's first _COMPILE_AT - 1 decodes through
    the pure solver, compiles the plan's solve on the next decode, and
    runs it from then on; a plan whose solve a sweep compiled runs it
    from its first decode."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The compiles and pure solves, in order."""
        calls = []
        compile_solve, pure = multistage._compile_solve, _solve_with_plan

        def counted_compile(*args):
            calls.append("compile")
            return compile_solve(*args)

        def counted_pure(*args):
            calls.append("pure")
            return pure(*args)

        monkeypatch.setattr(multistage, "_compile_solve", counted_compile)
        monkeypatch.setattr(robust, "_solve_with_plan", counted_pure)
        return calls

    def test_compiled_on_the_switching_decode(self, calls):
        # a fresh factor keeps the plan cache cold for this set
        rng = random.Random(3401)
        f = rng.randrange(10**12, 10**13)
        ms = tuple(f * m for m in (180, 220, 486, 513))
        k = select_reference(ms)
        lam = math.lcm(*ms)
        for _ in range(robust._COMPILE_AT - 1):
            n = rng.randrange(lam)
            assert solve_folding(ms, [n % m for m in ms], k).estimate == n
        assert calls == ["pure"] * (robust._COMPILE_AT - 1)
        # the switching decode compiles even when it fails
        calls.clear()
        with pytest.raises(FoldingFailure, match="contradictory"):
            solve_folding(ms, [0, 0, 0, 9 * f], k)
        assert calls == ["compile"]
        for _ in range(100):
            n = rng.randrange(lam)
            assert solve_folding(ms, [n % m for m in ms], k).estimate == n
        assert calls == ["compile"]

    def test_a_swept_plan_is_warm_from_its_first_decode(self, calls):
        f = random.Random(3402).randrange(10**12, 10**13)
        ms = tuple(f * m for m in (135, 180, 162))
        sweep(TrialConfig(moduli=ms, trials=20), [0, 9])
        assert calls == ["compile"]  # the sweep's
        calls.clear()
        k = select_reference(ms)
        for n in (0, 1244, math.lcm(*ms) - 1):
            assert solve_folding(ms, [n % m for m in ms], k).estimate == n
        assert calls == []

    def test_same_outcomes_across_the_switch(self, calls, monkeypatch):
        # a fresh cache: no earlier test has warmed these plans
        monkeypatch.setattr(robust, "_folding_plan",
                            lru_cache(maxsize=512)(_FoldingPlan))
        # each plan decodes its readings in turn, _COMPILE_AT + 12 calls:
        # its first 12 decodes are pure, its last 12 generated
        kinds = Counter()
        plans = 0
        for ms, k, readings in plan_cases(random.Random(3403)):
            want = [outcome(_solve_with_plan, _FoldingPlan(ms, k), rt)
                    for rt in readings]
            calls.clear()
            for i in range(robust._COMPILE_AT + len(readings)):
                j = i % len(readings)
                assert decoded(ms, readings[j], k) == want[j], (
                    ms, k, readings[j]
                )
            pure = ["pure"] * (robust._COMPILE_AT - 1)
            assert calls == pure + ["compile"], (ms, k)
            plans += 1
            kinds.update(map(kind_of, want))
        assert plans > 200
        check_kinds(kinds)


def cold_result(call):
    """result_of(call) on a fresh plan cache and a warm table that finds
    nothing: the checked path and, on a fresh plan, the pure solver."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(robust, "_folding_plan", lru_cache(maxsize=4)(_FoldingPlan))
        m.setattr(robust, "_WARM", Unseen())
        return result_of(call)


def warm_up(ms, k):
    """Compile the plan's solve as a sweep does, and make the one checked
    decode that keeps its entry in the warm table."""
    robust._folding_plan(ms, k).solve
    result_of(lambda: solve_folding(ms, list(ms), k))
    assert (ms, k) in robust._WARM


@pytest.fixture
def fresh_tables(monkeypatch):
    """A plan cache and a warm table that no other test has filled."""
    monkeypatch.setattr(robust, "_folding_plan",
                        lru_cache(maxsize=robust._PLANS)(_FoldingPlan))
    monkeypatch.setattr(robust, "_WARM", {})


class TestWarmEntry:
    """A warm plan's solve_folding decodes through the generated entry
    that checks its own inputs; on everything else it falls through to
    the checked path.  Each outcome is held to a fresh cold decode of
    the same input: the same value, or the same exception type and
    message."""

    MS = (135, 180, 162)  # reference 0; 1244 reads (29, 164, 110)
    # (label, moduli, remainders made fresh per call, k, entry serves it)
    CASES = [
        ("list", MS, lambda: [29, 164, 110], 0, True),
        ("tuple", MS, lambda: (29, 164, 110), 0, True),
        ("failure", MS, lambda: [0, 0, 90], 0, True),
        ("negative", MS, lambda: [-1, 179, 161], 0, True),
        ("generator", MS, lambda: (r for r in [29, 164, 110]), 0, False),
        ("float modulus", (135.0, 180, 162), lambda: [29, 164, 110], 0,
         False),
        ("k True", MS, lambda: [29, 164, 110], True, None),
        ("k float", MS, lambda: [29, 164, 110], 0.0, None),
        ("k out of range", MS, lambda: [29, 164, 110], 3, None),
        ("float remainder", MS, lambda: [29, 164.0, 110], 0, False),
        ("bool remainder", MS, lambda: [29, True, 110], 0, False),
        ("IntEnum remainder", MS, lambda: [Tone.LOW, 164, 110], 0, False),
        ("short", MS, lambda: [29, 164], 0, False),
        ("long", MS, lambda: [29, 164, 110, 5], 0, False),
        ("short generator", MS, lambda: iter([29, 164]), 0, False),
        ("str", MS, lambda: "abc", 0, False),
        ("None", MS, lambda: None, 0, False),
        ("list moduli", list(MS), lambda: [29, 164, 110], 0, None),
        ("tuple subclass", Moduli(MS), lambda: [29, 164, 110], 0, False),
        ("hash raises", HashRaises(MS), lambda: [29, 164, 110], 0, None),
    ]

    @pytest.mark.parametrize("label, ms, remainders, k, served", CASES,
                             ids=[c[0] for c in CASES])
    def test_same_outcome_as_a_cold_decode(self, fresh_tables, label, ms,
                                           remainders, k, served):
        want = cold_result(lambda: solve_folding(ms, remainders(), k))
        warm_up(self.MS, 0)
        if served is not None:  # the key finds the entry: it decides
            out = robust._WARM[ms, k](ms, remainders())
            assert (out is not None) == served
        got = result_of(lambda: solve_folding(ms, remainders(), k))
        assert got == want and type(got) is type(want)
        if label in ("float modulus", "bool remainder"):
            assert want[:2] == (ValueError, {
                "float modulus": "modulus must be an int, got 135.0",
                "bool remainder": "remainder must be an int, got True",
            }[label])

    def test_bit_identical_on_every_plan_case(self, fresh_tables):
        kinds = Counter()
        huge = 0
        for ms, k, readings in plan_cases(random.Random(3501)):
            want = [cold_result(lambda: solve_folding(ms, rt, k))
                    for rt in readings]
            warm_up(ms, k)
            huge += ms[0] > HUGE
            entry = robust._WARM[ms, k]
            for rt, w in zip(readings, want):
                assert entry(ms, rt) is not None  # the entry serves it
                got = result_of(lambda: solve_folding(ms, rt, k))
                assert got == w, (ms, k, rt)
                if type(w) is FoldingSolution:
                    assert all(type(f) is int for f in got.folding)
                    assert type(got.estimate) is int
                kinds["ok" if type(w) is FoldingSolution else w[1]] += 1
        assert huge >= 3
        check_kinds(kinds)


class TestWarmTable:
    def test_capped_at_the_plan_cache_size(self, fresh_tables):
        assert robust._PLANS == robust._folding_plan.cache_info().maxsize
        sizes = []
        for q in range(5, 5 + robust._PLANS + 3):
            warm_up((2 * q, 3 * q), 0)
            sizes.append(len(robust._WARM))
        assert max(sizes) == robust._PLANS
        # a full table is emptied before its next entry is stored
        assert sizes[robust._PLANS - 1:] == [robust._PLANS, 1, 2, 3]

    def test_a_dropped_entry_returns_on_the_next_checked_decode(
        self, fresh_tables
    ):
        ms, k = (135, 180, 162), 0
        warm_up(ms, k)
        plans = robust._folding_plan.cache_info()
        robust._WARM.clear()
        assert solve_folding(ms, [29, 164, 110], k).estimate == 1244
        entry = robust._WARM[ms, k]
        assert solve_folding(ms, [29, 164, 110], k).estimate == 1244
        assert robust._WARM[ms, k] is entry
        # the checked decode found the plan, still warm: nothing rebuilt
        after = robust._folding_plan.cache_info()
        assert after.misses == plans.misses and after.hits == plans.hits + 1

    def test_cold_decodes_keep_no_entry(self, fresh_tables):
        # as a design decodes: one solve per set, its plan cold
        rng = random.Random(3502)
        for _ in range(20):
            f = rng.randrange(10**12, 10**13)
            ms = tuple(f * m for m in (135, 180, 162))
            n = rng.randrange(math.lcm(*ms))
            assert solve_folding(ms, [n % m for m in ms], 0).estimate == n
        assert robust._WARM == {}
        # a plan decoded fewer than _COMPILE_AT times stays cold too
        for _ in range(robust._COMPILE_AT - 2):
            solve_folding(ms, [n % m for m in ms], 0)
        assert robust._WARM == {}
        solve_folding(ms, [n % m for m in ms], 0)
        assert list(robust._WARM) == [(ms, 0)]

    def test_warm_decodes_build_no_plan(self, fresh_tables):
        # as the benchmark's decode runs: one plan per set and reference,
        # built by its first call; warm calls leave the plan cache alone
        sets = [(70, 75, 80, 90), (180, 220, 486, 513),
                (210, 143, 77, 128, 81, 125, 169)]
        rng = random.Random(3503)
        for ms in sets:
            warm_up(ms, 0)
        before = robust._folding_plan.cache_info()
        for _ in range(300):
            ms = rng.choice(sets)
            n = rng.randrange(math.lcm(*ms))
            assert solve_folding(ms, [n % m for m in ms], 0).estimate == n
        assert robust._folding_plan.cache_info() == before
        assert before.misses == len(sets)


# each value type whose __init__ robust._vars_init generates, with one
# value per field
CONSTRUCTED = {
    "FoldingSolution": (FoldingSolution, ((5, 6, 7), 1244, 1)),
    "StageSolution": (
        StageSolution, ((1244, 40), (3, 1), FoldingSolution((9,), 9, None))
    ),
    "TrialStats": (TrialStats, (3, 100, Fraction(7, 4), 9, 3, 12, 2, 98)),
}


def check_dataclass_contract(cls, values):
    """Assert that cls, built from values, behaves as a frozen dataclass
    with its generated __init__ would."""
    names = [f.name for f in fields(cls)]
    obj = cls(*values)
    assert [getattr(obj, n) for n in names] == list(values)
    assert cls(**dict(zip(names, values))) == obj
    assert vars(obj) == dict(zip(names, values))
    assert list(inspect.signature(cls).parameters) == names
    assert hash(obj) == hash(cls(*values))
    assert repr(obj) == f"{cls.__qualname__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)
    ) + ")"
    marker = object()
    moved = replace(obj, **{names[-1]: marker})
    assert vars(moved) == {**vars(obj), names[-1]: marker}
    assert moved != obj and replace(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    with pytest.raises(FrozenInstanceError):
        setattr(obj, names[0], values[0])


@robust._vars_init
@dataclass(frozen=True)
class Shadowing:
    """Fields named as the locals of a generated __init__ could be."""

    d: int
    _: int
    __: int


class TestGeneratedConstructors:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTED))
    def test_dataclass_contract(self, name):
        check_dataclass_contract(*CONSTRUCTED[name])

    @pytest.mark.parametrize("name", sorted(CONSTRUCTED))
    def test_builder_dropping_a_field_is_caught(self, monkeypatch, name):
        cls, values = CONSTRUCTED[name]
        monkeypatch.setattr(cls, "__init__", cls.__init__)  # restored after
        monkeypatch.setattr(robust, "fields", lambda c: fields(c)[:-1])
        robust._vars_init(cls)
        with pytest.raises(TypeError, match="positional argument"):
            check_dataclass_contract(cls, values)


def test_no_field_name_shadows_the_generated_locals():
    check_dataclass_contract(Shadowing, (1, 2, 3))
