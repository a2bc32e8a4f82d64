import math
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import pytest

import modfold.grouping as grouping
import modfold.multistage as multistage
import modfold.robust as robust
from modfold.grouping import (
    CandidateSet,
    GroupingProposal,
    candidate_sets,
    minimal_covers,
    propose_grouping,
    render_proposal,
)
from modfold.multistage import DegenerateTreeError, StageBounds, stage_bounds
from modfold.robust import (
    SearchCapExceeded,
    per_remainder_bounds,
    select_reference,
    solve_folding,
    theta_bound,
)

EX8 = (210, 143, 77, 128, 81, 125, 169)

EX8_MEMBERS = [
    {0, 2, 3, 4, 5},  # 210 with 77, 128, 81, 125
    {1, 2, 6},        # 143 with 77, 169
    {2, 0, 1},        # 77 with 210, 143
    {3, 0},           # 128 with 210
    {4, 0},           # 81 with 210
    {5, 0},           # 125 with 210
    {6, 1},           # 169 with 143
]


class TestCandidateSets:
    def test_seven_sets(self):
        cands = candidate_sets(EX8)
        assert [set(c.members) for c in cands] == EX8_MEMBERS
        assert [c.anchor for c in cands] == list(range(7))

    def test_named_members_by_value(self):
        cands = candidate_sets(EX8)
        as_values = lambda c: sorted(EX8[i] for i in c.members)
        assert as_values(cands[0]) == [77, 81, 125, 128, 210]
        assert as_values(cands[1]) == [77, 143, 169]

    def test_coprime_cofactors_all_singletons(self):
        for c in candidate_sets((25, 35, 80, 95)):
            assert c.members == frozenset({c.anchor})

    def test_preconditions(self):
        with pytest.raises(ValueError):
            candidate_sets((8, 12))  # too few
        with pytest.raises(ValueError):
            candidate_sets((8, 16, 12))  # 8 divides 16


class TestMinimalCovers:
    def test_example_four_covers(self):
        cands = candidate_sets(EX8)
        covers = minimal_covers(cands, 7)
        got = {tuple(c.anchor for c in cover) for cover in covers}
        assert got == {(0, 1), (0, 6), (1, 3, 4, 5), (2, 3, 4, 5, 6)}

    def test_single_covering_set(self):
        cands = [CandidateSet(0, frozenset({0, 1, 2}))]
        covers = minimal_covers(cands, 3)
        assert len(covers) == 1 and len(covers[0]) == 1

    def test_no_cover_possible(self):
        cands = [CandidateSet(0, frozenset({0, 1}))]
        assert minimal_covers(cands, 3) == []

    def test_irreducibility(self):
        cands = candidate_sets(EX8)
        universe = frozenset(range(7))
        for cover in minimal_covers(cands, 7):
            union = frozenset().union(*(c.members for c in cover))
            assert union == universe
            for skip in range(len(cover)):
                partial = frozenset().union(
                    *(c.members for i, c in enumerate(cover) if i != skip)
                )
                assert partial != universe

    def test_cap(self):
        cands = [CandidateSet(i, frozenset({i})) for i in range(20)]
        with pytest.raises(SearchCapExceeded):
            minimal_covers(cands, 20, cap=16)

    @pytest.mark.parametrize("n", [-1, 3.0, True])
    def test_rejects_bad_index_count(self, n):
        with pytest.raises(ValueError, match="n_moduli"):
            minimal_covers([CandidateSet(0, frozenset({0}))], n)

    @pytest.mark.parametrize("cap", [2.5, 16.0, True, "16", None])
    def test_rejects_non_int_cap(self, cap):
        # 2.5 once ran as a cap
        with pytest.raises(ValueError, match="cap"):
            minimal_covers([CandidateSet(0, frozenset({0}))], 1, cap=cap)

    @pytest.mark.parametrize("member", [0.5, 1.0, True, "0", Fraction(1)])
    def test_rejects_non_int_members(self, member):
        # 0.5 once died in the bit shift with a bare TypeError
        for other in (0, -1, 5):  # in range, below it and above it
            cands = [CandidateSet(0, frozenset({other, member}))]
            with pytest.raises(ValueError, match="member"):
                minimal_covers(cands, 2)


class TestProposeGrouping:
    def test_example_success(self):
        prop = propose_grouping(EX8)
        assert prop.verdict == "success"
        assert prop.theta == Fraction(1, 4)
        assert prop.groups == ((0, 2, 3, 4, 5), (1, 2, 6))
        assert prop.bounds.per_group == (Fraction(2, 4), Fraction(11, 4))
        assert prop.bounds.cross == Fraction(77, 4)
        assert all(g > prop.theta for g in prop.bounds.per_group)

    @pytest.mark.parametrize("flag", [1, 0, "yes", None])
    def test_rejects_non_bool_share_reference(self, flag):
        with pytest.raises(ValueError, match="share_reference"):
            propose_grouping((12, 18, 35), share_reference=flag)

    def test_coprime_cofactor_failure(self):
        prop = propose_grouping((25, 35, 80, 95))
        assert prop.verdict == "failure"
        assert prop.groups == ()
        assert prop.bounds is None

    def test_coprime_cofactor_failure_general(self):
        rng = random.Random(211)
        for _ in range(10):
            m = rng.randint(2, 12)
            parts = rng.sample([3, 5, 7, 11, 13, 17, 19, 23], rng.randint(3, 5))
            ms = tuple(m * p for p in parts)
            assert propose_grouping(ms).verdict == "failure"

    def test_three_moduli_case(self):
        prop = propose_grouping((560, 480, 210))
        assert prop.verdict == "success"
        assert prop.groups == ((0, 1), (2,))
        assert prop.bounds.per_group == (Fraction(80, 4), Fraction(210, 4))
        assert prop.bounds.cross == Fraction(210, 4)
        assert all(e > Fraction(70, 4) for e in prop.bounds.per_leaf_effective)

    def test_success_invariants(self):
        prop = propose_grouping(EX8)
        covered = set().union(*(set(g) for g in prop.groups))
        assert covered == set(range(7))
        # irreducible: dropping any group loses coverage
        for skip in range(len(prop.groups)):
            partial = set().union(
                *(set(g) for i, g in enumerate(prop.groups) if i != skip)
            )
            assert partial != set(range(7))
        assert prop.bounds.cross > prop.theta
        assert all(g > prop.theta for g in prop.bounds.per_group)

    def test_deterministic(self):
        a = propose_grouping(EX8)
        b = propose_grouping(EX8)
        assert a == b

    def test_share_reference_retry(self):
        plain = propose_grouping((12, 18, 35))
        assert plain.verdict == "failure"
        shared = propose_grouping((12, 18, 35), share_reference=True)
        assert shared.verdict == "success"
        assert shared.shared_reference
        assert shared.groups == ((0, 1), (0, 2))
        theta = theta_bound((12, 18, 35))
        eff = shared.bounds.per_leaf_effective
        assert all(e >= theta for e in eff)
        assert any(e > theta for e in eff)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            propose_grouping((10, 20, 30))  # not divisor-free


class TestRenderProposal:
    def test_success_report(self):
        text = render_proposal(propose_grouping(EX8))
        assert "verdict: success" in text
        assert "cross bound: 77/4" in text
        assert "group [210 77 128 81 125]" in text

    def test_failure_report(self):
        text = render_proposal(propose_grouping((25, 35, 80, 95)))
        assert "verdict: failure" in text
        assert "single-stage bound: 5/4" in text


# -- differential test: the search against the former two-loop search -----
#
# The reference below is the former frozenset/Fraction search, kept here
# with its own theta, candidate sets, covers and depth-2 stage bounds so
# that it shares no arithmetic with the integer search it checks.


def ref_maxmin(values):
    """(max_i min_{j!=i} gcd, first argmax); a single value stands in."""
    rows = [
        min((math.gcd(v, w) for j, w in enumerate(values) if j != i),
            default=v)
        for i, v in enumerate(values)
    ]
    return max(rows), rows.index(max(rows))


def ref_theta(ms):
    return Fraction(ref_maxmin(ms)[0], 4)


def ref_candidate_sets(ms):
    theta = ref_theta(ms)
    out = []
    for i, a in enumerate(ms):
        members = {i}
        for j, b in enumerate(ms):
            if j != i and Fraction(math.gcd(a, b), 4) > theta:
                members.add(j)
        out.append(CandidateSet(anchor=i, members=frozenset(members)))
    return out


def ref_minimal_covers(cands, n_moduli, cap=16):
    if len(cands) > cap:
        raise SearchCapExceeded("cover cap")
    universe = frozenset(range(n_moduli))
    covers = []
    for r in range(1, len(cands) + 1):
        for combo in combinations(range(len(cands)), r):
            union = frozenset().union(*(cands[i].members for i in combo))
            if union != universe:
                continue
            if any(
                frozenset().union(
                    *(cands[i].members for i in combo if i != skip)
                )
                == universe
                for skip in combo
            ):
                continue
            covers.append(tuple(cands[i] for i in combo))
    return covers


def ref_stage_bounds(groups, ms):
    """StageBounds of the depth-2 plan with these leaf groups."""
    lams = [math.lcm(*(ms[i] for i in g)) for g in groups]
    if len(set(lams)) != len(lams):
        raise DegenerateTreeError("sibling groups share an lcm")
    per_group = tuple(
        Fraction(ref_maxmin([ms[i] for i in g])[0], 4) for g in groups
    )
    cross = Fraction(ref_maxmin(lams)[0], 4)
    return StageBounds(
        per_group=per_group,
        node_cross=(((), cross),),
        cross=cross,
        per_leaf_effective=tuple(min(b, cross) for b in per_group),
    )


def two_loop_propose_grouping(moduli, *, share_reference=False, cover_cap=16):
    """The former search: a strict loop, then a shared-reference loop."""
    ms = tuple(moduli)
    if len(ms) < 3:
        raise ValueError("grouping search needs at least three moduli")
    theta = ref_theta(ms)
    cands = ref_candidate_sets(ms)
    covers = ref_minimal_covers(cands, len(ms), cap=cover_cap)

    def groups_of(cover):
        return [tuple(sorted(c.members)) for c in cover]

    def pick(scored):
        best = sorted(scored, key=lambda s: (-s[0], s[1], s[2]))[0]
        return tuple(best[2]), best[3]

    successes = []
    for cover in covers:
        groups = groups_of(cover)
        if len(groups) < 2:
            continue
        try:
            bounds = ref_stage_bounds(groups, ms)
        except DegenerateTreeError:
            continue
        if bounds.cross > theta and all(g > theta for g in bounds.per_group):
            successes.append(
                (min(bounds.per_leaf_effective), len(groups), tuple(groups),
                 bounds)
            )
    if successes:
        groups, bounds = pick(successes)
        return GroupingProposal(ms, theta, "success", groups, bounds)

    if share_reference:
        ref = ref_maxmin(ms)[1]
        shared = []
        for cover in covers:
            groups = [
                tuple(sorted(set(g) | {ref})) if len(g) == 1 else g
                for g in groups_of(cover)
            ]
            if len(groups) < 2 or len(set(groups)) != len(groups):
                continue
            try:
                bounds = ref_stage_bounds(groups, ms)
            except DegenerateTreeError:
                continue
            eff = bounds.per_leaf_effective
            if all(e >= theta for e in eff) and any(e > theta for e in eff):
                shared.append(
                    (min(eff), len(groups), tuple(groups), bounds)
                )
        if shared:
            groups, bounds = pick(shared)
            return GroupingProposal(
                ms, theta, "success", groups, bounds, shared_reference=True
            )

    return GroupingProposal(ms, theta, "failure", (), None)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def random_divisor_free(rng):
    """3-7 distinct moduli, each a product of 2-4 small primes."""
    size = rng.randint(3, 7)
    while True:
        ms = set()
        while len(ms) < size:
            m = 1
            for _ in range(rng.randint(2, 4)):
                m *= rng.choice(SMALL_PRIMES)
            ms.add(m)
        ms = tuple(rng.sample(sorted(ms), size))
        if not any(a != b and a % b == 0 for a in ms for b in ms):
            return ms


class TestOneLoopMatchesTwoLoops:
    @pytest.mark.parametrize("seed", [401, 402])
    def test_random_sets(self, seed):
        rng = random.Random(seed)
        outcomes = Counter()
        for _ in range(1300):
            ms = random_divisor_free(rng)
            cands = candidate_sets(ms)
            assert cands == ref_candidate_sets(ms), ms
            assert minimal_covers(cands, len(ms)) == ref_minimal_covers(
                cands, len(ms)
            ), ms
            for share in (False, True):
                got = propose_grouping(ms, share_reference=share)
                want = two_loop_propose_grouping(ms, share_reference=share)
                for f in fields(GroupingProposal):
                    assert getattr(got, f.name) == getattr(want, f.name), (
                        ms, share, f.name
                    )
                outcomes[got.verdict, got.shared_reference] += 1
        # 2,600 searches per seed; every kind of outcome is exercised
        assert outcomes["success", False] > 1000
        assert outcomes["success", True] > 300
        assert outcomes["failure", False] > 400

    def test_covers_of_arbitrary_sets(self):
        # empty, duplicate and out-of-range members, more sets than indices
        rng = random.Random(403)
        found = 0
        for _ in range(3000):
            n = rng.randint(0, 6)
            pool = range(-1, n + 2)
            cands = [
                CandidateSet(i, frozenset(rng.sample(pool, rng.randint(0, 3))))
                for i in range(rng.randint(0, 9))
            ]
            got = minimal_covers(cands, n, cap=16)
            assert got == ref_minimal_covers(cands, n), (cands, n)
            found += len(got)
        assert found > 250

    def test_cap_exceeded(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
        ms = primes + (59,)  # 17 candidate sets, one past the cover cap
        for share in (False, True):
            with pytest.raises(SearchCapExceeded):
                two_loop_propose_grouping(ms, share_reference=share)
            with pytest.raises(SearchCapExceeded):
                propose_grouping(ms, share_reference=share)


CLUSTER_FACTORS = (6, 8, 9, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30, 36, 45)


def shared_factor_set(rng):
    """3-7 moduli, each a cluster factor times 2..13, divisors pruned."""
    while True:
        factors = rng.sample(CLUSTER_FACTORS, rng.randint(2, 3))
        raw = set()
        size = rng.randint(3, 7)
        while len(raw) < size:
            raw.add(rng.choice(factors) * rng.randint(2, 13))
        raw = rng.sample(sorted(raw), size)
        ms = tuple(
            m for m in raw if not any(o != m and o % m == 0 for o in raw)
        )
        if len(ms) >= 3:
            return ms


def combinations_minimal_covers(cands, n_moduli):
    """The former cover enumeration: every combination, in size order."""
    full = (1 << n_moduli) - 1
    masks = {}
    for pos, c in enumerate(cands):
        if all(0 <= i < n_moduli for i in c.members):
            masks[pos] = sum(1 << i for i in c.members)
    covers = []
    for r in range(1, min(len(masks), n_moduli) + 1):
        for combo in combinations(masks, r):
            seen = twice = 0
            for pos in combo:
                m = masks[pos]
                twice |= seen & m
                seen |= m
            if seen == full and all(masks[pos] & ~twice for pos in combo):
                covers.append(tuple(cands[pos] for pos in combo))
    return covers


def random_family(rng, n_sets, n):
    """Candidate sets over indices -1..n with duplicates, subsets, empties."""
    out = []
    for pos in range(n_sets):
        roll = rng.random()
        if out and roll < 0.15:
            members = rng.choice(out).members  # a duplicate
        elif out and roll < 0.3:
            base = sorted(rng.choice(out).members)
            members = frozenset(rng.sample(base, rng.randint(0, len(base))))
        elif roll < 0.35:
            members = frozenset()
        else:
            pool = range(-1, n + 1) if roll < 0.45 else range(n)
            k = min(len(pool), rng.randint(1, max(4, n // 2)))
            members = frozenset(rng.sample(pool, k))
        out.append(CandidateSet(pos, members))
    return out


class TestPrunedSearch:
    def test_shared_factor_sets(self):
        rng = random.Random(404)
        outcomes = Counter()
        for _ in range(300):
            ms = shared_factor_set(rng)
            for share in (False, True):
                got = propose_grouping(ms, share_reference=share)
                want = two_loop_propose_grouping(ms, share_reference=share)
                for f in fields(GroupingProposal):
                    assert getattr(got, f.name) == getattr(want, f.name), (
                        ms, share, f.name
                    )
                outcomes[got.verdict, got.shared_reference] += 1
        # 600 searches; every kind of outcome is exercised
        assert outcomes["success", False] > 100
        assert outcomes["success", True] > 100
        assert outcomes["failure", False] > 200

    @pytest.mark.parametrize(
        "moduli, error, message",
        [
            ((12.0, 18, 35), ValueError, "modulus must be an int, got 12.0"),
            ((12, True, 35), ValueError, "modulus must be an int, got True"),
            (
                (10, 20, 5),
                ValueError,
                "the modulus at index 2 divides the one at index 0; run "
                "prune_redundant first",
            ),
            ((12, 18), ValueError, "grouping search needs at least three"),
            (
                (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59),
                SearchCapExceeded,
                "17 candidate sets exceed the cover cap 16",
            ),
            ((), ValueError, "empty moduli set"),
            ((12, -18, 35), ValueError, "moduli must be positive, index 1"),
            ((12, 18, 12), ValueError, "moduli must be distinct"),
            # the divisor check comes before the size check
            ((10, 20), ValueError, "the modulus at index 0 divides the one"),
        ],
    )
    def test_error_parity(self, moduli, error, message):
        for share in (False, True):
            with pytest.raises(error) as info:
                propose_grouping(moduli, share_reference=share)
            assert type(info.value) is error
            assert str(info.value).startswith(message)

    def test_covers_match_every_combination(self):
        rng = random.Random(405)
        found = Counter()
        # up to the cap of 16 sets over up to 12 indices
        families = [(16, rng.randint(7, 12)) for _ in range(10)] + [
            (rng.randint(0, 12), rng.randint(0, 12)) for _ in range(800)
        ]
        for n_sets, n in families:
            cands = random_family(rng, n_sets, n)
            got = minimal_covers(cands, n)
            assert got == combinations_minimal_covers(cands, n), (cands, n)
            found[n > 6] += len(got)
        assert found[False] > 300 and found[True] > 300

    def test_one_cover_enumeration_and_one_tree(self, monkeypatch):
        calls = Counter()

        def counting(name):
            fn = getattr(grouping, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(grouping, name, wrapper)

        counting("minimal_covers")
        counting("_layout")
        leaf_init = grouping.Leaf.__post_init__

        def counting_leaf(self):
            calls["Leaf"] += 1
            leaf_init(self)

        monkeypatch.setattr(grouping.Leaf, "__post_init__", counting_leaf)
        cases = [
            ((12, 18, 35), "success", 2),  # won by the shared-reference retry
            (EX8, "success", 2),
            ((42, 60, 132), "failure", 0),  # even with the retry
        ]
        for ms, verdict, leaves in cases:
            calls.clear()
            prop = propose_grouping(ms, share_reference=True)
            assert prop.verdict == verdict
            assert calls["minimal_covers"] == 1
            assert calls["_layout"] == (verdict == "success")
            assert calls["Leaf"] == leaves


# --------------------------------------------------------------------------
# one moduli profile per set: the bound calculus, the search and the solver
# all read it; these references build every gcd from math.gcd by definition


def coprime_cofactor_set(rng):
    """3-6 moduli M * c_i over pairwise-coprime c_i (no grouping helps)."""
    m = rng.randint(2, 30)
    parts = rng.sample([3, 5, 7, 11, 13, 17, 19, 23, 29], rng.randint(3, 6))
    return tuple(m * p for p in parts)


def ref_bounds(ms, k):
    """per_remainder_bounds by definition: the reference's quarter term q
    and gcd(M_k, M_i)/2 - q for every other remainder."""
    gcds = [math.gcd(ms[k], m) for m in ms]
    q = Fraction(min(g for i, g in enumerate(gcds) if i != k), 4)
    return tuple(
        q if i == k else Fraction(g, 2) - q for i, g in enumerate(gcds)
    )


def ref_solve(ms, k, n, deltas):
    """The solve's outcome on n % M_i + deltas[i], or None.

    When every i != k meets -g_i <= 2 (d_i - d_k) < g_i, g_i being
    gcd(M_k, M_i), the solve recovers the true folding numbers and moves
    the estimate by the half-up rounded mean of the deltas; otherwise it
    must not return the true folding numbers.
    """
    dk = deltas[k]
    for i, (m, d) in enumerate(zip(ms, deltas)):
        g = math.gcd(ms[k], m)
        if i != k and not -g <= 2 * (d - dk) < g:
            return None
    size = len(ms)
    shift = (2 * sum(deltas) + size) // (2 * size)
    return tuple(n // m for m in ms), n + shift


def profile_sets():
    rng = random.Random(1201)
    return [shared_factor_set(rng) for _ in range(240)] + [
        coprime_cofactor_set(rng) for _ in range(60)
    ]


class TestOneProfile:
    def test_matches_gcd_reference_cold_and_warm(self):
        rng = random.Random(1202)
        outcomes = Counter()
        for ms in profile_sets():
            theta, ref = ref_theta(ms), ref_maxmin(ms)[1]
            bounds = ref_bounds(ms, ref)
            searches = {
                share: two_loop_propose_grouping(ms, share_reference=share)
                for share in (False, True)
            }
            n = rng.randrange(math.lcm(*ms))
            # up to one past each bound, so the condition holds or fails
            deltas = [rng.randint(-int(b) - 1, int(b) + 1) for b in bounds]
            solved = ref_solve(ms, ref, n, deltas)
            remainders = [n % m + d for m, d in zip(ms, deltas)]
            calls = {
                "theta": lambda: theta_bound(ms) == theta,
                "reference": lambda: select_reference(ms) == ref,
                "bounds": lambda: (
                    per_remainder_bounds(ms, ref).per_remainder == bounds
                ),
                "search": lambda: all(
                    propose_grouping(ms, share_reference=share) == want
                    for share, want in searches.items()
                ),
                "solve": lambda: solve_outcome(ms, remainders, ref, n, solved),
            }
            for state in ("cold", "warm"):
                if state == "cold":
                    robust._profile.cache_clear()
                    robust._folding_plan.cache_clear()
                # each reader meets a cold profile in some sets
                for name in rng.sample(sorted(calls), len(calls)):
                    assert calls[name](), (ms, state, name)
            outcomes[searches[False].verdict] += 1
            outcomes["retry won"] += searches[True].shared_reference
            outcomes["exact" if solved else "not exact"] += 1
        # 300 sets: searches that succeed, with and without the retry, and
        # that fail; error vectors inside and outside the condition
        assert outcomes["success"] > 50 and outcomes["failure"] > 150
        assert outcomes["retry won"] > 100, outcomes
        assert outcomes["exact"] > 150 and outcomes["not exact"] > 30

    def test_one_profile_build_per_set(self):
        for ms in profile_sets()[::10]:
            robust._profile.cache_clear()
            robust._folding_plan.cache_clear()
            theta_bound(ms)
            k = select_reference(ms)
            per_remainder_bounds(ms, k)
            for share in (False, True):
                propose_grouping(ms, share_reference=share)
            solve_folding(ms, [0] * len(ms), k)
            info = robust._profile.cache_info()
            assert (info.misses, info.hits) == (1, 5), ms

    def test_readers_do_not_revalidate(self, monkeypatch):
        ms = (210, 143, 77, 128, 81, 125, 169)
        theta_bound(ms)  # the profile is built, and validated, once
        robust._folding_plan.cache_clear()
        seen = []
        for module, name in (
            (robust, "validate_moduli"),
            (robust, "_maxmin_gcd"),
            (grouping, "_maxmin_gcd"),
        ):
            def wrapper(values, *args, fn=getattr(module, name), **kwargs):
                seen.append(tuple(values))
                return fn(values, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        k = select_reference(ms)
        assert theta_bound(ms) == Fraction(1, 4)
        per_remainder_bounds(ms, k)
        propose_grouping(ms, share_reference=True)
        candidate_sets(ms)
        solve_folding(ms, [0] * len(ms), k)
        assert ms not in seen
        assert seen  # the cross gcds of the search's covers still run

    def test_stage_bounds_reads_the_search_profile(self, monkeypatch):
        # the design sequence: stage_bounds right after propose_grouping
        # validates nothing again, builds no profile or folding plan, and
        # computes one max-min gcd per stage, in post-order, over its
        # parts: a leaf's moduli or a node's child lcms
        def lcm_of(ms, group):
            return math.lcm(*(ms[i] for i in group))

        cases = []
        for ms in profile_sets():
            groups = propose_grouping(ms).groups
            if groups and len(cases) < 40:
                stages = [tuple(ms[i] for i in g) for g in groups]
                stages.append(tuple(lcm_of(ms, g) for g in groups))
                cases.append((ms, [list(g) for g in groups], stages))
        ms = (192, 288, 216, 360, 320, 448)
        cases.append((ms, [[[0, 1], [2, 3]], [4, 5]], [
            (192, 288),
            (216, 360),
            (lcm_of(ms, (0, 1)), lcm_of(ms, (2, 3))),
            (320, 448),
            (lcm_of(ms, (0, 1, 2, 3)), lcm_of(ms, (4, 5))),
        ]))
        calls = []
        for module, name in (
            (robust, "validate_moduli"),
            (robust, "_maxmin_gcd"),
            (multistage, "_maxmin_gcd"),
        ):
            def wrapper(values, *args, fn=getattr(module, name),
                        where=f"{module.__name__}.{name}", **kwargs):
                calls.append((where, tuple(values)))
                return fn(values, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        for ms, layout, stages in cases:
            proposal = propose_grouping(ms)
            profiles = robust._profile.cache_info().misses
            plans = robust._folding_plan.cache_info().misses
            calls.clear()
            bounds = stage_bounds(layout, ms)
            assert robust._profile.cache_info().misses == profiles
            assert robust._folding_plan.cache_info().misses == plans
            assert calls == [
                ("modfold.multistage._maxmin_gcd", parts) for parts in stages
            ], (ms, layout)
            if len(stages) == len(layout) + 1:  # the search's own plan
                assert bounds == proposal.bounds
        assert len(cases) == 41

    def test_float_moduli_miss_the_int_profile(self):
        # 135.0 equals and hashes like 135, so the int check comes first
        ms = (135, 180, 162)
        theta_bound(ms)
        propose_grouping(ms)
        bad = (135.0, 180, 162)
        for call in (
            lambda: theta_bound(bad),
            lambda: select_reference(bad),
            lambda: per_remainder_bounds(bad, 0),
            lambda: propose_grouping(bad),
            lambda: propose_grouping(bad, share_reference=True),
            lambda: candidate_sets(bad),
            lambda: solve_folding(bad, (0, 0, 0), 0),
        ):
            with pytest.raises(ValueError, match="modulus must be an int"):
                call()


def solve_outcome(ms, remainders, k, n, solved):
    """True when solve_folding agrees with ref_solve's verdict on n."""
    try:
        got = solve_folding(ms, remainders, k)
    except robust.FoldingFailure:
        return solved is None
    if solved is None:
        return got.folding != tuple(n // m for m in ms)
    return (got.folding, got.estimate) == solved
