"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is designed to finish in a few minutes.
"""

import functools
import math
import random
import time
from fractions import Fraction

from modfold.congruence import (
    CongruenceSystem,
    crt_coprime_closed_form,
    crt_general,
    remainders_of,
)
from modfold.grouping import candidate_sets, minimal_covers, propose_grouping
from modfold.multistage import (
    Leaf,
    fused_error_bound,
    parse_tree,
    reconstruct_tree,
    reconstruct_two_stage,
    stage_bounds,
)
from modfold.robust import (
    FoldingFailure,
    FoldingSolution,
    _folding_plan,
    _solve_with_plan,
    prune_redundant,
    select_reference,
    solve_folding,
    theta_bound,
)
from modfold.simulate import TrialConfig, sweep, verify_exactness_condition


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {title}: FAIL")
                raise
            elapsed = time.time() - start
            print(f"[criterion {number}] {title}: PASS ({elapsed:.1f}s)")

        return wrapper

    return deco


@criterion(1, "single-stage bound calculus goldens")
def test_criterion_1_theta_goldens():
    start = time.time()
    goldens = [
        ((70, 75, 80, 90), Fraction(10, 4)),
        ((180, 220, 486, 513), Fraction(9, 4)),
        ((135, 180, 162), Fraction(27, 4)),
        ((192, 144, 168, 112), Fraction(24, 4)),
        ((560, 480, 210), Fraction(70, 4)),
        ((192, 288, 216, 360, 320, 448), Fraction(32, 4)),
    ]
    for ms, expected in goldens:
        assert theta_bound(ms) == expected, (ms, theta_bound(ms), expected)
    assert time.time() - start < 1.0


@criterion(2, "stage-bound goldens and cross-bound oracle")
def test_criterion_2_stage_bounds():
    cases = [
        ((180, 220, 486, 513), "[[0,1],[2,3]]", (20, 27), 18),
        ((192, 144, 168, 112), "[[0,1],[2,3]]", (48, 56), 48),
        ((192, 144, 168, 112), "[[0,3],[1,2]]", (16, 24), 336),
    ]
    for ms, layout, per_group, cross in cases:
        b = stage_bounds(parse_tree(layout), ms)
        assert b.per_group == tuple(Fraction(g, 4) for g in per_group)
        assert b.cross == Fraction(cross, 4)

    ms7 = (192, 288, 216, 360, 320, 448)
    b7 = stage_bounds(parse_tree("[[[0,1],[2,3]],[4,5]]"), ms7)
    assert b7.per_group == (Fraction(96, 4), Fraction(72, 4), Fraction(64, 4))
    assert dict(b7.node_cross)[(0,)] == Fraction(72, 4)
    assert b7.cross == Fraction(320, 4)
    assert b7.per_leaf_effective == (
        Fraction(72, 4),
        Fraction(72, 4),
        Fraction(64, 4),
    )

    def maxmin_oracle(values):
        return max(
            min(
                Fraction(math.gcd(values[i], values[j]), 4)
                for j in range(len(values))
                if j != i
            )
            for i in range(len(values))
        )

    # three-group plan: direct recomputation over the group lcms
    ms3 = (130, 156, 189, 351, 420, 308)
    b3 = stage_bounds(parse_tree("[[0,1],[2,3],[4,5]]"), ms3)
    lams3 = [math.lcm(130, 156), math.lcm(189, 351), math.lcm(420, 308)]
    assert b3.cross == maxmin_oracle(lams3) == Fraction(39, 4)
    assert b3.cross != Fraction(21, 4)  # known misprint elsewhere

    # winning cover of the seven-moduli search, same oracle
    lam_a = math.lcm(210, 77, 128, 81, 125)
    lam_b = math.lcm(143, 77, 169)
    b8 = stage_bounds(
        parse_tree("[[0,2,3,4,5],[1,2,6]]"), (210, 143, 77, 128, 81, 125, 169)
    )
    assert b8.cross == maxmin_oracle([lam_a, lam_b]) == Fraction(77, 4)
    assert b8.cross != Fraction(7, 4)  # known misprint elsewhere


@criterion(3, "exhaustive exactness condition verification")
def test_criterion_3_exactness_exhaustive():
    start = time.time()
    for ms in ((8, 12, 15), (10, 12, 15)):
        report = verify_exactness_condition(ms, window=4)
        assert report.passed, report
        assert report.sufficiency_failures == 0
        assert report.necessity_failures == 0
        assert report.cases == math.lcm(*ms) * 9 ** len(ms)
    assert time.time() - start < 180


@criterion(4, "exact-CRT round trip on random moduli sets")
def test_criterion_4_crt_roundtrip():
    rng = random.Random(20260810)
    sets = []
    while len(sets) < 200:
        count = rng.choice((2, 2, 3, 3, 4))
        ms = tuple(sorted(rng.sample(range(2, 41), count)))
        if math.lcm(*ms) <= 100_000 and ms not in sets:
            sets.append(ms)
    coprime_hits = 0
    for ms in sets:
        lam = math.lcm(*ms)
        coprime = all(
            math.gcd(ms[i], ms[j]) == 1
            for i in range(len(ms))
            for j in range(i + 1, len(ms))
        )
        for n in range(lam):
            system = CongruenceSystem(remainders_of(n, ms), ms)
            assert crt_general(system) == n
            if coprime:
                assert crt_coprime_closed_form(system) == n
                coprime_hits += 1
    assert coprime_hits > 0


@criterion(5, "simulation reproduction at desk scale")
def test_criterion_5_simulation():
    start = time.time()
    trials = 100_000
    ms = (135, 180, 162)

    single = sweep(TrialConfig(moduli=ms, trials=trials, rng_seed=0), range(26))
    for row in single[:7]:  # tau = 0..6
        assert row.bound_violations == 0, row
        assert row.max_abs_error <= row.tau, row
    assert any(row.bound_violations > 0 for row in single[7:]), [
        (r.tau, r.bound_violations) for r in single[7:]
    ]

    two_stage = sweep(
        TrialConfig(
            moduli=ms, tree=parse_tree("[[0,1],[2]]"), trials=trials,
            rng_seed=0,
        ),
        range(12),
    )
    for row in two_stage:  # tau = 0..11
        assert row.bound_violations == 0, row
        assert row.max_abs_error <= row.tau, row
        assert row.folding_failures == 0, row

    assert time.time() - start < 120


@criterion(6, "two-stage recovery and fused error bound")
def test_criterion_6_two_stage_properties():
    ms = (180, 220, 486, 513)
    tree = parse_tree("[[0,1],[2,3]]")
    groups = ((0, 1), (2, 3))
    lam = math.lcm(*ms)
    rng = random.Random(424242)
    for _ in range(10_000):
        n = rng.randrange(lam)
        deltas = [rng.randint(-4, 4) for _ in ms]
        rt = [n % m + d for m, d in zip(ms, deltas)]
        sol = reconstruct_two_stage(ms, rt, tree)
        assert sol.final.folding == tuple(n // m for m in ms)
        taus = [max(abs(deltas[i]) for i in g) for g in groups]
        assert abs(sol.final.estimate - n) <= fused_error_bound(taus, (2, 2))

    # a one-leaf plan and solve_folding must reproduce the pure
    # single-stage solver bit for bit; both run generated code once the
    # plan is warm, so the pure solver is the independent reference
    leaf = Leaf((0, 1, 2, 3))
    k = select_reference(ms)
    plan = _folding_plan(ms, k)
    decoders = {
        "direct path": lambda rt: solve_folding(ms, rt, k),
        "tree path": lambda rt: reconstruct_tree(ms, rt, leaf).final,
    }
    for _ in range(500):
        n = rng.randrange(lam)
        rt = [n % m + rng.randint(-8, 8) for m in ms]
        try:
            pure = FoldingSolution(*_solve_with_plan(plan, rt), k)
        except FoldingFailure as exc:
            for name, decode in decoders.items():
                try:
                    decode(rt)
                    assert False, f"{name} succeeded where the pure one failed"
                except FoldingFailure as exc2:
                    assert exc2.reason == exc.reason
            continue
        for decode in decoders.values():
            assert decode(rt) == pure


@criterion(7, "grouping search goldens")
def test_criterion_7_grouping():
    ms = (210, 143, 77, 128, 81, 125, 169)
    cands = candidate_sets(ms)
    assert [set(c.members) for c in cands] == [
        {0, 2, 3, 4, 5},
        {1, 2, 6},
        {2, 0, 1},
        {3, 0},
        {4, 0},
        {5, 0},
        {6, 1},
    ]
    covers = minimal_covers(cands, 7)
    assert {tuple(c.anchor for c in cover) for cover in covers} == {
        (0, 1),
        (0, 6),
        (1, 3, 4, 5),
        (2, 3, 4, 5, 6),
    }
    prop = propose_grouping(ms)
    assert prop.verdict == "success"
    assert prop.theta == Fraction(1, 4)
    assert all(g > Fraction(1, 4) for g in prop.bounds.per_group)
    assert prop.bounds.cross > Fraction(1, 4)

    assert propose_grouping((25, 35, 80, 95)).verdict == "failure"


@criterion(8, "redundant modulus pruning")
def test_criterion_8_pruning():
    assert prune_redundant((10, 45, 30)) == (45, 30)
    assert theta_bound((10, 45, 30)) == Fraction(10, 4)
    assert theta_bound((45, 30)) == Fraction(15, 4)

    rng = random.Random(88)
    for _ in range(200):
        base = rng.sample(range(2, 150), rng.randint(2, 5))
        ms = list(base)
        for m in base:
            divisors = [d for d in range(1, m) if m % d == 0 and d not in ms]
            if divisors and rng.random() < 0.6:
                ms.append(rng.choice(divisors))
        pruned = prune_redundant(ms)
        assert math.lcm(*pruned) == math.lcm(*ms)
        if len(pruned) >= 2:
            assert theta_bound(pruned) >= theta_bound(ms)
