import copy
import dataclasses
import math
import pickle
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from conftest import HashRaises, Moduli, Tone, Unseen, result_of

import modfold.multistage as multistage
import modfold.robust as robust
from modfold.intmath import round_half_up_div
from modfold.multistage import (
    DegenerateTreeError,
    GroupReferenceBounds,
    StageBounds,
    StageSolution,
    _TreeProgram,
    _post_order,
    _tree_program,
    Leaf,
    Node,
    fused_error_bound,
    parse_tree,
    per_group_reference_bounds,
    reconstruct_tree,
    reconstruct_two_stage,
    stage_bounds,
    tree_leaves,
    tree_to_nested,
    validate_tree,
)
from modfold.robust import (
    FoldingFailure,
    FoldingSolution,
    _folding_plan,
    _solve_with_plan,
    folding_oracle,
    select_reference,
    solve_folding,
    theta_bound,
)
from modfold.simulate import TrialConfig, run_trials

EX_SPLIT = (180, 220, 486, 513)
EX_SIM = (135, 180, 162)
EX_THREE = (192, 288, 216, 360, 320, 448)


def all_partitions(indices):
    if len(indices) == 1:
        yield [indices]
        return
    first, rest = indices[0], indices[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


class TestTreeStructure:
    def test_parse_round_trip(self):
        for layout in ("[[0,1],[2,3]]", "[[[0,1],[2,3]],[4,5]]", "[[0,1],[2]]"):
            tree = parse_tree(layout)
            assert parse_tree(tree_to_nested(tree)) == tree

    @pytest.mark.parametrize("n", [3.0, True, "3", -1])
    def test_validate_tree_rejects_bad_index_count(self, n):
        # 3.0 once died in range() with a bare TypeError
        with pytest.raises(ValueError, match="n_moduli"):
            validate_tree([[0, 1], [2]], n)

    def test_parse_flat_leaf(self):
        assert parse_tree("[0,1,2]") == Leaf((0, 1, 2))

    def test_parse_rejects_mixed(self):
        with pytest.raises(ValueError):
            parse_tree("[0,[1,2]]")
        with pytest.raises(ValueError):
            parse_tree("[[0,1],2]")
        with pytest.raises(ValueError):
            parse_tree("[]")
        for layout in ([[0, True], [2]], [[0, 1.0], [2]]):
            with pytest.raises(ValueError, match="leaf index"):
                parse_tree(layout)

    @pytest.mark.parametrize(
        "layout, message",
        [
            ("", "grouping is not valid JSON: Expecting value at character 0"),
            (
                "[[0,1],[2]",
                "grouping is not valid JSON: Expecting ',' delimiter at "
                "character 10",
            ),
        ],
        ids=["empty", "unclosed"],
    )
    def test_malformed_json_names_the_grouping(self, layout, message):
        with pytest.raises(ValueError) as info:
            parse_tree(layout)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_parse_returns_tree_unchanged(self):
        tree = parse_tree("[[0,1],[2]]")
        assert parse_tree(tree) is tree
        assert parse_tree(tree.children[0]) is tree.children[0]

    @pytest.mark.parametrize("layout", ["[[0,1],[2]]", [[0, 1], [2]]])
    def test_every_plan_function_takes_a_layout(self, layout):
        tree = parse_tree("[[0,1],[2]]")
        assert stage_bounds(layout, EX_SIM) == stage_bounds(tree, EX_SIM)
        assert tree_leaves(layout) == tree_leaves(tree)
        assert validate_tree(layout, 3) is None
        with pytest.raises(ValueError):
            validate_tree(layout, 4)  # index 3 uncovered
        rt = [700 % m + 1 for m in EX_SIM]
        want = reconstruct_tree(EX_SIM, rt, tree)
        assert reconstruct_tree(EX_SIM, rt, layout) == want
        assert reconstruct_two_stage(EX_SIM, rt, layout) == want
        assert per_group_reference_bounds(
            layout, EX_SIM
        ) == per_group_reference_bounds(tree, EX_SIM)

    def test_leaves_in_order(self):
        tree = parse_tree("[[[0,1],[2,3]],[4,5]]")
        assert [l.indices for l in tree_leaves(tree)] == [
            (0, 1),
            (2, 3),
            (4, 5),
        ]

    def test_validate(self):
        validate_tree(parse_tree("[[0,1],[2]]"), 3)
        with pytest.raises(ValueError):
            validate_tree(parse_tree("[[0,1]]"), 3)  # index 2 uncovered
        with pytest.raises(ValueError):
            validate_tree(parse_tree("[[0,0],[1,2]]"), 3)
        with pytest.raises(ValueError):
            validate_tree(parse_tree("[[0,1],[2,5]]"), 3)
        with pytest.raises(ValueError):
            validate_tree(Node((Leaf((0,)),)), 1)

    def test_uncovered_indices_counted_not_listed(self):
        with pytest.raises(ValueError) as info:
            validate_tree([[0, 1], [3]], 40)
        assert str(info.value) == (
            "the leaves cover 3 moduli indices; index 2 is the first in no "
            "leaf"
        )
        # the check counts the indices seen: it builds nothing of size
        # n_moduli, so a count past any memory, or past the digit limit,
        # fails at once with its own message
        for n_moduli in (10**30, 10**4400 + 1):
            start = time.perf_counter()
            with pytest.raises(ValueError) as info:
                validate_tree([[0], [1]], n_moduli)
            assert time.perf_counter() - start < 1
            assert str(info.value) == (
                "the leaves cover 2 moduli indices; index 2 is the first in "
                "no leaf"
            )


class TestShapeAtConstruction:
    """A Leaf or Node rejects a shape no reader accepts when it is built."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Leaf(()), "leaf with no indices"),
            (lambda: Leaf((0, 0)), "a leaf repeats an index"),
            (lambda: Node((Leaf((0,)),)), "inner node needs at least two children"),
            (lambda: Node(()), "inner node needs at least two children"),
            (
                lambda: dataclasses.replace(Leaf((0, 1)), indices=()),
                "leaf with no indices",
            ),
            (
                lambda: dataclasses.replace(
                    parse_tree("[[0],[1]]"), children=(Leaf((0,)),)
                ),
                "inner node needs at least two children",
            ),
            # the tuple and int checks come first
            (lambda: Leaf([]), "leaf indices must be a tuple"),
            (lambda: Leaf((1, 1.0)), "leaf index must be an int, got 1.0"),
            (lambda: Node([]), "node children must be a tuple of Leaf and Node"),
        ],
        ids=[
            "empty_leaf", "repeat", "one_child", "no_child", "replace_leaf",
            "replace_node", "leaf_list", "leaf_float", "node_list",
        ],
    )
    def test_type_and_message(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_structural_fault_reported_before_index_fault(self):
        # the repeat is found when the plan is parsed, before any index is
        # compared with the moduli count
        for call in (
            lambda: parse_tree("[[0,5],[1,1]]"),
            lambda: validate_tree("[[0,5],[1,1]]", 3),
            lambda: stage_bounds("[[0,5],[1,1]]", (8, 12, 15)),
        ):
            with pytest.raises(ValueError, match="^a leaf repeats an index$"):
                call()
        with pytest.raises(ValueError, match="^leaf index out of range$"):
            validate_tree("[[0,5],[1,2]]", 3)


class TestStageBounds:
    def test_two_group_goldens(self):
        cases = [
            (EX_SPLIT, "[[0,1],[2,3]]", (20, 27), 18),
            ((192, 144, 168, 112), "[[0,1],[2,3]]", (48, 56), 48),
            ((192, 144, 168, 112), "[[0,3],[1,2]]", (16, 24), 336),
        ]
        for ms, layout, groups, cross in cases:
            b = stage_bounds(parse_tree(layout), ms)
            assert b.per_group == tuple(Fraction(g, 4) for g in groups)
            assert b.cross == Fraction(cross, 4)

    def test_three_stage_golden(self):
        b = stage_bounds(parse_tree("[[[0,1],[2,3]],[4,5]]"), EX_THREE)
        assert b.per_group == (
            Fraction(96, 4),
            Fraction(72, 4),
            Fraction(64, 4),
        )
        assert dict(b.node_cross)[(0,)] == Fraction(72, 4)
        assert b.cross == Fraction(320, 4)
        assert b.per_leaf_effective == (
            Fraction(72, 4),
            Fraction(72, 4),
            Fraction(64, 4),
        )

    def test_singleton_group_rule(self):
        b = stage_bounds(parse_tree("[[0,1],[2]]"), EX_SIM)
        assert b.per_group == (Fraction(45, 4), Fraction(162, 4))
        assert b.cross == Fraction(54, 4)
        assert b.per_leaf_effective == (Fraction(45, 4), Fraction(54, 4))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTreeError):
            stage_bounds(parse_tree("[[0,1],[2,3]]"), (6, 10, 15, 30))

    def test_cross_bound_matches_direct_maxmin(self):
        # independent recomputation of the cross formula over group lcms
        groups = [(130, 156), (189, 351), (420, 308)]
        ms = tuple(m for g in groups for m in g)
        b = stage_bounds(parse_tree("[[0,1],[2,3],[4,5]]"), ms)
        lams = [math.lcm(*g) for g in groups]
        direct = max(
            min(
                Fraction(math.gcd(lams[i], lams[j]), 4)
                for j in range(3)
                if j != i
            )
            for i in range(3)
        )
        assert b.cross == direct == Fraction(39, 4)

    def test_monotone_composition(self):
        rng = random.Random(97)
        for _ in range(40):
            ms = tuple(sorted(rng.sample(range(4, 200), 4)))
            for part in all_partitions(list(range(4))):
                if len(part) < 2:
                    continue
                tree = Node(tuple(Leaf(tuple(g)) for g in part))
                try:
                    b = stage_bounds(tree, ms)
                except DegenerateTreeError:
                    continue
                for own, eff in zip(b.per_group, b.per_leaf_effective):
                    assert eff <= own
                    assert eff <= b.cross

    def test_effective_below_theta_for_coprime_cofactors(self):
        # when moduli are a common factor times coprime parts, no grouping
        # can beat the single-stage bound
        for ms in ((25, 35, 80, 95), (14, 21, 35)):
            theta = theta_bound(ms)
            for part in all_partitions(list(range(len(ms)))):
                if len(part) < 2:
                    continue
                tree = Node(tuple(Leaf(tuple(g)) for g in part))
                try:
                    b = stage_bounds(tree, ms)
                except DegenerateTreeError:
                    continue
                assert all(e <= theta for e in b.per_leaf_effective)

    def test_improving_tree_exists_for_entangled_sets(self):
        cases = [
            ((192, 144, 168, 112), "[[0,1],[2,3]]"),
            (EX_THREE, "[[0,1],[2,3],[4,5]]"),
            ((560, 480, 210), "[[0,1],[2]]"),
        ]
        for ms, layout in cases:
            theta = theta_bound(ms)
            b = stage_bounds(parse_tree(layout), ms)
            assert all(e > theta for e in b.per_leaf_effective)


class TestFusedErrorBound:
    def test_examples(self):
        assert fused_error_bound([3, 3], [2, 2]) == 3
        assert fused_error_bound([11, 11], [2, 1]) == 11
        assert fused_error_bound([2, 5], [1, 3]) == 4

    def test_rational_taus(self):
        assert fused_error_bound([Fraction(5, 2), Fraction(1, 2)], [1, 1]) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fused_error_bound([1], [1, 2])

    @pytest.mark.parametrize(
        "taus,sizes",
        [
            ([0.1, 1], [1, 1]),
            ([True, 1], [1, 1]),
            ([1, 1], [1, -1]),
            ([1, 1], [1, 0]),
            ([1, 1], [1, 1.5]),
            ([-1, 1], [1, 1]),
        ],
    )
    def test_rejects_float_taus_and_bad_sizes(self, taus, sizes):
        with pytest.raises(ValueError):
            fused_error_bound(taus, sizes)


class TestReconstructTwoStage:
    def test_zero_errors_exact(self):
        tree = parse_tree("[[0,1],[2,3]]")
        lam = math.lcm(*EX_SPLIT)
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randrange(lam)
            sol = reconstruct_two_stage(EX_SPLIT, [n % m for m in EX_SPLIT], tree)
            assert sol.final.estimate == n
            assert sol.final.folding == tuple(n // m for m in EX_SPLIT)

    def test_simulation_set_error_level(self):
        tree = parse_tree("[[0,1],[2]]")
        rng = random.Random(103)
        for _ in range(400):
            n = rng.randrange(1620)
            deltas = [rng.randint(-11, 11) for _ in EX_SIM]
            rt = [n % m + d for m, d in zip(EX_SIM, deltas)]
            sol = reconstruct_two_stage(EX_SIM, rt, tree)
            assert sol.final.folding == tuple(n // m for m in EX_SIM)
            assert abs(sol.final.estimate - n) <= 11

    def test_split_set_within_cross_bound(self):
        tree = parse_tree("[[0,1],[2,3]]")
        lam = math.lcm(*EX_SPLIT)
        rng = random.Random(107)
        for _ in range(300):
            n = rng.randrange(lam)
            deltas = [rng.randint(-4, 4) for _ in EX_SPLIT]
            rt = [n % m + d for m, d in zip(EX_SPLIT, deltas)]
            sol = reconstruct_two_stage(EX_SPLIT, rt, tree)
            assert sol.final.folding == tuple(n // m for m in EX_SPLIT)

    def test_oracle_cross_check(self):
        tree = parse_tree("[[0,1],[2]]")
        rng = random.Random(109)
        for _ in range(3):
            n = rng.randrange(1620)
            rt = [n % m + rng.randint(-6, 6) for m in EX_SIM]
            sol = reconstruct_two_stage(EX_SIM, rt, tree)
            oracle = folding_oracle(EX_SIM, rt, 6)
            assert sol.final.folding in [s.folding for s in oracle]

    def test_intermediate_records(self):
        tree = parse_tree("[[0,1],[2]]")
        n = 1234
        rt = [n % m for m in EX_SIM]
        sol = reconstruct_two_stage(EX_SIM, rt, tree)
        # group estimates are the per-group reconstructions of n mod lcm
        assert sol.per_group_estimates == (n % 540, n % 162)
        # outer multipliers recover n from the group estimates
        l1, l2 = sol.outer_folding
        assert l1 * 540 + n % 540 == n
        assert l2 * 162 + n % 162 == n

    def test_requires_depth_two(self):
        with pytest.raises(ValueError):
            reconstruct_two_stage(EX_SIM, [0, 0, 0], Leaf((0, 1, 2)))
        with pytest.raises(ValueError):
            reconstruct_two_stage(
                EX_THREE, [0] * 6, parse_tree("[[[0,1],[2,3]],[4,5]]")
            )

    def test_failure_propagates(self):
        # the first group alone already fails with a negative folding number
        with pytest.raises(FoldingFailure):
            solve_folding((8, 12), [-6, 4], 0)
        with pytest.raises(FoldingFailure):
            reconstruct_two_stage((8, 12, 20), [-6, 4, 0], "[[0,1],[2]]")


class TestReconstructTree:
    def test_depth_two_equivalence(self):
        tree = parse_tree("[[0,1],[2,3]]")
        rng = random.Random(113)
        for _ in range(50):
            n = rng.randrange(math.lcm(*EX_SPLIT))
            rt = [n % m + rng.randint(-4, 4) for m in EX_SPLIT]
            assert reconstruct_tree(EX_SPLIT, rt, tree) == reconstruct_two_stage(
                EX_SPLIT, rt, tree
            )

    def test_three_stage_zero_errors(self):
        tree = parse_tree("[[[0,1],[2,3]],[4,5]]")
        lam = math.lcm(*EX_THREE)
        rng = random.Random(127)
        for _ in range(150):
            n = rng.randrange(lam)
            sol = reconstruct_tree(EX_THREE, [n % m for m in EX_THREE], tree)
            assert sol.final.estimate == n
            assert sol.final.folding == tuple(n // m for m in EX_THREE)

    def test_three_stage_within_effective_bounds(self):
        tree = parse_tree("[[[0,1],[2,3]],[4,5]]")
        caps = (17, 17, 15)  # strictly below (72/4, 72/4, 64/4)
        groups = ((0, 1), (2, 3), (4, 5))
        lam = math.lcm(*EX_THREE)
        rng = random.Random(131)
        for _ in range(400):
            n = rng.randrange(lam)
            deltas = [0] * 6
            for g, cap in zip(groups, caps):
                for i in g:
                    deltas[i] = rng.randint(-cap, cap)
            rt = [n % m + d for m, d in zip(EX_THREE, deltas)]
            sol = reconstruct_tree(EX_THREE, rt, tree)
            assert sol.final.folding == tuple(n // m for m in EX_THREE)

    def test_three_stage_oracle_cross_check(self):
        tree = parse_tree("[[[0,1],[2,3]],[4,5]]")
        rng = random.Random(137)
        for _ in range(3):
            n = rng.randrange(math.lcm(*EX_THREE))
            rt = [n % m + rng.randint(-10, 10) for m in EX_THREE]
            sol = reconstruct_tree(EX_THREE, rt, tree)
            oracle = folding_oracle(EX_THREE, rt, 10)
            assert sol.final.folding in [s.folding for s in oracle]

    def test_single_leaf_matches_single_stage(self):
        rng = random.Random(139)
        leaf = Leaf((0, 1, 2, 3))
        k = select_reference(EX_SPLIT)
        plan = _folding_plan(EX_SPLIT, k)
        for _ in range(60):
            n = rng.randrange(math.lcm(*EX_SPLIT))
            rt = [n % m + rng.randint(-2, 2) for m in EX_SPLIT]
            # the pure solver is the reference: solve_folding runs the
            # plan's generated solve once the plan is warm
            pure = FoldingSolution(*_solve_with_plan(plan, rt), k)
            direct = solve_folding(EX_SPLIT, rt, k)
            via_tree = reconstruct_tree(EX_SPLIT, rt, leaf)
            assert direct == pure
            assert via_tree.final == pure
            assert via_tree.per_group_estimates == ()
            assert via_tree.outer_folding == ()

    def test_shared_modulus_across_groups(self):
        ms = (12, 18, 35)
        tree = parse_tree("[[0,1],[0,2]]")
        lam = math.lcm(*ms)
        rng = random.Random(149)
        for _ in range(100):
            n = rng.randrange(lam)
            sol = reconstruct_tree(ms, [n % m for m in ms], tree)
            assert sol.final.estimate == n
            assert sol.final.folding == tuple(n // m for m in ms)

    def test_degenerate_node_rejected(self):
        with pytest.raises(DegenerateTreeError):
            reconstruct_tree((6, 10, 15, 30), [0, 0, 0, 0], "[[0,1],[2,3]]")


class TestPerGroupReferenceBounds:
    def test_three_group_golden(self):
        ms = (130, 156, 189, 351, 420, 308)
        ref = per_group_reference_bounds("[[0,1],[2,3],[4,5]]", ms)
        assert ref.group_bounds == (
            Fraction(26, 4),
            Fraction(27, 4),
            Fraction(28, 4),
        )
        assert ref.cross == Fraction(39, 4)
        assert ref.reference == 0
        assert ref.per_group_tau == (
            Fraction(26, 4),
            Fraction(27, 4),
            Fraction(28, 4),
        )

    def test_reference_attains_cross(self):
        ms = (130, 156, 189, 351, 420, 308)
        ref = per_group_reference_bounds("[[0,1],[2,3],[4,5]]", ms)
        lams = [math.lcm(130, 156), math.lcm(189, 351), math.lcm(420, 308)]
        k = ref.reference
        attained = min(
            Fraction(math.gcd(lams[k], lams[j]), 4)
            for j in range(3)
            if j != k
        )
        assert attained == ref.cross

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTreeError):
            per_group_reference_bounds("[[0,1],[2,3]]", (6, 10, 15, 30))

    def test_depth_two_only(self):
        with pytest.raises(ValueError):
            per_group_reference_bounds("[[[0,1],[2,3]],[4,5]]", EX_THREE)

    def test_matches_rational_formula_cold_and_warm(self):
        rng = random.Random(1301)
        kinds = Counter()
        while kinds["plans"] < 320:
            ms, groups = random_depth_two_plan(rng)
            try:
                want = rational_group_reference_bounds(groups, ms)
            except DegenerateTreeError:
                with pytest.raises(DegenerateTreeError):
                    per_group_reference_bounds(groups, ms)
                continue
            kinds["plans"] += 1
            for state in ("cold", "warm"):
                if state == "cold":
                    robust._profile.cache_clear()
                got = per_group_reference_bounds(groups, ms)
                assert got == want, (ms, groups, state)
            counts = Counter(i for g in groups for i in g)
            kinds["shared" if max(counts.values()) > 1 else "partition"] += 1
            kinds["singleton"] += min(map(len, groups)) == 1
        # singleton groups and shared-index leaves are both well covered
        assert kinds["shared"] > 80 and kinds["singleton"] > 80, kinds


def random_depth_two_plan(rng):
    """3-6 moduli with shared factors and a depth-2 plan over them.

    The groups partition the indices, with a singleton group in some
    plans; in a third of them one group also takes an index of another,
    as in [[0], [0, 1, 2]].
    """
    base = rng.choice([2, 3, 4, 6, 10, 12])
    ms = tuple(
        base * c for c in rng.sample(range(2, 60), rng.randint(3, 6))
    )
    order = rng.sample(range(len(ms)), len(ms))
    cuts = sorted(rng.sample(range(1, len(ms)), rng.randint(1, len(ms) - 1)))
    groups = [
        sorted(order[a:b]) for a, b in zip([0] + cuts, cuts + [len(ms)])
    ]
    if rng.random() < 1 / 3:
        g = rng.choice(groups)
        outside = [i for i in range(len(ms)) if i not in g]
        g.append(rng.choice(outside))
    return ms, groups


def rational_group_reference_bounds(groups, ms):
    """per_group_reference_bounds by its rational formula.

    G_j is group j's max-min gcd over 4 (M/4 for one modulus), G the
    max-min gcd of the group lcms over 4 and k the first group attaining
    it; group k tolerates min(G_k, G) and every other group j
    min(G_j, gcd(lcm_j, lcm_k)/2 - min(G_k, G)).
    """
    lams = [math.lcm(*(ms[i] for i in g)) for g in groups]
    if len(set(lams)) != len(lams):
        raise DegenerateTreeError("sibling groups share an lcm")
    g_bounds = [_maxmin_quarter([ms[i] for i in g]) for g in groups]
    rows = [
        min(Fraction(math.gcd(a, b), 4) for b in lams if b != a)
        for a in lams
    ]
    cross = max(rows)
    k = rows.index(cross)
    ref_term = min(g_bounds[k], cross)
    return GroupReferenceBounds(
        reference=k,
        group_bounds=tuple(g_bounds),
        cross=cross,
        per_group_tau=tuple(
            ref_term
            if j == k
            else min(g, Fraction(math.gcd(lams[j], lams[k]), 2) - ref_term)
            for j, g in enumerate(g_bounds)
        ),
    )


# -- reference: the recursive tree engine the flat step program replaced --


def _maxmin_quarter(values):
    if len(values) == 1:
        return Fraction(values[0], 4)
    return max(
        min(Fraction(math.gcd(v, w), 4) for j, w in enumerate(values) if j != i)
        for i, v in enumerate(values)
    )


def recursive_stage_bounds(tree, ms):
    per_group, node_cross, effective = [], [], []

    def walk(t, path):
        if isinstance(t, Leaf):
            sub = [ms[i] for i in t.indices]
            per_group.append(_maxmin_quarter(sub))
            return math.lcm(*sub)
        lams = [walk(c, path + (ci,)) for ci, c in enumerate(t.children)]
        if len(set(lams)) != len(lams):
            raise DegenerateTreeError(f"children of node {path} share an lcm")
        node_cross.append((path, _maxmin_quarter(lams)))
        return math.lcm(*lams)

    walk(tree, ())
    crosses = dict(node_cross)

    def eff(t, path, above):
        if isinstance(t, Leaf):
            own = per_group[len(effective)]
            effective.append(own if above is None else min(own, above))
            return
        limit = crosses[path] if above is None else min(crosses[path], above)
        for ci, c in enumerate(t.children):
            eff(c, path + (ci,), limit)

    eff(tree, (), None)
    return StageBounds(
        per_group=tuple(per_group),
        node_cross=tuple(node_cross),
        cross=crosses.get((), None),
        per_leaf_effective=tuple(effective),
    )


def recursive_reconstruct(ms, rt, tree):
    """Solve every subtree recursively, recording as StageSolution does."""
    leaf_est, node_est, inner_mult, root_mult = [], [], [], []

    def stage(plan, values, is_root):
        try:
            return _solve_with_plan(plan, values)
        except FoldingFailure as exc:
            if is_root:
                raise
            # below the root a partial result is not a value of N
            raise FoldingFailure(exc.reason) from None

    def solve(t, is_root):
        """Returns (leaf occurrences, foldings per occurrence, lcm, est)."""
        if isinstance(t, Leaf):
            idxs = t.indices
            if len(idxs) == 1:
                folds, est = [0], rt[idxs[0]]
            else:
                sub = tuple(ms[i] for i in idxs)
                plan = _folding_plan(sub, select_reference(sub))
                folding, est = stage(plan, [rt[i] for i in idxs], is_root)
                folds = list(folding)
            leaf_est.append(est)
            return list(idxs), folds, math.lcm(*(ms[i] for i in idxs)), est
        kids = [solve(c, False) for c in t.children]
        lams = tuple(k[2] for k in kids)
        if len(set(lams)) != len(lams):
            raise DegenerateTreeError("sibling groups share an lcm")
        plan = _folding_plan(lams, select_reference(lams))
        mult, est = stage(plan, [k[3] for k in kids], is_root)
        (root_mult if is_root else inner_mult).append(mult)
        if not is_root:
            node_est.append(est)
        occ, folds = [], []
        for (c_occ, c_folds, lam, _), m in zip(kids, mult):
            occ.extend(c_occ)
            folds.extend(f + m * (lam // ms[i]) for f, i in zip(c_folds, c_occ))
        return occ, folds, math.lcm(*lams), est

    occ, folds, _, _ = solve(tree, True)
    by_idx = {}
    for i, f in zip(occ, folds):
        if by_idx.setdefault(i, f) != f:
            raise FoldingFailure(
                f"conflicting folding numbers for modulus index {i}"
            )
    total = sum(f * ms[i] + rt[i] for f, i in zip(folds, occ))
    root_leaf = isinstance(tree, Leaf)
    if root_leaf and len(tree.indices) > 1:
        ref = tree.indices[select_reference([ms[i] for i in tree.indices])]
    else:
        ref = None
    return StageSolution(
        per_group_estimates=() if root_leaf else tuple(leaf_est + node_est),
        outer_folding=tuple(x for m in root_mult + inner_mult for x in m),
        final=FoldingSolution(
            folding=tuple(by_idx[i] for i in range(len(ms))),
            estimate=round_half_up_div(total, len(folds)),
            reference_index=ref,
        ),
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except FoldingFailure as exc:
        return ("failure", exc.reason, exc.partial_folding, exc.partial_estimate)


DIFF_PLANS = [
    (EX_SIM, "[0,1,2]"),
    (EX_SIM, "[[0,1],[2]]"),
    (EX_SIM, "[[0],[1],[2]]"),
    ((12, 18, 35), "[[0,1],[0,2]]"),
    (EX_SPLIT, "[[0,1],[2,3]]"),
    (EX_SPLIT, "[[[0,1],[2]],[3]]"),
    (EX_THREE, "[[[0,1],[2,3]],[4,5]]"),
    (EX_THREE, "[[[0,1],[2,3]],[[4],[5]]]"),
    (EX_THREE, "[[[[0,1],[2]],[3]],[4,5]]"),
    (EX_THREE, "[[[[0,1],[2,3]],[4]],[5]]"),
    ((70, 75, 80, 90), "[[3],[0,1,2]]"),
    ((12, 18, 35), "[[0],[0,1],[2]]"),
    (EX_SIM, "[[[0],[1]],[2]]"),
]


class TestFlatProgramMatchesRecursive:
    @pytest.mark.parametrize("ms, layout", DIFF_PLANS)
    def test_stage_bounds(self, ms, layout):
        tree = parse_tree(layout)
        assert stage_bounds(tree, ms) == recursive_stage_bounds(tree, ms)

    @pytest.mark.parametrize("ms, layout", DIFF_PLANS)
    def test_every_field_and_failure(self, ms, layout):
        tree = parse_tree(layout)
        theta = min(stage_bounds(tree, ms).per_leaf_effective)
        rng = random.Random(hash(layout) % 1000 + len(ms))
        lam = math.lcm(*ms)
        failures = wrong = 0
        # error levels inside the bound, at it, and far beyond it
        edge = math.ceil(theta)
        for tau in (0, edge - 1, edge, 3 * edge + 5):
            for _ in range(60):
                n = rng.randrange(lam)
                rt = [n % m + rng.randint(-tau, tau) for m in ms]
                flat = outcome(reconstruct_tree, ms, rt, tree)
                assert flat == outcome(recursive_reconstruct, ms, rt, tree)
                if isinstance(flat, tuple):
                    failures += 1
                elif flat.final.folding != tuple(n // m for m in ms):
                    wrong += 1
        assert failures + wrong > 0  # beyond the bound was exercised

    def test_depth_three_record_order(self):
        # leaves left to right, then inner nodes bottom-up; root multipliers
        # first, then the inner nodes'
        tree = parse_tree("[[[0,1],[2,3]],[4,5]]")
        n = 54321
        rt = [n % m for m in EX_THREE]
        sol = reconstruct_tree(EX_THREE, rt, tree)
        l01, l23 = math.lcm(192, 288), math.lcm(216, 360)
        l0123, l45 = math.lcm(l01, l23), math.lcm(320, 448)
        assert sol.per_group_estimates == (n % l01, n % l23, n % l45, n % l0123)
        assert sol.outer_folding == (
            n // l0123,
            n // l45,
            (n % l0123) // l01,
            (n % l0123) // l23,
        )
        assert sol == recursive_reconstruct(EX_THREE, rt, tree)


def random_plan(rng, size):
    """A depth-1 to depth-3 plan over range(size), sometimes sharing an index."""
    idx = list(range(size))
    rng.shuffle(idx)
    depth = rng.randint(1, 3)
    if depth == 1:
        return idx
    cuts = sorted(rng.sample(range(1, size), rng.randint(1, size - 1)))
    groups = [idx[a:b] for a, b in zip([0] + cuts, cuts + [size])]
    if rng.random() < 0.4:  # one leaf also takes an index of another
        g = rng.randrange(len(groups))
        groups[g] = groups[g] + [rng.choice([i for i in idx if i not in groups[g]])]
    if depth == 3 and len(groups) >= 3:
        cut = rng.randint(2, len(groups) - 1)
        return [groups[:cut], *groups[cut:]]
    return groups


class TestStepReferences:
    def test_layout_references_are_the_profiles(self):
        # each step's reference comes from the layout's max-min pass; it
        # is the one the parts' own profile picks
        rng = random.Random(409)
        plans = shared = steps = past_first = 0
        while plans < 300:
            size = rng.randint(2, 6)
            ms = random_entangled(rng, size)
            tree = parse_tree(random_plan(rng, size))
            try:
                program = _tree_program(ms, tree)
            except DegenerateTreeError:
                continue
            plans += 1
            shared += sum(len(leaf.indices) for leaf in tree_leaves(tree)) > size
            for plan, *_ in program.stages:
                steps += 1
                past_first += plan.k > 0
                assert plan.k == robust._profile(plan.moduli).reference
        assert shared > 60 and steps > 400, (shared, steps)
        assert past_first > 100, past_first


class TestOneRun:
    """The sweep's run and reconstruct_tree share one solve and one failure rule."""

    def test_failure_below_root_carries_no_partial(self):
        # the leaf [0,1] fails with a negative folding number; its fused
        # value 5 is a value modulo lcm(135, 180) = 540, not an estimate of N
        ms, rt = EX_SIM, [5, 184, 114]
        with pytest.raises(FoldingFailure) as leaf:
            solve_folding(ms[:2], rt[:2], select_reference(ms[:2]))
        assert leaf.value.partial_estimate == 5
        with pytest.raises(FoldingFailure) as exc:
            reconstruct_tree(ms, rt, "[[0,1],[2]]")
        assert exc.value.reason == "negative folding number"
        assert exc.value.partial_folding is None
        assert exc.value.partial_estimate is None
        with pytest.raises(FoldingFailure) as swept:
            _tree_program(ms, parse_tree("[[0,1],[2]]")).run(rt)
        assert swept.value.partial_estimate is None

    def test_root_failure_keeps_partial(self):
        # both leaves solve; the root stage finds a negative multiplier
        with pytest.raises(FoldingFailure) as exc:
            reconstruct_tree(EX_SIM, [-16, -16, 134], "[[0,1],[2]]")
        assert exc.value.reason == "negative folding number"
        assert exc.value.partial_folding == (0, -1)
        assert exc.value.partial_estimate == -22

    def test_run_fails_exactly_when_reconstruct_tree_fails(self):
        rng = random.Random(401)
        plans = shared = fails = root_partials = 0
        while plans < 300:
            size = rng.randint(2, 6)
            ms = random_entangled(rng, size)
            tree = parse_tree(random_plan(rng, size))
            try:
                program = _tree_program(ms, tree)
            except DegenerateTreeError:
                continue
            plans += 1
            shared += sum(len(leaf.indices) for leaf in tree_leaves(tree)) > size
            # one stage per folding plan built: each leaf of two or more
            # indices and each node (bench/workloads.py plans_built)
            assert len(program.stages) == sum(
                isinstance(t, Node) or len(t.indices) > 1
                for t, _ in _post_order(tree)
            )
            lam = math.lcm(*ms)
            for _ in range(20):
                n = rng.randrange(lam)
                tau = rng.choice((0, 2, 5, 13, 30))
                rt = [n % m + rng.randint(-tau, tau) for m in ms]
                try:
                    groups, _, outer, folding, estimate = program.run(rt)
                except FoldingFailure as exc:
                    with pytest.raises(FoldingFailure) as again:
                        reconstruct_tree(ms, rt, tree)
                    got = (exc.reason, exc.partial_folding, exc.partial_estimate)
                    assert got == (
                        again.value.reason,
                        again.value.partial_folding,
                        again.value.partial_estimate,
                    )
                    fails += 1
                    root_partials += exc.partial_estimate is not None
                    continue
                sol = reconstruct_tree(ms, rt, tree)
                assert (groups, outer, folding, estimate) == (
                    sol.per_group_estimates,
                    sol.outer_folding,
                    sol.final.folding,
                    sol.final.estimate,
                )
                assert sol == recursive_reconstruct(ms, rt, tree)
        assert shared > 50 and fails > 500 and root_partials > 0

    def test_one_run_per_reconstruct_tree_call(self, monkeypatch):
        # each call runs the program once; the program compiles its
        # solve once, when it is built, and a sweep's anchor and scans
        # reuse it
        calls = {"run": 0, "compile": 0}
        run, compile_solve = _TreeProgram.run, multistage._compile_solve

        def counted_run(*args):
            calls["run"] += 1
            return run(*args)

        def counted_compile(*args):
            calls["compile"] += 1
            return compile_solve(*args)

        monkeypatch.setattr(_TreeProgram, "run", counted_run)
        monkeypatch.setattr(multistage, "_compile_solve", counted_compile)
        # a fresh factor keeps the program cache cold for these moduli
        f = random.Random(1419).randrange(10**12, 10**13)
        ms = tuple(f * m for m in (12, 18, 35))
        for tree, n in (("[[0,2],[1,2]]", 100), ("[[0,1],[2]]", 100)):
            calls.update(run=0, compile=0)
            rt = [n % m for m in ms]
            for repeat in range(3):
                sol = reconstruct_tree(ms, rt, tree)
                assert sol.final.folding == tuple(n // m for m in ms)
                assert calls == {"run": repeat + 1, "compile": 1}, tree
            run_trials(TrialConfig(moduli=ms, tree=tree, trials=5))
            assert calls == {"run": 8, "compile": 1}, tree


def deep_chain(depth):
    """A plan over (3, 5) nested depth levels deep: [0, [1, [0, ...]]]."""
    tree = Node((Leaf((0,)), Leaf((1,))))
    for level in range(depth - 1):
        tree = Node((Leaf((level % 2,)), tree))
    return tree


class TestDeepPlans:
    def test_walks_are_iterative(self):
        tree = deep_chain(1200)
        validate_tree(tree, 2)
        assert len(tree_leaves(tree)) == 1201
        b = stage_bounds(tree, (3, 5))
        assert len(b.node_cross) == 1200
        assert b.cross == Fraction(3, 4)
        assert max(b.per_leaf_effective) == Fraction(3, 4)

    def test_nested_round_trip(self):
        tree = deep_chain(1200)
        nested = tree_to_nested(tree)
        # rebuild without recursion: parse_tree and == both recurse
        spine = []
        while not isinstance(nested[0], int):
            assert len(nested) == 2
            spine.append(nested[0])
            nested = nested[1]
        rebuilt = Leaf(tuple(nested))
        for first in reversed(spine):
            rebuilt = Node((Leaf(tuple(first)), rebuilt))

        def shape(t):
            return [
                (p, s.indices if isinstance(s, Leaf) else len(s.children))
                for s, p in _post_order(t)
            ]

        assert shape(rebuilt) == shape(tree)

    def test_too_deep_to_run_is_a_value_error(self):
        with pytest.raises(ValueError, match="too deep"):
            reconstruct_tree((3, 5), [1, 2], deep_chain(1200))

    def test_parse_rejects_deep_nesting(self):
        with pytest.raises(ValueError, match="too deep"):
            parse_tree("[" * 3000 + "0,1" + "]" * 3000)
        nested = [0, 1]
        for _ in range(3000):
            nested = [[0], nested]
        with pytest.raises(ValueError, match="too deep"):
            parse_tree(nested)


class TestResultObjects:
    """Results and trees: frozen, compared, hashed and pickled as the
    dataclasses they are, with each tree's hash cached."""

    def solved(self, tree):
        rt = [n % m for n in [1244] for m in EX_SIM]
        return reconstruct_tree(EX_SIM, rt, tree)

    def test_fields_repr_and_hash(self):
        final = FoldingSolution((9, 6, 7), 1244, None)
        assert repr(final) == (
            "FoldingSolution(folding=(9, 6, 7), estimate=1244, "
            "reference_index=None)"
        )
        assert hash(final) == hash(((9, 6, 7), 1244, None))
        assert final == FoldingSolution(
            folding=(9, 6, 7), estimate=1244, reference_index=None
        )
        assert dataclasses.replace(final, estimate=1) == FoldingSolution(
            (9, 6, 7), 1, None
        )
        sol = StageSolution((1, 2), (3,), final)
        assert repr(sol) == (
            "StageSolution(per_group_estimates=(1, 2), outer_folding=(3,), "
            f"final={final!r})"
        )
        assert hash(sol) == hash(((1, 2), (3,), final))
        assert [f.name for f in dataclasses.fields(StageSolution)] == [
            "per_group_estimates", "outer_folding", "final",
        ]

    def test_results_stay_frozen(self):
        sol = self.solved("[[0,1],[2]]")
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.final.estimate = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.outer_folding = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del sol.final.folding

    def test_tree_hash_is_cached_lazily(self):
        leaf = Leaf((0, 1))
        node = Node((leaf, Leaf((2,))))
        assert "_hash" not in vars(leaf) and "_hash" not in vars(node)
        # the dataclass's own hash, of the one field
        assert hash(node) == hash(Node((Leaf((0, 1)), Leaf((2,)))))
        assert vars(leaf)["_hash"] == hash(leaf) == hash(((0, 1),))
        assert vars(node)["_hash"] == hash(node)
        # the cache is no field: a hashed tree equals an unhashed one
        assert node == Node((Leaf((0, 1)), Leaf((2,))))
        assert [f.name for f in dataclasses.fields(Node)] == ["children"]
        assert repr(leaf) == "Leaf(indices=(0, 1))"
        assert "_hash" not in vars(dataclasses.replace(leaf, indices=(2,)))

    def test_equal_trees_share_one_program(self):
        ms = (291, 485, 679)  # in no other test: its program is built here
        rt = [1000 % m for m in ms]
        a, b = parse_tree("[[0,1],[2]]"), parse_tree([[0, 1], [2]])
        assert a == b and a is not b and hash(a) == hash(b)
        # one program is built, and the second decode builds nothing: it
        # finds the first's program, warm, under the equal tree
        before = _tree_program.cache_info()
        first = reconstruct_tree(ms, rt, a)
        built = _tree_program.cache_info()
        assert built.misses - before.misses == 1
        assert reconstruct_tree(ms, rt, b) == first
        assert _tree_program.cache_info().misses == built.misses
        assert multistage._WARM[ms, b] is _tree_program(ms, a)

    def test_pickle_round_trip(self):
        tree = parse_tree("[[[0],[1]],[2]]")
        sol = self.solved(tree)
        for obj in (tree.children[1], tree, sol.final, sol):
            hash(obj)  # the trees' hashes are cached before pickling
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(obj, protocol))
                assert type(back) is type(obj)
                assert back == obj and hash(back) == hash(obj)

    def test_pickled_tree_holds_no_hash(self):
        tree = parse_tree("[[[0],[1]],[2]]")
        hash(tree)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(tree, protocol)
            assert b"_hash" not in data
            back = pickle.loads(data)
            assert all("_hash" not in vars(t) for t, _ in _post_order(back))
        # a copy is rebuilt from its field too, and checked as it is built
        copied = copy.deepcopy(tree)
        assert "_hash" not in vars(copied)
        assert copied == tree and hash(copied) == hash(tree)


class TestExactIntegers:
    def test_reconstruct_tree_rejects_float_remainders(self):
        with pytest.raises(ValueError, match="remainder"):
            reconstruct_tree(EX_SIM, [1, 2.5, 3], "[[0,1],[2]]")
        with pytest.raises(ValueError, match="remainder"):
            reconstruct_tree(EX_SIM, [1, True, 3], "[[0,1],[2]]")

    @pytest.mark.parametrize(
        "moduli",
        [
            (8.0, 12, 15),  # hashes equal to the cached int tuple
            (8, 12, True),
            (8, 8, 15),
            (-8, 12, 15),
            (0, 12, 15),
        ],
    )
    def test_rejects_bad_moduli_with_warm_cache(self, moduli):
        # the moduli checks live in the program; a cached program must not
        # let a bad moduli set through, and a failed build is not cached
        rt = [4, 4, 10]  # the remainders of 100
        reconstruct_tree((8, 12, 15), rt, "[[0,1],[2]]")
        for _ in range(2):
            with pytest.raises(ValueError):
                reconstruct_tree(moduli, rt, "[[0,1],[2]]")

    def test_rejects_empty_moduli(self):
        with pytest.raises(ValueError):
            reconstruct_tree((), [], [0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Node((Leaf((0, True)), Leaf((2,)))),  # True == 1
            lambda: Node((Leaf((0, 1.0)), Leaf((2,)))),  # 1.0 == 1
            lambda: Node((Leaf([0, 1]), Leaf((2,)))),  # unhashable
            lambda: Node([Leaf((0, 1)), Leaf((2,))]),  # unhashable
            lambda: Node((Leaf((0, 1)), 2)),
        ],
    )
    def test_hand_built_trees_keep_the_int_contract(self, build):
        # the int twin's program is cached first: an equal float or bool
        # index must not reach it
        rt = [700 % m for m in EX_SIM]
        reconstruct_tree(EX_SIM, rt, "[[0,1],[2]]")
        front_doors = (
            lambda t: validate_tree(t, 3),
            lambda t: stage_bounds(t, EX_SIM),
            lambda t: reconstruct_tree(EX_SIM, rt, t),
            lambda t: per_group_reference_bounds(t, EX_SIM),
            lambda t: run_trials(TrialConfig(EX_SIM, tree=t, trials=5)),
        )
        for door in front_doors:
            with pytest.raises(ValueError):
                door(build())


def cold_result(call):
    """result_of(call) on a fresh program cache and a warm table that
    finds nothing: the checked path, through a program built afresh."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(multistage, "_tree_program",
                  lru_cache(maxsize=4)(_TreeProgram))
        m.setattr(multistage, "_WARM", Unseen())
        return result_of(call)


@pytest.fixture
def fresh_warm_table(monkeypatch):
    """A warm table that no other test has filled."""
    monkeypatch.setattr(multistage, "_WARM", {})


class TestWarmEntry:
    """A decoded program's reconstruct_tree decodes through the generated
    entry that checks its own inputs; on everything else it falls through
    to the checked path.  Each outcome is held to a fresh cold decode of
    the same input: the same value, or the same exception type and
    message."""

    TREE = parse_tree("[[0,1],[2]]")
    # 1244 reads (29, 164, 110) over EX_SIM
    # (label, moduli, remainders made fresh per call, plan, entry serves it)
    CASES = [
        ("list", EX_SIM, lambda: [29, 164, 110], TREE, True),
        ("tuple", EX_SIM, lambda: (29, 164, 110), TREE, True),
        ("failure", EX_SIM, lambda: [0, 0, 90], TREE, True),
        ("generator", EX_SIM, lambda: (r for r in [29, 164, 110]), TREE,
         False),
        ("float modulus", (135.0, 180, 162), lambda: [29, 164, 110], TREE,
         False),
        ("float remainder", EX_SIM, lambda: [29, 164.0, 110], TREE, False),
        ("bool remainder", EX_SIM, lambda: [29, True, 110], TREE, False),
        ("IntEnum remainder", EX_SIM, lambda: [Tone.LOW, 164, 110], TREE,
         False),
        ("short", EX_SIM, lambda: [29, 164], TREE, False),
        ("long", EX_SIM, lambda: [29, 164, 110, 5], TREE, False),
        ("str", EX_SIM, lambda: "abc", TREE, False),
        ("list moduli", list(EX_SIM), lambda: [29, 164, 110], TREE, None),
        ("tuple subclass", Moduli(EX_SIM), lambda: [29, 164, 110], TREE,
         False),
        ("hash raises", HashRaises(EX_SIM), lambda: [29, 164, 110], TREE,
         None),
        ("str layout", EX_SIM, lambda: [29, 164, 110], "[[0,1],[2]]", None),
        ("list layout", EX_SIM, lambda: [29, 164, 110], [[0, 1], [2]], None),
        ("int layout", EX_SIM, lambda: [29, 164, 110], 0, None),
        ("too deep", (3, 5), lambda: [1, 2], deep_chain(1200), None),
    ]

    @pytest.mark.parametrize("label, ms, remainders, tree, served", CASES,
                             ids=[c[0] for c in CASES])
    def test_same_outcome_as_a_cold_decode(self, fresh_warm_table, label,
                                           ms, remainders, tree, served):
        want = cold_result(lambda: reconstruct_tree(ms, remainders(), tree))
        reconstruct_tree(EX_SIM, [29, 164, 110], self.TREE)
        if served is not None:  # the key finds the program: its entry decides
            program = multistage._WARM[ms, tree]
            out = program.solve.decode(ms, remainders())
            assert (out is not None) == served
        got = result_of(lambda: reconstruct_tree(ms, remainders(), tree))
        assert got == want and type(got) is type(want)
        if label in ("float modulus", "bool remainder", "too deep"):
            assert want[:2] == (ValueError, {
                "float modulus": "modulus must be an int, got 135.0",
                "bool remainder": "remainder must be an int, got True",
                "too deep": "grouping plan is nested too deeply",
            }[label])

    @pytest.mark.parametrize("ms, layout", [
        (EX_SIM, "[[0,1],[2]]"),
        (EX_SIM, "[[0,2],[1,2]]"),
        (tuple(m * (10**4400 + 1) for m in EX_SIM), "[[0,2],[1,2]]"),
        (EX_THREE, "[[[0,1],[2,3]],[4,5]]"),
    ])
    def test_bit_identical_outcomes(self, fresh_warm_table, ms, layout):
        tree = parse_tree(layout)
        rng = random.Random(3504)
        lam = math.lcm(*ms)
        readings = []
        for _ in range(60):
            n = rng.randrange(lam)
            tau = rng.choice((0, 3, min(ms) // 8, min(ms) // 2))
            readings.append([n % m + rng.randint(-tau, tau) for m in ms])
            if rng.random() < 0.2:  # far outside [0, M_i)
                readings[-1] = [rng.randint(-3 * m, 3 * m) for m in ms]
        want = [cold_result(lambda: reconstruct_tree(ms, rt, tree))
                for rt in readings]
        reconstruct_tree(ms, readings[0], tree)
        program = multistage._WARM[ms, tree]
        kinds = Counter()
        for rt, w in zip(readings, want):
            assert program.solve.decode(ms, rt) is not None
            got = result_of(lambda: reconstruct_tree(ms, rt, tree))
            assert got == w, (layout, rt)
            if type(w) is StageSolution:
                assert all(type(x) is int for x in (
                    *got.per_group_estimates, *got.outer_folding,
                    *got.final.folding, got.final.estimate,
                ))
            kinds["ok" if type(w) is StageSolution else w[1]] += 1
        assert kinds["ok"] >= 10 and len(kinds) >= 2, kinds


class TestWarmTable:
    def test_capped_at_the_program_cache_size(self, fresh_warm_table):
        cap = multistage._PROGRAMS
        assert cap == _tree_program.cache_info().maxsize
        f = random.Random(3505).randrange(10**12, 10**13)
        tree = parse_tree("[[0,1],[2]]")
        sizes = []
        for q in range(cap + 3):
            ms = tuple(f * (q + 1) * m for m in EX_SIM)
            reconstruct_tree(ms, [0, 0, 0], tree)
            sizes.append(len(multistage._WARM))
        # a full table is emptied before its next entry is stored
        assert sizes[cap - 1:] == [cap, 1, 2, 3]

    def test_a_dropped_program_returns_on_the_next_checked_decode(
        self, fresh_warm_table
    ):
        tree = parse_tree("[[0,2],[1,2]]")
        rt = [1244 % m for m in EX_SIM]
        want = reconstruct_tree(EX_SIM, rt, tree)
        program = multistage._WARM[EX_SIM, tree]
        multistage._WARM.clear()
        before = _tree_program.cache_info()
        assert reconstruct_tree(EX_SIM, rt, tree) == want
        assert multistage._WARM[EX_SIM, tree] is program
        assert _tree_program.cache_info().misses == before.misses


def random_entangled(rng, size):
    """Distinct moduli built from a few shared prime powers."""
    while True:
        ms = {
            math.prod(rng.choice((1, 2, 4, 8, 3, 9, 5, 7)) for _ in range(4))
            for _ in range(size)
        }
        ms.discard(1)
        if len(ms) == size:
            return tuple(sorted(ms))


class TestEffectiveBoundSoundness:
    """Errors one step inside every leaf's effective bound recover exactly."""

    def check(self, ms, tree, rng, trials):
        b = stage_bounds(tree, ms)
        # a modulus in several leaves obeys the tightest of them
        cap = {}
        for leaf, eff in zip(tree_leaves(tree), b.per_leaf_effective):
            for i in leaf.indices:
                cap[i] = min(cap.get(i, eff), eff)
        tau = [math.ceil(cap[i]) - 1 for i in range(len(ms))]
        lam = math.lcm(*ms)
        for _ in range(trials):
            n = rng.randrange(lam)
            # mostly at the edge, sometimes inside it
            deltas = [
                rng.choice((-t, t, rng.randint(-t, t))) for t in tau
            ]
            rt = [n % m + d for m, d in zip(ms, deltas)]
            sol = reconstruct_tree(ms, rt, tree)
            assert sol.final.folding == tuple(n // m for m in ms)
            assert abs(sol.final.estimate - n) <= max(tau)

    def test_depth_three_plans(self):
        rng = random.Random(211)
        layouts = ("[[[0,1],[2,3]],[4,5]]", "[[[0,1],[2]],[[3],[4,5]]]",
                   "[[[[0,1],[2]],[3,4]],[5]]")
        checked = 0
        for _ in range(60):
            ms = random_entangled(rng, 6)
            for layout in layouts:
                try:
                    self.check(ms, parse_tree(layout), rng, 15)
                except DegenerateTreeError:
                    continue
                checked += 1
        self.check(EX_THREE, parse_tree(layouts[0]), rng, 200)
        assert checked > 100

    def test_shared_index_leaves(self):
        rng = random.Random(223)
        layouts = ("[[0,1],[0,2]]", "[[0,1],[0,2],[0,3]]",
                   "[[[0,1],[1,2]],[2,3]]")
        checked = 0
        for _ in range(80):
            for layout in layouts:
                ms = random_entangled(rng, 3 if layout == layouts[0] else 4)
                try:
                    self.check(ms, parse_tree(layout), rng, 15)
                except DegenerateTreeError:
                    continue
                checked += 1
        self.check((12, 18, 35), parse_tree(layouts[0]), rng, 200)
        assert checked > 100


class TestCheckedScan:
    """The sweep's stage-wise exactness check against the tree run."""

    def test_certificates_match_the_tree_run(self, checked_move):
        # every unknown below the lcm and every error vector in [-4, 4]^3,
        # each vector scored once through the program's checked scan
        ms = (20, 12, 15)
        program = _tree_program(ms, parse_tree("[[0,2],[1]]"))
        moves = {
            deltas: checked_move(program, deltas)
            for deltas in product(range(-4, 5), repeat=3)
        }
        issued = refused = 0
        for n in range(math.lcm(*ms)):
            rs = [n % m for m in ms]
            _, anchor, *anchor_folds, _ = program.run(rs)
            for deltas, move in moves.items():
                try:
                    _, est, *folds, _ = program.run(
                        [r + d for r, d in zip(rs, deltas)]
                    )
                except FoldingFailure:
                    folds = est = None
                if move is None:
                    # the failing stage's folding numbers are not exact
                    refused += 1
                    assert folds != anchor_folds, (n, deltas)
                else:
                    issued += 1
                    assert folds == anchor_folds, (n, deltas)
                    assert est - anchor == move, (n, deltas)
        assert issued > 10_000 and refused > 10_000

    def test_single_leaf_is_the_plan_check(self, checked_move):
        rng = random.Random(5)
        program = _tree_program(EX_SIM, parse_tree("[0,1,2]"))
        plan = _folding_plan(EX_SIM, select_reference(EX_SIM))
        refused = 0
        for _ in range(500):
            deltas = [rng.randint(-20, 20) for _ in EX_SIM]
            move = checked_move(program, deltas)
            assert move == checked_move(plan, deltas), deltas
            refused += move is None
        assert 0 < refused < 500
