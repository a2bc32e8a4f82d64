import math
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, asdict, replace
from fractions import Fraction
from itertools import count, product

import pytest
from conftest import watch

from modfold import robust, simulate
from modfold.intmath import round_half_up_div
from modfold.multistage import (
    Leaf,
    Node,
    _TreeProgram,
    _tree_program,
    parse_tree,
    reconstruct_tree,
)
from modfold.robust import (
    FoldingFailure,
    SearchCapExceeded,
    _FoldingPlan,
    _folding_plan,
    _solve_with_plan,
    check_ns_condition,
    select_reference,
    theta_bound,
    validate_moduli,
)
from modfold.simulate import (
    ONE_SIDED,
    SYMMETRIC,
    ExactnessReport,
    TrialConfig,
    TrialStats,
    run_trials,
    stats_to_csv,
    sweep,
    verify_exactness_condition,
)


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(moduli=(8, 12), trials=0)
        with pytest.raises(ValueError):
            TrialConfig(moduli=(8, 12), tau=-1)
        with pytest.raises(ValueError):
            TrialConfig(moduli=(8, 12), error_model="gaussian")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau", 2.5),
            ("tau", True),
            ("trials", 10.0),
            ("trials", True),
            ("rng_seed", 1.5),
            ("rng_seed", False),
            ("rng_seed", "7"),
        ],
    )
    def test_rejects_non_int(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrialConfig(moduli=(8, 12), **{field: value})

    @pytest.mark.parametrize("bad", ["no", "", 1, 0, None])
    def test_rejects_non_bool_clamp(self, bad):
        with pytest.raises(ValueError, match="clamp_remainders"):
            TrialConfig(
                moduli=(8, 12, 15), tau=2, trials=400, rng_seed=7,
                error_model=SYMMETRIC, clamp_remainders=bad,
            )

    @pytest.mark.parametrize("bad", [135.9, 135.0, True])
    def test_rejects_non_int_moduli(self, bad):
        with pytest.raises(ValueError, match="modulus"):
            TrialConfig(moduli=(bad, 180, 162), tau=2, trials=50)

    @pytest.mark.parametrize("layout", ["[[0,1],[2]]", [[0, 1], [2]]])
    def test_tree_layout_parsed(self, layout):
        tree = parse_tree("[[0,1],[2]]")
        cfg = TrialConfig(
            moduli=(135, 180, 162), tree=layout, tau=3, trials=200
        )
        assert cfg.tree == tree
        assert run_trials(cfg) == run_trials(replace(cfg, tree=tree))

    @pytest.mark.parametrize("layout", ["[[0,1],[2]", "[0,[1,2]]", [], "{}"])
    def test_malformed_layout_rejected_at_construction(self, layout):
        with pytest.raises(ValueError):
            TrialConfig(moduli=(135, 180, 162), tree=layout)

    @pytest.mark.parametrize(
        "layout, message",
        [
            ([[0, 5], [2]], "^leaf index out of range$"),
            (
                [[0], [1]],
                "^the leaves cover 2 moduli indices; index 2 is the first "
                "in no leaf$",
            ),
        ],
    )
    def test_plan_checked_against_the_moduli_at_construction(
        self, layout, message
    ):
        with pytest.raises(ValueError, match=message) as info:
            TrialConfig((135, 180, 162), tree=layout)
        assert type(info.value) is ValueError
        cfg = TrialConfig((135, 180, 162), tree=[[0, 1], [2]])
        # replace rebuilds the config, so it is checked too
        with pytest.raises(ValueError, match="index 2 is the first"):
            replace(cfg, tree=[[0], [1]])
        with pytest.raises(ValueError, match="^leaf index out of range$"):
            replace(cfg, moduli=(135, 180))

    def test_one_modulus_single_stage_rejected_at_construction(self):
        with pytest.raises(ValueError) as info:
            TrialConfig(moduli=(135,))
        assert type(info.value) is ValueError
        assert str(info.value) == "single-stage simulation needs >= 2 moduli"
        # a plan over the one modulus is a valid config
        cfg = TrialConfig(moduli=(135,), tree="[0]", tau=3, trials=20)
        with pytest.raises(ValueError, match="needs >= 2 moduli"):
            replace(cfg, tree=None)


class TestRunTrials:
    def test_zero_tau_is_error_free(self):
        st = run_trials(TrialConfig(moduli=(135, 180, 162), tau=0, trials=1000))
        assert st.mean_abs_error == 0
        assert st.max_abs_error == 0
        assert st.bound_violations == 0
        assert st.folding_failures == 0
        assert st.estimated_trials == 1000

    def test_determinism_golden_single(self):
        st = run_trials(
            TrialConfig(moduli=(8, 12, 15), tau=1, trials=500, rng_seed=123)
        )
        assert st.mean_abs_error == Fraction(229, 500)
        assert st.max_abs_error == 1
        assert st.bound_violations == 0
        assert st.folding_failures == 0

    def test_determinism_golden_tree(self):
        st = run_trials(
            TrialConfig(
                moduli=(135, 180, 162),
                tree=parse_tree("[[0,1],[2]]"),
                tau=3,
                trials=500,
                rng_seed=9,
            )
        )
        assert st.mean_abs_error == Fraction(187, 100)
        assert st.max_abs_error == 3
        assert st.bound_violations == 0

    def test_determinism_golden_symmetric_clamped(self):
        st = run_trials(
            TrialConfig(
                moduli=(8, 12, 15),
                tau=2,
                trials=400,
                rng_seed=7,
                error_model=SYMMETRIC,
                clamp_remainders=True,
            )
        )
        assert st.mean_abs_error == Fraction(1203, 40)
        assert st.max_abs_error == 107
        assert st.bound_violations == 244
        assert st.folding_failures == 5
        assert st.estimated_trials == 400

    def test_repeat_runs_identical(self):
        cfg = TrialConfig(
            moduli=(135, 180, 162), tau=4, trials=800, rng_seed=2026
        )
        assert run_trials(cfg) == run_trials(cfg)

    def test_mean_never_exceeds_max(self):
        for seed in (1, 2, 3):
            st = run_trials(
                TrialConfig(
                    moduli=(8, 12, 15),
                    tau=3,
                    trials=500,
                    rng_seed=seed,
                    error_model=SYMMETRIC,
                )
            )
            assert st.mean_abs_error <= st.max_abs_error
            assert st.bound_violations <= st.trials
            assert st.folding_failures <= st.trials

    def test_regime_soundness_below_theta(self):
        # integer tau at most ceil(theta) - 1 guarantees zero violations
        for ms in ((135, 180, 162), (70, 75, 80, 90), (40, 60, 45)):
            theta = theta_bound(ms)
            tau = math.ceil(theta) - 1
            for seed in (0, 99):
                cfg = TrialConfig(
                    moduli=ms, tau=tau, trials=2000, rng_seed=seed
                )
                st = run_trials(cfg)
                assert st.bound_violations == 0
                assert st.max_abs_error <= tau
                assert st.folding_failures == 0
                # these levels are certified, so run_trials solves each
                # trial once, error-free; the oracle runs the solver on
                # every trial's erroneous remainders
                solved = _per_level_oracle(cfg)
                assert solved.bound_violations == 0
                assert solved.max_abs_error <= tau
                assert solved.folding_failures == 0
                assert solved == st

    def test_symmetric_model_halves_the_safe_range(self):
        # at tau=7 one-sided differences stay below gcd(135, 162)/2 = 13.5,
        # symmetric ones reach 14 and break congruences
        ms = (135, 180, 162)
        one = run_trials(TrialConfig(moduli=ms, tau=7, trials=4000, rng_seed=5))
        sym = run_trials(
            TrialConfig(
                moduli=ms, tau=7, trials=4000, rng_seed=5,
                error_model=SYMMETRIC,
            )
        )
        assert one.folding_failures == 0
        assert sym.folding_failures > 0

    def test_clamp_flag_changes_error_geometry(self):
        base = TrialConfig(moduli=(135, 180, 162), tau=9, trials=3000,
                           rng_seed=11)
        clamped = TrialConfig(moduli=(135, 180, 162), tau=9, trials=3000,
                              rng_seed=11, clamp_remainders=True)
        assert run_trials(base) != run_trials(clamped)
        # with no errors the flag is inert
        z1 = run_trials(TrialConfig(moduli=(8, 12), tau=0, trials=200))
        z2 = run_trials(
            TrialConfig(moduli=(8, 12), tau=0, trials=200,
                        clamp_remainders=True)
        )
        assert z1 == z2


class TestSweep:
    def test_single_row(self):
        rows = sweep(TrialConfig(moduli=(8, 12, 15), trials=100), [0])
        assert len(rows) == 1
        assert rows[0].tau == 0
        assert rows[0].max_abs_error == 0

    def test_rows_and_bound_column(self):
        rows = sweep(
            TrialConfig(moduli=(135, 180, 162), trials=300, rng_seed=4),
            range(5),
        )
        assert [r.tau for r in rows] == [0, 1, 2, 3, 4]
        assert [r.bound for r in rows] == [0, 1, 2, 3, 4]

    def test_csv_render(self):
        rows = sweep(
            TrialConfig(moduli=(8, 12, 15), trials=50, rng_seed=1), [0, 1]
        )
        text = stats_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].split(",") == [
            "tau",
            "mean_abs_error",
            "max_abs_error",
            "bound",
            "violations",
            "folding_failures",
        ]
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"

    def test_csv_mean_past_float_range(self):
        row = TrialStats(
            tau=0, trials=3, mean_abs_error=Fraction(2 * 10**400, 3),
            max_abs_error=10**400, bound=0, bound_violations=3,
            folding_failures=0, estimated_trials=3,
        )
        mean = "6" * 400 + ".666667"
        assert stats_to_csv([row]).splitlines()[1] == (
            f"0,{mean},{10**400},0,3,0"
        )

    def test_csv_mean_matches_float_formatting(self):
        gen = random.Random(28)
        for _ in range(2000):
            bits = gen.choice((8, 53, 200, 1000))
            x = Fraction(gen.getrandbits(bits), gen.getrandbits(bits) + 1)
            assert simulate._fixed6(x) == f"{float(x):.6f}", x

    def test_stats_are_frozen_values(self):
        fields = dict(
            tau=3, trials=10, mean_abs_error=Fraction(7, 5), max_abs_error=4,
            bound=3, bound_violations=2, folding_failures=1,
            estimated_trials=9,
        )
        row = TrialStats(**fields)
        assert asdict(row) == fields
        assert row == TrialStats(*fields.values())
        assert hash(row) == hash(TrialStats(**fields))
        assert row != replace(row, folding_failures=0)
        assert pickle.loads(pickle.dumps(row)) == row
        with pytest.raises(FrozenInstanceError):
            row.tau = 4

    @pytest.mark.parametrize("tau", [2.7, True, Fraction(2), -1])
    def test_rejects_bad_level(self, tau):
        with pytest.raises(ValueError, match="tau"):
            sweep(TrialConfig(moduli=(8, 12, 15), trials=10), [0, tau])

    def test_endless_levels_hit_the_cap(self, monkeypatch):
        cfg = TrialConfig(moduli=(4, 6), trials=1)
        with pytest.raises(SearchCapExceeded, match="100000 error levels"):
            sweep(cfg, count())
        # the cap's edge: as many levels as the cap pass, one more fails
        monkeypatch.setattr(simulate, "_LEVEL_CAP", 5)
        assert [r.tau for r in sweep(cfg, range(5))] == [0, 1, 2, 3, 4]
        with pytest.raises(SearchCapExceeded):
            sweep(cfg, range(6))

    def test_too_deep_plan_is_a_value_error(self):
        tree = Node((Leaf((0,)), Leaf((1,))))
        for level in range(1199):
            tree = Node((Leaf((level % 2,)), tree))
        cfg = TrialConfig(moduli=(3, 5), tree=tree, trials=5)
        with pytest.raises(ValueError, match="too deep"):
            sweep(cfg, [0, 1])

    def test_each_trial_drawn_once(self, monkeypatch):
        draws = []  # the trials each drawer call draws
        rows_of = simulate._rows

        def rows(moduli):
            draw, reduce = rows_of(moduli)

            def counting(seed, start, stop, reconstruct):
                draws.extend(range(start, stop))
                return draw(seed, start, stop, reconstruct)

            return counting, reduce

        monkeypatch.setattr(simulate, "_rows", rows)
        monkeypatch.setattr(simulate, "_BLOCK", 16)
        cfg = TrialConfig(moduli=(135, 180, 162), trials=50, rng_seed=5)
        assert sweep(cfg, []) == []
        assert draws == []
        sweep(cfg, range(26))
        # every trial once, over four blocks; the drawer makes each
        # trial's substream key, unknown and one error per modulus
        # (tests/test_moves.py::TestDrawer)
        assert draws == list(range(50))

    @pytest.mark.parametrize(
        "moduli, layout, error_model, clamp, owner, name, inside, outside",
        [
            # one stage, G = 27: every check passes at one-sided levels
            # 0..13 (2w < G); past them some fail
            ((135, 180, 162), None, ONE_SIDED, False, _FoldingPlan, "run",
             range(14), range(14, 29)),
            # G = 45
            ((135, 180, 162), "[[0,1],[2]]", ONE_SIDED, False, _TreeProgram,
             "run", range(23), range(23, 47)),
            # G = 3 and w = 2 tau, clamped; 9 of the 50 trials fail every
            # check at levels 1..3, and each still has its anchor
            ((8, 12, 15), None, SYMMETRIC, True, _FoldingPlan, "run",
             range(1), range(1, 4)),
            # a shared index, G = 6
            ((36, 54, 60), "[[0,2],[1,2]]", ONE_SIDED, False, _TreeProgram,
             "run", range(3), range(3, 8)),
            # no stage: no condition, so every check passes
            ((7,), "[0]", ONE_SIDED, False, _TreeProgram, "run", range(3),
             range(0)),
        ],
        ids=["single", "two_stage", "clamped", "shared_index", "no_stage"],
    )
    def test_solves_are_anchors_plus_failed_checks(
        self, monkeypatch, moduli, layout, error_model, clamp, owner, name,
        inside, outside,
    ):
        trials = 50
        cfg = TrialConfig(
            moduli=moduli, tree=layout, trials=trials, rng_seed=5,
            error_model=error_model, clamp_remainders=clamp,
        )
        tree = cfg.tree or Leaf(tuple(range(len(moduli))))

        def passes(taus):
            """Per trial, whether each level's errors meet every stage."""
            rows = [[] for _ in range(trials)]
            for tau in taus:
                for row, (n, rt) in zip(rows, _draws(replace(cfg, tau=tau))):
                    errors = [r - n % m for r, m in zip(rt, moduli)]
                    row.append(
                        _stage_wise_move(moduli, tree, errors) is not None
                    )
            return rows

        assert all(all(row) for row in passes(inside))
        if outside:  # the check decides: some pairs pass, some fail
            flat = [p for row in passes(outside) for p in row]
            assert any(flat) and not all(flat)
        calls = []
        real = getattr(owner, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
        solved = []  # each sweep's checked scan's calls to its own solve
        scans_of = simulate._scans

        def scans(plan, clamp):
            family = scans_of(plan, clamp)
            checked_scan, handed = watch(family)
            solved.append(handed)
            return family[0], checked_scan, *family[2:]

        monkeypatch.setattr(simulate, "_scans", scans)
        for taus in (inside, outside, [*outside, *inside]):
            rows = passes(taus)
            calls.clear()
            solved.clear()
            sweep(cfg, taus)
            # one error-free solve per trial, made when it is drawn; a
            # sweep of no level draws none
            assert len(calls) == sum(bool(row) for row in rows)
            # and the plan's solve once per failed check
            assert sum(map(len, solved)) == sum(
                row.count(False) for row in rows
            )


class TestAnchorLookup:
    """A sweep reaches its anchor through the plan's run on each sweep, so
    a run patched on the class after the scans were compiled, as the
    benchmark's span recorder patches _TreeProgram.run, is the one it
    calls: for a tree that run, for a single stage the plan's own run
    (robust._FoldingPlan.run), never a tree's run and never the pure
    solver robust._solve_with_plan."""

    TRIALS = 40
    # certified and checked levels on both plans
    TAUS = [0, 5, 30]

    def counted(self, monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_tree_run_patched_after_the_scans_compiled(self, monkeypatch):
        cfg = TrialConfig(
            moduli=(135, 180, 162), tree="[[0,1],[2]]", trials=self.TRIALS,
            rng_seed=17,
        )
        want = sweep(cfg, self.TAUS)  # compiles the plan's family
        runs = self.counted(monkeypatch, _TreeProgram, "run")
        assert sweep(cfg, self.TAUS) == want
        assert len(runs) == self.TRIALS

    def test_single_stage_anchor_is_the_plans_run(self, monkeypatch):
        cfg = TrialConfig(
            moduli=(135, 180, 162), trials=self.TRIALS, rng_seed=17
        )
        want = sweep(cfg, self.TAUS)
        plan_runs = self.counted(monkeypatch, _FoldingPlan, "run")
        solves = self.counted(monkeypatch, robust, "_solve_with_plan")
        runs = self.counted(monkeypatch, _TreeProgram, "run")
        assert sweep(cfg, self.TAUS) == want
        assert (len(plan_runs), solves, runs) == (self.TRIALS, [], [])


def _stage_wise_move(moduli, tree, errors):
    """The root estimate's move under errors, or None if a stage fails.

    Each stage's input errors are its inputs minus the true values: the
    remainders' errors at a leaf, the children's moves at a node.  A stage
    of two or more inputs meets its exactness condition when
    -g <= 2 (d_i - d_k) < g for every input i other than its reference k,
    g being the gcd of the two inputs' moduli; it then moves by the half-up
    rounded mean of its input errors.  Built from the tree alone, not from
    the plan objects under test.
    """

    def stage(t):  # (modulus, error) of the subtree's estimate, or None
        if isinstance(t, Leaf):
            inputs = [(moduli[i], errors[i]) for i in t.indices]
        else:
            inputs = [stage(c) for c in t.children]
            if None in inputs:
                return None
        if len(inputs) == 1:
            return inputs[0]
        mk, dk = inputs[select_reference([m for m, _ in inputs])]
        for m, d in inputs:
            g = math.gcd(mk, m)
            if not -g <= 2 * (d - dk) < g:
                return None
        return (
            math.lcm(*(m for m, _ in inputs)),
            round_half_up_div(sum(d for _, d in inputs), len(inputs)),
        )

    out = stage(tree)
    return None if out is None else out[1]


def _least_gcd(moduli, tree):
    """G: the least gcd of a stage's reference and another of its inputs.

    Built from the tree alone, as _stage_wise_move is.
    """
    gcds = []

    def modulus(t):  # the subtree's estimate's modulus
        if isinstance(t, Leaf):
            inputs = [moduli[i] for i in t.indices]
        else:
            inputs = [modulus(c) for c in t.children]
        if len(inputs) > 1:
            k = select_reference(inputs)
            gcds.extend(
                math.gcd(inputs[k], m)
                for i, m in enumerate(inputs)
                if i != k
            )
        return math.lcm(*inputs)

    modulus(tree)
    return min(gcds)


def _draws(cfg: TrialConfig):
    """(unknown, erroneous remainders) of every trial of cfg, drawn afresh."""
    ms = validate_moduli(cfg.moduli)
    lam = math.lcm(*ms)
    tau = cfg.tau
    one_sided = cfg.error_model == ONE_SIDED
    span = tau + 1 if one_sided else 2 * tau + 1
    shift = 0 if one_sided else tau
    mix = simulate._splitmix64
    for t in range(cfg.trials):
        key = mix(cfg.rng_seed, t)
        n = mix(key, 0) % lam
        rt = []
        for j, m in enumerate(ms):
            v = n % m + mix(key, j + 1) % span - shift
            if cfg.clamp_remainders:
                v = min(max(v, 0), m - 1)
            rt.append(v)
        yield n, rt


def _per_level_oracle(cfg: TrialConfig) -> TrialStats:
    """One campaign at cfg.tau, drawing every trial afresh."""
    ms = validate_moduli(cfg.moduli)
    tau = cfg.tau

    if cfg.tree is None:
        plan = _folding_plan(ms, select_reference(ms))

        def reconstruct(rt):
            return _solve_with_plan(plan, rt)[1]

    else:
        program = _tree_program(ms, cfg.tree)

        def reconstruct(rt):
            return program.run(rt)[1]

    total_err = max_err = violations = failures = estimated = 0
    for n, rt in _draws(cfg):
        try:
            est = reconstruct(rt)
        except FoldingFailure as exc:
            failures += 1
            est = exc.partial_estimate
        if est is None:
            continue
        err = abs(est - n)
        estimated += 1
        total_err += err
        max_err = max(max_err, err)
        if err > tau:
            violations += 1
    return TrialStats(
        tau=tau,
        trials=cfg.trials,
        mean_abs_error=(
            Fraction(total_err, estimated) if estimated else Fraction(0)
        ),
        max_abs_error=max_err,
        bound=tau,
        bound_violations=violations,
        folding_failures=failures,
        estimated_trials=estimated,
    )


# (config, levels): unsorted, with repeats; the first three are the
# determinism goldens' configurations, each with its golden level second
DIFFERENTIAL_CASES = [
    (TrialConfig(moduli=(8, 12, 15), trials=500, rng_seed=123), [4, 1, 0, 1]),
    (
        TrialConfig(
            moduli=(135, 180, 162),
            tree=parse_tree("[[0,1],[2]]"),
            trials=500,
            rng_seed=9,
        ),
        [11, 3, 0, 3, 7],
    ),
    (
        TrialConfig(
            moduli=(8, 12, 15),
            trials=400,
            rng_seed=7,
            error_model=SYMMETRIC,
            clamp_remainders=True,
        ),
        [5, 2, 0, 2],
    ),
    (
        TrialConfig(moduli=(135, 180, 162), trials=300, rng_seed=5),
        [25, 7, 0, 13, 7],
    ),
    (
        TrialConfig(
            moduli=(8, 12, 15), trials=300, rng_seed=2, error_model=SYMMETRIC
        ),
        [3, 1, 3, 0],
    ),
    (
        TrialConfig(
            moduli=(70, 75, 80, 90),
            trials=300,
            rng_seed=4,
            clamp_remainders=True,
        ),
        [9, 2, 9, 0],
    ),
    (
        TrialConfig(
            moduli=(192, 288, 216, 360, 320, 448),
            tree=parse_tree("[[[0,1],[2,3]],[4,5]]"),
            trials=200,
            rng_seed=11,
        ),
        [19, 0, 4, 4],
    ),
    (
        TrialConfig(
            moduli=(192, 288, 216, 360, 320, 448),
            tree=parse_tree("[[[0,1],[2,3]],[4,5]]"),
            trials=200,
            rng_seed=3,
            error_model=SYMMETRIC,
            clamp_remainders=True,
        ),
        [6, 1, 0, 6],
    ),
    # the certified window's edges, where 2 * width < G (width tau
    # one-sided, 2 tau symmetric): the last certified level, then the
    # first uncertified one
    (TrialConfig(moduli=(135, 180, 162), trials=300, rng_seed=8), [13, 14]),
    # G = 4, even: at level 2 a difference 2 * 2 reaches G and breaks a
    # quotient, so the edge must be strict
    (TrialConfig(moduli=(12, 16, 20), trials=300, rng_seed=8), [1, 2]),
    (
        TrialConfig(
            moduli=(135, 180, 162),
            trials=300,
            rng_seed=8,
            error_model=SYMMETRIC,
            clamp_remainders=True,
        ),
        [6, 7],
    ),
    (
        TrialConfig(
            moduli=(192, 288, 216, 360, 320, 448),
            tree=parse_tree("[[[0,1],[2,3]],[4,5]]"),
            trials=200,
            rng_seed=12,
            clamp_remainders=True,
        ),
        [31, 32],
    ),
    (
        TrialConfig(
            moduli=(192, 288, 216, 360, 320, 448),
            tree=parse_tree("[[[0,1],[2,3]],[4,5]]"),
            trials=200,
            rng_seed=12,
            error_model=SYMMETRIC,
        ),
        [15, 16],
    ),
    # G = 1: only level 0 is certified, and the shared index 2 must agree
    (
        TrialConfig(
            moduli=(12, 18, 35),
            tree=parse_tree("[[0,2],[1,2]]"),
            trials=300,
            rng_seed=6,
        ),
        [0, 1, 3],
    ),
    # no stage at all: no condition, every check passes
    (TrialConfig(moduli=(7,), tree=parse_tree("[0]"), trials=100), [0, 2]),
]
# levels split into families (simulate._families), each of which scans
# a reduced block; with 30-bit digits the first case is one family and
# the others cross family edges
FAMILY_CASES = [
    # one family of spans 1..40001; with 15-bit digits span 40001 is alone
    (
        TrialConfig(moduli=(135, 180, 162), trials=300, rng_seed=28),
        [0, 21, 22, 23, 25, 3, 22, 40000],
    ),
    # lcm(14..23) < 2**30 <= lcm(13..23): spans 23..14, then 13..1, then
    # a family of three
    (
        TrialConfig(moduli=(135, 180, 162), trials=200, rng_seed=29),
        [*range(22, -1, -1), 40000, 25, 3],
    ),
    # spans 2 tau + 1: ten levels, then tau 13 alone
    (
        TrialConfig(
            moduli=(135, 180, 162),
            trials=300,
            rng_seed=30,
            error_model=SYMMETRIC,
            clamp_remainders=True,
        ),
        [0, 4, 11, 8, 12, 2, 5, 6, 1, 30, 13],
    ),
    # eleven levels, then four
    (
        TrialConfig(
            moduli=(192, 288, 216, 360, 320, 448),
            tree=parse_tree("[[[0,1],[2,3]],[4,5]]"),
            trials=200,
            rng_seed=31,
        ),
        [21, 22, 5, 0, 19, 13, 17, 30, 40, 1, 7, 36, 28, 10, 44],
    ),
]
DIFFERENTIAL_CASES += FAMILY_CASES


class TestSweepMatchesPerLevelRuns:
    @pytest.mark.parametrize("cfg, taus", DIFFERENTIAL_CASES)
    def test_rows_equal_separate_runs(self, cfg, taus):
        rows = sweep(cfg, taus)
        assert [r.tau for r in rows] == taus
        for row, tau in zip(rows, taus):
            want = _per_level_oracle(replace(cfg, tau=tau))
            assert asdict(row) == asdict(want)

    @pytest.mark.parametrize(
        "cfg, least_gcd, taus",
        [
            (TrialConfig(moduli=(135, 180, 162), trials=300, rng_seed=8),
             27, [13, 14, 26, 27]),
            (
                TrialConfig(
                    moduli=(135, 180, 162), trials=300, rng_seed=8,
                    error_model=SYMMETRIC,
                ),
                27,
                [6, 7, 13, 14],
            ),
            (
                TrialConfig(
                    moduli=(135, 180, 162), tree=parse_tree("[[0,1],[2]]"),
                    trials=300, rng_seed=8,
                ),
                45,
                [22, 23, 44, 45],
            ),
            (
                TrialConfig(
                    moduli=(192, 288, 216, 360, 320, 448),
                    tree=parse_tree("[[[0,1],[2,3]],[4,5]]"),
                    trials=100,
                    rng_seed=12,
                ),
                64,
                list(range(31, 65)),
            ),
            (
                TrialConfig(
                    moduli=(192, 288, 216, 360, 320, 448),
                    tree=parse_tree("[[[0,1],[2,3]],[4,5]]"),
                    trials=200,
                    rng_seed=13,
                    error_model=SYMMETRIC,
                    clamp_remainders=True,
                ),
                64,
                [15, 16, 31, 32],
            ),
            (
                TrialConfig(
                    moduli=(12, 18, 35), tree=parse_tree("[[0,2],[1,2]]"),
                    trials=300, rng_seed=6,
                ),
                1,
                [0, 1],
            ),
            (
                TrialConfig(
                    moduli=(36, 54, 60), tree=parse_tree("[[0,2],[1,2]]"),
                    trials=300, rng_seed=6,
                ),
                6,
                [2, 3, 5, 6],
            ),
            (
                TrialConfig(
                    moduli=(8, 12, 15), trials=400, rng_seed=7,
                    error_model=SYMMETRIC, clamp_remainders=True,
                ),
                3,
                [0, 1, 2],
            ),
        ],
        ids=[
            "single", "single_symmetric", "two_stage", "depth3",
            "depth3_symmetric_clamped", "shared_index", "shared_index_g6",
            "symmetric_clamped",
        ],
    )
    def test_rows_at_the_window_edges(self, cfg, least_gcd, taus, monkeypatch):
        # every check passes at a level of window width w with 2w < G, and
        # the sweep certifies exactly those levels; the levels hold both
        # sides of 2w = G and of w = G
        ms = cfg.moduli
        tree = cfg.tree or Leaf(tuple(range(len(ms))))
        assert _least_gcd(ms, tree) == least_gcd
        width = 1 if cfg.error_model == ONE_SIDED else 2  # w per unit tau
        widths = {width * tau for tau in taus}
        for edge in (least_gcd / 2, least_gcd):
            assert any(w < edge for w in widths)
            assert any(w >= edge for w in widths)
        # the taus the sweep scores with its certified (unchecked) scan
        certified = set()
        scans_of = simulate._scans

        def scans(plan, clamp):
            scan, *family = scans_of(plan, clamp)

            def certified_scan(rows, level):
                certified.add(level[2])  # its tau
                scan(rows, level)

            return certified_scan, *family

        monkeypatch.setattr(simulate, "_scans", scans)
        rows = sweep(cfg, taus)
        assert certified == {t for t in taus if 2 * width * t < least_gcd}
        for row, tau in zip(rows, taus):
            want = _per_level_oracle(replace(cfg, tau=tau))
            assert asdict(row) == asdict(want)

    @pytest.mark.parametrize(
        "cfg, taus",
        [
            # G = 27: checked, certified, certified, checked
            (TrialConfig(moduli=(135, 180, 162), rng_seed=21), [20, 3, 0, 14]),
            # G = 64: a checked level first, so the anchors come from the
            # checked scan before a certified level solves the rest
            (
                TrialConfig(
                    moduli=(192, 288, 216, 360, 320, 448),
                    tree=parse_tree("[[[0,1],[2,3]],[4,5]]"),
                    rng_seed=22,
                ),
                [40, 5, 32],
            ),
            (
                TrialConfig(
                    moduli=(36, 54, 60), tree=parse_tree("[[0,2],[1,2]]"),
                    rng_seed=23,
                ),
                [5, 2, 3],
            ),
            (
                TrialConfig(
                    moduli=(8, 12, 15), rng_seed=24, error_model=SYMMETRIC,
                    clamp_remainders=True,
                ),
                [2, 0, 1],
            ),
        ],
        ids=["single", "depth3", "shared_index", "symmetric_clamped"],
    )
    def test_rows_do_not_depend_on_the_block(self, monkeypatch, cfg, taus):
        want = {}  # the oracle's rows by trial count
        for block in (1, 7, simulate._BLOCK):
            monkeypatch.setattr(simulate, "_BLOCK", block)
            for trials in (1, block - 1, block + 1, 2 * block + 3):
                if trials < 1:
                    continue
                run = replace(cfg, trials=trials)
                if trials not in want:
                    want[trials] = [
                        asdict(_per_level_oracle(replace(run, tau=tau)))
                        for tau in taus
                    ]
                rows = [asdict(row) for row in sweep(run, taus)]
                assert rows == want[trials], (block, trials)

    def test_a_modulus_missing_a_span_is_caught(self, monkeypatch):
        # each family's modulus without its largest span, which no
        # case's other spans divide: the rows must then differ
        families = simulate._families

        def mutant(spans):
            out = []
            for _, members in families(spans):
                kept = [spans[i] for i in members]
                kept.remove(max(kept))
                out.append((math.lcm(*kept), members))
            return out

        monkeypatch.setattr(simulate, "_families", mutant)
        for cfg, taus in FAMILY_CASES:
            rows = [asdict(row) for row in sweep(cfg, taus)]
            want = [
                asdict(_per_level_oracle(replace(cfg, tau=tau)))
                for tau in taus
            ]
            assert rows != want, taus

    def test_goldens_through_sweep(self):
        rows = [sweep(cfg, taus)[1] for cfg, taus in DIFFERENTIAL_CASES[:3]]
        assert rows[0].mean_abs_error == Fraction(229, 500)
        assert rows[1].mean_abs_error == Fraction(187, 100)
        assert (rows[2].mean_abs_error, rows[2].bound_violations) == (
            Fraction(1203, 40),
            244,
        )


class TestFamilies:
    DIGIT = 1 << sys.int_info.bits_per_digit

    def test_split(self):
        gen = random.Random(2028)
        for _ in range(500):
            spans = [
                gen.choice(
                    (gen.randint(1, 30), gen.randint(1, 3000), 2**31 + 1)
                )
                for _ in range(gen.randint(1, 40))
            ]
            families = simulate._families(spans)
            # the families partition the levels in sweep order
            assert [i for _, members in families for i in members] == list(
                range(len(spans))
            )
            lcms = [math.lcm(*(spans[i] for i in m)) for _, m in families]
            for (modulus, members), lcm in zip(families, lcms):
                assert members
                if len(members) > 1:
                    assert lcm < self.DIGIT
                assert modulus == lcm
            # each family is as long as the digit lets it grow
            for lcm, (_, members) in zip(lcms, families[1:]):
                assert math.lcm(lcm, spans[members[0]]) >= self.DIGIT

    def test_reduced_rows(self):
        top = (1 << 64) - 1
        for moduli in ((7,), (135, 180, 162), (192, 288, 216, 360, 320, 448)):
            size = len(moduli)
            _, reduce = simulate._rows(moduli)
            rows = [
                (*[x] * size, *range(size), -5, 10**30)
                for x in (0, top, 12345)
            ]
            for p in (1, 2, 26, 232792560, self.DIGIT - 1):
                want = [
                    (*[x % p for x in row[:size]], *row[size:])
                    for row in rows
                ]
                assert reduce(rows, p) == want

    def test_every_family_scans_a_reduced_block(self, monkeypatch):
        reduced = []  # the modulus of each reduce call
        blocks = []  # what each reduce call returns
        rows_of, scans_of = simulate._rows, simulate._scans

        def rows(moduli):
            draw, reduce = rows_of(moduli)

            def recording(rows, p):
                reduced.append(p)
                blocks.append(reduce(rows, p))
                return blocks[-1]

            return draw, recording

        def scans(plan, clamp):
            def watched(scan):
                def run(rows, level):
                    # the block is the last reduce call's, not the raw one
                    assert rows is blocks[-1]
                    scan(rows, level)

                return run

            scan, checked_scan, solve = scans_of(plan, clamp)
            return watched(scan), watched(checked_scan), solve

        monkeypatch.setattr(simulate, "_rows", rows)
        monkeypatch.setattr(simulate, "_scans", scans)
        monkeypatch.setattr(simulate, "_BLOCK", 16)
        cfg = TrialConfig(moduli=(135, 180, 162), trials=40, rng_seed=5)
        # three blocks of 16: one reduce call per family and block
        run_trials(replace(cfg, tau=7))
        assert reduced == [8] * 3
        reduced.clear()
        sweep(cfg, [0, 1, 2])
        assert reduced == [6] * 3
        reduced.clear()
        # families 1..22 and 23..25, in turn on each block
        sweep(cfg, range(25))
        assert reduced == [math.lcm(*range(1, 23)), 23 * 24 * 25] * 3


class TestTreeSweepFailures:
    """The sweep fails a tree trial exactly when reconstruct_tree does."""

    @pytest.mark.parametrize(
        "moduli, layout, tau, trials, error_model, want",
        [
            # a shared index: the occurrences of index 2 must agree
            ((12, 18, 35), "[[0,2],[1,2]]", 3, 20_000, ONE_SIDED,
             (15_155, 5_290)),
            # far beyond the bounds: only root-stage failures are estimated
            ((135, 180, 162), "[[0,1],[2]]", 25, 2_000, SYMMETRIC,
             (23, 1_980)),
            ((192, 288, 216, 360, 320, 448), "[[[0,1],[2,3]],[4,5]]", 40,
             1_000, SYMMETRIC, (32, 968)),
        ],
    )
    def test_same_failures_as_reconstruct_tree(
        self, moduli, layout, tau, trials, error_model, want
    ):
        cfg = TrialConfig(
            moduli=moduli, tree=layout, tau=tau, trials=trials,
            error_model=error_model,
        )
        failures = estimated = 0
        for _, rt in _draws(cfg):
            try:
                reconstruct_tree(moduli, rt, layout)
            except FoldingFailure as exc:
                failures += 1
                estimated += exc.partial_estimate is not None
            else:
                estimated += 1
        stats = run_trials(cfg)
        assert (stats.folding_failures, stats.estimated_trials) == (
            failures,
            estimated,
        ) == want


class TestVerifyExactness:
    def test_tiny_set_passes(self):
        rep = verify_exactness_condition((8, 12), window=2)
        assert rep.passed
        assert rep.cases == 24 * 25
        assert rep.sufficiency_counterexamples == ()
        assert rep.necessity_counterexamples == ()

    def test_zero_deltas_consistent(self):
        rep = verify_exactness_condition((9, 14), window=0)
        assert rep.passed
        assert rep.condition_true == rep.cases == math.lcm(9, 14)

    def test_mutated_condition_is_caught(self):
        def widened(deltas, ms, k):
            dk = deltas[k]
            for i in range(len(ms)):
                if i == k:
                    continue
                g = math.gcd(ms[k], ms[i])
                if not (-g - 2 <= 2 * (deltas[i] - dk) < g + 2):
                    return False
            return True

        rep = verify_exactness_condition((8, 12, 15), window=2, condition=widened)
        assert not rep.passed
        assert rep.sufficiency_failures > 0
        assert len(rep.sufficiency_counterexamples) <= 20

    def test_condition_once_per_error_vector(self):
        # the condition reads (deltas, moduli, k) only, not the unknown
        calls = []

        def counted(deltas, ms, k):
            calls.append(tuple(deltas))
            return check_ns_condition(deltas, ms, k)

        ms, window = (8, 12, 15), 2
        rep = verify_exactness_condition(ms, window=window, condition=counted)
        assert len(calls) == len(set(calls)) == (2 * window + 1) ** len(ms)
        assert rep == verify_exactness_condition(ms, window=window)
        assert rep.cases == math.lcm(*ms) * len(calls)

    def test_counterexamples_in_enumeration_order(self):
        # a per-(N, vector) recount of a mutated condition's report
        def narrowed(deltas, ms, k):
            return check_ns_condition(deltas, ms, k) and deltas[0] != 1

        ms, window = (8, 12, 15), 2
        rep = verify_exactness_condition(ms, window=window, condition=narrowed)
        k = select_reference(ms)
        nec, cond_true = [], 0
        for n in range(math.lcm(*ms)):
            for deltas in product(range(-window, window + 1), repeat=3):
                ok = narrowed(deltas, ms, k)
                cond_true += ok
                if check_ns_condition(deltas, ms, k) and not ok:
                    nec.append((n, deltas))
        assert rep.condition_true == cond_true
        assert rep.necessity_failures == len(nec) > 20
        assert rep.necessity_counterexamples == tuple(nec[:20])
        assert rep.sufficiency_failures == 0

    def test_counts_cases_and_truthy_conditions(self):
        # the counts of a per-(N, vector) tally, for a condition that
        # returns truthy values other than True
        def weighted(deltas, ms, k):
            return 3 * check_ns_condition(deltas, ms, k)

        ms, window = (8, 12, 15), 2
        rep = verify_exactness_condition(ms, window=window, condition=weighted)
        k = select_reference(ms)
        vectors = list(product(range(-window, window + 1), repeat=3))
        cases = cond_true = 0
        for _ in range(math.lcm(*ms)):
            for deltas in vectors:
                cases += 1
                cond_true += bool(weighted(deltas, ms, k))
        assert (rep.cases, rep.condition_true) == (cases, cond_true)
        assert 0 < cond_true < cases
        assert rep == verify_exactness_condition(ms, window=window)

    def test_cap(self):
        with pytest.raises(SearchCapExceeded):
            verify_exactness_condition((8, 12, 15), window=4, cap=1000)

    def test_reference_override(self):
        rep = verify_exactness_condition((8, 12, 15), window=2, reference=1)
        assert rep.reference == 1
        assert rep.passed

    @pytest.mark.parametrize("bad", [1.0, -1, 3, True])
    def test_rejects_bad_reference(self, bad):
        with pytest.raises(ValueError, match="reference index"):
            verify_exactness_condition((8, 12, 15), window=1, reference=bad)

    @pytest.mark.parametrize(
        "kwargs",
        [{"window": -1}, {"window": 1.5}, {"window": True}, {"cap": 1e6}],
    )
    def test_rejects_bad_window_and_cap(self, kwargs):
        with pytest.raises(ValueError, match="window|cap"):
            verify_exactness_condition((8, 12, 15), **kwargs)
