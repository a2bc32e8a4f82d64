"""The four workloads, their seeded inputs and their output checks.

Each workload runs in batches.  batch(i, meter) does one batch of work,
times it with meter.record(seconds, ops), one latency sample per call,
and checks every output outside the timed region.

  sweep_single  the paper's headline single-stage sweep through cli.main;
                RNG, solver and trial loop do the work, multistage none.
  sweep_tree    the same CLI path over grouping plans of depth 2 and 3;
                the tree walker and its nested solves do most of the work.
  decode        one public call per noisy reading, plans warm; the path
                of validation and result objects the sweeps never take.
  design        bound calculus, grouping search, CRT and a first solve on
                distinct moduli sets, so plan caches stay cold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import modfold.cli as cli
import modfold.congruence as congruence
import modfold.grouping as grouping
import modfold.multistage as multistage
import modfold.robust as robust
import modfold.simulate as simulate

import oracle

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


class Checks:
    """Counts checked operations and the ones with a wrong output.

    With corrupt=True the first checked result is deliberately altered
    before its check, so the run must report a failure: the mutation
    self-check of the checks themselves.
    """

    def __init__(self, corrupt: bool = False):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._corrupt = corrupt

    def corrupt_now(self) -> bool:
        if self._corrupt:
            self._corrupt = False
            return True
        return False

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)


# --------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepPlan:
    moduli: tuple[int, ...]
    tree: list | None
    tau_max: int
    expected: str  # CSV of the default-seed sweep, stored with the benchmark

    def argv(self, trials: int, seed: int, tau_max: int | None = None) -> list[str]:
        argv = ["simulate", *map(str, self.moduli)]
        argv += ["--tau-max", str(self.tau_max if tau_max is None else tau_max)]
        argv += ["--trials", str(trials), "--seed", str(seed)]
        if self.tree is not None:
            argv += ["--grouping", json.dumps(self.tree)]
        return argv

    def guaranteed_tau(self) -> int:
        """Largest tau the paper's bound covers: strictly below it."""
        if self.tree is None:
            return oracle.below(oracle.theta(self.moduli))
        _, _, effective, _ = oracle.tree_bounds(self.tree, self.moduli)
        return oracle.below(min(effective))

    def distinct_plans(self) -> int:
        return plans_built(self.tree)


def plans_built(tree) -> int:
    """Folding plans the solver builds: one per stage of >= 2 inputs."""
    if tree is None:
        return 1
    if all(isinstance(x, int) for x in tree):
        return int(len(tree) > 1)
    return 1 + sum(plans_built(c) for c in tree)


SWEEPS = {
    "sweep_single": (
        SweepPlan((135, 180, 162), None, 25, "single_135_180_162.csv"),
    ),
    "sweep_tree": (
        SweepPlan((135, 180, 162), [[0, 1], [2]], 11, "tree_135_180_162.csv"),
        SweepPlan(
            (192, 288, 216, 360, 320, 448),
            [[[0, 1], [2, 3]], [4, 5]],
            19,
            "depth3_192_288_216_360_320_448.csv",
        ),
    ),
}

# determinism goldens copied from tests/test_simulate.py:
# (run_trials keyword arguments, expected TrialStats fields)
GOLDENS = (
    (
        dict(moduli=(8, 12, 15), tau=1, trials=500, rng_seed=123),
        dict(mean_abs_error=Fraction(229, 500), max_abs_error=1,
             bound_violations=0, folding_failures=0),
    ),
    (
        dict(moduli=(135, 180, 162), tree=[[0, 1], [2]], tau=3, trials=500,
             rng_seed=9),
        dict(mean_abs_error=Fraction(187, 100), max_abs_error=3,
             bound_violations=0),
    ),
    (
        dict(moduli=(8, 12, 15), tau=2, trials=400, rng_seed=7,
             error_model="symmetric", clamp_remainders=True),
        dict(mean_abs_error=Fraction(1203, 40), max_abs_error=107,
             bound_violations=244, folding_failures=5, estimated_trials=400),
    ),
)

CSV_HEADER = "tau,mean_abs_error,max_abs_error,bound,violations,folding_failures"
# trials per tau row in the measured sweeps: few enough that a batch is
# short and the host's speed is calibrated often, many enough that the
# CLI's own overhead stays a small part of a sweep
SWEEP_TRIALS = 100
# trials per tau row of the stored default-seed CSVs
EXPECTED_TRIALS = 500


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Sweep:
    """Repeated `modfold simulate` sweeps, in process through cli.main."""

    def __init__(self, name: str, seed: int, checks: Checks, smoke: bool):
        self.plans = SWEEPS[name]
        self.seed = seed
        self.checks = checks
        self.trials = 20 if smoke else SWEEP_TRIALS

    def setup(self) -> None:
        # the first call builds every folding plan and tree program
        for plan in self.plans:
            code, _ = run_cli(plan.argv(1, 0, tau_max=0))
            self.checks.record(code == 0, f"warm-up sweep exit {code}")

    def batch(self, i: int, meter, tracer=None) -> None:
        """One CLI sweep of every plan, timed whole.

        The batch is one latency sample, its time per trial, so the mix
        of plans behind a sample never changes and the median moves with
        any plan's cost.
        """
        elapsed = 0.0
        trials = 0
        for j, plan in enumerate(self.plans):
            rng_seed = self.seed * 1_000_003 + i * len(self.plans) + j
            argv = plan.argv(self.trials, rng_seed)
            if tracer is not None:
                tracer.begin(rng_seed)
            t0 = perf_counter()
            code, out = run_cli(argv)
            elapsed += perf_counter() - t0
            trials += (plan.tau_max + 1) * self.trials
            self.check_guarantee(plan, code, out, argv)
        meter.record(elapsed, trials)

    def check_guarantee(self, plan: SweepPlan, code: int, out: str, argv) -> None:
        """Rows below the bound: no violation, no failure, max error <= tau."""
        if self.checks.corrupt_now():
            out = out.replace("\n0,0.000000,0,0,0,0\n", "\n0,0.000000,0,0,1,0\n", 1)
        lines = out.splitlines()
        limit = plan.guaranteed_tau()
        ok = code == 0 and lines[:1] == [CSV_HEADER] and len(lines) == plan.tau_max + 2
        self.checks.record(ok, f"malformed sweep output for {argv}")
        if not ok:
            return
        for tau, line in enumerate(lines[1:]):
            fields = line.split(",")
            if tau > limit:
                ok = len(fields) == 6 and int(fields[0]) == tau
            else:
                t, _mean, max_err, _bound, viol, fails = fields
                ok = (int(t) == tau and int(viol) == 0 and int(fails) == 0
                      and int(max_err) <= tau)
            self.checks.record(ok, f"row {line!r} of {argv}")

    def verify(self) -> None:
        """Default seed: byte-identical CSV; plus the determinism goldens."""
        for plan in self.plans:
            code, out = run_cli(plan.argv(EXPECTED_TRIALS, 0))
            expected = (EXPECTED_DIR / plan.expected).read_text()
            self.checks.record(
                code == 0 and out == expected,
                f"default-seed CSV differs from {plan.expected}",
            )
        for kwargs, fields in GOLDENS:
            kwargs = dict(kwargs)
            if "tree" in kwargs:
                kwargs["tree"] = multistage.parse_tree(kwargs["tree"])
            stats = simulate.run_trials(simulate.TrialConfig(**kwargs))
            self.checks.record(
                all(getattr(stats, k) == v for k, v in fields.items()),
                f"determinism golden {kwargs} gave {stats}",
            )

    def expected_plan_misses(self) -> int:
        return sum(p.distinct_plans() for p in self.plans)

    def record(self) -> dict:
        return {
            "trials_per_tau": self.trials,
            "plans": [
                {"moduli": p.moduli, "grouping": p.tree, "tau_max": p.tau_max,
                 "guaranteed_tau": p.guaranteed_tau()}
                for p in self.plans
            ],
            "distinct_plans": self.expected_plan_misses(),
        }


# --------------------------------------------------------------------------
# decode

DECODE_PLANS = (
    ("coprime", (70, 75, 80, 90), None),
    ("merge", (180, 220, 486, 513), None),
    ("l7", (210, 143, 77, 128, 81, 125, 169), None),
    ("tree", (180, 220, 486, 513), [[0, 1], [2, 3]]),
)
DECODE_POOL = 4096
DECODE_BATCH = 512
INSIDE_SHARE = 0.7


@dataclass(frozen=True)
class Reading:
    plan: int
    remainders: list
    n: int
    max_error: int
    inside: bool


class Decode:
    """A seeded stream of noisy readings, one public call each."""

    def __init__(self, name: str, seed: int, checks: Checks, smoke: bool):
        self.seed = seed
        self.checks = checks
        self.batch_size = 64 if smoke else DECODE_BATCH
        self.calls = 0

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.plans = []
        for label, ms, tree in DECODE_PLANS:
            if tree is None:
                arg, limits = oracle.per_remainder_limits(ms)  # arg: reference
            else:
                arg = multistage.parse_tree(tree)
                limits = [oracle.below(b) for b in oracle.index_bounds(tree, ms)]
            self.plans.append((label, ms, arg, limits, math.lcm(*ms)))
        self.pool = [self._reading(rng, p % len(self.plans)) for p in range(DECODE_POOL)]
        # one call per plan builds every folding plan and tree program
        for p in range(len(self.plans)):
            self.check(self.pool[p], self.call(self.pool[p]))

    def _reading(self, rng: random.Random, p: int) -> Reading:
        _, ms, _, limits, lam = self.plans[p]
        n = rng.randrange(lam)
        if rng.random() < INSIDE_SHARE:
            deltas = [rng.randint(-lim, lim) for lim in limits]
        else:
            deltas = [rng.randint(-2 * lim - 3, 2 * lim + 3) for lim in limits]
        inside = all(abs(d) <= lim for d, lim in zip(deltas, limits))
        rt = [n % m + d for m, d in zip(ms, deltas)]
        return Reading(p, rt, n, max(abs(d) for d in deltas), inside)

    def call(self, r: Reading):
        """The decoded solution, or the exception the call raised."""
        _, ms, arg, _, _ = self.plans[r.plan]
        try:
            if isinstance(arg, int):
                return robust.solve_folding(ms, r.remainders, arg)
            return multistage.reconstruct_tree(ms, r.remainders, arg).final
        except Exception as exc:  # check() accepts only FoldingFailure
            return exc

    def check(self, r: Reading, result) -> None:
        label, ms, _, _, lam = self.plans[r.plan]
        if isinstance(result, robust.FoldingFailure):
            ok = not r.inside
        elif isinstance(result, robust.FoldingSolution):
            # the corruption shifts N by the lcm: every folding number moves
            n = r.n + lam if r.inside and self.checks.corrupt_now() else r.n
            ok = not r.inside or (
                result.folding == tuple(n // m for m in ms)
                and abs(result.estimate - n) <= r.max_error
            )
        else:
            ok = False
        self.checks.record(ok, f"{label} decode of {r} gave {result!r}")

    def batch(self, i: int, meter, tracer=None) -> None:
        pool, size = self.pool, len(self.pool)
        for j in range(self.batch_size):
            r = pool[(i * self.batch_size + j) % size]
            if tracer is not None:
                tracer.begin(self.calls, self.plans[r.plan][0])
            self.calls += 1
            t0 = perf_counter()
            result = self.call(r)
            meter.record(perf_counter() - t0, 1)
            self.check(r, result)

    def verify(self) -> None:
        pass

    def expected_plan_misses(self) -> int:
        # one plan per single-stage class, one per stage of the tree
        return sum(plans_built(tree) for _, _, tree in DECODE_PLANS)

    def record(self) -> dict:
        return {
            "plans": [{"label": l, "moduli": m, "grouping": t} for l, m, t in DECODE_PLANS],
            "pool": DECODE_POOL,
            "inside_share": sum(r.inside for r in self.pool) / len(self.pool),
            "calls": self.calls,
        }


# --------------------------------------------------------------------------
# design

CLUSTER_FACTORS = (6, 8, 9, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30, 36, 45)
DESIGN_BATCH = 16
# distinct sets, cycled.  Four times the solver's 512-entry plan cache, so
# each set's plan is long evicted when the set comes round again and every
# solve still builds its plan; a fixed pool keeps the benchmark's own memory
# from growing with the speed of the program.
DESIGN_POOL = 2048


@dataclass(frozen=True)
class DesignInput:
    raw: tuple[int, ...]
    moduli: tuple[int, ...]  # raw with every divisor of another removed
    crt_n: int
    solve_n: int
    remainders: list
    max_error: int


class Design:
    """Full analysis of distinct seeded moduli sets with shared factors."""

    def __init__(self, name: str, seed: int, checks: Checks, smoke: bool):
        self.rng = random.Random(seed)
        self.checks = checks
        self.batch_size = 2 if smoke else DESIGN_BATCH
        self.pool_size = 16 if smoke else DESIGN_POOL
        self.designs = 0
        self.successes = 0

    def random_set(self, k: int, seen) -> tuple[int, ...]:
        """The k-th set: 3 to 7 moduli over 2 or 3 shared factors.

        Size and factor count cycle with k rather than being drawn, so
        every seed's pool has the same mix of them and its cost does not
        depend on the seed's luck.
        """
        rng = self.rng
        size, factor_count = 3 + k % 5, 2 + k // 5 % 2
        while True:
            factors = rng.sample(CLUSTER_FACTORS, factor_count)
            ms: list[int] = []
            while len(ms) < size:
                m = rng.choice(factors) * rng.randint(2, 13)
                if m not in ms:
                    ms.append(m)
            pruned = oracle.prune(ms)
            if len(pruned) >= 3 and pruned not in seen:
                seen.add(pruned)
                return tuple(ms)

    def make_input(self, raw: tuple[int, ...]) -> DesignInput:
        rng = self.rng
        moduli = oracle.prune(raw)
        lam = math.lcm(*moduli)
        _, limits = oracle.per_remainder_limits(moduli)
        n = rng.randrange(lam)
        deltas = [rng.randint(-lim, lim) for lim in limits]
        return DesignInput(
            raw, moduli, rng.randrange(lam), n,
            [n % m + d for m, d in zip(moduli, deltas)],
            max(abs(d) for d in deltas),
        )

    @staticmethod
    def analyse(d: DesignInput):
        """Every analysis step on one set, or the exception one raised."""
        try:
            return Design._analyse(d)
        except Exception as exc:  # check() reports it as a failed design
            return exc

    @staticmethod
    def _analyse(d: DesignInput):
        ms = robust.prune_redundant(d.raw)
        theta = robust.theta_bound(ms)
        k = robust.select_reference(ms)
        report = robust.per_remainder_bounds(ms, k)
        proposal = grouping.propose_grouping(ms)
        bounds = None
        if proposal.verdict == "success":
            tree = multistage.parse_tree([list(g) for g in proposal.groups])
            bounds = multistage.stage_bounds(tree, ms)
        system = congruence.CongruenceSystem([d.crt_n % m for m in ms], ms)
        crt = congruence.crt_general(system)
        solution = robust.solve_folding(ms, d.remainders, k)
        return ms, theta, k, report, proposal, bounds, crt, solution

    def setup(self) -> None:
        warm_up = (192, 288, 216, 360, 320, 448)
        seen = {warm_up}
        self.pool = [
            self.make_input(self.random_set(k, seen)) for k in range(self.pool_size)
        ]
        # a set outside the pool: first call through every analysis step
        d = self.make_input(warm_up)
        self.check(d, self.analyse(d))

    def check(self, d: DesignInput, result) -> None:
        if isinstance(result, Exception):
            self.checks.record(False, f"design {d.raw} raised {result!r}")
            return
        ms, theta, k, report, proposal, bounds, crt, solution = result
        if self.checks.corrupt_now():
            theta += 1
        ref_k, ref_bounds = oracle.per_remainder(d.moduli)
        ok = (
            ms == d.moduli
            and theta == oracle.theta(ms)
            and k == ref_k
            and list(report.per_remainder) == ref_bounds
            and crt == d.crt_n
            and solution.folding == tuple(d.solve_n // m for m in ms)
            and abs(solution.estimate - d.solve_n) <= d.max_error
        )
        if proposal.verdict == "success":
            self.successes += 1
            groups = [list(g) for g in proposal.groups]
            per_group, cross, effective, _ = oracle.tree_bounds(groups, ms)
            ok = ok and (
                all(b > theta for b in bounds.per_group)
                and bounds.cross > theta
                and list(bounds.per_group) == per_group
                and dict(bounds.node_cross) == cross
                and list(bounds.per_leaf_effective) == effective
                and proposal.bounds == bounds
            )
        else:
            ok = ok and proposal.verdict == "failure" and bounds is None
        self.checks.record(ok, f"design analysis of {d.raw}")

    def batch(self, i: int, meter, tracer=None) -> None:
        for j in range(self.batch_size):
            d = self.pool[(i * self.batch_size + j) % len(self.pool)]
            if tracer is not None:
                tracer.begin(self.designs)
            self.designs += 1
            t0 = perf_counter()
            result = self.analyse(d)
            meter.record(perf_counter() - t0, 1)
            self.check(d, result)

    def verify(self) -> None:
        pass

    def expected_plan_misses(self) -> int:
        # each solve builds a plan: the warm-up's and one per design
        return 1 + self.designs

    def record(self) -> dict:
        return {
            "designs": self.designs,
            "success_share": self.successes / max(self.designs, 1),
            "cluster_factors": CLUSTER_FACTORS,
        }


WORKLOADS = {
    "sweep_single": Sweep,
    "sweep_tree": Sweep,
    "decode": Decode,
    "design": Design,
}


def make(name: str, seed: int, checks: Checks, smoke: bool = False):
    return WORKLOADS[name](name, seed, checks, smoke)
