"""Monte Carlo harness and exhaustive verification campaigns.

Trials are fully deterministic and platform independent.  Trial t of a run
seeded with s owns the substream key k_t = splitmix64(s, t); its j-th raw
draw is splitmix64(k_t, j), and a uniform integer in [0, n) is that draw
modulo n (the bias is below n / 2**64, irrelevant at these ranges).  Draw
order per trial: the unknown integer first, then one error per modulus.
Substreams make serial and (hypothetical) parallel executions agree.

A sweep draws each trial once and replays it at every error level: the
raw error draws do not depend on the level, only their mapping to the
level's range does.  Its rows are identical to separate per-level runs.

Most levels need no solve of their own.  Let G be the least gcd any
stage of the plan rounds by (plan.least_gcd): 4 theta for one stage,
4 theta_eff for a tree (theta_eff the least effective bound of
stage_bounds), 0 for a plan with no stage.  A level is certified when
2w < G, w being its errors' window width (tau one-sided, 2 tau
symmetric): one-sided levels with tau < 2 theta_eff, symmetric ones with
tau < theta_eff.  Proof sketch: clamping only moves an error toward 0,
and a half-up rounded mean of values in [lo, hi] stays in [lo, hi], so
every stage's input errors stay in the window.  Every stage then sees
2(e_i - e_k) + g_i in [0, 2g_i), so every quotient estimate, the merge,
the folding numbers and the run's success are the error-free ones, and
each stage's estimate moves by exactly (2 sum(e) + c) // 2c for its c
input errors e (robust._FoldingPlan).  So a sweep solves each trial once
on its true remainders, the error-free anchor, and scores every
certified level as the anchor's outcome plus that closed-form shift
(plan.shift); every other level runs the solver once per trial.  The
shift is the root stage's, the estimate a tree sweep scores; for the
occurrence estimate it would be the rounded mean over leaf occurrences.

Inconsistent reconstructions count as folding failures; a tree trial
fails exactly when reconstruct_tree fails on it.  When the failing stage
still produced a fused value of N (a negative folding number in the
single-stage solver or in a tree's root stage) that value enters the error
statistics, otherwise the trial is excluded from the mean and the max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Iterable, Sequence

from .intmath import _check_int
from .multistage import GroupTree, _program_for, parse_tree
from .robust import (
    FoldingFailure,
    SearchCapExceeded,
    _folding_plan,
    _ns_condition,
    _solve_with_plan,
    select_reference,
    validate_moduli,
)

__all__ = [
    "TrialConfig",
    "TrialStats",
    "ExactnessReport",
    "run_trials",
    "sweep",
    "stats_to_csv",
    "verify_exactness_condition",
    "ONE_SIDED",
    "SYMMETRIC",
]

ONE_SIDED = "one-sided"
SYMMETRIC = "symmetric"

_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int, index: int) -> int:
    """Stable per-trial substream key (splitmix64 of seed + index step)."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class TrialConfig:
    """One simulation campaign.

    tree=None runs the single-stage solver with the automatic reference;
    otherwise the grouping plan (a GroupTree, a JSON string or nested
    lists, parsed at construction) drives a multi-stage reconstruction.
    error_model "one-sided" draws integer errors uniformly from {0..tau},
    "symmetric" from {-tau..tau}.  clamp_remainders forces perturbed
    remainders back into [0, M_i - 1].
    """

    moduli: tuple[int, ...]
    tree: GroupTree | str | Sequence | None = None
    tau: int = 0
    trials: int = 100_000
    rng_seed: int = 0
    error_model: str = ONE_SIDED
    clamp_remainders: bool = False

    def __post_init__(self):
        object.__setattr__(self, "moduli", validate_moduli(self.moduli))
        if self.tree is not None:
            object.__setattr__(self, "tree", parse_tree(self.tree))
        _check_int("trials", self.trials, 1)
        _check_int("tau", self.tau, 0)
        _check_int("rng_seed", self.rng_seed)
        if self.error_model not in (ONE_SIDED, SYMMETRIC):
            raise ValueError(f"unknown error model {self.error_model!r}")


@dataclass(frozen=True)
class TrialStats:
    """Aggregated outcome of a campaign."""

    tau: int
    trials: int
    mean_abs_error: Fraction
    max_abs_error: int
    bound: int
    bound_violations: int
    folding_failures: int
    estimated_trials: int


def run_trials(cfg: TrialConfig) -> TrialStats:
    """Run one campaign and aggregate the statistics."""
    return _run_levels(cfg, [cfg.tau])[0]


def sweep(cfg_base: TrialConfig, taus: Iterable[int]) -> list[TrialStats]:
    """One campaign per error level, same seed and trial count.

    Each row equals run_trials(replace(cfg_base, tau=tau)); the trials are
    drawn once and replayed at every level.
    """
    return _run_levels(cfg_base, [_check_int("tau", t, 0) for t in taus])


def _run_levels(cfg: TrialConfig, taus: Sequence[int]) -> list[TrialStats]:
    """Run cfg's trials once and score every trial at each level of taus.

    A trial's unknown, true remainders and raw error draws do not depend
    on the error level, so they are drawn once; each level maps the raw
    draws to its own range and keeps its own counters.  A level whose
    window is certified (see the module docstring) is scored from one
    error-free solve per trial plus the closed-form shift of its errors;
    every other level runs the solver on its own remainders.  cfg.tau is
    unused.
    """
    if not taus:
        return []
    ms = cfg.moduli
    lam = math.lcm(*ms)
    if cfg.tree is None:
        if len(ms) < 2:
            raise ValueError("single-stage simulation needs >= 2 moduli")
        plan = _folding_plan(ms, select_reference(ms))
        reconstruct = partial(_solve_with_plan, plan)
    else:
        plan = _program_for(ms, cfg.tree)
        reconstruct = plan.run
    shift_of = plan.shift

    one_sided = cfg.error_model == ONE_SIDED
    # (index, tau, span, shift): an error is raw % span - shift, so every
    # error of the level lies in a window of width span - 1
    levels = [
        (i, tau, tau + 1, 0) if one_sided else (i, tau, 2 * tau + 1, tau)
        for i, tau in enumerate(taus)
    ]
    # certified: twice the window's width is below every stage's gcd
    certified = [lv for lv in levels if 2 * (lv[2] - 1) < plan.least_gcd]
    uncertified = [lv for lv in levels if lv not in certified]
    # per-level counters, indexed like taus
    total_err = [0] * len(taus)
    max_err = [0] * len(taus)
    violations = [0] * len(taus)
    failures = [0] * len(taus)
    estimated = [0] * len(taus)
    seed = cfg.rng_seed
    clamp = cfg.clamp_remainders
    draw_index = range(1, len(ms) + 1)

    for t in range(cfg.trials):
        key = _splitmix64(seed, t)
        n = _splitmix64(key, 0) % lam
        # (true remainder, raw error draw, modulus) per modulus
        cells = [
            (n % m, _splitmix64(key, j), m) for j, m in zip(draw_index, ms)
        ]
        for i, tau, span, shift in uncertified:
            if clamp:
                rt = [
                    min(max(r + raw % span - shift, 0), m - 1)
                    for r, raw, m in cells
                ]
            else:
                rt = [r + raw % span - shift for r, raw, _ in cells]
            try:
                est = reconstruct(rt)[1]
            except FoldingFailure as exc:
                failures[i] += 1
                est = exc.partial_estimate
                if est is None:
                    continue
            err = abs(est - n)
            estimated[i] += 1
            total_err[i] += err
            if err > max_err[i]:
                max_err[i] = err
            if err > tau:  # the fused estimate stays within the error level
                violations[i] += 1
        if not certified:
            continue
        # inside the window every level fails or succeeds as the
        # error-free run does, and its estimate moves by the shift alone
        try:
            anchor = reconstruct([r for r, _, _ in cells])[1]
            failed = False
        except FoldingFailure as exc:
            anchor = exc.partial_estimate
            failed = True
        for i, tau, span, shift in certified:
            if failed:
                failures[i] += 1
                if anchor is None:
                    continue
            if clamp:
                errors = [
                    min(max(r + raw % span - shift, 0), m - 1) - r
                    for r, raw, m in cells
                ]
            else:
                errors = [raw % span - shift for _, raw, _ in cells]
            err = abs(anchor + shift_of(errors) - n)
            estimated[i] += 1
            total_err[i] += err
            if err > max_err[i]:
                max_err[i] = err
            if err > tau:
                violations[i] += 1

    return [
        TrialStats(
            tau=tau,
            trials=cfg.trials,
            mean_abs_error=(
                Fraction(total_err[i], estimated[i])
                if estimated[i]
                else Fraction(0)
            ),
            max_abs_error=max_err[i],
            bound=tau,
            bound_violations=violations[i],
            folding_failures=failures[i],
            estimated_trials=estimated[i],
        )
        for i, tau, _, _ in levels
    ]


def stats_to_csv(rows: Sequence[TrialStats]) -> str:
    """Render sweep results as CSV (header + one line per error level)."""
    out = ["tau,mean_abs_error,max_abs_error,bound,violations,folding_failures"]
    for s in rows:
        out.append(
            f"{s.tau},{_fixed6(s.mean_abs_error)},{s.max_abs_error},"
            f"{s.bound},{s.bound_violations},{s.folding_failures}"
        )
    return "\n".join(out) + "\n"


def _fixed6(x: Fraction) -> str:
    """A non-negative rational to 6 decimals, as float formatting gives.

    Past the float range the value is rounded exactly (half to even).
    """
    try:
        return f"{float(x):.6f}"
    except OverflowError:
        units = round(x * 10**6)
        return f"{units // 10**6}.{units % 10**6:06d}"


@dataclass(frozen=True)
class ExactnessReport:
    """Exhaustive check of the exactness condition against the solver.

    A sufficiency counterexample is a case where the condition holds but
    recovery was not exact; a necessity counterexample is exact recovery
    despite a violated condition.  Both lists cap at 20 samples.
    """

    moduli: tuple[int, ...]
    reference: int
    window: int
    cases: int
    condition_true: int
    sufficiency_counterexamples: tuple[tuple[int, tuple[int, ...]], ...]
    necessity_counterexamples: tuple[tuple[int, tuple[int, ...]], ...]
    sufficiency_failures: int
    necessity_failures: int

    @property
    def passed(self) -> bool:
        return self.sufficiency_failures == 0 and self.necessity_failures == 0


def verify_exactness_condition(
    moduli: Sequence[int],
    *,
    window: int = 4,
    cap: int = 50_000_000,
    reference: int | None = None,
    condition: Callable[[Sequence[int], Sequence[int], int], bool]
    | None = None,
) -> ExactnessReport:
    """Enumerate every (N, error vector) pair in a window and compare.

    For each unknown in [0, lcm) and each integer error vector in
    [-window, window]^L, checks that the exactness condition predicts
    exactly whether solve_folding recovers the true folding numbers.
    condition can be overridden (e.g. deliberately mutated) to validate
    that the harness itself detects discrepancies.
    """
    ms = validate_moduli(moduli)
    if len(ms) < 2:
        raise ValueError("verification needs at least two moduli")
    _check_int("window", window, 0)
    _check_int("cap", cap)
    lam = math.lcm(*ms)
    span = 2 * window + 1
    total = lam * span ** len(ms)
    if total > cap:
        raise SearchCapExceeded(f"{total} cases exceed the cap {cap}")
    k = select_reference(ms) if reference is None else reference
    if not 0 <= _check_int("reference index", k) < len(ms):
        raise ValueError(f"reference index {k} out of range")
    cond = condition or _ns_condition
    plan = _folding_plan(ms, k)

    cases = 0
    cond_true = 0
    suff: list[tuple[int, tuple[int, ...]]] = []
    nec: list[tuple[int, tuple[int, ...]]] = []
    n_suff = 0
    n_nec = 0
    deltas_all = list(product(range(-window, window + 1), repeat=len(ms)))
    for n in range(lam):
        base = [n % m for m in ms]
        truth = tuple(n // m for m in ms)
        for deltas in deltas_all:
            cases += 1
            rt = [r + d for r, d in zip(base, deltas)]
            ok = cond(deltas, ms, k)
            if ok:
                cond_true += 1
            try:
                folding, _ = _solve_with_plan(plan, rt)
                exact = folding == truth
            except FoldingFailure:
                exact = False
            if ok and not exact:
                n_suff += 1
                if len(suff) < 20:
                    suff.append((n, deltas))
            elif exact and not ok:
                n_nec += 1
                if len(nec) < 20:
                    nec.append((n, deltas))
    return ExactnessReport(
        moduli=ms,
        reference=k,
        window=window,
        cases=cases,
        condition_true=cond_true,
        sufficiency_counterexamples=tuple(suff),
        necessity_counterexamples=tuple(nec),
        sufficiency_failures=n_suff,
        necessity_failures=n_nec,
    )
