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
The sweep is level-major: it draws a block of _BLOCK trials (a fixed
constant, not an option), scores every level over the whole block, then
draws the next block.  Each level adds into its own sums, so the rows do
not depend on the block size, and the block bounds the trials held in
memory whatever the trial count.

Most trials need no solve of their own at a level.  This is the one
statement of the exactness argument the sweep rests on.  Take a stage
over c inputs with reference k and g_i = gcd(M_i, M_k).  On its true
inputs each r_i - r_k is a multiple of g_i, so 2(r_i - r_k) + g_i is an
odd multiple of g_i: its quotient estimate is exact and its rounding
remainder e_i is g_i.  Input errors d add 2(d_i - d_k) to it.  When
every i != k meets the exactness condition -g_i <= 2(d_i - d_k) < g_i,
the sum stays in the same interval [2g_i q_i, 2g_i (q_i + 1)), so the
quotient estimates, merge, folding numbers and success are the
error-free ones, and each e_i grows by exactly 2(d_i - d_k).  The fused
estimate, n_k M_k + r_k + (sum of e_i + bias) // 2c (robust._FoldingPlan),
then moves by d_k + (2 sum(d_i - d_k) + c) // 2c = (2 sum(d) + c) // 2c,
the half-up rounded mean of the stage's input errors: its move.  The
condition is also necessary: a pair outside it changes that quotient
estimate, and with it the folding numbers, so a stage that fails it
loses its error-free folding numbers.  A plan's checked scan makes that
check stage by stage, on each stage's actual input errors (a tree's
inner stages see their children's moves), and gives the root estimate's
move, or stops at the first stage that fails; a plan with no stage has
no condition.  robust.check_ns_condition is the same test for one
stage.

So a trial whose errors pass the check is scored as the error-free
anchor's outcome plus the returned move, and a trial that fails it runs
the solver on its erroneous remainders.  The anchor is the solve on the
trial's true remainders: one per trial, made when the trial is drawn, so
the rows stay tied to the solver's own output and a fault in the merge or
the derivation still shows in every row.  Both ways give the rows the
solver gives.  The move is the root stage's, the estimate a tree
sweep scores; for the occurrence estimate it would be the rounded mean
over leaf occurrences.

At some levels every trial passes, so the check is skipped there.  Let
G be the least gcd any stage rounds by, the least g of the pairs the
checked scan compares against (4 theta for one stage, 4 theta_eff for a
tree, 0 for a plan with no stage), computed once per sweep, and w the
level's window width (tau one-sided, 2 tau symmetric).  A level with
2w < G is certified: clamping only moves an error toward 0, and a
half-up rounded mean of values in [lo, hi] stays in [lo, hi], so every
stage's input errors lie in one window of width w and meet the
condition: one-sided errors certify tau < G/2, symmetric ones tau < G/4.
A certified level is scored as the anchor plus the same move without the
check; every other level checks each trial.  On (135, 180, 162) about
88% of the trials pass the check at one-sided levels 14-25.

A level is scored over a block by one call of a scan, generated per plan
and clamping (_compile_scans).

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
from functools import lru_cache, partial
from itertools import product
from typing import Callable, Iterable, Sequence

from .intmath import _check_index, _check_int
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
# trials drawn and scored together: each level is one scan of a block,
# and the block bounds the rows held in memory
_BLOCK = 1024


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
        if not isinstance(self.clamp_remainders, bool):
            raise ValueError(
                "clamp_remainders must be a bool, got "
                f"{self.clamp_remainders!r}"
            )


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

    Each row equals run_trials(replace(cfg_base, tau=tau)).
    """
    return _run_levels(cfg_base, [_check_int("tau", t, 0) for t in taus])


def _sum_source(names: Sequence[str]) -> str:
    """The sum of the named locals as a balanced tree of + terms."""
    if len(names) == 1:
        return names[0]
    half = len(names) // 2
    return f"({_sum_source(names[:half])} + {_sum_source(names[half:])})"


# the generated source of a scan pair: a factory whose parameters are the
# constants its functions read
_SCANS = """def factory({params}):
    def scan(rows, span, off, tau):
        total = top = bad = 0
        for {cells} in rows:
            {plain}
            {score}
        return total, top, bad

    def checked_scan(rows, span, off, tau, failed):
        total = top = bad = 0
        for pos, ({cells}) in enumerate(rows):
            {checked}
            {score}
        return total, top, bad
    return scan, checked_scan"""
# a scan's score of one trial: |a + root move| into the level's sums
_SCORE = """e = a + {root}
            if e < 0:
                e = -e
            total += e
            if e > top:
                top = e
            if e > tau:
                bad += 1"""


def _compile_scans(moduli: Sequence[int], stages, clamp: bool):
    """Generate (scan, checked_scan) for a run of stages.

    It is the package's only code generator (solving, decoding and
    designing build no code); _scans keeps its output per plan and
    clamping.

    stages holds (plan, slots) per stage in run order: plan is the
    stage's robust._FoldingPlan (only its k and pairs are read) and slots
    are its input slots: 0..L-1 hold the remainder errors and L + s holds
    stage s's move, (2 sum(d) + c) // 2c over its c inputs d.  The root
    move is the last slot's.

    Both scan one level over a block's rows [x_0..x_{L-1},
    r_0..r_{L-1}, a]: the raw error draws, the true remainders n mod M_j
    and the anchor offset a (the anchor's estimate minus n), all taken
    once, at the draw.  The loop body is straight-line code: each error
    d_j = x_j % span - off (clamped when clamp, so that r_j + d_j lies in
    [0, M_j - 1]; the only line in which the plain and clamped scans
    differ), then one local per stage's move in run order, and the
    level's total, maximum and count above tau of |a + root move| in
    locals.  So a trial-level costs a few integer operations per stage
    and per pair, with no call, list or table of its own.  scan has no
    tests.  checked_scan(rows, span, off, tau, failed) puts before each
    move the stage's condition, -g <= 2 (d_i - d_k) < g per (i, g) of
    plan.pairs, as one chain of comparisons, sums only passing trials,
    and appends (position, r_0 + d_0, ..., r_{L-1} + d_{L-1}) of a
    failing trial to failed, for the solver to run on.

    Every gcd, size and modulus is a factory parameter, never source
    text (str() of an int past the digit limit raises ValueError), and
    sums are balanced (a long + chain exhausts the compiler's recursion).
    """
    consts: dict[int, str] = {}

    def const(value: int) -> str:
        return consts.setdefault(value, f"k{len(consts)}")

    size = len(moduli)
    plain = []
    for j, m in enumerate(moduli):
        if clamp:
            top = const(m - 1)
            plain += [
                f"d{j} = r{j} + x{j} % span - off",
                f"d{j} = (0 if d{j} < 0 else {top} if d{j} > {top}"
                f" else d{j}) - r{j}",
            ]
        else:
            plain.append(f"d{j} = x{j} % span - off")
    checked = list(plain)
    handback = "".join(f", r{j} + d{j}" for j in range(size))
    table = [f"d{j}" for j in range(size)]
    for plan, slots in stages:
        ins = [table[j] for j in slots]
        c, dk = len(ins), ins[plan.k]
        check = " and ".join(
            f"{const(-g)} <= 2 * ({ins[i]} - {dk}) < {const(g)}"
            for i, g in plan.pairs
        )
        table.append(f"d{len(table)}")
        move = (
            f"{table[-1]} = (2 * {_sum_source(ins)} + {const(c)})"
            f" // {const(2 * c)}"
        )
        plain.append(move)
        checked += [
            f"if not ({check}):",
            f"    failed.append((pos{handback})); continue",
            move,
        ]
    cells = [f"{v}{j}" for v in "xr" for j in range(size)] + ["a"]
    source = _SCANS.format(
        params=", ".join(consts.values()),
        cells=", ".join(cells),
        score=_SCORE.format(root=table[-1]),
        plain="\n            ".join(plain),
        checked="\n            ".join(checked),
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["factory"](*consts)


@lru_cache(maxsize=256)
def _scans(plan, clamp: bool):
    """The plan's (scan, checked_scan), generated on its first sweep."""
    return _compile_scans(plan.moduli, plan._stages(), clamp)


def _run_levels(cfg: TrialConfig, taus: Sequence[int]) -> list[TrialStats]:
    """Run cfg's trials once and score every trial at each level of taus.

    The sweep the module docstring describes; clamping only picks the
    scans.  cfg.tau is unused.
    """
    if not taus:
        return []
    ms = cfg.moduli
    size = len(ms)
    lam = math.lcm(*ms)
    if cfg.tree is None:
        if size < 2:
            raise ValueError("single-stage simulation needs >= 2 moduli")
        plan = _folding_plan(ms, select_reference(ms))
        reconstruct = partial(_solve_with_plan, plan)
    else:
        plan = _program_for(ms, cfg.tree)
        reconstruct = plan.run

    scan, checked_scan = _scans(plan, cfg.clamp_remainders)
    # G, the least gcd the checked scan compares against
    g_min = min((g for p, _ in plan._stages() for _, g in p.pairs), default=0)
    one_sided = cfg.error_model == ONE_SIDED
    # (index, tau, span, off, certified): an error is raw % span - off, so
    # the level's window width is w = span - 1; with 2w < G every trial
    # passes, so the check is skipped
    levels = []
    for i, tau in enumerate(taus):
        span, off = (tau + 1, 0) if one_sided else (2 * tau + 1, tau)
        levels.append((i, tau, span, off, 2 * (span - 1) < g_min))
    # per-level counters, indexed like taus
    total_err = [0] * len(taus)
    max_err = [0] * len(taus)
    violations = [0] * len(taus)
    failures = [0] * len(taus)
    estimated = [0] * len(taus)
    seed = cfg.rng_seed
    draw_index = range(1, size + 1)

    for start in range(0, cfg.trials, _BLOCK):
        ns, rows = [], []
        for t in range(start, min(start + _BLOCK, cfg.trials)):
            key = _splitmix64(seed, t)
            n = _splitmix64(key, 0) % lam
            row = [_splitmix64(key, j) for j in draw_index]
            rs = [n % m for m in ms]
            row += rs
            # the anchor offset: the error-free solve's estimate minus n
            row.append(reconstruct(rs)[1] - n)
            ns.append(n)
            rows.append(row)

        for i, tau, span, off, certified in levels:
            if certified:
                total, top, bad = scan(rows, span, off, tau)
                count = len(rows)
            else:
                failed, errs = [], []
                total, top, bad = checked_scan(rows, span, off, tau, failed)
                count = len(rows) - len(failed)
                # some stage fails: only the solver knows, on the
                # erroneous remainders the scan hands back
                for pos, *rt in failed:
                    try:
                        est = reconstruct(rt)[1]
                    except FoldingFailure as exc:
                        failures[i] += 1
                        est = exc.partial_estimate
                        if est is None:
                            continue
                    count += 1
                    errs.append(abs(est - ns[pos]))
                if errs:
                    total += sum(errs)
                    top = max(top, *errs)
                    # the fused estimate stays within the error level
                    bad += sum(err > tau for err in errs)
            estimated[i] += count
            total_err[i] += total
            if top > max_err[i]:
                max_err[i] = top
            violations[i] += bad

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
        for i, tau, *_ in levels
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
        raise SearchCapExceeded("the number of cases exceeds the cap")
    k = select_reference(ms) if reference is None else reference
    _check_index("reference index", k, len(ms))
    cond = condition or _ns_condition
    plan = _folding_plan(ms, k)

    cases = 0
    cond_true = 0
    suff: list[tuple[int, tuple[int, ...]]] = []
    nec: list[tuple[int, tuple[int, ...]]] = []
    n_suff = 0
    n_nec = 0
    # the condition reads only (deltas, moduli, k): once per error vector
    vectors = [
        (deltas, cond(deltas, ms, k))
        for deltas in product(range(-window, window + 1), repeat=len(ms))
    ]
    for n in range(lam):
        base = [n % m for m in ms]
        truth = tuple(n // m for m in ms)
        for deltas, ok in vectors:
            cases += 1
            rt = [r + d for r, d in zip(base, deltas)]
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
