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
the half-up rounded mean of the stage's input errors: its move.  Adding
an integer s to every input error adds s to the move, since (2 sum(d) +
2cs + c) // 2c is the move plus s, and leaves every difference d_i - d_k,
so the condition, as it was; inputs that are a child stage's moves shift
with their child.  So a scan may carry a level's symmetric offset in
every error and take it off the root move once; clamping does not
commute with a shift, so a clamped scan takes it off each error.  The
condition is also necessary: a pair outside it changes that quotient
estimate, and with it the folding numbers, so a stage that fails it
loses its error-free folding numbers.  A plan's checked scan makes that
check for every stage, on each stage's actual input errors (a tree's
inner stages see their children's moves), and a trial passes when every
stage does; a plan with no stage has no condition.
robust.check_ns_condition is the same test for one stage.

So a trial whose errors pass the check is scored as the error-free
anchor's outcome plus the root move, and a trial that fails it is solved
on its erroneous remainders by the plan's one solve, the pure solver's
arithmetic written out per stage (multistage._compile_solve).  The
solve returns a failure rather than raise it, and the scan reads slot 1
of what it returns, the root stage's estimate or the partial one.  The
anchor is the plan's run, which wraps that solve for either plan kind,
on the trial's true remainders, one per trial, made when the trial is
drawn.  So no pure solver runs in a sweep, and its anchor and failing
trials could share a fault of the solve; the guards independent of it
are the golden CSVs, the tests' _per_level_oracle (the pure solver, for
a single stage), TestEmittedSolve and the benchmark's oracle.  Both ways
give the rows the solver gives.  The move is the root stage's, the
estimate a tree sweep scores; for the occurrence estimate it would be
the rounded mean over leaf occurrences.

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

A block is drawn by one call of its moduli set's drawer, into rows that
carry all a trial needs (_compile_rows), and a level is scored over it
by one call of its scan, generated per plan and clamping
(_compile_scans).

The drawer runs splitmix64 once per draw index for the whole block, on
one int that packs a 128-bit lane per trial (_streams).  Each lane holds
a value below 2**64, so a 64 x 64-bit product stays below 2**128, inside
its own lane, and the sum of two values carries no further than bit 64.
A right shift by s moves the low s bits of the next lane into the top of
each lane, so every round masks the lanes back to their low 64 bits
after its shift and xor, and again after its multiply; only the shifted
bits cross a lane, so the masked lanes are splitmix64's values exactly.

A raw error draw x enters a scan only as x % span, and x % s == (x % P)
% s whenever s divides P.  So levels whose spans share a multiple P may
scan a copy of the block with every raw draw taken mod P, and score
exactly the rows they score on the raw block; only the draws change, so
the copy is the block's, never a plan's.  The sweep splits its levels,
in sweep order, into families: a level joins the current family while
the lcm P of the family's spans stays below one CPython digit (2**30 on
most builds, sys.int_info), so every draw of the copy is a one-digit
int and each of its % takes CPython's one-digit path, where a raw
64-bit draw spans three digits.  Every family, a lone level's and
run_trials' included, scans its block reduced mod its P; no scan reads
the raw block.  The digit only decides speed: the identity holds for
any P the spans divide, so no row depends on the digit size.

Inconsistent reconstructions count as folding failures; a tree trial
fails exactly when reconstruct_tree fails on it.  When the failing stage
still produced a fused value of N (a negative folding number in the
single-stage solver or in a tree's root stage) that value enters the error
statistics, otherwise the trial is excluded from the mean and the max.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from typing import Callable, Iterable, Sequence

from .intmath import _check_index, _check_int
from .multistage import (
    GroupTree,
    _program_for,
    _sum_source,
    parse_tree,
    validate_tree,
)
from .robust import (
    FoldingFailure,
    SearchCapExceeded,
    _Factory,
    _folding_plan,
    _ns_condition,
    _solve_with_plan,
    _vars_init,
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
# one CPython digit: a family's modulus stays below it
_DIGIT = 1 << sys.int_info.bits_per_digit
# the most error levels one sweep takes, so that its counters and its
# scans per block stay bounded
_LEVEL_CAP = 100_000


def _splitmix64(seed: int, index: int) -> int:
    """Stable per-trial substream key (splitmix64 of seed + index step)."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class TrialConfig:
    """One simulation campaign.

    tree=None runs the single-stage solver (two or more moduli, automatic
    reference); otherwise the plan (a GroupTree, a JSON string or nested
    lists, parsed at construction) drives a multi-stage reconstruction.
    The plan is checked against the moduli when the config is built
    (validate_tree); siblings whose lcms collide (DegenerateTreeError)
    are found only when a run builds the plan's program.
    error_model "one-sided" draws integer errors uniformly from {0..tau},
    "symmetric" from {-tau..tau}.  clamp_remainders forces perturbed
    remainders back into [0, M_i - 1].  trials is not capped: a run's
    time is linear in trials (times levels, for a sweep).
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
            validate_tree(self.tree, len(self.moduli))
        elif len(self.moduli) < 2:
            raise ValueError("single-stage simulation needs >= 2 moduli")
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


@_vars_init
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

    Each row equals run_trials(replace(cfg_base, tau=tau)).  taus may be
    any iterable, endless included: past _LEVEL_CAP levels the sweep
    raises SearchCapExceeded before it draws a trial.  The trial count is
    not capped, so the run time is linear in trials × levels.
    """
    levels = [
        _check_int("tau", t, 0) for t in islice(taus, _LEVEL_CAP + 1)
    ]
    if len(levels) > _LEVEL_CAP:
        raise SearchCapExceeded(
            f"a sweep takes at most {_LEVEL_CAP} error levels"
        )
    return _run_levels(cfg_base, levels)


# the generated source of a plan's scans
_SCANS = """{scan}

{checked_scan}"""
# the one scan body, instantiated as scan (check True, which the
# compiler drops with its else branch) and as checked_scan
_SCAN = """def {name}(rows, level):
    span, off, tau, total, top, bad, failures, skipped = level
    for {cells} in rows:
        {plain}
        if {check}:
            e = a + {root}{shift}
        else:
            out = solve(({erroneous},))
            est = out[1]
            if out[0] is None:
                failures += 1
                if est is None:
                    skipped += 1
                    continue
            e = est - n
        {score}
    level[3:] = total, top, bad, failures, skipped"""
# a scan's score of one trial's error e into the level's sums
_SCORE = """if e < 0:
            e = -e
        total += e
        if e > top:
            top = e
        if e > tau:
            bad += 1"""
# the generated source of a moduli set's drawer and reducer: d is a
# trial's draw 0, which its unknown is taken from
_ROWS = """def draw(seed, start, stop, reconstruct):
    rows = []
    for d, {raws} in zip(*streams(seed, start, stop - start, {draws})):
        {remainders}
        rows.append(({row}))
    return rows

def reduce(rows, p):
    return [({reduced}) for {cells} in rows]"""


def _compile_scans(moduli: Sequence[int], stages, clamp: bool, solve):
    """Generate (scan, checked_scan, solve) for a run of stages.

    solve is the plan's one solve (multistage._compile_solve), which a
    tree program's run wraps too; the scans, written here, take it as a
    factory parameter, so it is a free variable of theirs named solve,
    and the source holds no stage arithmetic.  _scans keeps the output
    per plan and clamping; robust._Factory builds it.

    stages holds (plan, slots) per stage in run order: plan is the
    stage's robust._FoldingPlan and slots are its input slots.  In the
    scans, slots 0..L-1 hold the remainder errors and L + s holds stage
    s's move, (2 sum(d) + c) // 2c over its c inputs d; the root move is
    the last slot's.

    Both scans come from one source, _SCAN.  scan(rows, level) scores a
    level [span, off, tau, total, top, bad, failures, skipped] over a
    block's rows: it unpacks the level, adds the block into its sums and
    writes level[3:] back.  The loop body is straight-line code: each
    error d_j, one local per stage's move in run order, the trial's
    check, then its error into the sums.  A plain scan's error is d_j =
    x_j % span, which carries the level's offset off, so every move
    carries it too and a passing trial scores |a + root move - off| (the
    module docstring says why).  A clamped scan takes off from each
    error, d_j = x_j % span - off, and cuts it so that r_j + d_j lies in
    [0, M_j - 1].  So a trial-level costs a few integer operations per
    stage and per pair, with no call, list or table of its own.
    checked_scan's check is every stage's condition, -g <= 2 (d_i - d_k)
    < g per (i, g) of plan.pairs, as one chain of comparisons; scan's is
    True.  A failing trial calls solve((r_0 + d_0 - off, ..., r_{L-1} +
    d_{L-1} - off)) (without - off when clamped) and reads slot 1, the
    root stage's estimate or the partial one: it counts a failure when
    slot 0 is None, is skipped when the estimate is None and otherwise
    scores |estimate - n|.
    """
    const = _Factory()
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
            plain.append(f"d{j} = x{j} % span")
    shift = "" if clamp else " - off"
    table = [f"d{j}" for j in range(size)]
    checks = []
    for plan, slots in stages:
        ins = [table[j] for j in slots]
        c, dk = len(ins), ins[plan.k]
        checks += [
            f"{const(-g)} <= 2 * ({ins[i]} - {dk}) < {const(g)}"
            for i, g in plan.pairs
        ]
        table.append(f"d{len(table)}")
        plain.append(
            f"{table[-1]} = (2 * {_sum_source(ins)} + {const(c)})"
            f" // {const(2 * c)}"
        )
    body = dict(
        cells=", ".join(_cells(size)),
        plain="\n        ".join(plain),
        root=table[-1],
        shift=shift,
        score=_SCORE,
        erroneous=", ".join(f"r{j} + d{j}{shift}" for j in range(size)),
    )
    source = _SCANS.format(
        scan=_SCAN.format(name="scan", check="True", **body),
        checked_scan=_SCAN.format(
            name="checked_scan", check=" and ".join(checks) or "True", **body
        ),
    )
    return const.build(source, "scan, checked_scan, solve", solve=solve)


@lru_cache(maxsize=256)
def _scans(plan, clamp: bool):
    """The plan's (scan, checked_scan, solve), generated on its first
    sweep around the plan's one solve, which its run wraps too."""
    return _compile_scans(plan.moduli, plan.stages, clamp, plan.solve)


def _cells(size: int) -> list[str]:
    """The names of a row's cells over size moduli (_compile_rows)."""
    return [f"{v}{j}" for v in "xr" for j in range(size)] + ["a", "n"]


def _compile_rows(moduli: tuple[int, ...]):
    """Generate (draw, reduce), the rows of a sweep over moduli.

    draw(seed, start, stop, reconstruct) draws trials start..stop-1 of a
    run seeded with seed, as the module docstring defines them, and
    returns one row (x_0..x_{L-1}, r_0..r_{L-1}, a, n) of 2L + 2 cells
    per trial: the raw error draws, the true remainders n mod M_j, the
    anchor offset a = reconstruct((r_0, ..., r_{L-1}))[1] - n and the
    unknown n.  The raw draws come from _streams, which draws all of
    the block's trials at once on packed 128-bit lanes, one column per
    draw index (draw 0 for the unknown, then x_0..x_{L-1}); the
    generated loop zips the columns into rows.  reduce(rows, p) copies
    rows with each raw draw x_j taken mod p, the other cells as they
    were.

    A row reads only the moduli, and the plan only through reconstruct,
    so _rows keeps one pair per moduli set, whatever plans and clampings
    sweep it.  A row is a tuple, built in one allocation where a list
    takes two: the scans only unpack it.
    """
    const = _Factory()
    size = len(moduli)
    cells = _cells(size)
    rs = ", ".join(cells[size:2 * size])
    remainders = [f"n = d % {const(math.lcm(*moduli))}"]
    remainders += [f"r{j} = n % {const(m)}" for j, m in enumerate(moduli)]
    source = _ROWS.format(
        raws=", ".join(cells[:size]),
        draws=size + 1,
        remainders="\n        ".join(remainders),
        row=", ".join(cells[:-2] + [f"reconstruct(({rs},))[1] - n", "n"]),
        reduced=", ".join([f"{x} % p" for x in cells[:size]] + cells[size:]),
        cells=", ".join(cells),
    )
    return const.build(source, "draw, reduce", streams=_streams)


@lru_cache(maxsize=4)
def _lanes(count: int) -> tuple[int, int, int]:
    """(ones, mask, ramp) over count 128-bit lanes: lane i of each holds
    1, 2**64 - 1 and i * gamma mod 2**64.  A sweep's blocks take at most
    two counts, _BLOCK and the last block's."""
    ones = int.from_bytes((1).to_bytes(16, "little") * count, "little")
    steps = (i * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF for i in range(count))
    ramp = b"".join(step.to_bytes(16, "little") for step in steps)
    return ones, ones * 0xFFFFFFFFFFFFFFFF, int.from_bytes(ramp, "little")


def _mix(z: int, mask: int) -> int:
    """splitmix64's output function on every 128-bit lane of z, each
    lane below 2**64 (the module docstring says why masks keep the lanes
    apart).  Each lane's low 64 bits come out right; bits 97-127 hold
    the next lane's low bits, which its readers mask or drop."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def _streams(seed: int, start: int, count: int, draws: int) -> list:
    """Draws 0..draws-1 of trials start..start+count-1 of a run seeded
    with seed: one column per draw index, column j holding
    splitmix64(k_t, j) for each trial t, as _splitmix64 computes them.

    The keys k_t are one packed int, lane i for trial start + i, whose
    inputs seed + (start + 1 + i) gamma are a broadcast plus _lanes'
    ramp.  A key's bits 64-96 are 0, so adding (j + 1) gamma carries
    into none of the bits 97-127 that _mix leaves, and the mask drops
    them.
    """
    ones, mask, ramp = _lanes(count)
    base = (seed + (start + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    keys = _mix((base * ones + ramp) & mask, mask)
    columns = []
    for j in range(draws):
        step = (j + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        columns.append(_words(_mix((keys + step * ones) & mask, mask), count))
    return columns


# which of the 64-bit words of z.to_bytes(16 * count, order), read in
# that byte order, are the lanes' low halves, lane 0 first
_LOW_HALVES = {"little": slice(0, None, 2), "big": slice(None, None, -2)}


def _words(z: int, count: int):
    """The low 64 bits of each of z's count 128-bit lanes, lane 0 first,
    as a memoryview: z's bytes in the machine's byte order, cast to
    native 64-bit words."""
    words = memoryview(z.to_bytes(16 * count, sys.byteorder)).cast("Q")
    return words[_LOW_HALVES[sys.byteorder]]


@lru_cache(maxsize=256)
def _rows(moduli: tuple[int, ...]):
    """The moduli set's (draw, reduce), generated on its first sweep."""
    return _compile_rows(moduli)


def _families(spans: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Split a sweep's levels, given as a non-empty list of their spans
    in sweep order, into the families the module docstring describes.

    Returns (modulus, members) per family in order, members its levels'
    indices and modulus the lcm of their spans, which the family's
    block is reduced by: a level joins the current family while that
    lcm stays below _DIGIT.
    """
    families = []
    members: list[int] = []
    lcm = 1
    for i, span in enumerate(spans):
        grown = math.lcm(lcm, span)
        if members and grown >= _DIGIT:
            families.append((lcm, members))
            members, grown = [], span
        members.append(i)
        lcm = grown
    families.append((lcm, members))
    return families


def _run_levels(cfg: TrialConfig, taus: Sequence[int]) -> list[TrialStats]:
    """Run cfg's trials once and score every trial at each level of taus.

    The sweep the module docstring describes; clamping only picks the
    scans.  Each level's scan is picked once: scan at a certified level,
    checked_scan at every other.  Each block is drawn once, and each
    family of levels (_families) scans one copy of it reduced by the
    family's modulus, made when the family reaches the block and dropped
    before the next family's.  The anchor is the plan's run (its solve,
    wrapped), looked up on each sweep and handed to the drawer, never
    kept with the cached scans or rows, so that a run patched on the
    plan's class later (a tracer's wrapper) is the one the sweep calls.
    cfg.tau is unused.
    """
    if not taus:
        return []
    ms = cfg.moduli
    if cfg.tree is None:
        plan = _folding_plan(ms, select_reference(ms))
    else:
        plan = _program_for(ms, cfg.tree)

    scan, checked_scan, _ = _scans(plan, cfg.clamp_remainders)
    draw, reduce = _rows(ms)
    # G, the least gcd the checked scan compares against
    g_min = min((g for p, _ in plan.stages for _, g in p.pairs), default=0)
    one_sided = cfg.error_model == ONE_SIDED
    # (scan, level): an error is raw % span - off, so the level's window
    # width is w = span - 1; with 2w < G every trial passes, so the
    # check is skipped
    levels = []
    for tau in taus:
        span, off = (tau + 1, 0) if one_sided else (2 * tau + 1, tau)
        score = scan if 2 * (span - 1) < g_min else checked_scan
        levels.append((score, [span, off, tau, 0, 0, 0, 0, 0]))
    families = [
        (modulus, [levels[i] for i in members])
        for modulus, members in _families([lv[0] for _, lv in levels])
    ]

    run = plan.run
    for start in range(0, cfg.trials, _BLOCK):
        rows = draw(cfg.rng_seed, start, min(start + _BLOCK, cfg.trials), run)
        for modulus, members in families:
            block = reduce(rows, modulus)
            for score, level in members:
                score(block, level)
            del block

    stats = []
    for _, (_, _, tau, total, top, bad, failures, skipped) in levels:
        estimated = cfg.trials - skipped
        stats.append(
            TrialStats(
                tau=tau,
                trials=cfg.trials,
                mean_abs_error=(
                    Fraction(total, estimated) if estimated else Fraction(0)
                ),
                max_abs_error=top,
                bound=tau,
                bound_violations=bad,
                folding_failures=failures,
                estimated_trials=estimated,
            )
        )
    return stats


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
        return f"{x.numerator / x.denominator:.6f}"
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
            rt = [r + d for r, d in zip(base, deltas)]
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
        cases=total,
        condition_true=lam * sum(1 for _, ok in vectors if ok),
        sufficiency_counterexamples=tuple(suff),
        necessity_counterexamples=tuple(nec),
        sufficiency_failures=n_suff,
        necessity_failures=n_nec,
    )
