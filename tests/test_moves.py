"""The generated level scans, solve and rows.

simulate._compile_scans writes each plan's stage-by-stage pass as
straight-line code: a pair of scans that score one error level over a
block of trials, plain or clamped, one family per call, calling the
plan's one solve (multistage._compile_solve) on their failing trials;
simulate._compile_rows writes the drawer that draws the block, and its
reducer, once per moduli set.  These tests hold the scans to the loops
they replaced, written out here, and to the solver; they put every
exactness pair at its edges, with a nonzero symmetric offset, so that a
plain scan's score and solve arguments are held to the loops with the
offset taken off the root move and off each erroneous remainder; they
hold check_ns_condition to the checked scan there, check that the
checked scan solves a failing trial on its erroneous remainders, that
scans with a mutated edge, solve argument or offset are caught, that a
plan compiles only the clampings it is swept with, that its stage
arithmetic is compiled once, and that the generated code survives huge
gcds, wide stages and deep trees.  They hold each plan's solve, as its
sweeps call it, to the pure solver, estimate, success and partial
estimate alike, and to loop_solve in every slot, catch a solve with one
constant off by one, and check that it composes every occurrence.  They
hold each tree program's run, which wraps that solve, to the recursive
reconstruction and to the per-stage loop (loop_run), every field or the
failure triple alike, on random and shared plans, a 300-stage chain and
moduli past the digit limit.  They hold the drawer to rows built from
simulate._splitmix64, across seeds, block starts and plan sizes, check
that every plan over a moduli set draws the same rows from one drawer,
put the packed drawer's lanes, block sizes and draws at their edges,
and catch it with one constant, shift, lane width or lane mask altered.  They also
hold the error-free solve, whose estimate minus N is each row's anchor
offset, to N on plans of every kind.  checked_move, watch and scored
(tests/conftest.py) score one error vector through a plan's checked scan,
record the calls a checked scan makes to its solve, and read what one
scan call adds into a fresh level.
"""

import inspect
import math
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import pytest
from conftest import scored, watch
from test_multistage import (
    outcome,
    random_entangled,
    random_plan,
    recursive_reconstruct,
)

import modfold.multistage as multistage
import modfold.robust as robust
import modfold.simulate as simulate
from modfold.congruence import CongruenceSystem, crt_general
from modfold.grouping import propose_grouping
from modfold.multistage import (
    DegenerateTreeError,
    Leaf,
    Node,
    _compile_solve,
    _fold_name,
    _program_for,
    _solve_lines,
    _tree_program,
    parse_tree,
    reconstruct_tree,
    stage_bounds,
    tree_leaves,
)
from modfold.robust import (
    FoldingFailure,
    _Factory,
    _folding_plan,
    _solve_with_plan,
    check_ns_condition,
    per_remainder_bounds,
    prune_redundant,
    select_reference,
    solve_folding,
    theta_bound,
)
from modfold.simulate import (
    ONE_SIDED,
    SYMMETRIC,
    TrialConfig,
    _compile_scans,
    _scans,
    run_trials,
    sweep,
    verify_exactness_condition,
)

# the scan families, by clamping: the plain scans, then the clamped ones
FAMILIES = (False, True)


def loop_moves(stages, errors, checked):
    """The stage-by-stage pass the generated code replaces.

    Each stage's move is the half-up rounded mean of its input moves; with
    checked, a stage whose inputs miss -g <= 2 (d_i - d_k) < g for one of
    its pairs ends the pass with None.
    """
    table = list(errors)
    for plan, slots in stages:
        d = [table[j] for j in slots]
        if checked:
            dk = d[plan.k]
            for i, g in plan.pairs:
                if not -g <= 2 * (d[i] - dk) < g:
                    return None
        table.append((2 * sum(d) + len(d)) // (2 * len(d)))
    return table[-1]


def loop_run(moduli, stages, rt):
    """The pure solver's run on erroneous remainders.

    _solve_with_plan runs each stage in order; a failure at the root
    keeps its partial folding and estimate, one below it neither.  Then
    each leaf occurrence's folding number is the sum over the steps from
    the leaf to the root of the step's folding number for that input
    times the input's lcm over M_i (carried as the sum with the lcm
    itself and divided at the leaf), and the occurrences of one index
    must agree, the first to differ, left to right, naming its index.
    Returns (root stage's estimate, one folding per step, folding, the
    rounded mean of f * M_i + r_i over every occurrence), or the failure
    triple (reason, partial folding, partial estimate).
    """
    size = len(moduli)
    table, folds = list(rt), []
    for s, (plan, slots) in enumerate(stages):
        try:
            folding, est = _solve_with_plan(plan, [table[j] for j in slots])
        except FoldingFailure as exc:
            if s < len(stages) - 1:
                return exc.reason, None, None
            return exc.reason, exc.partial_folding, exc.partial_estimate
        folds.append(folding)
        table.append(est)
    found = {}  # index -> its first occurrence's folding number
    total = count = 0
    stack = [(len(table) - 1, 0)]
    while stack:
        slot, f_m = stack.pop()
        if slot < size:
            f = f_m // moduli[slot]
            if found.setdefault(slot, f) != f:
                reason = f"conflicting folding numbers for modulus index {slot}"
                return reason, None, None
            total += f_m + rt[slot]
            count += 1
            continue
        plan, slots = stages[slot - size]
        for i in range(len(slots) - 1, -1, -1):  # popped left to right
            term = folds[slot - size][i] * plan.moduli[i]
            stack.append((slots[i], f_m + term))
    folding = tuple(found[i] for i in range(size))
    return table[-1], folds, folding, (2 * total + count) // (2 * count)


def loop_solve(moduli, stages, rt):
    """loop_run laid out as a plan's solve returns it, with the root
    stage's estimate or the partial one in slot 1: (steps' folding,
    root stage's estimate, folding, occurrence estimate), or (None,
    partial estimate, reason, partial folding)."""
    out = loop_run(moduli, stages, rt)
    if isinstance(out[0], str):
        reason, folding, estimate = out
        return None, estimate, reason, folding
    root, folds, folding, estimate = out
    return folds, root, folding, estimate


def solve_of(plan):
    """The plan's one solve: a program's own, or one compiled as a
    single-stage plan compiles its own on first read
    (robust._FoldingPlan.solve), kept on no plan."""
    if isinstance(plan, robust._FoldingPlan):
        return _compile_solve(plan.moduli, plan.stages, (), ())
    return plan.solve


def loop_scan(moduli, stages, clamp, checked, solve):
    """A level scan as a loop over rows, one loop_moves pass per trial.

    A row is (raw draws, true remainders, anchor offset a, unknown n),
    and the scan adds the rows into a level [span, off, tau, total, top,
    bad, failures, skipped] as the generated one does.  The checked scan
    calls solve, through its solve cell, on a failing trial's erroneous
    remainders, handed over as one tuple, and reads slot 1, as the
    generated one calls the plan's solve.
    """
    size = len(moduli)

    def scan(rows, level):
        span, off, tau, *sums = level
        for row in rows:
            *_, a, n = row
            rt = erroneous(moduli, row, span, off, clamp)
            errors = [x - r for x, r in zip(rt, row[size:])]
            move = loop_moves(stages, errors, checked)
            if move is not None:
                err = abs(a + move)
            else:
                out = solve(tuple(rt))
                est = out[1]
                sums[3] += out[0] is None
                if est is None:
                    sums[4] += 1
                    continue
                err = abs(est - n)
            sums[0] += err
            sums[1] = max(sums[1], err)
            sums[2] += err > tau
        level[3:] = sums

    return scan


def erroneous(moduli, row, span, off, clamp):
    """A row's remainders at one level: r_j + x_j % span - off, clamped
    into [0, M_j - 1] when clamp."""
    size = len(moduli)
    out = []
    for j, m in enumerate(moduli):
        rt = row[size + j] + row[j] % span - off
        out.append(min(max(rt, 0), m - 1) if clamp else rt)
    return out


def loop_draw(moduli):
    """The drawer as the simulate docstring defines the draws: trial t's
    key is _splitmix64(seed, t), its unknown is draw 0 of that key modulo
    the lcm, and its raw errors are draws 1..L."""
    lam = math.lcm(*moduli)
    mix = simulate._splitmix64

    def draw(seed, start, stop, reconstruct):
        rows = []
        for t in range(start, stop):
            key = mix(seed, t)
            n = mix(key, 0) % lam
            rs = [n % m for m in moduli]
            raws = [mix(key, j) for j in range(1, len(moduli) + 1)]
            rows.append((*raws, *rs, reconstruct(tuple(rs))[1] - n, n))
        return rows

    return draw


def loop_rows(moduli):
    """A stand-in for _compile_rows: loop_draw, and a reducer that takes
    each raw draw mod p in a loop."""
    size = len(moduli)

    def reduce(rows, p):
        return [tuple(x % p for x in row[:size]) + row[size:] for row in rows]

    return loop_draw(moduli), reduce


def loop_kernels(moduli, stages, clamp, solve=None):
    """A stand-in for _compile_scans that runs the loops and, in place of
    the solve it is handed, solves with loop_solve (each distinct input
    once)."""
    stages = list(stages)

    @lru_cache(maxsize=None)
    def solve(rt):
        return loop_solve(moduli, stages, rt)

    scans = tuple(
        loop_scan(moduli, stages, clamp, c, solve) for c in (False, True)
    )
    return scans + (solve,)


def every_family(compile_scans, moduli, stages, solve):
    """(plain family, clamped family), one call per clamping, each handed
    solve; a family is (scan, checked_scan, solve)."""
    return tuple(
        compile_scans(moduli, stages, clamp, solve) for clamp in FAMILIES
    )


def kernels_of(plan):
    """The plan's sweep scans, laid out as every_family gives them."""
    return tuple(_scans(plan, clamp) for clamp in FAMILIES)


def entangled(rng, size):
    """Distinct moduli built from a few shared prime powers."""
    while True:
        ms = {
            math.prod(rng.choice((1, 2, 4, 8, 3, 9, 5, 7)) for _ in range(4))
            for _ in range(size)
        }
        ms.discard(1)
        if len(ms) == size:
            return tuple(sorted(ms))


# trees by size: singleton leaves, a shared index, one leaf, depth 2 and 3
LAYOUTS = {
    1: ["[0]"],
    3: ["[[0,1],[2]]", "[[0,2],[1,2]]", "[0,1,2]", "[[[0],[1]],[2]]"],
    4: ["[[0,1],[2,3]]", "[[[0,1],[2]],[3]]", "[[0,1],[1,2,3]]"],
    6: ["[[[0,1],[2,3]],[4,5]]", "[[0,1,2],[3,4],[5]]"],
}


def random_plans(rng, count):
    """(moduli, plan) pairs: folding plans at any reference, and programs."""
    out = []
    while len(out) < count:
        size = rng.choice((2, 3, 3, 4, 5))
        ms = entangled(rng, size)
        out.append((ms, _folding_plan(ms, rng.randrange(size))))
        size = rng.choice(sorted(LAYOUTS))
        ms = (7,) if size == 1 else entangled(rng, size)
        try:
            program = _tree_program(ms, parse_tree(rng.choice(LAYOUTS[size])))
        except DegenerateTreeError:
            continue
        out.append((ms, program))
    return out


def error_vectors(rng, ms, count):
    """(unknown, errors): one-sided, symmetric and clamped draws."""
    lam = math.lcm(*ms)
    for _ in range(count):
        n = rng.randrange(lam)
        tau = rng.choice((1, 2, 3, 5, 8, 13, 40))
        kind = rng.randrange(3)
        if kind == 0:
            errors = [rng.randint(0, tau) for _ in ms]
        elif kind == 1:
            errors = [rng.randint(-tau, tau) for _ in ms]
        else:
            errors = [
                min(max(n % m + rng.randint(-tau, tau), 0), m - 1) - n % m
                for m in ms
            ]
        yield n, errors


def edge_vectors(size, stages):
    """Per stage pair (i, g), errors putting d_i - d_k just inside and
    just outside both edges of the exactness condition.

    The least passing difference d has 2d = -g (g even) or -g - 1 (g
    odd), the greatest 2d = g - 2 or g - 1; one step past each fails.
    Every error under input i is d and every other error 0, so input i
    moves by d and, when no other input shares its moduli, the stage
    sees exactly d_i - d_k = d.  Yields (stage, i, d, errors).
    """
    under = [{j} for j in range(size)]  # the error slots under each slot
    for _, slots in stages:
        under.append(set().union(*(under[j] for j in slots)))
    for s, (plan, slots) in enumerate(stages):
        for i, g in plan.pairs:
            lo, hi = -(g // 2), (g + 1) // 2 - 1
            for d in (lo - 1, lo, hi, hi + 1):
                errors = [0] * size
                for j in under[slots[i]]:
                    errors[j] = d
                yield s, i, d, errors


SCANS = {
    "scan": (False, False),
    "checked_scan": (False, True),
    "clamped_scan": (True, False),
    "clamped_checked_scan": (True, True),
}


def block_of(moduli, vectors, rng):
    """(rows, span, off): one level whose raw draws give the error
    vectors.

    With off past every |error| and span = 2 off + 1, a raw draw
    d + off + span q maps to error d, for any q.  The true remainders
    are in turn 0, M_j - 1 and one between, so a clamped scan clamps
    some errors.  Anchor offsets are small ints, and the unknowns, the
    rows' last cells, which only a solved trial's score reads, lie in
    [0, lcm).
    """
    off = 1 + max((abs(d) for errors in vectors for d in errors), default=0)
    span = 2 * off + 1
    lam = math.lcm(*moduli)
    rows = []
    for pos, errors in enumerate(vectors):
        q = off + span * rng.getrandbits(40)
        row = [d + q for d in errors]
        # exact for moduli past the float range
        num, den = rng.random().as_integer_ratio()
        row += [
            (0, m - 1, m * num // den)[(j + pos) % 3]
            for j, m in enumerate(moduli)
        ]
        row.append(rng.randint(-2, 2))
        row.append(rng.randrange(lam))
        rows.append(tuple(row))
    return rows, span, off


def mismatches(kernels, moduli, stages, vectors):
    """The scans that disagree with the loops on the error vectors.

    kernels is laid out as every_family gives them.  Each scan scores the
    vectors as one block, at a level whose raw draws give those errors,
    and then each vector as a block of its own; a checked scan's calls
    to its solve are compared too.
    """
    plain, clamped = kernels
    reference = every_family(loop_kernels, moduli, stages, None)
    out = set()
    generated = dict(zip(SCANS, (plain, plain, clamped, clamped)))
    expected = dict(zip(SCANS, reference[:1] * 2 + reference[1:] * 2))
    rng = random.Random(len(vectors))
    for name, (clamp, checked) in SCANS.items():
        rows, span, off = block_of(moduli, vectors, rng)
        tau = rng.randint(0, 3)
        mine, calls = watch(generated[name])
        theirs, want = watch(expected[name])
        if not checked:
            # the unchecked scans, which never call their solve
            mine, theirs = generated[name][0], expected[name][0]
        for block in [rows] + [[row] for row in rows]:
            calls.clear()
            want.clear()
            got = scored(mine, block, span, off, tau), calls
            if got != (scored(theirs, block, span, off, tau), want):
                out.add(name)
    return out


def solve(plan, rt):
    """(folding numbers, estimate) of the solver, or (None, None)."""
    try:
        if isinstance(plan, robust._FoldingPlan):
            return _solve_with_plan(plan, rt)
        _, est, outer, folding, _ = plan.run(rt)
        return (outer, folding), est
    except FoldingFailure:
        return None, None


def pure_outcome(plan, rt):
    """(estimate or None, ok, kind) of the pure solver on rt.

    The first two are what a sweep scores for a solved trial: a failure
    keeps its partial estimate.  kind says how the solve ended: "ok",
    "contradiction", "conflict", "negative at root" or "negative below
    root".
    """
    try:
        if isinstance(plan, robust._FoldingPlan):
            return _solve_with_plan(plan, rt)[1], True, "ok"
        return plan.run(rt)[1], True, "ok"
    except FoldingFailure as exc:
        est = exc.partial_estimate
        if exc.reason.startswith("remainder errors produced contradictory"):
            return est, False, "contradiction"
        if exc.reason.startswith("conflicting folding numbers"):
            return est, False, "conflict"
        root = "at" if est is not None else "below"
        return est, False, f"negative {root} root"


def pure_solve(plan, rt):
    """pure_outcome's (estimate or None, ok)."""
    return pure_outcome(plan, rt)[:2]


class TestAgainstLoopsAndSolver:
    def test_random_plans_and_trees(self, checked_move):
        rng = random.Random(1401)
        issued = refused = 0
        for ms, plan in random_plans(rng, 160):
            stages = plan.stages
            vectors = []
            for n, errors in error_vectors(rng, ms, 40):
                vectors.append(errors)
                move = checked_move(plan, errors)
                assert move == loop_moves(stages, errors, True), (ms, errors)
                rs = [n % m for m in ms]
                anchor_folds, anchor = solve(plan, rs)
                folds, est = solve(plan, [r + e for r, e in zip(rs, errors)])
                if move is None:
                    refused += 1
                    assert folds != anchor_folds, (ms, n, errors)
                else:
                    issued += 1
                    assert (folds, est) == (anchor_folds, anchor + move)
            assert mismatches(kernels_of(plan), ms, stages, vectors) == set()
        assert issued > 2000 and refused > 2000

    def test_every_pair_at_its_edges(self, checked_move):
        rng = random.Random(1402)
        exact = {"even": 0, "odd": 0}
        for ms, plan in random_plans(rng, 200):
            stages = plan.stages
            size = len(ms)
            n = rng.randrange(math.lcm(*ms))
            rs = [n % m for m in ms]
            anchor_folds, anchor = solve(plan, rs)
            vectors = []
            for s, i, d, errors in edge_vectors(size, stages):
                vectors.append(errors)
                move = checked_move(plan, errors)
                assert move == loop_moves(stages, errors, True), (ms, errors)
                folds, est = solve(plan, [r + e for r, e in zip(rs, errors)])
                if move is None:
                    assert folds != anchor_folds, (ms, n, errors)
                else:
                    assert (folds, est) == (anchor_folds, anchor + move)
                # the stage's own difference, as the loops compute it
                table = list(errors)
                for p, slots in stages[:s]:
                    table.append(loop_moves([(p, slots)], table, False))
                plan_s, slots = stages[s]
                if table[slots[i]] - table[slots[plan_s.k]] == d:
                    g = dict(plan_s.pairs)[i]
                    exact["even" if g % 2 == 0 else "odd"] += 1
            assert mismatches(kernels_of(plan), ms, stages, vectors) == set()
        # both parities, so 2d reaches -g, -g - 1, g - 1 and g
        assert exact["even"] > 1000 and exact["odd"] > 300, exact

    def test_mutated_upper_edge_is_caught(self, monkeypatch):
        # scans generated with <= at the upper edge pass 2d = g; each
        # checked scan must be caught on its own
        rng = random.Random(1403)
        plans = random_plans(rng, 60)
        sources = []

        def mutated(source, namespace):
            sources.append(source)
            exec(source.replace(") < k", ") <= k"), namespace)

        caught = {}
        for ms, plan in plans:
            stages, solve = plan.stages, solve_of(plan)
            vectors = [e for *_, e in edge_vectors(len(ms), stages)]
            kernels = every_family(_compile_scans, ms, stages, solve)
            assert mismatches(kernels, ms, stages, vectors) == set()
            with monkeypatch.context() as m:
                m.setattr(robust, "exec", mutated, raising=False)
                mutant = every_family(_compile_scans, ms, stages, solve)
            # a plan has an upper edge in both sources when it has a stage
            assert {") < k" in s for s in sources[-2:]} == {bool(stages)}
            for name in mismatches(mutant, ms, stages, vectors):
                caught[name] = caught.get(name, 0) + 1
        # the unchecked scans have no edge to mutate
        assert set(caught) == {"checked_scan", "clamped_checked_scan"}
        assert min(caught.values()) > 20, caught

    @pytest.mark.parametrize(
        "site, caught_by",
        [
            # the score takes the offset off the root move
            (r"(e = a \+ d\d+) - off", {"scan", "checked_scan"}),
            # each remainder handed to the solve takes it off too
            (r"\b(r(\d+) \+ d\2) - off", {"checked_scan"}),
        ],
        ids=["score", "handback"],
    )
    def test_unfolded_offset_is_caught(self, monkeypatch, site, caught_by):
        # a plain scan's errors and moves carry the level's offset, which
        # it takes off the score and off each remainder it hands the
        # solve once;
        # a scan that keeps it is caught at the pair edges, where off > 0.
        # A clamped scan takes the offset off each error, so its source
        # has neither site
        rng = random.Random(1413)
        sources = []

        def mutated(source, namespace):
            sources.append(source)
            exec(re.sub(site, r"\1", source), namespace)

        caught = {}
        for ms, plan in random_plans(rng, 20):
            stages, solve = plan.stages, solve_of(plan)
            vectors = [e for *_, e in edge_vectors(len(ms), stages)]
            with monkeypatch.context() as m:
                m.setattr(robust, "exec", mutated, raising=False)
                mutant = every_family(_compile_scans, ms, stages, solve)
            for name in mismatches(mutant, ms, stages, vectors):
                caught[name] = caught.get(name, 0) + 1
        # the sources come plain, clamped, plain, ...
        plain, clamped = sources[0::2], sources[1::2]
        assert all(re.search(site, s) for s in plain)
        assert not any(re.search(site, s) for s in clamped)
        assert set(caught) == caught_by
        assert min(caught.values()) > 10, caught

    def test_clamped_scans_at_the_range_ends(self, checked_move):
        # N = 0 puts every true remainder at 0 and N = lcm - 1 at M_j - 1,
        # so clamping cuts every error that points out of [0, M_j - 1]
        def add(sums, err, tau):  # into [total, max, violations]
            sums[0] += err
            sums[1] = max(sums[1], err)
            sums[2] += err > tau

        rng = random.Random(1408)
        cut = 0
        for ms, plan in random_plans(rng, 60):
            stages = plan.stages
            lam = math.lcm(*ms)
            # per end: true remainders, error-free folding and estimate
            ends = {
                n: (rs, *solve(plan, rs))
                for n in (0, lam - 1)
                for rs in [[n % m for m in ms]]
            }
            family = _scans(plan, True)
            scan = family[0]
            checked_scan, calls = watch(family)
            for tau in (1, 3, 8):
                span, off = 2 * tau + 1, tau
                rows = []
                # checked: total, max, violations, failures, skipped
                want = [0, 0, 0, 0, 0]
                # unchecked, over every row, with no failure and no skip
                want_all = [0, 0, 0, 0, 0]
                want_calls = []
                for n in (0, lam - 1) * 8:
                    rs, anchor_folds, anchor = ends[n]
                    raws = [rng.getrandbits(64) for _ in ms]
                    rows.append((*raws, *rs, anchor - n, n))
                    # the per-trial clamped errors
                    errors = [
                        min(max(r + x % span - off, 0), m - 1) - r
                        for x, r, m in zip(raws, rs, ms)
                    ]
                    cut += sum(
                        x % span - off != e for x, e in zip(raws, errors)
                    )
                    move = checked_move(plan, errors)
                    rt = [r + e for r, e in zip(rs, errors)]
                    folds, est = solve(plan, rt)
                    if move is None:
                        # solved on its erroneous remainders
                        want_calls.append((tuple(rt),))
                        assert folds != anchor_folds
                        est, ok = pure_solve(plan, rt)
                        want[3] += not ok
                        if est is None:
                            want[4] += 1
                        else:
                            add(want, abs(est - n), tau)
                    else:
                        assert (folds, est) == (anchor_folds, anchor + move)
                        add(want, abs(est - n), tau)
                    unchecked = loop_moves(stages, errors, False)
                    add(want_all, abs(anchor + unchecked - n), tau)
                calls.clear()
                got = scored(checked_scan, rows, span, off, tau)
                assert (got, calls) == (tuple(want), want_calls)
                assert scored(scan, rows, span, off, tau) == tuple(want_all)
        assert cut > 1000

    def test_plan_with_no_stage(self, checked_move):
        program = _tree_program((7,), parse_tree("[0]"))
        assert program.stages == ()
        for e in (-3, 0, 5):
            assert checked_move(program, [e]) == e
        vectors = [[-3], [0], [5]]
        assert mismatches(kernels_of(program), (7,), [], vectors) == set()
        # errors -3, 0 and 5: every trial passes and scores
        # |a + error| = 2, 0 and 4
        checked_scan, calls = watch(_scans(program, False))
        rows = [(0, 4, 1, 0), (3, 4, 0, 4), (8, 4, -1, 1)]
        assert scored(checked_scan, rows, 9, 3, 2) == (6, 4, 1, 0, 0)
        assert calls == []
        # its solve returns its one value
        vectors = [[v] for v in (-3, 0, 6, 7, 40)]
        assert solve_mismatches(program, vectors) == ([], {"ok": 5})


def condition_mismatches(ms, rng):
    """Edge vectors where check_ns_condition and the checked scan differ.

    Every pair edge of the single-stage plan at every reference k is
    scored as a one-row block; the trials the scan solves must be those
    the condition refuses.  Returns (mismatches, refusals, vectors).
    """
    wrong = refused = count = 0
    for k in range(len(ms)):
        plan = _folding_plan(ms, k)
        checked_scan, calls = watch(_scans(plan, False))
        vectors = [e for *_, e in edge_vectors(len(ms), plan.stages)]
        rows, span, off = block_of(ms, vectors, rng)
        for row, errors in zip(rows, vectors):
            calls.clear()
            scored(checked_scan, [row], span, off, 0)
            ok = check_ns_condition(errors, ms, k)
            wrong += ok == bool(calls)
            refused += not ok
        count += len(vectors)
    return wrong, refused, count


class TestConditionAgainstTheScan:
    """check_ns_condition reads the gcd table; the scan checks pairs."""

    def test_random_entangled_sets(self):
        rng = random.Random(1411)
        refused = count = 0
        for _ in range(150):
            ms = entangled(rng, rng.choice((2, 3, 4, 5)))
            wrong, r, c = condition_mismatches(ms, rng)
            assert wrong == 0, ms
            refused += r
            count += c
        # each pair has two passing and two failing edge vectors
        assert 2 * refused == count > 4000

    def test_gcds_past_the_digit_limit(self):
        p = 10**4400 + 1
        sets = ((6 * p, 10 * p, 15 * p), (p, 2 * p), (12 * p, 18 * p, 8 * p))
        for ms in sets:
            wrong, refused, count = condition_mismatches(ms, random.Random(7))
            assert wrong == 0 and 2 * refused == count > 0


# plan kinds whose solve arguments are checked: tree layouts over six
# moduli
HANDBACK_KINDS = {
    "single stage": None,
    "depth 2": "[[0,1,2],[3,4],[5]]",
    "depth 3": "[[[0,1],[2,3]],[4,5]]",
    "shared index": "[[0,1,2],[2,3,4,5]]",
}


def handback_cases(rng, per_kind):
    """(kind, moduli, plan) per kind, over random six-moduli sets."""
    out = []
    for kind, layout in HANDBACK_KINDS.items():
        count = 0
        while count < per_kind:
            ms = entangled(rng, 6)
            try:
                plan = (
                    _folding_plan(ms, rng.randrange(6)) if layout is None
                    else _tree_program(ms, parse_tree(layout))
                )
            except DegenerateTreeError:
                continue
            out.append((kind, ms, plan))
            count += 1
    return out


def hand_back_r_minus_d(source, namespace):
    """exec, with each remainder r_j + d_j handed to the solve made
    r_j - d_j; a solve's own source holds no such remainder."""
    exec(re.sub(r"\br(\d+) \+ d\1\b", r"r\1 - d\1", source), namespace)


def handbacks(rng):
    """Score checked scans, freshly compiled, against the loops.

    For each plan kind, error model and clamping, rows are drawn as a
    sweep draws them, with a third of the unknowns at 0 and a third at
    lcm - 1 so that clamping cuts errors at both ends.  Returns the
    blocks where the trials the scan solves, found one row at a time,
    are not the ones loop_moves fails, the solve calls of a whole-block
    scan that differ from those trials' erroneous remainders, and per
    kind and clamping the failing trials and the remainders handed to
    the solve clamped to 0 and to M_j - 1.
    """
    wrong_positions = wrong_remainders = 0
    seen = {}
    for kind, ms, plan in handback_cases(rng, 6):
        stages = plan.stages
        lam = math.lcm(*ms)
        for model, clamp in ((m, c) for m in (ONE_SIDED, SYMMETRIC)
                             for c in (False, True)):
            checked_scan, calls = watch(
                _compile_scans(ms, stages, clamp, solve_of(plan))
            )
            for tau in (2, 9, 40):
                span, off = (tau + 1, 0) if model == ONE_SIDED else (
                    2 * tau + 1, tau
                )
                rows = []
                for _ in range(60):
                    n = rng.choice((0, lam - 1, rng.randrange(lam)))
                    raws = [rng.getrandbits(64) for _ in ms]
                    rows.append((*raws, *[n % m for m in ms], 0, n))
                positions, want = [], []
                for pos, row in enumerate(rows):
                    calls.clear()
                    scored(checked_scan, [row], span, off, tau)
                    positions += [pos] * len(calls)
                    rt = erroneous(ms, row, span, off, clamp)
                    errors = [x - r for x, r in zip(rt, row[len(ms):])]
                    if loop_moves(stages, errors, True) is None:
                        want.append(pos)
                wrong_positions += positions != want
                calls.clear()
                scored(checked_scan, rows, span, off, tau)
                tally = seen.setdefault((kind, clamp), [0, 0, 0])
                for pos, (rt,) in zip(positions, calls):
                    row = rows[pos]
                    truth = erroneous(ms, row, span, off, clamp)
                    wrong_remainders += list(rt) != truth
                    tally[0] += 1
                    unclamped = erroneous(ms, row, span, off, False)
                    for x, u, m in zip(truth, unclamped, ms):
                        tally[1] += x == 0 and u < 0
                        tally[2] += x == m - 1 and u > m - 1
    return wrong_positions, wrong_remainders, seen


class TestHandback:
    """A checked scan solves each failing trial on its erroneous
    remainders."""

    def test_failing_trials_get_their_remainders(self):
        wrong_positions, wrong_remainders, seen = handbacks(
            random.Random(1409)
        )
        assert (wrong_positions, wrong_remainders) == (0, 0)
        assert sorted(seen) == sorted(
            (kind, clamp) for kind in HANDBACK_KINDS for clamp in (0, 1)
        )
        for (kind, clamp), (failing, at_zero, at_top) in seen.items():
            assert failing > 100, (kind, clamp, failing)
            if clamp:  # some remainders were cut at each end
                assert at_zero > 20 and at_top > 20, (kind, at_zero, at_top)

    def test_mutated_handback_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            robust, "exec", hand_back_r_minus_d, raising=False
        )
        wrong_positions, wrong_remainders, _ = handbacks(random.Random(1409))
        # the check is intact, so only the remainders are wrong
        assert wrong_positions == 0 and wrong_remainders > 500
        caught = set()
        for ms, plan in random_plans(random.Random(1410), 20):
            stages = plan.stages
            vectors = [e for _, e in error_vectors(random.Random(5), ms, 40)]
            mutant = every_family(_compile_scans, ms, stages, solve_of(plan))
            caught |= mismatches(mutant, ms, stages, vectors)
        assert caught == {"checked_scan", "clamped_checked_scan"}


def solve_vectors(rng, ms, stages, count):
    """Erroneous remainders, which the solver takes as given: random
    errors at random unknowns; as many remainders drawn from
    [-2 M_j, 3 M_j); as many N - f_j M_j at a random N, each f_j drawn
    from [-2, N // M_j + 1], so that a derived folding number is -1
    whatever the reference's is; and every pair's edge vectors at both
    ends of [0, lcm) and at one unknown between."""
    lam = math.lcm(*ms)
    out = [
        [n % m + e for m, e in zip(ms, errors)]
        for n, errors in error_vectors(rng, ms, count)
    ]
    out += [
        [rng.randrange(-2 * m, 3 * m) for m in ms] for _ in range(count)
    ]
    for n in (rng.randrange(lam) for _ in range(count)):
        out.append([n - rng.randint(-2, n // m + 1) * m for m in ms])
    for n in (0, lam - 1, rng.randrange(lam)):
        out += [
            [n % m + e for m, e in zip(ms, errors)]
            for *_, errors in edge_vectors(len(ms), stages)
        ]
    return out


def solve_mismatches(plan, vectors):
    """The vectors on which the plan's solve, as its sweeps call it,
    differs from the pure solver's (estimate or None, ok), or from
    loop_solve in any slot but the stages' folding numbers, which
    loop_solve lays out its own way; and the pure solver's outcomes by
    kind."""
    stages = plan.stages
    solve = _scans(plan, False)[2]
    wrong, kinds = [], {}
    for rt in vectors:
        *want, kind = pure_outcome(plan, rt)
        out, loop = solve(tuple(rt)), loop_solve(plan.moduli, stages, rt)
        got = out[1], out[0] is not None
        if got[1]:
            out, loop = (out[1], *out[3:]), loop[1:]
        if got != tuple(want) or out != loop:
            wrong.append(rt)
        kinds[kind] = kinds.get(kind, 0) + 1
    return wrong, kinds


# plans whose one solve is mutated, one constant site at a time: a
# single stage, a depth-2 tree and a tree that shares index 2
MUTATED_PLANS = (None, "[[0,1],[2]]", "[[0,2],[1,2]]")


def unobservable(source, at, sign, stages, occurrences):
    """Whether the mutant that moves the solve constant at source[at:] by
    one in the direction sign is one no input can tell from the solve.

    A stage of c inputs rounds es + bias over 2c, and es + bias has the
    parity of c: each rounding remainder e_i = (2 d + g_i) mod 2 g_i has
    that of g_i, and bias = c - sum of g_i.  So a move of that sum by
    one crosses no multiple of 2c when it goes to the parity c does not
    have: +1 for even c, -1 for odd c.  The bias moves the sum itself; a
    pair's g in its divmod moves e_i the same way while the quotient
    stays, which it does for +1 on an even g and -1 on an odd one.  And
    a stage of one pair merges one congruence, so n_k < n and q = n_k c
    + n t; then n_k (c + 1) < q and (n_k (c + 1) - q) // n tell what
    they tell with c.

    The last line returns, on a success, each folding number f as
    f M_i // M_i, and the occurrence estimate (2 S + c) // 2c over the c
    occurrences.  2 S + c has the parity of c, so the c in that sum is
    the bias again.  And f M // (M - 1) = f + f // (M - 1), which is f
    for 0 <= f < M - 1, as every folding number of a success is here.
    """
    line = source[source.rindex("\n", 0, at):source.index("\n", at)]
    before = source[:at]
    if line.lstrip().startswith("return ("):  # a success's results
        if re.search(r"\bt\d+_\d+ // $", before):
            return sign == "-"
        parity = "+" if occurrences % 2 == 0 else "-"
        return before.endswith(") + ") and sign == parity
    stage = re.search(r"\b(?:nk|q)(\d+)", line)
    if stage is None:  # a merge step's contradiction test
        return False
    s = int(stage.group(1))
    plan = stages[s][0]
    even = "+" if len(plan.moduli) % 2 == 0 else "-"
    if before.endswith("(es + "):
        return sign == even
    if before.endswith(") + "):  # a divmod's g
        i = int(re.search(rf"\bq{s}_(\d+), ", line).group(1))
        g = dict(plan.pairs)[i]
        return sign == even == "+-"[g % 2]
    # a c: n_k * c < q, or n_k * c - q in a fold
    return (
        sign == "+" and len(plan.pairs) == 1
        and re.match(r"k\d+ [<-] q", source[at:]) is not None
    )


def root_edge_reading(ms, stages):
    """Remainders on which the root stage, of one pair (k, i), merges
    n_k = 1 and derives folding number 0 for input i: each leaf under
    input k reads 0 and each other leaf reads M_k, input k's lcm, so the
    root's inputs read 0 and M_k.  Every reading is M_k mod its M_j."""
    size = len(ms)
    root, slots = stages[-1]
    reading = [None] * size

    def leaves(slot):
        if slot < size:
            return [slot]
        return [j for child in stages[slot - size][1] for j in leaves(child)]

    for j in leaves(slots[root.k]):
        reading[j] = 0
    return tuple(root.moduli[root.k] if r is None else r for r in reading)


class TestEmittedSolve:
    """A plan's one solve, as its sweeps call it, is the pure solver: the
    estimate, failure versus success, and the partial estimate of a root
    failure; and it is loop_solve in every slot."""

    def test_random_plans_and_trees(self):
        rng = random.Random(1416)
        kinds = {}
        for ms, plan in random_plans(rng, 80):
            vectors = solve_vectors(rng, ms, plan.stages, 30)
            wrong, seen = solve_mismatches(plan, vectors)
            assert wrong == [], (ms, plan, wrong[:3])
            for kind, count in seen.items():
                kinds[kind] = kinds.get(kind, 0) + count
        assert min(kinds.values()) > 100 and len(kinds) == 5, kinds

    def test_constant_off_by_one_is_caught(self, monkeypatch):
        # each parameter and integer literal of the plan's one solve, one
        # site at a time, made one more and one less; the solve's full
        # results or the sweep's rows must catch exactly the mutants that
        # unobservable() does not prove equivalent
        ms = (135, 180, 162)
        rng, wide = random.Random(1419), random.Random(1423)
        caught = {"solve": 0, "rows": 0}
        sites = equivalent = 0
        for layout in MUTATED_PLANS:
            if layout is None:
                plan = _folding_plan(ms, select_reference(ms))
                occurrences = len(ms)

                def build():
                    return _compile_solve(ms, plan.stages, (), ())
            else:
                tree = parse_tree(layout)
                plan = _program_for(ms, tree)
                occurrences = len(re.findall(r"\d+", layout))

                def build():
                    return multistage._TreeProgram(ms, tree).solve
            stages = plan.stages
            vectors = [
                tuple(rt) for rt in solve_vectors(rng, ms, stages, 100)
            ]
            # remainders N - f_j M_j with f_j in [-40, 40], so that a root
            # stage's derived folding number falls below -n
            vectors += [
                tuple(n - wide.randint(-40, 40) * m for m in ms)
                for n in (wide.randrange(math.lcm(*ms)) for _ in range(200))
            ]
            root, _ = stages[-1]
            if len(root.pairs) == 1:
                vectors.append(root_edge_reading(ms, stages))
            assert solve_mismatches(plan, vectors)[0] == []
            solve = _scans(plan, False)[2]
            want = [solve(rt) for rt in vectors]
            if len(root.pairs) == 1:
                # the reading on which n_k * (c - 1) < q fails a success:
                # the root merges n_k >= 1 and derives folding number 0
                k = root.k
                assert any(
                    out[0] is not None and out[2][k] >= 1
                    and out[2][1 - k] == 0
                    for out in want
                ), layout
            # every folding number of a success is below its M_j - 1
            assert all(
                f < m - 1
                for out in want if out[0] is not None
                for f, m in zip(out[3], ms)
            )
            cfg = TrialConfig(moduli=ms, tree=layout, trials=200, rng_seed=3)
            taus = [14, 25, 40]
            rows = sweep(cfg, taus)
            sources = []

            def capture(source, namespace):
                sources.append(source)
                exec(source, namespace)

            with monkeypatch.context() as m:
                m.setattr(robust, "exec", capture, raising=False)
                build()
            (source,) = sources
            start, end = source.index("def solve("), source.rindex("\n")
            for found in re.finditer(r"\bk\d+\b|\b\d+\b", source[start:end]):
                at, stop = start + found.start(), start + found.end()
                sites += 1
                for sign in "+-":
                    mutant = (
                        f"{source[:at]}({found.group()} {sign} 1){source[stop:]}"
                    )
                    with monkeypatch.context() as m:
                        m.setattr(robust, "exec",
                                  lambda _, namespace: exec(mutant, namespace),
                                  raising=False)
                        mutated = build()
                    family = _compile_scans(ms, stages, False, mutated)
                    with monkeypatch.context() as m:
                        m.setattr(simulate, "_scans", lambda plan, clamp: family)
                        by_rows = sweep(cfg, taus) != rows
                    by_solve = [mutated(rt) for rt in vectors] != want
                    caught["solve"] += by_solve
                    caught["rows"] += by_rows
                    missed = not (by_solve or by_rows)
                    assert missed == unobservable(
                        source, at, sign, stages, occurrences
                    ), (layout, at, sign)
                    equivalent += missed
        # a bias and a g per stage, save the g's that no direction keeps;
        # a c per one-pair stage, in its test, its fold and a root's
        # partial folding; and per tree its folding divisors below the
        # root and its count
        assert equivalent == 30
        # the solve's results alone catch every other mutant, and the
        # rows most of them
        assert sites == 109 and caught["solve"] == 2 * sites - equivalent
        assert caught["rows"] > sites, caught


class TestComposedOccurrences:
    """A plan's one solve composes every leaf occurrence; a plan of one
    stage has nothing to compose."""

    MS = (135, 180, 162)
    DEPTH3 = ((192, 288, 216, 360, 320, 448), "[[[0,1],[2,3]],[4,5]]")

    @pytest.mark.parametrize(
        "ms, layout",
        [(MS, None), (MS, "[[0,1],[2]]"), (MS, "[[0,2],[1,2]]"), DEPTH3],
    )
    def test_the_run_composes_every_occurrence(self, ms, layout):
        if layout is None:
            stages = _folding_plan(ms, select_reference(ms)).stages
        else:
            stages = _program_for(ms, parse_tree(layout)).stages
        lines, occurrences = _solve_lines(len(ms), stages, _Factory())
        assigned = (re.match(r"([tf]\d+_\d+) = ", line) for line in lines)
        inputs = [
            (s, i) for s, (_, slots) in enumerate(stages)
            for i in range(len(slots))
        ]
        composed = {f"t{s}_{i}" for s, i in inputs} if layout else set()
        assert {m.group(1) for m in assigned if m} == composed | {
            f"f{s}_{i}" for s, i in inputs if i != stages[s][0].k
        }
        tree = parse_tree(layout or list(range(len(ms))))
        assert [j for j, *_ in occurrences] == [
            j for leaf in tree_leaves(tree) for j in leaf.indices
        ]
        # an occurrence under the root stage alone reads its folding
        # number as the root's own local
        root, slots = len(stages) - 1, stages[-1][1]
        direct = {
            j: _fold_name(stages[root][0], root, i)
            for i, j in enumerate(slots) if j < len(ms)
        }
        assert direct == {j: f for j, f, _ in occurrences if j in direct}
        assert bool(direct) == (layout in (None, "[[0,1],[2]]"))


class TestGeneratedRun:
    """Each tree program's run is generated code: it gives what the
    recursive reconstruction and the per-stage loop give, the failure
    triple included."""

    def check(self, program, tree, rt):
        """The run's outcome against both references; its kind."""
        ms, stages = program.moduli, program.stages
        try:
            groups, root, outer, folding, estimate = program.run(rt)
        except FoldingFailure as exc:
            got = (exc.reason, exc.partial_folding, exc.partial_estimate)
            assert loop_run(ms, stages, rt) == got
            assert outcome(recursive_reconstruct, ms, rt, tree) == (
                "failure", *got
            )
            if exc.reason.startswith("negative"):
                partial = "partial" if exc.partial_folding else "no partial"
                return f"negative, {partial}"
            return exc.reason.split()[0]
        want = recursive_reconstruct(ms, rt, tree)
        assert (groups, outer, folding, estimate) == (
            want.per_group_estimates,
            want.outer_folding,
            want.final.folding,
            want.final.estimate,
        )
        loop_root, _, loop_folding, loop_estimate = loop_run(ms, stages, rt)
        assert (root, folding, estimate) == (
            loop_root, loop_folding, loop_estimate
        )
        return "ok"

    def test_random_plans(self):
        rng = random.Random(1420)
        kinds = Counter()
        plans = shared = 0
        while plans < 250:
            size = rng.randint(2, 6)
            ms = random_entangled(rng, size)
            tree = parse_tree(random_plan(rng, size))
            try:
                program = _tree_program(ms, tree)
            except DegenerateTreeError:
                continue
            plans += 1
            shared += sum(len(leaf.indices) for leaf in tree_leaves(tree)) > size
            lam = math.lcm(*ms)
            for _ in range(24):
                # unknowns near 0 as well, where folding numbers go negative
                n = rng.randrange(rng.choice((lam, min(lam, 30))))
                tau = rng.choice((0, 2, 5, 13, 30))
                rt = [n % m + rng.randint(-tau, tau) for m in ms]
                kinds[self.check(program, tree, rt)] += 1
        assert shared > 40, shared
        assert len(kinds) == 5 and min(kinds.values()) >= 10, kinds

    def test_first_conflict_from_left_to_right(self):
        # indices 1, 2 and 3 all disagree; the first occurrence to differ
        # from its index's first, left to right, is the second of index 2
        ms, tree = (252, 360, 960, 1701), parse_tree("[[2,3],[0,1,2],[1,3]]")
        program = _program_for(ms, tree)
        rt = [74, 158, 744, 586]
        assert self.check(program, tree, rt) == "conflicting"
        with pytest.raises(FoldingFailure, match="modulus index 2$"):
            program.run(rt)

    def test_deep_shared_chain(self):
        # the 300-stage chain of test_deep_chain_tree: both indices are
        # shared at every level
        tree = Node((Leaf((0,)), Leaf((1,))))
        for level in range(299):
            tree = Node((Leaf((level % 2,)), tree))
        program = _program_for((3, 5), tree)
        rng = random.Random(1421)
        vectors = [
            [n % 3 + d0, n % 5 + d1]
            for n in range(15)
            for d0, d1 in ((0, 0), (1, -1), (-2, 2))
        ]
        vectors += [[rng.randint(-9, 9) for _ in range(2)] for _ in range(20)]
        kinds = Counter(self.check(program, tree, rt) for rt in vectors)
        assert kinds["ok"] >= 15 and len(kinds) > 1, kinds

    def test_moduli_past_the_digit_limit(self):
        # decoded through reconstruct_tree: the run's constants are
        # factory parameters, never source text
        p = 10**4400 + 1
        rng = random.Random(1422)
        kinds = Counter()
        for ms, layout in (
            ((6 * p, 10 * p, 15 * p), "[[0,1],[2]]"),
            ((12 * p, 18 * p, 8 * p), "[[0,2],[1,2]]"),
        ):
            tree = parse_tree(layout)
            program = _program_for(ms, tree)
            lam = math.lcm(*ms)
            for _ in range(10):
                n = rng.randrange(lam)
                rt = [n % m + rng.randint(-3, 3) for m in ms]
                sol = reconstruct_tree(ms, rt, tree)
                assert sol.final.folding == tuple(n // m for m in ms)
                assert abs(sol.final.estimate - n) <= 3
                kinds[self.check(program, tree, rt)] += 1
                rt = [n % m + rng.randrange(-2 * p, 2 * p) for m in ms]
                kinds[self.check(program, tree, rt)] += 1
        assert kinds["ok"] >= 20 and len(kinds) > 1, kinds


# the drawer's seeds (past both ends of [0, 2**64)) and block starts
DRAW_SEEDS = (0, -7, 2**64 + 3)
DRAW_STARTS = (0, 1024)
GAMMA = 0x9E3779B97F4A7C15


def unmix(z):
    """The input whose splitmix64 output function value is z: each
    xorshift z ^ (z >> s) undone by repeating it, each multiply by the
    multiplier's inverse mod 2**64."""
    for shift, mult in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9)):
        x = z
        for _ in range(3):
            x = z ^ (x >> shift)
        z = x * pow(mult, -1, 2**64) % 2**64
    x = z
    for _ in range(3):
        x = z ^ (x >> 30)
    return x


def drawer_plans(rng):
    """(moduli, plan, reconstruct): a one-leaf plan, single stages over
    2..7 moduli and a depth-3 tree over six."""
    program = _tree_program((7,), parse_tree("[0]"))
    out = [((7,), program, program.run)]
    for size in range(2, 8):
        ms = entangled(rng, size)
        plan = _folding_plan(ms, select_reference(ms))
        out.append((ms, plan, plan.run))
    while True:
        ms = entangled(rng, 6)
        try:
            program = _tree_program(ms, parse_tree("[[[0,1],[2,3]],[4,5]]"))
        except DegenerateTreeError:
            continue
        return out + [(ms, program, program.run)]


class TestDrawer:
    """The generated drawer equals rows built from _splitmix64."""

    def test_rows_built_from_splitmix64(self):
        rng = random.Random(1415)
        sizes = set()
        for ms, _, reconstruct in drawer_plans(rng):
            want = loop_draw(ms)
            draw = simulate._rows(ms)[0]
            for seed in DRAW_SEEDS:
                assert draw(seed, 9, 9, reconstruct) == []
                for start in DRAW_STARTS:
                    args = (seed, start, start + 25, reconstruct)
                    assert draw(*args) == want(*args), (ms, seed, start)
            sizes.add(len(ms))
        assert sizes == set(range(1, 8))

    def test_every_plan_draws_the_same_rows(self, monkeypatch):
        # single stage, depth 2 and a shared index, plain and clamped: each
        # sweep's drawer, called with one reconstruct, gives the same rows
        ms = (135, 180, 162)
        draws = []  # the drawer of each sweep
        rows_of = simulate._rows

        def rows(moduli):
            draw, reduce = rows_of(moduli)
            draws.append(draw)
            return draw, reduce

        monkeypatch.setattr(simulate, "_rows", rows)
        for layout in (None, "[[0,1],[2]]", "[[0,2],[1,2]]"):
            for clamp in FAMILIES:
                cfg = TrialConfig(
                    moduli=ms, tree=layout, trials=30, rng_seed=9,
                    error_model=SYMMETRIC, clamp_remainders=clamp,
                )
                sweep(cfg, [0, 20])
        assert len(draws) == 6

        def first(rs):
            return None, rs[0]

        want = loop_draw(ms)(9, 0, 30, first)
        assert all(draw(9, 0, 30, first) == want for draw in draws)

    def test_altered_constant_is_caught(self, monkeypatch):
        # each splitmix64 constant, shift count, lane width, lane unit and
        # lane mask of the packed drawer (_lanes, _mix, _streams, _words),
        # one site at a time: a constant off by one bit, a shift one
        # place longer, a 16-byte lane made 24 bytes, ones made twos, an
        # "& mask" dropped
        ms = (8, 12, 15)
        plan = _folding_plan(ms, select_reference(ms))
        reconstruct = plan.run
        runs = [
            (seed, start, start + 8, reconstruct)
            for seed in DRAW_SEEDS
            for start in DRAW_STARTS
        ]
        want = [loop_draw(ms)(*args) for args in runs]
        helpers = {
            name: inspect.getsource(getattr(simulate, name))
            for name in ("_lanes", "_mix", "_streams", "_words")
        }
        altered = Counter()
        for name, source in helpers.items():
            # the code after the docstring
            body = source.index('"""', source.index('"""') + 3) + 3
            pattern = r"0x[0-9A-F]+|>> \d+|\b16\b|\(1\)|& mask"
            for found in re.finditer(pattern, source[body:]):
                text = found.group()
                if text.startswith("0x"):
                    new = f"0x{int(text, 16) ^ 1:X}"
                elif text.startswith(">>"):
                    new = f">> {int(text[3:]) + 1}"
                else:
                    new = {"16": "24", "(1)": "(2)", "& mask": ""}[text]
                at, stop = body + found.start(), body + found.end()
                namespace = dict(vars(simulate))
                for other, text_of in helpers.items():
                    if other == name:
                        text_of = text_of[:at] + new + text_of[stop:]
                    exec(text_of, namespace)
                streams = namespace["_streams"]
                monkeypatch.setattr(simulate, "_streams", streams)
                draw = simulate._compile_rows(ms)[0]
                try:
                    got = [draw(*args) for args in runs]
                except OverflowError:  # a lane spilt past the top lane
                    got = None
                assert got != want, (name, at, text, new)
                altered[text] += 1
        # gamma, both multipliers, the 64-bit mask and the three shifts;
        # the lane width, the lane unit and the lane masks: 22 sites
        assert altered == {
            "0x9E3779B97F4A7C15": 3, "0xBF58476D1CE4E5B9": 1,
            "0x94D049BB133111EB": 1, "0xFFFFFFFFFFFFFFFF": 4,
            ">> 30": 1, ">> 27": 1, ">> 31": 1,
            "16": 3, "(1)": 1, "& mask": 6,
        }

    def test_lane_reader_at_the_lane_edges(self):
        # adjacent lanes holding 0 and 2**64 - 1, each with its upper
        # half clear or full: the reader returns the low halves
        top = 2**64 - 1
        lanes = [0, top, top, 0, 0, 0, top, top, 1, top - 1]
        for upper in (0, top):
            packed = sum(
                (upper << 64 | v) << 128 * i for i, v in enumerate(lanes)
            )
            if upper:
                # the top lane's upper half is clear in every packed int
                # the drawer reads
                packed &= (1 << 128 * len(lanes) - 64) - 1
            assert list(simulate._words(packed, len(lanes))) == lanes
            # the slice for each byte order picks the low halves from the
            # 64-bit words as a machine of that order reads the bytes
            for order, low in simulate._LOW_HALVES.items():
                raw = packed.to_bytes(16 * len(lanes), order)
                words = [
                    int.from_bytes(raw[at:at + 8], order)
                    for at in range(0, len(raw), 8)
                ]
                assert words[low] == lanes, order
        assert list(simulate._words(0, 0)) == []

    def test_blocks_at_their_size_edges(self):
        # one lane, a whole block, a block and one trial; seeds near 2**64
        ms = (8, 12, 15)
        reconstruct = _folding_plan(ms, select_reference(ms)).run
        want, draw = loop_draw(ms), simulate._rows(ms)[0]
        for seed in (2**64 - 1, 2**64 - 2, 2**64, -1, 2**65 - 1):
            for start, count in ((0, 1), (2**40, 1), (0, 1024), (7, 1025)):
                args = (seed, start, start + count, reconstruct)
                assert draw(*args) == want(*args), (seed, start, count)

    def test_draws_at_the_range_ends(self):
        # seeds chosen through splitmix64's inverse, so that a key or a
        # draw is 0 or 2**64 - 1, in a block's first, middle or last lane
        ms = (8, 12, 15)
        reconstruct = _folding_plan(ms, select_reference(ms)).run
        want, draw = loop_draw(ms), simulate._rows(ms)[0]
        mix, top = simulate._splitmix64, 2**64 - 1
        start, stop = 5, 12
        hits = 0
        for t in (start, 8, stop - 1):
            for value in (0, top):
                # draw j of trial t is value; draw -1 stands for the key
                for j in range(-1, len(ms) + 1):
                    key = (
                        value if j < 0
                        else (unmix(value) - (j + 1) * GAMMA) % 2**64
                    )
                    seed = (unmix(key) - (t + 1) * GAMMA) % 2**64
                    assert mix(seed, t) == key
                    assert j < 0 or mix(key, j) == value
                    args = (seed, start, stop, reconstruct)
                    rows = draw(*args)
                    assert rows == want(*args), (t, value, j)
                    row = rows[t - start]
                    if j == 0:
                        assert row[-1] == value % math.lcm(*ms)
                    elif j > 0:
                        assert row[j - 1] == value
                    hits += j >= 0
        assert hits == 2 * 3 * (len(ms) + 1)


# plans by kind, each over moduli 0..size-1 (size is one more than the
# largest index)
ERROR_FREE_LAYOUTS = {
    "depth 2": ["[[0,1],[2]]", "[[0,1],[2,3]]", "[[0,1,2],[3,4],[5]]"],
    "depth 3": [
        "[[[0],[1]],[2]]", "[[[0,1],[2]],[3]]", "[[[0,1],[2,3]],[4,5]]",
    ],
    "shared index": [
        "[[0,2],[1,2]]", "[[0,1],[1,2,3]]", "[[[0,1],[1,2]],[2,3]]",
    ],
}


def true_values(rng, ms):
    """Unknowns to solve for: both ends of [0, lcm) and ten between."""
    lam = math.lcm(*ms)
    return [0, lam - 1] + [rng.randrange(lam) for _ in range(10)]


class TestErrorFreeSolve:
    """On its true remainders every plan's estimate is N, so each row's
    anchor offset is 0 and no anchor solve fails."""

    def test_single_stage_plans(self):
        rng = random.Random(1412)
        for _ in range(200):
            ms = entangled(rng, rng.randint(2, 6))
            plan = _folding_plan(ms, select_reference(ms))
            for n in true_values(rng, ms):
                assert _solve_with_plan(plan, [n % m for m in ms])[1] == n

    @pytest.mark.parametrize("kind", sorted(ERROR_FREE_LAYOUTS))
    def test_tree_programs(self, kind):
        rng = random.Random(kind)
        built = 0
        while built < 100:
            layout = rng.choice(ERROR_FREE_LAYOUTS[kind])
            size = 1 + max(map(int, re.findall(r"\d+", layout)))
            ms = entangled(rng, size)
            try:
                program = _tree_program(ms, parse_tree(layout))
            except DegenerateTreeError:
                continue
            built += 1
            occurrences = len(re.findall(r"\d+", layout))
            assert (occurrences > size) == (kind == "shared index")
            for n in true_values(rng, ms):
                assert program.run([n % m for m in ms])[1] == n, (ms, layout)


class TestBuiltOnFirstSweep:
    @staticmethod
    def counted_builds(monkeypatch):
        """The list that records, from here on, "solve" per call of
        multistage._compile_solve and "build" per robust._Factory.build
        (a solve's build included)."""
        builds = []
        compile_solve, build = multistage._compile_solve, _Factory.build

        def counted_compile(*args):
            builds.append("solve")
            return compile_solve(*args)

        def counted_build(self, *args, **free):
            builds.append("build")
            return build(self, *args, **free)

        monkeypatch.setattr(multistage, "_compile_solve", counted_compile)
        monkeypatch.setattr(_Factory, "build", counted_build)
        return builds

    def test_cold_paths_compile_nothing(self, monkeypatch):
        # solve_folding, the exactness campaign and the design chain call
        # the pure solver on plans built cold: no solve, no generated code
        builds = self.counted_builds(monkeypatch)
        # a fresh factor keeps every plan cache cold for these sets
        rng = random.Random(3303)
        f = rng.randrange(10**12, 10**13)
        ms = tuple(f * m for m in (135, 180, 162))
        n = rng.randrange(math.lcm(*ms))
        k = select_reference(ms)
        assert solve_folding(ms, [n % m + 1 for m in ms], k).estimate == n + 1
        q = rng.randrange(100, 400)
        small = (2 * q, 3 * q)
        report = verify_exactness_condition(small, window=1)
        assert report.passed and report.cases == 6 * q * 9
        # the design chain, as the benchmark's design workload runs it
        raw = (*ms, f * 27)  # 27 divides 135: pruned
        assert prune_redundant(raw) == ms
        theta_bound(ms)
        per_remainder_bounds(ms, k)
        proposal = propose_grouping(ms)
        assert proposal.verdict == "success"
        stage_bounds(parse_tree([list(g) for g in proposal.groups]), ms)
        assert crt_general(CongruenceSystem([n % m for m in ms], ms)) == n
        assert solve_folding(ms, [n % m for m in ms], k).estimate == n
        assert builds == []
        # the plans these paths built hold no solve
        for plan in (_folding_plan(ms, k),
                     _folding_plan(small, select_reference(small))):
            with pytest.raises(AttributeError):
                plan._solve

    def test_single_stage_solve_compiled_once_per_plan(self, monkeypatch):
        # a swept single-stage plan compiles its one solve on the first
        # read, and its run, both scan families and later sweeps share it
        builds = self.counted_builds(monkeypatch)
        rng = random.Random(3304)
        f = rng.randrange(10**12, 10**13)
        ms = tuple(f * m for m in (135, 180, 162))
        plan = _folding_plan(ms, select_reference(ms))
        cfg = TrialConfig(moduli=ms, trials=20, error_model=SYMMETRIC)
        sweep(cfg, [0, 9])
        assert builds.count("solve") == 1
        solve = plan.solve
        for clamp in FAMILIES:
            sweep(replace(cfg, clamp_remainders=clamp), [3, 40])
            assert _scans(plan, clamp)[2] is solve
        run_trials(cfg)
        n = rng.randrange(math.lcm(*ms))
        assert plan.run([n % m for m in ms])[1] == n
        assert plan.solve is solve and builds.count("solve") == 1

    def test_each_family_on_first_use(self, monkeypatch):
        calls = []  # (stages of the plan, clamping) per compile

        def counted(moduli, stages, clamp, solve):
            calls.append((len(stages), clamp))
            return _compile_scans(moduli, stages, clamp, solve)

        monkeypatch.setattr(simulate, "_compile_scans", counted)
        # a fresh factor keeps every plan cache cold for these sets
        rng = random.Random(1407)
        f = rng.randrange(10**12, 10**13)
        ms = tuple(f * m for m in (135, 180, 162))
        layout = "[[0,1],[2]]"
        n = rng.randrange(math.lcm(*ms))
        rs = [n % m + 1 for m in ms]
        assert solve_folding(ms, rs, select_reference(ms)).estimate == n + 1
        assert reconstruct_tree(ms, rs, layout).final.estimate == n + 1
        stage_bounds(layout, ms)
        propose_grouping(ms)
        propose_grouping(ms, share_reference=True)
        # check_ns_condition reads the gcd table: no plan, no compile
        other = tuple(f * m for m in (8, 12, 15))
        plans = _folding_plan.cache_info().misses
        assert check_ns_condition([0, 0, 0], other, 1)
        assert not check_ns_condition([0, f * 4, 0], other, 1)
        assert _folding_plan.cache_info().misses == plans
        assert calls == []

        # one scan pair per plan: the single stage, then the tree's two
        single = TrialConfig(moduli=ms, trials=20)
        tree = TrialConfig(moduli=ms, tree=layout, trials=20)
        sweep(single, [0, 1, 2])
        assert calls == [(1, False)]
        sweep(tree, [0, 1, 2])
        assert calls == [(1, False), (2, False)]
        sweep(single, [3])
        run_trials(tree)
        assert len(calls) == 2
        clamped = replace(single, error_model=SYMMETRIC, clamp_remainders=True)
        sweep(clamped, [0, 40])
        assert calls[2:] == [(1, True)]
        k = select_reference(ms)
        assert check_ns_condition([0, 0, 0], ms, k)
        assert not check_ns_condition([0, 0, f * 50], ms, k)
        sweep(clamped, [1])
        sweep(single, [4])
        assert len(calls) == 3

    def test_rows_once_per_moduli_set(self, monkeypatch):
        # rows read only the moduli: one row factory for every plan and
        # clamping over a set, one scan family per (plan, clamping)
        scans, rows = [], []
        compile_rows = simulate._compile_rows

        def counted_scans(moduli, stages, clamp, solve):
            scans.append((len(stages), clamp))
            return _compile_scans(moduli, stages, clamp, solve)

        def counted_rows(moduli):
            rows.append(moduli)
            return compile_rows(moduli)

        monkeypatch.setattr(simulate, "_compile_scans", counted_scans)
        monkeypatch.setattr(simulate, "_compile_rows", counted_rows)
        simulate._rows.cache_clear()
        _scans.cache_clear()
        ms = (135, 180, 162)
        for layout in (None, "[[0,1],[2]]", "[[0,2],[1,2]]"):
            for clamp in FAMILIES:
                cfg = TrialConfig(
                    moduli=ms, tree=layout, trials=20,
                    error_model=SYMMETRIC, clamp_remainders=clamp,
                )
                sweep(cfg, [0, 9])
                sweep(cfg, [3])
        assert rows == [ms]
        # stages per plan: one, two, and three for the shared index
        assert scans == [(1, False), (1, True), (2, False), (2, True),
                         (3, False), (3, True)]

    def test_stage_arithmetic_compiled_once_per_plan(self, monkeypatch):
        # a plan's one solve holds its stage arithmetic, the only
        # generated source with a divmod: a decode and the plan's sweeps,
        # plain and clamped, share it
        sources = []

        def recorded(source, namespace):
            sources.append(source)
            exec(source, namespace)

        def arithmetic():
            return sum("divmod(" in source for source in sources)

        monkeypatch.setattr(robust, "exec", recorded, raising=False)
        # a fresh factor keeps every plan cache cold for these sets
        rng = random.Random(1424)
        f = rng.randrange(10**12, 10**13)
        ms = tuple(f * m for m in (135, 180, 162))
        tree = parse_tree("[[0,1],[2]]")
        n = rng.randrange(math.lcm(*ms))
        sol = reconstruct_tree(ms, [n % m for m in ms], tree)
        assert sol.final.estimate == n
        for layout, compiled in ((tree, 1), (None, 2)):
            for clamp in FAMILIES:
                cfg = TrialConfig(
                    moduli=ms, tree=layout, trials=20, error_model=SYMMETRIC,
                    clamp_remainders=clamp,
                )
                sweep(cfg, [0, 9])
            assert arithmetic() == compiled, layout
        # and none of them raises: a failure is returned
        assert not any(re.search(r"\braise\b", s) for s in sources)


class TestGeneratedCodeLimits:
    def test_gcds_past_the_digit_limit(self, monkeypatch, checked_move):
        p = 10**4400 + 1
        ms = (6 * p, 10 * p, 15 * p)
        if hasattr(sys, "get_int_max_str_digits"):
            with pytest.raises(ValueError):
                str(2 * p)  # no source text can hold such a gcd
        taus = [0, 1, 3, 8]
        cfgs = [
            TrialConfig(moduli=ms, trials=60, rng_seed=3),
            TrialConfig(moduli=ms, tree="[[0,1],[2]]", trials=60, rng_seed=3),
            TrialConfig(
                moduli=ms, trials=60, rng_seed=4, error_model=SYMMETRIC,
                clamp_remainders=True,
            ),
        ]
        plans = [
            _folding_plan(ms, select_reference(ms)),
            _program_for(ms, cfgs[1].tree),
        ]
        # a pair that fails and one that passes, on each plan
        failing, passing = [0, 3 * p, 0], [1, 2, 3]
        rows = [sweep(cfg, taus) for cfg in cfgs]
        rows.append([run_trials(cfg) for cfg in cfgs])
        moves = [
            (checked_move(plan, failing), checked_move(plan, passing))
            for plan in plans
        ]
        assert all(a is None and b is not None for a, b in moves)
        # the plans' solves, and that of a plan sharing index 2, with
        # errors up to the gcds' size as well, so that solves fail
        rng = random.Random(1418)
        kinds = set()
        shared = parse_tree("[[0,2],[1,2]]")
        for plan in plans + [_program_for((12 * p, 18 * p, 8 * p), shared)]:
            vectors = solve_vectors(rng, plan.moduli, plan.stages, 10)
            vectors += [
                [n % m + rng.randrange(-2 * p, 2 * p) for m in plan.moduli]
                for n in (0, math.lcm(*plan.moduli) - 1) for _ in range(10)
            ]
            wrong, seen = solve_mismatches(plan, vectors)
            assert wrong == []
            kinds |= set(seen)
        assert {"ok", "contradiction"} <= kinds, kinds

        monkeypatch.setattr(simulate, "_compile_scans", loop_kernels)
        monkeypatch.setattr(simulate, "_compile_rows", loop_rows)
        _scans.cache_clear()
        simulate._rows.cache_clear()
        try:
            assert rows[:3] == [sweep(cfg, taus) for cfg in cfgs]
            assert rows[3] == [run_trials(cfg) for cfg in cfgs]
            assert moves == [
                (checked_move(plan, failing), checked_move(plan, passing))
                for plan in plans
            ]
        finally:
            # drop the loops' families and rows
            _scans.cache_clear()
            simulate._rows.cache_clear()

    def test_stage_of_3000_inputs(self, monkeypatch):
        # a left-nested sum of 3,000 terms exhausts the compiler on 3.10-3.12
        size, k = 3000, 1234
        rng = random.Random(1405)
        moduli = tuple(range(2, size + 2))
        # the plan's own constants, built from row k of the gcd table
        # alone: the whole table would hold nine million gcds
        row = [math.gcd(m, moduli[k]) for m in moduli]
        with monkeypatch.context() as m:
            m.setattr(robust, "_profile",
                      lambda ms: SimpleNamespace(table={k: row}))
            plan = robust._FoldingPlan(moduli, k)
        stages = plan.stages
        kernels = every_family(_compile_scans, moduli, stages, solve_of(plan))
        vectors = [[0] * size, [rng.randint(0, 2) for _ in range(size)]]
        for i, g in plan.pairs[::100]:  # both edges of every 100th pair
            lo, hi = -(g // 2), (g + 1) // 2 - 1
            for d in (lo - 1, lo, hi, hi + 1):
                vectors.append([d if j == i else 0 for j in range(size)])
        assert mismatches(kernels, moduli, stages, vectors) == set()
        # no error: every trial passes and scores its anchor offset
        rows, span, off = block_of(moduli, vectors[:1], rng)
        checked_scan, calls = watch(kernels[0])
        assert scored(checked_scan, rows, span, off, 0)[0] == abs(rows[0][-2])
        assert calls == []
        # the rows of 3,000 moduli: 3,001 draws and 6,002 cells a row

        def first(rs):
            return None, rs[0]

        args = (-7, 1024, 1026, first)
        draw, reduce = simulate._compile_rows(moduli)
        drawn = draw(*args)
        assert drawn == loop_draw(moduli)(*args)
        assert reduce(drawn, 97) == loop_rows(moduli)[1](drawn, 97)

    def test_deep_chain_tree(self):
        # [0, [1, [0, ...]]] over (3, 5): 300 stages, one per level
        tree = Node((Leaf((0,)), Leaf((1,))))
        for level in range(299):
            tree = Node((Leaf((level % 2,)), tree))
        program = _program_for((3, 5), tree)
        stages = program.stages
        assert len(stages) == 300
        rng = random.Random(1406)
        vectors = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(200)]
        assert mismatches(
            kernels_of(program), (3, 5), stages, vectors
        ) == set()
        # its solve, both indices shared at every level
        remainders = [[n % 3 + d0, n % 5 + d1]
                      for n, (d0, d1) in zip(range(15), vectors[:30])]
        wrong, kinds = solve_mismatches(program, remainders)
        assert wrong == [] and len(kinds) > 1, kinds
