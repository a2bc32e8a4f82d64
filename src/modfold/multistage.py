"""Multi-stage reconstruction over grouping plans.

A grouping plan is a tree whose leaves hold modulus indices.  Each leaf is
solved with the single-stage algorithm; every internal node then treats its
children's (estimate, lcm) pairs as a fresh remainder system and solves it
the same way, composing the folding numbers downwards:

    n = K_leaf + sum over ancestors of (ancestor multiplier * lcm / M)

Trees are written as nested index lists, e.g. [[0, 1], [2, 3]] for two
groups of two, or [[[0, 1], [2, 3]], [4, 5]] for a three-stage plan.  Leaves
may share indices (a modulus can back more than one group); children of a
node must have pairwise-distinct lcms.  Every walk over a tree goes through
one iterative post-order walker, so a plan's depth is bounded by memory,
not by the interpreter's recursion limit.

One tree run serves the simulation and reconstruct_tree alike: it solves
each stage once, bottom-up, and keeps one (folding, estimate) per stage.
The per-index folding numbers are composed from those results in a
separate pass, which the run itself makes only when the plan repeats an
index (its occurrences must agree), so both paths fail on the same inputs;
reconstruct_tree reuses that pass instead of making it again.

The module also computes the stage-bound calculus: a per-group bound for
each leaf, a cross bound for each internal node over its children's lcms,
and the effective per-leaf bound (the minimum along the path to the root).
Remainder errors strictly below the effective bounds guarantee exact
recovery of every folding number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .intmath import (
    _check_exact,
    _check_int,
    _check_ints,
    round_half_up,
    round_half_up_div,
)
from .robust import (
    FoldingFailure,
    FoldingSolution,
    _folding_plan,
    _maxmin_gcd,
    _solve_with_plan,
    validate_moduli,
)

__all__ = [
    "Leaf",
    "Node",
    "GroupTree",
    "DegenerateTreeError",
    "parse_tree",
    "tree_to_nested",
    "tree_leaves",
    "validate_tree",
    "StageBounds",
    "StageSolution",
    "GroupReferenceBounds",
    "stage_bounds",
    "fused_error_bound",
    "reconstruct_tree",
    "reconstruct_two_stage",
    "per_group_reference_bounds",
]


class DegenerateTreeError(ValueError):
    """Two siblings share the same lcm, so their congruences collapse."""


@dataclass(frozen=True)
class Leaf:
    """A group: indices into the moduli set (at least one, no repeats)."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class Node:
    """An inner stage joining at least two subtrees."""

    children: tuple["GroupTree", ...]


GroupTree = Leaf | Node


def parse_tree(layout: GroupTree | str | Sequence) -> GroupTree:
    """Build a GroupTree from a JSON string or nested lists of indices.

    A GroupTree is returned unchanged, so every function that takes a plan
    passes it through here.  Raises ValueError for malformed layouts,
    including ones nested too deeply for the parser.
    """
    if isinstance(layout, (Leaf, Node)):
        return layout
    try:
        data = json.loads(layout) if isinstance(layout, str) else layout
        return _parse_node(data)
    except RecursionError:
        raise ValueError("grouping is nested too deeply") from None


def _parse_node(data) -> GroupTree:
    if not isinstance(data, (list, tuple)) or len(data) == 0:
        raise ValueError(f"tree nodes must be nonempty lists, got {data!r}")
    if all(isinstance(x, int) and not isinstance(x, bool) for x in data):
        return Leaf(indices=tuple(data))
    if all(isinstance(x, (list, tuple)) for x in data):
        return Node(children=tuple(_parse_node(x) for x in data))
    raise ValueError(f"tree node mixes indices and sublists: {data!r}")


def tree_to_nested(tree: GroupTree) -> list:
    """Inverse of parse_tree (up to list/tuple type)."""
    done: list[list] = []  # nested lists of the subtrees not yet joined
    for t, _ in _post_order(tree):
        if isinstance(t, Leaf):
            done.append(list(t.indices))
        else:
            cut = len(done) - len(t.children)
            done[cut:] = [done[cut:]]
    return done[0]


def _post_order(
    tree: GroupTree,
) -> Iterator[tuple[GroupTree, tuple[int, ...]]]:
    """Every subtree with its child-index path from the root (root = ()).

    Children come before their parent and siblings left to right, so the
    leaves appear in left-to-right order and the root comes last.
    """
    stack: list[tuple[GroupTree, tuple[int, ...], bool]] = [(tree, (), False)]
    while stack:
        t, path, expanded = stack.pop()
        if expanded or isinstance(t, Leaf):
            yield t, path
            continue
        stack.append((t, path, True))
        for ci in range(len(t.children) - 1, -1, -1):
            stack.append((t.children[ci], path + (ci,), False))


def tree_leaves(tree: GroupTree | str | Sequence) -> list[Leaf]:
    """All leaves in left-to-right order."""
    walk = _post_order(parse_tree(tree))
    return [t for t, _ in walk if isinstance(t, Leaf)]


def validate_tree(tree: GroupTree | str | Sequence, n_moduli: int) -> None:
    """Structural checks: index range, full coverage, node arity."""
    seen: set[int] = set()
    for t, _ in _post_order(parse_tree(tree)):
        if isinstance(t, Node):
            if len(t.children) < 2:
                raise ValueError("inner node needs at least two children")
            continue
        if len(t.indices) == 0:
            raise ValueError("leaf with no indices")
        if len(set(t.indices)) != len(t.indices):
            raise ValueError(f"leaf repeats an index: {t.indices}")
        for i in t.indices:
            if not 0 <= i < n_moduli:
                raise ValueError(f"leaf index {i} out of range")
        seen.update(t.indices)
    missing = set(range(n_moduli)) - seen
    if missing:
        raise ValueError(f"moduli indices {sorted(missing)} appear in no leaf")


def _layout(
    tree: GroupTree, moduli: tuple[int, ...]
) -> list[tuple[GroupTree, tuple[int, ...], tuple[int, ...]]]:
    """The tree in post-order as (subtree, path, parts).

    parts are the values a stage solves over: a leaf's moduli, or a node's
    child lcms.  The tree must already be valid (validate_tree).  Raises
    DegenerateTreeError when siblings share an lcm.
    """
    lams: list[int] = []  # lcms of the subtrees not yet joined
    out = []
    for t, path in _post_order(tree):
        if isinstance(t, Leaf):
            parts = tuple(moduli[i] for i in t.indices)
        else:
            parts = tuple(lams[-len(t.children):])
            del lams[-len(t.children):]
            if len(set(parts)) != len(parts):
                raise DegenerateTreeError(
                    f"children of node {path} share an lcm: {list(parts)}"
                )
        lams.append(math.lcm(*parts))
        out.append((t, path, parts))
    return out


@dataclass(frozen=True)
class StageBounds:
    """The bound calculus of a grouping plan.

    per_group: one bound per leaf (left-to-right); singleton groups get
        modulus/4.
    node_cross: (path, bound) per inner node, path being the child-index
        route from the root (root = ()).
    cross: the root node's cross bound (None for a single-leaf tree).
    per_leaf_effective: min of the leaf's own bound and every ancestor
        cross bound.
    """

    per_group: tuple[Fraction, ...]
    node_cross: tuple[tuple[tuple[int, ...], Fraction], ...]
    cross: Fraction | None
    per_leaf_effective: tuple[Fraction, ...]


@dataclass(frozen=True)
class StageSolution:
    """All intermediate values of a multi-stage reconstruction.

    per_group_estimates: leaf estimates left-to-right, then inner (non-root)
        node estimates in completion (bottom-up) order.
    outer_folding: the root's solved child multipliers first, then the
        remaining inner nodes' in completion order, flattened.
    final: folding numbers aligned with the full moduli set and the fused
        estimate averaged over every leaf occurrence.
    """

    per_group_estimates: tuple[int, ...]
    outer_folding: tuple[int, ...]
    final: FoldingSolution


@dataclass(frozen=True)
class GroupReferenceBounds:
    """Per-group error bounds when one group's lcm acts as the reference."""

    reference: int
    group_bounds: tuple[Fraction, ...]
    cross: Fraction
    per_group_tau: tuple[Fraction, ...]  # all strict


def _bound_gcds(layout) -> tuple[list[int], list[int]]:
    """The bound calculus in integers: every bound is a gcd over 4.

    Returns the max-min gcd of each step's parts (in layout order) and the
    effective gcd of each leaf, left to right.
    """
    gcds = [_maxmin_gcd(parts)[0] for _, _, parts in layout]
    # parents before children: each node's limit is the least cross gcd
    # on its path, and a leaf's effective gcd is its own gcd under it
    limit: dict[tuple[int, ...], int] = {}
    effective: list[int] = []
    for (t, path, _), g in zip(reversed(layout), reversed(gcds)):
        if path:
            g = min(g, limit[path[:-1]])
        if isinstance(t, Leaf):
            effective.append(g)
        else:
            limit[path] = g
    effective.reverse()
    return gcds, effective


def _stage_bounds(
    layout, gcds: list[int], effective: list[int]
) -> StageBounds:
    """The StageBounds of a layout from its _bound_gcds."""
    node_cross = tuple(
        (path, Fraction(g, 4))
        for (t, path, _), g in zip(layout, gcds)
        if isinstance(t, Node)
    )
    return StageBounds(
        per_group=tuple(
            Fraction(g, 4)
            for (t, _, _), g in zip(layout, gcds)
            if isinstance(t, Leaf)
        ),
        node_cross=node_cross,
        cross=node_cross[-1][1] if node_cross else None,
        per_leaf_effective=tuple(Fraction(g, 4) for g in effective),
    )


def stage_bounds(
    tree: GroupTree | str | Sequence, moduli: Sequence[int]
) -> StageBounds:
    """Group, cross and effective bounds of a plan over the given moduli."""
    ms = validate_moduli(moduli)
    tree = parse_tree(tree)
    validate_tree(tree, len(ms))
    layout = _layout(tree, ms)
    return _stage_bounds(layout, *_bound_gcds(layout))


def fused_error_bound(
    taus: Sequence[Fraction | int], group_sizes: Sequence[int]
) -> int:
    """Error bound of the fused estimate: the rounded size-weighted mean.

    Taus must be ints or Fractions and group sizes positive ints.
    """
    if len(taus) != len(group_sizes):
        raise ValueError("taus and group_sizes lengths differ")
    if not taus:
        raise ValueError("empty bound list")
    for t in taus:
        _check_exact("tau", t)
    for size in group_sizes:
        _check_int("group size", size, 1)
    total = sum(Fraction(t) * s for t, s in zip(taus, group_sizes))
    return round_half_up(total / sum(group_sizes))


class _TreeProgram:
    """Prevalidated reconstruction plan for a fixed (moduli, tree) pair.

    steps holds the tree in post-order as (plan, gather, children).  A
    leaf step (children 0) solves its group's remainders, fetched by
    gather (an operator.itemgetter over the leaf's indices), or passes a
    single remainder through when plan is None (gather is then the
    index).  A node step solves its children's estimates over their lcms,
    fetched by gather (an itemgetter over the children's step numbers).
    run solves every step once and keeps one (folding, estimate) per step.

    occurrences holds, per leaf occurrence of a modulus index (left to
    right), (index, leaf step, slot, terms) with one (ancestor step, child
    slot, lcm_child // M) term per ancestor, so foldings composes the
    per-index folding numbers from the step results in one pass.  run
    needs that pass only when the plan repeats an index.

    Building a program checks the moduli (positive, distinct, nonempty)
    and the tree, so a cached program's inputs are not checked again.
    """

    def __init__(self, moduli: tuple[int, ...], tree: GroupTree):
        validate_moduli(moduli)
        validate_tree(tree, len(moduli))
        self.moduli = moduli
        steps = []
        occs: list[list] = []  # occurrences per pending subtree
        pending: list[int] = []  # step numbers of the subtrees not yet joined
        for t, _, parts in _layout(tree, moduli):
            plan = (
                _folding_plan(parts, _maxmin_gcd(parts)[1])
                if len(parts) > 1
                else None
            )
            s = len(steps)
            if isinstance(t, Leaf):
                idxs = t.indices
                steps.append((plan, itemgetter(*idxs) if plan else idxs[0], 0))
                occs.append([(i, s, j, []) for j, i in enumerate(idxs)])
                pending.append(s)
                continue
            steps.append((plan, itemgetter(*pending[-len(parts):]), len(parts)))
            del pending[-len(parts):]
            pending.append(s)
            children = occs[-len(parts):]
            del occs[-len(parts):]
            for ci, (lam, occ) in enumerate(zip(parts, children)):
                for i, _, _, terms in occ:
                    terms.append((s, ci, lam // moduli[i]))
            occs.append([o for occ in children for o in occ])
        self.steps = tuple(steps)
        self.occurrences = tuple(
            (i, s, j, tuple(terms)) for i, s, j, terms in occs[0]
        )
        self.shared = len(self.occurrences) > len(moduli)
        leaf_steps = [s for s, st in enumerate(steps) if not st[2]]
        node_steps = [s for s, st in enumerate(steps) if st[2]]
        # the root closes the post-order: its estimate is the final one,
        # not a group record, and its multipliers lead
        self.group_steps = tuple(leaf_steps + node_steps)[:-1]
        self.outer_steps = tuple(node_steps[-1:] + node_steps[:-1])
        # a single-leaf plan is the single-stage solver, reference included
        self.reference_index = (
            tree.indices[steps[-1][0].k]
            if isinstance(tree, Leaf) and steps[-1][0] is not None
            else None
        )

    def run(self, remainders: Sequence[int]):
        """Solve every stage once, bottom-up.

        Returns (one (folding, estimate) per step, the root's estimate,
        the foldings pass's result or None).  The run makes that pass, as
        the shared occurrences' agreement check, only when the plan
        repeats an index.  FoldingFailure propagates; one raised below the
        root carries no partial folding or estimate, since those are not
        values of N.
        """
        results: list[tuple[tuple[int, ...], int]] = []
        ests: list[int] = []  # one estimate per step, as in results
        try:
            for plan, gather, c in self.steps:
                if c:
                    res = _solve_with_plan(plan, gather(ests))
                elif plan is None:
                    res = (0,), remainders[gather]
                else:
                    res = _solve_with_plan(plan, gather(remainders))
                results.append(res)
                ests.append(res[1])
        except FoldingFailure as exc:
            if len(results) + 1 < len(self.steps):
                raise FoldingFailure(exc.reason) from exc
            raise
        composed = self.foldings(results, remainders) if self.shared else None
        return results, ests[-1], composed

    def foldings(self, results, remainders: Sequence[int]):
        """Per-index folding numbers and the occurrence estimate.

        The estimate is the rounded mean of f * M_i + r_i over every leaf
        occurrence.  Raises FoldingFailure when the occurrences of a shared
        index disagree.
        """
        moduli = self.moduli
        by_idx: dict[int, int] = {}
        total = 0
        for i, s, j, terms in self.occurrences:
            f = results[s][0][j]
            for a, ci, fac in terms:
                f += results[a][0][ci] * fac
            if by_idx.setdefault(i, f) != f:
                raise FoldingFailure(
                    f"conflicting folding numbers for modulus index {i}"
                )
            total += f * moduli[i] + remainders[i]
        folding = tuple(by_idx[i] for i in range(len(moduli)))
        return folding, round_half_up_div(total, len(self.occurrences))


@lru_cache(maxsize=128)
def _tree_program(moduli: tuple[int, ...], tree: GroupTree) -> _TreeProgram:
    return _TreeProgram(moduli, tree)


def _program_for(moduli: tuple[int, ...], tree: GroupTree) -> _TreeProgram:
    """The cached program; ValueError when the tree is too deep to hash.

    The cache key hashes and compares the frozen tree recursively, which
    exhausts the interpreter's recursion limit on very deep plans.
    """
    try:
        return _tree_program(moduli, tree)
    except RecursionError:
        raise ValueError("grouping plan is nested too deeply") from None


def reconstruct_tree(
    moduli: Sequence[int],
    remainders: Sequence[int],
    tree: GroupTree | str | Sequence,
) -> StageSolution:
    """Run the full multi-stage reconstruction over a grouping plan.

    A single-leaf tree reproduces the single-stage solver exactly.  The
    final estimate is the rounded mean of f * M_i + r_i over every leaf
    occurrence.  FoldingFailure propagates from any stage, and from
    disagreeing occurrences of a shared index; only a root-stage failure
    carries a partial folding and estimate.
    """
    # exact ints first: (135.0, 180, 162) would hit the int tuple's
    # program; the program checks the rest of the moduli once, when built
    ms = tuple(_check_ints("modulus", moduli))
    tree = parse_tree(tree)
    if len(remainders) != len(ms):
        raise ValueError("remainders and moduli lengths differ")
    rt = _check_ints("remainder", remainders)
    program = _program_for(ms, tree)
    results, _, composed = program.run(rt)
    folding, estimate = composed or program.foldings(results, rt)
    return StageSolution(
        per_group_estimates=tuple(results[s][1] for s in program.group_steps),
        outer_folding=tuple(
            x for s in program.outer_steps for x in results[s][0]
        ),
        final=FoldingSolution(
            folding=folding,
            estimate=estimate,
            reference_index=program.reference_index,
        ),
    )


def _two_stage(tree: GroupTree | str | Sequence) -> Node:
    """The parsed plan; ValueError unless it is one node of leaf groups."""
    tree = parse_tree(tree)
    if not (
        isinstance(tree, Node)
        and all(isinstance(c, Leaf) for c in tree.children)
    ):
        raise ValueError("plan must be depth 2: one node of leaf groups")
    return tree


def reconstruct_two_stage(
    moduli: Sequence[int],
    remainders: Sequence[int],
    tree: GroupTree | str | Sequence,
) -> StageSolution:
    """Depth-2 reconstruction: groups solved first, then fused across."""
    return reconstruct_tree(moduli, remainders, _two_stage(tree))


def per_group_reference_bounds(
    tree: GroupTree | str | Sequence, moduli: Sequence[int]
) -> GroupReferenceBounds:
    """Per-group bounds of a depth-2 plan with a reference group.

    The reference group k is the one whose lcm attains the cross bound; its
    remainders must stay strictly below min(G_k, G).  Every other group j
    tolerates errors strictly below
    min(G_j, gcd(lcm_j, lcm_k)/2 - min(G_k, G)).
    """
    ms = validate_moduli(moduli)
    tree = _two_stage(tree)
    validate_tree(tree, len(ms))
    *leaves, (_, _, lams) = _layout(tree, ms)
    g_bounds = [Fraction(_maxmin_gcd(parts)[0], 4) for _, _, parts in leaves]
    cross_gcd, k = _maxmin_gcd(lams)
    cross = Fraction(cross_gcd, 4)
    ref_term = min(g_bounds[k], cross)
    taus: list[Fraction] = []
    for j in range(len(lams)):
        if j == k:
            taus.append(ref_term)
        else:
            taus.append(
                min(
                    g_bounds[j],
                    Fraction(math.gcd(lams[j], lams[k]), 2) - ref_term,
                )
            )
    return GroupReferenceBounds(
        reference=k,
        group_bounds=tuple(g_bounds),
        cross=cross,
        per_group_tau=tuple(taus),
    )
