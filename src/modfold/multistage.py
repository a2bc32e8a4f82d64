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

One tree run (_TreeProgram) serves the simulation and reconstruct_tree
alike, so both fail on the same inputs.  The module also computes the
stage-bound calculus of a plan (StageBounds), every stage's gcd coming
from _layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterator, Sequence

from .intmath import (
    _check_exact,
    _check_index,
    _check_int,
    _check_ints,
    _round_half_up_div,
    round_half_up,
)
from .robust import (
    FoldingFailure,
    FoldingSolution,
    _folding_plan,
    _maxmin_gcd,
    _profile,
    _profile_of,
    _quarter,
    _solve_with_plan,
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


class _CachedHash:
    """The dataclass's hash of a tree's one field, kept in _hash once made.

    _hash is no field, so eq and repr ignore it, and a pickle rebuilds the
    tree from its field without it.  It is made on the first hash, so a
    plan too deep to hash fails there, not when it is built.
    """

    _hash = None

    def __hash__(self):
        if self._hash is None:
            vars(self)["_hash"] = hash((vars(self)[self._field],))
        return self._hash

    def __reduce__(self):
        return type(self), (vars(self)[self._field],)


@dataclass(frozen=True)
class Leaf(_CachedHash):
    """A group: indices into the moduli set (at least one, no repeats)."""

    indices: tuple[int, ...]
    _field = "indices"

    def __post_init__(self):
        # 1.0 and True equal 1, so a cached program would take them for it
        if not isinstance(self.indices, tuple):
            raise ValueError("leaf indices must be a tuple")
        _check_ints("leaf index", self.indices)

    __hash__ = _CachedHash.__hash__  # or the dataclass would set its own


@dataclass(frozen=True)
class Node(_CachedHash):
    """An inner stage joining at least two subtrees."""

    children: tuple["GroupTree", ...]
    _field = "children"

    def __post_init__(self):
        if not isinstance(self.children, tuple) or not all(
            isinstance(c, (Leaf, Node)) for c in self.children
        ):
            raise ValueError("node children must be a tuple of Leaf and Node")

    __hash__ = _CachedHash.__hash__


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
        # a type, not a value, which may be too long to print
        got = "[]" if isinstance(data, (list, tuple)) else type(data).__name__
        raise ValueError(f"tree nodes must be nonempty lists, got {got}")
    if isinstance(data[0], (list, tuple)):
        return Node(children=tuple(_parse_node(x) for x in data))
    return Leaf(indices=tuple(data))


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
    _check_int("n_moduli", n_moduli, 0)
    seen: set[int] = set()
    for t, _ in _post_order(parse_tree(tree)):
        if isinstance(t, Node):
            if len(t.children) < 2:
                raise ValueError("inner node needs at least two children")
            continue
        if len(t.indices) == 0:
            raise ValueError("leaf with no indices")
        if len(set(t.indices)) != len(t.indices):
            raise ValueError("a leaf repeats an index")
        for i in t.indices:
            _check_index("leaf index", i, n_moduli)
        seen.update(t.indices)
    # every index seen is in range, so the leaves cover them all exactly
    # when they hold n_moduli distinct ones; the message prints only
    # numbers bounded by the plan's size, as n_moduli may be too long
    if len(seen) != n_moduli:
        first = next(i for i in range(n_moduli) if i not in seen)
        raise ValueError(
            f"the leaves cover {len(seen)} moduli indices; index {first} "
            "is the first in no leaf"
        )


def _layout(
    tree: GroupTree, moduli: tuple[int, ...]
) -> list[tuple[GroupTree, tuple[int, ...], tuple[int, ...], int, int]]:
    """The tree in post-order as (subtree, path, parts, reference, gcd).

    It is the one place that computes a plan's stage gcds: every bound of
    the calculus is a stage's gcd over 4.  parts are the values a stage
    solves over: a leaf's moduli, or a node's child lcms.  gcd is the
    stage's bound gcd, the max-min gcd of its parts, and reference the
    first position in parts attaining it, both from _maxmin_gcd(parts).
    The tree must already be valid (validate_tree) over the moduli.
    Raises DegenerateTreeError when siblings share an lcm.
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
                # positions, not lcms, which may be too long to print
                i, j = next(
                    (i, j)
                    for j, lam in enumerate(parts)
                    for i in range(j)
                    if parts[i] == lam
                )
                raise DegenerateTreeError(
                    f"children {i} and {j} of node {path} share an lcm"
                )
        g, ref = _maxmin_gcd(parts)
        lams.append(math.lcm(*parts))
        out.append((t, path, parts, ref, g))
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

    Remainder errors strictly below the effective bounds guarantee exact
    recovery of every folding number.
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

    def __init__(self, per_group_estimates, outer_folding, final):
        # frozen: set the fields past the dataclass's __setattr__
        vars(self).update(
            per_group_estimates=per_group_estimates,
            outer_folding=outer_folding,
            final=final,
        )


@dataclass(frozen=True)
class GroupReferenceBounds:
    """Per-group error bounds when one group's lcm acts as the reference."""

    reference: int
    group_bounds: tuple[Fraction, ...]
    cross: Fraction
    per_group_tau: tuple[Fraction, ...]  # all strict


def _effective_gcds(shape, gcds: Sequence[int]) -> list[int]:
    """Each leaf's effective gcd, left to right.

    shape holds each step of a layout as (is a leaf, depth) and gcds its
    max-min gcd, in layout order.  A leaf's effective gcd is its own gcd
    capped by the least cross gcd on its path.
    """
    # backwards, the post-order visits each node before its subtree, so a
    # step's parent is the last node seen one level up; limit[d] is the
    # least cross gcd on the path to that node at depth d
    limit: list[int] = []
    effective: list[int] = []
    for (leaf, depth), g in zip(reversed(shape), reversed(gcds)):
        if depth:
            g = min(g, limit[depth - 1])
        if leaf:
            effective.append(g)
        else:
            del limit[depth:]
            limit.append(g)
    effective.reverse()
    return effective


def _stage_bounds(layout) -> StageBounds:
    """The StageBounds of a layout: each stage's gcd over 4."""
    shape = [(isinstance(t, Leaf), len(path)) for t, path, *_ in layout]
    effective = _effective_gcds(shape, [g for *_, g in layout])
    node_cross = tuple(
        (path, _quarter(g)) for t, path, *_, g in layout if isinstance(t, Node)
    )
    return StageBounds(
        per_group=tuple(
            _quarter(g) for t, *_, g in layout if isinstance(t, Leaf)
        ),
        node_cross=node_cross,
        cross=node_cross[-1][1] if node_cross else None,
        per_leaf_effective=tuple(map(_quarter, effective)),
    )


def stage_bounds(
    tree: GroupTree | str | Sequence, moduli: Sequence[int]
) -> StageBounds:
    """Group, cross and effective bounds of a plan over the given moduli.

    Each call checks the moduli, through their cached profile, and the
    plan; it builds no solver plan.
    """
    ms = _profile_of(moduli).moduli
    tree = parse_tree(tree)
    validate_tree(tree, len(ms))
    return _stage_bounds(_layout(tree, ms))


def fused_error_bound(
    taus: Sequence[Fraction | int], group_sizes: Sequence[int]
) -> int:
    """Error bound of the fused estimate: the rounded size-weighted mean.

    Taus must be nonnegative ints or Fractions and group sizes positive
    ints.
    """
    taus, group_sizes = tuple(taus), tuple(group_sizes)
    if len(taus) != len(group_sizes):
        raise ValueError("taus and group_sizes lengths differ")
    if not taus:
        raise ValueError("empty bound list")
    for t in taus:
        _check_exact("tau", t, 0)
    for size in group_sizes:
        _check_int("group size", size, 1)
    total = sum(Fraction(t) * s for t, s in zip(taus, group_sizes))
    return round_half_up(total / sum(group_sizes))


class _TreeProgram:
    """Prevalidated reconstruction plan for a fixed (moduli, tree) pair.

    A run keeps one value table: slots 0..L-1 hold the remainders and slot
    L + s the estimate of step s.  steps holds the stages of two or more
    inputs in post-order as (plan, gather, slots), slots being the input
    slots (a leaf's indices or its children's slots) and gather an
    operator.itemgetter over them.  A one-index leaf is no step, only its
    remainder's slot, so the root's estimate is always the table's last
    value.

    occurrences holds, per leaf occurrence of a modulus index (left to
    right), (index, terms) with one (step, input position, lcm of that
    input / M) term per step from the leaf up to the root (factor 1 at
    the leaf's own step), so foldings sums each occurrence's terms in one
    pass.

    _stages gives the steps as (plan, slots): what a sweep's scans check
    and move, stage by stage (see the simulate module).

    Each step's reference is its stage's layout reference, the index
    select_reference would pick.

    Building a program checks the moduli (positive, distinct, nonempty,
    through their profile) and the tree, so a cached program's inputs are
    not checked again.
    """

    def __init__(self, moduli: tuple[int, ...], tree: GroupTree):
        _profile(moduli)  # checks the moduli
        validate_tree(tree, len(moduli))
        self.moduli = moduli
        size = len(moduli)
        steps = []
        slots: list[int] = []  # table slots of the subtrees not yet joined
        occs: list[list] = []  # their leaf occurrences, as (index, terms)
        leaf_slots, node_slots = [], []  # each subtree's slot, by kind
        for t, _, parts, ref, _ in _layout(tree, moduli):
            is_leaf = isinstance(t, Leaf)
            if is_leaf:
                # a leaf joins its indices' slots as a node joins its
                # children's; each factor is then M_i // M_i = 1
                slots += t.indices
                occs += [[(i, [])] for i in t.indices]
            c = len(parts)
            if c > 1:
                s = len(steps)
                plan = _folding_plan(parts, ref)
                ins = tuple(slots[-c:])
                steps.append((plan, itemgetter(*ins), ins))
                children = occs[-c:]
                del slots[-c:], occs[-c:]
                for ci, (lam, occ) in enumerate(zip(parts, children)):
                    for i, terms in occ:
                        terms.append((s, ci, lam // moduli[i]))
                slots.append(size + s)
                occs.append([o for occ in children for o in occ])
            (leaf_slots if is_leaf else node_slots).append(slots[-1])
        self.steps = tuple(steps)
        self.occurrences = tuple((i, tuple(terms)) for i, terms in occs[0])
        self.shared = len(self.occurrences) > size
        # the root closes the post-order: its estimate is the final one,
        # not a group record, and its multipliers lead
        self.group_slots = tuple(leaf_slots + node_slots)[:-1]
        self.outer_steps = tuple(
            s - size for s in node_slots[-1:] + node_slots[:-1]
        )
        # a single-leaf plan is the single-stage solver, reference included
        self.reference_index = (
            tree.indices[steps[0][0].k]
            if isinstance(tree, Leaf) and steps
            else None
        )

    def run(self, remainders: Sequence[int]):
        """Solve every step once, bottom-up.

        Returns ((the value table, one folding per step), the root's
        estimate, the foldings pass's result or None).  The run makes that
        pass, as the shared occurrences' agreement check, only when the
        plan repeats an index.  FoldingFailure propagates; one raised
        below the root carries no partial folding or estimate, since those
        are not values of N.
        """
        table = list(remainders)
        folds: list[tuple[int, ...]] = []
        try:
            for plan, gather, _ in self.steps:
                folding, est = _solve_with_plan(plan, gather(table))
                folds.append(folding)
                table.append(est)
        except FoldingFailure as exc:
            if len(folds) + 1 < len(self.steps):
                raise FoldingFailure(exc.reason) from exc
            raise
        composed = self.foldings(folds, table) if self.shared else None
        return (table, folds), table[-1], composed

    def _stages(self):
        return [(plan, slots) for plan, _, slots in self.steps]

    def foldings(self, folds, table: Sequence[int]):
        """Per-index folding numbers and the occurrence estimate.

        folds and table are run's.  The estimate is the rounded mean of
        f * M_i + r_i over every leaf occurrence.  Raises FoldingFailure
        when the occurrences of a shared index disagree.
        """
        moduli = self.moduli
        by_idx: dict[int, int] = {}
        total = 0
        for i, terms in self.occurrences:
            f = 0
            for s, j, fac in terms:
                f += folds[s][j] * fac
            if by_idx.setdefault(i, f) != f:
                raise FoldingFailure(
                    f"conflicting folding numbers for modulus index {i}"
                )
            total += f * moduli[i] + table[i]
        folding = tuple(by_idx[i] for i in range(len(moduli)))
        return folding, _round_half_up_div(total, len(self.occurrences))


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

    A string or nested-list layout is parsed on every call; to decode
    many readings with one plan, call parse_tree once and pass the tree.
    """
    # exact ints first: (135.0, 180, 162) would hit the int tuple's
    # program; the program checks the rest of the moduli once, when built
    ms = _check_ints("modulus", moduli)
    tree = parse_tree(tree)
    rt = tuple(remainders)
    if len(rt) != len(ms):
        raise ValueError("remainders and moduli lengths differ")
    rt = _check_ints("remainder", rt)
    program = _program_for(ms, tree)
    (table, folds), _, composed = program.run(rt)
    folding, estimate = composed or program.foldings(folds, table)
    outer = map(folds.__getitem__, program.outer_steps)
    return StageSolution(
        tuple(map(table.__getitem__, program.group_slots)),
        tuple(chain.from_iterable(outer)),
        FoldingSolution(folding, estimate, program.reference_index),
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
    min(G_j, gcd(lcm_j, lcm_k)/2 - min(G_k, G)).  In gcds, with every
    bound a gcd over 4, that is min(g_j, 2 gcd(lcm_j, lcm_k) - min(g_k, g)).
    """
    ms = _profile_of(moduli).moduli
    tree = _two_stage(tree)
    validate_tree(tree, len(ms))
    *leaves, (_, _, lams, k, cross) = _layout(tree, ms)
    gcds = [g for *_, g in leaves]
    ref = min(gcds[k], cross)
    return GroupReferenceBounds(
        reference=k,
        group_bounds=tuple(map(_quarter, gcds)),
        cross=_quarter(cross),
        per_group_tau=tuple(
            _quarter(
                ref if j == k else min(g, 2 * math.gcd(lam, lams[k]) - ref)
            )
            for j, (g, lam) in enumerate(zip(gcds, lams))
        ),
    )
