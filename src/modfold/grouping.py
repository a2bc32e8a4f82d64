"""Search for a two-stage grouping that beats the single-stage bound.

For each modulus, collect the partners whose pairwise gcd/4 exceeds the
single-stage bound theta; enumerate every irreducible cover of the moduli
by those candidate sets; keep the covers whose effective group bounds (each
group's bound capped by the cross bound) all exceed theta.  When several
covers qualify, the one with the largest worst-case effective bound wins
(ties: fewer groups, then lexicographic index order).

The search runs on integers: every bound is a gcd over 4, so it compares
the gcds themselves (the multistage bound calculus, _bound_gcds) and
enumerates covers as index bit masks.  The moduli are validated once, the
covers it builds are valid plans by construction, and Fractions (a
StageBounds) are built only for the winning plan.

For moduli of the form M * c_i with pairwise-coprime c_i no grouping can
help, and the search reports failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .intmath import _check_int
from .multistage import (
    DegenerateTreeError,
    Leaf,
    Node,
    StageBounds,
    _bound_gcds,
    _layout,
    _stage_bounds,
)
from .robust import SearchCapExceeded, _maxmin_gcd, validate_moduli

__all__ = [
    "CandidateSet",
    "GroupingProposal",
    "candidate_sets",
    "minimal_covers",
    "propose_grouping",
    "render_proposal",
]

COVER_CAP_DEFAULT = 16


@dataclass(frozen=True)
class CandidateSet:
    """A modulus (anchor) plus every partner exceeding theta with it."""

    anchor: int
    members: frozenset[int]


@dataclass(frozen=True)
class GroupingProposal:
    """Outcome of the grouping search.

    groups holds modulus-index tuples (sorted) for the winning cover; empty
    on failure.  bounds is the StageBounds of the winning depth-2 plan.
    shared_reference marks a proposal that only succeeded after inserting
    the reference modulus into singleton groups (relaxed criterion: no
    effective bound below theta, at least one above).
    """

    moduli: tuple[int, ...]
    theta: Fraction
    verdict: str  # "success" | "failure"
    groups: tuple[tuple[int, ...], ...]
    bounds: StageBounds | None
    shared_reference: bool = False


def candidate_sets(moduli: Sequence[int]) -> list[CandidateSet]:
    """One candidate set per modulus: itself plus all strong partners.

    A partner qualifies when gcd(partner, anchor)/4 strictly exceeds the
    single-stage bound.  Requires at least three divisor-free moduli (run
    prune_redundant first).
    """
    ms = validate_moduli(moduli, divisor_free=True)
    return _candidate_sets(ms, _theta_gcd(ms))


def _theta_gcd(ms: tuple[int, ...]) -> int:
    """4 * theta of validated moduli; ValueError below three of them."""
    if len(ms) < 3:
        raise ValueError("grouping search needs at least three moduli")
    return _maxmin_gcd(ms)[0]


def _candidate_sets(ms: tuple[int, ...], theta_gcd: int) -> list[CandidateSet]:
    """candidate_sets of validated moduli, compared on gcds."""
    out = []
    for i, a in enumerate(ms):
        members = {i}
        for j, b in enumerate(ms):
            if j != i and math.gcd(a, b) > theta_gcd:
                members.add(j)
        out.append(CandidateSet(anchor=i, members=frozenset(members)))
    return out


def minimal_covers(
    cands: Sequence[CandidateSet],
    n_moduli: int,
    *,
    cap: int = COVER_CAP_DEFAULT,
) -> list[tuple[CandidateSet, ...]]:
    """All irreducible covers of the index set 0..n_moduli-1.

    A combination qualifies when its union is the full index set and
    removing any one member loses coverage.  Covers come ordered by size,
    then lexicographically by candidate position.  Enumeration is
    exponential in the number of candidate sets; SearchCapExceeded guards
    beyond cap sets.
    """
    if len(cands) > cap:
        raise SearchCapExceeded(
            f"{len(cands)} candidate sets exceed the cover cap {cap}"
        )
    full = (1 << _check_int("n_moduli", n_moduli, 0)) - 1
    # members as bit masks; a set reaching outside the index set is in no
    # cover, and leaving it out keeps the order of the remaining combinations
    masks = {}
    for pos, c in enumerate(cands):
        if all(0 <= i < n_moduli for i in c.members):
            masks[pos] = sum(1 << i for i in c.members)
    covers = []
    # every member of an irreducible cover owns an index no other covers,
    # so no cover has more members than there are indices
    for r in range(1, min(len(masks), n_moduli) + 1):
        for combo in combinations(masks, r):
            seen = twice = 0
            for pos in combo:
                m = masks[pos]
                twice |= seen & m
                seen |= m
            if seen == full and all(masks[pos] & ~twice for pos in combo):
                covers.append(tuple(cands[pos] for pos in combo))
    return covers


def propose_grouping(
    moduli: Sequence[int], *, share_reference: bool = False
) -> GroupingProposal:
    """Run the full grouping search.

    Each minimal cover of two or more groups forms a depth-2 plan, which
    is accepted on its effective bounds (StageBounds.per_leaf_effective):
    every one must strictly exceed theta.  With share_reference=True, a
    failed search is retried with the reference modulus inserted into each
    singleton group, accepting plans whose effective bounds are all at
    least theta and at least one above it.
    """
    ms = validate_moduli(moduli, divisor_free=True)
    theta_gcd = _theta_gcd(ms)
    theta = Fraction(theta_gcd, 4)
    covers = minimal_covers(_candidate_sets(ms, theta_gcd), len(ms))
    for shared in (False, True) if share_reference else (False,):
        ref = _maxmin_gcd(ms)[1] if shared else None
        accepted = []
        for cover in covers:
            groups = tuple(
                tuple(sorted(c.members | {ref}))
                if shared and len(c.members) == 1
                else tuple(sorted(c.members))
                for c in cover
            )
            if len(groups) < 2:
                continue  # a single group is just the single-stage solver
            # a valid plan by construction: two or more groups of distinct
            # in-range indices that together cover every index
            tree = Node(children=tuple(Leaf(indices=g) for g in groups))
            try:
                layout = _layout(tree, ms)
            except DegenerateTreeError:
                continue  # sibling groups with equal lcms cannot form a plan
            gcds, eff = _bound_gcds(layout)
            worst = min(eff)
            if worst > theta_gcd or (shared and worst == theta_gcd < max(eff)):
                accepted.append(
                    (-worst, len(groups), groups, layout, gcds, eff)
                )
        if accepted:
            # best worst-case bound, then fewer groups, then lexicographic
            _, _, groups, *scored = min(accepted, key=lambda a: a[:3])
            return GroupingProposal(
                moduli=ms,
                theta=theta,
                verdict="success",
                groups=groups,
                bounds=_stage_bounds(*scored),
                shared_reference=shared,
            )
    return GroupingProposal(
        moduli=ms, theta=theta, verdict="failure", groups=(), bounds=None
    )


def render_proposal(proposal: GroupingProposal) -> str:
    """Plain-text report: groups as modulus values, bounds as p/q."""
    lines = [
        f"moduli: {' '.join(str(m) for m in proposal.moduli)}",
        f"single-stage bound: {_pq(proposal.theta)}",
        f"verdict: {proposal.verdict}",
    ]
    if proposal.shared_reference:
        lines.append("note: reference modulus shared into singleton groups")
    if proposal.verdict == "success" and proposal.bounds is not None:
        b = proposal.bounds
        lines += _group_lines(proposal.moduli, proposal.groups, b)
        lines.append(f"cross bound: {_pq(b.cross)}")
    return "\n".join(lines)


def _group_lines(
    moduli: Sequence[int],
    groups: Iterable[Sequence[int]],
    bounds: StageBounds,
) -> list[str]:
    """One "group [values]: bound p/q, effective p/q" line per leaf group."""
    return [
        f"group [{' '.join(str(moduli[i]) for i in g)}]: "
        f"bound {_pq(gb)}, effective {_pq(eff)}"
        for g, gb, eff in zip(
            groups, bounds.per_group, bounds.per_leaf_effective
        )
    ]


def _pq(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"
