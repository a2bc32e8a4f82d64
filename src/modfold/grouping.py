"""Search for a two-stage grouping that beats the single-stage bound.

For each modulus, collect the partners whose pairwise gcd/4 exceeds the
single-stage bound theta; enumerate every irreducible cover of the moduli
by those candidate sets; keep the covers whose effective group bounds (each
group's bound capped by the cross bound) all exceed theta.  When several
covers qualify, the one with the largest worst-case effective bound wins
(ties: fewer groups, then lexicographic index order).

The search runs on integers: every bound is a gcd over 4, so it compares
the gcds themselves.  The moduli's profile (robust._Profile) gives theta,
the reference modulus, the divisor-free check and the candidate sets.  The
covers are enumerated depth first over index bit masks, skipping every set
that adds no index to its prefix, extending no prefix that already covers
every index and none that the later sets cannot complete.  Each distinct
group of a cover of two or more groups is scored once, when a cover first
holds it, as the max-min gcd and the lcm of its moduli; a cover is ranked
by the multistage effective rule (_effective_gcds) over its groups' gcds
and the cross gcd of their lcms.  Only the winning plan becomes a tree,
and its StageBounds comes from multistage._layout.

For moduli of the form M * c_i with pairwise-coprime c_i no grouping can
help, and the search reports failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .intmath import _check_int
from .multistage import (
    Leaf,
    Node,
    StageBounds,
    _effective_gcds,
    _layout,
    _stage_bounds,
)
from .robust import (
    SearchCapExceeded,
    _maxmin_gcd,
    _Profile,
    _profile_of,
)

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
    return _candidate_sets(_search_profile(moduli))


def _search_profile(moduli: Sequence[int]) -> _Profile:
    """The moduli's profile; ValueError unless three or more divisor-free."""
    profile = _profile_of(moduli)
    profile.require_divisor_free()
    if len(profile.moduli) < 3:
        raise ValueError("grouping search needs at least three moduli")
    return profile


def _candidate_sets(profile: _Profile) -> list[CandidateSet]:
    """candidate_sets from the profile of divisor-free moduli.

    Every modulus exceeds theta there (it divides no partner), so the
    table's diagonal puts each anchor into its own set.
    """
    theta_gcd = profile.theta_gcd
    return [
        CandidateSet(
            anchor=i,
            members=frozenset([j for j, g in enumerate(row) if g > theta_gcd]),
        )
        for i, row in enumerate(profile.table)
    ]


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
    beyond cap sets.  Members must be ints.
    """
    if len(cands) > _check_int("cap", cap):
        raise SearchCapExceeded(
            f"{len(cands)} candidate sets exceed the cover cap {cap}"
        )
    full = (1 << _check_int("n_moduli", n_moduli, 0)) - 1
    # (position, members as a bit mask); a set reaching outside the index
    # set is in no cover
    sets = []
    for pos, c in enumerate(cands):
        mask, inside = 0, True
        for i in c.members:
            if i.__class__ is not int:
                _check_int("candidate set member", i)
            if 0 <= i < n_moduli:
                mask |= 1 << i
            else:
                inside = False
        if inside:
            sets.append((pos, mask))
    # rest[q]: the union of the sets from position q on
    rest = [0] * (len(sets) + 1)
    for q in range(len(sets) - 1, -1, -1):
        rest[q] = rest[q + 1] | sets[q][1]
    found = []
    # depth first over combinations in position order, from states (next
    # set, union, indices covered twice, member masks, positions)
    stack = [(0, 0, 0, (), ())]
    while stack:
        start, seen, twice, masks, combo = stack.pop()
        for pos, m in sets[start:]:
            start += 1
            if not m & ~seen:
                continue  # it owns no index in any cover with this prefix
            union, twice_m = seen | m, twice | seen & m
            if union != full:
                if union | rest[start] == full:  # else no set completes it
                    stack.append(
                        (start, union, twice_m, masks + (m,), combo + (pos,))
                    )
                continue
            # a full union takes no further set (it would own no index);
            # keep it if each earlier member still owns one (m does)
            for x in masks:
                if not x & ~twice_m:
                    break
            else:
                found.append(combo + (pos,))
    # by size, then by positions (the sort is stable)
    found.sort()
    found.sort(key=len)
    pick = cands.__getitem__
    return [tuple(map(pick, combo)) for combo in found]


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
    if not isinstance(share_reference, bool):
        raise ValueError(
            f"share_reference must be a bool, got {share_reference!r}"
        )
    profile = _search_profile(moduli)
    ms, theta, theta_gcd = profile.moduli, profile.theta, profile.theta_gcd
    ref = profile.reference
    covers = minimal_covers(_candidate_sets(profile), len(ms))
    # each distinct group as (indices, max-min gcd, lcm), by its members,
    # scored when a cover first needs it
    scores: dict[frozenset[int], tuple] = {}
    for shared in (False, True) if share_reference else (False,):
        if shared:  # singletons now hold the reference too
            scores = {m: s for m, s in scores.items() if len(m) > 1}
        accepted = []
        for cover in covers:
            if len(cover) < 2:
                continue  # a single group is just the single-stage solver
            scored = []
            for c in cover:
                s = scores.get(c.members)
                if s is None:
                    m = c.members
                    group = m | {ref} if shared and len(m) == 1 else m
                    s = scores[m] = _score(ms, tuple(sorted(group)))
                scored.append(s)
            groups, gcds, lams = zip(*scored)
            if len(set(lams)) < len(lams):
                continue  # sibling groups with equal lcms cannot form a plan
            # the depth-2 plan: its leaves, then the root over their lcms
            steps = gcds + (_maxmin_gcd(lams)[0],)
            eff = _effective_gcds(
                [(True, 1)] * len(groups) + [(False, 0)], steps
            )
            worst = min(eff)
            if worst > theta_gcd or (shared and worst == theta_gcd < max(eff)):
                accepted.append((-worst, len(groups), groups))
        if accepted:
            # best worst-case bound, then fewer groups, then lexicographic
            _, _, groups = min(accepted)
            # a valid plan by construction: two or more groups of distinct
            # in-range indices with distinct lcms that cover every index
            layout = _layout(
                Node(children=tuple(Leaf(indices=g) for g in groups)), ms
            )
            return GroupingProposal(
                moduli=ms,
                theta=theta,
                verdict="success",
                groups=groups,
                bounds=_stage_bounds(layout),
                shared_reference=shared,
            )
    return GroupingProposal(
        moduli=ms, theta=theta, verdict="failure", groups=(), bounds=None
    )


def _score(moduli: tuple[int, ...], group: tuple[int, ...]):
    """(group, its max-min gcd, its lcm) for sorted modulus indices."""
    parts = [moduli[i] for i in group]
    return group, _maxmin_gcd(parts)[0], math.lcm(*parts)


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
