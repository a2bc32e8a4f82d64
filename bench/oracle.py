"""Reference answers that do not come from modfold.

The benchmark checks modfold's outputs against these few-line versions of
the paper's bound rules, written directly from their definitions: the
single-stage bound is max_i min_{j!=i} gcd(M_i, M_j) / 4, a singleton group
tolerates M / 4, an inner node of a grouping plan tolerates the same
max-min-gcd quarter over its children's lcms, and a leaf's effective bound
is the minimum along its path to the root.
"""

from __future__ import annotations

import math
from fractions import Fraction


def maxmin_gcd(values):
    """(max_i min_{j!=i} gcd(v_i, v_j), smallest index attaining it)."""
    best, arg = -1, 0
    for i, a in enumerate(values):
        g = min(math.gcd(a, b) for j, b in enumerate(values) if j != i)
        if g > best:
            best, arg = g, i
    return best, arg


def theta(values) -> Fraction:
    return Fraction(maxmin_gcd(values)[0], 4)


def per_remainder(values):
    """Per-remainder bounds with the max-min reference k.

    Returns (k, bounds): the reference error must stay strictly below
    bounds[k] = min_j gcd(M_k, M_j)/4, every other error i up to and
    including bounds[i] = gcd(M_k, M_i)/2 minus that quarter.
    """
    best, k = maxmin_gcd(values)
    quarter = Fraction(best, 4)
    bounds = [
        quarter if i == k else Fraction(math.gcd(values[k], m), 2) - quarter
        for i, m in enumerate(values)
    ]
    return k, bounds


def per_remainder_limits(values):
    """(k, largest integer error magnitude each per-remainder bound admits)."""
    k, bounds = per_remainder(values)
    return k, [
        below(b) if i == k else math.floor(b) for i, b in enumerate(bounds)
    ]


def group_bound(values) -> Fraction:
    return Fraction(values[0], 4) if len(values) == 1 else theta(values)


def prune(values) -> tuple[int, ...]:
    """Drop every value that divides another one."""
    return tuple(
        m
        for i, m in enumerate(values)
        if not any(j != i and o % m == 0 for j, o in enumerate(values))
    )


def tree_bounds(nested, moduli):
    """Bounds of a grouping plan given as nested index lists.

    Returns (per_group, node_cross, per_leaf_effective, leaves): per_group
    and per_leaf_effective follow the leaves left to right, node_cross maps
    each inner node's child-index path to its cross bound, and leaves holds
    each leaf's index tuple.
    """
    per_group, cross, effective, leaves = [], {}, [], []

    def walk(node, path, above):
        if all(isinstance(x, int) for x in node):
            own = group_bound([moduli[i] for i in node])
            per_group.append(own)
            effective.append(own if above is None else min(own, above))
            leaves.append(tuple(node))
            return
        # the children's effective bounds are capped by this node's cross
        # bound, which needs their lcms first
        here = Fraction(maxmin_gcd([_lcm_of(c, moduli) for c in node])[0], 4)
        cross[path] = here
        limit = here if above is None else min(here, above)
        for ci, c in enumerate(node):
            walk(c, path + (ci,), limit)

    walk(nested, (), None)
    return per_group, cross, effective, leaves


def _lcm_of(node, moduli) -> int:
    if all(isinstance(x, int) for x in node):
        return math.lcm(*(moduli[i] for i in node))
    return math.lcm(*(_lcm_of(c, moduli) for c in node))


def index_bounds(nested, moduli) -> list[Fraction]:
    """Per modulus index, the smallest effective bound of a leaf holding it."""
    _, _, effective, leaves = tree_bounds(nested, moduli)
    out = [None] * len(moduli)
    for leaf, eff in zip(leaves, effective):
        for i in leaf:
            out[i] = eff if out[i] is None else min(out[i], eff)
    return out


def below(bound: Fraction) -> int:
    """Largest integer strictly below a positive bound (0 if none)."""
    return max(math.ceil(bound) - 1, 0)
