"""Error-free remainder reconstruction.

One generalized CRT merge serves the whole package: a left-to-right
schedule of merge steps, precomputed from the moduli alone, and one loop
that applies it to residues.  It accepts non-coprime moduli and detects
contradictory residue systems.  The single-sum formula for pairwise-coprime
moduli stays as an independent reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .intmath import _check_int, _check_ints, _check_positive, _mod_inverse

__all__ = [
    "InconsistentSystem",
    "CongruenceSystem",
    "crt_pair_merge",
    "crt_general",
    "crt_coprime_closed_form",
    "remainders_of",
]


class InconsistentSystem(ValueError):
    """The residues admit no common solution (contradictory congruences)."""


@dataclass(frozen=True)
class CongruenceSystem:
    """A nonempty system x == residues[i] (mod moduli[i]), residues reduced."""

    residues: tuple[int, ...]
    moduli: tuple[int, ...]

    def __init__(self, residues: Sequence[int], moduli: Sequence[int]):
        residues = _check_ints("residue", residues)
        moduli = _check_ints("modulus", moduli)
        if len(residues) != len(moduli):
            raise ValueError(
                f"{len(residues)} residues but {len(moduli)} moduli"
            )
        if not moduli:
            raise ValueError("empty congruence system")
        _check_positive(moduli)
        # frozen: set the fields past the dataclass's __setattr__
        vars(self).update(
            residues=tuple(map(operator.mod, residues, moduli)), moduli=moduli
        )

    def __len__(self) -> int:
        return len(self.moduli)


@lru_cache(maxsize=512)
def _merge_schedule(
    moduli: tuple[int, ...],
) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
    """Precompute the left-to-right merge of x == r_i (mod moduli[i]).

    Returns the first modulus and one step (g, n // g, inverse, running
    modulus) per later modulus n, where g = gcd(running modulus, n) and the
    inverse is that of running modulus // g modulo n // g.  Depends on the
    moduli only, so it is cached per moduli tuple.
    """
    acc = moduli[0]
    steps = []
    for n in moduli[1:]:
        g = math.gcd(acc, n)
        ndg = n // g
        inv = _mod_inverse(acc // g, ndg)
        steps.append((g, ndg, inv, acc))
        acc *= ndg
    return moduli[0], tuple(steps)


def _merge(
    schedule: tuple[int, tuple[tuple[int, int, int, int], ...]],
    residues: Sequence[int],
) -> int | None:
    """Smallest nonnegative x meeting every congruence of the schedule.

    The result lies in [0, lcm(moduli)).  Returns None when the residues
    contradict each other, so each caller raises its own exception.
    """
    first, steps = schedule
    acc_r = residues[0] % first
    for r, (g, ndg, inv, acc_m) in zip(residues[1:], steps):
        diff = r - acc_r
        if diff % g != 0:
            return None
        acc_r += acc_m * (((diff // g) * inv) % ndg)
    return acc_r


def crt_pair_merge(a: int, m: int, b: int, n: int) -> tuple[int, int]:
    """Merge x == a (mod m) and x == b (mod n) into x == c (mod lcm(m, n)).

    Returns (c, lcm) with 0 <= c < lcm.  Raises InconsistentSystem when
    gcd(m, n) does not divide b - a, i.e. no x satisfies both congruences.
    """
    _check_ints("residue or modulus", (a, m, b, n))
    _check_positive((m, n))
    c = _merge(_merge_schedule((m, n)), (a, b))
    if c is None:
        # parameter names, not values: those may be past the digit limit
        raise InconsistentSystem("x == a (mod m) contradicts x == b (mod n)")
    return c, math.lcm(m, n)


def crt_general(system: CongruenceSystem) -> int:
    """Smallest nonnegative solution of a (possibly non-coprime) system.

    The result is the canonical representative in [0, lcm(moduli)).
    Raises InconsistentSystem when the congruences contradict each other.
    """
    x = _merge(_merge_schedule(system.moduli), system.residues)
    if x is None:
        # a system is solvable iff every pair of its congruences is
        rs, ms = system.residues, system.moduli
        i, j = next(
            (i, j)
            for j in range(len(ms))
            for i in range(j)
            if (rs[i] - rs[j]) % math.gcd(ms[i], ms[j])
        )
        raise InconsistentSystem(
            f"congruences {i} and {j} contradict each other"
        )
    return x


def crt_coprime_closed_form(system: CongruenceSystem) -> int:
    """Single-sum CRT formula, valid only for pairwise-coprime moduli.

    Agrees with crt_general on every coprime system; rejects non-coprime
    moduli with ValueError.
    """
    mods = system.moduli
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if math.gcd(mods[i], mods[j]) != 1:
                raise ValueError(
                    f"the moduli at indices {i} and {j} are not coprime"
                )
    total = math.prod(mods)
    acc = 0
    for r, m in zip(system.residues, mods):
        others = total // m
        acc += r * _mod_inverse(others, m) * others
    return acc % total


def remainders_of(n: int, moduli: Sequence[int]) -> tuple[int, ...]:
    """Exact remainders of n for each modulus, each in [0, modulus)."""
    _check_int("n", n)
    moduli = _check_ints("modulus", moduli)
    _check_positive(moduli)
    return tuple(n % m for m in moduli)
