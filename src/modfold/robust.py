"""Single-stage robust reconstruction from erroneous remainders.

Given distinct moduli M_1..M_L and noisy remainders of an unknown integer N,
the solver recovers the folding numbers n_i (the quotients in
N = n_i * M_i + r_i) exactly, provided the remainder errors stay within the
bounds computed here.  The method:

  1. pick a reference modulus M_k maximizing the worst pairwise gcd,
  2. divide each remainder difference by gcd(M_k, M_i) and round it to an
     integer quotient estimate,
  3. turn the quotient estimates into congruences for n_k via modular
     inverses and solve them with the generalized CRT merge,
  4. derive every other folding number by an exact division (the merged
     n_k meets n_k * c_i == q_i (mod n_i) for every i, so it always is).

Failures of step 3 or 4 (contradictory congruences, negative folding
numbers) are diagnostic evidence that the errors exceeded the admissible
bounds; they surface as FoldingFailure rather than being silently rounded
away.

The fused estimate of N is the half-up-rounded average of the per-modulus
reconstructions, which keeps |estimate - N| within the remainder error level
whenever the folding numbers are exact.

Every design quantity of a moduli set comes from its pairwise gcd table
(_Profile).  One solve is a fused kernel over constants built once per
(moduli, reference) (_FoldingPlan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .congruence import _merge_schedule
from .intmath import (
    _check_exact,
    _check_index,
    _check_int,
    _check_ints,
    _check_positive,
    _mod_inverse,
    round_half_up_div,
)

__all__ = [
    "FoldingFailure",
    "SearchCapExceeded",
    "FoldingSolution",
    "BoundsReport",
    "validate_moduli",
    "theta_bound",
    "select_reference",
    "per_remainder_bounds",
    "prune_redundant",
    "check_ns_condition",
    "solve_folding",
    "folding_oracle",
]

ORACLE_CAP_DEFAULT = 10_000_000
# the reasons a stage's solve fails with, here and in generated code
_CONTRADICTION = "remainder errors produced contradictory congruences"
_NEGATIVE = "negative folding number"


class FoldingFailure(Exception):
    """Folding-number recovery failed; remainder errors were too large.

    partial_estimate carries the fused value computed from the defective
    folding numbers when the arithmetic still produced a full set of them
    (e.g. a negative folding number); it is None when the congruence system
    itself was unsolvable.
    """

    def __init__(
        self,
        reason: str,
        partial_folding: tuple[int, ...] | None = None,
        partial_estimate: int | None = None,
    ):
        super().__init__(reason)
        self.reason = reason
        self.partial_folding = partial_folding
        self.partial_estimate = partial_estimate


class SearchCapExceeded(RuntimeError):
    """An exhaustive search would exceed the configured work cap."""


class _Factory:
    """The package's one builder of generated code.

    Called with an int, it names that constant k0, k1, ... in first-use
    order.  build(source, returns, **free) execs def factory(k0, k1, ...,
    *free) whose body is source, top-level code, and whose last line is
    return returns, then calls it with the constants and free and
    returns what it gives.  So every constant a generated function reads
    is a factory parameter, never source text: str() of an int past the
    digit limit raises ValueError; and each value in free, a function
    the generated code calls, is a free variable of it under its name.
    A generated sum of many terms is balanced (multistage._sum_source),
    since a long + chain exhausts the compiler's recursion.
    """

    def __init__(self):
        self.consts: dict[int, str] = {}

    def __call__(self, value: int) -> str:
        return self.consts.setdefault(value, f"k{len(self.consts)}")

    def build(self, source: str, returns: str, **free):
        head = f"def factory({', '.join([*self.consts.values(), *free])}):"
        body = source.replace("\n", "\n    ")
        namespace: dict = {}
        exec(f"{head}\n    {body}\n    return {returns}", namespace)
        return namespace["factory"](*self.consts, **free)


def _vars_init(cls):
    """cls, a frozen dataclass, with an __init__ generated from its fields
    that stores each one straight into vars(self), past the dataclass's
    __setattr__: a call costs one dict store per field, and the stores
    are the field list itself."""
    names = [f.name for f in fields(cls)]
    d = "_" * (1 + max(map(len, names)))  # longer than any field's name
    source = f"def __init__(self, {', '.join(names)}):\n    {d} = vars(self)"
    source += "".join(f"\n    {d}[{n!r}] = {n}" for n in names)
    cls.__init__ = _Factory().build(source, "__init__")
    return cls


@_vars_init
@dataclass(frozen=True)
class FoldingSolution:
    """Recovered folding numbers plus the fused integer estimate."""

    folding: tuple[int, ...]
    estimate: int
    reference_index: int | None


@dataclass(frozen=True)
class BoundsReport:
    """Per-remainder error bounds for a chosen reference modulus.

    strict[i] is True when the bound is exclusive (error must stay strictly
    below) and False when the bound itself is still admissible.
    """

    theta: Fraction
    reference: int
    per_remainder: tuple[Fraction, ...]
    strict: tuple[bool, ...]


def validate_moduli(moduli: Sequence[int]) -> tuple[int, ...]:
    """Check moduli are distinct positive integers; return them as a tuple."""
    # errors name indices: a value past the digit limit cannot be printed
    ms = _check_ints("modulus", moduli)
    if not ms:
        raise ValueError("empty moduli set")
    _check_positive(ms)
    if len(set(ms)) != len(ms):
        j = next(j for j, m in enumerate(ms) if ms.index(m) < j)
        raise ValueError(
            f"moduli must be distinct, indices {ms.index(ms[j])} and {j} "
            "are equal"
        )
    return ms


def _maxmin_gcd(values: Sequence[int]) -> tuple[int, int]:
    """max_i min_{j!=i} gcd(values[i], values[j]) and the first i attaining it.

    Values must be positive.  A single value has no partner; its own value
    stands in, which makes the bound of a one-modulus group M/4.  Each row
    starts from the value itself (every gcd with it is at most the value)
    and stops once its minimum can no longer beat the best row so far.
    It is the package's one max-min routine.
    """
    gcd = math.gcd
    best, best_i = -1, 0
    for i, v in enumerate(values):
        low = v
        if low <= best:
            continue
        for j, w in enumerate(values):
            if j != i:
                g = gcd(v, w)
                if g < low:
                    low = g
                    if low <= best:
                        break
        if low > best:
            best, best_i = low, i
    return best, best_i


@lru_cache(maxsize=1024)
def _quarter(g: int) -> Fraction:
    """g / 4: every bound of the calculus is a gcd over 4."""
    return Fraction(g, 4)


class _Profile:
    """The pairwise gcd analysis of one moduli tuple, read by every caller.

    The bound theta, the reference modulus, the per-remainder bounds, the
    exactness condition and each folding plan's gcds all come from its
    table; _profile caches one per moduli tuple.

    table[i][j] is gcd(M_i, M_j), with M_i itself on the diagonal.  No
    entry of row i exceeds M_i, so the least entry of row i is the least
    gcd of M_i with the others (M_i itself when there is no other).
    theta_gcd is the max-min gcd and reference the first index attaining
    it, both from _maxmin_gcd(moduli); theta is theta_gcd / 4.

    M_j divides M_i exactly when table[i][j] == M_j, so M_i divides
    another modulus exactly when row i holds M_i more than once, and
    divisor_free says that no row does.

    Building a profile checks that the moduli are distinct positive ints
    (at least one), so a cached profile's moduli are not checked again.
    The exact-int check comes before the cache, in _profile_of, because
    (135.0, 180, 162) equals and hashes like the int tuple.
    """

    __slots__ = (
        "moduli", "table", "theta_gcd", "reference", "theta", "divisor_free",
    )

    def __init__(self, moduli: tuple[int, ...]):
        validate_moduli(moduli)
        gcd = math.gcd
        self.moduli = moduli
        self.table = table = [[gcd(a, b) for b in moduli] for a in moduli]
        self.theta_gcd, self.reference = _maxmin_gcd(moduli)
        self.theta = _quarter(self.theta_gcd)
        # a row holds its own modulus once, on the diagonal, unless that
        # modulus divides another
        self.divisor_free = sum(map(list.count, table, moduli)) == len(moduli)

    def require_divisor_free(self) -> None:
        """ValueError naming (by index) a modulus that divides another."""
        if not self.divisor_free:
            ms = self.moduli
            i, j = next(
                (i, j)
                for i, row in enumerate(self.table)
                for j, g in enumerate(row)
                if i != j and g == ms[j]
            )
            raise ValueError(
                f"the modulus at index {j} divides the one at index {i}; "
                "run prune_redundant first"
            )


@lru_cache(maxsize=512)
def _profile(moduli: tuple[int, ...]) -> _Profile:
    return _Profile(moduli)


def _profile_of(moduli: Sequence[int]) -> _Profile:
    """The cached profile of moduli, after their exact-int check."""
    return _profile(_check_ints("modulus", moduli))


def theta_bound(moduli: Sequence[int]) -> Fraction:
    """Single-stage robustness bound: max_i min_{j!=i} gcd(M_i, M_j) / 4.

    Remainder errors strictly below this bound guarantee exact folding
    recovery (with the reference from select_reference).
    """
    p = _profile_of(moduli)
    if len(p.moduli) < 2:
        raise ValueError("theta_bound needs at least two moduli")
    return p.theta


def select_reference(moduli: Sequence[int]) -> int:
    """Smallest index attaining the max-min pairwise gcd."""
    p = _profile_of(moduli)
    if len(p.moduli) < 2:
        raise ValueError("select_reference needs at least two moduli")
    return p.reference


def per_remainder_bounds(moduli: Sequence[int], k: int) -> BoundsReport:
    """Individual error bounds when remainder k is used as the reference.

    The reference error must stay strictly below min_{j!=k} gcd(M_k, M_j)/4;
    every other remainder i tolerates errors up to (inclusive)
    gcd(M_k, M_i)/2 minus that same quarter term.
    """
    p = _profile_of(moduli)
    size = len(p.moduli)
    if size < 2:
        raise ValueError("per_remainder_bounds needs at least two moduli")
    _check_index("reference index", k, size)
    # every bound is a quarter: g/2 - q/4 == (2g - q)/4
    q = min(p.table[k])
    if q != p.theta_gcd:
        raise ValueError(
            f"index {k} does not attain the max-min bound; index "
            f"{p.reference} does"
        )
    return BoundsReport(
        theta=p.theta,
        reference=k,
        per_remainder=tuple(
            p.theta if i == k else _quarter(2 * g - q)
            for i, g in enumerate(p.table[k])
        ),
        strict=tuple(i == k for i in range(size)),
    )


def prune_redundant(moduli: Sequence[int]) -> tuple[int, ...]:
    """Drop every modulus that divides another one.

    Such a modulus contributes nothing to the lcm (the reconstruction range)
    and can only hold the robustness bound down.  Order of the survivors is
    preserved; the lcm never changes.
    """
    ms = validate_moduli(moduli)
    if len(ms) < 2:
        raise ValueError("prune_redundant needs at least two moduli")
    # divisibility is transitive, so one pass against the full set is the
    # same as iterating to a fixpoint; the moduli are distinct and
    # positive, so only a larger one can be a multiple of m
    return tuple(m for m in ms if all(o % m for o in ms if o > m))


def check_ns_condition(
    deltas: Sequence[int], moduli: Sequence[int], k: int
) -> bool:
    """Exactness test for the remainder error vector.

    True iff for every i != k the error difference delta_i - delta_k lies in
    [-gcd(M_k, M_i)/2, gcd(M_k, M_i)/2).  This is necessary and sufficient
    for solve_folding (with reference k) to recover every folding number.
    Deltas and moduli must be ints.
    """
    ms = _profile_of(moduli).moduli
    deltas = tuple(deltas)
    if len(deltas) != len(ms):
        raise ValueError("deltas and moduli lengths differ")
    _check_index("reference index", k, len(ms))
    return _ns_condition(_check_ints("delta", deltas), ms, k)


def _ns_condition(
    deltas: Sequence[int], moduli: tuple[int, ...], k: int
) -> bool:
    """check_ns_condition on inputs already known to be valid.

    One comparison per modulus against row k of the gcd table.  The
    diagonal entry M_k lets i = k pass, so one modulus meets it for any
    error vector.
    """
    dk = deltas[k]
    return all(
        -g <= 2 * (d - dk) < g
        for d, g in zip(deltas, _profile(moduli).table[k])
    )


# solve_folding compiles a plan's solve on the plan's _COMPILE_AT-th
# decode; the decodes before it run the pure _solve_with_plan.  One
# compile costs 0.21-0.54 ms and saves 0.6-0.9 us per later decode (3-7
# moduli; least of several timeit runs on one core of a 2-core Xeon,
# CPython 3.11), so it pays for itself after about 350-630 decodes; both
# grow with the moduli count, so one constant fits every set size.  This is
# the ski-rental rule: buy (compile) once the rent paid (pure decodes)
# would have bought it.  Whatever number of decodes a plan serves, it
# costs at most about twice the better of never compiling and compiling
# at once, and a plan decoded once, as a design decodes it, compiles
# nothing.
_COMPILE_AT = 512

# a warm plan's checked decode entry per (moduli, k) key, so that its
# solve_folding skips the input gate and the plan cache: registered by
# each decode the checked path serves through a compiled solve (from a
# plan's _COMPILE_AT-th decode, or its first once a sweep compiled it),
# and capped at the plan cache's size
_PLANS = 512
_WARM: dict = {}


def _keep_warm(table: dict, cap: int, key, entry) -> None:
    """Store entry under key unless table holds one there.  A table of
    cap entries is emptied first, and each plan dropped comes back on its
    next checked decode: unlike dropping the oldest entry, that holds
    when another thread stores at once."""
    if key not in table:
        if len(table) >= cap:
            table.clear()
        table[key] = entry


class _FoldingPlan:
    """Precomputed constants for solve_folding on a fixed (moduli, k).

    Per index i != k, in index order, let g = gcd(M_k, M_i), n = M_i / g
    (the modulus of the congruence for n_k), c = M_k / g, and inv the
    inverse of c modulo n (0 when n = 1).  head holds (i, g, 2g, n, inv)
    for the first such index; steps holds the same five constants for
    every later index followed by that index's step of the congruence
    merge schedule (g', n / g', inv', running modulus), taken from
    congruence._merge_schedule over the n's; derive holds (i, n, c) per
    index.  So one solve is one loop over head and steps, which rounds
    each quotient estimate and merges its congruence at once (steps 2
    and 3 of the method), and one loop over derive (step 4).

    The fused estimate needs no pass of its own.  With the quotient
    estimate and the rounding remainder e_i taken together,
    2(r_i - r_k) + g_i = 2g_i q_i + e_i, and an exact derivation
    f_i M_i = (n_k c_i - q_i) g_i, the sum of f_i M_i + r_i over all i is
    L (n_k M_k + r_k) + (sum of e_i - sum of g_i) / 2.  Its half-up
    rounded mean is therefore n_k M_k + r_k + (sum of e_i + bias) // 2L
    with bias = L - sum of g_i, computed exactly.  Every step is exact
    integer arithmetic, so each folding number, estimate, failure reason
    and partial result equals that of the separate passes bit for bit.

    pairs holds (i, g_i) per index i != k: the exactness condition the
    sweep checks, and the window it certifies, are stated once, in the
    simulate module.  A sweep takes a plan as it takes a
    multistage._TreeProgram, through moduli, stages, solve and run; solve
    compiles on first read.  cold counts the solve_folding decodes left
    before the plan's solve is compiled (_COMPILE_AT); reading solve sets
    it to 0, so a plan a sweep compiled decodes through its solve at once,
    and a cold plan compiles nothing.  The solve's generated entry,
    solve.decode, serves a warm plan's solve_folding (see _WARM).

    Its gcds are row k of the moduli's _Profile, whose build checks that
    they are distinct positive ints; the plan checks there are at least
    two, so a cached plan's moduli are not checked again.
    """

    __slots__ = (
        "moduli", "k", "mk", "head", "steps", "derive", "twice_size", "bias",
        "pairs", "cold", "_solve",
    )

    def __init__(self, moduli: tuple[int, ...], k: int):
        row = _profile(moduli).table[k]
        if len(moduli) < 2:
            raise ValueError("a folding plan needs at least two moduli")
        self.moduli = moduli
        self.k = k
        self.mk = mk = moduli[k]
        terms = []
        for i, (m, g) in enumerate(zip(moduli, row)):
            if i != k:
                n = m // g
                inv = _mod_inverse(mk // g, n)
                terms.append((i, g, 2 * g, n, inv))
        _, schedule = _merge_schedule(tuple(t[3] for t in terms))
        self.head = terms[0]
        self.steps = tuple(t + s for t, s in zip(terms[1:], schedule))
        self.derive = tuple((i, n, mk // g) for i, g, _, n, _ in terms)
        self.twice_size = 2 * len(moduli)
        self.bias = len(moduli) - sum(t[1] for t in terms)
        self.pairs = tuple((i, g) for i, g, _, _, _ in terms)
        self.cold = _COMPILE_AT - 1

    @property
    def stages(self):
        # made on each read: held by the plan, it would tie the plan into
        # a reference cycle that outlives its eviction from _folding_plan
        return ((self, range(len(self.moduli))),)

    @property
    def solve(self):
        try:
            return self._solve
        except AttributeError:  # compiled on first read
            from .multistage import _compile_solve  # it imports robust
            self._solve = _compile_solve(self.moduli, self.stages, (), ())
            self.cold = 0
            return self._solve

    def run(self, remainders: Sequence[int]):
        """The solve's ((), estimate, (), folding, estimate), as a
        program's run returns it; a failure raises FoldingFailure."""
        out = self.solve(remainders)
        if out[0] is None:
            raise FoldingFailure(out[2], out[3], out[1])
        return out


@lru_cache(maxsize=_PLANS)
def _folding_plan(moduli: tuple[int, ...], k: int) -> _FoldingPlan:
    return _FoldingPlan(moduli, k)


def _solve_with_plan(
    plan: _FoldingPlan, remainders: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """The pure solve: a cold plan's solve_folding decodes, and the
    reference that verify_exactness_condition and the tests hold the
    generated solve to.

    The merge steps are congruence._merge's loop applied inline; see
    _FoldingPlan for the loops and the fused estimate.
    """
    r_ref = remainders[plan.k]
    i, g, g2, n, inv = plan.head
    q, e_sum = divmod(2 * (remainders[i] - r_ref) + g, g2)
    n_ref = q * inv % n
    qs = [q]
    for i, g, g2, n, inv, mg, mn, minv, mm in plan.steps:
        q, e = divmod(2 * (remainders[i] - r_ref) + g, g2)
        qs.append(q)
        e_sum += e
        diff = q * inv % n - n_ref
        if diff % mg:
            raise FoldingFailure(_CONTRADICTION)
        n_ref += mm * (diff // mg * minv % mn)

    # n_ref * c == q (mod n) for every term, so each division is exact
    folding = [n_ref] * len(plan.moduli)
    for (i, n, c), q in zip(plan.derive, qs):
        folding[i] = (n_ref * c - q) // n

    est = n_ref * plan.mk + r_ref + (e_sum + plan.bias) // plan.twice_size
    if min(folding) < 0:
        raise FoldingFailure(
            _NEGATIVE,
            partial_folding=tuple(folding),
            partial_estimate=est,
        )
    return tuple(folding), est


def solve_folding(
    moduli: Sequence[int],
    remainders: Sequence[int],
    k: int,
) -> FoldingSolution:
    """Recover all folding numbers from erroneous remainders, reference k.

    Remainders are taken as given, even outside [0, M_i): the arithmetic
    only uses differences, so no wrapping is applied here.  Moduli and
    remainders must be ints.

    Raises FoldingFailure when the errors were too large for recovery to be
    trusted: contradictory congruences or a negative folding number.

    The plan of (moduli, k) is cached.  Its first _COMPILE_AT - 1 decodes
    run the pure _solve_with_plan; the next compiles the plan's solve
    once, and it and every later decode run it (at once, if a sweep
    compiled it).  Such a decode also keeps the solve's generated entry,
    solve.decode, in _WARM under (moduli, k), and a later call
    whose key finds it decodes through it alone: it checks in generated
    code that the moduli are a tuple and the remainders a list or tuple
    of as many plain ints, and gives None on anything else, which falls
    through to the checks below.  Every tier gives the same solution or
    failure, and every input the same error, bit for bit.
    """
    if type(k) is int:  # True and 1.0 hash and compare like 1
        try:
            decode = _WARM.get((moduli, k))
        except Exception:  # as a list of moduli is unhashable: the checks
            decode = None  # meet whatever hashing the key raised
        if decode is not None:
            out = decode(moduli, remainders)
            if out is not None:
                if out[0] is None:
                    raise FoldingFailure(out[2], out[3], out[1])
                return FoldingSolution(out[3], out[1], k)
    # exact ints first: (135.0, 180, 162) would hit the int tuple's plan;
    # the plan checks the rest of the moduli once, when it is built
    ms = _check_ints("modulus", moduli)
    rt = tuple(remainders)
    if len(rt) != len(ms):
        raise ValueError("remainders and moduli lengths differ")
    _check_index("reference index", k, len(ms))
    rt = _check_ints("remainder", rt)
    plan = _folding_plan(ms, k)
    if plan.cold:
        plan.cold -= 1
        folding, est = _solve_with_plan(plan, rt)
    else:
        _keep_warm(_WARM, _PLANS, (ms, k), plan.solve.decode)
        _, est, _, folding, _ = plan.run(rt)
    return FoldingSolution(folding, est, k)


def folding_oracle(
    moduli: Sequence[int],
    remainders: Sequence[int],
    tau: int | Fraction,
    *,
    cap: int = ORACLE_CAP_DEFAULT,
) -> list[FoldingSolution]:
    """Exhaustive reference answer: every candidate below the lcm.

    Scans all N in [0, lcm) and keeps those whose exact remainders differ
    from the given ones by at most tau entry-wise.  Independent of
    solve_folding; intended as a brute-force oracle for small moduli sets.
    Raises SearchCapExceeded when lcm exceeds cap.
    """
    ms = validate_moduli(moduli)
    rt = tuple(remainders)
    if len(rt) != len(ms):
        raise ValueError("remainders and moduli lengths differ")
    _check_exact("tau", tau, 0)
    _check_int("cap", cap)
    lam = math.lcm(*ms)
    if lam > cap:
        raise SearchCapExceeded("the lcm of the moduli exceeds the cap")
    rt = _check_ints("remainder", rt)
    out: list[FoldingSolution] = []
    seen: set[tuple[int, ...]] = set()
    for n in range(lam):
        if all(abs(r - n % m) <= tau for r, m in zip(rt, ms)):
            folding = tuple(n // m for m in ms)
            if folding in seen:
                continue
            seen.add(folding)
            total = sum(f * m + r for f, m, r in zip(folding, ms, rt))
            out.append(
                FoldingSolution(
                    folding=folding,
                    estimate=round_half_up_div(total, len(ms)),
                    reference_index=None,
                )
            )
    return out
