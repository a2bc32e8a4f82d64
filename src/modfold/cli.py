"""Command-line interface.

Subcommands:
  bounds       robustness bounds of a moduli set (single stage or grouped)
  reconstruct  recover an integer from erroneous remainders
  group        search for a two-stage grouping beating the single-stage bound
  simulate     Monte Carlo sweep over error levels, CSV on stdout

`main(argv)` returns the exit code: 0 success, 1 inconsistent
reconstruction, 2 invalid input, 3 search cap exceeded.  It may be called
repeatedly in-process; it builds its parser once, on the first call.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .congruence import InconsistentSystem
from .grouping import _group_lines, _pq, propose_grouping, render_proposal
from .multistage import (
    parse_tree,
    per_group_reference_bounds,
    reconstruct_tree,
    stage_bounds,
    tree_leaves,
)
from .robust import (
    FoldingFailure,
    SearchCapExceeded,
    per_remainder_bounds,
    select_reference,
    solve_folding,
    theta_bound,
)
from .simulate import TrialConfig, stats_to_csv, sweep


# the longest invalid argument an error message echoes: int() takes at
# most 4,300 digits, and echoing a longer argument would flood stderr
_ECHO_LIMIT = 4300


def _int(text: str) -> int:
    """argparse's int type, except that an invalid argument longer than
    _ECHO_LIMIT characters is reported by its length, not echoed."""
    try:
        return int(text)
    except ValueError:
        shown = (
            repr(text) if len(text) <= _ECHO_LIMIT
            else f"an argument of {len(text)} characters; the CLI takes at "
            f"most {_ECHO_LIMIT} digits"
        )
        raise argparse.ArgumentTypeError(
            f"invalid int value: {shown}"
        ) from None


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modfold",
        description="Robust integer reconstruction from erroneous remainders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="robustness bounds of a moduli set")
    p.add_argument("moduli", type=_int, nargs="+")
    p.add_argument("--grouping", metavar="TREE", help="nested index lists")

    p = sub.add_parser("reconstruct", help="recover N from remainders")
    p.add_argument("moduli", type=_int, nargs="+")
    p.add_argument("--remainders", type=_int, nargs="+", required=True)
    p.add_argument("--grouping", metavar="TREE")
    p.add_argument("--reference", type=_int, default=None)

    p = sub.add_parser("group", help="search for a two-stage grouping")
    p.add_argument("moduli", type=_int, nargs="+")
    p.add_argument(
        "--share-reference",
        action="store_true",
        help="on failure, retry with the reference modulus in singletons",
    )

    p = sub.add_parser("simulate", help="Monte Carlo sweep, CSV to stdout")
    p.add_argument("moduli", type=_int, nargs="+")
    p.add_argument("--tau-max", type=_int, required=True)
    p.add_argument("--trials", type=_int, default=100_000)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--grouping", metavar="TREE")
    p.add_argument(
        "--error-model",
        choices=["one-sided", "symmetric"],
        default="one-sided",
    )
    p.add_argument("--clamp", action="store_true")
    return parser


def _cmd_bounds(args) -> int:
    # every line is made before any is printed, so an input error leaves
    # stdout empty
    ms = tuple(args.moduli)
    if args.grouping is not None:
        tree = parse_tree(args.grouping)
        b = stage_bounds(tree, ms)
        groups = [leaf.indices for leaf in tree_leaves(tree)]
        lines = [
            f"moduli: {' '.join(map(str, ms))}",
            f"single-stage bound: {_pq(theta_bound(ms))}",
            *_group_lines(ms, groups, b),
        ]
        for path, cb in b.node_cross:
            label = "root" if not path else "node " + "/".join(map(str, path))
            lines.append(f"cross bound at {label}: {_pq(cb)}")
        if len(b.node_cross) == 1:  # one inner node: a depth-2 plan
            ref = per_group_reference_bounds(tree, ms)
            lines.append(f"reference group: {ref.reference}")
            lines += [
                f"tau[group {j}] < {_pq(t)}"
                for j, t in enumerate(ref.per_group_tau)
            ]
    else:
        rep = per_remainder_bounds(ms, select_reference(ms))
        lines = [
            f"moduli: {' '.join(map(str, ms))}",
            f"theta: {_pq(rep.theta)}",
            f"reference index: {rep.reference} (modulus {ms[rep.reference]})",
        ]
        for i, (bound, strict) in enumerate(
            zip(rep.per_remainder, rep.strict)
        ):
            rel = "<" if strict else "<="
            lines.append(f"tau[{i}] {rel} {_pq(bound)}")
    print("\n".join(lines))
    return 0


def _cmd_reconstruct(args) -> int:
    ms = tuple(args.moduli)
    rt = list(args.remainders)
    if args.grouping is not None and args.reference is not None:
        raise ValueError("--reference does not apply with --grouping")
    try:
        if args.grouping is not None:
            sol = reconstruct_tree(ms, rt, parse_tree(args.grouping)).final
        else:
            k = args.reference
            if k is None:
                k = select_reference(ms)
            sol = solve_folding(ms, rt, k)
    except FoldingFailure as exc:
        print(f"verdict: inconsistent ({exc.reason})")
        if exc.partial_estimate is not None:
            print(f"partial estimate: {exc.partial_estimate}")
        return 1
    print(f"estimate: {sol.estimate}")
    print(f"folding: {' '.join(map(str, sol.folding))}")
    if sol.reference_index is not None:
        print(f"reference index: {sol.reference_index}")
    print("verdict: consistent")
    return 0


def _cmd_group(args) -> int:
    proposal = propose_grouping(
        tuple(args.moduli), share_reference=args.share_reference
    )
    print(render_proposal(proposal))
    return 0


def _cmd_simulate(args) -> int:
    if args.tau_max < 0:
        raise ValueError("--tau-max must be >= 0")
    tree = parse_tree(args.grouping) if args.grouping is not None else None
    cfg = TrialConfig(
        moduli=tuple(args.moduli),
        tree=tree,
        trials=args.trials,
        rng_seed=args.seed,
        error_model=args.error_model,
        clamp_remainders=args.clamp,
    )
    rows = sweep(cfg, range(args.tau_max + 1))
    sys.stdout.write(stats_to_csv(rows))
    return 0


_COMMANDS = {
    "bounds": _cmd_bounds,
    "reconstruct": _cmd_reconstruct,
    "group": _cmd_group,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InconsistentSystem, FoldingFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
