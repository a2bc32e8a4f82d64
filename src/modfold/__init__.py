"""modfold: robust reconstruction of integers from erroneous remainders.

The package recovers an unknown integer N from noisy values of
N mod M_1, ..., N mod M_L for an arbitrary set of distinct moduli, by
determining the folding numbers N // M_i exactly whenever the remainder
errors stay within computable bounds.  It ships the single-stage solver,
multi-stage reconstruction over grouping plans (which can tolerate larger
errors), the exact-rational bound calculus, a grouping search, and a
deterministic Monte Carlo harness.
"""

from .congruence import (
    CongruenceSystem,
    InconsistentSystem,
    crt_coprime_closed_form,
    crt_general,
    crt_pair_merge,
    remainders_of,
)
from .grouping import (
    CandidateSet,
    GroupingProposal,
    candidate_sets,
    minimal_covers,
    propose_grouping,
    render_proposal,
)
from .intmath import (
    NotInvertibleError,
    mod_inverse,
    round_half_up,
    round_half_up_div,
)
from .multistage import (
    DegenerateTreeError,
    GroupReferenceBounds,
    GroupTree,
    Leaf,
    Node,
    StageBounds,
    StageSolution,
    fused_error_bound,
    parse_tree,
    per_group_reference_bounds,
    reconstruct_tree,
    reconstruct_two_stage,
    stage_bounds,
    tree_leaves,
    tree_to_nested,
    validate_tree,
)
from .robust import (
    BoundsReport,
    FoldingFailure,
    FoldingSolution,
    SearchCapExceeded,
    check_ns_condition,
    folding_oracle,
    per_remainder_bounds,
    prune_redundant,
    select_reference,
    solve_folding,
    theta_bound,
    validate_moduli,
)
from .simulate import (
    ExactnessReport,
    TrialConfig,
    TrialStats,
    run_trials,
    stats_to_csv,
    sweep,
    verify_exactness_condition,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "CandidateSet",
    "CongruenceSystem",
    "DegenerateTreeError",
    "FoldingFailure",
    "FoldingSolution",
    "GroupReferenceBounds",
    "GroupTree",
    "GroupingProposal",
    "InconsistentSystem",
    "Leaf",
    "Node",
    "NotInvertibleError",
    "SearchCapExceeded",
    "StageBounds",
    "StageSolution",
    "ExactnessReport",
    "TrialConfig",
    "TrialStats",
    "candidate_sets",
    "check_ns_condition",
    "crt_coprime_closed_form",
    "crt_general",
    "crt_pair_merge",
    "folding_oracle",
    "fused_error_bound",
    "minimal_covers",
    "mod_inverse",
    "parse_tree",
    "per_group_reference_bounds",
    "per_remainder_bounds",
    "propose_grouping",
    "prune_redundant",
    "reconstruct_tree",
    "reconstruct_two_stage",
    "remainders_of",
    "render_proposal",
    "round_half_up",
    "round_half_up_div",
    "run_trials",
    "select_reference",
    "solve_folding",
    "stage_bounds",
    "stats_to_csv",
    "sweep",
    "theta_bound",
    "tree_leaves",
    "tree_to_nested",
    "validate_moduli",
    "validate_tree",
    "verify_exactness_condition",
]
