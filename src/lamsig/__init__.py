"""Workbench for a lambda calculus with explicit substitutions.

Normalization under the substitution rules with or without Beta, reduction
of second-order unification problems to substitution-only ones, bounded
unifier search, and an s-expression problem format with a CLI.

The imports below are the package's public surface.  A public name that no
other module uses stays only if it is imported here.
"""

from .terms import (
    App,
    Closure,
    Comp,
    Cons,
    EqMode,
    Index,
    Lam,
    Meta,
    MetaSubst,
    Shift,
    Subst,
    Term,
    canonicalize_shifts,
    free_metavars,
    graft,
    is_simple,
    is_simple_subst,
    term_size,
)
from .sorts import (
    Arrow,
    Base,
    Context,
    IllTyped,
    SimpleType,
    Sort,
    UnannotatedBinder,
    UnifProblem,
    ValidationReport,
    check_second_order_context,
    order_of_type,
    sort_check_subst,
    sort_check_term,
    validate_problem,
)
from .rewrite import (
    DEFAULT_FUEL,
    FuelExhausted,
    LEFTMOST_OUTERMOST,
    RandomizedPosition,
    RewriteTrace,
    RuleId,
    lambda_sigma_equal,
    normalize_graft,
    normalize_lambda_sigma,
    normalize_sigma,
    normalize_traced,
    replay_trace,
    sigma_equal,
    step,
    to_pure_indices,
)
from .surface import (
    ProblemFile,
    parse_problem,
    parse_subst_file,
    render_problem,
    render_subst,
)
from .transform import (
    InvalidProblem,
    OrderTooHigh,
    PreconditionViolated,
    ReductionCertificate,
    ShapeMismatch,
    UnknownMeta,
    build_lifting_subst,
    check_graft_agreement,
    lift_solution,
    precook,
    project_solution,
    reduce_problem,
    validate_reduced_problem,
)
from .solver import (
    Aborted,
    ExhaustedNoSolution,
    SearchConfig,
    SearchOutcome,
    Solved,
    check_solution,
    decide_small_lambda,
    enumerate_simple_terms,
    solve_sigma,
)
