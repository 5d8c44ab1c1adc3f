"""Workbench for a lambda calculus with explicit substitutions.

Normalization under the substitution rules with or without Beta, reduction
of second-order unification problems to substitution-only ones, bounded
unifier search, and an s-expression problem format with a CLI.
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
    SIGMA_RULES,
    lambda_sigma_equal,
    normalize_lambda_sigma,
    normalize_sigma,
    normalize_traced,
    replay_trace,
    sigma_equal,
    step,
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
    match_sigma,
    solve_sigma,
)
