"""Translation of second-order problems into substitution-only problems.

The pipeline has three legs:

* tagging each metavariable occurrence with the shift of its binder depth,
  so that grafting becomes sound ("precooking");
* the lifting substitution, which trades every unknown of arrow type for a
  fresh unknown of atomic type living in an extended context, together with
  a certificate recording the correspondence;
* transport of solutions across the certificate, in both directions.

``check_graft_agreement`` is the executable form of the fact the reduction
rests on: grafting a simple substitution into a term whose metavariable
closures only carry first-order cons entries never creates a beta redex, so
the full normal form and the substitution-only normal form coincide.
"""

from __future__ import annotations

from .records import Record
from .rewrite import (
    DEFAULT_FUEL,
    normalize_lambda_sigma,
    normalize_sigma,
)
from .sorts import (
    Base,
    IllTyped,
    Sort,
    UnifProblem,
    ValidationReport,
    argument_types,
    check_second_order_context,
    equation_type,
    order_of_type,
    render_type,
    result_base,
    sort_check_subst,
    sort_check_term,
    validate_problem,
)
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
    contains,
    free_metavars,
    graft,
    is_simple_subst,
)


class OrderTooHigh(Exception):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"metavariable {name} has a type of order above 2")


class UnknownMeta(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class PreconditionViolated(Exception):
    pass


class InvalidProblem(Exception):
    def __init__(self, report: ValidationReport):
        self.report = report
        failed = ", ".join(e.name for e in report.entries if not e.ok)
        super().__init__(f"problem fails validation: {failed}")


class ReductionCertificate(Record):
    """Links a source problem to its substitution-only image.

    var_map sends each original metavariable to its fresh replacement and
    the replacement's arity (the number of binders traded away).
    """

    __slots__ = ("var_map", "source", "target")

    def __init__(self, var_map: dict[str, tuple[str, int]], source: UnifProblem, target: UnifProblem):
        self.var_map = var_map
        self.source = source
        self.target = target


def precook(p: UnifProblem) -> UnifProblem:
    """Close each metavariable occurrence over the shift of the binders
    between it and the context the unknown is declared in.

    Requires plain lambda syntax (no closures) in full-equality mode.  An
    unknown declared in the problem context is shifted by its binder depth;
    one declared ``:ctx`` in an extension by n binders is shifted n less,
    and stays bare where no binder lies between.
    """
    if p.mode is not EqMode.LAMBDA_SIGMA:
        raise ValueError("precooking applies to full-equality problems only")
    if contains(p.lhs, Closure) or contains(p.rhs, Closure):
        raise ValueError("precooking requires closure-free sides")

    def go(t: Term, depth: int) -> Term:
        tp = type(t)
        if tp is App:
            return App(go(t.fun, depth), go(t.arg, depth))
        if tp is Index:
            return t
        if tp is Meta:
            name = t.name
            if name not in p.metavars:
                raise ValueError(f"undeclared metavariable {name}")
            k = depth - (len(p.metavars[name].ctx) - len(p.ctx))
            if k < 0:
                raise ValueError(f"metavariable {name} occurs outside its declared context")
            return t if k == 0 else Closure(t, Shift(k))
        if tp is Lam:
            return Lam(go(t.body, depth + 1))
        raise TypeError(f"not a lambda-syntax term: {t!r}")

    return UnifProblem(
        base_types=p.base_types,
        ctx=p.ctx,
        metavars=dict(p.metavars),
        lhs=go(p.lhs, 0),
        rhs=go(p.rhs, 0),
        mode=p.mode,
    )


class CertificateStub(Record):
    __slots__ = ("var_map", "fresh_metavars")

    def __init__(self, var_map: dict[str, tuple[str, int]], fresh_metavars: dict[str, Sort]):
        self.var_map = var_map
        self.fresh_metavars = fresh_metavars


def _fresh_names(taken: set[str], originals: list[str]) -> dict[str, str]:
    names: dict[str, str] = {}
    counter = 1
    used = set(taken)
    for x in originals:
        while f"{x}'{counter}" in used:
            counter += 1
        fresh = f"{x}'{counter}"
        names[x] = fresh
        used.add(fresh)
        counter += 1
    return names


def build_lifting_subst(p: UnifProblem) -> tuple[MetaSubst, CertificateStub]:
    """Bind every declared unknown of arity n to n binders over a fresh
    unknown of atomic type.

    The fresh unknown lives in the declaring context extended by the
    argument types, innermost binder first, and has the stripped base type.
    """
    fresh = _fresh_names(set(p.metavars), list(p.metavars))
    bindings: dict[str, Term] = {}
    var_map: dict[str, tuple[str, int]] = {}
    fresh_sorts: dict[str, Sort] = {}
    for x, sort in p.metavars.items():
        if order_of_type(sort.ty) > 2:
            raise OrderTooHigh(x)
        args = argument_types(sort.ty)
        n = len(args)
        y = fresh[x]
        body: Term = Meta(y)
        for _ in range(n):
            body = Lam(body)
        bindings[x] = body
        var_map[x] = (y, n)
        fresh_sorts[y] = Sort(tuple(reversed(args)) + sort.ctx, result_base(sort.ty))
    return MetaSubst(bindings), CertificateStub(var_map, fresh_sorts)


def reduce_problem(p: UnifProblem, fuel: int = DEFAULT_FUEL) -> ReductionCertificate:
    """Produce the substitution-only image of a valid second-order problem
    in full equality.

    Each side is precooked, grafted with the lifting substitution, and fully
    normalized; the target equation is then to be solved modulo the
    substitution rules alone.
    """
    if p.mode is not EqMode.LAMBDA_SIGMA:
        raise ValueError("reduce_problem expects a full-equality problem")
    report = validate_problem(p)
    if not report.ok:
        raise InvalidProblem(report)

    cooked = precook(p)
    lifting, stub = build_lifting_subst(p)
    lhs = normalize_lambda_sigma(graft(lifting, cooked.lhs), fuel)
    rhs = normalize_lambda_sigma(graft(lifting, cooked.rhs), fuel)
    target = UnifProblem(
        base_types=p.base_types,
        ctx=p.ctx,
        metavars=stub.fresh_metavars,
        lhs=lhs,
        rhs=rhs,
        mode=EqMode.SIGMA_ONLY,
    )
    return ReductionCertificate(stub.var_map, p, target)


def decompose_cons_shift(s: Subst) -> tuple[list[Term], int] | None:
    """Split a substitution into its cons entries and final shift, or None
    if a composition blocks the decomposition."""
    heads: list[Term] = []
    while isinstance(s, Cons):
        heads.append(s.head)
        s = s.tail
    if isinstance(s, Shift):
        return heads, s.k
    return None


def _closure_shape_violations(
    ctx,
    metavars: dict[str, Sort],
    t: Term,
    report: ValidationReport,
    where: str,
) -> None:
    """Walk a term, checking every metavariable closure for the shape
    c_1 ... c_p . ^n with first-order entries matching the declared sort."""

    def walk_term(node: Term, local_ctx) -> None:
        tp = type(node)
        if tp is App:
            walk_term(node.fun, local_ctx)
            walk_term(node.arg, local_ctx)
        elif tp is Closure:
            body, subst = node.body, node.subst
            if type(body) is Meta:
                check_meta_closure(body.name, subst, local_ctx)
            else:
                try:
                    target = sort_check_subst(local_ctx, metavars, subst)
                except IllTyped as err:
                    report.add("closure-shape", False, f"{where}: {err}")
                    return
                walk_term(body, target)
            walk_subst(subst, local_ctx)
        elif tp is Lam:
            report.add(
                "closure-shape",
                False,
                f"{where}: binder without a domain blocks the walk",
            )

    def walk_subst(node: Subst, local_ctx) -> None:
        tp = type(node)
        if tp is Cons:
            walk_term(node.head, local_ctx)
            walk_subst(node.tail, local_ctx)
        elif tp is Comp:
            walk_subst(node.second, local_ctx)
            try:
                mid = sort_check_subst(local_ctx, metavars, node.second)
            except IllTyped:
                return
            walk_subst(node.first, mid)

    def check_meta_closure(name: str, subst: Subst, local_ctx) -> None:
        if isinstance(subst, Shift):
            return
        decomposed = decompose_cons_shift(subst)
        if decomposed is None:
            report.add(
                "closure-shape",
                False,
                f"{where}: closure of {name} is not in cons-then-shift form",
            )
            return
        heads, n = decomposed
        sort = metavars.get(name)
        if sort is None:
            report.add("closure-shape", False, f"{where}: undeclared metavariable {name}")
            return
        if (
            n > len(local_ctx)
            or len(sort.ctx) != len(heads) + len(local_ctx) - n
            or sort.ctx[len(heads):] != local_ctx[n:]
        ):
            report.add(
                "closure-shape",
                False,
                f"{where}: closure of {name} does not match its declared context",
            )
            return
        for i, head in enumerate(heads):
            expected = sort.ctx[i]
            if order_of_type(expected) != 1:
                report.add(
                    "closure-args-first-order",
                    False,
                    f"{where}: entry {i + 1} of {name}'s closure has type "
                    f"{render_type(expected)} of order {order_of_type(expected)}",
                )
            try:
                sort_check_term(local_ctx, metavars, head, expected=expected)
            except IllTyped as err:
                report.add(
                    "closure-shape",
                    False,
                    f"{where}: entry {i + 1} of {name}'s closure: {err}",
                )

    walk_term(t, ctx)


def validate_reduced_problem(cert: ReductionCertificate) -> ValidationReport:
    """Shape checks on a reduction's target problem: second-order context,
    atomic metavariables, and first-order entries in every metavariable
    closure."""
    p = cert.target
    report = ValidationReport()

    try:
        ty = equation_type(p)
        report.add("sides-sort-check", True, f"common type {render_type(ty)}")
    except IllTyped as err:
        report.add("sides-sort-check", False, str(err))

    report.add("context-second-order", check_second_order_context(p.ctx))

    non_atomic = [x for x, sort in p.metavars.items() if not isinstance(sort.ty, Base)]
    report.add(
        "metavar-types-atomic",
        not non_atomic,
        "" if not non_atomic else f"non-atomic: {', '.join(sorted(non_atomic))}",
    )

    bad_ctx = [x for x, sort in p.metavars.items() if not check_second_order_context(sort.ctx)]
    report.add(
        "metavar-contexts-second-order",
        not bad_ctx,
        "" if not bad_ctx else f"not second order: {', '.join(sorted(bad_ctx))}",
    )

    before = len(report.entries)
    _closure_shape_violations(p.ctx, p.metavars, p.lhs, report, "lhs")
    _closure_shape_violations(p.ctx, p.metavars, p.rhs, report, "rhs")
    if len(report.entries) == before:
        report.add("closure-shape", True)
        report.add("closure-args-first-order", True)

    return report


def lift_solution(cert: ReductionCertificate, theta_target: MetaSubst) -> MetaSubst:
    """Send a target solution back to the source: wrap each binding in the
    binders its certificate entry traded away."""
    inverse = {y: (x, n) for x, (y, n) in cert.var_map.items()}
    bindings: dict[str, Term] = {}
    for y, term in theta_target.items():
        if y not in inverse:
            raise UnknownMeta(f"{y} is not a fresh metavariable of this certificate")
        x, n = inverse[y]
        lifted = term
        for _ in range(n):
            lifted = Lam(lifted)
        bindings[x] = lifted
    return MetaSubst(bindings)


def project_solution(cert: ReductionCertificate, theta_source: MetaSubst) -> MetaSubst:
    """Send a source solution to the target by stripping the traded binders."""
    bindings: dict[str, Term] = {}
    for x, term in theta_source.items():
        if x not in cert.var_map:
            raise UnknownMeta(f"{x} is not a metavariable of this certificate's source")
        y, n = cert.var_map[x]
        core = term
        for i in range(n):
            if not isinstance(core, Lam):
                raise ShapeMismatch(
                    f"binding for {x} has {i} leading binder(s), expected {n}"
                )
            core = core.body
        bindings[y] = core
    return MetaSubst(bindings)


def check_graft_agreement(
    ctx,
    metavars: dict[str, Sort],
    a: Term,
    theta: MetaSubst,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Compare the full and substitution-only normal forms of theta grafted
    into a.

    Preconditions mirror the shape the reduction produces: a is normal and
    atomic in a second-order context, its metavariables are atomic with
    second-order contexts, every metavariable closure carries first-order
    entries, and theta is simple with normal, well-sorted bindings.  Under
    these the two normal forms always coincide.
    """
    try:
        ty = sort_check_term(ctx, metavars, a)
    except IllTyped as err:
        raise PreconditionViolated(f"term does not sort-check: {err}") from err
    if not isinstance(ty, Base):
        raise PreconditionViolated(f"term type {render_type(ty)} is not atomic")
    if normalize_lambda_sigma(a, fuel) != a:
        raise PreconditionViolated("term is not in normal form")
    if not check_second_order_context(ctx):
        raise PreconditionViolated("context is not second order")

    occurring = free_metavars(a)
    for name in sorted(occurring):
        sort = metavars.get(name)
        if sort is None:
            raise PreconditionViolated(f"undeclared metavariable {name}")
        if not isinstance(sort.ty, Base):
            raise PreconditionViolated(f"metavariable {name} is not of atomic type")
        if not check_second_order_context(sort.ctx):
            raise PreconditionViolated(f"context of metavariable {name} is not second order")

    shape_report = ValidationReport()
    _closure_shape_violations(ctx, metavars, a, shape_report, "term")
    if not shape_report.ok:
        raise PreconditionViolated(
            "; ".join(e.detail for e in shape_report.entries if not e.ok)
        )

    if not is_simple_subst(theta):
        raise PreconditionViolated("substitution is not simple")
    for name, term in theta.items():
        if name not in occurring:
            continue
        sort = metavars[name]
        try:
            sort_check_term(sort.ctx, metavars, term, expected=sort.ty)
        except IllTyped as err:
            raise PreconditionViolated(f"binding for {name} is ill-sorted: {err}") from err
        if normalize_lambda_sigma(term, fuel) != term:
            raise PreconditionViolated(f"binding for {name} is not in normal form")

    grafted = graft(theta, a)
    return normalize_lambda_sigma(grafted, fuel) == normalize_sigma(grafted, fuel)
