"""Translation of second-order problems into substitution-only problems.

The pipeline has three legs:

* tagging each metavariable occurrence with the shift of its binder depth,
  so that grafting becomes sound ("precooking"); a valid problem is its own
  precooked form, so every verdict, after ``require_valid``, reads the sides
  as written;
* the lifting substitution, which trades every unknown of arrow type for a
  fresh unknown of atomic type living in an extended context, together with
  a certificate recording the correspondence; ``reduce_problem`` grafts it
  into the closure-free or precooked sides of a valid problem and
  normalizes with ``rewrite.normalize_graft``, contracting Beta only where
  a lifting image meets its arguments;
* transport of solutions across the certificate, in both directions.

``validate_reduced_problem`` checks the paper's Remark on the shape of the
output.  Once both sides sort-check, the checker has matched the entries
and shift of every closure X[c1...cp . ^n] to X's declared context; what is
left (cons-then-shift form, a declared X, no more entries than its context,
first-order entry types) is read off the syntax in one scan.

``check_graft_agreement`` is the executable form of the fact the reduction
rests on: grafting a simple substitution into a term whose metavariable
closures only carry first-order cons entries never creates a beta redex, so
the full normal form and the substitution-only normal form coincide.
"""

from __future__ import annotations

from .records import Record
from .rewrite import (
    DEFAULT_FUEL,
    normalize_graft,
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
    sort_check_term,
    validate_problem,
)
from .terms import (
    App,
    Closure,
    Cons,
    EqMode,
    Index,
    Lam,
    Meta,
    MetaSubst,
    Shift,
    Subst,
    Term,
    free_metavars,
    graft,
    is_simple_subst,
    subterms,
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


def require_valid(p: UnifProblem, mode: EqMode, caller: str) -> None:
    """The pre-check before every verdict on a problem: raise ValueError
    unless p is in the mode `caller` expects, and InvalidProblem unless it
    passes validate_problem.

    A problem that passed is validated again only once its fields no
    longer compare equal to its snapshot, so a search operation validates
    each problem object at most once.  A problem that fails is never
    remembered, and is reported afresh each time."""
    if p.mode is not mode:
        kind = "substitution-only" if mode is EqMode.SIGMA_ONLY else "full-equality"
        raise ValueError(f"{caller} expects a {kind} problem")
    if _known(p) is None:
        report = validate_problem(p)
        if not report.ok:
            raise InvalidProblem(report)
        _remember(p, False)


def _known(p: UnifProblem) -> bool | None:
    """None unless p has a snapshot its fields still compare equal to;
    then whether the snapshot records the sides as their own normal forms
    in p's equality.

    Validity and normal forms are functions of the field values, and a
    snapshot cannot change with them: the terms, sorts and types are
    frozen, ``ctx`` is kept as a tuple and ``metavars`` as a copy of the
    dict (a ctx of another type, copied, never compares equal again).  So
    reassigning a field to a different value, or editing a declaration,
    drops what was known, and the next check validates again."""
    known = p._valid_as
    if known is None or known[0] != (p.base_types, p.ctx, p.metavars, p.lhs, p.rhs, p.mode):
        return None
    return known[1]


def _remember(p: UnifProblem, normal: bool) -> None:
    p._valid_as = (p.base_types, tuple(p.ctx), dict(p.metavars), p.lhs, p.rhs, p.mode), normal


def known_normal_sides(p: UnifProblem) -> tuple[Term, Term] | None:
    """p's sides if p's snapshot records them as their own normal forms in
    p's equality and p's fields still compare equal to it, else None.  A
    snapshot that records nothing about the sides is not compared, so a
    problem validated but never searched pays no comparison here."""
    known = p._valid_as
    if known is None or not known[1] or not _known(p):
        return None
    return p.lhs, p.rhs


def normal_sides(p: UnifProblem, fuel: int) -> tuple[Term, Term]:
    """The normal forms of p's sides in p's equality: known_normal_sides's,
    if it has them, else normalize_graft's, recorded in a current snapshot
    if they equal the sides.  Only that is ever recorded, so no result
    depends on earlier calls: normalizing a normal form charges no rule
    instance, and other sides are normalized every time."""
    sides = known_normal_sides(p)
    if sides is not None:
        return sides
    sides = normalize_graft({}, p.lhs, p.mode, fuel), normalize_graft({}, p.rhs, p.mode, fuel)
    if sides == (p.lhs, p.rhs) and _known(p) is False:
        p._valid_as = p._valid_as[0], True
    return sides


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


def _cook(p: UnifProblem) -> tuple[Term, Term]:
    """precook's walk over both sides.  It keeps a closure only where it
    would write that closure itself, an unknown under the shift of its
    binder depth, so precooking its own output changes nothing; any other
    closure is the error reported, whatever else fails, so the walk reports
    the other errors only once it is done."""
    errors: list[str] = []

    def shift(name: str, depth: int) -> int:
        """The shift precook closes an occurrence of name at depth over; an
        undeclared unknown or one outside its context records an error."""
        sort = p.metavars.get(name)
        if sort is None:
            errors.append(f"undeclared metavariable {name}")
            return -1
        k = depth - (len(sort.ctx) - len(p.ctx))
        if k < 0:
            errors.append(f"metavariable {name} occurs outside its declared context")
        return k

    def go(t: Term, depth: int) -> Term:
        tp = type(t)
        if tp is App:
            return App(go(t.fun, depth), go(t.arg, depth))
        if tp is Index:
            return t
        if tp is Meta:
            k = shift(t.name, depth)
            return t if k <= 0 else Closure(t, Shift(k))
        if tp is Lam:
            return Lam(go(t.body, depth + 1))
        if tp is Closure:
            body, subst = t.body, t.subst
            if type(body) is Meta and type(subst) is Shift and subst.k > 0 and subst.k == shift(body.name, depth):
                return t
            raise ValueError("precooking requires closure-free sides")
        raise TypeError(f"not a lambda-syntax term: {t!r}")

    cooked = go(p.lhs, 0), go(p.rhs, 0)
    if errors:
        raise ValueError(errors[0])
    return cooked


def _require_closure_free(p: UnifProblem) -> None:
    """Raise ValueError if a side holds a closure other than precook's own,
    an unknown under a shift."""
    for side in (p.lhs, p.rhs):
        for node in subterms(side):
            if type(node) is Closure and not (type(node.body) is Meta and type(node.subst) is Shift):
                raise ValueError("precooking requires closure-free sides")


def precook(p: UnifProblem) -> UnifProblem:
    """Close each metavariable occurrence over the shift of the binders
    between it and the context the unknown is declared in.

    Requires lambda syntax in full-equality mode.  An unknown declared in
    the problem context is shifted by its binder depth; one declared
    ``:ctx`` in an extension by n binders is shifted n less, and stays bare
    where no binder lies between.  The only closure it takes is one it
    would write, an unknown under exactly that shift, which it keeps, so
    precooking a precooked problem returns it unchanged.

    A valid problem is its own precooked form: the sort check requires a
    bare X under d binders to be declared in the problem context extended
    by those d binders, so k = d - d = 0 at every occurrence.  Precooking
    makes a valid problem of one that places an unknown under binders.
    """
    if p.mode is not EqMode.LAMBDA_SIGMA:
        raise ValueError("precooking applies to full-equality problems only")
    lhs, rhs = _cook(p)
    return UnifProblem(p.base_types, p.ctx, dict(p.metavars), lhs, rhs, p.mode)


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


def build_lifting_subst(
    p: UnifProblem,
) -> tuple[dict[str, Term], dict[str, tuple[str, int]], dict[str, Sort]]:
    """Bind every declared unknown of arity n to n binders over a fresh
    unknown of atomic type: the bindings, the certificate's var_map (each
    unknown's fresh replacement and arity) and the fresh unknowns' sorts.

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
    return bindings, var_map, fresh_sorts


def reduce_problem(p: UnifProblem, fuel: int = DEFAULT_FUEL) -> ReductionCertificate:
    """Produce the substitution-only image of a valid second-order problem
    in full equality.

    The sides must be closure-free, or precooked: the only closures they
    may hold are unknowns under a shift, as precook writes them.  A valid
    problem is its own precooked form, so the lifting substitution is
    grafted into each side as written and the result fully normalized by
    normalize_graft: each image lam...lam Y' meets the arguments of the
    unknown it replaces (X, or X[^n]) and leaves Y'[a_m ... a_1 . ^n],
    with Beta contracted only there and the substitution rules doing the
    rest.
    The target is to be solved modulo the substitution rules.  fuel bounds
    the substitution rule instances of each side's normalization, and the
    stepper's steps too when a side has a higher-order redex of its own,
    such as (lam f. f c) X.

    The target is valid from birth, so it is remembered as validated:
    - it keeps the source's ctx, so its context stays second order;
    - its unknowns are the fresh ones, each atomic, so of order 1, with
      context reversed(args) + ctx of the unknown it replaces; that
      unknown's type has order at most 2, so its args are first order,
      and its context is second order; under ^n, Y' keeps that context;
    - normalization preserves sorts, so both sides keep the source's
      common type, which is atomic;
    - the lifting images mention only fresh unknowns, so every unknown
      that occurs is declared.
    Criterion 5 and ``test_reduce_outputs_validate`` check this.  The
    snapshot records its sides as normal forms too.
    """
    require_valid(p, EqMode.LAMBDA_SIGMA, "reduce_problem")
    lifting, var_map, fresh_metavars = build_lifting_subst(p)
    _require_closure_free(p)
    target = UnifProblem(
        base_types=p.base_types,
        ctx=p.ctx,
        metavars=fresh_metavars,
        lhs=normalize_graft(lifting, p.lhs, EqMode.LAMBDA_SIGMA, fuel),
        rhs=normalize_graft(lifting, p.rhs, EqMode.LAMBDA_SIGMA, fuel),
        mode=EqMode.SIGMA_ONLY,
    )
    _remember(target, True)
    return ReductionCertificate(var_map, p, target)


def decompose_cons_shift(s: Subst) -> tuple[list[Term], int] | None:
    """Split a substitution into its cons entries and final shift, or None
    if a composition blocks the decomposition."""
    heads: list[Term] = []
    while type(s) is Cons:
        heads.append(s.head)
        s = s.tail
    if type(s) is Shift:
        return heads, s.k
    return None


def _add_remark_entries(report: ValidationReport, ctx, metavars: dict[str, Sort], sides) -> None:
    """Add to report what the Remark on the reduction's output asks and the
    sort check does not give: a second-order context, atomic unknowns with
    second-order contexts, and a scan of every closure X[s] over an unknown
    in each (where, term) side.

    Once a side sort-checks, the checker has typed each X[c1...cp . ^n] in
    the context G it occurs in: it infers each c_i, of type t_i, and demands
    that X's declared context equal the closure's target (t1...tp).G[n:].
    That proves the shift stays inside G, that X's context extends G[n:] by
    p entries, and that each entry has its declared type.  What is left is
    syntax and declarations, with no context to track: the substitution is
    cons-then-shift, X is declared, X has no more entries than its context,
    and the declared entry types are first order.  A plain shift X[^n] has
    no entries, so nothing is left to check of it.  The scan runs whether
    or not the sides sort-check; the entry count guards the lookup of the
    declared entry types.
    """
    report.add("context-second-order", check_second_order_context(ctx))

    non_atomic = [x for x, sort in metavars.items() if type(sort.ty) is not Base]
    report.add(
        "metavar-types-atomic",
        not non_atomic,
        "" if not non_atomic else f"non-atomic: {', '.join(sorted(non_atomic))}",
    )

    bad_ctx = [x for x, sort in metavars.items() if not check_second_order_context(sort.ctx)]
    report.add(
        "metavar-contexts-second-order",
        not bad_ctx,
        "" if not bad_ctx else f"not second order: {', '.join(sorted(bad_ctx))}",
    )

    before = len(report.entries)
    for where, t in sides:
        for node in subterms(t):
            if type(node) is not Closure or type(node.body) is not Meta:
                continue
            name = node.body.name
            split = decompose_cons_shift(node.subst)
            sort = metavars.get(name)
            if split is None:
                flaw = f"closure of {name} is not in cons-then-shift form"
            elif not split[0]:
                continue
            elif sort is None:
                flaw = f"undeclared metavariable {name}"
            elif len(split[0]) > len(sort.ctx):
                flaw = f"closure of {name} has more entries than its context"
            else:
                for i, ty in enumerate(sort.ctx[: len(split[0])]):
                    if order_of_type(ty) != 1:
                        report.add(
                            "closure-args-first-order",
                            False,
                            f"{where}: entry {i + 1} of {name}'s closure has type "
                            f"{render_type(ty)} of order {order_of_type(ty)}",
                        )
                continue
            report.add("closure-shape", False, f"{where}: {flaw}")
    if len(report.entries) == before:
        report.add("closure-shape", True)
        report.add("closure-args-first-order", True)


def validate_reduced_problem(cert: ReductionCertificate) -> ValidationReport:
    """Check a reduction's target against the Remark on its shape: both
    sides sort-check at a common type in a second-order context, the
    unknowns are atomic with second-order contexts, and every closure
    X[c1...cp . ^n] over an unknown is cons-then-shift with first-order
    entries.  The sort check implies that each closure's entries and shift
    match X's declared context; _add_remark_entries scans for the rest."""
    p = cert.target
    report = ValidationReport()

    try:
        ty = equation_type(p)
        report.add("sides-sort-check", True, f"common type {render_type(ty)}")
    except IllTyped as err:
        report.add("sides-sort-check", False, str(err))

    _add_remark_entries(report, p.ctx, p.metavars, (("lhs", p.lhs), ("rhs", p.rhs)))
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

    occurring = free_metavars(a)
    shape = ValidationReport()
    _add_remark_entries(shape, ctx, {x: metavars[x] for x in occurring}, (("term", a),))
    failed = [f"{e.name} {e.detail}".rstrip() for e in shape.entries if not e.ok]
    if failed:
        raise PreconditionViolated("; ".join(failed))

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
