"""Simple types, contexts, sorts and sort checking for the term language.

A context is a tuple of types with position 0 holding the type of index 1
(the most recently bound variable).  A metavariable's sort pairs the context
it was declared in with its type; metavariables are context-rigid and only
sort-check in exactly their declared context.

Lambda nodes carry no domain annotation, so pure inference cannot type every
lambda.  The checker is therefore one bidirectional walk, ``_walk``, whose
expected type is None when it infers: inference handles index spines,
metavariables, closures, and beta redexes whose argument is inferable, and
an expected type is carried down to the binders that need it.
``sort_check_term`` runs it either way.  ``binder_domains`` returns the
domain the walk gives each lambda: the printer writes binder annotations
from it, so this module alone decides how a binder is typed.
"""

from __future__ import annotations

from .records import FrozenRecord, Record
from .terms import (
    App,
    Closure,
    Comp,
    Cons,
    EqMode,
    Index,
    Lam,
    Meta,
    Shift,
    Subst,
    Term,
    free_metavars,
)


class Base(FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Arrow(FrozenRecord):
    __slots__ = ("dom", "cod")

    def __init__(self, dom: SimpleType, cod: SimpleType):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)


SimpleType = Base | Arrow
Context = tuple[SimpleType, ...]


class Sort(FrozenRecord):
    __slots__ = ("ctx", "ty")

    def __init__(self, ctx: Context, ty: SimpleType):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ty", ty)


class IllTyped(Exception):
    """Raised when a term or substitution fails to sort-check."""

    def __init__(self, reason: str, path: tuple[int, ...] = ()):
        self.reason = reason
        self.path = path
        at = ".".join(map(str, path)) if path else "root"
        super().__init__(f"{reason} (at {at})")


class UnannotatedBinder(IllTyped):
    """A binder met in inference position: its domain is not written down.

    Application nodes recover from this by inferring the argument first, so
    redexes that rewriting creates (a binder under a closure in function
    position) stay checkable."""


def order_of_type(ty: SimpleType) -> int:
    """Order 1 for base types, max(order(dom)+1, order(cod)) for arrows."""
    order = 1
    while type(ty) is Arrow:
        dom = order_of_type(ty.dom) + 1
        if dom > order:
            order = dom
        ty = ty.cod
    if type(ty) is not Base:
        raise TypeError(f"not a type: {ty!r}")
    return order


def check_second_order_context(ctx: Context) -> bool:
    for ty in ctx:
        if order_of_type(ty) > 2:
            return False
    return True


def argument_types(ty: SimpleType) -> tuple[SimpleType, ...]:
    args = []
    while isinstance(ty, Arrow):
        args.append(ty.dom)
        ty = ty.cod
    return tuple(args)


def result_base(ty: SimpleType) -> SimpleType:
    while isinstance(ty, Arrow):
        ty = ty.cod
    return ty


def sort_check_term(
    ctx: Context,
    metavars: dict[str, Sort],
    t: Term,
    expected: SimpleType | None = None,
    path: tuple[int, ...] = (),
) -> SimpleType:
    """Return the type of t in ctx, or raise IllTyped.

    With ``expected`` given the check runs bidirectionally, which is the only
    way to type a lambda whose domain is not forced by an application.
    """
    return _walk(ctx, metavars, {}, t, expected, path)


def binder_domains(ctx: Context, metavars: dict[str, Sort], t: Term, ty: SimpleType) -> list[SimpleType]:
    """Check t against ty and return the domain the check gives each binder,
    in reading order (the order printing and ``parse_term`` meet binders).

    The walk records each domain in ``domains`` under the binder's
    path.  Sorted paths are reading order; visit order is not, since an
    application whose function is a binder infers its argument first.  A
    retried walk overwrites what an abandoned one recorded.
    """
    domains: dict[tuple[int, ...], SimpleType] = {}
    _walk(ctx, metavars, domains, t, ty, ())
    return _reading_order(domains)


def _reading_order(domains: dict[tuple[int, ...], SimpleType]) -> list[SimpleType]:
    return [domains[path] for path in sorted(domains)]


def _walk(ctx, metavars, domains, t, expected, path) -> SimpleType:
    """The type of t in ctx: inferred when ``expected`` is None, checked
    against ``expected`` otherwise.

    Only a binder needs the expected type, so checking passes it down
    through binders, closures and applied binders, and any other node
    checks as it infers: a leaf is inferred at the same path and compared,
    an application's result is compared at the application."""
    tp = type(t)
    if tp is Closure:
        target = _check_subst(ctx, metavars, domains, t.subst, path + (1,))
        return _walk(target, metavars, domains, t.body, expected, path + (0,))
    if tp is Lam:
        if expected is None:
            raise UnannotatedBinder("cannot infer the domain of an unapplied binder", path)
        if type(expected) is not Arrow:
            raise IllTyped("binder checked against a non-arrow type", path)
        domains[path] = expected.dom
        _walk((expected.dom,) + ctx, metavars, domains, t.body, expected.cod, path + (0,))
        return expected
    if tp is App:
        try:
            fun_ty = _walk(ctx, metavars, domains, t.fun, None, path + (0,))
        except UnannotatedBinder as err:
            # redex: the argument fixes the binder's domain
            arg_ty = _walk(ctx, metavars, domains, t.arg, None, path + (1,))
            return _applied_binder(ctx, metavars, domains, t.fun, arg_ty, expected, path + (0,), err)
        if type(fun_ty) is not Arrow:
            raise IllTyped("application head is not of arrow type", path)
        _walk(ctx, metavars, domains, t.arg, fun_ty.dom, path + (1,))
        got = fun_ty.cod
    elif expected is not None:
        got = _walk(ctx, metavars, domains, t, None, path)
    elif tp is Index:
        n = t.n
        if n > len(ctx):
            raise IllTyped(f"index {n} out of range for context of length {len(ctx)}", path)
        return ctx[n - 1]
    elif tp is Meta:
        name = t.name
        sort = metavars.get(name)
        if sort is None:
            raise IllTyped(f"undeclared metavariable {name}", path)
        if sort.ctx != ctx:
            raise IllTyped(f"metavariable {name} used outside its declared context", path)
        return sort.ty
    else:
        raise TypeError(f"not a term: {t!r}")
    if expected is not None and got is not expected and got != expected:
        raise IllTyped(f"expected {render_type(expected)}, found {render_type(got)}", path)
    return got


def _applied_binder(ctx, metavars, domains, fun, arg_ty, expected, path, err) -> SimpleType:
    """The walk of `fun` applied to an argument of type arg_ty: the argument
    fixes the domain of the binder `fun` is, or of the one under its
    closures, and the binder's body is walked with ``expected`` as is, so
    nested binders stay in checking mode.

    `err` is the UnannotatedBinder that inferring `fun` in ctx raised: only
    that failure sends an application here.  A closure's substitution is
    checked in the same context as before and its body is what failed to
    infer, so any other `fun` fails again with `err`."""
    tp = type(fun)
    if tp is Lam:
        domains[path] = arg_ty
        return _walk((arg_ty,) + ctx, metavars, domains, fun.body, expected, path + (0,))
    if tp is Closure:
        target = _check_subst(ctx, metavars, domains, fun.subst, path + (1,))
        return _applied_binder(target, metavars, domains, fun.body, arg_ty, expected, path + (0,), err)
    raise err


def sort_check_subst(
    ctx: Context,
    metavars: dict[str, Sort],
    s: Subst,
    path: tuple[int, ...] = (),
) -> Context:
    """Return the context a closure body must live in for Closure(body, s)
    to sort-check in ctx."""
    return _check_subst(ctx, metavars, {}, s, path)


def _check_subst(ctx, metavars, domains, s, path) -> Context:
    tp = type(s)
    if tp is Shift:
        k = s.k
        if k > len(ctx):
            raise IllTyped(f"shift {k} exceeds context of length {len(ctx)}", path)
        return ctx[k:]
    if tp is Cons:
        head_ty = _walk(ctx, metavars, domains, s.head, None, path + (0,))
        target = _check_subst(ctx, metavars, domains, s.tail, path + (1,))
        return (head_ty,) + target
    if tp is Comp:
        mid = _check_subst(ctx, metavars, domains, s.second, path + (1,))
        return _check_subst(mid, metavars, domains, s.first, path + (0,))
    raise TypeError(f"not a substitution: {s!r}")


def render_type(ty: SimpleType) -> str:
    tp = type(ty)
    if tp is Base:
        return ty.name
    if tp is Arrow:
        return f"(-> {render_type(ty.dom)} {render_type(ty.cod)})"
    raise TypeError(f"not a type: {ty!r}")


# --- unification problems ------------------------------------------------


class _Validated:
    """A slot outside a record's fields, so that equality, repr, hashing,
    copying and ``match`` never see what is kept in it."""

    __slots__ = ("_valid_as",)


class UnifProblem(_Validated, Record):
    """One equation between two sides, with its context and declarations.

    Invariants (validated by validate_problem, not enforced on construction
    so that deliberately broken problems can be built for reporting): both
    sides sort-check in ctx at a common type, and every metavariable that
    occurs is declared.

    ``transform.require_valid`` keeps in ``_valid_as`` a snapshot of the
    fields a problem passed with, and skips validation while the fields
    still compare equal to it.  That is sound because validity is a
    function of the field values, and a snapshot cannot change with them:
    the terms, sorts and types are frozen, ``ctx`` is kept as a tuple and
    ``metavars`` as a copy of the dict.  So reassigning a field, or adding,
    removing or replacing a declaration, makes the next check validate
    again.  A copy or an unpickled problem starts with no snapshot.
    """

    __slots__ = ("base_types", "ctx", "metavars", "lhs", "rhs", "mode")

    def __init__(
        self,
        base_types: frozenset[str],
        ctx: Context,
        metavars: dict[str, Sort],
        lhs: Term,
        rhs: Term,
        mode: EqMode,
    ):
        self.base_types = base_types
        self.ctx = ctx
        self.metavars = metavars
        self.lhs = lhs
        self.rhs = rhs
        self.mode = mode
        self._valid_as = None


class CheckEntry(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


class ValidationReport(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: list[CheckEntry] | None = None):
        self.entries = [] if entries is None else entries

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.entries.append(CheckEntry(name, ok, detail))

    def render(self) -> str:
        lines = []
        for e in self.entries:
            mark = "PASS" if e.ok else "FAIL"
            suffix = f"  {e.detail}" if e.detail else ""
            lines.append(f"{mark} {e.name}{suffix}")
        return "\n".join(lines)


def equation_type(p: UnifProblem) -> SimpleType:
    """Common type of both sides, inferring from whichever side allows it."""
    return _equation_walk(p, {}, {})


def equation_domains(p: UnifProblem) -> tuple[SimpleType, list[SimpleType], list[SimpleType]]:
    """Common type of both sides, and the domains ``binder_domains`` gives
    the binders of each side at that type, from one walk of each side."""
    lhs_domains: dict[tuple[int, ...], SimpleType] = {}
    rhs_domains: dict[tuple[int, ...], SimpleType] = {}
    ty = _equation_walk(p, lhs_domains, rhs_domains)
    return ty, _reading_order(lhs_domains), _reading_order(rhs_domains)


def _equation_walk(p: UnifProblem, lhs_domains: dict, rhs_domains: dict) -> SimpleType:
    """equation_type's walk, recording each side's binder domains.

    The side the type is inferred from records the same domains as
    checking it would: inference reaches every binder of a well-sorted
    side, and the two directions give a binder the same domain.
    """
    try:
        ty = _walk(p.ctx, p.metavars, lhs_domains, p.lhs, None, ())
    except IllTyped:
        ty = _walk(p.ctx, p.metavars, rhs_domains, p.rhs, None, ())
        lhs_domains.clear()  # drop what the abandoned inference recorded
        _walk(p.ctx, p.metavars, lhs_domains, p.lhs, ty, ())
    else:
        _walk(p.ctx, p.metavars, rhs_domains, p.rhs, ty, ())
    return ty


def validate_problem(p: UnifProblem) -> ValidationReport:
    """Check the shape conditions a second-order problem must satisfy."""
    report = ValidationReport()

    undeclared = (free_metavars(p.lhs) | free_metavars(p.rhs)) - p.metavars.keys()
    report.add(
        "metavars-declared",
        not undeclared,
        "" if not undeclared else f"undeclared: {', '.join(sorted(undeclared))}",
    )

    common: SimpleType | None = None
    try:
        common = equation_type(p)
        report.add("sides-sort-check", True, f"common type {render_type(common)}")
    except IllTyped as err:
        report.add("sides-sort-check", False, str(err))

    report.add(
        "common-type-atomic",
        common is not None and isinstance(common, Base),
        "" if common is None else f"type is {render_type(common)}",
    )

    report.add(
        "context-second-order",
        check_second_order_context(p.ctx),
        "",
    )

    bad_order = [x for x, sort in p.metavars.items() if order_of_type(sort.ty) > 2]
    report.add(
        "metavar-type-order",
        not bad_order,
        "" if not bad_order else f"order > 2: {', '.join(sorted(bad_order))}",
    )

    bad_ctx = [x for x, sort in p.metavars.items() if not check_second_order_context(sort.ctx)]
    report.add(
        "metavar-context-second-order",
        not bad_ctx,
        "" if not bad_ctx else f"context not second order: {', '.join(sorted(bad_ctx))}",
    )

    return report
