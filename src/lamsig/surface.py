"""Surface syntax: named terms, problem files, and both renderers.

Problem files are s-expressions.  Context entries are listed outermost
first, so the *last* entry of the ``context`` block is index 1; the same
convention applies to the ``:ctx`` override in a metavariable declaration,
which is how a problem declares an unknown living in an extension of the
problem context (emitted reductions need this).

Terms come in a named grammar — ``c``, ``?X``, ``(app f a)``,
``(lam (x iota) body)``, ``(clo t s)`` with substitutions ``(shift k)``,
``(cons t s)``, ``(comp s t)`` — plus bare integers as de Bruijn indices,
which is the only way to reach context slots that have no name (binder
extensions of a reduced problem's unknowns).

The debug renderer prints compact de Bruijn forms (``λ.1``, ``?Y[^3]``,
``1 . ^0``) and is the canonical form golden tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .sexpr import ParseError, SAtom, SList, expect_atom, expect_list, parse_sexprs
from .sorts import (
    Arrow,
    Base,
    Context,
    SimpleType,
    Sort,
    UnifProblem,
    render_type,
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
)


class UnboundName(Exception):
    def __init__(self, name: str, line: int = 0, col: int = 0):
        self.name = name
        self.line = line
        self.col = col
        super().__init__(f"unbound name {name}")


# --- named syntax ----------------------------------------------------------


@dataclass
class NVar:
    name: str
    line: int = 0
    col: int = 0


@dataclass
class NIndex:
    n: int
    line: int = 0
    col: int = 0


@dataclass
class NMeta:
    name: str
    line: int = 0
    col: int = 0


@dataclass
class NApp:
    fun: "NamedTerm"
    arg: "NamedTerm"
    line: int = 0
    col: int = 0


@dataclass
class NLam:
    var: str
    ty: SimpleType
    body: "NamedTerm"
    line: int = 0
    col: int = 0


@dataclass
class NClo:
    term: "NamedTerm"
    subst: "NamedSubst"
    line: int = 0
    col: int = 0


@dataclass
class NShift:
    k: int
    line: int = 0
    col: int = 0


@dataclass
class NCons:
    head: "NamedTerm"
    tail: "NamedSubst"
    line: int = 0
    col: int = 0


@dataclass
class NComp:
    first: "NamedSubst"
    second: "NamedSubst"
    line: int = 0
    col: int = 0


NamedTerm = Union[NVar, NIndex, NMeta, NApp, NLam, NClo]
NamedSubst = Union[NShift, NCons, NComp]


def parse_type(node) -> SimpleType:
    if isinstance(node, SAtom):
        return Base(node.text)
    lst = expect_list(node, "a type")
    if not lst.items or not (isinstance(lst[0], SAtom) and lst[0].text == "->"):
        raise ParseError(lst.line, lst.col, "expected (-> ...) or a base type name")
    if len(lst.items) < 3:
        raise ParseError(lst.line, lst.col, "(-> ...) needs at least two types")
    tys = [parse_type(item) for item in lst.items[1:]]
    result = tys[-1]
    for ty in reversed(tys[:-1]):
        result = Arrow(ty, result)
    return result


def parse_named_term(node) -> NamedTerm:
    if isinstance(node, SAtom):
        text = node.text
        if text.startswith("?"):
            if len(text) < 2:
                raise ParseError(node.line, node.col, "metavariable name missing after ?")
            return NMeta(text[1:], node.line, node.col)
        if text.isdigit():
            n = int(text)
            if n < 1:
                raise ParseError(node.line, node.col, "de Bruijn index must be >= 1")
            return NIndex(n, node.line, node.col)
        return NVar(text, node.line, node.col)
    lst = expect_list(node, "a term")
    if not lst.items:
        raise ParseError(lst.line, lst.col, "empty term")
    head = expect_atom(lst[0], "a term form name")
    if head.text == "app":
        if len(lst.items) < 3:
            raise ParseError(lst.line, lst.col, "(app ...) needs a function and arguments")
        result = parse_named_term(lst[1])
        for item in lst.items[2:]:
            result = NApp(result, parse_named_term(item), lst.line, lst.col)
        return result
    if head.text == "lam":
        if len(lst.items) != 3:
            raise ParseError(lst.line, lst.col, "(lam (name type) body) expected")
        binder = expect_list(lst[1], "a (name type) binder")
        if len(binder.items) != 2:
            raise ParseError(binder.line, binder.col, "(name type) expected")
        name = expect_atom(binder[0], "a binder name").text
        ty = parse_type(binder[1])
        return NLam(name, ty, parse_named_term(lst[2]), lst.line, lst.col)
    if head.text == "clo":
        if len(lst.items) != 3:
            raise ParseError(lst.line, lst.col, "(clo term subst) expected")
        return NClo(parse_named_term(lst[1]), parse_named_subst(lst[2]), lst.line, lst.col)
    raise ParseError(head.line, head.col, f"unknown term form {head.text!r}")


def parse_named_subst(node) -> NamedSubst:
    lst = expect_list(node, "a substitution")
    if not lst.items:
        raise ParseError(lst.line, lst.col, "empty substitution")
    head = expect_atom(lst[0], "a substitution form name")
    if head.text == "shift":
        if len(lst.items) != 2:
            raise ParseError(lst.line, lst.col, "(shift k) expected")
        k_atom = expect_atom(lst[1], "a shift amount")
        if not k_atom.text.isdigit():
            raise ParseError(k_atom.line, k_atom.col, "shift amount must be a number")
        return NShift(int(k_atom.text), lst.line, lst.col)
    if head.text == "cons":
        if len(lst.items) != 3:
            raise ParseError(lst.line, lst.col, "(cons term subst) expected")
        return NCons(parse_named_term(lst[1]), parse_named_subst(lst[2]), lst.line, lst.col)
    if head.text == "comp":
        if len(lst.items) != 3:
            raise ParseError(lst.line, lst.col, "(comp subst subst) expected")
        return NComp(parse_named_subst(lst[1]), parse_named_subst(lst[2]), lst.line, lst.col)
    raise ParseError(head.line, head.col, f"unknown substitution form {head.text!r}")


def to_de_bruijn(nt: NamedTerm, ctx_names: tuple[str, ...], _binders: tuple[str, ...] = ()) -> Term:
    """Elaborate a named term; index 1 is the innermost binder, context
    names sit behind all binders in force."""
    match nt:
        case NVar(name, line, col):
            if name in _binders:
                return Index(_binders.index(name) + 1)
            if name in ctx_names:
                return Index(len(_binders) + ctx_names.index(name) + 1)
            raise UnboundName(name, line, col)
        case NIndex(n):
            return Index(n)
        case NMeta(name):
            return Meta(name)
        case NApp(fun, arg):
            return App(to_de_bruijn(fun, ctx_names, _binders), to_de_bruijn(arg, ctx_names, _binders))
        case NLam(var, _, body, line, col):
            if var in _binders:
                raise ParseError(line, col, f"binder {var!r} shadows an enclosing binder")
            return Lam(to_de_bruijn(body, ctx_names, (var,) + _binders))
        case NClo(term, subst):
            return Closure(
                to_de_bruijn(term, ctx_names, _binders),
                _subst_to_de_bruijn(subst, ctx_names, _binders),
            )
    raise TypeError(f"not a named term: {nt!r}")


def _subst_to_de_bruijn(ns: NamedSubst, ctx_names, binders) -> Subst:
    match ns:
        case NShift(k):
            return Shift(k)
        case NCons(head, tail):
            return Cons(to_de_bruijn(head, ctx_names, binders), _subst_to_de_bruijn(tail, ctx_names, binders))
        case NComp(first, second):
            return Comp(_subst_to_de_bruijn(first, ctx_names, binders), _subst_to_de_bruijn(second, ctx_names, binders))
    raise TypeError(f"not a named substitution: {ns!r}")


# --- rendering --------------------------------------------------------------


def render_debruijn(t: Term) -> str:
    """Compact de Bruijn form: the canonical output of golden tests."""
    match t:
        case Index(n):
            return str(n)
        case Meta(name):
            return f"?{name}"
        case App():
            parts = []
            node: Term = t
            while isinstance(node, App):
                parts.append(node.arg)
                node = node.fun
            parts.append(node)
            parts.reverse()
            return "(" + " ".join(render_debruijn(p) for p in parts) + ")"
        case Lam(body):
            return f"λ.{render_debruijn(body)}"
        case Closure(body, subst):
            body_str = render_debruijn(body)
            if isinstance(body, Lam):
                body_str = f"({body_str})"
            return f"{body_str}[{render_debruijn_subst(subst)}]"
    raise TypeError(f"not a term: {t!r}")


def render_debruijn_subst(s: Subst) -> str:
    match s:
        case Shift(k):
            return f"^{k}"
        case Cons(head, tail):
            head_str = render_debruijn(head)
            if isinstance(head, Lam):
                head_str = f"({head_str})"
            tail_str = render_debruijn_subst(tail)
            if isinstance(tail, Comp):
                tail_str = f"({tail_str})"
            return f"{head_str} . {tail_str}"
        case Comp(first, second):
            first_str = render_debruijn_subst(first)
            if isinstance(first, (Comp, Cons)):
                first_str = f"({first_str})"
            second_str = render_debruijn_subst(second)
            if isinstance(second, Cons):
                second_str = f"({second_str})"
            return f"{first_str} ∘ {second_str}"
    raise TypeError(f"not a substitution: {s!r}")


def term_to_named(t: Term, ctx_names: tuple[str, ...]) -> NamedTerm:
    """Rebuild a named tree for file emission.

    Binders cannot be rebuilt without annotations, so this covers exactly
    the binder-free terms reduced problems consist of; indices that point
    past the named context come out as bare integers.
    """
    match t:
        case Index(n):
            if n <= len(ctx_names):
                return NVar(ctx_names[n - 1])
            return NIndex(n)
        case Meta(name):
            return NMeta(name)
        case App(fun, arg):
            return NApp(term_to_named(fun, ctx_names), term_to_named(arg, ctx_names))
        case Closure(body, subst):
            return NClo(term_to_named(body, ctx_names), _subst_to_named(subst, ctx_names))
        case Lam(_):
            raise ValueError("cannot rebuild a named binder without its domain type")
    raise TypeError(f"not a term: {t!r}")


def _subst_to_named(s: Subst, ctx_names) -> NamedSubst:
    match s:
        case Shift(k):
            return NShift(k)
        case Cons(head, tail):
            return NCons(term_to_named(head, ctx_names), _subst_to_named(tail, ctx_names))
        case Comp(first, second):
            return NComp(_subst_to_named(first, ctx_names), _subst_to_named(second, ctx_names))
    raise TypeError(f"not a substitution: {s!r}")


def render_named(nt: NamedTerm | NamedSubst) -> str:
    match nt:
        case NVar(name):
            return name
        case NIndex(n):
            return str(n)
        case NMeta(name):
            return f"?{name}"
        case NApp():
            args = []
            node = nt
            while isinstance(node, NApp):
                args.append(node.arg)
                node = node.fun
            args.reverse()
            inner = " ".join(render_named(a) for a in args)
            return f"(app {render_named(node)} {inner})"
        case NLam(var, ty, body):
            return f"(lam ({var} {render_type(ty)}) {render_named(body)})"
        case NClo(term, subst):
            return f"(clo {render_named(term)} {render_named(subst)})"
        case NShift(k):
            return f"(shift {k})"
        case NCons(head, tail):
            return f"(cons {render_named(head)} {render_named(tail)})"
        case NComp(first, second):
            return f"(comp {render_named(first)} {render_named(second)})"
    raise TypeError(f"not named syntax: {nt!r}")


def term_with_sort_to_named(
    t: Term,
    sort: Sort,
    ctx_names: tuple[str, ...],
    metavars: Optional[dict[str, Sort]] = None,
    prefix: str = "x",
) -> NamedTerm:
    """Named tree for a well-sorted term, recovering every binder's domain
    by bidirectional re-typing against the declared sort."""
    from .sorts import UnannotatedBinder, _apply_type, _infer, sort_check_subst

    metavars = metavars or {}
    counter = [0]

    def fresh(binders):
        counter[0] += 1
        while f"{prefix}{counter[0]}" in ctx_names or f"{prefix}{counter[0]}" in binders:
            counter[0] += 1
        return f"{prefix}{counter[0]}"

    def go(node: Term, ctx, binders, expected: Optional[SimpleType]) -> NamedTerm:
        match node:
            case Lam(body):
                if not isinstance(expected, Arrow):
                    raise ValueError("cannot annotate a binder without an arrow type")
                name = fresh(binders)
                inner = go(body, (expected.dom,) + ctx, (name,) + binders, expected.cod)
                return NLam(name, expected.dom, inner, 0, 0)
            case App(fun, arg):
                try:
                    fun_ty = _infer(ctx, metavars, fun, ())
                except UnannotatedBinder:
                    arg_ty = _infer(ctx, metavars, arg, ())
                    result = expected or _apply_type(ctx, metavars, fun, arg_ty, ())
                    fun_ty = Arrow(arg_ty, result)
                return NApp(
                    go(fun, ctx, binders, fun_ty),
                    go(arg, ctx, binders, fun_ty.dom),
                )
            case Closure(body, subst):
                target = sort_check_subst(ctx, metavars, subst, ())
                return NClo(
                    go(body, target, binders, expected),
                    _typed_subst_to_named(subst, ctx, binders),
                )
            case _:
                return term_to_named(node, binders + ctx_names)

    def _typed_subst_to_named(s: Subst, ctx, binders) -> NamedSubst:
        match s:
            case Shift(k):
                return NShift(k)
            case Cons(head, tail):
                head_ty = _infer(ctx, metavars, head, ())
                return NCons(go(head, ctx, binders, head_ty), _typed_subst_to_named(tail, ctx, binders))
            case Comp(first, second):
                mid = sort_check_subst(ctx, metavars, second, ())
                return NComp(
                    _typed_subst_to_named(first, mid, binders),
                    _typed_subst_to_named(second, ctx, binders),
                )
        raise TypeError(f"not a substitution: {s!r}")

    return go(t, sort.ctx, (), sort.ty)


# --- problem files -----------------------------------------------------------


@dataclass
class Expectation:
    kind: str  # "solvable" | "no-solution"
    bound: int


@dataclass
class ProblemFile:
    problem: UnifProblem
    ctx_names: tuple[str, ...]
    named_lhs: NamedTerm
    named_rhs: NamedTerm
    expect: Optional[Expectation] = None
    certificate: Optional[dict[str, tuple[str, int]]] = None


def _named_form(node, what: str) -> tuple[SAtom, SList]:
    """A non-empty list and the atom that heads it."""
    lst = expect_list(node, what)
    if not lst.items:
        raise ParseError(lst.line, lst.col, f"expected {what}, found ()")
    return expect_atom(lst[0], f"the name of {what}"), lst


def _block_map(forms: SList) -> dict[str, SList]:
    blocks: dict[str, SList] = {}
    for item in forms.items[1:]:
        head, lst = _named_form(item, "a problem block")
        if head.text in blocks:
            raise ParseError(lst.line, lst.col, f"duplicate block {head.text!r}")
        blocks[head.text] = lst
    return blocks


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; errors carry line and column."""
    forms = parse_sexprs(text)
    problem_form = None
    cert_form = None
    for form in forms:
        head, lst = _named_form(form, "a top-level form")
        if head.text == "problem":
            if problem_form is not None:
                raise ParseError(lst.line, lst.col, "more than one (problem ...) form")
            problem_form = lst
        elif head.text == "certificate":
            cert_form = lst
        else:
            raise ParseError(lst.line, lst.col, f"unknown top-level form {head.text!r}")
    if problem_form is None:
        raise ParseError(1, 1, "no (problem ...) form found")

    blocks = _block_map(problem_form)
    for required in ("base-types", "context", "metavars", "mode", "equation"):
        if required not in blocks:
            raise ParseError(problem_form.line, problem_form.col, f"missing ({required} ...) block")

    base_types = frozenset(
        expect_atom(item, "a base type name").text for item in blocks["base-types"].items[1:]
    )
    if not base_types:
        raise ParseError(blocks["base-types"].line, blocks["base-types"].col, "no base types declared")

    # context entries: outermost first in the file, index 1 last
    listed_names: list[str] = []
    listed_types: list[SimpleType] = []
    for item in blocks["context"].items[1:]:
        entry = expect_list(item, "a (name type) context entry")
        if len(entry.items) != 2:
            raise ParseError(entry.line, entry.col, "(name type) expected")
        name = expect_atom(entry[0], "a context variable name").text
        if name in listed_names:
            raise ParseError(entry.line, entry.col, f"duplicate context name {name!r}")
        listed_names.append(name)
        listed_types.append(parse_type(entry[1]))
    ctx: Context = tuple(reversed(listed_types))
    ctx_names = tuple(reversed(listed_names))
    _check_base_names(ctx, base_types, blocks["context"])

    metavars: dict[str, Sort] = {}
    for item in blocks["metavars"].items[1:]:
        entry = expect_list(item, "a metavariable declaration")
        if len(entry.items) not in (2, 4):
            raise ParseError(entry.line, entry.col, "(X type) or (X type :ctx (types...)) expected")
        raw = expect_atom(entry[0], "a metavariable name").text
        name = raw[1:] if raw.startswith("?") else raw
        if name in metavars:
            raise ParseError(entry.line, entry.col, f"duplicate metavariable {name!r}")
        ty = parse_type(entry[1])
        mv_ctx = ctx
        if len(entry.items) == 4:
            key = expect_atom(entry[2], ":ctx keyword")
            if key.text != ":ctx":
                raise ParseError(key.line, key.col, f"expected :ctx, found {key.text!r}")
            override = expect_list(entry[3], "a context type list")
            mv_ctx = tuple(reversed([parse_type(x) for x in override.items]))
        metavars[name] = Sort(mv_ctx, ty)
        _check_base_names((ty,) + mv_ctx, base_types, entry)

    mode_block = blocks["mode"]
    if len(mode_block.items) != 2:
        raise ParseError(mode_block.line, mode_block.col, "(mode sigma|lambdasigma) expected")
    mode_atom = expect_atom(mode_block[1], "a mode name")
    try:
        mode = EqMode(mode_atom.text)
    except ValueError:
        raise ParseError(mode_atom.line, mode_atom.col, "mode must be sigma or lambdasigma")

    eq = blocks["equation"]
    if len(eq.items) != 3:
        raise ParseError(eq.line, eq.col, "(equation lhs rhs) expected")
    named_lhs = parse_named_term(eq[1])
    named_rhs = parse_named_term(eq[2])
    try:
        lhs = to_de_bruijn(named_lhs, ctx_names)
        rhs = to_de_bruijn(named_rhs, ctx_names)
    except UnboundName as err:
        raise ParseError(err.line, err.col, f"unbound name {err.name!r}") from err
    for side in (lhs, rhs):
        undeclared = _undeclared_metas(side, metavars)
        if undeclared:
            raise ParseError(eq.line, eq.col, f"undeclared metavariable(s): {', '.join(sorted(undeclared))}")

    expect: Optional[Expectation] = None
    if "expect" in blocks:
        ex = blocks["expect"]
        if len(ex.items) != 4 or expect_atom(ex[2], ":bound").text != ":bound":
            raise ParseError(ex.line, ex.col, "(expect solvable|no-solution :bound k) expected")
        kind = expect_atom(ex[1], "an expectation kind").text
        if kind not in ("solvable", "no-solution"):
            raise ParseError(ex.line, ex.col, "expectation must be solvable or no-solution")
        bound_atom = expect_atom(ex[3], "a bound")
        if not bound_atom.text.isdigit():
            raise ParseError(bound_atom.line, bound_atom.col, "bound must be a number")
        expect = Expectation(kind, int(bound_atom.text))

    certificate = None
    if cert_form is not None:
        certificate = {}
        if len(cert_form.items) != 2:
            raise ParseError(cert_form.line, cert_form.col, "(certificate (map ...)) expected")
        keyword, mapping = _named_form(cert_form[1], "a (map ...) block")
        if keyword.text != "map":
            raise ParseError(mapping.line, mapping.col, "(map (X Y n) ...) expected")
        for item in mapping.items[1:]:
            triple = expect_list(item, "an (X Y n) entry")
            if len(triple.items) != 3:
                raise ParseError(triple.line, triple.col, "(X Y n) expected")
            x = expect_atom(triple[0], "a name").text
            y = expect_atom(triple[1], "a name").text
            n_atom = expect_atom(triple[2], "an arity")
            if not n_atom.text.isdigit():
                raise ParseError(n_atom.line, n_atom.col, "arity must be a number")
            certificate[x] = (y, int(n_atom.text))

    problem = UnifProblem(base_types, ctx, metavars, lhs, rhs, mode)
    return ProblemFile(problem, ctx_names, named_lhs, named_rhs, expect, certificate)


def _undeclared_metas(t: Term, metavars) -> set[str]:
    from .terms import free_metavars

    return free_metavars(t) - metavars.keys()


def _check_base_names(types, base_types, node) -> None:
    def names(ty: SimpleType):
        match ty:
            case Base(name):
                yield name
            case Arrow(dom, cod):
                yield from names(dom)
                yield from names(cod)

    for ty in types:
        for name in names(ty):
            if name not in base_types:
                raise ParseError(node.line, node.col, f"undeclared base type {name!r}")


def render_problem(pf: ProblemFile) -> str:
    """Emit a problem file; parsing the output reproduces the problem."""
    p = pf.problem
    lines = ["(problem"]
    lines.append(f"  (base-types {' '.join(sorted(p.base_types))})")
    entries = " ".join(
        f"({name} {render_type(ty)})"
        for name, ty in zip(reversed(pf.ctx_names), reversed(p.ctx))
    )
    lines.append(f"  (context {entries})")
    mv_entries = []
    for name, sort in p.metavars.items():
        if sort.ctx == p.ctx:
            mv_entries.append(f"(?{name} {render_type(sort.ty)})")
        else:
            override = " ".join(render_type(ty) for ty in reversed(sort.ctx))
            mv_entries.append(f"(?{name} {render_type(sort.ty)} :ctx ({override}))")
    lines.append(f"  (metavars {' '.join(mv_entries)})")
    lines.append(f"  (mode {p.mode.value})")
    lines.append(f"  (equation {render_named(pf.named_lhs)} {render_named(pf.named_rhs)})")
    if pf.expect is not None:
        lines.append(f"  (expect {pf.expect.kind} :bound {pf.expect.bound})")
    lines.append(")")
    if pf.certificate is not None:
        triples = " ".join(f"({x} {y} {n})" for x, (y, n) in pf.certificate.items())
        lines.append(f"(certificate (map {triples}))")
    return "\n".join(lines) + "\n"


# --- substitution files ------------------------------------------------------


def parse_subst_file(text: str, pf: ProblemFile) -> MetaSubst:
    """Parse ``(subst (?X term) ...)`` against a problem's declarations.

    Named context variables resolve through the problem context; bindings
    for unknowns declared in an extended context must use de Bruijn
    integers for the extension slots.
    """
    forms = parse_sexprs(text)
    if len(forms) != 1:
        raise ParseError(1, 1, "substitution file must contain one (subst ...) form")
    form = expect_list(forms[0], "(subst ...)")
    if not form.items or expect_atom(form[0], "subst keyword").text != "subst":
        raise ParseError(form.line, form.col, "(subst (?X term) ...) expected")
    bindings: dict[str, Term] = {}
    for item in form.items[1:]:
        entry = expect_list(item, "a (?X term) binding")
        if len(entry.items) != 2:
            raise ParseError(entry.line, entry.col, "(?X term) expected")
        raw = expect_atom(entry[0], "a metavariable name").text
        name = raw[1:] if raw.startswith("?") else raw
        if name not in pf.problem.metavars:
            raise ParseError(entry.line, entry.col, f"undeclared metavariable {name!r}")
        named = parse_named_term(entry[1])
        sort = pf.problem.metavars[name]
        # names make sense only when the unknown lives in the problem context
        ctx_names = pf.ctx_names if sort.ctx == pf.problem.ctx else ()
        try:
            bindings[name] = to_de_bruijn(named, ctx_names)
        except UnboundName as err:
            raise ParseError(err.line, err.col, f"unbound name {err.name!r}") from err
    return MetaSubst(bindings)


def render_subst(theta: MetaSubst, pf: ProblemFile) -> str:
    """Emit a substitution file, recovering binder annotations from sorts."""
    parts = []
    for name, term in theta.items():
        sort = pf.problem.metavars.get(name)
        ctx_names = pf.ctx_names if sort is not None and sort.ctx == pf.problem.ctx else ()
        if sort is not None:
            named = term_with_sort_to_named(term, sort, ctx_names, pf.problem.metavars)
        else:
            named = term_to_named(term, ctx_names)
        parts.append(f"(?{name} {render_named(named)})")
    return f"(subst {' '.join(parts)})\n"
