"""Surface syntax: problem files, term parsing and printing.

Problem files are s-expressions.  Context entries are listed outermost
first, so the *last* entry of the ``context`` block is index 1; the same
convention applies to the ``:ctx`` override in a metavariable declaration,
which is how a problem declares an unknown living in an extension of the
problem context (emitted reductions need this).

Terms have one grammar — ``c``, ``?X``, ``(app f a)``,
``(lam (x iota) body)``, ``(clo t s)`` with substitutions ``(shift k)``,
``(cons t s)``, ``(comp s t)`` — plus bare integers as de Bruijn indices,
which is the only way to reach context slots that have no name (binder
extensions of a reduced problem's unknowns).  ``parse_term`` reads it
straight into de Bruijn terms: a name is its innermost binder, else its
context slot behind all binders in force.

``render_term`` prints the same grammar back: context slots by name, slots
past the named context as integers, and binders under fresh names ``x1``,
``x2``, ...  The de Bruijn form keeps no binder domains, so printing a
binder needs the term's sort: the sort checker gives each binder its domain
(``binder_domains``), and the printer itself does no typing.

The debug renderer prints compact de Bruijn forms (``λ.1``, ``?Y[^3]``,
``1 . ^0``) and is the canonical form golden tests pin down.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .records import Record
from .sexpr import ParseError, SAtom, SList, expect_atom, expect_list, parse_sexprs
from .sorts import (
    Arrow,
    Base,
    Context,
    IllTyped,
    SimpleType,
    Sort,
    UnifProblem,
    binder_domains,
    equation_domains,
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
    contains,
    free_metavars,
)


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


def parse_term(
    node,
    ctx_names: tuple[str, ...],
    _binders: tuple[str, ...] = (),
    annotations: list[tuple[SimpleType, SList]] | None = None,
) -> Term:
    """Parse a term straight to de Bruijn form: index 1 is the innermost
    binder, context names sit behind all binders in force.

    De Bruijn terms keep no binder types; when ``annotations`` is given,
    each binder's written type and its ``(name type)`` node are appended
    to it in reading order."""
    if isinstance(node, SAtom):
        text = node.text
        if text.startswith("?"):
            if len(text) < 2:
                raise ParseError(node.line, node.col, "metavariable name missing after ?")
            return Meta(text[1:])
        if text.isdigit():
            n = int(text)
            if n < 1:
                raise ParseError(node.line, node.col, "de Bruijn index must be >= 1")
            return Index(n)
        if text in _binders:
            return Index(_binders.index(text) + 1)
        if text in ctx_names:
            return Index(len(_binders) + ctx_names.index(text) + 1)
        raise ParseError(node.line, node.col, f"unbound name {text!r}")
    lst = expect_list(node, "a term")
    if not lst.items:
        raise ParseError(lst.line, lst.col, "empty term")
    head = expect_atom(lst[0], "a term form name")
    if head.text == "app":
        if len(lst.items) < 3:
            raise ParseError(lst.line, lst.col, "(app ...) needs a function and arguments")
        result = parse_term(lst[1], ctx_names, _binders, annotations)
        for item in lst.items[2:]:
            result = App(result, parse_term(item, ctx_names, _binders, annotations))
        return result
    if head.text == "lam":
        if len(lst.items) != 3:
            raise ParseError(lst.line, lst.col, "(lam (name type) body) expected")
        binder = expect_list(lst[1], "a (name type) binder")
        if len(binder.items) != 2:
            raise ParseError(binder.line, binder.col, "(name type) expected")
        name = expect_atom(binder[0], "a binder name").text
        domain = parse_type(binder[1])
        if name in _binders:
            raise ParseError(lst.line, lst.col, f"binder {name!r} shadows an enclosing binder")
        if annotations is not None:
            annotations.append((domain, binder))
        return Lam(parse_term(lst[2], ctx_names, (name,) + _binders, annotations))
    if head.text == "clo":
        if len(lst.items) != 3:
            raise ParseError(lst.line, lst.col, "(clo term subst) expected")
        return Closure(
            parse_term(lst[1], ctx_names, _binders, annotations),
            _parse_subst(lst[2], ctx_names, _binders, annotations),
        )
    raise ParseError(head.line, head.col, f"unknown term form {head.text!r}")


def _parse_subst(node, ctx_names: tuple[str, ...], binders: tuple[str, ...], annotations) -> Subst:
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
        return Shift(int(k_atom.text))
    if head.text == "cons":
        if len(lst.items) != 3:
            raise ParseError(lst.line, lst.col, "(cons term subst) expected")
        return Cons(
            parse_term(lst[1], ctx_names, binders, annotations),
            _parse_subst(lst[2], ctx_names, binders, annotations),
        )
    if head.text == "comp":
        if len(lst.items) != 3:
            raise ParseError(lst.line, lst.col, "(comp subst subst) expected")
        return Comp(
            _parse_subst(lst[1], ctx_names, binders, annotations),
            _parse_subst(lst[2], ctx_names, binders, annotations),
        )
    raise ParseError(head.line, head.col, f"unknown substitution form {head.text!r}")


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


def render_term(
    t: Term,
    ctx_names: tuple[str, ...],
    sort: Sort | None = None,
    metavars: dict[str, Sort] | None = None,
) -> str:
    """Surface text of a term, which ``parse_term`` reads back.

    Context slots print by name, slots past the named context as integers,
    and binders get fresh names ``x1``, ``x2``, ...  The walk does no typing:
    each binder takes the next of the domains that the sort checker gives
    the term at ``sort`` (a well-sorted term's context and type).  A term
    that does not check at its sort is IllTyped; without a sort a binder is
    a ValueError.
    """
    return _render(t, ctx_names, () if sort is None else binder_domains(sort.ctx, metavars or {}, t, sort.ty))


def _render(t: Term, ctx_names: tuple[str, ...], domains: Iterable[SimpleType]) -> str:
    """render_term's walk, which gives each binder the next of domains."""
    domains = iter(domains)
    counter = itertools.count(1)

    def fresh(binders: tuple[str, ...]) -> str:
        while True:
            name = f"x{next(counter)}"
            if name not in ctx_names and name not in binders:
                return name

    def term(node: Term, binders) -> str:
        match node:
            case Index(n):
                names = binders + ctx_names
                return names[n - 1] if n <= len(names) else str(n)
            case Meta(name):
                return f"?{name}"
            case App():
                parts = []
                while isinstance(node, App):
                    parts.append(node.arg)
                    node = node.fun
                words = [term(node, binders)]
                for part in reversed(parts):
                    words.append(term(part, binders))
                return f"(app {' '.join(words)})"
            case Lam(body):
                domain = next(domains, None)
                if domain is None:
                    raise ValueError("cannot print a binder without its domain type")
                name = fresh(binders)
                return f"(lam ({name} {render_type(domain)}) {term(body, (name,) + binders)})"
            case Closure(body, s):
                return f"(clo {term(body, binders)} {subst(s, binders)})"
        raise TypeError(f"not a term: {node!r}")

    def subst(s: Subst, binders) -> str:
        match s:
            case Shift(k):
                return f"(shift {k})"
            case Cons(head, tail):
                return f"(cons {term(head, binders)} {subst(tail, binders)})"
            case Comp(first, second):
                return f"(comp {subst(first, binders)} {subst(second, binders)})"
        raise TypeError(f"not a substitution: {s!r}")

    return term(t, ())


# --- problem files -----------------------------------------------------------


class Expectation(Record):
    __slots__ = ("kind", "bound")

    def __init__(self, kind: str, bound: int):
        self.kind = kind  # "solvable" | "no-solution"
        self.bound = bound


class ProblemFile(Record):
    __slots__ = ("problem", "ctx_names", "expect", "certificate")

    def __init__(
        self,
        problem: UnifProblem,
        ctx_names: tuple[str, ...],
        expect: Expectation | None = None,
        certificate: dict[str, tuple[str, int]] | None = None,
    ):
        self.problem = problem
        self.ctx_names = ctx_names
        self.expect = expect
        self.certificate = certificate


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
    annotations: list[tuple[SimpleType, SList]] = []
    lhs = parse_term(eq[1], ctx_names, annotations=annotations)
    rhs = parse_term(eq[2], ctx_names, annotations=annotations)
    for domain, binder in annotations:
        _check_base_names((domain,), base_types, binder)
    for side in (lhs, rhs):
        undeclared = free_metavars(side) - metavars.keys()
        if undeclared:
            raise ParseError(eq.line, eq.col, f"undeclared metavariable(s): {', '.join(sorted(undeclared))}")

    expect: Expectation | None = None
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
    if annotations:
        try:
            _, lhs_domains, rhs_domains = equation_domains(problem)
        except IllTyped:
            pass  # no domains to compare with; validate_problem reports the sort error
        else:
            _check_binder_annotations(annotations, lhs_domains + rhs_domains)
    return ProblemFile(problem, ctx_names, expect, certificate)


def _check_binder_annotations(annotations, domains: list[SimpleType]) -> None:
    """Each binder's written type must be the domain the sort checker gives
    it, as printing the term back would write it."""
    for (written, binder), domain in zip(annotations, domains):
        if written != domain:
            raise ParseError(
                binder.line,
                binder.col,
                f"binder annotated {render_type(written)} has domain {render_type(domain)}",
            )


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
    lhs_domains: list[SimpleType] = []
    rhs_domains: list[SimpleType] = []
    if contains(p.lhs, Lam) or contains(p.rhs, Lam):
        _, lhs_domains, rhs_domains = equation_domains(p)
    lhs = _render(p.lhs, pf.ctx_names, lhs_domains)
    rhs = _render(p.rhs, pf.ctx_names, rhs_domains)
    lines.append(f"  (equation {lhs} {rhs})")
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
        sort = pf.problem.metavars[name]
        # names make sense only when the unknown lives in the problem context
        ctx_names = pf.ctx_names if sort.ctx == pf.problem.ctx else ()
        annotations: list[tuple[SimpleType, SList]] = []
        term = parse_term(entry[1], ctx_names, annotations=annotations)
        for domain, binder in annotations:
            _check_base_names((domain,), pf.problem.base_types, binder)
        if annotations:
            try:
                domains = binder_domains(sort.ctx, pf.problem.metavars, term, sort.ty)
            except IllTyped:
                pass  # check_solution reports the sort error
            else:
                _check_binder_annotations(annotations, domains)
        bindings[name] = term
    return MetaSubst(bindings)


def render_subst(theta: MetaSubst, pf: ProblemFile) -> str:
    """Emit a substitution file, recovering binder annotations from sorts."""
    parts = []
    for name, term in theta.items():
        sort = pf.problem.metavars.get(name)
        ctx_names = pf.ctx_names if sort is not None and sort.ctx == pf.problem.ctx else ()
        parts.append(f"(?{name} {render_term(term, ctx_names, sort, pf.problem.metavars)})")
    return f"(subst {' '.join(parts)})\n"
