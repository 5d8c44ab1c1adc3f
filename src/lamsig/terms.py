"""Terms and explicit substitutions with de Bruijn indices and metavariables.

The two syntactic categories are mutually recursive: a term may close over a
substitution, and a substitution may carry terms in its cons cells.  Indices
are 1-based and primitive (``Index(3)`` rather than a chain of unit shifts);
``Shift(0)`` is the only representation of the identity substitution.

Metavariables are instantiated by *grafting*: literal replacement with no
index adjustment.  Any renumbering a replacement needs is expressed by the
substitution rules of the rewrite engine, never by ``graft`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterator, Mapping, Union


class EqMode(Enum):
    """Which equality a problem is stated in: substitution rules only, or
    substitution rules plus beta."""

    SIGMA_ONLY = "sigma"
    LAMBDA_SIGMA = "lambdasigma"


# --- terms ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Index:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"de Bruijn index must be >= 1, got {self.n}")


@dataclass(frozen=True, slots=True)
class Meta:
    name: str


@dataclass(frozen=True, slots=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Lam:
    body: "Term"


@dataclass(frozen=True, slots=True)
class Closure:
    body: "Term"
    subst: "Subst"


# --- substitutions -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Shift:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"shift must be >= 0, got {self.k}")


@dataclass(frozen=True, slots=True)
class Cons:
    head: "Term"
    tail: "Subst"


@dataclass(frozen=True, slots=True)
class Comp:
    first: "Subst"
    second: "Subst"


Term = Union[Index, Meta, App, Lam, Closure]
Subst = Union[Shift, Cons, Comp]

ID = Shift(0)


def subterms(t: Term | Subst) -> Iterator[Term | Subst]:
    """All term and substitution nodes of t, the node itself included."""
    stack: list[Term | Subst] = [t]
    while stack:
        node = stack.pop()
        yield node
        match node:
            case App(fun, arg):
                stack.append(fun)
                stack.append(arg)
            case Lam(body):
                stack.append(body)
            case Closure(body, subst):
                stack.append(body)
                stack.append(subst)
            case Cons(head, tail):
                stack.append(head)
                stack.append(tail)
            case Comp(first, second):
                stack.append(first)
                stack.append(second)
    return


def term_size(t: Term | Subst) -> int:
    """Number of term and substitution constructors in t."""
    return sum(1 for _ in subterms(t))


def free_metavars(t: Term | Subst) -> set[str]:
    """Names of all metavariables occurring in t, cons heads included."""
    return {node.name for node in subterms(t) if isinstance(node, Meta)}


def is_simple(t: Term | Subst) -> bool:
    """True iff every metavariable under a closure is closed over a plain
    shift.  Bare metavariables count as simple (read as a zero shift)."""
    for node in subterms(t):
        if isinstance(node, Closure) and isinstance(node.body, Meta):
            if not isinstance(node.subst, Shift):
                return False
    return True


class MetaSubst:
    """Finite map from metavariable names to terms, applied by grafting.

    The map must be idempotent on its own domain: no bound term may mention
    any domain metavariable.  Violations are rejected at construction.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Term] | None = None):
        self._bindings: dict[str, Term] = dict(bindings or {})
        for name, term in self._bindings.items():
            hit = free_metavars(term) & self._bindings.keys()
            if hit:
                raise ValueError(
                    f"binding for {name} mentions domain metavariable(s) "
                    f"{sorted(hit)}; the map would not be idempotent"
                )

    def __getitem__(self, name: str) -> Term:
        return self._bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other) -> bool:
        if isinstance(other, MetaSubst):
            return self._bindings == other._bindings
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} -> {v!r}" for k, v in self._bindings.items())
        return f"MetaSubst({{{inner}}})"

    def keys(self):
        return self._bindings.keys()

    def items(self):
        return self._bindings.items()


def is_simple_subst(theta: MetaSubst) -> bool:
    """True iff every bound term of theta is simple."""
    return all(is_simple(term) for _, term in theta.items())


def graft(theta: MetaSubst | Mapping[str, Term], t: Term) -> Term:
    """Replace every bound metavariable of t by its image, literally.

    No index shifting happens here; the result may contain redexes that the
    rewrite engine is expected to clean up.
    """

    def go_term(node: Term) -> Term:
        match node:
            case Meta(name) if name in theta:
                return theta[name]
            case Index() | Meta():
                return node
            case App(fun, arg):
                return App(go_term(fun), go_term(arg))
            case Lam(body):
                return Lam(go_term(body))
            case Closure(body, subst):
                return Closure(go_term(body), go_subst(subst))
        raise TypeError(f"not a term: {node!r}")

    def go_subst(node: Subst) -> Subst:
        match node:
            case Shift():
                return node
            case Cons(head, tail):
                return Cons(go_term(head), go_subst(tail))
            case Comp(first, second):
                return Comp(go_subst(first), go_subst(second))
        raise TypeError(f"not a substitution: {node!r}")

    return go_term(t)


def canonicalize_shifts(s: Subst) -> Subst:
    """Collapse composed shifts: no composition of two shifts survives.

    Semantics-preserving; the rewrite engine relies on inputs being in this
    form because no rewrite rule merges adjacent shifts.
    """
    return _canonicalize(s, False)


def canonicalize_shifts_in_term(t: Term) -> Term:
    """Apply canonicalize_shifts to every substitution inside a term."""
    return _canonicalize(t, True)


_TERM_TYPES = frozenset((Index, Meta, App, Lam, Closure))

# The two children of each binary node, and whether each is a term (True)
# or a substitution (False).
_PAIRS = {
    App: (attrgetter("fun", "arg"), True, True),
    Closure: (attrgetter("body", "subst"), True, False),
    Cons: (attrgetter("head", "tail"), True, False),
    Comp: (attrgetter("first", "second"), False, False),
}


def _canonicalize(root: Term | Subst, want_term: bool) -> Term | Subst:
    """Rebuild root bottom-up with an explicit stack, so that nesting depth
    costs no recursion.  A node whose children come back unchanged is kept
    as it is."""
    done: list[Term | Subst] = []
    todo: list = [(root, want_term)]
    while todo:
        node, want = todo.pop()
        tp = type(node)
        if want is None:  # the canonical children of node are on top of done
            if tp is Lam:
                body = done.pop()
                if body is not node.body:
                    node = Lam(body)
            else:
                second = done.pop()
                first = done.pop()
                old_first, old_second = _PAIRS[tp][0](node)
                if tp is Comp and type(first) is Shift and type(second) is Shift:
                    node = Shift(first.k + second.k)
                elif first is not old_first or second is not old_second:
                    node = tp(first, second)
            done.append(node)
            continue
        if (tp in _TERM_TYPES) is not want:
            raise TypeError(f"not a {'term' if want else 'substitution'}: {node!r}")
        if tp is Lam:
            todo.append((node, None))
            todo.append((node.body, True))
            continue
        pair = _PAIRS.get(tp)
        if pair is None:
            done.append(node)
            continue
        get, first_is_term, second_is_term = pair
        first, second = get(node)
        todo.append((node, None))
        todo.append((second, second_is_term))
        todo.append((first, first_is_term))
    return done[0]
