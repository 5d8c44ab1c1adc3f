"""Terms and explicit substitutions with de Bruijn indices and metavariables.

The two syntactic categories are mutually recursive: a term may close over a
substitution, and a substitution may carry terms in its cons cells.  Indices
are 1-based and primitive (``Index(3)`` rather than a chain of unit shifts);
``Shift(0)`` is the only representation of the identity substitution.

The eight node classes are frozen slotted records (``records.FrozenRecord``):
a node compares and hashes by its fields, prints as
``App(fun=Index(n=1), arg=Meta(name='X'))`` and matches positionally, as in
``case App(fun, arg)``.  ``Index`` rejects an index below 1 and ``Shift`` a
negative shift when the node is built.

Metavariables are instantiated by *grafting*: literal replacement with no
index adjustment.  Any renumbering a replacement needs is expressed by the
substitution rules of the rewrite engine, never by ``graft`` itself.

Only this module knows the shape of a node: ``children`` lists a node's
children, ``subterms`` lists every node of a tree, ``rebuild`` maps a tree
bottom-up and ``GraftPlan`` lists the paths to a tree's metavariables so
that grafting rebuilds nothing else.  None of them recurses, each
dispatches on the exact type of a node, and ``rebuild`` and
``GraftPlan.apply`` return every subtree that comes back unchanged as the
same object.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Callable, Iterator, Mapping

from .records import FrozenRecord


class EqMode(Enum):
    """Which equality a problem is stated in: substitution rules only, or
    substitution rules plus beta."""

    SIGMA_ONLY = "sigma"
    LAMBDA_SIGMA = "lambdasigma"


# --- terms ---------------------------------------------------------------


class Index(FrozenRecord):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"de Bruijn index must be >= 1, got {n}")
        object.__setattr__(self, "n", n)


class Meta(FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class App(FrozenRecord):
    __slots__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        object.__setattr__(self, "fun", fun)
        object.__setattr__(self, "arg", arg)


class Lam(FrozenRecord):
    __slots__ = ("body",)

    def __init__(self, body: Term):
        object.__setattr__(self, "body", body)


class Closure(FrozenRecord):
    __slots__ = ("body", "subst")

    def __init__(self, body: Term, subst: Subst):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "subst", subst)


# --- substitutions -------------------------------------------------------


class Shift(FrozenRecord):
    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 0:
            raise ValueError(f"shift must be >= 0, got {k}")
        object.__setattr__(self, "k", k)


class Cons(FrozenRecord):
    __slots__ = ("head", "tail")

    def __init__(self, head: Term, tail: Subst):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)


class Comp(FrozenRecord):
    __slots__ = ("first", "second")

    def __init__(self, first: Subst, second: Subst):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


Term = Index | Meta | App | Lam | Closure
Subst = Shift | Cons | Comp


def children(node: Term | Subst) -> tuple:
    """The child nodes of node, left to right; a leaf has none.  Dispatch is
    on the exact type, which keeps it cheap for the rewrite engine's scans."""
    tp = type(node)
    if tp is App:
        return node.fun, node.arg
    if tp is Closure:
        return node.body, node.subst
    if tp is Cons:
        return node.head, node.tail
    if tp is Comp:
        return node.first, node.second
    if tp is Lam:
        return (node.body,)
    return ()


def rebuild(root: Term | Subst, at_leaf: Callable, at_node: Callable | None = None) -> Term | Subst:
    """Map root bottom-up with an explicit stack: every leaf through at_leaf,
    every inner node through at_node once its children are rebuilt.  A node
    whose children all come back as the same objects is kept as it is."""
    done: list[Term | Subst] = []
    up = object()  # on the stack above a node whose rebuilt children are on top of done
    todo: list = [root]
    while todo:
        node = todo.pop()
        if node is up:
            node = todo.pop()
            kids = children(node)
            if len(kids) == 2:
                second = done.pop()
                first = done.pop()
                if first is not kids[0] or second is not kids[1]:
                    node = type(node)(first, second)
            else:
                body = done.pop()
                if body is not kids[0]:
                    node = type(node)(body)
            done.append(node if at_node is None else at_node(node))
            continue
        tp = type(node)
        if tp is Index or tp is Meta or tp is Shift:
            done.append(at_leaf(node))
        elif tp is App:
            todo += (node, up, node.arg, node.fun)
        elif tp is Closure:
            todo += (node, up, node.subst, node.body)
        elif tp is Lam:
            todo += (node, up, node.body)
        elif tp is Cons:
            todo += (node, up, node.tail, node.head)
        elif tp is Comp:
            todo += (node, up, node.second, node.first)
        else:
            raise TypeError(f"not a term or substitution: {node!r}")
    return done[0]


def subterms(t: Term | Subst) -> list[Term | Subst]:
    """All term and substitution nodes of t, the node itself included, every
    node before its children."""
    nodes = [t]
    for node in nodes:  # the loop reaches the children it appends
        tp = type(node)
        if tp is App:
            nodes += (node.fun, node.arg)
        elif tp is Index or tp is Meta or tp is Shift:
            pass
        elif tp is Closure:
            nodes += (node.body, node.subst)
        elif tp is Lam:
            nodes.append(node.body)
        elif tp is Cons:
            nodes += (node.head, node.tail)
        elif tp is Comp:
            nodes += (node.first, node.second)
        else:
            raise TypeError(f"not a term or substitution: {node!r}")
    return nodes


def contains(t: Term | Subst, kind: type) -> bool:
    """True iff a node of exactly the type kind occurs in t."""
    return kind in map(type, subterms(t))


def term_size(t: Term | Subst) -> int:
    """Number of term and substitution constructors in t."""
    return len(subterms(t))


def free_metavars(t: Term | Subst) -> set[str]:
    """Names of all metavariables occurring in t, cons heads included."""
    return {node.name for node in subterms(t) if type(node) is Meta}


def is_simple(t: Term | Subst) -> bool:
    """True iff every metavariable under a closure is closed over a plain
    shift.  Bare metavariables count as simple (read as a zero shift)."""
    for node in subterms(t):
        if type(node) is Closure and type(node.body) is Meta and type(node.subst) is not Shift:
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


class GraftPlan:
    """The nodes of a term on the paths from its root to its metavariable
    occurrences, listed once so that the term can be grafted many times.

    One scan lists those nodes children first.  ``apply`` rebuilds only
    them, bottom-up, and shares every other subtree of the term; a node
    whose rebuilt children are the same objects is kept as it is, so a
    graft that binds none of the occurrences returns the term itself.
    """

    __slots__ = ("_term", "_steps")

    def __init__(self, t: Term):
        self._term = t
        # (node, children, which): for an inner node, bit 0 of which is set
        # when its first child is rebuilt and bit 1 when its second is; a
        # metavariable has no children
        steps: list[tuple] = []
        below: list[int] = []  # per node scanned: 1 iff a metavariable is under it
        up = object()  # on the stack above a node whose children are scanned
        todo: list = [t]
        while todo:
            node = todo.pop()
            if node is up:
                node = todo.pop()
                if type(node) is Lam:
                    which = below.pop()
                else:
                    second = below.pop()
                    which = below.pop() | second << 1
                if which:
                    steps.append((node, children(node), which))
                below.append(1 if which else 0)
                continue
            tp = type(node)
            if tp is Meta:
                steps.append((node, (), 0))
                below.append(1)
            elif tp is Index or tp is Shift:
                below.append(0)
            elif tp is App:
                todo += (node, up, node.arg, node.fun)
            elif tp is Closure:
                todo += (node, up, node.subst, node.body)
            elif tp is Lam:
                todo += (node, up, node.body)
            elif tp is Cons:
                todo += (node, up, node.tail, node.head)
            elif tp is Comp:
                todo += (node, up, node.second, node.first)
            else:
                raise TypeError(f"not a term or substitution: {node!r}")
        self._steps = steps

    def __bool__(self) -> bool:
        """True iff the term has a metavariable to graft."""
        return bool(self._steps)

    def apply(self, theta: MetaSubst | Mapping[str, Term]) -> Term:
        """The term with every bound metavariable replaced by its image."""
        done: list = []
        for node, kids, which in self._steps:
            if which == 0:
                done.append(theta[node.name] if node.name in theta else node)
            elif len(kids) == 1:
                body = done.pop()
                done.append(node if body is kids[0] else type(node)(body))
            else:
                second = done.pop() if which & 2 else kids[1]
                first = done.pop() if which & 1 else kids[0]
                if first is kids[0] and second is kids[1]:
                    done.append(node)
                else:
                    done.append(type(node)(first, second))
        return done[0] if done else self._term


def graft(theta: MetaSubst | Mapping[str, Term], t: Term) -> Term:
    """Replace every bound metavariable of t by its image, literally.

    No index shifting happens here; the result may contain redexes that the
    rewrite engine is expected to clean up.  A term grafted many times is
    cheaper through one ``GraftPlan``; this is a single ``rebuild`` pass.
    """

    def at_leaf(node):
        if type(node) is Meta and node.name in theta:
            return theta[node.name]
        return node

    return rebuild(t, at_leaf)


def canonicalize_shifts(s: Term | Subst) -> Term | Subst:
    """Collapse composed shifts in a term or substitution: no composition of
    two shifts survives.

    Semantics-preserving; the rewrite engine relies on inputs being in this
    form because no rewrite rule merges adjacent shifts.  Input with no
    composition is returned as it is.
    """
    if not contains(s, Comp):
        return s
    # No leaf is a composition, so the node map passes every leaf through.
    return rebuild(s, _merge_shifts, _merge_shifts)


def _merge_shifts(node: Term | Subst) -> Term | Subst:
    if type(node) is Comp and type(node.first) is Shift and type(node.second) is Shift:
        return Shift(node.first.k + node.second.k)
    return node
