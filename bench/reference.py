"""Independent reference for the benchmark: seeded input generators and the
oracles every output is checked against.

Nothing here calls into ``lamsig.rewrite``, ``lamsig.solver`` or
``lamsig.transform``, and nothing is shared with the test suite's
generators and oracles, so editing either cannot shift the workloads or
weaken the checks.  Only the immutable syntax classes of ``lamsig.terms``
and ``lamsig.sorts`` are used, to build inputs the program accepts.

The oracles:

* ``meaning`` -- a denotational evaluator: a substitution denotes a map
  from indices to closure-free terms, applied by capture-avoiding de Bruijn
  substitution.  On a metavariable-free term the result is the normal form
  under the substitution rules.
* ``beta_normal`` -- normal-order beta normalization of closure-free terms.
* ``instantiate`` -- capture-avoiding instantiation of unknowns in plain
  lambda syntax; ``graft`` is the literal replacement of explicit-closure
  syntax, where closures already carry the renumbering.
* ``find_redex`` -- a redex detector written from the fourteen rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from lamsig.sorts import Arrow, Base, Sort, UnifProblem
from lamsig.terms import App, Closure, Comp, Cons, EqMode, Index, Lam, Meta, Shift


# --- the denotational evaluator -----------------------------------------------


def shift_free(t, by: int, cutoff: int = 0):
    """Add `by` to every index of a closure-free term above `cutoff`."""
    if by == 0:
        return t
    match t:
        case Index(n):
            return Index(n + by) if n > cutoff else t
        case App(fun, arg):
            return App(shift_free(fun, by, cutoff), shift_free(arg, by, cutoff))
        case Lam(body):
            return Lam(shift_free(body, by, cutoff + 1))
    raise TypeError(f"expected a closure-free ground term: {t!r}")


def apply_map(t, image, depth: int = 0):
    """Replace each free index n of a closure-free term by image(n), lifted
    over the `depth` binders passed on the way down."""
    match t:
        case Index(n):
            if n <= depth:
                return t
            return shift_free(image(n - depth), depth)
        case App(fun, arg):
            return App(apply_map(fun, image, depth), apply_map(arg, image, depth))
        case Lam(body):
            return Lam(apply_map(body, image, depth + 1))
    raise TypeError(f"expected a closure-free ground term: {t!r}")


def meaning_subst(s):
    """The index map a ground substitution denotes."""
    match s:
        case Shift(k):
            return lambda n: Index(n + k)
        case Cons(head, tail):
            head_value = meaning(head)
            rest = meaning_subst(tail)
            return lambda n: head_value if n == 1 else rest(n - 1)
        case Comp(first, second):
            outer = meaning_subst(first)
            inner = meaning_subst(second)
            return lambda n: apply_map(outer(n), inner)
    raise TypeError(f"not a substitution: {s!r}")


def meaning(t):
    """Closure-free denotation of a ground term; beta redexes stay."""
    match t:
        case Index():
            return t
        case App(fun, arg):
            return App(meaning(fun), meaning(arg))
        case Lam(body):
            return Lam(meaning(body))
        case Closure(body, s):
            return apply_map(meaning(body), meaning_subst(s))
        case Meta(name):
            raise TypeError(f"meaning of an unknown ?{name} is not defined")
    raise TypeError(f"not a term: {t!r}")


# --- normal-order beta ------------------------------------------------------


def _contract(body, arg):
    return apply_map(body, lambda n: arg if n == 1 else Index(n - 1))


def _beta_once(t):
    match t:
        case App(Lam(body), arg):
            return _contract(body, arg)
        case App(fun, arg):
            reduced = _beta_once(fun)
            if reduced is not None:
                return App(reduced, arg)
            reduced = _beta_once(arg)
            return None if reduced is None else App(fun, reduced)
        case Lam(body):
            reduced = _beta_once(body)
            return None if reduced is None else Lam(reduced)
        case Index():
            return None
    raise TypeError(f"expected a closure-free ground term: {t!r}")


def beta_normal(t, budget: int = 100_000):
    """Normal-order beta normal form of a closure-free term."""
    for _ in range(budget):
        reduced = _beta_once(t)
        if reduced is None:
            return t
        t = reduced
    raise RuntimeError("reference beta budget exhausted")


# --- instantiation of unknowns -------------------------------------------------


def instantiate(t, theta, depth: int = 0):
    """Capture-avoiding instantiation in plain lambda syntax: a binding lives
    in the problem context, so under `depth` binders its free indices move
    up by `depth`."""
    match t:
        case Meta(name):
            return shift_free(theta[name], depth)
        case Index():
            return t
        case App(fun, arg):
            return App(instantiate(fun, theta, depth), instantiate(arg, theta, depth))
        case Lam(body):
            return Lam(instantiate(body, theta, depth + 1))
    raise TypeError(f"expected plain lambda syntax: {t!r}")


def graft(t, theta):
    """Literal replacement of unknowns in explicit-closure syntax."""
    match t:
        case Meta(name):
            return theta.get(name, t)
        case Index():
            return t
        case App(fun, arg):
            return App(graft(fun, theta), graft(arg, theta))
        case Lam(body):
            return Lam(graft(body, theta))
        case Closure(body, s):
            return Closure(graft(body, theta), graft_subst(s, theta))
    raise TypeError(f"not a term: {t!r}")


def graft_subst(s, theta):
    match s:
        case Shift():
            return s
        case Cons(head, tail):
            return Cons(graft(head, theta), graft_subst(tail, theta))
        case Comp(first, second):
            return Comp(graft_subst(first, theta), graft_subst(second, theta))
    raise TypeError(f"not a substitution: {s!r}")


def lambda_equal(lhs, rhs, theta) -> bool:
    """Does theta solve a plain-syntax equation modulo beta?"""
    return beta_normal(instantiate(lhs, theta)) == beta_normal(instantiate(rhs, theta))


def sigma_solves(lhs, rhs, theta) -> bool:
    """Does theta solve an explicit-closure equation modulo the substitution
    rules?  Ground after grafting, so the denotations must coincide."""
    return meaning(graft(lhs, theta)) == meaning(graft(rhs, theta))


# --- the redex detector -------------------------------------------------------


def _term_redex(t, beta: bool):
    match t:
        case App(Lam(), _) if beta:
            return "Beta"
        case Closure(_, Shift(0)):
            return "IdSub"
        case Closure(App(), _):
            return "App"
        case Closure(Lam(), _):
            return "Abs"
        case Closure(Closure(), _):
            return "Clos"
        case Closure(Index(1), Cons()):
            return "VarConsHit"
        case Closure(Index(), Cons()):
            return "VarConsSkip"
        case Closure(Index(), Shift()):
            return "VarShift"
    return None


def _subst_redex(s):
    match s:
        case Comp(Shift(0), _):
            return "IdL"
        case Comp(_, Shift(0)):
            return "IdR"
        case Comp(Shift(), Cons()):
            return "ShiftCons"
        case Comp(Cons(), _):
            return "MapCons"
        case Comp(Comp(), _):
            return "AssocComp"
        case Comp(Shift(), Shift()):
            return "uncanonical shift composition"
        case Cons(Closure(Index(1), inner), Comp(Shift(1), outer)) if inner == outer:
            return "EtaConsShift"
        case Cons(Index(n), Shift(k)) if n == k:
            return "EtaConsShift"
    return None


def find_redex(t, beta: bool):
    """Name of some rule whose left side matches inside t, or None."""
    stack = [t]
    while stack:
        node = stack.pop()
        match node:
            case Shift() | Cons() | Comp():
                hit = _subst_redex(node)
            case _:
                hit = _term_redex(node, beta)
        if hit is not None:
            return hit
        match node:
            case App(fun, arg):
                stack += (fun, arg)
            case Lam(body):
                stack.append(body)
            case Closure(body, s):
                stack += (body, s)
            case Cons(head, tail):
                stack += (head, tail)
            case Comp(first, second):
                stack += (first, second)
    return None


def node_count(t) -> int:
    stack, count = [t], 0
    while stack:
        node = stack.pop()
        count += 1
        match node:
            case App(a, b) | Closure(a, b) | Cons(a, b) | Comp(a, b):
                stack += (a, b)
            case Lam(body):
                stack.append(body)
    return count


# --- generator: terms to normalize ----------------------------------------------

O, I = Base("o"), Base("i")
# Every type the term generator uses.  Each context it builds ends in one
# entry of each, and no shift drops them, so every type has a leaf.
PAIR = Arrow(O, Arrow(I, O))
TYPES = (O, I, Arrow(O, O), Arrow(O, I), Arrow(I, O), Arrow(I, I), Arrow(Arrow(I, O), I), PAIR)


@dataclass
class TermCase:
    """One normalize input: a well-sorted term, its context and unknowns,
    and ground bindings of every unknown for the instantiation check."""

    ctx: tuple
    metavars: dict
    term: object
    bindings: dict

    @property
    def ground(self) -> bool:
        return not self.metavars


class TermGen:
    """Typed generator of terms with closures, compositions, beta redexes
    and (optionally) unknowns.

    Terms stay in the fragment the program's sort checker infers without
    annotations: a function position or cons head is never a bare binder,
    and a binder is applied only to an inferable argument with an
    inferable body."""

    def __init__(self, rng: random.Random, metas: bool, binders: bool = True):
        self.rng = rng
        self.metas = metas
        self.binders = binders
        self.metavars: dict[str, Sort] = {}

    def type(self, bases: float = 0.6):
        if self.rng.random() < bases:
            return self.rng.choice((O, I))
        return self.rng.choice(TYPES[2:])

    def context(self):
        return tuple(self.type() for _ in range(self.rng.randint(0, 3))) + TYPES

    def split(self, total: int) -> int:
        """A share of `total` near its middle: balanced splits keep the cost
        of terms of one size close together."""
        return max(1, min(total - 1, self.rng.randint(total // 3, (2 * total) // 3)))

    def fresh_meta(self, ctx, ty):
        name = f"M{len(self.metavars) + 1}"
        self.metavars[name] = Sort(ctx, ty)
        return Meta(name)

    def leaf(self, ctx, ty):
        if self.metas and self.rng.random() < 0.15:
            return self.fresh_meta(ctx, ty)
        return self.rng.choice([Index(i) for i, entry in enumerate(ctx, start=1) if entry == ty])

    def term(self, ctx, ty, budget: int, infer: bool = False):
        rng = self.rng
        if budget <= 2:
            return self.leaf(ctx, ty)
        kinds = ["app", "app", "closure", "closure", "closure"]
        if isinstance(ty, Arrow) and not infer and self.binders:
            kinds += ["lam", "lam"]
        kind = rng.choice(kinds)
        if kind == "lam":
            return Lam(self.term((ty.dom,) + ctx, ty.cod, budget - 1))
        if kind == "app":
            doms = [d for d in TYPES if Arrow(d, ty) in TYPES]
            if self.binders and budget >= 5 and (not doms or rng.random() < 0.3):
                dom = self.type(0.8)
                split = self.split(budget - 3)
                fun = Lam(self.term((dom,) + ctx, ty, budget - 2 - split, infer=True))
                return App(fun, self.term(ctx, dom, split, infer=True))
            if doms:
                dom = rng.choice(doms)
                split = self.split(budget - 1)
                fun = self.term(ctx, Arrow(dom, ty), budget - 1 - split, infer=True)
                return App(fun, self.term(ctx, dom, split))
        s, target = self.subst(ctx, rng.randint(max(1, budget // 6), max(1, budget // 3)))
        return Closure(self.term(target, ty, budget - 1 - node_count(s), infer), s)

    def subst(self, ctx, budget: int):
        rng = self.rng
        kind = rng.choice(("shift", "cons", "cons", "comp")) if budget > 2 else "shift"
        if kind == "cons":
            head_ty = self.type()
            head = self.term(ctx, head_ty, self.split(budget - 1), infer=True)
            tail, target = self.subst(ctx, budget - 1 - node_count(head))
            return Cons(head, tail), (head_ty,) + target
        if kind == "comp":
            second, mid = self.subst(ctx, self.split(budget - 1))
            first, target = self.subst(mid, budget - 1 - node_count(second))
            return Comp(first, second), target
        k = rng.randint(0, len(ctx) - len(TYPES))
        return Shift(k), ctx[k:]


def gen_term_case(
    rng: random.Random, budget: int, metas: bool, chunks: int = 1, binders: bool = True
) -> TermCase:
    """A term of about `budget` nodes.  With several chunks it is a spine of
    the context's two-argument head over `chunks` independent terms of
    budget / chunks nodes each, which keeps the cost of large terms of one
    size close together."""
    gen = TermGen(rng, metas, binders)
    ctx = gen.context()
    if chunks == 1:
        term = gen.term(ctx, gen.type(), budget)
    else:
        pair = ctx.index(PAIR, len(ctx) - len(TYPES)) + 1
        term = gen.term(ctx, O, budget // chunks)
        for _ in range(chunks - 1):
            term = App(App(Index(pair), term), gen.term(ctx, I, budget // chunks))
    ground = TermGen(rng, metas=False)
    bindings = {
        name: ground.term(sort.ctx, sort.ty, rng.randint(1, 6))
        for name, sort in gen.metavars.items()
    }
    return TermCase(ctx, gen.metavars, term, bindings)


# --- generator: the search family ------------------------------------------------

IOTA = Base("iota")


def fn_type(arity: int):
    ty = IOTA
    for _ in range(arity):
        ty = Arrow(IOTA, ty)
    return ty


# Context entries, outermost first, by name and arity; a width-w context
# takes the first w.
CONSTANTS = (("f", 2), ("g", 1), ("a", 0), ("b", 0), ("h", 1), ("c", 0))


@dataclass
class FamilyProblem:
    """A problem of the scaling family with its known answer."""

    name: str
    kind: str  # "planted" | "clash"
    names: tuple  # context names, outermost first
    arities: dict  # unknown -> arity
    lhs: object  # plain lambda syntax, de Bruijn
    rhs: object
    bound: int
    planted: dict = field(default_factory=dict)  # unknown -> binding

    @cached_property
    def problem(self) -> UnifProblem:
        ctx = tuple(fn_type(dict(CONSTANTS)[n]) for n in reversed(self.names))
        metavars = {x: Sort(ctx, fn_type(n)) for x, n in self.arities.items()}
        return UnifProblem(frozenset({"iota"}), ctx, metavars, self.lhs, self.rhs, EqMode.LAMBDA_SIGMA)


class FamilyGen:
    def __init__(self, rng: random.Random, width: int):
        self.rng = rng
        self.names = tuple(name for name, _ in CONSTANTS[:width])
        self.arity = dict(CONSTANTS[:width])

    def index(self, name: str, depth: int = 0) -> Index:
        return Index(depth + len(self.names) - self.names.index(name))

    def atom(self):
        """A small rigid argument: a constant, or a unary head over one."""
        consts = [n for n in self.names if self.arity[n] == 0]
        unary = [n for n in self.names if self.arity[n] == 1]
        c = self.index(self.rng.choice(consts))
        if self.rng.random() < 0.4:
            return App(self.index(self.rng.choice(unary)), c)
        return c

    def rigid(self, size: int, depth: int):
        """A first-order term of exactly `size` nodes over the constants and
        `depth` bound variables (indices 1..depth).  Every head has arity at
        most 2, so only odd sizes exist."""
        if size % 2 == 0:
            raise ValueError("first-order terms here have odd sizes")
        heads = [(Index(i), 0) for i in range(1, depth + 1)]
        heads += [(self.index(n, depth), self.arity[n]) for n in self.names]
        if size == 1:
            return self.rng.choice([h for h, k in heads if k == 0])
        head, k = self.rng.choice([(h, k) for h, k in heads if k > 0 and 1 + 2 * k <= size])
        sizes = [1] * k
        for _ in range((size - 1 - 2 * k) // 2):
            sizes[self.rng.randrange(k)] += 2
        t = head
        for s in sizes:
            t = App(t, self.rigid(s, depth))
        return t

    def chains(self, unknowns, arities):
        """Applications of the unknowns, each nested into the last argument
        of the one before while arities allow, as in  X a (Y b)."""
        out = []
        i = 0
        while i < len(unknowns):
            chain = [unknowns[i]]
            while arities[chain[-1]] > 0 and i + 1 < len(unknowns):
                i += 1
                chain.append(unknowns[i])
            i += 1
            inner = None
            for x in reversed(chain):
                args = [self.atom() for _ in range(arities[x])]
                if inner is not None:
                    args[-1] = inner
                t = Meta(x)
                for a in args:
                    t = App(t, a)
                inner = t
            out.append(inner)
        return out

    def join(self, parts, head: str):
        """One term of type iota headed by the rigid `head` (f or g)."""
        t = parts[0]
        for other in parts[1:]:
            t = App(App(self.index("f"), t), other)
        if head == "g":
            return App(self.index("g"), t)
        if len(parts) == 1:
            return App(App(self.index("f"), t), self.atom())
        return t


def gen_family_problem(
    rng: random.Random, name: str, kind: str, arities: dict, width: int, body_sizes: dict, bound: int
) -> FamilyProblem:
    """A planted problem (right side = the left side under planted binders
    of known size) or a rigid clash (the sides have distinct rigid heads f
    and g, so no bound has a solution)."""
    gen = FamilyGen(rng, width)
    unknowns = list(arities)
    if kind == "planted":
        parts = gen.chains(unknowns, arities)
        lhs = parts[0] if len(parts) == 1 else gen.join(parts, "f")
        planted = {}
        for x in unknowns:
            body = gen.rigid(body_sizes[x], arities[x])
            for _ in range(arities[x]):
                body = Lam(body)
            planted[x] = body
        rhs = beta_normal(instantiate(lhs, planted))
        return FamilyProblem(name, kind, gen.names, dict(arities), lhs, rhs, bound, planted)
    split = max(1, len(unknowns) // 2)
    lhs = gen.join(gen.chains(unknowns[:split], arities), "f")
    rest = unknowns[split:]
    rhs = gen.join(gen.chains(rest, arities) if rest else [gen.atom()], "g")
    return FamilyProblem(name, kind, gen.names, dict(arities), lhs, rhs, bound)
