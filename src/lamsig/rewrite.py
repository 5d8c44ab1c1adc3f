"""Rewrite rules, the two normalization engines, and traces.

The substitution rules propagate explicit substitutions through terms and
resolve index lookups; Beta is the only rule excluded from the
substitution-only ("sigma") rule set.  Indices and shifts are primitive, so
two rules do index arithmetic directly (VarConsSkip, VarShift) and composed
shifts are merged on construction — no rewrite rule ever needs to merge
``Shift . Shift`` because such a node is never created.

The pairing collapse EtaConsShift comes in two syntactic forms:

    1[s] . (^1 o s)          ->  s
    Index(k+1) . Shift(k+1)  ->  Shift(k)

The second is the first with s a plain shift, after the index and shift
arithmetic that the primitive representation performs eagerly.  Without it
distinct strategies can reach distinct normal forms when metavariables are
around.

Two engines compute normal forms:

* ``normalize_sigma`` is a one-pass evaluator for the substitution rules
  alone, which terminate and are confluent (Abadi, Cardelli, Curien and
  Lévy, *Explicit substitutions*, JFP 1991).  It evaluates each closure
  against a substitution already in normal form instead of rescanning the
  term after every rewrite, and its fuel counts the rule instances it
  performs.  It serves
  throughput: ``sigma_equal``, the substitution-only search and solution
  checks all run on it.
* The stepper contracts one redex at a time, at the position a strategy
  picks, and its fuel counts steps.  It stays where the product is a
  step-by-step trace: ``step``, ``contract_at``, ``normalize_traced``,
  ``replay_trace`` and ``lamsig normalize --trace``.  A trace runs its
  input through shift canonicalization once, up front, and starts from
  the canonical term.  The stepper also contracts the Beta redexes of
  ``normalize_lambda_sigma``: typed lambda-sigma is not strongly
  normalizing (Melliès, TLCA 1995), so Beta needs a termination argument
  of its own before it moves to an evaluator.

Lambda-sigma with EtaConsShift is confluent on terms whose unknowns stand
for terms (Curien, Hardin and Lévy, JACM 1996), so any order of
substitution and Beta steps reaches the same normal form.  Two entry
points rest on that.  ``normalize_lambda_sigma`` runs ``normalize_sigma``
first and the stepper on its result, which is already shift-canonical.
``normalize_graft`` serves the grafts of the reduction and of the
lambda-side search: it contracts Beta only where grafting puts a binder in
front of arguments, hands the rest to ``normalize_sigma``, and runs
``normalize_lambda_sigma`` only on a normal form that still holds an
applied binder, which takes a higher-order redex of the input's own.

Stepping rests on one invariant: a contraction at path p changes only the
subtree at p and the ancestors of p, and every other node keeps its path.
The leftmost-outermost scan therefore resumes at p instead of restarting
from the root, and the randomized strategy re-collects only the redex paths
under p.  Of the ancestors, only two kinds are tested again, from the root
down: the parent of the changed subtree, and every cons.  Every rule but
one looks only at a node and the types of its children (and at the values
of leaf children), and rebuilding an ancestor keeps its constructor, so an
ancestor's child changes type only at the changed subtree: the contracted
node, or the highest composition above it that merged into a shift.  The
one exception is the literal EtaConsShift form 1[s] . (^1 o s), which
compares whole subtrees and so can appear or vanish at a cons through a
change any depth below it.  Both strategies produce the steps a fresh scan
of each intermediate term would.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from enum import Enum
from collections.abc import Generator, Mapping

from .records import Record
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
    canonicalize_shifts,
    children,
    rebuild,
    subterms,
)

DEFAULT_FUEL = 1_000_000

Path = tuple[int, ...]


class RuleId(Enum):
    BETA = "Beta"
    APP = "App"
    ABS = "Abs"
    CLOS = "Clos"
    VAR_CONS_HIT = "VarConsHit"
    VAR_CONS_SKIP = "VarConsSkip"
    VAR_SHIFT = "VarShift"
    ID_SUB = "IdSub"
    SHIFT_CONS = "ShiftCons"
    MAP_CONS = "MapCons"
    ASSOC_COMP = "AssocComp"
    ID_L = "IdL"
    ID_R = "IdR"
    ETA_CONS_SHIFT = "EtaConsShift"


class TraceStep(Record):
    __slots__ = ("path", "rule", "result")

    def __init__(self, path: Path, rule: RuleId, result: Term):
        self.path = path
        self.rule = rule
        self.result = result


class RewriteTrace(Record):
    __slots__ = ("initial", "steps")

    def __init__(self, initial: Term, steps: list[TraceStep] | None = None):
        self.initial = initial
        self.steps = [] if steps is None else steps

    @property
    def fuel_spent(self) -> int:
        return len(self.steps)


class FuelExhausted(Exception):
    """No normal form within the fuel.  The message names what the fuel
    counted: the stepper's rewrite steps, or the evaluator's rule
    instances."""

    def __init__(self, fuel: int, trace: RewriteTrace | None = None, unit: str = "rewrite steps"):
        self.fuel = fuel
        self.trace = trace
        super().__init__(f"no normal form within {fuel} {unit}")


# --- strategies -----------------------------------------------------------


class LeftmostOutermost:
    """Contract the first redex in a preorder, left-to-right scan."""


class RandomizedPosition:
    """Contract a uniformly random redex position; rule choice at a fixed
    position stays the engine's fixed priority order."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def pick(self, count: int) -> int:
        return self._rng.randrange(count)


Strategy = LeftmostOutermost | RandomizedPosition

LEFTMOST_OUTERMOST = LeftmostOutermost()


# --- single rules ---------------------------------------------------------


def _comp(s: Subst, t: Subst) -> Subst:
    """Compose, merging adjacent shifts so that no Shift-of-Shift node exists."""
    if type(s) is Shift and type(t) is Shift:
        return Shift(s.k + t.k)
    return Comp(s, t)


def _closure_rule(t: Closure) -> tuple[RuleId, Term] | None:
    body, subst = t.body, t.subst
    tb, ts = type(body), type(subst)
    if ts is Shift and subst.k == 0:
        return RuleId.ID_SUB, body
    if tb is Index:
        if ts is Shift:
            return RuleId.VAR_SHIFT, Index(body.n + subst.k)
        if ts is Cons:
            if body.n == 1:
                return RuleId.VAR_CONS_HIT, subst.head
            return RuleId.VAR_CONS_SKIP, Closure(Index(body.n - 1), subst.tail)
        return None
    if tb is App:
        return RuleId.APP, App(Closure(body.fun, subst), Closure(body.arg, subst))
    if tb is Lam:
        return RuleId.ABS, Lam(Closure(body.body, Cons(Index(1), _comp(subst, Shift(1)))))
    if tb is Closure:
        return RuleId.CLOS, Closure(body.body, _comp(body.subst, subst))
    return None


def _comp_rule(s: Comp) -> tuple[RuleId, Subst] | None:
    first, second = s.first, s.second
    tf = type(first)
    if tf is Shift and first.k == 0:
        return RuleId.ID_L, second
    if type(second) is Shift and second.k == 0:
        return RuleId.ID_R, first
    if tf is Shift:
        if type(second) is not Cons:
            return None
        # k >= 1 here: k == 0 was IdL above
        if first.k == 1:
            return RuleId.SHIFT_CONS, second.tail
        return RuleId.SHIFT_CONS, _comp(Shift(first.k - 1), second.tail)
    if tf is Cons:
        return RuleId.MAP_CONS, Cons(Closure(first.head, second), _comp(first.tail, second))
    if tf is Comp:
        return RuleId.ASSOC_COMP, _comp(first.first, _comp(first.second, second))
    return None


def _eta_shaped(s: Cons) -> bool:
    """Whether s has the literal EtaConsShift shape 1[_] . (^1 o _), with
    any substitutions in the holes."""
    head, tail = s.head, s.tail
    return (
        type(head) is Closure
        and type(head.body) is Index
        and head.body.n == 1
        and type(tail) is Comp
        and type(tail.first) is Shift
        and tail.first.k == 1
    )


def _cons_rule(s: Cons) -> tuple[RuleId, Subst] | None:
    # EtaConsShift in both forms: 1[s] . (^1 o s), and n . ^n with n >= 1
    head, tail = s.head, s.tail
    if type(head) is Index:
        if type(tail) is Shift and head.n == tail.k:
            return RuleId.ETA_CONS_SHIFT, Shift(tail.k - 1)
    elif _eta_shaped(s) and head.subst == tail.second:
        return RuleId.ETA_CONS_SHIFT, head.subst
    return None


def _rule_at(node: Term | Subst, beta: bool) -> tuple[RuleId, Term | Subst] | None:
    """The rule that fires at node, in the fixed priority order, with its
    result; None when node is no redex.  Dispatch is on the exact type:
    only closures, Beta's applications and the two compound substitutions
    head a rule; indices, metavariables, binders and shifts never do."""
    tp = type(node)
    if tp is Closure:
        return _closure_rule(node)
    if tp is Comp:
        return _comp_rule(node)
    if tp is Cons:
        return _cons_rule(node)
    if tp is App and beta and type(node.fun) is Lam:
        return RuleId.BETA, Closure(node.fun.body, Cons(node.arg, Shift(0)))
    return None


def _rebuild(node: Term | Subst, i: int, child: Term | Subst) -> Term | Subst:
    # Comp is rebuilt through _comp: a child step may turn both sides into
    # plain shifts, and no rule reduces a composition of two shifts — the
    # canonical form has to be restored on the way up.
    tp = type(node)
    if tp is App:
        return App(child, node.arg) if i == 0 else App(node.fun, child)
    if tp is Closure:
        return Closure(child, node.subst) if i == 0 else Closure(node.body, child)
    if tp is Cons:
        return Cons(child, node.tail) if i == 0 else Cons(node.head, child)
    if tp is Comp:
        return _comp(child, node.second) if i == 0 else _comp(node.first, child)
    if tp is Lam:
        return Lam(child)
    raise ValueError(f"no child {i} in {node!r}")


# --- positions --------------------------------------------------------------


def _descend(t: Term | Subst, path: Path) -> tuple[list, Term | Subst]:
    """The nodes along path, root first, and the node the path ends at."""
    parents = []
    for i in path:
        parents.append(t)
        t = children(t)[i]
    return parents, t


def _replace(parents: list, idx, new: Term | Subst) -> tuple[Term | Subst, int]:
    """Put new where the path given by parents and idx ends, rebuilding every
    ancestor through _rebuild and storing it back into parents.

    Returns the new root and the depth of the subtree that changed: the
    path's length, or the depth of the highest Comp ancestor that _comp
    merged into a Shift.  Such merges are contiguous above the path's end,
    because a Comp merges only when the rebuilt child is itself a shift.
    """
    depth = len(parents)
    for k in range(depth - 1, -1, -1):
        parent = parents[k]
        new = _rebuild(parent, idx[k], new)
        if type(new) is Shift and type(parent) is Comp:
            depth = k
        parents[k] = new
    return new, depth


def _collect_redexes(node: Term | Subst, beta: bool, path: Path, acc: list[Path]) -> None:
    """Append the path of every redex under node, prefixed by path, in
    pre-order."""
    stack = [(node, path)]
    while stack:
        node, path = stack.pop()
        if _rule_at(node, beta) is not None:
            acc.append(path)
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], path + (i,)))


# Each step yields the new term, the path and the rule; the finished scan
# returns the normal form.
Steps = Generator[tuple[Term, Path, RuleId], None, Term]


def _leftmost(t: Term, beta: bool) -> Steps:
    """Contract the redexes of t in leftmost-outermost order, yielding the
    new term, the path and the rule of each step, and returning the normal
    form.

    One pre-order scan serves every step.  After a contraction at p,
    everything left of p is unchanged and still redex-free, so the next
    redex is the first ancestor of p that has become one, tested from the
    root down, or else the first at or after p in pre-order.  Only the
    parent of the changed subtree and the cons ancestors can have become
    one (see the module docstring).  When p sat under compositions that
    merged into a shift, the changed subtree is the highest of them and the
    scan resumes there, because the nodes below it are gone.
    """
    parents: list = []  # ancestors of node, root first
    idx: list[int] = []  # the child of each ancestor that the path takes
    node = t
    hit = _rule_at(node, beta)
    while True:
        while hit is None:
            kids = children(node)
            if kids:
                parents.append(node)
                idx.append(0)
                node = kids[0]
            else:
                while True:  # climb to the next unvisited sibling
                    if not parents:
                        return node
                    k = len(parents) - 1
                    i = idx[k] + 1
                    kids = children(parents[k])
                    if i < len(kids):
                        idx[k] = i
                        node = kids[i]
                        break
                    node = parents.pop()
                    idx.pop()
            hit = _rule_at(node, beta)
        rule, new = hit
        path = tuple(idx)
        root, depth = _replace(parents, idx, new)
        node = parents[depth] if depth < len(parents) else new
        del parents[depth:], idx[depth:]
        yield root, path, rule
        last = len(parents) - 1
        for k, ancestor in enumerate(parents):
            if k < last and type(ancestor) is not Cons:
                continue
            hit = _rule_at(ancestor, beta)
            if hit is not None:
                node = ancestor
                del parents[k:], idx[k:]
                break
        else:
            hit = _rule_at(node, beta)


def _randomized(t: Term, beta: bool, strategy: RandomizedPosition) -> Steps:
    """Contract a redex drawn by strategy until none is left, yielding and
    returning as _leftmost does.

    The redex paths are kept sorted, which for tuples is pre-order.  After a
    contraction only the changed subtree's slice of paths is collected
    again, and of the ancestors above it only the parent and the conses are
    tested again, so the list the strategy draws from is the one a full
    collection would give.
    """
    positions: list[Path] = []
    _collect_redexes(t, beta, (), positions)
    root = t
    while positions:
        path = positions[strategy.pick(len(positions))]
        parents, node = _descend(root, path)
        rule, new = _rule_at(node, beta)
        root, depth = _replace(parents, path, new)
        top = path[:depth]
        lo = bisect_left(positions, top)
        hi = bisect_left(positions, top[:-1] + (top[-1] + 1,)) if top else len(positions)
        fresh: list[Path] = []
        _collect_redexes(parents[depth] if depth < len(path) else new, beta, top, fresh)
        positions[lo:hi] = fresh
        for k in range(depth):
            if k < depth - 1 and type(parents[k]) is not Cons:
                continue
            above = path[:k]
            i = bisect_left(positions, above)
            listed = i < len(positions) and positions[i] == above
            if _rule_at(parents[k], beta) is None:
                if listed:
                    del positions[i]
            elif not listed:
                positions.insert(i, above)
        yield root, path, rule
    return root


def _steps(t: Term, ruleset: EqMode, strategy: Strategy) -> Steps:
    beta = ruleset is EqMode.LAMBDA_SIGMA
    if isinstance(strategy, LeftmostOutermost):
        return _leftmost(t, beta)
    return _randomized(t, beta, strategy)


def contract_at(t: Term, path: Path, ruleset: EqMode) -> tuple[Term, RuleId]:
    """Apply the priority rule at the given position; used by replay."""
    parents, node = _descend(t, path)
    hit = _rule_at(node, ruleset is EqMode.LAMBDA_SIGMA)
    if hit is None:
        raise ValueError(f"no redex at path {path}")
    rule, new = hit
    return _replace(parents, path, new)[0], rule


def step(
    t: Term,
    ruleset: EqMode = EqMode.SIGMA_ONLY,
    strategy: Strategy = LEFTMOST_OUTERMOST,
) -> tuple[Term, Path, RuleId] | None:
    """Contract one redex of t, or None when t is a normal form.

    The caller is responsible for t being sort-checked; rule application
    itself is purely syntactic.
    """
    return next(_steps(t, ruleset, strategy), None)


# --- the substitution-only evaluator ------------------------------------------

# The evaluator's instructions.  Each sits on its work stack as a tuple
# (op, node, s, m); every finished normal form goes on its value stack.
# _EVAL and _SUBST read (s, m) as the environment ⇑^m(s): m binders lifted
# over s, a normal substitution other than the identity, or s = None for
# the identity.  _CLOSE and _THEN take the value on top as the environment
# of their node, a closure's body or a composition's first half; the other
# instructions combine values, and _LIFTS keeps its lowest index in the
# node slot.
_EVAL, _SUBST, _APP, _LAM, _CLOSE, _META, _CONS, _THEN, _LIFTS = range(9)

_IDENTITY = Shift(0)
_EVAL_UNIT = "rule instances"  # what the evaluator's fuel counts


def _env(s: Subst) -> Subst | None:
    """A normal substitution as an environment: None for the identity."""
    return None if type(s) is Shift and s.k == 0 else s


def normalize_sigma(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normal form of t under the substitution rules alone, in one pass.

    A normal substitution is a cons list of normal terms ending in a shift,
    since no substitution is a metavariable.  The pass evaluates t[s] with
    s already normal: an index is looked up along s, applications and
    binders are entered, and a closure u[v] is entered once v o s is
    normal.  A binder does not compose s o ^1 for its body; it counts one
    more lift in m, so a nest of binders costs nothing until a closure or
    an unknown needs the substitution written out.  Conses go through
    EtaConsShift as they are built (n . ^n is ^(n-1)) and shifts merge as
    they are composed, so the input needs no canonicalization first.  The
    work and value stacks replace recursion.

    Fuel pays for rule instances: one for each App, Abs, Clos, MapCons,
    AssocComp and ShiftCons the pass performs, and one for each index
    lookup and each cons cell a lookup or a shift skips.  Nothing is
    charged under the identity, where no rule applies.
    """
    spent = 0
    todo: list = [(_EVAL, t, None, 0)]
    done: list = []
    push = todo.append
    out = done.append
    while todo:
        op, x, s, m = todo.pop()
        if op == _EVAL:
            tp = type(x)
            if s is None:
                if tp is App:
                    push((_APP, x, None, 0))
                    push((_EVAL, x.arg, None, 0))
                    push((_EVAL, x.fun, None, 0))
                elif tp is Lam:
                    push((_LAM, x, None, 0))
                    push((_EVAL, x.body, None, 0))
                elif tp is Closure:
                    push((_CLOSE, x.body, None, 0))
                    push((_SUBST, x.subst, None, 0))
                else:
                    out(x)
                continue
            if tp is Meta:  # inert; its closure is ⇑^m(s) written out
                push((_META, x, None, 0))
                push((_SUBST, _IDENTITY, s, m))
                continue
            spent += 1
            if spent > fuel:
                raise FuelExhausted(fuel, unit=_EVAL_UNIT)
            if tp is Index:  # VarConsHit, VarConsSkip, VarShift
                n = x.n - m
                if n <= 0:  # bound by one of the m lifted binders
                    out(x)
                    continue
                while n > 1 and type(s) is Cons:
                    s = s.tail
                    n -= 1
                    spent += 1
                if type(s) is Shift:
                    out(Index(n + s.k + m))
                elif m:
                    push((_EVAL, s.head, Shift(m), 0))
                else:
                    out(s.head)
            elif tp is App:
                push((_APP, x, None, 0))
                push((_EVAL, x.arg, s, m))
                push((_EVAL, x.fun, s, m))
            elif tp is Lam:
                push((_LAM, x, None, 0))
                push((_EVAL, x.body, s, m + 1))
            else:
                push((_CLOSE, x.body, None, 0))
                push((_SUBST, x.subst, s, m))
        elif op == _SUBST:  # the normal form of x o ⇑^m(s)
            tp = type(x)
            if s is None:
                if tp is Shift:
                    out(x)
                elif tp is Cons:
                    push((_CONS, x, None, 0))
                    push((_SUBST, x.tail, None, 0))
                    push((_EVAL, x.head, None, 0))
                else:
                    push((_THEN, x.first, None, 0))
                    push((_SUBST, x.second, None, 0))
                continue
            if tp is Cons:  # MapCons
                spent += 1
                push((_CONS, x, None, 0))
                push((_SUBST, x.tail, s, m))
                push((_EVAL, x.head, s, m))
            elif tp is Comp:  # AssocComp
                spent += 1
                push((_THEN, x.first, None, 0))
                push((_SUBST, x.second, s, m))
            else:
                # ^k o ⇑^m(s) is (k+1) . ... . m . (s o ^m) when k <= m, and
                # drops k - m cells of s before the shift otherwise
                k = x.k
                lo = m
                if k <= m:
                    lo = k
                else:
                    k -= m
                    while k and type(s) is Cons:  # ShiftCons
                        s = s.tail
                        k -= 1
                        spent += 1
                    if k:
                        s = Shift(s.k + k)
                if lo < m:
                    push((_LIFTS, lo, None, m))
                if m == 0:
                    out(s)
                elif type(s) is Shift:
                    out(Shift(s.k + m))
                else:
                    push((_SUBST, s, Shift(m), 0))
            if spent > fuel:
                raise FuelExhausted(fuel, unit=_EVAL_UNIT)
        elif op == _APP:
            arg = done.pop()
            fun = done.pop()
            out(x if fun is x.fun and arg is x.arg else App(fun, arg))
        elif op == _LAM:
            body = done.pop()
            out(x if body is x.body else Lam(body))
        elif op == _CONS:
            tail = done.pop()
            head = done.pop()
            if type(tail) is Shift and type(head) is Index and head.n == tail.k:
                out(Shift(tail.k - 1))  # EtaConsShift
            else:
                out(x if head is x.head and tail is x.tail else Cons(head, tail))
        elif op == _CLOSE:
            push((_EVAL, x, _env(done.pop()), 0))
        elif op == _THEN:
            push((_SUBST, x, _env(done.pop()), 0))
        elif op == _META:
            v = done.pop()
            out(x if _env(v) is None else Closure(x, v))
        else:  # _LIFTS: cons the indices m down to x+1 onto the value
            # the environment is not the identity, so s o ^m is no shift ^m
            # and no cell collapses
            v = done.pop()
            for n in range(m, x, -1):
                v = Cons(Index(n), v)
            out(v)
    if spent > fuel:
        raise FuelExhausted(fuel, unit=_EVAL_UNIT)
    return done[0]


def _normalize(
    t: Term,
    ruleset: EqMode,
    strategy: Strategy,
    fuel: int,
    trace: RewriteTrace | None,
) -> Term:
    """Run the stepper on t to a normal form, spending at most fuel steps
    and recording each in trace when one is given."""
    steps = _steps(t, ruleset, strategy)
    spent = 0
    while True:
        try:
            current, path, rule = next(steps)
        except StopIteration as done:
            return done.value
        if spent >= fuel:
            raise FuelExhausted(fuel, trace)
        spent += 1
        if trace is not None:
            trace.steps.append(TraceStep(path, rule, current))


def normalize_lambda_sigma(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normal form of t under Beta plus the substitution rules.

    normalize_sigma runs first, and the stepper contracts what is left of
    Beta on its normal form, which is shift-canonical; by confluence this
    is the normal form of any lambda-sigma strategy.  Fuel bounds the
    evaluator's rule instances and, counted apart, the stepper's steps, and
    FuelExhausted names the count that ran out.  The term should
    sort-check: untyped terms need not terminate, and then only the fuel
    bound stops the run.
    """
    return _normalize(normalize_sigma(t, fuel), EqMode.LAMBDA_SIGMA, LEFTMOST_OUTERMOST, fuel, None)


def normalize_graft(theta: Mapping[str, Term], t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """The normal form of graft(theta, t) under Beta plus the substitution
    rules, with Beta contracted where the grafted binders meet their
    arguments.

    One rebuild pass grafts theta and, on the way up, contracts each
    application whose function comes back as a binder or a closure over
    one: (lam b) a becomes b[a . ^0] and (lam b)[s] a becomes b[a . s], a
    Beta step followed by substitution steps.  A lifting image lam...lam Y
    applied to the arguments of the unknown it replaces thus becomes the
    closure Y[a_m ... a_1 . ^0], and normalize_sigma finishes.  Only when
    that normal form still holds an applied binder, which takes a
    higher-order redex of t's own such as (lam f. f c) X, does
    normalize_lambda_sigma run on it.  Each phase is a lambda-sigma
    strategy on any input, so by confluence the result is
    normalize_lambda_sigma(graft(theta, t)); fuel bounds the evaluator's
    rule instances and, apart, the stepper's steps.
    The result is normalized even when nothing is grafted.
    """

    def at_leaf(node: Term | Subst) -> Term | Subst:
        if type(node) is Meta and node.name in theta:
            return theta[node.name]
        return node

    normal = normalize_sigma(rebuild(t, at_leaf, _contract_applied_binder), fuel)
    for node in subterms(normal):
        if type(node) is App and type(node.fun) is Lam:
            return normalize_lambda_sigma(normal, fuel)
    return normal


def _contract_applied_binder(node: Term | Subst) -> Term | Subst:
    """normalize_graft's node map: (lam b) a to b[a . ^0], (lam b)[s] a to
    b[a . s], any other node as it is."""
    if type(node) is App:
        fun = node.fun
        if type(fun) is Lam:
            return Closure(fun.body, Cons(node.arg, _IDENTITY))
        if type(fun) is Closure and type(fun.body) is Lam:
            return Closure(fun.body.body, Cons(node.arg, fun.subst))
    return node


def normalize_traced(
    t: Term,
    ruleset: EqMode = EqMode.SIGMA_ONLY,
    strategy: Strategy = LEFTMOST_OUTERMOST,
    fuel: int = DEFAULT_FUEL,
) -> tuple[Term, RewriteTrace]:
    trace = RewriteTrace(initial=canonicalize_shifts(t))
    normal = _normalize(trace.initial, ruleset, strategy, fuel, trace)
    return normal, trace


def replay_trace(trace: RewriteTrace, ruleset: EqMode) -> bool:
    """Re-run a trace from its initial term, checking every recorded step."""
    current = trace.initial
    for recorded in trace.steps:
        current, rule = contract_at(current, recorded.path, ruleset)
        if rule is not recorded.rule or current != recorded.result:
            return False
    return True


def sigma_equal(t1: Term, t2: Term, fuel: int = DEFAULT_FUEL) -> bool:
    """Equality modulo the substitution rules: identical normal forms.

    Normal forms are unique, and shift-canonical because the evaluator
    merges shifts as it composes them, so comparing them needs no further
    canonicalization.
    """
    return normalize_sigma(t1, fuel) == normalize_sigma(t2, fuel)


def lambda_sigma_equal(t1: Term, t2: Term, fuel: int = DEFAULT_FUEL) -> bool:
    """Equality modulo Beta plus the substitution rules."""
    return normalize_lambda_sigma(t1, fuel) == normalize_lambda_sigma(t2, fuel)


# --- unit-shift index encoding -------------------------------------------


def to_pure_indices(t: Term | Subst) -> Term | Subst:
    """Encode every index above 1 as index 1 under a shift.

    Cross-checking form: normalizing the encoded term must agree with
    normalizing the original, which guards the primitive index arithmetic
    of VarConsSkip and VarShift.
    """
    return rebuild(t, _encode_index)


def _encode_index(node: Term | Subst) -> Term | Subst:
    if type(node) is Index and node.n > 1:
        return Closure(Index(1), Shift(node.n - 1))
    return node
