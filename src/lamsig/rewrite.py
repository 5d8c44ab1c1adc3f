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
  the canonical term.  The stepper also contracts the Beta redexes the
  evaluator leaves: typed lambda-sigma is not strongly normalizing
  (Melliès, TLCA 1995), so Beta needs a termination argument of its own
  before it moves to an evaluator.

Lambda-sigma with EtaConsShift is confluent on terms whose unknowns stand
for terms (Curien, Hardin and Lévy, JACM 1996), so any order of
substitution and Beta steps reaches the same normal form.  Two entry
points rest on that, and both run the stepper only when the evaluator
reports that it built an application of a binder: a substitution-normal
term without one is normal under Beta too.  ``normalize_lambda_sigma``
runs the evaluator on its input.  ``normalize_graft`` serves the grafts of
both searches and of the reduction, and grafts inside the evaluator's
pass: a bound unknown's binding is read where the unknown sits, and with
Beta a spine headed by a grafted binder is contracted where the binder
meets its arguments, so no separate walk grafts, contracts or scans.

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
Steps = Generator[tuple[Term, Path | None, RuleId], None, Term]


def _leftmost(t: Term, beta: bool, paths: bool) -> Steps:
    """Contract the redexes of t in leftmost-outermost order, yielding the
    new term, the path and the rule of each step, and returning the normal
    form.  Without paths every step yields None for its path, which only
    step and traces keep.

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
        path = tuple(idx) if paths else None
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


def _steps(t: Term, ruleset: EqMode, strategy: Strategy, paths: bool = True) -> Steps:
    beta = ruleset is EqMode.LAMBDA_SIGMA
    if isinstance(strategy, LeftmostOutermost):
        return _leftmost(t, beta, paths)
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

_IDENTITY = Shift(0)
_NO_BINDINGS: dict[str, Term] = {}  # the plain passes graft nothing
_EVAL_UNIT = "rule instances"  # what the evaluator's fuel counts


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
    return _evaluate(t, fuel, _NO_BINDINGS, False, False)[0]


def _evaluate(
    t: Term, fuel: int, theta: Mapping[str, Term], beta: bool, flag: bool = True
) -> tuple[Term, bool]:
    """normalize_sigma's pass over graft(theta, t), and whether it built an
    application of a binder.

    A bound unknown, bare or under a closure, is read from theta where it
    sits, and its binding is evaluated in the environment there.  That is
    what the pass does to the binding after a literal graft, so the rule
    instances, and the fuel, are the same.  With beta, an application
    spine whose head, read through theta, is a binder or a closure over
    one is first contracted as the graft would contract it (see
    _graft_site).  A normal value that the pass evaluates again under a
    shift, an environment entry, is no graft site, as the literal graft
    contracts nothing the pass builds: contraction is off until that
    value is done.  The lookup sits in the branches that reach an
    unknown, and the contraction in the App branches, behind beta.  The
    bindings are taken as grafted: none mentions an unknown theta binds,
    and with beta none holds a spine headed by a binder or a closure over
    one, as no candidate and no lifting image does.

    With flag, the flag is set whenever an application of a binder is
    built, so the normal form is normal under Beta too unless it is set;
    without, it stays False and costs nothing.  It can be set without one
    left: an application built inside a cons entry that no lookup reaches
    is dropped with the entry.  Only a cons in t or in a binding, or a
    graft site's arguments, make such entries, since the entries the pass
    itself lifts are indices.
    """
    # The instructions, local because the loop reads one or more on every
    # turn.  Each sits on the work stack as a tuple (op, node, s, m);
    # every finished normal form goes on the value stack.  EVAL and SUBST
    # read (s, m) as the environment ⇑^m(s): m binders lifted over s, a
    # normal substitution other than the identity, or s = None for the
    # identity.  CLOSE and THEN take the value on top as the environment of
    # their node, a closure's body or a composition's first half; the other
    # instructions combine values, and LIFTS keeps its lowest index in the
    # node slot.  BETA turns graft-site contraction back on once a normal
    # value, which the pass evaluates again under a shift, is done.
    EVAL, SUBST, APP, LAM, CLOSE, META, CONS, THEN, LIFTS, BETA = range(10)
    spent = 0
    applied = False
    todo: list = [(EVAL, t, None, 0)]
    done: list = []
    push = todo.append
    out = done.append
    while todo:
        op, x, s, m = todo.pop()
        if op == EVAL:
            tp = type(x)
            if s is None:
                if tp is App:
                    if beta:
                        contracted = _graft_site(x, theta)
                        if contracted is not None:
                            push((EVAL, contracted, None, 0))
                            continue
                    push((APP, x, None, 0))
                    push((EVAL, x.arg, None, 0))
                    push((EVAL, x.fun, None, 0))
                elif tp is Lam:
                    push((LAM, x, None, 0))
                    push((EVAL, x.body, None, 0))
                elif tp is Closure:
                    push((CLOSE, x.body, None, 0))
                    push((SUBST, x.subst, None, 0))
                elif tp is Meta and x.name in theta:
                    push((EVAL, theta[x.name], None, 0))
                else:
                    out(x)
                continue
            if tp is Meta:
                if x.name in theta:
                    push((EVAL, theta[x.name], s, m))
                else:  # inert; its closure is ⇑^m(s) written out
                    push((META, x, None, 0))
                    push((SUBST, _IDENTITY, s, m))
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
                    if beta:  # a value is no graft site
                        beta = False
                        push((BETA, None, None, 0))
                    push((EVAL, s.head, Shift(m), 0))
                else:
                    out(s.head)
            elif tp is App:
                if beta:
                    contracted = _graft_site(x, theta)
                    if contracted is not None:
                        spent -= 1  # the contracted term pays for its own root
                        push((EVAL, contracted, s, m))
                        continue
                push((APP, x, None, 0))
                push((EVAL, x.arg, s, m))
                push((EVAL, x.fun, s, m))
            elif tp is Lam:
                push((LAM, x, None, 0))
                push((EVAL, x.body, s, m + 1))
            else:
                push((CLOSE, x.body, None, 0))
                push((SUBST, x.subst, s, m))
        elif op == SUBST:  # the normal form of x o ⇑^m(s)
            tp = type(x)
            if s is None:
                if tp is Shift:
                    out(x)
                elif tp is Cons:
                    push((CONS, x, None, 0))
                    push((SUBST, x.tail, None, 0))
                    push((EVAL, x.head, None, 0))
                else:
                    push((THEN, x.first, None, 0))
                    push((SUBST, x.second, None, 0))
                continue
            if tp is Cons:  # MapCons
                spent += 1
                push((CONS, x, None, 0))
                push((SUBST, x.tail, s, m))
                push((EVAL, x.head, s, m))
            elif tp is Comp:  # AssocComp
                spent += 1
                push((THEN, x.first, None, 0))
                push((SUBST, x.second, s, m))
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
                    push((LIFTS, lo, None, m))
                if m == 0:
                    out(s)
                elif type(s) is Shift:
                    out(Shift(s.k + m))
                else:
                    if beta:
                        beta = False
                        push((BETA, None, None, 0))
                    push((SUBST, s, Shift(m), 0))
            if spent > fuel:
                raise FuelExhausted(fuel, unit=_EVAL_UNIT)
        elif op == APP:
            arg = done.pop()
            fun = done.pop()
            if flag and type(fun) is Lam:
                applied = True
            out(x if fun is x.fun and arg is x.arg else App(fun, arg))
        elif op == LAM:
            body = done.pop()
            out(x if body is x.body else Lam(body))
        elif op == CONS:
            tail = done.pop()
            head = done.pop()
            if type(tail) is Shift and type(head) is Index and head.n == tail.k:
                out(Shift(tail.k - 1))  # EtaConsShift
            else:
                out(x if head is x.head and tail is x.tail else Cons(head, tail))
        elif op == CLOSE:
            v = done.pop()  # the identity is no environment
            push((EVAL, x, None if type(v) is Shift and v.k == 0 else v, 0))
        elif op == THEN:
            v = done.pop()
            push((SUBST, x, None if type(v) is Shift and v.k == 0 else v, 0))
        elif op == META:
            v = done.pop()
            out(x if type(v) is Shift and v.k == 0 else Closure(x, v))
        elif op == LIFTS:  # cons the indices m down to x+1 onto the value
            # the environment is not the identity, so s o ^m is no shift ^m
            # and no cell collapses
            v = done.pop()
            for n in range(m, x, -1):
                v = Cons(Index(n), v)
            out(v)
        else:  # BETA
            beta = True
    if spent > fuel:
        raise FuelExhausted(fuel, unit=_EVAL_UNIT)
    return done[0], applied


def _graft_site(x: App, theta: Mapping[str, Term]) -> Term | None:
    """The term the graft site x contracts to, or None when x is none.

    x is a graft site when its spine's head, read through theta, is a
    binder, or a closure over a binder or over an unknown bound to one.
    Grafting theta and then contracting (lam b) a to b[a . ^0] and
    (lam b)[s] a to b[a . s] from the innermost application out lets each
    binder take the next argument, j = min(binders, arguments) in all.
    The result is the body left after j binders, closed over
    a_j ... a_1 . s (s is ^0 for a bare binder), applied to the arguments
    no binder took; its parts are x's own, ungrafted, for the pass to
    graft as it reaches them.  When that body is an unknown bound to more
    binders, the rest of the spine is a graft site again, headed by a
    closure over it, and the pass contracts it next.  A spine headed by a
    lifting image lam...lam Y thus becomes Y[a_m ... a_1 . ^0].
    """
    head = x.fun
    while type(head) is App:
        head = head.fun
    if type(head) is Meta:
        head = theta.get(head.name, head)
    subst: Subst = _IDENTITY
    if type(head) is Closure:
        subst = head.subst
        head = head.body
        if type(head) is Meta:
            head = theta.get(head.name, head)
    if type(head) is not Lam:
        return None
    args = []
    while type(x) is App:
        args.append(x.arg)
        x = x.fun
    while args and type(head) is Lam:
        head = head.body
        subst = Cons(args.pop(), subst)
    result: Term = Closure(head, subst)
    for arg in reversed(args):
        result = App(result, arg)
    return result


def _normalize(
    t: Term,
    ruleset: EqMode,
    strategy: Strategy,
    fuel: int,
    trace: RewriteTrace | None,
) -> Term:
    """Run the stepper on t to a normal form, spending at most fuel steps
    and recording each in trace when one is given."""
    steps = _steps(t, ruleset, strategy, trace is not None)
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

    The substitution-only pass runs first.  Its normal form is normal
    under Beta too unless it holds an application of a binder, and only
    then does the stepper contract what is left of Beta on it; by
    confluence this is the normal form of any lambda-sigma strategy.  Fuel
    bounds the evaluator's rule instances and, counted apart, the
    stepper's steps, and FuelExhausted names the count that ran out.  The
    term should sort-check: untyped terms need not terminate, and then
    only the fuel bound stops the run.
    """
    return _finish_beta(*_evaluate(t, fuel, _NO_BINDINGS, False), fuel)


def _finish_beta(normal: Term, applied: bool, fuel: int) -> Term:
    """The lambda-sigma normal form of a substitution-normal term, given
    whether it may hold an application of a binder: the stepper runs only
    when it may."""
    if applied:
        return _normalize(normal, EqMode.LAMBDA_SIGMA, LEFTMOST_OUTERMOST, fuel, None)
    return normal


def normalize_graft(theta: Mapping[str, Term], t: Term, mode: EqMode, fuel: int = DEFAULT_FUEL) -> Term:
    """The normal form of graft(theta, t) in mode's equality, grafted and
    normalized in one pass of the evaluator (see _evaluate), which reads
    each bound unknown's binding where the unknown sits.

    Without Beta that is the whole of it: the result and the fuel spent
    are those of normalize_sigma(graft(theta, t)).  With Beta the pass also
    contracts each application spine headed by a grafted binder, where the
    binders meet their arguments, as contracting after a literal graft
    would (see _graft_site): a lifting image lam...lam Y applied to the
    arguments of the unknown it replaces becomes the closure
    Y[a_m ... a_1 . ^0] before it is evaluated.  Only when the pass builds
    an application of a binder, which takes a higher-order redex of t's
    own such as (lam f. f c) X, does the stepper run on its result.  Each
    phase is a lambda-sigma strategy, so by confluence the result is
    normalize_lambda_sigma(graft(theta, t)); fuel bounds the evaluator's
    rule instances and, apart, the stepper's steps.

    The bindings must be as the searches and the lifting make them: none
    mentions an unknown theta binds, and none holds a spine headed by a
    binder.  The result is normalized even when nothing is grafted.
    """
    if mode is EqMode.SIGMA_ONLY:
        return _evaluate(t, fuel, theta, False, False)[0]
    return _finish_beta(*_evaluate(t, fuel, theta, True), fuel)


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
