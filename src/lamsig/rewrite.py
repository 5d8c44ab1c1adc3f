"""Rewrite rules, one-step rewriting, fueled normalization, and traces.

The substitution rules propagate explicit substitutions through terms and
resolve index lookups; Beta is the only rule excluded from the
substitution-only ("sigma") rule set.  Indices and shifts are primitive, so
two rules do index arithmetic directly (VarConsSkip, VarShift) and composed
shifts are merged on construction — no rewrite rule ever needs to merge
``Shift . Shift`` because such a node is never created.  Inputs are run
through shift canonicalization once, up front, for the same reason.

The pairing collapse EtaConsShift comes in two syntactic forms:

    1[s] . (^1 o s)          ->  s
    Index(k+1) . Shift(k+1)  ->  Shift(k)

The second is the first with s a plain shift, after the index and shift
arithmetic that the primitive representation performs eagerly.  Without it
distinct strategies can reach distinct normal forms when metavariables are
around.

Stepping rests on one invariant: a contraction at path p changes only the
subtree at p and the ancestors of p, and every other node keeps its path.
The leftmost-outermost scan therefore resumes at p instead of restarting
from the root, and the randomized strategy re-collects only the redex paths
under p.  Both produce the steps a fresh scan of each intermediate term
would.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Union

from .terms import (
    App,
    Closure,
    Comp,
    Cons,
    EqMode,
    Index,
    Lam,
    Shift,
    Subst,
    Term,
    canonicalize_shifts_in_term,
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


SIGMA_RULES = frozenset(RuleId) - {RuleId.BETA}


@dataclass
class TraceStep:
    path: Path
    rule: RuleId
    result: Term


@dataclass
class RewriteTrace:
    initial: Term
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def fuel_spent(self) -> int:
        return len(self.steps)


class FuelExhausted(Exception):
    def __init__(self, fuel: int, trace: Optional[RewriteTrace] = None):
        self.fuel = fuel
        self.trace = trace
        super().__init__(f"no normal form within {fuel} rewrite steps")


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


Strategy = Union[LeftmostOutermost, RandomizedPosition]

LEFTMOST_OUTERMOST = LeftmostOutermost()


# --- single rules ---------------------------------------------------------


def _comp(s: Subst, t: Subst) -> Subst:
    """Compose, merging adjacent shifts so that no Shift-of-Shift node exists."""
    if type(s) is Shift and type(t) is Shift:
        return Shift(s.k + t.k)
    return Comp(s, t)


def _term_rule(t: Term, beta: bool) -> Optional[tuple[RuleId, Term]]:
    match t:
        case Closure(body, subst):
            if isinstance(subst, Shift) and subst.k == 0:
                return RuleId.ID_SUB, body
            match body:
                case Index(n):
                    match subst:
                        case Shift(k):
                            return RuleId.VAR_SHIFT, Index(n + k)
                        case Cons(head, tail):
                            if n == 1:
                                return RuleId.VAR_CONS_HIT, head
                            return RuleId.VAR_CONS_SKIP, Closure(Index(n - 1), tail)
                case App(fun, arg):
                    return RuleId.APP, App(Closure(fun, subst), Closure(arg, subst))
                case Lam(inner):
                    return RuleId.ABS, Lam(
                        Closure(inner, Cons(Index(1), _comp(subst, Shift(1))))
                    )
                case Closure(inner, inner_subst):
                    return RuleId.CLOS, Closure(inner, _comp(inner_subst, subst))
        case App(Lam(body), arg) if beta:
            return RuleId.BETA, Closure(body, Cons(arg, Shift(0)))
    return None


def _subst_rule(s: Subst) -> Optional[tuple[RuleId, Subst]]:
    match s:
        case Comp(first, second):
            if isinstance(first, Shift) and first.k == 0:
                return RuleId.ID_L, second
            if isinstance(second, Shift) and second.k == 0:
                return RuleId.ID_R, first
            match first:
                case Shift(k) if isinstance(second, Cons):
                    # k >= 1 here: k == 0 was IdL above
                    if k == 1:
                        return RuleId.SHIFT_CONS, second.tail
                    return RuleId.SHIFT_CONS, _comp(Shift(k - 1), second.tail)
                case Cons(head, tail):
                    return RuleId.MAP_CONS, Cons(Closure(head, second), _comp(tail, second))
                case Comp(s1, s2):
                    return RuleId.ASSOC_COMP, _comp(s1, _comp(s2, second))
        case Cons(Closure(Index(1), inner), Comp(Shift(1), outer)) if inner == outer:
            return RuleId.ETA_CONS_SHIFT, inner
        case Cons(Index(n), Shift(k)) if n == k and n >= 1:
            return RuleId.ETA_CONS_SHIFT, Shift(k - 1)
    return None


def _rule_at(node: Term | Subst, beta: bool) -> Optional[tuple[RuleId, Term | Subst]]:
    # Only closures, Beta's applications and the two compound substitutions
    # head a rule; indices, metavariables, binders and shifts never do.
    tp = type(node)
    if tp is Closure or (beta and tp is App):
        return _term_rule(node, beta)
    if tp is Comp or tp is Cons:
        return _subst_rule(node)
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


Steps = Iterator[tuple[Term, Optional[Path], RuleId]]


def _leftmost(t: Term, beta: bool, paths: bool) -> Steps:
    """Contract the redexes of t in leftmost-outermost order, yielding the
    new term, the path (None unless paths is set) and the rule of each step.

    One pre-order scan serves every step.  After a contraction at p,
    everything left of p is unchanged and still redex-free, so the next
    redex is the first ancestor of p that has become one, tested from the
    root down, or else the first at or after p in pre-order.  When p sat
    under compositions that merged into a shift, the scan resumes at the
    highest of them, because the nodes below it are gone.
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
                        return
                    i = idx[-1] + 1
                    kids = children(parents[-1])
                    if i < len(kids):
                        idx[-1] = i
                        node = kids[i]
                        break
                    parents.pop()
                    idx.pop()
            hit = _rule_at(node, beta)
        rule, new = hit
        path = tuple(idx) if paths else None
        root, depth = _replace(parents, idx, new)
        if depth < len(parents):
            node = parents[depth]
            del parents[depth:], idx[depth:]
        else:
            node = new
        yield root, path, rule
        for k, ancestor in enumerate(parents):
            hit = _rule_at(ancestor, beta)
            if hit is not None:
                node = ancestor
                del parents[k:], idx[k:]
                break
        else:
            hit = _rule_at(node, beta)


def _randomized(t: Term, beta: bool, strategy: RandomizedPosition) -> Steps:
    """Contract a redex drawn by strategy until none is left, yielding as
    _leftmost does.

    The redex paths are kept sorted, which for tuples is pre-order.  After a
    contraction only the changed subtree's slice of paths is collected
    again, and only the ancestors above it are tested again, so the list
    the strategy draws from is the one a full collection would give.
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
            above = path[:k]
            i = bisect_left(positions, above)
            listed = i < len(positions) and positions[i] == above
            if _rule_at(parents[k], beta) is None:
                if listed:
                    del positions[i]
            elif not listed:
                positions.insert(i, above)
        yield root, path, rule


def _steps(t: Term, ruleset: EqMode, strategy: Strategy, paths: bool) -> Steps:
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
) -> Optional[tuple[Term, Path, RuleId]]:
    """Contract one redex of t, or None when t is a normal form.

    The caller is responsible for t being sort-checked; rule application
    itself is purely syntactic.
    """
    return next(_steps(t, ruleset, strategy, True), None)


def _normalize(
    t: Term,
    ruleset: EqMode,
    strategy: Strategy,
    fuel: int,
    trace: Optional[RewriteTrace],
) -> Term:
    current = canonicalize_shifts_in_term(t)
    if trace is not None:
        trace.initial = current
    spent = 0
    for current, path, rule in _steps(current, ruleset, strategy, trace is not None):
        if spent >= fuel:
            raise FuelExhausted(fuel, trace)
        spent += 1
        if trace is not None:
            trace.steps.append(TraceStep(path, rule, current))
    return current


def normalize_sigma(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normal form of t under the substitution rules alone."""
    return _normalize(t, EqMode.SIGMA_ONLY, LEFTMOST_OUTERMOST, fuel, None)


def normalize_lambda_sigma(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normal form of t under Beta plus the substitution rules.

    The term should sort-check: untyped terms need not terminate, and then
    only the fuel bound stops the run.
    """
    return _normalize(t, EqMode.LAMBDA_SIGMA, LEFTMOST_OUTERMOST, fuel, None)


def normalize_traced(
    t: Term,
    ruleset: EqMode = EqMode.SIGMA_ONLY,
    strategy: Strategy = LEFTMOST_OUTERMOST,
    fuel: int = DEFAULT_FUEL,
) -> tuple[Term, RewriteTrace]:
    trace = RewriteTrace(initial=t)
    normal = _normalize(t, ruleset, strategy, fuel, trace)
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

    Normal forms are shift-canonical already: _normalize canonicalizes its
    input, and every rule and _rebuild composes through _comp.
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


def from_pure_indices(t: Term | Subst) -> Term | Subst:
    """Structural inverse of to_pure_indices."""
    # No leaf is a closure, so the node map passes every leaf through as is.
    return rebuild(t, _decode_index, _decode_index)


def _encode_index(node: Term | Subst) -> Term | Subst:
    if type(node) is Index and node.n > 1:
        return Closure(Index(1), Shift(node.n - 1))
    return node


def _decode_index(node: Term | Subst) -> Term | Subst:
    match node:
        case Closure(Index(1), Shift(k)) if k >= 1:
            return Index(k + 1)
    return node
