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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

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
    canonicalize_shifts_in_term,
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

    def rules(self) -> list[RuleId]:
        return [s.rule for s in self.steps]


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
    if isinstance(s, Shift) and isinstance(t, Shift):
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
    if isinstance(node, (Index, Meta, App, Lam, Closure)):
        return _term_rule(node, beta)
    return _subst_rule(node)


_CHILDREN = {
    App: ("fun", "arg"),
    Lam: ("body",),
    Closure: ("body", "subst"),
    Cons: ("head", "tail"),
    Comp: ("first", "second"),
}


def _children(node: Term | Subst) -> tuple:
    names = _CHILDREN.get(type(node))
    if names is None:
        return ()
    return tuple(getattr(node, name) for name in names)


def _rebuild(node: Term | Subst, i: int, child: Term | Subst) -> Term | Subst:
    # Comp is rebuilt through _comp: a child step may turn both sides into
    # plain shifts, and no rule reduces a composition of two shifts — the
    # canonical form has to be restored on the way up.
    match node, i:
        case App(_, arg), 0:
            return App(child, arg)
        case App(fun, _), 1:
            return App(fun, child)
        case Lam(_), 0:
            return Lam(child)
        case Closure(_, subst), 0:
            return Closure(child, subst)
        case Closure(body, _), 1:
            return Closure(body, child)
        case Cons(_, tail), 0:
            return Cons(child, tail)
        case Cons(head, _), 1:
            return Cons(head, child)
        case Comp(_, second), 0:
            return _comp(child, second)
        case Comp(first, _), 1:
            return _comp(first, child)
    raise ValueError(f"no child {i} in {node!r}")


def _step_leftmost(node: Term | Subst, beta: bool) -> Optional[tuple[Term | Subst, list[int], RuleId]]:
    hit = _rule_at(node, beta)
    if hit is not None:
        rule, new = hit
        return new, [], rule
    for i, child in enumerate(_children(node)):
        sub = _step_leftmost(child, beta)
        if sub is not None:
            new_child, path, rule = sub
            path.insert(0, i)
            return _rebuild(node, i, new_child), path, rule
    return None


def _collect_redexes(node: Term | Subst, beta: bool, path: Path, acc: list[Path]) -> None:
    if _rule_at(node, beta) is not None:
        acc.append(path)
    for i, child in enumerate(_children(node)):
        _collect_redexes(child, beta, path + (i,), acc)


def contract_at(t: Term, path: Path, ruleset: EqMode) -> tuple[Term, RuleId]:
    """Apply the priority rule at the given position; used by replay."""
    beta = ruleset is EqMode.LAMBDA_SIGMA

    def go(node: Term | Subst, rest: Path) -> tuple[Term | Subst, RuleId]:
        if not rest:
            hit = _rule_at(node, beta)
            if hit is None:
                raise ValueError(f"no redex at path {path}")
            rule, new = hit
            return new, rule
        new_child, rule = go(_children(node)[rest[0]], rest[1:])
        return _rebuild(node, rest[0], new_child), rule

    new, rule = go(t, path)
    return new, rule


def step(
    t: Term,
    ruleset: EqMode = EqMode.SIGMA_ONLY,
    strategy: Strategy = LEFTMOST_OUTERMOST,
) -> Optional[tuple[Term, Path, RuleId]]:
    """Contract one redex of t, or None when t is a normal form.

    The caller is responsible for t being sort-checked; rule application
    itself is purely syntactic.
    """
    beta = ruleset is EqMode.LAMBDA_SIGMA
    if isinstance(strategy, LeftmostOutermost):
        hit = _step_leftmost(t, beta)
        if hit is None:
            return None
        new, path, rule = hit
        return new, tuple(path), rule
    positions: list[Path] = []
    _collect_redexes(t, beta, (), positions)
    if not positions:
        return None
    path = positions[strategy.pick(len(positions))]
    new, rule = contract_at(t, path, ruleset)
    return new, path, rule


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
    for _ in range(fuel):
        hit = step(current, ruleset, strategy)
        if hit is None:
            return current
        current, path, rule = hit
        if trace is not None:
            trace.steps.append(TraceStep(path, rule, current))
    if step(current, ruleset, strategy) is None:
        return current
    raise FuelExhausted(fuel, trace)


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
    match t:
        case Index(n):
            return t if n == 1 else Closure(Index(1), Shift(n - 1))
        case Meta():
            return t
        case App(fun, arg):
            return App(to_pure_indices(fun), to_pure_indices(arg))
        case Lam(body):
            return Lam(to_pure_indices(body))
        case Closure(body, subst):
            return Closure(to_pure_indices(body), to_pure_indices(subst))
        case Shift():
            return t
        case Cons(head, tail):
            return Cons(to_pure_indices(head), to_pure_indices(tail))
        case Comp(first, second):
            return Comp(to_pure_indices(first), to_pure_indices(second))
    raise TypeError(f"not a term or substitution: {t!r}")


def from_pure_indices(t: Term | Subst) -> Term | Subst:
    """Structural inverse of to_pure_indices."""
    match t:
        case Closure(Index(1), Shift(k)) if k >= 1:
            return Index(k + 1)
        case Index() | Meta() | Shift():
            return t
        case App(fun, arg):
            return App(from_pure_indices(fun), from_pure_indices(arg))
        case Lam(body):
            return Lam(from_pure_indices(body))
        case Closure(body, subst):
            return Closure(from_pure_indices(body), from_pure_indices(subst))
        case Cons(head, tail):
            return Cons(from_pure_indices(head), from_pure_indices(tail))
        case Comp(first, second):
            return Comp(from_pure_indices(first), from_pure_indices(second))
    raise TypeError(f"not a term or substitution: {t!r}")
