"""Bounded search for unifiers, and solution checking in both equalities.

Unification modulo the substitution rules is undecidable, so every negative
answer here means "no solution within the stated bounds" and nothing more.
There is one search, _product_search.  It streams well-sorted candidate
terms for every unknown that occurs in the sides, in a deterministic
order, normalizes the two sides once with the unknowns left inert, and
decomposes their rigid structure (Huet's simplification: Decompose and
Fail).  A rigid clash ends the search before any assignment is tried:
before any stream is opened when the sides are known to be normal
already, and otherwise before any stream is read past its first
candidate.  Otherwise each flex-rigid pair prunes the stream of the unknown
at the head of its flex side (Huet's rigid-head test, in the
explicit-substitution form of Dowek, Hardin and Kirchner): the rigid side's
head survives grafting, and the head of the flex side's instance is a
function of the candidate's head, the closure's entries and the spine's
arguments.  A candidate whose instance head is decided and clashes fails
every assignment, so it is dropped before it is grafted or normalized.
The pruning keeps the order of the candidates it keeps, so what is left
is the old product order with failing assignments taken out.  Total
assignments are then tried one by one in product order, comparing the
normal forms of the grafted flex pairs.  The streams are read only as far
as the assignments tried reach, so the first hit ends the search without
listing the rest.  A part without unknowns is normal already and is
compared as it is, so a matching problem, with one ground side, needs no
search of its own.  solve_sigma runs the search with the
substitution rules, decide_small_lambda with Beta added; both build their
instances with rewrite.normalize_graft, which grafts inside the
evaluator's one pass.  Each hit gets every check of check_solution, on
another path: a literal graft, then sigma_equal or lambda_sigma_equal.
Every verdict validates the problem first and reads its sides as
written: a valid problem is its own precooked form (see
transform.precook).  That keeps the trusted core small enough for the
transfer properties to be checked against it, not through it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from .rewrite import (
    DEFAULT_FUEL,
    FuelExhausted,
    lambda_sigma_equal,
    normalize_graft,
    normalize_lambda_sigma,
    sigma_equal,
)
from .records import FrozenRecord, Record, slot_setters
from .sorts import (
    Arrow,
    Context,
    SimpleType,
    Sort,
    UnifProblem,
    sort_check_term,
)
from .terms import (
    App,
    Closure,
    EqMode,
    Index,
    Lam,
    Meta,
    MetaSubst,
    Shift,
    Term,
    free_metavars,
    graft,
    is_simple,
)
from .transform import decompose_cons_shift, known_normal_sides, normal_sides, require_valid


class SearchConfig(FrozenRecord):
    __slots__ = ("size_bound", "depth_bound", "fuel", "find_all", "max_solutions")

    def __init__(
        self,
        size_bound: int = 4,
        depth_bound: int = 8,
        fuel: int = DEFAULT_FUEL,
        find_all: bool = False,
        max_solutions: int = 16,
    ):
        _set_config_size_bound(self, size_bound)
        _set_config_depth_bound(self, depth_bound)
        _set_config_fuel(self, fuel)
        _set_config_find_all(self, find_all)
        _set_config_max_solutions(self, max_solutions)
        for name in ("size_bound", "depth_bound", "fuel", "max_solutions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


(
    _set_config_size_bound,
    _set_config_depth_bound,
    _set_config_fuel,
    _set_config_find_all,
    _set_config_max_solutions,
) = slot_setters(SearchConfig)


class Solved(Record):
    __slots__ = ("solutions",)

    def __init__(self, solutions: list[MetaSubst]):
        self.solutions = solutions


class ExhaustedNoSolution(Record):
    __slots__ = ("size_bound", "depth_bound")

    def __init__(self, size_bound: int, depth_bound: int):
        self.size_bound = size_bound
        self.depth_bound = depth_bound

    def __str__(self):
        return f"no solution within size <= {self.size_bound}, depth <= {self.depth_bound}"


class Aborted(Record):
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


SearchOutcome = Solved | ExhaustedNoSolution | Aborted


# --- candidate enumeration -----------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ways of writing total as an ordered sum of `parts` positive integers,
    lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_simple_terms(
    sort: Sort,
    metavar_pool: dict[str, Sort],
    cfg: SearchConfig,
) -> Iterator[Term]:
    """All simple, beta-normal terms of the given sort, by nondecreasing
    size.

    Candidates are index-headed application spines, binders when the target
    type is an arrow, and pool metavariables under a plain shift.  Ties are
    broken by constructor (index, application, binder, metavariable), then
    by the obvious positional orders, so the stream is deterministic.
    """
    for size in range(1, cfg.size_bound + 1):
        yield from _exact_size(sort.ctx, sort.ty, size, cfg.depth_bound, metavar_pool)


def _exact_size(
    ctx: Context,
    ty: SimpleType,
    size: int,
    depth: int,
    pool: dict[str, Sort],
) -> Iterator[Term]:
    if depth == 0 or size < 1:
        return

    if size == 1:
        for i, entry in enumerate(ctx, start=1):
            if entry == ty:
                yield Index(i)

    # application spines headed by an index; head_ty tracks the type left
    # after the args collected so far
    for i, entry in enumerate(ctx, start=1):
        head_ty = entry
        args: list[SimpleType] = []
        while isinstance(head_ty, Arrow):
            args.append(head_ty.dom)
            head_ty = head_ty.cod
            k = len(args)
            arg_budget = size - 1 - k
            if head_ty != ty or arg_budget < k:
                continue
            for sizes in _compositions(arg_budget, k):
                for combo in _arg_combos(ctx, tuple(args), sizes, depth - 1, pool):
                    spine: Term = Index(i)
                    for arg in combo:
                        spine = App(spine, arg)
                    yield spine

    if isinstance(ty, Arrow) and size >= 2:
        for body in _exact_size((ty.dom,) + ctx, ty.cod, size - 1, depth - 1, pool):
            yield Lam(body)

    for name, meta_sort in pool.items():
        if meta_sort.ty != ty:
            continue
        if size == 1 and meta_sort.ctx == ctx:
            yield Meta(name)
        if size == 3:
            for k in range(1, len(ctx) + 1):
                if ctx[k:] == meta_sort.ctx:
                    yield Closure(Meta(name), Shift(k))


def _arg_combos(ctx, arg_types, sizes, depth, pool) -> Iterator[tuple[Term, ...]]:
    """Every choice of arguments of the given types and sizes, the last
    argument varying fastest.  Each argument's candidates are listed once;
    an argument with none ends the listing before the later ones."""
    lists = []
    for ty, size in zip(arg_types, sizes):
        candidates = list(_exact_size(ctx, ty, size, depth, pool))
        if not candidates:
            return iter(())
        lists.append(candidates)
    return itertools.product(*lists)


# --- solution checking ----------------------------------------------------


def _warn(message: str, *args) -> None:
    """Log a warning on the ``lamsig.solver`` logger.  ``logging`` is
    imported on the first warning, not at start-up: nothing else uses it,
    and it is slow to import."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _occurring(p: UnifProblem) -> list[str]:
    """The declared unknowns that occur in the sides, in declaration order:
    the ones a solution binds."""
    occurring = free_metavars(p.lhs) | free_metavars(p.rhs)
    return [name for name in p.metavars if name in occurring]


def _solves(p: UnifProblem, theta: MetaSubst, fuel: int, occurring: list[str]) -> bool:
    """check_solution without the validation of p, which the search has
    done before its hits come; occurring is _occurring(p), which the search
    finds once for all its hits."""
    missing = set(occurring) - set(theta.keys())
    if missing:
        raise ValueError(f"substitution misses metavariable(s): {', '.join(sorted(missing))}")

    for name, term in theta.items():
        sort = p.metavars.get(name)
        if sort is None:
            continue
        sort_check_term(sort.ctx, p.metavars, term, expected=sort.ty)
        if not is_simple(term):
            _warn("binding for %s is not simple", name)
        if normalize_lambda_sigma(term, fuel) != term:
            _warn("binding for %s contains redexes", name)

    equal = lambda_sigma_equal if p.mode is EqMode.LAMBDA_SIGMA else sigma_equal
    return equal(graft(theta, p.lhs), graft(theta, p.rhs), fuel)


def check_solution(p: UnifProblem, theta: MetaSubst, fuel: int = DEFAULT_FUEL) -> bool:
    """True iff grafting theta makes the two sides of the valid problem p
    equal in p's equality.  p is validated first, as for a search; theta
    must bind every unknown that occurs in the sides.  Bindings are
    sort-checked against their declarations; non-simple ones and ones with
    inert redexes are accepted but logged."""
    require_valid(p, p.mode, "check_solution")
    return _solves(p, theta, fuel, _occurring(p))


# --- bounded search ---------------------------------------------------------


def _spine(t: Term) -> tuple[Term, list[Term]]:
    """Head and arguments of an application spine, arguments in order."""
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def _decompose(lhs: Term, rhs: Term, mode: EqMode) -> list[tuple[Term, Term]] | None:
    """Huet's SIMPL on two normal forms: the flex pairs left after
    decomposing the rigid structure they share, left to right, or None at a
    rigid clash.

    A binder, or a spine headed by an index, is rigid.  In sigma mode so is
    a spine headed by a binder, since no rule fires at an applied binder
    without Beta.  Any other spine (headed by an unknown or a closure) is
    flex.  Two rigid spines with the same kind of head and the same number
    of arguments give their arguments pairwise, after their heads' bodies
    if the heads are binders; index heads must be equal.  Pairs that are
    already identical are dropped.
    """
    sigma = mode is EqMode.SIGMA_ONLY
    flex: list[tuple[Term, Term]] = []
    stack = [(lhs, rhs)]
    while stack:
        a, b = stack.pop()
        if a == b:
            continue
        a_head, a_args = _spine(a)
        b_head, b_args = _spine(b)
        if not (_rigid(a_head, a_args, sigma) and _rigid(b_head, b_args, sigma)):
            flex.append((a, b))
        elif type(a_head) is not type(b_head) or len(a_args) != len(b_args):
            return None
        elif type(a_head) is Lam:
            stack.extend(reversed([(a_head.body, b_head.body), *zip(a_args, b_args)]))
        elif a_head == b_head:
            stack.extend(reversed(list(zip(a_args, b_args))))
        else:
            return None
    return flex


def _rigid(head: Term, args: list[Term], sigma: bool) -> bool:
    return type(head) is Index or (type(head) is Lam and (sigma or not args))


def _head_demands(flex: list[tuple[Term, Term]], sigma: bool) -> dict[str, list[tuple]]:
    """The rigid heads the flex-rigid pairs demand of each unknown's
    instances, as a list per unknown of (entries, n, args, head, count).

    A pair counts when its flex side is a spine X a1..am, X[^n] a1..am or
    X[c1..cp . ^n] a1..am, and its other side is rigid with count
    arguments; entries are the c's, args the a's.  Rigid heads are keyed
    as _decompose compares them: an index by its number, a binder by 0.
    """
    demands: dict[str, list[tuple]] = {}
    for a, b in flex:
        a_head, a_args = _spine(a)
        b_head, b_args = _spine(b)
        if _rigid(b_head, b_args, sigma):
            head, args, rigid_head, rigid_args = a_head, a_args, b_head, b_args
        elif _rigid(a_head, a_args, sigma):
            head, args, rigid_head, rigid_args = b_head, b_args, a_head, a_args
        else:
            continue
        entries: list[Term] = []
        n = 0
        if type(head) is Closure:
            split = decompose_cons_shift(head.subst)
            if split is None:
                continue
            entries, n = split
            head = head.body
        if type(head) is Meta:
            key = rigid_head.n if type(rigid_head) is Index else 0
            demands.setdefault(head.name, []).append((entries, n, args, key, len(rigid_args)))
    return demands


def _instance_head(
    u: Term, entries: list[Term], n: int, args: list[Term], beta: bool
) -> tuple[int, int] | None:
    """The head key and argument count of the normal form of
    u[c1..cp . ^n] a1..am, read off u's head alone; None when they depend on
    more than that.

    With Beta, each leading binder of u consumes one argument, j in all.  A
    binder left over stays a binder, applied to the arguments it did not
    consume: none with Beta, all m without.  Otherwise u's head index i
    looks up the substitution a_j..a_1 . c1..cp . ^n: i <= j projects onto
    a(j-i+1) and j < i <= j+p onto c(i-j), and the instance's head is the
    head of that term if it is an index; a larger i imitates i-j-p+n.  The
    instance's arguments are those of the projected term, if any, then
    u's own, then the m-j that no binder consumed.
    """
    m = len(args)
    binders = 0
    while type(u) is Lam:
        binders += 1
        u = u.body
    j = min(binders, m) if beta else 0
    if binders > j:
        return 0, m - j
    head, own = _spine(u)
    if type(head) is not Index:
        return None
    i = head.n
    count = len(own) + m - j
    if i > j + len(entries):
        return i - j - len(entries) + n, count
    target = args[j - i] if i <= j else entries[i - j - 1]
    head, own = _spine(target)
    if type(head) is not Index:
        return None
    return head.n, len(own) + count


def _fits(demands: list[tuple], beta: bool) -> Callable[[Term], bool]:
    """Whether a candidate can meet every demand: False only when some
    instance head is decided and differs from the head its pair demands."""

    def fits(u: Term) -> bool:
        for entries, n, args, head, count in demands:
            got = _instance_head(u, entries, n, args, beta)
            if got is not None and got != (head, count):
                return False
        return True

    return fits


def _assignments(
    names: list[str],
    streams: list[Iterator[Term]],
    firsts: list[Term],
) -> Iterator[dict[str, Term]]:
    """Every assignment of the streams' candidates to names, in product
    order with the last name varying fastest, as one dict updated in place.

    A stream is drawn from only when the product first reaches a candidate
    past those drawn, and what is drawn is kept for the next round of the
    names before it, so each stream is read at most once and no further
    than the search goes.  With no names there is one assignment, the empty
    one.
    """
    drawn = [[first] for first in firsts]
    streams = list(streams)
    ranks = [0] * len(names)
    assignment = dict(zip(names, firsts))
    while True:
        yield assignment
        k = len(names) - 1
        while k >= 0:
            rank = ranks[k] + 1
            candidates = drawn[k]
            if rank == len(candidates) and streams[k] is not None:
                candidate = next(streams[k], None)
                if candidate is None:
                    streams[k] = None
                else:
                    candidates.append(candidate)
            if rank < len(candidates):
                ranks[k] = rank
                assignment[names[k]] = candidates[rank]
                break
            ranks[k] = 0
            assignment[names[k]] = candidates[0]
            k -= 1
        else:
            return


def _product_search(p: UnifProblem, cfg: SearchConfig) -> SearchOutcome:
    """Try every assignment of the candidate streams in product order on
    the flex pairs left by decomposing the normal forms of p's sides.  The
    streams are those of the unknowns that occur in the sides, the ones a
    solution binds: an unknown the sides never mention neither multiplies
    the product nor, with an empty stream, rules a solution out.

    Sound because unknowns are first-order and a closure over one is inert,
    so rewriting is closed under grafting and, normal forms being unique,
    nf(graft theta t) = nf(graft theta (nf t)); no rule fires at a binder,
    along an index-headed spine or, without Beta, at an applied binder, so
    the rigid structure survives grafting.

    Before the product, each unknown's stream drops the candidates that
    fail a flex-rigid pair on every assignment (Huet's rigid-head test).
    The rigid side's head and argument count survive grafting.  The flex
    side is a spine X[c1..cp . ^n] a1..am, and the head and argument count
    of its instance are a function of the candidate's head, the entries
    and the arguments (see _instance_head): other unknowns occur only in
    the entries and arguments, below any head that is an index, so their
    bindings cannot change it.  A candidate whose instance head is decided
    and differs is dropped.  The filter keeps the order of what it keeps,
    and the product order of the kept candidates is the old product order
    with failing assignments left out, so hits come in the same order and
    find_all lists are unchanged.  A dropped candidate is never grafted or
    normalized: with too little fuel to normalize one of its assignments,
    the search no longer aborts there.

    An instance of a part t under an assignment theta is
    normalize_graft(theta, t) in p's equality, which grafts in the same
    pass as it normalizes; the candidates are ground, simple and normal,
    as it requires of its bindings.  The sides are decomposed as
    transform.normal_sides gives them, in one of two orders.  When
    transform.known_normal_sides has them (a reduction's target, or a
    problem searched before whose sides came back unchanged), nothing is
    normalized to decompose them, so they are decomposed first: a rigid
    clash ends the search before the unknowns are found or any stream is
    opened, and no fuel runs out in either order.  Otherwise each stream is
    drawn from once before anything is normalized, so an empty product
    normalizes nothing.  After that, the streams are drawn from only as far
    as the assignments tried reach (see _assignments): the first hit ends
    the search without listing the rest.  Each flex part with an unknown is
    instantiated with each assignment tried; a part without one is normal
    already, and is its own instance.  An assignment is tried as a plain
    dict, and only a hit becomes a MetaSubst, checked as check_solution
    checks it, against the occurring unknowns the search found once.  No
    assignment can fail MetaSubst's idempotency check: candidates are
    ground.
    """
    mode = p.mode
    sides = known_normal_sides(p)
    if sides is not None:
        flex = _decompose(*sides, mode)
        if flex is None:
            return ExhaustedNoSolution(cfg.size_bound, cfg.depth_bound)
    names = _occurring(p)
    streams = [enumerate_simple_terms(p.metavars[name], {}, cfg) for name in names]
    firsts = [next(stream, None) for stream in streams]
    if any(first is None for first in firsts):
        return ExhaustedNoSolution(cfg.size_bound, cfg.depth_bound)
    fuel = cfg.fuel

    def instance(part: Term) -> Callable[[dict[str, Term]], Term]:
        if free_metavars(part):
            return lambda theta: normalize_graft(theta, part, mode, fuel)
        return lambda theta: part

    solutions: list[MetaSubst] = []
    try:
        if sides is None:
            flex = _decompose(*normal_sides(p, fuel), mode)
            if flex is None:
                return ExhaustedNoSolution(cfg.size_bound, cfg.depth_bound)
        instances = [(instance(a), instance(b)) for a, b in flex]
        beta = mode is EqMode.LAMBDA_SIGMA
        demands = _head_demands(flex, not beta)
        for k, name in enumerate(names):
            if name in demands:
                kept = filter(_fits(demands[name], beta), itertools.chain((firsts[k],), streams[k]))
                streams[k], firsts[k] = kept, next(kept, None)
                if firsts[k] is None:
                    return ExhaustedNoSolution(cfg.size_bound, cfg.depth_bound)
        for assignment in _assignments(names, streams, firsts):
            if all(a(assignment) == b(assignment) for a, b in instances):
                theta = MetaSubst(assignment)
                if not _solves(p, theta, fuel, names):
                    raise RuntimeError(f"search hit {theta!r} fails check_solution")
                solutions.append(theta)
                if not cfg.find_all or len(solutions) >= cfg.max_solutions:
                    break
    except FuelExhausted as err:
        return Aborted(f"fuel exhausted: {err}")
    if solutions:
        return Solved(solutions)
    return ExhaustedNoSolution(cfg.size_bound, cfg.depth_bound)


def solve_sigma(p: UnifProblem, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Bounded unifier search modulo the substitution rules.

    Every unknown that occurs ranges over the ground simple-term stream of
    its sort, and assignments are tried in deterministic product order.  A
    negative outcome only rules out the searched bounds.  A reduction's
    target is built with sides known to be normal, so a rigid clash between
    them is found before any stream is opened; a problem whose sides are
    not known to be normal draws one candidate per unknown before anything
    is normalized.
    """
    require_valid(p, EqMode.SIGMA_ONLY, "solve_sigma")
    return _product_search(p, cfg)


def decide_small_lambda(p: UnifProblem, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Bounded full-equality oracle: the same product search as solve_sigma,
    over normal lambda terms for every unknown that occurs, compared modulo
    Beta plus the substitution rules.

    A valid problem is its own precooked form, so the sides are searched,
    and every hit checked, as written.  A freshly validated problem draws
    one candidate per unknown and then normalizes its sides; once a search
    has found them unchanged they are known to be normal, and a later
    search finds a rigid clash between them before any stream is opened.
    The sides and each flex part's instances are normalized by
    normalize_graft, which contracts Beta where a candidate's binders meet
    the unknown's arguments and falls back to the stepper only on a
    higher-order redex of a side's own; each hit is checked again on a
    literal graft through lambda_sigma_equal.  The candidates need no
    per-assignment checks: enumeration yields only well-sorted, simple,
    normal terms.
    Nothing here goes through the reduction machinery, so transfer results
    can be checked against it.
    """
    require_valid(p, EqMode.LAMBDA_SIGMA, "decide_small_lambda")
    return _product_search(p, cfg)
