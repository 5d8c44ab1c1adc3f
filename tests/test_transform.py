import copy
import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gen import GenEnv, gen_agreement_pair, gen_checked_term, gen_second_order_problem, gen_term

from lamsig import (
    App,
    Arrow,
    Base,
    Closure,
    Comp,
    Cons,
    EqMode,
    Index,
    InvalidProblem,
    Lam,
    Meta,
    MetaSubst,
    OrderTooHigh,
    PreconditionViolated,
    ReductionCertificate,
    ShapeMismatch,
    Shift,
    Solved,
    Sort,
    UnifProblem,
    UnknownMeta,
    build_lifting_subst,
    check_graft_agreement,
    check_solution,
    enumerate_simple_terms,
    lift_solution,
    precook,
    project_solution,
    reduce_problem,
    solve_sigma,
    validate_problem,
    validate_reduced_problem,
)
from lamsig import rewrite, solver, transform
from lamsig.rewrite import DEFAULT_FUEL, FuelExhausted, normalize_graft, normalize_lambda_sigma, normalize_sigma
from lamsig.sorts import equation_type, render_type
from lamsig.solver import SearchConfig, decide_small_lambda
from lamsig.surface import parse_problem
from lamsig.terms import free_metavars, graft, rebuild, subterms

iota = Base("iota")
ii = Arrow(iota, iota)
BT = frozenset({"iota"})


def lp(ctx, metavars, lhs, rhs):
    return UnifProblem(BT, ctx, metavars, lhs, rhs, EqMode.LAMBDA_SIGMA)


# --- precook ---


# the problems precook is run on below, by the test that runs it
PRECOOK_CASES = {
    "bare": lp((iota,), {"X": Sort((iota,), iota)}, Meta("X"), Index(1)),
    # one binder: the metavariable occurrence closes over a unit shift
    "binder depth": lp(
        (iota,),
        {"X": Sort((iota,), iota)},
        Lam(App(Meta("X"), Index(1))),
        Lam(Index(1)),
    ),
    # X lives in the context of one binder: bare under it, ^1 under two
    "past the declared context": lp(
        (iota,), {"X": Sort((iota, iota), iota)}, Lam(Meta("X")), Lam(Lam(Meta("X")))
    ),
    "closed": lp((iota,), {}, Lam(Lam(Index(2))), Lam(Lam(Index(2)))),
}


def test_precook_bare_meta_stays_bare():
    cooked = precook(PRECOOK_CASES["bare"])
    assert cooked.lhs == Meta("X")


def test_precook_tags_binder_depth():
    cooked = precook(PRECOOK_CASES["binder depth"])
    assert cooked.lhs == Lam(App(Closure(Meta("X"), Shift(1)), Index(1)))


def test_precook_counts_binders_past_the_declared_context():
    p = PRECOOK_CASES["past the declared context"]
    cooked = precook(p)
    assert cooked.lhs == Lam(Meta("X"))
    assert cooked.rhs == Lam(Lam(Closure(Meta("X"), Shift(1))))
    with pytest.raises(ValueError):
        precook(lp((iota,), p.metavars, Meta("X"), Index(1)))


def test_precook_closed_term_unchanged():
    cooked = precook(PRECOOK_CASES["closed"])
    assert cooked.lhs == Lam(Lam(Index(2)))


def test_precooking_changes_only_invalid_problems():
    """The converse of a valid problem being its own precooked form: each
    precook case whose output differs from its input fails validation."""
    changed = [name for name, p in PRECOOK_CASES.items() if precook(p) != p]
    assert changed == ["binder depth", "past the declared context"]
    for name in changed:
        assert not validate_problem(PRECOOK_CASES[name]).ok, name


def test_precook_rejects_closures():
    p = lp((iota,), {}, Closure(Index(1), Shift(0)), Index(1))
    with pytest.raises(ValueError):
        precook(p)


def test_precook_reports_a_closure_before_a_misplaced_unknown():
    # the walk may meet the unknown first; the closure error still wins
    metavars = {"X": Sort((iota, iota), iota)}
    closure = Closure(Index(1), Shift(0))
    for lhs, rhs in [(Meta("X"), closure), (closure, Meta("X")), (Meta("Y"), closure)]:
        with pytest.raises(ValueError, match="^precooking requires closure-free sides$"):
            precook(lp((iota,), metavars, lhs, rhs))
    with pytest.raises(ValueError, match="^metavariable X occurs outside its declared context$"):
        precook(lp((iota,), metavars, Meta("X"), Index(1)))
    with pytest.raises(ValueError, match="^undeclared metavariable Y$"):
        precook(lp((iota,), metavars, Lam(Meta("Y")), Index(1)))


def test_precook_keeps_only_the_closures_it_writes():
    """A closure of an unknown under the shift precook would write for it
    there stays, so precooking is idempotent; any other closure of an
    unknown under a shift is rejected, before a misplaced unknown too."""
    for name, p in PRECOOK_CASES.items():
        cooked = precook(p)
        assert precook(cooked) == cooked, name
    metavars = {"X": Sort((iota,), iota), "Z": Sort((iota, iota), iota)}
    kept = Lam(Lam(App(Closure(Meta("X"), Shift(2)), Closure(Meta("Z"), Shift(1)))))
    assert precook(lp((iota,), metavars, kept, Index(1))).lhs == kept
    for closure in [
        Lam(Closure(Meta("X"), Shift(2))),  # one more than its binder depth
        Lam(Lam(Closure(Meta("X"), Shift(1)))),  # one less
        Lam(Closure(Meta("Z"), Shift(0))),  # precook leaves Z bare there
        Lam(Closure(Meta("Y"), Shift(1))),  # undeclared
    ]:
        for lhs, rhs in [(closure, Index(1)), (Meta("Z"), closure), (Meta("Y"), closure)]:
            with pytest.raises(ValueError, match="^precooking requires closure-free sides$"):
                precook(lp((iota,), metavars, lhs, rhs))


def test_precook_rejects_sigma_mode():
    p = UnifProblem(BT, (iota,), {}, Index(1), Index(1), EqMode.SIGMA_ONLY)
    with pytest.raises(ValueError):
        precook(p)


# --- build_lifting_subst ---


def test_lifting_zero_arity():
    p = lp((iota,), {"X": Sort((iota,), iota)}, Meta("X"), Index(1))
    lifting, var_map, fresh_metavars = build_lifting_subst(p)
    y, n = var_map["X"]
    assert n == 0
    assert lifting["X"] == Meta(y)
    assert fresh_metavars[y] == Sort((iota,), iota)


def test_lifting_unary():
    p = lp((iota,), {"X": Sort((iota,), ii)}, App(Meta("X"), Index(1)), Index(1))
    lifting, var_map, fresh_metavars = build_lifting_subst(p)
    y, n = var_map["X"]
    assert n == 1
    assert lifting["X"] == Lam(Meta(y))
    assert fresh_metavars[y] == Sort((iota, iota), iota)


def test_lifting_binary_context_order():
    # distinct argument types pin the order: the innermost binder is the
    # last argument, so it sits at position 1 of the fresh context
    a, b = Base("a"), Base("b")
    ctx = (a,)
    x_ty = Arrow(a, Arrow(b, a))
    p = UnifProblem(
        frozenset({"a", "b"}),
        ctx,
        {"X": Sort(ctx, x_ty)},
        Meta("Y0"),
        Meta("Y0"),
        EqMode.LAMBDA_SIGMA,
    )
    p.metavars["Y0"] = Sort(ctx, a)
    lifting, var_map, fresh_metavars = build_lifting_subst(p)
    y, n = var_map["X"]
    assert n == 2
    assert lifting["X"] == Lam(Lam(Meta(y)))
    assert fresh_metavars[y] == Sort((b, a, a), a)


def test_lifting_rejects_higher_order():
    p = lp((iota,), {"X": Sort((iota,), Arrow(ii, iota))}, Meta("Y0"), Meta("Y0"))
    p.metavars["Y0"] = Sort((iota,), iota)
    with pytest.raises(OrderTooHigh):
        build_lifting_subst(p)


def test_fresh_names_avoid_collisions():
    metavars = {"X": Sort((iota,), iota), "X'1": Sort((iota,), iota)}
    p = lp((iota,), metavars, Meta("X"), Meta("X'1"))
    _, var_map, _ = build_lifting_subst(p)
    names = {y for y, _ in var_map.values()}
    assert len(names) == 2
    assert not (names & metavars.keys())


# --- reduce_problem ---


def worked_problem():
    """(X c) = c over ctx [c:iota] with X : iota -> iota."""
    ctx = (iota,)
    return lp(ctx, {"X": Sort(ctx, ii)}, App(Meta("X"), Index(1)), Index(1))


def test_reduce_worked_example():
    cert = reduce_problem(worked_problem())
    y, n = cert.var_map["X"]
    assert n == 1
    assert cert.target.lhs == Closure(Meta(y), Cons(Index(1), Shift(0)))
    assert cert.target.rhs == Index(1)
    assert cert.target.mode is EqMode.SIGMA_ONLY
    assert set(cert.target.metavars) == {y}


def test_reduce_zero_arity_is_renaming():
    ctx = (iota,)
    p = lp(ctx, {"X": Sort(ctx, iota)}, Meta("X"), Index(1))
    cert = reduce_problem(p)
    y, n = cert.var_map["X"]
    assert n == 0
    assert cert.target.lhs == Meta(y)
    assert cert.target.rhs == Index(1)


def test_reduce_ground_rigid_side():
    # (X c) = (f c) over ctx [c, f]
    ctx = (iota, ii)
    p = lp(
        ctx,
        {"X": Sort(ctx, ii)},
        App(Meta("X"), Index(1)),
        App(Index(2), Index(1)),
    )
    cert = reduce_problem(p)
    y, _ = cert.var_map["X"]
    assert cert.target.lhs == Closure(Meta(y), Cons(Index(1), Shift(0)))
    assert cert.target.rhs == App(Index(2), Index(1))


def test_reduce_degenerate_no_metavars():
    p = lp((iota, ii), {}, App(Index(2), Index(1)), App(Index(2), Index(1)))
    cert = reduce_problem(p)
    assert cert.var_map == {}
    assert cert.target.lhs == cert.source.lhs
    assert cert.target.mode is EqMode.SIGMA_ONLY


def test_reduce_ground_problem_keeps_beta():
    # (λx.x) c = c holds by Beta alone; the substitution rules leave the
    # redex, so the reduction must not normalize a ground problem without it
    p = lp((iota,), {}, App(Lam(Index(1)), Index(1)), Index(1))
    cert = reduce_problem(p)
    assert cert.target.lhs == cert.target.rhs == Index(1)
    assert isinstance(solve_sigma(cert.target), Solved)


def test_every_verdict_rejects_an_invalid_problem():
    """One problem built by hand for each verdict that validates, failing
    the checks its message names."""
    # X : iota -> iota against c : iota
    arrow = lp((iota,), {"X": Sort((iota,), ii)}, Meta("X"), Index(1))
    with pytest.raises(InvalidProblem, match="^problem fails validation: sides-sort-check, common-type-atomic$"):
        reduce_problem(arrow)
    # X = X at the arrow type of X
    arrow_type = lp((iota,), {"X": Sort((iota,), ii)}, Meta("X"), Meta("X"))
    with pytest.raises(InvalidProblem, match="^problem fails validation: common-type-atomic$"):
        decide_small_lambda(arrow_type)
    # c = c in a context of order 3
    third = Arrow(ii, iota)
    third_order = UnifProblem(BT, (iota, third), {}, Index(1), Index(1), EqMode.SIGMA_ONLY)
    with pytest.raises(InvalidProblem, match="^problem fails validation: context-second-order$"):
        solve_sigma(third_order)
    # an unknown of order 3, unused
    high = lp((iota,), {"X": Sort((iota,), third)}, Index(1), Index(1))
    with pytest.raises(InvalidProblem, match="^problem fails validation: metavar-type-order$"):
        check_solution(high, MetaSubst({}))


def test_reduce_rejects_a_sigma_source():
    for metavars, lhs in [
        ({}, Closure(Index(1), Shift(0))),
        ({"X": Sort((iota,), iota)}, Closure(Meta("X"), Cons(Index(1), Shift(1)))),
    ]:
        p = UnifProblem(BT, (iota,), metavars, lhs, Index(1), EqMode.SIGMA_ONLY)
        with pytest.raises(ValueError, match="reduce_problem expects a full-equality problem"):
            reduce_problem(p)


CORPUS = Path(__file__).parent.parent / "src" / "lamsig" / "corpus"


def three_pass_reduction(p):
    """The paper's reduction as three passes: precook, graft the lifting
    substitution, normalize.  The slow reference for reduce_problem."""
    lifting, var_map, fresh_metavars = build_lifting_subst(p)
    cooked = precook(p)
    lhs, rhs = (normalize_lambda_sigma(graft(lifting, side)) for side in (cooked.lhs, cooked.rhs))
    return lhs, rhs, var_map, fresh_metavars


def lambda_sigma_sources():
    """The 19 λσ corpus problems and gen_second_order_problem seeds 0-499,
    each with a name."""
    sources = [(path.name, parse_problem(path.read_text(encoding="utf-8")).problem)
               for path in sorted(CORPUS.glob("*.sig"))]
    sources += [(f"seed {seed}", gen_second_order_problem(seed)) for seed in range(500)]
    sources = [(name, p) for name, p in sources if p.mode is EqMode.LAMBDA_SIGMA]
    assert len(sources) == 519
    return sources


def test_reduce_matches_the_three_pass_reference():
    for name, p in lambda_sigma_sources():
        cert = reduce_problem(p)
        target = cert.target
        assert (target.lhs, target.rhs, cert.var_map, target.metavars) == three_pass_reduction(p), name


def higher_order_redex_problem():
    """(lam f. f c) X = c: a valid side with a higher-order redex of its
    own, which no graft site contracts."""
    ctx = (iota,)
    return lp(ctx, {"X": Sort(ctx, ii)}, App(Lam(App(Index(1), Index(2))), Meta("X")), Index(1))


def closure_side_problem():
    """X = c[c . ^0]: valid, with a side that closes over a substitution
    and holds no unknown, so no graft changes it."""
    ctx = (iota,)
    return lp(ctx, {"X": Sort(ctx, iota)}, Meta("X"), Closure(Index(1), Cons(Index(1), Shift(0))))


def graft_cases(p):
    """(theta, t) pairs for normalize_graft on p: each side with nothing
    bound and with the lifting substitution, and each flex part of the
    sides' normal forms under every assignment of its unknowns' candidates
    up to bound 4."""
    lifting = build_lifting_subst(p)[0]
    for theta in ({}, lifting):
        yield theta, p.lhs
        yield theta, p.rhs
    cfg = SearchConfig(size_bound=4)
    flex = solver._decompose(normalize_lambda_sigma(p.lhs), normalize_lambda_sigma(p.rhs), p.mode)
    for part in itertools.chain.from_iterable(flex or ()):
        names = [x for x in p.metavars if x in free_metavars(part)]
        streams = [enumerate_simple_terms(p.metavars[x], {}, cfg) for x in names]
        for combo in itertools.product(*streams):
            yield dict(zip(names, combo)), part


def test_normalize_graft_matches_the_stepper(monkeypatch):
    """normalize_graft(theta, t, lambda-sigma) is
    normalize_lambda_sigma(graft(theta, t)) on the 519 sources, on a side
    with a higher-order redex of its own and on a side with a closure.
    Only the redex leaves an applied binder after the graft site's Beta
    and the substitution rules, so the stepper runs there and on none of
    the others."""
    stepper = rewrite.normalize_lambda_sigma
    run_stepper = rewrite._normalize
    stepped = []
    monkeypatch.setattr(rewrite, "_normalize",
                        lambda t, *args: stepped.append(t) or run_stepper(t, *args))
    ho = higher_order_redex_problem()
    assert validate_problem(ho).ok
    fallbacks = []
    compared = 0
    extra = [("higher-order redex", ho), ("closure side", closure_side_problem())]
    for name, p in lambda_sigma_sources() + extra:
        fell_back = False
        for theta, t in graft_cases(p):
            stepped.clear()
            got = normalize_graft(theta, t, EqMode.LAMBDA_SIGMA)
            fell_back = fell_back or bool(stepped)
            assert got == stepper(graft(theta, t)), (name, theta, t)
            compared += 1
        if fell_back:
            fallbacks.append(name)
    assert compared > 2500
    assert fallbacks == ["higher-order redex"]
    stepped.clear()
    normalize_graft(build_lifting_subst(ho)[0], ho.lhs, EqMode.LAMBDA_SIGMA)
    assert len(stepped) == 1
    cert = reduce_problem(ho)
    assert (cert.target.lhs, cert.target.rhs, cert.var_map, cert.target.metavars) == three_pass_reduction(ho)


def literal_graft_site_beta(theta, t):
    """graft(theta, t) with each application of a binder, or of a closure
    over one, contracted bottom-up as the graft rebuilds it: (lam b) a to
    b[a . ^0], (lam b)[s] a to b[a . s].  The reference for the fuel the
    lambda-sigma graft spends."""

    def at_leaf(node):
        return theta[node.name] if type(node) is Meta and node.name in theta else node

    def contract(node):
        if type(node) is App:
            fun = node.fun
            if type(fun) is Lam:
                return Closure(fun.body, Cons(node.arg, Shift(0)))
            if type(fun) is Closure and type(fun.body) is Lam:
                return Closure(fun.body.body, Cons(node.arg, fun.subst))
        return node

    return rebuild(t, at_leaf, contract)


def least_fuel(normalize) -> int:
    """The least fuel at which normalize(fuel) raises no FuelExhausted."""
    hi = 1
    while True:
        try:
            normalize(hi)
            break
        except FuelExhausted:
            hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            normalize(mid)
            hi = mid
        except FuelExhausted:
            lo = mid
    return hi


def runs_out_below(normalize, fuel: int) -> bool:
    """normalize succeeds at fuel and, unless fuel is 1, raises
    FuelExhausted one below it."""
    normalize(fuel)
    if fuel == 1:
        return True
    try:
        normalize(fuel - 1)
    except FuelExhausted:
        return True
    return False


def holds_applied_binder(t) -> bool:
    return any(type(node) is App and type(node.fun) is Lam for node in subterms(t))


def evaluator_agrees(theta, t, beta_fuel=False) -> bool:
    """The evaluator's one pass over theta and t against grafting first.

    Without Beta it gives normalize_sigma(graft(theta, t)) and runs out at
    the same fuel.  With Beta, normalize_graft gives
    normalize_lambda_sigma(graft(theta, t)); with beta_fuel the pass gives
    what normalize_sigma gives on the literal graft with the graft sites
    contracted, and runs out at the same fuel.  In both modes the flag is
    set whenever the pass's result holds an application of a binder.
    Returns whether the flag, without Beta, is set only then; a pass can
    build one inside a cons entry that no lookup reaches, so that is
    asserted by the callers only where neither t nor a binding holds a
    cons."""
    grafted = graft(theta, t)
    normal, applied = rewrite._evaluate(t, 10**6, theta, False)
    assert normal == normalize_sigma(grafted), (theta, t)
    assert normalize_graft(theta, t, EqMode.SIGMA_ONLY) == normal
    fuel = least_fuel(lambda f: normalize_sigma(grafted, f))
    assert runs_out_below(lambda f: rewrite._evaluate(t, f, theta, False), fuel), (theta, t)
    assert applied or not holds_applied_binder(normal), (theta, t)
    assert normalize_graft(theta, t, EqMode.LAMBDA_SIGMA) == normalize_lambda_sigma(grafted), (theta, t)
    partial, beta_applied = rewrite._evaluate(t, 10**6, theta, True)
    assert beta_applied or not holds_applied_binder(partial), (theta, t)
    if beta_fuel:
        literal = literal_graft_site_beta(theta, t)
        assert partial == normalize_sigma(literal), (theta, t)
        fuel = least_fuel(lambda f: normalize_sigma(literal, f))
        assert runs_out_below(lambda f: rewrite._evaluate(t, f, theta, True), fuel), (theta, t)
    return applied == holds_applied_binder(normal)


def without_cons(*terms) -> bool:
    return not any(type(node) is Cons for t in terms for node in subterms(t))


def without_graft_sites(*terms) -> bool:
    """No application of a binder or of a closure over one, so no spine
    the lambda-sigma graft would contract."""
    return not any(
        type(node) is App
        and (type(node.fun) is Lam or type(node.fun) is Closure and type(node.fun.body) is Lam)
        for t in terms
        for node in subterms(t)
    )


def test_the_evaluator_grafts_as_grafting_first_does_on_generated_terms():
    """On gen_checked_term seeds 0-1999, with nothing bound and with every
    unknown bound to a generated term of its sort (whose own unknowns are
    fresh), in both modes.  The lambda-sigma fuel is compared where no
    binding holds a graft site of its own, which the pass would contract
    and the literal graft would not; the flag is exact on every case
    without a cons."""
    exact_checked = beta_fuel_checked = 0
    for seed in range(2000):
        ctx, metas, t, ty = gen_checked_term(seed)
        rng = random.Random(seed)
        env = GenEnv(rng, counter=10_000)  # fresh names: no image mentions a bound unknown
        bound = {x: gen_term(env, sort.ctx, sort.ty, rng.randint(1, 8)) for x, sort in metas.items()}
        for theta in ({}, bound):
            beta_fuel = without_graft_sites(*theta.values())
            exact = evaluator_agrees(theta, t, beta_fuel=beta_fuel)
            beta_fuel_checked += beta_fuel
            if without_cons(t, *theta.values()):
                assert exact, (seed, theta)
                exact_checked += 1
    assert exact_checked > 1000 and beta_fuel_checked > 3000


def test_graft_sites_contract_as_the_literal_graft_does():
    """Hand-made graft sites the generated cases seldom reach, each with
    the lambda-sigma fuel of the literal graft: a side's own binder whose
    body is an unknown bound to a binder takes two arguments; a binding
    that is a closure over a binder; and an application of a binder that
    the pass has built, inside a value it evaluates again under a shift,
    once through an index lookup and once through an unknown's closure,
    which the literal graft leaves to the stepper."""
    X, Y, Z = Meta("X"), Meta("Y"), Meta("Z")
    a, b = Index(1), Index(2)
    built = Closure(App(Index(1), Index(2)), Cons(Lam(Index(1)), Shift(0)))  # (lam 1) 1
    cases = [
        ({"X": Lam(Y)}, App(App(Lam(X), a), b)),
        ({"X": Lam(Lam(Y))}, App(App(Closure(X, Shift(1)), a), b)),
        ({"X": Closure(Lam(Y), Cons(b, Shift(0)))}, App(X, a)),
        ({}, Closure(Lam(Index(2)), Cons(built, Shift(0)))),
        ({}, Closure(Lam(Z), Cons(built, Shift(0)))),
    ]
    for theta, t in cases:
        evaluator_agrees(theta, t, beta_fuel=True)


def test_the_evaluator_grafts_as_grafting_first_does_on_graft_cases():
    """On every (theta, t) of graft_cases over the 519 sources, the side
    with a higher-order redex and the side with a closure, in both modes,
    with the lambda-sigma fuel of the literal graft; the flag is exact on
    every case."""
    extra = [("higher-order redex", higher_order_redex_problem()), ("closure side", closure_side_problem())]
    cases = 0
    for name, p in lambda_sigma_sources() + extra:
        for theta, t in graft_cases(p):
            assert evaluator_agrees(theta, t, beta_fuel=True), (name, theta, t)
            cases += 1
    assert cases > 2500


def test_reduce_rejects_a_closure_in_a_side():
    """A valid problem may close a side over a substitution, but reduction
    takes closure-free sides, or precooked ones, whether or not the side
    holds an unknown."""
    ctx = (iota,)
    closure = closure_side_problem().rhs
    X = Meta("X")
    cases = [
        (X, closure, ctx),
        (closure, X, ctx),
        (App(Lam(X), closure), Index(1), (iota,) + ctx),  # X declared under the binder
    ]
    for lhs, rhs, x_ctx in cases:
        p = lp(ctx, {"X": Sort(x_ctx, iota)}, lhs, rhs)
        assert validate_problem(p).ok, (lhs, rhs)
        with pytest.raises(ValueError, match="^precooking requires closure-free sides$"):
            reduce_problem(p)


def lambda_sigma_file(context, metavars, equation):
    return (f"(problem (base-types iota) (context {context}) (metavars {metavars})\n"
            f"  (mode lambdasigma) (equation {equation}))\n")


# files whose unknown sits under a binder it is not declared under, so that
# precook closes it over a shift, and one that writes X[^1] itself
UNDER_A_BINDER = {
    "applied unknown": lambda_sigma_file(
        "(g (-> iota iota)) (d iota)", "(?X (-> iota iota))",
        "(app (lam (x iota) (app ?X x)) d) (app g d)"),
    "bare unknown": lambda_sigma_file("(c iota)", "(?X iota)", "(app (lam (x iota) ?X) c) c"),
    "unknown inside a spine": lambda_sigma_file(
        "(f (-> iota (-> iota iota))) (c iota)", "(?X (-> iota iota))",
        "(app (lam (y iota) (app (app f (app ?X y)) y)) c) (app (app f c) c)"),
}
SHORTER_CONTEXT = lambda_sigma_file(
    "(c iota) (d iota)", "(?X (-> iota iota) :ctx (iota))", "(app (clo ?X (shift 1)) c) c")


def contains_closure(p):
    return any(type(node) is Closure for side in (p.lhs, p.rhs) for node in subterms(side))


def test_reduce_takes_the_precooked_form():
    """precook, then reduce_problem: the target validates, on a copy, and
    passes the Remark checks, and every solution solve_sigma finds for it
    at bounds 1-5, lifted, solves the precooked source.  A file that
    writes X[^1] for an unknown declared in a shorter context reduces as
    it is, to a closure whose shift is not 0.  Each of these is precook's
    own form, which precooking again returns unchanged."""
    sources = [(name, precook(parse_problem(text).problem)) for name, text in UNDER_A_BINDER.items()]
    assert all(contains_closure(p) for _, p in sources)
    sources.append(("shorter context", parse_problem(SHORTER_CONTEXT).problem))
    solved = 0
    for name, p in sources:
        cert = reduce_problem(p)
        assert validate_problem(copy.copy(cert.target)).ok, name
        assert validate_reduced_problem(cert).ok, name
        for bound in range(1, 6):
            out = solve_sigma(cert.target, SearchConfig(size_bound=bound, find_all=True))
            for theta in out.solutions if isinstance(out, Solved) else []:
                assert check_solution(p, lift_solution(cert, theta)), (name, theta)
                solved += 1
        assert precook(p) == p, name
    assert solved == 31
    shorter = reduce_problem(sources[-1][1]).target
    assert [node.subst for node in subterms(shorter.lhs) if type(node) is Closure] == [Cons(Index(2), Shift(1))]


def test_no_precooking_in_the_verdicts_and_one_walk_in_reduce(monkeypatch):
    """decide_small_lambda, its product search and check_solution read a
    valid problem's sides as written, with no precooking walk however many
    hits they check; reduce_problem builds its target with one
    normalize_graft per side, grafting the lifting images, with no
    precooking walk, no graft and no MetaSubst."""
    walks = []
    walk = transform._cook
    monkeypatch.setattr(transform, "_cook", lambda p: walks.append(p) or walk(p))
    p = parse_problem((CORPUS / "two_var_cross.sig").read_text(encoding="utf-8")).problem
    cfg = SearchConfig(find_all=True, max_solutions=3)
    out = decide_small_lambda(p, cfg)
    assert isinstance(out, Solved) and len(out.solutions) == 3
    assert solver._product_search(p, cfg) == out
    assert all(check_solution(p, theta) for theta in out.solutions)
    assert walks == []

    calls = []

    def forbidden(name):
        return lambda *args, **kwargs: calls.append(name)

    for module_name, module in list(sys.modules.items()):
        for name in ("graft", "MetaSubst"):
            if module_name.split(".")[0] == "lamsig" and hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    grafted = []
    monkeypatch.setattr(transform, "normalize_graft",
                        lambda theta, t, mode, fuel: grafted.append((theta, t, mode))
                        or normalize_graft(theta, t, mode, fuel))
    cert = reduce_problem(p)
    assert calls == [] and walks == []
    lifting = build_lifting_subst(p)[0]
    assert grafted == [(lifting, p.lhs, EqMode.LAMBDA_SIGMA), (lifting, p.rhs, EqMode.LAMBDA_SIGMA)]
    assert cert.target.lhs == three_pass_reduction(p)[0]


def test_reduce_two_argument_cons_order():
    # (X c d) = c: the innermost argument d heads the cons list
    ctx = (iota, iota)  # c at 1, d at 2
    p = lp(
        ctx,
        {"X": Sort(ctx, Arrow(iota, Arrow(iota, iota)))},
        App(App(Meta("X"), Index(1)), Index(2)),
        Index(1),
    )
    cert = reduce_problem(p)
    y, n = cert.var_map["X"]
    assert n == 2
    assert cert.target.lhs == Closure(
        Meta(y), Cons(Index(2), Cons(Index(1), Shift(0)))
    )


# --- validate_reduced_problem ---


def test_reduce_outputs_validate():
    for seed in range(100):
        p = gen_second_order_problem(seed)
        report = validate_reduced_problem(reduce_problem(p))
        assert [(e.name, e.ok, e.detail) for e in report.entries] == [
            ("sides-sort-check", True, f"common type {render_type(equation_type(p))}"),
            ("context-second-order", True, ""),
            ("metavar-types-atomic", True, ""),
            ("metavar-contexts-second-order", True, ""),
            ("closure-shape", True, ""),
            ("closure-args-first-order", True, ""),
        ], report.render()


def reduced_report(ctx, metavars, lhs, rhs):
    """validate_reduced_problem on a hand-built target."""
    target = UnifProblem(BT, ctx, metavars, lhs, rhs, EqMode.SIGMA_ONLY)
    return validate_reduced_problem(ReductionCertificate({}, worked_problem(), target))


# One hand-built target per message the closure scan can emit, with every
# failed entry of the report.
closure_scan_cases = [
    ("composition in an unknown's closure", (iota,), {"Y": Sort((iota, iota), iota)},
     Closure(Meta("Y"), Comp(Cons(Index(1), Shift(0)), Shift(0))),
     [("closure-shape", "lhs: closure of Y is not in cons-then-shift form")]),
    ("undeclared unknown under a closure", (iota,), {},
     Closure(Meta("Y"), Cons(Index(1), Shift(0))),
     [("sides-sort-check", "undeclared metavariable Y (at 0)"),
      ("closure-shape", "lhs: undeclared metavariable Y")]),
    ("more entries than the declared context", (iota,), {"Y": Sort((iota,), iota)},
     Closure(Meta("Y"), Cons(Index(1), Cons(Index(1), Shift(1)))),
     [("sides-sort-check", "metavariable Y used outside its declared context (at 0)"),
      ("closure-shape", "lhs: closure of Y has more entries than its context")]),
    ("order-2 declared entry", (ii, iota), {"Y": Sort((ii, ii, iota), iota)},
     Closure(Meta("Y"), Cons(Index(1), Shift(0))),
     [("closure-args-first-order", "lhs: entry 1 of Y's closure has type (-> iota iota) of order 2")]),
]


@pytest.mark.parametrize(
    "ctx, metavars, lhs, failed",
    [case[1:] for case in closure_scan_cases],
    ids=[case[0] for case in closure_scan_cases],
)
def test_closure_scan_messages(ctx, metavars, lhs, failed):
    report = reduced_report(ctx, metavars, lhs, Index(len(ctx)))
    assert [(e.name, e.detail) for e in report.entries if not e.ok] == failed


def test_a_well_sorted_binder_passes_closure_shape():
    # the scan reads syntax, so a binder no longer stops it: a well-sorted
    # target with a redex passes, and a closure under the binder is scanned
    closure = Closure(Meta("Y"), Cons(Index(1), Shift(1)))
    metavars = {"Y": Sort((iota, iota), iota)}
    report = reduced_report((iota,), metavars, App(Lam(closure), Index(1)), Index(1))
    assert report.ok, report.render()
    composed = Closure(Meta("Y"), Comp(Cons(Index(1), Shift(1)), Shift(0)))
    report = reduced_report((iota,), metavars, App(Lam(composed), Index(1)), Index(1))
    assert [(e.name, e.detail) for e in report.entries if not e.ok] == [
        ("closure-shape", "lhs: closure of Y is not in cons-then-shift form")
    ]


def test_reduced_validation_rejects_second_order_cons_entry():
    # hand-built target: a binder as a cons entry has an order-2 type
    ctx = (iota,)
    y_sort = Sort((ii, iota), iota)
    target = UnifProblem(
        BT,
        ctx,
        {"Y": y_sort},
        Closure(Meta("Y"), Cons(Lam(Index(1)), Shift(0))),
        Index(1),
        EqMode.SIGMA_ONLY,
    )
    cert = ReductionCertificate({"X": ("Y", 1)}, worked_problem(), target)
    report = validate_reduced_problem(cert)
    flags = [e for e in report.entries if e.name == "closure-args-first-order"]
    assert any(not e.ok for e in flags)


def test_reduced_validation_rejects_non_atomic_meta():
    target = UnifProblem(
        BT,
        (iota,),
        {"Y": Sort((iota,), ii)},
        Meta("Y"),
        Meta("Y"),
        EqMode.SIGMA_ONLY,
    )
    cert = ReductionCertificate({"X": ("Y", 0)}, worked_problem(), target)
    report = validate_reduced_problem(cert)
    flags = {e.name: e.ok for e in report.entries}
    assert not flags["metavar-types-atomic"]


# --- lift / project ---


def make_cert():
    return reduce_problem(worked_problem())


def test_lift_wraps_binders():
    cert = make_cert()
    y, _ = cert.var_map["X"]
    lifted = lift_solution(cert, MetaSubst({y: Index(1)}))
    assert lifted["X"] == Lam(Index(1))
    assert check_solution(cert.source, lifted)


def test_lift_zero_arity_passthrough():
    ctx = (iota,)
    p = lp(ctx, {"X": Sort(ctx, iota)}, Meta("X"), Index(1))
    cert = reduce_problem(p)
    y, _ = cert.var_map["X"]
    lifted = lift_solution(cert, MetaSubst({y: Index(1)}))
    assert lifted["X"] == Index(1)


def test_lift_empty():
    assert len(lift_solution(make_cert(), MetaSubst({}))) == 0


def test_lift_unknown_meta():
    with pytest.raises(UnknownMeta):
        lift_solution(make_cert(), MetaSubst({"Z": Index(1)}))


def test_project_strips_binders():
    cert = make_cert()
    y, _ = cert.var_map["X"]
    projected = project_solution(cert, MetaSubst({"X": Lam(Index(1))}))
    assert projected[y] == Index(1)


def test_project_shape_mismatch():
    cert = make_cert()
    with pytest.raises(ShapeMismatch):
        project_solution(cert, MetaSubst({"X": Index(1)}))


def test_project_unknown_meta():
    with pytest.raises(UnknownMeta):
        project_solution(make_cert(), MetaSubst({"Z": Index(1)}))


def test_lift_project_round_trip():
    cert = make_cert()
    y, _ = cert.var_map["X"]
    theta = MetaSubst({y: Index(2)})
    assert project_solution(cert, lift_solution(cert, theta)) == theta
    source_theta = MetaSubst({"X": Lam(App(Index(2), Index(1)))})
    # needs an f in scope for that shape; use the plain identity instead
    source_theta = MetaSubst({"X": Lam(Index(1))})
    assert lift_solution(cert, project_solution(cert, source_theta)) == source_theta


# --- graft agreement ---


def test_agreement_cons_closure():
    ctx = (iota,)
    metavars = {"Y": Sort((iota, iota), iota)}
    a = Closure(Meta("Y"), Cons(Index(1), Shift(0)))
    theta = MetaSubst({"Y": Index(2)})
    assert check_graft_agreement(ctx, metavars, a, theta) is True


def test_agreement_ground():
    assert check_graft_agreement((iota, iota, iota), {}, Index(3), MetaSubst({})) is True


def test_agreement_meta_chain():
    ctx = (iota, iota)
    metavars = {"Y": Sort((), iota), "Z": Sort((iota,), iota)}
    a = Closure(Meta("Y"), Shift(2))
    theta = MetaSubst({"Y": Closure(Meta("Z"), Shift(1))})
    with pytest.raises(PreconditionViolated):
        # Z's shift leaves the empty context: ill-sorted binding
        check_graft_agreement(ctx, metavars, a, theta)


def test_agreement_meta_shift_binding():
    # binding an unknown to another unknown under a shift: both normal
    # forms are the metavariable under the combined shift
    ctx = (iota, iota, iota)
    metavars = {"Y": Sort((iota,), iota), "Z": Sort((), iota)}
    a = Closure(Meta("Y"), Shift(2))
    theta = MetaSubst({"Y": Closure(Meta("Z"), Shift(1))})
    assert check_graft_agreement(ctx, metavars, a, theta) is True


def test_agreement_rejects_non_simple_binding():
    ctx = (iota,)
    metavars = {"Y": Sort((iota,), iota), "Z": Sort((iota, iota), iota)}
    a = Meta("Y")
    theta = MetaSubst({"Y": Closure(Meta("Z"), Cons(Index(1), Shift(0)))})
    with pytest.raises(PreconditionViolated):
        check_graft_agreement(ctx, metavars, a, theta)


def test_agreement_rejects_redex_binding():
    ctx = (iota,)
    metavars = {"Y": Sort((iota,), iota)}
    theta = MetaSubst({"Y": App(Lam(Index(1)), Index(1))})
    with pytest.raises(PreconditionViolated):
        check_graft_agreement(ctx, metavars, Meta("Y"), theta)


def test_agreement_rejects_second_order_closure_entry():
    # the closure scan of validate_reduced_problem gives the precondition
    ctx = (ii, iota)
    metavars = {"Y": Sort((ii, ii, iota), iota)}
    a = Closure(Meta("Y"), Cons(Index(1), Shift(0)))
    with pytest.raises(PreconditionViolated, match="closure-args-first-order"):
        check_graft_agreement(ctx, metavars, a, MetaSubst({}))


def test_agreement_property_over_generated_pairs():
    for seed in range(200):
        ctx, metavars, a, theta = gen_agreement_pair(seed)
        assert check_graft_agreement(ctx, metavars, a, theta) is True


# --- precook preserves sorts ---


def test_precook_preserves_equation_type():
    from lamsig.sorts import equation_type

    for seed in range(100):
        p = gen_second_order_problem(seed)
        cooked = precook(p)
        assert equation_type(cooked) == equation_type(p)


# --- validating each problem once ---


def test_a_search_operation_validates_each_problem_once(monkeypatch):
    """Reduce, validate the reduction, solve the target and run the oracle
    on the source: the source is validated once, and the target, valid
    from birth, never.  Another operation on the same objects validates
    nothing."""
    seen = []
    validate = transform.validate_problem
    monkeypatch.setattr(transform, "validate_problem", lambda p: seen.append(p) or validate(p))
    source = parse_problem((CORPUS / "two_var_cross.sig").read_text(encoding="utf-8")).problem
    cfg = SearchConfig(size_bound=4)
    for _ in range(2):
        cert = reduce_problem(source)
        assert validate_reduced_problem(cert).ok
        assert isinstance(solve_sigma(cert.target, cfg), Solved)
        assert isinstance(decide_small_lambda(source, cfg), Solved)
    assert len(seen) == 1 and seen[0] is source


def _verdict_message(p, verdict):
    with pytest.raises(InvalidProblem) as err:
        verdict(p)
    return str(err.value)


def test_a_problem_changed_after_validation_is_validated_again():
    """Each break of a validated problem, source or reduction target, gets
    the message that a freshly built copy of the broken problem gets."""
    third = Arrow(ii, iota)
    breaks = [
        ("reassigned lhs", lambda p: setattr(p, "lhs", Meta("W")),
         "metavars-declared, sides-sort-check, common-type-atomic"),
        ("ill-sorted declaration added", lambda p: p.metavars.__setitem__("Z", Sort(p.ctx, third)),
         "metavar-type-order"),
        ("declaration deleted", lambda p: p.metavars.clear(),
         "metavars-declared, sides-sort-check, common-type-atomic"),
    ]
    for name, brk, failed in breaks:
        source = lp((iota,), {"X": Sort((iota,), ii)}, App(Meta("X"), Index(1)), Index(1))
        target = reduce_problem(source).target
        for p, verdict in ((source, decide_small_lambda), (target, solve_sigma)):
            verdict(p)  # passes, and is remembered
            assert p._valid_as is not None
            brk(p)
            fresh = UnifProblem(p.base_types, p.ctx, dict(p.metavars), p.lhs, p.rhs, p.mode)
            message = f"problem fails validation: {failed}"
            assert _verdict_message(fresh, verdict) == message, name
            assert _verdict_message(p, verdict) == message, name
            assert _verdict_message(p, verdict) == message, name  # a failure is not remembered


def test_reduction_targets_validate_and_remembered_verdicts_agree():
    """On the λσ corpus and gen_second_order_problem seeds 0-499: a fresh
    validate_problem passes every reduction target, and passes every
    problem that a verdict took as valid without validating it."""
    for name, p in lambda_sigma_sources():
        target = reduce_problem(p).target
        assert validate_problem(target).ok, name
        for problem, mode in ((p, EqMode.LAMBDA_SIGMA), (target, EqMode.SIGMA_ONLY)):
            assert problem._valid_as is not None, name
            transform.require_valid(problem, mode, "test")  # a remembered verdict
            assert validate_problem(problem).ok, name


def counting_streams(monkeypatch) -> list:
    """The candidate streams the search opens: one entry, the stream's
    sort, per stream."""
    opened = []
    enumerate_all = solver.enumerate_simple_terms

    def count(sort, pool, cfg):
        opened.append(sort)
        return enumerate_all(sort, pool, cfg)

    monkeypatch.setattr(solver, "enumerate_simple_terms", count)
    return opened


def streams_opened(opened: list, search, p, cfg):
    """search(p, cfg) and the number of streams it opened."""
    opened.clear()
    return search(p, cfg), len(opened)


def test_a_marked_target_searches_as_an_unmarked_copy(monkeypatch):
    """On the λσ corpus, gen_second_order_problem seeds 0-499 and a side
    with a higher-order redex of its own, at bounds 1-4, with find_all off
    and on, at fuel 1, 2 and the default: solve_sigma gives a reduction's
    target, whose snapshot records its sides as normal, the outcome,
    solutions and find_all list it gives a copy, which starts with no
    snapshot and so normalizes its sides.  Some of the searches abort on
    fuel.  Both search in one order, so the copy opens as many streams as
    the target does, and none at a rigid clash."""
    opened = counting_streams(monkeypatch)
    outcomes = Counter()
    clashes = 0
    for name, p in lambda_sigma_sources() + [("higher-order redex", higher_order_redex_problem())]:
        target = reduce_problem(p).target
        unknowns = len(free_metavars(target.lhs) | free_metavars(target.rhs))
        clash = solver._decompose(target.lhs, target.rhs, EqMode.SIGMA_ONLY) is None
        for bound, find_all, fuel in itertools.product((1, 2, 3, 4), (False, True), (1, 2, DEFAULT_FUEL)):
            cfg = SearchConfig(size_bound=bound, find_all=find_all, fuel=fuel)
            unmarked = copy.copy(target)
            assert transform._known(target) is True and transform._known(unmarked) is None, name
            got, marked_streams = streams_opened(opened, solve_sigma, target, cfg)
            copied, copy_streams = streams_opened(opened, solve_sigma, unmarked, cfg)
            assert repr(got) == repr(copied), (name, cfg)
            assert marked_streams == copy_streams, (name, cfg)
            if clash:
                assert marked_streams == 0, (name, cfg)
            outcomes[type(got).__name__] += 1
            clashes += clash and unknowns > 0
    assert outcomes["Aborted"] > 100 and outcomes["Solved"] > 1000, outcomes
    assert clashes > 500, clashes


def counting_side_normalizations(monkeypatch) -> list:
    """The sides the search normalizes: the calls of normalize_graft with
    nothing bound, which transform._normal_sides makes."""
    normalized = []

    def count(theta, t, *args):
        if not theta:
            normalized.append(t)
        return normalize_graft(theta, t, *args)

    monkeypatch.setattr(transform, "normalize_graft", count)
    return normalized


def test_known_normal_sides_follows_the_snapshot(monkeypatch):
    """The snapshot records the sides of a reduction's target as normal,
    and a source's once a search has found them unchanged; it records
    nothing of the kind for a problem never validated, for one validated
    but never searched, for one searched with its sides reassigned since it
    was validated, or once a side is reassigned to a different term.  A
    search without require_valid's answer records nothing."""
    source = parse_problem((CORPUS / "xc_eq_fc.sig").read_text(encoding="utf-8")).problem
    assert transform._known(source) is None
    solver._product_search(source, SearchConfig())
    assert transform._known(source) is None
    assert transform.require_valid(source, EqMode.LAMBDA_SIGMA, "test") is False
    solver._product_search(source, SearchConfig())
    assert transform._known(source) is False
    target = reduce_problem(source).target
    assert transform._known(target) is True
    assert transform.require_valid(target, EqMode.SIGMA_ONLY, "test") is True
    decide_small_lambda(source)
    assert transform._known(source) is True
    assert transform.require_valid(source, EqMode.LAMBDA_SIGMA, "test") is True
    target.rhs = Closure(target.rhs, Shift(0))
    assert transform._known(target) is None
    stale = copy.copy(source)
    transform.require_valid(stale, EqMode.LAMBDA_SIGMA, "test")
    stale.lhs = Closure(stale.lhs, Shift(0))
    solver._product_search(stale, SearchConfig())
    assert stale._valid_as[1] is False and transform._known(stale) is None


def test_a_search_of_known_normal_sides_compares_the_snapshot_once(monkeypatch):
    """solve_sigma on a reduction's target, and decide_small_lambda on a
    source searched before, compare the validation snapshot once: the
    search takes the normal fact from require_valid's comparison.  So does
    a first search of a fresh source, which records the fact without
    comparing the snapshot again.  A clash and a search that tries
    assignments alike."""
    compared = []
    known = transform._known
    monkeypatch.setattr(transform, "_known", lambda p: compared.append(p) or known(p))
    cfg = SearchConfig(size_bound=3, find_all=True)
    for name in ("xc_eq_fc.sig", "xcd_swap.sig", "rigid_head.sig"):
        source = parse_problem((CORPUS / name).read_text(encoding="utf-8")).problem
        decide_small_lambda(source, cfg)
        target = reduce_problem(source).target
        for search, p in ((solve_sigma, target), (decide_small_lambda, source)):
            assert transform._known(p) is True, name
            compared.clear()
            search(p, cfg)
            assert compared == [p], (name, search.__name__)
        fresh = parse_problem((CORPUS / name).read_text(encoding="utf-8")).problem
        compared.clear()
        decide_small_lambda(fresh, cfg)
        assert compared == [fresh], name
        assert transform._known(fresh) is True, name


def test_the_normal_fact_holds_while_the_sides_keep_their_value(monkeypatch):
    """A reduction's target normalizes no side with an empty assignment.
    Once its lhs is reassigned to an equal copy, the fact still holds, and
    no side is normalized; once it is reassigned to a different term, the
    problem is validated again and both sides are normalized.  A copy
    normalizes both sides on its first search."""
    normalized = counting_side_normalizations(monkeypatch)
    validated = []
    validate = transform.validate_problem
    monkeypatch.setattr(transform, "validate_problem", lambda p: validated.append(p) or validate(p))
    source = parse_problem((CORPUS / "xc_eq_fc.sig").read_text(encoding="utf-8")).problem
    target = reduce_problem(source).target
    solved = solve_sigma(target)
    assert isinstance(solved, Solved) and normalized == [] and validated == [source]
    twin = copy.copy(target)
    assert solve_sigma(twin) == solved
    assert normalized == [target.lhs, target.rhs]
    normalized.clear()
    target.lhs = copy.copy(target.lhs)
    assert target.lhs == target._valid_as[0][3] and target.lhs is not target._valid_as[0][3]
    assert solve_sigma(target) == solved
    assert normalized == [] and transform._known(target) is True
    validated.clear()
    target.lhs = Closure(target.lhs, Shift(0))
    assert transform._known(target) is None
    assert solve_sigma(target) == solved
    assert validated == [target] and normalized == [target.lhs, target.rhs]


def test_a_source_with_normal_sides_normalizes_them_once(monkeypatch):
    """decide_small_lambda on a source whose sides are normal normalizes
    both on its first search and none on the second; on a source with a
    higher-order redex of its own it normalizes both on every search."""
    normalized = counting_side_normalizations(monkeypatch)
    cfg = SearchConfig(size_bound=3)
    normal = parse_problem((CORPUS / "xc_eq_fc.sig").read_text(encoding="utf-8")).problem
    redex = higher_order_redex_problem()
    for p, second in ((normal, []), (redex, [redex.lhs, redex.rhs])):
        first = decide_small_lambda(p, cfg)
        assert normalized == [p.lhs, p.rhs]
        normalized.clear()
        assert decide_small_lambda(p, cfg) == first
        assert normalized == second
        normalized.clear()
    assert transform._known(normal) is True and transform._known(redex) is False


def test_search_history_does_not_matter(monkeypatch):
    """On the λσ and σ corpus files and gen_second_order_problem seeds
    0-499, once a problem has been searched: at bounds 1-4 and fuel 1, 2,
    3, 5 and the default, searching it again gives what searching a copy
    of it, with no snapshot, gives.  Some of the searches abort on fuel.
    Both search in one order, so the copy opens as many streams as the
    problem does, and none at a rigid clash."""
    sigma = [(path.name, parse_problem(path.read_text(encoding="utf-8")).problem)
             for path in sorted(CORPUS.glob("sigma_*.sig"))]
    assert len(sigma) == 2 and all(p.mode is EqMode.SIGMA_ONLY for _, p in sigma)
    opened = counting_streams(monkeypatch)
    outcomes = Counter()
    clashes = 0
    for name, p in lambda_sigma_sources() + sigma:
        search = solve_sigma if p.mode is EqMode.SIGMA_ONLY else decide_small_lambda
        search(p)
        unknowns = len(free_metavars(p.lhs) | free_metavars(p.rhs))
        clash = transform._known(p) is True and solver._decompose(p.lhs, p.rhs, p.mode) is None
        for bound, fuel in itertools.product((1, 2, 3, 4), (1, 2, 3, 5, DEFAULT_FUEL)):
            cfg = SearchConfig(size_bound=bound, fuel=fuel)
            got, searched_streams = streams_opened(opened, search, p, cfg)
            copied, copy_streams = streams_opened(opened, search, copy.copy(p), cfg)
            assert repr(got) == repr(copied), (name, cfg)
            assert searched_streams == copy_streams, (name, cfg)
            if clash:
                assert searched_streams == 0, (name, cfg)
            outcomes[type(got).__name__] += 1
            clashes += clash and unknowns > 0
    assert sum(outcomes.values()) == 10_420
    assert outcomes["Aborted"] > 100 and outcomes["Solved"] > 1000, outcomes
    assert clashes > 100, clashes
