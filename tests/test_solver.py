import itertools
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gen import gen_second_order_problem
from oracles import brute_simple_terms

from lamsig import (
    Aborted,
    App,
    Arrow,
    Base,
    Closure,
    Cons,
    EqMode,
    ExhaustedNoSolution,
    FuelExhausted,
    Index,
    InvalidProblem,
    Lam,
    Meta,
    MetaSubst,
    SearchConfig,
    Shift,
    Solved,
    Sort,
    UnifProblem,
    check_solution,
    decide_small_lambda,
    enumerate_simple_terms,
    is_simple_subst,
    normalize_graft,
    normalize_lambda_sigma,
    normalize_sigma,
    precook,
    reduce_problem,
    solve_sigma,
    term_size,
    validate_problem,
    validate_reduced_problem,
)
from lamsig import solver, transform
from lamsig.surface import parse_problem
from lamsig.terms import contains, free_metavars, graft

CORPUS = Path(__file__).parent.parent / "src" / "lamsig" / "corpus"

iota = Base("iota")
ii = Arrow(iota, iota)
BT = frozenset({"iota"})


def sp(ctx, metavars, lhs, rhs):
    return UnifProblem(BT, ctx, metavars, lhs, rhs, EqMode.SIGMA_ONLY)


def lp(ctx, metavars, lhs, rhs):
    return UnifProblem(BT, ctx, metavars, lhs, rhs, EqMode.LAMBDA_SIGMA)


# --- enumerate_simple_terms ---


def test_enumerate_single_inhabitant():
    stream = list(enumerate_simple_terms(Sort((iota,), iota), {}, SearchConfig(size_bound=1)))
    assert stream == [Index(1)]


def test_enumerate_two_indices():
    stream = list(enumerate_simple_terms(Sort((iota, iota), iota), {}, SearchConfig(size_bound=1)))
    assert stream == [Index(1), Index(2)]


def test_enumerate_empty_context_empty_stream():
    assert list(enumerate_simple_terms(Sort((), iota), {}, SearchConfig(size_bound=4))) == []


def test_enumerate_pool_metavariables():
    pool = {"Z": Sort((iota,), iota)}
    stream = list(
        enumerate_simple_terms(Sort((iota, iota), iota), pool, SearchConfig(size_bound=3))
    )
    assert Closure(Meta("Z"), Shift(1)) in stream
    bare_pool = {"W": Sort((iota, iota), iota)}
    stream2 = list(
        enumerate_simple_terms(Sort((iota, iota), iota), bare_pool, SearchConfig(size_bound=1))
    )
    assert stream2 == [Index(1), Index(2), Meta("W")]


@pytest.mark.parametrize(
    "ctx,ty,pool,bound",
    [
        ((iota,), iota, {}, 4),
        ((iota, ii), iota, {}, 5),
        ((iota, ii), ii, {}, 4),
        ((iota, Arrow(iota, Arrow(iota, iota))), iota, {}, 6),
        ((iota, iota), iota, {"Z": Sort((iota,), iota)}, 4),
    ],
)
def test_enumerate_matches_brute_force(ctx, ty, pool, bound):
    cfg = SearchConfig(size_bound=bound, depth_bound=16)
    stream = list(enumerate_simple_terms(Sort(ctx, ty), pool, cfg))
    assert len(stream) == len(set(stream)), "duplicates in the stream"
    sizes = [term_size(t) for t in stream]
    assert sizes == sorted(sizes), "sizes must be nondecreasing"
    assert set(stream) == brute_simple_terms(ctx, ty, pool, bound)


def test_enumerate_deterministic():
    cfg = SearchConfig(size_bound=5)
    sort = Sort((iota, ii), iota)
    assert list(enumerate_simple_terms(sort, {}, cfg)) == list(
        enumerate_simple_terms(sort, {}, cfg)
    )


def test_argument_lists_keep_the_nested_order(monkeypatch):
    """Listing each argument's candidates once per size and taking their
    product gives the stream of the nested enumeration, which lists the
    later arguments again for every candidate of the first."""

    def nested(ctx, arg_types, sizes, depth, pool):
        if not arg_types:
            yield ()
            return
        for first in solver._exact_size(ctx, arg_types[0], sizes[0], depth, pool):
            for rest in nested(ctx, arg_types[1:], sizes[1:], depth, pool):
                yield (first,) + rest

    def streams():
        return [
            list(enumerate_simple_terms(sort, {}, SearchConfig(size_bound=bound)))
            for seed in range(300)
            for sort in gen_second_order_problem(seed).metavars.values()
            for bound in range(1, 6)
        ]

    got = streams()
    spines = [t for stream in got for t in stream if isinstance(t, App) and isinstance(t.fun, App)]
    assert spines, "no candidate applies an index to two arguments"
    monkeypatch.setattr(solver, "_arg_combos", nested)
    assert got == streams()


# --- solve_sigma ---


def reduced_worked_problem():
    """Y[c . ^0] = c over ctx [c:iota], Y in the extended context."""
    ctx = (iota,)
    return sp(
        ctx,
        {"Y": Sort((iota, iota), iota)},
        Closure(Meta("Y"), Cons(Index(1), Shift(0))),
        Index(1),
    )


def test_solve_sigma_worked_example():
    out = solve_sigma(reduced_worked_problem(), SearchConfig(size_bound=2))
    assert isinstance(out, Solved)
    assert out.solutions[0] == MetaSubst({"Y": Index(1)})


def test_solve_sigma_finds_both_projections():
    out = solve_sigma(reduced_worked_problem(), SearchConfig(size_bound=2, find_all=True))
    assert [theta["Y"] for theta in out.solutions] == [Index(1), Index(2)]


def test_solve_sigma_ground_unequal():
    out = solve_sigma(sp((iota, iota), {}, Index(1), Index(2)), SearchConfig(size_bound=3))
    assert isinstance(out, ExhaustedNoSolution)
    assert out.size_bound == 3


def test_solve_sigma_flex_flex_same_var():
    p = sp((iota,), {"Y": Sort((iota,), iota)}, Meta("Y"), Meta("Y"))
    out = solve_sigma(p, SearchConfig(size_bound=1))
    assert isinstance(out, Solved)
    assert out.solutions[0] == MetaSubst({"Y": Index(1)})


def test_solve_sigma_requires_sigma_mode():
    with pytest.raises(ValueError):
        solve_sigma(lp((iota,), {}, Index(1), Index(1)), SearchConfig())


def test_solve_sigma_solutions_are_simple_and_sound():
    out = solve_sigma(reduced_worked_problem(), SearchConfig(size_bound=2, find_all=True))
    for theta in out.solutions:
        assert is_simple_subst(theta)
        assert check_solution(reduced_worked_problem(), theta)


def test_solve_sigma_deterministic():
    cfg = SearchConfig(size_bound=2, find_all=True)
    a = solve_sigma(reduced_worked_problem(), cfg)
    b = solve_sigma(reduced_worked_problem(), cfg)
    assert a.solutions == b.solutions


def test_solve_sigma_max_solutions_cap():
    p = sp((iota, iota), {"Y": Sort((iota, iota), iota)}, Meta("Y"), Meta("Y"))
    out = solve_sigma(p, SearchConfig(size_bound=1, find_all=True, max_solutions=1))
    assert isinstance(out, Solved) and len(out.solutions) == 1


# --- matching: solve_sigma with a ground right-hand side ---


def match_problem():
    """Y[c . ^0] = (f c) over ctx [c:iota, f:iota->iota]."""
    ctx = (iota, ii)
    return sp(
        ctx,
        {"Y": Sort((iota,) + ctx, iota)},
        Closure(Meta("Y"), Cons(Index(1), Shift(0))),
        App(Index(2), Index(1)),
    )


def test_match_sigma_worked_example():
    out = solve_sigma(match_problem(), SearchConfig(size_bound=3, find_all=True))
    assert isinstance(out, Solved)
    assert MetaSubst({"Y": App(Index(3), Index(1))}) in out.solutions


def test_match_sigma_ground_equal_sides():
    p = sp((iota,), {}, Index(1), Index(1))
    out = solve_sigma(p, SearchConfig(size_bound=1))
    assert isinstance(out, Solved)
    assert out.solutions == [MetaSubst({})]


# --- check_solution ---


def source_worked_problem():
    ctx = (iota,)
    return lp(ctx, {"X": Sort(ctx, ii)}, App(Meta("X"), Index(1)), Index(1))


def test_check_solution_identity_binder():
    assert check_solution(source_worked_problem(), MetaSubst({"X": Lam(Index(1))}))


def test_check_solution_constant_binder():
    # the constant function also maps c to c
    assert check_solution(source_worked_problem(), MetaSubst({"X": Lam(Index(2))}))


def test_check_solution_ground_false():
    p = lp((iota, iota), {}, Index(1), Index(2))
    assert not check_solution(p, MetaSubst({}))


def test_check_solution_missing_binding():
    with pytest.raises(ValueError):
        check_solution(source_worked_problem(), MetaSubst({}))


def test_check_solution_validates_before_checking_theta():
    # X is declared under one binder more than the root gives it: the
    # problem fails validation, which is reported before the missing binding
    p = lp((iota,), {"X": Sort((iota, iota), iota), "Y": Sort((iota,), iota)}, Meta("X"), Meta("Y"))
    for theta in [MetaSubst({"Y": Index(1)}), MetaSubst({"X": Index(1), "Y": Index(1)})]:
        with pytest.raises(
            InvalidProblem, match="^problem fails validation: sides-sort-check, common-type-atomic$"
        ):
            check_solution(p, theta)
    valid = lp((iota,), {"X": Sort((iota,), iota), "Y": Sort((iota,), iota)}, Meta("X"), Meta("Y"))
    with pytest.raises(ValueError, match="^substitution misses metavariable"):
        check_solution(valid, MetaSubst({"Y": Index(1)}))


def test_check_solution_accepts_inert_redex_with_warning(caplog):
    import logging

    p = source_worked_problem()
    redex = App(Lam(Lam(Index(2))), Index(1))  # evaluates to the constant-c map
    with caplog.at_level(logging.WARNING, logger="lamsig.solver"):
        assert check_solution(p, MetaSubst({"X": redex}))
    assert any(record.name == "lamsig.solver" and "redex" in record.message for record in caplog.records)


# --- decide_small_lambda ---


def test_oracle_worked_example():
    out = decide_small_lambda(source_worked_problem(), SearchConfig(size_bound=3, find_all=True))
    assert isinstance(out, Solved)
    assert MetaSubst({"X": Lam(Index(1))}) in out.solutions


def test_oracle_two_solutions_for_rigid_rhs():
    ctx = (iota, ii)
    p = lp(ctx, {"X": Sort(ctx, ii)}, App(Meta("X"), Index(1)), App(Index(2), Index(1)))
    out = decide_small_lambda(p, SearchConfig(size_bound=4, find_all=True))
    assert isinstance(out, Solved)
    bindings = [theta["X"] for theta in out.solutions]
    assert Lam(App(Index(3), Index(1))) in bindings  # applies f to the argument
    assert Lam(App(Index(3), Index(2))) in bindings  # constant f c
    for theta in out.solutions:
        assert check_solution(p, theta)


def test_oracle_occurs_style_exhausts():
    ctx = (iota, ii)
    p = lp(
        ctx,
        {"X": Sort(ctx, ii)},
        App(Meta("X"), Index(1)),
        App(Index(2), App(Meta("X"), Index(1))),
    )
    out = decide_small_lambda(p, SearchConfig(size_bound=4, find_all=True))
    assert isinstance(out, ExhaustedNoSolution)


def test_oracle_requires_lambda_mode():
    with pytest.raises(ValueError):
        decide_small_lambda(reduced_worked_problem(), SearchConfig())


# --- the search loop against a brute-force filter ---


def occurring_unknowns(p):
    """The declared unknowns that occur in p's sides, in declaration order."""
    occurring = free_metavars(p.lhs) | free_metavars(p.rhs)
    return [x for x in p.metavars if x in occurring]


def brute_solutions(p, cfg):
    """Every assignment of the occurring unknowns' enumerated streams, in
    product order, that check_solution's checks accept.  They run without
    its validation of p, which the unvalidated cases fail."""
    names = occurring_unknowns(p)
    streams = [list(enumerate_simple_terms(p.metavars[x], {}, cfg)) for x in names]
    return [
        theta
        for theta in (MetaSubst(dict(zip(names, combo))) for combo in itertools.product(*streams))
        if solver._solves(p, theta, cfg.fuel, names)
    ]


def scaling_family_problem():
    """X a (Y b) = f (g b) (g a) over (f: i->i->i, g: i->i, a, b: i): the
    source has one solution at bound 6, among 16 x 23 assignments."""
    iii = Arrow(iota, ii)
    ctx = (iota, iota, ii, iii)
    return lp(
        ctx,
        {"X": Sort(ctx, iii), "Y": Sort(ctx, ii)},
        App(App(Meta("X"), Index(2)), App(Meta("Y"), Index(1))),
        App(App(Index(4), App(Index(3), Index(1))), App(Index(3), Index(2))),
    )


def unknown_under_binder_problem():
    """(lam x. X) c = g c with X declared in the binder's context.  Plain
    syntax validates with an unknown under a binder only in this way; X := g x
    solves it."""
    ctx = (iota, ii)
    return lp(
        ctx,
        {"X": Sort((iota,) + ctx, iota)},
        App(Lam(Meta("X")), Index(1)),
        App(Index(2), Index(1)),
    )


def test_unknown_declared_under_a_binder():
    p = unknown_under_binder_problem()
    g_x = App(Index(3), Index(1))
    assert check_solution(p, MetaSubst({"X": g_x}))
    assert decide_small_lambda(p, SearchConfig(size_bound=3)) == Solved([MetaSubst({"X": g_x})])
    cert = reduce_problem(p)
    assert validate_problem(cert.target).ok
    assert validate_reduced_problem(cert).ok
    assert isinstance(solve_sigma(cert.target, SearchConfig(size_bound=3)), Solved)


def decomposition_problems():
    """(name, problem): problems for the branches of the rigid-rigid
    decomposition that runs before the product search."""
    # a, b: iota; g: iota -> iota; f: iota -> iota -> iota
    ctx = (iota, iota, ii, Arrow(iota, ii))
    a, b, g, f = Index(1), Index(2), Index(3), Index(4)
    X, Y = Meta("X"), Meta("Y")
    fun = {"X": Sort(ctx, ii), "Y": Sort(ctx, ii)}
    # X declared in the binder's context, over (c: iota, g: iota -> iota)
    under = {"X": Sort((iota, iota, ii), iota)}
    return [
        # f (X a) a = f (X b) b: a head mismatch in the second argument
        ("head mismatch",
         lp(ctx, {"X": fun["X"]}, App(App(f, App(X, a)), a), App(App(f, App(X, b)), b))),
        # f (X a) (Y b) = f (g a) (Y a)
        ("same head, flex arguments over two unknowns",
         lp(ctx, fun, App(App(f, App(X, a)), App(Y, b)), App(App(f, App(g, a)), App(Y, a)))),
        # g (f (X a) b) = g (f (Y a) b)
        ("flex-flex pair in a rigid context",
         lp(ctx, fun, App(g, App(App(f, App(X, a)), b)), App(g, App(App(f, App(Y, a)), b)))),
        # (lam x. X) c = g c without Beta: the applied binder is rigid and
        # clashes with the spine
        ("sigma, applied binder against a rigid spine",
         sp((iota, ii), under, App(Lam(X), Index(1)), App(Index(2), Index(1)))),
        # (lam x. X) c = (lam x. g x) c without Beta: X := g x
        ("sigma, applied binder against an applied binder",
         sp((iota, ii), under, App(Lam(X), Index(1)), App(Lam(App(Index(3), Index(1))), Index(1)))),
    ]


def unvalidated_problems():
    """(name, problem): decomposition branches that validation rules out.
    In a second-order context every argument of an index is of base type,
    so no binder meets a rigid term, and well-sorted sides never meet one
    head with two arities."""
    # a: iota; g: iota -> iota; h: (iota -> iota) -> iota
    ctx = (iota, ii, Arrow(ii, iota))
    h = Index(3)
    under = {"X": Sort((iota,) + ctx, iota)}
    # c: iota; f: iota -> iota -> iota
    fctx = (iota, Arrow(iota, ii))
    return [
        # h (lam x. X) = h (lam x. g x): X := g x
        ("lam against lam",
         lp(ctx, under, App(h, Lam(Meta("X"))), App(h, Lam(App(Index(3), Index(1)))))),
        # h (lam x. X) = h g: no solution without eta
        ("lam against a rigid spine", lp(ctx, under, App(h, Lam(Meta("X"))), App(h, Index(2)))),
        # f X = f c c
        ("arity mismatch",
         sp(fctx, {"X": Sort(fctx, iota)},
            App(Index(2), Meta("X")), App(App(Index(2), Index(1)), Index(1)))),
    ]


def head_filter_problems():
    """(name, problem): problems for the branches of the rigid-head filter
    that prunes candidate streams (solver._instance_head).  The reductions
    of the full-equality ones reach the filter's cons-entry branch, and
    unknown_under_binder_problem reaches it on the source side too."""
    # a, b: iota; g: iota -> iota; f: iota -> iota -> iota
    ctx = (iota, iota, ii, Arrow(iota, ii))
    a, b, g, f = Index(1), Index(2), Index(3), Index(4)
    X, Y = Meta("X"), Meta("Y")
    unary, binary = Sort(ctx, ii), Sort(ctx, Arrow(iota, ii))
    return [
        # X a = g b: a candidate imitating anything but g with one argument
        # clashes
        ("imitation clash", lp(ctx, {"X": unary}, App(X, a), App(g, b))),
        # X (f a b) (g a) = g a: lam lam. 2 projects onto f a b and clashes,
        # lam lam. 1 projects onto g a and solves
        ("projection onto an argument",
         lp(ctx, {"X": binary}, App(App(X, App(App(f, a), b)), App(g, a)), App(g, a))),
        # X (Y a) = g a: a projection onto Y a is undecided and kept
        ("projection onto a flex argument",
         lp(ctx, {"X": unary, "Y": unary}, App(X, App(Y, a)), App(g, a))),
        # X[^1] = g b, X over (b, g, f): X := g 1 imitates g through the shift
        ("imitation through a shift",
         sp(ctx, {"X": Sort(ctx[1:], iota)}, Closure(X, Shift(1)), App(g, b))),
        # X a = f a a: X := f a consumes no argument with a binder
        ("fewer binders than arguments", lp(ctx, {"X": unary}, App(X, a), App(App(f, a), a))),
        # X a = g a without Beta: every binder stays applied and clashes,
        # and X := g solves
        ("sigma, applied binder", sp(ctx, {"X": unary}, App(X, a), App(g, a))),
        # X a = (lam x. g x) a without Beta: only a binder can match
        ("sigma, applied binder against an applied binder",
         sp(ctx, {"X": unary}, App(X, a), App(Lam(App(Index(4), Index(1))), a))),
        # (lam x. X) (g c) = g c: X := x projects onto g c and solves, X := c
        # imitates c and clashes
        ("unknown under a binder, projected onto the argument",
         lp((iota, ii), {"X": Sort((iota, iota, ii), iota)},
            App(Lam(X), App(Index(2), Index(1))), App(Index(2), Index(1)))),
        # X = f a a: below size 5 no candidate has head f and two arguments,
        # so the filtered stream is empty
        ("a filtered stream that ends up empty", lp(ctx, {"X": Sort(ctx, iota)}, X, App(App(f, a), a))),
    ]


def differential_cases():
    """(name, problem, search, bounds): each full-equality source under the
    oracle and its reduction under solve_sigma."""
    sources = [(path.name, parse_problem(path.read_text(encoding="utf-8")).problem, (1, 2, 3))
               for path in sorted(CORPUS.glob("*.sig"))]
    sources += [(f"seed {seed}", gen_second_order_problem(seed), (1, 2, 3)) for seed in range(60)]
    sources.append(("scaling family", scaling_family_problem(), (6,)))
    sources += [(name, p, (1, 2, 3)) for name, p in decomposition_problems()]
    sources += [(name, p, (1, 2, 3)) for name, p in head_filter_problems()]
    for name, p, bounds in sources:
        if p.mode is EqMode.SIGMA_ONLY:
            yield name, p, solve_sigma, bounds
            continue
        yield name, p, decide_small_lambda, bounds
        yield f"{name}, reduced", reduce_problem(p).target, solve_sigma, bounds
    p = unknown_under_binder_problem()
    yield "unknown under a binder", p, decide_small_lambda, (2, 3)
    yield "unknown under a binder, reduced", reduce_problem(p).target, solve_sigma, (2, 3)
    for name, p in unvalidated_problems():  # the search loop, without validation
        yield name, p, solver._product_search, (1, 2, 3)


def test_search_matches_brute_force_filter():
    hits = 0
    for name, problem, search, bounds in differential_cases():
        for bound in bounds:
            cfg = SearchConfig(size_bound=bound, find_all=True, max_solutions=10_000)
            expected = brute_solutions(problem, cfg)
            out = search(problem, cfg)
            assert isinstance(out, Solved if expected else ExhaustedNoSolution), (name, bound)
            if expected:
                assert out.solutions == expected, (name, bound)
            hits += len(expected)
    assert hits > 300


def test_a_valid_problem_is_its_own_precooked_form():
    """What lets every verdict read the sides as written: on each valid
    full-equality problem with closure-free sides, precooking changes
    nothing."""
    cases = [(path.name, parse_problem(path.read_text(encoding="utf-8")).problem)
             for path in sorted(CORPUS.glob("*.sig"))]
    cases += [(f"seed {seed}", gen_second_order_problem(seed)) for seed in range(500)]
    cases.append(("unknown under a binder", unknown_under_binder_problem()))
    cases += decomposition_problems() + head_filter_problems()
    checked = 0
    for name, p in cases:
        if p.mode is EqMode.SIGMA_ONLY or contains(p.lhs, Closure) or contains(p.rhs, Closure):
            continue
        assert validate_problem(p).ok, name
        cooked = precook(p)
        assert (cooked.lhs, cooked.rhs) == (p.lhs, p.rhs), name
        checked += 1
    assert checked == 519 + 1 + 3 + 6


def test_search_and_check_solution_agree_on_generated_problems():
    """One notion of solution: a solution binds the unknowns that occur in
    the sides.  Whenever some assignment of their bounded streams passes
    check_solution, the search is Solved, and every hit it returns passes
    check_solution; on the source and on its reduction."""
    solved = 0
    for seed in range(500):
        source = gen_second_order_problem(seed)
        cases = [(source, decide_small_lambda), (reduce_problem(source).target, solve_sigma)]
        for bound in (1, 2, 3, 4):
            cfg = SearchConfig(size_bound=bound, find_all=True)
            for p, search in cases:
                out = search(p, cfg)
                if isinstance(out, Solved):
                    assert all(check_solution(p, theta) for theta in out.solutions), (seed, bound)
                    solved += 1
                    continue
                names = occurring_unknowns(p)
                streams = [list(enumerate_simple_terms(p.metavars[x], {}, cfg)) for x in names]
                for combo in itertools.product(*streams):
                    theta = MetaSubst(dict(zip(names, combo)))
                    assert not check_solution(p, theta), (seed, bound, search.__name__, theta)
    assert solved > 1000


def test_a_hit_that_fails_check_solution_raises(monkeypatch):
    monkeypatch.setattr(solver, "_solves", lambda p, theta, fuel, occurring: False)
    with pytest.raises(RuntimeError):
        solve_sigma(reduced_worked_problem(), SearchConfig(size_bound=2))


def counting_draws(monkeypatch) -> list[int]:
    """Route the search's streams through a counter: one entry per stream
    opened, holding the number of candidates drawn from it so far."""
    draws: list[int] = []
    enumerate_all = solver.enumerate_simple_terms

    def counting(sort, pool, cfg):
        draws.append(0)
        call = len(draws) - 1
        for term in enumerate_all(sort, pool, cfg):
            draws[call] += 1
            yield term

    monkeypatch.setattr(solver, "enumerate_simple_terms", counting)
    return draws


def test_a_rigid_clash_draws_one_candidate_per_unknown(monkeypatch):
    """f (X a) (Y b) = g (Y a): the heads clash.  A freshly validated source
    normalizes its sides before it decomposes them, so it first reads each
    stream as far as its first candidate, which shows that it is not empty.
    A reduction's target, and the source once a search has found its sides
    normal, decompose their sides first and open no stream at the clash."""
    ctx = (iota, iota, ii, Arrow(iota, ii))
    a, b, g, f = Index(1), Index(2), Index(3), Index(4)
    X, Y = Meta("X"), Meta("Y")
    p = lp(ctx, {"X": Sort(ctx, ii), "Y": Sort(ctx, ii)},
           App(App(f, App(X, a)), App(Y, b)), App(g, App(Y, a)))
    draws = counting_draws(monkeypatch)
    cfg = SearchConfig(size_bound=4, find_all=True)
    assert transform.known_normal_sides(p) is None
    assert isinstance(decide_small_lambda(p, cfg), ExhaustedNoSolution)
    assert draws == [1, 1]
    target = reduce_problem(p).target
    for search, problem in [(decide_small_lambda, p), (solve_sigma, target)]:
        assert transform.known_normal_sides(problem) == (problem.lhs, problem.rhs), search.__name__
        draws.clear()
        assert isinstance(search(problem, cfg), ExhaustedNoSolution), search.__name__
        assert draws == [], search.__name__


def hit_ranks(problem, search, cfg):
    """Each stream in full, and the rank in it of the first hit's binding."""
    streams = [list(enumerate_simple_terms(sort, {}, cfg)) for sort in problem.metavars.values()]
    theta = search(problem, cfg).solutions[0]
    return streams, [stream.index(theta[x]) for x, stream in zip(problem.metavars, streams)]


def test_a_hit_at_rank_r_draws_r_plus_one_candidates(monkeypatch):
    """X c = f (f c): the search stops at its first hit, so it reads the
    stream of its one unknown no further than that hit."""
    ctx = (iota, ii)
    c, f = Index(1), Index(2)
    p = lp(ctx, {"X": Sort(ctx, ii)}, App(Meta("X"), c), App(f, App(f, c)))
    cfg = SearchConfig(size_bound=6)
    for search, problem in [(decide_small_lambda, p), (solve_sigma, reduce_problem(p).target)]:
        (stream,), (rank,) = hit_ranks(problem, search, cfg)
        assert 0 < rank < len(stream) - 1, search.__name__
        draws = counting_draws(monkeypatch)
        search(problem, cfg)
        assert draws == [rank + 1], search.__name__


def test_inner_streams_are_drawn_once(monkeypatch):
    """The scaling family's first hit lies inside X's stream: X is read as
    far as the hit, and Y, which varies fastest, is read once in full and
    then reused for every later candidate of X."""
    p = scaling_family_problem()
    for search, problem, bound in [(decide_small_lambda, p, 6), (solve_sigma, reduce_problem(p).target, 7)]:
        cfg = SearchConfig(size_bound=bound)
        (x_stream, y_stream), (x_rank, y_rank) = hit_ranks(problem, search, cfg)
        assert 0 < x_rank < len(x_stream) - 1, search.__name__
        draws = counting_draws(monkeypatch)
        search(problem, cfg)
        assert draws == [x_rank + 1, len(y_stream)], search.__name__


def head_key(t):
    """The head of a normal form and its argument count, the head as the
    filter keys it: the index, 0 for a binder, None for anything flex."""
    head, args = solver._spine(t)
    key = head.n if type(head) is Index else 0 if type(head) is Lam else None
    return key, len(args)


def test_instance_heads_match_the_normal_form():
    """Wherever the filter decides an instance's head from the candidate's
    head, grafting the candidate alone into the flex side and normalizing
    gives that head and argument count.  Every branch problem has a
    candidate the filter drops."""
    cases = head_filter_problems()
    cases += [(f"seed {seed}", gen_second_order_problem(seed)) for seed in range(60)]
    cases.append(("unknown under a binder", unknown_under_binder_problem()))
    cases.append(("scaling family", scaling_family_problem()))
    cases += [(f"{name}, reduced", reduce_problem(p).target)
              for name, p in cases if p.mode is EqMode.LAMBDA_SIGMA]
    cfg = SearchConfig(size_bound=4)
    decided = 0
    for name, p in cases:
        beta = p.mode is EqMode.LAMBDA_SIGMA
        norm = normalize_lambda_sigma if beta else normalize_sigma
        flex = solver._decompose(norm(p.lhs, cfg.fuel), norm(p.rhs, cfg.fuel), p.mode)
        dropped = 0
        for pair in flex or []:
            demands = solver._head_demands([pair], not beta)
            for x, [(entries, n, args, head, count)] in demands.items():
                side = next(t for t in pair if head_key(t)[0] is None)
                for u in enumerate_simple_terms(p.metavars[x], {}, cfg):
                    got = solver._instance_head(u, entries, n, args, beta)
                    if got is None:
                        continue
                    assert head_key(norm(graft({x: u}, side), cfg.fuel)) == got, (name, u)
                    decided += 1
                    dropped += got != (head, count)
        if not name.startswith("seed"):
            assert dropped > 0, name
    assert decided > 100


def counting_grafts(monkeypatch) -> Counter:
    """Count the search's grafts per grafted term: the calls of
    normalize_graft, which builds both searches' instances in solver and
    normalizes their sides in transform, with a non-empty assignment.  The
    two sides, normalized with nothing bound, and a hit's check, which
    grafts a MetaSubst through graft, are not counted."""
    grafts: Counter = Counter()

    def count(theta, t, *args):
        if theta:
            grafts[t] += 1
        return normalize_graft(theta, t, *args)

    for module in (solver, transform):
        monkeypatch.setattr(module, "normalize_graft", count)
    return grafts


def test_pruned_candidates_are_never_grafted(monkeypatch):
    """X c = f (f c) at bound 6: the flex part is grafted once for each
    candidate up to the first hit whose instance has f's head and one
    argument, and never for the candidates the filter drops.  Both
    searches graft through normalize_graft."""
    ctx = (iota, ii)
    c, f = Index(1), Index(2)
    p = lp(ctx, {"X": Sort(ctx, ii)}, App(Meta("X"), c), App(f, App(f, c)))
    cfg = SearchConfig(size_bound=6)
    cases = [(decide_small_lambda, p, normalize_lambda_sigma, 6, 4),
             (solve_sigma, reduce_problem(p).target, normalize_sigma, 5, 3)]
    for search, problem, norm, drawn, kept in cases:
        (stream,), (rank,) = hit_ranks(problem, search, cfg)
        (x,) = problem.metavars
        want = head_key(norm(problem.rhs, cfg.fuel))
        survivors = [u for u in stream[: rank + 1]
                     if head_key(norm(graft({x: u}, problem.lhs), cfg.fuel)) == want]
        assert (rank + 1, len(survivors)) == (drawn, kept), search.__name__
        grafts = counting_grafts(monkeypatch)
        search(problem, cfg)
        assert [n for t, n in grafts.items() if free_metavars(t)] == [kept], search.__name__


def test_sigma_applied_binder_against_a_rigid_spine_is_a_clash(monkeypatch):
    """Without Beta the applied binder survives every graft, so the search
    ends at decomposition and grafts nothing."""
    p = dict(decomposition_problems())["sigma, applied binder against a rigid spine"]
    grafts = counting_grafts(monkeypatch)
    assert isinstance(solve_sigma(p, SearchConfig(size_bound=3)), ExhaustedNoSolution)
    assert not grafts


def test_evaluator_fuel_abort_names_rule_instances():
    """solve_sigma runs on the evaluator, whose fuel counts rule instances,
    not rewrite steps."""
    p = reduce_problem(gen_second_order_problem(46)).target
    out = solve_sigma(p, SearchConfig(fuel=2, find_all=True))
    assert out == Aborted("fuel exhausted: no normal form within 2 rule instances")


def test_empty_product_normalizes_nothing():
    """X has no candidate, so no side is normalized: the right side, which
    needs more than one step, cannot exhaust the fuel."""
    ctx = (iota, ii)
    rhs = Closure(App(Index(1), Index(2)), Cons(Index(2), Cons(Index(1), Shift(0))))
    p = sp(ctx, {"X": Sort((), iota)}, Closure(Meta("X"), Shift(2)), rhs)
    assert validate_problem(p).ok
    assert list(enumerate_simple_terms(p.metavars["X"], {}, SearchConfig())) == []
    with pytest.raises(FuelExhausted):
        normalize_sigma(rhs, 1)
    assert isinstance(solve_sigma(p, SearchConfig(fuel=1)), ExhaustedNoSolution)
    assert isinstance(solve_sigma(sp(ctx, {}, Index(1), rhs), SearchConfig(fuel=1)), Aborted)
