import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gen import gen_agreement_pair, gen_second_order_problem

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
    lift_solution,
    precook,
    project_solution,
    reduce_problem,
    solve_sigma,
    validate_problem,
    validate_reduced_problem,
)
from lamsig import solver, transform
from lamsig.rewrite import normalize_lambda_sigma
from lamsig.sorts import equation_type, render_type
from lamsig.solver import SearchConfig, decide_small_lambda
from lamsig.surface import parse_problem
from lamsig.terms import graft

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


def test_no_precooking_in_the_verdicts_and_one_walk_in_reduce(monkeypatch):
    """decide_small_lambda, its product search and check_solution read a
    valid problem's sides as written, with no precooking walk however many
    hits they check; reduce_problem builds its target in one walk, with no
    graft and no MetaSubst."""
    walks = []
    walk = transform._cook
    monkeypatch.setattr(transform, "_cook", lambda p, images: walks.append(images) or walk(p, images))
    p = parse_problem((CORPUS / "two_var_cross.sig").read_text(encoding="utf-8")).problem
    cfg = SearchConfig(find_all=True, max_solutions=3)
    out = decide_small_lambda(p, cfg)
    assert isinstance(out, Solved) and len(out.solutions) == 3
    assert solver._product_search(p, cfg, normalize_lambda_sigma) == out
    assert all(check_solution(p, theta) for theta in out.solutions)
    assert walks == []

    calls = []

    def forbidden(name):
        return lambda *args, **kwargs: calls.append(name)

    for module_name, module in list(sys.modules.items()):
        for name in ("graft", "MetaSubst"):
            if module_name.split(".")[0] == "lamsig" and hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    walks.clear()
    cert = reduce_problem(p)
    assert calls == [] and walks == [build_lifting_subst(p)[0]]
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
