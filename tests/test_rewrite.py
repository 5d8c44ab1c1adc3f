import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gen import gen_agreement_pair, gen_checked_term
from oracles import beta_normalize, denote

import random

from lamsig import (
    App,
    Closure,
    Comp,
    Cons,
    EqMode,
    FuelExhausted,
    Index,
    Lam,
    Meta,
    RandomizedPosition,
    RuleId,
    Shift,
    canonicalize_shifts,
    free_metavars,
    graft,
    normalize_lambda_sigma,
    normalize_sigma,
    normalize_traced,
    replay_trace,
    sigma_equal,
    sort_check_term,
    step,
    term_size,
)
from lamsig.rewrite import (
    LEFTMOST_OUTERMOST,
    _rebuild,
    _rule_at,
    contract_at,
    to_pure_indices,
)
from lamsig.terms import children, subterms


def rules_of(trace):
    return [s.rule for s in trace.steps]


# --- step ---


def test_step_identity_substitution():
    got = step(Closure(Index(1), Shift(0)), EqMode.SIGMA_ONLY)
    assert got == (Index(1), (), RuleId.ID_SUB)


def test_step_sigma_leaves_beta_redex():
    assert step(App(Lam(Index(1)), Index(2)), EqMode.SIGMA_ONLY) is None


def test_step_beta_included_in_full_mode():
    got = step(App(Lam(Index(1)), Index(2)), EqMode.LAMBDA_SIGMA)
    assert got == (Closure(Index(1), Cons(Index(2), Shift(0))), (), RuleId.BETA)


# --- normalize_sigma (chains verified step by step below) ---


def test_normalize_pushes_through_binder():
    t = Closure(Lam(Index(1)), Shift(1))
    nf, trace = normalize_traced(t, EqMode.SIGMA_ONLY)
    assert nf == Lam(Index(1))
    assert rules_of(trace) == [RuleId.ABS, RuleId.VAR_CONS_HIT]


def test_normalize_distributes_over_application():
    t = Closure(App(Index(1), Index(2)), Cons(Meta("A"), Shift(0)))
    nf, trace = normalize_traced(t, EqMode.SIGMA_ONLY)
    assert nf == App(Meta("A"), Index(1))
    assert rules_of(trace) == [
        RuleId.APP,
        RuleId.VAR_CONS_HIT,
        RuleId.VAR_CONS_SKIP,
        RuleId.ID_SUB,
    ]


def test_normalize_already_normal():
    assert normalize_sigma(Index(5)) == Index(5)


def test_normalize_lambda_sigma_identity_combinator():
    assert normalize_lambda_sigma(App(Lam(Index(1)), Index(3))) == Index(3)


def test_normalize_lambda_sigma_constant_function():
    t = App(Lam(Lam(Index(2))), Index(1))
    nf, trace = normalize_traced(t, EqMode.LAMBDA_SIGMA)
    assert nf == Lam(Index(2))
    assert trace.steps[0].rule is RuleId.BETA
    assert RuleId.ABS in rules_of(trace)
    assert RuleId.VAR_SHIFT in rules_of(trace)


def test_normalize_lambda_sigma_normal_binder():
    assert normalize_lambda_sigma(Lam(Index(1))) == Lam(Index(1))


# --- traces ---


def test_trace_empty_on_normal_form():
    nf, trace = normalize_traced(Index(1), EqMode.SIGMA_ONLY)
    assert nf == Index(1) and trace.steps == [] and trace.fuel_spent == 0


def test_trace_single_step():
    nf, trace = normalize_traced(Closure(Index(1), Shift(0)), EqMode.SIGMA_ONLY)
    assert rules_of(trace) == [RuleId.ID_SUB]


def test_trace_replay():
    for seed in range(100):
        ctx, m, t, ty = gen_checked_term(seed)
        _, trace = normalize_traced(t, EqMode.SIGMA_ONLY)
        assert replay_trace(trace, EqMode.SIGMA_ONLY)


def test_trace_records_positions():
    t = Lam(Closure(Index(1), Shift(0)))
    _, trace = normalize_traced(t, EqMode.SIGMA_ONLY)
    assert trace.steps[0].path == (0,)


def test_contract_at_rejects_normal_position():
    with pytest.raises(ValueError):
        contract_at(Index(1), (), EqMode.SIGMA_ONLY)


# --- sigma_equal ---


def test_sigma_equal_identity_closure():
    assert sigma_equal(Index(1), Closure(Index(1), Shift(0)))


def test_sigma_equal_distinct_normal_forms():
    assert not sigma_equal(Index(1), Index(2))


def test_sigma_equal_shift_chains():
    t1 = Closure(Meta("X"), Comp(Shift(1), Shift(2)))
    t2 = Closure(Meta("X"), Shift(3))
    assert sigma_equal(t1, t2)
    assert normalize_sigma(t1) == Closure(Meta("X"), Shift(3))


# --- fuel ---


def test_fuel_exhausted_raises():
    # needs two steps; the message names what each engine's fuel counts
    t = Closure(Lam(Index(1)), Shift(1))
    for engine in (normalize_sigma, normalize_lambda_sigma):
        with pytest.raises(FuelExhausted, match="^no normal form within 1 rule instances$"):
            engine(t, fuel=1)
    for ruleset in EqMode:
        with pytest.raises(FuelExhausted, match="^no normal form within 1 rewrite steps$"):
            normalize_traced(t, ruleset, fuel=1)


def test_fuel_exact_budget_is_enough():
    t = Closure(Lam(Index(1)), Shift(1))
    assert normalize_sigma(t, fuel=2) == Lam(Index(1))


# --- pairing collapse ---


def test_eta_literal_form():
    s = Cons(Index(1), Shift(0))
    t = Lam(Closure(Meta("X"), Cons(Closure(Index(1), s), Comp(Shift(1), s))))
    # collapses back to the closed-over substitution
    assert normalize_sigma(t) == Lam(Closure(Meta("X"), Cons(Index(1), Shift(0))))


def test_eta_shift_form():
    t = Closure(Meta("X"), Cons(Index(3), Shift(3)))
    assert normalize_sigma(t) == Closure(Meta("X"), Shift(2))


def test_eta_degenerate_identity():
    t = Lam(Closure(Meta("X"), Cons(Index(1), Shift(1))))
    assert normalize_sigma(t) == Lam(Meta("X"))


# --- properties over generated terms ---


N_TERMS = 300


def test_termination_proxy():
    for seed in range(N_TERMS):
        ctx, m, t, ty = gen_checked_term(seed)
        normalize_sigma(t, fuel=10**6)  # must not raise


def test_strategy_confluence():
    for seed in range(N_TERMS):
        ctx, m, t, ty = gen_checked_term(seed)
        lo = normalize_sigma(t)
        rand, _ = normalize_traced(t, EqMode.SIGMA_ONLY, RandomizedPosition(seed))
        assert lo == rand


def test_normalize_idempotent():
    for seed in range(N_TERMS):
        ctx, m, t, ty = gen_checked_term(seed)
        nf = normalize_sigma(t)
        assert normalize_sigma(nf) == nf
        # the *_equal functions compare normal forms without canonicalizing
        assert canonicalize_shifts(nf) == nf


def test_subject_reduction_sigma():
    for seed in range(N_TERMS):
        ctx, m, t, ty = gen_checked_term(seed)
        _, trace = normalize_traced(t, EqMode.SIGMA_ONLY)
        for entry in trace.steps:
            assert sort_check_term(ctx, m, entry.result, expected=ty) == ty


def test_beta_never_fires_under_sigma():
    for seed in range(N_TERMS):
        ctx, m, t, ty = gen_checked_term(seed)
        _, trace = normalize_traced(t, EqMode.SIGMA_ONLY)
        assert RuleId.BETA not in rules_of(trace)


def test_encoding_coherence():
    for seed in range(N_TERMS):
        ctx, m, t, ty = gen_checked_term(seed)
        encoded = to_pure_indices(t)
        assert normalize_sigma(encoded) == normalize_sigma(t)


# --- independent ground oracle ---


def gen_raw_ground(rng, budget):
    """Raw ground syntax tree, types ignored: the denotation oracle and the
    substitution rules are both purely syntactic on ground terms."""
    if budget <= 2:
        return Index(rng.randint(1, 6))
    pick = rng.choice(["app", "lam", "closure", "closure", "index"])
    if pick == "app":
        split = rng.randint(1, budget - 2)
        return App(gen_raw_ground(rng, budget - 1 - split), gen_raw_ground(rng, split))
    if pick == "lam":
        return Lam(gen_raw_ground(rng, budget - 1))
    if pick == "closure":
        split = rng.randint(1, budget - 2)
        return Closure(
            gen_raw_ground(rng, budget - 1 - split), gen_raw_ground_subst(rng, split)
        )
    return Index(rng.randint(1, 6))


def gen_raw_ground_subst(rng, budget):
    if budget <= 2:
        return Shift(rng.randint(0, 4))
    pick = rng.choice(["shift", "cons", "cons", "comp"])
    if pick == "cons":
        split = rng.randint(1, budget - 2)
        return Cons(gen_raw_ground(rng, split), gen_raw_ground_subst(rng, budget - 1 - split))
    if pick == "comp":
        split = rng.randint(1, budget - 2)
        return Comp(
            gen_raw_ground_subst(rng, budget - 1 - split), gen_raw_ground_subst(rng, split)
        )
    return Shift(rng.randint(0, 4))


def test_ground_sigma_normal_forms_match_denotation():
    """The substitution-only normal form of a ground term equals its
    meta-level denotation (closures interpreted as index functions): the
    denotation is closure free, hence normal, and normal forms are unique."""
    for seed in range(800):
        rng = random.Random(seed)
        t = gen_raw_ground(rng, rng.randint(4, 40))
        assert normalize_sigma(t) == denote(t), seed


def test_ground_full_normal_forms_match_denotation():
    checked = 0
    for seed in range(400):
        rng = random.Random(seed)
        t = gen_raw_ground(rng, rng.randint(4, 30))
        try:
            expected = beta_normalize(denote(t))
            got = normalize_lambda_sigma(t, fuel=200_000)
        except (RuntimeError, FuelExhausted):
            continue  # untyped self-application can diverge; both engines gave up
        assert got == expected, seed
        checked += 1
    assert checked > 300


# --- the resuming scan against a rescanning reference ---


def rescanning_steps(t, beta, strategy):
    """Every step from a fresh scan of the whole term: the first redex in
    pre-order, or a drawn one of all redex paths collected anew."""

    def leftmost(node):
        hit = _rule_at(node, beta)
        if hit is not None:
            return hit[1], (), hit[0]
        for i, child in enumerate(children(node)):
            sub = leftmost(child)
            if sub is not None:
                return _rebuild(node, i, sub[0]), (i,) + sub[1], sub[2]
        return None

    def redexes(node, path):
        if _rule_at(node, beta) is not None:
            yield path
        for i, child in enumerate(children(node)):
            yield from redexes(child, path + (i,))

    def contract(node, path):
        if not path:
            rule, new = _rule_at(node, beta)
            return new, rule
        new_child, rule = contract(children(node)[path[0]], path[1:])
        return _rebuild(node, path[0], new_child), rule

    while True:
        if strategy is LEFTMOST_OUTERMOST:
            hit = leftmost(t)
        else:
            positions = list(redexes(t, ()))
            hit = None
            if positions:
                path = positions[strategy.pick(len(positions))]
                new, rule = contract(t, path)
                hit = (new, path, rule)
        if hit is None:
            return
        t = hit[0]
        yield hit


def untraced_agrees(t):
    """normalize_lambda_sigma reaches the traced normal form; returns that
    normal form."""
    nf = normalize_traced(t, EqMode.LAMBDA_SIGMA)[0]
    assert normalize_lambda_sigma(t) == nf
    return nf


def strategies(seed):
    yield lambda: LEFTMOST_OUTERMOST
    yield lambda: RandomizedPosition(seed)


@pytest.mark.parametrize("mode", [EqMode.SIGMA_ONLY, EqMode.LAMBDA_SIGMA])
def test_resumed_scan_matches_rescanning_reference(mode):
    beta = mode is EqMode.LAMBDA_SIGMA
    for seed in range(1_000):
        ctx, m, t, ty = gen_checked_term(seed)
        start = canonicalize_shifts(t)
        for make in strategies(seed):
            expected = [
                (path, rule, result) for result, path, rule in rescanning_steps(start, beta, make())
            ]
            nf, trace = normalize_traced(t, mode, make())
            got = [(s.path, s.rule, s.result) for s in trace.steps]
            assert got == expected, seed
            assert nf == (expected[-1][2] if expected else start), seed
            if beta and make() is LEFTMOST_OUTERMOST:
                assert normalize_lambda_sigma(t) == nf, seed
            if seed >= 300 or not expected:
                continue
            n = len(expected)
            for fuel in (n - 1, n, n + 1):
                if fuel < n:
                    with pytest.raises(FuelExhausted) as exc:
                        normalize_traced(t, mode, make(), fuel)
                    assert [(s.path, s.rule, s.result) for s in exc.value.trace.steps] == expected[:fuel]
                else:
                    assert normalize_traced(t, mode, make(), fuel)[0] == nf, seed


def test_step_is_the_first_step_of_a_normalization():
    for seed in range(100):
        ctx, m, t, ty = gen_checked_term(seed)
        t = canonicalize_shifts(t)
        _, trace = normalize_traced(t, EqMode.SIGMA_ONLY)
        first = trace.steps[0] if trace.steps else None
        got = step(t, EqMode.SIGMA_ONLY)
        assert got == (None if first is None else (first.result, first.path, first.rule))


def test_scan_resumes_above_merged_shifts():
    # ShiftCons turns the inner composition into ^2, which merges the outer
    # one into ^3 and makes the closure above it a VarShift redex.
    t = Closure(Index(1), Comp(Shift(1), Comp(Shift(1), Cons(Index(4), Shift(2)))))
    for strategy in strategies(0):
        nf, trace = normalize_traced(t, EqMode.SIGMA_ONLY, strategy())
        assert [(s.path, s.rule) for s in trace.steps] == [
            ((1, 1), RuleId.SHIFT_CONS),
            ((), RuleId.VAR_SHIFT),
        ]
        assert nf == Index(4)
    assert untraced_agrees(t) == Index(4)


def test_a_cons_ancestor_is_retested_after_a_change_deep_below_it():
    # The literal EtaConsShift form compares whole subtrees, so a cons can
    # become a redex through a change several levels below it.
    mode, beta = EqMode.SIGMA_ONLY, False

    def agrees(t, strategy):
        expected = [(path, rule, result) for result, path, rule in rescanning_steps(t, beta, strategy())]
        _, trace = normalize_traced(t, mode, strategy())
        assert [(s.path, s.rule, s.result) for s in trace.steps] == expected
        return [(path, rule) for path, rule, _ in expected]

    # Randomized: IdSub at (1, 1, 1, 0) turns the tail's S2 into S, and the
    # cons at (1,) is then 1[S] . (^1 o S).
    s = Cons(Index(2), Shift(3))
    s2 = Cons(Closure(Index(2), Shift(0)), Shift(3))
    t = Closure(Meta("X"), Cons(Closure(Index(1), s), Comp(Shift(1), s2)))
    eta_after_idsub = 0
    for seed in range(20):
        steps = agrees(t, lambda: RandomizedPosition(seed))
        if steps[:2] == [((1, 1, 1, 0), RuleId.ID_SUB), ((1,), RuleId.ETA_CONS_SHIFT)]:
            eta_after_idsub += 1
    assert eta_after_idsub > 0

    # Leftmost-outermost: ShiftCons at (1, 0, 1, 1) turns the head's
    # substitution into the tail's, inside a head the scan has entered.
    tail = Cons(Index(2), Shift(3))
    head_subst = Comp(Shift(1), Comp(Shift(1), Cons(Index(9), tail)))
    t = Closure(Meta("X"), Cons(Closure(Index(1), head_subst), Comp(Shift(1), Comp(Shift(1), tail))))
    assert agrees(t, lambda: LEFTMOST_OUTERMOST)[:2] == [
        ((1, 0, 1, 1), RuleId.SHIFT_CONS),
        ((1,), RuleId.ETA_CONS_SHIFT),
    ]
    untraced_agrees(t)


# --- depth ---


def test_normalization_recurses_nowhere():
    # c[^1] 1 ... 1 1[^1], an application spine 5,000 deep with a redex at
    # its head and in its last argument
    depth = 5_000
    assert depth > 2 * sys.getrecursionlimit()
    t = Closure(Index(1), Shift(1))
    for _ in range(depth - 1):
        t = App(t, Index(1))
    t = App(t, Closure(Index(1), Shift(1)))
    for nf in (
        normalize_sigma(t),
        normalize_lambda_sigma(t),
        normalize_traced(t, EqMode.SIGMA_ONLY)[0],
        normalize_traced(t, EqMode.SIGMA_ONLY, RandomizedPosition(0))[0],
    ):
        args = []
        while isinstance(nf, App):
            args.append(nf.arg)
            nf = nf.fun
        assert nf == Index(2) and args == [Index(2)] + [Index(1)] * (depth - 1)
    _, trace = normalize_traced(t, EqMode.SIGMA_ONLY)
    assert [s.path for s in trace.steps] == [(0,) * depth, (1,)]


def test_structural_maps_recurse_nowhere():
    # X[^1 o ^1] 2 ... 2, an application spine 5,000 deep, and a composition
    # of 5,000 unit shifts
    depth = 5_000
    assert depth > 2 * sys.getrecursionlimit()
    head = Closure(Meta("X"), Comp(Shift(1), Shift(1)))
    t = head
    for _ in range(depth - 1):
        t = App(t, Index(2))
    s = Shift(1)
    for _ in range(depth - 1):
        s = Comp(Shift(1), s)

    def spine(u):
        args = []
        while isinstance(u, App):
            args.append(u.arg)
            u = u.fun
        return u, args

    twos = [Index(2)] * (depth - 1)
    assert term_size(t) == sum(1 for _ in subterms(t)) == 2 * (depth - 1) + 5
    assert free_metavars(t) == {"X"}
    assert spine(graft({"X": Index(1)}, t)) == (Closure(Index(1), Comp(Shift(1), Shift(1))), twos)
    assert spine(canonicalize_shifts(t)) == (Closure(Meta("X"), Shift(2)), twos)
    assert canonicalize_shifts(s) == Shift(depth)
    encoded = to_pure_indices(t)
    assert spine(encoded) == (head, [Closure(Index(1), Shift(1))] * (depth - 1))


def run_isolated(code: str, *flags: str) -> str:
    """What `code` prints in a fresh isolated interpreter, started with the
    extra `flags`, that imports lamsig from this checkout."""
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-I", *flags, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_the_recursion_limit_alone():
    code = (
        "import sys; before = sys.getrecursionlimit(); import lamsig, lamsig.cli; "
        "print(before == sys.getrecursionlimit())"
    )
    assert run_isolated(code) == "True"


def test_import_loads_no_dataclasses_inspect_or_logging():
    """The records are plain slotted classes, the solver imports logging
    only to warn, the CLI reads files with open and the type aliases are
    PEP 604 unions, so start-up loads none of these modules.  Without -S,
    a .pth file in site-packages may have loaded one before lamsig; -S runs
    no site module, so nothing can."""
    code = (
        "import sys; heavy = ('dataclasses', 'inspect', 'logging', 'pathlib', 'typing'); "
        "before = set(sys.modules); import lamsig, lamsig.cli; "
        "print(sorted(name for name in heavy if name in sys.modules and name not in before))"
    )
    assert run_isolated(code) == "[]"
    assert run_isolated(code, "-S") == "[]"


# --- the one-pass evaluator against the stepper ---


def test_evaluator_matches_stepper_and_denotation():
    """On gen_checked_term seeds 0-1999 and every gen_agreement_pair seed
    0-999 with its bindings grafted in."""
    cases = [(("checked", seed), gen_checked_term(seed)[2]) for seed in range(2_000)]
    for seed in range(1_000):
        ctx, metavars, a, theta = gen_agreement_pair(seed)
        cases.append((("grafted", seed), graft(theta, a)))
    ground = 0
    for label, t in cases:
        nf = normalize_sigma(t)
        assert nf == normalize_traced(t, EqMode.SIGMA_ONLY)[0], label
        if not free_metavars(t):
            assert nf == denote(t), label
            ground += 1
    assert ground > 300


def test_evaluator_fuel_is_monotone():
    """Once a fuel budget suffices, every larger one gives the same normal
    form; below it, every budget raises.  normalize_lambda_sigma bounds its
    evaluator's rule instances and its stepper's steps by the same fuel."""
    for engine, most in ((normalize_sigma, 100), (normalize_lambda_sigma, 600)):
        for seed in range(300):
            ctx, m, t, ty = gen_checked_term(seed)
            nf = engine(t)
            enough = False
            for fuel in range(1, most):
                try:
                    got = engine(t, fuel)
                except FuelExhausted as exc:
                    assert not enough and exc.fuel == fuel, (engine, seed, fuel)
                    continue
                assert got == nf, (engine, seed, fuel)
                enough = True
            assert enough, (engine, seed)


def peel(t, layers):
    """Strip layers of nesting one at a time, without recursing: each layer
    is a (node type, field to descend into, check on the node) triple."""
    for tp, field_name, check in layers:
        assert type(t) is tp and check(t)
        t = getattr(t, field_name)
    return t


def test_evaluator_recurses_nowhere():
    depth = 5_000
    assert depth > 2 * sys.getrecursionlimit()

    # binders: in (λ^depth. (depth+1) 1 X)[^1] the free index shifts, the
    # bound one stays, and X closes over 1 . 2 . ... . depth . ^(depth+1)
    body = App(App(Index(depth + 1), Index(1)), Meta("X"))
    t = body
    for _ in range(depth):
        t = Lam(t)
    nf = normalize_sigma(Closure(t, Shift(1)))
    inner = peel(nf, [(Lam, "body", lambda n: True)] * depth)
    assert inner.fun == App(Index(depth + 2), Index(1))
    lifted = peel(
        inner.arg.subst,
        [(Cons, "tail", lambda c, n=n: c.head == Index(n)) for n in range(1, depth + 1)],
    )
    assert inner.arg.body == Meta("X") and lifted == Shift(depth + 1)

    # a cons chain: X[2 . 2 . ... . ^0][^1], and a lookup at its far end
    chain = Shift(0)
    for _ in range(depth):
        chain = Cons(Index(2), chain)
    nf = normalize_sigma(Closure(Closure(Meta("X"), chain), Shift(1)))
    assert nf.body == Meta("X")
    three = lambda c: c.head == Index(3)
    assert peel(nf.subst, [(Cons, "tail", three)] * depth) == Shift(1)
    assert normalize_sigma(Closure(Index(depth), chain)) == Index(2)
    assert normalize_sigma(Closure(Index(depth + 1), chain)) == Index(1)

    # nested closures 1[^1]...[^1] and X[^1]...[^1], and X closed over a
    # nest of compositions ^1 o (^1 o ... ^1)
    index, meta, comp = Index(1), Meta("X"), Shift(1)
    for _ in range(depth):
        index, meta, comp = Closure(index, Shift(1)), Closure(meta, Shift(1)), Comp(Shift(1), comp)
    assert normalize_sigma(index) == Index(depth + 1)
    assert normalize_sigma(meta) == Closure(Meta("X"), Shift(depth))
    assert normalize_sigma(Closure(Meta("X"), comp)) == Closure(Meta("X"), Shift(depth + 1))
