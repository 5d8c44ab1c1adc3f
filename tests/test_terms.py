import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from gen import gen_checked_term

from lamsig import (
    App,
    Arrow,
    Base,
    Closure,
    Comp,
    Cons,
    Index,
    Lam,
    Meta,
    MetaSubst,
    Shift,
    canonicalize_shifts,
    free_metavars,
    graft,
    is_simple,
    is_simple_subst,
    normalize_sigma,
    order_of_type,
    term_size,
)
from lamsig.sorts import render_type
from lamsig.terms import children, subterms


# --- hypothesis strategies for raw (untyped) syntax ---


meta_names = st.sampled_from(["X", "Y", "Z"])

terms = st.deferred(
    lambda: st.one_of(
        st.integers(1, 5).map(Index),
        meta_names.map(Meta),
        st.tuples(terms, terms).map(lambda p: App(*p)),
        terms.map(Lam),
        st.tuples(terms, substs).map(lambda p: Closure(*p)),
    )
)

substs = st.deferred(
    lambda: st.one_of(
        st.integers(0, 4).map(Shift),
        st.tuples(terms, substs).map(lambda p: Cons(*p)),
        st.tuples(substs, substs).map(lambda p: Comp(*p)),
    )
)

ground_terms = st.deferred(
    lambda: st.one_of(
        st.integers(1, 5).map(Index),
        st.tuples(ground_terms, ground_terms).map(lambda p: App(*p)),
        ground_terms.map(Lam),
    )
)


# --- construction invariants ---


def test_index_positive():
    with pytest.raises(ValueError):
        Index(0)


def test_shift_nonnegative():
    with pytest.raises(ValueError):
        Shift(-1)


# --- is_simple ---


def test_is_simple_meta_under_shift():
    assert is_simple(Closure(Meta("X"), Shift(2)))


def test_is_simple_rejects_cons_closure():
    assert not is_simple(Closure(Meta("X"), Cons(Index(1), Shift(0))))


def test_is_simple_scans_whole_term():
    # hand scan: the only metavariable closure carries a plain shift
    assert is_simple(Lam(App(Index(2), Closure(Meta("X"), Shift(1)))))


def test_is_simple_bare_meta_allowed():
    assert is_simple(Meta("X"))
    assert is_simple(App(Meta("X"), Index(1)))


@given(terms)
def test_is_simple_hereditary(t):
    if is_simple(t):
        assert all(is_simple(node) for node in subterms(t))


# --- is_simple_subst ---


def test_is_simple_subst_empty():
    assert is_simple_subst(MetaSubst({}))


def test_is_simple_subst_ground_binding():
    assert is_simple_subst(MetaSubst({"X": Index(1)}))


def test_is_simple_subst_delegates_to_is_simple():
    bad = Closure(Meta("Y"), Cons(Index(1), Shift(0)))
    assert is_simple(bad) is False  # the oracle this delegates to
    assert not is_simple_subst(MetaSubst({"X": bad}))


# --- graft ---


def naive_graft(theta, t):
    """Tree-walk reference: rebuild the tree, swapping bound metavariables."""
    match t:
        case Meta(name):
            return theta[name] if name in theta else t
        case Index():
            return t
        case App(f, a):
            return App(naive_graft(theta, f), naive_graft(theta, a))
        case Lam(b):
            return Lam(naive_graft(theta, b))
        case Closure(b, s):
            return Closure(naive_graft(theta, b), naive_graft_subst(theta, s))


def naive_graft_subst(theta, s):
    match s:
        case Shift():
            return s
        case Cons(h, t):
            return Cons(naive_graft(theta, h), naive_graft_subst(theta, t))
        case Comp(f, g):
            return Comp(naive_graft_subst(theta, f), naive_graft_subst(theta, g))


def test_graft_single_replacement():
    theta = MetaSubst({"X": Index(1)})
    assert graft(theta, Closure(Meta("X"), Shift(3))) == Closure(Index(1), Shift(3))


def test_graft_empty_identity():
    t = Lam(App(Meta("X"), Index(1)))
    assert graft(MetaSubst({}), t) == t


def test_graft_no_index_adjustment():
    # frozen from the tree-walk reference: replacement crosses the binder
    # untouched
    theta = MetaSubst({"X": App(Index(2), Index(1))})
    t = Lam(Meta("X"))
    expected = naive_graft(theta, t)
    assert expected == Lam(App(Index(2), Index(1)))
    assert graft(theta, t) == expected


@given(st.dictionaries(meta_names, terms, max_size=2), terms)
def test_graft_matches_naive_walk(bindings, t):
    bindings = {
        k: v for k, v in bindings.items() if not (free_metavars(v) & bindings.keys())
    }
    theta = MetaSubst(bindings)
    assert graft(theta, t) == naive_graft(theta, t)


@given(st.dictionaries(meta_names, ground_terms, max_size=2), terms)
def test_graft_idempotent(bindings, t):
    theta = MetaSubst(bindings)  # ground bindings are trivially idempotent
    once = graft(theta, t)
    assert graft(theta, once) == once


@given(st.dictionaries(meta_names, ground_terms, max_size=2), terms)
def test_graft_free_metavars_bound(bindings, t):
    theta = MetaSubst(bindings)
    expected_cap = (free_metavars(t) - theta.keys()) | set().union(
        *(free_metavars(theta[x]) for x in theta.keys() & free_metavars(t)), set()
    )
    assert free_metavars(graft(theta, t)) <= expected_cap


def test_graft_shares_what_it_does_not_bind():
    """On random bindings of generated terms graft agrees with the recursive
    walk, keeps every subtree without a bound occurrence as the same object,
    and returns the term itself when nothing it holds is bound: the search
    compares such a part as it is, without normalizing it."""
    images = [Index(1), Index(3), Lam(Index(1)), App(Index(2), Index(1)),
              Closure(Meta("Z"), Shift(1)), Meta("M1")]
    for seed in range(2000):
        _, _, t, _ = gen_checked_term(seed)
        rng = random.Random(seed)
        names = sorted(free_metavars(t)) + ["Z"]
        theta = {name: rng.choice(images) for name in names if rng.random() < 0.5}
        grafted = graft(theta, t)
        assert grafted == naive_graft(theta, t), seed
        if not theta.keys() & free_metavars(t):
            assert grafted is t, seed
        pairs = [(t, grafted)]
        while pairs:
            before, after = pairs.pop()
            if not theta.keys() & free_metavars(before):
                assert after is before, seed
            elif type(before) is Meta:
                assert after is theta[before.name], seed
            else:
                pairs += zip(children(before), children(after))


def test_graft_recurses_nowhere():
    """f (f ... (f X)), 5,000 deep: graft rebuilds the spine down to X and
    shares every head."""
    depth = 5_000
    assert depth > 2 * sys.getrecursionlimit()
    f = Index(2)
    t = Meta("X")
    for _ in range(depth):
        t = App(f, t)
    grafted = graft({"X": Index(1)}, t)
    for _ in range(depth):
        assert type(grafted) is App and grafted.fun is f
        grafted = grafted.arg
    assert grafted == Index(1)


def test_metasubst_rejects_non_idempotent():
    with pytest.raises(ValueError):
        MetaSubst({"X": Meta("Y"), "Y": Index(1)})


def test_metasubst_rejects_self_reference():
    with pytest.raises(ValueError):
        MetaSubst({"X": App(Meta("X"), Index(1))})


def test_structural_maps_reject_non_nodes():
    from lamsig.rewrite import to_pure_indices

    for walk in (
        lambda t: graft({}, t),
        canonicalize_shifts,
        to_pure_indices,
        subterms,
        free_metavars,
        is_simple,
        term_size,
    ):
        for bad in ("X", None, App(Index(1), 3), Closure(Meta("X"), Cons("Y", Shift(0)))):
            with pytest.raises(TypeError):
                walk(bad)
    for read in (order_of_type, render_type):
        for bad in ("iota", None, Arrow(Base("iota"), 3), Arrow(None, Base("iota")),
                    Arrow(Arrow(Base("iota"), 3), Base("iota"))):
            with pytest.raises(TypeError):
                read(bad)


def test_rebuild_keeps_unchanged_subtrees():
    left = App(Index(1), Lam(Index(2)))
    right = Closure(Meta("Y"), Cons(Index(1), Shift(2)))
    t = App(left, App(Meta("X"), right))
    out = graft({"X": Index(3)}, t)
    assert out == App(left, App(Index(3), right))
    assert out.fun is left and out.arg.arg is right
    assert graft({"Z": Index(3)}, t) is t
    assert canonicalize_shifts(t) is t


# --- canonicalize_shifts ---


def test_canonicalize_merges_composed_shifts():
    assert canonicalize_shifts(Comp(Shift(1), Shift(2))) == Shift(3)


def test_canonicalize_identity_shift():
    assert canonicalize_shifts(Shift(0)) == Shift(0)


def test_canonicalize_inside_cons():
    # sigma-equality of input and output checked through the rewrite engine
    s = Cons(Index(1), Comp(Shift(2), Shift(0)))
    out = canonicalize_shifts(s)
    assert out == Cons(Index(1), Shift(2))
    probe_in = Closure(Index(1), s)
    probe_out = Closure(Index(1), out)
    assert normalize_sigma(probe_in) == normalize_sigma(probe_out)


@given(substs)
def test_canonicalize_removes_all_shift_compositions(s):
    out = canonicalize_shifts(s)
    for node in subterms(out):
        match node:
            case Comp(Shift(), Shift()):
                pytest.fail(f"survived: {node}")


# some generated terms take longer than the default 200 ms deadline to normalize
@settings(deadline=None)
@given(terms)
def test_canonicalize_preserves_sigma_normal_form(t):
    assert normalize_sigma(t) == normalize_sigma(canonicalize_shifts(t))


# --- free_metavars ---


def test_free_metavars_ground():
    assert free_metavars(Index(3)) == set()


def test_free_metavars_inside_subst():
    # frozen from the tree-walk reference
    t = Closure(Meta("X"), Cons(Meta("Y"), Shift(0)))
    walked = {n.name for n in subterms(t) if isinstance(n, Meta)}
    assert walked == {"X", "Y"}
    assert free_metavars(t) == {"X", "Y"}


def test_free_metavars_under_binder():
    assert free_metavars(Lam(Meta("X"))) == {"X"}


# --- term_size ---


def test_term_size_leaf():
    assert term_size(Index(1)) == 1


def test_term_size_app():
    assert term_size(App(Index(1), Index(2))) == 3


def test_term_size_counts_subst_nodes():
    assert term_size(Closure(Meta("X"), Shift(2))) == 3
