import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from lamsig import (
    App,
    Arrow,
    Base,
    Closure,
    Comp,
    Cons,
    EqMode,
    IllTyped,
    Index,
    Lam,
    Meta,
    Shift,
    Sort,
    UnannotatedBinder,
    UnifProblem,
    check_second_order_context,
    order_of_type,
    sort_check_subst,
    sort_check_term,
    validate_problem,
)

iota = Base("iota")
ii = Arrow(iota, iota)

types = st.deferred(
    lambda: st.one_of(
        st.sampled_from([Base("iota"), Base("o")]),
        st.tuples(types, types).map(lambda p: Arrow(*p)),
    )
)


# --- order_of_type ---


def test_order_base():
    assert order_of_type(iota) == 1


def test_order_first_order_function():
    assert order_of_type(ii) == 2


def test_order_second_order_function():
    assert order_of_type(Arrow(ii, iota)) == 3


@given(types, types)
def test_order_arrow_bounds(a, b):
    arrow = order_of_type(Arrow(a, b))
    assert arrow >= order_of_type(b)
    assert arrow > order_of_type(a) - 1
    assert arrow == max(order_of_type(a) + 1, order_of_type(b))


def recursive_order(ty) -> int:
    if type(ty) is Base:
        return 1
    return max(recursive_order(ty.dom) + 1, recursive_order(ty.cod))


@given(types)
def test_stored_order_is_the_recursive_order(ty):
    """An arrow computes its order once, when it is built, into a slot
    that is not a field, and a base type's is its class's: equality,
    hashing, repr, copy and pickle see the fields alone, and a copy or an
    unpickled type has the same order."""
    order = recursive_order(ty)
    assert order_of_type(ty) == order
    fields = (ty.name,) if type(ty) is Base else (ty.dom, ty.cod)
    assert type(ty).__match_args__ == (("name",) if type(ty) is Base else ("dom", "cod"))
    assert hash(ty) == hash(fields)
    for twin in (copy.copy(ty), copy.deepcopy(ty), pickle.loads(pickle.dumps(ty)), type(ty)(*fields)):
        assert twin == ty and hash(twin) == hash(ty) and repr(twin) == repr(ty)
        assert order_of_type(twin) == order
    assert repr(ty).startswith(("Base(name=", "Arrow(dom=")) and "_order" not in repr(ty)


# --- check_second_order_context ---


def test_second_order_empty():
    assert check_second_order_context(())


def test_second_order_mixed():
    assert order_of_type(iota) == 1 and order_of_type(ii) == 2
    assert check_second_order_context((iota, ii))


def test_second_order_rejects_higher():
    assert order_of_type(Arrow(ii, iota)) == 3
    assert not check_second_order_context((Arrow(ii, iota),))


# --- sort_check_term ---


def test_check_index_reads_context_head():
    assert sort_check_term((iota,), {}, Index(1)) == iota


def test_check_application_by_hand():
    # ctx = [iota, iota->iota]: index 2 applied to index 1
    assert sort_check_term((iota, ii), {}, App(Index(2), Index(1))) == iota


def test_check_metavariable_rule():
    metavars = {"X": Sort((iota,), ii)}
    t = App(Meta("X"), Index(1))
    assert sort_check_term((iota,), metavars, t) == iota


def test_check_index_out_of_range():
    with pytest.raises(IllTyped):
        sort_check_term((iota,), {}, Index(2))


def test_check_meta_context_rigid():
    metavars = {"X": Sort((iota,), iota)}
    with pytest.raises(IllTyped):
        sort_check_term((iota, iota), metavars, Meta("X"))
    # movement through an explicit closure is fine
    assert sort_check_term((iota, iota), metavars, Closure(Meta("X"), Shift(1))) == iota


def test_check_undeclared_meta():
    with pytest.raises(IllTyped):
        sort_check_term((iota,), {}, Meta("X"))


def test_check_arrow_mismatch():
    with pytest.raises(IllTyped):
        sort_check_term((iota, iota), {}, App(Index(2), Index(1)))


def test_check_expected_type_drives_binders():
    assert sort_check_term((), {}, Lam(Index(1)), expected=ii) == ii
    with pytest.raises(IllTyped):
        sort_check_term((), {}, Lam(Index(1)), expected=iota)


def test_check_unapplied_binder_not_inferable():
    with pytest.raises(IllTyped):
        sort_check_term((), {}, Lam(Index(1)))


def test_check_redex_infers_through_argument():
    # (lam. 1) c  — the argument type fixes the binder domain
    assert sort_check_term((iota,), {}, App(Lam(Index(1)), Index(1))) == iota


def test_check_closure_wrapped_redex():
    # App: (lam.1)[^0] applied — the shape rewriting creates
    t = App(Closure(Lam(Index(1)), Shift(0)), Index(1))
    assert sort_check_term((iota,), {}, t) == iota


def test_check_is_deterministic():
    t = App(Index(2), Index(1))
    first = sort_check_term((iota, ii), {}, t)
    assert first == sort_check_term((iota, ii), {}, t)


# --- sort_check_subst ---


def test_subst_shift_drops():
    assert sort_check_subst((iota, iota), {}, Shift(1)) == (iota,)


def test_subst_cons_extends():
    # head typed iota in ctx [iota], tail targets [iota]
    assert sort_check_subst((iota,), {}, Cons(Index(1), Shift(0))) == (iota, iota)


def test_subst_shift_too_long():
    with pytest.raises(IllTyped):
        sort_check_subst((iota,), {}, Shift(2))


def test_subst_comp_composes_targets():
    # ^1 then ^1: drops two entries in total
    assert sort_check_subst((iota, iota, ii), {}, Comp(Shift(1), Shift(1))) == (ii,)


# --- validate_problem ---


def _problem(lhs, rhs, ctx=(iota,), metavars=None, mode=EqMode.LAMBDA_SIGMA):
    return UnifProblem(frozenset({"iota"}), ctx, metavars or {}, lhs, rhs, mode)


def test_validate_ground_identity_passes():
    report = validate_problem(_problem(Index(1), Index(1)))
    assert report.ok
    assert {e.name for e in report.entries} == {
        "metavars-declared",
        "sides-sort-check",
        "common-type-atomic",
        "context-second-order",
        "metavar-type-order",
        "metavar-context-second-order",
    }


def test_validate_non_atomic_type_flagged():
    p = _problem(Meta("X"), Meta("X"), metavars={"X": Sort((iota,), ii)})
    report = validate_problem(p)
    flags = {e.name: e.ok for e in report.entries}
    assert flags["sides-sort-check"]
    assert not flags["common-type-atomic"]


def test_validate_third_order_meta_flagged():
    third = Arrow(ii, iota)
    assert order_of_type(third) == 3
    p = _problem(Meta("X"), Meta("X"), metavars={"X": Sort((iota,), third)})
    report = validate_problem(p)
    flags = {e.name: e.ok for e in report.entries}
    assert not flags["metavar-type-order"]
    assert not flags["common-type-atomic"]


def test_validate_undeclared_meta_flagged():
    report = validate_problem(_problem(Meta("X"), Index(1)))
    flags = {e.name: e.ok for e in report.entries}
    assert not flags["metavars-declared"]


def test_validate_third_order_context_flagged():
    p = _problem(Index(1), Index(1), ctx=(Arrow(ii, iota),))
    report = validate_problem(p)
    flags = {e.name: e.ok for e in report.entries}
    assert not flags["context-second-order"]
    assert not flags["common-type-atomic"]


def test_report_renders_pass_fail_lines():
    report = validate_problem(_problem(Index(1), Index(1)))
    lines = report.render().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) == 6


# --- IllTyped messages and paths ---

# One case per raise site of the checker that a term can reach, through the
# walk in both directions (inferring and checking), its helper for applied
# binders, and sort_check_subst.  Each pins the exception's exact class,
# reason and path.
ill_typed_cases = [
    ("index out of range", (ii,), {}, App(Index(1), Index(2)), None,
     IllTyped, "index 2 out of range for context of length 1", (1,)),
    ("undeclared metavariable", (ii,), {}, App(Index(1), Meta("X")), None,
     IllTyped, "undeclared metavariable X", (1,)),
    ("metavariable outside its context", (iota, iota), {"X": Sort((iota,), iota)},
     Closure(Meta("X"), Shift(0)), None,
     IllTyped, "metavariable X used outside its declared context", (0,)),
    ("inferred head not of arrow type", (iota,), {}, Closure(App(Index(1), Index(1)), Shift(0)), None,
     IllTyped, "application head is not of arrow type", (0,)),
    ("checked head not of arrow type", (iota,), {}, Lam(App(Index(1), Index(1))), ii,
     IllTyped, "application head is not of arrow type", (0,)),
    ("head not of arrow type under an applied binder", (iota,), {},
     App(Lam(App(Index(2), Index(1))), Index(1)), None,
     IllTyped, "application head is not of arrow type", (0, 0)),
    ("head not of arrow type under a checked applied binder", (iota,), {},
     App(Closure(Lam(App(Index(2), Index(1))), Shift(0)), Index(1)), iota,
     IllTyped, "application head is not of arrow type", (0, 0, 0)),
    ("binder checked against a non-arrow type", (ii,), {}, App(Index(1), Lam(Index(1))), None,
     IllTyped, "binder checked against a non-arrow type", (1,)),
    ("application result against the expected type", (ii, iota), {}, App(Index(1), Index(2)), ii,
     IllTyped, "expected (-> iota iota), found iota", ()),
    ("inferred type against the expected type", (ii, ii), {}, App(Index(1), Index(2)), None,
     IllTyped, "expected iota, found (-> iota iota)", (1,)),
    ("shift exceeding the context", (iota,), {}, Closure(Index(1), Shift(2)), None,
     IllTyped, "shift 2 exceeds context of length 1", (1,)),
    ("shift exceeding the middle context of a composition", (iota,), {},
     Closure(Index(1), Comp(Shift(1), Shift(1))), None,
     IllTyped, "shift 1 exceeds context of length 0", (1, 0)),
    ("unannotated binder", (iota,), {}, Closure(Index(1), Cons(Lam(Index(1)), Shift(0))), None,
     UnannotatedBinder, "cannot infer the domain of an unapplied binder", (1, 0)),
    ("unannotated binder under an applied closure", (iota,), {},
     App(Closure(App(Lam(Lam(Index(1))), Index(1)), Shift(0)), Index(1)), None,
     UnannotatedBinder, "cannot infer the domain of an unapplied binder", (0, 0, 0, 0)),
]


@pytest.mark.parametrize(
    "ctx, metavars, t, expected, kind, reason, path",
    [case[1:] for case in ill_typed_cases],
    ids=[case[0] for case in ill_typed_cases],
)
def test_ill_typed_message_and_path(ctx, metavars, t, expected, kind, reason, path):
    with pytest.raises(IllTyped) as info:
        sort_check_term(ctx, metavars, t, expected=expected)
    err = info.value
    assert type(err) is kind
    assert (err.reason, err.path) == (reason, path)
    at = ".".join(map(str, path)) if path else "root"
    assert str(err) == f"{reason} (at {at})"
