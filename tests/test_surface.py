import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lamsig import (
    App,
    Arrow,
    Base,
    Closure,
    Cons,
    Index,
    Lam,
    Meta,
    MetaSubst,
    IllTyped,
    Shift,
    Sort,
    sort_check_term,
)
from lamsig import sorts
from lamsig.sexpr import ParseError, parse_sexprs
from lamsig.surface import (
    ProblemFile,
    parse_problem,
    parse_subst_file,
    parse_term,
    render_debruijn,
    render_problem,
    render_subst,
    render_term,
)

from gen import gen_checked_term

CORPUS = Path(__file__).parent.parent / "src" / "lamsig" / "corpus"

MINIMAL = """
(problem
  (base-types iota)
  (context (c iota))
  (metavars (?X (-> iota iota)))
  (mode lambdasigma)
  (equation (app ?X c) c))
"""


# --- s-expression reader ---


def test_sexpr_positions():
    forms = parse_sexprs("(a\n  (b c))")
    assert forms[0][1].line == 2 and forms[0][1].col == 3


def test_sexpr_unbalanced():
    with pytest.raises(ParseError) as err:
        parse_sexprs("(problem (context")
    assert err.value.line == 1


def test_sexpr_unmatched_close():
    with pytest.raises(ParseError):
        parse_sexprs("())")


def test_sexpr_comments_ignored():
    forms = parse_sexprs("; header\n(a b) ; trailing\n")
    assert len(forms) == 1


# --- problem parsing ---


def test_parse_minimal_problem():
    pf = parse_problem(MINIMAL)
    assert len(pf.problem.metavars) == 1
    assert pf.problem.metavars["X"] == Sort((Base("iota"),), Arrow(Base("iota"), Base("iota")))
    assert pf.problem.lhs == App(Meta("X"), Index(1))


def test_parse_context_last_entry_is_index_one():
    text = """
(problem
  (base-types iota)
  (context (f (-> iota iota)) (c iota))
  (metavars)
  (mode lambdasigma)
  (equation (app f c) (app f c)))
"""
    pf = parse_problem(text)
    assert pf.ctx_names == ("c", "f")
    assert pf.problem.lhs == App(Index(2), Index(1))


def test_parse_unbound_name():
    bad = MINIMAL.replace("(app ?X c) c", "(app ?X d) c")
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert "unbound name" in str(err.value)


def test_parse_undeclared_metavariable():
    bad = MINIMAL.replace("(app ?X c) c", "(app ?Z c) c")
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert "undeclared metavariable" in str(err.value)


def test_parse_undeclared_base_type():
    bad = MINIMAL.replace("(-> iota iota)", "(-> iota tau)")
    with pytest.raises(ParseError):
        parse_problem(bad)


def test_parse_missing_block():
    with pytest.raises(ParseError) as err:
        parse_problem("(problem (base-types iota))")
    assert "missing" in str(err.value)


CERTIFIED = MINIMAL.rstrip() + "\n(certificate (map (X Y 1)))\n"

# Each file, the text whose last occurrence is where its error is reported,
# and the message.
POSITIONED = {
    "index": (MINIMAL.replace("(app ?X c) c", "(app ?X ²) c"), "²", "unbound name '²'"),
    "shift": (MINIMAL.replace("(app ?X c) c", "(app ?X (clo c (shift ²))) c"), "²",
              "shift amount must be a number"),
    "bound": (MINIMAL.replace("c) c))", "c) c)\n  (expect solvable :bound ²))"), "²",
              "bound must be a number"),
    "arity": (CERTIFIED.replace("(X Y 1)", "(X Y ²)"), "²", "arity must be a number"),
    "zero bound": (MINIMAL.replace("c) c))", "c) c)\n  (expect solvable :bound 0))"), "0",
                   "bound must be at least 1"),
    "second certificate": (CERTIFIED + "(certificate (map (X Z 1)))\n", "(certificate",
                           "more than one (certificate ...) form"),
    "repeated map entry": (CERTIFIED.replace("(X Y 1)", "(X Y 1) (X Z 1)"), "(X Z",
                           "duplicate unknown 'X' in (map ...)"),
}


@pytest.mark.parametrize("name", POSITIONED)
def test_numerals_bounds_and_certificates_fail_at_their_position(name):
    """A digit that is not ASCII, such as '²', is no numeral; a bound is at
    least 1; a certificate and an unknown in its map are given once."""
    text, marker, message = POSITIONED[name]
    at = text.rindex(marker)
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == f"{line}:{col}: {message}"


def test_parse_shadowed_binder_rejected():
    bad = MINIMAL.replace("(app ?X c) c", "(lam (x iota) (lam (x iota) x)) c")
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert "shadows" in str(err.value)


# --- parse_term ---


def test_to_de_bruijn_binder():
    assert parse_term(parse_sexprs("(lam (x iota) x)")[0], ()) == Lam(Index(1))


def test_to_de_bruijn_context_positions():
    # ctx names ordered with index 1 first: c most recent, then f
    assert parse_term(parse_sexprs("(app f c)")[0], ("c", "f")) == App(Index(2), Index(1))


def test_to_de_bruijn_metavariable():
    assert parse_term(parse_sexprs("(app ?X c)")[0], ("c",)) == App(Meta("X"), Index(1))


def test_to_de_bruijn_binders_shadow_context():
    assert parse_term(parse_sexprs("(lam (c iota) c)")[0], ("c",)) == Lam(Index(1))


def test_to_de_bruijn_integer_atoms():
    assert parse_term(parse_sexprs("(app 2 1)")[0], ()) == App(Index(2), Index(1))


# --- rendering ---


def test_render_compact_binder():
    assert render_debruijn(Lam(Index(1))) == "λ.1"


def test_render_meta_closure():
    assert render_debruijn(Closure(Meta("Y"), Shift(3))) == "?Y[^3]"


def test_render_cons_chain():
    t = Closure(Meta("Y"), Cons(Index(1), Cons(Index(2), Shift(0))))
    assert render_debruijn(t) == "?Y[1 . 2 . ^0]"


def test_render_spine_flattening():
    t = App(App(Index(3), Index(1)), Index(2))
    assert render_debruijn(t) == "(3 1 2)"


def test_render_lambda_under_closure_parenthesized():
    assert render_debruijn(Closure(Lam(Index(1)), Shift(2))) == "(λ.1)[^2]"


# --- round trips ---


def test_round_trip_over_corpus():
    for path in sorted(CORPUS.glob("*.sig")):
        pf = parse_problem(path.read_text(encoding="utf-8"))
        again = parse_problem(render_problem(pf))
        assert again.problem == pf.problem, path.name
        assert again.expect == pf.expect, path.name
        assert again.certificate == pf.certificate, path.name


def test_round_trip_reduced_problem():
    from lamsig import reduce_problem

    pf = parse_problem((CORPUS / "xc_eq_fc.sig").read_text(encoding="utf-8"))
    cert = reduce_problem(pf.problem)
    out = ProblemFile(problem=cert.target, ctx_names=pf.ctx_names, certificate=cert.var_map)
    again = parse_problem(render_problem(out))
    assert again.problem == cert.target
    assert again.certificate == cert.var_map


def test_render_parse_round_trip_over_generated_terms():
    # the inner half of each context is named, the rest prints as integers
    binders = 0
    for seed in range(2000):
        ctx, metavars, t, ty = gen_checked_term(seed)
        names = tuple(f"v{i}" for i in range(1, len(ctx) // 2 + 1))
        text = render_term(t, names, Sort(ctx, ty), metavars)
        assert parse_term(parse_sexprs(text)[0], names) == t, (seed, text)
        binders += "(lam " in text
    assert binders > 1000


def test_render_rejects_a_term_the_checker_rejects():
    # (app (lam (x iota) (lam (y iota) x)) c d) at iota: the inner binder is
    # unapplied, so the checker finds no domain for it and neither may the printer
    iota = Base("iota")
    ctx = (iota, iota)
    t = App(App(Lam(Lam(Index(2))), Index(1)), Index(2))
    with pytest.raises(IllTyped) as checked:
        sort_check_term(ctx, {}, t, expected=iota)
    with pytest.raises(IllTyped) as printed:
        render_term(t, ("c", "d"), Sort(ctx, iota), {})
    assert type(printed.value) is type(checked.value)
    assert (printed.value.reason, printed.value.path) == (checked.value.reason, checked.value.path)


TWO_SIDED_BINDERS = """
(problem
  (base-types iota o)
  (context (f (-> (-> o iota) iota)) (c iota))
  (metavars)
  (mode lambdasigma)
  (equation (app (lam (x iota) (app f (lam (y o) x))) (app f (lam (z o) c))) c))
"""


def test_render_binder_domains_in_reading_order():
    # the checker types the argument's binder z before x and y; the printer
    # must still give x1, x2, x3 the domains of x, y, z
    assert render_problem(parse_problem(TWO_SIDED_BINDERS)) == """(problem
  (base-types iota o)
  (context (f (-> (-> o iota) iota)) (c iota))
  (metavars )
  (mode lambdasigma)
  (equation (app (lam (x1 iota) (app f (lam (x2 o) x1))) (app f (lam (x3 o) c))) c)
)
"""


def test_an_equation_with_binders_is_sort_checked_once(monkeypatch):
    """Parsing and printing take the common type and every binder's domain
    from one checker walk of each side: a walk starts at the root path, and
    checking the leaf c enters inference at the same path once more."""
    walks = []

    def counting(ctx, metavars, domains, t, expected, path, walk=sorts._walk):
        if path == ():
            walks.append("infer" if expected is None else "check")
        return walk(ctx, metavars, domains, t, expected, path)

    monkeypatch.setattr(sorts, "_walk", counting)
    pf = parse_problem(TWO_SIDED_BINDERS)
    assert walks == ["infer", "check", "infer"]
    walks.clear()
    render_problem(pf)
    assert walks == ["infer", "check", "infer"]


# --- substitution files ---


def test_parse_subst_file():
    pf = parse_problem(MINIMAL)
    theta = parse_subst_file("(subst (?X (lam (x iota) x)))", pf)
    assert theta == MetaSubst({"X": Lam(Index(1))})


def test_parse_subst_undeclared():
    pf = parse_problem(MINIMAL)
    with pytest.raises(ParseError):
        parse_subst_file("(subst (?Q c))", pf)


def test_subst_round_trip_with_binder_annotations():
    pf = parse_problem(MINIMAL)
    theta = MetaSubst({"X": Lam(App(Lam(Index(1)), Index(1)))})
    text = render_subst(theta, pf)
    assert parse_subst_file(text, pf) == theta


def test_subst_de_bruijn_for_extended_contexts():
    reduced = """
(problem
  (base-types iota)
  (context (c iota))
  (metavars (?Y iota :ctx (iota iota)))
  (mode sigma)
  (equation (clo ?Y (cons c (shift 0))) c))
"""
    pf = parse_problem(reduced)
    theta = parse_subst_file("(subst (?Y 2))", pf)
    assert theta == MetaSubst({"Y": Index(2)})
    assert parse_subst_file(render_subst(theta, pf), pf) == theta
