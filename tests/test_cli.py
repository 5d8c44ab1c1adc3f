import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from gen import gen_second_order_problem

from lamsig import EqMode
from lamsig.cli import run_command
from lamsig.surface import ProblemFile, parse_problem, render_problem

HERE = Path(__file__).parent
GOLDENS = HERE / "goldens"
CORPUS = HERE.parent / "src" / "lamsig" / "corpus"


def corpus_file(name: str) -> str:
    return str(CORPUS / name)


# --- exit status contract ---


def test_check_passing_problem_exits_zero():
    status, _ = run_command(["check", corpus_file("xc_eq_c.sig")])
    assert status == 0


def test_check_failing_problem_exits_one(tmp_path):
    bad = tmp_path / "bad.sig"
    bad.write_text(
        "(problem (base-types iota) (context (c iota))"
        " (metavars (?X (-> iota iota))) (mode lambdasigma)"
        " (equation ?X c))"
    )
    status, out = run_command(["check", str(bad)])
    assert status == 1
    assert "FAIL" in out


def test_parse_error_exits_two(tmp_path):
    broken = tmp_path / "broken.sig"
    broken.write_text("(problem (context")
    status, out = run_command(["check", str(broken)])
    assert status == 2
    assert "error" in out


def test_usage_error_exits_two():
    status, out = run_command(["frobnicate"])
    assert status == 2


def test_reduce_on_a_sigma_problem_exits_two():
    for name in ("sigma_ground.sig", "sigma_meta_cons.sig"):
        path = corpus_file(name)
        status, out = run_command(["reduce", path])
        assert status == 2, name
        assert out == (
            f"usage error: reduce takes a full-equality problem; {path} declares (mode sigma)\n"
        ), name


def test_help_shows_no_source_markup():
    status, out = run_command(["--help"])
    assert status == 0
    assert "Exit status: 0" in out
    assert "``" not in out and "run_command" not in out


def test_missing_file_exits_two():
    status, out = run_command(["check", "/nonexistent/never.sig"])
    assert status == 2


def test_unwritable_output_exits_two(tmp_path):
    target = tmp_path / "missing" / "out.sig"
    status, out = run_command(["reduce", corpus_file("xc_eq_c.sig"), "-o", str(target)])
    assert status == 2
    assert out == f"usage error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_unreadable_corpus_entry_exits_two(tmp_path):
    (tmp_path / "x.sig").mkdir()
    status, out = run_command(["corpus", "run", "--dir", str(tmp_path)])
    assert status == 2
    assert out == f"usage error: cannot read {tmp_path / 'x.sig'}: Is a directory\n"


def test_solve_no_solution_exits_one(tmp_path):
    status, out = run_command(
        ["solve", corpus_file("ground_mismatch.sig"), "--bound", "2"]
    )
    assert status == 1
    assert "no solution within" in out


def test_verify_non_solution_exits_one(tmp_path):
    sub = tmp_path / "wrong.subst"
    # the constant-c function does not send c to d
    sub.write_text("(subst (?X (lam (x iota) c)))\n")
    status, out = run_command(["verify", corpus_file("const_fun.sig"), str(sub)])
    assert status == 1
    assert "not a solution" in out


def test_verify_ill_typed_exits_two(tmp_path):
    sub = tmp_path / "ill.subst"
    sub.write_text("(subst (?X c))\n")
    status, out = run_command(["verify", corpus_file("xc_eq_c.sig"), str(sub)])
    assert status == 2
    assert "error" in out


def test_solve_and_verify_reject_an_invalid_problem(tmp_path):
    """verify validates first, as solve does: ?X : iota -> iota against c
    is an error, not a verdict."""
    bad = tmp_path / "bad.sig"
    bad.write_text(
        "(problem (base-types iota) (context (c iota))"
        " (metavars (?X (-> iota iota))) (mode lambdasigma)"
        " (equation ?X c))"
    )
    sub = tmp_path / "id.subst"
    sub.write_text("(subst (?X (lam (x iota) x)))\n")
    for argv in (["solve", str(bad)], ["verify", str(bad), str(sub)]):
        status, out = run_command(argv)
        assert status == 2, argv
        assert out == "error: problem fails validation: sides-sort-check, common-type-atomic\n", argv


def test_an_unused_unknown_leaves_solve_and_verify_agreeing(tmp_path):
    """gen_second_order_problem(7) is c2 = c2 with an unused ?X1 of a type
    that no closed term has: a solution binds only the unknowns that occur,
    so solve finds the empty one and verify accepts it."""
    p = gen_second_order_problem(7)
    path = tmp_path / "seed7.sig"
    path.write_text(render_problem(ProblemFile(p, ("c0", "c1", "c2"), None)))
    sub = tmp_path / "empty.subst"
    sub.write_text("(subst)\n")
    assert run_command(["solve", str(path), "--bound", "4"]) == (0, "solved by the empty substitution\n")
    assert run_command(["verify", str(path), str(sub)]) == (0, "solution verified\n")


def test_a_solution_that_binds_nothing_names_the_verdict():
    """ground_refl.sig has no unknowns: its one solution is the empty
    substitution, and solve says so rather than printing an empty line."""
    assert run_command(["solve", corpus_file("ground_refl.sig")]) == (0, "solved by the empty substitution\n")


# --- goldens (byte-for-byte) ---


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


def test_golden_check():
    status, out = run_command(["check", corpus_file("xc_eq_c.sig")])
    assert status == 0
    assert out == golden("check_xc_eq_c.txt")


def test_golden_reduce(tmp_path):
    reduced = tmp_path / "xc_eq_c.reduced.sig"
    status, out = run_command(["reduce", corpus_file("xc_eq_c.sig"), "-o", str(reduced)])
    assert status == 0
    assert out == golden("reduce_xc_eq_c.txt")
    assert reduced.exists()


def test_golden_solve_reduced(tmp_path):
    reduced = tmp_path / "xc_eq_c.reduced.sig"
    run_command(["reduce", corpus_file("xc_eq_c.sig"), "-o", str(reduced)])
    status, out = run_command(["solve", str(reduced), "--bound", "2", "--all"])
    assert status == 0
    assert out == golden("solve_xc_eq_c_reduced.txt")


def test_golden_verify(tmp_path):
    sub = tmp_path / "id.subst"
    sub.write_text("(subst (?X (lam (x iota) x)))\n")
    status, out = run_command(["verify", corpus_file("xc_eq_c.sig"), str(sub)])
    assert status == 0
    assert out == golden("verify_xc_eq_c.txt")


def test_golden_normalize_trace():
    status, out = run_command(
        [
            "normalize",
            corpus_file("xc_eq_c.sig"),
            "--expr",
            "(app (lam (x iota) x) c)",
            "--mode",
            "lambdasigma",
            "--trace",
        ]
    )
    assert status == 0
    assert out == golden("normalize_trace.txt")


@pytest.mark.parametrize("mode", ["sigma", "lambdasigma"])
def test_normalize_without_trace_prints_the_traced_normal_form(mode):
    # without --trace the evaluator (sigma) or the untraced stepper
    # (lambdasigma) runs; it must print the trace's last line
    for path in sorted(CORPUS.glob("*.sig")):
        status, out = run_command(["normalize", str(path), "--mode", mode])
        traced_status, traced = run_command(["normalize", str(path), "--mode", mode, "--trace"])
        assert (status, traced_status) == (0, 0), (path.name, out, traced)
        assert out == traced.splitlines(keepends=True)[-1], path.name


def test_normalize_fuel_counts_what_the_engine_runs():
    argv = [
        "normalize",
        corpus_file("xc_eq_c.sig"),
        "--expr",
        "(clo (clo c (cons c (shift 0))) (cons c (shift 0)))",
        "--fuel",
        "1",
    ]
    assert run_command(argv) == (2, "error: no normal form within 1 rule instances\n")
    assert run_command(argv + ["--trace"]) == (2, "error: no normal form within 1 rewrite steps\n")


# --- corpus runner ---


def test_corpus_run_all_annotations_hold():
    status, out = run_command(["corpus", "run"])
    assert status == 0, out
    assert "MISMATCH" not in out
    assert out.strip().endswith("all as annotated")


def test_corpus_run_external_directory(tmp_path):
    (tmp_path / "one.sig").write_text(
        "(problem (base-types iota) (context (c iota)) (metavars)"
        " (mode lambdasigma) (equation c c) (expect solvable :bound 1))"
    )
    status, out = run_command(["corpus", "run", "--dir", str(tmp_path)])
    assert status == 0
    assert "one.sig" in out


# --- fuel environment variable ---


def test_fuel_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("LSF_FUEL", "1")
    # two rewrite steps needed: fuel 1 must abort with an error status
    status, out = run_command(
        [
            "normalize",
            corpus_file("xc_eq_c.sig"),
            "--expr",
            "(app (lam (x iota) x) c)",
            "--mode",
            "lambdasigma",
        ]
    )
    assert status == 2
    monkeypatch.setenv("LSF_FUEL", "50")
    status, out = run_command(
        [
            "normalize",
            corpus_file("xc_eq_c.sig"),
            "--expr",
            "(app (lam (x iota) x) c)",
            "--mode",
            "lambdasigma",
        ]
    )
    assert status == 0 and out.strip() == "1"


def test_explicit_fuel_beats_env(monkeypatch):
    monkeypatch.setenv("LSF_FUEL", "1")
    status, out = run_command(
        [
            "normalize",
            corpus_file("xc_eq_c.sig"),
            "--expr",
            "(app (lam (x iota) x) c)",
            "--mode",
            "lambdasigma",
            "--fuel",
            "50",
        ]
    )
    assert status == 0


@pytest.mark.parametrize("fuel", ["0", "-3"])
def test_fuel_below_one_is_a_usage_error(fuel):
    status, out = run_command(["normalize", corpus_file("xc_eq_c.sig"), "--fuel", fuel])
    assert status == 2
    assert "--fuel" in out and "Traceback" not in out


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--bound", "--depth", "--max-solutions"])
def test_solve_bound_below_one_is_a_usage_error(flag, value):
    status, out = run_command(["solve", corpus_file("xc_eq_c.sig"), flag, value])
    assert (status, out) == (2, f"usage error: lamsig solve: argument {flag}: must be >= 1\n")


def test_explicit_fuel_beats_larger_env(monkeypatch):
    monkeypatch.setenv("LSF_FUEL", "50")
    status, out = run_command(
        [
            "normalize",
            corpus_file("xc_eq_c.sig"),
            "--expr",
            "(app (lam (x iota) x) c)",
            "--mode",
            "lambdasigma",
            "--fuel",
            "1",
        ]
    )
    assert status == 2
    assert "no normal form within 1 rewrite steps" in out


# --- malformed problem files ---


MALFORMED = {
    "empty_form": "()\n",
    "empty_block": "(problem ())\n",
    "mode_no_arg": (
        "(problem\n  (base-types iota)\n  (context (c iota))\n  (metavars (?X iota))\n"
        "  (mode)\n  (equation ?X c))\n"
    ),
    "bare_certificate": (
        "(problem\n  (base-types iota)\n  (context (c iota))\n  (metavars (?X iota))\n"
        "  (mode sigma)\n  (equation ?X c))\n(certificate)\n"
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_exits_two(tmp_path, name):
    path = tmp_path / f"{name}.sig"
    path.write_text(MALFORMED[name])
    status, out = run_command(["check", str(path)])
    assert status == 2
    assert out.startswith("error: ") and "Traceback" not in out


def test_deep_input_exits_two(tmp_path):
    term = "(app f " * 30_000 + "c" + ")" * 30_000
    path = tmp_path / "deep.sig"
    path.write_text(
        "(problem (base-types iota) (context (f (-> iota iota)) (c iota))"
        f" (metavars) (mode sigma) (equation {term} c))"
    )
    for command in ("check", "normalize"):
        status, out = run_command([command, str(path)])
        assert status == 2, command
        assert out == "error: input nested too deeply\n", command


# --- binder annotations ---


BINDERS = {
    # x is used as a function of g's type
    "wrong_domain": (
        "(problem (base-types iota) (context (g (-> iota iota)) (c iota)) (metavars)"
        " (mode lambdasigma) (equation (app (lam (x iota) (app x c)) g) (app g c)))",
        "error: 1:116: binder annotated iota has domain (-> iota iota)\n",
    ),
    "undeclared_base": (
        "(problem (base-types iota) (context (c iota)) (metavars)"
        " (mode lambdasigma) (equation (app (lam (x tau) x) c) c))",
        "error: 1:97: undeclared base type 'tau'\n",
    ),
}


@pytest.mark.parametrize("name", sorted(BINDERS))
def test_wrong_binder_annotation_exits_two(tmp_path, name):
    text, message = BINDERS[name]
    path = tmp_path / f"{name}.sig"
    path.write_text(text)
    for command in ("check", "precook"):
        assert run_command([command, str(path)]) == (2, message), command


@pytest.mark.parametrize(
    "binding, message",
    [
        ("(lam (x tau) x)", "error: 1:17: undeclared base type 'tau'\n"),
        ("(lam (x (-> iota iota)) x)", "error: 1:17: binder annotated (-> iota iota) has domain iota\n"),
    ],
)
def test_wrong_binder_annotation_in_subst_file_exits_two(tmp_path, binding, message):
    sub = tmp_path / "wrong.subst"
    sub.write_text(f"(subst (?X {binding}))\n")
    assert run_command(["verify", corpus_file("xc_eq_c.sig"), str(sub)]) == (2, message)


def test_right_binder_annotation_passes(tmp_path):
    path = tmp_path / "right.sig"
    path.write_text(BINDERS["wrong_domain"][0].replace("(x iota)", "(x (-> iota iota))"))
    status, out = run_command(["check", str(path)])
    assert status == 0, out


# --- the exit contract on fuzzed input ---


TOKENS = (
    "(", ")", "problem", "base-types", "iota", "o", "context", "metavars", "mode",
    "sigma", "lambdasigma", "equation", "expect", "solvable", "no-solution", ":bound",
    ":ctx", "certificate", "map", "app", "lam", "clo", "shift", "cons", "comp", "->",
    "?X", "?Y", "?", "c", "d", "f", "g", "x", "y", "0", "1", "2", "3", "17",
)
FUZZ_COMMANDS = (
    ("check",),
    ("precook",),
    ("reduce",),
    ("normalize",),
    ("solve", "--bound", "2"),
)
CORPUS_TOKENS = [
    re.findall(r"[()]|[^\s()]+", path.read_text(encoding="utf-8"))
    for path in sorted(CORPUS.glob("*.sig"))
]


@st.composite
def mutated_corpus_files(draw):
    tokens = list(draw(st.sampled_from(CORPUS_TOKENS)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(("delete", "replace", "insert", "duplicate")))
        if kind == "delete":
            del tokens[i]
        elif kind == "replace":
            tokens[i] = draw(st.sampled_from(TOKENS))
        elif kind == "insert":
            tokens.insert(i, draw(st.sampled_from(TOKENS)))
        else:
            tokens.insert(i, tokens[i])
    return " ".join(tokens)


token_streams = st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(mutated_corpus_files(), token_streams), command=st.sampled_from(FUZZ_COMMANDS))
def test_exit_contract_holds_on_fuzzed_files(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("fuzz") / "fuzzed.sig"
    path.write_text(text, encoding="utf-8")
    status, out = run_command([command[0], str(path), *command[1:]])
    assert status in (0, 1, 2), out
    assert "Traceback" not in out


# --- console entry point ---


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lamsig.cli", "check", corpus_file("ground_refl.sig")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


SRC = str(HERE.parent / "src")


def run_in_fresh_process(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_parser_is_built_on_first_use_and_then_reused():
    """Importing the module builds no parser; the first command builds the
    parser and its subparsers, and later commands build nothing."""
    code = (
        "import argparse\n"
        "built = [0]\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built[0] += 1\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import lamsig.cli\n"
        "print(built[0])\n"
        "for argv in (['check', sys.argv[1]], ['frobnicate'], ['solve', sys.argv[1]]):\n"
        "    lamsig.cli.run_command(argv)\n"
        "    print(built[0])\n"
    )
    counts = [int(n) for n in run_in_fresh_process(code, corpus_file("xc_eq_c.sig")).split()]
    assert counts[0] == 0
    assert counts[1] > 0 and counts[1:] == [counts[1]] * 3


def test_the_reused_parser_is_reentrant():
    """A sequence of commands in one process, options, usage errors and
    help included, gives what each command gives in a fresh process."""
    path = corpus_file("xc_eq_c.sig")
    sequence = [
        ["solve", path, "--all", "--bound", "3", "--mode", "sigma", "--fuel", "7"],
        ["solve", path, "--bound", "0"],
        ["--help"],
        ["--help"],
        ["frobnicate"],
        ["solve", path],
    ]
    code = (
        "import json\n"
        "from lamsig.cli import run_command\n"
        "print(json.dumps([run_command(argv) for argv in json.loads(sys.argv[1])]))\n"
    )

    def run(argvs):
        return json.loads(run_in_fresh_process(code, json.dumps(argvs)))

    together = run(sequence)
    assert together == [run([argv])[0] for argv in sequence]
    assert [status for status, _ in together] == [1, 2, 0, 0, 2, 0]
    assert together[2] == together[3] and together[2][1].startswith("usage: lamsig")
    assert together[5][1] == "?X := λ.1\n"


def test_precook_round_trips_through_parser(tmp_path):
    from lamsig.surface import parse_problem
    from lamsig.transform import precook as precook_problem

    for path in sorted(CORPUS.glob("*.sig")):
        pf = parse_problem(path.read_text(encoding="utf-8"))
        if pf.problem.mode is not EqMode.LAMBDA_SIGMA:
            continue
        status, out = run_command(["precook", str(path)])
        assert status == 0, path.name
        assert parse_problem(out).problem == precook_problem(pf.problem), path.name
