"""Command line front end.

Exit status contract: 0 for success or a true verdict, 1 for a false
verdict or no solution within bounds, 2 for errors of any kind (parse,
sorting, usage).  ``LSF_FUEL`` overrides the default rewrite fuel; an
explicit ``--fuel`` wins over both.  ``run_command`` runs one command
inside the calling process; the argument parser is built on its first call
and reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from collections.abc import Sequence

from .rewrite import (
    DEFAULT_FUEL,
    FuelExhausted,
    LEFTMOST_OUTERMOST,
    normalize_lambda_sigma,
    normalize_sigma,
    normalize_traced,
)
from .sexpr import ParseError, parse_sexprs
from .solver import (
    Aborted,
    ExhaustedNoSolution,
    SearchConfig,
    SearchOutcome,
    Solved,
    check_solution,
    decide_small_lambda,
    solve_sigma,
)
from .sorts import IllTyped, UnifProblem, validate_problem
from .surface import (
    ProblemFile,
    parse_problem,
    parse_subst_file,
    parse_term,
    render_debruijn,
    render_problem,
)
from .terms import EqMode
from .transform import InvalidProblem, precook, reduce_problem


def _positive_int(raw: str) -> int:
    """Parse a fuel budget or a search bound: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _fuel(args) -> int:
    """The rewrite fuel: --fuel, else LSF_FUEL, else the default."""
    if args.fuel is not None:
        return args.fuel
    raw = os.environ.get("LSF_FUEL")
    if raw is None:
        return DEFAULT_FUEL
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as err:
        raise UsageError(f"LSF_FUEL {err}")


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_DESCRIPTION = (
    "Check, precook, reduce, solve and verify λσ unification problems, normalize expressions and "
    "run the problem corpus. Exit status: 0 for success or a true verdict, 1 for a false verdict "
    "or no solution within bounds, 2 for any error. LSF_FUEL sets the rewrite fuel; --fuel wins."
)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The command line parser; each subcommand's handler is its `handler`
    default.  Built on first use, not at import."""
    parser = _ArgumentParser(prog="lamsig", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fuel(p):
        p.add_argument("--fuel", type=_positive_int, default=None, help="rewrite step budget")

    p_check = sub.add_parser("check", help="validate a problem file")
    p_check.set_defaults(handler=_cmd_check)
    p_check.add_argument("file")

    p_precook = sub.add_parser("precook", help="tag metavariables with their binder depths")
    p_precook.set_defaults(handler=_cmd_precook)
    p_precook.add_argument("file")

    p_reduce = sub.add_parser("reduce", help="reduce to a substitution-only problem")
    p_reduce.set_defaults(handler=_cmd_reduce)
    p_reduce.add_argument("file")
    p_reduce.add_argument("-o", "--output", default=None, help="write the result to a file")
    add_fuel(p_reduce)

    p_solve = sub.add_parser("solve", help="bounded unifier search")
    p_solve.set_defaults(handler=_cmd_solve)
    p_solve.add_argument("file")
    p_solve.add_argument("--bound", type=_positive_int, default=4, help="candidate size bound")
    p_solve.add_argument("--depth", type=_positive_int, default=8, help="candidate depth bound")
    p_solve.add_argument("--all", action="store_true", help="collect several solutions")
    p_solve.add_argument("--max-solutions", type=_positive_int, default=16)
    p_solve.add_argument("--mode", choices=["sigma", "lambdasigma"], default=None,
                         help="override the problem's equality mode")
    add_fuel(p_solve)

    p_verify = sub.add_parser("verify", help="check a substitution against a problem")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("file")
    p_verify.add_argument("subst")
    add_fuel(p_verify)

    p_norm = sub.add_parser("normalize", help="normalize an expression")
    p_norm.set_defaults(handler=_cmd_normalize)
    p_norm.add_argument("file", help="problem file providing context and declarations")
    p_norm.add_argument("--expr", default=None,
                        help="expression to normalize (default: the equation's left side)")
    p_norm.add_argument("--mode", choices=["sigma", "lambdasigma"], default="sigma")
    p_norm.add_argument("--trace", action="store_true", help="print one line per step")
    add_fuel(p_norm)

    p_corpus = sub.add_parser("corpus", help="operations on the bundled problem corpus")
    p_corpus.set_defaults(handler=_cmd_corpus)
    p_corpus.add_argument("action", choices=["run"])
    p_corpus.add_argument("--dir", default=None, help="use problems from a directory instead")
    add_fuel(p_corpus)

    return parser


def _file(path: str, text: str | None = None) -> str:
    """Read the file at `path`, or write `text` to it.  A failed file
    operation is a usage error, so it keeps the exit contract."""
    try:
        with open(path, "r" if text is None else "w", encoding="utf-8") as f:
            if text is None:
                return f.read()
            f.write(text)
        return text
    except OSError as err:
        raise UsageError(f"cannot {'read' if text is None else 'write'} {path}: {err.strerror}")


def _load(path: str) -> ProblemFile:
    return parse_problem(_file(path))


def _path_str(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path)) if path else "ε"


def _cmd_check(args) -> int:
    pf = _load(args.file)
    report = validate_problem(pf.problem)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_precook(args) -> int:
    pf = _load(args.file)
    out = ProblemFile(precook(pf.problem), pf.ctx_names, pf.expect)
    print(render_problem(out), end="")
    return 0


def _cmd_reduce(args) -> int:
    pf = _load(args.file)
    if pf.problem.mode is EqMode.SIGMA_ONLY:
        raise UsageError(f"reduce takes a full-equality problem; {args.file} declares (mode sigma)")
    cert = reduce_problem(pf.problem, fuel=_fuel(args))
    out = ProblemFile(cert.target, pf.ctx_names, pf.expect, cert.var_map)
    text = render_problem(out)
    if args.output:
        _file(args.output, text)
    print(text, end="")
    return 0


def _search(problem: UnifProblem, cfg: SearchConfig) -> SearchOutcome:
    """The bounded lambda-side search for a problem in full equality; the
    substitution-only search otherwise."""
    if problem.mode is EqMode.LAMBDA_SIGMA:
        return decide_small_lambda(problem, cfg)
    return solve_sigma(problem, cfg)


def _cmd_solve(args) -> int:
    pf = _load(args.file)
    problem = pf.problem
    if args.mode is not None:
        problem = UnifProblem(
            problem.base_types, problem.ctx, problem.metavars, problem.lhs, problem.rhs, EqMode(args.mode)
        )
    cfg = SearchConfig(
        size_bound=args.bound,
        depth_bound=args.depth,
        fuel=_fuel(args),
        find_all=args.all,
        max_solutions=args.max_solutions,
    )
    outcome = _search(problem, cfg)
    match outcome:
        case Solved(solutions):
            for theta in solutions:
                bindings = ", ".join(f"?{name} := {render_debruijn(term)}" for name, term in theta.items())
                print(bindings or "solved by the empty substitution")
            return 0
        case ExhaustedNoSolution():
            print(outcome)
            return 1
        case Aborted(reason):
            print(f"aborted: {reason}")
            return 2
    raise AssertionError


def _cmd_verify(args) -> int:
    pf = _load(args.file)
    theta = parse_subst_file(_file(args.subst), pf)
    ok = check_solution(pf.problem, theta, fuel=_fuel(args))
    if ok:
        print("solution verified")
        return 0
    print("not a solution")
    return 1


def _cmd_normalize(args) -> int:
    pf = _load(args.file)
    if args.expr is not None:
        forms = parse_sexprs(args.expr)
        if len(forms) != 1:
            raise ParseError(1, 1, "expected exactly one expression")
        term = parse_term(forms[0], pf.ctx_names)
    else:
        term = pf.problem.lhs
    mode = EqMode(args.mode)
    fuel = _fuel(args)
    if args.trace:
        normal, trace = normalize_traced(term, mode, LEFTMOST_OUTERMOST, fuel)
        for step_entry in trace.steps:
            print(f"{_path_str(step_entry.path)}\t{step_entry.rule.value}\t{render_debruijn(step_entry.result)}")
    elif mode is EqMode.SIGMA_ONLY:
        normal = normalize_sigma(term, fuel)
    else:
        normal = normalize_lambda_sigma(term, fuel)
    print(render_debruijn(normal))
    return 0


def _corpus_files(directory: str | None) -> list[tuple[str, str]]:
    """Name and text of each `.sig` file in directory (the bundled corpus if
    None) by name; a directory that cannot be listed has none."""
    if directory is None:
        directory = os.path.join(os.path.dirname(__file__), "corpus")
    try:
        names = sorted(name for name in os.listdir(directory) if name.endswith(".sig"))
    except OSError:
        names = []
    return [(name, _file(os.path.join(directory, name))) for name in names]


def _cmd_corpus(args) -> int:
    fuel = _fuel(args)
    files = _corpus_files(args.dir)
    if not files:
        raise UsageError("no corpus files found")
    all_ok = True
    checked = 0
    for name, text in files:
        pf = parse_problem(text)
        if pf.expect is None:
            print(f"{name}: no annotation, skipped")
            continue
        checked += 1
        cfg = SearchConfig(size_bound=pf.expect.bound, fuel=fuel, find_all=False)
        solved = isinstance(_search(pf.problem, cfg), Solved)
        expected_solved = pf.expect.kind == "solvable"
        ok = solved == expected_solved
        all_ok = all_ok and ok
        verdict = "solved" if solved else "no solution within bounds"
        mark = "ok" if ok else "MISMATCH"
        print(f"{name}: expect {pf.expect.kind} :bound {pf.expect.bound} -> {verdict} [{mark}]")
    print(f"corpus: {len(files)} files, {checked} annotated, "
          f"{'all as annotated' if all_ok else 'MISMATCHES FOUND'}")
    return 0 if all_ok else 1


def _dispatch(argv: Sequence[str]) -> int:
    args = _build_parser().parse_args(list(argv))
    return args.handler(args)


def run_command(argv: Sequence[str]) -> tuple[int, str]:
    """Run one command, returning its exit status and combined output."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            status = _dispatch(argv)
    except SystemExit as exc:  # argparse --help
        status = 0 if exc.code in (0, None) else 2
    except UsageError as err:
        print(f"usage error: {err}", file=buf)
        status = 2
    except (ParseError, IllTyped, InvalidProblem, FuelExhausted, ValueError) as err:
        print(f"error: {err}", file=buf)
        status = 2
    except RecursionError:
        print("error: input nested too deeply", file=buf)
        status = 2
    return status, buf.getvalue()


def main() -> None:
    # The term parser, the sort checker and the printers recurse once per level
    # of nesting; the console script allows deeper files than the default
    # limit does.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    status, output = run_command(sys.argv[1:])
    stream = sys.stderr if status == 2 else sys.stdout
    stream.write(output)
    sys.exit(status)


if __name__ == "__main__":
    main()
