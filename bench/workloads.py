"""The three workloads: their seeded inputs, their operations, and the
checks of every output against the reference.

Each workload has a fixed number of operations per pass, whatever the
seed, so a run of whole passes attempts the same mix every time.  Calls
into lamsig go through module attributes (``rewrite.normalize_sigma``, not a
name bound at import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import random
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from lamsig import cli, rewrite, solver, transform
from lamsig.sorts import Base
from lamsig.terms import App, Closure, Comp, Cons, Index, Lam, Meta, Shift

import reference as ref


@dataclass
class Op:
    name: str
    run: object  # zero-argument callable
    command: str = ""  # the CLI subcommand, for cli operations


class Workload:
    name = ""
    ops: list[Op]

    def check(self, outputs: list) -> list[str]:
        """Problems found in the outputs of one pass (None marks an
        operation that raised)."""
        raise NotImplementedError

    def counts(self) -> dict[str, float]:
        """Exact per-pass counts computed outside the program."""
        return {}


# --- normalize ----------------------------------------------------------------

# (term budget, chunks, number of terms), 200 terms in all: small terms of
# four chunks that hold the median, medium terms of three, and a stratum
# of large terms of ten 30-node chunks that holds the tail (the
# 11th-largest of 200).  Chunked terms keep the cost of one size close
# together, so every seed draws nearly the same work: with two chunks
# instead of four, the median moved by 13 % between seeds.
NORMALIZE_STRATA = ((24, 4, 130), (90, 3, 45), (300, 10, 25))


class Normalize(Workload):
    """One operation normalizes one term under sigma and under lambda-sigma."""

    name = "normalize"

    def __init__(self, seed: int):
        rng = random.Random(f"normalize/{seed}")
        self.cases = []
        for budget, chunks, count in NORMALIZE_STRATA:
            for i in range(count):
                self.cases.append(ref.gen_term_case(rng, budget, metas=i % 2 == 1, chunks=chunks))
        self.ops = [Op(f"term{i}", self._op(c.term)) for i, c in enumerate(self.cases)]

    @staticmethod
    def _op(term):
        return lambda: (rewrite.normalize_sigma(term), rewrite.normalize_lambda_sigma(term))

    def check(self, outputs):
        problems = []
        for i, (case, out) in enumerate(zip(self.cases, outputs)):
            if out is None:
                continue
            sigma_nf, full_nf = out
            if case.ground:
                value = ref.meaning(case.term)
                if sigma_nf != value:
                    problems.append(f"term{i}: sigma normal form differs from the denotation")
                if full_nf != ref.beta_normal(value):
                    problems.append(f"term{i}: lambda-sigma normal form differs from the reference")
                continue
            for nf, beta in ((sigma_nf, False), (full_nf, True)):
                hit = ref.find_redex(nf, beta)
                if hit is not None:
                    problems.append(f"term{i}: normal form contains a {hit} redex")
            if rewrite.normalize_sigma(sigma_nf) != sigma_nf:
                problems.append(f"term{i}: sigma normal form is not a fixed point")
            if rewrite.normalize_lambda_sigma(full_nf) != full_nf:
                problems.append(f"term{i}: lambda-sigma normal form is not a fixed point")
            theta = case.bindings
            source = ref.meaning(ref.graft(case.term, theta))
            if ref.meaning(ref.graft(sigma_nf, theta)) != source:
                problems.append(f"term{i}: sigma normal form changes the meaning")
            if ref.beta_normal(ref.meaning(ref.graft(full_nf, theta))) != ref.beta_normal(source):
                problems.append(f"term{i}: lambda-sigma normal form changes the meaning")
        return problems

    def counts(self):
        steps = 0
        for case in self.cases:
            for mode in (rewrite.EqMode.SIGMA_ONLY, rewrite.EqMode.LAMBDA_SIGMA):
                _, trace = rewrite.normalize_traced(case.term, mode)
                steps += len(trace.steps)
        return {"rewrite.steps": steps}


# --- search -------------------------------------------------------------------

# (kind, unknown arities, context width, planted body sizes or bound, count),
# 100 problems in all.  Planted bounds are the planted size.  A clash
# problem exhausts the whole candidate product, whose size depends on the
# shape alone, so its cost hardly varies with the seed; the counts put the
# median (50th/51st of 100) inside the 30 one-unknown clashes at bound 5
# and the tail (90th) inside the 21 two-unknown clashes at bound 4, away
# from the edges between groups.  Planted problems stop at their first hit.
SEARCH_SHAPES = (
    ("planted", {"X": 0}, 4, {"X": 3}, 4),
    ("planted", {"X": 1}, 4, {"X": 3}, 4),
    ("planted", {"X": 2}, 4, {"X": 3}, 4),
    ("planted", {"X": 1}, 5, {"X": 1}, 3),
    ("planted", {"X": 2, "Y": 1}, 4, {"X": 3, "Y": 3}, 4),
    ("planted", {"X": 0, "Y": 1}, 5, {"X": 1, "Y": 3}, 3),
    ("planted", {"X": 1, "Y": 0}, 6, {"X": 3, "Y": 1}, 3),
    ("planted", {"X": 1, "Y": 1, "Z": 0}, 4, {"X": 1, "Y": 3, "Z": 1}, 3),
    ("clash", {"X": 1}, 4, 4, 4),
    ("clash", {"X": 2}, 4, 3, 3),
    ("clash", {"X": 1}, 5, 5, 30),
    ("clash", {"X": 1, "Y": 0}, 6, 3, 14),
    ("clash", {"X": 2, "Y": 1}, 4, 4, 21),
)


def search_problems(seed: int) -> list:
    rng = random.Random(f"search/{seed}")
    problems = []
    for kind, arities, width, extra, count in SEARCH_SHAPES:
        for i in range(count):
            name = f"{kind}{len(problems)}"
            if kind == "planted":
                bound = max(arities[x] + extra[x] for x in arities)
                problems.append(ref.gen_family_problem(rng, name, kind, arities, width, extra, bound))
            else:
                problems.append(ref.gen_family_problem(rng, name, kind, arities, width, {}, extra))
    return problems


def search_op(fp):
    """reduce, validate the reduction, solve the target, lift, and run the
    lambda-side oracle on the source, all at the problem's bound."""
    source = fp.problem
    cfg = solver.SearchConfig(size_bound=fp.bound)
    cert = transform.reduce_problem(source)
    report = transform.validate_reduced_problem(cert)
    target = solver.solve_sigma(cert.target, cfg)
    lifted = []
    if isinstance(target, solver.Solved):
        lifted = [transform.lift_solution(cert, theta) for theta in target.solutions]
    oracle = solver.decide_small_lambda(source, cfg)
    return cert.target, report.ok, target, lifted, oracle


class Search(Workload):
    name = "search"

    def __init__(self, seed: int):
        self.problems = search_problems(seed)
        self.ops = [Op(fp.name, (lambda fp=fp: search_op(fp))) for fp in self.problems]

    def check(self, outputs):
        problems = []
        for fp, out in zip(self.problems, outputs):
            if out is None:
                continue
            target_problem, valid, target, lifted, oracle = out
            if not valid:
                problems.append(f"{fp.name}: the reduced problem fails validation")
            expected = solver.Solved if fp.kind == "planted" else solver.ExhaustedNoSolution
            for side, outcome in (("target", target), ("oracle", oracle)):
                if not isinstance(outcome, expected):
                    problems.append(f"{fp.name}: {side} gave {type(outcome).__name__}")
            if isinstance(target, solver.Solved):
                for theta in target.solutions:
                    if not ref.sigma_solves(target_problem.lhs, target_problem.rhs, dict(theta.items())):
                        problems.append(f"{fp.name}: a target solution fails the reference")
            for theta in lifted + (oracle.solutions if isinstance(oracle, solver.Solved) else []):
                if not ref.lambda_equal(fp.lhs, fp.rhs, dict(theta.items())):
                    problems.append(f"{fp.name}: a source solution fails the reference")
        return problems

    def counts(self):
        """Candidates are the lengths of the enumerated streams; assignments
        are the product size, or the rank in product order of the first
        solution found."""
        candidates = 0
        assignments = 0
        enum_ns = 0
        for fp in self.problems:
            cfg = solver.SearchConfig(size_bound=fp.bound)
            source = fp.problem
            cert = transform.reduce_problem(source)
            for problem, run in ((cert.target, solver.solve_sigma), (source, solver.decide_small_lambda)):
                names = list(problem.metavars)
                t0 = time.perf_counter_ns()
                streams = [list(solver.enumerate_simple_terms(problem.metavars[x], {}, cfg)) for x in names]
                enum_ns += time.perf_counter_ns() - t0
                candidates += sum(len(s) for s in streams)
                outcome = run(problem, cfg)
                if isinstance(outcome, solver.Solved):
                    theta = outcome.solutions[0]
                    rank = 0
                    for x, stream in zip(names, streams):
                        rank = rank * len(stream) + stream.index(theta[x])
                    assignments += rank + 1
                else:
                    size = 1
                    for stream in streams:
                        size *= len(stream)
                    assignments += size
        return {
            "solver.candidates": candidates,
            "solver.assignments_tried": assignments,
            "solver.enumerate_s": enum_ns / 1e9,
        }


# --- cli ------------------------------------------------------------------------

MALFORMED = {
    "empty_form.sig": "()\n",
    "empty_block.sig": "(problem ())\n",
    "mode_no_arg.sig": (
        "(problem\n  (base-types iota)\n  (context (c iota))\n  (metavars (?X iota))\n"
        "  (mode)\n  (equation ?X c))\n"
    ),
    "bare_certificate.sig": (
        "(problem\n  (base-types iota)\n  (context (c iota))\n  (metavars (?X iota))\n"
        "  (mode sigma)\n  (equation ?X c))\n(certificate)\n"
    ),
}

# Generated problem files from the search family: (kind, arities, width,
# body sizes or bound).  Small bounds: the cli workload measures per-command
# cost, not search.
CLI_FAMILY = (
    ("planted", {"X": 1}, 4, {"X": 3}),
    ("planted", {"X": 2}, 4, {"X": 3}),
    ("planted", {"X": 0, "Y": 1}, 5, {"X": 1, "Y": 1}),
    ("planted", {"X": 2, "Y": 1}, 4, {"X": 1, "Y": 1}),
    ("clash", {"X": 1}, 4, 3),
    ("clash", {"X": 2}, 4, 3),
    ("clash", {"X": 0, "Y": 1}, 5, 2),
    ("clash", {"X": 1, "Y": 1}, 4, 2),
)
CLI_NORMALIZE_FILES = 5


def render_type(ty) -> str:
    if isinstance(ty, Base):
        return ty.name
    return f"(-> {render_type(ty.dom)} {render_type(ty.cod)})"


def render_term(t, depth: int = 0) -> str:
    """Named surface syntax with every index written as a bare de Bruijn
    integer; binders get names x1, x2, ... by depth."""
    match t:
        case Index(n):
            return str(n)
        case Meta(name):
            return f"?{name}"
        case App(fun, arg):
            return f"(app {render_term(fun, depth)} {render_term(arg, depth)})"
        case Lam(body):
            return f"(lam (x{depth + 1} iota) {render_term(body, depth + 1)})"
        case Closure(body, s):
            return f"(clo {render_term(body, depth)} {render_subst(s, depth)})"
    raise TypeError(f"cannot render {t!r}")


def render_subst(s, depth: int = 0) -> str:
    match s:
        case Shift(k):
            return f"(shift {k})"
        case Cons(head, tail):
            return f"(cons {render_term(head, depth)} {render_subst(tail, depth)})"
        case Comp(first, second):
            return f"(comp {render_subst(first, depth)} {render_subst(second, depth)})"
    raise TypeError(f"cannot render {s!r}")


def render_debruijn(t) -> str:
    """The CLI's compact form of a closure-free, binder-free term."""
    if isinstance(t, Index):
        return str(t.n)
    parts = []
    while isinstance(t, App):
        parts.append(t.arg)
        t = t.fun
    parts.append(t)
    return "(" + " ".join(render_debruijn(p) for p in reversed(parts)) + ")"


def family_file(fp) -> str:
    ctx = " ".join(f"({n} {render_type(ref.fn_type(dict(ref.CONSTANTS)[n]))})" for n in fp.names)
    metas = " ".join(f"(?{x} {render_type(ref.fn_type(n))})" for x, n in fp.arities.items())
    kind = "solvable" if fp.kind == "planted" else "no-solution"
    return (
        f"(problem\n  (base-types iota)\n  (context {ctx})\n  (metavars {metas})\n"
        f"  (mode lambdasigma)\n  (equation {render_term(fp.lhs)} {render_term(fp.rhs)})\n"
        f"  (expect {kind} :bound {fp.bound}))\n"
    )


def normalize_file(case) -> str:
    names = [f"v{i}" for i in range(len(case.ctx), 0, -1)]
    ctx = " ".join(f"({n} {render_type(ty)})" for n, ty in zip(names, reversed(case.ctx)))
    term = render_term(case.term)
    return (
        f"(problem\n  (base-types i o)\n  (context {ctx})\n  (metavars)\n"
        f"  (mode sigma)\n  (equation {term} {term}))\n"
    )


class Cli(Workload):
    """Problem files written at set-up, run through cli.run_command."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path, corpus_dir: Path):
        rng = random.Random(f"cli/{seed}")
        self.ops = []
        corpus = workdir / "corpus"
        corpus.mkdir(parents=True)
        self.expect: list = []  # (status, last output line or None) per op
        for path in sorted(corpus_dir.glob("*.sig")):
            shutil.copyfile(path, corpus / path.name)
        for path in sorted(corpus.glob("*.sig")):
            found = re.search(r"\(expect (solvable|no-solution) :bound (\d+)\)", path.read_text(encoding="utf-8"))
            status = 0 if found.group(1) == "solvable" else 1
            self._add(["check", str(path)], 0)
            self._add(["solve", str(path), "--bound", found.group(2)], status)

        for i, (kind, arities, width, extra) in enumerate(CLI_FAMILY):
            name = f"family{i}"
            if kind == "planted":
                bound = max(arities[x] + extra[x] for x in arities)
                fp = ref.gen_family_problem(rng, name, kind, arities, width, extra, bound)
            else:
                fp = ref.gen_family_problem(rng, name, kind, arities, width, {}, extra)
            src = workdir / f"{name}.sig"
            src.write_text(family_file(fp), encoding="utf-8")
            reduced = workdir / f"{name}.reduced.sig"
            status = 0 if kind == "planted" else 1
            self._add(["check", str(src)], 0)
            self._add(["precook", str(src)], 0)
            self._add(["reduce", str(src), "-o", str(reduced)], 0)
            self._add(["solve", str(src), "--bound", str(fp.bound)], status)
            self._add(["solve", str(reduced), "--bound", str(fp.bound)], status)
            if kind == "planted":
                good = workdir / f"{name}.good.subst"
                bad = workdir / f"{name}.bad.subst"
                good.write_text(subst_file(fp.planted), encoding="utf-8")
                bad.write_text(subst_file(wrong_binding(rng, fp)), encoding="utf-8")
                self._add(["verify", str(src), str(good)], 0)
                self._add(["verify", str(src), str(bad)], 1)

        gen_rng = random.Random(f"cli-normalize/{seed}")
        for i in range(CLI_NORMALIZE_FILES):
            case = ref.gen_term_case(gen_rng, 24, metas=False, binders=False)
            path = workdir / f"normalize{i}.sig"
            path.write_text(normalize_file(case), encoding="utf-8")
            self._add(["normalize", str(path), "--trace"], 0, render_debruijn(ref.meaning(case.term)))

        self._add(["corpus", "run", "--dir", str(corpus)], 0)
        for name, text in MALFORMED.items():
            path = workdir / name
            path.write_text(text, encoding="utf-8")
            self._add(["check", str(path)], 2)

    def _add(self, argv, status, last_line=None):
        self.expect.append((status, last_line))
        name = " ".join([argv[0]] + [Path(a).name for a in argv[1:]])
        self.ops.append(Op(name, (lambda argv=argv: cli.run_command(argv)), argv[0]))

    def check(self, outputs):
        problems = []
        for op, (status, last_line), out in zip(self.ops, self.expect, outputs):
            if out is None:
                continue
            got_status, text = out
            if got_status != status:
                problems.append(f"{op.name}: exit status {got_status}, expected {status}")
            if last_line is not None and text.rstrip("\n").rsplit("\n", 1)[-1] != last_line:
                problems.append(f"{op.name}: printed normal form differs from the reference")
        return problems


def subst_file(theta) -> str:
    entries = " ".join(f"(?{x} {render_term(t)})" for x, t in theta.items())
    return f"(subst {entries})\n"


def wrong_binding(rng, fp) -> dict:
    """The planted bindings with one body replaced so that they no longer
    solve the equation."""
    gen = ref.FamilyGen(rng, len(fp.names))
    for _ in range(100):
        theta = dict(fp.planted)
        x = rng.choice(sorted(theta))
        n = fp.arities[x]
        body = gen.rigid(rng.choice((1, 3)), n)
        for _ in range(n):
            body = Lam(body)
        theta[x] = body
        if not ref.lambda_equal(fp.lhs, fp.rhs, theta):
            return theta
    raise RuntimeError(f"{fp.name}: no wrong binding found")
