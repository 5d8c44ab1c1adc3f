"""Every record class of the package behaves as the ``@dataclass`` it
replaced: equality only within one class, ``hash(tuple(fields))`` for the
frozen ones and none for the others, the dataclass ``repr`` text, positional
``match`` patterns, keyword construction, and round trips through ``copy``
and ``pickle``."""

import copy
import pickle

import pytest

import lamsig.cli  # loaded so that a record class defined there would be found
from lamsig import (
    App,
    Arrow,
    Base,
    Closure,
    Comp,
    Cons,
    EqMode,
    Index,
    Lam,
    Meta,
    MetaSubst,
    RuleId,
    SearchConfig,
    Shift,
    Sort,
    UnifProblem,
)
from lamsig.records import FrozenRecord, Record
from lamsig.rewrite import RewriteTrace, TraceStep
from lamsig.sexpr import SAtom, SList
from lamsig.solver import Aborted, ExhaustedNoSolution, Solved
from lamsig.sorts import CheckEntry, ValidationReport
from lamsig.surface import Expectation, ProblemFile
from lamsig.transform import ReductionCertificate

IOTA = Base("iota")
SORT = Sort((IOTA,), IOTA)
SORT_REPR = "Sort(ctx=(Base(name='iota'),), ty=Base(name='iota'))"
PROBLEM = UnifProblem(frozenset({"iota"}), (IOTA,), {"X": SORT}, Meta("X"), Index(1), EqMode.LAMBDA_SIGMA)
PROBLEM_REPR = (
    "UnifProblem(base_types=frozenset({'iota'}), ctx=(Base(name='iota'),), "
    f"metavars={{'X': {SORT_REPR}}}, lhs=Meta(name='X'), rhs=Index(n=1), "
    "mode=<EqMode.LAMBDA_SIGMA: 'lambdasigma'>)"
)
STEP = TraceStep((0, 1), RuleId.BETA, Index(1))
STEP_REPR = "TraceStep(path=(0, 1), rule=<RuleId.BETA: 'Beta'>, result=Index(n=1))"
ENTRY = CheckEntry("sides sort-check", False, "ill-typed")
ENTRY_REPR = "CheckEntry(name='sides sort-check', ok=False, detail='ill-typed')"
VAR_MAP = {"X": ("X'1", 1)}

# one instance of every record class, and its repr as the dataclass wrote it
CASES = [
    (Index(1), "Index(n=1)"),
    (Meta("X"), "Meta(name='X')"),
    (App(Index(1), Meta("X")), "App(fun=Index(n=1), arg=Meta(name='X'))"),
    (Lam(Index(1)), "Lam(body=Index(n=1))"),
    (Closure(Meta("X"), Shift(1)), "Closure(body=Meta(name='X'), subst=Shift(k=1))"),
    (Shift(0), "Shift(k=0)"),
    (Cons(Index(1), Shift(1)), "Cons(head=Index(n=1), tail=Shift(k=1))"),
    (Comp(Shift(1), Shift(2)), "Comp(first=Shift(k=1), second=Shift(k=2))"),
    (IOTA, "Base(name='iota')"),
    (Arrow(IOTA, IOTA), "Arrow(dom=Base(name='iota'), cod=Base(name='iota'))"),
    (SORT, SORT_REPR),
    (PROBLEM, PROBLEM_REPR),
    (ENTRY, ENTRY_REPR),
    (ValidationReport([ENTRY]), f"ValidationReport(entries=[{ENTRY_REPR}])"),
    (
        SearchConfig(size_bound=3),
        "SearchConfig(size_bound=3, depth_bound=8, fuel=1000000, find_all=False, max_solutions=16)",
    ),
    (Solved([MetaSubst({"X": Lam(Index(1))})]), "Solved(solutions=[MetaSubst({X -> Lam(body=Index(n=1))})])"),
    (ExhaustedNoSolution(4, 8), "ExhaustedNoSolution(size_bound=4, depth_bound=8)"),
    (Aborted("fuel exhausted"), "Aborted(reason='fuel exhausted')"),
    (STEP, STEP_REPR),
    (RewriteTrace(Meta("X"), [STEP]), f"RewriteTrace(initial=Meta(name='X'), steps=[{STEP_REPR}])"),
    (SAtom("x", 1, 2), "x"),
    (SList([SAtom("x", 1, 2)], 1, 1), "(x)"),
    (Expectation("solvable", 2), "Expectation(kind='solvable', bound=2)"),
    (
        ProblemFile(PROBLEM, ("c",), Expectation("solvable", 2), VAR_MAP),
        f"ProblemFile(problem={PROBLEM_REPR}, ctx_names=('c',), "
        "expect=Expectation(kind='solvable', bound=2), certificate={'X': (\"X'1\", 1)})",
    ),
    (
        ReductionCertificate(VAR_MAP, PROBLEM, PROBLEM),
        f"ReductionCertificate(var_map={{'X': (\"X'1\", 1)}}, source={PROBLEM_REPR}, target={PROBLEM_REPR})",
    ),
]

FROZEN = {Index, Meta, App, Lam, Closure, Shift, Cons, Comp, Base, Arrow, Sort, SearchConfig}

records = pytest.mark.parametrize("record", [x for x, _ in CASES], ids=lambda x: type(x).__name__)


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def test_the_cases_cover_every_record_class():
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("lamsig.") and cls is not FrozenRecord:
                found.add(cls)
    assert {type(x) for x, _ in CASES} == found
    assert {cls for cls in found if issubclass(cls, FrozenRecord)} == FROZEN


@records
def test_equality_holds_within_one_class_only(record):
    cls = type(record)
    same = cls(*fields(record))
    assert same is not record and same == record and not same != record
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields(record))
    assert twin != record and record != twin
    assert record != fields(record)


@records
def test_frozen_records_hash_their_fields_and_the_others_do_not_hash(record):
    if type(record) in FROZEN:
        assert hash(record) == hash(fields(record))
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("record, text", CASES, ids=[type(x).__name__ for x, _ in CASES])
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@records
def test_frozen_records_refuse_assignment(record):
    before = fields(record)
    for name in type(record).__slots__:
        if type(record) in FROZEN:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        else:
            setattr(record, name, getattr(record, name))
    assert fields(record) == before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@records
def test_positional_and_keyword_patterns_read_every_field(record):
    cls = type(record)
    assert cls.__match_args__ == cls.__slots__
    names = [f"v{i}" for i in range(len(cls.__slots__))]
    scope = {"cls": cls, "record": record}
    exec(
        f"match record:\n    case cls({', '.join(names)}):\n        out = ({', '.join(names)},)\n",
        scope,
    )
    assert all(a is b for a, b in zip(scope["out"], fields(record), strict=True))
    assert cls(**dict(zip(cls.__slots__, fields(record)))) == record


@records
def test_copy_deepcopy_and_pickle_round_trip(record):
    shallow = copy.copy(record)
    assert type(shallow) is type(record) and shallow == record
    assert all(a is b for a, b in zip(fields(shallow), fields(record)))
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Index(0), "de Bruijn index must be >= 1, got 0"),
        (lambda: Shift(-1), "shift must be >= 0, got -1"),
        (lambda: SearchConfig(size_bound=0), "size_bound must be >= 1"),
        (lambda: SearchConfig(depth_bound=0), "depth_bound must be >= 1"),
        (lambda: SearchConfig(fuel=0), "fuel must be >= 1"),
        (lambda: SearchConfig(max_solutions=0), "max_solutions must be >= 1"),
    ],
)
def test_constructors_reject_out_of_range_fields(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
