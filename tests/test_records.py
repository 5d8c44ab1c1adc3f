"""Every record class of the package behaves as the ``@dataclass`` it
replaced: equality only within one class, ``hash(tuple(fields))`` for the
frozen ones and none for the others, the dataclass ``repr`` text, positional
``match`` patterns, keyword construction, and round trips through ``copy``
and ``pickle``.  A slot named with a leading underscore is not a field, and
none of these see it."""

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
from lamsig.solver import Aborted, ExhaustedNoSolution, Solved, decide_small_lambda
from lamsig.sorts import CheckEntry, ValidationReport
from lamsig.surface import Expectation, ProblemFile
from lamsig.transform import ReductionCertificate, reduce_problem

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


def snapshotted_problems() -> list[UnifProblem]:
    """A source whose snapshot records its sides as normal, and a
    reduction's target, recorded so from birth."""
    source = UnifProblem(
        frozenset({"iota"}), (IOTA,), {"X": Sort((IOTA,), Arrow(IOTA, IOTA))},
        App(Meta("X"), Index(1)), Index(1), EqMode.LAMBDA_SIGMA,
    )
    target = reduce_problem(source).target
    decide_small_lambda(source)  # finds the sides normal, and records it
    return [source, target]


# records with hidden slots set: an arrow's order, and problems' snapshots
HIDDEN = [
    pytest.param(Arrow(Arrow(IOTA, IOTA), IOTA), id="Arrow of order 3"),
    *(pytest.param(p, id=f"UnifProblem with a snapshot {i}") for i, p in enumerate(snapshotted_problems())),
]

records = pytest.mark.parametrize(
    "record", [pytest.param(x, id=type(x).__name__) for x, _ in CASES] + HIDDEN
)


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


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
    for name in type(record).__match_args__:
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
    assert cls.__match_args__ == tuple(name for name in cls.__slots__ if not name.startswith("_"))
    names = [f"v{i}" for i in range(len(cls.__match_args__))]
    scope = {"cls": cls, "record": record}
    exec(
        f"match record:\n    case cls({', '.join(names)}):\n        out = ({', '.join(names)},)\n",
        scope,
    )
    assert all(a is b for a, b in zip(scope["out"], fields(record), strict=True))
    assert cls(**dict(zip(cls.__match_args__, fields(record)))) == record


@records
def test_copy_deepcopy_and_pickle_round_trip(record):
    shallow = copy.copy(record)
    assert type(shallow) is type(record) and shallow == record
    assert all(a is b for a, b in zip(fields(shallow), fields(record)))
    for twin in (shallow, copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)
        if type(record) is UnifProblem:
            assert twin._valid_as is None  # a copy starts with no snapshot
        elif type(record) is Arrow:
            assert twin._order == record._order


def test_hidden_slots_are_set_and_not_fields():
    """The hidden slots of the inputs above hold something, and equality,
    hashing and repr read past them."""
    arrow, source, target = (param.values[0] for param in HIDDEN)
    assert arrow._order == 3 and hash(arrow) == hash((arrow.dom, arrow.cod))
    for p in (source, target):
        assert p._valid_as is not None and p._valid_as[1] is True
        fresh = UnifProblem(*fields(p))
        assert fresh == p and fresh._valid_as is None
        assert "_valid_as" not in repr(p) and repr(fresh) == repr(p)


@records
def test_init_sets_every_slot(record):
    """Built through its ``__init__``, a record holds a value in each slot
    of its class and of its bases, hidden slots included."""
    built = type(record)(*fields(record))
    for cls in type(built).__mro__:
        for name in cls.__dict__.get("__slots__", ()):
            getattr(built, name)  # an unset slot raises AttributeError


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
