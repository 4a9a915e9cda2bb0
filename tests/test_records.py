"""The value contract of the public records.

The records built on hot paths are named tuples: ``StageRef``, ``SourceSpan``,
``Token`` and ``TraceEntry``. The 17 other public value types (``Model``,
``SimState``, ``Scenario``, ``Trace`` and ``FlowEdge`` among them) are frozen
records that keep the contract of a frozen dataclass, ``dataclasses.replace``,
``fields``, ``asdict`` and ``is_dataclass`` included; each is checked against
a real frozen dataclass built from its annotations and the defaults listed
here."""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import (FrozenInstanceError, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from pathlib import Path

import pytest

from tmkit.cli import CorpusEntry
from tmkit.core import (Chronology, Diagnostic, Event, FlowEdge, Machine, Model,
                        RegionFlow, RegionNode, StageKind, StageRef, Thing, TriggerEdge)
from tmkit.dsl import ParseResult, SourceSpan
from tmkit.events import CoverageReport
from tmkit.render import DotDocument
from tmkit.sim import (EventTiming, Injection, Scenario, SimState, Token, Trace,
                       TraceEntry, init_state, step)

from helpers import load_corpus_model, load_corpus_scenario

_REF = StageRef(("tank", "pump"), StageKind.PROCESS)

# Each record type: its fields in order, a value for each, and its repr.
_RECORDS = [
    (StageRef, ("path", "kind"), (("tank", "pump"), StageKind.PROCESS),
     "StageRef(path=('tank', 'pump'), kind=<StageKind.PROCESS: 'process'>)"),
    (SourceSpan, ("file", "start_line", "start_col", "end_line", "end_col"),
     ("m.tm", 3, 1, 3, 24),
     "SourceSpan(file='m.tm', start_line=3, start_col=1, end_line=3, end_col=24)"),
    (Token, ("id", "thing", "at"), ("tok1", "water", _REF),
     "Token(id='tok1', thing='water', at=StageRef(path=('tank', 'pump'), "
     "kind=<StageKind.PROCESS: 'process'>))"),
    (TraceEntry, ("step", "kind", "subject", "detail"), (2, "release", "tok1", "-"),
     "TraceEntry(step=2, kind='release', subject='tok1', detail='-')"),
]
_IDS = [cls.__name__ for cls, *_ in _RECORDS]


@pytest.mark.parametrize("cls, fields, values, text", _RECORDS, ids=_IDS)
def test_a_record_builds_by_position_and_keyword(cls, fields, values, text):
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert type(by_position) is cls and type(by_keyword) is cls
    assert by_position == by_keyword
    assert tuple(getattr(by_position, f) for f in fields) == values
    assert repr(by_position) == text
    with pytest.raises(TypeError):
        cls(*values, "one too many")


@pytest.mark.parametrize("cls, fields, values, text", _RECORDS, ids=_IDS)
def test_a_record_is_immutable_unordered_and_hashes_as_its_fields(cls, fields, values,
                                                                   text):
    record, twin = cls(*values), cls(*values)
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(TypeError):
        record < twin
    with pytest.raises(TypeError):
        record >= twin


@pytest.mark.parametrize("cls, fields, values, text", _RECORDS, ids=_IDS)
def test_a_record_survives_a_pickle_round_trip(cls, fields, values, text):
    record = cls(*values)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and hash(copy) == hash(record)


@pytest.mark.parametrize(
    "a, b",
    [
        (Token("tok1", "water", _REF), TraceEntry(1, "create", "tok1", "-")),
        (_REF, (_REF.path, _REF.kind)),
        (Token("tok1", "water", _REF), ("tok1", "water", _REF)),
        (TraceEntry(1, "create", "tok1", "-"), (1, "create", "tok1", "-")),
        (SourceSpan("m.tm", 1, 1, 1, 5), ("m.tm", 1, 1, 1, 5)),
    ],
    ids=["Token-TraceEntry", "StageRef-tuple", "Token-tuple", "TraceEntry-tuple",
         "SourceSpan-tuple"],
)
def test_a_record_equals_only_values_of_its_own_type(a, b):
    assert a != b and b != a
    assert (a == b) is False and (b == a) is False


def test_a_record_keeps_its_str_and_is_env():
    assert str(_REF) == "tank.pump.process"
    assert str(SourceSpan("m.tm", 3, 1, 3, 24)) == "m.tm:3:1"
    assert StageRef(("env",), StageKind.TRANSFER).is_env and not _REF.is_env


def test_dataclasses_replace_still_serves_model_state_and_scenario():
    model = load_corpus_model("reservoir")
    scenario = load_corpus_scenario("reservoir")
    assert replace(model, name="copy").things == model.things
    assert replace(scenario, max_steps=3).choices == scenario.choices
    state = init_state(model, scenario)
    again, _ = step(model, replace(state, step_no=0))
    assert (again.step_no, replace(again, quiescent=True).quiescent) == (1, True)
    assert isinstance(replace(SimState(Scenario()), next_token=7), SimState)


def test_a_record_copies_with_named_tuple_replace():
    token = Token("tok1", "water", _REF)
    assert token._replace(thing="ice") == Token("tok1", "ice", _REF)
    assert token == Token("tok1", "water", _REF)


# ---------------------------------------------------------------------------
# The frozen types against their dataclass twins.

_SRC, _DST = StageRef(("a",), StageKind.RELEASE), StageRef(("a",), StageKind.TRANSFER)
_ENV = StageRef(("env",), StageKind.TRANSFER)
_TIMING = EventTiming(1, 3)
_DIAGNOSTIC = Diagnostic("E101", "error", SourceSpan("m.tm", 2, 1, 2, 9), "unresolved path")

# Each frozen type: a value for each field, another value for its first field,
# and its defaults, as its dataclass twin declares them.
_FROZEN = [
    (Thing, ("water",), "ice", {}),
    (Machine, ("pump", ("tank", "pump"), (Machine("motor", ("tank", "pump", "motor")),)),
     "valve", {"children": ()}),
    (FlowEdge, ("f1", "water", _SRC, _DST), "f2", {}),
    (TriggerEdge, ("t1", _SRC, _DST), "t2", {}),
    (Event, ("fill", True, (RegionFlow("f1"), RegionNode(_SRC))), "drain",
     {"perpetual": False, "items": ()}),
    (Chronology, (("fill", "drain"), (("fill", "drain"),)), ("drain",), {}),
    (Diagnostic, ("E101", "error", SourceSpan("m.tm", 2, 1, 2, 9), "unresolved path"), "E102",
     {}),
    (Model, ("m", (Thing("water"),), (Machine("a", ("a",)),), (FlowEdge("f1", "water", _SRC, _DST),),
             (TriggerEdge("t1", _SRC, _DST),), (Event("fill"),), Chronology(("fill",), ())),
     "n", {"things": (), "root_machines": (), "flows": (), "triggers": (), "events": (),
           "chronology": None}),
    (ParseResult, (None, [_DIAGNOSTIC]), Model("m"), {}),
    (CorpusEntry, ("reservoir", Path("reservoir.tm"), (Path("reservoir.scn"),),
                   {"reservoir": Path("reservoir.trace")}, {"static": Path("reservoir.dot")}),
     "murderer", {}),
    (CoverageReport, (("f1",), ("t1",), 0.5), ("t1",), {}),
    (DotDocument, ("digraph m {\n}\n",), "digraph n {\n}\n", {}),
    (Injection, ("water", _ENV, 1), "ice", {}),
    (Scenario, ((Injection("water", _ENV, 1),), (("a.release", "a.transfer"),),
                (("a.process", True),), 7),
     (), {"injections": (), "choices": (), "gates": (), "max_steps": 100}),
    (EventTiming, (1, 3), 2, {"released_at": None}),
    (Trace, ((TraceEntry(1, "create", "tok1", "-"),), ("fill",), "quiescent", ("late",),
             {"fill": _TIMING}),
     (), {"warnings": (), "timings": field(default_factory=dict)}),
    (SimState, (Scenario(), 2, (Token("tok1", "water", _SRC),), 2, (0,), (("fill", _TIMING),),
                False),
     Scenario(max_steps=3), {"step_no": 0, "tokens": (), "next_token": 1, "choice_taken": (),
                             "timings": (), "quiescent": False}),
]


def _twin(cls, defaults: dict) -> type:
    """A frozen dataclass with ``cls``'s name, annotations and ``defaults``."""
    namespace = {**defaults, "__annotations__": dict(cls.__annotations__),
                 "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


_CASES = [(cls, _twin(cls, defaults), values, other) for cls, values, other, defaults in _FROZEN]
_CASE_IDS = [cls.__name__ for cls, *_ in _FROZEN]


def test_every_frozen_public_type_has_a_twin():
    import tmkit
    import tmkit.cli
    import tmkit.sim

    public = {getattr(tmkit, name) for name in tmkit.__all__ if name != "__version__"}
    public |= {tmkit.cli.CorpusEntry, tmkit.sim.Injection, tmkit.sim.EventTiming,
               tmkit.sim.SimState}
    frozen = {cls for cls in public if isinstance(cls, type) and is_dataclass(cls)}
    assert frozen == {cls for cls, *_ in _FROZEN} and len(frozen) == 17


@pytest.mark.parametrize("cls, twin, values, other", _CASES, ids=_CASE_IDS)
def test_a_frozen_type_builds_and_shows_as_its_dataclass_twin(cls, twin, values, other):
    names = [f.name for f in fields(twin)]
    record, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    assert type(record) is cls and record == by_keyword
    assert repr(record) == repr(by_keyword) == repr(twin(*values))
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)
    # a field with a default is also a class attribute; one with a factory is not
    assert [hasattr(cls, n) for n in names] == [hasattr(twin, n) for n in names]

    def params(c):
        return [(p.name, p.kind, repr(p.default)) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(twin)
    for c in (cls, twin):
        with pytest.raises(TypeError):
            c(*values, "one too many")


def test_a_frozen_type_shows_a_value_holding_itself_as_its_dataclass_twin():
    twin = next(twin for cls, twin, *_ in _CASES if cls is ParseResult)
    texts = []
    for c in (ParseResult, twin):
        diagnostics = []
        result = c(None, diagnostics)
        diagnostics.append(result)
        texts.append(repr(result))
    assert texts == ["ParseResult(model=None, diagnostics=[...])"] * 2


@pytest.mark.parametrize("cls, twin, values, other", _CASES, ids=_CASE_IDS)
def test_a_frozen_type_compares_and_hashes_as_its_dataclass_twin(cls, twin, values, other):
    def outcomes(c, stranger):
        record = c(*values)
        return [(record == b, record != b, b == record, b != record)
                for b in (c(*values), c(other, *values[1:]), stranger(*values), tuple(values))]

    expected = [(True, False, True, False)] + [(False, True, False, True)] * 3
    assert outcomes(cls, twin) == outcomes(twin, cls) == expected
    try:
        fields_hash = hash(tuple(values))
    except TypeError:  # a list or dict field
        for c in (cls, twin):
            with pytest.raises(TypeError):
                hash(c(*values))
    else:
        assert hash(cls(*values)) == hash(twin(*values)) == fields_hash
    for c in (cls, twin):
        with pytest.raises(TypeError):
            c(*values) < c(*values)


@pytest.mark.parametrize("cls, twin, values, other", _CASES, ids=_CASE_IDS)
def test_a_frozen_type_refuses_changes_as_its_dataclass_twin(cls, twin, values, other):
    def refusals(c):
        record, seen = c(*values), []
        for name in (*c.__match_args__, "extra"):
            for change in (lambda: setattr(record, name, None), lambda: delattr(record, name)):
                with pytest.raises(FrozenInstanceError) as caught:
                    change()
                seen.append(str(caught.value))
        return seen

    assert refusals(cls) == refusals(twin)
    assert refusals(cls)[:2] == [f"cannot assign to field {cls.__match_args__[0]!r}",
                                 f"cannot delete field {cls.__match_args__[0]!r}"]


@pytest.mark.parametrize("cls, twin, values, other", _CASES, ids=_CASE_IDS)
def test_a_frozen_type_serves_the_dataclasses_functions(cls, twin, values, other):
    def described(c):
        return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
                 f.compare, f.kw_only) for f in fields(c)]

    record = cls(*values)
    assert is_dataclass(cls) and is_dataclass(record)
    assert described(cls) == described(record) == described(twin)
    first = cls.__match_args__[0]
    changed = replace(record, **{first: other})
    assert type(changed) is cls and changed == cls(other, *values[1:])
    assert repr(changed) == repr(replace(twin(*values), **{first: other}))
    assert asdict(record) == asdict(twin(*values))


@pytest.mark.parametrize("cls, twin, values, other", _CASES, ids=_CASE_IDS)
def test_a_frozen_type_survives_pickle_and_copy(cls, twin, values, other):
    record = cls(*values)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == repr(record)
