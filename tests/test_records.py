"""The value contract of the public records built on hot paths, and of the
dataclasses that ``dataclasses.replace`` serves."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from tmkit.core import StageKind, StageRef
from tmkit.dsl import SourceSpan
from tmkit.sim import Scenario, SimState, Token, TraceEntry, init_state, step

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
    assert not a == b and not b == a


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
