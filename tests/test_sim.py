"""Simulator semantics: determinism, branching, gates, conservation, conforms."""

from __future__ import annotations

import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import tmkit.core
import tmkit.sim
from tmkit.cli import corpus_list
from tmkit.core import (
    Chronology,
    Event,
    EventDecl,
    FlowDecl,
    MachineDecl,
    Model,
    RegionFlow,
    RegionNode,
    StageKind,
    StageRef,
    ThingDecl,
    build_model,
    validate,
)
from tmkit.dsl import parse, serialize
from tmkit.events import coverage
from tmkit.render import render_chronology, render_events, render_static
from tmkit.sim import (
    EventTiming,
    Injection,
    Scenario,
    ScenarioError,
    SimState,
    SimulationError,
    Token,
    Trace,
    TraceEntry,
    _tables,
    conforms,
    format_trace,
    init_state,
    load_scenario,
    simulate,
    step,
)

from helpers import (
    SPIN_MODEL,
    SPIN_SCENARIO,
    bench_workloads,
    collector_runs,
    generated_line_events,
    line_events,
    load_corpus_model,
    load_corpus_scenario,
    perpetual_relay,
    sparse_case,
)


def run_corpus(model_name: str, scenario_name: str) -> Trace:
    return simulate(load_corpus_model(model_name), load_corpus_scenario(scenario_name))


# -- scenario parsing -------------------------------------------------------


def test_load_scenario_parses_all_directives():
    scenario = load_scenario(
        "# comment\n"
        "inject water env.transfer @1\n"
        "choose a.transfer b.transfer\n"
        "gate reality.create false\n"
        "max_steps 7\n"
    )
    assert scenario.injections[0].thing == "water"
    assert scenario.injections[0].step == 1
    assert scenario.choices == (("a.transfer", "b.transfer"),)
    assert scenario.gates == (("reality.create", False),)
    assert scenario.max_steps == 7


def test_load_scenario_rejects_garbage():
    with pytest.raises(ScenarioError):
        load_scenario("inject\n")
    with pytest.raises(ScenarioError):
        load_scenario("max_steps zero\n")
    with pytest.raises(ScenarioError):
        load_scenario("inject water env.transfer @0\n")
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario("max_steps 0\n")
    assert str(excinfo.value) == "<scenario>:1: max_steps must be >= 1"
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario("inject x nowhere @1\n")
    assert str(excinfo.value) == (
        "<scenario>:1: stage reference needs machine path and stage kind: 'nowhere'"
    )
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario("inject x a-b.transfer @1")
    assert str(excinfo.value) == "<scenario>:1: bad path segment 'a-b' in 'a-b.transfer'"
    # a step or a step limit is ASCII decimal digits only, though int() reads more
    for line in ("inject x env.transfer @+3", "inject x env.transfer @1_0",
                 "inject x env.transfer @\u0663", "max_steps 1_000", "max_steps +5",
                 "max_steps \u0661\u0660", "max_steps " + "9" * 5000,
                 "inject x env.transfer @" + "9" * 5000):
        with pytest.raises(ScenarioError, match=r"^s\.scn:2: (injection step|max_steps) "
                                                r"needs decimal digits: "):
            load_scenario(f"# plain digits\n{line}\n", "s.scn")


def test_invalid_scenario_keys_are_hard_errors():
    cases = [
        (
            "reservoir",
            Scenario(choices=(("tank.process", "tank.release"),)),
            "choice key 'tank.process' is not a decision point of the model",
        ),
        (
            "kant_ci",
            Scenario(choices=(("person.will.transfer", "person.will.release"),)),
            "choice branch 'person.will.release' is not an outgoing flow of "
            "'person.will.transfer'",
        ),
        (
            "reservoir",
            Scenario(gates=(("nowhere.create", True),)),
            "gate 'nowhere.create' does not name a trigger destination",
        ),
        (
            "reservoir",
            Scenario(injections=(Injection("y", StageRef(("env",), StageKind.TRANSFER), 1),)),
            "injection of unknown thing 'y'",
        ),
        (
            "reservoir",
            Scenario(injections=(
                Injection("water", StageRef(("a",), StageKind.TRANSFER), 1),
            )),
            "injections enter at 'env.transfer', got 'a.transfer'",
        ),
        ("reservoir", Scenario(max_steps=0), "max_steps must be >= 1"),
        (
            "reservoir",
            Scenario(injections=(
                Injection("water", StageRef(("env",), StageKind.TRANSFER), 0),
            ), max_steps=5),
            "injection step must be >= 1",
        ),
    ]
    for model_name, scenario, message in cases:
        model = load_corpus_model(model_name)
        valid = init_state(model, Scenario())
        # a replaced state's step rebuilds its engine, which checks the scenario
        for run in (lambda: simulate(model, scenario), lambda: init_state(model, scenario),
                    lambda: step(model, replace(valid, scenario=scenario))):
            with pytest.raises(ScenarioError) as excinfo:
                run()
            assert str(excinfo.value) == message


_TWO_THING_MINT_MODEL = """\
model mint
thing x
thing b
thing a
machine src
machine gen
flow x env.transfer -> src.transfer
flow b gen.create -> gen.process
flow a gen.create -> gen.release
trigger src.transfer ~> gen.create
event go {
  flow x env.transfer -> src.transfer
  trigger src.transfer ~> gen.create
}
"""


def test_a_create_trigger_mints_its_things_in_out_flow_order():
    # gen.create has out-flows of b, then a: the trigger mints b first.
    model = parse(_TWO_THING_MINT_MODEL).model
    trace = simulate(model, load_scenario("inject x env.transfer @1\n"))
    mints = [e.detail for e in trace.entries if e.kind == "create" and "via t1" in e.detail]
    assert mints == ["b @ gen.create via t1", "a @ gen.create via t1"]


def test_an_event_mints_its_entry_things_in_declaration_order_not_name_order():
    model = parse(
        "model m\nthing zed\nthing abe\nmachine m\n"
        "flow zed m.create -> m.release\nflow abe m.create -> m.process\n"
        "event e {\n  flow zed m.create -> m.release\n  flow abe m.create -> m.process\n}\n"
    ).model
    mints = [(e.subject, e.detail) for e in simulate(model, Scenario()).entries
             if e.kind == "create"]
    assert mints == [("tok1", "zed @ m.create via e"), ("tok2", "abe @ m.create via e")]


# -- region walk ------------------------------------------------------------


def test_a_region_that_never_settles_is_e402():
    model = parse(SPIN_MODEL).model
    with pytest.raises(SimulationError) as info:
        simulate(model, load_scenario(SPIN_SCENARIO))
    diagnostic = info.value.diagnostic
    assert (diagnostic.code, diagnostic.location) == ("E402", "spin")
    assert diagnostic.message == "event 'spin' did not run to completion"


_REGION_BRANCH_MODEL = """\
model branch
thing x
machine a
machine b
machine c
machine d
flow x env.transfer -> a.transfer
flow x a.transfer -> b.transfer
flow x a.transfer -> c.transfer
flow x a.transfer -> d.transfer
event route {
  flow x env.transfer -> a.transfer
  flow x a.transfer -> b.transfer
  flow x a.transfer -> c.transfer
}
"""


def test_a_choice_outside_the_region_is_e401():
    # d.transfer is a branch of the model's decision point, so the scenario
    # is valid, but the region only holds the flows to b and c.
    model = parse(_REGION_BRANCH_MODEL).model
    scenario = load_scenario("inject x env.transfer @1\nchoose a.transfer d.transfer\n")
    with pytest.raises(SimulationError) as info:
        simulate(model, scenario)
    diagnostic = info.value.diagnostic
    assert (diagnostic.code, diagnostic.location) == ("E401", "a.transfer")
    assert diagnostic.message == (
        "choice branch 'd.transfer' does not match a region flow at 'a.transfer'"
    )


_NODE_EVENT_MODEL = """\
model watch
thing x
machine a
machine b
flow x env.transfer -> a.transfer
flow x a.transfer -> b.transfer
event arrive {
  flow x env.transfer -> a.transfer
}
event notice {
  node a.transfer
}
event leave {
  flow x a.transfer -> b.transfer
}
chronology {
  arrive -> notice
  notice -> leave
}
"""


def test_a_node_only_event_fires_when_its_stage_is_occupied():
    model = parse(_NODE_EVENT_MODEL).model
    trace = simulate(model, load_scenario("inject x env.transfer @1\n"))
    assert trace.fired_events == ("arrive", "notice", "leave")
    notice = [(e.step, e.kind) for e in trace.entries if e.subject == "notice"]
    assert notice == [(2, "event_start"), (2, "event_end")]
    assert trace.timings["leave"].received_at == 3


_SPLIT_FANOUT_MODEL = """\
model split
thing x
thing y
machine a
machine b
machine c
machine t
flow x env.transfer -> a.transfer
flow x a.transfer -> b.transfer
flow x a.transfer -> c.transfer
flow y t.create -> t.release
trigger a.transfer ~> t.create
event go {
  flow x env.transfer -> a.transfer
  flow x a.transfer -> b.transfer
  trigger a.transfer ~> t.create
  flow x a.transfer -> c.transfer
}
"""


def test_a_fanout_group_moves_at_its_first_flow():
    # The trigger sits between the two flows out of a.transfer; the token
    # leaves at the first of them, so the trigger never sees it.
    model = parse(_SPLIT_FANOUT_MODEL).model
    scenario = load_scenario("inject x env.transfer @1\nchoose a.transfer c.transfer\n")
    trace = simulate(model, scenario)
    assert [(e.kind, e.detail) for e in trace.entries if e.subject == "tok1"][1:] == [
        ("transfer", "x: env.transfer -> a.transfer"),
        ("transfer", "x: a.transfer -> c.transfer"),
    ]
    assert not any(e.kind == "trigger" for e in trace.entries)
    assert trace.terminated == "quiescent"


def test_the_region_table_is_built_once_per_model():
    model = load_corpus_model("murderer")
    # the static checks and views read no simulator table
    validate(model, lax=True)
    serialize(model)
    for view in (render_static, render_events, render_chronology):
        view(model)
    coverage(model)
    assert "_sim_tables" not in vars(model)
    scenario = load_corpus_scenario("murderer_truth")
    simulate(model, scenario)
    tables = vars(model)["_sim_tables"]
    state = init_state(model, scenario)
    for _ in range(scenario.max_steps):
        state, _ = step(model, state)
    simulate(model, scenario)
    assert vars(model)["_sim_tables"] is tables
    assert len(tables[0]) == len(model.events) > 1
    # a later read returns the kept tables without building them again
    assert line_events(tmkit.sim, lambda: _tables(model)) <= 3


def test_a_region_node_no_edge_touches_gives_its_event_no_work():
    # Only a hand-built model has such a node (attach_event rejects it with
    # E301). No flow can bring a token to its stage, so the run is the run of
    # the same model without it.
    model = load_corpus_model("murderer")
    victim = model.root_machines[0]
    flows = model.flows[:2]
    node = RegionNode(StageRef(victim.path, StageKind.PROCESS))
    edges = tuple(RegionFlow(flow.id) for flow in flows)
    bare = replace(model, things=model.things[:1], root_machines=(victim,), flows=flows,
                   triggers=(), events=(Event("hidden", items=edges),), chronology=None)
    hand = replace(bare, events=(Event("hidden", items=(node, *edges)),))
    assert node.ref not in hand.stages
    trace = simulate(bare, Scenario(), lax=True)
    assert trace.fired_events == ("hidden",) and trace.entries
    assert simulate(hand, Scenario(), lax=True) == trace
    first = step(bare, init_state(bare, Scenario(), lax=True))
    assert step(hand, init_state(hand, Scenario(), lax=True)) == first


# -- the trivial cases ------------------------------------------------------


def test_empty_model_is_quiescent_at_step_zero():
    model = parse("model empty").model
    trace = simulate(model, Scenario(max_steps=10))
    assert trace.entries == ()
    assert trace.fired_events == ()
    assert trace.terminated == "quiescent"


def test_stepping_a_quiescent_state_is_a_fixed_point():
    model = parse("model empty").model
    state = init_state(model, Scenario(max_steps=5))
    state1, entries1 = step(model, state)
    assert entries1 == []
    assert state1.quiescent
    state2, entries2 = step(model, state1)
    assert entries2 == []
    assert state2 == state1


def test_step_does_not_mutate_its_input_state():
    model = load_corpus_model("reservoir")
    scenario = load_corpus_scenario("reservoir")
    state = init_state(model, scenario)
    first_state, first_entries = step(model, state)
    again_state, again_entries = step(model, state)
    assert first_entries == again_entries
    assert first_state == again_state
    assert state.tokens == () and state.timings == ()


def _step_chain(model, state, steps, prepare=lambda state: state):
    """States and entries of ``steps`` steps, each input passed through prepare."""
    out = []
    for _ in range(steps):
        state, entries = step(model, prepare(state))
        out.append((state, entries))
    return out


def test_stepping_the_same_older_state_twice_is_identical():
    model = load_corpus_model("reservoir")
    state = init_state(model, load_corpus_scenario("reservoir"))
    older, _ = step(model, state)
    first = step(model, older)
    second = step(model, older)
    assert first == second and first[1]


def test_stepping_an_older_state_after_the_chain_moved_on_is_identical():
    model, scenario = perpetual_relay(20, 30)
    chain = _step_chain(model, init_state(model, scenario), 12)
    for (older, _), later in zip(chain, chain[1:]):
        assert step(model, older) == later


@pytest.mark.parametrize(
    "prepare", [replace, copy.copy, lambda s: pickle.loads(pickle.dumps(s))]
)
def test_copied_states_step_like_fresh_engines(prepare):
    # A copy never carries the engine handle, so every step here rebuilds.
    model, scenario = perpetual_relay(20, 30)
    start = init_state(model, scenario)
    assert _step_chain(model, start, 25, prepare) == _step_chain(model, start, 25)


def test_copies_of_a_live_state_rebuild_and_leave_its_engine_to_it(monkeypatch):
    # Only the state step returned holds its engine's handle: each copy must
    # rebuild, and the original must still resume the engine untouched.
    model, scenario = perpetual_relay(20, 30)
    start = init_state(model, scenario)
    expected = _step_chain(model, start, 4)[-1]
    live = _step_chain(model, start, 3)[-1][0]
    built = []
    init = tmkit.sim._Engine.__init__
    monkeypatch.setattr(tmkit.sim._Engine, "__init__",
                        lambda engine, *args: built.append(init(engine, *args)))
    copies = (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)), replace)
    for prepare in copies:
        assert step(model, prepare(live)) == expected
    assert len(built) == len(copies)
    assert step(model, live) == expected
    assert len(built) == len(copies)


def test_the_first_step_resumes_the_engine_init_state_built(monkeypatch):
    # init_state builds and checks the engine and hands it to the first step.
    model, scenario = perpetual_relay(20, 30)
    built = []
    init = tmkit.sim._Engine.__init__
    monkeypatch.setattr(tmkit.sim._Engine, "__init__",
                        lambda engine, *args: built.append(init(engine, *args)))
    start = init_state(model, scenario)
    assert len(built) == 1
    chain = _step_chain(model, start, 3)
    assert len(built) == 1
    monkeypatch.undo()
    assert chain == _step_chain(model, replace(start), 3)


def _chain_relay(n: int) -> tuple[Model, Scenario, list]:
    """The benchmark's relay, a chain of n one-shot events with one fired per
    step, and its step chain from the initial state to quiescence."""
    inputs = bench_workloads().relay(n)
    (case,) = inputs.sims
    model, scenario = parse(inputs.models[case.model]).model, load_scenario(case.scenario)
    chain = _step_chain(model, init_state(model, scenario), case.steps)
    assert chain[-1][0].quiescent and not chain[-2][0].quiescent
    return model, scenario, chain


def _timings_of(entries) -> dict[str, EventTiming]:
    """Each event's timing as the event_start and event_end entries give it."""
    timings = {}
    for e in entries:
        if e.kind == "event_start":
            timings[e.subject] = EventTiming(e.step)
        elif e.kind == "event_end":
            timings[e.subject] = EventTiming(timings[e.subject].received_at, e.step)
    return timings


def test_a_one_shot_relay_and_its_copies_step_through_simulates_timings():
    # perpetual_relay's timings stop changing after its first steps; here one
    # event fires and ends in every step, so the timings grow all run long.
    model, scenario, chain = _chain_relay(50)
    trace = simulate(model, scenario)
    for state, _ in chain:
        prefix = [e for e in trace.entries if e.step <= state.step_no]
        timings = _timings_of(prefix)
        assert dict(state.timings) == timings
        assert tuple(name for name, _ in state.timings) == tuple(timings)
        ended = {name for name, t in state.timings if t.released_at is not None}
        assert ended == {e.subject for e in prefix if e.kind == "event_end"}
    assert dict(chain[-1][0].timings) == trace.timings
    copies = (replace, copy.copy, lambda s: pickle.loads(pickle.dumps(s)))
    for (state, _), later in zip(chain, chain[1:]):
        for prepare in copies:
            assert step(model, prepare(state)) == later


def test_step_snapshots_share_their_timing_pairs():
    # A snapshot that paired every fired event with its timing anew would
    # make one pair per fired event per step: about n*n/2 over a chain of n
    # events. Built when its event fires and again when it ends, each pair
    # is shared by every later snapshot, so a run makes at most 2n.
    model, _, chain = _chain_relay(200)
    events = len(model.events)
    assert len(chain[-1][0].timings) == events
    pairs = len({id(pair) for state, _ in chain for pair in state.timings})
    assert pairs <= 2 * events, f"{pairs} timing pairs for {events} events"


def _relay(n: int) -> tuple[Model, Scenario]:
    """The benchmark's relay of n machines and its scenario."""
    inputs = bench_workloads().relay(n)
    (case,) = inputs.sims
    return parse(inputs.models[case.model]).model, load_scenario(case.scenario)


def test_each_fired_event_builds_one_timing(monkeypatch):
    # A one-shot event ends in the step it fires in, or the run raises, so
    # its final pair is built once, when it fires.
    model, scenario = _relay(40)
    built = []
    monkeypatch.setattr(tmkit.sim, "EventTiming",
                        lambda *args, **kw: built.append(EventTiming(*args, **kw)) or built[-1])
    trace = simulate(model, scenario)
    assert len(trace.fired_events) == 40
    assert len(built) == 40
    assert list(trace.timings.values()) == built


def test_a_step_loop_runs_the_state_init_once(monkeypatch):
    # init_state builds its state through SimState.__init__; each step's
    # snapshot fills the instance dict in one write instead.
    model, scenario = _relay(40)
    calls = []
    init = SimState.__init__
    monkeypatch.setattr(SimState, "__init__", lambda *args, **kw: calls.append(init(*args, **kw)))
    state = init_state(model, scenario)
    while not state.quiescent:
        state, _ = step(model, state)
    assert state.step_no == 41
    assert len(calls) == 1


def test_step_snapshots_are_twins_of_states_built_from_their_fields():
    # A snapshot skips SimState.__init__, so it must still compare, hash,
    # print, pickle and copy as the state __init__ builds from its fields.
    cases = [(load_corpus_model(entry.name), load_scenario(path.read_text()))
             for entry in corpus_list() for path in entry.scenarios]
    assert len(cases) == 8
    cases.append(_relay(40))
    checked = 0
    for model, scenario in cases:
        state = init_state(model, scenario)
        while True:
            twin = SimState(**{name: getattr(state, name) for name in SimState.__match_args__})
            assert "_engine" in vars(state) and "_engine" not in vars(twin)
            assert state == twin and hash(state) == hash(twin)
            assert repr(state) == repr(twin)
            assert pickle.dumps(state) == pickle.dumps(twin)
            copied = copy.copy(state)
            assert vars(copied) == vars(twin) and list(vars(copied)) == list(vars(twin))
            checked += 1
            if state.quiescent or state.step_no >= scenario.max_steps:
                break
            state, _ = step(model, state)
    assert checked > 50  # the relay chain alone has 42 states


def test_unread_step_snapshots_are_twins_of_states_built_from_their_fields():
    # A snapshot builds its timings on their first read. Each operation runs
    # on snapshots no one has read yet, and a chain stepped in lockstep gives
    # the twin built from the fields.
    assert SimState.timings == ()
    cases = [(load_corpus_model(entry.name), load_scenario(path.read_text()))
             for entry in corpus_list() for path in entry.scenarios]
    cases.append(_relay(40))
    ops = {
        "pickle": pickle.dumps,
        "copy": lambda state: list(vars(copy.copy(state)).items()),
        "deepcopy": lambda state: list(vars(copy.deepcopy(state)).items()),
        "==": lambda state: state,
        "hash": hash,
        "repr": repr,
    }
    for model, scenario in cases:
        for name, op in ops.items():
            state = other = init_state(model, scenario)
            for _ in range(min(scenario.max_steps, 60)):
                state, _ = step(model, state)
                other, _ = step(model, other)
                assert "timings" not in vars(state)
                twin = SimState(**{n: getattr(other, n) for n in SimState.__match_args__})
                assert op(state) == op(twin), (name, state.step_no)
                if state.quiescent:
                    break


def test_an_older_snapshot_reads_its_own_timings_after_its_engine_moved_on():
    model, scenario = _relay(40)
    states, entries = [init_state(model, scenario)], []
    for _ in range(30):
        state, new = step(model, states[-1])
        states.append(state)
        entries.append(new)
    assert not any("timings" in vars(state) for state in states[1:])
    for k, state in enumerate(states[:-10]):
        prefix = [e for new in entries[:k] for e in new]
        assert state.timings == tuple(_timings_of(prefix).items())
        assert state.timings is state.timings  # built once, then kept


def test_step_snapshots_hold_no_timing_pairs_until_read():
    # Each snapshot's timings are a prefix of its engine's append-only log of
    # fired events. A snapshot that copied them would hold a pair per fired
    # event per step: 20,300 over relay(200)'s 201 snapshots.
    model, scenario = _relay(200)
    states, entries = [init_state(model, scenario)], [[]]
    while not states[-1].quiescent:
        state, new = step(model, states[-1])
        len(state.tokens)  # as the benchmark's step loop reads it
        states.append(state)
        entries.append(entries[-1] + new)
    assert len(states) == 202
    held = sum(len(vars(state).get("timings", ())) for state in states)
    assert held == 0, f"{held} timing pairs held before any read"
    for state, prefix in zip(states, entries):
        assert state.timings == tuple(_timings_of(prefix).items())


_PICKLE_IN_CHILD = """
import pickle, sys
from helpers import load_corpus_model, load_corpus_scenario
from tmkit.sim import init_state, step
model = load_corpus_model("reservoir")
state = init_state(model, load_corpus_scenario("reservoir"))
for _ in range(3):
    state, _ = step(model, state)
sys.stdout.buffer.write(pickle.dumps((list(model.stages), state)))
"""


def test_stage_refs_and_states_pickled_in_another_process_find_their_stages():
    # str hashes differ between processes. A StageRef or SimState pickled
    # under another hash seed must still find its Model.stages records here,
    # so no hash may travel inside a pickle.
    paths = (Path(tmkit.core.__file__).parents[1], Path(__file__).parent)
    env = dict(os.environ, PYTHONHASHSEED="4242",
               PYTHONPATH=os.pathsep.join(str(path) for path in paths))
    done = subprocess.run([sys.executable, "-c", _PICKLE_IN_CHILD], env=env,
                          capture_output=True, check=True, timeout=60)
    refs, restored = pickle.loads(done.stdout)
    model = load_corpus_model("reservoir")
    assert [model.stages[ref].ref for ref in refs] == list(model.stages)
    state = init_state(model, load_corpus_scenario("reservoir"))
    for _ in range(3):
        state, _ = step(model, state)
    assert restored == state
    assert all(token.at in model.stages for token in restored.tokens)
    assert step(model, restored) == step(model, state)


def test_an_equal_reparsed_model_steps_like_a_fresh_engine():
    model, scenario = perpetual_relay(20, 30)
    twin, _ = perpetual_relay(20, 30)
    assert twin == model and twin is not model
    start = init_state(model, scenario)
    # Alternating the two models never lets a step continue the engine
    # of the step before.
    alternating = []
    state = start
    for i in range(25):
        state, entries = step(twin if i % 2 else model, state)
        alternating.append((state, entries))
    assert alternating == _step_chain(model, start, 25)


def test_a_rebuilt_engine_refuses_the_model_init_state_refuses():
    murderer = load_corpus_model("murderer")
    ghost = replace(murderer, events=(Event("ghost", items=(RegionFlow("f999"),)),),
                    chronology=None)
    with pytest.raises(ValueError) as refused:
        init_state(ghost, Scenario(), lax=True)
    with pytest.raises(ValueError) as stepped:
        step(ghost, init_state(murderer, Scenario()))
    assert type(stepped.value) is type(refused.value)
    assert str(stepped.value) == str(refused.value) and "E301" in str(refused.value)
    # the check is lax: a model only lax validation admits still steps when rebuilt
    shortcut = build_model("shortcut", [
        ThingDecl("water"), MachineDecl("tank"), MachineDecl("processor"),
        FlowDecl("water", "env.transfer", "tank.process"),
        FlowDecl("water", "tank.process", "processor.receive"),
        EventDecl("pour", items=(FlowDecl("water", "env.transfer", "tank.process"),
                                 FlowDecl("water", "tank.process", "processor.receive"))),
    ])
    assert {d.code for d in validate(shortcut) if d.is_error} == {"E103"}
    state = init_state(shortcut, load_scenario("inject water env.transfer @1\n"), lax=True)
    resumed, entries = step(shortcut, state)
    assert step(shortcut, copy.copy(state)) == (resumed, entries)
    assert [e.kind for e in entries] == ["create", "event_start", "process", "receive",
                                         "event_end"]


@pytest.mark.parametrize(
    "model_text,scenario_text,code",
    [
        (SPIN_MODEL, SPIN_SCENARIO.replace("@1", "@2"), "E402"),
        (None, "max_steps 12\n", "E401"),
    ],
)
def test_restepping_the_input_of_a_failed_step_fails_the_same_way(
    model_text, scenario_text, code
):
    model = load_corpus_model("kant_ci") if model_text is None else parse(model_text).model
    state = init_state(model, load_scenario(scenario_text))
    while True:
        try:
            state, _ = step(model, state)
        except SimulationError as exc:
            first = exc.diagnostic
            break
    assert state.step_no >= 1 and first.code == code
    with pytest.raises(SimulationError) as again:
        step(model, state)
    assert again.value.diagnostic == first


# a.transfer fans out to b.transfer and c.transfer, and each of those to its
# own receive and to env.transfer: three decision points, keyed in that order
_THREE_DECISIONS_MODEL = """\
model fan
thing x
machine a
machine b
machine c
flow x env.transfer -> a.transfer
flow x a.transfer -> b.transfer
flow x a.transfer -> c.transfer
flow x b.transfer -> b.receive
flow x b.transfer -> env.transfer
flow x c.transfer -> c.receive
flow x c.transfer -> env.transfer
event go perpetual {
  flow x env.transfer -> a.transfer
  flow x a.transfer -> b.transfer
  flow x a.transfer -> c.transfer
  flow x b.transfer -> b.receive
  flow x b.transfer -> env.transfer
  flow x c.transfer -> c.receive
  flow x c.transfer -> env.transfer
}
"""
_THREE_DECISIONS_SCENARIO = """\
inject x env.transfer @1
inject x env.transfer @2
choose a.transfer c.transfer
choose a.transfer b.transfer
choose b.transfer b.receive
choose c.transfer c.receive
max_steps 3
"""


def test_a_state_needs_a_choice_count_per_decision_point():
    # Counts zipped onto the keys would drop the keys past a short tuple and
    # append them as first taken: (0,) stepped once read (1, 1), charging
    # c.transfer's choice to b.transfer.
    model = parse(_THREE_DECISIONS_MODEL).model
    scenario = load_scenario(_THREE_DECISIONS_SCENARIO)
    for taken in ((0,), (0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError, match="choice_taken") as refused:
            step(model, SimState(scenario, choice_taken=taken))
        assert type(refused.value) is ValueError
    # () means that no choice has been taken, as a zero per decision point does
    first, entries = step(model, SimState(scenario))
    assert step(model, SimState(scenario, choice_taken=(0, 0, 0))) == (first, entries)
    assert first.choice_taken == (1, 0, 1)
    assert step(model, replace(first)) == step(model, first)


def test_a_state_with_a_negative_choice_count_is_refused():
    # An index from the end: (-1, 0, 0) took a.transfer's last choice.
    model = parse(_THREE_DECISIONS_MODEL).model
    scenario = load_scenario(_THREE_DECISIONS_SCENARIO)
    with pytest.raises(ValueError, match="choice_taken") as refused:
        step(model, SimState(scenario, choice_taken=(-1, 0, 0)))
    assert type(refused.value) is ValueError


def test_a_state_whose_next_token_is_not_above_a_live_token_is_refused():
    # Rebuilt from next_token=1, reservoir's second step minted a second tok1
    # and ended with 2 tokens where the unbroken chain holds 3.
    model = load_corpus_model("reservoir")
    state, _ = step(model, init_state(model, load_corpus_scenario("reservoir")))
    assert [t.id for t in state.tokens] == ["tok1", "tok2"] and state.next_token == 3
    for next_token in (1, 2):
        with pytest.raises(ValueError, match=f"next_token {next_token} .* 'tok") as refused:
            step(model, replace(state, next_token=next_token))
        assert type(refused.value) is ValueError
    assert len(step(model, replace(state))[0].tokens) == 3


def test_a_state_holding_a_token_twice_is_refused():
    # Rebuilt with tok1 twice, reservoir's second step moved it twice: 26
    # entries where the unbroken chain makes 21.
    model = load_corpus_model("reservoir")
    state, _ = step(model, init_state(model, load_corpus_scenario("reservoir")))
    first, second = state.tokens
    with pytest.raises(ValueError, match="tokens hold 'tok1' twice") as refused:
        step(model, replace(state, tokens=(first, first, second)))
    assert type(refused.value) is ValueError
    assert len(step(model, replace(state))[1]) == 21


def test_a_state_holding_a_token_of_an_unknown_thing_is_refused():
    # Rebuilt with tok2 a "ghost", reservoir's second step carried it along
    # and made 16 entries where the unbroken chain makes 21.
    model = load_corpus_model("reservoir")
    state, _ = step(model, init_state(model, load_corpus_scenario("reservoir")))
    first, second = state.tokens
    ghost = second._replace(thing="ghost")
    with pytest.raises(ValueError, match="tokens hold 'tok2' of unknown thing 'ghost'") as refused:
        step(model, replace(state, tokens=(first, ghost)))
    assert type(refused.value) is ValueError


def test_a_state_whose_timings_name_no_event_is_refused():
    model = load_corpus_model("reservoir")
    state, _ = step(model, init_state(model, load_corpus_scenario("reservoir")))
    timings = state.timings + (("nosuch", state.timings[0][1]),)
    with pytest.raises(ValueError, match="timings name 'nosuch'") as refused:
        step(model, replace(state, timings=timings))
    assert type(refused.value) is ValueError


def test_a_state_whose_timings_repeat_an_event_is_refused():
    model = load_corpus_model("reservoir")
    state, _ = step(model, init_state(model, load_corpus_scenario("reservoir")))
    (pair,) = state.timings
    with pytest.raises(ValueError, match=f"timings hold '{pair[0]}' twice") as refused:
        step(model, replace(state, timings=(pair, pair)))
    assert type(refused.value) is ValueError
    assert len(step(model, replace(state, timings=(pair,)))[1]) == 21


def test_a_returned_entries_list_is_unchanged_by_later_steps():
    model, scenario = perpetual_relay(20, 30)
    chain = _step_chain(model, init_state(model, scenario), 10)
    kept = [list(entries) for _, entries in chain]
    _step_chain(model, chain[-1][0], 10)
    assert [entries for _, entries in chain] == kept
    assert all(e.step == i + 1 for i, (_, entries) in enumerate(chain) for e in entries)


def test_n_steps_equal_simulate_prefix():
    model = load_corpus_model("reservoir")
    scenario = load_corpus_scenario("reservoir")
    for n in (1, 3, 7):
        state = init_state(model, scenario)
        collected = []
        for _ in range(n):
            state, entries = step(model, state)
            collected.extend(entries)
        trace_n = simulate(
            model,
            Scenario(scenario.injections, scenario.choices, scenario.gates, n),
        )
        assert tuple(collected) == trace_n.entries


# -- reservoir --------------------------------------------------------------


def test_reservoir_first_entries_are_injection_then_receive_at_valve():
    trace = run_corpus("reservoir", "reservoir")
    assert trace.entries[0].kind == "create"
    assert "injection" in trace.entries[0].detail
    first_receive = next(e for e in trace.entries if e.kind == "receive")
    assert "valve.receive" in first_receive.detail


def test_reservoir_control_loop_runs_to_step_limit():
    trace = run_corpus("reservoir", "reservoir")
    assert trace.terminated == "step_limit"
    kinds = [e.kind for e in trace.entries]
    assert "trigger" in kinds
    subjects = {e.subject for e in trace.entries if e.kind == "trigger"}
    assert subjects == {"t1", "t2"}
    details = {e.detail for e in trace.entries if e.kind == "trigger"}
    assert "processor.process ~> decider.create" in details
    assert "decider.process ~> valve.control.process" in details


def test_reservoir_cycle_create_level_trigger_transfer_to_control():
    trace = run_corpus("reservoir", "reservoir")
    entries = list(trace.entries)
    i_level = next(
        i for i, e in enumerate(entries)
        if e.kind == "create" and e.detail.startswith("level @")
    )
    i_trigger = next(
        i for i, e in enumerate(entries)
        if i > i_level and e.kind == "trigger" and "decider.create" in e.detail
    )
    next(
        i for i, e in enumerate(entries)
        if i > i_trigger and e.kind == "transfer"
        and "valve.control.transfer" in e.detail
    )


def test_reservoir_conforms_to_its_chronology():
    model = load_corpus_model("reservoir")
    trace = run_corpus("reservoir", "reservoir")
    assert conforms(trace, model.chronology)


# -- kant -------------------------------------------------------------------


def test_kant_agree_fires_implement_last():
    trace = run_corpus("kant_ci", "kant_agree")
    assert trace.fired_events[-1] == "action_implemented"
    assert trace.terminated == "step_limit"


def test_kant_disagree_omits_implement():
    trace = run_corpus("kant_ci", "kant_disagree")
    assert "action_implemented" not in trace.fired_events
    assert trace.terminated == "step_limit"


def test_kant_universe_is_perpetual_and_never_releases_time():
    model = load_corpus_model("kant_ci")
    assert model.events_by_name["universe_runs"].perpetual
    trace = run_corpus("kant_ci", "kant_agree")
    assert trace.timings["universe_runs"].released_at is None
    assert trace.timings["action_intended"].released_at is not None
    assert not any(
        e.kind == "event_end" and e.subject == "universe_runs" for e in trace.entries
    )


def test_kant_traces_share_prefix_up_to_the_choice():
    agree = run_corpus("kant_ci", "kant_agree").entries
    disagree = run_corpus("kant_ci", "kant_disagree").entries
    lcp = 0
    while lcp < min(len(agree), len(disagree)) and agree[lcp] == disagree[lcp]:
        lcp += 1
    first_choice = next(i for i, e in enumerate(agree) if e.kind == "choice")
    assert lcp == first_choice


def test_kant_missing_choice_is_e401():
    model = load_corpus_model("kant_ci")
    with pytest.raises(SimulationError) as excinfo:
        simulate(model, Scenario(max_steps=12))
    assert excinfo.value.diagnostic.code == "E401"


# -- murderer ---------------------------------------------------------------


def test_murderer_both_universalizations_fire_in_both_runs():
    for scenario in ("murderer_truth", "murderer_lie"):
        trace = run_corpus("murderer", scenario)
        assert "e6" in trace.fired_events
        assert "e7" in trace.fired_events


def test_murderer_truth_includes_the_mental_picture_event():
    trace = run_corpus("murderer", "murderer_truth")
    assert "e3" in trace.fired_events
    assert any(
        e.kind == "create" and e.detail.startswith("picture @") for e in trace.entries
    )


def test_murderer_scenarios_diverge_only_at_the_e8_choice():
    truth = run_corpus("murderer", "murderer_truth").entries
    lie = run_corpus("murderer", "murderer_lie").entries
    lcp = 0
    while lcp < min(len(truth), len(lie)) and truth[lcp] == lie[lcp]:
        lcp += 1
    assert truth[lcp].kind == "choice"
    assert truth[lcp].subject == "agent.will.transfer"


def test_murderer_truth_reaches_the_murderer_with_the_answer():
    trace = run_corpus("murderer", "murderer_truth")
    assert any(
        e.kind == "trigger" and "agent.truth.process" in e.detail
        for e in trace.entries
    )
    assert any("murderer.ears.receive" in e.detail for e in trace.entries)


def test_murderer_lie_uses_the_lying_branch():
    trace = run_corpus("murderer", "murderer_lie")
    assert any(
        e.kind == "trigger" and "agent.lie.process" in e.detail for e in trace.entries
    )
    assert not any(
        e.kind == "trigger" and "agent.truth.process" in e.detail
        for e in trace.entries
    )


def test_murderer_conforms_and_forged_order_does_not():
    model = load_corpus_model("murderer")
    trace = run_corpus("murderer", "murderer_truth")
    assert conforms(trace, model.chronology)
    forged = Trace(
        entries=(),
        fired_events=("e1", "e2", "e3", "e8", "e4", "e5a", "e5b", "e6", "e7", "e9"),
        terminated="quiescent",
    )
    assert not conforms(forged, model.chronology)


def test_conforms_empty_trace_is_vacuous():
    model = load_corpus_model("murderer")
    empty = Trace(entries=(), fired_events=(), terminated="quiescent")
    assert conforms(empty, model.chronology)


def test_conforms_unknown_event_is_hard_error():
    model = load_corpus_model("murderer")
    bogus = Trace(entries=(), fired_events=("nope",), terminated="quiescent")
    with pytest.raises(ValueError):
        conforms(bogus, model.chronology)


def _conforms_by_brute_force(fired: tuple[str, ...], nodes, edges) -> bool:
    # The fired events must be closed under predecessors and, taken in the
    # order of their last firings, be one of the orders of that set that
    # respect every edge inside it, found by trying every permutation.
    if any(name not in nodes for name in fired):
        raise ValueError("unknown event")
    order = tuple(dict.fromkeys(reversed(fired)))[::-1]
    chosen = set(order)
    if any(b in chosen and a not in chosen for a, b in edges):
        return False
    inside = [(a, b) for a, b in edges if a in chosen and b in chosen]
    allowed = {
        p
        for p in itertools.permutations(order)
        if all(p.index(a) < p.index(b) for a, b in inside)
    }
    return order in allowed


def test_conforms_matches_a_brute_force_oracle():
    # Small random chronologies, cyclic ones and self-loops included, against
    # fired sequences with and without repeats and random perpetual sets.
    rng = random.Random(8)
    outcomes = set()
    for _ in range(3000):
        nodes = tuple(f"e{i}" for i in range(rng.randint(1, 5)))
        if rng.random() < 0.5:
            ranked = rng.sample(nodes, len(nodes))
            pairs = itertools.combinations(ranked, 2)
        else:
            pairs = itertools.product(nodes, repeat=2)
        edges = tuple(pair for pair in pairs if rng.random() < 0.3)
        if rng.random() < 0.7:
            fired = tuple(rng.sample(nodes, rng.randint(0, len(nodes))))
        else:
            fired = tuple(rng.choices(nodes, k=rng.randint(0, len(nodes) + 2)))
        if rng.random() < 0.02:
            fired += ("unknown",)
        trace = Trace(
            entries=(),
            fired_events=fired,
            terminated="quiescent",
        )
        chronology = Chronology(nodes=nodes, edges=edges)
        try:
            expected = _conforms_by_brute_force(fired, nodes, edges)
        except ValueError:
            with pytest.raises(ValueError):
                conforms(trace, chronology)
            outcomes.add("error")
            continue
        assert conforms(trace, chronology) == expected, (nodes, edges, trace)
        outcomes.add(expected)
    assert outcomes == {True, False, "error"}


# -- islamic ----------------------------------------------------------------


def test_islamic_gate_false_blocks_actualization():
    trace = run_corpus("islamic", "islamic_gate_false")
    assert "e9_actualized" not in trace.fired_events
    assert not any("reality" in e.detail for e in trace.entries if e.kind == "create")
    gate_entries = [e for e in trace.entries if e.kind == "gate"]
    assert gate_entries == [
        e for e in trace.entries if e.kind == "gate" and e.detail == "false"
    ]


def test_islamic_gate_true_actualizes_last():
    trace = run_corpus("islamic", "islamic_gate_true")
    assert trace.fired_events[-1] == "e9_actualized"
    assert trace.terminated == "quiescent"
    assert any(e.kind == "gate" and e.detail == "true" for e in trace.entries)


def test_the_first_line_for_a_gate_wins():
    model = load_corpus_model("islamic")
    scenario = load_corpus_scenario("islamic_gate_true")
    doubled = replace(scenario, gates=scenario.gates + (("reality.create", False),))
    assert format_trace(simulate(model, doubled)) == format_trace(
        simulate(model, scenario)
    )


def test_islamic_abstain_never_reaches_the_divine_gate():
    trace = run_corpus("islamic", "islamic_abstain")
    assert "e8_divine_will" not in trace.fired_events
    assert "e9_actualized" not in trace.fired_events


# -- cross-cutting invariants -------------------------------------------------


CORPUS_RUNS = [
    ("reservoir", "reservoir"),
    ("kant_ci", "kant_agree"),
    ("kant_ci", "kant_disagree"),
    ("murderer", "murderer_truth"),
    ("murderer", "murderer_lie"),
    ("islamic", "islamic_gate_true"),
    ("islamic", "islamic_gate_false"),
    ("islamic", "islamic_abstain"),
]


@pytest.mark.parametrize("model_name,scenario_name", CORPUS_RUNS)
def test_simulate_is_deterministic(model_name, scenario_name):
    first = format_trace(run_corpus(model_name, scenario_name))
    second = format_trace(run_corpus(model_name, scenario_name))
    assert first == second


@pytest.mark.parametrize("model_name,scenario_name", CORPUS_RUNS)
def test_every_corpus_trace_conforms(model_name, scenario_name):
    model = load_corpus_model(model_name)
    trace = run_corpus(model_name, scenario_name)
    assert conforms(trace, model.chronology)


@pytest.mark.parametrize("model_name,scenario_name", CORPUS_RUNS)
def test_token_conservation(model_name, scenario_name):
    model = load_corpus_model(model_name)
    scenario = load_corpus_scenario(scenario_name)
    state = init_state(model, scenario)
    created = departed = 0
    for _ in range(scenario.max_steps):
        state, entries = step(model, state)
        for entry in entries:
            if entry.kind == "create":
                created += 1
            elif entry.kind == "transfer" and entry.detail.endswith("-> env.transfer"):
                departed += 1
        assert created - departed == len(state.tokens)
        if state.quiescent:
            break


@pytest.mark.parametrize("model_name,scenario_name", CORPUS_RUNS)
def test_steps_never_exceed_max_steps(model_name, scenario_name):
    scenario = load_corpus_scenario(scenario_name)
    trace = run_corpus(model_name, scenario_name)
    assert all(e.step <= scenario.max_steps for e in trace.entries)


@pytest.mark.parametrize("model_name,scenario_name", CORPUS_RUNS)
def test_event_start_end_properly_nested(model_name, scenario_name):
    trace = run_corpus(model_name, scenario_name)
    open_events: list[str] = []
    for entry in trace.entries:
        if entry.kind == "event_start" and entry.detail != "perpetual":
            open_events.append(entry.subject)
        elif entry.kind == "event_end":
            assert open_events and open_events[-1] == entry.subject
            open_events.pop()
    assert open_events == []


@pytest.mark.parametrize("model_name,scenario_name", CORPUS_RUNS)
def test_stepping_from_init_state_reproduces_simulate(model_name, scenario_name):
    model = load_corpus_model(model_name)
    scenario = load_corpus_scenario(scenario_name)
    trace = simulate(model, scenario)
    state = init_state(model, scenario)
    entries = []
    for _ in range(scenario.max_steps):
        state, new_entries = step(model, state)
        entries.extend(new_entries)
        if state.quiescent:
            break
    assert tuple(entries) == trace.entries
    assert state.quiescent == (trace.terminated == "quiescent")
    assert tuple(name for name, _ in state.timings) == trace.fired_events
    assert dict(state.timings) == trace.timings
    assert {name for name, timing in state.timings if timing.released_at is not None} == {
        e.subject for e in trace.entries if e.kind == "event_end"
    }


_DETOUR_MODEL = """\
model detour
thing x
machine a
machine mid
machine sink
flow x env.transfer -> a.transfer
flow x a.transfer -> mid.transfer
flow x a.transfer -> sink.transfer
flow x mid.transfer -> sink.transfer
flow x sink.transfer -> sink.receive
event route {
  flow x env.transfer -> a.transfer
  flow x a.transfer -> mid.transfer
  flow x a.transfer -> sink.transfer
  flow x mid.transfer -> sink.transfer
  flow x sink.transfer -> sink.receive
}
"""


def test_tokens_leave_a_stage_in_mint_order_not_arrival_order():
    # tok1 detours through mid and reaches sink.transfer after tok2 did;
    # the hop out of sink.transfer still takes tok1 first.
    model = parse(_DETOUR_MODEL).model
    scenario = load_scenario(
        "inject x env.transfer @1\n"
        "inject x env.transfer @1\n"
        "choose a.transfer mid.transfer\n"
        "choose a.transfer sink.transfer\n"
    )
    trace = simulate(model, scenario)
    arrivals = [
        e.subject
        for e in trace.entries
        if e.kind == "transfer" and e.detail.endswith("-> sink.transfer")
    ]
    departures = [e.subject for e in trace.entries if e.kind == "receive"]
    assert arrivals == ["tok2", "tok1"]
    assert departures == ["tok1", "tok2"]
    assert trace.terminated == "quiescent"


_FANOUT_AFTER_DETOUR_MODEL = """\
model hub
thing x
machine a
machine mid
machine hub
machine p
machine q
flow x env.transfer -> a.transfer
flow x a.transfer -> mid.transfer
flow x a.transfer -> hub.transfer
flow x mid.transfer -> hub.transfer
flow x hub.transfer -> p.transfer
flow x hub.transfer -> q.transfer
event route {
  flow x env.transfer -> a.transfer
  flow x a.transfer -> mid.transfer
  flow x a.transfer -> hub.transfer
  flow x mid.transfer -> hub.transfer
  flow x hub.transfer -> p.transfer
  flow x hub.transfer -> q.transfer
}
"""


def test_tokens_take_choices_at_a_decision_point_in_mint_order():
    # tok1 detours through mid and reaches the decision point hub.transfer
    # after tok2; tok1 still takes hub's first choice and tok2 its second.
    model = parse(_FANOUT_AFTER_DETOUR_MODEL).model
    scenario = load_scenario(
        "inject x env.transfer @1\n"
        "inject x env.transfer @1\n"
        "choose a.transfer mid.transfer\n"
        "choose a.transfer hub.transfer\n"
        "choose hub.transfer p.transfer\n"
        "choose hub.transfer q.transfer\n"
    )
    trace = simulate(model, scenario)
    arrivals = [
        e.subject
        for e in trace.entries
        if e.kind == "transfer" and e.detail.endswith("-> hub.transfer")
    ]
    departures = [
        (e.subject, e.detail.rsplit(" ", 1)[-1])
        for e in trace.entries
        if e.kind == "transfer" and e.detail.startswith("x: hub.transfer")
    ]
    assert arrivals == ["tok2", "tok1"]
    assert departures == [("tok1", "p.transfer"), ("tok2", "q.transfer")]
    assert trace.warnings == ()


_CHAIN_MODEL = """\
model chain
thing x
thing y
machine a
machine b
flow x env.transfer -> a.transfer
flow y b.create -> b.process
event first {
  flow x env.transfer -> a.transfer
}
event second {
  flow y b.create -> b.process
}
chronology {
  first -> second
}
"""


def test_an_event_fires_the_step_after_its_predecessor():
    # second has work from step 1 and is swept after first, which fires in
    # step 1; a predecessor must fire before the step, so second waits.
    model = parse(_CHAIN_MODEL).model
    scenario = load_scenario("inject x env.transfer @1\n")
    trace = simulate(model, scenario)
    assert trace.fired_events == ("first", "second")
    assert trace.timings["first"].received_at == 1
    assert trace.timings["second"].received_at == 2
    state = init_state(model, scenario)
    fired = []
    for _ in range(2):
        state, _ = step(model, state)
        fired.append(tuple(name for name, _ in state.timings))
    assert fired == [("first",), ("first", "second")]


def test_the_ready_frontier_of_a_long_chain_is_a_small_list():
    # Each step walks the whole ready list: one filled with every event
    # instead of the events whose predecessors fired would be walked whole.
    lines = ["model chain", "thing x", "machine m", "flow x m.create -> m.release"]
    lines += [f"event e{i} {{ flow x m.create -> m.release }}" for i in range(400)]
    edges = [f"  e{i} -> e{i + 1}" for i in range(399)]
    model = parse("\n".join([*lines, "chronology {", *edges, "}"]) + "\n").model
    engine = vars(init_state(model, Scenario()))["_engine"]
    assert engine.sweep == [0] and sys.getsizeof(engine.sweep) <= sys.getsizeof([None] * 4)


def test_the_ready_frontier_after_a_burst_of_one_shot_events_is_a_small_list():
    # 400 unchained one-shot events mint at entry, fire in step 1 and leave
    # the frontier; the perpetual event stays. The list is rebuilt, not kept
    # at the size it grew to, which each later step would walk.
    lines = ["model burst", "thing x", "machine m", "flow x m.create -> m.release"]
    lines += [f"event e{i} {{ flow x m.create -> m.release }}" for i in range(400)]
    lines.append("event p perpetual { flow x m.create -> m.release }")
    model = parse("\n".join(lines) + "\n").model
    state, entries = step(model, init_state(model, Scenario()))
    assert sum(e.kind == "event_end" for e in entries) == 400
    engine = vars(state)["_engine"]
    assert engine.sweep == [400] and sys.getsizeof(engine.sweep) <= sys.getsizeof([None] * 4)


def test_events_unlocked_together_are_swept_in_declaration_order():
    # e0 unlocks e16 and e9 in that order, the order its edges are listed;
    # step 2 must still sweep them by declaration position.
    lines = ["model unlock", "thing x", "machine m", "flow x m.create -> m.release"]
    lines += [f"event e{i} {{ flow x m.create -> m.release }}" for i in range(17)]
    lines += ["chronology {", "  e0 -> e16", "  e0 -> e9", "}"]
    model = parse("\n".join(lines) + "\n").model
    starts = [e.subject for e in simulate(model, Scenario()).entries
              if e.step == 2 and e.kind == "event_start"]
    assert starts == ["e9", "e16"]
    state = init_state(model, Scenario())
    for _ in range(2):
        state, entries = step(model, state)
    assert [e.subject for e in entries if e.kind == "event_start"] == ["e9", "e16"]


def test_stepping_a_perpetual_gated_relay_reproduces_simulate():
    model, scenario = perpetual_relay(20, 60)
    trace = simulate(model, scenario)
    state = init_state(model, scenario)
    entries = []
    for _ in range(scenario.max_steps):
        state, new_entries = step(model, state)
        entries.extend(new_entries)
    kinds = {e.kind for e in trace.entries}
    assert {"gate", "trigger", "event_start"} <= kinds
    assert len(state.tokens) > 20
    assert tuple(entries) == trace.entries
    assert tuple(name for name, _ in state.timings) == trace.fired_events
    assert dict(state.timings) == trace.timings
    assert trace.terminated == "step_limit" and not state.quiescent


def _best_simulate_seconds(steps: int) -> float:
    model, scenario = perpetual_relay(20, steps)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        simulate(model, scenario)
        best = min(best, time.perf_counter() - start)
    return best


def test_simulate_scales_linearly_with_trace_length():
    # Live tokens grow with the run; a per-hop scan of every live token
    # makes the cost quadratic, about 4x per doubling of the steps.
    ratio = _best_simulate_seconds(300) / _best_simulate_seconds(150)
    assert ratio <= 3.0, f"simulate grew {ratio:.2f}x from 150 to 300 steps"


def _simulate_line_events(steps: int) -> int:
    model, scenario = perpetual_relay(20, steps)
    return line_events(tmkit.sim, lambda: simulate(model, scenario))


def test_simulate_executes_lines_linear_in_trace_length():
    # The deterministic twin of the wall-clock gate above.
    ratio = _simulate_line_events(300) / _simulate_line_events(150)
    assert ratio <= 2.5, f"sim.py ran {ratio:.2f}x the lines from 150 to 300 steps"


def _step_loop_line_events(steps: int) -> int:
    model, scenario = perpetual_relay(20, steps)

    def run() -> None:
        state = init_state(model, scenario)
        for _ in range(scenario.max_steps):
            state, _ = step(model, state)

    return line_events(tmkit.sim, run)


def test_step_loop_executes_lines_linear_in_trace_length():
    # A step that rebuilds the engine re-indexes every live token, and live
    # tokens grow with the run, so a loop of steps grows about 3x per doubling.
    ratio = _step_loop_line_events(300) / _step_loop_line_events(150)
    assert ratio <= 2.5, f"a step loop ran {ratio:.2f}x the lines from 150 to 300 steps"


def test_simulate_neither_hashes_nor_formats_a_stage_ref_per_entry(monkeypatch):
    # Stages are interned once per model; a hop that hashed or formatted a
    # StageRef would make several such calls per trace entry.
    model, scenario = perpetual_relay(20, 300)
    validate(model)
    calls = 0
    plain_hash, plain_str = StageRef.__hash__, StageRef.__str__

    def counting_hash(self):
        nonlocal calls
        calls += 1
        return plain_hash(self)

    def counting_str(self):
        nonlocal calls
        calls += 1
        return plain_str(self)

    monkeypatch.setattr(StageRef, "__hash__", counting_hash)
    monkeypatch.setattr(StageRef, "__str__", counting_str)
    trace = simulate(model, scenario)
    assert calls < len(trace.entries) // 10, f"{calls} calls for {len(trace.entries)} entries"


def _distinct_hop_and_trigger_details(steps: int) -> tuple[int, int]:
    model, scenario = perpetual_relay(20, steps)
    trace = simulate(model, scenario)  # alive while the ids are taken
    kinds = {"trigger", "process", "release", "transfer", "receive"}
    details = {id(e.detail) for e in trace.entries if e.kind in kinds}
    return len(details), sum(len(walk) for _, _, _, walk, _ in _tables(model)[0])


def test_hop_and_trigger_entries_share_their_region_items_detail():
    # Each region item's entry text is formatted once per model; a hop or a
    # trigger that formatted its own would make one string per entry.
    (short, items), (long, _) = map(_distinct_hop_and_trigger_details, (150, 300))
    assert long <= short, f"{short} distinct details at 150 steps, {long} at 300"
    assert long <= items, f"{long} distinct details for {items} region items"


def test_simulate_runs_few_generated_lines_per_entry():
    # A frozen record sets each field through a generated __init__, one
    # line per field; a named tuple is built by a one-line generated __new__.
    # A run makes one TraceEntry per entry and one Token per mint and hop.
    model, scenario = perpetual_relay(20, 300)
    validate(model)
    traces = []
    events = generated_line_events(lambda: traces.append(simulate(model, scenario)))
    per_entry = events / len(traces[0].entries)
    assert per_entry <= 2, f"{per_entry:.2f} generated lines per trace entry"


def test_simulate_makes_fewer_python_calls_than_entries():
    # A region pass that called a comprehension, a generator or a record's
    # generated __new__ per flow group, watch check or entry would make about
    # one Python call per entry or more; the calls left are per pass and per mint.
    flood = bench_workloads().flood(20, 75, 0)
    model = parse(flood.models["flood"]).model
    scenario = load_scenario(flood.sims[0].scenario)
    _tables(model)  # built once per model, outside the count
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        trace = simulate(model, scenario)
    finally:
        sys.setprofile(previous)
    assert calls < len(trace.entries), f"{calls} Python calls for {len(trace.entries)} entries"


def test_tables_make_fewer_python_calls_than_region_items():
    # One pass over an event's items builds each walk item as its final
    # tuple: no function, generator or comprehension runs per event, item,
    # flow group or spawn, so the calls left are per model: _tables itself and
    # its two comprehensions.
    model = parse(bench_workloads().relay(100).models["relay"]).model
    model.flows_by_id, model.triggers_by_id, model.stages  # cached model tables, outside
    items = sum(len(event.items) for event in model.events)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _tables(model)
    finally:
        sys.setprofile(previous)
    assert items == 402
    assert calls < items, f"{calls} Python calls for {items} region items"


def test_simulate_leaves_no_reference_cycles():
    # simulate runs with the collector paused, which is free only while
    # reference counting alone frees what it makes: a trace, an engine and
    # its token index.
    cases = [(load_corpus_model(entry.name), load_scenario(path.read_text()))
             for entry in corpus_list() for path in entry.scenarios]
    assert len(cases) == 8
    flood = bench_workloads().flood()
    cases.append((parse(flood.models["flood"]).model, load_scenario(flood.sims[0].scenario)))
    found = []
    gc.collect()
    gc.disable()
    try:
        for model, scenario in cases:
            format_trace(simulate(model, scenario))
            found.append(gc.collect())
    finally:
        gc.enable()
    assert found == [0] * len(cases)


def test_simulate_pauses_the_collector_and_restores_it():
    # Unpaused, a flood simulate makes 20 collections, none of which frees
    # anything (the test above). The call allocates past the threshold, so
    # one young collection follows it.
    flood = bench_workloads().flood()
    model = parse(flood.models["flood"]).model
    scenario = load_scenario(flood.sims[0].scenario)
    (generations, enabled), *rest = collector_runs(lambda: simulate(model, scenario))
    assert generations == (1,) and enabled
    assert rest == [((), False), ((), True)]  # the caller's disable and threshold 0 hold
    # an error inside the call restores the collector too
    with pytest.raises(SimulationError, match="does not match a region flow"):
        simulate(parse(_REGION_BRANCH_MODEL).model,
                 load_scenario("inject x env.transfer @1\nchoose a.transfer d.transfer\n"))
    assert gc.isenabled()
    early = Injection("water", StageRef(("env",), StageKind.TRANSFER), 0)
    with pytest.raises(ScenarioError, match="injection step must be >= 1"):
        simulate(load_corpus_model("reservoir"), Scenario(injections=(early,), max_steps=5))
    assert gc.isenabled()


def test_simulate_resolves_each_injection_once_and_files_mints_inline():
    # A parsed scenario's injection ref equals the model's key but is another
    # object, so a lookup by ref runs StageRef == per injection; each distinct
    # (thing, ref) is checked and resolved once, by plain tuple and by text,
    # and a mint files its token with no helper call.
    flood = bench_workloads().flood(20, 75, 0)
    model = parse(flood.models["flood"]).model
    scenario = load_scenario(flood.sims[0].scenario)
    _tables(model)  # built once per model, outside the count
    calls = dict.fromkeys(("is_env", "stage", "_eq", "place"), 0)

    def profile(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name in calls:
            calls[name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        trace = simulate(model, scenario)
    finally:
        sys.setprofile(previous)
    assert sum(e.kind == "create" for e in trace.entries) == 75
    assert calls == dict.fromkeys(calls, 0)


_MIXED_BUCKET_MODEL = """\
model mixed
thing x
thing y
machine a
machine b
flow x env.transfer -> a.transfer
flow y env.transfer -> b.transfer
event split perpetual {
  flow x env.transfer -> a.transfer
  flow y env.transfer -> b.transfer
}
"""


def test_each_flow_group_moves_only_its_own_thing_from_a_shared_stage():
    # env.transfer holds x, y, x in step 1: the x group takes tok1 and tok3,
    # in mint order, and leaves tok2 to the y group. In step 2 it holds one
    # y, which the x group passes over too.
    model = parse(_MIXED_BUCKET_MODEL).model
    scenario = load_scenario(
        "inject x env.transfer @1\n"
        "inject y env.transfer @1\n"
        "inject x env.transfer @1\n"
        "inject y env.transfer @2\n"
        "max_steps 2\n"
    )
    trace = simulate(model, scenario)
    hops = [(e.step, e.subject, e.detail) for e in trace.entries if e.kind == "transfer"]
    assert hops == [
        (1, "tok1", "x: env.transfer -> a.transfer"),
        (1, "tok3", "x: env.transfer -> a.transfer"),
        (1, "tok2", "y: env.transfer -> b.transfer"),
        (2, "tok4", "y: env.transfer -> b.transfer"),
    ]
    state = init_state(model, scenario)
    for _ in range(2):
        state, _ = step(model, state)
    assert [(t.id, t.thing, str(t.at)) for t in state.tokens] == [
        ("tok1", "x", "a.transfer"), ("tok2", "y", "b.transfer"),
        ("tok3", "x", "a.transfer"), ("tok4", "y", "b.transfer"),
    ]


_UNTOUCHED_ENV_MODEL = """\
model lone
thing x
machine a
flow x a.create -> a.process
"""


def test_an_injection_where_no_flow_leaves_env_is_kept():
    model = parse(_UNTOUCHED_ENV_MODEL).model
    trace = simulate(model, load_scenario("inject x env.transfer @1\n"))
    assert [(e.kind, e.subject, e.detail) for e in trace.entries] == [
        ("create", "tok1", "x @ env.transfer via injection"),
    ]
    assert trace.terminated == "quiescent"


def test_a_token_at_an_untouched_stage_is_kept_by_a_replaced_state():
    model = parse(_UNTOUCHED_ENV_MODEL).model
    state = init_state(model, load_scenario("inject x env.transfer @1\n"))
    parked = Token("tok9", "x", StageRef(("a",), StageKind.RELEASE))
    state, entries = step(model, replace(state, tokens=(parked,), next_token=10))
    assert [(e.kind, e.subject) for e in entries] == [("create", "tok10")]
    assert state.tokens == (parked, Token("tok10", "x", StageRef(("env",), StageKind.TRANSFER)))


_HOPS = {"process", "release", "transfer", "receive"}


def _replay(live: dict[str, tuple[str, str]], entries) -> None:
    """Apply entries to ``live`` (token id -> (thing, stage text), in mint order)
    from their texts alone: a create places its subject at the stage its detail
    names, a hop moves it to the ``-> dst`` stage and one onto env.transfer
    removes it."""
    for e in entries:
        if e.kind == "create":
            thing, rest = e.detail.split(" @ ", 1)
            live[e.subject] = (thing, rest.split(" via ", 1)[0])
        elif e.kind in _HOPS:
            dst = e.detail.rsplit(" -> ", 1)[1]
            if dst == "env.transfer":
                del live[e.subject]
            else:
                live[e.subject] = (live[e.subject][0], dst)


def _oracle_runs() -> list[tuple[str, Model, str]]:
    runs = [(entry.name, load_corpus_model(entry.name), path.read_text())
            for entry in corpus_list() for path in entry.scenarios]
    assert len(runs) == 8
    workloads = bench_workloads()
    for name, inputs in (("relay", workloads.relay(40)), ("flood", workloads.flood(20, 75))):
        runs.append((name, parse(inputs.models[name]).model, inputs.sims[0].scenario))
    two = "inject x env.transfer @1\ninject x env.transfer @1\n"
    runs += [
        ("detour", parse(_DETOUR_MODEL).model,
         two + "choose a.transfer mid.transfer\nchoose a.transfer sink.transfer\n"),
        ("fanout", parse(_FANOUT_AFTER_DETOUR_MODEL).model,
         two + "choose a.transfer mid.transfer\nchoose a.transfer hub.transfer\n"
         "choose hub.transfer p.transfer\nchoose hub.transfer q.transfer\n"),
        ("shared", parse(_MIXED_BUCKET_MODEL).model,
         "inject x env.transfer @1\ninject y env.transfer @1\ninject x env.transfer @1\n"
         "inject y env.transfer @2\nmax_steps 2\n"),
    ]
    return runs


def test_each_snapshot_holds_the_tokens_its_entries_replay_to():
    # An oracle independent of the engine's token index: the live tokens
    # after every step are what the step's entries, read as text, say.
    for name, model, scenario_text in _oracle_runs():
        scenario = load_scenario(scenario_text)
        state, live, moved = init_state(model, scenario), {}, 0
        for _ in range(scenario.max_steps):
            state, entries = step(model, state)
            _replay(live, entries)
            moved += sum(e.kind in _HOPS for e in entries)
            assert [(t.id, t.thing, str(t.at)) for t in state.tokens] == [
                (token_id, *at) for token_id, at in live.items()
            ], (name, state.step_no)
            if state.quiescent:
                break
        assert moved, name


def test_simulate_builds_a_tuple_per_entry_and_no_token_per_hop():
    # A hop moves its token's (id, thing) pair and builds only its entry:
    # tuple.__new__ runs once per entry (records skip their generated
    # __new__), and the Token records are left to step's snapshots.
    flood = bench_workloads().flood(20, 75, 0)
    model = parse(flood.models["flood"]).model
    scenario = load_scenario(flood.sims[0].scenario)
    _tables(model)  # built once per model, outside the count
    new = tuple.__new__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "c_call" and arg is new

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        trace = simulate(model, scenario)
    finally:
        sys.setprofile(previous)
    creates = sum(e.kind == "create" for e in trace.entries)
    assert creates == 75 and len(trace.entries) > 1000
    assert calls <= len(trace.entries) + creates, f"{calls} for {len(trace.entries)} entries"


def test_format_trace_gives_the_per_entry_formulas_bytes():
    big, twin = int("9" * 30), int("9" * 30)
    assert big == twin and big is not twin
    cases = [
        [3, 2, 2, 1],  # steps that go down
        [1, 1.0, True, 1, True, 1.0],  # equal steps that format apart
        [big, twin, big, 7, twin],  # equal large ints that are distinct objects
        [],
    ]
    for steps in cases:
        entries = tuple(TraceEntry(s, "create", f"tok{i}", "x @ env.transfer via injection")
                        for i, s in enumerate(steps))
        trace = Trace(entries=entries, fired_events=(), terminated="step_limit")
        expected = "".join(f"{e.step}\t{e.kind}\t{e.subject}\t{e.detail}\n" for e in entries)
        assert format_trace(trace) == expected + "terminated=step_limit\n"


def test_choice_entries_match_consumed_choices():
    trace = run_corpus("kant_ci", "kant_agree")
    assert sum(1 for e in trace.entries if e.kind == "choice") == 1
    assert trace.warnings == ()


def test_unconsumed_choices_are_warned():
    model = load_corpus_model("kant_ci")
    scenario = load_corpus_scenario("kant_agree")
    padded = Scenario(
        scenario.injections,
        scenario.choices + (("person.will.transfer", "env.transfer"),),
        scenario.gates,
        scenario.max_steps,
    )
    trace = simulate(model, padded)
    assert len(trace.warnings) == 1
    assert "unconsumed" in trace.warnings[0]


def test_fired_events_is_the_event_start_subsequence():
    for model_name, scenario_name in CORPUS_RUNS:
        trace = run_corpus(model_name, scenario_name)
        starts = tuple(
            e.subject for e in trace.entries if e.kind == "event_start"
        )
        assert starts == trace.fired_events


def test_trace_steps_are_nondecreasing():
    for model_name, scenario_name in CORPUS_RUNS:
        trace = run_corpus(model_name, scenario_name)
        steps = [e.step for e in trace.entries]
        assert steps == sorted(steps)


def test_simulate_rejects_invalid_models():
    result = parse("model bad\nthing x\nmachine a\nmachine b\nflow x a.process -> b.receive\n")
    assert result.model is None
    # build a structurally complete but illegal model directly
    from tmkit.core import FlowDecl, MachineDecl, Model, ThingDecl, build_model

    model = build_model(
        "bad",
        [
            ThingDecl("x"),
            MachineDecl("a"),
            MachineDecl("b"),
            FlowDecl("x", "a.process", "b.receive"),
        ],
    )
    assert isinstance(model, Model)
    with pytest.raises(ValueError):
        simulate(model, Scenario())


# simulate skips the steps of an idle stretch; step runs each of them.

_ONE_MACHINE = """\
model one
thing x
machine a
flow x env.transfer -> a.transfer
event go {
  flow x env.transfer -> a.transfer
}
"""

# `second` waits on `first`, which watches for an x that never comes
_BLOCKED = """\
model blocked
thing x
thing y
machine a
machine b
flow x env.transfer -> a.transfer
flow y b.create -> b.release
event first {
  flow x env.transfer -> a.transfer
}
event second {
  flow y b.create -> b.release
}
chronology {
  first -> second
}
"""


@pytest.mark.parametrize(
    "model_text, scenario, entries, terminated, calls",
    [
        (_ONE_MACHINE, "inject x env.transfer @{n}\nmax_steps {twice}\n",
         ["{n} create", "{n} event_start", "{n} transfer", "{n} event_end"], "quiescent", 3),
        (_BLOCKED, "inject y env.transfer @1\nmax_steps {n}\n", ["1 create"], "step_limit", 2),
    ],
    ids=["late-injection", "blocked-event"],
)
def test_simulate_skips_idle_steps(model_text, scenario, entries, terminated, calls,
                                   monkeypatch):
    # the macro-steps run do not grow with an idle stretch
    model = parse(model_text).model
    ran = []
    run_step = tmkit.sim._Engine.run_step
    monkeypatch.setattr(tmkit.sim._Engine, "run_step",
                        lambda engine: ran.append(engine.step_no) or run_step(engine))
    for n in (10**3, 10**6):
        ran.clear()
        trace = simulate(model, load_scenario(scenario.format(n=n, twice=2 * n)))
        assert [f"{e.step} {e.kind}" for e in trace.entries] == [
            entry.format(n=n) for entry in entries]
        assert trace.terminated == terminated
        assert len(ran) == calls


def _simulated(model: Model, scenario: Scenario):
    try:
        trace = simulate(model, scenario)
    except SimulationError as exc:
        return "error", str(exc)
    return (trace.entries, trace.fired_events, trace.terminated, trace.warnings,
            trace.timings)


def _stepped(model: Model, scenario: Scenario):
    """What ``simulate`` returns, from a loop of ``step`` that runs every step."""
    try:
        state, entries = init_state(model, scenario), []
        while not state.quiescent and state.step_no < scenario.max_steps:
            state, new = step(model, state)
            entries += new
    except SimulationError as exc:
        return "error", str(exc)
    queues: dict[str, int] = {}
    for key, _ in scenario.choices:
        queues[key] = queues.get(key, 0) + 1
    warnings = tuple(
        f"unconsumed choices for '{key}': {n - taken} of {n} left"
        for (key, n), taken in zip(queues.items(), state.choice_taken) if taken < n
    )
    return (tuple(entries), tuple(name for name, _ in state.timings),
            "quiescent" if state.quiescent else "step_limit", warnings, dict(state.timings))


def test_simulate_with_idle_steps_skipped_equals_a_full_step_loop(monkeypatch):
    # both sides raise E402 after the same number of passes; fewer keep it quick
    monkeypatch.setattr(tmkit.sim, "_MAX_PASSES", 50)
    idle = 0  # runs with an idle stretch: a step with no entry before the last step
    for seed in range(300):
        model, scenario_text = sparse_case(seed)
        scenario = load_scenario(scenario_text)
        simulated = _simulated(model, scenario)
        assert simulated == _stepped(model, scenario), seed
        if simulated[0] == "error":
            continue
        steps = [0, *sorted({e.step for e in simulated[0]})]
        if simulated[2] == "step_limit":
            steps.append(scenario.max_steps + 1)
        idle += any(b - a > 1 for a, b in zip(steps, steps[1:]))
    assert idle > 200


@pytest.mark.parametrize(
    "model_text, scenario_text",
    [
        (SPIN_MODEL, "inject x env.transfer @1500\nmax_steps 3000\n"),  # E402
        (_DETOUR_MODEL, "inject x env.transfer @40\ninject x env.transfer @900\n"
                        "choose a.transfer mid.transfer\nmax_steps 2000\n"),  # E401
        (_DETOUR_MODEL, "inject x env.transfer @700\nchoose a.transfer mid.transfer\n"
                        "choose a.transfer sink.transfer\nmax_steps 1000\n"),  # a warning
        (_DETOUR_MODEL, "inject x env.transfer @700\nchoose a.transfer sink.transfer\n"
                        "max_steps 500\n"),  # the injection falls after the limit
    ],
    ids=["E402", "E401", "warning", "late-injection"],
)
def test_simulate_with_idle_steps_skipped_fails_and_warns_as_a_step_loop(
    model_text, scenario_text
):
    model, scenario = parse(model_text).model, load_scenario(scenario_text)
    assert _simulated(model, scenario) == _stepped(model, scenario)
