"""build_model, resolve, and validate against the diagnostic registry."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest

import tmkit.core

from tmkit.core import (
    ChronologyDecl,
    Diagnostic,
    Event,
    EventDecl,
    FlowDecl,
    FlowEdge,
    MachineDecl,
    Machine,
    Model,
    NodeItemDecl,
    PathError,
    RegionFlow,
    RegionNode,
    RegionTrigger,
    StageKind,
    StageRef,
    ThingDecl,
    TriggerDecl,
    build_model,
    parse_stage_ref,
    resolve,
    validate,
)
from tmkit.dsl import SourceSpan, parse, serialize
from tmkit.render import render_events, render_static
from tmkit.sim import Scenario, SimulationError, simulate

from helpers import (
    CORPUS_NAMES,
    bench_workloads,
    load_corpus_model,
    models_equal,
    random_valid_decls,
)


def codes(diags):
    return [d.code for d in diags]


def test_empty_elements_build_an_empty_model():
    model = build_model("empty", [])
    assert isinstance(model, Model)
    assert model.things == ()
    assert model.root_machines == ()
    assert validate(model) == []


def test_reservoir_elements_build_five_root_machines():
    model = load_corpus_model("reservoir")
    assert [m.name for m in model.root_machines] == [
        "source",
        "valve",
        "tank",
        "processor",
        "decider",
    ]
    assert len(model.root_machines) == 5
    assert {t.name for t in model.things} == {"water", "level", "decision"}
    t1 = model.triggers[0]
    assert (str(t1.src), str(t1.dst)) == ("processor.process", "decider.create")


def test_flow_into_create_is_exactly_one_e104():
    result = build_model(
        "bad",
        [
            ThingDecl("water"),
            MachineDecl("tank"),
            FlowDecl("water", "tank.process", "tank.create"),
        ],
    )
    assert isinstance(result, list)
    assert codes(result) == ["E104"]


def test_a_flow_into_create_is_no_edge_so_an_event_naming_it_is_e301():
    flow = FlowDecl("water", "tank.process", "tank.create")
    result = build_model(
        "bad", [ThingDecl("water"), MachineDecl("tank"), flow, EventDecl("fill", items=(flow,))]
    )
    assert [(d.code, d.message) for d in result] == [
        ("E104", "flow into create stage 'tank.create'"),
        ("E301", "event 'fill': no flow 'water tank.process -> tank.create' in the model"),
    ]


def test_unresolved_path_is_e101():
    result = build_model(
        "bad",
        [ThingDecl("water"), FlowDecl("water", "nowhere.release", "nowhere.transfer")],
    )
    assert isinstance(result, list)
    assert set(codes(result)) == {"E101"}


def test_a_trigger_reports_each_unresolved_end_as_a_flow_does():
    head = "model bad\nthing x\nmachine m\nflow x m.create -> m.release\n"
    unresolved = [
        ("E101", "unresolved path 'nowhere.release': unknown segment 'nowhere'", 5),
        ("E101", "unresolved path 'gone.process': unknown segment 'gone'", 5),
    ]
    for line in ("trigger nowhere.release ~> gone.process", "flow x nowhere.release -> gone.process"):
        result = parse(head + line + "\n")
        assert result.model is None
        assert [(d.code, d.message, d.location.start_line) for d in result.diagnostics] == unresolved


def test_a_trigger_into_a_release_stage_is_e102_at_its_span():
    text = "model m\nthing x\nthing y\nmachine a\nmachine b\nflow x a.release -> a.transfer\n" \
        "flow y b.create -> b.release\ntrigger a.transfer ~> b.release\n"
    result = parse(text)
    assert [(d.code, d.location, d.message) for d in result.diagnostics] == [
        ("E102", SourceSpan("<string>", 8, 1, 8, 31),
         "trigger destination must be a create or process stage, got 'b.release'"),
    ]


def test_a_path_below_env_is_e101():
    result = parse("model m\nthing x\nmachine a\nflow x env.sub.transfer -> a.transfer\n")
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E101", "unresolved path 'env.sub.transfer': 'env' has no sub-machines"),
    ]


def test_build_model_rejects_what_is_not_a_declaration():
    with pytest.raises(TypeError, match=r"^not an element declaration: <object object at "):
        build_model("m", [object()])


def test_build_model_resolves_each_stage_reference_once(monkeypatch):
    # The event items name edges the static declarations already resolved;
    # resolving every item's ends again made four calls per reference here.
    calls = 0
    resolve_ref = tmkit.core._resolve_ref

    def counting(*args):
        nonlocal calls
        calls += 1
        return resolve_ref(*args)

    monkeypatch.setattr(tmkit.core, "_resolve_ref", counting)
    model = parse(bench_workloads().relay(400).models["relay"]).model
    assert model is not None
    distinct = len(model.stages)  # every relay stage reference names a stage in use
    assert distinct == 1602
    assert calls <= distinct


def _as_refs(decls: list) -> list:
    """The declarations with each reference text that parses as a StageRef,
    one per text as the parser gives them; other text stays text."""
    refs: dict[str, object] = {}

    def ref(text):
        if text not in refs:
            try:
                refs[text] = parse_stage_ref(text)
            except ValueError:
                refs[text] = text
        return refs[text]

    def convert(d):
        if isinstance(d, (FlowDecl, TriggerDecl)):
            return d._replace(src=ref(d.src), dst=ref(d.dst))
        if isinstance(d, NodeItemDecl):
            return d._replace(ref=ref(d.ref))
        if isinstance(d, EventDecl):
            return d._replace(items=tuple(map(convert, d.items)))
        return d

    return [convert(d) for d in decls]


_MISTAKES = ("unknown machine", "env.create end", "not a stage reference", "missing edge",
             "untouched stage")


def _mistake(rng: random.Random, model: Model, mistake: str):
    """(expected code, declaration, whether it is an event item) for one
    mistake, its shape and place chosen at random."""
    used = [str(ref) for ref in model.stages]
    thing = rng.choice(model.things).name
    if mistake == "untouched stage":
        untouched = [f"{'.'.join(m.path)}.{kind}" for m in model.machines for kind in StageKind
                     if StageRef(m.path, kind) not in model.stages]
        return "E301", NodeItemDecl(rng.choice(untouched)), True
    if mistake == "missing edge":
        while True:
            src, dst = rng.choice(used), rng.choice(used)
            if rng.random() < 0.3:
                if (parse_stage_ref(src), parse_stage_ref(dst)) not in model.triggers_by_key:
                    return "E301", TriggerDecl(src, dst), True
            elif (thing, parse_stage_ref(src), parse_stage_ref(dst)) not in model.flows_by_key:
                return "E301", FlowDecl(thing, src, dst), True
    bad = {"unknown machine": "ghost.transfer", "env.create end": "env.create",
           "not a stage reference": rng.choice(["m1", "m1.bogus", ".create", ""])}[mistake]
    good = rng.choice(used)
    src, dst = (bad, good) if rng.random() < 0.5 else (good, bad)
    item = (FlowDecl(thing, src, dst), TriggerDecl(src, dst), NodeItemDecl(bad))[rng.randrange(3)]
    in_event = isinstance(item, NodeItemDecl) or rng.random() < 0.6
    return "E301" if in_event else "E101", item, in_event


def _place(rng: random.Random, decls: list, item, in_event: bool) -> list:
    """``decls`` with ``item`` at a random place: among the declarations, or
    in a random or new event."""
    decls = list(decls)
    events = [i for i, d in enumerate(decls) if isinstance(d, EventDecl)]
    if not in_event or not events or rng.random() < 0.2:
        item = item if not in_event else EventDecl("mistake", items=(item,))
        decls.insert(rng.randrange(len(decls) + 1), item)
        return decls
    i = rng.choice(events)
    items = list(decls[i].items)
    items.insert(rng.randrange(len(items) + 1), item)
    decls[i] = decls[i]._replace(items=tuple(items))
    return decls


def test_reference_text_and_parsed_references_build_alike():
    # The parser hands build_model parsed StageRefs; programmatic callers may
    # write dotted text. Either shape must give the same model, and the same
    # diagnostics for the same mistake, wherever it sits.
    for seed in range(300):
        name, decls = random_valid_decls(seed)
        refs = _as_refs(decls)
        model = build_model(name, decls)
        assert models_equal(model, build_model(name, refs))
        rng = random.Random(seed)
        mistake = _MISTAKES[seed % len(_MISTAKES)]
        code, item, in_event = _mistake(rng, model, mistake)
        state = rng.getstate()
        as_text = build_model(name, _place(rng, decls, item, in_event))
        rng.setstate(state)
        as_refs = build_model(name, _place(rng, refs, _as_refs([item])[0], in_event))
        assert isinstance(as_text, list) and code in codes(as_text), (seed, mistake)
        assert as_refs == as_text, (seed, mistake)


def test_duplicate_ids_are_e106_and_all_are_reported():
    result = build_model(
        "bad",
        [
            ThingDecl("water"),
            ThingDecl("water"),
            MachineDecl("tank"),
            MachineDecl("tank"),
        ],
    )
    assert isinstance(result, list)
    assert codes(result) == ["E106", "E106"]
    trigger = TriggerDecl("tank.release", "tank.create")
    result = build_model("bad", [MachineDecl("tank"), trigger, trigger])
    assert [(d.code, d.message) for d in result] == [
        ("E106", "duplicate trigger 'tank.release ~> tank.create'")
    ]


def test_env_machine_name_is_reserved():
    result = build_model("bad", [MachineDecl("env")])
    assert isinstance(result, list)
    assert codes(result) == ["E106"]


@pytest.mark.parametrize("head", ["machine a\nmachine a", "machine env"])
def test_a_refused_machine_is_one_e106_and_its_subtree_is_not_walked(head):
    # the repeated child would be a second E106 if the refused block were walked
    result = parse(f"model m\n{head} {{\n  machine b\n  machine b\n}}\n")
    assert result.model is None
    assert codes(result.diagnostics) == ["E106"]


def test_malformed_identifiers_are_rejected_outright():
    with pytest.raises(ValueError):
        build_model("has space", [])
    with pytest.raises(ValueError):
        build_model("m", [ThingDecl("two words")])
    with pytest.raises(ValueError):
        build_model("m", [MachineDecl("café")])
    with pytest.raises(ValueError):
        build_model("m", [MachineDecl("create")])


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_models_validate_clean(name):
    model = load_corpus_model(name)
    assert validate(model) == []


def test_cross_machine_non_transfer_is_one_e103():
    model = load_corpus_model("reservoir")
    extra = build_model(
        "bad",
        [
            ThingDecl("water"),
            MachineDecl("tank"),
            MachineDecl("processor"),
            FlowDecl("water", "tank.process", "processor.receive"),
        ],
    )
    assert isinstance(extra, Model)
    diags = validate(extra)
    assert codes(diags) == ["E103"]
    # the corpus model stays clean, for contrast
    assert validate(model) == []


def test_lax_mode_downgrades_e103_to_warning():
    model = build_model(
        "shortcut",
        [
            ThingDecl("water"),
            MachineDecl("tank"),
            MachineDecl("processor"),
            FlowDecl("water", "tank.process", "processor.receive"),
        ],
    )
    assert isinstance(model, Model)
    strict = validate(model)
    relaxed = validate(model, lax=True)
    assert codes(strict) == ["E103"] and strict[0].is_error
    assert codes(relaxed) == ["E103"] and not relaxed[0].is_error


def test_illegal_same_machine_pair_is_e102():
    model = build_model(
        "bad",
        [
            ThingDecl("water"),
            MachineDecl("tank"),
            FlowDecl("water", "tank.process", "tank.receive"),
        ],
    )
    assert isinstance(model, Model)
    assert codes(validate(model)) == ["E102"]


def test_same_thing_trigger_is_w201():
    model = build_model(
        "warned",
        [
            ThingDecl("level"),
            MachineDecl("processor"),
            MachineDecl("decider"),
            FlowDecl("level", "processor.receive", "processor.process"),
            FlowDecl("level", "decider.create", "decider.release"),
            TriggerDecl("processor.process", "decider.create"),
        ],
    )
    assert isinstance(model, Model)
    diags = validate(model)
    assert codes(diags) == ["W201"]
    assert not diags[0].is_error


def test_a_trigger_source_no_flow_touches_is_a_stage_of_its_machine():
    # W201's check and the static view both read the trigger source's stage
    result = parse(
        "model m\nthing x\nmachine a\nmachine b\n"
        "flow x a.create -> a.release\ntrigger b.process ~> a.process\n"
    )
    assert result.diagnostics == []
    cluster_b = render_static(result.model).text.split('subgraph "cluster_b" {')[1].split("}")[0]
    assert '"b.process" [label="process"];' in cluster_b


def test_thing_identity_break_is_e105():
    model = build_model(
        "mixed",
        [
            ThingDecl("water"),
            ThingDecl("level"),
            MachineDecl("a"),
            MachineDecl("b"),
            FlowDecl("water", "a.release", "a.transfer"),
            FlowDecl("level", "a.transfer", "b.transfer"),
        ],
    )
    assert isinstance(model, Model)
    assert codes(validate(model)) == ["E105"]


def test_same_thing_trigger_names_the_alphabetically_first_shared_thing():
    model = build_model(
        "warned",
        [
            ThingDecl("water"),
            ThingDecl("level"),
            MachineDecl("p"),
            MachineDecl("d"),
            FlowDecl("water", "p.receive", "p.process"),
            FlowDecl("level", "p.receive", "p.process"),
            FlowDecl("water", "d.create", "d.release"),
            FlowDecl("level", "d.create", "d.release"),
            TriggerDecl("p.process", "d.create"),
        ],
    )
    assert isinstance(model, Model)
    assert [(d.code, d.location, d.message) for d in validate(model)] == [
        (
            "W201",
            "t1",
            "trigger p.process ~> d.create connects flows of the same thing 'level'",
        )
    ]


def test_identity_break_points_at_the_first_flow_in_and_the_first_pair():
    # a.transfer is first touched by an out-flow (f1); water then level flow
    # in and out, so the first differing (in, out) pair is (water, level).
    model = build_model(
        "mixed",
        [
            ThingDecl("level"),
            ThingDecl("water"),
            MachineDecl("a"),
            MachineDecl("b"),
            MachineDecl("c"),
            FlowDecl("water", "a.transfer", "b.transfer"),
            FlowDecl("water", "a.release", "a.transfer"),
            FlowDecl("level", "c.transfer", "a.transfer"),
            FlowDecl("level", "a.transfer", "c.transfer"),
        ],
    )
    assert isinstance(model, Model)
    assert [(d.code, d.location, d.message) for d in validate(model)] == [
        (
            "E105",
            "f2",
            "thing identity break at 'a.transfer': 'water' flows in, 'level' flows out",
        )
    ]


def test_isolated_machine_is_w202_but_parents_of_active_children_are_not():
    model = build_model(
        "quiet",
        [
            ThingDecl("water"),
            MachineDecl("outer", (MachineDecl("inner"),)),
            MachineDecl("lonely"),
            MachineDecl("outer2", (MachineDecl("inner2"),)),
            FlowDecl("water", "outer.inner.create", "outer.inner.release"),
        ],
    )
    assert isinstance(model, Model)
    diags = validate(model)
    assert codes(diags) == ["W202"] * 3
    assert [d.location for d in diags] == ["lonely", "outer2", "outer2.inner2"]
    assert "lonely" in diags[0].message


def test_validate_is_pure_and_deterministic():
    model = load_corpus_model("reservoir")
    first = validate(model)
    second = validate(model)
    assert first == second


def test_machine_tree_edge_count():
    for name in CORPUS_NAMES:
        model = load_corpus_model(name)
        machines = model.machines
        roots = len(model.root_machines)
        parent_child_edges = sum(len(m.children) for m in machines)
        assert parent_child_edges == len(machines) - roots


@pytest.mark.parametrize(
    "roots",
    [
        (Machine("a", ("a",), (Machine("b", ("b",)),)),),
        (Machine("a", ("x", "a")),),
    ],
    ids=["child-path-not-under-parent", "root-path-not-its-name"],
)
def test_a_machine_tree_that_does_not_nest_by_path_is_refused(roots):
    # Walking the tree checks each path against the nesting, so no view
    # writes a child as its parent's sibling.
    model = Model("m", root_machines=roots)
    for reader in (serialize, render_static, render_events, validate):
        with pytest.raises(ValueError, match="machine path"):
            reader(model)


@pytest.mark.parametrize("item", [RegionFlow("f999"), RegionTrigger("t999")],
                         ids=["flow", "trigger"])
def test_an_event_item_whose_edge_the_model_lacks_is_refused(item):
    # Only a hand-built model holds one (build_model never makes it): validate
    # reports it as E301, so the readers that validate refuse the model, and
    # serialize, which does not, names the event and the edge id itself.
    ghost = Event("ghost", items=(item,))
    model = replace(load_corpus_model("murderer"), events=(ghost,), chronology=None)
    kind = "flow" if type(item) is RegionFlow else "trigger"
    message = f"event 'ghost' names {kind} '{item.edge_id}', which the model lacks"
    errors = [(d.code, d.location, d.message) for d in validate(model) if d.is_error]
    assert errors == [("E301", "ghost", message)]
    with pytest.raises(ValueError) as info:
        serialize(model)
    assert str(info.value) == message
    for reader in (render_events, lambda m: simulate(m, Scenario())):
        with pytest.raises(ValueError) as info:
            reader(model)
        assert str(info.value) == f"model does not validate: error E301 [ghost] {message}"


def test_resolve_stage_reference():
    model = load_corpus_model("reservoir")
    ref = resolve(model, "tank.sensor.create")
    assert isinstance(ref, StageRef)
    assert ref.path == ("tank", "sensor")
    assert ref.kind is StageKind.CREATE


def test_resolve_env_transfer_is_reserved():
    model = load_corpus_model("reservoir")
    ref = resolve(model, "env.transfer")
    assert isinstance(ref, StageRef)
    assert ref.is_env


@pytest.mark.parametrize("error_type", [PathError, SimulationError])
def test_an_error_with_a_diagnostic_reads_as_it(error_type):
    diagnostic = Diagnostic("E101", "error", "a.b", "unresolved path 'a.b'")
    # its one argument is the diagnostic's text, so its repr reads the message
    # too; str alone would pass without the super().__init__ call
    error = error_type(diagnostic)
    assert (str(error), error.args) == (str(diagnostic), (str(diagnostic),))


def test_resolve_unknown_segment_is_e101():
    model = load_corpus_model("reservoir")
    with pytest.raises(PathError) as excinfo:
        resolve(model, "tank.sponge.create")
    assert excinfo.value.diagnostic.code == "E101"
    assert "sponge" in excinfo.value.diagnostic.message


def test_resolve_machine_path():
    model = load_corpus_model("reservoir")
    machine = resolve(model, "valve.control")
    assert isinstance(machine, Machine)
    assert machine.path == ("valve", "control")


def test_resolve_env_nonsense_stage_is_e101():
    model = load_corpus_model("reservoir")
    with pytest.raises(PathError):
        resolve(model, "env.create")


def test_resolve_bare_env_names_the_environment_machine():
    model = load_corpus_model("reservoir")
    machine = resolve(model, "env")
    assert isinstance(machine, Machine)
    assert machine.path == ("env",)


def test_diagnostic_registry_codes_used_by_validate():
    model = load_corpus_model("reservoir")
    for diag in validate(model):
        assert isinstance(diag, Diagnostic)


def test_validate_returns_equal_but_distinct_lists():
    model = build_model(
        "shortcut",
        [
            ThingDecl("water"),
            MachineDecl("tank"),
            MachineDecl("processor"),
            FlowDecl("water", "tank.process", "processor.receive"),
        ],
    )
    first = validate(model)
    second = validate(model)
    assert first == second and first is not second
    first.clear()
    assert codes(validate(model)) == ["E103"]


@pytest.mark.parametrize("order", [(False, True), (True, False)])
def test_lax_and_strict_results_do_not_leak_into_each_other(order):
    model = build_model(
        "shortcut",
        [
            ThingDecl("water"),
            MachineDecl("tank"),
            MachineDecl("processor"),
            FlowDecl("water", "tank.process", "processor.receive"),
        ],
    )
    for lax in order * 2:
        (diag,) = validate(model, lax=lax)
        assert diag.code == "E103"
        assert diag.is_error is not lax


def test_a_replaced_model_gets_its_own_diagnostics():
    model = load_corpus_model("reservoir")
    assert validate(model) == []
    edge = model.flows[0]
    bent = replace(model, flows=model.flows + (
        replace(edge, id="f99", dst=StageRef(("nowhere",), StageKind.CREATE)),
    ))
    assert codes(validate(bent)) == ["E104", "E101"]
    assert validate(model) == []


@pytest.mark.parametrize("ghost", [StageRef(("ghost",), StageKind.TRANSFER),
                                   StageRef(("env", "sub"), StageKind.TRANSFER)])
@pytest.mark.parametrize("into", [True, False])
def test_validate_reports_a_hand_built_stage_that_names_no_machine(ghost, into):
    # serialize writes such a model as text that parse refuses with an E101,
    # so validate refuses it too, with the same message, located by the stage
    model = load_corpus_model("murderer")
    transfer = next(ref for ref in model.stages
                    if ref.kind is StageKind.TRANSFER and not ref.is_env)
    ends = (transfer, ghost) if into else (ghost, transfer)
    bent = replace(model, flows=model.flows + (FlowEdge("f999", model.things[0].name, *ends),))
    reparsed = parse(serialize(bent)).diagnostics
    assert [(d.code, d.location, d.message) for d in validate(bent)] == [
        ("E101", str(ghost), reparsed[0].message)]
    assert codes(reparsed) == ["E101"]


def test_a_hand_built_stage_that_names_no_machine_touches_none():
    # a.ghost.transfer names no machine, so it does not count as a use of a
    model = build_model("m", [ThingDecl("x"), MachineDecl("a"), MachineDecl("b"),
                              FlowDecl("x", "b.create", "b.release")])
    ghost = StageRef(("a", "ghost"), StageKind.TRANSFER)
    bent = replace(model, flows=model.flows + (FlowEdge("f2", "x", model.flows[0].dst, ghost),))
    assert [(d.code, d.location) for d in validate(bent)] == [
        ("E103", "f2"), ("E101", "a.ghost.transfer"), ("W202", "a")]


@pytest.mark.parametrize("item, expected", [
    ("flow x ghost.process -> ghost.process", ["E101"]),
    ("trigger ghost.process ~> ghost.process", ["E101"]),
    ("flow y ghost.process -> ghost.process", ["E101", "E101"]),  # the thing, then the stage
    ("flow x ghost.process -> ghost.release", ["E101", "E101"]),
    ("trigger ghost.process ~> spook.process", ["E101", "E101"]),
    ("chronology {\n  q -> q\n}", ["E303"]),
    ("chronology {\n  q -> r\n}", ["E303", "E303"]),
])
def test_each_distinct_unresolved_name_of_an_edge_is_reported_once(item, expected):
    diagnostics = parse(f"model m\nthing x\nmachine a\n{item}\n").diagnostics
    assert codes(diagnostics) == expected
    assert len(set(diagnostics)) == len(diagnostics)


def _deep_chain(depth: int) -> list:
    chain = MachineDecl(f"m{depth - 1}")
    for i in reversed(range(depth - 1)):
        chain = MachineDecl(f"m{i}", (chain,))
    return [ThingDecl("water"), chain]


def test_deep_paths_resolve_and_report_the_first_unknown_segment():
    depth = 3000
    decls = _deep_chain(depth)
    model = build_model("deep", decls)
    assert isinstance(model, Model)
    names = [f"m{i}" for i in range(depth)]
    leaf = ".".join(names)
    ref = resolve(model, leaf + ".process")
    assert ref == StageRef(tuple(names), StageKind.PROCESS)
    machine = resolve(model, leaf)
    assert isinstance(machine, Machine) and machine.path == tuple(names)

    names[depth // 2] = "wrong"
    bad = ".".join(names)
    for path in (bad, bad + ".process"):
        with pytest.raises(PathError) as excinfo:
            resolve(model, path)
        assert excinfo.value.diagnostic.message == (
            f"unresolved path '{path}': unknown segment 'wrong'"
        )
    built = build_model("deep", decls + [FlowDecl("water", bad + ".process", leaf + ".release")])
    assert [d.message for d in built] == [
        f"unresolved path '{bad}.process': unknown segment 'wrong'"
    ]


def _identity_breaks(k: int) -> Model:
    # Each machine turns thing a into thing b at its process stage.
    decls = [ThingDecl("a"), ThingDecl("b")]
    for i in range(k):
        decls += [
            MachineDecl(f"m{i}"),
            FlowDecl("a", f"m{i}.create", f"m{i}.process"),
            FlowDecl("b", f"m{i}.process", f"m{i}.release"),
        ]
    model = build_model("breaks", decls)
    assert isinstance(model, Model)
    return model


def test_identity_breaks_compare_each_stage_a_bounded_number_of_times(monkeypatch):
    eq_calls = 0
    plain_eq = StageRef.__eq__

    def counting_eq(self, other):
        nonlocal eq_calls
        eq_calls += 1
        return plain_eq(self, other)

    k = 2000
    model = _identity_breaks(k)
    monkeypatch.setattr(StageRef, "__eq__", counting_eq)
    diags = validate(model)
    assert codes(diags) == ["E105"] * k
    assert [d.location for d in diags[:2]] == ["f1", "f3"]
    # A scan of every flow per identity break makes ~k * k comparisons.
    assert eq_calls <= 2 * k



@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_parsing_builds_each_stage_record_once(name, monkeypatch):
    built = 0
    real_init = tmkit.core._Stage.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        real_init(self, *args)

    monkeypatch.setattr(tmkit.core._Stage, "__init__", counting_init)
    model = load_corpus_model(name)
    assert built == len(model.stages)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_parsing_builds_each_model_table_once(name, monkeypatch):
    # build_model replaces its model twice; tables that still hold must be
    # carried over rather than built again.
    built: Counter[str] = Counter()
    for attr, table in vars(Model).items():
        if isinstance(table, cached_property):

            def counting(self, build=table.func, attr=attr):
                built[attr] += 1
                return build(self)

            monkeypatch.setattr(table, "func", counting)
    load_corpus_model(name)
    assert built["machines"] and set(built.values()) == {1}, built


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_the_event_checks_reuse_the_edge_keys_build_model_made(name, monkeypatch):
    # build_model keys every edge to find duplicates; the event checks look
    # edges up by those keys, so a second table of them is waste.
    def rebuilt(self):
        raise AssertionError("an edge-key table was built again")

    for attr in ("flows_by_key", "triggers_by_key"):
        monkeypatch.setattr(vars(Model)[attr], "func", rebuilt)
    assert load_corpus_model(name).events


# The raw declarations and region items: their fields in order, a value for
# each, and the defaults.
_RECORDS = [
    (ThingDecl, ("name", "span"), ("x", "s"), {"span": None}),
    (MachineDecl, ("name", "children", "span"), ("m", (MachineDecl("c"),), "s"),
     {"children": (), "span": None}),
    (FlowDecl, ("thing", "src", "dst", "span"), ("x", "a.create", "a.release", "s"),
     {"span": None}),
    (TriggerDecl, ("src", "dst", "span"), ("a.release", "a.process", "s"), {"span": None}),
    (NodeItemDecl, ("ref", "span"), ("a.create", "s"), {"span": None}),
    (EventDecl, ("name", "perpetual", "items", "span"),
     ("e", True, (NodeItemDecl("a.create"),), "s"),
     {"perpetual": False, "items": (), "span": None}),
    (ChronologyDecl, ("edges", "span"), ((("e", "f"),), "s"), {"edges": (), "span": None}),
    (RegionNode, ("ref",), (StageRef(("a",), StageKind.CREATE),), {}),
    (RegionFlow, ("edge_id",), ("f1",), {}),
    (RegionTrigger, ("edge_id",), ("t1",), {}),
]
_RECORD_IDS = [cls.__name__ for cls, *_ in _RECORDS]


@pytest.mark.parametrize("cls, fields, values, defaults", _RECORDS, ids=_RECORD_IDS)
def test_a_record_builds_by_position_and_keyword_with_its_defaults(cls, fields, values,
                                                                    defaults):
    by_position = cls(*values)
    assert type(by_position) is cls and isinstance(cls(**dict(zip(fields, values))), cls)
    assert by_position == cls(**dict(zip(fields, values)))
    assert tuple(getattr(by_position, f) for f in fields) == values
    required = [v for f, v in zip(fields, values) if f not in defaults]
    assert {f: getattr(cls(*required), f) for f in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*values, "one too many")


@pytest.mark.parametrize("cls, fields, values, defaults", _RECORDS, ids=_RECORD_IDS)
def test_a_record_is_immutable_unordered_and_hashes_by_value(cls, fields, values, defaults):
    record, twin = cls(*values), cls(*values)
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != cls(*(("other",) + values[1:]))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(TypeError):
        record < twin


@pytest.mark.parametrize(
    "a, b",
    [
        (RegionFlow("f1"), RegionTrigger("f1")),
        (ThingDecl("x"), NodeItemDecl("x")),
        (RegionFlow("f1"), ("f1",)),
        (ThingDecl("x"), ("x", None)),
    ],
    ids=["RegionFlow-RegionTrigger", "ThingDecl-NodeItemDecl", "RegionFlow-tuple",
         "ThingDecl-tuple"],
)
def test_records_of_different_types_never_compare_equal(a, b):
    assert a != b and b != a
    assert not a == b and not b == a
    assert len({a: 1, b: 2}) == 2
