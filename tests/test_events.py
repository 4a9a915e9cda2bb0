"""Event regions, chronology validation, coverage, linear extensions."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import core
from tmkit.core import Chronology, Event, EventDecl, FlowDecl, NodeItemDecl, _components
from tmkit.core import ChronologyDecl, MachineDecl, Model, RegionFlow, ThingDecl, build_model
from tmkit.core import validate
from tmkit.events import (
    attach_event,
    coverage,
    is_linear_extension,
    topological_order,
    validate_chronology,
)
from tmkit.dsl import parse
from tmkit.render import render_chronology, render_static
from tmkit.sim import init_state, load_scenario, simulate

from helpers import corpus_path, load_corpus_model


def codes(diags):
    return [d.code for d in diags]


def test_attach_level_measured_style_event():
    model = load_corpus_model("reservoir")
    decl = EventDecl(
        "second_measurement",
        items=(
            NodeItemDecl("tank.sensor.create"),
            FlowDecl("level", "tank.sensor.create", "tank.sensor.release"),
            FlowDecl("level", "tank.sensor.release", "tank.sensor.transfer"),
            FlowDecl("level", "tank.sensor.transfer", "processor.transfer"),
            FlowDecl("level", "processor.transfer", "processor.receive"),
        ),
    )
    event = attach_event(model, decl)
    assert isinstance(event, Event)
    extended = model.with_event(event)
    assert extended.events[-1].name == "second_measurement"
    assert sum(isinstance(i, RegionFlow) for i in event.items) == 4


def test_attach_event_unused_stage_is_e301():
    model = load_corpus_model("reservoir")
    decl = EventDecl("ghost", items=(NodeItemDecl("valve.create"),))
    result = attach_event(model, decl)
    assert isinstance(result, list)
    assert codes(result) == ["E301"]


def test_attach_event_empty_region_is_e301():
    model = load_corpus_model("reservoir")
    result = attach_event(model, EventDecl("hollow"))
    assert isinstance(result, list)
    assert codes(result) == ["E301"]


def test_attach_event_duplicate_name_is_e303():
    model = load_corpus_model("reservoir")
    decl = EventDecl(
        "water_arrives",
        items=(NodeItemDecl("tank.sensor.create"),),
    )
    result = attach_event(model, decl)
    assert isinstance(result, list)
    assert codes(result) == ["E303"]


def test_region_items_collapse_duplicates():
    model = load_corpus_model("reservoir")
    decl = EventDecl(
        "doubled",
        items=(
            FlowDecl("water", "source.create", "source.release"),
            FlowDecl("water", "source.create", "source.release"),
            NodeItemDecl("tank.sensor.create"),
            NodeItemDecl("tank.sensor.create"),
        ),
    )
    event = attach_event(model, decl)
    assert isinstance(event, Event)
    assert len(event.items) == 2


def test_attach_event_region_flow_must_match_static_edge():
    model = load_corpus_model("reservoir")
    decl = EventDecl(
        "phantom_flow",
        items=(FlowDecl("water", "tank.process", "tank.receive"),),
    )
    result = attach_event(model, decl)
    assert isinstance(result, list)
    assert codes(result) == ["E301"]


def test_murderer_chronology_validates_clean():
    model = load_corpus_model("murderer")
    assert validate_chronology(model) == []
    assert validate_chronology(parse("model m").model) == []
    assert model.chronology is not None
    assert len(model.chronology.nodes) == 10


def test_two_cycle_is_one_e302_naming_the_cycle():
    text = (
        "model looped\n"
        "thing x\n"
        "machine m\n"
        "flow x m.create -> m.release\n"
        "event a { flow x m.create -> m.release }\n"
        "event b { flow x m.create -> m.release }\n"
        "chronology { a -> b b -> a }\n"
    )
    result = parse(text)
    assert result.model is None
    e302 = [d for d in result.diagnostics if d.code == "E302"]
    assert len(e302) == 1
    assert "a" in e302[0].message and "b" in e302[0].message


def _chain_model_text(n: int, back_edge: bool = False) -> str:
    lines = ["model chain", "thing x", "machine m", "flow x m.create -> m.release"]
    lines += [f"event e{i} {{ flow x m.create -> m.release }}" for i in range(n)]
    edges = [f"  e{i} -> e{i + 1}" for i in range(n - 1)]
    if back_edge:
        edges.append(f"  e{n - 1} -> e0")
    return "\n".join(lines + ["chronology {", *edges, "}"]) + "\n"


def test_long_chronology_chain_builds():
    result = parse(_chain_model_text(2000))
    assert result.model is not None, result.diagnostics[:3]
    assert len(result.model.chronology.edges) == 1999
    assert ("e1998", "e1999") in result.model.chronology.edges


def test_long_chronology_cycle_is_one_e302():
    result = parse(_chain_model_text(2000, back_edge=True))
    assert [d.code for d in result.diagnostics] == ["E302"]
    cycle = [f"e{i}" for i in range(2000)] + ["e0"]
    assert result.diagnostics[0].message == "chronology cycle: " + " -> ".join(cycle)


def test_duplicate_chronology_edge_is_one_e106():
    text = (
        "model twice\n"
        "thing x\n"
        "machine m\n"
        "flow x m.create -> m.release\n"
        "event a { flow x m.create -> m.release }\n"
        "event b { flow x m.create -> m.release }\n"
        "chronology { a -> b a -> b }\n"
    )
    result = parse(text)
    assert result.model is None
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E106", "duplicate chronology edge 'a -> b'")
    ]


def _random_digraph(seed: int) -> tuple[tuple[str, ...], dict[str, list[str]]]:
    rng = random.Random(seed)
    nodes = tuple(f"n{i}" for i in range(rng.randint(1, 12)))
    adjacency = {a: [b for b in nodes if rng.random() < 0.2] for a in nodes}
    return nodes, adjacency


def _recursive_tarjan(nodes, adjacency) -> list[list[str]]:
    """Textbook recursive Tarjan, the reference for component order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    sccs: list[list[str]] = []

    def strongconnect(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in adjacency[v]:
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = [stack.pop()]
            while component[-1] != v:
                component.append(stack.pop())
            sccs.append(component)

    for n in nodes:
        if n not in index:
            strongconnect(n)
    return sccs


@pytest.mark.parametrize("seed", range(40))
def test_sccs_keep_the_recursive_order(seed):
    # Same components, same roots (Tarjan pops the root last), same order; the
    # order of members inside a component is not compared, as nothing reads it.
    nodes, adjacency = _random_digraph(seed)
    assert [(c[0], set(c)) for c in _components(nodes, adjacency)] == [
        (c[-1], set(c)) for c in _recursive_tarjan(nodes, adjacency)
    ]


@pytest.mark.parametrize("seed", range(40))
def test_sccs_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    nodes, adjacency = _random_digraph(seed)
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from((a, b) for a in nodes for b in adjacency[a])
    expected = {frozenset(c) for c in nx.strongly_connected_components(graph)}
    assert {frozenset(c) for c in _components(nodes, adjacency)} == expected


def test_build_model_reports_one_e302_per_cyclic_component():
    # The tests above call _components directly; this one checks the E302s
    # build_model reports, with networkx as the oracle, on digraphs with and
    # without cycles, self-loops included.
    nx = pytest.importorskip("networkx")
    rng = random.Random(302)
    flow = FlowDecl("x", "m.create", "m.release")
    static = [ThingDecl("x"), MachineDecl("m"), flow]
    acyclic_seen = 0
    for _ in range(3000):
        names = [f"e{i}" for i in range(rng.randint(1, 9))]
        density, loops = rng.choice((0.05, 0.15, 0.3, 0.5)), rng.choice((0.0, 0.1))
        edges = [(a, b) for a in names for b in names
                 if rng.random() < (loops if a == b else density)]
        rng.shuffle(edges)
        events = [EventDecl(n, items=(flow,)) for n in names]
        built = build_model("chron", [*static, *events, ChronologyDecl(tuple(edges))])
        graph = nx.DiGraph()
        graph.add_nodes_from(names)
        graph.add_edges_from(edges)
        cyclic = [c for c in map(frozenset, nx.strongly_connected_components(graph))
                  if len(c) > 1 or graph.has_edge(*[*c] * 2)]
        if nx.is_directed_acyclic_graph(graph):
            acyclic_seen += 1
            assert isinstance(built, Model) and not cyclic
            continue
        assert isinstance(built, list) and codes(built) == ["E302"] * len(cyclic)
        # each names a cycle of the graph, one per cyclic component
        found = set()
        for d in built:
            path = d.message.removeprefix("chronology cycle: ").split(" -> ")
            assert d.location == path[0] == path[-1]
            assert all(graph.has_edge(a, b) for a, b in zip(path, path[1:]))
            found.add(next(c for c in cyclic if path[0] in c))
        assert len(found) == len(cyclic)
    assert 500 < acyclic_seen < 2500


def _cycle_messages(names: str, edges: str) -> list[str]:
    lines = ["model pins", "thing x", "machine m", "flow x m.create -> m.release"]
    lines += [f"event {n} {{ flow x m.create -> m.release }}" for n in names.split()]
    result = parse("\n".join(lines + [f"chronology {{ {edges} }}"]) + "\n")
    assert codes(result.diagnostics) == ["E302"] * len(result.diagnostics)
    return [d.message for d in result.diagnostics]


def test_a_cycle_starts_at_the_node_the_depth_first_pass_reaches_first():
    # c is declared before b, but the pass from a reaches b first
    assert _cycle_messages("a c b", "a -> b b -> c c -> b") == ["chronology cycle: b -> c -> b"]


def test_cyclic_components_are_reported_as_they_complete():
    assert _cycle_messages("a b c d", "a -> b b -> a b -> c c -> d d -> c") == [
        "chronology cycle: c -> d -> c",
        "chronology cycle: a -> b -> a",
    ]


def test_unknown_event_reference_is_e303():
    text = (
        "model missing\n"
        "thing x\n"
        "machine m\n"
        "flow x m.create -> m.release\n"
        "event a { flow x m.create -> m.release }\n"
        "chronology { a -> e99 }\n"
    )
    result = parse(text)
    assert result.model is None
    assert "E303" in codes(result.diagnostics)


def test_coverage_zero_when_no_events():
    text = "model bare\nthing x\nmachine m\nflow x m.create -> m.release\n"
    model = parse(text).model
    assert model is not None
    report = coverage(model)
    assert report.ratio == 0.0
    assert report.covered == ()
    assert report.uncovered == ("f1",)


def test_coverage_one_when_single_event_spans_graph():
    text = (
        "model full\n"
        "thing x\n"
        "machine m\n"
        "flow x m.create -> m.release\n"
        "event all { flow x m.create -> m.release }\n"
    )
    model = parse(text).model
    report = coverage(model)
    assert report.ratio == 1.0
    assert report.uncovered == ()


def test_coverage_of_empty_model_is_one():
    model = parse("model empty").model
    assert coverage(model).ratio == 1.0


def test_reservoir_coverage_matches_brute_force_union_oracle():
    """Independent oracle: union region edge lists scanned from file text."""
    model = load_corpus_model("reservoir")
    text = corpus_path("reservoir.tm").read_text()
    total = 0
    covered_keys = set()
    in_event = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if re.match(r"^event\b", line):
            in_event = True
            continue
        if in_event and line == "}":
            in_event = False
            continue
        if re.match(r"^(flow|trigger)\b", line):
            if in_event:
                covered_keys.add(line)
            else:
                total += 1
    # rebuild the same keys for the model's covered edge ids
    report = coverage(model)
    expected_ratio = len(covered_keys) / total
    assert report.ratio == pytest.approx(expected_ratio)
    assert report.ratio == 1.0  # the reservoir eventization covers everything


def test_coverage_monotone_under_adding_events():
    model = load_corpus_model("kant_ci")
    base = coverage(model).ratio
    # add an event covering one currently uncovered edge
    report = coverage(model)
    assert report.uncovered  # the copy-model trigger is uncovered
    from tmkit.core import TriggerDecl

    edge = model.triggers_by_id[report.uncovered[0]]
    event = attach_event(
        model,
        EventDecl("extra", items=(TriggerDecl(str(edge.src), str(edge.dst)),)),
    )
    assert isinstance(event, Event)
    grown = coverage(model.with_event(event)).ratio
    assert grown >= base


def test_is_linear_extension_chain():
    chron = Chronology(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert is_linear_extension(chron, ["a", "b", "c"])
    assert not is_linear_extension(chron, ["b", "a", "c"])


def test_is_linear_extension_rejects_non_permutations():
    chron = Chronology(("a", "b"), (("a", "b"),))
    with pytest.raises(ValueError):
        is_linear_extension(chron, ["a"])
    with pytest.raises(ValueError):
        is_linear_extension(chron, ["a", "a"])
    with pytest.raises(ValueError):
        is_linear_extension(chron, ["a", "b", "c"])


def test_murderer_linear_extension_count_small_sample():
    """The full 10! scan lives in the acceptance suite; the subset DP oracle
    pins the expected count here."""
    model = load_corpus_model("murderer")
    chron = model.chronology
    assert _dp_linear_extension_count(chron) == 720


def _dp_linear_extension_count(chron: Chronology) -> int:
    index = {n: i for i, n in enumerate(chron.nodes)}
    preds = [0] * len(chron.nodes)
    for a, b in chron.edges:
        preds[index[b]] |= 1 << index[a]
    full = (1 << len(chron.nodes)) - 1
    memo = {full: 1}

    def count(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        total = 0
        for i in range(len(chron.nodes)):
            if not (mask >> i) & 1 and (preds[i] & mask) == preds[i]:
                total += count(mask | (1 << i))
        memo[mask] = total
        return total

    return count(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_topological_orders_are_accepted(n, data):
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                edges.append((nodes[i], nodes[j]))
    chron = Chronology(nodes, tuple(edges))
    order = topological_order(chron)
    assert order is not None
    assert is_linear_extension(chron, order)


@pytest.mark.parametrize("seed", range(40))
def test_topological_order_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    nodes = [f"e{i}" for i in range(rng.randint(1, 7))]
    rank = dict(zip(nodes, rng.sample(range(len(nodes)), len(nodes))))
    # edges follow a hidden order, so the graph is a DAG, declared shuffled
    edges = [(a, b) for a in nodes for b in nodes if rank[a] < rank[b] and rng.random() < 0.3]
    rng.shuffle(edges)
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    order = topological_order(Chronology(tuple(nodes), tuple(edges)))
    assert order is not None and sorted(order) == sorted(graph)
    assert tuple(order) in {tuple(o) for o in nx.all_topological_sorts(graph)}
    # and on any digraph it finds no order exactly when networkx finds a cycle
    nodes, adjacency = _random_digraph(seed)
    edges = [(a, b) for a in nodes for b in adjacency[a]]
    graph = nx.DiGraph(edges)
    graph.add_nodes_from(nodes)
    cyclic = topological_order(Chronology(nodes, tuple(edges))) is None
    assert cyclic == (not nx.is_directed_acyclic_graph(graph))


def test_topological_order_is_first_in_first_out():
    # Kahn's walk takes ready events in the order they became ready.
    chron = Chronology(
        ("s", "x", "y", "t", "z"), (("s", "x"), ("s", "y"), ("x", "t"), ("y", "t"))
    )
    assert topological_order(chron) == ["s", "z", "x", "y", "t"]


def test_topological_order_none_on_cycle():
    chron = Chronology(("a", "b"), (("a", "b"), ("b", "a")))
    assert topological_order(chron) is None
    assert not any(is_linear_extension(chron, p) for p in (("a", "b"), ("b", "a")))


def test_an_edge_naming_an_unknown_event_is_a_value_error():
    # build_model reports such an edge as E303, but a hand-built chronology may hold one
    model = load_corpus_model("murderer")
    first = model.chronology.nodes[0]
    for a, b in (("ghost", first), (first, "ghost")):
        chron = Chronology(model.chronology.nodes, (*model.chronology.edges, (a, b)))
        message = f"chronology edge '{a} -> {b}' names an event not in its nodes"
        with pytest.raises(ValueError, match=re.escape(message)):
            topological_order(chron)
        with pytest.raises(ValueError, match=re.escape(message)):
            render_chronology(replace(model, chronology=chron))
        with pytest.raises(ValueError, match=re.escape(message)):
            is_linear_extension(chron, chron.nodes)


@pytest.mark.parametrize(
    "edge, diagnostic",
    [
        (("e2", "e1"), ("E302", "chronology cycle: e1 -> e2 -> e1", "e1")),
        (("ghost", "e1"), ("E303", "unknown event 'ghost' in chronology", "ghost")),
    ],
)
def test_validate_refuses_a_hand_built_chronology(edge, diagnostic):
    model = load_corpus_model("murderer")
    chron = model.chronology
    broken = replace(model, chronology=Chronology(chron.nodes, (*chron.edges, edge)))
    assert [(d.code, d.message, d.location) for d in validate(broken)] == [diagnostic]
    assert validate_chronology(broken) == validate(broken)
    scenario = load_scenario(corpus_path("murderer_truth.scn").read_text())
    for refuse in (lambda: init_state(broken, scenario), lambda: simulate(broken, scenario),
                   lambda: render_static(broken)):
        with pytest.raises(ValueError, match=diagnostic[1]):
            refuse()


def test_each_chronology_is_checked_once(monkeypatch):
    # build_model checks the chronology it builds, and validate reads that
    # check; validate_chronology reads it too and returns a list of its own.
    calls = []
    check = core._chronology_diagnostics
    monkeypatch.setattr(core, "_chronology_diagnostics",
                        lambda *args: calls.append(args) or check(*args))
    model = parse(corpus_path("murderer.tm").read_text()).model
    validate(model, lax=True)
    assert validate_chronology(model) == []
    assert len(calls) == 1
    chron = model.chronology
    broken = replace(model, chronology=Chronology(chron.nodes, (*chron.edges, ("e2", "e1"))))
    validate_chronology(broken).clear()
    assert codes(validate_chronology(broken)) == codes(validate(broken)) == ["E302"]
    assert len(calls) == 2


def test_validate_refuses_a_hand_built_chronology_node_that_is_no_event():
    # with the node, the edge names no unknown end, so only the node is reported
    model = load_corpus_model("murderer")
    chron = model.chronology
    ghost = Chronology((*chron.nodes, "ghost"), (*chron.edges, ("ghost", "e1")))
    broken = replace(model, chronology=ghost)
    diagnostic = ("E303", "unknown event 'ghost' in chronology", "ghost")
    assert [(d.code, d.message, d.location) for d in validate(broken)] == [diagnostic]
    scenario = load_scenario(corpus_path("murderer_truth.scn").read_text())
    for refuse in (lambda: init_state(broken, scenario), lambda: simulate(broken, scenario)):
        with pytest.raises(ValueError, match=diagnostic[1]):
            refuse()


def test_an_acyclic_chronology_is_peeled_once(monkeypatch):
    # parse, validate, topological_order and two chronology views share one peel,
    # and only a cyclic chronology is searched for components
    calls = {"peel": 0, "components": 0}
    peel = Chronology.__dict__["order"]

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(peel, "func", counted("peel", peel.func))
    monkeypatch.setattr(core, "_components", counted("components", core._components))
    model = parse(corpus_path("murderer.tm").read_text()).model
    assert validate(model) == []
    first, second = topological_order(model.chronology), topological_order(model.chronology)
    assert first == second and first is not second  # a new list per call
    assert render_chronology(model).text == render_chronology(model).text
    assert calls == {"peel": 1, "components": 0}
    assert _cycle_messages("a b", "a -> b b -> a") == ["chronology cycle: a -> b -> a"]
    assert calls == {"peel": 2, "components": 1}


@pytest.mark.parametrize("seed", range(10))
def test_random_dag_counts_match_between_scan_and_dp(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = tuple(
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    )
    chron = Chronology(nodes, edges)
    scanned = sum(
        1 for p in itertools.permutations(nodes) if is_linear_extension(chron, p)
    )
    assert scanned == _dp_linear_extension_count(chron)


@pytest.mark.parametrize("name", ["two words", "create", "flow", ""])
def test_attach_event_rejects_names_the_language_cannot_express(name):
    # The same ValueError as build_model, so serialize never writes an
    # event name that fails to parse.
    model = load_corpus_model("reservoir")
    decl = EventDecl(name, items=(NodeItemDecl("tank.sensor.create"),))
    with pytest.raises(ValueError) as from_attach:
        attach_event(model, decl)
    with pytest.raises(ValueError) as from_build:
        build_model("m", [ThingDecl("water"), MachineDecl("tank"), decl])
    assert str(from_attach.value) == str(from_build.value)
    assert "event name" in str(from_attach.value)


def _relay_event_text(n: int) -> str:
    # n flows along a machine chain; one event lists each flow twice.
    lines = ["model relay", "thing w"] + [f"machine m{i}" for i in range(n + 1)]
    flows = [f"flow w m{i}.transfer -> m{i + 1}.transfer" for i in range(n)]
    return "\n".join(lines + flows + ["event big {", *flows, *flows, "}"]) + "\n"


def test_region_collapse_compares_each_repeat_once(monkeypatch):
    eq_calls = 0
    plain_eq = RegionFlow.__eq__

    def counting_eq(self, other):
        nonlocal eq_calls
        eq_calls += 1
        return plain_eq(self, other)

    monkeypatch.setattr(RegionFlow, "__eq__", counting_eq)
    for n in (200, 400):
        eq_calls = 0
        model = parse(_relay_event_text(n)).model
        assert model is not None
        (event,) = model.events
        flow_ids = tuple(i.edge_id for i in event.items if isinstance(i, RegionFlow))
        assert flow_ids == tuple(f"f{i + 1}" for i in range(n))
        # A quadratic collapse makes ~n * n comparisons here.
        assert eq_calls <= 2 * n
