"""DOT emission: structure counts against a traversal oracle, determinism."""

from __future__ import annotations

import copy
import pickle
import random
import re
from dataclasses import replace

import pytest

import tmkit.render
from tmkit.core import Event, RegionFlow, RegionNode, RegionTrigger, StageKind, StageRef
from tmkit.dsl import parse, serialize
from tmkit.events import CoverageReport, coverage
from tmkit.render import (
    _PALETTE,
    dot_well_formed,
    render_chronology,
    render_events,
    render_static,
)
from tmkit.sim import Scenario, simulate

from helpers import CORPUS_NAMES, bench_workloads, load_corpus_model, random_valid_model


def stage_oracle(model):
    """Independent traversal: distinct (machine path, kind) endpoint pairs."""
    seen = set()
    for e in model.flows:
        seen.add((e.src.path, e.src.kind))
        seen.add((e.dst.path, e.dst.kind))
    for t in model.triggers:
        seen.add((t.src.path, t.src.kind))
        seen.add((t.dst.path, t.dst.kind))
    return seen


def machine_oracle(model):
    count = 0
    stack = list(model.root_machines)
    while stack:
        machine = stack.pop()
        count += 1
        stack.extend(machine.children)
    return count


def test_empty_model_renders_zero_nodes():
    model = parse("model empty").model
    doc = render_static(model)
    assert dot_well_formed(doc.text)
    assert "label=" not in doc.text.replace("compound", "")
    assert doc.text.count(" -> ") == 0


def test_reservoir_cluster_and_dashed_counts():
    model = load_corpus_model("reservoir")
    doc = render_static(model)
    assert doc.text.count('subgraph "cluster_') == 7  # 5 roots + 2 nested
    assert doc.text.count("style=dashed") == 2
    dashed = [
        line for line in doc.text.splitlines() if "style=dashed" in line
    ]
    assert any('"processor.process" -> "decider.create"' in line for line in dashed)
    assert any(
        '"decider.process" -> "valve.control.process"' in line for line in dashed
    )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_static_node_count_matches_traversal_oracle(name):
    model = load_corpus_model(name)
    doc = render_static(model)
    declared = re.findall(r'"([^"]+)" \[label="[^"]*"[^\]]*\]', doc.text)
    assert len(declared) == len(set(declared))
    assert len(declared) == len(stage_oracle(model))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_static_cluster_count_matches_machine_count(name):
    model = load_corpus_model(name)
    doc = render_static(model)
    assert doc.text.count('subgraph "cluster_') == machine_oracle(model)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_every_edge_id_appears_exactly_once(name):
    model = load_corpus_model(name)
    doc = render_static(model)
    ids = re.findall(r'\[id="([ft]\d+)"', doc.text)
    assert sorted(ids) == sorted(
        [e.id for e in model.flows] + [t.id for t in model.triggers]
    )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_render_is_deterministic(name):
    model = load_corpus_model(name)
    assert render_static(model).text == render_static(model).text
    assert render_events(model).text == render_events(model).text
    assert render_chronology(model).text == render_chronology(model).text


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_all_views_are_well_formed(name):
    model = load_corpus_model(name)
    for doc in (render_static(model), render_events(model), render_chronology(model)):
        assert dot_well_formed(doc.text)


def test_events_view_requires_events():
    model = parse("model empty").model
    with pytest.raises(ValueError):
        render_events(model)


_CROSSING = "model m\nthing x\nmachine a\nmachine b\nflow x a.process -> b.receive\n"


def test_renderers_and_simulate_refuse_a_model_that_does_not_validate():
    # A lax parse admits the shortcut flow; a strict render or run refuses
    # it with one message, before render_events looks for events.
    model = parse(_CROSSING, lax=True).model
    refusal = (
        "model does not validate: error E103 [f1] flow crosses machine boundary "
        "without transfer: a.process -> b.receive"
    )
    for call in (render_static, render_events, lambda m: simulate(m, Scenario())):
        with pytest.raises(ValueError) as excinfo:
            call(model)
        assert str(excinfo.value) == refusal
    assert dot_well_formed(render_static(model, lax=True).text)


def test_single_event_boundary_contains_all_nodes():
    text = (
        "model tiny\n"
        "thing x\n"
        "machine m\n"
        "flow x m.create -> m.release\n"
        "event whole { flow x m.create -> m.release }\n"
    )
    model = parse(text).model
    doc = render_events(model)
    begin = doc.text.index("/* event whole begin */")
    end = doc.text.index("/* event whole end */")
    block = doc.text[begin:end]
    assert '"m.create"' in block and '"m.release"' in block


def test_reservoir_event_boundaries_match_corpus_regions():
    """DOT text scanner oracle: each region node id inside its boundary block."""
    model = load_corpus_model("reservoir")
    doc = render_events(model)
    for event in model.events:
        begin = doc.text.index(f"/* event {event.name} begin */")
        end = doc.text.index(f"/* event {event.name} end */")
        block = doc.text[begin:end]
        member_refs = set()
        for item in event.items:
            if isinstance(item, RegionNode):
                member_refs.add(item.ref)
                continue
            edges = model.flows_by_id if isinstance(item, RegionFlow) else model.triggers_by_id
            edge = edges[item.edge_id]
            member_refs.update((edge.src, edge.dst))
        for ref in member_refs:
            assert f'"{ref}"' in block
    assert doc.text.count("/* event ") == 2 * len(model.events)


def test_events_view_marks_perpetual_in_legend():
    model = load_corpus_model("kant_ci")
    doc = render_events(model)
    assert '"legend_universe_runs" [label="universe_runs (perpetual)"' in doc.text


def test_chronology_counts():
    model = load_corpus_model("murderer")
    doc = render_chronology(model)
    node_lines = re.findall(r'^\s+"e\w+" \[label=', doc.text, flags=re.M)
    assert len(node_lines) == 10
    assert doc.text.count(" -> ") == len(model.chronology.edges) == 9


def test_single_event_chronology():
    text = (
        "model solo\n"
        "thing x\n"
        "machine m\n"
        "flow x m.create -> m.release\n"
        "event only { flow x m.create -> m.release }\n"
        "chronology { }\n"
    )
    model = parse(text).model
    assert model is not None
    doc = render_chronology(model)
    assert doc.text.count("[label=") == 1
    assert doc.text.count(" -> ") == 0


def test_chronology_view_requires_chronology():
    model = parse("model empty").model
    with pytest.raises(ValueError):
        render_chronology(model)


def test_chronology_view_rejects_cycles():
    from dataclasses import replace

    from tmkit.core import Chronology

    model = load_corpus_model("murderer")
    looped = replace(
        model,
        chronology=Chronology(("e1", "e2"), (("e1", "e2"), ("e2", "e1"))),
    )
    with pytest.raises(ValueError):
        render_chronology(looped)


def test_dot_well_formed_rejects_broken_documents():
    assert not dot_well_formed("digraph g {")
    assert not dot_well_formed('digraph g { "a" -> "b" ')
    assert not dot_well_formed('graph g { }')
    assert not dot_well_formed('digraph g { "unclosed }')
    assert dot_well_formed('digraph g { "a" -> "b"; }')
    assert dot_well_formed('digraph g { "say \\"}\\"" -> "b"; }')
    assert not dot_well_formed("digraph g { /* never closed }")
    assert dot_well_formed("digraph g {\n  // } hidden\n  a;\n}")
    assert not dot_well_formed("digraph g } a; {")
    assert not dot_well_formed("digraph g } {{ }")
    assert not dot_well_formed('digraph g { a [label="x"; }')


def test_emit_formats_no_stage_ref_per_edge(monkeypatch):
    # Each stage's text is formatted once per model, in Model.stages; an
    # emitter that formatted a StageRef would do so at every edge end.
    model = parse(bench_workloads().relay(200).models["relay"]).model
    calls = 0
    plain_str = StageRef.__str__

    def counting_str(self):
        nonlocal calls
        calls += 1
        return plain_str(self)

    monkeypatch.setattr(StageRef, "__str__", counting_str)
    serialize(model)
    render_static(model)
    render_events(model)
    render_chronology(model)
    coverage(model).text()
    assert calls == 0, f"{calls} StageRef.__str__ calls"


def reference_overlay(model) -> str:
    """``render_events`` text with each event's members taken from its node,
    flow and trigger items in turn, every edge looked up by id and every
    stage formatted from its ``StageRef``."""
    flows = {e.id: e for e in model.flows}
    triggers = {t.id: t for t in model.triggers}
    lines, legend = [], ['  subgraph "cluster_legend" {', '    label="events";']
    for index, event in enumerate(model.events):
        color = _PALETTE[index % len(_PALETTE)]
        items = event.items
        members = dict.fromkeys(str(i.ref) for i in items if isinstance(i, RegionNode))
        edges = [flows[i.edge_id] for i in items if isinstance(i, RegionFlow)]
        edges += [triggers[i.edge_id] for i in items if isinstance(i, RegionTrigger)]
        for edge in edges:
            members.setdefault(str(edge.src))
            members.setdefault(str(edge.dst))
        lines.append(f"  /* event {event.name} begin */")
        lines += [f'  "{text}" [color="{color}", penwidth=2.0];' for text in members]
        lines.append(f"  /* event {event.name} end */")
        tag = " (perpetual)" if event.perpetual else ""
        legend.append(
            f'    "legend_{event.name}" [label="{event.name}{tag}", '
            f'color="{color}", penwidth=2.0, shape=box];'
        )
    static = render_static(model).text
    assert static.endswith("\n}\n")
    return static[: -len("}\n")] + "\n".join(lines + legend + ["  }", "}"]) + "\n"


def reference_coverage(model) -> CoverageReport:
    ids = [e.id for e in model.flows] + [t.id for t in model.triggers]
    inside = set()
    for event in model.events:
        inside.update(i.edge_id for i in event.items if not isinstance(i, RegionNode))
    covered = tuple(i for i in ids if i in inside)
    uncovered = tuple(i for i in ids if i not in inside)
    return CoverageReport(covered, uncovered, len(covered) / len(ids) if ids else 1.0)


def _shuffled_items(model, seed: int):
    rng = random.Random(seed)
    events = []
    for event in model.events:
        items = list(event.items)
        rng.shuffle(items)
        events.append(replace(event, items=tuple(items)))
    return replace(model, events=tuple(events))


_ITEM_ORDER = (RegionNode, RegionFlow, RegionTrigger)


def test_overlay_and_coverage_match_the_item_property_reference():
    # Generated models put node items first and trigger items last; the
    # shuffled copy interleaves the three kinds.
    interleaved = 0
    for seed in range(320):
        generated = random_valid_model(seed)
        for model in (generated, _shuffled_items(generated, seed)):
            assert coverage(model) == reference_coverage(model), seed
            if model.events:
                assert render_events(model).text == reference_overlay(model), seed
            for event in model.events:
                kinds = [type(i) for i in event.items]
                interleaved += kinds != sorted(kinds, key=_ITEM_ORDER.index)
    assert interleaved >= 100, interleaved


_UNTOUCHED_NODE_FMT = """\
model murderer
thing presence
machine victim
flow presence victim.create -> victim.release
flow presence victim.release -> victim.transfer
event hidden {
  node victim.process
  flow presence victim.release -> victim.transfer
}
"""

_UNTOUCHED_NODE_DOT = """\
digraph "murderer" {
  compound=true;
  subgraph "cluster_victim" {
    label="victim";
    "victim.create" [label="create"];
    "victim.release" [label="release"];
    "victim.transfer" [label="transfer"];
  }
  "victim.create" -> "victim.release" [id="f1", label="presence"];
  "victim.release" -> "victim.transfer" [id="f2", label="presence"];
  /* event hidden begin */
  "victim.process" [color="#1b9e77", penwidth=2.0];
  "victim.release" [color="#1b9e77", penwidth=2.0];
  "victim.transfer" [color="#1b9e77", penwidth=2.0];
  /* event hidden end */
  subgraph "cluster_legend" {
    label="events";
    "legend_hidden" [label="hidden", color="#1b9e77", penwidth=2.0, shape=box];
  }
}
"""


def test_a_region_node_no_edge_touches_is_emitted():
    # attach_event rejects such a node (E301), so only a hand-built model
    # reaches the emitters with a stage that Model.stages lacks.
    model = load_corpus_model("murderer")
    victim = model.root_machines[0]
    flows = model.flows[:2]
    untouched = StageRef(victim.path, StageKind.PROCESS)
    event = Event("hidden", items=(RegionNode(untouched), RegionFlow(flows[1].id)))
    hand = replace(model, things=model.things[:1], root_machines=(victim,), flows=flows,
                   triggers=(), events=(event,), chronology=None)
    assert untouched not in hand.stages
    assert serialize(hand) == _UNTOUCHED_NODE_FMT
    assert render_events(hand, lax=True).text == _UNTOUCHED_NODE_DOT


def test_both_views_format_the_static_text_once_per_model(monkeypatch):
    # render_static returns the model's one static text and render_events
    # builds its overlay on that text, so four renders format the body once.
    model = load_corpus_model("reservoir")
    calls = 0
    grouped = tmkit.render._stages_by_machine

    def counting(m):
        nonlocal calls
        calls += 1
        return grouped(m)

    monkeypatch.setattr(tmkit.render, "_stages_by_machine", counting)
    static, events = render_static(model).text, render_events(model).text
    again = render_static(model).text, render_events(model).text
    assert calls == 1
    assert again[0] is static and again[1] == events
    assert events.startswith(static[: -len("}\n")])


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_the_views_give_the_same_bytes_whichever_runs_first(name):
    static_first, events_first = load_corpus_model(name), load_corpus_model(name)
    static = render_static(static_first).text
    events = render_events(static_first).text
    assert render_events(events_first).text == events
    assert render_static(events_first).text == static


def test_a_cached_text_does_not_skip_the_validity_guard():
    model = parse(_CROSSING, lax=True).model
    assert dot_well_formed(render_static(model, lax=True).text)
    for call in (render_static, render_events):
        with pytest.raises(ValueError, match="error E103"):
            call(model)


def test_a_replaced_model_and_a_model_with_an_event_render_their_own_text():
    model = load_corpus_model("reservoir")
    render_static(model), render_events(model)
    renamed = replace(model, name="renamed")
    static = render_static(renamed).text
    assert static == render_static(model).text.replace('"reservoir"', '"renamed"', 1)
    assert render_events(renamed).text.startswith(static[: -len("}\n")])
    extra = Event("extra", items=(RegionFlow(model.flows[0].id),))
    grown = model.with_event(extra)
    assert render_static(grown).text is not render_static(model).text
    assert render_static(grown).text == render_static(model).text
    events = render_events(grown).text
    assert events == render_events(load_corpus_model("reservoir").with_event(extra)).text
    assert "/* event extra begin */" in events


def test_a_copied_or_unpickled_rendered_model_renders_the_same_bytes():
    model = load_corpus_model("murderer")
    static, events = render_static(model).text, render_events(model).text
    for other in (copy.copy(model), pickle.loads(pickle.dumps(model))):
        assert render_static(other).text == static
        assert render_events(other).text == events
