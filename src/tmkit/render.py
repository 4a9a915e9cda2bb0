"""DOT emitters for static models, event overlays, and chronologies.

Machines become nested clusters, stages become nodes labeled with their
kind, flows are solid edges labeled with the thing, triggers dashed. Event
regions are drawn as color-coded node outlines with a legend (clusters
cannot cross machine boundaries or overlap, so outlines are the non-lossy
encoding); each event's assignments sit between begin/end marker comments.
Output is deterministic: same model, same bytes. Every stage's text comes
from ``Model.stages``, formatted once per model, so no view formats a
``StageRef`` per edge end. The static diagram's text is formatted once per
model object and kept in its instance dict: ``render_static`` returns it,
and ``render_events`` appends its overlay to it. An event's members come
from one walk of its items: node stages first, then flow ends, then trigger
ends, in item order and first-seen.
"""

from __future__ import annotations

import re
from functools import cache

from ._frozen import frozen
from .core import ENV_NAME, Model, RegionFlow, RegionTrigger, _require_no_errors, _Stage, validate

__all__ = [
    "DotDocument",
    "render_static",
    "render_events",
    "render_chronology",
    "dot_well_formed",
]

_PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
    "#1f78b4",
    "#b2df8a",
    "#fb9a99",
    "#cab2d6",
)


@frozen
class DotDocument:
    """A rendered diagram in the DOT graph language."""

    text: str

    def __str__(self) -> str:
        return self.text


def _stages_by_machine(model: Model) -> dict[tuple[str, ...], list[_Stage]]:
    grouped: dict[tuple[str, ...], list[_Stage]] = {}
    for stage in model.stages.values():
        grouped.setdefault(stage.ref.path, []).append(stage)
    return grouped


def _static_text(model: Model) -> str:
    """The static diagram's text; racing threads keep the first of equal texts."""
    cache = vars(model)
    if "_static_dot" in cache:
        return cache["_static_dot"]
    grouped = _stages_by_machine(model)
    lines = [f'digraph "{model.name}" {{', "  compound=true;"]
    closers: list[str] = []  # one pending "}" line per open cluster
    for machine in model.machines:
        while len(closers) >= len(machine.path):
            lines.append(closers.pop())
        pad = "  " * len(machine.path)
        lines.append(f'{pad}subgraph "cluster_{"__".join(machine.path)}" {{')
        lines.append(f'{pad}  label="{machine.name}";')
        for stage in grouped.get(machine.path, ()):
            lines.append(f'{pad}  "{stage.text}" [label="{stage.kind}"];')
        closers.append(f"{pad}}}")
    lines += reversed(closers)
    for stage in grouped.get((ENV_NAME,), ()):
        lines.append(f'  "{stage.text}" [label="{stage.text}", shape=plaintext];')
    stages = model.stages
    for e in model.flows:
        src, dst = stages[e.src].text, stages[e.dst].text
        lines.append(f'  "{src}" -> "{dst}" [id="{e.id}", label="{e.thing}"];')
    for t in model.triggers:
        src, dst = stages[t.src].text, stages[t.dst].text
        lines.append(f'  "{src}" -> "{dst}" [id="{t.id}", style=dashed];')
    lines.append("}")
    return cache.setdefault("_static_dot", "\n".join(lines) + "\n")


def render_static(model: Model, *, lax: bool = False) -> DotDocument:
    """Static diagram: machine clusters, stage nodes, flow and trigger edges."""
    _require_no_errors(validate(model, lax=lax))
    return DotDocument(_static_text(model))


def render_events(model: Model, *, lax: bool = False) -> DotDocument:
    """Static diagram plus one color-coded boundary block per event."""
    _require_no_errors(validate(model, lax=lax))
    if not model.events:
        raise ValueError("model has no events to render")
    lines = [_static_text(model)[:-3]]  # the static text up to its closing "\n}\n"
    stages, flows, triggers = model.stages, model.flows_by_id, model.triggers_by_id
    legend = ['  subgraph "cluster_legend" {', '    label="events";']
    for index, event in enumerate(model.events):
        color = _PALETTE[index % len(_PALETTE)]
        nodes, flow_texts, trigger_texts = [], [], []
        for item in event.items:
            kind = type(item)
            if kind is RegionFlow:
                edge = flows[item.edge_id]
                flow_texts += stages[edge.src].text, stages[edge.dst].text
            elif kind is RegionTrigger:
                edge = triggers[item.edge_id]
                trigger_texts += stages[edge.src].text, stages[edge.dst].text
            else:  # a node that no edge touches occurs only in a hand-built model
                ref = item.ref
                nodes.append(stages[ref].text if ref in stages else str(ref))
        members = dict.fromkeys(nodes + flow_texts + trigger_texts)
        lines.append(f"  /* event {event.name} begin */")
        lines += [f'  "{text}" [color="{color}", penwidth=2.0];' for text in members]
        lines.append(f"  /* event {event.name} end */")
        tag = " (perpetual)" if event.perpetual else ""
        legend.append(
            f'    "legend_{event.name}" [label="{event.name}{tag}", '
            f'color="{color}", penwidth=2.0, shape=box];'
        )
    lines += legend + ["  }", "}", ""]
    return DotDocument("\n".join(lines))


def render_chronology(model: Model) -> DotDocument:
    """One node per event, one edge per precedence pair."""
    if model.chronology is None:
        raise ValueError("model has no chronology to render")
    if model.chronology.order is None:
        raise ValueError("chronology is cyclic")
    lines = [f'digraph "{model.name}_chronology" {{']
    events = model.events_by_name
    for name in model.chronology.nodes:
        event = events.get(name)
        tag = " (perpetual)" if event is not None and event.perpetual else ""
        lines.append(f'  "{name}" [label="{name}{tag}"];')
    for a, b in model.chronology.edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return DotDocument("\n".join(lines) + "\n")


@cache
def _dot_res() -> tuple[re.Pattern[str], re.Pattern[str]]:
    """A closed string (with backslash escapes) or comment, where a string or
    block comment that never closes falls through to the ``unclosed`` group;
    and one bracket. Compiled on the first check: no ``tm`` command runs one."""
    skip = r'(?P<string>"(?:[^"\\]|\\.)*")|/\*.*?\*/|//[^\n]*\n?|(?P<unclosed>"|/\*)'
    return re.compile(skip, re.S), re.compile(r"[{}\[\]]")


def dot_well_formed(text: str) -> bool:
    """Tokenizer-level well-formedness: balanced braces/brackets, closed
    strings and comments, a digraph header, and terminated statements."""
    skip_re, nest_re = _dot_res()
    kept: list[str] = []
    pos = 0
    for m in skip_re.finditer(text):
        if m.lastgroup == "unclosed":
            return False
        kept.append(text[pos : m.start()])
        if m.lastgroup == "string":
            kept.append("s")
        pos = m.end()
    kept.append(text[pos:])
    flat = "".join(kept).strip()
    depth = dict.fromkeys("{}[]", 0)
    for m in nest_re.finditer(flat):
        depth[m.group()] += 1
        if depth["}"] > depth["{"] or depth["]"] > depth["["]:
            return False
    if depth["{"] != depth["}"] or depth["["] != depth["]"]:
        return False
    return flat.startswith("digraph") and flat.endswith("}")
