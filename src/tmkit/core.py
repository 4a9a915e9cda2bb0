"""Graph data model and well-formedness rules for Thinging Machine models.

A TM model is a web of nested machines. Things flow through up to five
stages per machine (create, process, release, transfer, receive) along
solid flow edges; dashed trigger edges connect flows of different things
and are the only cross-thing causation. Stages are implicit: a machine
possesses a stage exactly when some edge touches it.

Well-formedness is reported through :class:`Diagnostic` values with stable
codes; checks are exhaustive, never fail-fast.
"""

from __future__ import annotations

import gc
import re
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Union

from ._frozen import frozen, replace

__all__ = [
    "StageKind",
    "StageRef",
    "Thing",
    "Machine",
    "FlowEdge",
    "TriggerEdge",
    "RegionNode",
    "RegionFlow",
    "RegionTrigger",
    "Event",
    "Chronology",
    "Model",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "ENV_NAME",
    "PathError",
    "ThingDecl",
    "MachineDecl",
    "FlowDecl",
    "TriggerDecl",
    "NodeItemDecl",
    "EventDecl",
    "ChronologyDecl",
    "flow_legal",
    "build_model",
    "validate",
    "resolve",
    "parse_stage_ref",
]


class StageKind(Enum):
    """The five stages a thing can manifest in."""

    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

    # Members are singletons, also when unpickled, so identity hashing agrees
    # with equality and spares StageRef's hash a Python-level Enum.__hash__.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self._value_  # the stored string, not Enum's ``value`` descriptor


STAGE_KINDS: dict[str, StageKind] = {kind.value: kind for kind in StageKind}

#: Reserved machine name for "the outside"; it has a single transfer stage.
ENV_NAME = "env"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Words the language reserves; not usable as element names.
RESERVED_WORDS = frozenset(
    {"model", "thing", "machine", "flow", "trigger", "event", "chronology",
     "perpetual", "node"}
) | frozenset(STAGE_KINDS)

# The code of an illegal flow by (source kind, destination kind, same machine):
# E104 into create, else E102 inside one machine and E103 across machines. The
# eight keys left out are the legal flows. Inside a machine release is the only
# exit gate, so create may not jump straight to transfer; a machine boundary is
# crossed from transfer to transfer only.
_FLOW_CODES: dict[tuple[StageKind, StageKind, bool], str] = {
    (src, dst, same): "E104" if dst is StageKind.CREATE else "E102" if same else "E103"
    for src in StageKind for dst in StageKind for same in (True, False)
    if (src._value_, dst._value_, same) not in {
        ("create", "process", True), ("create", "release", True),
        ("process", "release", True), ("release", "transfer", True),
        ("transfer", "receive", True), ("receive", "process", True),
        ("receive", "release", True), ("transfer", "transfer", False),
    }
}

#: Registry of diagnostic codes (bit-exact strings).
DIAGNOSTIC_CODES: dict[str, str] = {
    "E001": "syntax-error",
    "E101": "unresolved-path",
    "E102": "illegal-flow-pair",
    "E103": "cross-boundary-non-transfer",
    "E104": "flow-into-create",
    "E105": "thing-identity-break",
    "E106": "duplicate-id",
    "W201": "same-thing-trigger",
    "W202": "isolated-machine",
    "E301": "region-not-subgraph",
    "E302": "chronology-cycle",
    "E303": "bad-event-reference",
    "E401": "unresolved-choice",
    "E402": "step-limit-exceeded",
}


def flow_legal(src_kind: StageKind, dst_kind: StageKind, same_machine: bool) -> bool:
    """Pure lookup in the 5x5x2 stage-pair legality table."""
    return (src_kind, dst_kind, bool(same_machine)) not in _FLOW_CODES


# Stage refs, region items and raw declarations are named tuples: built by one
# generated line and hashed in C. ``_record`` makes one equal only to a value of
# its own type (never a plain tuple), as a ``@frozen`` record is, and unordered.


def _eq(self, other):
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _ne(self, other):
    if type(other) is type(self):
        return tuple.__ne__(self, other)
    return True if isinstance(other, tuple) else NotImplemented


def _unordered(self, other):
    return NotImplemented


def _record(cls):
    cls.__eq__, cls.__ne__ = _eq, _ne
    cls.__lt__ = cls.__le__ = cls.__gt__ = cls.__ge__ = _unordered
    return cls


@_record
class StageRef(NamedTuple):
    """Addressable stage node: a machine path from root plus a stage kind."""

    path: tuple[str, ...]
    kind: StageKind

    def __str__(self) -> str:
        return ".".join((*self.path, self.kind._value_))

    @property
    def is_env(self) -> bool:
        return self.path == (ENV_NAME,)


def parse_stage_ref(text: str) -> StageRef:
    """Parse a dotted stage reference like ``tank.sensor.create``.

    Raises ValueError if the text is not a machine path followed by a
    stage kind.
    """
    segments = text.split(".")
    if len(segments) < 2:
        raise ValueError(f"stage reference needs machine path and stage kind: {text!r}")
    kind = STAGE_KINDS.get(segments[-1])
    if kind is None:
        raise ValueError(f"stage reference must end in a stage kind: {text!r}")
    for seg in segments[:-1]:
        if not _IDENT_RE.match(seg):
            raise ValueError(f"bad path segment {seg!r} in {text!r}")
    return StageRef(tuple(segments[:-1]), kind)


@frozen
class Thing:
    """A thing that manifests in stages of machines, known by its name."""

    name: str


@frozen
class Machine:
    """A machine node in the containment tree. ``path`` runs from the root
    machine to this one."""

    name: str
    path: tuple[str, ...]
    children: tuple["Machine", ...] = ()


@frozen
class FlowEdge:
    """Solid arrow carrying one thing between two stages."""

    id: str
    thing: str
    src: StageRef
    dst: StageRef


@frozen
class TriggerEdge:
    """Dashed arrow linking activity on one flow to another flow."""

    id: str
    src: StageRef
    dst: StageRef


@_record
class RegionNode(NamedTuple):
    """Region membership of a single stage node."""

    ref: StageRef


@_record
class RegionFlow(NamedTuple):
    """Region membership of a static flow edge, referenced by id."""

    edge_id: str


@_record
class RegionTrigger(NamedTuple):
    """Region membership of a static trigger edge, referenced by id."""

    edge_id: str


RegionItem = Union[RegionNode, RegionFlow, RegionTrigger]


def _unknown_edge(event: "Event", item: RegionItem) -> str:
    """The message for an event item whose edge the model lacks (only a
    hand-built model has one: ``build_model`` refuses it as E301 too)."""
    kind = "flow" if type(item) is RegionFlow else "trigger"
    return f"event {event.name!r} names {kind} {item.edge_id!r}, which the model lacks"


@frozen
class Event:
    """A named region (subgraph of the static model) with a perpetual flag.

    Each event implicitly owns a logical time sub-machine; its time is
    received when the event starts and released when it ends. Perpetual
    events never release their time. Concrete timings are materialized per
    simulation run (see the simulator's trace timings), never stored on
    the immutable static model.
    """

    name: str
    perpetual: bool = False
    items: tuple[RegionItem, ...] = ()


@frozen
class Chronology:
    """Precedence DAG over events. Unrelated events may occur in any order."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def order(self) -> tuple[str, ...] | None:
        """One topological order, peeled once per object, or None if cyclic."""
        indegree = {n: 0 for n in self.nodes}
        successors: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            if a not in indegree or b not in indegree:  # raised again on each read
                raise ValueError(f"chronology edge '{a} -> {b}' names an event not in its nodes")
            indegree[b] += 1
            successors[a].append(b)
        # First in, first out: the list grows at its end while it is walked.
        order = [n for n in self.nodes if indegree[n] == 0]
        for node in order:
            for succ in successors[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    order.append(succ)
        return tuple(order) if len(order) == len(self.nodes) else None

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        """Its E303, E106 and E302, found once per object, located by event or edge."""
        return tuple(_chronology_diagnostics(self))


@frozen
class Diagnostic:
    """A validation finding with a stable code.

    ``location`` is either a source span (when produced by the parser), an
    element id string, or None.
    """

    code: str
    severity: str  # "error" or "warning"
    location: object | None
    message: str

    def __str__(self) -> str:
        loc = f" [{self.location}]" if self.location is not None else ""
        return f"{self.severity} {self.code}{loc} {self.message}"

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


def _error(code: str, message: str, location: object | None = None) -> Diagnostic:
    return Diagnostic(code, "error", location, message)


def _warning(code: str, message: str, location: object | None = None) -> Diagnostic:
    return Diagnostic(code, "warning", location, message)


class PathError(ValueError):
    """Raised by :func:`resolve` for paths that do not name a model element."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# Raw element declarations, the input of build_model. The parser produces
# these; programmatic callers construct them directly. ``span`` carries an
# opaque source location used for diagnostics and is never interpreted here.


@_record
class ThingDecl(NamedTuple):
    name: str
    span: object | None = None


@_record
class MachineDecl(NamedTuple):
    name: str
    children: tuple["MachineDecl", ...] = ()
    span: object | None = None


@_record
class FlowDecl(NamedTuple):
    thing: str
    src: StageRef | str
    dst: StageRef | str
    span: object | None = None


@_record
class TriggerDecl(NamedTuple):
    src: StageRef | str
    dst: StageRef | str
    span: object | None = None


@_record
class NodeItemDecl(NamedTuple):
    ref: StageRef | str
    span: object | None = None


# Event items reuse the static flow and trigger declarations.
EventItemDecl = Union[NodeItemDecl, FlowDecl, TriggerDecl]


@_record
class EventDecl(NamedTuple):
    name: str
    perpetual: bool = False
    items: tuple[EventItemDecl, ...] = ()
    span: object | None = None


@_record
class ChronologyDecl(NamedTuple):
    edges: tuple[tuple[str, str], ...] = ()
    span: object | None = None


Decl = Union[ThingDecl, MachineDecl, FlowDecl, TriggerDecl, EventDecl, ChronologyDecl]


class _Stage:
    """One stage, interned: its ``ref``, ``text`` (``str(ref)``), ``kind`` string,
    ``env`` flag and what the edges touching it say; fixed once built.

    ``ins`` holds the things flowing in and ``outs`` the destination texts (not
    records, which would form cycles) of the out-flows per thing, both in first-seen
    order; ``first_in`` is the first flow in and ``triggered`` whether a trigger ends here.
    """

    __slots__ = ("ref", "text", "kind", "env", "ins", "outs", "first_in", "triggered")

    def __init__(self, ref: StageRef) -> None:
        self.ref = ref
        self.kind = kind = ref.kind._value_
        self.text = ".".join((*ref.path, kind))
        self.env = ref.is_env
        self.ins: tuple[str, ...] = ()
        self.outs: dict[str, list[str]] = {}
        self.first_in: str | None = None
        self.triggered = False


class _Interned(dict):
    """Stage records by ref, made on first touch."""

    def __missing__(self, ref: StageRef) -> _Stage:
        stage = self[ref] = _Stage(ref)
        return stage


@frozen
class Model:
    """The static TM graph plus attached events and chronology.

    Immutable after construction; all operations on it are pure functions,
    safe to share between threads.
    """

    name: str
    things: tuple[Thing, ...] = ()
    root_machines: tuple[Machine, ...] = ()
    flows: tuple[FlowEdge, ...] = ()
    triggers: tuple[TriggerEdge, ...] = ()
    events: tuple[Event, ...] = ()
    chronology: Chronology | None = None

    @cached_property
    def machines(self) -> tuple[Machine, ...]:
        """All machines in depth-first declaration order. Raises ValueError if
        a machine's path is not its parent's path plus its own name."""
        out: list[Machine] = []
        stack = [((), m) for m in reversed(self.root_machines)]
        while stack:
            parent, m = stack.pop()
            if m.path != (*parent, m.name):
                raise ValueError(f"machine path {m.path!r} is not {parent!r} plus {m.name!r}")
            out.append(m)
            stack += [(m.path, c) for c in reversed(m.children)]
        return tuple(out)

    @cached_property
    def machines_by_path(self) -> dict[tuple[str, ...], Machine]:
        return {m.path: m for m in self.machines}

    @cached_property
    def flows_by_id(self) -> dict[str, FlowEdge]:
        return {e.id: e for e in self.flows}

    @cached_property
    def triggers_by_id(self) -> dict[str, TriggerEdge]:
        return {e.id: e for e in self.triggers}

    @cached_property
    def flows_by_key(self) -> dict[tuple[str, StageRef, StageRef], FlowEdge]:
        return {(e.thing, e.src, e.dst): e for e in self.flows}

    @cached_property
    def triggers_by_key(self) -> dict[tuple[StageRef, StageRef], TriggerEdge]:
        return {(e.src, e.dst): e for e in self.triggers}

    @cached_property
    def events_by_name(self) -> dict[str, Event]:
        return {e.name: e for e in self.events}

    @cached_property
    def stages(self) -> dict[StageRef, _Stage]:
        """Each stage touched by at least one edge, in first-touch order."""
        stages = _Interned()
        for e in self.flows:
            src, dst = stages[e.src], stages[e.dst]
            src.outs.setdefault(e.thing, []).append(dst.text)
            if e.thing not in dst.ins:
                dst.ins += (e.thing,)
            if dst.first_in is None:
                dst.first_in = e.id
        for t in self.triggers:
            stages[t.src]  # a trigger source is a stage even with no flows
            stages[t.dst].triggered = True
        return dict(stages)

    @cached_property
    def _validation(self) -> dict[bool, tuple[Diagnostic, ...]]:
        # validate's diagnostics per lax value; racing threads store equal tuples
        return {}

    def with_event(self, event: Event) -> "Model":
        return replace(self, events=self.events + (event,))


_ENV_MACHINE = Machine(name=ENV_NAME, path=(ENV_NAME,))


def _unknown_segment(
    text: str, path: tuple[str, ...], machines: dict[tuple[str, ...], Machine]
) -> str:
    """E101 message for a path that names no machine: its first unknown segment."""
    seg = next((s for i, s in enumerate(path) if path[: i + 1] not in machines), "")
    return f"unresolved path '{text}': unknown segment '{seg}'"


def _resolve_ref(
    ref: StageRef | str, machines: dict[tuple[str, ...], Machine]
) -> tuple[StageRef | None, str | None]:
    """Resolve a stage reference (or its dotted text) against the machine tree.

    Returns (ref, None) on success or (None, message) for an E101.
    """
    if isinstance(ref, str):
        try:
            ref = parse_stage_ref(ref)
        except ValueError as exc:
            return None, str(exc)
    if ref.path[:1] == (ENV_NAME,):
        if ref.path != (ENV_NAME,):
            return None, f"unresolved path '{ref}': '{ENV_NAME}' has no sub-machines"
        if ref.kind is not StageKind.TRANSFER:
            return None, (
                f"unresolved path '{ref}': the environment possesses only a transfer stage"
            )
        return ref, None
    # Every prefix of a declared machine's path is declared too.
    if ref.path not in machines:
        return None, _unknown_segment(str(ref), ref.path, machines)
    return ref, None


def resolve(model: Model, path: str) -> StageRef | Machine:
    """Resolve a qualified name to a stage reference or a machine.

    A trailing stage-kind segment yields a StageRef; otherwise the path
    must name a machine. Raises :class:`PathError` (code E101) on unknown
    segments.
    """
    segments = path.split(".")
    if segments and segments[-1] in STAGE_KINDS:
        ref, msg = _resolve_ref(path, model.machines_by_path)
        if ref is None:
            raise PathError(_error("E101", msg, path))
        return ref
    if path == ENV_NAME:
        return _ENV_MACHINE
    machine = model.machines_by_path.get(tuple(segments))
    if machine is None:
        msg = _unknown_segment(path, tuple(segments), model.machines_by_path)
        raise PathError(_error("E101", msg, path))
    return machine


def _require_ident(name: str, what: str) -> None:
    if not isinstance(name, str) or not _IDENT_RE.match(name) or name in RESERVED_WORDS:
        raise ValueError(f"{what} must be a non-reserved identifier, got {name!r}")


def _build_machines(
    decls: list[MachineDecl], diags: list[Diagnostic]
) -> tuple[Machine, ...]:
    # One frame per open level: (declarations left, path, built, names seen).
    # A finished level becomes the children of the machine at its path.
    stack: list[tuple[Iterator[MachineDecl], tuple[str, ...], list[Machine], set[str]]] = [
        (iter(decls), (), [], set())
    ]
    while True:
        level, prefix, out, seen = stack[-1]
        d = next(level, None)
        if d is None:
            stack.pop()
            if not stack:
                return tuple(out)
            stack[-1][2].append(Machine(prefix[-1], prefix, tuple(out)))
            continue
        _require_ident(d.name, "machine name")
        if d.name == ENV_NAME:
            diags.append(
                _error(
                    "E106",
                    f"machine name '{ENV_NAME}' is reserved for the environment",
                    d.span or ENV_NAME,
                )
            )
            continue
        if d.name in seen:
            diags.append(
                _error(
                    "E106",
                    f"duplicate machine '{'.'.join(prefix + (d.name,))}'",
                    d.span or ".".join(prefix + (d.name,)),
                )
            )
            continue
        seen.add(d.name)
        stack.append((iter(d.children), prefix + (d.name,), [], set()))


def _check_event_decl(
    model: Model,
    existing: dict[str, Event],
    decl: EventDecl,
) -> Event | list[Diagnostic]:
    """Check one event declaration against the static model (E301/E303)."""
    _require_ident(decl.name, "event name")
    diags: list[Diagnostic] = []
    if decl.name in existing:
        diags.append(
            _error("E303", f"duplicate event name '{decl.name}'", decl.span or decl.name)
        )
    if not decl.items:
        diags.append(
            _error(
                "E301",
                f"event '{decl.name}': region is empty",
                decl.span or decl.name,
            )
        )
    # The region is a set; repeated declarations collapse in first-seen order.
    # The edge and stage tables hold only resolved refs, so a parsed ref is
    # looked up as it is: one that would not resolve misses. Text is resolved.
    machines, new = model.machines_by_path, tuple.__new__
    items: dict[RegionItem, None] = {}
    for item in decl.items:
        if isinstance(item, NodeItemDecl):
            ref = item.ref
            if isinstance(ref, str):
                ref = _resolve_ref(ref, machines)[0]
            if ref not in model.stages:
                diags.append(
                    _error(
                        "E301",
                        f"event '{decl.name}': no stage '{item.ref}' in use",
                        item.span or str(item.ref),
                    )
                )
                continue
            items[new(RegionNode, (ref,))] = None
            continue
        src, dst = item.src, item.dst
        if isinstance(src, str) or isinstance(dst, str):
            src, dst = _resolve_ref(src, machines)[0], _resolve_ref(dst, machines)[0]
        if isinstance(item, FlowDecl):
            edge = model.flows_by_key.get((item.thing, src, dst))
            if edge is None:
                diags.append(
                    _error(
                        "E301",
                        f"event '{decl.name}': no flow "
                        f"'{item.thing} {item.src} -> {item.dst}' in the model",
                        item.span or f"{item.src} -> {item.dst}",
                    )
                )
                continue
            items[new(RegionFlow, (edge.id,))] = None
        else:
            edge = model.triggers_by_key.get((src, dst))
            if edge is None:
                diags.append(
                    _error(
                        "E301",
                        f"event '{decl.name}': no trigger "
                        f"'{item.src} ~> {item.dst}' in the model",
                        item.span or f"{item.src} ~> {item.dst}",
                    )
                )
                continue
            items[new(RegionTrigger, (edge.id,))] = None
    if diags:
        return diags
    return Event(decl.name, decl.perpetual, tuple(items))


def _chronology_diagnostics(chronology: Chronology) -> list[Diagnostic]:
    """E303 and E106 per bad edge; one E302 per cyclic component, if the peel leaves nodes."""
    diags: list[Diagnostic] = []
    nodes = set(chronology.nodes)
    kept: dict[tuple[str, str], None] = {}  # each edge between nodes, once
    for a, b in chronology.edges:
        if a not in nodes or b not in nodes:
            diags += [_unknown_event(n) for n in dict.fromkeys((a, b)) if n not in nodes]
            continue
        if (a, b) in kept:
            diags.append(
                _error(
                    "E106",
                    f"duplicate chronology edge '{a} -> {b}'",
                    f"{a} -> {b}",
                )
            )
            continue
        kept[a, b] = None
    if diags:  # peel the edges kept, as the peel raises on an unknown end
        chronology = Chronology(chronology.nodes, tuple(kept))
    if chronology.order is not None:
        return diags
    adjacency: dict[str, list[str]] = {n: [] for n in chronology.nodes}
    for a, b in kept:
        adjacency[a].append(b)
    for component in _components(chronology.nodes, adjacency):
        cyclic = len(component) > 1 or any(
            n in adjacency[n] for n in component
        )
        if cyclic:
            path = _cycle_path(component, adjacency)
            diags.append(
                _error(
                    "E302",
                    "chronology cycle: " + " -> ".join(path),
                    path[0],
                )
            )
    return diags


def _respects(chronology: Chronology, sequence) -> bool:
    """Whether every edge that ends at an event of the sequence starts at an earlier one."""
    position = {name: i for i, name in enumerate(sequence)}
    return all(a in position and position[a] < position[b]
               for a, b in chronology.edges if b in position)


def _unknown_event(name: str) -> Diagnostic:
    return _error("E303", f"unknown event '{name}' in chronology", name)


def _components(
    nodes: tuple[str, ...], adjacency: dict[str, list[str]]
) -> list[list[str]]:
    """Kosaraju's strongly connected components, in Tarjan's order (as each
    completes), each led by the member a depth-first pass in ``nodes`` order reaches first."""
    finished: list[str] = []  # the depth-first pass's nodes, as their visits end
    reached: set[str] = set()  # the second pass takes each node out again
    for n in nodes:
        if n in reached:
            continue
        reached.add(n)
        calls = [(n, iter(adjacency[n]))]  # (node, unvisited successors)
        while calls:
            v, successors = calls[-1]
            for w in successors:
                if w not in reached:
                    reached.add(w)
                    calls.append((w, iter(adjacency[w])))
                    break
            else:
                calls.pop()
                finished.append(v)
    predecessors: dict[str, list[str]] = {n: [] for n in nodes}
    for a in nodes:
        for b in adjacency[a]:
            predecessors[b].append(a)
    components: list[list[str]] = []
    for root in reversed(finished):  # over the reversed edges, last finished first
        if root in reached:
            reached.remove(root)
            component = [root]
            for v in component:
                for w in predecessors[v]:
                    if w in reached:
                        reached.remove(w)
                        component.append(w)
            components.append(component)
    components.reverse()
    return components


def _cycle_path(component: list[str], adjacency: dict[str, list[str]]) -> list[str]:
    """One concrete cycle inside a cyclic strongly connected component."""
    members = set(component)
    start = component[0]  # the root; deterministic
    path = [start]
    seen = {start}
    node = start
    while True:
        nxt = next(w for w in adjacency[node] if w in members)
        if nxt in seen:
            path.append(nxt)
            return path[path.index(nxt) :]
        path.append(nxt)
        seen.add(nxt)
        node = nxt


def build_model(name: str, elements: Iterable[Decl]) -> Model | list[Diagnostic]:
    """Assemble a model from raw element declarations.

    Returns the model if no error-severity diagnostics were found,
    otherwise the full list of diagnostics (never just the first).
    Each distinct stage reference is resolved once, and event items are
    looked up by their parsed refs in the edge and stage tables.
    Malformed identifiers (which the language cannot even express) raise
    ValueError rather than producing diagnostics; an element whose type is
    not one of the six declaration types (a subclass of one included) raises
    TypeError.
    """
    _require_ident(name, "model name")
    diags: list[Diagnostic] = []
    kinds = (ThingDecl, MachineDecl, FlowDecl, TriggerDecl, EventDecl, ChronologyDecl)
    by_kind: dict[type, list] = {kind: [] for kind in kinds}
    for decl in elements:
        if type(decl) not in by_kind:
            raise TypeError(f"not an element declaration: {decl!r}")
        by_kind[type(decl)].append(decl)
    thing_decls, machine_decls, flow_decls, trigger_decls, event_decls, chronology_decls = (
        by_kind.values()
    )

    things: dict[str, Thing] = {}
    for d in thing_decls:
        _require_ident(d.name, "thing name")
        if d.name in things:
            diags.append(_error("E106", f"duplicate thing '{d.name}'", d.span or d.name))
            continue
        things[d.name] = Thing(d.name)

    static = Model(name, tuple(things.values()), _build_machines(machine_decls, diags))
    machines_by_path = static.machines_by_path
    resolved: set[StageRef] = set()  # an equal ref resolves alike; only failures repeat

    def end(ref: StageRef | str, span: object | None, src: object = None) -> StageRef | None:
        """``ref`` resolved, or None after reporting its E101, unless it is
        ``src``, its edge's other end, whose E101 is reported already."""
        if ref in resolved:  # never text: the set holds refs
            return ref
        out, msg = _resolve_ref(ref, machines_by_path)
        if out is not None:
            resolved.add(out)
        elif ref != src:  # compared only on a failure: the records' __ne__ is Python code
            diags.append(_error("E101", msg, span or str(ref)))
        return out

    flows_by_key: dict[tuple[str, StageRef, StageRef], FlowEdge] = {}
    for d in flow_decls:
        known = d.thing in things
        if not known:
            diags.append(
                _error("E101", f"unresolved path: unknown thing '{d.thing}'", d.span or d.thing)
            )
        src, dst = end(d.src, d.span), end(d.dst, d.span, d.src)
        if not known or src is None or dst is None:
            continue
        if dst.kind is StageKind.CREATE:
            diags.append(
                _error("E104", f"flow into create stage '{dst}'", d.span or str(dst))
            )
            continue
        key = (d.thing, src, dst)
        if key in flows_by_key:
            diags.append(
                _error(
                    "E106",
                    f"duplicate flow '{d.thing} {src} -> {dst}'",
                    d.span or f"{src} -> {dst}",
                )
            )
            continue
        flows_by_key[key] = FlowEdge(f"f{len(flows_by_key) + 1}", d.thing, src, dst)

    triggers_by_key: dict[tuple[StageRef, StageRef], TriggerEdge] = {}
    for d in trigger_decls:
        src, dst = end(d.src, d.span), end(d.dst, d.span, d.src)
        if src is None or dst is None:
            continue
        key = (src, dst)
        if key in triggers_by_key:
            diags.append(
                _error(
                    "E106",
                    f"duplicate trigger '{src} ~> {dst}'",
                    d.span or f"{src} ~> {dst}",
                )
            )
            continue
        triggers_by_key[key] = TriggerEdge(f"t{len(triggers_by_key) + 1}", src, dst)

    flows, triggers = tuple(flows_by_key.values()), tuple(triggers_by_key.values())
    model = replace(static, flows=flows, triggers=triggers)  # the event checks reuse the keys
    vars(model).update(machines=static.machines, machines_by_path=machines_by_path,
                       flows_by_key=flows_by_key, triggers_by_key=triggers_by_key)

    events: dict[str, Event] = {}
    for ed in event_decls:
        result = _check_event_decl(model, events, ed)
        if isinstance(result, Event):
            events[result.name] = result
        else:
            diags.extend(result)

    chronology = None
    if chronology_decls:
        for extra in chronology_decls[1:]:
            diags.append(
                _error("E106", "duplicate chronology block", extra.span or "chronology")
            )
        chronology = Chronology(tuple(events), tuple(chronology_decls[0].edges))
        span = chronology_decls[0].span  # the chronology's check, located at its block
        diags += [Diagnostic(d.code, d.severity, span, d.message) if span else d
                  for d in chronology._diagnostics]

    if any(d.is_error for d in diags):
        return diags
    final = replace(model, events=tuple(events.values()), chronology=chronology)
    carried = ("machines", "machines_by_path", "stages")  # they read no events
    vars(final).update((k, v) for k, v in vars(model).items() if k in carried)
    return final


def validate(model: Model, *, lax: bool = False) -> list[Diagnostic]:
    """Report all legality violations of a structurally complete model.

    Computed once per model and ``lax`` value; each call returns a fresh,
    equal list. With ``lax=True`` cross-boundary violations (E103) are
    downgraded to warnings, admitting figure-style shortcut flows. A stage
    of a hand-built model that does not resolve gets an E101, located by
    its text.
    """
    cache = model._validation
    if lax not in cache:
        cache[lax] = tuple(_diagnose(model, lax))
    return list(cache[lax])


def _require_no_errors(diags: list[Diagnostic]) -> None:
    errors = [d for d in diags if d.is_error]
    if errors:
        raise ValueError("model does not validate: " + "; ".join(str(d) for d in errors))


def _paused(call, *args):
    """``call(*args)`` with an enabled cyclic collector paused. After a call
    that allocated past the generation-0 threshold, so that the collector
    would have run during it anyway, one young collection moves what the
    call kept into the old generation, once."""
    if not gc.isenabled():
        return call(*args)
    gc.disable()
    try:
        return call(*args)
    finally:
        gc.enable()
        threshold = gc.get_threshold()[0]
        if threshold and gc.get_count()[0] > threshold:
            gc.collect(1)


def _diagnose(model: Model, lax: bool) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for e in model.flows:
        src, dst = e.src, e.dst
        code = _FLOW_CODES.get((src.kind, dst.kind, src.path == dst.path))
        if code == "E104":
            diags.append(_error(code, f"flow into create stage '{dst}'", e.id))
        elif code == "E103":
            message = f"flow crosses machine boundary without transfer: {src} -> {dst}"
            diags.append((_warning if lax else _error)(code, message, e.id))
        elif code == "E102":
            message = (f"illegal flow {src.kind} -> {dst.kind} within machine "
                       f"'{'.'.join(src.path)}'")
            diags.append(_error(code, message, e.id))
    for t in model.triggers:
        if t.dst.kind not in (StageKind.CREATE, StageKind.PROCESS):
            diags.append(
                _error(
                    "E102",
                    f"trigger destination must be a create or process stage, "
                    f"got '{t.dst}'",
                    t.id,
                )
            )
    for ref, stage in model.stages.items():
        if stage.ins and stage.outs and len({*stage.ins, *stage.outs}) > 1:
            thing_in, thing_out = next(
                (a, b) for a in stage.ins for b in stage.outs if a != b
            )
            diags.append(
                _error(
                    "E105",
                    f"thing identity break at '{ref}': '{thing_in}' flows in, "
                    f"'{thing_out}' flows out",
                    stage.first_in,
                )
            )
    for t in model.triggers:
        src, dst = model.stages[t.src], model.stages[t.dst]
        shared = {*src.ins, *src.outs} & {*dst.ins, *dst.outs}
        if shared:
            thing = sorted(shared)[0]
            diags.append(
                _warning(
                    "W201",
                    f"trigger {t.src} ~> {t.dst} connects flows of the same "
                    f"thing '{thing}'",
                    t.id,
                )
            )
    # A machine's subtree is touched iff its path prefixes a touched path. Each
    # stage build_model makes resolves; a hand-built one may name no machine.
    machines = model.machines_by_path
    touched_prefixes: set[tuple[str, ...]] = set()
    for ref, stage in model.stages.items():
        path = ref.path
        if path not in machines and stage.text != f"{ENV_NAME}.transfer":
            diags.append(_error("E101", _resolve_ref(ref, machines)[1], stage.text))
            continue  # a stage that names no machine touches none
        while path and path != (ENV_NAME,) and path not in touched_prefixes:
            touched_prefixes.add(path)
            path = path[:-1]
    for m in model.machines:
        if m.path not in touched_prefixes:
            text = ".".join(m.path)
            diags.append(_warning("W202", f"machine '{text}' has no incident edges", text))
    # build_model resolves every event item it makes; a hand-built one may miss
    flows, triggers = model.flows_by_id, model.triggers_by_id
    for event in model.events:
        for item in event.items:
            kind = type(item)
            if kind is not RegionNode and item.edge_id not in (
                flows if kind is RegionFlow else triggers
            ):
                diags.append(_error("E301", _unknown_edge(event, item), event.name))
    if model.chronology is not None:  # a parsed one reads the check build_model made
        events = {event.name for event in model.events}  # a hand-built node may be no event
        diags += [_unknown_event(n) for n in model.chronology.nodes if n not in events]
        diags += model.chronology._diagnostics
    return diags
