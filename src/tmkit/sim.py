"""Deterministic execution of TM models under scenarios.

Operational semantics (fixed here so that runs are reproducible):

* A run advances in macro-steps numbered from 1. Scheduled injections are
  applied first in each step.
* Events are swept in declaration order. An unfired event fires when every
  chronology predecessor fired before this step and its region has work: a
  token sits on a region edge, a region trigger can be evaluated, or a
  region create stage would mint. Firing emits ``event_start``. A region
  node at a stage no edge touches (only a hand-built model has one) gives
  no work: no flow can bring a token there.
* A fired non-perpetual event runs its region to completion inside its
  firing step (repeated passes until a pass emits nothing) and then emits
  ``event_end``. A perpetual event never ends: it executes one region pass
  in its firing step and one more in every later step, re-minting its
  create stages each time.
* One region pass walks the region items in declaration order. A flow item
  moves every matching token one hop (one hop per micro-step). A region's
  flows that leave one stage with one thing move together, at the first
  of them. When there are two or more, the next scenario choice for that
  stage decides each token's branch; running out of choices is an E401
  hard error.
* A trigger item fires at most once per activation when a token occupies
  its source: a create destination mints (one token per thing carried by
  the destination's outgoing flows), a process destination is activated
  in place. Triggers whose destination carries a scenario gate first
  record the gate value and fire only if it is true. Create stages that
  are trigger destinations are never minted at event entry.
* Hops are recorded under the destination stage kind (process, release,
  transfer, receive); the generic ``move`` kind is accepted in traces but
  never produced by this engine. Tokens leave the system when they hop
  onto the environment transfer.
* The run terminates as quiescent when a step emits no entries, no future
  injections remain, and every non-perpetual event has fired; otherwise it
  stops at ``max_steps`` (reported as ``step_limit``, a normal outcome for
  models with perpetual events).

``simulate`` skips idle steps, and the skip is exact. A step that makes no
entry changes nothing but the step number: no token was minted or moved, no
event fired, no choice or gate was read, and spent triggers are forgotten
at the end of every step. The step number is read only to apply
injections and to test quiescence, so every later step up to the next
injection is idle too and none of them ends the run quiescent, as this one
did not. After an idle step ``simulate`` sets the step number to the step
before the next injection, or to ``max_steps``. ``step`` still runs one
macro-step per call.

Cost follows the work done, not the size of the run. Every entry text is
formatted in this module. Each region item's entry text and each create text is
formatted once per model object (``_tables``, kept in its instance dict) or
engine (once per distinct injection), and every entry that uses one shares that
string. A step reads of an event only its run record, which ``_tables`` builds.
A live token is its (id, thing) pair, made at mint and indexed by stage, so a
region pass reads only a flow group's source bucket, in mint order, not arrival
order, passing over tokens of other things. A pass calls no Python function
except to mint or to take a choice, and a hop builds only its entry. A ready
frontier counts each unfired event's unfired predecessors, so a step sweeps, in
declaration order, only the fired perpetual events and the unfired events whose
predecessors have all fired. The frontier is a sorted list that a step rebuilds
as it walks it, sorting only when a firing unlocked events; an event unlocked in
step s is swept from step s+1.

A snapshot holds a handle to the engine that made it, and ``step`` takes the
handle from the state it steps, so only a state that ``init_state`` or
``step`` returned and that has not been stepped yet holds one. Stepping such
a state with the same model object resumes its engine. Copies, pickles and
``replace``d states hold no handle; stepping one of them, an older state, or
a state with another model object rebuilds the engine, at a cost of its
tokens and events, and refuses what ``init_state(lax=True)`` refuses.
``Token`` records are made only for snapshots: a snapshot applies the step's
logged mints and hops to the engine's ``Token`` per live id, then builds one
instance dict, in one write that skips ``SimState``'s ``__init__``, with one
copy in C, of the live tokens' pointers. Each fired event's timing pair is
built once, when its event fires: a one-shot event ends in that step or the
run raises, so its pair is final. The engine's map of fired events to their
pairs only grows, in firing order, and a snapshot's timings are a prefix of its
values, shared until read: the tuple is built on the first read of
``SimState.timings``.

The engine is single-threaded by contract; traces and models are immutable
and may be shared freely.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count, islice, repeat
from operator import add, itemgetter
from typing import NamedTuple

from ._frozen import factory, frozen
from .core import (
    Chronology,
    Diagnostic,
    ENV_NAME,
    Model,
    RegionFlow,
    RegionTrigger,
    StageKind,
    StageRef,
    _Stage,
    _error,
    _paused,
    _record,
    _require_no_errors,
    _respects,
    parse_stage_ref,
    validate,
)

__all__ = [
    "Token",
    "Injection",
    "Scenario",
    "ScenarioError",
    "SimulationError",
    "TraceEntry",
    "EventTiming",
    "Trace",
    "SimState",
    "load_scenario",
    "init_state",
    "step",
    "simulate",
    "format_trace",
    "conforms",
]

_MAX_PASSES = 10_000  # defensive bound for run-to-completion of one event
_thing = itemgetter(1)  # of a live token's (id, thing) pair


class ScenarioError(ValueError):
    """A scenario references things, stages, or gates the model lacks."""


class SimulationError(RuntimeError):
    """Hard simulation failure, e.g. an unresolved choice (E401)."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@_record
class Token(NamedTuple):
    """One manifestation of a thing, located at a stage."""

    id: str
    thing: str
    at: StageRef


@frozen
class Injection:
    """A scheduled input: one token of ``thing`` minted at stage ``ref`` (the
    environment's transfer stage) at the start of macro-step ``step``."""

    thing: str
    ref: StageRef
    step: int


@frozen
class Scenario:
    """External inputs that resolve all nondeterminism before a run.

    ``choices`` are (decision-point, branch) pairs consumed in file order
    per decision point; a decision point is the string form of a stage
    with two or more same-thing outgoing flows, a branch the string form
    of the chosen destination stage. ``gates`` map a trigger destination
    to a boolean; ungated triggers default to true.
    """

    injections: tuple[Injection, ...] = ()
    choices: tuple[tuple[str, str], ...] = ()
    gates: tuple[tuple[str, bool], ...] = ()
    max_steps: int = 100


@_record
class TraceEntry(NamedTuple):
    step: int
    kind: str
    subject: str
    detail: str


@frozen
class EventTiming:
    """Logical time sub-machine of one event for one run."""

    received_at: int
    released_at: int | None = None


@frozen
class Trace:
    """Ordered record of one run."""

    entries: tuple[TraceEntry, ...]
    fired_events: tuple[str, ...]
    terminated: str  # "quiescent" or "step_limit"
    warnings: tuple[str, ...] = ()
    timings: dict[str, EventTiming] = factory(dict)


@frozen
class SimState:
    """Complete simulation state between macro-steps."""

    scenario: Scenario
    step_no: int = 0
    tokens: tuple[Token, ...] = ()
    next_token: int = 1
    choice_taken: tuple[int, ...] = ()  # per decision point, in scenario key order
    timings: tuple[tuple[str, EventTiming], ...] = ()
    quiescent: bool = False

    def __getstate__(self) -> dict:
        # pickles and copies hold the fields alone, in declaration order: they
        # leave the engine handle behind, so that only a state that init_state
        # or step returned can resume its engine, and the shared event log
        return {name: getattr(self, name) for name in self.__match_args__}


class _FiredPrefix:
    """``SimState.timings`` of a step snapshot: the first ``n`` pairs in its
    engine's ``timings``, which only grows, kept in the instance dict as
    ``_fired`` (timings, n). The tuple is built on the first read and stored
    as the field, which an instance's dict then serves; on the class it is
    the default, ``()``."""

    def __get__(self, state, owner=None):
        if state is None:
            return ()
        fields = vars(state)
        fired, n = fields["_fired"]
        return fields.setdefault("timings", tuple(islice(fired.values(), n)))


SimState.timings = _FiredPrefix()  # after @frozen, which reads the default


def load_scenario(text: str, filename: str = "<scenario>") -> Scenario:
    """Parse the flat key-value scenario format.

    Lines: ``inject <thing> <stageref> @<step>``, ``choose <stage> <stage>``,
    ``gate <gate-id> true|false``, ``max_steps <n>``; ``#`` comments.
    """
    injections: list[Injection] = []
    choices: list[tuple[str, str]] = []
    gates: list[tuple[str, bool]] = []
    max_steps = 100
    refs: dict[str, StageRef] = {}  # each distinct reference text, parsed once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "inject" and len(parts) == 4 and parts[3].startswith("@"):
            try:
                ref = refs.get(parts[2])
                if ref is None:
                    ref = refs[parts[2]] = parse_stage_ref(parts[2])
            except ValueError as exc:
                raise ScenarioError(f"{filename}:{lineno}: {exc}") from None
            at = _decimal(parts[3][1:])
            if at is None:
                raise ScenarioError(
                    f"{filename}:{lineno}: injection step needs decimal digits: {parts[3]!r}")
            if at < 1:
                raise ScenarioError(f"{filename}:{lineno}: injection step must be >= 1")
            injections.append(Injection(parts[1], ref, at))
        elif parts[0] == "choose" and len(parts) == 3:
            choices.append((parts[1], parts[2]))
        elif parts[0] == "gate" and len(parts) == 3 and parts[2] in ("true", "false"):
            gates.append((parts[1], parts[2] == "true"))
        elif parts[0] == "max_steps" and len(parts) == 2:
            max_steps = _decimal(parts[1])
            if max_steps is None:
                raise ScenarioError(
                    f"{filename}:{lineno}: max_steps needs decimal digits: {parts[1]!r}")
            if max_steps < 1:
                raise ScenarioError(f"{filename}:{lineno}: max_steps must be >= 1")
        else:
            raise ScenarioError(
                f"{filename}:{lineno}: unrecognized scenario line: {raw.strip()!r}")
    return Scenario(tuple(injections), tuple(choices), tuple(gates), max_steps)


def _decimal(text: str) -> int | None:
    """``text`` as a number in ASCII decimal digits, or None. ``int`` alone
    would also read a sign, ``_`` separators and other scripts' digits."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return None


def _tables(model: Model) -> tuple:
    """The tables a run reads, built once per model object and kept in its
    instance dict: per event, parallel to ``events``, its run record; per
    trigger onto a create stage, the create entry text of each thing it mints
    there, in the order of the stage's ``outs``; the stage records by text; and
    the thing names. The model must validate: an item's edge id must name an
    edge. A run record, fixed once built, is the plain tuple (name, perpetual,
    mints, walk, watch), whose stages are ``_Stage`` records of the model.
    ``mints`` holds the (thing, create stage, create entry text) triples minted
    when the event (re-)enters, leaving create stages that are trigger
    destinations to their trigger. ``walk`` is the region in declaration order:
    (source, trigger id, destination, ``"src ~> dst"``) for a trigger, and
    (source, thing, destinations, a ``"thing: src -> dst"`` per destination)
    for the flows that leave one stage with one thing, each group at the
    position of its first flow; two or more destinations make a decision point.
    Each text is the detail of every entry its item makes for that edge.
    ``watch`` holds the (stage, thing or None) pairs whose occupation gives the
    event work. One pass over an event's items builds all three, each walk item
    as its final tuple (a flow group's is rebuilt when a later flow joins it),
    calling no Python function per item, group or spawn. Racing threads keep
    the first of equal tables."""
    cache = vars(model)
    if "_sim_tables" in cache:
        return cache["_sim_tables"]
    stages, flows, triggers, records = model.stages, model.flows_by_id, model.triggers_by_id, []
    for event in model.events:
        mints, walk, watch = [], {}, {}  # walk: an item per flow group or trigger id
        for item in event.items:
            if type(item) is RegionFlow:
                edge = flows[item.edge_id]
                src, dst, thing = stages[edge.src], stages[edge.dst], edge.thing
                text = f"{thing}: {src.text} -> {dst.text}"
                key = src, thing
                group = walk.get(key)
                if group is None:  # the group's first flow
                    walk[key] = (src, thing, (dst,), (text,))
                    watch[key] = None
                    if src.kind == "create" and not src.triggered:
                        mints.append((thing, src, f"{thing} @ {src.text} via {event.name}"))
                else:  # a later flow joins it: a decision point
                    walk[key] = (src, thing, group[2] + (dst,), group[3] + (text,))
            elif type(item) is RegionTrigger:
                trigger = triggers[item.edge_id]
                src, dst = stages[trigger.src], stages[trigger.dst]
                watch[src, None] = None
                walk[trigger.id] = (src, trigger.id, dst, f"{src.text} ~> {dst.text}")
            elif item.ref in stages:  # no flow reaches a stage no edge touches
                watch[stages[item.ref], None] = None
        records.append((event.name, event.perpetual, tuple(mints), tuple(walk.values()),
                        tuple(watch)))
    spawns = {}
    for t in model.triggers:
        dst = stages[t.dst]
        if dst.kind == "create":  # a text per thing it mints, joined in C
            spawns[t.id] = tuple(map(add, dst.outs, repeat(f" @ {dst.text} via {t.id}")))
    by_text = {stage.text: stage for stage in stages.values()}
    tables = (tuple(records), spawns, by_text, {t.name for t in model.things})
    return cache.setdefault("_sim_tables", tables)


class _Engine:
    """Mutable state of one run, resumable from a SimState.

    ``events`` (a run record per event) and ``spawns`` are the model's
    ``_tables``, read once; ``model`` only names the model it was built for.
    ``timings`` maps each fired event, in firing order, to its timing pair,
    stored once when it fires; the snapshots share prefixes of its values
    until their timings are read. ``at`` holds the live
    tokens' (id, thing) pairs by stage record, each bucket keyed by mint rank;
    ``moves`` logs this step's mints and hops as (pair, stage or None for an
    exit), which a snapshot applies to ``tokens``, the ``Token`` per live id
    in mint order. A stage no edge touches gets a fresh record, ``_Stage(ref)``,
    per token the engine starts with and per distinct injection there: no pass
    or watch reads its bucket.
    ``sweep`` holds the declaration positions of the events a step visits, in
    ascending order: fired perpetual events and unfired events whose
    predecessors all fired.
    """

    def __init__(self, model: Model, state: SimState):
        """Check the state's scenario against the model (ScenarioError) and resolve it."""
        self.model = model
        self.scenario = scenario = state.scenario
        self.events, self.spawns, stages, things = _tables(model)
        self.choices: dict[str, list[str]] = {}
        for key, branch in scenario.choices:
            outs = stages[key].outs.values() if key in stages else ()
            branches = [text for dsts in outs if len(dsts) >= 2 for text in dsts]
            if not branches:
                raise ScenarioError(f"choice key '{key}' is not a decision point of the model")
            if branch not in branches:
                raise ScenarioError(f"choice branch '{branch}' is not an outgoing flow of '{key}'")
            self.choices.setdefault(key, []).append(branch)
        taken = state.choice_taken or (0,) * len(self.choices)
        if len(taken) != len(self.choices) or min(taken, default=0) < 0:
            raise ValueError(f"choice_taken needs a count >= 0 per decision point: {taken!r}")
        self.taken: dict[str, int] = dict(zip(self.choices, taken))
        self.gates: dict[str, bool] = {}
        for key, value in scenario.gates:
            if key not in stages or not stages[key].triggered:
                raise ScenarioError(f"gate '{key}' does not name a trigger destination")
            self.gates.setdefault(key, value)  # the first line for a gate wins
        self.injections: dict[int, list[tuple[str, _Stage, str]]] = {}
        # each distinct (thing, path, kind) is checked and resolved once, first-seen;
        # as plain tuples they run no StageRef ==
        mints: dict[tuple, tuple[str, _Stage, str]] = {}
        for inj in scenario.injections:
            if inj.step < 1:
                raise ScenarioError("injection step must be >= 1")
            key = (inj.thing, *inj.ref)
            if key not in mints:
                if inj.thing not in things:
                    raise ScenarioError(f"injection of unknown thing '{inj.thing}'")
                if key[1:] != ((ENV_NAME,), StageKind.TRANSFER):
                    raise ScenarioError(
                        f"injections enter at '{ENV_NAME}.transfer', got '{inj.ref}'"
                    )
                stage = stages.get(str(inj.ref)) or _Stage(inj.ref)
                mints[key] = (inj.thing, stage, f"{inj.thing} @ {stage.text} via injection")
            self.injections.setdefault(inj.step, []).append(mints[key])
        if scenario.max_steps < 1:
            raise ScenarioError("max_steps must be >= 1")
        self.tokens: dict[str, Token] = {}
        self.at: dict[_Stage, dict[int, tuple[str, str]]] = {}
        self.moves: list[tuple[tuple[str, str], _Stage | None]] = []
        self.ranks = count()
        for token in state.tokens:
            if token.id in self.tokens:
                raise ValueError(f"tokens hold '{token.id}' twice")
            if token.thing not in things:
                raise ValueError(f"tokens hold '{token.id}' of unknown thing '{token.thing}'")
            n = token.id[3:]
            if token.id[:3] == "tok" and n.isdecimal() and int(n) >= state.next_token:
                raise ValueError(f"next_token {state.next_token} is not above live '{token.id}'")
            self.tokens[token.id] = token
            stage = model.stages.get(token.at) or _Stage(token.at)
            self.at.setdefault(stage, {})[next(self.ranks)] = (token.id, token.thing)
        self.next_token = state.next_token
        events = self.events  # each record starts (name, perpetual, ...)
        index = {r[0]: i for i, r in enumerate(events)}  # validate: each node is an event
        self.timings: dict[str, tuple[str, EventTiming]] = {}
        for pair in state.timings:
            if pair[0] not in index:
                raise ValueError(f"timings name '{pair[0]}', which is no event of the model")
            if pair[0] in self.timings:
                raise ValueError(f"timings hold '{pair[0]}' twice")
            self.timings[pair[0]] = pair
        self.last_injection = max(self.injections, default=0)
        self.entries: list[TraceEntry] = []
        self.step_no = state.step_no
        fired = self.timings
        self.unfired = sum(not r[1] and r[0] not in fired for r in events)
        self.waiting: dict[int, int] = {}  # unfired predecessors of a blocked event
        self.successors: dict[str, list[int]] = {}  # events each unfired one blocks
        for a, b in model.chronology.edges if model.chronology is not None else ():
            if a not in fired and b not in fired:
                j = index[b]
                self.successors.setdefault(a, []).append(j)
                self.waiting[j] = self.waiting.get(j, 0) + 1
        self.sweep = [i for i, (name, perpetual, _, _, _) in enumerate(events)
                      if i not in self.waiting and (perpetual or name not in fired)]

    # -- state snapshot ------------------------------------------------------

    def snapshot(self, quiescent: bool) -> SimState:
        """The state after this step, holding a handle that lets ``step`` resume here.

        It applies ``moves`` to ``tokens`` (a ``Token`` per mint and hop) and
        skips ``SimState.__init__``: one write fills its instance dict with the
        fields but ``timings``, with one copy in C, of the live tokens'
        pointers, then ``timings`` and its length, the prefix it shares until
        its timings are read, and the handle. ``__getstate__`` reads the
        fields in declaration order, so it pickles as ``__init__`` builds it.
        """
        tokens = self.tokens
        for (token_id, thing), dst in self.moves:
            if dst is None:
                del tokens[token_id]
            else:
                tokens[token_id] = tuple.__new__(Token, (token_id, thing, dst.ref))
        state = object.__new__(SimState)
        vars(state).update(  # the handle is no field: outside repr, == and hash
            scenario=self.scenario,
            step_no=self.step_no,
            tokens=tuple(tokens.values()),
            next_token=self.next_token,
            choice_taken=tuple(self.taken.values()),
            quiescent=quiescent,
            _fired=(self.timings, len(self.timings)),  # the timings, built when read
            _engine=self,
        )
        return state

    # -- helpers -------------------------------------------------------------

    def emit(self, kind: str, subject: str, detail: str) -> None:
        self.entries.append(tuple.__new__(TraceEntry, (self.step_no, kind, subject, detail or "-")))

    def mint(self, thing: str, stage: _Stage, text: str) -> None:
        """Mint a token of the thing at the stage; ``text`` is its create entry's detail."""
        token_id = f"tok{self.next_token}"
        self.next_token += 1
        pair = (token_id, thing)
        self.moves.append((pair, stage))
        rank, at = next(self.ranks), self.at
        if stage in at:
            at[stage][rank] = pair
        else:
            at[stage] = {rank: pair}
        self.entries.append(tuple.__new__(TraceEntry, (self.step_no, "create", token_id, text)))

    def choose(self, src: _Stage, dsts: tuple, details: tuple) -> tuple[_Stage, str]:
        """The next scenario choice at a decision point: its destination and text."""
        key = src.text
        queue = self.choices.get(key, ())
        index = self.taken.get(key, 0)
        if index >= len(queue):
            raise SimulationError(_error("E401", f"no choice left for decision point '{key}'", key))
        self.taken[key] = index + 1
        branch = queue[index]
        self.emit("choice", key, f"-> {branch}")
        for dst, text in zip(dsts, details):
            if dst.text == branch:
                return dst, text
        raise SimulationError(_error(
            "E401", f"choice branch '{branch}' does not match a region flow at '{key}'", key
        ))

    # -- region mechanics ------------------------------------------------------

    def run_pass(self, walk: tuple, spent_triggers: set[str]) -> bool:
        """One declaration-order pass over a region's walk. True if it emitted."""
        entries, moves, at, gates = self.entries, self.moves, self.at, self.gates
        step_no, new = self.step_no, tuple.__new__  # a record's __new__ would add a frame
        before = len(entries)
        for src, label, dsts, detail in walk:
            bucket = at.get(src)
            if not bucket:
                continue
            if type(dsts) is _Stage:  # a trigger: label is its id
                if label in spent_triggers:
                    continue
                spent_triggers.add(label)
                gate = gates.get(dsts.text)
                if gate is not None:
                    entries.append(new(TraceEntry, (step_no, "gate", dsts.text,
                                                    "true" if gate else "false")))
                    if not gate:
                        continue
                entries.append(new(TraceEntry, (step_no, "trigger", label, detail)))
                if dsts.kind == "create":
                    for thing, text in zip(dsts.outs, self.spawns[label]):
                        self.mint(thing, dsts, text)
                continue
            # a flow group: label is its thing and detail has a text per dst;
            # its tokens move in mint order, whatever their arrival
            dst, text, fan = dsts[0], detail[0], len(dsts) > 1
            for rank in sorted(bucket):
                if bucket[rank][1] != label:
                    continue
                if fan:
                    dst, text = self.choose(src, dsts, detail)
                pair = bucket.pop(rank)
                entries.append(new(TraceEntry, (step_no, dst.kind, pair[0], text)))
                if dst.env:  # the token leaves the system
                    moves.append((pair, None))
                    continue
                moves.append((pair, dst))
                if dst in at:
                    at[dst][rank] = pair
                else:
                    at[dst] = {rank: pair}
        return len(entries) > before

    # -- one macro-step ----------------------------------------------------------

    def run_step(self) -> bool:
        """Run one macro-step; return whether the run is now quiescent."""
        self.step_no += 1
        self.moves.clear()  # only the snapshot after this step reads them
        before = len(self.entries)
        for thing, stage, text in self.injections.get(self.step_no, ()):
            self.mint(thing, stage, text)
        # the next step's sweep, so an event unlocked in this one waits for it
        kept, unlocked = [], []
        for i in self.sweep:
            name, perpetual, mints, walk, watch = self.events[i]
            if name not in self.timings:  # fired events here are perpetual
                if not mints:  # work needs a token at a watched stage
                    for stage, thing in watch:
                        bucket = self.at.get(stage)  # map scans in C, a generator in frames
                        if bucket and (thing is None or thing in map(_thing, bucket.values())):
                            break
                    else:
                        kept.append(i)
                        continue
                self.emit("event_start", name, "perpetual" if perpetual else "")
                # a one-shot event ends in this step or the run raises, so its
                # final pair is stored now, once
                released = None if perpetual else self.step_no
                self.timings[name] = (name, EventTiming(self.step_no, released))
                for j in self.successors.pop(name, ()):
                    self.waiting[j] -= 1
                    if not self.waiting[j]:
                        unlocked.append(j)
            for thing, stage, text in mints:
                self.mint(thing, stage, text)
            if perpetual:
                kept.append(i)
                self.run_pass(walk, set())
                continue
            self.unfired -= 1
            spent: set[str] = set()
            for _ in range(_MAX_PASSES):
                if not self.run_pass(walk, spent):
                    break
            else:
                raise SimulationError(_error(
                    "E402", f"event '{name}' did not run to completion", name
                ))
            self.emit("event_end", name, "")
        if unlocked:  # they may precede kept events in declaration order
            kept += unlocked
            kept.sort()
        self.sweep = kept
        return (
            len(self.entries) == before
            and self.step_no >= self.last_injection
            and not self.unfired
        )


def init_state(model: Model, scenario: Scenario, *, lax: bool = False) -> SimState:
    """Validate inputs and produce the initial simulation state, holding the
    engine that checked its scenario, so that its first ``step`` resumes it."""
    _require_no_errors(validate(model, lax=lax))
    state = SimState(scenario=scenario)
    vars(state)["_engine"] = _Engine(model, state)  # the handle snapshot attaches
    return state


def step(model: Model, state: SimState) -> tuple[SimState, list[TraceEntry]]:
    """Run exactly one macro-step. Stepping a quiescent state is a no-op.

    A state that ``init_state`` or ``step`` returned and that has not been
    stepped yet continues the engine that made it, so a step costs a step of
    ``simulate`` plus the snapshot: a ``Token`` per mint and hop, one instance
    dict and one copy in C, of the live tokens' pointers. Its timings are
    shared with the engine's map of fired events until read; the first read
    copies them. Any other state (an older one, a copy, a replaced one, or one
    paired with another model object) steps alike on an engine rebuilt from it,
    which raises what ``init_state(model, scenario, lax=True)`` raises, and
    ValueError for a ``choice_taken`` without a count >= 0 per decision point,
    for ``tokens`` that hold one id twice or a token of a thing the model
    lacks, for a live ``tok<n>`` whose n is not below ``next_token``, and for
    ``timings`` that name an event twice or name no event of the model.
    """
    if state.quiescent:
        return state, []
    # The pop is atomic, so of two threads stepping one state at most one
    # gets the engine; the other rebuilds.
    engine = vars(state).pop("_engine", None)
    if engine is None or engine.model is not model:
        _require_no_errors(validate(model, lax=True))
        engine = _Engine(model, state)
    engine.entries = []  # each call's entries are its own
    quiescent = engine.run_step()
    return engine.snapshot(quiescent), engine.entries


def simulate(model: Model, scenario: Scenario, *, lax: bool = False) -> Trace:
    """Run a scenario to quiescence or to its step limit.

    Deterministic: identical inputs produce identical traces. Unconsumed
    scenario choices are reported as warnings; running out of choices at
    a decision point raises :class:`SimulationError` (E401).

    An enabled cyclic collector is paused while it runs, and one young
    collection follows a call that allocated past the generation-0
    threshold: nothing a run builds is in a reference cycle
    (``test_simulate_leaves_no_reference_cycles``), so a collection during
    it would free nothing. A ``gc.disable()`` made by another thread
    meanwhile is undone when it returns.
    """
    return _paused(_simulate, model, scenario, lax)


def _simulate(model: Model, scenario: Scenario, lax: bool) -> Trace:
    engine = vars(init_state(model, scenario, lax=lax)).pop("_engine")
    terminated = "step_limit"
    entries, injected = engine.entries, sorted(engine.injections)
    while engine.step_no < scenario.max_steps:
        before = len(entries)
        if engine.run_step():
            terminated = "quiescent"
            break
        if len(entries) == before:  # an idle step: so is each one before the next injection
            later = bisect_right(injected, engine.step_no)
            upto = injected[later] - 1 if later < len(injected) else scenario.max_steps
            engine.step_no = min(upto, scenario.max_steps)
    warnings = tuple(
        f"unconsumed choices for '{key}': "
        f"{len(queue) - engine.taken[key]} of {len(queue)} left"
        for key, queue in engine.choices.items()
        if engine.taken[key] < len(queue)
    )
    return Trace(
        entries=tuple(engine.entries),
        fired_events=tuple(engine.timings),
        terminated=terminated,
        warnings=warnings,
        timings=dict(engine.timings.values()),
    )


def format_trace(trace: Trace) -> str:
    """Byte-stable text form: one tab-separated entry per line."""
    lines, last, head = [], object(), ""
    for step_no, kind, subject, detail in trace.entries:
        if step_no is not last:  # a run's entries share their step's object
            last, head = step_no, f"{step_no}\t"
        lines.append(f"{head}{kind}\t{subject}\t{detail}")
    lines.append(f"terminated={trace.terminated}")
    return "\n".join(lines) + "\n"


def conforms(trace: Trace, chronology: Chronology) -> bool:
    """Whether a trace's event order respects the chronology.

    Every fired event must be a chronology node (hard error otherwise) and
    must fire after all of its predecessors, so the non-perpetual
    subsequence is a linear extension of the induced sub-DAG. The empty
    trace conforms vacuously.
    """
    nodes = set(chronology.nodes)
    for name in trace.fired_events:
        if name not in nodes:
            raise ValueError(f"unknown event id '{name}' in trace")
    return _respects(chronology, trace.fired_events)
