"""Shared test fixtures: corpus loading, independent oracles, model generator."""

from __future__ import annotations

import functools
import gc
import importlib.util
import os
import random
import re
import string
import subprocess
import sys
from pathlib import Path

from tmkit.cli import corpus_dir
from tmkit.core import (
    ChronologyDecl,
    EventDecl,
    FlowDecl,
    MachineDecl,
    Model,
    NodeItemDecl,
    RESERVED_WORDS,
    RegionFlow,
    RegionNode,
    RegionTrigger,
    ThingDecl,
    TriggerDecl,
    build_model,
)
from tmkit.dsl import parse
from tmkit.sim import Scenario, _tables, load_scenario

CORPUS_NAMES = ("reservoir", "kant_ci", "murderer", "islamic")


def corpus_path(filename: str) -> Path:
    return corpus_dir() / filename


def load_corpus_model(name: str) -> Model:
    result = parse(corpus_path(f"{name}.tm").read_text(), f"{name}.tm")
    assert result.model is not None, [str(d) for d in result.diagnostics]
    return result.model


def load_corpus_scenario(name: str) -> Scenario:
    return load_scenario(corpus_path(f"{name}.scn").read_text(), f"{name}.scn")


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports this tmkit."""
    env = dict(os.environ)
    src = str(corpus_dir().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


@functools.cache
def bench_workloads():
    """``perfbench/workloads.py``, the benchmark's input generators; they
    write source text without tmkit, broken variants included."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def collector_runs(run) -> list[tuple[tuple[int, ...], bool]]:
    """``run()`` three times: with the collector as it stands, after the
    caller's ``gc.disable()`` and after its ``gc.set_threshold(0)``. For each,
    the generation of each collection started during the call and whether
    the collector was enabled after it; the caller's settings are put back
    in between."""

    def counted() -> tuple[tuple[int, ...], bool]:
        started: list[int] = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(hook)
        try:
            run()
        finally:
            gc.callbacks.remove(hook)
        return tuple(started), gc.isenabled()

    gc.collect()
    runs = [counted()]
    gc.disable()
    try:
        runs.append(counted())
    finally:
        gc.enable()
    threshold = gc.get_threshold()
    gc.set_threshold(0)
    try:
        runs.append(counted())
    finally:
        gc.set_threshold(*threshold)
    return runs


def line_events(module, run) -> int:
    """Line events executed in ``module``'s frames while ``run()`` runs: the
    same count on every run, unlike a wall-clock time."""
    return _lines_in(module.__file__, run)


def generated_line_events(run) -> int:
    """Line events executed in generated code while ``run()`` runs: the
    methods frozen records and named tuples compile, whose file is "<string>"."""
    return _lines_in("<string>", run)


def _lines_in(filename: str, run) -> int:
    events = 0

    def local(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(previous)
    return events


# ---------------------------------------------------------------------------
# Lexer oracle: the character loop the master-regex lexer replaced.

_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | frozenset(string.digits)


def reference_lex(text: str) -> list[tuple[str, str, int, int, int, bool]]:
    """One ``(kind, text, line, col, end_col, bol)`` per token of ``text``,
    ending with the eof token, as ``tmkit.dsl._scan`` must give them unfolded."""
    tokens: list[tuple[str, str, int, int, int, bool]] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    bol = True

    def push(kind: str, tok_text: str) -> None:
        nonlocal bol
        tokens.append((kind, tok_text, line, col, col + len(tok_text) - 1, bol))
        bol = False

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            bol = True
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            word = text[i:j]
            push("kw" if word in RESERVED_WORDS else "ident", word)
            col += j - i
            i = j
            continue
        if c == "{" or c == "}":
            push(c, c)
            i += 1
            col += 1
            continue
        if c == ".":
            push(".", c)
            i += 1
            col += 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            push("->", "->")
            i += 2
            col += 2
            continue
        if c == "~" and i + 1 < n and text[i + 1] == ">":
            push("~>", "~>")
            i += 2
            col += 2
            continue
        push("error", c)
        i += 1
        col += 1
    tokens.append(("eof", "", line, col, col, bol))
    return tokens


# ---------------------------------------------------------------------------
# Parser oracle: a recursive-descent recognizer of the README grammar, over
# reference_lex tokens.

_STAGE_KIND_WORDS = frozenset({"create", "process", "release", "transfer", "receive"})


class _Rejected(Exception):
    pass


def reference_parse(text: str) -> tuple[int, int] | None:
    """None when ``text`` is a sentence of the README grammar, else the
    (line, col) of the token where recognizing it fails. A stage reference
    that ends before its stage kind fails at its first token, and a "." that
    no name follows at the token after it; a failure at the end of the input
    sits at the token before it."""
    tokens = reference_lex(text)
    at = 0

    def fail(index: int):
        if tokens[index][0] == "eof" and index > 0:
            index -= 1
        raise _Rejected(tokens[index][2:4])

    def take(kind: str, word: str | None = None) -> None:
        nonlocal at
        if tokens[at][0] != kind or (word is not None and tokens[at][1] != word):
            fail(at)
        at += 1

    def keyword(words) -> str | None:
        """The keyword at ``at``, taken, if it is one of ``words``."""
        nonlocal at
        kind, word = tokens[at][:2]
        if kind == "kw" and word in words:
            at += 1
            return word
        return None

    def stageref() -> None:  # IDENT ("." IDENT)* "." STAGEKIND
        nonlocal at
        first = at
        if tokens[at][0] != "ident":
            fail(first)
        while True:
            at += 1  # past a name
            if tokens[at][0] != ".":
                fail(first)  # the reference ends before its stage kind
            at += 1
            if keyword(_STAGE_KIND_WORDS):
                return
            if tokens[at][0] != "ident":
                fail(at)

    def edge(thing: bool) -> None:  # flow IDENT stageref -> stageref, trigger stageref ~> stageref
        if thing:
            take("ident")
        stageref()
        take("->" if thing else "~>")
        stageref()

    def machine() -> None:  # IDENT ("{" machine* "}")?
        nonlocal at
        take("ident")
        if tokens[at][0] == "{":
            at += 1
            while tokens[at][0] != "}":
                take("kw", "machine")
                machine()
            at += 1

    def event() -> None:  # IDENT "perpetual"? "{" item* "}"
        nonlocal at
        take("ident")
        keyword({"perpetual"})
        take("{")
        while tokens[at][0] != "}":
            word = keyword({"node", "flow", "trigger"})
            if word is None:
                fail(at)
            if word == "node":
                stageref()
            else:
                edge(word == "flow")
        at += 1

    def chronology() -> None:  # "{" (IDENT "->" IDENT)* "}"
        nonlocal at
        take("{")
        while tokens[at][0] != "}":
            take("ident")
            take("->")
            take("ident")
        at += 1

    items = {"thing": lambda: take("ident"), "machine": machine, "flow": lambda: edge(True),
             "trigger": lambda: edge(False), "event": event, "chronology": chronology}
    try:
        take("kw", "model")
        take("ident")
        while tokens[at][0] != "eof":
            word = keyword(items)
            if word is None:
                fail(at)
            items[word]()
    except _Rejected as rejected:
        return rejected.args[0]
    return None


# ---------------------------------------------------------------------------
# Validator oracle: the README's legality rules and diagnostic codes, applied
# to model text by plain string handling. It names nothing of tmkit.core (no
# flow_legal, no legality table), so a rule that core.py misapplies shows.

# Inside one machine a thing may take these steps; release is the only exit
# gate. Across machines it may step from transfer to transfer only.
_LEGAL_STEPS = {("create", "process"), ("create", "release"), ("process", "release"),
                ("release", "transfer"), ("transfer", "receive"), ("receive", "process"),
                ("receive", "release")}


def _split_ref(ref: str) -> tuple[str, str]:
    """A stage reference's machine path and stage kind."""
    path, _, kind = ref.rpartition(".")
    return path, kind


def reference_severity(code: str, lax: bool) -> str:
    """W codes are warnings, and so is E103 under ``lax``; every other code is an error."""
    return "warning" if code[0] == "W" or (lax and code == "E103") else "error"


def reference_diagnostics(text: str) -> list[tuple[str, str]]:
    """A ``(code, subject)`` pair for each diagnostic that ``parse`` must give
    ``text``, a model of one item, block head or ``}`` per line and no comments
    (as ``random_rule_text`` writes). The subject is ``"LINE: item"``: the line
    of the thing, machine, flow, trigger, event, event item or chronology the
    diagnostic is about; an E105 is about the first flow into its stage.

    Any build error (E101, E104, E106, E301, E302, E303) stops the build, so
    only those are reported; otherwise the validation's E102, E103, E105,
    W201 and W202 are."""
    lines = text.split("\n")
    things: dict[str, str] = {}
    machines: dict[str, str] = {}  # machine path -> subject, in declaration order
    flows, triggers, events, chronologies = [], [], [], []
    build: list[tuple[str, str]] = []
    blocks: list[tuple[str, object]] = []  # each open block's keyword, and its path or entries
    siblings = [set()]  # names declared at each open machine level
    for number, line in enumerate(lines[1:], 2):
        words = line.split()
        if not words:
            continue
        subject = f"{number}: {line.strip()}"
        head, open_ = words[0], words[-1] == "{"
        inside = blocks[-1] if blocks else ("model", None)
        if head == "}":
            kind, _ = blocks.pop()
            if kind == "machine":
                siblings.pop()
        elif inside[0] == "event":
            inside[1].append((words, subject))
        elif inside[0] == "chronology":
            inside[1].append((words[0], words[2]))
        elif head == "thing":
            if words[1] in things:
                build.append(("E106", subject))
            things.setdefault(words[1], subject)
        elif head == "machine":
            parent = inside[1] if inside[0] == "machine" else ""
            name = words[1]
            path = None  # a machine that is refused declares nothing, its children neither
            if parent is not None:
                if name == "env" or name in siblings[-1]:
                    build.append(("E106", subject))
                else:
                    siblings[-1].add(name)
                    path = f"{parent}.{name}" if parent else name
                    machines[path] = subject
            if open_:
                blocks.append(("machine", path))
                siblings.append(set())
        elif head in ("flow", "trigger"):
            (flows if head == "flow" else triggers).append((words, subject))
        elif head == "event":
            events.append((words[1], subject, []))
            blocks.append(("event", events[-1][2]))
        elif head == "chronology":
            chronologies.append((subject, []))
            blocks.append(("chronology", chronologies[-1][1]))

    def resolves(ref: str) -> bool:
        path, kind = _split_ref(ref)
        if path.split(".")[0] == "env":  # the outside has one stage, env.transfer
            return path == "env" and kind == "transfer"
        return path in machines

    kept_flows: dict[tuple[str, str, str], str] = {}  # (thing, src, dst) -> subject
    for words, subject in flows:
        thing, src, dst = words[1], words[2], words[4]
        unresolved = [ref for ref in {src, dst} if not resolves(ref)]
        build += [("E101", subject)] * ((thing not in things) + len(unresolved))
        if thing not in things or unresolved:
            continue
        if _split_ref(dst)[1] == "create":
            build.append(("E104", subject))
        elif (thing, src, dst) in kept_flows:
            build.append(("E106", subject))
        else:
            kept_flows[thing, src, dst] = subject
    kept_triggers: dict[tuple[str, str], str] = {}
    for words, subject in triggers:
        src, dst = words[1], words[3]
        unresolved = [ref for ref in {src, dst} if not resolves(ref)]
        build += [("E101", subject)] * len(unresolved)
        if unresolved:
            continue
        if (src, dst) in kept_triggers:
            build.append(("E106", subject))
        else:
            kept_triggers[src, dst] = subject
    in_use = {ref for key in (*kept_flows, *kept_triggers) for ref in key[-2:]}

    built: list[str] = []  # the events without an error
    for name, subject, items in events:
        errors = [("E303", subject)] if name in built else []
        if not items:
            errors.append(("E301", subject))
        for words, item in items:
            if words[0] == "node":
                found = words[1] in in_use
            elif words[0] == "flow":
                found = (words[1], words[2], words[4]) in kept_flows
            else:
                found = (words[1], words[3]) in kept_triggers
            if not found:
                errors.append(("E301", item))
        build += errors
        if not errors:
            built.append(name)
    for subject, _ in chronologies[1:]:
        build.append(("E106", subject))
    if chronologies:
        subject, edges = chronologies[0]
        after: dict[str, set[str]] = {name: set() for name in built}
        for a, b in edges:
            unknown = [n for n in {a, b} if n not in after]
            build += [("E303", subject)] * len(unknown)
            if not unknown and b in after[a]:
                build.append(("E106", subject))
            elif not unknown:
                after[a].add(b)
        # One E302 per set of events that each reach every other one round a cycle.
        reach = {}
        for name in built:
            seen, todo = set(), [*after[name]]
            while todo:
                n = todo.pop()
                if n not in seen:
                    seen.add(n)
                    todo += after[n]
            reach[name] = seen
        cycles = {frozenset(m for m in reach[n] if n in reach[m]) for n in built if n in reach[n]}
        build += [("E302", subject)] * len(cycles)
    if build:
        return build

    out: list[tuple[str, str]] = []
    ins: dict[str, list[str]] = {}  # stage -> things flowing in, then out
    outs: dict[str, list[str]] = {}
    first_in: dict[str, str] = {}
    for (thing, src, dst), subject in kept_flows.items():
        (src_path, src_kind), (dst_path, dst_kind) = _split_ref(src), _split_ref(dst)
        if src_path != dst_path and (src_kind, dst_kind) != ("transfer", "transfer"):
            out.append(("E103", subject))
        elif src_path == dst_path and (src_kind, dst_kind) not in _LEGAL_STEPS:
            out.append(("E102", subject))
        ins.setdefault(dst, []).append(thing)
        outs.setdefault(src, []).append(thing)
        first_in.setdefault(dst, subject)
    for stage in ins.keys() & outs.keys():  # a thing keeps its identity through a stage
        if len({*ins[stage], *outs[stage]}) > 1:
            out.append(("E105", first_in[stage]))
    for (src, dst), subject in kept_triggers.items():
        if _split_ref(dst)[1] not in ("create", "process"):
            out.append(("E102", subject))
        touching = [{*ins.get(ref, ()), *outs.get(ref, ())} for ref in (src, dst)]
        if touching[0] & touching[1]:
            out.append(("W201", subject))
    touched = {".".join(path.split(".")[:i + 1])
               for ref in in_use for path in [_split_ref(ref)[0]]
               for i in range(path.count(".") + 1)}
    out += [("W202", subject) for path, subject in machines.items() if path not in touched]
    return out


def random_rule_text(seed: int) -> str:
    """A model text for ``reference_diagnostics``: nested machines, flows and
    triggers between stages drawn at random (``env.transfer`` among them),
    events over them and a chronology. About one text in three may also
    repeat or misname a declaration, which stops the build."""
    rng = random.Random(seed)
    faulty = rng.random() < 0.35
    kinds = ("create", "process", "release", "transfer", "receive")
    things = ["x", "y", "z"][:rng.randint(1, 3)]
    blocks = [[f"thing {t}"] for t in things]
    if faulty and rng.random() < 0.3:
        blocks.append([f"thing {rng.choice(things)}"])
    names, paths = iter("abcdefghijklmnopqrstuvw"), []

    def machine(prefix: str, depth: int, taken: list[str]) -> list[str]:
        name = next(names)
        if faulty and rng.random() < 0.15:
            name = rng.choice(["env", *taken])
        taken.append(name)
        path = f"{prefix}.{name}" if prefix else name
        paths.append(path)
        if depth == 2 or rng.random() < 0.65:
            return [f"machine {name}"]
        inner: list[str] = []
        children = [f"  {line}" for _ in range(rng.randint(1, 2))
                    for line in machine(path, depth + 1, inner)]
        return [f"machine {name} {{", *children, "}"]

    roots: list[str] = []
    blocks += [machine("", 0, roots) for _ in range(rng.randint(1, 3))]
    stages = ["env.transfer"] + [f"{p}.{k}" for p in paths for k in kinds]
    pool = rng.sample(stages, min(len(stages), rng.randint(3, 8)))
    if faulty:
        pool += rng.sample(["ghost.process", "env.receive", "env.sub.transfer",
                            f"{paths[0]}.ghost.release"], 1)
    flows: list[str] = []
    for _ in range(rng.randint(1, 7)):
        dsts = [s for s in pool if faulty or not s.endswith(".create")]
        thing = rng.choice(things + ["w"] * faulty)  # w is never declared
        line = f"flow {thing} {rng.choice(pool)} -> {rng.choice(dsts)}"
        if faulty or line not in flows:
            flows.append(line)
    triggers: list[str] = []
    for _ in range(rng.randint(0, 3)):
        line = f"trigger {rng.choice(pool)} ~> {rng.choice(pool)}"
        if faulty or line not in triggers:
            triggers.append(line)
    blocks += [[line] for line in flows + triggers]
    events: list[str] = []
    for i in range(rng.randint(0, 3)):
        name = f"e{i + 1}"
        if faulty and events and rng.random() < 0.2:
            name = rng.choice(events)
        events.append(name)
        declared = flows + triggers
        items = rng.sample(declared, min(len(declared), rng.randint(0 if faulty else 1, 2)))
        items += [f"node {ref}" for ref in rng.sample(pool, rng.randint(0, 1))
                  if faulty or any(ref in line.split() for line in declared)]  # a stage in use
        if faulty and rng.random() < 0.3:
            items.append(f"flow {things[0]} {rng.choice(pool)} -> {rng.choice(pool)}")
        head = f"event {name} perpetual {{" if rng.random() < 0.3 else f"event {name} {{"
        blocks.append([head, *[f"  {item}" for item in items], "}"])
    for _ in range(rng.randint(1, 2) if events and rng.random() < 0.6 else 0):
        edges = []
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(events), rng.choice(events + ["q"] * faulty)
            edge = f"  {a} -> {b}"
            if faulty or (events.index(a) < events.index(b) and edge not in edges):
                edges.append(edge)
        blocks.append(["chronology {", *edges, "}"])
        if not faulty:
            break
    if rng.random() < 0.3:
        rng.shuffle(blocks)
    return "\n".join([f"model m{seed}", *[line for block in blocks for line in block]]) + "\n"


# ---------------------------------------------------------------------------
# Structural equality oracle: field-walking comparison written independently
# of the generated __eq__ it is used to check.


def models_equal(a: Model, b: Model) -> bool:
    if a.name != b.name:
        return False
    if [t.name for t in a.things] != [t.name for t in b.things]:
        return False

    def tree(machine):
        return (machine.name, tuple(tree(c) for c in machine.children))

    if tuple(tree(m) for m in a.root_machines) != tuple(tree(m) for m in b.root_machines):
        return False
    if [(e.thing, str(e.src), str(e.dst)) for e in a.flows] != [
        (e.thing, str(e.src), str(e.dst)) for e in b.flows
    ]:
        return False
    if [(str(t.src), str(t.dst)) for t in a.triggers] != [
        (str(t.src), str(t.dst)) for t in b.triggers
    ]:
        return False

    def event_shape(model, event):
        shape = [event.name, event.perpetual]
        for item in event.items:
            if isinstance(item, RegionNode):
                shape.append(("node", str(item.ref)))
            elif isinstance(item, RegionFlow):
                edge = model.flows_by_id[item.edge_id]
                shape.append(("flow", edge.thing, str(edge.src), str(edge.dst)))
            elif isinstance(item, RegionTrigger):
                edge = model.triggers_by_id[item.edge_id]
                shape.append(("trigger", str(edge.src), str(edge.dst)))
        return tuple(shape)

    if tuple(event_shape(a, e) for e in a.events) != tuple(
        event_shape(b, e) for e in b.events
    ):
        return False
    chron_a = None if a.chronology is None else (a.chronology.nodes, a.chronology.edges)
    chron_b = None if b.chronology is None else (b.chronology.nodes, b.chronology.edges)
    return chron_a == chron_b


# ---------------------------------------------------------------------------
# Random valid model generator for round-trip testing. Each thing gets a
# chain over its own disjoint set of machines, so generated models always
# validate with zero errors in strict mode.


def random_valid_model(seed: int) -> Model:
    model = build_model(*random_valid_decls(seed))
    assert isinstance(model, Model), [str(d) for d in model]
    return model


def random_valid_decls(seed: int) -> tuple[str, list]:
    """The model name and declarations of ``random_valid_model(seed)``; every
    stage reference is dotted text."""
    rng = random.Random(seed)
    n_things = rng.randint(1, 4)
    things = [f"thing{i}" for i in range(1, n_things + 1)]

    decls: list = [ThingDecl(t) for t in things]
    machine_names: list[list[str]] = []  # per thing: its private machine chain
    counter = 0
    machine_decls = []
    for _ in things:
        chain_len = rng.randint(1, 3)
        chain = []
        for _ in range(chain_len):
            counter += 1
            name = f"m{counter}"
            if rng.random() < 0.3:
                counter += 1
                child = MachineDecl(f"m{counter}")
                machine_decls.append(MachineDecl(name, (child,)))
            else:
                machine_decls.append(MachineDecl(name))
            chain.append(name)
        machine_names.append(chain)
    decls.extend(machine_decls)

    flow_decls: list[FlowDecl] = []
    thing_stages: list[list[str]] = []
    for thing, chain in zip(things, machine_names):
        stages: list[str] = []

        def hop(src: str, dst: str) -> None:
            flow_decls.append(FlowDecl(thing, src, dst))
            for ref in (src, dst):
                if ref not in stages:
                    stages.append(ref)

        first = chain[0]
        hop(f"{first}.create", f"{first}.release")
        if rng.random() < 0.5:
            # create feeds process before release
            flow_decls.pop()
            stages.clear()
            hop(f"{first}.create", f"{first}.process")
            hop(f"{first}.process", f"{first}.release")
        hop(f"{first}.release", f"{first}.transfer")
        prev = first
        for nxt in chain[1:]:
            hop(f"{prev}.transfer", f"{nxt}.transfer")
            hop(f"{nxt}.transfer", f"{nxt}.receive")
            if rng.random() < 0.5:
                hop(f"{nxt}.receive", f"{nxt}.process")
                hop(f"{nxt}.process", f"{nxt}.release")
            else:
                hop(f"{nxt}.receive", f"{nxt}.release")
            hop(f"{nxt}.release", f"{nxt}.transfer")
            prev = nxt
        if rng.random() < 0.4:
            hop(f"{prev}.transfer", "env.transfer")
        thing_stages.append(stages)
    decls.extend(flow_decls)

    trigger_decls: list[TriggerDecl] = []
    if n_things >= 2:
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(range(n_things), 2)
            src = rng.choice(thing_stages[a])
            dst_options = [
                s
                for s in thing_stages[b]
                if s.endswith(".create") or s.endswith(".process")
            ]
            if not dst_options:
                continue
            dst = rng.choice(dst_options)
            if any(t.src == src and t.dst == dst for t in trigger_decls):
                continue
            trigger_decls.append(TriggerDecl(src, dst))
    decls.extend(trigger_decls)

    event_names: list[str] = []
    if rng.random() < 0.8 and flow_decls:
        n_events = rng.randint(1, 3)
        edges = list(flow_decls)
        rng.shuffle(edges)
        slab = max(1, len(edges) // n_events)
        for i in range(n_events):
            chunk = edges[i * slab : (i + 1) * slab]
            if not chunk:
                continue
            items: list = [FlowDecl(f.thing, f.src, f.dst) for f in chunk]
            if trigger_decls and rng.random() < 0.5:
                t = rng.choice(trigger_decls)
                items.append(TriggerDecl(t.src, t.dst))
            if rng.random() < 0.3:
                items.insert(0, NodeItemDecl(chunk[0].src))
            name = f"ev{i + 1}"
            event_names.append(name)
            decls.append(EventDecl(name, rng.random() < 0.3, tuple(items)))
    if len(event_names) >= 2 and rng.random() < 0.7:
        chron_edges = []
        for i in range(len(event_names)):
            for j in range(i + 1, len(event_names)):
                if rng.random() < 0.5:
                    chron_edges.append((event_names[i], event_names[j]))
        decls.append(ChronologyDecl(tuple(chron_edges)))

    return f"gen{seed}", decls


# ---------------------------------------------------------------------------
# Perpetual relay for simulator scaling: x passes env -> m0 -> ... -> m<n-1>,
# one perpetual event per hop, declared back to front so that one pass moves
# a token one hop, and chained by the chronology. A token is injected every
# step and tokens pile up on the last machine, so live tokens grow with the
# run. Every machine's transfer triggers its process stage; a quarter of those
# triggers are gated true and a quarter gated false.


def perpetual_relay(machines: int, steps: int) -> tuple[Model, Scenario]:
    stages = ["env.transfer"] + [f"m{i}.transfer" for i in range(machines)]
    lines = [f"model relay{machines}", "thing x"]
    lines += [f"machine m{i}" for i in range(machines)]
    lines += [f"flow x {stages[i]} -> {stages[i + 1]}" for i in range(machines)]
    lines += [f"trigger m{i}.transfer ~> m{i}.process" for i in range(machines)]
    for i in reversed(range(machines)):
        lines += [
            f"event e{i} perpetual {{",
            f"  flow x {stages[i]} -> {stages[i + 1]}",
            f"  trigger m{i}.transfer ~> m{i}.process",
            "}",
        ]
    lines.append("chronology {")
    lines += [f"  e{i} -> e{i + 1}" for i in range(machines - 1)]
    lines.append("}")
    result = parse("\n".join(lines) + "\n")
    assert result.model is not None, [str(d) for d in result.diagnostics]
    scenario = [f"inject x env.transfer @{s}" for s in range(1, steps + 1)]
    scenario += [
        f"gate m{i}.process {'true' if i % 4 == 0 else 'false'}"
        for i in range(machines)
        if i % 4 < 2
    ]
    scenario.append(f"max_steps {steps}")
    return result.model, load_scenario("\n".join(scenario) + "\n")


def sparse_case(seed: int) -> tuple[Model, str]:
    """A ``random_valid_model`` with an event that takes injected tokens in,
    and the text of a scenario of a few injections far apart and a few choices
    at each decision point. The model's own events are made one-shot: a
    perpetual event that mints keeps every step busy, and its trace can grow
    with the square of the steps."""
    name, decls = random_valid_decls(seed)
    decls = [d._replace(perpetual=False) if isinstance(d, EventDecl) else d for d in decls]
    rng = random.Random(f"sparse{seed}")
    flows = [d for d in decls if isinstance(d, FlowDecl)]
    things = [d.name for d in decls if isinstance(d, ThingDecl)]
    # env.transfer may pass on only the thing that flows into it, if any
    into_env = {f.thing for f in flows if f.dst == "env.transfer"}
    entering = [t for t in things if not into_env or into_env == {t}]
    entries = []
    for thing in entering:
        first = next(f.src for f in flows if f.thing == thing).split(".")[0]
        entries.append(FlowDecl(thing, "env.transfer", f"{first}.transfer"))
    if entries:
        decls = [*decls, *entries, EventDecl("arrive", rng.random() < 0.5, tuple(entries))]
    model = build_model(name, decls)
    assert isinstance(model, Model), [str(d) for d in model]
    lines = [f"inject {rng.choice(things)} env.transfer @{rng.randint(1, 2000)}"
             for _ in range(rng.randint(0, 4))]
    for text, stage in _tables(model)[2].items():
        branches = [dst for dsts in stage.outs.values() if len(dsts) >= 2 for dst in dsts]
        lines += [f"choose {text} {rng.choice(branches)}"
                  for _ in range(rng.randint(0, 6) if branches else 0)]
    lines.append(f"max_steps {rng.randint(1, 3000)}")
    return model, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Renaming, for metamorphic relations: every user name in a model or
# scenario text becomes ``qNNNN``, and the outputs are mapped back.

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = RESERVED_WORDS | {"env", "inject", "choose", "gate", "max_steps", "true", "false"}


def renaming(texts, reverse: bool = False) -> dict[str, str]:
    """Each word of the texts that is no keyword of the model or scenario
    language, mapped to ``qNNNN``, numbered in the words' sort order or, with
    ``reverse``, in reverse sort order."""
    words = {w for text in texts for w in _WORD.findall(text)} - _KEYWORDS
    return {w: f"q{i:04d}" for i, w in enumerate(sorted(words, reverse=reverse))}


def renamed(text: str, names: dict[str, str]) -> str:
    """The text with each word that ``names`` maps replaced by its new name."""
    return _WORD.sub(lambda m: names.get(m[0], m[0]), text)


def prefixed(text: str, prefix: str) -> str:
    """The text with each word that is no keyword of the model or scenario
    language prefixed; ``env`` is a keyword, so it stays shared."""
    return _WORD.sub(lambda m: m[0] if m[0] in _KEYWORDS else prefix + m[0], text)


# ---------------------------------------------------------------------------
# A region that never runs to completion: one machine's stages form a cycle,
# so every pass of the event moves the token once more round it (E402).

SPIN_MODEL = """\
model spin
thing x
machine a
flow x env.transfer -> a.transfer
flow x a.transfer -> a.receive
flow x a.receive -> a.release
flow x a.release -> a.transfer
event spin {
  flow x env.transfer -> a.transfer
  flow x a.transfer -> a.receive
  flow x a.receive -> a.release
  flow x a.release -> a.transfer
}
"""

SPIN_SCENARIO = "inject x env.transfer @1\n"
