"""Seeded inputs for the benchmark, each with its expected results.

Every generator here is independent of tmkit: it writes source text and
scenario text and states, from its own construction, what tmkit must answer
(trace entry counts by kind, fired events, termination, diagnostic codes).
The seed varies names, where errors are placed and which gates are true; it
never varies sizes, so every seed costs the same work.
"""

from __future__ import annotations

import random
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: Words the TM language reserves (keywords and stage kinds), plus ``env``.
RESERVED = frozenset(
    {"model", "thing", "machine", "flow", "trigger", "event", "chronology",
     "perpetual", "node", "create", "process", "release", "transfer",
     "receive", "env"}
)
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Each broken variant places this many diagnostics of each code.
ERRORS_PER_CODE = 2
BUILD_CODES = ("E001", "E101", "E106", "E301", "E303")
VALIDATE_CODES = ("E102", "E103", "E105")

RELAY_N = 400
FLOOD_MACHINES = 20
FLOOD_STEPS = 300


@dataclass(frozen=True)
class SimCase:
    """One scenario run and the facts its trace must show."""

    name: str
    model: str  # key into Inputs.models
    scenario: str
    kinds: Counter | None = None  # entry count per kind; None when a golden pins it
    fired: tuple[str, ...] | None = None
    terminated: str | None = None
    steps: int | None = None
    live_tokens_peak: int | None = None
    golden: str | None = None  # trace bytes, for corpus runs

    @property
    def entries(self) -> int | None:
        return None if self.kinds is None else sum(self.kinds.values())


@dataclass
class Inputs:
    """Everything one workload feeds to tmkit, and the expected answers."""

    models: dict[str, str]  # name -> valid source text
    broken: dict[str, tuple[str, Counter]]  # name -> (source, expected codes)
    sims: list[SimCase]
    golden_dots: dict[tuple[str, str], str] = field(default_factory=dict)


class _Names:
    """Seeded, fixed-length identifiers: a fresh 3-letter prefix per role."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def prefix(self) -> str:
        while True:
            word = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(3))
            if word not in self.used and word not in RESERVED:
                self.used.add(word)
                return word.capitalize()

    def series(self, count: int) -> list[str]:
        pfx = self.prefix()
        names = [f"{pfx}{i:04d}" for i in range(count)]
        assert all(IDENT.match(n) and n not in RESERVED for n in names)
        return names


@dataclass
class _Source:
    """A generated model as top-level items, so errors can be placed."""

    thing: str
    things: list[str]
    machines: list[str]
    flows: list[str]
    triggers: list[str]
    events: list[str]  # each a whole multi-line block
    chain: list[str]  # event names in chronology order

    def text(self, extra: dict[str, list[tuple[int, str]]] | None = None,
             chronology_extra: list[tuple[int, str]] = ()) -> str:
        extra = extra or {}

        def section(key: str, items: list[str]) -> list[str]:
            out = list(items)
            for pos, line in sorted(extra.get(key, ()), key=lambda p: -p[0]):
                out.insert(pos, line)
            return out

        edges = [f"  {a} -> {b}" for a, b in zip(self.chain, self.chain[1:])]
        for pos, line in sorted(chronology_extra, key=lambda p: -p[0]):
            edges.insert(pos, line)
        lines = ["model bench"]
        lines += section("things", [f"thing {t}" for t in self.things])
        lines += section("machines", [f"machine {m}" for m in self.machines])
        lines += section("flows", self.flows)
        lines += section("triggers", self.triggers)
        lines += section("events", self.events)
        lines += ["chronology {", *edges, "}"]
        return "\n".join(lines) + "\n"


def _broken_build(src: _Source, names: _Names) -> tuple[str, Counter]:
    """Syntax and build errors (E001, E101, E106, E301, E303) at seeded places."""
    rng = names.rng
    k = ERRORS_PER_CODE
    ghosts = names.series(3 * k)
    extra: dict[str, list[tuple[int, str]]] = {"things": [], "flows": [], "events": []}
    for i in range(k):
        a, b = rng.sample(range(len(src.machines)), 2)
        # E001: the arrow is missing; the parser drops the line and resumes.
        extra["flows"].append((rng.randrange(len(src.flows) + 1),
                               f"flow {src.thing} {src.machines[a]}.transfer "
                               f"{src.machines[b]}.transfer"))
        # E101: the source machine does not exist.
        extra["flows"].append((rng.randrange(len(src.flows) + 1),
                               f"flow {src.thing} {ghosts[i]}.transfer -> "
                               f"{src.machines[b]}.transfer"))
        # E106: a second declaration of an existing thing.
        extra["things"].append((rng.randrange(len(src.things) + 1),
                                f"thing {rng.choice(src.things)}"))
        # E301: a region flow between machines no flow connects (the model
        # only links neighbours, so a gap of two or more has no flow).
        j = rng.randrange(len(src.machines) - 2)
        extra["events"].append((rng.randrange(len(src.events) + 1),
                                f"event {ghosts[k + i]} {{\n"
                                f"  flow {src.thing} {src.machines[j]}.transfer -> "
                                f"{src.machines[j + 2]}.transfer\n}}"))
    # E303: a chronology edge to an event that does not exist.
    chron = [(rng.randrange(len(src.chain)), f"  {rng.choice(src.chain)} -> {ghosts[2 * k + i]}")
             for i in range(k)]
    return src.text(extra, chron), Counter({code: k for code in BUILD_CODES})


def _broken_validate(src: _Source, names: _Names) -> tuple[str, Counter]:
    """A model that builds but fails validation (E102, E103, E105).

    Each error sits on machines of its own, added at seeded places, so that
    no error touches a stage another error or the relay uses.
    """
    rng = names.rng
    k = ERRORS_PER_CODE
    fresh = names.series(4 * k)
    other = names.series(k)
    thing = src.thing
    machines: list[str] = []
    flows: list[str] = []
    things: list[str] = []
    for i in range(k):
        a, b, c, d = fresh[4 * i: 4 * i + 4]
        machines += [a, b, c, d]
        # E102: process -> receive inside one machine is not a legal step.
        flows.append(f"flow {thing} {a}.process -> {a}.receive")
        # E103: release -> transfer across a machine boundary.
        flows.append(f"flow {thing} {b}.release -> {c}.transfer")
        # E105: one thing flows into a receive stage, another flows out.
        things.append(other[i])
        flows.append(f"flow {thing} {d}.transfer -> {d}.receive")
        flows.append(f"flow {other[i]} {d}.receive -> {d}.process")
    extra = {
        "machines": [(rng.randrange(len(src.machines) + 1), f"machine {m}") for m in machines],
        "flows": [(rng.randrange(len(src.flows) + 1), f) for f in flows],
        "things": [(rng.randrange(len(src.things) + 1), f"thing {t}") for t in things],
    }
    return src.text(extra), Counter({code: k for code in VALIDATE_CODES})


def _broken(src: _Source, names: _Names, model: str) -> dict[str, tuple[str, Counter]]:
    return {
        f"{model}_build_errors": _broken_build(src, names),
        f"{model}_validate_errors": _broken_validate(src, names),
    }


def relay(n: int = RELAY_N, seed: int = 0) -> Inputs:
    """Thing X passes env -> M0 ... M(n-1) -> env, one one-shot event per hop.

    Each machine's transfer triggers its create stage, which mints Z_i; Z_i
    moves create -> process -> release. A chain chronology orders the events,
    so event i fires in step i+1. The last machine's transfer is a decision
    point (exit to env or keep to its receive stage) and its trigger is gated.

    Trace: create n+1, transfer n+1, process n, release n, trigger n,
    event_start n, event_end n, choice 1, gate 1: 7n+4 entries. The run ends
    quiescent after n+1 steps with n Z tokens left.
    """
    if n < 3:
        raise ValueError("relay needs n >= 3")
    names = _Names(random.Random(f"relay/{seed}"))
    x = names.series(1)[0]
    zs = names.series(n)
    ms = names.series(n)
    es = names.series(n)
    stage = [f"{m}.transfer" for m in ms]
    prev = ["env.transfer"] + stage[:-1]
    last = ms[-1]
    exits = [f"flow {x} {last}.transfer -> env.transfer",
             f"flow {x} {last}.transfer -> {last}.receive"]
    flows = [f"flow {x} {prev[i]} -> {stage[i]}" for i in range(n)] + exits
    for z, m in zip(zs, ms):
        flows += [f"flow {z} {m}.create -> {m}.process", f"flow {z} {m}.process -> {m}.release"]
    triggers = [f"trigger {m}.transfer ~> {m}.create" for m in ms]
    events = []
    for i, (e, z, m) in enumerate(zip(es, zs, ms)):
        body = [f"  flow {x} {prev[i]} -> {stage[i]}",
                f"  trigger {m}.transfer ~> {m}.create",
                f"  flow {z} {m}.create -> {m}.process",
                f"  flow {z} {m}.process -> {m}.release"]
        if i == n - 1:
            body += [f"  {line}" for line in exits]
        events.append("\n".join([f"event {e} {{", *body, "}"]))
    src = _Source(x, [x, *zs], ms, flows, triggers, events, es)
    scenario = (f"inject {x} env.transfer @1\n"
                f"choose {last}.transfer env.transfer\n"
                f"gate {last}.create true\n"
                f"max_steps {n + 10}\n")
    kinds = Counter({"create": n + 1, "transfer": n + 1, "process": n, "release": n,
                     "trigger": n, "event_start": n, "event_end": n,
                     "choice": 1, "gate": 1})
    case = SimCase("relay", "relay", scenario, kinds, tuple(es), "quiescent", n + 1, n)
    return Inputs({"relay": src.text()}, _broken(src, names, "relay"), [case])


def flood(machines: int = FLOOD_MACHINES, steps: int = FLOOD_STEPS, seed: int = 0) -> Inputs:
    """A relay of perpetual events, declared back to front, fed every step.

    Event i moves X from machine i-1 (env for i=0) to machine i and fires
    the trigger of machine i's transfer onto its process stage. Declared
    back to front, one region pass moves each token exactly one hop, so
    event i first fires in step i+1 and then once per step. Tokens pile up
    on the last machine, so live tokens grow by one per step.

    Half of the triggers carry a gate and half of those gates are true.
    Trace: create = steps, transfer = sum over events of (steps - i),
    gate/trigger counts from the gate placement, event_start = machines.
    """
    if not 2 <= machines <= steps:
        raise ValueError("flood needs 2 <= machines <= steps")
    names = _Names(random.Random(f"flood/{seed}"))
    rng = names.rng
    x = names.series(1)[0]
    ms = names.series(machines)
    es = names.series(machines)
    stage = [f"{m}.transfer" for m in ms]
    prev = ["env.transfer"] + stage[:-1]
    flows = [f"flow {x} {prev[i]} -> {stage[i]}" for i in range(machines)]
    triggers = [f"trigger {m}.transfer ~> {m}.process" for m in ms]
    events = [
        "\n".join([f"event {es[i]} perpetual {{",
                   f"  flow {x} {prev[i]} -> {stage[i]}",
                   f"  trigger {ms[i]}.transfer ~> {ms[i]}.process",
                   "}"])
        for i in reversed(range(machines))
    ]
    src = _Source(x, [x], ms, flows, triggers, events, es)
    gated = rng.sample(range(machines), machines // 2)
    true_gates = set(rng.sample(gated, len(gated) // 2))
    lines = [f"inject {x} env.transfer @{s}" for s in range(1, steps + 1)]
    lines += [f"gate {ms[i]}.process {'true' if i in true_gates else 'false'}"
              for i in sorted(gated)]
    lines.append(f"max_steps {steps}")
    active = [steps - i for i in range(machines)]  # steps in which event i runs
    kinds = Counter({"create": steps, "event_start": machines,
                     "transfer": sum(active),
                     "gate": sum(active[i] for i in gated),
                     "trigger": sum(active[i] for i in range(machines)
                                    if i not in gated or i in true_gates)})
    case = SimCase("flood", "flood", "\n".join(lines) + "\n", kinds,
                   tuple(es), "step_limit", steps, steps)
    return Inputs({"flood": src.text()}, _broken(src, names, "flood"), [case])


# -- corpus ------------------------------------------------------------------

#: The seeded mutations of the murderer model from acceptance criterion 2:
#: each must yield exactly its code. Lines marked "insert" go in at a seeded
#: top-level position; the others edit the chronology in place.
MURDERER_MUTATIONS = {
    "E101": ("insert", "flow presence nowhere.release -> victim.transfer"),
    "E102": ("insert", "flow presence victim.process -> victim.receive"),
    "E103": ("insert", "flow presence victim.release -> agent.eyes.receive"),
    "E104": ("insert", "flow presence victim.release -> victim.create"),
    "E105": ("insert", "flow question agent.eyes.process -> agent.eyes.release"),
    "E106": ("insert", "thing presence"),
    "E301": ("insert", "event ghost { node agent.truth.release }"),
    "E302": ("replace", ("e8 -> e9", "e8 -> e9\n  e9 -> e4")),
    "E303": ("replace", ("e8 -> e9", "e8 -> e99")),
    "W201": ("insert", "trigger victim.release ~> agent.eyes.process"),
}

CORPUS_SCENARIOS = {
    "reservoir": ("reservoir",),
    "kant_ci": ("kant_agree", "kant_disagree"),
    "murderer": ("murderer_truth", "murderer_lie"),
    "islamic": ("islamic_gate_true", "islamic_gate_false", "islamic_abstain"),
}
VIEWS = ("static", "events", "chronology")


def _mutate(base: str, code: str, rng: random.Random) -> str:
    how, what = MURDERER_MUTATIONS[code]
    if how == "replace":
        old, new = what
        assert old in base
        return base.replace(old, new)
    lines = base.split("\n")
    # Single-line top-level items: a new line before one of them is top-level.
    slots = [i for i, line in enumerate(lines)
             if line.startswith(("thing ", "flow ", "trigger "))]
    slots.append(len(lines) - 1)  # the end of the file
    at = rng.choice(slots)
    return "\n".join(lines[:at] + [what] + lines[at:])


def corpus(corpus_dir: Path, seed: int = 0) -> Inputs:
    """The 4 bundled models, their 8 scenarios, 20 goldens, 10 mutations."""
    rng = random.Random(f"corpus/{seed}")
    golden = corpus_dir / "golden"
    models = {m: (corpus_dir / f"{m}.tm").read_text(encoding="utf-8") for m in CORPUS_SCENARIOS}
    sims = [SimCase(s, m, (corpus_dir / f"{s}.scn").read_text(encoding="utf-8"),
                    golden=(golden / f"{s}.trace").read_text(encoding="utf-8"))
            for m, scns in CORPUS_SCENARIOS.items() for s in scns]
    dots = {(m, v): (golden / f"{m}_{v}.dot").read_text(encoding="utf-8")
            for m in CORPUS_SCENARIOS for v in VIEWS}
    broken = {f"murderer_{code}": (_mutate(models["murderer"], code, rng), Counter({code: 1}))
              for code in MURDERER_MUTATIONS}
    return Inputs(models, broken, sims, dots)


WORKLOADS = ("corpus", "relay", "flood")


#: Sizes of the log-log slope fits: n for relay, steps for flood.
LADDERS = {"relay": (100, 200, RELAY_N), "flood": (75, 150, FLOOD_STEPS)}


def make(workload: str, seed: int, corpus_dir: Path) -> Inputs:
    if workload == "corpus":
        return corpus(corpus_dir, seed)
    return sized(workload, LADDERS[workload][-1], seed)


def sized(workload: str, size: int, seed: int) -> Inputs:
    """The workload at one rung of its ladder; the last rung is its size."""
    if workload == "relay":
        return relay(size, seed)
    if workload == "flood":
        return flood(FLOOD_MACHINES, size, seed)
    raise ValueError(f"no size ladder for {workload!r}")
