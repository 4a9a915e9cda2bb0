#!/usr/bin/env python3
"""tmkit benchmark: seeded workloads driven through tmkit's public API and ``tm``.

    python3 perfbench/run.py --workload corpus|relay|flood --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports tmkit from
``src/`` next to this directory. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
separate traced run. Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Least timed in-process repetitions, after one discarded warm-up: flood's
#: simulator phases are long and few, so it gets more of them; a relay
#: repetition takes ~12 s, so it gets fewer, to keep within the run budget.
MIN_REPS = {"corpus": 3, "flood": 4, "relay": 2}
SETUPS = 7  # set-ups per run; setup_s is their median
#: Passes over the workload's tm commands: enough invocations that cli_tail_s
#: (10 samples beyond it) lies above the median, except on relay, whose
#: commands cost ~1.5 s each and where 18 must do to keep within the run budget.
CLI_SWEEPS = {"corpus": 1, "flood": 4, "relay": 3}
FRONT_SECONDS = 0.25  # least front-end time per repetition (end-to-end run)
CHECK_PASSES = 2  # least check_s and emit_s samples per repetition (end-to-end run)
TRACED_REPS = 2  # traced repetitions, each paired with an untraced one
LADDER_REPS = 3  # traced repetitions at each smaller size of the slope ladder
PROBES = 5  # bare-interpreter and import probes for cli.interp_s/cli.import_s
CHILD_TIMEOUT = 150

REP_METRICS = ("check_s", "reject_s", "emit_s", "sim_s", "step_s")


class Tally:
    """Operations attempted and failed; an operation fails on any bad check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {what}: {'; '.join(problems)}", file=sys.stderr)


class Api:
    """The public tmkit functions the benchmark calls, each taking the name
    of the input it works on first; traced, each call is a span."""

    NAMES = {
        "parse": ("dsl", "parse", "dsl.parse"),
        "serialize": ("dsl", "serialize", "dsl.serialize"),
        "render_static": ("render", "render_static", "render.static"),
        "render_events": ("render", "render_events", "render.events"),
        "render_chronology": ("render", "render_chronology", "render.chronology"),
        "coverage": ("events", "coverage", "events.coverage"),
        "load_scenario": ("sim", "load_scenario", "sim.load_scenario"),
        "simulate": ("sim", "simulate", "sim.simulate"),
        "format_trace": ("sim", "format_trace", "sim.format_trace"),
        "init_state": ("sim", "init_state", "sim.init_state"),
        "step": ("sim", "step", "sim.step"),
    }

    def __init__(self, modules: dict, recorder: tracing.Recorder | None = None):
        for attr, (module, name, span) in self.NAMES.items():
            fn = getattr(modules[module], name)
            if recorder is None:
                setattr(self, attr, _drop_tag(fn))
            else:
                setattr(self, attr, recorder.wrap(span, fn, tag_arg=True))


def _drop_tag(fn):
    return lambda _tag, *args, **kwargs: fn(*args, **kwargs)


@dataclass
class Expect:
    """Outputs pinned by goldens, or by the first repetition and then held
    byte-identical in every later one."""

    pinned: dict = field(default_factory=dict)

    def same(self, key, value) -> list[str]:
        if key not in self.pinned:
            self.pinned[key] = value
            return []
        return [] if self.pinned[key] == value else [f"{key} differs from the first repetition"]


@dataclass
class RepResult:
    samples: dict[str, list[float]] = field(  # on the reference scale (speed.py)
        default_factory=lambda: {k: [] for k in REP_METRICS})
    raw: dict[str, list[float]] = field(  # the same, as measured
        default_factory=lambda: {k: [] for k in REP_METRICS})
    diagnostics: int = 0  # of one front-end pass
    lines: int = 0  # parsed in one front-end pass
    steps: int = 0
    entries: int = 0
    live_tokens_peak: int = 0

    @property
    def total(self) -> float:
        return sum(sum(v) for v in self.samples.values())

    def add(self, key: str, raw: float, meter: speed.Meter) -> None:
        """One sample of ``key``: a phase that took ``raw`` seconds and has
        just ended."""
        self.samples[key].append(meter.lap(raw))
        self.raw[key].append(raw)


def front_end(api: Api, inputs: workloads.Inputs, expect: Expect, tally: Tally,
              tm, first: bool, res: RepResult, meter: speed.Meter, reject: bool = True) -> dict:
    """Parse every source text fresh, then emit every valid model once.

    Appends one check_s and emit_s sample to ``res``, and a reject_s sample
    unless ``reject`` is false; returns the parsed models.
    """
    clock = meter.clock
    times = dict.fromkeys(("check_s", "emit_s") + (("reject_s",) if reject else ()), 0.0)
    lines = diagnostics = 0
    models = {}
    meter.start()
    for name, text in inputs.models.items():
        t0 = clock()
        parsed = api.parse(name, text, f"{name}.tm")
        times["check_s"] += clock() - t0
        lines += text.count("\n")
        problems = [] if parsed.model is not None else ["no model"]
        problems += [f"unexpected {d.code}" for d in parsed.diagnostics]
        tally.op(f"parse {name}", problems)
        models[name] = parsed.model
    res.add("check_s", times["check_s"], meter)
    for name, (text, codes) in inputs.broken.items() if reject else ():
        t0 = clock()
        parsed = api.parse(name, text, f"{name}.tm")
        times["reject_s"] += clock() - t0
        lines += text.count("\n")
        diagnostics += len(parsed.diagnostics)
        got = Counter(d.code for d in parsed.diagnostics)
        problems = [] if got == codes else [f"codes {dict(got)} != {dict(codes)}"]
        if parsed.model is not None and any(c.startswith("E") for c in codes):
            problems.append("a model was built despite errors")
        tally.op(f"reject {name}", problems)
    if reject:
        res.add("reject_s", times["reject_s"], meter)
    for name, model in models.items():
        if model is None:
            continue
        t0 = clock()
        text = api.serialize(name, model)
        docs = {
            "static": api.render_static(name, model).text,
            "events": api.render_events(name, model).text,
            "chronology": api.render_chronology(name, model).text,
        }
        report = api.coverage(name, model)
        times["emit_s"] += clock() - t0
        problems = expect.same(("fmt", name), text)
        problems += expect.same(("coverage", name), report.text())
        if first:
            again = tm.parse(text, f"{name}.tm").model
            if again is None or tm.serialize(again) != text:
                problems.append("parse(serialize(m)) does not serialize back to the same text")
        if name in ("relay", "flood") and report.uncovered:
            problems.append(f"uncovered edges {report.uncovered[:3]}")
        for view, doc in docs.items():
            golden = inputs.golden_dots.get((name, view))
            if golden is not None and doc != golden:
                problems.append(f"{view} DOT differs from the golden")
            problems += expect.same(("dot", name, view), doc)
            if not tm.dot_well_formed(doc):
                problems.append(f"{view} DOT is not well formed")
        tally.op(f"emit {name}", problems)
    res.add("emit_s", times["emit_s"], meter)
    if reject:
        res.lines, res.diagnostics = lines, diagnostics
    return models


def repetition(api: Api, inputs: workloads.Inputs, expect: Expect, tally: Tally,
               tm, first: bool, meter: speed.Meter, front_seconds: float = 0.0,
               check_passes: int = 1) -> RepResult:
    """Every operation of the workload, each timed and checked.

    The front end runs at least once and, where it is cheap, again until
    it has taken ``front_seconds``, so that its small timings get as many
    samples as the simulator's. Where it is dear (relay), the valid texts
    are parsed and emitted again, without the broken ones, until there are
    ``check_passes`` samples. Every pass parses fresh, as ``tm`` does; the
    last pass's models serve all of their scenarios, first through
    ``simulate`` and then step by step.
    """
    clock = meter.clock
    res = RepResult()
    started = clock()
    models = front_end(api, inputs, expect, tally, tm, first, res, meter)
    while clock() - started < front_seconds:
        models = front_end(api, inputs, expect, tally, tm, False, res, meter)
    while len(res.samples["check_s"]) < check_passes:
        models = front_end(api, inputs, expect, tally, tm, False, res, meter, reject=False)
    cases = [(case, models[case.model]) for case in inputs.sims
             if models.get(case.model) is not None]
    traces = {}
    sim_s = 0.0
    meter.start()
    for case, model in cases:
        t0 = clock()
        scenario = api.load_scenario(case.name, case.scenario, f"{case.name}.scn")
        trace = api.simulate(case.name, model, scenario)
        data = api.format_trace(case.name, trace)
        sim_s += clock() - t0
        problems = check_trace(case, trace, data, model, tm) + expect.same(("trace", case.name), data)
        tally.op(f"sim {case.name}", problems)
        traces[case.name] = (scenario, trace)
    res.add("sim_s", sim_s, meter)

    step_s = 0.0
    for case, model in cases:
        scenario, trace = traces[case.name]
        t0 = clock()
        state = api.init_state(case.name, model, scenario)
        entries: list = []
        peak = 0
        for _ in range(scenario.max_steps):
            state, new = api.step(case.name, model, state)
            entries.extend(new)
            peak = max(peak, len(state.tokens))
            if state.quiescent:
                break
        step_s += clock() - t0
        problems = [] if tuple(entries) == trace.entries else ["step entries differ from simulate"]
        if case.steps is not None and state.step_no != case.steps:
            problems.append(f"{state.step_no} steps, expected {case.steps}")
        if case.live_tokens_peak is not None and peak != case.live_tokens_peak:
            problems.append(f"peak of {peak} live tokens, expected {case.live_tokens_peak}")
        tally.op(f"step {case.name}", problems)
        res.steps += state.step_no
        res.entries += len(entries)
        res.live_tokens_peak = max(res.live_tokens_peak, peak)
    res.add("step_s", step_s, meter)
    return res


def check_trace(case: workloads.SimCase, trace, data: str, model, tm) -> list[str]:
    problems = []
    if case.golden is not None and data != case.golden:
        problems.append("trace differs from the golden")
    if case.kinds is not None:
        got = Counter(e.kind for e in trace.entries)
        if got != case.kinds:
            problems.append(f"entry kinds {dict(got)} != {dict(case.kinds)}")
    if case.fired is not None and trace.fired_events != case.fired:
        problems.append("events fired out of the expected order")
    if case.terminated is not None and trace.terminated != case.terminated:
        problems.append(f"terminated={trace.terminated}, expected {case.terminated}")
    if model.chronology is not None and not tm.conforms(trace, model.chronology):
        problems.append("trace does not conform to the chronology")
    return problems


# -- tm in fresh interpreters --------------------------------------------------


@dataclass
class Command:
    argv: list[str]
    exit: int
    stdout: str | None = None  # exact expected bytes (as text)
    codes: Counter | None = None  # expected diagnostic codes on stdout


def cli_commands(inputs: workloads.Inputs, files: dict[str, str], expect: Expect,
                 with_sim: bool) -> list[Command]:
    """validate, fmt, the three render views and coverage per model, plus
    sim per scenario when ``with_sim``; expected output from the goldens or
    from the in-process run already checked."""
    commands = []
    broken = list(inputs.broken.items())
    for index, name in enumerate(inputs.models):
        bad_name, (_, codes) = broken[index % len(broken)]
        exit_code = 1 if any(c.startswith("E") for c in codes) else 0
        model = files[f"{name}.tm"]
        commands.append(Command(["validate", model, files[f"{bad_name}.tm"]], exit_code, codes=codes))
        commands.append(Command(["fmt", model], 0, expect.pinned[("fmt", name)]))
        for view in workloads.VIEWS:
            commands.append(Command(["render", model, "--view", view], 0,
                                    expect.pinned[("dot", name, view)]))
        commands.append(Command(["coverage", model], 0, expect.pinned[("coverage", name)]))
    if with_sim:
        for case in inputs.sims:
            commands.append(Command(["sim", files[f"{case.model}.tm"], "--scenario",
                                     files[f"{case.name}.scn"]], 0, expect.pinned[("trace", case.name)]))
    return commands


def run_tm(command: Command, tally: Tally, spans_file: str = "-") -> tuple[float, float]:
    """One ``tm`` command in a fresh interpreter, checked; returns its wall
    time and the part of it the child spent inside the command."""
    argv = [sys.executable, str(HERE / "cli_child.py"), str(SRC), spans_file, *command.argv]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    last = proc.stderr.decode(errors="replace").rstrip().rpartition("\n")[2].split()
    reported = len(last) == 2 and last[0] == "perfbench-inside"
    inside = float(last[1]) if reported else elapsed
    problems = [] if reported and inside <= elapsed else ["no time reported from inside the command"]
    if proc.returncode != command.exit:
        problems.append(f"exit {proc.returncode}, expected {command.exit}: "
                        f"{proc.stderr.decode(errors='replace')[-300:]}")
    if command.stdout is not None and proc.stdout != command.stdout.encode("utf-8"):
        problems.append("stdout differs from the expected bytes")
    if command.codes is not None:
        lines = proc.stdout.decode("utf-8", errors="replace").splitlines()
        got = Counter(line.split()[1] for line in lines if len(line.split()) > 1)
        if got != command.codes or not all(command.argv[-1] in line for line in lines):
            problems.append(f"diagnostics {dict(got)} != {dict(command.codes)}")
    tally.op("tm " + " ".join(Path(a).name for a in command.argv), problems)
    return elapsed, inside


def probe(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    return time.perf_counter() - t0


# -- set-up ------------------------------------------------------------------------


def import_seconds() -> float:
    """``import tmkit`` timed inside a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tmkit; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    return float(out.stdout)


def write_inputs(inputs: workloads.Inputs, work: Path) -> dict[str, str]:
    """Write every input to ``work``; returns file name -> path."""
    texts = {f"{name}.tm": text for name, text in inputs.models.items()}
    texts.update({f"{name}.tm": text for name, (text, _) in inputs.broken.items()})
    texts.update({f"{case.name}.scn": case.scenario for case in inputs.sims})
    files = {}
    for name, text in texts.items():
        files[name] = str(work / name)
        Path(files[name]).write_text(text, encoding="utf-8")
    return files


def setup(workload: str, seed: int, work: Path, meter: speed.Meter):
    """Generate the inputs and import tmkit, SETUPS times; report the median
    on the reference scale, and the raw median."""
    samples, raw = [], []
    for _ in range(SETUPS):
        meter.start()
        imported = import_seconds()
        t0 = time.perf_counter()
        inputs = workloads.make(workload, seed, SRC / "tmkit" / "corpus")
        files = write_inputs(inputs, work)
        raw.append(imported + time.perf_counter() - t0)
        samples.append(meter.lap(raw[-1]))
    return inputs, files, statistics.median(samples), statistics.median(raw)


# -- the two kinds of run ------------------------------------------------------------


def end_to_end(workload, inputs, files, seconds, tm, tally) -> tuple[dict, dict]:
    """The end-to-end metrics on the reference scale, and the raw ones."""
    api = Api(tm.modules)
    expect = Expect()
    started = time.perf_counter()
    meter = speed.Meter(sampling=True)
    try:
        repetition(api, inputs, expect, tally, tm, True, meter)  # warm-up, discarded
        reps: list[RepResult] = []
        while len(reps) < MIN_REPS[workload] or time.perf_counter() - started < seconds:
            gc.collect()
            reps.append(repetition(api, inputs, expect, tally, tm, False, meter,
                                   FRONT_SECONDS, CHECK_PASSES))
    finally:
        meter.close()
    metrics = {k: statistics.median(x for r in reps for x in r.samples[k]) for k in REP_METRICS}
    raw = {k: statistics.median(x for r in reps for x in r.raw[k]) for k in REP_METRICS}
    # tm runs after the in-process repetitions, so that no repetition starts
    # on caches a fresh interpreter has just flushed.
    commands = cli_commands(inputs, files, expect, with_sim=workload != "relay")
    cli, cli_raw = [], []
    command_meter = speed.CommandMeter()
    for command in commands * CLI_SWEEPS[workload]:
        wall, inside = run_tm(command, tally)
        cli_raw.append(wall)
        cli.append(command_meter.lap(wall, inside))
    metrics["cli_s"], raw["cli_s"] = statistics.median(cli), statistics.median(cli_raw)
    metrics["cli_tail_s"], pct = tracing.tail(cli)
    raw["cli_tail_s"] = tracing.tail(cli_raw)[0]
    passes = sum(len(r.samples["check_s"]) for r in reps)
    print(f"# {len(reps)} timed repetitions after 1 warm-up, with {passes} front-end passes; "
          f"{len(cli)} tm invocations, "
          f"cli_tail_s is their p{pct:.1f} with 10 samples beyond it")
    print(f"# timings on the reference scale of perfbench/speed.py, then as measured; "
          f"the kernel took {statistics.median(meter.readings) * 1e6:.0f} us in the median "
          f"phase, {speed.REFERENCE_S * 1e6:.0f} us on the reference host")
    return metrics, raw


def per_layer(workload, seed, inputs, files, tm, tally) -> tuple[dict[str, float], tracing.Recorder]:
    rec = tracing.Recorder()
    plain, traced = Api(tm.modules), Api(tm.modules, rec)
    targets = tracing.library_targets(tm.modules)
    expect = Expect()
    meter = speed.Meter()
    repetition(plain, inputs, expect, tally, tm, True, meter)  # warm-up, discarded
    untraced, main_iters, reps = [], [], []
    for i in range(2 * TRACED_REPS):
        gc.collect()
        if i % 4 in (0, 3):  # untraced, traced, traced, untraced: no order bias
            untraced.append(repetition(plain, inputs, expect, tally, tm, False, meter).total)
            continue
        rec.iteration += 1
        with tracing.Patches(rec, targets):
            reps.append(repetition(traced, inputs, expect, tally, tm, False, meter))
        main_iters.append(rec.iteration)
    m: dict[str, float] = {}
    m["trace.overhead_s"] = statistics.median(r.total for r in reps) - statistics.median(untraced)

    def per_iter(name, attr="duration", iters=main_iters, keep=lambda s: True) -> float:
        sums = {i: 0.0 for i in iters}
        for s in rec.spans:
            if s.name == name and s.iteration in sums and keep(s):
                sums[s.iteration] += getattr(s, attr)
        return statistics.median(sums.values())

    def calls(name) -> list[float]:
        return [s.duration for s in rec.spans if s.name == name and s.iteration in main_iters]

    m["dsl.self_s"] = per_iter("dsl.parse", "self_time")
    m["dsl.lines_per_s"] = reps[0].lines / m["dsl.self_s"]
    m["dsl.serialize_s"] = per_iter("dsl.serialize")
    m["dsl.diagnostics"] = reps[0].diagnostics
    m["core.build_model_s"] = statistics.median(calls("core.build_model"))
    m["core.validate_s"] = statistics.median(calls("core.validate"))
    m["core.validate.calls"] = len(calls("core.validate")) / len(main_iters)
    m["events.coverage_s"] = per_iter("events.coverage")
    m["events.topological_order_s"] = per_iter("events.topological_order")
    m["render.static_s"] = per_iter("render.static", "self_time")
    m["render.events_s"] = per_iter("render.events", "self_time")
    m["render.chronology_s"] = per_iter("render.chronology", "self_time")
    m["sim.load_scenario_s"] = per_iter("sim.load_scenario")
    m["sim.init_state_s"] = per_iter("sim.init_state", "self_time")
    m["sim.format_trace_s"] = per_iter("sim.format_trace")
    steps = calls("sim.step")
    m["sim.step_s"] = statistics.median(steps)
    m["sim.step_tail_s"] = tracing.tail(steps)[0]
    m["sim.steps"] = reps[0].steps
    m["sim.entries"] = reps[0].entries
    m["sim.live_tokens_peak"] = reps[0].live_tokens_peak

    m.update(slopes(workload, seed, inputs, rec, main_iters, per_iter, traced, targets, tm, tally))

    interp = [probe("pass") for _ in range(PROBES)]
    imports = [probe(f"import sys; sys.path.insert(0, {str(SRC)!r}); import tmkit.cli")
               for _ in range(PROBES)]
    m["cli.interp_s"] = statistics.median(interp)
    m["cli.import_s"] = statistics.median(imports) - m["cli.interp_s"]
    selfs = []
    OUT.mkdir(exist_ok=True)
    spans_file = str(OUT / f"cli-spans-{os.getpid()}.jsonl")
    try:
        for command in cli_commands(inputs, files, expect, with_sim=workload != "relay"):
            run_tm(command, tally, spans_file)
            with open(spans_file, encoding="utf-8") as handle:
                rows = [json.loads(line) for line in handle][1:]
            children = sum(r[3] - r[2] for r in rows if r[4] == 0)
            run_row = next(r for r in rows if r[1] == "cli.run")
            selfs.append((run_row[3] - run_row[2] - children) / 1e9)
    finally:
        if os.path.exists(spans_file):
            os.unlink(spans_file)
    m["cli.self_s"] = statistics.median(selfs)
    return m, rec


def slopes(workload, seed, inputs, rec, main_iters, per_iter, traced, targets, tm, tally) -> dict[str, float]:
    """Log-log slopes of the layers that should scale linearly.

    relay: over n in {100, 200, 400}; flood: over steps in {75, 150, 300};
    corpus: over the four models' line counts (the simulator over the eight
    runs' trace entries), a narrow range read as context only.
    """
    def under_parse(tag):
        def keep(s):
            parent = rec.spans[s.parent] if s.parent is not None else None
            return parent is not None and parent.name == "dsl.parse" and parent.tag == tag
        return keep

    def layers(tag, iters, sim_tag):
        return {
            "dsl.self.slope": per_iter("dsl.parse", "self_time", iters, lambda s: s.tag == tag),
            "core.build_model.slope": per_iter("core.build_model", "duration", iters, under_parse(tag)),
            "core.validate.slope": per_iter("core.validate", "duration", iters, under_parse(tag)),
            "render.events.slope": per_iter("render.events", "self_time", iters, lambda s: s.tag == tag),
            "sim.simulate.slope": per_iter("sim.simulate", "duration", iters, lambda s: s.tag == sim_tag),
        }

    points: dict[str, list[tuple[float, float]]] = {}
    if workload == "corpus":
        for name, text in inputs.models.items():
            for k, v in layers(name, main_iters, None).items():
                if k != "sim.simulate.slope":
                    points.setdefault(k, []).append((text.count("\n"), v))
        for case in inputs.sims:
            points.setdefault("sim.simulate.slope", []).append(
                (case.golden.count("\n") - 1,
                 per_iter("sim.simulate", "duration", main_iters, lambda s, n=case.name: s.tag == n)))
    else:
        for size in workloads.LADDERS[workload]:
            if size == workloads.LADDERS[workload][-1]:
                iters = main_iters
            else:
                ladder_inputs, iters, expect = workloads.sized(workload, size, seed), [], Expect()
                for _ in range(LADDER_REPS):
                    rec.iteration += 1
                    with tracing.Patches(rec, targets):
                        repetition(traced, ladder_inputs, expect, tally, tm, not iters, speed.Meter())
                    iters.append(rec.iteration)
            for k, v in layers(workload, iters, workload).items():
                points.setdefault(k, []).append((size, v))
    return {k: tracing.loglog_slope(p) for k, p in points.items()}


# -- entry point ---------------------------------------------------------------------


class _Tmkit:
    """The tmkit modules the benchmark uses, imported from ``src``."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import tmkit.dsl
        import tmkit.events
        import tmkit.render
        import tmkit.sim

        self.modules = {"dsl": tmkit.dsl, "sim": tmkit.sim, "render": tmkit.render,
                        "events": tmkit.events}
        self.parse, self.serialize = tmkit.dsl.parse, tmkit.dsl.serialize
        self.dot_well_formed = tmkit.render.dot_well_formed
        self.conforms = tmkit.sim.conforms


def environment() -> dict:
    """Commit, source digest, Python version and processor count."""
    commit = "n/a"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tmkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tmkit" / "__init__.py").is_file():
        print(f"error: no tmkit sources at {SRC / 'tmkit'}", file=sys.stderr)
        return 2

    # One processor for the benchmark and the interpreters it starts, so that
    # the kernel of speed.py runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    tally = Tally()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    raw: dict[str, float] = {}
    try:
        inputs, files, setup_s, raw_setup_s = setup(args.workload, args.seed, work, speed.Meter())
        tm = _Tmkit()
        if args.trace:
            metrics, rec = per_layer(args.workload, args.seed, inputs, files, tm, tally)
            OUT.mkdir(exist_ok=True)
            rec.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {**env, "workload": args.workload, "seed": args.seed})
        else:
            metrics, raw = end_to_end(args.workload, inputs, files, args.seconds, tm, tally)
            metrics["setup_s"], raw["setup_s"] = setup_s, raw_setup_s
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} are not "
                           "both measured and declared in BENCHMARK.json")

    for name in sorted(metrics):
        measured = f"  ({raw[name]:.6g} as measured)" if name in raw else ""
        print(f"{name:28} {metrics[name]:>14.6g} {units[name]}{measured}")
    fail_frac = tally.failed / max(tally.attempted, 1)
    print(f"{'fail_frac':28} {fail_frac:>14.6g} ratio ({tally.failed} failed of "
          f"{tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "fail_frac": fail_frac}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
