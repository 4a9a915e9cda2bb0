#!/usr/bin/env python3
"""Time each stage of two tmkit sources on relay and flood, call by call.

    python3 scripts/stage_pairs.py PARENT_SRC CHANGE_SRC [--n 400] [--calls 41]

Each SRC is a directory holding the ``tmkit`` package, such as a checkout's
``src``. Both are imported into this one process, under the names
``tmkit_parent`` and ``tmkit_change``, and given the same inputs from
perfbench/workloads.py (imported, not edited), seed 0. On the relay model of
``--n`` machines the stages are ``_scan``, the token parser,
``build_model``, ``validate``, the whole ``parse``, the emitters
``serialize``, ``render_static``, ``render_events`` and
``render_chronology``, and ``emit``, the emit block perfbench times
(``serialize``, the three views, then ``coverage``) on one model, and
``tables``, the simulator's per-model tables (``sim._tables``). On the
relay scenario they are ``simulate`` and ``step_loop`` (``init_state`` and a
``step`` per macro-step); on the flood model and scenario, at perfbench's
size, ``simulate``, ``format_trace`` and ``step_loop``. Each
stage's input is made outside its timed call, so ``validate`` runs on a
fresh model each time, each emitter on a freshly parsed model whose
``Model.stages`` is already built, ``emit`` on a freshly parsed model, as
perfbench's emit block gets it, and ``tables``, ``simulate`` and the step
loop on a freshly parsed model, so that building the simulator's tables is
timed with ``simulate`` and the step loop.
Before the tables it prints each side's ``_scan`` token count and folded
declaration count for the relay text, and on a second line their sums over
the 4 corpus models, so that a front-end change shows its count deltas
beside its timings.
The script exits non-zero if the two sides' emitter bytes (``render_events``
also on a fresh model that runs it before ``render_static``), flood trace
bytes, relay or flood step-loop entries (as text) differ, or the trace bytes of
the relay scenario or of any of the 8 corpus scenarios (read from PARENT_SRC's
corpus), which run events to completion and take choices and gates, or the
fields of each step's ``SimState`` (``step_no``, ``tokens``, ``next_token``,
``choice_taken``, ``timings`` and ``quiescent``, as text) in a step loop over
the relay, flood or corpus scenarios, read from that loop's states after it
ends.

For each of ``--calls`` rounds, every stage is called once per side; the
parent goes first on even rounds and the change first on odd ones, and the
collector runs before each timed call. Where a side's ``parse`` and
``simulate`` pause the cyclic collector while they run, their rows run
paused, and the ``_scan``, ``parser``, ``build_model``, ``validate`` and
``step_loop`` rows do not: the four front-end rows then no longer sum to
``parse``. The ``tables`` row runs paused, as ``simulate`` builds the tables.
The process is pinned to one CPU where the platform allows it. The script
prints each stage's median in milliseconds per side, the change's median
over the parent's, the calls the change won and the parent's interquartile
range over its median (inclusive quartiles): a ratio that moves less than
that spread says little. Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

FILE = "<relay>"
FLOOD = "<flood>"
RELAY_SIM = ("simulate", "step_loop")  # the simulator stages timed on relay, too


def load(src: Path, name: str):
    """The ``tmkit`` package under ``src``, imported as ``name``."""
    package = src.resolve() / "tmkit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def emitters(tmkit) -> dict:
    """Per emitter, a function from a model to its output text."""
    render = tmkit.render
    return {
        "serialize": tmkit.dsl.serialize,
        "render_static": lambda model: render.render_static(model).text,
        "render_events": lambda model: render.render_events(model).text,
        "render_chronology": lambda model: render.render_chronology(model).text,
    }


def emit_block(tmkit, model) -> list[str]:
    """perfbench's emit block on one model: ``serialize``, the three views,
    then ``coverage``."""
    render = tmkit.render
    return [tmkit.dsl.serialize(model), render.render_static(model).text,
            render.render_events(model).text, render.render_chronology(model).text,
            tmkit.events.coverage(model).text()]


def stage_calls(tmkit, text: str) -> dict:
    """Per stage, a function that makes its input and returns the timed call."""
    dsl, core = tmkit.dsl, tmkit.core

    def decls():
        return dsl._Parser(*dsl._scan(text, FILE), FILE).parse()

    def built():
        name, elements, _ = decls()
        return core.build_model(name, elements)

    def parser():
        tokens, folded = dsl._scan(text, FILE)
        return lambda: dsl._Parser(tokens, folded, FILE).parse()

    def build():
        name, elements, _ = decls()
        return lambda: core.build_model(name, elements)

    def validate():
        model = built()
        return lambda: core.validate(model)

    def emitter(emit):
        def make():
            model = dsl.parse(text, FILE).model
            model.stages  # built outside the timed call
            return lambda: emit(model)
        return make

    def emit():
        model = dsl.parse(text, FILE).model
        return lambda: emit_block(tmkit, model)

    def tables():
        model = dsl.parse(text, FILE).model

        def build():
            gc.disable()  # as simulate builds them
            try:
                return tmkit.sim._tables(model)
            finally:
                gc.enable()
        return build

    calls = {
        "_scan": lambda: lambda: dsl._scan(text, FILE),
        "parser": parser,
        "build_model": build,
        "validate": validate,
        "parse": lambda: lambda: dsl.parse(text, FILE),
    }
    calls.update((name, emitter(emit)) for name, emit in emitters(tmkit).items())
    calls["emit"] = emit
    calls["tables"] = tables
    return calls


def sim_calls(tmkit, text: str, scenario_text: str, file: str) -> dict:
    """Per simulator stage on a model's source text, read as ``file``, and a
    scenario, a function that makes its input and returns the timed call."""
    dsl, sim = tmkit.dsl, tmkit.sim
    scenario = sim.load_scenario(scenario_text)

    def simulate():
        model = dsl.parse(text, file).model
        return lambda: sim.simulate(model, scenario)

    def format_trace():
        trace = sim.simulate(dsl.parse(text, file).model, scenario)
        return lambda: sim.format_trace(trace)

    def step_loop():
        model = dsl.parse(text, file).model

        def run():
            state, entries = sim.init_state(model, scenario), []
            for _ in range(scenario.max_steps):
                state, new = sim.step(model, state)
                entries += new
                if state.quiescent:
                    break
            return entries
        return run

    return {"simulate": simulate, "format_trace": format_trace, "step_loop": step_loop}


def trace_text(tmkit, text: str, scenario_text: str) -> str:
    """The trace bytes of one run of a scenario on a model's source text."""
    sim = tmkit.sim
    model = tmkit.dsl.parse(text, FILE).model
    return sim.format_trace(sim.simulate(model, sim.load_scenario(scenario_text)))


def step_text(tmkit, text: str, scenario_text: str) -> str:
    """Each state of a step loop over a scenario on a model's source text, one
    line per step, read from the kept states after the loop: ``step_no``,
    ``tokens``, ``next_token``, ``choice_taken``, ``timings`` and
    ``quiescent``."""
    sim = tmkit.sim
    model = tmkit.dsl.parse(text, FILE).model
    scenario = sim.load_scenario(scenario_text)
    state, states = sim.init_state(model, scenario), []
    for _ in range(scenario.max_steps):
        state, _ = sim.step(model, state)
        states.append(state)
        if state.quiescent:
            break
    return "\n".join(
        "\t".join((str(state.step_no),
                   " ".join(f"{t.id}:{t.thing}@{t.at}" for t in state.tokens),
                   str(state.next_token), str(state.choice_taken),
                   " ".join(f"{name}:{t.received_at}-{t.released_at}"
                            for name, t in state.timings),
                   str(state.quiescent)))
        for state in states)


def scan_counts(tmkit, texts) -> str:
    """``_scan``'s tokens and folded declarations, each summed over ``texts``."""
    scans = [tmkit.dsl._scan(text, FILE) for text in texts]
    return f"{sum(len(t) for t, _ in scans)} tokens, {sum(len(f) for _, f in scans)} folded"


def timed(make) -> float:
    call = make()
    gc.collect()
    t0 = perf_counter()
    call()
    return perf_counter() - t0


def measure(sides: dict[str, dict], calls: int) -> dict[str, dict[str, list[float]]]:
    """Seconds of each call per stage and side, the sides alternating call by call."""
    labels = list(sides)
    samples = {stage: {label: [] for label in sides} for stage in sides[labels[0]]}
    for i in range(calls):
        order = labels if i % 2 == 0 else labels[::-1]
        for stage in samples:
            for label in order:
                samples[stage][label].append(timed(sides[label][stage]))
    return samples


def row(stage: str, parent: list[float], change: list[float]) -> str:
    """A stage's medians in ms, their ratio, the calls the change won and the
    parent's interquartile range over its median."""
    wins = sum(c < p for p, c in zip(parent, change))
    q1, p, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c = statistics.median(change)
    return (f"{stage:<17} {p * 1e3:>9.2f} {c * 1e3:>9.2f} {c / p:>14.3f} "
            f"{wins:>4}/{len(parent)} {(q3 - q1) / p:>15.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory holding the parent's tmkit")
    parser.add_argument("change", type=Path, help="directory holding the change's tmkit")
    parser.add_argument("--n", type=int, default=400, help="relay machines")
    parser.add_argument("--calls", type=int, default=41, help="timed calls per stage and side")
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    relay = workloads.relay(args.n)
    text = relay.models["relay"]
    corpus = workloads.corpus(args.parent / "tmkit" / "corpus")
    runs = {"relay": (text, relay.sims[0].scenario)}
    runs.update((case.name, (corpus.models[case.model], case.scenario)) for case in corpus.sims)
    flood = workloads.flood()
    flood_text, flood_scenario = flood.models["flood"], flood.sims[0].scenario
    stepped = runs | {"flood": (flood_text, flood_scenario)}
    sides, outputs, counts = {}, {}, {"relay": [], "corpus": []}
    for label, src in (("parent", args.parent), ("change", args.change)):
        tmkit = load(src, f"tmkit_{label}")
        relay_sim = sim_calls(tmkit, text, relay.sims[0].scenario, FILE)
        sides[label] = (stage_calls(tmkit, text)
                        | {f"relay {stage}": relay_sim[stage] for stage in RELAY_SIM}
                        | sim_calls(tmkit, flood_text, flood_scenario, FLOOD))
        counts["relay"].append(f"{label} {scan_counts(tmkit, [text])}")
        counts["corpus"].append(f"{label} {scan_counts(tmkit, corpus.models.values())}")
        model = tmkit.dsl.parse(text, FILE).model
        if not model:
            sys.exit(f"{src}: relay n={args.n} does not parse to a model")
        outputs[label] = {name: emit(model) for name, emit in emitters(tmkit).items()}
        fresh = tmkit.dsl.parse(text, FILE).model
        outputs[label]["render_events before render_static"] = (
            tmkit.render.render_events(fresh).text)
        outputs[label]["flood trace"] = sides[label]["format_trace"]()()
        for workload, loop in (("relay", "relay step_loop"), ("flood", "step_loop")):
            outputs[label][f"{workload} step loop"] = "".join(
                "\t".join(map(str, entry)) + "\n" for entry in sides[label][loop]()())
        outputs[label].update((f"{name} trace", trace_text(tmkit, *run))
                              for name, run in runs.items())
        outputs[label].update((f"{name} step states", step_text(tmkit, *run))
                              for name, run in stepped.items())
    for name, out in outputs["parent"].items():
        if out != outputs["change"][name]:
            sys.exit(f"{name}: the two sides' output bytes differ")
    samples = measure(sides, args.calls)
    print(f"relay n={args.n} _scan: {'; '.join(counts['relay'])}")
    print(f"corpus {len(corpus.models)} models _scan: {'; '.join(counts['corpus'])}")
    titles = {"_scan": f"relay n={args.n}", "relay simulate": f"relay n={args.n} scenario",
              "simulate": f"flood {workloads.FLOOD_MACHINES} machines, "
              f"{workloads.FLOOD_STEPS} steps"}
    for stage, by_side in samples.items():
        if stage in titles:
            print(f"{titles[stage]}, {args.calls} alternating calls per stage and side, "
                  "median ms")
            print(f"{'stage':<17} {'parent':>9} {'change':>9} {'change/parent':>14} "
                  f"{'won':>{5 + len(str(args.calls))}} {'parent IQR/med':>15}")
        print(row(stage.split()[-1], by_side["parent"], by_side["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
