"""Guards for the tools that drive tmkit from outside the package."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import tmkit.cli
import tmkit.dsl
import tmkit.events
import tmkit.render
import tmkit.sim

from helpers import load_corpus_model, load_corpus_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists(monkeypatch):
    # The traced benchmark run rebinds these module attributes; a refactor
    # that drops one must fail here rather than in the benchmark.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    modules = {"dsl": tmkit.dsl, "sim": tmkit.sim, "render": tmkit.render,
               "events": tmkit.events}
    targets = tracing.library_targets(modules) + tracing.cli_targets(tmkit.cli)
    missing = [f"{m.__name__}.{attr}" for m, attr, _ in targets if not hasattr(m, attr)]
    assert targets
    assert missing == []


def test_simulate_validates_and_initialises_once(monkeypatch):
    # The traced benchmark reads sim.init_state and core.validate spans
    # from these two names; one run must pass through each exactly once.
    calls = {"init_state": 0, "validate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tmkit.sim, name, counting(name, getattr(tmkit.sim, name)))
    model = load_corpus_model("reservoir")
    trace = tmkit.sim.simulate(model, load_corpus_scenario("reservoir"))
    assert trace.entries
    assert calls == {"init_state": 1, "validate": 1}
