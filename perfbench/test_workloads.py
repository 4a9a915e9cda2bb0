"""The generators' stated results, checked against tmkit at small sizes.

Run: python3 -m pytest perfbench/test_workloads.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tmkit import conforms, load_scenario, parse, simulate  # noqa: E402
from tmkit.sim import format_trace, init_state, step  # noqa: E402


def run(inputs: workloads.Inputs):
    model = parse(next(iter(inputs.models.values()))).model
    case = inputs.sims[0]
    return model, case, simulate(model, load_scenario(case.scenario))


@pytest.mark.parametrize("n", [5, 13, 50])
@pytest.mark.parametrize("seed", [0, 7])
def test_relay_trace_oracle(n, seed):
    model, case, trace = run(workloads.relay(n, seed))
    assert len(trace.entries) == case.entries == 7 * n + 4
    assert Counter(e.kind for e in trace.entries) == case.kinds
    assert trace.fired_events == case.fired
    assert trace.terminated == "quiescent"
    assert conforms(trace, model.chronology)


@pytest.mark.parametrize("machines,steps", [(3, 5), (6, 40), (20, 75)])
@pytest.mark.parametrize("seed", [0, 7])
def test_flood_trace_oracle(machines, steps, seed):
    model, case, trace = run(workloads.flood(machines, steps, seed))
    assert Counter(e.kind for e in trace.entries) == case.kinds
    assert trace.fired_events == case.fired
    assert trace.terminated == "step_limit"


@pytest.mark.parametrize("make", [lambda s: workloads.relay(13, s),
                                  lambda s: workloads.flood(6, 20, s)])
def test_step_counts_and_live_tokens(make):
    inputs = make(3)
    model, case, trace = run(inputs)
    scenario = load_scenario(case.scenario)
    state, peak, entries = init_state(model, scenario), 0, []
    for _ in range(scenario.max_steps):
        state, new = step(model, state)
        entries.extend(new)
        peak = max(peak, len(state.tokens))
        if state.quiescent:
            break
    assert tuple(entries) == trace.entries
    assert state.step_no == case.steps
    assert peak == case.live_tokens_peak


@pytest.mark.parametrize("make", [lambda s: workloads.relay(13, s),
                                  lambda s: workloads.flood(6, 20, s),
                                  lambda s: workloads.corpus(ROOT / "src/tmkit/corpus", s)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_broken_variants_yield_exactly_the_placed_codes(make, seed):
    for name, (text, codes) in make(seed).broken.items():
        result = parse(text)
        assert Counter(d.code for d in result.diagnostics) == codes, name


def test_seed_varies_names_not_sizes():
    a, b = workloads.relay(20, 1), workloads.relay(20, 2)
    assert a.models["relay"] != b.models["relay"]
    assert len(a.models["relay"]) == len(b.models["relay"])
    assert a.sims[0].kinds == b.sims[0].kinds
    x, y = workloads.flood(seed=1), workloads.flood(seed=2)
    assert len(x.models["flood"]) == len(y.models["flood"])
    assert x.sims[0].steps == y.sims[0].steps


def test_corpus_goldens_match():
    inputs = workloads.corpus(ROOT / "src/tmkit/corpus", 0)
    assert len(inputs.sims) + len(inputs.golden_dots) == 20
    for case in inputs.sims:
        model = parse(inputs.models[case.model]).model
        assert format_trace(simulate(model, load_scenario(case.scenario))) == case.golden
