"""Metamorphic relations: how the outputs of two related inputs must relate.

A relation needs no second implementation of what it checks. Renaming: give
every user name of a model and its scenario a new name, in the names' sort
order or in reverse, simulate, and map the trace back; it must equal the
original run's trace, warnings and errors byte for byte.
"""

from __future__ import annotations

import pytest

import tmkit.sim
from tmkit.cli import corpus_list
from tmkit.dsl import parse, serialize
from tmkit.sim import SimulationError, format_trace, load_scenario, simulate

from helpers import renamed, renaming, sparse_case

CORPUS_RUNS = [(entry.model_file, path) for entry in corpus_list() for path in entry.scenarios]


def _run(model_text: str, scenario_text: str) -> str:
    """A run's trace text and warnings, or its simulation error."""
    result = parse(model_text)
    assert result.model is not None, result.diagnostics[:3]
    try:
        trace = simulate(result.model, load_scenario(scenario_text))
    except SimulationError as exc:
        return f"error: {exc}\n"
    return format_trace(trace) + "".join(f"warning: {w}\n" for w in trace.warnings)


def _renamed_run(model_text: str, scenario_text: str, reverse: bool) -> str:
    names = renaming((model_text, scenario_text), reverse)
    new_model, new_scenario = (renamed(t, names) for t in (model_text, scenario_text))
    assert new_model != model_text
    back = {new: old for old, new in names.items()}
    return renamed(_run(new_model, new_scenario), back)


@pytest.mark.parametrize("reverse", [False, True], ids=["sorted", "reversed"])
@pytest.mark.parametrize("run", CORPUS_RUNS, ids=[s.stem for _, s in CORPUS_RUNS])
def test_a_renamed_corpus_run_maps_back_to_the_run(run, reverse):
    model_text, scenario_text = (path.read_text() for path in run)
    assert _renamed_run(model_text, scenario_text, reverse) == _run(model_text, scenario_text)


@pytest.mark.parametrize("reverse", [False, True], ids=["sorted", "reversed"])
def test_a_renamed_sparse_run_maps_back_to_the_run(monkeypatch, reverse):
    # both sides raise E402 after the same number of passes; fewer keep it quick
    monkeypatch.setattr(tmkit.sim, "_MAX_PASSES", 50)
    for seed in range(300):
        model, scenario_text = sparse_case(seed)
        model_text = serialize(model)
        expected = _run(model_text, scenario_text)
        assert _renamed_run(model_text, scenario_text, reverse) == expected, seed
