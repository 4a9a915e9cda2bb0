"""Metamorphic relations: how the outputs of two related inputs must relate.

A relation needs no second implementation of what it checks. Renaming: give
every user name of a model and its scenario a new name, in the names' sort
order or in reverse, simulate, and map the trace back; it must equal the
original run's trace, warnings and errors byte for byte. Time shift: when
a model makes no entry without its scenario's injections, moving every
injection and ``max_steps`` 1000 steps later moves every entry and timing
1000 steps later and changes nothing else. Round trip: the model that
``serialize`` then ``parse`` give runs as the model does. Restated
chronology: the same precedence, its edges shuffled and each missing edge
``a -> c`` that ``a -> b`` and ``b -> c`` imply appended, runs as the model
does. Disjoint union: two runs' models, their names prefixed ``A_`` and
``B_``, joined into one model with one chronology and their scenarios into
one; the union's entries that name an ``A_`` element, with token ids
renumbered by first appearance, are A's run alone.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

import tmkit.sim
from tmkit.cli import corpus_list
from tmkit.core import Chronology
from tmkit.dsl import parse, serialize
from tmkit.sim import (
    EventTiming,
    SimulationError,
    Trace,
    format_trace,
    load_scenario,
    simulate,
)

from helpers import prefixed, renamed, renaming, sparse_case

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


SHIFT = 1000


def _outcome(model, scenario):
    """A run's trace, or its simulation error's text."""
    try:
        return simulate(model, scenario)
    except SimulationError as exc:
        return f"error: {exc}"


def _idle_alone(model, scenario) -> bool:
    """Whether the model makes no entry in step 1 without the scenario's
    injections; an idle step changes nothing, so every later one is idle too."""
    outcome = _outcome(model, replace(scenario, injections=(), max_steps=1))
    return isinstance(outcome, Trace) and not outcome.entries


def _shifted_back(model, scenario):
    """The outcome of the run with every injection and ``max_steps`` SHIFT
    steps later, with its entries' steps and timings moved SHIFT back."""
    later = tuple(replace(i, step=i.step + SHIFT) for i in scenario.injections)
    trace = _outcome(model, replace(scenario, injections=later,
                                    max_steps=scenario.max_steps + SHIFT))
    if not isinstance(trace, Trace):
        return trace
    timings = {name: EventTiming(t.received_at - SHIFT,
                                 None if t.released_at is None else t.released_at - SHIFT)
               for name, t in trace.timings.items()}
    entries = tuple(e._replace(step=e.step - SHIFT) for e in trace.entries)
    return replace(trace, entries=entries, timings=timings)


def test_a_run_shifted_later_is_the_run_shifted(monkeypatch):
    # seed 20 raises E402 on both sides; fewer passes keep it quick
    monkeypatch.setattr(tmkit.sim, "_MAX_PASSES", 50)
    cases = [(parse(m.read_text()).model, load_scenario(s.read_text())) for m, s in CORPUS_RUNS]
    cases += [(model, load_scenario(text)) for model, text in map(sparse_case, range(300))]
    checked = 0
    for i, (model, scenario) in enumerate(cases):
        # every corpus model fires an event in step 1 with no injection, so
        # only sparse seeds qualify
        if scenario.injections and _idle_alone(model, scenario):
            assert _shifted_back(model, scenario) == _outcome(model, scenario), i
            checked += 1
    assert checked == 90


def _cases():
    """The 8 corpus runs, then ``sparse_case`` seeds 0-299, as (model, scenario)."""
    cases = [(parse(m.read_text()).model, load_scenario(s.read_text())) for m, s in CORPUS_RUNS]
    return cases + [(model, load_scenario(text)) for model, text in map(sparse_case, range(300))]


def test_a_serialized_and_reparsed_model_runs_as_the_model(monkeypatch):
    # seed 20 raises E402 on both sides; fewer passes keep it quick
    monkeypatch.setattr(tmkit.sim, "_MAX_PASSES", 50)
    for i, (model, scenario) in enumerate(_cases()):
        again = parse(serialize(model)).model
        assert again is not None, i
        assert _outcome(again, scenario) == _outcome(model, scenario), i


def _restated(chronology: Chronology, rng: random.Random) -> Chronology:
    """The chronology with its edges shuffled, then each edge ``a -> c`` that
    two of them imply and none states appended: the same precedence."""
    edges = list(chronology.edges)
    rng.shuffle(edges)
    implied = {(a, d) for a, b in edges for c, d in edges if b == c}
    edges += sorted(implied - set(edges))
    return replace(chronology, edges=tuple(edges))


def test_a_restated_chronology_runs_as_the_chronology(monkeypatch):
    monkeypatch.setattr(tmkit.sim, "_MAX_PASSES", 50)
    checked = 0
    for i, (model, scenario) in enumerate(_cases()):
        if model.chronology is None or not model.chronology.edges:
            continue
        restated = replace(model, chronology=_restated(model.chronology, random.Random(i)))
        assert _outcome(restated, scenario) == _outcome(model, scenario), i
        checked += 1
    assert checked == 78


def _union_parts(run, prefix: str) -> tuple[str, str, str]:
    """A corpus run's serialized model body after its header and before its
    chronology, its chronology's edge lines, and its scenario without its
    ``max_steps`` line, each word prefixed."""
    model_text, scenario_text = (prefixed(path.read_text(), prefix) for path in run)
    body = serialize(parse(model_text).model).split("\n", 1)[1]
    body, _, edges = body.partition("chronology {\n")
    lines = [line for line in scenario_text.splitlines() if not line.startswith("max_steps")]
    return body, edges.rpartition("}")[0], "\n".join(lines) + "\n"


def _model_text(body: str, edges: str) -> str:
    return f"model union\n{body}" + (f"chronology {{\n{edges}}}\n" if edges else "")


_TOKEN = re.compile(r"\btok\d+\b")
_A_NAME = re.compile(r"\bA_")


def _renumbered(entries) -> list[tuple]:
    """The entries with token ids renumbered by first appearance."""
    ids: dict[str, str] = {}

    def number(match: re.Match) -> str:
        return ids.setdefault(match[0], f"tok{len(ids) + 1}")

    return [(e.step, e.kind, _TOKEN.sub(number, e.subject), _TOKEN.sub(number, e.detail))
            for e in entries]


def test_a_disjoint_union_of_runs_projects_to_each_run():
    # A comes first, so its edge ids are unchanged. env.transfer is one stage
    # for every thing, so a pair where one thing flows into it and another
    # out of it does not build (E105): 11 of the 64.
    parts = [(_union_parts(run, "A_"), _union_parts(run, "B_")) for run in CORPUS_RUNS]
    checked = 0
    for i, ((a_body, a_edges, a_scenario), _) in enumerate(parts):
        alone = simulate(parse(_model_text(a_body, a_edges)).model,
                         load_scenario(a_scenario + "max_steps 40\n"))
        for j, (_, (b_body, b_edges, b_scenario)) in enumerate(parts):
            union = parse(_model_text(a_body + b_body, a_edges + b_edges))
            if union.model is None:
                assert {d.code for d in union.diagnostics if d.is_error} == {"E105"}
                continue
            scenario = load_scenario(a_scenario + b_scenario + "max_steps 40\n")
            trace = simulate(union.model, scenario)
            projected = [e for e in trace.entries
                         if _A_NAME.search(e.subject) or _A_NAME.search(e.detail)]
            assert _renumbered(projected) == _renumbered(alone.entries), (i, j)
            checked += 1
    assert checked == 53
