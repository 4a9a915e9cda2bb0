"""Guards for the tools that drive tmkit from outside the package."""

from __future__ import annotations

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tmkit.cli
import tmkit.core
import tmkit.dsl
import tmkit.events
import tmkit.render
import tmkit.sim

from helpers import (
    CORPUS_NAMES,
    bench_workloads,
    corpus_path,
    load_corpus_model,
    load_corpus_scenario,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
GC_SCHEDULE = Path(__file__).resolve().parents[1] / "scripts" / "gc_schedule.py"
STAGE_PAIRS = Path(__file__).resolve().parents[1] / "scripts" / "stage_pairs.py"
CLI_PAIRS = Path(__file__).resolve().parents[1] / "scripts" / "cli_pairs.py"


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


def test_each_cached_table_of_the_model_is_read_by_core_or_two_other_modules():
    # core.py is compiled by every tm command: a table of core.Model or of
    # core.Chronology that one other module alone reads, such as the
    # simulator's, lives in that module.
    package = Path(tmkit.core.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    classes = [node for node in trees["core.py"].body
               if isinstance(node, ast.ClassDef) and node.name in ("Model", "Chronology")]
    tables = [node.name for cls in classes for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and any(ast.unparse(d) == "cached_property" for d in node.decorator_list)]
    readers = {
        name: {file for file, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == name
               and isinstance(node.ctx, ast.Load)}
        for name in tables
    }
    lone = [name for name, files in readers.items() if "core.py" not in files and len(files) < 2]
    assert {"stages", "order"} <= set(tables)
    assert lone == []


def test_simulate_validates_and_initialises_once(monkeypatch):
    # The traced benchmark reads sim.init_state and core.validate spans
    # from these two names; one run must pass through each exactly once,
    # and build one engine, which init_state hands to the run.
    calls = {"init_state": 0, "validate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tmkit.sim, name, counting(name, getattr(tmkit.sim, name)))
    calls["engine"] = 0
    monkeypatch.setattr(tmkit.sim._Engine, "__init__",
                        counting("engine", tmkit.sim._Engine.__init__))
    model = load_corpus_model("reservoir")
    trace = tmkit.sim.simulate(model, load_corpus_scenario("reservoir"))
    assert trace.entries
    assert calls == {"init_state": 1, "validate": 1, "engine": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["sim", "reservoir.tm", "--scenario", "reservoir.scn"],
        ["render", "murderer.tm", "--view", "static"],
        ["render", "murderer.tm", "--view", "events"],
    ],
    ids=["sim", "render-static", "render-events"],
)
def test_each_command_runs_the_validation_body_once(monkeypatch, capsys, argv):
    calls = []
    diagnose = tmkit.core._diagnose
    monkeypatch.setattr(
        tmkit.core, "_diagnose", lambda *a, **k: calls.append(a) or diagnose(*a, **k)
    )
    argv = [str(corpus_path(a)) if a.endswith((".tm", ".scn")) else a for a in argv]
    assert tmkit.cli.run(argv) == 0
    assert capsys.readouterr().out
    assert len(calls) == 1


def test_parse_does_not_reparse_stage_references(monkeypatch):
    calls = []
    parse_ref = tmkit.core.parse_stage_ref
    monkeypatch.setattr(
        tmkit.core, "parse_stage_ref", lambda text: calls.append(text) or parse_ref(text)
    )
    for name in CORPUS_NAMES:
        assert load_corpus_model(name).flows
    assert calls == []


def test_load_scenario_parses_each_injection_reference_once(monkeypatch):
    # flood injects at env.transfer on each of its 300 steps.
    calls = []
    parse_ref = tmkit.sim.parse_stage_ref
    monkeypatch.setattr(
        tmkit.sim, "parse_stage_ref", lambda text: calls.append(text) or parse_ref(text)
    )
    scenario = tmkit.sim.load_scenario(bench_workloads().flood().sims[0].scenario)
    assert len(scenario.injections) == 300
    assert calls == ["env.transfer"]


# The command each name that the traced benchmark rebinds on tmkit.cli serves.
_TRACED_COMMANDS = {
    "parse": ["validate", "reservoir.tm"],
    "serialize": ["fmt", "reservoir.tm"],
    "coverage": ["coverage", "reservoir.tm"],
    "render_static": ["render", "murderer.tm", "--view", "static"],
    "render_events": ["render", "murderer.tm", "--view", "events"],
    "render_chronology": ["render", "murderer.tm", "--view", "chronology"],
    "format_trace": ["sim", "reservoir.tm", "--scenario", "reservoir.scn"],
    "load_scenario": ["sim", "reservoir.tm", "--scenario", "reservoir.scn"],
    "simulate": ["sim", "reservoir.tm", "--scenario", "reservoir.scn"],
}


def test_the_traced_cli_names_are_the_ones_checked_below(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    names = {attr for _, attr, _ in tracing.cli_targets(tmkit.cli)}
    assert names == {"run"} | set(_TRACED_COMMANDS)


@pytest.mark.parametrize("name", list(_TRACED_COMMANDS))
def test_run_calls_a_rebound_cli_name(monkeypatch, capsys, name):
    # run must call whatever is bound on tmkit.cli when it runs, even for a
    # name whose module the command has not imported yet.
    calls = []
    original = getattr(tmkit.cli, name)
    monkeypatch.setattr(
        tmkit.cli, name, lambda *a, **k: calls.append(name) or original(*a, **k)
    )
    argv = [str(corpus_path(a)) if a.endswith((".tm", ".scn")) else a
            for a in _TRACED_COMMANDS[name]]
    assert tmkit.cli.run(argv) == 0
    assert calls == [name]


def test_gc_schedule_finds_every_timed_phase():
    # The script reads perfbench's timed phases from run.py's source lines;
    # it must still find them, and force a repetition onto both schedules,
    # on relay and on flood.
    for workload in ("relay", "flood"):
        proc = subprocess.run([sys.executable, str(GC_SCHEDULE), "--seeds", "3",
                               "--workload", workload],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        blocks = re.findall(rf"{workload} seed 3, (short|long) schedule, repetition 1: "
                            r"(\d+) collections", proc.stdout)
        assert [name for name, _ in blocks] == ["short", "long"]
        if workload == "relay":  # the long schedule parses relay's broken texts too
            assert int(blocks[0][1]) < int(blocks[1][1])
        for phase in ("check_s", "reject_s", "emit_s", "sim_s", "step_s", "untimed"):
            assert proc.stdout.count(f"  {phase} ") == 2, (workload, phase)
        # Each schedule reports how many collections it has left before a
        # second full collection could land inside the repetition.
        margins = [int(n) for n in re.findall(r"  margin: (\d+) collections", proc.stdout)]
        assert len(margins) == 2 and min(margins) > 0, (workload, margins)


def test_stage_pairs_times_every_front_end_stage():
    # Both sides load the same source, under two package names in one process.
    src = str(Path(tmkit.core.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(STAGE_PAIRS), src, src, "--n", "20",
                           "--calls", "5"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^(\S+) +([\d.]+) +([\d.]+) +([\d.]+) +(\d+)/(\d+) +([\d.]+)$",
                      proc.stdout, re.M)
    assert [row[0] for row in rows] == ["_scan", "parser", "build_model", "validate", "parse",
                                        "serialize", "render_static", "render_events",
                                        "render_chronology", "emit", "tables", "simulate",
                                        "step_loop", "simulate", "format_trace", "step_loop"]
    assert all(float(x) > 0 for row in rows for x in row[1:4])
    # beside the medians: the calls the change won, and the parent's IQR/median
    assert all(int(row[4]) <= int(row[5]) == 5 and float(row[6]) >= 0 for row in rows)
    # each side's token and folded-declaration counts, on a line of their own
    counts = re.findall(r"^relay n=20 _scan: parent (\d+) tokens, (\d+) folded; "
                        r"change (\d+) tokens, (\d+) folded$", proc.stdout, re.M)
    assert len(counts) == 1 and counts[0][:2] == counts[0][2:], proc.stdout
    assert 0 < int(counts[0][1]) < int(counts[0][0])
    # and their sums over the 4 corpus models, on the next line
    corpus = re.findall(r"^corpus 4 models _scan: parent (\d+) tokens, (\d+) folded; "
                        r"change (\d+) tokens, (\d+) folded$", proc.stdout, re.M)
    assert len(corpus) == 1 and corpus[0][:2] == corpus[0][2:], proc.stdout
    assert 0 < int(corpus[0][1]) < int(corpus[0][0])


def _cli_pairs_rows(*options: str) -> tuple[str, list[tuple]]:
    """The output and rows of ``cli_pairs.py`` run with the same source on both sides."""
    src = str(Path(tmkit.core.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(CLI_PAIRS), src, src, "--rounds", "1",
                           "--models", "murderer", *options],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^(.+?) +([\d.]+) +([\d.]+) +([\d.]+) +([\d.]+) +([\d.]+) +(\d+)/(\d+)$",
                      proc.stdout, re.M)
    assert [row[0] for row in rows] == [
        "validate murderer.tm", "fmt murderer.tm", "render murderer.tm --view static",
        "render murderer.tm --view events", "render murderer.tm --view chronology",
        "coverage murderer.tm", "sim murderer.tm --scenario murderer_truth.scn",
        "sim murderer.tm --scenario murderer_lie.scn", "all",
    ]
    # each side's median wall time comes with the time inside the child
    for row in rows:
        parent, parent_inside, change, change_inside = (float(x) for x in row[1:5])
        assert 0 < parent_inside < parent and 0 < change_inside < change, row
    assert [int(row[7]) for row in rows] == [1] * 8 + [8]
    return proc.stdout, rows


def test_cli_pairs_times_every_corpus_command():
    # Both sides run the same source, each command in a fresh interpreter.
    out, _rows = _cli_pairs_rows()
    assert "inherited bytecode settings" in out


def test_cli_pairs_can_time_with_a_warm_bytecode_cache():
    out, _rows = _cli_pairs_rows("--warm-cache")
    assert "warm bytecode cache, one per side" in out
