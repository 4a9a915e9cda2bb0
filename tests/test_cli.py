"""Exit codes, subcommand behavior, and output files of the tm tool."""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmkit
from tmkit import _cli_rare
from tmkit.cli import _read_command_line, run, corpus_list
from tmkit.dsl import parse, serialize
from tmkit.events import coverage
from tmkit.render import render_static
from tmkit.sim import format_trace, load_scenario, simulate

from helpers import (
    SPIN_MODEL,
    SPIN_SCENARIO,
    corpus_path,
    fresh_python,
    load_corpus_scenario,
)


@pytest.fixture()
def capsysbinary_text(capsys):
    return capsys


def test_validate_clean_model_is_silent_exit_zero(capsys):
    status = run(["validate", str(corpus_path("reservoir.tm"))])
    assert status == 0
    out, _err = capsys.readouterr()
    assert out == ""


def test_validate_all_corpus_files_silent(capsys):
    files = [str(corpus_path(f"{n}.tm")) for n in ("reservoir", "kant_ci", "murderer", "islamic")]
    assert run(["validate", *files]) == 0
    out, _err = capsys.readouterr()
    assert out == ""


def test_validate_missing_file_exit_two(capsys):
    assert run(["validate", "does_not_exist.tm"]) == 2


def test_validate_bad_model_prints_diagnostics_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("model bad\nthing x\nmachine m\nflow x m.process -> m.create\n")
    assert run(["validate", str(bad)]) == 1
    out, _err = capsys.readouterr()
    assert "E104" in out
    assert f"{bad}:4:" in out


def test_validate_lax_downgrades_cross_boundary(tmp_path, capsys):
    shortcut = tmp_path / "shortcut.tm"
    shortcut.write_text(
        "model s\nthing x\nmachine a\nmachine b\nflow x a.process -> b.receive\n"
    )
    assert run(["validate", str(shortcut)]) == 1
    capsys.readouterr()
    assert run(["validate", "--lax", str(shortcut)]) == 0
    out, _err = capsys.readouterr()
    assert "warning E103" in out


def test_unknown_subcommand_exit_two(capsys):
    assert run(["frobnicate"]) == 2


def test_lax_mode_admits_shortcut_models_end_to_end(tmp_path, capsys):
    shortcut = tmp_path / "s.tm"
    shortcut.write_text(
        "model s\n"
        "thing x\n"
        "machine a\n"
        "machine b\n"
        "flow x a.create -> a.release\n"
        "flow x a.release -> b.receive\n"
        "event go { flow x a.create -> a.release flow x a.release -> b.receive }\n"
    )
    scenario = tmp_path / "s.scn"
    scenario.write_text("max_steps 3\n")
    assert run(["sim", str(shortcut), "--scenario", str(scenario)]) == 1
    capsys.readouterr()
    out_trace = tmp_path / "s.trace"
    assert run(
        ["sim", "--lax", str(shortcut), "--scenario", str(scenario), "-o", str(out_trace)]
    ) == 0
    assert "b.receive" in out_trace.read_text()
    out_dot = tmp_path / "s.dot"
    assert run(["render", "--lax", str(shortcut), "-o", str(out_dot)]) == 0
    assert out_dot.read_text().startswith("digraph ")


def test_fmt_writes_canonical_form(tmp_path, capsys):
    source = tmp_path / "m.tm"
    source.write_text("model m\nflow x a.create -> a.release\nthing x\nmachine a\n")
    out_file = tmp_path / "out.tm"
    assert run(["fmt", str(source), "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.splitlines()[0] == "model m"
    assert text.index("thing x") < text.index("machine a")


def test_fmt_is_idempotent(tmp_path):
    source = tmp_path / "m.tm"
    source.write_text(corpus_path("reservoir.tm").read_text())
    assert run(["fmt", str(source), "-o", str(source)]) == 0
    first = source.read_text()
    assert run(["fmt", str(source), "-o", str(source)]) == 0
    assert source.read_text() == first


def test_fmt_to_stdout(capsys):
    assert run(["fmt", str(corpus_path("reservoir.tm"))]) == 0
    out, _err = capsys.readouterr()
    assert out.startswith("model reservoir\n")


def test_fmt_lax_formats_shortcut_models(tmp_path, capsys):
    shortcut = tmp_path / "s.tm"
    shortcut.write_text(
        "model s\nthing x\nmachine a\nmachine b\nflow x a.process -> b.receive\n"
    )
    assert run(["fmt", str(shortcut)]) == 1
    capsys.readouterr()
    assert run(["fmt", "--lax", str(shortcut)]) == 0
    out, _err = capsys.readouterr()
    assert out.startswith("model s\n")


def test_validate_reports_files_in_input_order(tmp_path, capsys):
    first = tmp_path / "one.tm"
    second = tmp_path / "two.tm"
    first.write_text("model one\nthing x\nthing x\n")
    second.write_text("model two\nthing y\nthing y\n")
    assert run(["validate", str(second), str(first)]) == 1
    out, _err = capsys.readouterr()
    lines = out.splitlines()
    assert "two.tm" in lines[0]
    assert "one.tm" in lines[1]


def test_sim_writes_trace_file(tmp_path):
    out = tmp_path / "out.trace"
    status = run(
        [
            "sim",
            str(corpus_path("islamic.tm")),
            "--scenario",
            str(corpus_path("islamic_gate_false.scn")),
            "-o",
            str(out),
        ]
    )
    assert status == 0
    text = out.read_text()
    assert text.endswith("terminated=step_limit\n")
    assert "e9_actualized" not in text


def test_sim_missing_choice_is_exit_three(tmp_path, capsys):
    empty_scenario = tmp_path / "none.scn"
    empty_scenario.write_text("max_steps 12\n")
    status = run(
        [
            "sim",
            str(corpus_path("kant_ci.tm")),
            "--scenario",
            str(empty_scenario),
        ]
    )
    assert status == 3
    _out, err = capsys.readouterr()
    assert "E401" in err


def test_sim_region_that_never_settles_is_exit_three(tmp_path, capsys):
    model = tmp_path / "spin.tm"
    model.write_text(SPIN_MODEL)
    scenario = tmp_path / "spin.scn"
    scenario.write_text(SPIN_SCENARIO)
    status = run(["sim", str(model), "--scenario", str(scenario)])
    assert status == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error E402 event 'spin' did not run to completion\n"


def test_sim_unknown_injected_thing_is_exit_three(tmp_path, capsys):
    scenario = tmp_path / "stranger.scn"
    scenario.write_text("inject y env.transfer @1\n")
    status = run(["sim", str(corpus_path("reservoir.tm")), "--scenario", str(scenario)])
    assert status == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: injection of unknown thing 'y'\n"


def test_sim_step_in_other_digits_is_exit_three(tmp_path, capsys):
    scenario = tmp_path / "signed.scn"
    scenario.write_text("inject water env.transfer @+1\nmax_steps 5\n")
    status = run(["sim", str(corpus_path("reservoir.tm")), "--scenario", str(scenario)])
    assert status == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {scenario}:1: injection step needs decimal digits: '@+1'\n"


def test_sim_unconsumed_choice_is_a_warning_on_stderr(tmp_path, capsys):
    scenario = tmp_path / "padded.scn"
    scenario.write_text(corpus_path("kant_agree.scn").read_text()
                        + "choose person.will.transfer env.transfer\n")
    model_file = corpus_path("kant_ci.tm")
    status = run(["sim", str(model_file), "--scenario", str(scenario)])
    assert status == 0
    out, err = capsys.readouterr()
    model = parse(model_file.read_text(), str(model_file)).model
    assert out == format_trace(simulate(model, load_scenario(scenario.read_text())))
    assert err == "warning: unconsumed choices for 'person.will.transfer': 1 of 2 left\n"


def test_sim_max_steps_override(tmp_path):
    out = tmp_path / "short.trace"
    status = run(
        [
            "sim",
            str(corpus_path("reservoir.tm")),
            "--scenario",
            str(corpus_path("reservoir.scn")),
            "--max-steps",
            "3",
            "-o",
            str(out),
        ]
    )
    assert status == 0
    steps = {
        int(line.split("\t", 1)[0])
        for line in out.read_text().splitlines()
        if "\t" in line
    }
    assert max(steps) <= 3


def test_render_views(tmp_path):
    for view in ("static", "events", "chronology"):
        out = tmp_path / f"{view}.dot"
        status = run(
            [
                "render",
                str(corpus_path("murderer.tm")),
                "--view",
                view,
                "-o",
                str(out),
            ]
        )
        assert status == 0
        assert out.read_text().startswith("digraph ")


def test_render_events_of_a_model_without_events_is_exit_two(tmp_path, capsys):
    model = tmp_path / "still.tm"
    model.write_text("model still\nthing x\nmachine a\nflow x a.create -> a.release\n")
    assert run(["render", str(model), "--view", "events"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: model has no events to render\n"


def test_coverage_text_block(capsys):
    assert run(["coverage", str(corpus_path("reservoir.tm"))]) == 0
    out, _err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("covered: ")
    assert lines[1].startswith("uncovered: ")
    assert lines[2] == "ratio: 1.0000"


def test_coverage_json_record(tmp_path):
    out = tmp_path / "cov.json"
    assert run(["coverage", str(corpus_path("kant_ci.tm")), "-o", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"covered", "uncovered", "ratio"}
    assert record["uncovered"]  # the copy-model trigger stays uncovered


def test_corpus_list_has_four_fixed_entries(capsys):
    entries = corpus_list()
    assert [e.name for e in entries] == ["reservoir", "kant_ci", "murderer", "islamic"]
    islamic = entries[3]
    assert len(islamic.scenarios) >= 2
    assert run(["corpus", "list"]) == 0
    out, _err = capsys.readouterr()
    assert out.splitlines()[0].startswith("reservoir:")


def test_corpus_copy(tmp_path):
    assert run(["corpus", "copy", "murderer", str(tmp_path)]) == 0
    assert (tmp_path / "murderer.tm").exists()
    assert (tmp_path / "murderer_truth.scn").exists()
    assert run(["corpus", "copy", "nonesuch", str(tmp_path)]) == 2
    assert run(["corpus", "copy", "murderer", str(tmp_path / "new" / "dir")]) == 0
    assert (tmp_path / "new" / "dir" / "murderer.tm").exists()


def test_corpus_models_parse_and_validate():
    for entry in corpus_list():
        assert run(["validate", str(entry.model_file)]) == 0


def test_python_dash_m_runs_the_tool():
    src = str(Path(tmkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "tmkit.cli", "corpus", "list"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = [line.split(":")[0] for line in proc.stdout.splitlines()]
    assert names == ["reservoir", "kant_ci", "murderer", "islamic"]


# fmt, sim, render and coverage share one load path: every one of them must
# report a missing file, an invalid model and a warnings-only model alike.

_LOADING_COMMANDS = ("fmt", "sim", "render", "coverage")

_EXPECTED_STDOUT = {
    "fmt": serialize,
    "sim": lambda model: format_trace(simulate(model, load_corpus_scenario("reservoir"))),
    "render": lambda model: render_static(model).text,
    "coverage": lambda model: coverage(model).text(),
}


def _loading_argv(command: str, model_file) -> list[str]:
    extra = ["--scenario", str(corpus_path("reservoir.scn"))] if command == "sim" else []
    return [command, str(model_file), *extra]


@pytest.mark.parametrize("command", _LOADING_COMMANDS)
def test_load_missing_model_exit_two(command, tmp_path, capsys):
    assert run(_loading_argv(command, tmp_path / "missing.tm")) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot read" in err


@pytest.mark.parametrize("command", _LOADING_COMMANDS)
def test_load_invalid_model_prints_diagnostics_exit_one(command, tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("model bad\nthing x\nmachine m\nflow x m.process -> m.create\n")
    assert run(["validate", str(bad)]) == 1
    expected, _ = capsys.readouterr()
    assert run(_loading_argv(command, bad)) == 1
    out, err = capsys.readouterr()
    assert out == expected
    assert out.startswith(f"error E104 {bad}:4:")
    assert err == ""


@pytest.mark.parametrize("command", _LOADING_COMMANDS)
def test_load_warnings_only_model_prints_only_the_output(command, tmp_path, capsys):
    noisy = tmp_path / "noisy.tm"
    noisy.write_text(corpus_path("reservoir.tm").read_text() + "machine lonely\n")
    assert run(["validate", str(noisy)]) == 0
    warnings, _ = capsys.readouterr()
    assert warnings.startswith("warning W202 ")
    model = parse(noisy.read_text(), str(noisy)).model
    assert run(_loading_argv(command, noisy)) == 0
    out, _err = capsys.readouterr()
    assert out == _EXPECTED_STDOUT[command](model)


@pytest.mark.parametrize("command", _LOADING_COMMANDS)
@pytest.mark.parametrize("target", ["missing/out", "existing_dir"])
def test_unwritable_output_is_exit_two(command, target, tmp_path, capsys):
    (tmp_path / "existing_dir").mkdir()
    output = tmp_path / target
    argv = [*_loading_argv(command, corpus_path("reservoir.tm")), "-o", str(output)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: cannot write {output}: " in err
    # no temporary file is left behind
    assert [p.name for p in tmp_path.iterdir()] == ["existing_dir"]
    assert list((tmp_path / "existing_dir").iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        lambda bad: ["validate", bad],
        lambda bad: ["fmt", bad],
        lambda bad: ["sim", str(corpus_path("reservoir.tm")), "--scenario", bad],
    ],
    ids=["validate", "fmt", "sim-scenario"],
)
def test_non_utf8_input_is_exit_two(argv, tmp_path, capsys):
    bad = tmp_path / "latin1.tm"
    bad.write_bytes(b"model m\nthing \xff\n")
    assert run(argv(str(bad))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ")


# Each command loads only the modules it runs. The child records what a
# fresh interpreter loads beyond its own start-up while running one command.

_LOADS_IN_CHILD = """
import sys
bare = set(sys.modules)
out, sys.argv = sys.argv[1], ["tm", *sys.argv[2:]]
import tmkit.cli
try:
    tmkit.cli.main()
except SystemExit as exc:
    status = exc.code
with open(out, "w") as handle:
    handle.write(repr((status, sorted(set(sys.modules) - bare))))
"""


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["validate", "reservoir.tm"], set()),
        (["fmt", "reservoir.tm"], set()),
        (["coverage", "reservoir.tm"], {"tmkit.events"}),
        (["render", "reservoir.tm"], {"tmkit.render"}),
        (["sim", "reservoir.tm", "--scenario", "reservoir.scn"], {"tmkit.sim"}),
        (["sim", "reservoir.tm", "--scenario", "reservoir.scn", "--max-steps", "3"],
         {"tmkit.sim"}),
    ],
    ids=["validate", "fmt", "coverage", "render", "sim", "sim-max-steps"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, runs, tmp_path):
    out = tmp_path / "loaded"
    argv = [str(corpus_path(a)) if a.endswith((".tm", ".scn")) else a for a in argv]
    proc = fresh_python("-c", _LOADS_IN_CHILD, str(out), *argv)
    assert proc.returncode == 0, proc.stderr
    status, loaded = ast.literal_eval(out.read_text())
    assert status == 0
    own = {name for name in loaded if name.split(".")[0] == "tmkit"}
    assert own == {"tmkit", "tmkit._frozen", "tmkit.cli", "tmkit.core", "tmkit.dsl"} | runs
    # json is for coverage -o, tempfile for -o and shutil for corpus copy;
    # dataclasses (which imports inspect) only for dataclasses.fields and
    # replace; argparse (with gettext and locale) only for a line that the
    # strict reader leaves to it
    assert not set(loaded) & {"json", "tempfile", "shutil", "dataclasses", "inspect",
                              "argparse", "gettext", "locale"}


# A well-formed model command line is read without argparse. The strict
# reader must read a line exactly as argparse does, or leave it to argparse.


def _argparse_reading(argv: list[str]) -> dict | int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return _cli_rare.parse_args(argv)


def _check_reading(argv: list[str]) -> dict | None:
    strict = _read_command_line(argv)
    assert strict is None or strict == _argparse_reading(argv), argv
    return strict


_READ_STRICTLY = [
    ["validate", "a.tm"],
    ["validate", "--lax", "a.tm", "b.tm"],
    ["validate", "a.tm", "b.tm", "--lax", "--lax"],
    ["fmt", "-o", "out", "--lax", "a.tm"],
    ["fmt", "a.tm", "-o", "x", "-o", "y"],
    ["fmt", ""],
    ["fmt", "a.tm", "-o", ""],
    ["sim", "f", "--scenario", "s"],
    ["sim", "--max-steps", "+7", "f", "--scenario", "s", "-o", "t"],
    ["sim", "f", "--scenario", "s", "--max-steps", " 4", "--scenario", "t"],
    ["render", "f"],
    ["render", "f", "--view", "events", "--view", "chronology", "--lax"],
    ["coverage", "a", "-o", "c.json"],
]

_LEFT_TO_ARGPARSE = [
    [], ["-h"], ["--help"], ["bogus"], ["corpus", "list"], ["corpus", "copy", "all", "d"],
    ["validate"], ["validate", "-h"], ["validate", "a.tm", "--lax", "b.tm"],
    ["validate", "a.tm", "-o", "x"], ["fmt", "a", "b"], ["fmt", "a", "-o"],
    ["fmt", "a", "-oout"], ["fmt", "-", "--lax"], ["fmt", "-3"], ["fmt", "a", "--la"],
    ["sim", "f"], ["sim", "f", "--max-steps", "-3", "--scenario", "s"],
    ["sim", "f", "--scen", "s"], ["sim", "f", "--scenario=s"],
    ["sim", "f", "--scenario", "s", "--max-steps", "x"],
    ["sim", "f", "--scenario", "-s"], ["render", "f", "--view=events"],
    ["render", "f", "--view", "bad"], ["render", "f", "--view"],
    ["coverage", "a", "--", "b"], ["coverage", "--", "a"], ["--lax", "validate", "a"],
]


@pytest.mark.parametrize("argv", _READ_STRICTLY, ids=" ".join)
def test_the_strict_reader_reads_a_well_formed_line_as_argparse_does(argv):
    assert _check_reading(argv) is not None


@pytest.mark.parametrize("argv", _LEFT_TO_ARGPARSE, ids=" ".join)
def test_the_strict_reader_leaves_every_other_line_to_argparse(argv):
    assert _check_reading(argv) is None


_WORDS = st.sampled_from([
    "validate", "fmt", "sim", "render", "coverage", "corpus", "list", "--lax", "-o",
    "--scenario", "--max-steps", "--view", "-h", "--help", "static", "events",
    "chronology", "bad", "3", "-3", "0", "+2", " 4", "x", "-", "--", "", "a.tm",
    "b.tm", "s.scn", "--view=events", "--scen", "-oout", "--la",
])
_COMMAND = st.sampled_from(["validate", "fmt", "sim", "render", "coverage"])
# Lines built mostly well formed: file names, and each of the command's
# options with a value of the kind it takes.
_VALUES = {"-o": ["out", ""], "--scenario": ["s.scn"], "--max-steps": ["3", "0", "x", "-3"],
           "--view": ["static", "events", "chronology", "bad"], "--lax": []}
_COMMAND_OPTIONS = {"validate": ["--lax"], "fmt": ["-o", "--lax"],
                    "sim": ["--scenario", "-o", "--max-steps", "--lax"],
                    "render": ["--view", "-o", "--lax"], "coverage": ["-o", "--lax"]}


def _option_phrase(option: str):
    if not _VALUES[option]:
        return st.just([option])
    return st.sampled_from(_VALUES[option]).map(lambda value: [option, value])


def _mostly_well_formed(command: str):
    phrase = st.one_of(st.sampled_from([["a.tm"], ["b.tm"], [""]]),
                       st.sampled_from(_COMMAND_OPTIONS[command]).flatmap(_option_phrase))
    return st.lists(phrase, max_size=5).map(lambda ps: [command, *(w for p in ps for w in p)])


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_WORDS, max_size=8),
    st.tuples(_COMMAND, st.lists(_WORDS, max_size=8)).map(lambda c: [c[0], *c[1]]),
    _COMMAND.flatmap(_mostly_well_formed),
))
def test_the_strict_reader_agrees_with_argparse_on_drawn_lines(argv):
    _check_reading(argv)


# Help, usage errors and the other forms go to argparse, and print what
# they printed when every line went there. COLUMNS fixes argparse's width.

_FALLBACK_OUTPUT = {
    ("-h",): (0, (
        "usage: tm [-h] {validate,fmt,sim,render,coverage,corpus} ...\n\n"
        "Thinging Machine modeling toolchain\n\n"
        "positional arguments:\n"
        "  {validate,fmt,sim,render,coverage,corpus}\n"
        "    validate            check model files\n"
        "    fmt                 canonical serialization\n"
        "    sim                 simulate a model under a scenario\n"
        "    render              emit a DOT diagram\n"
        "    coverage            event coverage of the static model\n"
        "    corpus              bundled example models\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ), ""),
    ("validate", "-h"): (0, (
        "usage: tm validate [-h] [--lax] files [files ...]\n\n"
        "positional arguments:\n"
        "  files\n\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --lax       downgrade cross-boundary flows to warnings\n"
    ), ""),
    ("bogus",): (2, "", (
        "usage: tm [-h] {validate,fmt,sim,render,coverage,corpus} ...\n"
        "tm: error: argument command: invalid choice: 'bogus' (choose from 'validate', "
        "'fmt', 'sim', 'render', 'coverage', 'corpus')\n"
    )),
    ("render", "f", "--view", "bad"): (2, "", (
        "usage: tm render [-h] [--view {static,events,chronology}] [-o OUTPUT] [--lax]\n"
        "                 file\n"
        "tm render: error: argument --view: invalid choice: 'bad' (choose from 'static', "
        "'events', 'chronology')\n"
    )),
    ("validate", "a.tm", "--lax", "b.tm"): (2, "", (
        "usage: tm [-h] {validate,fmt,sim,render,coverage,corpus} ...\n"
        "tm: error: unrecognized arguments: b.tm\n"
    )),
}


@pytest.mark.parametrize("argv", list(_FALLBACK_OUTPUT), ids=" ".join)
def test_a_line_left_to_argparse_prints_what_it_did(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    status, out, err = _FALLBACK_OUTPUT[argv]
    assert run(list(argv)) == status
    assert capsys.readouterr() == (out, err)
