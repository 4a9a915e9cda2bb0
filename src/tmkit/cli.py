"""The ``tm`` command line tool.

Subcommands: validate, fmt, sim, render, coverage, corpus. Exit codes:
0 success, 1 validation errors found, 2 usage or IO error, 3 simulation
error. Diagnostics print one per line as ``SEVERITY CODE file:line:col
message``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from ._frozen import replace
from .core import Model
from .dsl import parse, serialize

__all__ = ["main", "run", "corpus_list", "CorpusEntry", "corpus_dir"]

# Names imported on their first access as an attribute of this module
# (PEP 562) and kept there, by home module, so a command loads only the
# modules it runs. ``run`` calls the library names as bound here at the
# time, as a tracer that rebinds them expects. ``_cli_rare`` holds what no
# well-formed model command runs: the ``corpus`` command, argparse and the
# atomic write behind ``-o``.
_LAZY = {
    "coverage": "events",
    "render_static": "render",
    "render_events": "render",
    "render_chronology": "render",
    "ScenarioError": "sim",
    "SimulationError": "sim",
    "format_trace": "sim",
    "load_scenario": "sim",
    "simulate": "sim",
    "CorpusEntry": "_cli_rare",
    "corpus_dir": "_cli_rare",
    "corpus_list": "_cli_rare",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__package__}.{home}"), name)
    return value

OK = 0
VALIDATION_ERRORS = 1
USAGE_OR_IO = 2
SIMULATION_ERROR = 3

# The grammar of the model commands, declared once: per command its help,
# its positional (``files`` takes one or more words, ``file`` one) and its
# options in help order, each with its help text. ``_OPTIONS`` gives an
# option's destination, default and the other argparse keywords.
_OPTIONS = {
    "--scenario": ("scenario", None, {"required": True}),
    "--view": ("view", "static", {"choices": ("static", "events", "chronology")}),
    "-o": ("output", None, {}),
    "--max-steps": ("max_steps", None, {"type": int}),
    "--lax": ("lax", False, {"action": "store_true"}),
}
_COMMANDS = {
    "validate": ("check model files", "files",
                 {"--lax": "downgrade cross-boundary flows to warnings"}),
    "fmt": ("canonical serialization", "file", {"-o": None, "--lax": None}),
    "sim": ("simulate a model under a scenario", "file",
            {"--scenario": None, "-o": None,
             "--max-steps": "override the scenario step limit", "--lax": None}),
    "render": ("emit a DOT diagram", "file", {"--view": None, "-o": None, "--lax": None}),
    "coverage": ("event coverage of the static model", "file",
                 {"-o": "write a machine-readable JSON record", "--lax": None}),
}


def _read_command_line(argv: list[str]) -> dict | None:
    """The attributes argparse gives a well-formed model command line, or None.

    A line is read here only where argparse reads it the same way: the
    positionals are contiguous, each option name is exact, each option value
    is the next word and does not start with ``-``, a value passes its
    option's ``type`` and ``choices``, and each required option is given.
    Anything else (help, ``corpus``, ``--opt=value``, abbreviations, ``-oFILE``,
    ``--``, every usage error) is left to argparse.
    """
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _help, positional, options = spec
    args = {"command": argv[0]}
    args.update(_OPTIONS[name][:2] for name in options)
    words: list[str] = []
    words_end = 0  # the index after the last positional
    i = 1
    while i < len(argv):
        word = argv[i]
        i += 1
        if not word.startswith("-"):
            if words and words_end != i - 1:
                return None
            words.append(word)
            words_end = i
            continue
        if word not in options:
            return None
        dest, _default, keywords = _OPTIONS[word]
        if "action" in keywords:  # store_true
            args[dest] = True
            continue
        if i == len(argv) or argv[i].startswith("-"):
            return None
        value = argv[i]
        i += 1
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        args[dest] = value
    for name in options:
        if _OPTIONS[name][2].get("required") and args[_OPTIONS[name][0]] is None:
            return None
    if positional == "files" and words:
        args[positional] = words
    elif positional == "file" and len(words) == 1:
        args[positional] = words[0]
    else:
        return None
    return args


def _read_file(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = str(exc)
    print(f"error: cannot read {path}: {reason}", file=sys.stderr)
    return None


def _load_or_report(path: str, lax: bool, quiet: bool = True) -> Model | int:
    """The validated model, or the exit status after reporting why not. The
    diagnostics, each located by its source span, print if there is an error
    or if not ``quiet``."""
    text = _read_file(path)
    if text is None:
        return USAGE_OR_IO
    result = parse(text, path, lax=lax)
    if result.model is None or not quiet:
        for diag in result.diagnostics:
            print(f"{diag.severity} {diag.code} {diag.location} {diag.message}")
    return VALIDATION_ERRORS if result.model is None else result.model


def _emit(text: str, output: str | None) -> int:
    """Write ``text`` to stdout or to the file ``output``; the exit status."""
    if output is None:
        sys.stdout.write(text)
        return OK
    try:
        from ._cli_rare import atomic_write

        atomic_write(output, text)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_OR_IO
    return OK


def run(argv: list[str] | None = None) -> int:
    """Dispatch a command line. Returns the exit status."""
    lib = sys.modules[__name__]  # the lazy library names, as bound now
    if argv is None:
        argv = sys.argv[1:]
    args = _read_command_line(argv)
    if args is None:  # help, corpus, another form argparse reads, or a usage error
        from . import _cli_rare

        args = _cli_rare.parse_args(argv)
        if isinstance(args, int):
            return args
        if args["command"] == "corpus":
            return _cli_rare.run_corpus(args)
    command = args["command"]

    if command == "validate":
        worst = OK
        for path in args["files"]:
            model = _load_or_report(path, args["lax"], quiet=False)
            if isinstance(model, int):
                if model == USAGE_OR_IO:
                    return model
                worst = VALIDATION_ERRORS
        return worst

    model = _load_or_report(args["file"], args["lax"])
    if isinstance(model, int):
        return model

    if command == "fmt":
        return _emit(serialize(model), args["output"])

    if command == "sim":
        scenario_text = _read_file(args["scenario"])
        if scenario_text is None:
            return USAGE_OR_IO
        try:
            scenario = lib.load_scenario(scenario_text, args["scenario"])
            if args["max_steps"] is not None:
                scenario = replace(scenario, max_steps=args["max_steps"])
            trace = lib.simulate(model, scenario, lax=args["lax"])
        except lib.ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return SIMULATION_ERROR
        except lib.SimulationError as exc:
            print(f"error {exc.diagnostic.code} {exc.diagnostic.message}",
                  file=sys.stderr)
            return SIMULATION_ERROR
        for warning in trace.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return _emit(lib.format_trace(trace), args["output"])

    if command == "render":
        try:
            if args["view"] == "static":
                doc = lib.render_static(model, lax=args["lax"])
            elif args["view"] == "events":
                doc = lib.render_events(model, lax=args["lax"])
            else:
                doc = lib.render_chronology(model)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_OR_IO
        return _emit(doc.text, args["output"])

    report = lib.coverage(model)  # the one command left
    if args["output"] is None:
        return _emit(report.text(), None)
    import json

    return _emit(json.dumps(report.as_dict(), indent=2) + "\n", args["output"])


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
