"""The ``tm`` command line tool.

Subcommands: validate, fmt, sim, render, coverage, corpus. Exit codes:
0 success, 1 validation errors found, 2 usage or IO error, 3 simulation
error. Diagnostics print one per line as ``SEVERITY CODE file:line:col
message``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

from ._frozen import frozen, replace
from .core import Model
from .dsl import parse, serialize

__all__ = ["main", "run", "corpus_list", "CorpusEntry", "corpus_dir"]

# The library names ``run`` needs beyond parsing, by home module. Each is
# imported on its first access as an attribute of this module (PEP 562) and
# kept there, so a command loads only the modules it runs, and ``run`` calls
# whatever is bound here at the time, as a tracer that rebinds it expects.
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


@frozen
class CorpusEntry:
    """One bundled worked model with its scenarios and golden outputs."""

    name: str
    model_file: Path
    scenarios: tuple[Path, ...]
    golden_traces: dict[str, Path]
    golden_dots: dict[str, Path]


def corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


_CORPUS_SCENARIOS = {
    "reservoir": ("reservoir",),
    "kant_ci": ("kant_agree", "kant_disagree"),
    "murderer": ("murderer_truth", "murderer_lie"),
    "islamic": ("islamic_gate_true", "islamic_gate_false", "islamic_abstain"),
}


def corpus_list() -> list[CorpusEntry]:
    """The four bundled models, in fixed order."""
    base = corpus_dir()
    golden = base / "golden"
    entries = []
    for name in ("reservoir", "kant_ci", "murderer", "islamic"):
        scenario_names = _CORPUS_SCENARIOS[name]
        entries.append(
            CorpusEntry(
                name=name,
                model_file=base / f"{name}.tm",
                scenarios=tuple(base / f"{s}.scn" for s in scenario_names),
                golden_traces={s: golden / f"{s}.trace" for s in scenario_names},
                golden_dots={
                    view: golden / f"{name}_{view}.dot"
                    for view in ("static", "events", "chronology")
                },
            )
        )
    return entries


def _atomic_write(path: str, data: str) -> None:
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tm-out-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
        _atomic_write(output, text)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_OR_IO
    return OK


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm", description="Thinging Machine modeling toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check model files")
    p_validate.add_argument("files", nargs="+")
    p_validate.add_argument("--lax", action="store_true",
                            help="downgrade cross-boundary flows to warnings")

    p_fmt = sub.add_parser("fmt", help="canonical serialization")
    p_fmt.add_argument("file")
    p_fmt.add_argument("-o", dest="output", default=None)
    p_fmt.add_argument("--lax", action="store_true")

    p_sim = sub.add_parser("sim", help="simulate a model under a scenario")
    p_sim.add_argument("file")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("-o", dest="output", default=None)
    p_sim.add_argument("--max-steps", type=int, default=None,
                       help="override the scenario step limit")
    p_sim.add_argument("--lax", action="store_true")

    p_render = sub.add_parser("render", help="emit a DOT diagram")
    p_render.add_argument("file")
    p_render.add_argument("--view", choices=("static", "events", "chronology"),
                          default="static")
    p_render.add_argument("-o", dest="output", default=None)
    p_render.add_argument("--lax", action="store_true")

    p_cov = sub.add_parser("coverage", help="event coverage of the static model")
    p_cov.add_argument("file")
    p_cov.add_argument("-o", dest="output", default=None,
                       help="write a machine-readable JSON record")
    p_cov.add_argument("--lax", action="store_true")

    p_corpus = sub.add_parser("corpus", help="bundled example models")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list bundled models")
    p_copy = corpus_sub.add_parser("copy", help="copy bundled models")
    p_copy.add_argument("name", help="model name or 'all'")
    p_copy.add_argument("dest", help="destination directory")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Dispatch a command line. Returns the exit status."""
    lib = sys.modules[__name__]  # the lazy library names, as bound now
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_OR_IO if exc.code not in (0, None) else OK

    if args.command == "validate":
        worst = OK
        for path in args.files:
            model = _load_or_report(path, args.lax, quiet=False)
            if isinstance(model, int):
                if model == USAGE_OR_IO:
                    return model
                worst = VALIDATION_ERRORS
        return worst

    if args.command in ("fmt", "sim", "render", "coverage"):
        model = _load_or_report(args.file, args.lax)
        if isinstance(model, int):
            return model

    if args.command == "fmt":
        return _emit(serialize(model), args.output)

    if args.command == "sim":
        scenario_text = _read_file(args.scenario)
        if scenario_text is None:
            return USAGE_OR_IO
        try:
            scenario = lib.load_scenario(scenario_text, args.scenario)
            if args.max_steps is not None:
                scenario = replace(scenario, max_steps=args.max_steps)
            trace = lib.simulate(model, scenario, lax=args.lax)
        except lib.ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return SIMULATION_ERROR
        except lib.SimulationError as exc:
            print(f"error {exc.diagnostic.code} {exc.diagnostic.message}",
                  file=sys.stderr)
            return SIMULATION_ERROR
        for warning in trace.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return _emit(lib.format_trace(trace), args.output)

    if args.command == "render":
        try:
            if args.view == "static":
                doc = lib.render_static(model, lax=args.lax)
            elif args.view == "events":
                doc = lib.render_events(model, lax=args.lax)
            else:
                doc = lib.render_chronology(model)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_OR_IO
        return _emit(doc.text, args.output)

    if args.command == "coverage":
        report = lib.coverage(model)
        if args.output is None:
            return _emit(report.text(), None)
        import json

        return _emit(json.dumps(report.as_dict(), indent=2) + "\n", args.output)

    if args.command == "corpus":
        entries = corpus_list()
        if args.corpus_command == "list":
            for entry in entries:
                scenario_names = ", ".join(p.stem for p in entry.scenarios)
                print(f"{entry.name}: {entry.model_file.name} ({scenario_names})")
            return OK
        wanted = [e for e in entries if args.name in ("all", e.name)]
        if not wanted:
            print(f"error: no corpus model named {args.name!r}", file=sys.stderr)
            return USAGE_OR_IO
        import shutil

        dest = Path(args.dest)
        try:
            dest.mkdir(parents=True, exist_ok=True)
            for entry in wanted:
                shutil.copy(entry.model_file, dest / entry.model_file.name)
                for scenario in entry.scenarios:
                    shutil.copy(scenario, dest / scenario.name)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_OR_IO
        return OK

    return USAGE_OR_IO  # pragma: no cover


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
