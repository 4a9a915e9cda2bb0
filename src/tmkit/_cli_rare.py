"""What no well-formed ``tm`` model command runs, imported only when needed:
the argparse parser, built from ``tmkit.cli``'s grammar table, for every line
the strict reader leaves to it; the ``corpus`` command and the bundled corpus
(``tmkit.cli`` re-exports ``corpus_list``, ``CorpusEntry`` and
``corpus_dir``); and the atomic write behind ``-o``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from ._frozen import frozen
from .cli import _COMMANDS, _OPTIONS, OK, USAGE_OR_IO


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


def atomic_write(path: str, data: str) -> None:
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


def _build_arg_parser() -> argparse.ArgumentParser:
    import argparse  # here, so that -o, which imports this module, does not load it

    parser = argparse.ArgumentParser(
        prog="tm", description="Thinging Machine modeling toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, positional, options) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help_text)
        p_command.add_argument(positional, nargs="+" if positional == "files" else None)
        for name, option_help in options.items():
            dest, default, keywords = _OPTIONS[name]
            p_command.add_argument(name, dest=dest, default=default, help=option_help, **keywords)

    p_corpus = sub.add_parser("corpus", help="bundled example models")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list bundled models")
    p_copy = corpus_sub.add_parser("copy", help="copy bundled models")
    p_copy.add_argument("name", help="model name or 'all'")
    p_copy.add_argument("dest", help="destination directory")
    return parser


def parse_args(argv: list[str]) -> dict | int:
    """argparse's attributes for the command line, or the exit status after
    it printed help or a usage error."""
    try:
        return vars(_build_arg_parser().parse_args(argv))
    except SystemExit as exc:
        return USAGE_OR_IO if exc.code not in (0, None) else OK


def run_corpus(args: dict) -> int:
    """``tm corpus list`` and ``tm corpus copy NAME DEST``; the exit status."""
    entries = corpus_list()
    if args["corpus_command"] == "list":
        for entry in entries:
            scenario_names = ", ".join(p.stem for p in entry.scenarios)
            print(f"{entry.name}: {entry.model_file.name} ({scenario_names})")
        return OK
    wanted = [e for e in entries if args["name"] in ("all", e.name)]
    if not wanted:
        print(f"error: no corpus model named {args['name']!r}", file=sys.stderr)
        return USAGE_OR_IO
    import shutil

    dest = Path(args["dest"])
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
