#!/usr/bin/env python3
"""Time each corpus ``tm`` command of two tmkit sources, alternating run by run.

    python3 scripts/cli_pairs.py PARENT_SRC CHANGE_SRC [--rounds 11] [--models NAME ...]
                                 [--warm-cache]

Each SRC is a directory holding the ``tmkit`` package, such as a checkout's
``src``. The commands are those perfbench times as corpus ``cli_s``, on the
bundled corpus of CHANGE_SRC: per model ``validate``, ``fmt``, ``render`` with
each view and ``coverage``, and ``sim`` per scenario. The models, scenarios
and views come from perfbench/workloads.py (imported, not edited); ``--models``
keeps some of the models. Each command runs in a fresh interpreter through
perfbench/cli_child.py (run, not edited), as in perfbench.

For each of ``--rounds`` rounds, every command runs once per side; the parent
goes first on even rounds and the change first on odd ones. The process, and
so every child, is pinned to one CPU where the platform allows it. The two
sides of a command must give the same exit code and output. The script prints
each command's median wall time in milliseconds per side, each beside the
median time the child spent inside the command (from its ``perfbench-inside``
line: wall time less interpreter start-up and exit), then the change's median
wall time over the parent's and the rounds the change won (ties win for
neither side); the last row pools every command's runs.

By default the children inherit this environment's bytecode settings, as
perfbench's do: with ``PYTHONDONTWRITEBYTECODE=1`` and a fresh checkout, every
command compiles tmkit from source. With ``--warm-cache`` each side gets its
own temporary ``PYTHONPYCACHEPREFIX``, ``PYTHONDONTWRITEBYTECODE`` is unset,
and every command runs once per side, untimed, to fill the cache first. A
start-up claim states both cases. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402  (perfbench/workloads.py)


def corpus_commands(corpus: Path, models: list[str]) -> list[list[str]]:
    """The ``tm`` arguments of each corpus command, in perfbench's order."""
    commands = []
    for name in models:
        model = str(corpus / f"{name}.tm")
        commands += [["validate", model], ["fmt", model]]
        commands += [["render", model, "--view", view] for view in workloads.VIEWS]
        commands.append(["coverage", model])
    for name in models:
        for scenario in workloads.CORPUS_SCENARIOS[name]:
            commands.append(["sim", str(corpus / f"{name}.tm"), "--scenario",
                             str(corpus / f"{scenario}.scn")])
    return commands


def run_tm(src: Path, argv: list[str], env: dict | None) -> tuple[float, float, tuple]:
    """Wall and inside seconds of one ``tm`` command in a fresh interpreter, and its result."""
    child = [sys.executable, str(PERFBENCH / "cli_child.py"), str(src), "-", *argv]
    t0 = perf_counter()
    proc = subprocess.run(child, capture_output=True, timeout=60, env=env)
    wall = perf_counter() - t0
    last = proc.stderr.decode(errors="replace").rstrip().rpartition("\n")[2].split()
    if len(last) != 2 or last[0] != "perfbench-inside":
        sys.exit(f"tm {' '.join(argv)}: the child reported no time from inside the command")
    return wall, float(last[1]), (proc.returncode, proc.stdout)


def measure(sides: dict[str, Path], envs: dict[str, dict | None], commands: list[list[str]],
            rounds: int, prime: bool):
    """Per command and side, the (wall, inside) seconds of each round."""
    samples = [{label: [] for label in sides} for _ in commands]
    labels = list(sides)
    for i in range(-1 if prime else 0, rounds):  # round -1 fills the caches, untimed
        order = labels if i % 2 == 0 else labels[::-1]
        for argv, by_side in zip(commands, samples):
            results = {}
            for label in order:
                wall, inside, results[label] = run_tm(sides[label], argv, envs[label])
                if i >= 0:
                    by_side[label].append((wall, inside))
            if len(set(results.values())) > 1:
                sys.exit(f"tm {' '.join(argv)}: the sides differ in exit code or output")
    return samples


def row(name: str, parent: list[tuple], change: list[tuple]) -> str:
    wins = sum(c < p for (p, _), (c, _) in zip(parent, change))
    (p, p_in), (c, c_in) = ([statistics.median(x) for x in zip(*side)] for side in (parent, change))
    return (f"{name:<48} {p * 1e3:>9.1f} {p_in * 1e3:>9.1f} {c * 1e3:>9.1f} {c_in * 1e3:>9.1f} "
            f"{c / p:>14.3f} {wins:>4}/{len(parent)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory holding the parent's tmkit")
    parser.add_argument("change", type=Path, help="directory holding the change's tmkit")
    parser.add_argument("--rounds", type=int, default=11, help="runs per command and side")
    parser.add_argument("--models", nargs="+", choices=list(workloads.CORPUS_SCENARIOS),
                        default=list(workloads.CORPUS_SCENARIOS), help="corpus models to run")
    parser.add_argument("--warm-cache", action="store_true",
                        help="give each side its own primed bytecode cache")
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commands = corpus_commands(sides["change"] / "tmkit" / "corpus", args.models)
    with tempfile.TemporaryDirectory(prefix="cli-pairs-") as caches:
        envs = dict.fromkeys(sides)
        if args.warm_cache:
            bare = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
            envs = {label: {**bare, "PYTHONPYCACHEPREFIX": os.path.join(caches, label)}
                    for label in sides}
        samples = measure(sides, envs, commands, args.rounds, args.warm_cache)
    cache = "warm bytecode cache, one per side" if args.warm_cache else "inherited bytecode settings"
    print(f"{len(commands)} corpus tm commands, {args.rounds} alternating runs per command "
          f"and side, {cache}; median ms, wall and inside the child")
    print(f"{'command':<48} {'parent':>9} {'inside':>9} {'change':>9} {'inside':>9} "
          f"{'change/parent':>14} {'won':>6}")
    for command, by_side in zip(commands, samples):
        name = " ".join(Path(a).name for a in command)
        print(row(name, by_side["parent"], by_side["change"]))
    print(row("all", [s for b in samples for s in b["parent"]],
              [s for b in samples for s in b["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
