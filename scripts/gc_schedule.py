#!/usr/bin/env python3
"""Count the garbage collections in each timed phase of a perfbench repetition.

    python3 scripts/gc_schedule.py [--workload relay] [--seeds 3,11] [--reps 1]

perfbench runs a relay repetition's second front-end pass over the broken
texts only when its first pass took under ``FRONT_SECONDS``, so the speed of
the host picks one of two schedules (perfbench/run.py, ``repetition``). This
script forces a repetition onto each of them, in perfbench's order of calls:

- ``short``: the second pass parses and emits the valid texts only;
- ``long``: the second pass parses the broken texts too.

``--workload flood`` or ``corpus`` forces the same two passes on that
workload. perfbench repeats their cheap front end until ``FRONT_SECONDS``
have passed, as many passes as the host manages, so there the ``check_s``
and ``reject_s`` rows count two passes, not perfbench's number, and the later
phases start from a different generation-0 count.

For each seed it sets up the workload, runs perfbench's discarded
warm-up repetition, and then, for each schedule, collects with
``gc.collect()`` and runs one repetition, as perfbench's end-to-end run does.
A ``gc.callbacks`` hook counts the collections per generation in each timed
phase (``check_s``, ``reject_s``, ``emit_s``, ``sim_s``, ``step_s``) and
outside them (``untimed``), and prints the index of each full collection.
A full collection takes milliseconds on relay, so one that moves into
``sim_s`` or ``step_s`` shows in those metrics. Each schedule's margin is the
number of collections a repetition could still make before the next full
collection could come. Timing uses perfbench's
``Meter`` without sampling, whose timer would allocate at random moments.

perfbench/run.py and perfbench/workloads.py are imported, not edited. A timed
phase is the span between perfbench's ``t0 = clock()`` and the
``<metric> += clock() - t0`` that closes it, read from run.py's source lines.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py)
import speed  # noqa: E402
import workloads  # noqa: E402

PHASES = (*run.REP_METRICS, "untimed")
SCHEDULES = {"short": False, "long": True}  # does the second pass parse the broken texts?


def _windows() -> tuple[set[int], dict[int, int]]:
    """run.py's lines that open a timed phase, and those that close one,
    each mapped to its phase's index in PHASES."""
    opens: set[int] = set()
    closes: dict[int, int] = {}
    for number, line in enumerate(Path(run.__file__).read_text().splitlines(), 1):
        if re.search(r"\bt0 = clock\(\)", line):
            opens.add(number)
        found = re.search(r"\b(\w+_s)\W*\s*\+= clock\(\) - t0", line)
        if found:
            closes[number] = PHASES.index(found.group(1))
    if not opens or set(closes.values()) != set(range(len(run.REP_METRICS))):
        sys.exit(f"{run.__file__}: the timed phases are no longer where this script looks")
    return opens, closes


class PhaseMeter(speed.Meter):
    """perfbench's Meter, whose clock also marks where each timed phase
    opens and closes; the marks are ints, so keeping them allocates no
    object the collector tracks."""

    def __init__(self, generations: list[int]) -> None:
        self.generations = generations  # of each collection, in order
        self.opens, self.closes = _windows()
        self.marks: list[int] = []  # phase, first and end collection index, flat
        self.opened = -1
        super().__init__(sampling=False)

    def clock(self) -> float:
        caller = sys._getframe(1)
        if caller.f_code.co_filename == run.__file__:
            line = caller.f_lineno
            if line in self.opens:
                self.opened = len(self.generations)
            elif line in self.closes:  # three appends: a tuple would be tracked
                self.marks.append(self.closes[line])
                self.marks.append(self.opened)
                self.marks.append(len(self.generations))
        return speed.Meter.clock(self)


def forced(plain, schedule_long: bool):
    """``plain`` (run.front_end) with the repetition's second pass parsing
    the broken texts, or not, whatever the clock says."""
    calls = 0

    def front_end(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 2:
            kwargs["reject"] = schedule_long
        return plain(*args, **kwargs)

    return front_end


def margin(generations: list[int]) -> int:
    """Collections from the end of ``generations`` to the next full one, at
    the earliest. After ``gc.collect()`` CPython collects generation 1 once
    generation 0 has been collected more than its threshold times since, and
    generation 2 likewise counting generation-1 collections; the full
    collection can wait longer (for its long-lived ratio), never less."""
    _, young, old = gc.get_threshold()
    gen0 = gen1 = 0  # collections since the last of an older generation
    for generation in generations:
        if generation == 0:
            gen0 += 1
        elif generation == 1:
            gen0, gen1 = 0, gen1 + 1
        else:
            gen0 = gen1 = 0
    left = 1
    while gen1 <= old:
        if gen0 > young:
            gen0, gen1 = 0, gen1 + 1
        else:
            gen0 += 1
        left += 1
    return left


def report(label: str, generations: list[int], marks: list[int]) -> None:
    table = {phase: [0, 0, 0] for phase in PHASES}
    phase_of = ["untimed"] * len(generations)
    for at in range(0, len(marks), 3):
        phase, first, end = marks[at : at + 3]
        phase_of[first:end] = [PHASES[phase]] * (end - first)
    for index, generation in enumerate(generations):
        table[phase_of[index]][generation] += 1
    print(f"{label}: {len(generations)} collections")
    for phase in PHASES:
        print(f"  {phase:8} gen0/1/2 {table[phase]}")
    full = [f"#{i + 1} ({phase_of[i]})" for i, g in enumerate(generations) if g == 2]
    print(f"  full collections: {', '.join(full) or 'none'}")
    print(f"  margin: {margin(generations)} collections")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="relay", choices=("relay", "flood", "corpus"))
    parser.add_argument("--seeds", default="3,11", help="seeds, comma-separated")
    parser.add_argument("--reps", type=int, default=1, help="repetitions per schedule")
    args = parser.parse_args(argv)
    generations: list[int] = []

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            generations.append(info["generation"])

    tm = run._Tmkit()
    api = run.Api(tm.modules)
    plain = run.front_end
    print(f"# gc thresholds {gc.get_threshold()}; Python {sys.version.split()[0]}")
    for seed in (int(s) for s in args.seeds.split(",")):
        inputs = workloads.make(args.workload, seed, run.SRC / "tmkit" / "corpus")
        expect, tally = run.Expect(), run.Tally()
        meter = PhaseMeter(generations)
        run.repetition(api, inputs, expect, tally, tm, True, meter)  # warm-up, as perfbench
        for name, schedule_long in SCHEDULES.items():
            for rep in range(args.reps):
                run.front_end = forced(plain, schedule_long)
                gc.collect()
                generations.clear()
                meter.marks.clear()
                gc.callbacks.append(hook)
                try:
                    run.repetition(api, inputs, expect, tally, tm, False, meter,
                                   0.0, run.CHECK_PASSES)
                finally:
                    gc.callbacks.remove(hook)
                    run.front_end = plain
                report(f"{args.workload} seed {seed}, {name} schedule, repetition {rep + 1}",
                       generations, meter.marks)
        if tally.failed:
            print(f"# {tally.failed} of {tally.attempted} operations failed", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
