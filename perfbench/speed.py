"""Timings on one scale, however fast the host happens to be just then.

The benchmark's machine shares its host, and its speed drifts by up to 40%
within seconds; a fixed loop slows down as much as tmkit does. So the
benchmark keeps reading the host's speed from a short, fixed pure-Python
kernel, and reports a phase's time as

    elapsed * REFERENCE_S / kernel,

where ``kernel`` is the kernel's time while the phase ran: a 10%-trimmed
mean of its runs just before the phase, during it and just after it. That
is the time the phase would take on a host where the kernel takes
``REFERENCE_S``, about its time on this repository's 2-core machine in a
quiet hour. The kernel is the benchmark's own code, so a change to
tmkit moves the phase's time and not the kernel's: a gain or a loss shows
in full. The raw medians are printed beside the scaled ones.

During an in-process phase, an interval timer runs the kernel every
``PERIOD_S`` from a ``SIGALRM`` handler, between two bytecodes of whatever
runs then, so that a phase of seconds (relay's ``simulate`` is one call of
about 2.5 s) gets a reading of its own seconds and not only of its two
ends. The handler's time is left out of the phase's time: ``Meter.clock``
is ``perf_counter`` less the time spent in the handler. The handler takes
about 2% of the wall time. Each reading follows an untimed warm-up run of
the kernel: without it, a reading taken inside a phase is about 1.5 times
a reading taken alone, and grows with the working set of the interrupted
work, which would tie the scale to what tmkit does.

The kernel does what tmkit's front end and simulator do most: it builds
small objects, tuples, dicts and strings, groups and sorts them. A kernel of
plain integer arithmetic, or of big dicts alone, tracked tmkit's speed less
well. The collector is paused while the kernel runs, so that a collection of
tmkit's heap is never charged to the kernel; it runs as usual in every
phase that is measured.

A ``tm`` command in a fresh interpreter is mostly interpreter start-up and
exit on small inputs, and start-up drifts apart from the kernel. So
``CommandMeter`` splits a command's wall time: the part the child reports
as spent inside the command (importing tmkit and running it) is scaled by
the kernel, and the rest by the wall time of a bare interpreter,
``python3 -c pass``, run just before and just after, against
``REFERENCE_START_S``. No timer runs then: the child has the processor to
itself.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time

#: Seconds of one kernel run on the reference host; scaled timings are in
#: the reference host's seconds.
REFERENCE_S = 0.00018
#: Wall seconds of ``python3 -c pass`` on the reference host.
REFERENCE_START_S = 0.070
#: Kernel runs just before and just after each phase.
BRACKET_RUNS = 5
#: Interval between kernel runs inside an in-process phase.
PERIOD_S = 0.02

_WORDS = ("alpha beta gamma delta epsilon zeta eta theta " * 40).split()


class _Item:
    __slots__ = ("word", "index", "attrs")

    def __init__(self, word: str, index: int, attrs: dict) -> None:
        self.word = word
        self.index = index
        self.attrs = attrs


def kernel() -> str:
    """A fixed amount of interpreter work: tokens to objects to an index."""
    tokens = [(word, i) for i, word in enumerate(_WORDS)]
    items = [_Item(word, i, {word: i}) for word, i in tokens]
    index: dict[str, list[int]] = {}
    for item in items:
        index.setdefault(item.word, []).append(item.index)
    return ",".join(f"{k}:{len(v)}" for k, v in sorted(index.items()))


def kernel_seconds(runs: int = 1) -> list[float]:
    """Wall times of ``runs`` kernel runs after one untimed run, with the
    collector paused.

    The untimed run brings the kernel's code and memory into the caches, so
    that the timed ones read the host's speed and not how much of the
    caches the work it interrupted was using.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(values: list[float]) -> float:
    """The mean of ``values`` without their highest and lowest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Meter:
    """Scales phase timings by the kernel's time while each phase ran.

    ``start()`` opens a phase; ``lap(raw)`` closes it and returns its
    ``raw`` seconds, read from ``clock``, on the reference scale. Laps
    chain: the kernel runs after one phase serve as those before the next,
    so call ``start()`` again only after work that is not a timed phase.
    With ``sampling``, the kernel also runs every ``PERIOD_S`` until
    ``close()``; without it, only at phase boundaries.
    """

    def __init__(self, sampling: bool = False) -> None:
        self.sampling = sampling
        self.stolen = 0.0  # seconds spent in the timer's handler, all told
        self.kernels: list[float] = []  # of the phase now open
        self.readings: list[float] = []  # each closed phase's kernel time
        if sampling:
            signal.signal(signal.SIGALRM, self._sample)
        self.start()

    def clock(self) -> float:
        """``perf_counter`` without the time spent in the timer's handler."""
        return time.perf_counter() - self.stolen

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.kernels.extend(kernel_seconds())
        self.stolen += time.perf_counter() - t0

    def _timer(self, on: bool) -> None:
        if self.sampling:
            period = PERIOD_S if on else 0.0
            signal.setitimer(signal.ITIMER_REAL, period, period)

    def _bracket(self) -> None:
        self.kernels.extend(kernel_seconds(BRACKET_RUNS))

    def start(self) -> None:
        self._timer(False)
        self.kernels = []
        self._bracket()
        self._timer(True)

    def lap(self, raw: float) -> float:
        self._timer(False)
        self._bracket()
        reading = trimmed_mean(self.kernels)
        self.readings.append(reading)
        self.kernels = self.kernels[-BRACKET_RUNS:]
        self._timer(True)
        return raw * REFERENCE_S / reading

    def close(self) -> None:
        """Stops the timer and gives ``SIGALRM`` its default action back."""
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.sampling = False


def start_seconds() -> float:
    """Wall time of a bare fresh interpreter, ``python3 -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - t0


class CommandMeter:
    """Scales fresh-interpreter commands, each bracketed by a bare
    interpreter (for start-up and exit) and by the kernel (for the time
    inside the command)."""

    def __init__(self) -> None:
        self.meter = Meter()
        self.started = start_seconds()

    def lap(self, wall: float, inside: float) -> float:
        before, self.started = self.started, start_seconds()
        outside = wall - inside
        return (self.meter.lap(inside)
                + outside * REFERENCE_START_S * 2 / (before + self.started))
