"""In-memory spans around tmkit's layer boundaries, recorded from outside.

The traced run rebinds the public names through which one tmkit layer
calls another (``tmkit.dsl.build_model``, ``tmkit.sim.step`` and so on) to
wrappers that record a span, and restores the original bindings afterwards.
Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    iteration: int
    tag: str | None  # the benchmark input the outermost call worked on
    children_ns: int = 0

    @property
    def duration(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def self_time(self) -> float:
        return (self.end_ns - self.start_ns - self.children_ns) / 1e9


@dataclass
class Recorder:
    """Collects spans; nesting follows the call stack (single-threaded)."""

    spans: list[Span] = field(default_factory=list)
    iteration: int = 0
    _stack: list[Span] = field(default_factory=list)

    def wrap(self, name: str, fn, tag_arg: bool = False):
        """``fn`` recorded as span ``name``; with ``tag_arg`` the first
        positional argument names the input (the benchmark's own calls)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if tag_arg:
                tag, args = args[0], args[1:]
            else:
                tag = parent.tag if parent else None
            span = Span(len(self.spans), name, 0, 0,
                        parent.id if parent else None, self.iteration, tag)
            self.spans.append(span)
            self._stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    parent.children_ns += span.end_ns - span.start_ns

        return wrapper

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(header, handle)
            handle.write("\n")
            for s in self.spans:
                json.dump([s.id, s.name, s.start_ns, s.end_ns, s.parent,
                           s.iteration, s.tag], handle)
                handle.write("\n")


class Patches:
    """Rebinds module attributes and puts the originals back on exit."""

    def __init__(self, recorder: Recorder, targets: list[tuple[object, str, str]]):
        self.recorder = recorder
        self.targets = targets
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        for module, attr, span_name in self.targets:
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.recorder.wrap(span_name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


def library_targets(modules: dict) -> list[tuple[object, str, str]]:
    """The names through which one tmkit layer calls another."""
    dsl, sim, render, events = (modules[m] for m in ("dsl", "sim", "render", "events"))
    return [
        (dsl, "build_model", "core.build_model"),
        (dsl, "validate", "core.validate"),
        (sim, "init_state", "sim.init_state"),
        (sim, "step", "sim.step"),
        (sim, "validate", "core.validate"),
        (render, "validate", "core.validate"),
        (events, "topological_order", "events.topological_order"),
    ]


def cli_targets(cli_module) -> list[tuple[object, str, str]]:
    """``tmkit.cli.run`` and the library names ``tmkit.cli`` imports."""
    names = {
        "parse": "dsl.parse", "serialize": "dsl.serialize",
        "coverage": "events.coverage", "render_static": "render.static",
        "render_events": "render.events", "render_chronology": "render.chronology",
        "format_trace": "sim.format_trace", "load_scenario": "sim.load_scenario",
        "simulate": "sim.simulate",
    }
    return [(cli_module, "run", "cli.run")] + [
        (cli_module, attr, span) for attr, span in names.items()
    ]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile); needs at least 11 samples.
    """
    if len(samples) < 11:
        raise ValueError("a tail needs at least 11 samples")
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
