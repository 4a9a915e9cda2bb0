"""Guards for the tools that drive tmkit from outside the package."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import tmkit.cli
import tmkit.dsl
import tmkit.events
import tmkit.render
import tmkit.sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
