"""The public surface of ``import tmkit``: loaded on first use, but complete."""

from __future__ import annotations

import importlib

import pytest

import tmkit

from helpers import fresh_python

# Each public name by its home module.
HOMES = {
    "core": ["Chronology", "Diagnostic", "Event", "FlowEdge", "Machine", "Model", "StageKind",
             "StageRef", "Thing", "TriggerEdge", "build_model", "flow_legal", "resolve",
             "validate"],
    "dsl": ["ParseResult", "SourceSpan", "parse", "serialize"],
    "events": ["CoverageReport", "attach_event", "coverage", "is_linear_extension",
               "validate_chronology"],
    "render": ["DotDocument", "render_chronology", "render_events", "render_static"],
    "sim": ["Scenario", "Trace", "conforms", "load_scenario", "simulate", "step"],
}
PUBLIC = sorted(name for names in HOMES.values() for name in names) + ["__version__"]


def test_the_public_names_are_pinned():
    assert tmkit.__all__ == PUBLIC
    assert tmkit.__version__ == "0.1.0"


@pytest.mark.parametrize("home, name", [(h, n) for h, names in HOMES.items() for n in names])
def test_each_public_name_is_its_home_modules_object(home, name):
    assert getattr(tmkit, name) is getattr(importlib.import_module(f"tmkit.{home}"), name)


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from tmkit import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC) <= set(dir(tmkit))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        tmkit.no_such_name


def test_import_tmkit_alone_loads_no_submodule():
    done = fresh_python("-c", "import sys, tmkit\n"
                  "print(sorted(m for m in sys.modules if m.startswith('tmkit.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_a_submodule_is_an_attribute_of_a_fresh_package():
    done = fresh_python("-c", "import tmkit\nprint(tmkit.sim.step.__module__, tmkit.cli.run.__name__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "tmkit.sim run\n"
