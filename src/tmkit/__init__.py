"""tmkit: a toolchain for the Thinging Machine (TM) modeling notation.

Parse the textual TM language into a validated graph model, define events
and chronologies over it, execute models deterministically under
scenarios, and emit DOT diagram files. Ships a corpus of four worked
models (water reservoir control, categorical imperative, murderer
dilemma, Islamic ethical decision).
"""

import importlib

__version__ = "0.1.0"

# The home module of each public name. A name's module is imported on its
# first access (PEP 562), so ``import tmkit`` alone loads no submodule.
_HOMES = {
    **dict.fromkeys(("Chronology", "Diagnostic", "Event", "FlowEdge", "Machine", "Model",
                     "StageKind", "StageRef", "Thing", "TriggerEdge", "build_model",
                     "flow_legal", "resolve", "validate"), "core"),
    **dict.fromkeys(("ParseResult", "SourceSpan", "parse", "serialize"), "dsl"),
    **dict.fromkeys(("CoverageReport", "attach_event", "coverage", "is_linear_extension",
                     "validate_chronology"), "events"),
    **dict.fromkeys(("DotDocument", "render_chronology", "render_events", "render_static"),
                    "render"),
    **dict.fromkeys(("Scenario", "Trace", "conforms", "load_scenario", "simulate", "step"),
                    "sim"),
}
_SUBMODULES = frozenset({"cli", "core", "dsl", "events", "render", "sim"})
__all__ = sorted(_HOMES) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
