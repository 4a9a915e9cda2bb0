"""Events as regions of the static model, chronologies, and edge coverage.

An event is a machine in its own right: its region is a subgraph of the
static model and it implicitly carries a time sub-machine. Chronologies
are precedence DAGs over events; events with no path between them may
occur in any order or simultaneously. ``Chronology.order`` is peeled once
per object; ``topological_order`` returns a new list of it.
"""

from __future__ import annotations

from ._frozen import frozen

from .core import (
    Chronology,
    Diagnostic,
    Event,
    EventDecl,
    Model,
    RegionNode,
    _check_event_decl,
    _respects,
)

__all__ = [
    "CoverageReport",
    "attach_event",
    "validate_chronology",
    "coverage",
    "is_linear_extension",
    "topological_order",
]


@frozen
class CoverageReport:
    """Which flow/trigger edges are inside some event region."""

    covered: tuple[str, ...]
    uncovered: tuple[str, ...]
    ratio: float

    def text(self) -> str:
        """Three-line human-readable block."""
        total = len(self.covered) + len(self.uncovered)
        missing = ", ".join(self.uncovered) if self.uncovered else "-"
        return (
            f"covered: {len(self.covered)} of {total} edges\n"
            f"uncovered: {missing}\n"
            f"ratio: {self.ratio:.4f}\n"
        )

    def as_dict(self) -> dict:
        return {
            "covered": list(self.covered),
            "uncovered": list(self.uncovered),
            "ratio": self.ratio,
        }


def attach_event(model: Model, decl: EventDecl) -> Event | list[Diagnostic]:
    """Check an event declaration against a validated model.

    Returns the resolved event iff its region is a non-empty subgraph of
    the static model and its name is fresh (E301/E303 otherwise). A name
    the language cannot express (not an identifier, or a reserved word)
    raises ValueError, as in ``build_model``. Attach the result with
    ``model.with_event(event)``.
    """
    return _check_event_decl(model, model.events_by_name, decl)


def validate_chronology(model: Model) -> list[Diagnostic]:
    """Report edges naming no chronology node (E303), repeated edges (E106)
    and cycles (E302), as ``validate`` does for any model's chronology.

    One E302 is emitted per cyclic strongly connected component, naming a
    full cycle path. Models without a chronology yield no diagnostics.
    """
    if model.chronology is None:
        return []
    return list(model.chronology._diagnostics)


def coverage(model: Model) -> CoverageReport:
    """Fraction of flow/trigger edges covered by the union of event regions.

    An edge is covered when some event's items hold a flow or trigger item
    with its id; each event's items are walked once. A model with no edges
    has ratio 1.
    """
    all_ids = [e.id for e in model.flows] + [t.id for t in model.triggers]
    covered_set = {
        i.edge_id for e in model.events for i in e.items if type(i) is not RegionNode
    }
    covered = tuple(i for i in all_ids if i in covered_set)
    uncovered = tuple(i for i in all_ids if i not in covered_set)
    ratio = 1.0 if not all_ids else len(covered) / len(all_ids)
    return CoverageReport(covered, uncovered, ratio)


def is_linear_extension(chronology: Chronology, sequence) -> bool:
    """True iff the sequence respects every precedence edge.

    The sequence must be a permutation of the chronology's nodes;
    anything else raises ValueError rather than returning False, as does an
    edge naming no node. A cyclic chronology has no linear extension.
    """
    seq = tuple(sequence)
    if len(seq) != len(chronology.nodes) or set(seq) != set(chronology.nodes):
        raise ValueError("sequence must be a permutation of the chronology nodes")
    if chronology.order is None:
        return False
    return _respects(chronology, seq)


def topological_order(chronology: Chronology) -> list[str] | None:
    """One topological order of the chronology, or None if it is cyclic."""
    return None if chronology.order is None else list(chronology.order)
