"""Evaluation graphs: program structure plus the edges that drive review.

A review runs over the program's nodes together with auxiliary nodes added
for composition. Two edge families matter to the engine: context edges (a
node's verdicts feed a successor's context) and feedback edges (a downstream
synthesis can send a node back for another look). Program edges document
control flow for the reader and the prompt builder; they never drive
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import UnknownNode

__all__ = [
    "ProgramGraph",
    "EvaluationGraph",
    "Violation",
    "extended_predecessors",
    "extended_successors",
    "validate_graph",
    "code_context",
]

Edge = tuple[str, str]


@dataclass(frozen=True)
class ProgramGraph:
    nodes: frozenset[str]
    edges: frozenset[Edge]
    sources: Mapping[str, str]


@dataclass(frozen=True)
class EvaluationGraph:
    program: ProgramGraph
    aux_nodes: frozenset[str]
    context_edges: frozenset[Edge]
    feedback_edges: frozenset[Edge]
    # Which program nodes' source text a node gets to see.
    neighborhood: Mapping[str, frozenset[str]]

    # Computed on first use: the graph never changes after construction.
    @cached_property
    def all_nodes(self) -> frozenset[str]:
        return self.program.nodes | self.aux_nodes

    @cached_property
    def extended_edges(self) -> frozenset[Edge]:
        return self.context_edges | self.feedback_edges

    @cached_property
    def context_successors(self) -> Mapping[str, tuple[str, ...]]:
        return _adjacency(self.context_edges)

    @cached_property
    def feedback_successors(self) -> Mapping[str, tuple[str, ...]]:
        return _adjacency(self.feedback_edges)

    @cached_property
    def _extended_predecessors(self) -> Mapping[str, tuple[str, ...]]:
        return _adjacency((dst, src) for src, dst in self.extended_edges)


def _adjacency(edges: Iterable[Edge]) -> dict[str, tuple[str, ...]]:
    """Sorted successors of each node that has any."""
    return {src: tuple(dst for _, dst in group)
            for src, group in groupby(sorted(edges), key=itemgetter(0))}


def _require_node(graph: EvaluationGraph, node: str) -> None:
    if node not in graph.all_nodes:
        raise UnknownNode(f"node {node!r} is not in the evaluation graph")


def extended_predecessors(graph: EvaluationGraph, node: str) -> frozenset[str]:
    """Sources of context and feedback edges into the node. Program edges
    deliberately do not count."""
    _require_node(graph, node)
    return frozenset(graph._extended_predecessors.get(node, ()))


def extended_successors(graph: EvaluationGraph, node: str) -> frozenset[str]:
    _require_node(graph, node)
    return frozenset(graph.context_successors.get(node, ())
                     + graph.feedback_successors.get(node, ()))


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate_graph."""

    rule: str
    subject: str
    detail: str

    DISJOINTNESS = "disjointness"
    PROGRAM_EDGE = "program_edge_endpoint"
    EXTENDED_EDGE = "extended_edge_endpoint"
    NEIGHBORHOOD = "neighborhood"
    SOURCE = "source_missing"
    NODE_ID = "node_id"


def validate_graph(graph: EvaluationGraph) -> list[Violation]:
    """Return every structural violation; an empty list means well-formed."""
    out: list[Violation] = []
    all_nodes = graph.all_nodes

    for node in sorted(all_nodes):
        if not node:
            out.append(Violation(Violation.NODE_ID, node, "empty node id"))

    for node in sorted(graph.program.nodes & graph.aux_nodes):
        out.append(Violation(
            Violation.DISJOINTNESS, node,
            "node is listed as both a program node and an auxiliary node",
        ))

    for src, dst in sorted(graph.program.edges):
        for end in (src, dst):
            if end not in graph.program.nodes:
                out.append(Violation(
                    Violation.PROGRAM_EDGE, end,
                    f"program edge ({src}, {dst}) leaves the program node set",
                ))

    for src, dst in sorted(graph.extended_edges):
        for end in (src, dst):
            if end not in all_nodes:
                out.append(Violation(
                    Violation.EXTENDED_EDGE, end,
                    f"edge ({src}, {dst}) touches a node outside the graph",
                ))

    for owner in sorted(graph.neighborhood):
        if owner not in all_nodes:
            out.append(Violation(
                Violation.NEIGHBORHOOD, owner,
                "neighborhood entry for a node outside the graph",
            ))
        for member in sorted(graph.neighborhood[owner]):
            if member not in graph.program.nodes:
                out.append(Violation(
                    Violation.NEIGHBORHOOD, owner,
                    f"neighborhood member {member!r} is not a program node",
                ))

    for node in sorted(graph.program.nodes):
        if node not in graph.program.sources:
            out.append(Violation(
                Violation.SOURCE, node,
                "program node has no source entry (empty text is fine, absence is not)",
            ))

    return out


def code_context(graph: EvaluationGraph, node: str) -> list[tuple[str, str]]:
    """Source text visible from a node, ordered by node id for determinism."""
    _require_node(graph, node)
    members = graph.neighborhood.get(node, frozenset())
    return [(m, graph.program.sources.get(m, "")) for m in sorted(members)]
