"""Direct and indirect change-impact sets over the system graph.

Direct impact is what the delta touched.  Indirect impact is found by
breadth-first traversal: call-graph edges are followed against their
direction (impact flows to dependents), cross-service edges in both
directions (a broken link hurts caller and provider alike).  Each indirect
component carries the shortest evidence path back to a direct one, and
every path edge re-verifies against the graph it was found in.

The traversal is lazy: it expands only the nodes it reaches, so its cost
follows the impact and not the system.  A node's neighbours come from its
service's reverse call graph (``MicroserviceIR.callers``), the system's
incidence map (``Incidence``, cross edges by component) and, on request, its
service's entity users.  Each map is built once per object: untouched
services are shared across versions, and ``apply_delta`` derives an
increment's incidence map from its baseline's.  Neighbours are sorted when
their node is expanded, by neighbour, edge kind and the edge's two ends: a
total order, so evidence paths do not depend on set iteration order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from .documents import component_id_to_doc
from .model import ComponentId, Delta, EdgeKind, Incidence, SystemIR

IMPACT_REPORT_SCHEMA = "impact-report@1"

DEFAULT_CROSS_SERVICE_HOPS = 2


@dataclass(frozen=True)
class PathEdge:
    """One traversed edge, stored in its stored-graph direction."""

    kind: str  # call | remoteCall | dataOverlap | entityUsage
    from_id: ComponentId
    to_id: ComponentId


@dataclass(frozen=True)
class ImpactReport:
    direct: frozenset[ComponentId]
    indirect: Mapping[ComponentId, tuple[PathEdge, ...]]
    affected_services: frozenset[str]


def _expand(
    system: SystemIR,
    node: ComponentId,
    include_data_overlap: bool,
    include_entity_usage: bool,
) -> list[tuple]:
    """The steps leaving ``node``, sorted by neighbour, edge kind and ends.

    A step is (sort key, neighbour, (edge kind, from, to), crosses service);
    its key holds the ``str`` of the neighbour and of the ends, made once,
    and its path edge is built only if the step extends a path."""
    steps = []
    here = str(node)
    service = system.services.get(node.microservice)
    if service is not None:
        # reversed: impact on the callee reaches its callers
        for caller in service.callers.get(node, ()):
            name = str(caller)
            key = (name, "call", name, here)
            steps.append((key, caller, ("call", caller, node), False))
        if include_entity_usage:
            for user in service.entity_users.get(node, ()):
                name = str(user)
                key = (name, "entityUsage", here, name)
                steps.append((key, user, ("entityUsage", node, user), False))
    for edge in Incidence.of(system).edges(node):
        if edge.kind is EdgeKind.DATA_OVERLAP and not include_data_overlap:
            continue
        kind = "remoteCall" if edge.kind is EdgeKind.REMOTE_CALL else "dataOverlap"
        outgoing = edge.source == node
        other = edge.target if outgoing else edge.source
        name = str(other)
        key = (name, kind, here, name) if outgoing else (name, kind, name, here)
        steps.append((key, other, (kind, edge.source, edge.target), True))
    steps.sort(key=itemgetter(0))
    return steps


def impact_set(
    baseline: SystemIR,
    d: Delta,
    max_hops: int | None = None,
    *,
    cross_service_hops: int = DEFAULT_CROSS_SERVICE_HOPS,
    include_data_overlap: bool = True,
    include_entity_usage: bool = False,
) -> ImpactReport:
    """Compute the impact report of a delta over the baseline graph.

    ``max_hops`` bounds total path length (None means unlimited within the
    cross-service bound); ``cross_service_hops`` bounds how many
    service-boundary edges one path may use.
    """
    direct = frozenset(d.change_ids())
    expanded: dict[ComponentId, list[tuple]] = {}
    paths: dict[ComponentId, tuple[PathEdge, ...]] = {}
    best_cross: dict[ComponentId, int] = {cid: 0 for cid in direct}
    queue: deque[tuple[ComponentId, int, int, tuple[PathEdge, ...]]] = deque(
        (cid, 0, 0, ()) for cid in sorted(direct, key=str)
    )
    while queue:
        node, hops, crossings, path = queue.popleft()
        if max_hops is not None and hops >= max_hops:
            continue
        steps = expanded.get(node)
        if steps is None:
            steps = expanded[node] = _expand(
                baseline, node, include_data_overlap, include_entity_usage
            )
        for _, target, ends, crosses in steps:  # sorted: deterministic shortest paths
            next_crossings = crossings + crosses
            if next_crossings > cross_service_hops:
                continue
            if target in direct:
                continue
            known = best_cross.get(target)
            if known is not None and known <= next_crossings:
                continue
            best_cross[target] = next_crossings
            extended = path + (PathEdge(*ends),)
            if target not in paths:
                paths[target] = extended
            queue.append((target, hops + 1, next_crossings, extended))
    affected = frozenset(
        cid.microservice for cid in paths if cid.microservice != d.microservice
    )
    return ImpactReport(
        direct=direct, indirect=dict(paths), affected_services=affected
    )


def _edge_doc(edge: PathEdge) -> dict:
    return {
        "kind": edge.kind,
        "fromComponentId": component_id_to_doc(edge.from_id),
        "toComponentId": component_id_to_doc(edge.to_id),
    }


def impact_report_to_doc(report: ImpactReport) -> dict:
    return {
        "schema": IMPACT_REPORT_SCHEMA,
        "direct": [
            component_id_to_doc(cid) for cid in sorted(report.direct, key=str)
        ],
        "indirect": [
            {
                "componentId": component_id_to_doc(cid),
                "path": [_edge_doc(e) for e in report.indirect[cid]],
            }
            for cid in sorted(report.indirect, key=str)
        ],
        "affectedServices": sorted(report.affected_services),
    }


def impact_graph_doc(report: ImpactReport) -> dict:
    """Node/edge list for external visualizers, tagged direct/indirect."""
    nodes = [
        {"componentId": component_id_to_doc(cid), "role": "direct"}
        for cid in sorted(report.direct, key=str)
    ] + [
        {"componentId": component_id_to_doc(cid), "role": "indirect"}
        for cid in sorted(report.indirect, key=str)
    ]
    edges = sorted(
        {edge for path in report.indirect.values() for edge in path},
        key=lambda e: (e.kind, str(e.from_id), str(e.to_id)),
    )
    return {
        "schema": "impact-graph@1",
        "nodes": nodes,
        "edges": [_edge_doc(e) for e in edges],
    }
