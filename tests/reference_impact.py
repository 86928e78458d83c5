"""Whole-graph reference for ``archdelta.impact.impact_set``.

This is the traversal impact analysis used before it expanded nodes lazily:
it builds the adjacency of the entire system, every call edge reversed and
every cross edge both ways, then runs the same breadth-first search.  Steps
are sorted in the same total order as the lazy code: neighbour, edge kind,
then the edge's two ends.  Tests compare reports against it.
"""

from __future__ import annotations

from collections import deque

from archdelta.extractor import parse_call_target, type_name_parts
from archdelta.impact import DEFAULT_CROSS_SERVICE_HOPS, ImpactReport, PathEdge
from archdelta.model import ComponentId, Delta, EdgeKind, SystemIR

Step = tuple[ComponentId, PathEdge, bool]  # neighbour, edge, crosses service


def entity_usage_steps(system: SystemIR) -> dict[ComponentId, list[Step]]:
    """Edges from an entity to the same-service components referencing it."""
    steps: dict[ComponentId, list[Step]] = {}
    for name in system.services:
        service = system.services[name]
        entity_names = {
            comp.entity_ref.name: comp.id for comp, _ in service.entities()
        }
        if not entity_names:
            continue
        for comp in service.components.values():
            if comp.entity_ref is not None:
                continue
            mentioned: set[str] = set()
            for m in comp.methods:
                mentioned |= type_name_parts(m.return_type)
                for p in m.parameters:
                    mentioned |= type_name_parts(p.declared_type)
                for target in m.body_call_targets:
                    receiver, _, _ = parse_call_target(target)
                    if receiver:
                        mentioned.add(receiver)
            for entity_name, entity_id in entity_names.items():
                if entity_name in mentioned:
                    edge = PathEdge("entityUsage", entity_id, comp.id)
                    steps.setdefault(entity_id, []).append((comp.id, edge, False))
    return steps


def adjacency(
    system: SystemIR, include_data_overlap: bool, include_entity_usage: bool
) -> dict[ComponentId, list[Step]]:
    adj: dict[ComponentId, list[Step]] = {}

    def add(node: ComponentId, step: Step) -> None:
        adj.setdefault(node, []).append(step)

    for name in system.services:
        for caller, callee in system.services[name].call_graph_edges:
            # reversed: impact on the callee reaches its callers
            add(callee, (caller, PathEdge("call", caller, callee), False))
    for edge in system.cross_edges:
        if edge.kind is EdgeKind.DATA_OVERLAP and not include_data_overlap:
            continue
        kind = "remoteCall" if edge.kind is EdgeKind.REMOTE_CALL else "dataOverlap"
        path_edge = PathEdge(kind, edge.source, edge.target)
        add(edge.source, (edge.target, path_edge, True))
        add(edge.target, (edge.source, path_edge, True))
    if include_entity_usage:
        for entity_id, steps in entity_usage_steps(system).items():
            for step in steps:
                add(entity_id, step)
    for node in adj:
        adj[node].sort(
            key=lambda s: (str(s[0]), s[1].kind, str(s[1].from_id), str(s[1].to_id))
        )
    return adj


def impact_set(
    baseline: SystemIR,
    d: Delta,
    max_hops: int | None = None,
    *,
    cross_service_hops: int = DEFAULT_CROSS_SERVICE_HOPS,
    include_data_overlap: bool = True,
    include_entity_usage: bool = False,
) -> ImpactReport:
    direct = frozenset(d.change_ids())
    adj = adjacency(baseline, include_data_overlap, include_entity_usage)
    paths: dict[ComponentId, tuple[PathEdge, ...]] = {}
    best_cross: dict[ComponentId, int] = {cid: 0 for cid in direct}
    queue = deque((cid, 0, 0, ()) for cid in sorted(direct, key=str))
    while queue:
        node, hops, crossings, path = queue.popleft()
        if max_hops is not None and hops >= max_hops:
            continue
        for target, edge, crosses in adj.get(node, ()):
            next_crossings = crossings + (1 if crosses else 0)
            if next_crossings > cross_service_hops:
                continue
            if target in direct:
                continue
            known = best_cross.get(target)
            if known is not None and known <= next_crossings:
                continue
            best_cross[target] = next_crossings
            if target not in paths:
                paths[target] = path + (edge,)
            queue.append((target, hops + 1, next_crossings, path + (edge,)))
    affected = frozenset(
        cid.microservice for cid in paths if cid.microservice != d.microservice
    )
    return ImpactReport(direct=direct, indirect=paths, affected_services=affected)
