"""Applying a delta to a system baseline: the increment.

Cross-service edges are maintained incrementally rather than relinked from
scratch.  The increment's link index is derived from the baseline's: only the
changed components' calls and the calls whose (verb, path) shape gained or
lost an endpoint are resolved again, and only their RemoteCall edges are
replaced.  DataOverlap edges are re-derived for changed entities alone.  The
result is structurally identical to a full rebuild over the updated services.
"""

from __future__ import annotations

from .delta import apply_to_service
from .errors import MergeError
from .linker import (
    DEFAULT_OVERLAP_THRESHOLD,
    LinkIndex,
    overlap_edges_for_pairs,
    remote_call_edges,
)
from .model import (
    ChangeKind,
    Delta,
    EdgeKind,
    MicroserviceIR,
    SystemIR,
    system_version_label,
    validate_system_ir,
)


def apply_delta(
    baseline: SystemIR,
    d: Delta,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> SystemIR:
    """Produce the next system version from a baseline and one delta."""
    old_service = baseline.services.get(d.microservice)
    if old_service is None:
        if any(ch.kind is not ChangeKind.ADD for ch in d.changes):
            raise MergeError(
                f"delta targets unknown service {d.microservice!r} "
                "and is not purely additive"
            )
        old_service = MicroserviceIR(d.microservice, d.old_version_id, {}, frozenset())
    new_service = apply_to_service(old_service, d)
    services = dict(baseline.services)
    services[d.microservice] = new_service

    changed = d.change_ids()
    before = [old_service.components[c] for c in changed if c in old_service.components]
    after = [new_service.components[c] for c in changed if c in new_service.components]
    old_index = LinkIndex.of(baseline)
    index, rematched = old_index.updated(services, before, after)

    dropped = remote_call_edges(old_index, rematched)
    added = remote_call_edges(index, rematched)
    # Data overlaps only change for pairs involving a changed entity.
    entities = {comp.id for comp in (*before, *after) if comp.entity_ref is not None}
    if entities:
        dropped |= {
            edge
            for edge in baseline.cross_edges
            if edge.kind is EdgeKind.DATA_OVERLAP
            and (edge.source in entities or edge.target in entities)
        }
        others = [comp for ir in services.values() for comp, _ in ir.entities()]
        pairs = [
            (a, b)
            for a in after
            if a.entity_ref is not None
            for b in others
            if a.id.microservice != b.id.microservice
        ]
        added |= overlap_edges_for_pairs(pairs, overlap_threshold)

    increment = SystemIR(
        version_label=system_version_label(services),
        services=services,
        cross_edges=(baseline.cross_edges - dropped) | added,
        link_index=index,
    )
    validate_system_ir(increment)
    return increment


def remove_service(
    baseline: SystemIR,
    name: str,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> SystemIR:
    """Drop a whole service (its checkout disappeared from the system)."""
    service = baseline.services.get(name)
    if service is None:
        raise MergeError(f"cannot remove unknown service {name!r}")
    from .model import ComponentChange  # local import to keep module surface tidy

    all_deletes = Delta(
        microservice=name,
        old_version_id=service.version_id,
        new_version_id=f"{service.version_id}-removed",
        changes=tuple(
            ComponentChange(
                kind=ChangeKind.DELETE,
                component_id=cid,
                old_content_hash=service.components[cid].content_hash,
            )
            for cid in sorted(service.components)
        ),
    )
    increment = apply_delta(baseline, all_deletes, overlap_threshold)
    services = {k: v for k, v in increment.services.items() if k != name}
    system = SystemIR(
        version_label=system_version_label(services),
        services=services,
        cross_edges=increment.cross_edges,
    )
    validate_system_ir(system)
    return system
