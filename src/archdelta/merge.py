"""Applying a delta to a system baseline: the increment.

Cross-service edges are maintained incrementally rather than relinked from
scratch.  The increment's link index is derived from the baseline's: only the
changed components' calls and the calls whose (verb, path) shape gained or
lost an endpoint are resolved again, and only their RemoteCall edges are
replaced.  DataOverlap edges are re-derived for changed entities alone, from
the overlap index, which is updated for those entities only.  The
incidence map (``ComponentId`` to its cross edges) follows from the dropped
and added edges; untouched services share their parts of both maps with the
baseline.  The result is structurally identical to a full rebuild over the
updated services.

Validation is scoped to what a change can break.  Untouched services are the
baseline's objects and surviving edges are the baseline's, so for a validated
baseline it suffices to validate the changed service, the ends of the added
edges, and, through the incidence map, that no surviving edge touches a
deleted component.  That equals ``validate_system_ir`` on the increment.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .delta import apply_to_service
from .errors import MergeError
from .linker import (
    DEFAULT_OVERLAP_THRESHOLD,
    LinkIndex,
    OverlapIndex,
    check_overlap_threshold,
    overlap_candidates,
    overlap_edges_for_pairs,
    remote_call_edges,
)
from .model import (
    ChangeKind,
    Component,
    Delta,
    EdgeKind,
    Incidence,
    MicroserviceIR,
    SystemIR,
    system_version_label,
    validate_cross_edges,
    validate_microservice_ir,
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
    validate_microservice_ir(new_service)
    changed = d.change_ids()
    before = [old_service.components[c] for c in changed if c in old_service.components]
    after = [new_service.components[c] for c in changed if c in new_service.components]
    services = {**baseline.services, d.microservice: new_service}
    return _relinked(baseline, services, before, after, overlap_threshold)


def remove_service(
    baseline: SystemIR,
    name: str,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> SystemIR:
    """Drop a whole service (its checkout disappeared from the system)."""
    service = baseline.services.get(name)
    if service is None:
        raise MergeError(f"cannot remove unknown service {name!r}")
    services = {n: ir for n, ir in baseline.services.items() if n != name}
    before = list(service.components.values())
    return _relinked(baseline, services, before, [], overlap_threshold)


def _relinked(
    baseline: SystemIR,
    services: Mapping[str, MicroserviceIR],
    before: Sequence[Component],
    after: Sequence[Component],
    overlap_threshold: float,
) -> SystemIR:
    """The system of ``services``: the baseline's with the components
    ``before`` replaced by ``after``, its derived state carried forward."""
    check_overlap_threshold(overlap_threshold)
    old_index = LinkIndex.of(baseline)
    index, rematched = old_index.updated(services, before, after)
    dropped = remote_call_edges(old_index, rematched)
    added = remote_call_edges(index, rematched)
    incidence = Incidence.of(baseline)
    overlap = OverlapIndex.of(baseline)
    # Data overlaps only change for pairs involving a changed entity; its
    # candidates come from the overlap index, in which it replaced itself.
    old_entities = [comp for comp in before if comp.entity_ref is not None]
    new_entities = [comp for comp in after if comp.entity_ref is not None]
    if old_entities or new_entities:
        overlap = overlap.updated(old_entities, new_entities)
        dropped |= {
            edge
            for comp in (*old_entities, *new_entities)
            for edge in incidence.edges(comp.id)
            if edge.kind is EdgeKind.DATA_OVERLAP
        }
        pairs = [
            (probe, other)
            for probe in ((comp.id, comp.entity_ref) for comp in new_entities)
            for other in overlap_candidates(overlap.postings, probe, overlap_threshold)
        ]
        added |= overlap_edges_for_pairs(pairs, overlap_threshold)

    incidence = incidence.updated(dropped, added)
    increment = SystemIR(
        version_label=system_version_label(services),
        services=services,
        cross_edges=(baseline.cross_edges - dropped) | added,
        link_index=index,
        incidence=incidence,
        overlap_index=overlap,
    )
    gone = {comp.id for comp in before}.difference(comp.id for comp in after)
    validate_cross_edges(increment, added.union(*map(incidence.edges, gone)))
    return increment
