"""Component-level deltas between two versions of one microservice.

A delta is the ordered ADD/MODIFY/DELETE difference under name-based
identity; components whose content hashes agree are absent from it.
Deltas along one version chain compose, and applying a delta is the inverse
of computing it: apply(old, compute(old, new)) reproduces new.
"""

from __future__ import annotations

from .errors import DeltaError, MergeError, StaleBaselineError
from .extractor import resolve_call_graph
from .model import (
    ChangeKind,
    Component,
    ComponentChange,
    ComponentId,
    Delta,
    MicroserviceIR,
    make_delta,
)


def empty_delta(microservice: str, version_id: str) -> Delta:
    return Delta(microservice, version_id, version_id, ())


def compute_delta(old_ir: MicroserviceIR, new_ir: MicroserviceIR) -> Delta:
    """Difference between two versions of the same service."""
    if old_ir.name != new_ir.name:
        raise DeltaError(
            f"cannot diff different services: {old_ir.name!r} vs {new_ir.name!r}"
        )
    changes: list[ComponentChange] = []
    old_ids = set(old_ir.components)
    new_ids = set(new_ir.components)
    for cid in new_ids - old_ids:
        changes.append(
            ComponentChange(
                kind=ChangeKind.ADD,
                component_id=cid,
                new_component=new_ir.components[cid],
            )
        )
    for cid in old_ids - new_ids:
        changes.append(
            ComponentChange(
                kind=ChangeKind.DELETE,
                component_id=cid,
                old_content_hash=old_ir.components[cid].content_hash,
            )
        )
    for cid in old_ids & new_ids:
        old_comp = old_ir.components[cid]
        new_comp = new_ir.components[cid]
        if old_comp.content_hash != new_comp.content_hash:
            changes.append(
                ComponentChange(
                    kind=ChangeKind.MODIFY,
                    component_id=cid,
                    new_component=new_comp,
                    old_content_hash=old_comp.content_hash,
                )
            )
    return make_delta(old_ir.name, old_ir.version_id, new_ir.version_id, changes)


def apply_to_service(ir: MicroserviceIR, delta: Delta) -> MicroserviceIR:
    """Apply a delta to one service representation.

    The component map is updated per change kind and the intra-service call
    graph is re-derived from the resulting component set.
    """
    if ir.name != delta.microservice:
        raise DeltaError(
            f"delta for {delta.microservice!r} applied to service {ir.name!r}"
        )
    components: dict[ComponentId, Component] = dict(ir.components)
    for change in delta.changes:
        cid = change.component_id
        if change.kind is ChangeKind.ADD:
            if cid in components:
                raise MergeError(f"ADD of already-present component {cid}")
        elif cid not in components:
            raise MergeError(f"{change.kind.value} of unknown component {cid}")
        elif components[cid].content_hash != change.old_content_hash:
            raise StaleBaselineError(
                f"{change.kind.value} of {cid}: baseline hash "
                f"{components[cid].content_hash[:12]} does not match recorded "
                f"{str(change.old_content_hash)[:12]}"
            )
        if change.kind is ChangeKind.DELETE:
            del components[cid]
        else:
            components[cid] = change.new_component
    return MicroserviceIR(
        name=ir.name,
        version_id=delta.new_version_id,
        components=components,
        call_graph_edges=resolve_call_graph(components),
    )


def _compose_pair(
    first: ComponentChange | None, second: ComponentChange | None
) -> ComponentChange | None:
    if first is None:
        return second
    if second is None:
        return first
    cid = first.component_id
    k1, k2 = first.kind, second.kind
    if k1 is ChangeKind.ADD:
        if k2 is ChangeKind.MODIFY:
            return ComponentChange(
                ChangeKind.ADD, cid, new_component=second.new_component
            )
        if k2 is ChangeKind.DELETE:
            return None
    elif k1 is ChangeKind.MODIFY:
        if k2 is ChangeKind.MODIFY:
            return ComponentChange(
                ChangeKind.MODIFY,
                cid,
                new_component=second.new_component,
                old_content_hash=first.old_content_hash,
            )
        if k2 is ChangeKind.DELETE:
            return ComponentChange(
                ChangeKind.DELETE, cid, old_content_hash=first.old_content_hash
            )
    elif k1 is ChangeKind.DELETE:
        if k2 is ChangeKind.ADD:
            if second.new_component.content_hash == first.old_content_hash:
                return None  # deleted and re-added unchanged
            return ComponentChange(
                ChangeKind.MODIFY,
                cid,
                new_component=second.new_component,
                old_content_hash=first.old_content_hash,
            )
    raise DeltaError(
        f"invalid change sequence {k1.value} then {k2.value} for {cid}"
    )


def compose_deltas(d1: Delta, d2: Delta) -> Delta:
    """Compose two chained deltas into one spanning delta.

    Applying the composition to a baseline gives the same result as applying
    the two deltas in sequence.
    """
    if d1.microservice != d2.microservice:
        raise DeltaError(
            f"cannot compose deltas of different services: "
            f"{d1.microservice!r} vs {d2.microservice!r}"
        )
    if d1.new_version_id != d2.old_version_id:
        raise DeltaError(
            f"version chain mismatch: {d1.new_version_id!r} != {d2.old_version_id!r}"
        )
    by_id_1 = {c.component_id: c for c in d1.changes}
    by_id_2 = {c.component_id: c for c in d2.changes}
    merged: list[ComponentChange] = []
    for cid in set(by_id_1) | set(by_id_2):
        combined = _compose_pair(by_id_1.get(cid), by_id_2.get(cid))
        if combined is not None:
            merged.append(combined)
    return make_delta(d1.microservice, d1.old_version_id, d2.new_version_id, merged)
