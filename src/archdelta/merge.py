"""Applying a delta to a system baseline: the increment.

Both operations hand the changed components to ``linker.relink``, which
carries the baseline's derived state forward instead of relinking from
scratch; the result is structurally identical to a full rebuild over the
updated services.
"""

from __future__ import annotations

from .delta import apply_to_service
from .errors import MergeError
from .linker import DEFAULT_OVERLAP_THRESHOLD, relink
from .model import (
    ChangeKind,
    Delta,
    MicroserviceIR,
    SystemIR,
    check_microservice_ir,
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
    check_microservice_ir(new_service)
    changed = d.change_ids()
    before = [old_service.components[c] for c in changed if c in old_service.components]
    after = [new_service.components[c] for c in changed if c in new_service.components]
    services = {**baseline.services, d.microservice: new_service}
    return relink(baseline, services, before, after, overlap_threshold)


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
    return relink(baseline, services, before, [], overlap_threshold)
