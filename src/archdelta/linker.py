"""Cross-service linking: remote-call matching and entity data overlaps.

This is the second dimension of the representation.  Matching is by
approximation (equal verb, equal normalized path, plus target-service
agreement when the call's host resolved); ambiguous matches are dropped
rather than guessed so that downstream impact traversal never follows an
invented edge.  Every system carries one ``LinkIndex`` holding where each call
resolves, which rules and reports read, and one ``OverlapIndex`` from field
names to entities, from which entity overlaps are found without comparing
every pair.  ``relink`` derives both, and the cross edges, from a baseline's
for a change of components; a full build is ``relink`` from the empty system.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import LinkError, UndefinedSimilarityError
from .model import (
    UNRESOLVED,
    Component,
    ComponentId,
    DependencyEdge,
    EdgeKind,
    Endpoint,
    Entity,
    Incidence,
    MicroserviceIR,
    OverlapEvidence,
    RemoteCallEvidence,
    RestCall,
    SystemIR,
    system_version_label,
    validate_cross_edges,
    validate_system_ir,
)

DEFAULT_OVERLAP_THRESHOLD = 0.5


def endpoint_sort_key(ep: Endpoint) -> tuple:
    return (
        ep.owning_component.microservice,
        str(ep.owning_component),
        ep.handler_method,
        ep.http_method,
        ep.path,
    )


Shape = tuple[str, str]  # (HTTP verb, normalized path)


def _shape(item: Endpoint | RestCall) -> Shape:
    return (item.http_method, item.path)


def _groups(endpoints: Iterable[Endpoint]) -> dict[Shape, tuple[Endpoint, ...]]:
    groups: dict[Shape, list[Endpoint]] = {}
    for ep in endpoints:
        groups.setdefault(_shape(ep), []).append(ep)
    return {s: tuple(sorted(g, key=endpoint_sort_key)) for s, g in groups.items()}


@dataclass(frozen=True)
class LinkIndex:
    """Where every rest call of a system resolves.

    Endpoint groups are keyed by shape and sorted by ``endpoint_sort_key``,
    system-wide in ``endpoints`` and per service in ``service_endpoints``.
    ``resolved`` maps each service's distinct calls to their endpoint (or
    None), ``callers`` each called endpoint to the distinct calls resolving
    to it (same-service calls included), ``unmatched`` holds the calls that
    resolve to nothing and ``uncalled`` the endpoints no call resolves to.
    Per-service mappings are never mutated, so an increment's index shares
    those of every service its delta left alone.
    """

    endpoints: Mapping[Shape, tuple[Endpoint, ...]]
    service_endpoints: Mapping[str, Mapping[Shape, tuple[Endpoint, ...]]]
    resolved: Mapping[str, Mapping[RestCall, Endpoint | None]]
    callers: Mapping[Endpoint, frozenset[RestCall]]
    unmatched: frozenset[RestCall]
    uncalled: frozenset[Endpoint]

    @classmethod
    def build(cls, services: Mapping[str, MicroserviceIR]) -> LinkIndex:
        """Index a system from scratch."""
        empty = cls({}, {}, {}, {}, frozenset(), frozenset())
        added = [comp for ir in services.values() for comp in ir.components.values()]
        return empty.updated(services, (), added)[0]

    @classmethod
    def of(cls, system: SystemIR) -> LinkIndex:
        """The system's index, built on first use and kept with the system."""
        if system.link_index is None:
            object.__setattr__(system, "link_index", cls.build(system.services))
        return system.link_index

    def resolve(self, call: RestCall) -> Endpoint | None:
        """The endpoint ``call`` matches in this index's system, if any."""
        if call.target_service == UNRESOLVED:
            candidates = self.endpoints.get(_shape(call), ())
            return candidates[0] if len(candidates) == 1 else None
        # Duplicate (verb, path) pairs within a service violate an invariant
        # the scanner already warned about; the sorted group resolves them
        # deterministically.
        own = self.service_endpoints.get(call.target_service, {})
        candidates = own.get(_shape(call))
        return candidates[0] if candidates else None

    def toggled(self, old: LinkIndex) -> tuple[set[RestCall], set[Endpoint]]:
        """The calls that entered or left ``unmatched`` from ``old`` to this
        index, and the endpoints that entered or left ``uncalled`` as calls
        started or stopped resolving to them; an endpoint that came or went
        is not looked for.

        Only a service whose resolutions the two indexes do not share can
        hold such a call, or a call that resolved to such an endpoint.  So
        for an index derived from ``old`` the work follows the change, not
        the system.
        """
        calls: set[RestCall] = set()
        endpoints: set[Endpoint] = set()
        for name in self.resolved.keys() | old.resolved.keys():
            was, now = old.resolved.get(name, {}), self.resolved.get(name, {})
            if was is not now:
                calls ^= {call for call, ep in was.items() if ep is None}
                calls ^= {call for call, ep in now.items() if ep is None}
                endpoints.update(ep for ep in was.values() if ep in self.uncalled)
                endpoints.update(ep for ep in now.values() if ep in old.uncalled)
        return calls, endpoints

    def updated(
        self,
        services: Mapping[str, MicroserviceIR],
        before: Sequence[Component],
        after: Sequence[Component],
    ) -> tuple[LinkIndex, set[RestCall]]:
        """The index of ``services``: this index's system with the components
        ``before`` replaced by ``after`` (either side may lack an id).  A
        service of ``before`` that ``services`` lacks is removed.

        Only two groups of calls are resolved again: those of the replaced
        components, and those whose shape gained or lost an endpoint, which
        covers ambiguity both appearing and resolving.  Returns the new index
        and those calls; every other call keeps its resolution.
        """
        changed = {comp.id for comp in (*before, *after)}
        names = {cid.microservice for cid in changed}
        service_endpoints = {n: self.service_endpoints.get(n, {}) for n in services}
        moved: set[Shape] = set()
        changed_groups: dict[Shape, list[Endpoint]] = {}
        for n in names:
            was = self.service_endpoints.get(n, {})
            if n in services:
                service_endpoints[n] = _groups(services[n].iter_endpoints())
            now = service_endpoints.get(n, {})
            moved.update(s for s in was.keys() | now.keys() if was.get(s) != now.get(s))
            for shape, group in now.items():
                changed_groups.setdefault(shape, []).extend(group)
        endpoints = dict(self.endpoints)
        for shape in moved:
            group = changed_groups.get(shape, [])
            group += (
                ep
                for ep in endpoints.get(shape, ())
                if ep.owning_component.microservice not in names
            )
            _put(endpoints, shape, tuple(sorted(group, key=endpoint_sort_key)))

        # A moved shape's matched calls are the callers of its old endpoints.
        affected = {
            call
            for shape in moved
            for ep in self.endpoints.get(shape, ())
            for call in self.callers.get(ep, ())
        }
        affected.update(call for call in self.unmatched if _shape(call) in moved)
        affected = {c for c in affected if c.owning_component not in changed}
        old = {
            call: self.resolved[call.owning_component.microservice][call]
            for call in affected.union(*(comp.rest_calls() for comp in before))
        }
        lookup = replace(
            self, endpoints=endpoints, service_endpoints=service_endpoints
        )
        new = {
            call: lookup.resolve(call)
            for call in affected.union(*(comp.rest_calls() for comp in after))
        }

        resolved = {n: self.resolved.get(n, {}) for n in services}
        for n in {call.owning_component.microservice for call in (*old, *new)}:
            if n in services:
                resolved[n] = dict(resolved[n])
        joined: dict[Endpoint | None, set[RestCall]] = {}  # None: unmatched
        for call in old:
            if call.owning_component.microservice in services:
                del resolved[call.owning_component.microservice][call]
        for call, ep in new.items():
            resolved[call.owning_component.microservice][call] = ep
            joined.setdefault(ep, set()).add(call)
        callers = dict(self.callers)
        recalled = {*old.values(), *joined} - {None}
        for ep in recalled:
            calls = callers.get(ep, frozenset()).difference(old)
            _put(callers, ep, calls | joined.get(ep, set()))
        unmatched = self.unmatched.difference(old) | joined.get(None, set())
        # Only an endpoint whose callers changed or whose component was
        # replaced can enter or leave the uncalled set.
        gone = {ep for comp in before for ep in comp.endpoints}
        present = {ep for comp in after for ep in comp.endpoints}
        candidates = recalled | gone | present
        uncalled = self.uncalled.difference(candidates) | {
            ep
            for ep in candidates
            if ep not in callers and (ep in present or ep not in gone)
        }
        index = replace(
            lookup,
            resolved=resolved,
            callers=callers,
            unmatched=unmatched,
            uncalled=uncalled,
        )
        return index, old.keys() | new.keys()


def _put(mapping: dict, key, value) -> None:
    """Store ``value`` under ``key``, or drop the key when ``value`` is empty."""
    if value:
        mapping[key] = value
    else:
        mapping.pop(key, None)


def match_call_to_endpoint(call: RestCall, system: SystemIR) -> Endpoint | None:
    """Match one remote call against the system's endpoints.

    A resolved call only considers its named service.  An unresolved call
    accepts a unique verb-plus-path match anywhere in the system; several
    candidates are ambiguous and match nothing.  No match is a legitimate
    outcome consumed by the rules.
    """
    return LinkIndex.of(system).resolve(call)


def entity_overlap(a: Entity, b: Entity) -> float:
    """Jaccard index of the lower-cased field-name sets."""
    fields_a = a.field_names
    fields_b = b.field_names
    if not fields_a or not fields_b:
        raise UndefinedSimilarityError(
            f"entity overlap undefined for empty field set ({a.name}, {b.name})"
        )
    return len(fields_a & fields_b) / len(fields_a | fields_b)


def remote_call_edges(
    index: LinkIndex, calls: Iterable[RestCall]
) -> frozenset[DependencyEdge]:
    """RemoteCall edges of those of ``calls`` the index holds: one per
    distinct call whose endpoint is in another service."""
    edges = set()
    for call in calls:
        source = call.owning_component
        endpoint = index.resolved.get(source.microservice, {}).get(call)
        target = endpoint.owning_component if endpoint else source
        if target.microservice == source.microservice:
            continue  # unmatched, or not a cross-service dependency
        edges.add(
            DependencyEdge(
                kind=EdgeKind.REMOTE_CALL,
                source=source,
                target=target,
                evidence=RemoteCallEvidence(rest_call=call, endpoint=endpoint),
            )
        )
    return frozenset(edges)


def check_overlap_threshold(threshold: float) -> None:
    """Reject a threshold no similarity compares with: NaN or an infinity."""
    if not math.isfinite(threshold):
        raise LinkError(f"overlap threshold must be a finite number, not {threshold!r}")


Member = tuple[ComponentId, Entity]  # an entity component: its id and its entity


@dataclass(frozen=True)
class OverlapIndex:
    """The entities holding each field name: where DataOverlap candidates
    come from.

    ``postings`` maps each lower-cased field name to the entity components
    holding it, as id to entity; an entity without fields appears nowhere.
    Postings are never mutated, so an increment's index shares every posting
    its change left alone.
    """

    postings: Mapping[str, Mapping[ComponentId, Entity]]

    @classmethod
    def of(cls, system: SystemIR) -> OverlapIndex:
        """The system's index, built on first use and kept with the system."""
        if system.overlap_index is None:
            postings: dict[str, dict[ComponentId, Entity]] = {}
            for ir in system.services.values():
                for comp, entity in ir.entities():
                    for name in entity.field_names:
                        postings.setdefault(name, {})[comp.id] = entity
            object.__setattr__(system, "overlap_index", cls(postings))
        return system.overlap_index


@functools.lru_cache(maxsize=4096)
def _fewest_shared(size_a: int, size_b: int, threshold: float) -> int:
    """The fewest shared fields with which entities of these sizes pass the
    overlap test, ``size_a + 1`` when none does.  Found by the test itself
    (shared over union, compared in floating point), so the count filter and
    the final decision cannot round apart."""
    return next(
        (
            shared
            for shared in range(min(size_a, size_b) + 1)
            if not shared / (size_a + size_b - shared) < threshold
        ),
        size_a + 1,
    )


def overlap_candidates(
    postings: Mapping[str, Mapping[ComponentId, Entity]],
    probe: Member,
    threshold: float,
) -> list[Member]:
    """The entities of ``postings`` outside the probe's service whose count
    of fields shared with the probe entity could pass the overlap test.

    No true pair is lost.  A partner that passes shares at least ``fewest``
    of the probe's ``n`` fields, so it holds one of any ``n - fewest + 1`` of
    them: only the postings of that many fields are read, the rarest first.
    A threshold of at most 0 passes pairs that share no field, so then every
    posting is read.
    """
    cid, entity = probe
    fields = entity.field_names
    n = len(fields)
    if not n:
        return []  # empty entities are excluded from overlap analysis
    fewest = next((c for c in range(n + 1) if not c / n < threshold), None)
    if fewest is None:
        return []  # a threshold above 1: no pair reaches it
    if fewest:
        rarest = sorted(fields, key=lambda name: (len(postings.get(name, ())), name))
        parts = [postings.get(name, {}) for name in rarest[: n - fewest + 1]]
    else:
        parts = list(postings.values())
    seen: dict[ComponentId, Entity] = {}
    for part in parts:
        seen.update(part)
    return [
        (other, partner)
        for other, partner in seen.items()
        if other.microservice != cid.microservice
        and len(fields & partner.field_names)
        >= _fewest_shared(n, len(partner.field_names), threshold)
    ]


def overlap_edge(a: Member, b: Member) -> DependencyEdge:
    """The DataOverlap edge of two entities at their overlap, whatever it is:
    its source is the end whose id sorts first by ``str``."""
    (source, ent_a), (target, ent_b) = (b, a) if str(b[0]) < str(a[0]) else (a, b)
    evidence = OverlapEvidence(similarity=entity_overlap(ent_a, ent_b))
    return DependencyEdge(EdgeKind.DATA_OVERLAP, source, target, evidence)


def overlap_edges_for_pairs(
    pairs: Iterable[tuple[Member, Member]], threshold: float
) -> set[DependencyEdge]:
    """DataOverlap edges of the candidate pairs that pass the overlap test."""
    edges = (overlap_edge(a, b) for a, b in pairs)
    return {edge for edge in edges if edge.evidence.similarity >= threshold}


def data_overlap_edges(
    index: OverlapIndex,
    before: Sequence[Component],
    after: Sequence[Component],
    threshold: float,
) -> tuple[OverlapIndex, frozenset[DependencyEdge]]:
    """``index`` with the entities of ``before`` replaced by those of
    ``after``, and the DataOverlap edges of the entities of ``after``.

    Only the postings of their fields are copied.  Each entity of ``after``
    is paired with its candidates among those indexed before it, then
    indexed itself, so every pair is verified once.
    """
    gone = [(c.id, c.entity_ref) for c in before if c.entity_ref is not None]
    new = [(c.id, c.entity_ref) for c in after if c.entity_ref is not None]
    touched = {name for _, entity in gone + new for name in entity.field_names}
    postings = dict(index.postings)
    for name in touched:
        postings[name] = dict(postings.get(name, {}))
    for cid, entity in gone:
        for name in entity.field_names:
            del postings[name][cid]
    pairs = []
    for probe in new:
        pairs += [
            (probe, other) for other in overlap_candidates(postings, probe, threshold)
        ]
        cid, entity = probe
        for name in entity.field_names:
            postings[name][cid] = entity
    for name in touched:
        if not postings[name]:
            del postings[name]
    return OverlapIndex(postings), frozenset(overlap_edges_for_pairs(pairs, threshold))


# The empty system, from which a build relinks.
EMPTY_SYSTEM = SystemIR("", {}, frozenset())


def relink(
    baseline: SystemIR,
    services: Mapping[str, MicroserviceIR],
    before: Sequence[Component],
    after: Sequence[Component],
    overlap_threshold: float,
) -> SystemIR:
    """The system of ``services``: the baseline's with the components
    ``before`` replaced by ``after``, its derived state carried forward.

    Only the calls ``LinkIndex.updated`` resolves again and the changed
    entities have their edges replaced; the incidence map follows from the
    dropped and added edges.  Untouched services share their parts of every
    map with the baseline.

    Validation is scoped to what the change can break.  Untouched services
    are the baseline's objects and surviving edges are the baseline's, so for
    a validated baseline it suffices to validate the changed services (the
    caller's part), the ends of the added edges, and, through the incidence
    map, that no surviving edge touches a deleted component.  That equals
    ``validate_system_ir`` on the result.
    """
    check_overlap_threshold(overlap_threshold)
    old_index = LinkIndex.of(baseline)
    index, rematched = old_index.updated(services, before, after)
    dropped = remote_call_edges(old_index, rematched)
    added = remote_call_edges(index, rematched)
    overlap, overlap_edges = data_overlap_edges(
        OverlapIndex.of(baseline), before, after, overlap_threshold
    )
    added |= overlap_edges
    incidence = None  # a build leaves its incidence to be built on first use
    if baseline is not EMPTY_SYSTEM:
        incidence = Incidence.of(baseline)
        dropped |= {
            edge
            for comp in before
            if comp.entity_ref is not None
            for edge in incidence.edges(comp.id)
            if edge.kind is EdgeKind.DATA_OVERLAP
        }
        incidence = incidence.updated(dropped, added)
    increment = SystemIR(
        version_label=system_version_label(services),
        services=services,
        cross_edges=(baseline.cross_edges - dropped) | added,
        link_index=index,
        incidence=incidence,
        overlap_index=overlap,
    )
    if incidence is not None:  # a build validates the whole system itself
        gone = {comp.id for comp in before}.difference(comp.id for comp in after)
        validate_cross_edges(increment, added.union(*map(incidence.edges, gone)))
    return increment


def build_system_ir(
    services: Iterable[MicroserviceIR],
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    version_label: str | None = None,
) -> SystemIR:
    """Combine per-service representations into one linked system: the
    increment of the empty system that adds every component.

    Output is independent of input ordering.  When no label is given it is
    rendered from the per-service version ids.
    """
    service_map: dict[str, MicroserviceIR] = {}
    for ir in services:
        if ir.name in service_map:
            raise LinkError(f"duplicate service name {ir.name!r}")
        service_map[ir.name] = ir
    added = [comp for ir in service_map.values() for comp in ir.components.values()]
    system = relink(EMPTY_SYSTEM, service_map, (), added, overlap_threshold)
    if version_label is not None:
        system = replace(system, version_label=version_label)
    validate_system_ir(system)
    return system


# ---------------------------------------------------------------------------
# Link reporting (feeds the IC/UEM rules and the CLI report)
# ---------------------------------------------------------------------------


def _call_key(call: RestCall) -> tuple:
    return (
        str(call.owning_component),
        call.http_method,
        call.target_service,
        call.path,
    )


def distinct_unmatched(comp: Component, unmatched: frozenset[RestCall]) -> list[RestCall]:
    """The component's calls in ``unmatched``, in method order.  Calls
    differing only in their site count once, as the first of them."""
    seen: set[tuple] = set()
    out = []
    for m in comp.methods:
        for call in m.rest_calls:
            if call in unmatched and _call_key(call) not in seen:
                seen.add(_call_key(call))
                out.append(call)
    return out


def call_sort_key(call: RestCall) -> tuple:
    return (str(call.owning_component), call.signature(), call.site_method)


def unmatched_calls(system: SystemIR) -> list[RestCall]:
    """Distinct rest calls with no matching endpoint anywhere in the system,
    as ``distinct_unmatched`` counts them."""
    unmatched = LinkIndex.of(system).unmatched
    out = [
        call
        for cid in {call.owning_component for call in unmatched}
        for call in distinct_unmatched(system.component(cid), unmatched)
    ]
    out.sort(key=call_sort_key)
    return out


def uncalled_endpoints(system: SystemIR) -> list[Endpoint]:
    """Endpoints matched by zero rest calls system-wide."""
    uncalled = LinkIndex.of(system).uncalled
    out = [
        ep
        for cid in {ep.owning_component for ep in uncalled}
        for ep in system.component(cid).endpoints
        if ep in uncalled
    ]
    out.sort(key=endpoint_sort_key)
    return out


def link_report(system: SystemIR) -> dict:
    """The counts ``archdelta link`` prints: matched and unmatched calls,
    uncalled endpoints, and cross edges of each kind."""
    matched = {
        _call_key(call): endpoint is not None
        for part in LinkIndex.of(system).resolved.values()
        for call, endpoint in part.items()
    }
    matched_count = sum(matched.values())
    kinds = Counter(e.kind for e in system.cross_edges)
    return {
        "matchedCalls": matched_count,
        "unmatchedCalls": len(matched) - matched_count,
        "uncalledEndpoints": len(uncalled_endpoints(system)),
        "remoteCallEdges": kinds[EdgeKind.REMOTE_CALL],
        "dataOverlapEdges": kinds[EdgeKind.DATA_OVERLAP],
    }
