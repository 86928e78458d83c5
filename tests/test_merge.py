from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_overlap import reference_overlap_edges
from strategies import LINK_SERVICES, linked_irs, relinked

from archdelta.delta import compute_delta, empty_delta
from archdelta.documents import serialize_ir, serialize_microservice_ir
from archdelta.errors import LinkError, MergeError, StaleBaselineError
from archdelta.extractor import scan_repository
from archdelta.linker import (
    LinkIndex,
    OverlapIndex,
    build_system_ir,
    match_call_to_endpoint,
    unmatched_calls,
)
from archdelta.merge import apply_delta, remove_service
from archdelta.model import (
    UNRESOLVED,
    ChangeKind,
    ComponentChange,
    ComponentType,
    Delta,
    DependencyEdge,
    EdgeKind,
    Entity,
    EntityField,
    Incidence,
    MicroserviceIR,
    OverlapEvidence,
    component_id,
    ir_content_digest,
    make_component,
    validate_system_ir,
)
from archdelta.profiles import default_profile

PROFILE = default_profile()
SERVICES = ("ts-order", "ts-station", "ts-user")


def _extract(version_root, name):
    ir = scan_repository(version_root / name, PROFILE, name, "")
    return type(ir)(
        name=ir.name,
        version_id=ir_content_digest(ir),
        components=ir.components,
        call_graph_edges=ir.call_graph_edges,
    )


def _system(version_root):
    return build_system_ir([_extract(version_root, name) for name in SERVICES])


def test_empty_delta_is_identity_modulo_label(history_versions):
    base = _system(history_versions[0])
    service_version = base.services["ts-order"].version_id
    increment = apply_delta(base, empty_delta("ts-order", service_version))
    assert serialize_ir(increment) == serialize_ir(base)


def test_deleting_called_endpoint_drops_edge_and_unmatches_call(history_versions):
    base = _system(history_versions[1])
    old = base.services["ts-station"]
    new = _extract(history_versions[2], "ts-station")
    d = compute_delta(old, new)
    increment = apply_delta(base, d)
    remote_targets = {
        e.target.microservice
        for e in increment.cross_edges
        if e.kind is EdgeKind.REMOTE_CALL
    }
    assert "ts-station" not in remote_targets
    dangling = unmatched_calls(increment)
    assert [c.target_service for c in dangling] == ["ts-station"]


def test_full_reconstruction_equivalence_stepwise(history_versions):
    baseline = _system(history_versions[0])
    for prev, current in zip(history_versions, history_versions[1:]):
        for name in SERVICES:
            old = baseline.services[name]
            new = _extract(current, name)
            if old.version_id == new.version_id:
                continue
            baseline = apply_delta(baseline, compute_delta(old, new))
            validate_system_ir(baseline)
        assert serialize_ir(baseline) == serialize_ir(_system(current))


def test_locality_of_untouched_services(history_versions):
    base = _system(history_versions[0])
    d = compute_delta(
        base.services["ts-order"], _extract(history_versions[1], "ts-order")
    )
    increment = apply_delta(base, d)
    for name in ("ts-station", "ts-user"):
        assert serialize_microservice_ir(increment.services[name]) == (
            serialize_microservice_ir(base.services[name])
        )
        # their parts of the link index are shared, not copied
        old_index, new_index = LinkIndex.of(base), LinkIndex.of(increment)
        assert new_index.service_endpoints[name] is old_index.service_endpoints[name]
        assert new_index.resolved[name] is old_index.resolved[name]


def test_added_endpoint_satisfies_dangling_call(history_versions):
    base = _system(history_versions[3])  # the station endpoint is still gone
    assert len(unmatched_calls(base)) == 1
    d = compute_delta(
        base.services["ts-station"], _extract(history_versions[4], "ts-station")
    )
    increment = apply_delta(base, d)
    assert unmatched_calls(increment) == []
    assert any(
        e.target.microservice == "ts-station"
        for e in increment.cross_edges
        if e.kind is EdgeKind.REMOTE_CALL
    )


def test_new_service_from_pure_add_delta(history_versions):
    base = _system(history_versions[0])
    extra = _extract(history_versions[0], "ts-user")
    renamed = type(extra)(
        name="ts-user-copy",
        version_id="copy",
        components={},
        call_graph_edges=frozenset(),
    )
    d = Delta("ts-user-copy", "", "copy", ())
    increment = apply_delta(base, d)
    assert "ts-user-copy" in increment.services
    assert increment.services["ts-user-copy"].components == {}
    del renamed


def test_non_additive_delta_for_unknown_service_is_rejected(history_versions):
    base = _system(history_versions[0])
    victim = next(iter(base.services["ts-order"].components.values()))
    d = Delta(
        "no-such-service",
        "v0",
        "v1",
        (
            ComponentChange(
                ChangeKind.DELETE,
                type(victim.id)(
                    "no-such-service", victim.id.component_type, "x.Y"
                ),
                old_content_hash="0" * 64,
            ),
        ),
    )
    with pytest.raises(MergeError):
        apply_delta(base, d)


def test_stale_baseline_is_detected_at_system_level(history_versions):
    v1 = _system(history_versions[1])
    v0_order = _extract(history_versions[0], "ts-order")
    v1_order = _extract(history_versions[1], "ts-order")
    stale = compute_delta(v0_order, v1_order)  # already applied in v1
    with pytest.raises(StaleBaselineError):
        apply_delta(v1, stale)


def _controller_ir(name: str, qname: str, verb: str, path: str):
    from archdelta.model import (
        Endpoint,
        MicroserviceIR,
        component_id,
        make_component,
    )

    cid = component_id(name, ComponentType.CONTROLLER, qname)
    comp = make_component(
        cid,
        endpoints=[Endpoint(verb, path, "handle", cid)],
        source_path="Api.java",
    )
    return MicroserviceIR(name, "v0", {cid: comp}, frozenset())


def _caller_ir(name: str, target: str, verb: str, path: str):
    from archdelta.model import (
        Method,
        MicroserviceIR,
        RestCall,
        component_id,
        make_component,
        method_content_hash,
    )

    cid = component_id(name, ComponentType.SERVICE, f"{name}.Caller")
    comp = make_component(
        cid,
        methods=[
            Method(
                name="go",
                rest_calls=(
                    RestCall(verb, target, path, f"{name}.Caller.go", cid),
                ),
                content_hash=method_content_hash("go();"),
            )
        ],
        source_path="Caller.java",
    )
    return MicroserviceIR(name, "v0", {cid: comp}, frozenset())


def _increment_equals_rebuild(baseline, delta):
    increment = apply_delta(baseline, delta)
    rebuilt = build_system_ir(list(increment.services.values()))
    assert serialize_ir(increment) == serialize_ir(rebuilt)
    return increment


def test_added_endpoint_creates_ambiguity_and_drops_edge():
    # an unresolved call uniquely matched to svc-a; a same-shape endpoint
    # appearing in svc-b makes the match ambiguous, so the edge must go
    from archdelta.model import UNRESOLVED

    provider_a = _controller_ir("svc-a", "a.Api", "GET", "/shared/{*}")
    empty_b = type(provider_a)("svc-b", "v0", {}, frozenset())
    caller = _caller_ir("svc-c", UNRESOLVED, "GET", "/shared/{*}")
    baseline = build_system_ir([provider_a, empty_b, caller])
    assert len(baseline.cross_edges) == 1

    provider_b = _controller_ir("svc-b", "b.Api", "GET", "/shared/{*}")
    d = compute_delta(empty_b, provider_b)
    increment = _increment_equals_rebuild(baseline, d)
    assert increment.cross_edges == frozenset()


def test_deleting_one_candidate_resolves_ambiguity():
    from archdelta.model import UNRESOLVED

    provider_a = _controller_ir("svc-a", "a.Api", "GET", "/shared/{*}")
    provider_b = _controller_ir("svc-b", "b.Api", "GET", "/shared/{*}")
    caller = _caller_ir("svc-c", UNRESOLVED, "GET", "/shared/{*}")
    baseline = build_system_ir([provider_a, provider_b, caller])
    assert baseline.cross_edges == frozenset()  # two candidates: ambiguous

    gone_b = type(provider_b)("svc-b", "v1", {}, frozenset())
    d = compute_delta(baseline.services["svc-b"], gone_b)
    increment = _increment_equals_rebuild(baseline, d)
    assert len(increment.cross_edges) == 1
    edge = next(iter(increment.cross_edges))
    assert edge.target.microservice == "svc-a"


def test_same_service_duplicate_endpoint_rematches_deterministically():
    # a second component in the target service declaring the same shape:
    # the match must settle on the same winner as a full rebuild
    from archdelta.model import (
        Endpoint,
        MicroserviceIR,
        component_id,
        make_component,
    )

    provider = _controller_ir("svc-a", "a.ZApi", "GET", "/shared/{*}")
    caller = _caller_ir("svc-c", "svc-a", "GET", "/shared/{*}")
    baseline = build_system_ir([provider, caller])
    assert len(baseline.cross_edges) == 1

    twin_id = component_id("svc-a", ComponentType.CONTROLLER, "a.AApi")
    twin = make_component(
        twin_id,
        endpoints=[Endpoint("GET", "/shared/{*}", "handle", twin_id)],
        source_path="AApi.java",
    )
    service = baseline.services["svc-a"]
    grown = MicroserviceIR(
        name="svc-a",
        version_id="v1",
        components={**service.components, twin_id: twin},
        call_graph_edges=service.call_graph_edges,
    )
    d = compute_delta(service, grown)
    increment = _increment_equals_rebuild(baseline, d)
    [edge] = list(increment.cross_edges)
    assert edge.target == twin_id  # sorted tie-break prefers a.AApi


def test_remove_service_drops_its_edges(history_versions):
    base = _system(history_versions[0])
    trimmed = remove_service(base, "ts-station")
    assert "ts-station" not in trimmed.services
    for edge in trimmed.cross_edges:
        assert "ts-station" not in (
            edge.source.microservice,
            edge.target.microservice,
        )
    # the order service call now dangles
    assert [c.target_service for c in unmatched_calls(trimmed)] == ["ts-station"]


def _linear_match(call, services):
    """Reference matcher: a linear scan over the endpoints of the system.

    A resolved host considers only its own service, where duplicate shapes
    resolve to the smallest endpoint; an unresolved host needs a unique
    candidate system-wide.
    """

    def same_shape(service):
        return [
            ep
            for ep in service.iter_endpoints()
            if ep.http_method == call.http_method and ep.path == call.path
        ]

    if call.target_service != UNRESOLVED:
        service = services.get(call.target_service)
        candidates = same_shape(service) if service is not None else []
        return min(
            candidates,
            key=lambda ep: (
                ep.owning_component.microservice,
                str(ep.owning_component),
                ep.handler_method,
                ep.http_method,
                ep.path,
            ),
            default=None,
        )
    candidates = [ep for name in sorted(services) for ep in same_shape(services[name])]
    return candidates[0] if len(candidates) == 1 else None


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_increment_link_index_equals_rebuild(data):
    # Endpoints come and go on a few shared shapes, so unresolved calls turn
    # ambiguous and unique again and services hold duplicate shapes.  Some
    # chains start from the empty system.
    start = data.draw(st.sampled_from([LINK_SERVICES, ()]))
    system = build_system_ir([data.draw(linked_irs(name)) for name in start])
    for step in range(1, data.draw(st.integers(1, 6)) + 1):
        name = data.draw(st.sampled_from(LINK_SERVICES))
        if name in system.services and data.draw(st.sampled_from("ddddr")) == "r":
            system = remove_service(system, name)
        else:
            current = system.services.get(name) or MicroserviceIR(
                name, "", {}, frozenset()
            )
            successor = data.draw(relinked(current, f"v{step}"))
            system = apply_delta(system, compute_delta(current, successor))
        # apply_delta validates only what the step can break; check it all
        validate_system_ir(system)
        rebuilt = build_system_ir(list(system.services.values()))
        assert serialize_ir(system) == serialize_ir(rebuilt)
        assert LinkIndex.of(system) == LinkIndex.build(system.services)
        assert system.incidence == Incidence.of(replace(system, incidence=None))
        for call in system.iter_rest_calls():
            assert match_call_to_endpoint(call, system) == _linear_match(
                call, system.services
            )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_carried_overlap_index_equals_rebuild(data):
    """At every step of a link-churn chain the overlap index carried forward
    equals one built fresh, and the DataOverlap edges equal the all-pairs
    reference's, at thresholds that link every pair, none, and between.  Some
    chains start from the empty system."""
    threshold = data.draw(st.sampled_from([-0.5, 0.0, 0.3, 1 / 3, 0.5, 1.0, 1.5]))
    start = data.draw(st.sampled_from([LINK_SERVICES, ()]))
    system = build_system_ir([data.draw(linked_irs(name)) for name in start], threshold)
    for step in range(1, data.draw(st.integers(1, 6)) + 1):
        name = data.draw(st.sampled_from(LINK_SERVICES))
        if name in system.services and data.draw(st.sampled_from("ddddr")) == "r":
            system = remove_service(system, name, threshold)
        else:
            current = system.services.get(name) or MicroserviceIR(
                name, "", {}, frozenset()
            )
            successor = data.draw(relinked(current, f"v{step}"))
            system = apply_delta(system, compute_delta(current, successor), threshold)
        carried = system.overlap_index
        assert carried is not None
        assert carried == OverlapIndex.of(replace(system, overlap_index=None))
        rebuilt = build_system_ir(system.services.values(), threshold)
        assert carried == rebuilt.overlap_index
        overlaps = {e for e in system.cross_edges if e.kind is EdgeKind.DATA_OVERLAP}
        assert overlaps == reference_overlap_edges(system.services, threshold)


def test_entity_commit_shares_untouched_postings():
    def service(name, fields):
        cid = component_id(name, ComponentType.ENTITY, f"{name}.Item")
        entity = Entity("Item", tuple(EntityField(f, "String") for f in fields))
        comps = {cid: make_component(cid, entity_ref=entity)}
        return MicroserviceIR(name, "v0", comps, frozenset())

    base = build_system_ir(
        [
            service("a", ["id", "name"]),
            service("b", ["id", "name"]),
            service("c", ["id", "total"]),
        ]
    )
    increment = apply_delta(
        base, compute_delta(base.services["a"], service("a", ["id", "owner"]))
    )
    old, new = base.overlap_index.postings, increment.overlap_index.postings
    assert new["total"] is old["total"]  # no field of the change
    assert new["id"] is not old["id"]  # the changed entity is replaced in it
    assert set(new["name"]) == {component_id("b", ComponentType.ENTITY, "b.Item")}
    assert set(new["owner"]) == {component_id("a", ComponentType.ENTITY, "a.Item")}
    assert increment.cross_edges == reference_overlap_edges(increment.services, 0.5)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_non_finite_overlap_threshold_is_rejected(history_versions, threshold):
    base = _system(history_versions[0])
    successor = _extract(history_versions[1], "ts-order")
    d = compute_delta(base.services["ts-order"], successor)
    with pytest.raises(LinkError, match="finite"):
        apply_delta(base, d, threshold)
    with pytest.raises(LinkError, match="finite"):
        remove_service(base, "ts-station", threshold)


def _stale_edge_baseline():
    """A validated system holding a cross edge its link index knows nothing
    of: deleting the edge's source leaves the edge pointing at nothing."""
    provider = _controller_ir("svc-a", "a.Api", "GET", "/x")
    caller = _caller_ir("svc-c", "svc-a", "GET", "/x")
    base = build_system_ir([provider, caller])
    [api] = provider.components
    [source] = caller.components
    stale = DependencyEdge(EdgeKind.DATA_OVERLAP, api, source, OverlapEvidence(1.0))
    corrupt = replace(base, cross_edges=base.cross_edges | {stale}, incidence=None)
    validate_system_ir(corrupt)
    change = ComponentChange(
        ChangeKind.DELETE,
        source,
        old_content_hash=caller.components[source].content_hash,
    )
    return corrupt, Delta("svc-c", "v0", "v1", (change,))


def _wrong_service_delta():
    """A delta for svc-a adding a component whose id names svc-c."""
    provider = _controller_ir("svc-a", "a.Api", "GET", "/x")
    base = build_system_ir([provider, _caller_ir("svc-c", "x", "GET", "/y")])
    stray = make_component(
        component_id("svc-c", ComponentType.SERVICE, "c.Stray"), source_path="S.java"
    )
    change = ComponentChange(ChangeKind.ADD, stray.id, new_component=stray)
    return base, Delta("svc-a", "v0", "v1", (change,))


@pytest.mark.parametrize(
    "corrupted, message",
    [
        (_stale_edge_baseline, "cross edge references unknown component"),
        (_wrong_service_delta, "does not belong to service svc-a"),
    ],
    ids=["edge-at-deleted-component", "component-in-wrong-service"],
)
def test_corrupted_step_is_rejected(corrupted, message):
    baseline, d = corrupted()
    with pytest.raises(ValueError, match=message):
        apply_delta(baseline, d)


def test_remove_service_rejects_an_unknown_service(history_versions):
    base = _system(history_versions[0])
    with pytest.raises(MergeError) as excinfo:
        remove_service(base, "ts-ghost")
    assert type(excinfo.value) is MergeError
    assert str(excinfo.value) == "cannot remove unknown service 'ts-ghost'"
