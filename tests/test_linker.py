from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_overlap import reference_overlap_edges
from strategies import entities, microservice_irs

from archdelta.errors import LinkError, UndefinedSimilarityError
from archdelta.extractor import scan_repository
from archdelta.documents import serialize_ir
from archdelta.linker import (
    OverlapIndex,
    build_system_ir,
    data_overlap_edges,
    entity_overlap,
    link_report,
    match_call_to_endpoint,
    uncalled_endpoints,
    unmatched_calls,
)
from archdelta.model import (
    UNRESOLVED,
    ComponentType,
    EdgeKind,
    Endpoint,
    Entity,
    EntityField,
    Method,
    MicroserviceIR,
    RestCall,
    SystemIR,
    component_id,
    make_component,
    method_content_hash,
)
from archdelta.profiles import default_profile

PROFILE = default_profile()


def _service_with_endpoint(name: str, verb: str, path: str) -> MicroserviceIR:
    cid = component_id(name, ComponentType.CONTROLLER, f"{name}.Api")
    comp = make_component(
        cid,
        endpoints=[Endpoint(verb, path, "handle", cid)],
        source_path="Api.java",
    )
    return MicroserviceIR(name, "v0", {cid: comp}, frozenset())


def _service_with_call(
    name: str, verb: str, target: str, path: str
) -> MicroserviceIR:
    cid = component_id(name, ComponentType.SERVICE, f"{name}.Caller")
    call = RestCall(verb, target, path, f"{name}.Caller.run", cid)
    method = Method(
        name="run", rest_calls=(call,), content_hash=method_content_hash("run();")
    )
    comp = make_component(cid, methods=[method], source_path="Caller.java")
    return MicroserviceIR(name, "v0", {cid: comp}, frozenset())


def _entity_service(name: str, entity_name: str, fields: list[str]) -> MicroserviceIR:
    cid = component_id(name, ComponentType.ENTITY, f"{name}.{entity_name}")
    comp = make_component(
        cid,
        entity_ref=Entity(
            entity_name,
            tuple(EntityField(f, "String") for f in fields),
            ("Entity",),
        ),
        source_path=f"{entity_name}.java",
    )
    return MicroserviceIR(name, "v0", {cid: comp}, frozenset())


def test_match_requires_verb_path_and_service():
    provider = _service_with_endpoint("ts-order", "GET", "/api/v1/orders/{*}")
    caller = _service_with_call("ts-user", "GET", "ts-order", "/api/v1/orders/{*}")
    call = next(caller.iter_rest_calls())
    matched = match_call_to_endpoint(call, [provider, caller])
    assert matched is not None
    assert matched.owning_component.microservice == "ts-order"


def test_match_rejects_wrong_verb():
    provider = _service_with_endpoint("ts-order", "POST", "/api/v1/orders/{*}")
    caller = _service_with_call("ts-user", "GET", "ts-order", "/api/v1/orders/{*}")
    call = next(caller.iter_rest_calls())
    assert match_call_to_endpoint(call, [provider, caller]) is None


def test_unresolved_match_is_ambiguous_with_two_candidates():
    a = _service_with_endpoint("svc-a", "GET", "/shared/{*}")
    b = _service_with_endpoint("svc-b", "GET", "/shared/{*}")
    caller = _service_with_call("svc-c", "GET", UNRESOLVED, "/shared/{*}")
    call = next(caller.iter_rest_calls())
    assert match_call_to_endpoint(call, [a, b, caller]) is None
    # with a single candidate the unresolved call matches
    assert match_call_to_endpoint(call, [a, caller]) is not None


def test_entity_overlap_examples():
    a = Entity("A", (EntityField("id", "T"), EntityField("name", "T"), EntityField("price", "T")))
    b = Entity("B", (EntityField("id", "T"), EntityField("name", "T")))
    assert entity_overlap(a, b) == pytest.approx(2 / 3)
    assert entity_overlap(a, a) == 1.0
    c = Entity("C", (EntityField("zzz", "T"),))
    assert entity_overlap(a, c) == 0.0


def test_entity_overlap_is_case_insensitive():
    a = Entity("A", (EntityField("userId", "T"),))
    b = Entity("B", (EntityField("userid", "T"),))
    assert entity_overlap(a, b) == 1.0


def test_entity_overlap_empty_fields_is_undefined():
    a = Entity("A", (EntityField("id", "T"),))
    empty = Entity("B", ())
    with pytest.raises(UndefinedSimilarityError):
        entity_overlap(a, empty)


def test_remote_call_edge_between_two_services():
    provider = _service_with_endpoint("svc-b", "GET", "/b/x")
    caller = _service_with_call("svc-a", "GET", "svc-b", "/b/x")
    system = build_system_ir([provider, caller])
    assert len(system.cross_edges) == 1
    edge = next(iter(system.cross_edges))
    assert edge.kind is EdgeKind.REMOTE_CALL
    assert edge.source.microservice == "svc-a"
    assert edge.target.microservice == "svc-b"


def test_data_overlap_edge_with_identical_fields():
    a = _entity_service("svc-a", "Account", ["id", "money", "userId"])
    b = _entity_service("svc-b", "Wallet", ["id", "money", "userId"])
    system = build_system_ir([a, b], overlap_threshold=0.6)
    assert len(system.cross_edges) == 1
    edge = next(iter(system.cross_edges))
    assert edge.kind is EdgeKind.DATA_OVERLAP
    assert edge.evidence.similarity == 1.0


def test_single_service_system_has_no_cross_edges():
    provider = _service_with_endpoint("svc-a", "GET", "/a/x")
    system = build_system_ir([provider])
    assert system.cross_edges == frozenset()


def test_duplicate_service_names_rejected():
    a = _service_with_endpoint("svc-a", "GET", "/a/x")
    with pytest.raises(LinkError):
        build_system_ir([a, a])


def test_overlap_threshold_is_inclusive():
    a = _entity_service("svc-a", "A", ["id", "name"])
    b = _entity_service("svc-b", "B", ["id", "name", "x", "y"])  # overlap 0.5
    assert len(build_system_ir([a, b], 0.5).cross_edges) == 1
    assert len(build_system_ir([a, b], 0.51).cross_edges) == 0


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_overlap_threshold_is_rejected(threshold):
    # NaN would give every pair an edge: no similarity is below it
    a = _entity_service("svc-a", "A", ["id", "name"])
    b = _entity_service("svc-b", "B", ["total"])
    with pytest.raises(LinkError, match="finite"):
        build_system_ir([a, b], threshold)


@pytest.mark.parametrize(
    "shared, size_a, size_b, threshold",
    [
        (1, 1, 10, 0.1),
        (3, 3, 10, 0.3),
        (1, 1, 3, 1 / 3),
        (2, 3, 5, 1 / 3),
        (2, 2, 4, 0.5),
    ],
)
def test_overlap_bound_follows_the_float_test(shared, size_a, size_b, threshold):
    """Shared over union equals the threshold in floating point: the pair is
    linked, although 1/10 is below the float 0.1 in exact arithmetic."""
    fields = [f"f{i}" for i in range(size_a + size_b - shared)]
    a = _entity_service("svc-a", "A", fields[:size_a])
    start = size_a - shared
    b = _entity_service("svc-b", "B", fields[start : start + size_b])
    system = build_system_ir([a, b], threshold)
    [edge] = system.cross_edges
    assert edge.evidence.similarity == threshold
    assert system.cross_edges == reference_overlap_edges(system.services, threshold)


def test_cached_field_names_are_not_part_of_the_entity_value():
    entity = Entity("A", (EntityField("Id", "String"), EntityField("id", "long")))
    fresh = Entity("A", (EntityField("Id", "String"), EntityField("id", "long")))
    assert entity.field_names == frozenset({"id"})
    assert entity.field_names is entity.field_names
    assert entity == fresh and hash(entity) == hash(fresh)
    assert repr(entity) == repr(fresh)


# Field names for the overlap property: a vocabulary every service shares,
# with case variants of one name, and names only one service uses.
_SHARED_FIELDS = ["id", "Id", "ID", "name", "owner", "total", "createdAt", "createdat"]


@st.composite
def _overlap_systems(draw):
    services = {}
    drawn: list[list[str]] = []  # field lists so far, to draw duplicates from
    for s in range(draw(st.integers(1, 5))):
        name = f"svc{s}"
        own = st.sampled_from([f"{name}Only{i}" for i in range(3)])
        comps = {}
        for e in range(draw(st.integers(0, 4))):
            if drawn and draw(st.booleans()):
                fields = draw(st.sampled_from(drawn))  # a duplicate field set
            else:
                names = st.sampled_from(_SHARED_FIELDS) | own
                fields = draw(st.lists(names, max_size=6))
                drawn.append(fields)
            cid = component_id(name, ComponentType.ENTITY, f"{name}.E{e}")
            comps[cid] = make_component(
                cid,
                entity_ref=Entity(
                    f"E{e}", tuple(EntityField(f, "String") for f in fields)
                ),
            )
        services[name] = MicroserviceIR(name, "v0", comps, frozenset())
    return services


_THRESHOLDS = st.sampled_from([0.0, -0.25, 1 / 3, 0.3, 0.5, 1.0, 1.5]) | st.floats(
    -1.0, 2.0, allow_nan=False
)


@given(_overlap_systems(), _THRESHOLDS)
@settings(max_examples=500, deadline=None)
def test_indexed_overlap_equals_the_all_pairs_reference(services, threshold):
    comps = [comp for ir in services.values() for comp in ir.components.values()]
    index, edges = data_overlap_edges(OverlapIndex({}), (), comps, threshold)
    assert edges == reference_overlap_edges(services, threshold)
    assert index == OverlapIndex.of(SystemIR("", services, frozenset()))
    held = {cid for posting in index.postings.values() for cid in posting}
    assert held == {
        comp.id for ir in services.values() for comp, ent in ir.entities() if ent.fields
    }


@given(entities(min_fields=1), entities(min_fields=1))
@settings(max_examples=200, deadline=None)
def test_overlap_symmetry(a, b):
    assert entity_overlap(a, b) == entity_overlap(b, a)


@given(st.lists(microservice_irs(), max_size=3))
@settings(max_examples=50, deadline=None)
def test_build_is_order_independent(services):
    unique = {ir.name: ir for ir in services}
    ordered = list(unique.values())
    if not ordered:
        return
    forward = build_system_ir(ordered)
    backward = build_system_ir(list(reversed(ordered)))
    assert serialize_ir(forward) == serialize_ir(backward)


def test_edge_evidence_reverifies(history_versions):
    services = [
        scan_repository(history_versions[0] / name, PROFILE, name, "v0")
        for name in ("ts-order", "ts-station", "ts-user")
    ]
    system = build_system_ir(services)
    for edge in system.cross_edges:
        if edge.kind is not EdgeKind.REMOTE_CALL:
            continue
        matched = match_call_to_endpoint(edge.evidence.rest_call, system)
        assert matched == edge.evidence.endpoint


def test_link_report_counts(history_versions):
    services = [
        scan_repository(history_versions[2] / name, PROFILE, name, "v2")
        for name in ("ts-order", "ts-station", "ts-user")
    ]
    system = build_system_ir(services)
    report = link_report(system)
    assert report.unmatched_call_count == len(unmatched_calls(system)) == 1
    assert report.uncalled_endpoint_count == len(uncalled_endpoints(system)) == 4
    assert report.matched_call_count == 1
    assert report.remote_call_edge_count == 1
    assert report.data_overlap_edge_count == 1
