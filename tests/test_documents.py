from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_documents import (
    delta_set_to_doc,
    delta_to_doc,
    standalone_microservice_ir_to_doc,
    system_ir_to_doc,
)
from strategies import LINK_SERVICES, ir_chains, linked_irs, relinked, system_irs

from archdelta.delta import compute_delta
from archdelta.documents import (
    FragmentWindow,
    canonical_json,
    deserialize_delta,
    deserialize_ir,
    deserialize_microservice_ir,
    serialize_delta,
    serialize_ir,
    serialize_microservice_ir,
)
from archdelta.errors import DocumentError
from archdelta.linker import build_system_ir
from archdelta.merge import apply_delta, remove_service
from archdelta.model import (
    ComponentType,
    DependencyEdge,
    EdgeKind,
    Endpoint,
    Entity,
    EntityField,
    Method,
    MicroserviceIR,
    OverlapEvidence,
    RemoteCallEvidence,
    RestCall,
    SystemIR,
    component_id,
    make_component,
)


def test_empty_system_round_trips():
    system = build_system_ir([])
    data = serialize_ir(system)
    back = deserialize_ir(data)
    assert back == system
    assert back.services == {}


@given(system_irs())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_identity(system):
    assert deserialize_ir(serialize_ir(system)) == system


@given(system_irs())
@settings(max_examples=60, deadline=None)
def test_serialization_is_byte_stable(system):
    once = serialize_ir(system)
    twice = serialize_ir(deserialize_ir(once))
    assert once == twice


def test_cross_edge_to_missing_component_is_rejected():
    system = build_system_ir([])
    doc = json.loads(serialize_ir(system))
    doc["crossEdges"] = [
        {
            "kind": "DataOverlap",
            "source": {
                "microservice": "ghost",
                "componentType": "Entity",
                "qualifiedName": "pkg.A",
            },
            "target": {
                "microservice": "other",
                "componentType": "Entity",
                "qualifiedName": "pkg.B",
            },
            "evidence": {"similarity": 1.0},
        }
    ]
    with pytest.raises(DocumentError):
        deserialize_ir(json.dumps(doc))


def test_tampered_component_hash_is_rejected(history_versions):
    from archdelta.extractor import scan_repository
    from archdelta.profiles import default_profile

    ir = scan_repository(
        history_versions[0] / "ts-order", default_profile(), "ts-order", "v0"
    )
    doc = json.loads(serialize_microservice_ir(ir))
    doc["components"][0]["contentHash"] = "0" * 64
    with pytest.raises(DocumentError) as excinfo:
        deserialize_microservice_ir(json.dumps(doc))
    assert "contentHash" in str(excinfo.value)


def test_malformed_document_reports_location():
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(b"{not json")
    assert excinfo.value.location == "$"


@given(ir_chains(length=1))
@settings(max_examples=40, deadline=None)
def test_delta_round_trips(chain):
    old, new = chain[0], chain[1]
    d = compute_delta(old, new)
    assert deserialize_delta(serialize_delta(d)) == d


def test_delta_accepts_remove_alias(history_versions):
    from archdelta.extractor import scan_repository
    from archdelta.profiles import default_profile

    old = scan_repository(
        history_versions[4] / "ts-user", default_profile(), "ts-user", "v4"
    )
    new = scan_repository(
        history_versions[5] / "ts-user", default_profile(), "ts-user", "v5"
    )
    d = compute_delta(old, new)
    doc = json.loads(serialize_delta(d))
    kinds = [c["changeKind"] for c in doc["changes"]]
    assert kinds == ["DELETE"]
    doc["changes"][0]["changeKind"] = "REMOVE"
    assert deserialize_delta(json.dumps(doc)) == d


def test_unknown_schema_tag_is_rejected():
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(json.dumps({"schema": "bogus@9"}))
    assert excinfo.value.location == "$.schema"


def _reference(system: SystemIR) -> bytes:
    return canonical_json(system_ir_to_doc(system))


def _assert_service_documents_equal_the_reference(before, after) -> None:
    """``after``'s service document and the deltas both ways, against the reference."""
    assert serialize_microservice_ir(after) == canonical_json(
        standalone_microservice_ir_to_doc(after)
    )
    for d in (compute_delta(before, after), compute_delta(after, before)):
        assert serialize_delta(d) == canonical_json(delta_to_doc(d))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_windowed_serialization_equals_the_reference_on_link_churn(data):
    # One window across the chain, as write_artifacts uses it: most services
    # and edges are the previous version's objects and reuse their bytes.
    window = FragmentWindow()
    names = data.draw(st.lists(st.sampled_from(LINK_SERVICES), unique=True))
    system = build_system_ir([data.draw(linked_irs(name)) for name in names])
    assert serialize_ir(system, window) == _reference(system)
    for ir in system.services.values():
        _assert_service_documents_equal_the_reference(
            MicroserviceIR(ir.name, "", {}, frozenset()), ir
        )
    for step in range(1, data.draw(st.integers(1, 6)) + 1):
        name = data.draw(st.sampled_from(LINK_SERVICES))
        if name in system.services and data.draw(st.sampled_from("ddddr")) == "r":
            system = remove_service(system, name)
        else:
            current = system.services.get(name) or MicroserviceIR(
                name, "", {}, frozenset()
            )
            successor = data.draw(relinked(current, f"v{step}"))
            _assert_service_documents_equal_the_reference(current, successor)
            system = apply_delta(system, compute_delta(current, successor))
        assert serialize_ir(system, window) == _reference(system)
        assert serialize_ir(system) == _reference(system)


def test_empty_shapes_serialize_like_the_reference():
    empty_service = MicroserviceIR("svc-a", "v0", {}, frozenset())
    for system in (
        build_system_ir([]),
        build_system_ir([empty_service]),
        build_system_ir([empty_service, MicroserviceIR("svc-b", "v0", {}, frozenset())]),
    ):
        assert system.cross_edges == frozenset()
        window = FragmentWindow()
        assert serialize_ir(system, window) == _reference(system)
        assert serialize_ir(system, window) == _reference(system)


_AWKWARD = st.text(
    alphabet=st.sampled_from(
        ["a", "\n", '"', "\\", "\u00e9", "\u2028", "\u00a0", "/", " ", "{"]
        + ["\U0001f600", "\x00", "\t", "\x7f"]
    ),
    min_size=1,
    max_size=6,
)
# Both ends of [0, 1], the smallest subnormal, and a repr that needs 17 digits.
_EDGE_FLOATS = [0.0, 1.0, 5e-324, 0.30000000000000004]


@st.composite
def awkward_systems(draw):
    """Two services whose names, paths and labels hold escapes, linked both ways."""
    source_name, target_name = draw(st.lists(_AWKWARD, min_size=2, max_size=2, unique=True))
    path = "/" + draw(_AWKWARD)
    target = component_id(target_name, ComponentType.CONTROLLER, "p." + draw(_AWKWARD))
    endpoint = Endpoint("GET", path, draw(_AWKWARD), target)
    caller = component_id(source_name, ComponentType.SERVICE, "p." + draw(_AWKWARD))
    call = RestCall("GET", target_name, path, draw(_AWKWARD), caller)
    field = EntityField(draw(_AWKWARD), draw(_AWKWARD))
    entities = [
        make_component(
            component_id(name, ComponentType.ENTITY, "e." + draw(_AWKWARD)),
            entity_ref=Entity(draw(_AWKWARD), (field,), (draw(_AWKWARD),)),
            source_path=draw(_AWKWARD),
        )
        for name in (source_name, target_name)
    ]
    comps = {
        source_name: [
            make_component(
                caller,
                methods=[Method(draw(_AWKWARD), rest_calls=(call,))],
                source_path=draw(_AWKWARD),
            ),
            entities[0],
        ],
        target_name: [
            make_component(target, endpoints=[endpoint], source_path=draw(_AWKWARD)),
            entities[1],
        ],
    }
    services = {
        name: MicroserviceIR(name, draw(_AWKWARD), {c.id: c for c in group}, frozenset())
        for name, group in comps.items()
    }
    edges = frozenset(
        {
            DependencyEdge(
                EdgeKind.REMOTE_CALL, caller, target, RemoteCallEvidence(call, endpoint)
            ),
            DependencyEdge(
                EdgeKind.DATA_OVERLAP,
                entities[0].id,
                entities[1].id,
                OverlapEvidence(
                    draw(st.floats(0, 1) | st.sampled_from(_EDGE_FLOATS))
                ),
            ),
        }
    )
    return SystemIR(draw(_AWKWARD), services, edges)


@given(awkward_systems())
@settings(max_examples=150, deadline=None)
def test_escaped_text_serializes_like_the_reference(system):
    window = FragmentWindow()
    expected = _reference(system)
    assert serialize_ir(system, window) == expected
    assert serialize_ir(system, window) == expected  # every fragment reused
    assert deserialize_ir(expected) == system
    for ir in system.services.values():
        _assert_service_documents_equal_the_reference(
            MicroserviceIR(ir.name, "", {}, frozenset()), ir
        )


def _overlap_system(similarity: float) -> SystemIR:
    field = EntityField("id", "long")
    a, b = (
        make_component(
            component_id(name, ComponentType.ENTITY, "e.E"),
            entity_ref=Entity("E", (field,)),
        )
        for name in ("svc-a", "svc-b")
    )
    services = {
        c.id.microservice: MicroserviceIR(
            c.id.microservice, "v0", {c.id: c}, frozenset()
        )
        for c in (a, b)
    }
    evidence = OverlapEvidence(similarity)
    edge = DependencyEdge(EdgeKind.DATA_OVERLAP, a.id, b.id, evidence)
    return SystemIR("svc-a@v0,svc-b@v0", services, frozenset({edge}))


@pytest.mark.parametrize(
    "similarity, text",
    [
        (0.0, "0.0"),
        (1.0, "1.0"),
        (5e-324, "5e-324"),
        (0.30000000000000004, "0.30000000000000004"),
        (float("nan"), "NaN"),
        (float("inf"), "Infinity"),
        (float("-inf"), "-Infinity"),
    ],
)
def test_similarity_serializes_like_the_reference(similarity, text):
    system = _overlap_system(similarity)
    data = serialize_ir(system)
    assert data == _reference(system)
    assert f'"similarity": {text}\n'.encode() in data


@pytest.mark.parametrize("written, text", [("1", "1.0"), ("1e400", "Infinity")])
def test_loaded_similarity_reserializes_like_the_reference(written, text):
    data = serialize_ir(_overlap_system(0.5)).replace(
        b'"similarity": 0.5', f'"similarity": {written}'.encode()
    )
    loaded = deserialize_ir(data)
    again = serialize_ir(loaded)
    assert again == _reference(loaded)
    assert f'"similarity": {text}\n'.encode() in again


def test_replay_delta_sets_equal_the_reference(history_versions, tmp_path):
    import shutil

    from archdelta.history import replay, write_artifacts

    truncated = tmp_path / "no-user"
    shutil.copytree(history_versions[-1], truncated)
    shutil.rmtree(truncated / "ts-user")
    record = replay([*history_versions, truncated])
    assert record.versions[-1].removed_services == ("ts-user",)
    write_artifacts(record, tmp_path / "out")
    for i, entry in enumerate(record.versions[1:], start=1):
        expected = canonical_json(
            delta_set_to_doc(entry.deltas, entry.reanchored, entry.removed_services)
        )
        assert (tmp_path / "out" / "deltas" / f"{i}.json").read_bytes() == expected


def test_ir_and_delta_documents_make_no_json_dumps_call(history_versions, monkeypatch):
    from archdelta.extractor import discover_services, scan_repository
    from archdelta.profiles import default_profile

    profile = default_profile()
    old, new = (
        {
            name: scan_repository(path, profile, name, f"v{i}")
            for name, path in discover_services(history_versions[i])
        }
        for i in (0, -1)
    )
    system = build_system_ir(new.values())
    assert system.cross_edges and len(system.services) > 1
    deltas = [compute_delta(old[name], new[name]) for name in old.keys() & new.keys()]
    assert any(d.changes for d in deltas)

    calls = []
    original_dumps = json.dumps

    def counting_dumps(*args, **kwargs):
        calls.append(args)
        return original_dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    serialize_ir(system)
    for ir in system.services.values():
        serialize_microservice_ir(ir)
    for d in deltas:
        serialize_delta(d)
    assert calls == []
