from __future__ import annotations

import dataclasses
import gc
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_documents import (
    delta_set_to_doc,
    delta_to_doc,
    standalone_microservice_ir_to_doc,
    system_ir_to_doc,
    violations_doc,
)
from strategies import LINK_SERVICES, ir_chains, linked_irs, relinked, system_irs

from archdelta import documents
from archdelta.cli import main
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
    serialize_violations,
)
from archdelta.errors import ArchDeltaError, DocumentError
from archdelta.linker import build_system_ir, entity_overlap
from archdelta.merge import apply_delta, remove_service
from archdelta.model import (
    ChangeKind,
    ComponentId,
    ComponentType,
    DependencyEdge,
    EdgeKind,
    Endpoint,
    Entity,
    EntityField,
    ImpactedItem,
    Method,
    MicroserviceIR,
    OverlapEvidence,
    Parameter,
    RemoteCallEvidence,
    RestCall,
    SystemIR,
    TriggerItem,
    component_id,
    make_component,
)
from archdelta.rules import make_violation


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
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(json.dumps(doc))
    assert excinfo.value.location == "$.crossEdges[0]"
    message = "cross edge references unknown component ghost::Entity::pkg.A"
    assert str(excinfo.value) == f"$.crossEdges[0]: {message}"


def test_remote_call_edge_to_missing_component_is_rejected_at_the_edge():
    def ghost_target(edge):
        edge["target"]["microservice"] = "ghost"
        edge["evidence"]["endpoint"]["owningComponent"]["microservice"] = "ghost"

    data, i = _edge_edit("RemoteCall", ghost_target)
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(data)
    assert excinfo.value.location == f"$.crossEdges[{i}]"
    assert "unknown component ghost::Controller::b.C" in str(excinfo.value)


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


@st.composite
def awkward_systems(draw):
    """Two services whose names, paths and labels hold escapes, linked both ways."""
    source_name, target_name = draw(st.lists(_AWKWARD, min_size=2, max_size=2, unique=True))
    path = "/" + draw(_AWKWARD)
    target = component_id(target_name, ComponentType.CONTROLLER, "p." + draw(_AWKWARD))
    endpoint = Endpoint("GET", path, draw(_AWKWARD), target)
    caller = component_id(source_name, ComponentType.SERVICE, "p." + draw(_AWKWARD))
    call = RestCall("GET", target_name, path, draw(_AWKWARD), caller)
    # fields named from one pool, so that the entities overlap by any fraction
    names = draw(st.lists(_AWKWARD, min_size=1, max_size=3, unique=True))
    fields = st.lists(st.sampled_from(names), min_size=1, unique=True)
    entities = [
        make_component(
            component_id(name, ComponentType.ENTITY, "e." + draw(_AWKWARD)),
            entity_ref=Entity(
                draw(_AWKWARD),
                tuple(EntityField(f, draw(_AWKWARD)) for f in draw(fields)),
                (draw(_AWKWARD),),
            ),
            source_path=draw(_AWKWARD),
        )
        for name in (source_name, target_name)
    ]
    # oriented and weighed as the linker makes the edge
    entities.sort(key=lambda c: str(c.id))
    overlap = entity_overlap(entities[0].entity_ref, entities[1].entity_ref)
    comps = {
        source_name: [
            make_component(
                caller,
                methods=[Method(draw(_AWKWARD), rest_calls=(call,))],
                source_path=draw(_AWKWARD),
            ),
        ],
        target_name: [
            make_component(target, endpoints=[endpoint], source_path=draw(_AWKWARD)),
        ],
    }
    for entity in entities:
        comps[entity.id.microservice].append(entity)
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
                OverlapEvidence(overlap),
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


def _overlap_written(written: str) -> bytes:
    """The document of ``_overlap_system`` at its overlap, 1.0, with the
    similarity written as ``written``."""
    return serialize_ir(_overlap_system(1.0)).replace(
        b'"similarity": 1.0', f'"similarity": {written}'.encode()
    )


@pytest.mark.parametrize("written, text", [("1", "1.0"), ("100e-2", "1.0")])
def test_loaded_similarity_reserializes_like_the_reference(written, text):
    loaded = deserialize_ir(_overlap_written(written))
    again = serialize_ir(loaded)
    assert again == _reference(loaded)
    assert f'"similarity": {text}\n'.encode() in again


@pytest.mark.parametrize("written", ["1e400", "NaN", "0.5", "0.9999999999999999"])
def test_loaded_similarity_other_than_the_overlap_is_rejected(written):
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(_overlap_written(written))
    assert excinfo.value.location == "$.crossEdges[0].evidence.similarity"
    words = "is not the overlap 1.0 of svc-a::Entity::e.E and svc-b::Entity::e.E"
    assert words in str(excinfo.value)


@pytest.mark.parametrize("written", ["true", "false"])
def test_loaded_similarity_of_a_boolean_is_rejected(written, tmp_path, capsys):
    """JSON ``true`` is no number, although Python's ``True`` is an int."""
    data = _overlap_written(written)
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(data)
    location = "$.crossEdges[0].evidence.similarity"
    assert excinfo.value.location == location
    assert "key 'similarity' should be float, got bool" in str(excinfo.value)
    baseline, delta = tmp_path / "baseline.json", tmp_path / "delta.json"
    baseline.write_bytes(data)
    delta.write_bytes(serialize_delta(_small_delta(_small_services()[0])))
    capsys.readouterr()
    assert main(["merge", str(baseline), str(delta)]) == 2
    assert location in capsys.readouterr().err


def test_overlap_of_an_entity_without_fields_is_rejected():
    system = _overlap_system(1.0)
    bare = make_component(
        component_id("svc-b", ComponentType.ENTITY, "e.E"), entity_ref=Entity("E")
    )
    service = MicroserviceIR("svc-b", "v0", {bare.id: bare}, frozenset())
    system = replace(system, services={**system.services, "svc-b": service})
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(serialize_ir(system))
    assert excinfo.value.location == "$.crossEdges[0].evidence.similarity"
    assert "undefined for empty field set" in str(excinfo.value)


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


_COMPONENT_IDS = st.builds(
    component_id, _AWKWARD, st.sampled_from(list(ComponentType)), _AWKWARD
)


@st.composite
def violations(draw):
    impacted = st.builds(ImpactedItem, _COMPONENT_IDS, _AWKWARD, _AWKWARD, _AWKWARD)
    kinds = st.sampled_from(list(ChangeKind))
    triggering = st.builds(TriggerItem, _COMPONENT_IDS, kinds)
    return make_violation(
        draw(_AWKWARD),
        draw(st.none() | _AWKWARD),
        draw(st.lists(impacted, min_size=1, max_size=3)),
        draw(st.lists(triggering, max_size=2)),
    )


@given(st.lists(violations(), max_size=3), _AWKWARD)
@settings(max_examples=150, deadline=None)
def test_violations_serialize_like_the_reference(found, label):
    expected = canonical_json(violations_doc(found, label))
    assert serialize_violations(found, label) == expected


def _small_services() -> tuple[MicroserviceIR, MicroserviceIR]:
    """Two services that link both ways: a remote call and an entity overlap."""
    fields = (EntityField("id", "long"), EntityField("name", "String"))
    a_service = component_id("svc-a", ComponentType.SERVICE, "a.S")
    a_repo = component_id("svc-a", ComponentType.REPOSITORY, "a.R")
    b_controller = component_id("svc-b", ComponentType.CONTROLLER, "b.C")
    call = RestCall("GET", "svc-b", "/items/{*}", "fetch", a_service)
    a = [
        make_component(
            a_service,
            methods=[
                Method(
                    "fetch",
                    parameters=(Parameter("id", "String"),),
                    return_type="Item",
                    annotations=("Transactional",),
                    body_call_targets=("R.find/1",),
                    rest_calls=(call,),
                    content_hash="h0",
                )
            ],
            source_path="a/S.java",
        ),
        make_component(a_repo, methods=[Method("find", (Parameter("id", "long"),))]),
        make_component(
            component_id("svc-a", ComponentType.ENTITY, "a.E"),
            entity_ref=Entity("E", fields, ("Entity",)),
        ),
    ]
    b = [
        make_component(
            b_controller,
            methods=[Method("get")],
            endpoints=[Endpoint("GET", "/items/{*}", "get", b_controller)],
        ),
        make_component(
            component_id("svc-b", ComponentType.ENTITY, "b.E"),
            entity_ref=Entity("E", fields),
        ),
    ]
    return (
        MicroserviceIR(
            "svc-a", "v0", {c.id: c for c in a}, frozenset({(a_service, a_repo)})
        ),
        MicroserviceIR("svc-b", "v0", {c.id: c for c in b}, frozenset()),
    )


def _small_delta(service: MicroserviceIR):
    """The delta that changes the body of ``service``'s rest-calling method."""
    comp = next(c for c in service.components.values() if c.rest_calls())
    changed = make_component(
        comp.id,
        methods=[replace(comp.methods[0], content_hash="h1")],
        source_path=comp.source_path,
    )
    components = {**service.components, comp.id: changed}
    successor = MicroserviceIR(service.name, "v1", components, service.call_graph_edges)
    return compute_delta(service, successor)


_REPLACEMENTS = (None, True, 7, 1.5, "x", [], {})


def _mutations(doc):
    """Every document that differs from ``doc`` in one value or one deleted key."""

    def walk(node, rebuild):
        for value in _REPLACEMENTS:
            yield rebuild(value)
        if isinstance(node, dict):
            for key, child in node.items():
                yield rebuild({k: v for k, v in node.items() if k != key})
                yield from walk(child, lambda new, key=key: rebuild({**node, key: new}))
        elif isinstance(node, list):
            for i, child in enumerate(node):
                yield from walk(
                    child, lambda new, i=i: rebuild([*node[:i], new, *node[i + 1 :]])
                )

    return walk(doc, lambda new: new)


def _outcomes(data: bytes, load, use) -> set[str]:
    """How each one-value mutation of ``data`` fares: rejected by ``load``,
    loaded and refused by ``use``, or loaded and used.  Any other exception
    escapes."""
    seen = set()
    for doc in _mutations(json.loads(data)):
        try:
            loaded = load(json.dumps(doc))
        except DocumentError:
            seen.add("rejected")
            continue
        try:
            use(loaded)
            seen.add("used")
        except ArchDeltaError:
            seen.add("refused")
    return seen


def test_every_one_value_mutation_is_rejected_or_handled():
    a, b = _small_services()
    system = build_system_ir([a, b])
    assert {e.kind for e in system.cross_edges} == set(EdgeKind)
    delta = _small_delta(a)
    assert _outcomes(
        serialize_ir(system), deserialize_ir, lambda s: apply_delta(s, delta)
    ) >= {"rejected", "used"}
    assert _outcomes(
        serialize_delta(delta), deserialize_delta, lambda d: apply_delta(system, d)
    ) >= {"rejected", "used"}


def _component_ids_reachable(root) -> set[int]:
    """The identities of the ``ComponentId`` objects reachable from ``root``
    through fields, cached properties and collections."""
    found, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, ComponentId):
            found.add(id(obj))
        elif dataclasses.is_dataclass(obj):
            stack.extend(vars(obj).values())
        elif isinstance(obj, dict):
            stack.extend((*obj.keys(), *obj.values()))
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
    return found


def test_members_hold_their_components_id():
    system = deserialize_ir(serialize_ir(build_system_ir(_small_services())))
    for comp in system.iter_components():
        assert all(ep.owning_component is comp.id for ep in comp.endpoints)
        calls = comp.rest_calls()
        assert all(call.owning_component is comp.id for call in calls)
    for ir in system.services.values():
        for a, b in ir.call_graph_edges:
            assert a is ir.components[a].id and b is ir.components[b].id
    assert {e.kind for e in system.cross_edges} == set(EdgeKind)
    for edge in system.cross_edges:
        source, target = system.component(edge.source), system.component(edge.target)
        assert edge.source is source.id and edge.target is target.id
        if edge.kind is EdgeKind.REMOTE_CALL:
            call, endpoint = edge.evidence.rest_call, edge.evidence.endpoint
            assert any(call is c for m in source.methods for c in m.rest_calls)
            assert any(endpoint is e for e in target.endpoints)
    components = list(system.iter_components())
    assert _component_ids_reachable(system) == {id(c.id) for c in components}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_load_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    """The cyclic collector is paused while a document is read, and after a
    load or a fault it is on again only if it was on before."""
    good = serialize_ir(build_system_ir(_small_services()))
    mid_read = good.replace(b'"similarity": 1.0', b'"similarity": 0.01')
    paused, read_system = [], documents._read_system

    def read(doc):
        paused.append(not gc.isenabled())
        return read_system(doc)

    monkeypatch.setattr(documents, "_read_system", read)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        deserialize_ir(good)
        assert gc.isenabled() is enabled
        for bad in (b"{not json", mid_read):
            with pytest.raises(DocumentError):
                deserialize_ir(bad)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert paused == [True, True]


@pytest.mark.parametrize("falsy", [{}, False, 0, "", []])
def test_falsy_entity_ref_other_than_null_is_rejected(falsy):
    doc = json.loads(serialize_ir(_overlap_system(0.5)))
    doc["services"]["svc-a"]["components"][0]["entityRef"] = falsy
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(json.dumps(doc))
    assert excinfo.value.location.startswith("$.services.svc-a.components[0].entityRef")


def _edge_edit(kind, edit):
    """The small system's document with ``edit`` applied to its ``kind``
    edge; returns the text and the edge's index."""
    a, b = _small_services()
    doc = json.loads(serialize_ir(build_system_ir([a, b])))
    [i] = [i for i, e in enumerate(doc["crossEdges"]) if e["kind"] == kind]
    edit(doc["crossEdges"][i])
    return json.dumps(doc), i


def _evidence_edit(edit):
    """The small system's document with ``edit`` applied to the evidence of
    its RemoteCall edge; returns the text and the edge's index."""
    return _edge_edit("RemoteCall", lambda edge: edit(edge["evidence"]))


def _rest_call_elsewhere(evidence):
    evidence["restCall"]["owningComponent"]["microservice"] = "x"
    evidence["endpoint"]["path"] = "/nowhere"


@pytest.mark.parametrize(
    "edit, key",
    [
        (_rest_call_elsewhere, "restCall"),
        (
            lambda evidence: evidence["endpoint"]["owningComponent"].update(
                qualifiedName="b.D"
            ),
            "endpoint",
        ),
    ],
    ids=["rest-call-owner", "endpoint-owner"],
)
def test_remote_call_evidence_owned_by_other_components_is_rejected(
    edit, key, tmp_path, capsys
):
    data, i = _evidence_edit(edit)
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(data)
    location = f"$.crossEdges[{i}].evidence.{key}.owningComponent"
    assert excinfo.value.location == location
    baseline, delta = tmp_path / "baseline.json", tmp_path / "delta.json"
    baseline.write_text(data)
    delta.write_bytes(serialize_delta(_small_delta(_small_services()[0])))
    capsys.readouterr()
    assert main(["merge", str(baseline), str(delta)]) == 2
    assert location in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda evidence: evidence["restCall"].update(path="/elsewhere"), "restCall"),
        (lambda evidence: evidence["endpoint"].update(path="/nowhere"), "endpoint"),
    ],
    ids=["rest-call", "endpoint"],
)
def test_remote_call_evidence_outside_its_components_is_rejected(
    edit, key, tmp_path, capsys
):
    """The evidence call must be one of the source's calls and the endpoint
    one of the target's; a stray one would survive a merge beside the edge
    the merge derives."""
    data, i = _evidence_edit(edit)
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(data)
    location = f"$.crossEdges[{i}].evidence.{key}"
    assert excinfo.value.location == location
    baseline, delta = tmp_path / "baseline.json", tmp_path / "delta.json"
    baseline.write_text(data)
    delta.write_bytes(serialize_delta(_small_delta(_small_services()[0])))
    capsys.readouterr()
    assert main(["merge", str(baseline), str(delta)]) == 2
    assert location in capsys.readouterr().err


def _non_entity_source(edge):
    edge["source"].update(componentType="Service", qualifiedName="a.S")


def _swapped_ends(edge):
    edge["source"], edge["target"] = edge["target"], edge["source"]


@pytest.mark.parametrize(
    "edit, at, words",
    [
        (
            lambda edge: edge["evidence"].update(similarity=0.01),
            ".evidence.similarity",
            "similarity 0.01 is not the overlap 1.0",
        ),
        (
            _non_entity_source,
            "",
            "DataOverlap end svc-a::Service::a.S is not an entity",
        ),
        (_swapped_ends, "", "DataOverlap source svc-b::Entity::b.E sorts after target"),
    ],
    ids=["similarity", "non-entity-end", "orientation"],
)
def test_data_overlap_edge_other_than_the_linkers_is_rejected(
    edit, at, words, tmp_path, capsys
):
    """A loaded baseline's DataOverlap edge joins two entities, in the order
    and at the similarity the linker gives it; a stray one would survive a
    merge beside the edge the merge derives."""
    data, i = _edge_edit("DataOverlap", edit)
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(data)
    location = f"$.crossEdges[{i}]{at}"
    assert excinfo.value.location == location
    assert words in str(excinfo.value)
    baseline, delta = tmp_path / "baseline.json", tmp_path / "delta.json"
    baseline.write_text(data)
    delta.write_bytes(serialize_delta(_small_delta(_small_services()[0])))
    capsys.readouterr()
    assert main(["merge", str(baseline), str(delta)]) == 2
    assert location in capsys.readouterr().err


_A_F = component_id("svc-a", ComponentType.ENTITY, "a.F")
_B_S = component_id("svc-b", ComponentType.SERVICE, "b.S")


def _with_components(service: MicroserviceIR, *comps) -> MicroserviceIR:
    components = {**service.components, **{c.id: c for c in comps}}
    return replace(service, components=components)


def _moved_within_a_service(kind: str, move) -> tuple[str, int]:
    """The small system's document, with an entity ``a.F`` added to svc-a and
    a service ``b.S`` calling its own service's endpoint added to svc-b, and
    with ``move`` applied to its ``kind`` edge; returns the text and the
    edge's index."""
    a, b = _small_services()
    call = RestCall("GET", "svc-b", "/items/{*}", "fetch", _B_S)
    entity = Entity("F", (EntityField("code", "int"),))
    a = _with_components(a, make_component(_A_F, entity_ref=entity))
    b = _with_components(
        b, make_component(_B_S, methods=[Method("fetch", rest_calls=(call,))])
    )
    doc = json.loads(serialize_ir(build_system_ir([a, b])))
    [i] = [i for i, e in enumerate(doc["crossEdges"]) if e["kind"] == kind]
    move(doc["crossEdges"][i])
    return json.dumps(doc), i


def _overlap_to_a_f(edge):
    edge["target"] = documents.component_id_to_doc(_A_F)


def _call_from_b_s(edge):
    edge["source"] = documents.component_id_to_doc(_B_S)
    edge["evidence"]["restCall"]["owningComponent"] = edge["source"]


@pytest.mark.parametrize(
    "kind, move, end",
    [
        ("DataOverlap", _overlap_to_a_f, "svc-a::Entity::a.E"),
        ("RemoteCall", _call_from_b_s, "svc-b::Service::b.S"),
    ],
    ids=["DataOverlap", "RemoteCall"],
)
def test_cross_edge_within_one_service_is_rejected(kind, move, end, tmp_path, capsys):
    data, i = _moved_within_a_service(kind, move)
    with pytest.raises(DocumentError) as excinfo:
        deserialize_ir(data)
    location = f"$.crossEdges[{i}]"
    message = f"cross edge endpoints are in the same service: {end}"
    assert str(excinfo.value) == f"{location}: {message}"
    baseline, delta = tmp_path / "baseline.json", tmp_path / "delta.json"
    baseline.write_text(data)
    delta.write_bytes(serialize_delta(_small_delta(_small_services()[0])))
    capsys.readouterr()
    assert main(["merge", str(baseline), str(delta)]) == 2
    assert capsys.readouterr().err == f"error: {location}: {message}\n"
