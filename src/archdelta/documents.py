"""Serialization of the system representation and deltas.

Documents are JSON with lower-camel-case keys mirroring the model field
names, a ``schema`` version tag, and fully sorted keys and collections, so
equal values serialize to identical bytes.  Deserialization re-checks
structural invariants (references resolve, stored hashes match recomputed
ones) and reports failures with a JSON-path style location.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator

from .errors import DocumentError
from .model import (
    ChangeKind,
    Component,
    ComponentChange,
    ComponentId,
    ComponentType,
    Delta,
    DependencyEdge,
    EdgeKind,
    Endpoint,
    Entity,
    EntityField,
    Method,
    MicroserviceIR,
    OverlapEvidence,
    Parameter,
    RemoteCallEvidence,
    RestCall,
    SystemIR,
    hash_component,
    make_delta,
    validate_microservice_ir,
    validate_system_ir,
)

SYSTEM_IR_SCHEMA = "system-ir@1"
MICROSERVICE_IR_SCHEMA = "microservice-ir@1"
DELTA_SCHEMA = "delta@1"


def canonical_json(doc: Any) -> bytes:
    """Key-sorted, indented JSON; byte-stable for equal documents."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def parse_json(data: bytes | str, loc: str = "$") -> Any:
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DocumentError(f"invalid JSON: {exc}", loc) from exc


def _expect(doc: Any, key: str, kind, loc: str) -> Any:
    if not isinstance(doc, dict):
        raise DocumentError("expected an object", loc)
    if key not in doc:
        raise DocumentError(f"missing key '{key}'", loc)
    value = doc[key]
    if not isinstance(value, kind):
        wanted = kind.__name__ if isinstance(kind, type) else str(kind)
        raise DocumentError(
            f"key '{key}' should be {wanted}, got {type(value).__name__}",
            f"{loc}.{key}",
        )
    return value


def expect_strings(doc: Any, key: str, loc: str) -> tuple[str, ...]:
    """The list of strings under ``key``; a wrong element is located by index."""
    items = tuple(_expect(doc, key, list, loc))
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise DocumentError(
                f"expected str, got {type(item).__name__}", f"{loc}.{key}[{i}]"
            )
    return items


# ---------------------------------------------------------------------------
# ComponentId
# ---------------------------------------------------------------------------


def component_id_to_doc(cid: ComponentId) -> dict:
    return {
        "microservice": cid.microservice,
        "componentType": cid.component_type.value,
        "qualifiedName": cid.qualified_name,
    }


def component_id_from_doc(doc: Any, loc: str = "$") -> ComponentId:
    micro = _expect(doc, "microservice", str, loc)
    ctype = _expect(doc, "componentType", str, loc)
    qname = _expect(doc, "qualifiedName", str, loc)
    try:
        return ComponentId(micro, ComponentType(ctype), qname)
    except ValueError as exc:
        raise DocumentError(str(exc), f"{loc}.componentType") from exc


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------


def _rest_call_to_doc(call: RestCall) -> dict:
    return {
        "httpMethod": call.http_method,
        "targetService": call.target_service,
        "path": call.path,
        "siteMethod": call.site_method,
        "owningComponent": component_id_to_doc(call.owning_component),
    }


def _rest_call_from_doc(doc: Any, loc: str) -> RestCall:
    return RestCall(
        http_method=_expect(doc, "httpMethod", str, loc),
        target_service=_expect(doc, "targetService", str, loc),
        path=_expect(doc, "path", str, loc),
        site_method=_expect(doc, "siteMethod", str, loc),
        owning_component=component_id_from_doc(
            _expect(doc, "owningComponent", dict, loc), f"{loc}.owningComponent"
        ),
    )


def _endpoint_to_doc(ep: Endpoint) -> dict:
    return {
        "httpMethod": ep.http_method,
        "path": ep.path,
        "handlerMethod": ep.handler_method,
        "owningComponent": component_id_to_doc(ep.owning_component),
    }


def _endpoint_from_doc(doc: Any, loc: str) -> Endpoint:
    return Endpoint(
        http_method=_expect(doc, "httpMethod", str, loc),
        path=_expect(doc, "path", str, loc),
        handler_method=_expect(doc, "handlerMethod", str, loc),
        owning_component=component_id_from_doc(
            _expect(doc, "owningComponent", dict, loc), f"{loc}.owningComponent"
        ),
    )


def _method_to_doc(m: Method) -> dict:
    return {
        "name": m.name,
        "parameters": [
            {"name": p.name, "declaredType": p.declared_type} for p in m.parameters
        ],
        "returnType": m.return_type,
        "annotations": list(m.annotations),
        "bodyCallTargets": list(m.body_call_targets),
        "restCalls": [_rest_call_to_doc(c) for c in m.rest_calls],
        "contentHash": m.content_hash,
    }


def _method_from_doc(doc: Any, loc: str) -> Method:
    params = []
    for i, p in enumerate(_expect(doc, "parameters", list, loc)):
        ploc = f"{loc}.parameters[{i}]"
        params.append(
            Parameter(
                name=_expect(p, "name", str, ploc),
                declared_type=_expect(p, "declaredType", str, ploc),
            )
        )
    calls = tuple(
        _rest_call_from_doc(c, f"{loc}.restCalls[{i}]")
        for i, c in enumerate(_expect(doc, "restCalls", list, loc))
    )
    return Method(
        name=_expect(doc, "name", str, loc),
        parameters=tuple(params),
        return_type=_expect(doc, "returnType", str, loc),
        annotations=expect_strings(doc, "annotations", loc),
        body_call_targets=expect_strings(doc, "bodyCallTargets", loc),
        rest_calls=calls,
        content_hash=_expect(doc, "contentHash", str, loc),
    )


def _entity_to_doc(ent: Entity) -> dict:
    return {
        "name": ent.name,
        "fields": [
            {"fieldName": f.field_name, "declaredType": f.declared_type}
            for f in ent.fields
        ],
        "annotations": list(ent.annotations),
    }


def _entity_from_doc(doc: Any, loc: str) -> Entity:
    fields = []
    for i, f in enumerate(_expect(doc, "fields", list, loc)):
        floc = f"{loc}.fields[{i}]"
        fields.append(
            EntityField(
                field_name=_expect(f, "fieldName", str, floc),
                declared_type=_expect(f, "declaredType", str, floc),
            )
        )
    return Entity(
        name=_expect(doc, "name", str, loc),
        fields=tuple(fields),
        annotations=expect_strings(doc, "annotations", loc),
    )


def component_to_doc(comp: Component) -> dict:
    doc = {
        "id": component_id_to_doc(comp.id),
        "methods": [_method_to_doc(m) for m in comp.methods],
        "endpoints": [_endpoint_to_doc(e) for e in comp.endpoints],
        "entityRef": _entity_to_doc(comp.entity_ref) if comp.entity_ref else None,
        "sourcePath": comp.source_path,
        "contentHash": comp.content_hash,
    }
    return doc


def component_from_doc(doc: Any, loc: str) -> Component:
    cid = component_id_from_doc(_expect(doc, "id", dict, loc), f"{loc}.id")
    methods = tuple(
        _method_from_doc(m, f"{loc}.methods[{i}]")
        for i, m in enumerate(_expect(doc, "methods", list, loc))
    )
    endpoints = tuple(
        _endpoint_from_doc(e, f"{loc}.endpoints[{i}]")
        for i, e in enumerate(_expect(doc, "endpoints", list, loc))
    )
    entity_doc = doc.get("entityRef")
    entity = _entity_from_doc(entity_doc, f"{loc}.entityRef") if entity_doc else None
    comp = Component(
        id=cid,
        methods=methods,
        endpoints=endpoints,
        entity_ref=entity,
        source_path=_expect(doc, "sourcePath", str, loc),
        content_hash=_expect(doc, "contentHash", str, loc),
    )
    recomputed = hash_component(comp)
    if recomputed != comp.content_hash:
        raise DocumentError(
            f"stored contentHash {comp.content_hash[:12]}... does not match "
            f"recomputed {recomputed[:12]}...",
            f"{loc}.contentHash",
        )
    return comp


# ---------------------------------------------------------------------------
# Per-service IR
# ---------------------------------------------------------------------------


def microservice_ir_to_doc(ir: MicroserviceIR) -> dict:
    components = [
        component_to_doc(ir.components[cid]) for cid in sorted(ir.components)
    ]
    edges = [
        {
            "fromComponentId": component_id_to_doc(a),
            "toComponentId": component_id_to_doc(b),
        }
        for a, b in sorted(ir.call_graph_edges, key=lambda e: (str(e[0]), str(e[1])))
    ]
    return {
        "name": ir.name,
        "versionId": ir.version_id,
        "components": components,
        "callGraphEdges": edges,
    }


def microservice_ir_from_doc(doc: Any, loc: str) -> MicroserviceIR:
    name = _expect(doc, "name", str, loc)
    version = _expect(doc, "versionId", str, loc)
    components: dict[ComponentId, Component] = {}
    for i, cdoc in enumerate(_expect(doc, "components", list, loc)):
        comp = component_from_doc(cdoc, f"{loc}.components[{i}]")
        if comp.id in components:
            raise DocumentError(
                f"duplicate component {comp.id}", f"{loc}.components[{i}]"
            )
        components[comp.id] = comp
    edges = set()
    for i, edoc in enumerate(_expect(doc, "callGraphEdges", list, loc)):
        eloc = f"{loc}.callGraphEdges[{i}]"
        a = component_id_from_doc(
            _expect(edoc, "fromComponentId", dict, eloc), f"{eloc}.fromComponentId"
        )
        b = component_id_from_doc(
            _expect(edoc, "toComponentId", dict, eloc), f"{eloc}.toComponentId"
        )
        edges.add((a, b))
    ir = MicroserviceIR(
        name=name,
        version_id=version,
        components=components,
        call_graph_edges=frozenset(edges),
    )
    try:
        validate_microservice_ir(ir)
    except ValueError as exc:
        raise DocumentError(str(exc), loc) from exc
    return ir


def serialize_microservice_ir(ir: MicroserviceIR) -> bytes:
    doc = microservice_ir_to_doc(ir)
    doc["schema"] = MICROSERVICE_IR_SCHEMA
    return canonical_json(doc)


def deserialize_microservice_ir(data: bytes | str) -> MicroserviceIR:
    doc = parse_json(data)
    schema = _expect(doc, "schema", str, "$")
    if schema != MICROSERVICE_IR_SCHEMA:
        raise DocumentError(
            f"expected schema {MICROSERVICE_IR_SCHEMA}, got {schema}", "$.schema"
        )
    return microservice_ir_from_doc(doc, "$")


# ---------------------------------------------------------------------------
# System IR
# ---------------------------------------------------------------------------


def _edge_to_doc(edge: DependencyEdge) -> dict:
    if isinstance(edge.evidence, RemoteCallEvidence):
        evidence: dict = {
            "restCall": _rest_call_to_doc(edge.evidence.rest_call),
            "endpoint": _endpoint_to_doc(edge.evidence.endpoint),
        }
    else:
        evidence = {"similarity": edge.evidence.similarity}
    return {
        "kind": edge.kind.value,
        "source": component_id_to_doc(edge.source),
        "target": component_id_to_doc(edge.target),
        "evidence": evidence,
    }


def _edge_from_doc(doc: Any, loc: str) -> DependencyEdge:
    kind_text = _expect(doc, "kind", str, loc)
    try:
        kind = EdgeKind(kind_text)
    except ValueError as exc:
        raise DocumentError(f"unknown edge kind {kind_text!r}", f"{loc}.kind") from exc
    source = component_id_from_doc(_expect(doc, "source", dict, loc), f"{loc}.source")
    target = component_id_from_doc(_expect(doc, "target", dict, loc), f"{loc}.target")
    edoc = _expect(doc, "evidence", dict, loc)
    evidence: RemoteCallEvidence | OverlapEvidence
    if kind is EdgeKind.REMOTE_CALL:
        evidence = RemoteCallEvidence(
            rest_call=_rest_call_from_doc(
                _expect(edoc, "restCall", dict, f"{loc}.evidence"),
                f"{loc}.evidence.restCall",
            ),
            endpoint=_endpoint_from_doc(
                _expect(edoc, "endpoint", dict, f"{loc}.evidence"),
                f"{loc}.evidence.endpoint",
            ),
        )
    else:
        similarity = _expect(edoc, "similarity", (int, float), f"{loc}.evidence")
        evidence = OverlapEvidence(similarity=float(similarity))
    try:
        return DependencyEdge(kind=kind, source=source, target=target, evidence=evidence)
    except ValueError as exc:
        raise DocumentError(str(exc), loc) from exc


def _edge_sort_key(edge: DependencyEdge) -> tuple:
    if isinstance(edge.evidence, RemoteCallEvidence):
        extra = (
            edge.evidence.rest_call.signature(),
            edge.evidence.rest_call.site_method,
            str(edge.evidence.rest_call.owning_component),
        )
    else:
        extra = ("", "", "")
    return (edge.kind.value, str(edge.source), str(edge.target)) + extra


def system_ir_to_doc(system: SystemIR) -> dict:
    return {
        "schema": SYSTEM_IR_SCHEMA,
        "versionLabel": system.version_label,
        "services": {
            name: microservice_ir_to_doc(system.services[name])
            for name in sorted(system.services)
        },
        "crossEdges": [
            _edge_to_doc(e) for e in sorted(system.cross_edges, key=_edge_sort_key)
        ],
    }


def system_ir_from_doc(doc: Any, loc: str = "$") -> SystemIR:
    label = _expect(doc, "versionLabel", str, loc)
    services: dict[str, MicroserviceIR] = {}
    services_doc = _expect(doc, "services", dict, loc)
    for name in services_doc:
        ir = microservice_ir_from_doc(services_doc[name], f"{loc}.services.{name}")
        if ir.name != name:
            raise DocumentError(
                f"service keyed {name} carries name {ir.name}",
                f"{loc}.services.{name}.name",
            )
        services[name] = ir
    edges = frozenset(
        _edge_from_doc(e, f"{loc}.crossEdges[{i}]")
        for i, e in enumerate(_expect(doc, "crossEdges", list, loc))
    )
    system = SystemIR(version_label=label, services=services, cross_edges=edges)
    try:
        validate_system_ir(system)
    except ValueError as exc:
        raise DocumentError(str(exc), f"{loc}.crossEdges") from exc
    return system


def _fragment(doc: Any, depth: int) -> bytes:
    """``doc`` encoded as it reads nested ``depth`` levels deep in a document.

    Inner lines take the enclosing indent.  Encoded JSON strings never hold a
    raw newline, so this equals embedding ``doc`` in the outer value.
    """
    text = json.dumps(doc, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + "  " * depth).encode("utf-8")


class FragmentWindow:
    """Encoded services and cross edges of the last system serialized through it.

    A service or edge that is the same object as one of the previous system's
    reuses its bytes.  Only that one system's fragments are kept.
    """

    def __init__(self) -> None:
        self._previous: dict[int, tuple[Any, bytes]] = {}
        self._current: dict[int, tuple[Any, bytes]] = {}

    def encode(self, obj: Any, to_doc: Callable[[Any], dict]) -> bytes:
        hit = self._previous.get(id(obj))
        if hit is not None and hit[0] is obj:
            data = hit[1]
        else:
            data = _fragment(to_doc(obj), 2)
        self._current[id(obj)] = (obj, data)
        return data

    def advance(self) -> None:
        self._previous, self._current = self._current, {}


def _system_pieces(system: SystemIR, window: FragmentWindow) -> Iterator[bytes]:
    """The bytes of ``canonical_json(system_ir_to_doc(system))``, in pieces.

    The top-level keys in sorted order: crossEdges, schema, services,
    versionLabel; each cross edge and each service is one fragment.
    """
    yield b'{\n  "crossEdges": ['
    sep = b"\n    "
    for edge in sorted(system.cross_edges, key=_edge_sort_key):
        yield sep
        yield window.encode(edge, _edge_to_doc)
        sep = b",\n    "
    yield b"\n  ]" if system.cross_edges else b"]"
    yield b',\n  "schema": ' + _fragment(SYSTEM_IR_SCHEMA, 1)
    yield b',\n  "services": {'
    sep = b"\n    "
    for name in sorted(system.services):
        yield sep + _fragment(name, 2) + b": "
        yield window.encode(system.services[name], microservice_ir_to_doc)
        sep = b",\n    "
    yield b"\n  }" if system.services else b"}"
    yield b',\n  "versionLabel": ' + _fragment(system.version_label, 1) + b"\n}\n"


def serialize_ir(system: SystemIR, window: FragmentWindow | None = None) -> bytes:
    """Single system-wide document; round-trips to a structurally equal IR.

    Consecutive versions serialized through one ``window`` encode only the
    services and cross edges that are not shared with the previous version.
    The bytes do not depend on the window.
    """
    window = window if window is not None else FragmentWindow()
    data = b"".join(_system_pieces(system, window))
    window.advance()
    return data


def deserialize_ir(data: bytes | str) -> SystemIR:
    doc = parse_json(data)
    schema = _expect(doc, "schema", str, "$")
    if schema != SYSTEM_IR_SCHEMA:
        raise DocumentError(
            f"expected schema {SYSTEM_IR_SCHEMA}, got {schema}", "$.schema"
        )
    return system_ir_from_doc(doc, "$")


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------


def delta_to_doc(delta: Delta) -> dict:
    changes = []
    for ch in delta.changes:
        cdoc: dict = {
            "changeKind": ch.kind.value,
            "componentId": component_id_to_doc(ch.component_id),
        }
        if ch.new_component is not None:
            cdoc["newComponent"] = component_to_doc(ch.new_component)
        if ch.old_content_hash is not None:
            cdoc["oldContentHash"] = ch.old_content_hash
        changes.append(cdoc)
    return {
        "schema": DELTA_SCHEMA,
        "microservice": delta.microservice,
        "oldVersionId": delta.old_version_id,
        "newVersionId": delta.new_version_id,
        "changes": changes,
    }


def delta_from_doc(doc: Any, loc: str = "$") -> Delta:
    micro = _expect(doc, "microservice", str, loc)
    changes = []
    for i, cdoc in enumerate(_expect(doc, "changes", list, loc)):
        cloc = f"{loc}.changes[{i}]"
        kind_text = _expect(cdoc, "changeKind", str, cloc)
        if kind_text == "REMOVE":  # accepted input alias for DELETE
            kind_text = "DELETE"
        try:
            kind = ChangeKind(kind_text)
        except ValueError as exc:
            raise DocumentError(
                f"unknown changeKind {kind_text!r}", f"{cloc}.changeKind"
            ) from exc
        cid = component_id_from_doc(
            _expect(cdoc, "componentId", dict, cloc), f"{cloc}.componentId"
        )
        new_component = None
        if "newComponent" in cdoc and cdoc["newComponent"] is not None:
            new_component = component_from_doc(
                cdoc["newComponent"], f"{cloc}.newComponent"
            )
        old_hash = cdoc.get("oldContentHash")
        changes.append(
            ComponentChange(
                kind=kind,
                component_id=cid,
                new_component=new_component,
                old_content_hash=old_hash,
            )
        )
    try:
        return make_delta(
            micro,
            _expect(doc, "oldVersionId", str, loc),
            _expect(doc, "newVersionId", str, loc),
            changes,
        )
    except ValueError as exc:
        raise DocumentError(str(exc), f"{loc}.changes") from exc


def serialize_delta(delta: Delta) -> bytes:
    return canonical_json(delta_to_doc(delta))


def deserialize_delta(data: bytes | str) -> Delta:
    doc = parse_json(data)
    schema = _expect(doc, "schema", str, "$")
    if schema != DELTA_SCHEMA:
        raise DocumentError(f"expected schema {DELTA_SCHEMA}, got {schema}", "$.schema")
    return delta_from_doc(doc, "$")
