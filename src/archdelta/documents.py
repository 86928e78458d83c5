"""Serialization of the system representation and deltas.

Documents are JSON with lower-camel-case keys mirroring the model field
names, a ``schema`` version tag, and fully sorted keys and collections, so
equal values serialize to identical bytes.  Deserialization re-checks
structural invariants (references resolve, stored hashes match recomputed
ones) and reports failures with a JSON-path style location.

IR and delta documents are written from the model objects by one ``_…_text``
function per type, given the indent its value closes on, in the text
``canonical_json`` gives: two-space indent, sorted keys, ASCII escapes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from typing import Any, Callable, Iterator, Sequence

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
DELTA_SET_SCHEMA = "delta-set@1"

# float.__repr__ of the non-finite floats, and how json writes them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_json(doc: Any) -> bytes:
    """Key-sorted, indented JSON; byte-stable for equal documents."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _array(items: Sequence, text: Callable[[Any, str], str], ind: str) -> str:
    """``items`` as a list closing on indent ``ind``, each item written by ``text``."""
    if not items:
        return "[]"
    inner = ind + "  "
    sep = ",\n" + inner
    return f"[\n{inner}{sep.join([text(x, inner) for x in items])}\n{ind}]"


def _strings(items: Sequence[str], ind: str) -> str:
    if not items:
        return "[]"
    sep = ",\n" + ind + "  "
    return f"[\n{ind}  {sep.join(map(_str, items))}\n{ind}]"


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


def _component_id_text(cid: ComponentId, ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"componentType": {_str(cid.component_type.value)},'
        f'\n{i}"microservice": {_str(cid.microservice)},'
        f'\n{i}"qualifiedName": {_str(cid.qualified_name)}\n{ind}}}'
    )


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


def _rest_call_text(call: RestCall, ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"httpMethod": {_str(call.http_method)},'
        f'\n{i}"owningComponent": {_component_id_text(call.owning_component, i)},'
        f'\n{i}"path": {_str(call.path)},'
        f'\n{i}"siteMethod": {_str(call.site_method)},'
        f'\n{i}"targetService": {_str(call.target_service)}\n{ind}}}'
    )


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


def _endpoint_text(ep: Endpoint, ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"handlerMethod": {_str(ep.handler_method)},'
        f'\n{i}"httpMethod": {_str(ep.http_method)},'
        f'\n{i}"owningComponent": {_component_id_text(ep.owning_component, i)},'
        f'\n{i}"path": {_str(ep.path)}\n{ind}}}'
    )


def _endpoint_from_doc(doc: Any, loc: str) -> Endpoint:
    return Endpoint(
        http_method=_expect(doc, "httpMethod", str, loc),
        path=_expect(doc, "path", str, loc),
        handler_method=_expect(doc, "handlerMethod", str, loc),
        owning_component=component_id_from_doc(
            _expect(doc, "owningComponent", dict, loc), f"{loc}.owningComponent"
        ),
    )


def _parameter_text(p: Parameter, ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"declaredType": {_str(p.declared_type)},'
        f'\n{i}"name": {_str(p.name)}\n{ind}}}'
    )


def _method_text(m: Method, ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"annotations": {_strings(m.annotations, i)},'
        f'\n{i}"bodyCallTargets": {_strings(m.body_call_targets, i)},'
        f'\n{i}"contentHash": {_str(m.content_hash)},'
        f'\n{i}"name": {_str(m.name)},'
        f'\n{i}"parameters": {_array(m.parameters, _parameter_text, i)},'
        f'\n{i}"restCalls": {_array(m.rest_calls, _rest_call_text, i)},'
        f'\n{i}"returnType": {_str(m.return_type)}\n{ind}}}'
    )


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


def _entity_field_text(f: EntityField, ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"declaredType": {_str(f.declared_type)},'
        f'\n{i}"fieldName": {_str(f.field_name)}\n{ind}}}'
    )


def _entity_text(ent: Entity, ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"annotations": {_strings(ent.annotations, i)},'
        f'\n{i}"fields": {_array(ent.fields, _entity_field_text, i)},'
        f'\n{i}"name": {_str(ent.name)}\n{ind}}}'
    )


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


def _component_text(comp: Component, ind: str) -> str:
    i = ind + "  "
    entity = _entity_text(comp.entity_ref, i) if comp.entity_ref else "null"
    return (
        f'{{\n{i}"contentHash": {_str(comp.content_hash)},'
        f'\n{i}"endpoints": {_array(comp.endpoints, _endpoint_text, i)},'
        f'\n{i}"entityRef": {entity},'
        f'\n{i}"id": {_component_id_text(comp.id, i)},'
        f'\n{i}"methods": {_array(comp.methods, _method_text, i)},'
        f'\n{i}"sourcePath": {_str(comp.source_path)}\n{ind}}}'
    )


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


def _call_edge_text(edge: tuple[ComponentId, ComponentId], ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"fromComponentId": {_component_id_text(edge[0], i)},'
        f'\n{i}"toComponentId": {_component_id_text(edge[1], i)}\n{ind}}}'
    )


def _service_text(ir: MicroserviceIR, ind: str, schema: str | None = None) -> str:
    """``ir`` as an object; ``schema`` adds the tag of a standalone document."""
    i = ind + "  "
    edges = sorted(ir.call_graph_edges, key=lambda e: (str(e[0]), str(e[1])))
    components = [ir.components[cid] for cid in sorted(ir.components)]
    tag = f',\n{i}"schema": {_str(schema)}' if schema is not None else ""
    return (
        f'{{\n{i}"callGraphEdges": {_array(edges, _call_edge_text, i)},'
        f'\n{i}"components": {_array(components, _component_text, i)},'
        f'\n{i}"name": {_str(ir.name)}{tag},'
        f'\n{i}"versionId": {_str(ir.version_id)}\n{ind}}}'
    )


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
    return (_service_text(ir, "", MICROSERVICE_IR_SCHEMA) + "\n").encode()


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


def _edge_text(edge: DependencyEdge, ind: str) -> str:
    i, j = ind + "  ", ind + "    "
    if isinstance(edge.evidence, RemoteCallEvidence):
        evidence = (
            f'{{\n{j}"endpoint": {_endpoint_text(edge.evidence.endpoint, j)},'
            f'\n{j}"restCall": {_rest_call_text(edge.evidence.rest_call, j)}\n{i}}}'
        )
    else:
        evidence = f'{{\n{j}"similarity": {_float(edge.evidence.similarity)}\n{i}}}'
    return (
        f'{{\n{i}"evidence": {evidence},'
        f'\n{i}"kind": {_str(edge.kind.value)},'
        f'\n{i}"source": {_component_id_text(edge.source, i)},'
        f'\n{i}"target": {_component_id_text(edge.target, i)}\n{ind}}}'
    )


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


class FragmentWindow:
    """Encoded services and cross edges of the last system serialized through it.

    A service or edge that is the same object as one of the previous system's
    reuses its bytes.  Only that one system's fragments are kept.
    """

    def __init__(self) -> None:
        self._previous: dict[int, tuple[Any, bytes]] = {}
        self._current: dict[int, tuple[Any, bytes]] = {}

    def encode(self, obj: Any, text: Callable[[Any, str], str]) -> bytes:
        """``obj``'s bytes as a value two levels deep, by ``text`` unless reused."""
        hit = self._previous.get(id(obj))
        if hit is not None and hit[0] is obj:
            data = hit[1]
        else:
            data = text(obj, "    ").encode()
        self._current[id(obj)] = (obj, data)
        return data

    def advance(self) -> None:
        self._previous, self._current = self._current, {}


def _system_pieces(system: SystemIR, window: FragmentWindow) -> Iterator[bytes]:
    """The bytes of the system document, in pieces.

    The top-level keys in sorted order: crossEdges, schema, services,
    versionLabel; each cross edge and each service is one fragment, encoded
    as it is written so that the whole document is never held as text.
    """
    yield b'{\n  "crossEdges": ['
    sep = b"\n    "
    for edge in sorted(system.cross_edges, key=_edge_sort_key):
        yield sep
        yield window.encode(edge, _edge_text)
        sep = b",\n    "
    yield b"\n  ]" if system.cross_edges else b"]"
    yield f',\n  "schema": {_str(SYSTEM_IR_SCHEMA)},\n  "services": {{'.encode()
    sep = "\n    "
    for name in sorted(system.services):
        yield f"{sep}{_str(name)}: ".encode()
        yield window.encode(system.services[name], _service_text)
        sep = ",\n    "
    yield b"\n  }" if system.services else b"}"
    yield f',\n  "versionLabel": {_str(system.version_label)}\n}}\n'.encode()


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


def _change_text(ch: ComponentChange, ind: str) -> str:
    i = ind + "  "
    text = (
        f'{{\n{i}"changeKind": {_str(ch.kind.value)},'
        f'\n{i}"componentId": {_component_id_text(ch.component_id, i)}'
    )
    if ch.new_component is not None:
        text += f',\n{i}"newComponent": {_component_text(ch.new_component, i)}'
    if ch.old_content_hash is not None:
        text += f',\n{i}"oldContentHash": {_str(ch.old_content_hash)}'
    return f"{text}\n{ind}}}"


def _delta_text(delta: Delta, ind: str) -> str:
    i = ind + "  "
    return (
        f'{{\n{i}"changes": {_array(delta.changes, _change_text, i)},'
        f'\n{i}"microservice": {_str(delta.microservice)},'
        f'\n{i}"newVersionId": {_str(delta.new_version_id)},'
        f'\n{i}"oldVersionId": {_str(delta.old_version_id)},'
        f'\n{i}"schema": {_str(DELTA_SCHEMA)}\n{ind}}}'
    )


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
    return (_delta_text(delta, "") + "\n").encode()


def serialize_delta_set(
    deltas: Sequence[Delta], reanchored: bool, removed_services: Sequence[str]
) -> bytes:
    """The deltas of one replayed version, as ``delta-set@1``."""
    return (
        f'{{\n  "deltas": {_array(deltas, _delta_text, "  ")},'
        f'\n  "reanchored": {"true" if reanchored else "false"},'
        f'\n  "removedServices": {_strings(removed_services, "  ")},'
        f'\n  "schema": {_str(DELTA_SET_SCHEMA)}\n}}\n'
    ).encode()


def deserialize_delta(data: bytes | str) -> Delta:
    doc = parse_json(data)
    schema = _expect(doc, "schema", str, "$")
    if schema != DELTA_SCHEMA:
        raise DocumentError(f"expected schema {DELTA_SCHEMA}, got {schema}", "$.schema")
    return delta_from_doc(doc, "$")
