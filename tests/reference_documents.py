"""The dict builders of the IR, delta and violations documents, kept as the
tests' reference.

This is how the documents were written before the codec: each model object
becomes a plain dict, and ``canonical_json`` encodes it with ``json.dumps``.
The writers in ``archdelta.documents`` must give the same bytes.
"""

from __future__ import annotations

from archdelta.documents import (
    DELTA_SCHEMA,
    DELTA_SET_SCHEMA,
    MICROSERVICE_IR_SCHEMA,
    SYSTEM_IR_SCHEMA,
    VIOLATIONS_SCHEMA,
    _edge_sort_key,
    component_id_to_doc,
)
from archdelta.model import (
    Component,
    Delta,
    DependencyEdge,
    Endpoint,
    Entity,
    Method,
    MicroserviceIR,
    RemoteCallEvidence,
    RestCall,
    SystemIR,
    Violation,
)


def _rest_call_to_doc(call: RestCall) -> dict:
    return {
        "httpMethod": call.http_method,
        "targetService": call.target_service,
        "path": call.path,
        "siteMethod": call.site_method,
        "owningComponent": component_id_to_doc(call.owning_component),
    }


def _endpoint_to_doc(ep: Endpoint) -> dict:
    return {
        "httpMethod": ep.http_method,
        "path": ep.path,
        "handlerMethod": ep.handler_method,
        "owningComponent": component_id_to_doc(ep.owning_component),
    }


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


def _entity_to_doc(ent: Entity) -> dict:
    return {
        "name": ent.name,
        "fields": [
            {"fieldName": f.field_name, "declaredType": f.declared_type}
            for f in ent.fields
        ],
        "annotations": list(ent.annotations),
    }


def component_to_doc(comp: Component) -> dict:
    return {
        "id": component_id_to_doc(comp.id),
        "methods": [_method_to_doc(m) for m in comp.methods],
        "endpoints": [_endpoint_to_doc(e) for e in comp.endpoints],
        "entityRef": _entity_to_doc(comp.entity_ref) if comp.entity_ref else None,
        "sourcePath": comp.source_path,
        "contentHash": comp.content_hash,
    }


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


def standalone_microservice_ir_to_doc(ir: MicroserviceIR) -> dict:
    """The ``microservice-ir@1`` document: the service with its schema tag."""
    return {**microservice_ir_to_doc(ir), "schema": MICROSERVICE_IR_SCHEMA}


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


def delta_set_to_doc(deltas, reanchored: bool, removed_services) -> dict:
    """The ``delta-set@1`` document of one replayed version."""
    return {
        "schema": DELTA_SET_SCHEMA,
        "deltas": [delta_to_doc(d) for d in deltas],
        "reanchored": reanchored,
        "removedServices": list(removed_services),
    }


def violation_to_doc(v: Violation, label: str) -> dict:
    """``v``'s document in the violations document of version ``label``."""
    own = v.system_version_label
    return {
        "ruleName": v.rule_name,
        "systemVersionLabel": label if own is None else own,
        "triggering": [
            {
                "componentId": component_id_to_doc(t.component_id),
                "changeKind": t.change_kind.value,
            }
            for t in v.triggering
        ],
        "impacted": [
            {
                "componentId": component_id_to_doc(i.component_id),
                "kind": i.kind,
                "evidence": i.evidence,
                "site": i.site,
            }
            for i in v.impacted
        ],
        "dedupKey": v.dedup_key,
    }


def violations_doc(violations, label: str) -> dict:
    """The ``violations@1`` document of one system version."""
    return {
        "schema": VIOLATIONS_SCHEMA,
        "systemVersionLabel": label,
        "violations": [violation_to_doc(v, label) for v in violations],
    }
