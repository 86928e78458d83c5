"""The component digest as ``archdelta.model`` computed it before it sorted
members once and formatted them without building a component to hash.

``hash_component`` must give the same digest as this one for every
component, in whatever order its members come.
"""

from __future__ import annotations

import hashlib

from archdelta.model import Component, Endpoint, Method


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _method_sort_key(m: Method) -> tuple:
    return (m.name, m.arity, m.signature())


def _endpoint_sort_key(e: Endpoint) -> tuple:
    return (e.http_method, e.path, e.handler_method)


def hash_component(c: Component) -> str:
    """Digest over canonically ordered member content.

    Insensitive to member iteration order; sensitive to any method body,
    signature, annotation, endpoint or entity-field change.  The source path
    is deliberately not hashed: a file move that preserves the qualified name
    is not a change.
    """
    parts: list[str] = []
    for m in sorted(c.methods, key=_method_sort_key):
        calls = ";".join(r.signature() for r in m.rest_calls)
        parts.append(
            "m|{name}|{params}|{ret}|{anns}|{body}|{targets}|{calls}".format(
                name=m.name,
                params=",".join(f"{p.name}:{p.declared_type}" for p in m.parameters),
                ret=m.return_type,
                anns=";".join(m.annotations),
                body=m.content_hash,
                targets=";".join(m.body_call_targets),
                calls=calls,
            )
        )
    for e in sorted(c.endpoints, key=_endpoint_sort_key):
        parts.append(f"e|{e.http_method}|{e.path}|{e.handler_method}")
    if c.entity_ref is not None:
        ent = c.entity_ref
        fields = ",".join(
            f"{f.field_name}:{f.declared_type}"
            for f in sorted(ent.fields, key=lambda f: (f.field_name, f.declared_type))
        )
        parts.append(f"d|{ent.name}|{fields}|{';'.join(ent.annotations)}")
    return _sha256("\n".join(parts))
