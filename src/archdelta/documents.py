"""Serialization of the system representation, deltas and violations.

Documents are JSON with a ``schema`` version tag and fully sorted keys and
collections, in the text ``canonical_json`` gives (two-space indent, sorted
keys, ASCII escapes), so equal values serialize to identical bytes.

A record's keys are its model fields' names in lower camel case.  Each
record type's writer and reader are derived from its fields' annotations and
generated once, at import, as ``dataclasses`` generates ``__init__``.  What
is not a plain record is written by hand: the service, system and delta
documents, a violation, whose label may be its document's, and the cross
edge reader, whose ``kind`` picks its evidence type.

Reading re-checks structural invariants: a member's owner is the component
holding it, references resolve to the loaded objects themselves, a
remote-call edge's evidence is a call of its source and an endpoint of its
target, a data-overlap edge joins two entities at their overlap, stored
hashes match recomputed ones.  A failed check raises ``_Fault``, and each
enclosing reader adds its step to the fault's path, so a location is
formatted only on failure.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import typing
from enum import Enum
from functools import partial
from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter
from typing import Any, Callable, Iterator, NoReturn, Sequence

from .errors import DocumentError, UndefinedSimilarityError
from .linker import overlap_edge
from .model import (
    ChangeKind,
    Component,
    ComponentChange,
    ComponentId,
    Delta,
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
    Violation,
    hash_component,
    make_delta,
    check_microservice_ir,
)

SYSTEM_IR_SCHEMA = "system-ir@1"
MICROSERVICE_IR_SCHEMA = "microservice-ir@1"
DELTA_SCHEMA = "delta@1"
DELTA_SET_SCHEMA = "delta-set@1"
VIOLATIONS_SCHEMA = "violations@1"

# float.__repr__ of the non-finite floats, and how json writes them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_json(doc: Any) -> bytes:
    """Key-sorted, indented JSON; byte-stable for equal documents."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# What generated and hand-written code share
# ---------------------------------------------------------------------------


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


class _Fault(Exception):
    """A failed check; ``path`` holds the steps to it, innermost first."""

    def __init__(self, message: str, step: str = "") -> None:
        self.message, self.path = message, [step]


def _bad(doc: dict, key: str, kind: type) -> NoReturn:
    """Fail on ``doc[key]``, which is missing or not a ``kind``."""
    if key not in doc:
        raise _Fault(f"missing key '{key}'")
    got = type(doc[key]).__name__
    raise _Fault(f"key '{key}' should be {kind.__name__}, got {got}", "." + key)


def _get(doc: Any, key: str, kind: type) -> Any:
    """``doc[key]``, which must be a ``kind``; ``doc`` must be an object."""
    if type(doc) is not dict:
        raise _Fault("expected an object")
    value = doc.get(key)
    if type(value) is not kind:
        _bad(doc, key, kind)
    return value


def _within(doc: Any, key: str, kind: type, read: Callable, *args: Any) -> Any:
    """``read(doc[key], *args)``, where ``doc[key]`` must be a ``kind``."""
    value = _get(doc, key, kind)
    try:
        return read(value, *args)
    except _Fault as fault:
        fault.path.append("." + key)
        raise


def _each(items: list, read: Callable, *args: Any) -> tuple:
    """``read(item, *args)`` of each of ``items``."""
    out: list = []
    try:
        for item in items:
            out.append(read(item, *args))
    except _Fault as fault:
        fault.path.append(f"[{len(out)}]")
        raise
    return tuple(out)


def _strings_of(items: list) -> tuple[str, ...]:
    for i, item in enumerate(items):
        if type(item) is not str:
            raise _Fault(f"expected str, got {type(item).__name__}", f"[{i}]")
    return tuple(items)


def _number(doc: dict, key: str) -> float:
    value = doc.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _bad(doc, key, float)
    return float(value)


def _member(doc: Any, key: str, enum: type[Enum]) -> Any:
    """The member of ``enum`` whose value is ``doc[key]``."""
    value = _get(doc, key, str)
    try:
        return enum(value)
    except ValueError as exc:
        raise _Fault(str(exc), "." + key) from None


# ---------------------------------------------------------------------------
# The codec generated from the record types
# ---------------------------------------------------------------------------

# Each record type's writer ``(value, indent) -> text``, the text of an object
# closing on ``indent``, and reader ``(doc, holder id or None) -> value``.
_WRITE: dict[type, Callable[[Any, str], str]] = {}
_READ: dict[type, Callable[[Any, ComponentId | None], Any]] = {}

# How a field of each kind is written: its value is ``{v}``, and ``{R}`` names
# the record type it holds.
_WRITE_VALUE = {
    "str": "_str({v})",
    "float": "_float({v})",
    "enum": "_str({v}.value)",
    "strings": "_strings({v}, i)",
    "records": "_array({v}, write_{R}, i)",
    "record": "write_{R}({v}, i)",
    "optional": '(write_{R}({v}, i) if {v} is not None else "null")',
    "union": "_WRITE[type({v})]({v}, i)",
}
# How a field of each kind is read from key ``{k}`` of the object ``d`` into
# ``{n}``: checked against a JSON type ``{t}`` and, if it holds more, read on
# in a ``try`` that adds the key to a fault's path.  ``{o}`` is the holder id
# passed to the readers of its records.
_CHECK = """{n} = d.get('{k}')
    if {null}type({n}) is not {t}:
        _bad(d, '{k}', {t})"""
_WITHIN = """
    try:
        {n} = {read}
    except _Fault as fault:
        fault.path.append('.{k}')
        raise"""


def _checked(t: str, read: str = "", null: bool = False) -> str:
    """Check ``{n}`` against the JSON type ``t`` (or ``null``), then ``read`` it."""
    check = _CHECK.replace("{null}", "{n} is not None and " if null else "")
    return check.replace("{t}", t) + (_WITHIN.replace("{read}", read) if read else "")


_READ_VALUE = {
    "str": _checked("str"),
    "float": "{n} = _number(d, '{k}')",
    "enum": """{n} = d.get('{k}')
    {n} = {R}_members.get({n}) if type({n}) is str else None
    if {n} is None:
        {n} = _member(d, '{k}', {R})""",
    "strings": _checked("list", "_strings_of({n})"),
    "records": _checked("list", "_each({n}, read_{R}, {o})"),
    "record": _checked("dict", "read_{R}({n}, {o})"),
    "optional": _checked("dict", "None if {n} is None else read_{R}({n}, {o})", True),
}
# A record with an ``_HOLDER`` id field holds its members: a member's
# ``_OWNER`` field must equal that id and is then that very object.
_HOLDER, _OWNER = "id", "owning_component"


def _held(cid: ComponentId, holder: ComponentId | None, key: str) -> ComponentId:
    """A member's owner ``cid``, which must be its ``holder``'s id if it has one."""
    if holder is None:
        return cid
    if cid != holder:
        raise _Fault(f"owner {cid} is not the holding component {holder}", "." + key)
    return holder


def _fields(cls: type) -> list[tuple[str, str, str, Any]]:
    """Each field of ``cls`` as (name, key, kind, type), in declaration order."""
    out = []
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        if hint in (str, float):
            kind, of = hint.__name__, hint
        elif isinstance(hint, type) and issubclass(hint, Enum):
            kind, of = "enum", hint
        elif dataclasses.is_dataclass(hint) or hasattr(hint, "_fields"):
            kind, of = "record", hint  # a dataclass or a named tuple
        elif typing.get_origin(hint) is tuple:
            kind, of = ("strings", str) if args[0] is str else ("records", args[0])
        elif type(None) in args:
            kind, of = "optional", args[0]
        else:  # a union of record types
            kind, of = "union", hint
        head, *rest = name.split("_")
        key = head + "".join(part[:1].upper() + part[1:] for part in rest)
        out.append((name, key, kind, of))
    return out


def _writer_source(cls: type) -> str:
    items = []
    for name, key, kind, of in sorted(_fields(cls), key=lambda f: f[1]):
        value = _WRITE_VALUE[kind].format(v="x." + name, R=getattr(of, "__name__", ""))
        items.append('\\n{i}"' + key + '": {' + value + "}")
    return (
        f"def write_{cls.__name__}(x, ind):\n    i = ind + '  '\n"
        "    return f'{{" + ",".join(items) + "\\n{ind}}}'\n"
    )


def _reader_source(cls: type) -> str:
    lines = [
        f"def read_{cls.__name__}(d, owner):",
        "    if type(d) is not dict:\n        raise _Fault('expected an object')",
    ]
    holder = "owner"
    for name, key, kind, of in _fields(cls):
        text = _READ_VALUE[kind].replace("{n}", name).replace("{k}", key)
        text = text.replace("{o}", holder)
        lines.append("    " + text.replace("{R}", of.__name__))
        if name == _OWNER:
            lines.append(f"    {name} = _held({name}, owner, '{key}')")
        holder = name if name == _HOLDER else holder
    names = ", ".join(name for name, _, _, _ in _fields(cls))
    lines.append(f"    return {cls.__name__}({names})\n")
    return "\n".join(lines)


def _generate(written: Sequence[type], read: Sequence[type]) -> None:
    """Make the writers of the ``written`` types and the readers of ``read``."""
    namespace = dict(globals())
    for cls in read:
        for _, _, kind, of in _fields(cls):
            if kind == "enum":
                namespace[of.__name__] = of
                namespace[f"{of.__name__}_members"] = {m.value: m for m in of}
    source = "\n".join([*map(_writer_source, written), *map(_reader_source, read)])
    exec(compile(source, "<archdelta.documents codec>", "exec"), namespace)
    _WRITE.update((cls, namespace[f"write_{cls.__name__}"]) for cls in written)
    _READ.update((cls, namespace[f"read_{cls.__name__}"]) for cls in read)


_RECORDS = (ComponentId, Parameter, RestCall, Endpoint, Method, EntityField, Entity)
_RECORDS += (Component, RemoteCallEvidence, OverlapEvidence)
_generate((*_RECORDS, DependencyEdge, TriggerItem, ImpactedItem), _RECORDS)


def component_id_to_doc(cid: ComponentId) -> dict:
    return {
        "microservice": cid.microservice,
        "componentType": cid.component_type.value,
        "qualifiedName": cid.qualified_name,
    }


def _read_component(doc: Any) -> Component:
    comp = _READ[Component](doc, None)
    recomputed = hash_component(comp)
    if recomputed != comp.content_hash:
        raise _Fault(
            f"stored contentHash {comp.content_hash[:12]}... does not match "
            f"recomputed {recomputed[:12]}...",
            ".contentHash",
        )
    return comp


def _loaded(data: bytes | str, schema: str | None, read: Callable[[Any], Any]) -> Any:
    """``read`` of the JSON document ``data``, tagged ``schema`` unless that
    is None; a fault is raised as a ``DocumentError`` at its path.  Rule
    files, marker profiles and replay configs are read through here too.

    The cyclic collector is paused meanwhile, then left as it was found: a
    load makes many objects but no cycle, so a collection would find nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
        try:
            tag = _get(doc, "schema", str) if schema is not None else None
            if tag != schema:
                raise _Fault(f"expected schema {schema}, got {tag}", ".schema")
            return read(doc)
        except _Fault as fault:
            location = "$" + "".join(reversed(fault.path))
            raise DocumentError(fault.message, location) from None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Per-service IR
# ---------------------------------------------------------------------------


def _call_edge_text(edge: tuple[ComponentId, ComponentId], ind: str) -> str:
    i = ind + "  "
    text = _WRITE[ComponentId]
    return (
        f'{{\n{i}"fromComponentId": {text(edge[0], i)},'
        f'\n{i}"toComponentId": {text(edge[1], i)}\n{ind}}}'
    )


def _service_text(ir: MicroserviceIR, ind: str, schema: str | None = None) -> str:
    """``ir`` as an object; ``schema`` adds the tag of a standalone document."""
    i = ind + "  "
    edges = sorted(ir.call_graph_edges, key=lambda e: (str(e[0]), str(e[1])))
    components = [ir.components[cid] for cid in sorted(ir.components)]
    tag = f',\n{i}"schema": {_str(schema)}' if schema is not None else ""
    return (
        f'{{\n{i}"callGraphEdges": {_array(edges, _call_edge_text, i)},'
        f'\n{i}"components": {_array(components, _WRITE[Component], i)},'
        f'\n{i}"name": {_str(ir.name)}{tag},'
        f'\n{i}"versionId": {_str(ir.version_id)}\n{ind}}}'
    )


# An id document's fields: the key a loaded component is found by, which hashes
# without running Python code.  KeyError or TypeError on a misshapen document.
_key = itemgetter("microservice", "componentType", "qualifiedName")


def _read_call_edge(doc: Any, ids: dict[tuple, Any]) -> tuple:
    try:
        return ids[_key(doc["fromComponentId"])].id, ids[_key(doc["toComponentId"])].id
    except (KeyError, TypeError):  # read in full to name the fault, if there is one
        read = _READ[ComponentId]
        a = _within(doc, "fromComponentId", dict, read, None)
        return a, _within(doc, "toComponentId", dict, read, None)


def _read_service(doc: Any, ids: dict[tuple, Any]) -> MicroserviceIR:
    """``doc`` as a service, whose call graph's ends are found in ``ids``.  Each
    component is added to ``ids`` by its key of 3 strings, its rest calls and
    endpoints by that key and their own fields: 7 and 6 strings, never equal."""
    name, version = _get(doc, "name", str), _get(doc, "versionId", str)
    components: dict[ComponentId, Component] = {}
    for i, comp in enumerate(_within(doc, "components", list, _each, _read_component)):
        if components.setdefault(comp.id, comp) is not comp:
            raise _Fault(f"duplicate component {comp.id}", f".components[{i}]")
        cid = comp.id
        key = cid.microservice, cid.component_type.value, cid.qualified_name
        ids[key] = comp
        for c in (c for m in comp.methods for c in m.rest_calls):
            ids[(*key, c.http_method, c.target_service, c.path, c.site_method)] = c
        for e in comp.endpoints:
            ids[(*key, e.http_method, e.path, e.handler_method)] = e
    edges = _within(doc, "callGraphEdges", list, _each, _read_call_edge, ids)
    ir = MicroserviceIR(name, version, components, frozenset(edges))
    try:
        check_microservice_ir(ir)
    except ValueError as exc:
        raise _Fault(str(exc)) from None
    return ir


def serialize_microservice_ir(ir: MicroserviceIR) -> bytes:
    return (_service_text(ir, "", MICROSERVICE_IR_SCHEMA) + "\n").encode()


def deserialize_microservice_ir(data: bytes | str) -> MicroserviceIR:
    return _loaded(data, MICROSERVICE_IR_SCHEMA, lambda doc: _read_service(doc, {}))


# ---------------------------------------------------------------------------
# System IR
# ---------------------------------------------------------------------------


_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}
# Per end of a RemoteCall edge: its role, the evidence key of its member, the
# member's fields and the words that name the member in a fault.
_CALL = itemgetter("httpMethod", "targetService", "path", "siteMethod")
_ENDPOINT = itemgetter("httpMethod", "path", "handlerMethod")
_SIDES = (
    ("source", "restCall", _CALL, "rest call {} {} {} in {}"),
    ("target", "endpoint", _ENDPOINT, "endpoint {} {} of {}"),
)


def _component(key: tuple, ids: dict[tuple, Any]) -> Component:
    comp = ids.get(key)
    if comp is None:
        raise _Fault(f"cross edge references unknown component {'::'.join(key)}")
    return comp


def _overlap(source: Component, target: Component, similarity: float) -> DependencyEdge:
    """The edge the linker makes between two entities, which must be the
    document's: from ``source`` to ``target``, at ``similarity``."""
    for comp in (source, target):
        if comp.entity_ref is None:
            raise _Fault(f"DataOverlap end {comp.id} is not an entity")
    ends = (source.id, source.entity_ref), (target.id, target.entity_ref)
    try:
        edge = overlap_edge(*ends)
    except UndefinedSimilarityError as exc:
        raise _Fault(str(exc), ".evidence.similarity") from None
    except ValueError as exc:  # both ends in one service
        raise _Fault(str(exc)) from None
    if edge.source is not source.id:
        raise _Fault(f"DataOverlap source {source.id} sorts after target {target.id}")
    overlap = edge.evidence.similarity
    if similarity != overlap:
        what = f"similarity {_float(similarity)} is not the overlap {_float(overlap)}"
        raise _Fault(f"{what} of {source.id} and {target.id}", ".evidence.similarity")
    return edge


def _edge(doc: Any, ids: dict[tuple, Any]) -> DependencyEdge:
    """The edge of ``doc``, made of the objects of ``ids``.  A failed check raises
    ``_Fault``; a misshapen document may raise KeyError or TypeError instead."""
    kind = _EDGE_KINDS[doc["kind"]]
    ends = _key(doc["source"]), _key(doc["target"])
    if kind is EdgeKind.DATA_OVERLAP:
        source, target = _component(ends[0], ids), _component(ends[1], ids)
        similarity = _within(doc, "evidence", dict, _number, "similarity")
        return _overlap(source, target, similarity)
    # the call is made by the source and served by the target
    parts = [doc["evidence"][key] for _, key, _, _ in _SIDES]
    for (role, key, _, _), part, end in zip(_SIDES, parts, ends):
        owner = _key(part["owningComponent"])
        if owner != end:
            what = f"owner {'::'.join(owner)} is not the edge's {role}"
            at = f".evidence.{key}.owningComponent"
            raise _Fault(f"{what} {'::'.join(end)}", at)
    members = []
    for (_, key, fields, words), part, end in zip(_SIDES, parts, ends):
        members.append(ids.get(end + fields(part)))
        if members[-1] is None:
            what = f"{words.format(*fields(part))} is not one of"
            raise _Fault(f"{what} {_component(end, ids).id}'s", ".evidence." + key)
    evidence = RemoteCallEvidence(*members)
    try:
        return DependencyEdge(kind, ids[ends[0]].id, ids[ends[1]].id, evidence)
    except ValueError as exc:
        raise _Fault(str(exc)) from None


def _read_edge(doc: Any, ids: dict[tuple, Any]) -> DependencyEdge:
    try:
        return _edge(doc, ids)
    except (_Fault, KeyError, TypeError):
        pass
    # A fault in the edge's form comes before any other: read it field by
    # field, then check it again to name the fault.
    kind = _member(doc, "kind", EdgeKind)
    for key in ("source", "target"):
        _within(doc, key, dict, _READ[ComponentId], None)
    evidence = RemoteCallEvidence if kind is EdgeKind.REMOTE_CALL else OverlapEvidence
    _within(doc, "evidence", dict, _READ[evidence], None)
    return _edge(doc, ids)


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


def _read_system(doc: dict) -> SystemIR:
    label = _get(doc, "versionLabel", str)
    services: dict[str, MicroserviceIR] = {}
    ids: dict[tuple, Any] = {}
    for name, sdoc in _get(doc, "services", dict).items():
        try:
            services[name] = ir = _read_service(sdoc, ids)
            if ir.name != name:
                raise _Fault(f"service keyed {name} carries name {ir.name}", ".name")
        except _Fault as fault:
            fault.path.append(f".services.{name}")
            raise
    edges = _within(doc, "crossEdges", list, _each, _read_edge, ids)
    return SystemIR(label, services, frozenset(edges))


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
        yield window.encode(edge, _WRITE[DependencyEdge])
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
    return _loaded(data, SYSTEM_IR_SCHEMA, _read_system)


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------


def _change_text(ch: ComponentChange, ind: str) -> str:
    i = ind + "  "
    text = (
        f'{{\n{i}"changeKind": {_str(ch.kind.value)},'
        f'\n{i}"componentId": {_WRITE[ComponentId](ch.component_id, i)}'
    )
    if ch.new_component is not None:
        text += f',\n{i}"newComponent": {_WRITE[Component](ch.new_component, i)}'
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


def _read_change(doc: Any) -> ComponentChange:
    if _get(doc, "changeKind", str) == "REMOVE":  # an accepted input alias for DELETE
        doc = {**doc, "changeKind": "DELETE"}
    kind = _member(doc, "changeKind", ChangeKind)
    cid = _within(doc, "componentId", dict, _READ[ComponentId], None)
    new = doc.get("newComponent")
    new = None if new is None else _within(doc, "newComponent", dict, _read_component)
    old_hash = doc.get("oldContentHash")
    if old_hash is not None and type(old_hash) is not str:
        _bad(doc, "oldContentHash", str)
    return ComponentChange(kind, cid, new, old_hash)


def _read_delta(doc: dict) -> Delta:
    micro = _get(doc, "microservice", str)
    changes = _within(doc, "changes", list, _each, _read_change)
    old, new = _get(doc, "oldVersionId", str), _get(doc, "newVersionId", str)
    try:
        return make_delta(micro, old, new, changes)
    except ValueError as exc:
        raise _Fault(str(exc), ".changes") from None


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
    return _loaded(data, DELTA_SCHEMA, _read_delta)


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------


def _violation_text(v: Violation, ind: str, label: str) -> str:
    i = ind + "  "
    own = label if v.system_version_label is None else v.system_version_label
    return (
        f'{{\n{i}"dedupKey": {_str(v.dedup_key)},'
        f'\n{i}"impacted": {_array(v.impacted, _WRITE[ImpactedItem], i)},'
        f'\n{i}"ruleName": {_str(v.rule_name)},'
        f'\n{i}"systemVersionLabel": {_str(own)},'
        f'\n{i}"triggering": {_array(v.triggering, _WRITE[TriggerItem], i)}\n{ind}}}'
    )


def serialize_violations(violations: Sequence[Violation], label: str) -> bytes:
    """The violations found in the system version ``label``, as
    ``violations@1``.  A violation without a label of its own takes
    ``label``."""
    text = partial(_violation_text, label=label)
    return (
        f'{{\n  "schema": {_str(VIOLATIONS_SCHEMA)},'
        f'\n  "systemVersionLabel": {_str(label)},'
        f'\n  "violations": {_array(violations, text, "  ")}\n}}\n'
    ).encode()
