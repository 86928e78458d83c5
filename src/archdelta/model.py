"""Domain model for the system representation.

The representation has two dimensions: per-service component graphs
(controllers, services, repositories, entities and the method calls between
them) and cross-service dependency edges recovered from remote calls and
entity data overlaps.  Everything in this module is an immutable value;
instances can be shared freely across threads.

Identity and content are kept separate on purpose: a :class:`ComponentId` is
name-based and survives edits, while ``content_hash`` tracks what the
component currently contains.  Version diffing compares hashes under stable
identities.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    from .linker import LinkIndex, OverlapIndex
    from .rules import LinkViolations

UNRESOLVED = "UNRESOLVED"
PATH_VAR = "{*}"
HTTP_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH")

# Placeholder spliced into URL strings where a non-literal expression sat.
NON_LITERAL = "\x00"


# Each enum hashes as its value does: ``str.__hash__`` runs in C, while
# ``Enum.__hash__`` is a Python call (and hashes the member's name).
class ComponentType(str, Enum):
    __hash__ = str.__hash__

    CONTROLLER = "Controller"
    SERVICE = "Service"
    REPOSITORY = "Repository"
    ENTITY = "Entity"


class ChangeKind(str, Enum):
    __hash__ = str.__hash__

    ADD = "ADD"
    MODIFY = "MODIFY"
    DELETE = "DELETE"


class EdgeKind(str, Enum):
    __hash__ = str.__hash__

    REMOTE_CALL = "RemoteCall"
    DATA_OVERLAP = "DataOverlap"


# ---------------------------------------------------------------------------
# Source text normalization and hashing
# ---------------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The one source tokenizer: literals and comments.  A literal is a string,
# char or ``"""`` text block; inside it a backslash escapes the next character,
# and an unterminated literal or block comment runs to the end of the text.
# Whatever no lexeme covers is code.
_LEXEME = re.compile(
    r"""(?P<literal>(?P<quote>"{3}|["'])(?:[^"'\\]+|\\.?|(?!(?P=quote))["'])*"""
    r"(?P<close>(?P=quote))?)"
    r"|(?P<comment>//[^\n]*|/\*.*?(?:\*/|\Z))",
    re.DOTALL,
)
# Every lexeme starts at one of these, so the pattern is tried only there.
_LEXEME_START = re.compile(r"[\"'/]")
_NOT_NEWLINE = re.compile(r"[^\n]")
_SPACES = re.compile(r"\s+")


def _lexemes(text: str) -> Iterator[re.Match]:
    """The literals and comments of ``text``, in order."""
    find, match = _LEXEME_START.search, _LEXEME.match
    pos = 0
    while hit := find(text, pos):
        m = match(text, hit.start())
        if m is None:  # a slash that starts no comment
            pos = hit.end()
        else:
            yield m
            pos = m.end()


def lexed_views(text: str) -> tuple[str, str, list[tuple[int, int]]]:
    """The two offset-aligned views of a source text, from one lexeme pass,
    and the spans of its literals that hold whitespace, in order.

    ``code`` has every comment character blanked except newlines, so
    ``"http://x"`` stays intact.  ``skel`` additionally blanks the interior
    of every literal, quotes kept, so any brace, keyword or separator found
    in it is real code.
    """
    code: list[str] = []
    skel: list[str] = []
    spaced: list[tuple[int, int]] = []
    pos = 0
    for m in _lexemes(text):
        start, end = m.span()
        code.append(text[pos:start])
        skel.append(text[pos:start])
        pos = end
        if m.lastgroup == "comment":
            blank = _NOT_NEWLINE.sub(" ", m.group())
            code.append(blank)
            skel.append(blank)
        else:
            literal, quote, close = m.group(), m.group("quote"), m.group("close") or ""
            code.append(literal)
            skel.append(quote + " " * (end - start - len(quote) - len(close)) + close)
            if _SPACES.search(literal):
                spaced.append((start, end))
    code.append(text[pos:])
    skel.append(text[pos:])
    return "".join(code), "".join(skel), spaced


def normalized_span(
    code: str, spaced: list[tuple[int, int]], start: int, end: int
) -> str:
    """Canonical form of the fragment ``code[start:end]`` for hashing, read
    from a ``code`` view and its whitespace-holding literals, not lexed again.

    Comments are blanked in ``code``, so they are whitespace already.
    Whitespace runs collapse to a single space, but only outside literals:
    whitespace inside a literal is content.  None is kept at either end.
    The fragment must not cut a literal.
    """
    parts: list[str] = []
    pos = start
    i = bisect_left(spaced, (start,)) if spaced else 0
    while i < len(spaced) and spaced[i][0] < end:
        lit_start, lit_end = spaced[i]
        parts.append(_SPACES.sub(" ", code[pos:lit_start]))
        parts.append(code[lit_start:lit_end])
        pos = lit_end
        i += 1
    parts.append(_SPACES.sub(" ", code[pos:end]))
    parts[0] = parts[0].lstrip(" ")
    parts[-1] = parts[-1].rstrip(" ")
    return "".join(parts)


def normalize_source_text(text: str) -> str:
    """Canonical form of a source fragment for hashing: ``normalized_span``
    of the whole text.  Comments are dropped, and a comment counts as
    whitespace."""
    code, _, spaced = lexed_views(text)
    return normalized_span(code, spaced, 0, len(code))


def method_content_hash(body_text: str | None) -> str:
    """Digest of the normalized method body; formatting-only edits hash equal."""
    return _sha256(normalize_source_text(body_text or ""))


def normalize_path(path: str) -> str:
    """Normalize a URL path template.

    The result always starts with ``/``; query strings are dropped and any
    segment holding a path variable (``{id}``) or a spliced non-literal
    expression collapses to the ``{*}`` token, so ``/order/{id}`` and
    ``/order/{orderId}`` compare equal.
    """
    path = (path or "").strip()
    path = path.split("?", 1)[0]
    segments = [s for s in path.split("/") if s]
    parts = [
        PATH_VAR if ("{" in s or "}" in s or NON_LITERAL in s) else s
        for s in segments
    ]
    return "/" + "/".join(parts)


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------


class ComponentId(NamedTuple):
    """Name-based identity: (service, component type, qualified unit name).

    A named tuple, so it hashes, compares and orders as the plain tuple of
    its values does, in C: it equals ``(service, type value, name)``.
    """

    microservice: str
    component_type: ComponentType
    qualified_name: str

    def __str__(self) -> str:
        return f"{self.microservice}::{self.component_type._value_}::{self.qualified_name}"


def component_id(
    service_name: str, ctype: ComponentType, qualified_name: str
) -> ComponentId:
    """Build a ComponentId, rejecting empty name parts."""
    if not service_name:
        raise ValueError("service name must be nonempty")
    if not qualified_name:
        raise ValueError("qualified name must be nonempty")
    return ComponentId(service_name, ComponentType(ctype), qualified_name)


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Parameter:
    name: str
    declared_type: str


@dataclass(frozen=True)
class RestCall:
    """A remote HTTP invocation found in a method body.

    ``target_service`` is the host name of a literal URL, or ``UNRESOLVED``
    when the host expression could not be evaluated statically.
    """

    http_method: str
    target_service: str
    path: str
    site_method: str
    owning_component: ComponentId

    def signature(self) -> str:
        return f"{self.http_method} {self.target_service} {self.path}"


@dataclass(frozen=True)
class Endpoint:
    http_method: str
    path: str
    handler_method: str
    owning_component: ComponentId

    def signature(self) -> str:
        return f"{self.http_method} {self.path}"


@dataclass(frozen=True)
class Method:
    """One declared method.

    ``body_call_targets`` entries are strings of the form
    ``"Receiver.method/arity"`` when the receiver's declared type is known
    (field injection or a local declaration) and ``"method/arity"`` for bare
    calls; they resolve against sibling components by name and arity.
    """

    name: str
    parameters: tuple[Parameter, ...] = ()
    return_type: str = ""
    annotations: tuple[str, ...] = ()
    body_call_targets: tuple[str, ...] = ()
    rest_calls: tuple[RestCall, ...] = ()
    content_hash: str = ""

    @property
    def arity(self) -> int:
        return len(self.parameters)

    _call_targets = None  # set on first use of ``call_targets``; not a field

    @property
    def call_targets(self) -> tuple[tuple[str | None, str, int], ...]:
        """Each body call target as (receiver or None, name, arity), parsed
        once and kept with the (immutable) method.  Not ``cached_property``,
        which would give every method an instance dictionary of its own."""
        parsed = self._call_targets
        if parsed is None:
            from .extractor import parse_call_target

            parsed = tuple(map(parse_call_target, self.body_call_targets))
            object.__setattr__(self, "_call_targets", parsed)
        return parsed

    def signature(self) -> str:
        params = ",".join(p.declared_type for p in self.parameters)
        return f"{self.name}({params})"


@dataclass(frozen=True)
class EntityField:
    field_name: str
    declared_type: str


@dataclass(frozen=True)
class Entity:
    name: str
    fields: tuple[EntityField, ...] = ()
    annotations: tuple[str, ...] = ()

    @cached_property
    def field_names(self) -> frozenset[str]:
        """The lower-cased field names, computed once and kept with the
        (immutable) entity; not a field, so not part of equality or documents."""
        return frozenset(f.field_name.lower() for f in self.fields)


@dataclass(frozen=True)
class Component:
    id: ComponentId
    methods: tuple[Method, ...] = ()
    endpoints: tuple[Endpoint, ...] = ()
    entity_ref: Entity | None = None
    source_path: str = ""
    content_hash: str = ""

    def rest_calls(self) -> frozenset[RestCall]:
        """The distinct rest calls made by the component's methods."""
        return frozenset(call for m in self.methods for call in m.rest_calls)


def _method_sort_key(m: Method) -> tuple:
    return (m.name, m.arity, m.signature())


def _endpoint_sort_key(e: Endpoint) -> tuple:
    return (e.http_method, e.path, e.handler_method)


def _field_sort_key(f: EntityField) -> tuple:
    return (f.field_name, f.declared_type)


def _sorted(items: tuple, key) -> tuple:
    return items if len(items) < 2 else tuple(sorted(items, key=key))


def _content_hash(
    methods: tuple[Method, ...], endpoints: tuple[Endpoint, ...], entity: Entity | None
) -> str:
    """Digest of methods and endpoints already in canonical order."""
    parts: list[str] = []
    for m in methods:
        params = ",".join([f"{p.name}:{p.declared_type}" for p in m.parameters])
        calls = ";".join([r.signature() for r in m.rest_calls])
        parts.append(
            f"m|{m.name}|{params}|{m.return_type}|{';'.join(m.annotations)}"
            f"|{m.content_hash}|{';'.join(m.body_call_targets)}|{calls}"
        )
    for e in endpoints:
        parts.append(f"e|{e.http_method}|{e.path}|{e.handler_method}")
    if entity is not None:
        fields = _sorted(entity.fields, _field_sort_key)
        text = ",".join([f"{f.field_name}:{f.declared_type}" for f in fields])
        parts.append(f"d|{entity.name}|{text}|{';'.join(entity.annotations)}")
    return _sha256("\n".join(parts))


def hash_component(c: Component) -> str:
    """Digest over canonically ordered member content.

    Insensitive to member iteration order; sensitive to any method body,
    signature, annotation, endpoint or entity-field change.  The source path
    is deliberately not hashed: a file move that preserves the qualified name
    is not a change.
    """
    methods = _sorted(c.methods, _method_sort_key)
    return _content_hash(methods, _sorted(c.endpoints, _endpoint_sort_key), c.entity_ref)


def make_component(
    cid: ComponentId,
    methods: Iterable[Method] = (),
    endpoints: Iterable[Endpoint] = (),
    entity_ref: Entity | None = None,
    source_path: str = "",
) -> Component:
    """Canonical Component constructor: sorts members, computes the hash."""
    methods = tuple(sorted(methods, key=_method_sort_key))
    endpoints = tuple(sorted(endpoints, key=_endpoint_sort_key))
    if endpoints and cid.component_type is not ComponentType.CONTROLLER:
        raise ValueError(f"{cid}: endpoints are only valid on controllers")
    if (entity_ref is not None) != (cid.component_type is ComponentType.ENTITY):
        raise ValueError(f"{cid}: entity payload must be present iff type is Entity")
    if entity_ref is not None:
        fields = tuple(sorted(entity_ref.fields, key=_field_sort_key))
        if fields != entity_ref.fields or type(entity_ref.annotations) is not tuple:
            entity_ref = Entity(entity_ref.name, fields, tuple(entity_ref.annotations))
    content_hash = _content_hash(methods, endpoints, entity_ref)
    return Component(cid, methods, endpoints, entity_ref, source_path, content_hash)


# ---------------------------------------------------------------------------
# Per-service and system graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicroserviceIR:
    name: str
    version_id: str
    components: Mapping[ComponentId, Component]
    call_graph_edges: frozenset[tuple[ComponentId, ComponentId]]

    def iter_methods(self) -> Iterator[tuple[Component, Method]]:
        for comp in self.components.values():
            for m in comp.methods:
                yield comp, m

    def iter_endpoints(self) -> Iterator[Endpoint]:
        for comp in self.components.values():
            yield from comp.endpoints

    def iter_rest_calls(self) -> Iterator[RestCall]:
        for _, m in self.iter_methods():
            yield from m.rest_calls

    def entities(self) -> Iterator[tuple[Component, Entity]]:
        for comp in self.components.values():
            if comp.entity_ref is not None:
                yield comp, comp.entity_ref

    # Derived maps, built on first use and kept with the (immutable) service;
    # they take no part in equality, ``repr`` or documents.

    @cached_property
    def callers(self) -> Mapping[ComponentId, tuple[ComponentId, ...]]:
        """Each called component's direct callers: the call graph reversed."""
        return _grouped((callee, caller) for caller, callee in self.call_graph_edges)

    @cached_property
    def callees(self) -> Mapping[ComponentId, tuple[ComponentId, ...]]:
        """Each calling component's direct callees."""
        return _grouped(self.call_graph_edges)

    @cached_property
    def entity_users(self) -> Mapping[ComponentId, tuple[ComponentId, ...]]:
        """Each entity's non-entity components that mention it by name: in a
        method's return or parameter type, or as a call receiver."""
        from .extractor import type_name_parts

        # one entity per name: a later one of the same name shadows earlier ones
        entity_names = {comp.entity_ref.name: comp.id for comp, _ in self.entities()}
        if not entity_names:
            return {}
        pairs = []
        for comp in self.components.values():
            if comp.entity_ref is not None:
                continue
            mentioned: set[str] = set()
            for m in comp.methods:
                mentioned |= type_name_parts(m.return_type)
                for p in m.parameters:
                    mentioned |= type_name_parts(p.declared_type)
                mentioned.update(r for r, _, _ in m.call_targets if r)
            pairs += [(e, comp.id) for n, e in entity_names.items() if n in mentioned]
        return _grouped(pairs)


def _grouped(pairs: Iterable[tuple[ComponentId, ComponentId]]) -> dict:
    groups: dict[ComponentId, list[ComponentId]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: tuple(values) for key, values in groups.items()}


def check_microservice_ir(ir: MicroserviceIR) -> None:
    """Raise ``ValueError`` on a broken reference: a component keyed by
    another id or owned by another service, or a call edge to no component."""
    for cid, comp in ir.components.items():
        if comp.id != cid:
            raise ValueError(f"component keyed as {cid} carries id {comp.id}")
        if cid.microservice != ir.name:
            raise ValueError(f"{cid} does not belong to service {ir.name}")
    for a, b in ir.call_graph_edges:
        if a not in ir.components or b not in ir.components:
            raise ValueError(f"call edge ({a}, {b}) references unknown components")


def validate_microservice_ir(ir: MicroserviceIR) -> list[str]:
    """Check structural invariants; returns non-fatal warnings.

    Broken references are errors (``check_microservice_ir``); duplicate
    (verb, path) endpoint pairs within the service are reported as warnings
    because dropping either one would corrupt component content hashes.
    """
    check_microservice_ir(ir)
    warnings: list[str] = []
    seen: dict[tuple[str, str], Endpoint] = {}
    for ep in ir.iter_endpoints():
        key = (ep.http_method, ep.path)
        if key in seen:
            warnings.append(
                f"{ir.name}: duplicate endpoint {ep.http_method} {ep.path} "
                f"({seen[key].owning_component} vs {ep.owning_component})"
            )
        else:
            seen[key] = ep
    return warnings


@dataclass(frozen=True)
class RemoteCallEvidence:
    rest_call: RestCall
    endpoint: Endpoint


@dataclass(frozen=True)
class OverlapEvidence:
    similarity: float


@dataclass(frozen=True)
class DependencyEdge:
    """Cross-service dependency: a matched remote call or a data overlap."""

    kind: EdgeKind
    source: ComponentId
    target: ComponentId
    evidence: RemoteCallEvidence | OverlapEvidence

    def __post_init__(self):
        if self.source.microservice == self.target.microservice:
            raise ValueError(
                f"cross edge endpoints are in the same service: {self.source}"
            )


@dataclass(frozen=True)
class Incidence:
    """The cross edges touching each component, grouped per service.

    Per-service mappings are never mutated, so an increment's incidence
    shares those of every service its change left alone.
    """

    services: Mapping[str, Mapping[ComponentId, frozenset[DependencyEdge]]]

    @classmethod
    def of(cls, system: SystemIR) -> Incidence:
        """The system's incidence, built on first use and kept with the system."""
        if system.incidence is None:
            empty = cls({})
            object.__setattr__(
                system, "incidence", empty.updated(frozenset(), system.cross_edges)
            )
        return system.incidence

    def edges(self, cid: ComponentId) -> frozenset[DependencyEdge]:
        return self.services.get(cid.microservice, {}).get(cid, frozenset())

    def updated(
        self, dropped: Iterable[DependencyEdge], added: Iterable[DependencyEdge]
    ) -> Incidence:
        """The incidence of this one's edges without ``dropped``, plus ``added``."""
        touched: dict[ComponentId, tuple[set, set]] = {}  # (dropped, added)
        for i, edges in enumerate((dropped, added)):
            for edge in edges:
                for end in (edge.source, edge.target):
                    touched.setdefault(end, (set(), set()))[i].add(edge)
        services = dict(self.services)
        for name in {cid.microservice for cid in touched}:
            services[name] = dict(services.get(name, {}))
        for cid, (gone, new) in touched.items():
            part = services[cid.microservice]
            edges = part.get(cid, frozenset()).difference(gone) | new
            if edges:
                part[cid] = edges
            else:
                part.pop(cid, None)
        return Incidence({n: part for n, part in services.items() if part})


@dataclass(frozen=True)
class SystemIR:
    """A linked system version.

    ``link_index`` holds where every rest call resolves, ``incidence`` the
    cross edges by component, ``overlap_index`` the entities by field name
    and ``link_violations`` the IC and UEM violations; ``LinkIndex.of``,
    ``Incidence.of``, ``OverlapIndex.of`` and ``LinkViolations.of`` build
    them on first use.  They are derived data: they take no part in
    equality, ``repr`` or documents.
    """

    version_label: str
    services: Mapping[str, MicroserviceIR]
    cross_edges: frozenset[DependencyEdge]
    link_index: LinkIndex | None = field(default=None, compare=False, repr=False)
    incidence: Incidence | None = field(default=None, compare=False, repr=False)
    overlap_index: OverlapIndex | None = field(
        default=None, compare=False, repr=False
    )
    link_violations: LinkViolations | None = field(
        default=None, compare=False, repr=False
    )

    def component(self, cid: ComponentId) -> Component | None:
        svc = self.services.get(cid.microservice)
        if svc is None:
            return None
        return svc.components.get(cid)

    def iter_components(self) -> Iterator[Component]:
        for name in sorted(self.services):
            yield from self.services[name].components.values()

    def iter_endpoints(self) -> Iterator[Endpoint]:
        for name in sorted(self.services):
            yield from self.services[name].iter_endpoints()

    def iter_rest_calls(self) -> Iterator[RestCall]:
        for name in sorted(self.services):
            yield from self.services[name].iter_rest_calls()


def validate_system_ir(system: SystemIR) -> None:
    for name, svc in system.services.items():
        if svc.name != name:
            raise ValueError(f"service keyed as {name} carries name {svc.name}")
        check_microservice_ir(svc)
    validate_cross_edges(system, system.cross_edges)


def validate_cross_edges(system: SystemIR, edges: Iterable[DependencyEdge]) -> None:
    """Check that both ends of every edge are components of the system."""
    for edge in edges:
        for end in (edge.source, edge.target):
            if system.component(end) is None:
                raise ValueError(f"cross edge references unknown component {end}")


def system_version_label(services: Mapping[str, MicroserviceIR]) -> str:
    """Render the per-service version map into one label string."""
    return ",".join(f"{name}@{services[name].version_id}" for name in sorted(services))


def ir_content_digest(ir: MicroserviceIR) -> str:
    """Short content-derived version id for one service IR.

    Unchanged sources yield the same digest no matter which checkout they
    were read from, which keeps incremental and from-scratch reconstruction
    label-identical.
    """
    lines = [ir.name]
    for cid in sorted(ir.components):
        lines.append(f"{cid}|{ir.components[cid].content_hash}")
    return _sha256("\n".join(lines))[:12]


def with_content_version(ir: MicroserviceIR) -> MicroserviceIR:
    """The same IR, versioned by its own content digest."""
    return MicroserviceIR(
        name=ir.name,
        version_id=ir_content_digest(ir),
        components=ir.components,
        call_graph_edges=ir.call_graph_edges,
    )


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentChange:
    kind: ChangeKind
    component_id: ComponentId
    new_component: Component | None = None
    old_content_hash: str | None = None


@dataclass(frozen=True)
class Delta:
    """Ordered component-level changes between two versions of one service."""

    microservice: str
    old_version_id: str
    new_version_id: str
    changes: tuple[ComponentChange, ...] = ()

    def change_ids(self) -> frozenset[ComponentId]:
        return frozenset(c.component_id for c in self.changes)

    def is_empty(self) -> bool:
        return not self.changes


def make_delta(
    microservice: str,
    old_version_id: str,
    new_version_id: str,
    changes: Iterable[ComponentChange],
) -> Delta:
    """Canonical Delta constructor: validates entries, sorts by component id."""
    ordered = tuple(sorted(changes, key=lambda c: str(c.component_id)))
    seen: set[ComponentId] = set()
    for ch in ordered:
        if ch.component_id in seen:
            raise ValueError(f"component {ch.component_id} appears twice in delta")
        seen.add(ch.component_id)
        if ch.component_id.microservice != microservice:
            raise ValueError(
                f"{ch.component_id} does not belong to service {microservice}"
            )
        if ch.kind in (ChangeKind.ADD, ChangeKind.MODIFY):
            if ch.new_component is None:
                raise ValueError(f"{ch.kind.value} entry must carry the new component")
            if ch.new_component.id != ch.component_id:
                raise ValueError(f"change id {ch.component_id} != component id")
        else:
            if ch.new_component is not None:
                raise ValueError("DELETE entry must not carry a component")
        if ch.kind in (ChangeKind.MODIFY, ChangeKind.DELETE):
            if not ch.old_content_hash:
                raise ValueError(f"{ch.kind.value} entry must carry the old hash")
        elif ch.old_content_hash is not None:
            raise ValueError("ADD entry must not carry an old hash")
    return Delta(microservice, old_version_id, new_version_id, ordered)


# ---------------------------------------------------------------------------
# Rule violations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriggerItem:
    component_id: ComponentId
    change_kind: ChangeKind


@dataclass(frozen=True)
class ImpactedItem:
    """An affected element with its evidence.

    ``evidence`` is a stable identity string and participates in violation
    deduplication; ``site`` is descriptive context that does not.
    """

    component_id: ComponentId
    kind: str  # restCall | endpoint | method | dependent | component
    evidence: str
    site: str = ""


@dataclass(frozen=True)
class Violation:
    """A rule match.

    ``system_version_label`` is None for a violation of the version its
    document describes, which takes the document's label: IC, UEM and
    custom rules.  SMM and RMM name the baseline they compare against.
    """

    rule_name: str
    system_version_label: str | None
    triggering: tuple[TriggerItem, ...]
    impacted: tuple[ImpactedItem, ...]
    dedup_key: str
