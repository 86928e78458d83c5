"""Structural extraction of one microservice source tree.

The parser is deliberately lightweight: it recognizes type declarations,
annotations, method signatures and bodies as token streams, which is all the
downstream analysis consumes.  It never executes builds and it degrades to
warnings on files it cannot make sense of.

Each file is tokenized once, by ``model.source_views``: the tokens are string
and char literals, ``\"\"\"`` text blocks and comments.  That pass yields two
offset-aligned views.  ``code`` has comments blanked and is where values are
read.  ``skel`` also blanks literal interiors, keeping the quotes, and is
where structure is found, so braces and keywords inside literals cannot
confuse it.  One stack pass over ``skel`` pairs every ``(`` and ``{`` with its
closer.  Parsing then works on spans of the file: it finds structure in
``skel``, steps over bracketed groups through that table and slices values
out of ``code``.  Each method body is type-scanned and call-scanned once; the
call graph and the remote calls read the same scan.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, MutableMapping, NamedTuple

from .errors import AmbiguousMarkerError, ExtractionError
from .model import (
    NON_LITERAL,
    UNRESOLVED,
    Component,
    ComponentId,
    ComponentType,
    Endpoint,
    Entity,
    EntityField,
    Method,
    MicroserviceIR,
    Parameter,
    RestCall,
    component_id,
    make_component,
    method_content_hash,
    normalize_path,
    normalize_source_text,
    source_views,
    validate_microservice_ir,
)
from .profiles import FROM_ATTRIBUTE, MarkerProfile


logger = logging.getLogger(__name__)

_MODIFIERS = {
    "public",
    "protected",
    "private",
    "static",
    "final",
    "abstract",
    "default",
    "synchronized",
    "native",
    "strictfp",
    "transient",
    "volatile",
}

_CALL_KEYWORDS = {
    "if",
    "for",
    "while",
    "switch",
    "catch",
    "return",
    "throw",
    "assert",
    "super",
    "this",
    "synchronized",
    "new",
}

_SKIP_DIR_PARTS = {"target", "build", "out", "node_modules"}

BUILD_DESCRIPTORS = ("pom.xml", "build.gradle", "build.gradle.kts")


@dataclass
class ScanWarning:
    path: str
    message: str


# ---------------------------------------------------------------------------
# Low-level text scanning
# ---------------------------------------------------------------------------


_BRACKETS = re.compile(r"[(){}]")
_SPLIT_PUNCT = re.compile(r"[()\[\]{}<>,=+]")


class _Source:
    """One file's aligned views and bracket-match table; parsing uses spans."""

    def __init__(self, text: str):
        self.code, self.skel = source_views(text)
        self.closer: dict[int, int] = {}
        stacks: dict[str, list[int]] = {"(": [], "{": []}
        for m in _BRACKETS.finditer(self.skel):
            c = m.group()
            if c in stacks:
                stacks[c].append(m.start())
            else:
                stack = stacks["(" if c == ")" else "{"]
                if stack:  # a closer without an opener pairs with nothing
                    self.closer[stack.pop()] = m.start()

    def close(self, open_idx: int, end: int) -> int:
        """Offset of the bracket closing ``open_idx``; it must lie before ``end``."""
        close = self.closer.get(open_idx, end)
        if close >= end:
            kind = "parentheses" if self.skel[open_idx] == "(" else "braces"
            raise ExtractionError(f"unbalanced {kind}")
        return close

    def strip(self, start: int, end: int) -> tuple[int, int]:
        """The span without its leading and trailing whitespace."""
        text = self.code[start:end]
        stripped = text.lstrip()
        start += len(text) - len(stripped)
        return start, start + len(stripped.rstrip())

    def split(self, start: int, end: int, sep: str) -> list[tuple[int, int]]:
        """Split a span on ``sep`` outside brackets, braces and generics."""
        parts: list[tuple[int, int]] = []
        depth = angle = 0
        for m in _SPLIT_PUNCT.finditer(self.skel, start, end):
            c = m.group()
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == "<":
                angle += 1
            elif c == ">":
                angle = max(angle - 1, 0)
            elif c == sep and depth == 0 and angle == 0:
                parts.append((start, m.start()))
                start = m.end()
        parts.append((start, end))
        return parts


def _collapse_type(text: str) -> str:
    return re.sub(r"\s+", "", text.strip())


def _simple_type(declared: str) -> str:
    """Base simple name of a declared type: strips generics, arrays, package."""
    base = declared.split("<", 1)[0].replace("[]", "").strip()
    return base.rsplit(".", 1)[-1]


def type_name_parts(declared: str) -> frozenset[str]:
    """Simple names appearing in a declared type, base and generic arguments."""
    names = re.findall(r"[A-Za-z_][\w]*", declared)
    return frozenset(n.rsplit(".", 1)[-1] for n in names)


def _split_modifiers(decl: str) -> tuple[list[str], str]:
    """Leading modifier keywords of a declaration, and the text after them."""
    modifiers: list[str] = []
    head = decl.split(None, 1)
    while head and head[0] in _MODIFIERS:
        modifiers.append(head[0])
        decl = head[1] if len(head) == 2 else ""
        head = decl.split(None, 1)
    return modifiers, decl


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedAnnotation:
    name: str
    args: str  # raw text inside parens, "" when absent

    def as_string(self) -> str:
        body = normalize_source_text(self.args)
        return f"{self.name}({body})" if body else self.name


_ANNOTATION = re.compile(r"@\s*([\w.]+)\s*(\()?")
_LEADING_ANNOTATION = re.compile(r"\s*" + _ANNOTATION.pattern)


def _annotation(src: _Source, m: re.Match, end: int) -> tuple[ParsedAnnotation, int]:
    """The annotation ``m`` found in a span ending at ``end``; offset after it."""
    name = m.group(1).rsplit(".", 1)[-1]
    if not m.group(2):
        return ParsedAnnotation(name, ""), m.end()
    close = src.close(m.end() - 1, end)
    return ParsedAnnotation(name, src.code[m.end() : close]), close + 1


def _annotations_in(src: _Source, start: int, end: int) -> list[ParsedAnnotation]:
    """The annotations of a span (used for class headers).

    Each search resumes after the previous annotation's arguments, so an
    annotation nested in another's arguments is not one of the span's.
    """
    anns: list[ParsedAnnotation] = []
    while m := _ANNOTATION.search(src.skel, start, end):
        ann, start = _annotation(src, m, end)
        anns.append(ann)
    return anns


def _leading_annotations(
    src: _Source, start: int, end: int
) -> tuple[list[ParsedAnnotation], int]:
    """Annotations at the start of a member declaration; returns rest offset."""
    anns: list[ParsedAnnotation] = []
    while m := _LEADING_ANNOTATION.match(src.skel, start, end):
        ann, start = _annotation(src, m, end)
        anns.append(ann)
    return anns, start


def _annotation_path_value(args: str) -> str:
    m = re.search(r"\b(?:value|path)\s*=\s*\{?\s*\"([^\"]*)\"", args)
    if m:
        return m.group(1)
    m = re.match(r"\s*\{?\s*\"([^\"]*)\"", args)
    if m:
        return m.group(1)
    return ""


def _annotation_method_attr(args: str) -> str | None:
    m = re.search(r"\bmethod\s*=\s*\{?\s*(?:RequestMethod\s*\.\s*)?([A-Z]+)", args)
    if m:
        return m.group(1)
    m = re.search(r"\bmethod\s*=\s*\{?\s*\"([A-Z]+)\"", args)
    if m:
        return m.group(1)
    return None


# ---------------------------------------------------------------------------
# Structural unit parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedMethod:
    name: str
    parameters: tuple[Parameter, ...]
    return_type: str
    annotations: tuple[ParsedAnnotation, ...]
    modifiers: tuple[str, ...]
    body: str | None  # None for abstract/interface methods
    body_span: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ParsedField:
    name: str
    declared_type: str
    annotations: tuple[ParsedAnnotation, ...]
    modifiers: tuple[str, ...]


class _BodyCall(NamedTuple):
    receiver: str | None  # None for bare calls
    method: str
    args: tuple[tuple[int, int], ...]  # stripped argument spans in the file

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True)
class _BodyScan:
    types: dict[str, str]  # receiver name -> simple type name
    calls: tuple[_BodyCall, ...]  # in source order


@dataclass(frozen=True)
class ParsedUnit:
    package: str
    type_name: str
    kind: str  # class | interface | enum
    annotations: tuple[ParsedAnnotation, ...]
    fields: tuple[ParsedField, ...]
    methods: tuple[ParsedMethod, ...]
    source: _Source = field(compare=False, repr=False)

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.type_name}" if self.package else self.type_name

    @cached_property
    def body_scans(self) -> tuple[_BodyScan | None, ...]:
        """One type and call scan per method body, aligned with ``methods``."""
        class_fields = {f.name: _simple_type(f.declared_type) for f in self.fields}
        scans: list[_BodyScan | None] = []
        for method in self.methods:
            if method.body_span is None:
                scans.append(None)
                continue
            types = dict(class_fields)
            types.update(
                {p.name: _simple_type(p.declared_type) for p in method.parameters}
            )
            types.update(_local_types(self.source.skel, *method.body_span))
            scans.append(_BodyScan(types, _scan_calls(self.source, *method.body_span)))
        return tuple(scans)


_TYPE_DECL = re.compile(r"\b(class|interface|enum)\s+(\w+)")
_TRAILING_NAME = re.compile(r"(\w+)\s*$")
_THROWS = re.compile(r"\bthrows\b[\w.,<>\s]*$")
_MEMBER_PUNCT = re.compile(r"[(){;=]")
_NESTING = re.compile(r"[(\[{)\]};]")


def _parse_params(src: _Source, start: int, end: int) -> tuple[Parameter, ...]:
    params: list[Parameter] = []
    for part_start, part_end in src.split(start, end, ","):
        _, rest = _leading_annotations(src, part_start, part_end)
        _, part = _split_modifiers(src.code[rest:part_end].strip())
        m = _TRAILING_NAME.search(part)
        if not m:
            continue
        declared = _collapse_type(part[: m.start()])
        if declared:
            params.append(Parameter(name=m.group(1), declared_type=declared))
    return tuple(params)


def _try_parse_method(
    src: _Source, start: int, end: int, body_span: tuple[int, int] | None
) -> ParsedMethod | None:
    anns, rest = _leading_annotations(src, start, end)
    start, end = src.strip(rest, end)
    throws = _THROWS.search(src.code, start, end)
    if throws:
        start, end = src.strip(start, throws.start())
    if not src.code.endswith(")", start, end):
        return None
    open_idx = src.skel.find("(", start, end)
    if open_idx < 0:
        return None
    close_idx = src.close(open_idx, end)
    if src.code[close_idx + 1 : end].strip():
        return None
    before = src.code[start:open_idx].strip()
    m = _TRAILING_NAME.search(before)
    if not m:
        return None
    modifiers, prefix = _split_modifiers(before[: m.start()].strip())
    return_type = _collapse_type(prefix)
    if not return_type:
        return None  # constructor; outside the structural model
    return ParsedMethod(
        name=m.group(1),
        parameters=_parse_params(src, open_idx + 1, close_idx),
        return_type=return_type,
        annotations=tuple(anns),
        modifiers=tuple(modifiers),
        body=None if body_span is None else src.code[body_span[0] : body_span[1]],
        body_span=body_span,
    )


def _try_parse_fields(src: _Source, start: int, end: int) -> list[ParsedField]:
    anns, rest = _leading_annotations(src, start, end)
    decl_start, decl_end = src.strip(*src.split(rest, end, "=")[0])
    if decl_start == decl_end or "(" in src.skel[decl_start:decl_end]:
        return []
    modifiers, decl = _split_modifiers(src.code[decl_start:decl_end])
    parts = src.split(decl_end - len(decl), decl_end, ",")
    first = src.code[parts[0][0] : parts[0][1]].strip()
    m = _TRAILING_NAME.search(first)
    if not m:
        return []
    declared = _collapse_type(first[: m.start()])
    if not declared:
        return []
    names = [m.group(1)]
    for extra_start, extra_end in parts[1:]:
        extra_name = src.code[extra_start:extra_end].strip()
        if re.fullmatch(r"\w+", extra_name):
            names.append(extra_name)
    return [
        ParsedField(
            name=name,
            declared_type=declared,
            annotations=tuple(anns),
            modifiers=tuple(modifiers),
        )
        for name in names
    ]


def _statement_end(skel: str, start: int, end: int) -> int:
    """Offset of the ``;`` that ends a field initializer, or ``end``."""
    depth = 0
    for m in _NESTING.finditer(skel, start, end):
        c = m.group()
        if c in "([{":
            depth += 1
        elif c != ";":
            depth -= 1
        elif depth == 0:
            return m.start()
    return end


def parse_unit(text: str) -> ParsedUnit | None:
    """Parse one source unit; None when no type declaration is found."""
    src = _Source(text)
    skel = src.skel

    pkg_match = re.search(r"^\s*package\s+([\w.]+)\s*;", skel, re.MULTILINE)
    package = pkg_match.group(1) if pkg_match else ""

    decl = _TYPE_DECL.search(skel)
    if decl is None:
        return None
    kind, type_name = decl.group(1), decl.group(2)

    header_start = 0
    boundary = max(skel.rfind(";", 0, decl.start()), skel.rfind("}", 0, decl.start()))
    if boundary >= 0:
        header_start = boundary + 1
    class_annotations = _annotations_in(src, header_start, decl.start())

    open_idx = skel.find("{", decl.end())
    if open_idx < 0:
        raise ExtractionError(f"type {type_name}: missing class body")
    close_idx = src.close(open_idx, len(skel))

    fields: list[ParsedField] = []
    methods: list[ParsedMethod] = []

    i = seg_start = open_idx + 1
    paren_depth = 0
    while m := _MEMBER_PUNCT.search(skel, i, close_idx):
        c, i = m.group(), m.start()
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth -= 1
        elif paren_depth:
            pass  # inside an unclosed parenthesis nothing ends a member
        elif c == ";":
            method = _try_parse_method(src, seg_start, i, None)
            if method is not None:
                methods.append(method)
            else:
                fields.extend(_try_parse_fields(src, seg_start, i))
            seg_start = i + 1
        elif c == "=":
            i = _statement_end(skel, i, close_idx)
            fields.extend(_try_parse_fields(src, seg_start, i))
            seg_start = i + 1
        else:  # "{": a method body or a nested type, skipped whole
            block_close = src.close(i, close_idx)
            # nested type declarations are outside the model
            if not _TYPE_DECL.search(skel, seg_start, i):
                method = _try_parse_method(src, seg_start, i, (i + 1, block_close))
                if method is not None:
                    methods.append(method)
            seg_start = block_close + 1
            i = block_close
        i += 1

    return ParsedUnit(
        package=package,
        type_name=type_name,
        kind=kind,
        annotations=tuple(class_annotations),
        fields=tuple(fields),
        methods=tuple(methods),
        source=src,
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _classify(unit: ParsedUnit, profile: MarkerProfile) -> ComponentType | None:
    names = {a.name for a in unit.annotations}
    matched: list[ComponentType] = []
    for ctype, markers in profile.classification_sets():
        if names & markers:
            matched.append(ctype)
    if len(matched) > 1:
        raise AmbiguousMarkerError(
            f"{unit.qualified_name}: markers match both "
            f"{matched[0].value} and {matched[1].value}"
        )
    return matched[0] if matched else None


def classify_source_unit(
    unit_text: str, profile: MarkerProfile
) -> ComponentType | None:
    """Classify one source unit by its type-level markers; None if unmarked."""
    unit = parse_unit(unit_text)
    if unit is None:
        return None
    return _classify(unit, profile)


# ---------------------------------------------------------------------------
# Member extraction
# ---------------------------------------------------------------------------


def extract_endpoints(
    unit: ParsedUnit, profile: MarkerProfile, owning: ComponentId
) -> list[Endpoint]:
    """Endpoints of a controller: class base path + per-method mappings."""
    base = ""
    for ann in unit.annotations:
        if ann.name in profile.endpoint_markers:
            base = _annotation_path_value(ann.args)
            if base:
                break
    endpoints: list[Endpoint] = []
    for method in unit.methods:
        for ann in method.annotations:
            semantics = profile.endpoint_markers.get(ann.name)
            if semantics is None:
                continue
            if semantics == FROM_ATTRIBUTE:
                verb = _annotation_method_attr(ann.args) or "GET"
            else:
                verb = semantics
            path = normalize_path(f"{base}/{_annotation_path_value(ann.args)}")
            endpoints.append(
                Endpoint(
                    http_method=verb,
                    path=path,
                    handler_method=method.name,
                    owning_component=owning,
                )
            )
    return endpoints


_LOCAL_DECL = re.compile(
    r"\b([A-Z]\w*(?:\s*<[^<>;={}]*>)?(?:\s*\[\s*\])*)\s+(\w+)\s*(?==[^=])"
)
_FOREACH_DECL = re.compile(r"\(\s*([A-Z]\w*(?:\s*<[^<>;={}]*>)?)\s+(\w+)\s*:")


def _local_types(skel: str, start: int, end: int) -> dict[str, str]:
    env: dict[str, str] = {}
    for decl in (_LOCAL_DECL, _FOREACH_DECL):
        for m in decl.finditer(skel, start, end):
            env[m.group(2)] = _simple_type(m.group(1))
    return env


_RECEIVER_CALL = re.compile(r"(\w+)\s*\.\s*(\w+)\s*\(")
# A bare call, with a preceding ``new`` matched along so that constructor
# calls are told apart without looking back over the body.
_BARE_CALL = re.compile(r"(new\s*)?(?<![.\w])(\w+)\s*\(")


def _scan_calls(src: _Source, start: int, end: int) -> tuple[_BodyCall, ...]:
    """Receiver and bare calls in a body span, in source order."""
    found = [
        (m.start(), m.group(1), m.group(2), m.end() - 1)
        for m in _RECEIVER_CALL.finditer(src.skel, start, end)
    ]
    found += [
        (m.start(2), None, m.group(2), m.end() - 1)
        for m in _BARE_CALL.finditer(src.skel, start, end)
        if not m.group(1) and m.group(2) not in _CALL_KEYWORDS
    ]
    found.sort(key=lambda f: f[0])
    calls: list[_BodyCall] = []
    for _, receiver, method, open_idx in found:
        close = src.closer.get(open_idx, end)
        if close >= end:
            continue  # unbalanced inside the body: not a call
        args: tuple[tuple[int, int], ...] = ()
        if src.code[open_idx + 1 : close].strip():
            args = tuple(src.strip(*a) for a in src.split(open_idx + 1, close, ","))
        calls.append(_BodyCall(receiver, method, args))
    return tuple(calls)


def _parse_url_expression(src: _Source, start: int, end: int) -> tuple[str, str]:
    """Resolve a URL argument span to (target service, normalized path).

    Literal fragments contribute text; non-literal fragments become
    placeholders that normalize to ``{*}`` in path position.  A URL whose
    host is not a single literal resolves to ``UNRESOLVED``.
    """
    pieces: list[str] = []
    for span in src.split(start, end, "+"):
        piece_start, piece_end = src.strip(*span)
        skel = src.skel[piece_start:piece_end]
        if len(skel) >= 2 and skel[0] == skel[-1] == '"' and not skel[1:-1].strip():
            pieces.append(src.code[piece_start + 1 : piece_end - 1])
        else:  # anything but one string literal
            pieces.append(NON_LITERAL)
    joined = "".join(pieces)
    scheme = re.match(r"https?://", joined)
    if scheme:
        rest = joined[scheme.end() :]
        host, _, path_part = rest.partition("/")
        path = normalize_path("/" + path_part)
        if NON_LITERAL in host or not host:
            return UNRESOLVED, path
        return host.split(":", 1)[0], path
    head, sep, tail = joined.partition("/")
    if NON_LITERAL in head:
        joined = sep + tail  # leading host expression, keep the literal path
    return UNRESOLVED, normalize_path(joined)


def _resolve_verb(pattern_verb: str | int, args: list[str]) -> str | None:
    if isinstance(pattern_verb, str):
        return pattern_verb
    if pattern_verb >= len(args):
        return None
    text = args[pattern_verb]
    m = re.search(r"(?:HttpMethod\s*\.\s*)?\b([A-Z]+)\b", text)
    if m and m.group(1) in ("GET", "POST", "PUT", "DELETE", "PATCH"):
        return m.group(1)
    m = re.search(r"\"([A-Z]+)\"", text)
    if m:
        return m.group(1)
    return None


def _receiver_matches(
    receiver: str, resolved_type: str | None, pattern_type: str
) -> bool:
    if resolved_type is not None:
        return resolved_type == pattern_type
    return receiver.lower().endswith(pattern_type.lower())


def extract_rest_calls(
    unit: ParsedUnit, profile: MarkerProfile, owning: ComponentId
) -> list[RestCall]:
    """Remote calls in all method bodies, matched by profile patterns."""
    calls: list[RestCall] = []
    code = unit.source.code
    for method, scan in zip(unit.methods, unit.body_scans):
        if scan is None:
            continue
        site = f"{unit.qualified_name}.{method.name}"
        for call in scan.calls:
            if call.receiver is None:
                continue
            rtype = scan.types.get(call.receiver)
            for pattern in profile.remote_call_patterns:
                if call.method != pattern.method_name:
                    continue
                if not _receiver_matches(call.receiver, rtype, pattern.receiver_type):
                    continue
                if pattern.url_arg >= call.arity:
                    continue
                verb = _resolve_verb(pattern.verb, [code[s:e] for s, e in call.args])
                if verb is None:
                    continue
                url_start, url_end = call.args[pattern.url_arg]
                target, path = _parse_url_expression(unit.source, url_start, url_end)
                calls.append(
                    RestCall(
                        http_method=verb,
                        target_service=target,
                        path=path,
                        site_method=site,
                        owning_component=owning,
                    )
                )
                break
    return calls


def extract_entity(unit: ParsedUnit) -> Entity:
    """Entity payload: instance fields, excluding static/transient members."""
    fields = []
    for f in unit.fields:
        if "static" in f.modifiers or "transient" in f.modifiers:
            continue
        if any(a.name == "Transient" for a in f.annotations):
            continue
        fields.append(EntityField(field_name=f.name, declared_type=f.declared_type))
    return Entity(
        name=unit.type_name,
        fields=tuple(fields),
        annotations=tuple(a.as_string() for a in unit.annotations),
    )


def _build_methods(unit: ParsedUnit, profile: MarkerProfile, cid: ComponentId):
    rest_by_method = {}
    for call in extract_rest_calls(unit, profile, cid):
        rest_by_method.setdefault(call.site_method, []).append(call)
    methods = []
    for pm, scan in zip(unit.methods, unit.body_scans):
        targets: list[str] = []
        for call in scan.calls if scan is not None else ():
            if call.receiver is None:
                targets.append(f"{call.method}/{call.arity}")
            else:
                rtype = scan.types.get(call.receiver, call.receiver)
                targets.append(f"{rtype}.{call.method}/{call.arity}")
        site = f"{unit.qualified_name}.{pm.name}"
        methods.append(
            Method(
                name=pm.name,
                parameters=pm.parameters,
                return_type=pm.return_type,
                annotations=tuple(a.as_string() for a in pm.annotations),
                body_call_targets=tuple(targets),
                rest_calls=tuple(rest_by_method.get(site, ())),
                content_hash=method_content_hash(pm.body),
            )
        )
    return methods


def extract_component(
    unit_text: str, profile: MarkerProfile, service_name: str, source_path: str
) -> tuple[Component | None, list[str]]:
    """Build a component from one source unit.

    Returns (component, notes); the component is None when the unit matches
    no classification marker and is excluded from the representation.
    """
    unit = parse_unit(unit_text)
    if unit is None:
        return None, []
    ctype = _classify(unit, profile)
    if ctype is None:
        return None, []
    cid = component_id(service_name, ctype, unit.qualified_name)
    notes: list[str] = []
    endpoints: list[Endpoint] = []
    entity: Entity | None = None
    if ctype is ComponentType.CONTROLLER:
        endpoints = extract_endpoints(unit, profile, cid)
    if ctype is ComponentType.ENTITY:
        entity = extract_entity(unit)
        if not entity.fields:
            notes.append(f"entity {unit.qualified_name} declares no instance fields")
    methods = _build_methods(unit, profile, cid)
    component = make_component(
        cid,
        methods=methods,
        endpoints=endpoints,
        entity_ref=entity,
        source_path=source_path,
    )
    return component, notes


# ---------------------------------------------------------------------------
# Intra-service call graph
# ---------------------------------------------------------------------------


_TARGET_RE = re.compile(r"^(?:(.+)\.)?(\w+)/(\d+)$")


def parse_call_target(target: str) -> tuple[str | None, str, int]:
    m = _TARGET_RE.match(target)
    if not m:
        return None, target, 0
    receiver, name, arity = m.groups()
    return receiver, name, int(arity)


def resolve_call_graph(
    components: Mapping[ComponentId, Component],
) -> frozenset[tuple[ComponentId, ComponentId]]:
    """Component-level call edges, caller to callee.

    Receiver-typed targets resolve against component class names (this also
    covers framework-inherited methods the source never declares); bare
    targets fall back to a name-plus-arity match over declared methods.
    """
    by_class: dict[str, set[ComponentId]] = {}
    by_sig: dict[tuple[str, int], set[ComponentId]] = {}
    for cid, comp in components.items():
        by_class.setdefault(_simple_type(cid.qualified_name), set()).add(cid)
        for m in comp.methods:
            by_sig.setdefault((m.name, m.arity), set()).add(cid)
    edges: set[tuple[ComponentId, ComponentId]] = set()
    for cid, comp in components.items():
        for m in comp.methods:
            for target in m.body_call_targets:
                receiver, name, arity = parse_call_target(target)
                if receiver is not None:
                    candidates = by_class.get(receiver, set())
                else:
                    candidates = by_sig.get((name, arity), set())
                for other in candidates:
                    if other != cid:
                        edges.add((cid, other))
    return frozenset(edges)


# ---------------------------------------------------------------------------
# Repository scanning
# ---------------------------------------------------------------------------


def _skippable(rel_parts: tuple[str, ...]) -> bool:
    for i, part in enumerate(rel_parts[:-1]):
        if part.startswith("."):
            return True
        if part in _SKIP_DIR_PARTS:
            return True
        if part == "src" and i + 1 < len(rel_parts) and rel_parts[i + 1] == "test":
            return True
    return False


def _source_files(root: Path, profile: MarkerProfile) -> list[tuple[str, Path]]:
    files = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        if path.suffix not in profile.file_extensions:
            continue
        rel = path.relative_to(root)
        if _skippable(rel.parts):
            continue
        files.append((rel.as_posix(), path))
    return files


# (service, relative path, content digest) -> extraction result
ExtractionCache = MutableMapping[tuple[str, str, str], "Component | None"]


def scan_repository(
    root_path: str | Path,
    profile: MarkerProfile,
    service_name: str,
    version_id: str,
    *,
    warnings: list[ScanWarning] | None = None,
    cache: ExtractionCache | None = None,
) -> MicroserviceIR:
    """Scan one microservice source tree into its per-service representation.

    Per-file failures never abort the scan; they are logged and, when a
    ``warnings`` list is supplied, collected there.  Passing a ``cache``
    (keyed by file content) makes repeated scans over evolving checkouts
    re-parse only changed files.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise ExtractionError(f"not a readable directory: {root}")
    sink = warnings if warnings is not None else []
    components: dict[ComponentId, Component] = {}
    for rel, path in _source_files(root, profile):
        data = path.read_bytes()
        key = (service_name, rel, hashlib.sha256(data).hexdigest())
        if cache is not None and key in cache:
            comp = cache[key]
        else:
            comp = None
            try:
                comp, notes = extract_component(
                    data.decode("utf-8", errors="replace"), profile, service_name, rel
                )
                for note in notes:
                    sink.append(ScanWarning(rel, note))
                    logger.warning("%s: %s", rel, note)
            except Exception as exc:  # totality: degrade to a warning
                sink.append(ScanWarning(rel, str(exc)))
                logger.warning("skipping %s: %s", rel, exc)
            if cache is not None:
                cache[key] = comp
        if comp is None:
            continue
        if comp.id in components:
            sink.append(
                ScanWarning(rel, f"duplicate unit {comp.id.qualified_name}; kept first")
            )
            continue
        components[comp.id] = comp
    ir = MicroserviceIR(
        name=service_name,
        version_id=version_id,
        components=components,
        call_graph_edges=resolve_call_graph(components),
    )
    for message in validate_microservice_ir(ir):
        sink.append(ScanWarning("", message))
        logger.warning("%s", message)
    return ir


def discover_services(
    root_path: str | Path, name_overrides: Mapping[str, str] | None = None
) -> list[tuple[str, Path]]:
    """Find microservice roots under a checkout.

    Every innermost build-descriptor directory is one candidate; a tree with
    no descriptors is a single service named after its directory.  Names can
    be overridden by relative path or directory name.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise ExtractionError(f"not a readable directory: {root}")
    overrides = dict(name_overrides or {})
    candidates: set[Path] = set()
    for descriptor in BUILD_DESCRIPTORS:
        for hit in root.rglob(descriptor):
            rel = hit.relative_to(root)
            if _skippable(rel.parts):
                continue
            candidates.add(hit.parent)
    leaves = [
        c
        for c in candidates
        if not any(o != c and o.is_relative_to(c) for o in candidates)
    ]
    if not leaves:
        leaves = [root]
    services: list[tuple[str, Path]] = []
    seen: dict[str, Path] = {}
    for path in sorted(leaves):
        rel = path.relative_to(root).as_posix() if path != root else "."
        name = overrides.get(rel) or overrides.get(path.name) or path.name
        if name in seen:
            raise ExtractionError(
                f"service name {name!r} maps to both {seen[name]} and {path}"
            )
        seen[name] = path
        services.append((name, path))
    services.sort(key=lambda item: item[0])
    return services
