"""Structural extraction of one microservice source tree.

The parser is deliberately lightweight: it recognizes type declarations,
annotations, method signatures and bodies as token streams, which is all the
downstream analysis consumes.  It never executes builds and it degrades to
warnings on files it cannot make sense of.

Parsing runs over two aligned views of each file: ``code`` (comments blanked)
for extracting values, and ``skel`` (comments and string literals blanked)
for structure scanning, so braces and keywords inside string literals cannot
confuse bracket matching.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, MutableMapping

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
    blank_comments,
    component_id,
    make_component,
    method_content_hash,
    normalize_path,
    normalize_source_text,
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


def _blank_strings(text: str) -> str:
    """Blank the contents of string/char literals, keeping the quotes."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n:
                if text[i] == "\\":
                    out[i] = " "
                    if i + 1 < n:
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                out[i] = " "
                i += 1
            continue
        i += 1
    return "".join(out)


def _match_brace(skel: str, open_idx: int) -> int:
    """Index of the '}' matching skel[open_idx] == '{'. Raises on imbalance."""
    depth = 0
    for i in range(open_idx, len(skel)):
        c = skel[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ExtractionError("unbalanced braces")


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside parens/brackets/braces/generics and strings."""
    parts: list[str] = []
    depth = 0
    angle = 0
    start = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<":
            angle += 1
        elif c == ">":
            if angle > 0:
                angle -= 1
        elif c == sep and depth == 0 and angle == 0:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    parts.append(text[start:])
    return parts


def _matching_paren(text: str, open_idx: int) -> int:
    depth = 0
    i, n = open_idx, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    raise ExtractionError("unbalanced parentheses")


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


def _annotations_in(code: str, start: int, end: int) -> list[ParsedAnnotation]:
    """All annotations found in code[start:end] (used for class headers)."""
    found = []
    region = code[start:end]
    skel = _blank_strings(region)
    for m in re.finditer(r"@\s*([\w.]+)", skel):
        name = m.group(1).rsplit(".", 1)[-1]
        j = m.end()
        while j < len(skel) and skel[j].isspace():
            j += 1
        args = ""
        if j < len(skel) and skel[j] == "(":
            close = _matching_paren(region, j)
            args = region[j + 1 : close]
        found.append(ParsedAnnotation(name, args))
    return found


def _leading_annotations(text: str) -> tuple[list[ParsedAnnotation], int]:
    """Annotations at the start of a member declaration; returns rest offset."""
    anns: list[ParsedAnnotation] = []
    i, n = 0, len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n or text[i] != "@":
            return anns, i
        m = re.match(r"@\s*([\w.]+)", text[i:])
        if not m:
            return anns, i
        name = m.group(1).rsplit(".", 1)[-1]
        i += m.end()
        j = i
        while j < n and text[j].isspace():
            j += 1
        args = ""
        if j < n and text[j] == "(":
            close = _matching_paren(text, j)
            args = text[j + 1 : close]
            i = close + 1
        anns.append(ParsedAnnotation(name, args))


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


@dataclass(frozen=True)
class ParsedField:
    name: str
    declared_type: str
    annotations: tuple[ParsedAnnotation, ...]
    modifiers: tuple[str, ...]


@dataclass(frozen=True)
class ParsedUnit:
    package: str
    type_name: str
    kind: str  # class | interface | enum
    annotations: tuple[ParsedAnnotation, ...]
    fields: tuple[ParsedField, ...]
    methods: tuple[ParsedMethod, ...]

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.type_name}" if self.package else self.type_name


_TYPE_DECL = re.compile(r"\b(class|interface|enum)\s+(\w+)")


def _parse_params(params_text: str) -> tuple[Parameter, ...]:
    params: list[Parameter] = []
    if not params_text.strip():
        return ()
    for raw in _split_top_level(params_text, ","):
        anns, rest = _leading_annotations(raw)
        part = raw[rest:].strip()
        while True:
            head = part.split(None, 1)
            if len(head) == 2 and head[0] in _MODIFIERS:
                part = head[1]
            else:
                break
        m = re.search(r"(\w+)\s*$", part)
        if not m:
            continue
        name = m.group(1)
        declared = _collapse_type(part[: m.start()])
        if not declared:
            continue
        params.append(Parameter(name=name, declared_type=declared))
    return tuple(params)


def _try_parse_method(header: str, body: str | None) -> ParsedMethod | None:
    anns, rest = _leading_annotations(header)
    tail = header[rest:].strip()
    tail = re.sub(r"\bthrows\b[\w.,<>\s]*$", "", tail).strip()
    if not tail.endswith(")"):
        return None
    open_idx = tail.find("(")
    if open_idx < 0:
        return None
    close_idx = _matching_paren(tail, open_idx)
    if tail[close_idx + 1 :].strip():
        return None
    params_text = tail[open_idx + 1 : close_idx]
    before = tail[:open_idx].strip()
    m = re.search(r"(\w+)\s*$", before)
    if not m:
        return None
    name = m.group(1)
    prefix = before[: m.start()].strip()
    modifiers: list[str] = []
    while True:
        head = prefix.split(None, 1)
        if head and head[0] in _MODIFIERS:
            modifiers.append(head[0])
            prefix = head[1] if len(head) == 2 else ""
        else:
            break
    return_type = _collapse_type(prefix)
    if not return_type:
        return None  # constructor; outside the structural model
    return ParsedMethod(
        name=name,
        parameters=_parse_params(params_text),
        return_type=return_type,
        annotations=tuple(anns),
        modifiers=tuple(modifiers),
        body=body,
    )


def _try_parse_fields(stmt: str) -> list[ParsedField]:
    anns, rest = _leading_annotations(stmt)
    decl = stmt[rest:]
    decl = _split_top_level(decl, "=")[0].strip()
    if not decl or "(" in _blank_strings(decl):
        return []
    modifiers: list[str] = []
    while True:
        head = decl.split(None, 1)
        if head and head[0] in _MODIFIERS:
            modifiers.append(head[0])
            decl = head[1] if len(head) == 2 else ""
        else:
            break
    parts = _split_top_level(decl, ",")
    first = parts[0].strip()
    m = re.search(r"(\w+)\s*$", first)
    if not m:
        return []
    declared = _collapse_type(first[: m.start()])
    if not declared:
        return []
    fields = [
        ParsedField(
            name=m.group(1),
            declared_type=declared,
            annotations=tuple(anns),
            modifiers=tuple(modifiers),
        )
    ]
    for extra in parts[1:]:
        extra_name = extra.strip()
        if re.fullmatch(r"\w+", extra_name):
            fields.append(
                ParsedField(
                    name=extra_name,
                    declared_type=declared,
                    annotations=tuple(anns),
                    modifiers=tuple(modifiers),
                )
            )
    return fields


def parse_unit(text: str) -> ParsedUnit | None:
    """Parse one source unit; None when no type declaration is found."""
    code = blank_comments(text)
    skel = _blank_strings(code)

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
    class_annotations = _annotations_in(code, header_start, decl.start())

    open_idx = skel.find("{", decl.end())
    if open_idx < 0:
        raise ExtractionError(f"type {type_name}: missing class body")
    close_idx = _match_brace(skel, open_idx)

    fields: list[ParsedField] = []
    methods: list[ParsedMethod] = []

    i = open_idx + 1
    seg_start = i
    paren_depth = 0
    while i < close_idx:
        c = skel[i]
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth -= 1
        elif c == ";" and paren_depth == 0:
            stmt = code[seg_start:i]
            method = _try_parse_method(stmt, None)
            if method is not None:
                methods.append(method)
            else:
                fields.extend(_try_parse_fields(stmt))
            seg_start = i + 1
        elif c == "=" and paren_depth == 0:
            j = i
            depth = 0
            while j < close_idx:
                cj = skel[j]
                if cj in "({[":
                    depth += 1
                elif cj in ")}]":
                    depth -= 1
                elif cj == ";" and depth == 0:
                    break
                j += 1
            fields.extend(_try_parse_fields(code[seg_start:j]))
            seg_start = j + 1
            i = j
        elif c == "{" and paren_depth == 0:
            block_close = _match_brace(skel, i)
            header = code[seg_start:i]
            if _TYPE_DECL.search(skel[seg_start:i]):
                pass  # nested type declarations are outside the model
            else:
                method = _try_parse_method(header, code[i + 1 : block_close])
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


def _local_types(body_skel: str) -> dict[str, str]:
    env: dict[str, str] = {}
    decl = re.compile(
        r"\b([A-Z]\w*(?:\s*<[^<>;={}]*>)?(?:\s*\[\s*\])*)\s+(\w+)\s*(?==[^=])"
    )
    for m in decl.finditer(body_skel):
        env[m.group(2)] = _simple_type(m.group(1))
    foreach = re.compile(r"\(\s*([A-Z]\w*(?:\s*<[^<>;={}]*>)?)\s+(\w+)\s*:")
    for m in foreach.finditer(body_skel):
        env[m.group(2)] = _simple_type(m.group(1))
    return env


@dataclass(frozen=True)
class _BodyCall:
    position: int
    receiver: str | None  # None for bare calls
    method: str
    arity: int
    args_region: tuple[int, int]  # offsets into the body for argument slicing


def _scan_calls(body_code: str, body_skel: str) -> list[_BodyCall]:
    calls: list[_BodyCall] = []
    for m in re.finditer(r"(\w+)\s*\.\s*(\w+)\s*\(", body_skel):
        open_idx = m.end() - 1
        try:
            close_idx = _matching_paren(body_code, open_idx)
        except ExtractionError:
            continue
        args_text = body_code[open_idx + 1 : close_idx]
        arity = 0 if not args_text.strip() else len(_split_top_level(args_text, ","))
        calls.append(
            _BodyCall(
                position=m.start(),
                receiver=m.group(1),
                method=m.group(2),
                arity=arity,
                args_region=(open_idx + 1, close_idx),
            )
        )
    for m in re.finditer(r"(?<![.\w])(\w+)\s*\(", body_skel):
        name = m.group(1)
        if name in _CALL_KEYWORDS:
            continue
        before = body_skel[: m.start()].rstrip()
        if before.endswith("new"):
            continue
        open_idx = m.end() - 1
        try:
            close_idx = _matching_paren(body_code, open_idx)
        except ExtractionError:
            continue
        args_text = body_code[open_idx + 1 : close_idx]
        arity = 0 if not args_text.strip() else len(_split_top_level(args_text, ","))
        calls.append(
            _BodyCall(
                position=m.start(),
                receiver=None,
                method=name,
                arity=arity,
                args_region=(open_idx + 1, close_idx),
            )
        )
    calls.sort(key=lambda c: c.position)
    return calls


def _parse_url_expression(expr: str) -> tuple[str, str]:
    """Resolve a URL argument expression to (target service, normalized path).

    Literal fragments contribute text; non-literal fragments become
    placeholders that normalize to ``{*}`` in path position.  A URL whose
    host is not a single literal resolves to ``UNRESOLVED``.
    """
    pieces: list[str] = []
    for token in _split_top_level(expr, "+"):
        token = token.strip()
        m = re.fullmatch(r"\"((?:[^\"\\]|\\.)*)\"", token, re.DOTALL)
        if m:
            pieces.append(m.group(1))
        else:
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
    class_fields = {f.name: _simple_type(f.declared_type) for f in unit.fields}
    for method in unit.methods:
        if method.body is None:
            continue
        body_skel = _blank_strings(method.body)
        env = dict(class_fields)
        env.update({p.name: _simple_type(p.declared_type) for p in method.parameters})
        env.update(_local_types(body_skel))
        site = f"{unit.qualified_name}.{method.name}"
        for call in _scan_calls(method.body, body_skel):
            if call.receiver is None:
                continue
            rtype = env.get(call.receiver)
            for pattern in profile.remote_call_patterns:
                if call.method != pattern.method_name:
                    continue
                if not _receiver_matches(call.receiver, rtype, pattern.receiver_type):
                    continue
                args_text = method.body[call.args_region[0] : call.args_region[1]]
                args = (
                    [a.strip() for a in _split_top_level(args_text, ",")]
                    if args_text.strip()
                    else []
                )
                if pattern.url_arg >= len(args):
                    continue
                verb = _resolve_verb(pattern.verb, args)
                if verb is None:
                    continue
                target, path = _parse_url_expression(args[pattern.url_arg])
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
    class_fields = {f.name: _simple_type(f.declared_type) for f in unit.fields}
    rest_by_method = {}
    for call in extract_rest_calls(unit, profile, cid):
        rest_by_method.setdefault(call.site_method, []).append(call)
    methods = []
    for pm in unit.methods:
        targets: list[str] = []
        if pm.body is not None:
            body_skel = _blank_strings(pm.body)
            env = dict(class_fields)
            env.update({p.name: _simple_type(p.declared_type) for p in pm.parameters})
            env.update(_local_types(body_skel))
            for call in _scan_calls(pm.body, body_skel):
                if call.receiver is None:
                    targets.append(f"{call.method}/{call.arity}")
                else:
                    rtype = env.get(call.receiver, call.receiver)
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
