"""The extractor as it parsed a unit before it found members in one pass.

This is ``archdelta.extractor`` from parsing through ``extract_component``,
kept as the tests' reference: each member's head was re-scanned by
``_try_parse_method`` and ``_try_parse_fields``, and each method body and
annotation argument was lexed again to be hashed.  Its normalization is the
one ``archdelta.model`` used then, kept below.  The one-pass extractor must
give the same component, the same notes in order and the same exception
(type and message) as this one, on every input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from archdelta.errors import AmbiguousMarkerError, ExtractionError
from archdelta.model import (
    NON_LITERAL,
    UNRESOLVED,
    Component,
    ComponentId,
    ComponentType,
    Endpoint,
    Entity,
    EntityField,
    Method,
    Parameter,
    RestCall,
    _lexemes,
    _sha256,
    component_id,
    lexed_views,
    make_component,
    normalize_path,
)
from archdelta.profiles import FROM_ATTRIBUTE, MarkerProfile


# The body and annotation normalization the extractor used, from
# ``archdelta.model``: each fragment is lexed again on its own.
_SPACES = re.compile(r"\s+")


def normalize_source_text(text: str) -> str:
    """Canonical form of a source fragment for hashing.

    Comments are dropped and whitespace runs collapse to a single space, but
    only outside literals: whitespace inside a literal is content.  A comment
    counts as whitespace, and none is kept at either end of the text.
    """
    parts: list[str] = []
    gap: list[str] = []  # code and comments since the last literal
    pos = 0
    for m in _lexemes(text):
        gap.append(text[pos : m.start()])
        pos = m.end()
        if m.lastgroup == "comment":
            gap.append(" ")
        else:
            parts.append(_SPACES.sub(" ", "".join(gap)))
            parts.append(m.group())
            gap = []
    gap.append(text[pos:])
    parts.append(_SPACES.sub(" ", "".join(gap)))
    parts[0] = parts[0].lstrip(" ")
    parts[-1] = parts[-1].rstrip(" ")
    return "".join(parts)


def method_content_hash(body_text: str | None) -> str:
    """Digest of the normalized method body; formatting-only edits hash equal."""
    return _sha256(normalize_source_text(body_text or ""))


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


# ---------------------------------------------------------------------------
# Low-level text scanning
# ---------------------------------------------------------------------------


_BRACKETS = re.compile(r"[(){}]")
_SPLIT_PUNCT = re.compile(r"[()\[\]{}<>,=+]")


class _Source:
    """One file's aligned views and bracket-match table; parsing uses spans."""

    def __init__(self, text: str):
        self.code, self.skel = lexed_views(text)[:2]
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


_WHITESPACE = re.compile(r"\s+")
_NAME = re.compile(r"[A-Za-z_][\w]*")


def _collapse_type(text: str) -> str:
    return _WHITESPACE.sub("", text.strip())


def _simple_type(declared: str) -> str:
    """Base simple name of a declared type: strips generics, arrays, package."""
    base = declared.split("<", 1)[0].replace("[]", "").strip()
    return base.rsplit(".", 1)[-1]


def type_name_parts(declared: str) -> frozenset[str]:
    """Simple names appearing in a declared type, base and generic arguments."""
    names = _NAME.findall(declared)
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


_NAMED_PATH = re.compile(r"\b(?:value|path)\s*=\s*\{?\s*\"([^\"]*)\"")
_LEADING_PATH = re.compile(r"\s*\{?\s*\"([^\"]*)\"")
_METHOD_CONSTANT = re.compile(
    r"\bmethod\s*=\s*\{?\s*(?:RequestMethod\s*\.\s*)?([A-Z]+)"
)
_METHOD_STRING = re.compile(r"\bmethod\s*=\s*\{?\s*\"([A-Z]+)\"")


def _annotation_path_value(args: str) -> str:
    m = _NAMED_PATH.search(args)
    if m:
        return m.group(1)
    m = _LEADING_PATH.match(args)
    if m:
        return m.group(1)
    return ""


def _annotation_method_attr(args: str) -> str | None:
    m = _METHOD_CONSTANT.search(args)
    if m:
        return m.group(1)
    m = _METHOD_STRING.search(args)
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
    body_span: tuple[int, int] | None  # None for abstract/interface methods


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


_PACKAGE = re.compile(r"^\s*package\s+([\w.]+)\s*;", re.MULTILINE)
_TYPE_DECL = re.compile(r"\b(class|interface|enum)\s+(\w+)")
_WORD = re.compile(r"\w+")
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
    _, prefix = _split_modifiers(before[: m.start()].strip())
    return_type = _collapse_type(prefix)
    if not return_type:
        return None  # constructor; outside the structural model
    return ParsedMethod(
        name=m.group(1),
        parameters=_parse_params(src, open_idx + 1, close_idx),
        return_type=return_type,
        annotations=tuple(anns),
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
        if _WORD.fullmatch(extra_name):
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

    pkg_match = _PACKAGE.search(skel)
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


_SCHEME = re.compile(r"https?://")
_VERB_CONSTANT = re.compile(r"(?:HttpMethod\s*\.\s*)?\b([A-Z]+)\b")
_VERB_STRING = re.compile(r"\"([A-Z]+)\"")


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
    scheme = _SCHEME.match(joined)
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
    m = _VERB_CONSTANT.search(text)
    if m and m.group(1) in ("GET", "POST", "PUT", "DELETE", "PATCH"):
        return m.group(1)
    m = _VERB_STRING.search(text)
    if m:
        return m.group(1)
    return None


def _receiver_matches(
    receiver: str, resolved_type: str | None, pattern_type: str
) -> bool:
    if resolved_type is not None:
        return resolved_type == pattern_type
    return receiver.lower().endswith(pattern_type.lower())


def _match_rest_call(
    src: _Source, call: _BodyCall, rtype: str | None, profile: MarkerProfile
) -> tuple[str, str, str] | None:
    """(verb, target service, path) by the first profile pattern a receiver
    call matches; None when it matches none."""
    for pattern in profile.remote_call_patterns:
        if call.method != pattern.method_name:
            continue
        if not _receiver_matches(call.receiver, rtype, pattern.receiver_type):
            continue
        if pattern.url_arg >= call.arity:
            continue
        verb = _resolve_verb(pattern.verb, [src.code[s:e] for s, e in call.args])
        if verb is not None:
            return verb, *_parse_url_expression(src, *call.args[pattern.url_arg])
    return None


def extract_rest_calls(
    unit: ParsedUnit, profile: MarkerProfile, owning: ComponentId
) -> list[RestCall]:
    """Remote calls in all method bodies, matched by profile patterns."""
    return [c for m in _build_methods(unit, profile, owning) for c in m.rest_calls]


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


def _build_methods(
    unit: ParsedUnit, profile: MarkerProfile, owning: ComponentId
) -> list[Method]:
    """The unit's methods.  One scan of each body gives its call targets and
    its rest calls, so each rest call is recorded on the method making it."""
    src = unit.source
    class_fields = {f.name: _simple_type(f.declared_type) for f in unit.fields}
    methods = []
    for pm in unit.methods:
        targets: list[str] = []
        rest_calls: list[RestCall] = []
        body = None
        if pm.body_span is not None:
            body = src.code[pm.body_span[0] : pm.body_span[1]]
            types = dict(class_fields)
            types.update({p.name: _simple_type(p.declared_type) for p in pm.parameters})
            types.update(_local_types(src.skel, *pm.body_span))
            site = f"{unit.qualified_name}.{pm.name}"
            for call in _scan_calls(src, *pm.body_span):
                if call.receiver is None:
                    targets.append(f"{call.method}/{call.arity}")
                    continue
                rtype = types.get(call.receiver)
                receiver = call.receiver if rtype is None else rtype
                targets.append(f"{receiver}.{call.method}/{call.arity}")
                matched = _match_rest_call(src, call, rtype, profile)
                if matched is not None:
                    rest_calls.append(RestCall(*matched, site, owning))
        methods.append(
            Method(
                name=pm.name,
                parameters=pm.parameters,
                return_type=pm.return_type,
                annotations=tuple(a.as_string() for a in pm.annotations),
                body_call_targets=tuple(targets),
                rest_calls=tuple(rest_calls),
                content_hash=method_content_hash(body),
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
