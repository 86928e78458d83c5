"""Structural extraction of one microservice source tree.

The parser is deliberately lightweight: it recognizes type declarations,
annotations, method signatures and bodies, which is all the downstream
analysis consumes.  It never executes builds and it degrades to warnings on
files it cannot make sense of.

Each file is lexed once, by ``model.lexed_views``: the lexemes are string
and char literals, ``\"\"\"`` text blocks and comments.  Each starts at a quote
or a slash, and the lexeme pattern is tried only there.  That pass yields
two offset-aligned views and the spans of the literals that hold
whitespace.  ``code`` has comments blanked and is where values are read.
``skel`` also blanks literal interiors, keeping the quotes, and is where
structure is found, so braces and keywords inside literals cannot confuse
it.  One stack pass over ``skel`` pairs every ``(`` and ``{`` with its closer.

The members are found in one pass over the class body, in the manner of an
island grammar: declarations are parsed, bodies are skipped.  The pass stops
only where a member can end (``;``, ``=``, ``{``) and steps over each
parenthesized group and each body through the bracket table.  Each member is
classified once, from its head: its leading annotations, one pattern for its
modifiers, type and name, and for a method the parameter list that closes
the head.  Method bodies and annotation arguments are hashed from ``code``
and the whitespace-holding literals, never lexed again.  Each body is read
once for its local declarations and once, backwards from each ``(``, for its
calls; the call graph and the remote calls read the same calls.

Discovery and scanning read every tree as a :class:`SourceListing`, the
files its walk reaches in walk order, each with a content key.  A directory
is walked once and read file by file; a git revision is listed from its
blob ids.  A scan reads only the files whose key is unknown or not cached,
in one batch, and extracts those.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    Callable,
    Collection,
    Mapping,
    MutableMapping,
    NamedTuple,
    Sequence,
)

from .errors import AmbiguousMarkerError, ExtractionError
from .model import (
    HTTP_METHODS,
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
    lexed_views,
    make_component,
    method_content_hash,
    normalize_path,
    normalized_span,
    validate_microservice_ir,
)
from .profiles import FROM_ATTRIBUTE, MarkerProfile


logger = logging.getLogger(__name__)

_CALL_KEYWORDS = frozenset(
    "if for while switch catch return throw assert super this synchronized new".split()
)

_PRUNED_DIRS = {"target", "build", "out", "node_modules"}
# Under a directory of this name, the walk leaves out the entry of that name.
_LEFT_OUT = {"src": "test"}

BUILD_DESCRIPTORS = ("pom.xml", "build.gradle", "build.gradle.kts")


@dataclass
class ScanWarning:
    path: str
    message: str


# ---------------------------------------------------------------------------
# Low-level text scanning
# ---------------------------------------------------------------------------


_BRACKETS = re.compile(r"[(){}]")
_PARENS = re.compile(r"[()]")
_SPLIT_PUNCT = re.compile(r"[()\[\]{}<>,=+]")


class _Source:
    """One file's aligned views, bracket-match table and whitespace-holding
    literals; parsing uses spans."""

    def __init__(self, text: str):
        self.code, self.skel, self.spaced = lexed_views(text)
        self.closer: dict[int, int] = {}
        skel, closer = self.skel, self.closer
        parens: list[int] = []
        braces: list[int] = []
        # a closer without an opener pairs with nothing
        for i in map(re.Match.start, _BRACKETS.finditer(skel)):
            c = skel[i]
            if c == "(":
                parens.append(i)
            elif c == "{":
                braces.append(i)
            elif c == ")":
                if parens:
                    closer[parens.pop()] = i
            elif braces:
                closer[braces.pop()] = i

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
        if self.skel.find(sep, start, end) < 0:
            return [(start, end)]
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

    @cached_property
    def back(self) -> str:
        """``skel`` reversed, for reading backwards from an offset."""
        return self.skel[::-1]


_WHITESPACE = re.compile(r"\s+")
_NAME = re.compile(r"[A-Za-z_][\w]*")


def _simple_type(declared: str) -> str:
    """Base simple name of a declared type: strips generics, arrays, package."""
    base = declared.split("<", 1)[0].replace("[]", "").strip()
    return base.rsplit(".", 1)[-1]


def type_name_parts(declared: str) -> frozenset[str]:
    """Simple names appearing in a declared type, base and generic arguments."""
    names = _NAME.findall(declared)
    return frozenset(n.rsplit(".", 1)[-1] for n in names)


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------


class ParsedAnnotation(NamedTuple):
    name: str
    args: str  # raw text inside parens, "" when absent
    text: str  # the annotation as a method or entity records it


_ANNOTATION = re.compile(r"@\s*([\w.]+)\s*(\()?")
_LEADING_ANNOTATION = re.compile(r"\s*" + _ANNOTATION.pattern)


def _annotation(src: _Source, m: re.Match, end: int) -> tuple[ParsedAnnotation, int]:
    """The annotation ``m`` found in a span ending at ``end``; offset after it."""
    name = m.group(1).rsplit(".", 1)[-1]
    if not m.group(2):
        return ParsedAnnotation(name, "", name), m.end()
    start = m.end()
    close = src.close(start - 1, end)
    body = normalized_span(src.code, src.spaced, start, close)
    text = f"{name}({body})" if body else name
    return ParsedAnnotation(name, src.code[start:close], text), close + 1


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
    m = _NAMED_PATH.search(args) or _LEADING_PATH.match(args)
    return m.group(1) if m else ""


def _annotation_method_attr(args: str) -> str | None:
    m = _METHOD_CONSTANT.search(args) or _METHOD_STRING.search(args)
    return m.group(1) if m else None


# ---------------------------------------------------------------------------
# Structural unit parsing
# ---------------------------------------------------------------------------


class ParsedMethod(NamedTuple):
    name: str
    parameters: tuple[Parameter, ...]
    return_type: str
    annotations: tuple[ParsedAnnotation, ...]
    body_span: tuple[int, int] | None  # None for abstract/interface methods


class ParsedField(NamedTuple):
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
    source: _Source = field(compare=False, repr=False)

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.type_name}" if self.package else self.type_name


_PACKAGE = re.compile(r"^\s*package\s+([\w.]+)\s*;", re.MULTILINE)
_TYPE_DECL = re.compile(r"\b(class|interface|enum)\s+(\w+)")
_WORD = re.compile(r"\w+")
# A declaration head: modifier keywords (each a whole whitespace-separated
# word), the type, then the trailing name.  The type runs to the last
# non-word character before the name, found backwards from the end.
_HEAD = re.compile(
    r"\s*((?:(?:public|protected|private|static|final|abstract|default"
    r"|synchronized|native|strictfp|transient|volatile)(?:\s+|$))*)"
    r"((?:.*\W)?)(\w+)\s*$",
    re.DOTALL,
)
# What may follow a method's parameter list: nothing, or a throws clause.
_AFTER_PARAMS = re.compile(r"\s*(?:throws\b[\w.,<>\s]*)?$")
_MEMBER_PUNCT = re.compile(r"[(){;=]")
_NESTING = re.compile(r"[(\[{)\]};]")


def _parse_params(src: _Source, start: int, end: int) -> tuple[Parameter, ...]:
    params: list[Parameter] = []
    for part_start, part_end in src.split(start, end, ","):
        _, rest = _leading_annotations(src, part_start, part_end)
        head = _HEAD.match(src.code, rest, part_end)
        if head is not None:
            declared = _WHITESPACE.sub("", head.group(2))
            if declared:
                params.append(Parameter(head.group(3), declared))
    return tuple(params)


def _method(
    src: _Source,
    anns: list[ParsedAnnotation],
    start: int,
    end: int,
    body_span: tuple[int, int] | None,
) -> ParsedMethod | None:
    """The method declared by ``[start, end)`` after its annotations: a
    head with a non-empty type, then one parenthesized parameter list,
    closed last but for a throws clause."""
    skel = src.skel
    close_idx = skel.rfind(")", start, end)
    if close_idx < 0 or not _AFTER_PARAMS.match(skel, close_idx + 1, end):
        return None
    open_idx = skel.find("(", start, close_idx)
    if open_idx < 0 or src.close(open_idx, close_idx + 1) != close_idx:
        return None
    head = _HEAD.match(src.code, start, open_idx)
    if head is None:
        return None
    return_type = _WHITESPACE.sub("", head.group(2))
    if not return_type:
        return None  # constructor; outside the structural model
    params = _parse_params(src, open_idx + 1, close_idx)
    return ParsedMethod(head.group(3), params, return_type, tuple(anns), body_span)


def _fields(
    src: _Source, anns: list[ParsedAnnotation], start: int, end: int
) -> list[ParsedField]:
    """The fields declared by ``[start, end)`` after its annotations: one
    head, then more names after commas; an initializer is skipped."""
    code = src.code
    end = src.split(start, end, "=")[0][1]
    if src.skel.find("(", start, end) >= 0:
        return []
    parts = src.split(start, end, ",")
    head = _HEAD.match(code, *parts[0])
    if head is None:
        return []
    declared = _WHITESPACE.sub("", head.group(2))
    if not declared:
        return []
    names = [head.group(3)]
    for extra_start, extra_end in parts[1:]:
        extra_name = code[extra_start:extra_end].strip()
        if _WORD.fullmatch(extra_name):
            names.append(extra_name)
    annotations, modifiers = tuple(anns), tuple(head.group(1).split())
    return [ParsedField(name, declared, annotations, modifiers) for name in names]


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
    """Parse one source unit; None when no type declaration is found.

    One pass over the class body finds its members: it stops at ``;``,
    ``=``, ``{`` and parentheses, and steps over each parenthesized group
    and each body through the bracket table.  A member ending at ``{`` is a
    method with that body (or a nested type, skipped); one ending at ``;``
    is an abstract method or fields; one ending at ``=`` is fields, its
    initializer running to the next ``;`` outside brackets.
    """
    src = _Source(text)
    skel, closer = src.skel, src.closer

    pkg_match = _PACKAGE.search(skel)
    package = pkg_match.group(1) if pkg_match else ""

    decl = _TYPE_DECL.search(skel)
    if decl is None:
        return None
    kind, type_name = decl.group(1), decl.group(2)

    # the class's annotations follow the last statement or block before it
    header_start = max(skel.rfind(";", 0, decl.start()), skel.rfind("}", 0, decl.start()))
    class_annotations = _annotations_in(src, header_start + 1, decl.start())

    open_idx = skel.find("{", decl.end())
    if open_idx < 0:
        raise ExtractionError(f"type {type_name}: missing class body")
    close_idx = src.close(open_idx, len(skel))

    fields: list[ParsedField] = []
    methods: list[ParsedMethod] = []

    i = seg_start = open_idx + 1
    stray = 0  # ")" that closed nothing in the body, less "(" seen since
    while i < close_idx:
        if stray:  # no member ends until as many "(" have followed
            m = _PARENS.search(skel, i, close_idx)
            if m is None:
                break
            i = m.start()
            stray += 1 if skel[i] == ")" else -1
            i += 1
            continue
        m = _MEMBER_PUNCT.search(skel, i, close_idx)
        if m is None:
            break
        c, i = m.group(), m.start()
        if c == "(":  # a group, skipped whole
            i = closer.get(i, close_idx)
            if i >= close_idx:
                break  # unclosed in the body: nothing ends a member again
        elif c == ")":
            stray = 1
        elif c == "=":
            i = _statement_end(skel, i, close_idx)
            anns, rest = _leading_annotations(src, seg_start, i)
            fields += _fields(src, anns, rest, i)
            seg_start = i + 1
        elif c == ";":
            anns, rest = _leading_annotations(src, seg_start, i)
            method = _method(src, anns, rest, i, None)
            if method is not None:
                methods.append(method)
            else:
                fields += _fields(src, anns, rest, i)
            seg_start = i + 1
        else:  # "{": a method body or a nested type, skipped whole
            block_close = src.close(i, close_idx)
            # nested type declarations are outside the model
            if not _TYPE_DECL.search(skel, seg_start, i):
                anns, rest = _leading_annotations(src, seg_start, i)
                method = _method(src, anns, rest, i, (i + 1, block_close))
                if method is not None:
                    methods.append(method)
            seg_start = block_close + 1
            i = block_close
        i += 1

    return ParsedUnit(
        package, type_name, kind, tuple(class_annotations), tuple(fields), tuple(methods), src
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _classify(unit: ParsedUnit, profile: MarkerProfile) -> ComponentType | None:
    names = {a.name for a in unit.annotations}
    matched = [ctype for ctype, markers in profile.classification_sets() if names & markers]
    if len(matched) > 1:
        raise AmbiguousMarkerError(
            f"{unit.qualified_name}: markers match both "
            f"{matched[0].value} and {matched[1].value}"
        )
    return matched[0] if matched else None


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
            endpoints.append(Endpoint(verb, path, method.name, owning))
    return endpoints


_LOCAL_DECL = re.compile(
    r"\b([A-Z]\w*(?:\s*<[^<>;={}]*>)?(?:\s*\[\s*\])*)\s+(\w+)\s*(?==[^=])"
)
_FOREACH_DECL = re.compile(r"\(\s*([A-Z]\w*(?:\s*<[^<>;={}]*>)?)\s+(\w+)\s*:")


def _local_types(skel: str, start: int, end: int) -> dict[str, str]:
    env: dict[str, str] = {}
    for decl, mark in ((_LOCAL_DECL, "="), (_FOREACH_DECL, ":")):
        if skel.find(mark, start, end) >= 0:  # each declaration has its mark
            for m in decl.finditer(skel, start, end):
                env[m.group(2)] = _simple_type(m.group(1))
    return env


# A call read backwards from its "(" in the reversed skeleton: the method
# name whole, then a receiver and its dot, the ``new`` of a constructor, or
# neither (but no dot).
_CALL_BACK = re.compile(r"\s*(\w+)(?!\w)(?:(\s*)\.\s*(\w+)|(\s+wen)|(?!\.))")
_BLANK = re.compile(r"\s*$")


def _scan_calls(
    src: _Source, start: int, end: int
) -> list[tuple[str | None, str, int, int, int]]:
    """Receiver and bare calls in a body span, in source order, each as
    (receiver or None, method, offsets of its parentheses, arity).

    Each "(" is read backwards: the word before it is the method name, and
    before that come a receiver and its dot, ``new`` (a constructor call,
    not recorded), or neither; a name right after a dot alone is no call.
    A receiver call whose name follows whitespace (``a. b(``) is also a
    bare call: call targets, and the content hashes over them, count it.
    """
    skel, closer, back = src.skel, src.closer, src.back
    last = len(skel)
    calls = []
    open_idx = skel.find("(", start, end)
    while open_idx >= 0:
        m = _CALL_BACK.match(back, last - open_idx, last - start)
        close = closer.get(open_idx, end)
        if m is not None and close < end:
            if skel.find(",", open_idx, close) >= 0:
                arity = len(src.split(open_idx + 1, close, ","))
            else:
                arity = 0 if _BLANK.match(skel, open_idx + 1, close) else 1
            name, gap, receiver, new = m.groups()
            name = name[::-1]
            if receiver is not None:
                calls.append((receiver[::-1], name, open_idx, close, arity))
                if gap and name not in _CALL_KEYWORDS:
                    calls.append((None, name, open_idx, close, arity))
            elif new is None and name not in _CALL_KEYWORDS:
                calls.append((None, name, open_idx, close, arity))
        open_idx = skel.find("(", open_idx + 1, end)
    return calls


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
    if m and m.group(1) in HTTP_METHODS:
        return m.group(1)
    m = _VERB_STRING.search(text)
    return m.group(1) if m else None


def _receiver_matches(
    receiver: str, resolved_type: str | None, pattern_type: str
) -> bool:
    if resolved_type is not None:
        return resolved_type == pattern_type
    return receiver.lower().endswith(pattern_type.lower())


def _match_rest_call(
    src: _Source,
    call: tuple[str | None, str, int, int, int],
    rtype: str | None,
    profile: MarkerProfile,
) -> tuple[str, str, str] | None:
    """(verb, target service, path) by the first profile pattern a receiver
    call matches; None when it matches none."""
    receiver, method, open_idx, close, arity = call
    args: list[tuple[int, int]] = []
    if arity:
        args = [src.strip(*a) for a in src.split(open_idx + 1, close, ",")]
    for pattern in profile.remote_call_patterns:
        if method != pattern.method_name:
            continue
        if not _receiver_matches(receiver, rtype, pattern.receiver_type):
            continue
        if pattern.url_arg >= arity:
            continue
        verb = _resolve_verb(pattern.verb, [src.code[s:e] for s, e in args])
        if verb is not None:
            return verb, *_parse_url_expression(src, *args[pattern.url_arg])
    return None


def extract_entity(unit: ParsedUnit) -> Entity:
    """Entity payload: instance fields, excluding static/transient members."""
    fields = []
    for f in unit.fields:
        if "static" in f.modifiers or "transient" in f.modifiers:
            continue
        if any(a.name == "Transient" for a in f.annotations):
            continue
        fields.append(EntityField(field_name=f.name, declared_type=f.declared_type))
    return Entity(unit.type_name, tuple(fields), tuple(a.text for a in unit.annotations))


_NO_BODY_HASH = method_content_hash(None)


def _build_methods(
    unit: ParsedUnit, profile: MarkerProfile, owning: ComponentId
) -> list[Method]:
    """The unit's methods.  One scan of each body gives its call targets and
    its rest calls, so each rest call is recorded on the method making it.
    A body is hashed from the file's views, not lexed again."""
    src = unit.source
    class_fields = {f.name: _simple_type(f.declared_type) for f in unit.fields}
    remote = {p.method_name for p in profile.remote_call_patterns}
    methods = []
    for pm in unit.methods:
        targets: list[str] = []
        rest_calls: list[RestCall] = []
        content_hash = _NO_BODY_HASH
        if pm.body_span is not None:
            start, end = pm.body_span
            body = normalized_span(src.code, src.spaced, start, end)
            content_hash = hashlib.sha256(body.encode("utf-8")).hexdigest()
            types = dict(class_fields)
            types.update((p.name, _simple_type(p.declared_type)) for p in pm.parameters)
            types.update(_local_types(src.skel, start, end))
            for call in _scan_calls(src, start, end):
                receiver, method, _, _, arity = call
                if receiver is None:
                    targets.append(f"{method}/{arity}")
                    continue
                rtype = types.get(receiver)
                targets.append(f"{receiver if rtype is None else rtype}.{method}/{arity}")
                if method not in remote:
                    continue
                matched = _match_rest_call(src, call, rtype, profile)
                if matched is not None:
                    site = f"{unit.qualified_name}.{pm.name}"
                    rest_calls.append(RestCall(*matched, site, owning))
        methods.append(
            Method(
                name=pm.name,
                parameters=pm.parameters,
                return_type=pm.return_type,
                annotations=tuple([a.text for a in pm.annotations]),
                body_call_targets=tuple(targets),
                rest_calls=tuple(rest_calls),
                content_hash=content_hash,
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
    return make_component(cid, methods, endpoints, entity, source_path), notes


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
            by_sig.setdefault((m.name, len(m.parameters)), set()).add(cid)
    edges: set[tuple[ComponentId, ComponentId]] = set()
    for cid, comp in components.items():
        for m in comp.methods:
            for receiver, name, arity in m.call_targets:
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


def _entries(path: str, prefix: str, skip: str) -> list[tuple[str, os.DirEntry]]:
    """A directory's entries but any named ``skip``, each with ``prefix`` + its
    name, last name first."""
    try:
        with os.scandir(path) as it:
            found = [(prefix + e.name, e) for e in it if e.name != skip]
    except PermissionError:
        return []
    found.sort(reverse=True)  # names differ, so entries are never compared
    return found


def walk_key(path: str) -> str:
    """The key that sorts ``/``-separated paths into walk order: by their
    components, so ``a/x`` precedes ``a-b``."""
    return path.replace("/", "\0")


# Matches "/" + a path the walk does not reach from its root: one under a
# directory it does not enter or one a directory leaves out.
_UNWALKED = re.compile(
    r"/(?:\.[^/]*/|(?:" + "|".join(_PRUNED_DIRS) + ")/"
    + "".join(rf"|{parent}/{name}(?:/|\Z)" for parent, name in _LEFT_OUT.items())
    + ")"
)
# Matches each build descriptor on "/" + a path.
_DESCRIPTOR = re.compile(
    "/(?:" + "|".join(map(re.escape, BUILD_DESCRIPTORS)) + r")(?=/|\Z)"
)


def _suffix(path: str) -> str:
    """``PurePosixPath(path).suffix``; ``os.path.splitext`` differs on
    ``..java``."""
    dot = path.rfind(".")
    return path[dot:] if path.rfind("/") + 1 < dot < len(path) - 1 else ""


class SourceListing:
    """The source tree of one version, as the files its walk reaches.

    ``files`` holds the ``/``-separated path and the content key of each
    regular file the walk reaches from the tree's root, in walk order (see
    :func:`walk_key`).  A key changes exactly when the content does; ``None``
    stands for the SHA-256 of the bytes, known once they are read.
    ``descriptors`` holds the path of each build descriptor the walk reaches,
    a file or a directory.  ``contents(files)`` reads a batch of ``files`` and
    returns the bytes of each by its path.  ``joinpath`` gives the tree of a
    directory within this one, as discovery returns it.  :meth:`of` lists a
    directory, walked once on first use: a file that fails to read comes back
    from ``contents`` as its ``OSError``, and ``joinpath`` gives a ``Path``.
    :class:`KeyedListing` lists a git revision by blob id.
    """

    name: str
    _walked: tuple[list[tuple[str, str | None]], list[str]]

    @staticmethod
    def of(tree: SourceTree) -> SourceListing:
        """``tree`` if it is a listing, else the listing of the directory."""
        return tree if isinstance(tree, SourceListing) else _DirectoryListing(Path(tree))

    @property
    def files(self) -> list[tuple[str, str | None]]:
        return self._walked[0]

    @property
    def descriptors(self) -> list[str]:
        return self._walked[1]

    def sources(self, extensions: Collection[str]) -> list[tuple[str, str | None]]:
        """Each of ``files`` whose suffix, as ``PurePath.suffix`` takes it, is
        one of ``extensions``."""
        return [file for file in self.files if _suffix(file[0]) in extensions]


class _DirectoryListing(SourceListing):
    def __init__(self, root: Path):
        self.root = root
        # "." and ".." name no directory; a symlink keeps its own name
        self.name = root.resolve().name if root.name in ("", "..") else root.name

    @cached_property
    def _walked(self) -> tuple[list[tuple[str, str | None]], list[str]]:
        """One walk of the directory, in the order of sorted paths: a
        directory's entries by name, each directory's tree right after it.
        Hidden and build output directories, ``src/test`` and symlinked
        directories are not entered; a symlinked file counts."""
        if not self.root.is_dir():
            raise ExtractionError(f"not a readable directory: {self.root}")
        files: list[tuple[str, str | None]] = []
        descriptors = []
        pending = _entries(os.fspath(self.root), "", "")
        while pending:
            rel, entry = pending.pop()
            name = entry.name
            if entry.is_dir(follow_symlinks=False):
                if not name.startswith(".") and name not in _PRUNED_DIRS:
                    pending += _entries(entry.path, rel + "/", _LEFT_OUT.get(name, ""))
            elif entry.is_file():
                files.append((rel, None))
            # a plain file needs no lookup; a link or a directory does
            if name in BUILD_DESCRIPTORS and (entry.is_file() or os.path.exists(entry.path)):
                descriptors.append(rel)
        return files, descriptors

    def joinpath(self, *parts: str) -> Path:
        return self.root.joinpath(*parts)

    def contents(self, files: Sequence[tuple[str, str | None]]) -> dict[str, bytes | OSError]:
        base = os.path.join(self.root, "")
        found: dict[str, bytes | OSError] = {}
        for rel, _ in files:
            try:
                with open(base + rel, "rb") as f:
                    found[rel] = f.read()
            except OSError as exc:  # gone or unreadable since the walk
                found[rel] = exc
        return found


class KeyedListing(SourceListing):
    """The listing of a tree held elsewhere, such as a git revision.

    ``keys`` maps the path of each regular file of the tree to its content
    key, and ``paths`` holds those paths in walk order.  ``held`` has the
    bytes of some keys, and ``read`` returns the bytes of others, in order,
    in one batch.  The listing of a directory within the tree is the slice
    of ``paths`` below it, and the walk rules apply from there.
    """

    def __init__(
        self,
        name: str,
        paths: Sequence[str],
        keys: Mapping[str, str],
        held: Mapping[str, bytes],
        read: Callable[[list[str]], Sequence[bytes]],
    ):
        self.path = self.name = name
        self.paths, self.keys, self._held, self._read_keys = paths, keys, held, read
        self._prefix = ""  # the listed directory's path and "/", or "" at the root

    @cached_property
    def _walked(self) -> tuple[list[tuple[str, str | None]], list[str]]:
        low = walk_key(self._prefix)
        start = bisect_left(self.paths, low, key=walk_key)
        stop = bisect_left(self.paths, low[:-1] + "\1", key=walk_key) if low else None
        cut = len(self._prefix)
        files: list[tuple[str, str | None]] = []
        descriptors: dict[str, None] = {}
        for path in self.paths[start:stop]:
            rel = "/" + path[cut:]
            if not _UNWALKED.search(rel):
                files.append((rel[1:], self.keys[path]))
            for m in _DESCRIPTOR.finditer(rel):
                if not _UNWALKED.search(rel, 0, m.end()):
                    descriptors[rel[1 : m.end()]] = None
        return files, list(descriptors)

    def joinpath(self, *parts: str) -> KeyedListing:
        if not parts:
            return self
        sub = "/".join(parts)
        listing = KeyedListing(self.name, self.paths, self.keys, self._held, self._read_keys)
        listing.path, listing.name = f"{self.path}/{sub}", sub.rsplit("/", 1)[-1]
        listing._prefix = f"{self._prefix}{sub}/"
        return listing

    def contents(self, files: Sequence[tuple[str, str | None]]) -> dict[str, bytes | OSError]:
        held = self._held
        missing = list(dict.fromkeys(key for _, key in files if key not in held))
        found = dict(zip(missing, self._read_keys(missing))) if missing else {}
        return {rel: held[key] if key in held else found[key] for rel, key in files}

    def __str__(self) -> str:
        return self.path


# A source tree as discovery and scanning take it: a directory or a listing.
SourceTree = str | Path | SourceListing

# (service, relative path) -> (content key, extraction result)
ExtractionCache = MutableMapping[tuple[str, str], "tuple[str, Component | None]"]

_NOT_CACHED = ("", None)


def scan_repository(
    root_path: SourceTree,
    profile: MarkerProfile,
    service_name: str,
    version_id: str,
    *,
    warnings: list[ScanWarning] | None = None,
    cache: ExtractionCache | None = None,
) -> MicroserviceIR:
    """Scan one microservice source tree into its per-service representation.

    The tree is a directory or a :class:`SourceListing`; a directory is
    scanned as its listing.  Per-file failures, a file that cannot be read
    among them, never abort the scan; they are logged and, when a
    ``warnings`` list is supplied, collected there.  Nothing is cached for a
    file that cannot be read.  Passing a ``cache`` makes repeated scans over
    evolving trees re-parse only changed files.  It holds one entry per file
    path, the result for the content read last, so it grows with the tree
    and not with its history; a file that returns to an earlier content is
    extracted again, and its notes are reported again.  Only the files whose
    content key is unknown or differs from the cached one are read, in one
    batch; a file of a directory is keyed by the SHA-256 of its bytes.
    """
    sink = warnings if warnings is not None else []
    listing = SourceListing.of(root_path)
    files = listing.sources(profile.file_extensions)
    cached = {} if cache is None else cache
    stale = [
        (rel, key)
        for rel, key in files
        if key is None or cached.get((service_name, rel), _NOT_CACHED)[0] != key
    ]
    read = listing.contents(stale)
    components: dict[ComponentId, Component] = {}
    for rel, key in files:
        if rel in read:
            data = read[rel]
            if isinstance(data, OSError):
                sink.append(ScanWarning(rel, f"unreadable: {data}"))
                logger.warning("skipping %s: %s", rel, data)
                continue
            key = key or hashlib.sha256(data).hexdigest()
        hit = cached.get((service_name, rel), _NOT_CACHED)
        if hit[0] == key:
            comp = hit[1]
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
            cached[service_name, rel] = (key, comp)
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


def _service_roots(
    listing: SourceListing, name_overrides: Mapping[str, str] | None = None
) -> list[tuple[str, tuple[str, ...]]]:
    """Each service of ``listing`` by name: its name and the names of its
    root's path from the tree's root."""
    # each descriptor's directory, sorted, so a directory's descendants
    # follow it directly
    candidates = sorted({tuple(path.split("/")[:-1]) for path in listing.descriptors})
    leaves = [
        c
        for c, after in zip(candidates, candidates[1:] + [None])
        if after is None or after[: len(c)] != c
    ] or [()]
    overrides = dict(name_overrides or {})
    seen: dict[str, tuple[str, ...]] = {}
    for parts in leaves:
        base = parts[-1] if parts else listing.name
        name = overrides.get("/".join(parts) or ".") or overrides.get(base) or base
        if name in seen:
            raise ExtractionError(
                f"service name {name!r} maps to both "
                f"{listing.joinpath(*seen[name])} and {listing.joinpath(*parts)}"
            )
        seen[name] = parts
    return sorted(seen.items())


def discover_services(
    root_path: SourceTree,
    name_overrides: Mapping[str, str] | None = None,
) -> list[tuple[str, Path | SourceListing]]:
    """Find microservice roots under a checkout or in a :class:`SourceListing`.

    Every innermost build-descriptor directory is one candidate; a tree with
    no descriptors is a single service named after its directory.  Names can
    be overridden by relative path or directory name.  Each root is returned
    as the checkout's directory, or as the listing of that directory.
    """
    listing = SourceListing.of(root_path)
    return [
        (name, listing.joinpath(*parts))
        for name, parts in _service_roots(listing, name_overrides)
    ]
