"""Marker profiles: the annotation vocabulary driving extraction.

A profile is data, not code; stacks other than the bundled Java Spring
vocabulary are added by writing a new profile document and passing it via
``--profile`` (or the ``ARCHDELTA_PROFILE`` environment variable).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .documents import parse_json
from .errors import DocumentError

PROFILE_SCHEMA = "marker-profile@1"

# endpoint_markers value for composite tokens whose HTTP verb comes from an
# explicit attribute on the annotation (e.g. method = RequestMethod.POST).
FROM_ATTRIBUTE = "FROM_ATTRIBUTE"

_HTTP_VERBS = ("GET", "POST", "PUT", "DELETE", "PATCH")
_VERB_VALUES = {*_HTTP_VERBS, FROM_ATTRIBUTE}


@dataclass(frozen=True)
class RemoteCallPattern:
    """Shape of a remote-call invocation.

    ``verb`` is either a fixed HTTP verb string or an integer argument
    position whose value names the verb (``HttpMethod.GET`` or ``"GET"``).
    """

    receiver_type: str
    method_name: str
    url_arg: int
    verb: str | int


@dataclass(frozen=True)
class MarkerProfile:
    controller_markers: frozenset[str]
    service_markers: frozenset[str]
    repository_markers: frozenset[str]
    entity_markers: frozenset[str]
    endpoint_markers: Mapping[str, str]
    remote_call_patterns: tuple[RemoteCallPattern, ...]
    file_extensions: tuple[str, ...] = (".java",)

    def __post_init__(self):
        sets = [
            ("controller", self.controller_markers),
            ("service", self.service_markers),
            ("repository", self.repository_markers),
            ("entity", self.entity_markers),
        ]
        for i, (name_a, a) in enumerate(sets):
            for name_b, b in sets[i + 1 :]:
                overlap = a & b
                if overlap:
                    raise ValueError(
                        f"{name_a} and {name_b} marker sets overlap: {sorted(overlap)}"
                    )

    def classification_sets(self):
        from .model import ComponentType

        return (
            (ComponentType.CONTROLLER, self.controller_markers),
            (ComponentType.SERVICE, self.service_markers),
            (ComponentType.REPOSITORY, self.repository_markers),
            (ComponentType.ENTITY, self.entity_markers),
        )


def expect_strings(doc: dict, key: str, loc: str) -> tuple[str, ...]:
    """The list of strings under ``key``; a wrong element is located by index."""
    if key not in doc:
        raise DocumentError(f"missing key '{key}'", loc)
    items = doc[key]
    if not isinstance(items, list):
        got = type(items).__name__
        raise DocumentError(f"key '{key}' should be list, got {got}", f"{loc}.{key}")
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise DocumentError(
                f"expected str, got {type(item).__name__}", f"{loc}.{key}[{i}]"
            )
    return tuple(items)


def _is_index(value: Any) -> bool:
    """A non-negative argument position; ``true`` and ``false`` are not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def profile_from_doc(doc: Any, loc: str = "$") -> MarkerProfile:
    if not isinstance(doc, dict):
        raise DocumentError("profile document must be an object", loc)
    if doc.get("schema") != PROFILE_SCHEMA:
        raise DocumentError(
            f"expected schema {PROFILE_SCHEMA}, got {doc.get('schema')!r}",
            f"{loc}.schema",
        )
    endpoint_markers = doc.get("endpointMarkers")
    if not isinstance(endpoint_markers, dict):
        raise DocumentError("missing or non-object key 'endpointMarkers'", loc)
    for token, verb in endpoint_markers.items():
        if not isinstance(verb, str) or verb not in _VERB_VALUES:
            raise DocumentError(
                f"endpoint marker {token!r} maps to unknown verb {verb!r}",
                f"{loc}.endpointMarkers.{token}",
            )
    patterns = []
    raw_patterns = doc.get("remoteCallPatterns")
    if not isinstance(raw_patterns, list):
        raise DocumentError("missing or non-list key 'remoteCallPatterns'", loc)
    for i, p in enumerate(raw_patterns):
        ploc = f"{loc}.remoteCallPatterns[{i}]"
        if not isinstance(p, dict):
            raise DocumentError("pattern must be an object", ploc)
        verb = p.get("verb")
        if isinstance(verb, dict):
            verb = verb.get("argIndex")
            if not _is_index(verb):
                raise DocumentError(
                    "pattern verb argIndex must be an index", f"{ploc}.verb.argIndex"
                )
        elif verb not in _HTTP_VERBS:
            raise DocumentError(
                f"pattern verb must be one of {', '.join(_HTTP_VERBS)} "
                "or {\"argIndex\": n}",
                f"{ploc}.verb",
            )
        try:
            receiver, method, url_arg = p["receiverType"], p["methodName"], p["urlArg"]
        except KeyError as exc:
            raise DocumentError(f"pattern missing key {exc}", ploc) from exc
        for key, value in (("receiverType", receiver), ("methodName", method)):
            if not isinstance(value, str):
                raise DocumentError(f"pattern {key} must be a string", f"{ploc}.{key}")
        if not _is_index(url_arg):
            raise DocumentError("pattern urlArg must be an index", f"{ploc}.urlArg")
        patterns.append(RemoteCallPattern(receiver, method, url_arg, verb))
    extensions = (".java",)
    if "fileExtensions" in doc:
        extensions = expect_strings(doc, "fileExtensions", loc)
    try:
        return MarkerProfile(
            controller_markers=frozenset(expect_strings(doc, "controllerMarkers", loc)),
            service_markers=frozenset(expect_strings(doc, "serviceMarkers", loc)),
            repository_markers=frozenset(expect_strings(doc, "repositoryMarkers", loc)),
            entity_markers=frozenset(expect_strings(doc, "entityMarkers", loc)),
            endpoint_markers=dict(endpoint_markers),
            remote_call_patterns=tuple(patterns),
            file_extensions=extensions,
        )
    except ValueError as exc:
        raise DocumentError(str(exc), loc) from exc


def load_profile(path: str | Path) -> MarkerProfile:
    return profile_from_doc(parse_json(Path(path).read_bytes()))


def default_profile() -> MarkerProfile:
    """The bundled Java Spring profile."""
    raw = resources.files("archdelta.data.profiles").joinpath("spring.json").read_bytes()
    return profile_from_doc(parse_json(raw))
