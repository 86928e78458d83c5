"""Marker profiles: the annotation vocabulary driving extraction.

A profile is data, not code; stacks other than the bundled Java Spring
vocabulary are added by writing a new profile document and passing it via
``--profile`` (or the replay config's ``profile`` key).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .documents import _bad, _each, _Fault, _get, _loaded, _strings_of, _within
from .model import HTTP_METHODS

PROFILE_SCHEMA = "marker-profile@1"

# endpoint_markers value for composite tokens whose HTTP verb comes from an
# explicit attribute on the annotation (e.g. method = RequestMethod.POST).
FROM_ATTRIBUTE = "FROM_ATTRIBUTE"

_VERB_VALUES = {*HTTP_METHODS, FROM_ATTRIBUTE}


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


def _index(doc: dict, key: str, name: str) -> int:
    """``doc[key]``, a non-negative argument position; ``true`` is not one."""
    value = doc.get(key)
    if type(value) is not int or value < 0:
        raise _Fault(f"pattern {name} must be an index", "." + key)
    return value


def _read_pattern(doc: Any) -> RemoteCallPattern:
    receiver, method = _get(doc, "receiverType", str), _get(doc, "methodName", str)
    verb = doc.get("verb")
    if type(verb) is dict:
        verb = _within(doc, "verb", dict, _index, "argIndex", "verb argIndex")
    elif verb not in HTTP_METHODS:
        raise _Fault(
            f"pattern verb must be one of {', '.join(HTTP_METHODS)} "
            "or {\"argIndex\": n}",
            ".verb",
        )
    if "urlArg" not in doc:
        _bad(doc, "urlArg", int)
    return RemoteCallPattern(receiver, method, _index(doc, "urlArg", "urlArg"), verb)


def _markers(doc: dict, key: str) -> frozenset[str]:
    return frozenset(_within(doc, key, list, _strings_of))


def _read_profile(doc: dict) -> MarkerProfile:
    endpoint_markers = doc.get("endpointMarkers")
    if type(endpoint_markers) is not dict:
        raise _Fault("missing or non-object key 'endpointMarkers'")
    for token, verb in endpoint_markers.items():
        if type(verb) is not str or verb not in _VERB_VALUES:
            message = f"endpoint marker {token!r} maps to unknown verb {verb!r}"
            raise _Fault(message, f".endpointMarkers.{token}")
    if type(doc.get("remoteCallPatterns")) is not list:
        raise _Fault("missing or non-list key 'remoteCallPatterns'")
    patterns = _within(doc, "remoteCallPatterns", list, _each, _read_pattern)
    extensions = (".java",)
    if "fileExtensions" in doc:
        extensions = _within(doc, "fileExtensions", list, _strings_of)
    try:
        return MarkerProfile(
            controller_markers=_markers(doc, "controllerMarkers"),
            service_markers=_markers(doc, "serviceMarkers"),
            repository_markers=_markers(doc, "repositoryMarkers"),
            entity_markers=_markers(doc, "entityMarkers"),
            endpoint_markers=dict(endpoint_markers),
            remote_call_patterns=patterns,
            file_extensions=extensions,
        )
    except ValueError as exc:
        raise _Fault(str(exc)) from None


def load_profile(path: str | Path) -> MarkerProfile:
    return _loaded(Path(path).read_bytes(), PROFILE_SCHEMA, _read_profile)


def default_profile() -> MarkerProfile:
    """The bundled Java Spring profile."""
    raw = resources.files("archdelta.data.profiles").joinpath("spring.json").read_bytes()
    return _loaded(raw, PROFILE_SCHEMA, _read_profile)
