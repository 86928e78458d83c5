from __future__ import annotations

import json

import pytest

from archdelta.errors import DocumentError
from archdelta.profiles import FROM_ATTRIBUTE, default_profile, load_profile


def _spring_doc() -> dict:
    return {
        "schema": "marker-profile@1",
        "controllerMarkers": ["RestController"],
        "serviceMarkers": ["Service"],
        "repositoryMarkers": ["Repository"],
        "entityMarkers": ["Entity"],
        "endpointMarkers": {"GetMapping": "GET", "RequestMapping": "FROM_ATTRIBUTE"},
        "remoteCallPatterns": [
            {
                "receiverType": "RestTemplate",
                "methodName": "getForObject",
                "urlArg": 0,
                "verb": "GET",
            }
        ],
        "fileExtensions": [".java"],
    }


def test_default_profile_shape():
    profile = default_profile()
    assert "RestController" in profile.controller_markers
    assert profile.endpoint_markers["RequestMapping"] == FROM_ATTRIBUTE
    assert any(
        p.method_name == "exchange" and p.verb == 1
        for p in profile.remote_call_patterns
    )
    assert profile.file_extensions == (".java",)


def test_load_profile_from_file(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(_spring_doc()))
    profile = load_profile(path)
    assert profile.service_markers == frozenset({"Service"})


def test_overlapping_marker_sets_rejected(tmp_path):
    doc = _spring_doc()
    doc["repositoryMarkers"] = ["Service"]  # collides with serviceMarkers
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError) as excinfo:
        load_profile(path)
    assert "overlap" in str(excinfo.value)


def test_unknown_endpoint_verb_rejected(tmp_path):
    doc = _spring_doc()
    doc["endpointMarkers"]["GetMapping"] = "FETCH"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError):
        load_profile(path)


def test_wrong_schema_tag_rejected(tmp_path):
    doc = _spring_doc()
    doc["schema"] = "other@1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError):
        load_profile(path)


def _pattern_edit(**changes):
    def edit(doc):
        doc["remoteCallPatterns"][0].update(changes)
    return edit


def _drop_pattern_key(key):
    def edit(doc):
        del doc["remoteCallPatterns"][0][key]
    return edit


@pytest.mark.parametrize(
    "edit, location",
    [
        (_pattern_edit(verb={"argIndex": -1}), ".verb.argIndex"),
        (_pattern_edit(verb={"argIndex": True}), ".verb.argIndex"),
        (_pattern_edit(verb={"argIndex": 1.0}), ".verb.argIndex"),
        (_pattern_edit(verb={}), ".verb.argIndex"),
        (_pattern_edit(verb="FETCH"), ".verb"),
        (_pattern_edit(verb="get"), ".verb"),
        (_pattern_edit(verb=FROM_ATTRIBUTE), ".verb"),
        (_pattern_edit(verb=["GET"]), ".verb"),
        (_drop_pattern_key("verb"), ".verb"),
        (_pattern_edit(urlArg=True), ".urlArg"),
        (_pattern_edit(urlArg=-1), ".urlArg"),
        (_pattern_edit(receiverType=5), ".receiverType"),
        (_pattern_edit(receiverType=None), ".receiverType"),
        (_pattern_edit(methodName=["get"]), ".methodName"),
        (_drop_pattern_key("methodName"), ""),
    ],
    ids=[
        "arg-index-negative",
        "arg-index-bool",
        "arg-index-float",
        "arg-index-missing",
        "verb-unknown",
        "verb-lower-case",
        "verb-from-attribute",
        "verb-list",
        "verb-missing",
        "url-arg-bool",
        "url-arg-negative",
        "receiver-type-number",
        "receiver-type-null",
        "method-name-list",
        "method-name-missing",
    ],
)
def test_malformed_remote_call_pattern_rejected_at_its_location(
    tmp_path, edit, location
):
    doc = _spring_doc()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError) as excinfo:
        load_profile(path)
    assert excinfo.value.location == "$.remoteCallPatterns[0]" + location


@pytest.mark.parametrize(
    "verb", ["GET", "POST", "PUT", "DELETE", "PATCH", {"argIndex": 0}]
)
def test_valid_pattern_verbs_accepted(tmp_path, verb):
    doc = _spring_doc()
    doc["remoteCallPatterns"][0]["verb"] = verb
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    expected = verb["argIndex"] if isinstance(verb, dict) else verb
    assert load_profile(path).remote_call_patterns[0].verb == expected
