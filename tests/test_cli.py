from __future__ import annotations

import filecmp
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from corpus import HISTORY_BASE, HISTORY_GIT_STEPS, commit_versions, materialize_history

from archdelta import __version__, cli
from archdelta.cli import build_parser, main
from archdelta.documents import _loaded, deserialize_ir, deserialize_microservice_ir
from archdelta.errors import DocumentError


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_extract_on_empty_directory(tmp_path, capsys):
    out = tmp_path / "ir.json"
    code = run_cli("extract", tmp_path / "nothing-here", "--service", "svc")
    assert code == 2  # unreadable tree is an input error
    (tmp_path / "empty").mkdir()
    code = run_cli(
        "extract", tmp_path / "empty", "--service", "svc", "--out", out
    )
    assert code == 0
    ir = deserialize_microservice_ir(out.read_bytes())
    assert ir.components == {}


def test_pipeline_extract_link_delta_merge_analyze(history_versions, tmp_path):
    irs = {}
    for version, tag in ((history_versions[1], "v1"), (history_versions[2], "v2")):
        for name in ("ts-order", "ts-station", "ts-user"):
            out = tmp_path / f"{name}-{tag}.json"
            assert (
                run_cli(
                    "extract",
                    version / name,
                    "--service",
                    name,
                    "--out",
                    out,
                )
                == 0
            )
            irs[(name, tag)] = out

    baseline = tmp_path / "baseline.json"
    assert (
        run_cli(
            "link",
            irs[("ts-order", "v1")],
            irs[("ts-station", "v1")],
            irs[("ts-user", "v1")],
            "--out",
            baseline,
        )
        == 0
    )
    system = deserialize_ir(baseline.read_bytes())
    assert len(system.services) == 3

    delta_path = tmp_path / "station.delta.json"
    assert (
        run_cli(
            "delta",
            irs[("ts-station", "v1")],
            irs[("ts-station", "v2")],
            "--out",
            delta_path,
        )
        == 0
    )

    increment = tmp_path / "increment.json"
    assert run_cli("merge", baseline, delta_path, "--out", increment) == 0
    deserialize_ir(increment.read_bytes())

    analysis_dir = tmp_path / "analysis"
    assert (
        run_cli("analyze", baseline, delta_path, "--out", analysis_dir) == 0
    )
    violations = json.loads((analysis_dir / "violations.json").read_text())
    assert violations["schema"] == "violations@1"
    assert any(v["ruleName"] == "IC" for v in violations["violations"])
    impact = json.loads((analysis_dir / "impact.json").read_text())
    assert impact["schema"] == "impact-report@1"

    # violations present: the gating flag flips the exit code
    assert (
        run_cli("analyze", baseline, delta_path, "--fail-on-violation") == 1
    )


def test_delta_accepts_source_trees(history_versions, tmp_path):
    out = tmp_path / "d.json"
    code = run_cli(
        "delta",
        history_versions[0] / "ts-order",
        history_versions[1] / "ts-order",
        "--service",
        "ts-order",
        "--out",
        out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["microservice"] == "ts-order"
    assert [c["changeKind"] for c in doc["changes"]] == ["MODIFY"]


def test_replay_command_artifacts(summary_versions, tmp_path, capsys):
    config = tmp_path / "replay.json"
    out = tmp_path / "artifacts"
    config.write_text(
        json.dumps(
            {
                "versions": [str(v) for v in summary_versions],
                "out": str(out),
            }
        )
    )
    assert run_cli("replay", config) == 0
    captured = capsys.readouterr()
    assert "Commits" in captured.out
    assert sorted(p.name for p in (out / "ir").iterdir()) == [
        "0.json",
        "1.json",
        "2.json",
        "3.json",
    ]
    assert len(list((out / "deltas").iterdir())) == 3
    timeseries = (out / "timeseries.csv").read_text().splitlines()
    assert timeseries[0] == "Index,AR1,AR2,AR3,AR4"
    assert len(timeseries) == 5  # header + 4 rows
    assert run_cli("replay", config, "--fail-on-violation") == 1


def test_replay_relative_out_resolves_against_the_config(
    summary_versions, tmp_path, monkeypatch, capsys
):
    config_dir = tmp_path / "config"
    config_dir.mkdir()
    config = config_dir / "replay.json"
    config.write_text(
        json.dumps({"versions": [str(v) for v in summary_versions], "out": "artifacts"})
    )
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert run_cli("replay", config) == 0
    assert (config_dir / "artifacts" / "timeseries.csv").is_file()
    assert not (elsewhere / "artifacts").exists()
    # --out on the command line stays relative to the working directory.
    assert run_cli("replay", config, "--out", "cli-artifacts") == 0
    assert (elsewhere / "cli-artifacts" / "timeseries.csv").is_file()
    assert not (config_dir / "cli-artifacts").exists()
    # a version given as ".." is named after the directory it resolves to
    plain = tmp_path / "plain"
    (plain / "config").mkdir(parents=True)
    (plain / "A.java").write_text("package p;\n@Service\npublic class A { }\n")
    config = plain / "config" / "replay.json"
    config.write_text(json.dumps({"versions": [".."], "out": "artifacts"}))
    assert run_cli("replay", config) == 0
    ir = deserialize_ir((plain / "config" / "artifacts" / "ir" / "0.json").read_bytes())
    assert list(ir.services) == ["plain"]


@pytest.mark.parametrize(
    "text, fault",
    [
        ('{"versions": [', "$: invalid JSON: "),
        ("[1]", "$: expected an object"),
        (b"\xff{}", "$: invalid JSON: "),
    ],
    ids=["truncated", "array", "not-utf8"],
)
def test_malformed_replay_config_exits_with_usage_error(
    tmp_path, capsys, text, fault
):
    config = tmp_path / "replay.json"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run_cli("replay", config) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: replay config {config}: {fault}")
    assert "Commits" not in captured.out


@pytest.mark.parametrize(
    "key, value, fault",
    [
        ("versions", [5], "$.versions[0]: expected str, got int"),
        ("versions", "v1", "$.versions: key 'versions' should be list, got str"),
        (
            "repository",
            ["repo"],
            "$.repository: key 'repository' should be str, got list",
        ),
        ("out", 5, "$.out: key 'out' should be str, got int"),
        ("profile", 7, "$.profile: key 'profile' should be str, got int"),
        ("profile", None, "$.profile: key 'profile' should be str, got NoneType"),
        ("rules", "r.json", "$.rules: key 'rules' should be list, got str"),
        ("revisions", ["HEAD", 2], "$.revisions[1]: expected str, got int"),
        (
            "overlapThreshold",
            "x",
            "$.overlapThreshold: key 'overlapThreshold' should be float, got str",
        ),
        (
            "overlapThreshold",
            True,
            "$.overlapThreshold: key 'overlapThreshold' should be float, got bool",
        ),
        (
            "serviceNames",
            ["ts-order"],
            "$.serviceNames: key 'serviceNames' should be dict, got list",
        ),
        (
            "serviceNames",
            {"ts-order": 1},
            "$.serviceNames.ts-order: expected str, got int",
        ),
        (
            "verifyEachStep",
            "yes",
            "$.verifyEachStep: key 'verifyEachStep' should be bool, got str",
        ),
        ("firstParent", 1, "$.firstParent: key 'firstParent' should be bool, got int"),
    ],
    ids=[
        "versions-item",
        "versions",
        "repository",
        "out",
        "profile",
        "profile-null",
        "rules",
        "revisions-item",
        "overlapThreshold",
        "overlapThreshold-bool",
        "serviceNames",
        "serviceNames-value",
        "verifyEachStep",
        "firstParent",
    ],
)
def test_replay_config_value_of_the_wrong_type_exits_with_usage_error(
    summary_versions, tmp_path, capsys, key, value, fault
):
    config = tmp_path / "replay.json"
    doc = {"versions": [str(v) for v in summary_versions], "out": str(tmp_path / "run")}
    config.write_text(json.dumps({**doc, key: value}))
    assert run_cli("replay", config) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: replay config {config}: {fault}\n"
    assert "Commits" not in captured.out
    assert not list(tmp_path.rglob("timeseries.csv"))


@pytest.mark.parametrize(
    "doc, fault",
    [
        ({"versions": []}, "$.versions: expected at least one item"),
        (
            {"repository": "repo", "revisions": []},
            "$.revisions: expected at least one item",
        ),
        (
            {"versions": ["v0"], "repository": "repo"},
            "$: expected either key 'versions' or key 'repository'",
        ),
        ({"out": "run"}, "$: expected either key 'versions' or key 'repository'"),
    ],
    ids=["no-versions", "no-revisions", "both", "neither"],
)
def test_replay_config_naming_no_version_exits_with_usage_error(
    tmp_path, capsys, doc, fault
):
    """An empty list replays nothing, and a config that names both sources
    would ignore one: each is an input error, and nothing is written."""
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({"out": str(tmp_path / "run"), **doc}))
    assert run_cli("replay", config) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: replay config {config}: {fault}\n"
    assert "Commits" not in captured.out
    assert not (tmp_path / "run").exists()


def _documented_replay_configs() -> list[dict]:
    """The JSON examples under README's "Replay configuration"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Replay configuration", 1)[1].split("\n#", 1)[0]
    blocks = section.split("```json")[1:]
    return [json.loads(block.split("```", 1)[0]) for block in blocks]


def test_the_documented_replay_config_is_what_replay_reads():
    """Each README example passes the config reader, the reader checks each
    of its keys, and together they name the keys ``cmd_replay`` reads."""
    docs = _documented_replay_configs()
    assert len(docs) == 2  # a repository replay and a versions replay

    def read(doc):
        return _loaded(json.dumps(doc), None, cli._read_replay_config)

    for doc in docs:
        assert read(doc) == doc
        for key in doc:
            with pytest.raises(DocumentError) as excinfo:
                read({**doc, key: [1]})
            assert excinfo.value.location.startswith(f"$.{key}")
    source = inspect.getsource(cli.cmd_replay)
    documented = {key for doc in docs for key in doc}
    assert set(re.findall(r'config(?:\.get\(|\[)"(\w+)"', source)) == documented


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_replay_config_non_finite_threshold_exits_with_usage_error(
    summary_versions, tmp_path, capsys, value
):
    # json.loads accepts these, and NaN would link every entity pair
    config = tmp_path / "replay.json"
    versions = json.dumps([str(v) for v in summary_versions])
    out = json.dumps(str(tmp_path / "run"))
    config.write_text(
        f'{{"versions": {versions}, "out": {out}, "overlapThreshold": {value}}}'
    )
    assert run_cli("replay", config) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: replay config {config}: "
        "$.overlapThreshold: expected a finite number\n"
    )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["link", "merge", "analyze"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "half"])
def test_non_finite_overlap_threshold_exits_with_usage_error(
    tmp_path, capsys, command, value
):
    documents = ["a.json"] if command == "link" else ["base.json", "delta.json"]
    with pytest.raises(SystemExit) as excinfo:
        paths = [tmp_path / d for d in documents]
        run_cli(command, *paths, f"--overlap-threshold={value}")
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: archdelta")
    assert "--overlap-threshold: must be a finite number" in err


@pytest.mark.parametrize("command", ["analyze", "impact"])
@pytest.mark.parametrize("option", ["--max-hops", "--cross-service-hops"])
@pytest.mark.parametrize("value", ["-1", "two"])
def test_negative_hop_bound_exits_with_usage_error(
    tmp_path, capsys, command, option, value
):
    # a negative bound would report no indirect impact at all
    with pytest.raises(SystemExit) as excinfo:
        documents = [tmp_path / "base.json", tmp_path / "delta.json"]
        run_cli(command, *documents, f"{option}={value}")
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: archdelta")
    assert f"{option}: must be a whole number of hops" in err


@pytest.mark.parametrize("command", ["analyze", "impact"])
def test_zero_hop_bounds_are_accepted(command):
    args = build_parser().parse_args(
        [command, "base.json", "delta.json", "--max-hops=0", "--cross-service-hops=0"]
    )
    assert (args.max_hops, args.cross_service_hops) == (0, 0)


def test_replay_of_only_unreadable_versions_fails(tmp_path, capsys):
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({"versions": ["nope1", "nope2"]}))
    assert run_cli("replay", config) == 2
    captured = capsys.readouterr()
    assert "Commits" not in captured.out
    assert "nope1" in captured.err and "nope2" in captured.err


def _same_tree(left, right) -> bool:
    cmp = filecmp.dircmp(left, right)
    _, mismatch, errors = filecmp.cmpfiles(
        left, right, cmp.common_files, shallow=False
    )
    return (
        not (cmp.left_only or cmp.right_only or mismatch or errors)
        and not cmp.common_funny
        and all(_same_tree(left / d, right / d) for d in cmp.common_dirs)
    )


def test_git_replay_artifacts_match_directory_replay(tmp_path, capsys):
    roots = materialize_history(HISTORY_BASE, HISTORY_GIT_STEPS, tmp_path / "trees")
    commit_versions(tmp_path / "repo", roots)
    runs = {
        "directories": {"versions": [str(root) for root in roots]},
        "repository": {"repository": "repo"},
    }
    for name, config in runs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "out": str(tmp_path / name)}))
        assert run_cli("replay", path) == 0
    summary = json.loads((tmp_path / "repository" / "summary.json").read_text())
    assert summary["commits"] == len(HISTORY_GIT_STEPS)
    assert summary["skipped"] == []
    assert sorted(p.name for p in (tmp_path / "repository").iterdir()) == [
        "deltas", "ir", "summary.json", "timeseries.csv", "violations",
    ]
    assert _same_tree(tmp_path / "directories", tmp_path / "repository")


def _snapshot(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, with a file's bytes."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def test_a_repository_replay_writes_nothing_but_its_artifacts(
    tmp_path, monkeypatch, capsys
):
    """No checkout: nothing is created in the temporary directory, which
    here does not exist, nor anywhere else but ``out``."""
    roots = materialize_history(HISTORY_BASE, HISTORY_GIT_STEPS, tmp_path / "trees")
    commit_versions(tmp_path / "repo", roots)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "no-temp"))
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({"repository": "repo", "out": "out"}))
    before = _snapshot(tmp_path)
    assert run_cli("replay", config) == 0
    after = _snapshot(tmp_path)
    assert not (tmp_path / "no-temp").exists()
    assert {p: d for p, d in after.items() if p.split("/")[0] != "out"} == before
    assert (tmp_path / "out" / "summary.json").is_file()


@pytest.fixture
def git_repo(summary_versions, tmp_path):
    repo = tmp_path / "repo"
    return repo, commit_versions(repo, summary_versions)


@pytest.mark.parametrize(
    "revisions",
    [
        lambda known: ["no-such-revision"],
        lambda known: [known[0], "no-such-revision"],
        lambda known: [known[0], "--output=written-by-git"],
        lambda known: "not a list",
        lambda known: [1],
    ],
    ids=["unknown", "unknown-later", "option", "string", "number"],
)
def test_replay_of_bad_revisions_exits_with_usage_error(
    git_repo, tmp_path, capsys, revisions
):
    repo, known = git_repo
    revisions = revisions(known)
    config = tmp_path / "replay.json"
    config.write_text(
        json.dumps(
            {"repository": str(repo), "revisions": revisions, "out": str(tmp_path / "run")}
        )
    )
    assert run_cli("replay", config) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Commits" not in captured.out
    assert not (tmp_path / "run").exists()
    assert not list(tmp_path.rglob("written-by-git"))


@pytest.mark.parametrize("revisions", [None, ["HEAD"]])
def test_replay_of_a_directory_that_is_no_repository_fails(
    tmp_path, capsys, monkeypatch, revisions
):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    (tmp_path / "plain").mkdir()
    config = tmp_path / "replay.json"
    doc = {"repository": "plain", "out": str(tmp_path / "run")}
    if revisions:
        doc["revisions"] = revisions
    config.write_text(json.dumps(doc))
    assert run_cli("replay", config) == 2
    assert "git" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bad_input_exits_with_usage_error(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{not json")
    assert run_cli("merge", bogus, bogus) == 2


@pytest.mark.parametrize("role", ["baseline", "delta", "replay-config", "rules"])
def test_a_directory_as_input_document_is_a_usage_error(
    history_versions, tmp_path, capsys, role
):
    baseline, delta = _documents(history_versions, tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "baseline": ["impact", folder, delta],
        "delta": ["impact", baseline, folder],
        "replay-config": ["replay", folder],
        "rules": ["analyze", baseline, delta, "--rules", folder],
    }[role]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert "internal error" not in err and "Traceback" not in err


def _documents(versions, tmp_path):
    """A baseline document of the first history version and the ts-order
    delta to the second, written by the CLI."""
    irs = []
    for name in ("ts-order", "ts-station", "ts-user"):
        irs.append(tmp_path / f"{name}.json")
        assert run_cli("extract", versions[0] / name, "--service", name, "--out", irs[-1]) == 0
    baseline, delta = tmp_path / "baseline.json", tmp_path / "delta.json"
    assert run_cli("link", *irs, "--out", baseline) == 0
    trees = [v / "ts-order" for v in versions[:2]]
    assert run_cli("delta", *trees, "--service", "ts-order", "--out", delta) == 0
    return baseline, delta


def _merge_non_utf8_baseline(versions, tmp_path):
    baseline, delta = _documents(versions, tmp_path)
    baseline.write_bytes(b"\xff" + baseline.read_bytes())
    return ["merge", baseline, delta]


def _analyze_non_utf8_rules(versions, tmp_path):
    baseline, delta = _documents(versions, tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_bytes(b"\xff[]")
    return ["analyze", baseline, delta, "--rules", rules]


def _component_with(doc, key):
    """The first component of a system document with a non-empty ``key``."""
    return next(
        comp
        for service in doc["services"].values()
        for comp in service["components"]
        if comp[key]
    )


def _merge_edited_baseline(edit):
    def argv(versions, tmp_path):
        baseline, delta = _documents(versions, tmp_path)
        doc = json.loads(baseline.read_text())
        edit(doc)
        baseline.write_text(json.dumps(doc))
        return ["merge", baseline, delta]

    return argv


def _merge_edited_delta(edit):
    def argv(versions, tmp_path):
        baseline, delta = _documents(versions, tmp_path)
        doc = json.loads(delta.read_text())
        edit(doc)
        delta.write_text(json.dumps(doc))
        return ["merge", baseline, delta]

    return argv


def _name_owner_x(members):
    """Give the first of ``members`` an owner in service ``x``."""
    next(iter(members))["owningComponent"]["microservice"] = "x"


def _baseline_members(doc, key):
    return (
        member
        for service in doc["services"].values()
        for comp in service["components"]
        for member in comp[key]
    )


def _delta_rest_calls(doc):
    return (
        call
        for change in doc["changes"]
        for method in (change.get("newComponent") or {"methods": []})["methods"]
        for call in method["restCalls"]
    )


def _extract_with_profile(edit):
    def argv(versions, tmp_path):
        spring = resources.files("archdelta.data.profiles").joinpath("spring.json")
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(edit(json.loads(spring.read_text()))))
        tree = versions[0] / "ts-order"
        return ["extract", tree, "--service", "ts-order", "--profile", profile]

    return argv


@pytest.mark.parametrize(
    "argv, location",
    [
        (_merge_non_utf8_baseline, "$: invalid JSON"),
        (_analyze_non_utf8_rules, "$: invalid JSON"),
        (
            _merge_edited_baseline(
                lambda doc: _component_with(doc, "methods")["methods"][0].update(
                    annotations=[5]
                )
            ),
            ".methods[0].annotations[0]: expected str, got int",
        ),
        (
            _merge_edited_baseline(
                lambda doc: _component_with(doc, "methods")["methods"][0].update(
                    bodyCallTargets=["A.b/0", 5]
                )
            ),
            ".methods[0].bodyCallTargets[1]: expected str, got int",
        ),
        (
            _merge_edited_baseline(
                lambda doc: _component_with(doc, "entityRef")["entityRef"].update(
                    annotations=[None]
                )
            ),
            ".entityRef.annotations[0]: expected str, got NoneType",
        ),
        (
            _merge_edited_baseline(
                lambda doc: _name_owner_x(
                    call
                    for method in _baseline_members(doc, "methods")
                    for call in method["restCalls"]
                )
            ),
            ".restCalls[0].owningComponent: owner x::",
        ),
        (
            _merge_edited_baseline(
                lambda doc: _name_owner_x(_baseline_members(doc, "endpoints"))
            ),
            ".endpoints[0].owningComponent: owner x::",
        ),
        (
            _merge_edited_delta(lambda doc: _name_owner_x(_delta_rest_calls(doc))),
            ".restCalls[0].owningComponent: owner x::",
        ),
        (
            _merge_edited_delta(lambda doc: doc["changes"][0].update(oldContentHash=5)),
            "$.changes[0].oldContentHash: key 'oldContentHash' should be str, got int",
        ),
        (_extract_with_profile(lambda doc: []), "$: expected an object"),
        (
            _extract_with_profile(lambda doc: {**doc, "fileExtensions": 5}),
            "$.fileExtensions: key 'fileExtensions' should be list, got int",
        ),
        (
            _extract_with_profile(lambda doc: {**doc, "fileExtensions": ".java"}),
            "$.fileExtensions: key 'fileExtensions' should be list, got str",
        ),
        (
            _extract_with_profile(
                lambda doc: {
                    **doc,
                    "remoteCallPatterns": [
                        {**doc["remoteCallPatterns"][0], "urlArg": "x"}
                    ],
                }
            ),
            "$.remoteCallPatterns[0].urlArg: pattern urlArg must be an index",
        ),
        (
            _extract_with_profile(
                lambda doc: {
                    **doc,
                    "remoteCallPatterns": [
                        {**doc["remoteCallPatterns"][0], "urlArg": -1}
                    ],
                }
            ),
            "$.remoteCallPatterns[0].urlArg: pattern urlArg must be an index",
        ),
        (
            _extract_with_profile(
                lambda doc: {**doc, "endpointMarkers": {"GetMapping": ["GET"]}}
            ),
            "$.endpointMarkers.GetMapping: endpoint marker",
        ),
        (
            _extract_with_profile(
                lambda doc: {
                    **doc,
                    "remoteCallPatterns": [
                        {**doc["remoteCallPatterns"][7], "verb": {"argIndex": -1}}
                    ],
                }
            ),
            "$.remoteCallPatterns[0].verb.argIndex: pattern verb argIndex must be",
        ),
        (
            _extract_with_profile(lambda doc: {**doc, "schema": "other@1"}),
            "$.schema: expected schema marker-profile@1, got other@1",
        ),
    ],
    ids=[
        "non-utf8-baseline",
        "non-utf8-rules",
        "method-annotation-number",
        "body-call-target-number",
        "entity-annotation-null",
        "baseline-rest-call-owner",
        "baseline-endpoint-owner",
        "delta-rest-call-owner",
        "delta-old-hash-number",
        "profile-not-an-object",
        "profile-extensions-number",
        "profile-extensions-string",
        "profile-url-arg-string",
        "profile-url-arg-negative",
        "profile-verb-list",
        "profile-verb-arg-index-negative",
        "profile-other-schema",
    ],
)
def test_malformed_input_is_a_usage_error(
    history_versions, tmp_path, capsys, argv, location
):
    argv = argv(history_versions, tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "internal error:" not in err
    assert "error: " in err and location in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0


def test_package_runs_as_a_module(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "archdelta", "--version"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == __version__
