from __future__ import annotations

import filecmp
import json

import pytest

from corpus import HISTORY_BASE, HISTORY_GIT_STEPS, commit_versions, materialize_history

from archdelta.cli import main
from archdelta.documents import deserialize_ir, deserialize_microservice_ir


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


@pytest.mark.parametrize("text", ['{"versions": [', "[1]"])
def test_malformed_replay_config_exits_with_usage_error(tmp_path, capsys, text):
    config = tmp_path / "replay.json"
    config.write_text(text)
    assert run_cli("replay", config) == 2
    assert "replay config" in capsys.readouterr().err


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0
