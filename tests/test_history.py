from __future__ import annotations

import dataclasses
import filecmp
import json
from pathlib import Path

import pytest

from corpus import (
    HISTORY_BASE,
    HISTORY_EXPECTED_SERIES,
    HISTORY_EXPECTED_UNIQUE,
    HISTORY_GIT_STEPS,
    ORDER_SERVICE_V0,
    ORDER_SERVICE_V1,
    POM,
    STATION_CONTROLLER_V0,
    STATION_CONTROLLER_V2,
    SUMMARY_EXPECTED_SERIES,
    SUMMARY_EXPECTED_UNIQUE,
    commit_versions,
    git,
    materialize_history,
)

from archdelta import documents, history
from archdelta.cli import main
from archdelta.errors import ArchDeltaError
from archdelta.history import (
    emit_summary,
    emit_timeseries,
    git_revisions,
    render_summary_table,
    replay,
    stream_revisions,
    write_artifacts,
)

LEAK = "ts-order/src/main/java/order/Leak.java"
LEAK_CONTROLLER = """package order;

import org.springframework.web.bind.annotation.*;

@RestController
public class Leak {
    @GetMapping("/leak")
    public String leak() {
        return "";
    }
}
"""
GITLINK = "ts-order/src/main/java/order/vendor"


@pytest.fixture(scope="module")
def history_record(history_versions):
    return replay(history_versions)


@pytest.fixture(scope="module")
def summary_record(summary_versions):
    return replay(summary_versions)


def test_single_version_record(history_versions):
    record = replay(history_versions[:1])
    assert len(record.versions) == 1
    assert record.versions[0].deltas == ()
    for series in record.per_rule_series.values():
        assert len(series) == 1


def test_invalid_call_series_rises_when_called_endpoint_disappears(
    history_versions,
):
    record = replay(history_versions[:3])
    assert record.per_rule_series["IC"] == [0, 0, 1]


def test_history_series_match_hand_derived_counts(history_record):
    assert history_record.per_rule_series == HISTORY_EXPECTED_SERIES
    assert history_record.unique_totals == HISTORY_EXPECTED_UNIQUE


def test_summary_series_match_hand_derived_counts(summary_record):
    assert summary_record.per_rule_series == SUMMARY_EXPECTED_SERIES
    assert summary_record.unique_totals == SUMMARY_EXPECTED_UNIQUE


def test_summary_document_shape(summary_record):
    doc = emit_summary(summary_record)
    assert doc["commits"] == 4
    assert doc["uniqueViolations"] == {"IC": 1, "UEM": 1, "SMM": 1, "RMM": 0}
    table = render_summary_table(summary_record)
    assert "IC" in table and "Commits" in table


def test_timeseries_header_and_row_shape(summary_versions):
    record = replay(summary_versions[:2])
    lines = emit_timeseries(record).decode().splitlines()
    assert lines[0] == "Index,AR1,AR2,AR3,AR4"
    assert lines[1] == "0,0,0,0,0"
    assert lines[2].startswith("1,")
    assert len(lines) == 3


def test_timeseries_columns_do_not_depend_on_rule_order(history_versions):
    from archdelta.rules import builtin_rules

    rules = builtin_rules()
    shuffled = [rules[2], rules[0], rules[3], rules[1]]
    record = replay(history_versions, rules=shuffled)
    assert emit_timeseries(record) == emit_timeseries(replay(history_versions))


def test_self_healing_skips_unreadable_version(history_versions, tmp_path):
    chain = list(history_versions[:4])
    chain.insert(2, tmp_path / "missing-checkout")
    record = replay(chain)
    assert len(record.versions) == 4
    assert len(record.skipped) == 1
    assert "missing-checkout" in record.skipped[0].reason or (
        record.skipped[0].label == "missing-checkout"
    )
    # the version after the gap is re-anchored by full extraction
    labels = [e.label for e in record.versions]
    assert labels == ["v0", "v1", "v2", "v3"]
    reanchored = [e.reanchored for e in record.versions]
    assert reanchored == [False, False, True, False]
    # rule series still line up with the analyzed version count
    for series in record.per_rule_series.values():
        assert len(series) == 4


def test_unique_totals_bounded_by_series_sum(history_record):
    for rule, total in history_record.unique_totals.items():
        assert total <= sum(history_record.per_rule_series[rule])


def test_replay_is_idempotent(history_versions, tmp_path):
    first = tmp_path / "run-a"
    second = tmp_path / "run-b"
    write_artifacts(replay(history_versions), first)
    write_artifacts(replay(history_versions), second)
    comparison = filecmp.dircmp(first, second)

    def assert_identical(cmp: filecmp.dircmp):
        assert not cmp.left_only and not cmp.right_only and not cmp.diff_files
        for sub in cmp.subdirs.values():
            assert_identical(sub)

    assert_identical(comparison)


def test_artifact_layout(history_versions, tmp_path):
    out = tmp_path / "artifacts"
    replay(history_versions, out_dir=out)
    assert sorted(p.name for p in (out / "ir").iterdir()) == [
        f"{i}.json" for i in range(6)
    ]
    assert sorted(p.name for p in (out / "deltas").iterdir()) == [
        f"{i}.json" for i in range(1, 6)
    ]
    assert sorted(p.name for p in (out / "violations").iterdir()) == [
        f"{i}.json" for i in range(6)
    ]
    assert (out / "timeseries.csv").exists()
    assert (out / "summary.json").exists()


def test_empty_rule_set_yields_zero_totals(summary_versions):
    record = replay(summary_versions, rules=[])
    doc = emit_summary(record)
    assert doc["uniqueViolations"] == {}
    rows = emit_timeseries(record).decode().splitlines()
    assert rows[1:] == [f"{i},0,0,0,0" for i in range(4)]


def test_replay_from_local_git_history(summary_versions, tmp_path):
    repo = tmp_path / "repo"
    commit_versions(repo, summary_versions)
    revisions = git_revisions(repo)
    assert len(revisions) == 4
    record = replay(stream_revisions(repo, revisions, tmp_path / "scratch"))
    assert record.per_rule_series == SUMMARY_EXPECTED_SERIES
    assert record.unique_totals == SUMMARY_EXPECTED_UNIQUE


def _counting_scans(monkeypatch):
    """Record, per version drawn by ``replay``, the services it scanned."""
    per_version: list[list[str]] = []
    original = history.scan_repository

    def counting(root, profile, name, *args, **kwargs):
        per_version[-1].append(name)
        return original(root, profile, name, *args, **kwargs)

    monkeypatch.setattr(history, "scan_repository", counting)

    def drawn(versions):
        for version in versions:
            per_version.append([])
            yield version

    return per_version, drawn


def _history_repo(tmp_path, steps) -> tuple[Path, list[str]]:
    roots = materialize_history(HISTORY_BASE, steps, tmp_path / "trees")
    repo = tmp_path / "repo"
    return repo, commit_versions(repo, roots)


ALL_SERVICES = ["ts-order", "ts-station", "ts-user"]
ORDER_SERVICE = "ts-order/src/main/java/order/OrderService.java"
STATION_CONTROLLER = "ts-station/src/main/java/station/StationController.java"


def test_replay_rescans_only_services_holding_changed_paths(tmp_path, monkeypatch):
    repo, revisions = _history_repo(
        tmp_path,
        [
            {},
            {ORDER_SERVICE: ORDER_SERVICE_V1},
            {STATION_CONTROLLER: STATION_CONTROLLER_V2},
            {"ts-user/pom.xml": POM.format(name="ts-user") + "<!-- edited -->\n"},
            {ORDER_SERVICE: ORDER_SERVICE_V0},
            {STATION_CONTROLLER: STATION_CONTROLLER_V0},
            {"docs/notes.txt": "outside every service\n"},
        ],
    )
    per_version, drawn = _counting_scans(monkeypatch)

    def with_gap(stream):
        for i, version in enumerate(stream):
            if i == 5:
                yield "gap", tmp_path / "unreadable"
            yield version

    stream = stream_revisions(repo, revisions, tmp_path / "scratch")
    record = replay(drawn(with_gap(stream)))
    assert [e.reanchored for e in record.versions] == [False] * 5 + [True, False]
    assert per_version == [
        ALL_SERVICES,
        ["ts-order"],
        ["ts-station"],
        ALL_SERVICES,  # a build descriptor changed
        ["ts-order"],
        [],  # the unreadable gap
        ALL_SERVICES,  # re-anchor after the gap
        [],  # no service holds a changed path
    ]
    assert record.versions[-1].system == record.versions[-2].system


def test_git_replay_of_a_repository_that_is_one_service(tmp_path, monkeypatch):
    """With the service at the root, every changed path is the service's, and
    a commit that changes nothing rescans nothing."""
    service = "src/main/java/order/OrderService.java"
    base = {"pom.xml": POM.format(name="ts-order"), service: ORDER_SERVICE_V0}
    roots = materialize_history(
        base, [{}, {service: ORDER_SERVICE_V1}, {}], tmp_path / "trees"
    )
    revisions = commit_versions(tmp_path / "repo", roots)
    per_version, drawn = _counting_scans(monkeypatch)
    stream = stream_revisions(tmp_path / "repo", revisions, tmp_path / "scratch")
    names = {".": "ts-order"}
    record = replay(drawn(stream), service_names=names)
    assert per_version == [["ts-order"], ["ts-order"], []]
    systems = [e.system for e in record.versions]
    assert systems[0] != systems[1] == systems[2]
    assert list(systems[2].services) == ["ts-order"]
    [rescanned] = replay(roots[2:], service_names=names).versions
    assert rescanned.system == systems[2]


def test_checkpoint_rescans_every_service(tmp_path, monkeypatch):
    repo, revisions = _history_repo(
        tmp_path,
        [{}, {ORDER_SERVICE: ORDER_SERVICE_V1}, {STATION_CONTROLLER: STATION_CONTROLLER_V2}],
    )
    per_version, drawn = _counting_scans(monkeypatch)
    stream = stream_revisions(repo, revisions, tmp_path / "scratch")
    replay(drawn(stream), checkpoint_every=1)
    assert per_version == [ALL_SERVICES, ["ts-order"], ALL_SERVICES]


def test_git_replay_writes_no_symlink_or_submodule(tmp_path):
    """A committed symlink is never followed out of the checkout."""
    outside = tmp_path / "outside.txt"
    outside.write_text(
        LEAK_CONTROLLER.replace("class Leak", "class Outside"), encoding="utf-8"
    )
    repo, revisions = _history_repo(tmp_path, [{LEAK: LEAK_CONTROLLER}])
    (repo / LEAK).unlink()
    (repo / LEAK).symlink_to(outside)
    git(repo, "add", "-A")
    git(repo, "update-index", "--add", "--cacheinfo", f"160000,{revisions[0]},{GITLINK}")
    git(repo, "commit", "--quiet", "-m", "symlink and submodule")
    (repo / LEAK).unlink()
    (repo / LEAK).write_text(LEAK_CONTROLLER, encoding="utf-8")
    git(repo, "add", "-A")
    git(repo, "commit", "--quiet", "-m", "regular file again")
    revisions = git_revisions(repo)
    assert len(revisions) == 3

    def leak_components(system):
        return [
            c.id.qualified_name
            for c in system.services["ts-order"].components.values()
            if "Leak" in c.source_path or c.id.qualified_name.endswith("Outside")
        ]

    trees = []

    def checked(stream):
        for rev, tree, changed in stream:
            trees.append((tree / LEAK).is_file() or (tree / LEAK).is_symlink())
            assert not (tree / GITLINK).exists() and not (tree / GITLINK).is_symlink()
            yield rev, tree, changed

    record = replay(checked(stream_revisions(repo, revisions, tmp_path / "scratch")))
    assert trees == [True, False, True]
    assert [leak_components(e.system) for e in record.versions] == [
        ["order.Leak"],
        [],
        ["order.Leak"],
    ]


def test_stream_revisions_writes_nothing_outside_the_checkout(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "--quiet")
    blob = git(repo, "hash-object", "-w", "--stdin", input="escaped\n").strip()
    inner = git(repo, "mktree", input=f"100644 blob {blob}\tevil.txt\n").strip()
    root = git(
        repo, "mktree", input=f"040000 tree {inner}\t..\n100644 blob {blob}\tkept.txt\n"
    ).strip()
    commit = git(repo, "commit-tree", root, "-m", "entry named ..").strip()
    scratch = tmp_path / "scratch"
    [(_, tree, changed)] = stream_revisions(repo, [commit], scratch)
    assert changed == {"kept.txt"}
    assert [p.relative_to(scratch).as_posix() for p in scratch.rglob("*")] == [
        "repo",
        "repo/kept.txt",
    ]


def test_stream_revisions_tracks_each_tree_exactly(tmp_path):
    """Files become directories and back; emptied directories disappear."""
    trees = [
        {"svc/pom.xml": "a", "svc/doc": "file", "svc/x/y/z.txt": "deep"},
        {"svc/pom.xml": "a", "svc/doc/part.txt": "now a directory"},
        {"svc/pom.xml": "b", "svc/doc": "file again", "svc/run.sh": "#!/bin/sh\n"},
    ]
    roots = []
    for i, files in enumerate(trees):
        for rel, content in files.items():
            (tmp_path / f"t{i}" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / f"t{i}" / rel).write_text(content)
        roots.append(tmp_path / f"t{i}")
    repo = tmp_path / "repo"
    revisions = commit_versions(repo, roots)
    seen = []
    for rev, tree, changed in stream_revisions(repo, revisions, tmp_path / "scratch"):
        seen.append(changed)
        files = {
            p.relative_to(tree).as_posix(): p.read_text()
            for p in tree.rglob("*")
            if p.is_file()
        }
        dirs = {p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_dir()}
        assert files == trees[len(seen) - 1]
        assert dirs == {
            d.as_posix() for f in files for d in Path(f).parents if d != Path(".")
        }
    assert tree == tmp_path / "scratch" / "repo"
    assert seen == [
        {"svc/pom.xml", "svc/doc", "svc/x/y/z.txt"},
        {"svc/doc", "svc/doc/part.txt", "svc/x/y/z.txt"},
        {"svc/pom.xml", "svc/doc", "svc/doc/part.txt", "svc/run.sh"},
    ]


def test_removed_service_marked_in_entry(history_versions, tmp_path):
    import shutil

    chain = list(history_versions[:2])
    truncated = tmp_path / "v2-no-user"
    shutil.copytree(history_versions[2], truncated)
    shutil.rmtree(truncated / "ts-user")
    record = replay(chain + [truncated], verify_each_step=True)
    last = record.versions[-1]
    assert last.removed_services == ("ts-user",)
    assert "ts-user" not in last.system.services


def _drop_cross_edge(system, delta):
    assert system.cross_edges
    return dataclasses.replace(
        system, cross_edges=system.cross_edges - {min(system.cross_edges, key=str)}
    )


def _move_component(system, delta):
    service = system.services[delta.microservice]
    cid = min(service.components)
    moved = dataclasses.replace(service.components[cid], source_path="elsewhere.java")
    service = dataclasses.replace(service, components={**service.components, cid: moved})
    return dataclasses.replace(
        system, services={**system.services, delta.microservice: service}
    )


def _artifact_bytes(record, out: Path) -> dict[str, bytes]:
    write_artifacts(record, out)
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in out.rglob("*")
        if path.is_file()
    }


@pytest.mark.parametrize("source", ["directories", "git"])
def test_artifacts_do_not_depend_on_the_checkpoint_cadence(
    history_versions, tmp_path, source
):
    """A checkpoint rescans and checks the chain but stays an increment: its
    deltas and violations, and so every artifact, are the same whatever the
    cadence."""
    if source == "git":
        repo, revisions = _history_repo(tmp_path, HISTORY_GIT_STEPS)

    def versions(run):
        if source == "directories":
            return history_versions
        return stream_revisions(repo, revisions, tmp_path / f"scratch-{run}")

    runs = {
        every: _artifact_bytes(
            replay(versions(every), checkpoint_every=every), tmp_path / f"out-{every}"
        )
        for every in (1, 2, 3, 50)
    }
    want = runs[50]
    assert {"ir/1.json", "deltas/1.json", "summary.json"} <= want.keys()
    differing = {
        every: sorted(p for p in set(run) | set(want) if run.get(p) != want.get(p))
        for every, run in runs.items()
    }
    assert differing == {every: [] for every in runs}


def _relabel(system, delta):
    return dataclasses.replace(system, version_label=system.version_label + "+")


@pytest.mark.parametrize(
    "flaw",
    [_drop_cross_edge, _move_component, _relabel],
    ids=["dropped-cross-edge", "moved-component", "version-label"],
)
def test_corrupted_increment_breaks_the_chain(
    history_versions, tmp_path, monkeypatch, capsys, flaw
):
    original = history.apply_delta

    def flawed(system, delta, *args):
        return flaw(original(system, delta, *args), delta)

    monkeypatch.setattr(history, "apply_delta", flawed)
    with pytest.raises(ArchDeltaError, match="chain integrity"):
        replay(history_versions)

    config = tmp_path / "replay.json"
    out = tmp_path / "artifacts"
    config.write_text(
        json.dumps({"versions": [str(v) for v in history_versions], "out": str(out)})
    )
    assert main(["replay", str(config)]) == 2
    assert "chain integrity" in capsys.readouterr().err
    assert not out.exists()


def _drop_any_cross_edge(system, delta):
    """``_drop_cross_edge`` while edges are left: unchecked steps go on."""
    return _drop_cross_edge(system, delta) if system.cross_edges else system


@pytest.mark.parametrize(
    "flaw",
    [_drop_any_cross_edge, _move_component, _relabel],
    ids=["dropped-cross-edge", "moved-component", "version-label"],
)
def test_unverified_steps_are_checked_at_the_last_version(
    history_versions, tmp_path, monkeypatch, capsys, flaw
):
    """With ``verifyEachStep: false`` the last version is still compared with
    a full reconstruction, and a diverged chain writes nothing."""
    original = history.apply_delta

    def flawed(system, delta, *args):
        return flaw(original(system, delta, *args), delta)

    monkeypatch.setattr(history, "apply_delta", flawed)
    last = history_versions[-1].name
    with pytest.raises(ArchDeltaError, match=f"chain integrity: increment at {last} "):
        replay(history_versions, verify_each_step=False)

    config = tmp_path / "replay.json"
    out = tmp_path / "artifacts"
    config.write_text(
        json.dumps(
            {
                "versions": [str(v) for v in history_versions],
                "out": str(out),
                "verifyEachStep": False,
            }
        )
    )
    assert main(["replay", str(config)]) == 2
    assert "chain integrity" in capsys.readouterr().err
    assert not out.exists()


def test_unverified_steps_are_checked_at_each_checkpoint(
    history_versions, tmp_path, monkeypatch
):
    """A checkpoint compares the chain with its rebuild and goes on from the
    increment: here the last version is a checkpoint, so nothing else would
    see the corrupted increments."""
    original = history.apply_delta
    monkeypatch.setattr(
        history, "apply_delta", lambda *args: _relabel(original(*args), None)
    )
    versions = history_versions[:3]
    checkpoint = versions[2].name
    with pytest.raises(
        ArchDeltaError, match=f"chain integrity: increment at {checkpoint} "
    ):
        replay(
            versions,
            verify_each_step=False,
            checkpoint_every=1,
            out_dir=tmp_path / "artifacts",
        )
    assert not (tmp_path / "artifacts").exists()
    monkeypatch.setattr(history, "apply_delta", original)
    record = replay(versions, verify_each_step=False, checkpoint_every=1)
    assert [entry.reanchored for entry in record.versions] == [False, False, False]


def test_replay_verifies_without_serializing_and_writes_each_service_once(
    history_versions, tmp_path, monkeypatch
):
    serialized = []
    original_serialize = documents.serialize_ir

    def counting_serialize(system, *args):
        serialized.append(system)
        return original_serialize(system, *args)

    monkeypatch.setattr(history, "serialize_ir", counting_serialize)
    monkeypatch.setattr(documents, "serialize_ir", counting_serialize)
    record = replay(history_versions)
    assert len(record.versions) == len(history_versions)
    assert serialized == []

    encoded = []
    original_text = documents._service_text

    def counting_text(ir, *args):
        encoded.append(ir)
        return original_text(ir, *args)

    monkeypatch.setattr(documents, "_service_text", counting_text)
    write_artifacts(record, tmp_path / "artifacts")
    assert len(serialized) == len(record.versions)
    distinct = {
        id(ir): ir for entry in record.versions for ir in entry.system.services.values()
    }
    assert sorted(map(id, encoded)) == sorted(distinct)
    # Fewer encodings than service slots: unchanged services were reused.
    slots = sum(len(entry.system.services) for entry in record.versions)
    assert len(encoded) < slots
