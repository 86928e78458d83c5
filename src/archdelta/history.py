"""Replaying an ordered version history of a multi-repository system.

Each step extracts the changed services (a content-addressed cache makes
unchanged files free), computes per-service deltas, applies them to the
moving baseline, evaluates the rules and records everything.  A version that
names the paths changed since the previous one, as the git revisions read by
:func:`stream_revisions` do, rescans only the services holding them.
Per-service version ids are content digests, so an increment and a
from-scratch reconstruction of the same sources are label-identical, which
is what the chain-integrity check compares.
"""

from __future__ import annotations

import logging
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .delta import compute_delta
from .documents import (
    FragmentWindow,
    canonical_json,
    serialize_delta_set,
    serialize_ir,
    serialize_violations,
)
from .errors import ArchDeltaError, ExtractionError
from .extractor import (
    BUILD_DESCRIPTORS,
    ExtractionCache,
    ScanWarning,
    discover_services,
    scan_repository,
)
from .linker import DEFAULT_OVERLAP_THRESHOLD, build_system_ir
from .merge import apply_delta, remove_service
from .model import Delta, MicroserviceIR, SystemIR, with_content_version
from .profiles import MarkerProfile, default_profile
from .rules import Rule, Violation, builtin_rules, evaluate_many

logger = logging.getLogger(__name__)

SUMMARY_SCHEMA = "summary@1"

# Fixed mapping of the time-series columns to the bundled rules.
TIMESERIES_COLUMNS = (("AR1", "IC"), ("AR2", "UEM"), ("AR3", "SMM"), ("AR4", "RMM"))

DEFAULT_CHECKPOINT_EVERY = 50


@dataclass(frozen=True)
class VersionEntry:
    label: str
    system: SystemIR
    deltas: tuple[Delta, ...]
    violations: tuple[Violation, ...]
    reanchored: bool = False
    removed_services: tuple[str, ...] = ()


@dataclass(frozen=True)
class SkipNotice:
    label: str
    reason: str


@dataclass
class EvolutionRecord:
    versions: list[VersionEntry]
    per_rule_series: dict[str, list[int]]
    unique_totals: dict[str, int]
    rule_names: list[str]
    skipped: list[SkipNotice] = field(default_factory=list)
    scan_warnings: list[ScanWarning] = field(default_factory=list)


# A checkout root, optionally labeled, optionally with the repository-relative
# POSIX paths that differ from the previous version's tree (None: unknown).
Version = (
    str
    | Path
    | tuple[str, str | Path]
    | tuple[str, str | Path, Collection[str] | None]
)


def _normalize_versions(
    versions: Iterable[Version],
) -> Iterator[tuple[str, Path, frozenset[str] | None]]:
    for item in versions:
        if isinstance(item, tuple):
            label, root, *rest = item
            changed = rest[0] if rest else None
            yield (
                str(label),
                Path(root),
                None if changed is None else frozenset(changed),
            )
        else:
            yield Path(item).name, Path(item), None


# Discovered services of a version: (name, root relative to the checkout).
Services = list[tuple[str, str]]


def _holds_changed_path(service_root: str, changed: frozenset[str]) -> bool:
    if service_root == ".":
        return bool(changed)
    prefix = service_root + "/"
    return any(path.startswith(prefix) for path in changed)


def _extract(
    root: Path,
    changed: frozenset[str] | None,
    previous: tuple[Services, dict[str, MicroserviceIR]] | None,
    profile: MarkerProfile,
    service_names: Mapping[str, str] | None,
    cache: ExtractionCache,
    warnings: list[ScanWarning],
) -> tuple[Services, dict[str, MicroserviceIR]]:
    """Per-service representations of the version checked out at ``root``.

    ``previous`` is the prior version's result when ``changed`` names every
    path that differs from it.  Then, unless a path component is a build
    descriptor (which can move service roots), discovery is reused and only
    services holding a changed path are rescanned; otherwise everything is
    discovered and scanned.
    """
    if (
        previous is not None
        and changed is not None
        and not any(
            part in BUILD_DESCRIPTORS for path in changed for part in path.split("/")
        )
    ):
        services, previous_irs = previous
    else:
        services = [
            (name, path.relative_to(root).as_posix())
            for name, path in discover_services(root, service_names)
        ]
        previous_irs = {}
    irs: dict[str, MicroserviceIR] = {}
    for name, rel in services:
        if name in previous_irs and not _holds_changed_path(rel, changed):
            irs[name] = previous_irs[name]
            continue
        ir = scan_repository(
            root / rel, profile, name, version_id="", warnings=warnings, cache=cache
        )
        irs[name] = with_content_version(ir)
    return services, irs


def _empty_service_ir(name: str) -> MicroserviceIR:
    return with_content_version(MicroserviceIR(name, "", {}, frozenset()))


def _advance(
    system: SystemIR,
    old_irs: Mapping[str, MicroserviceIR],
    irs: Mapping[str, MicroserviceIR],
    overlap_threshold: float,
) -> tuple[SystemIR, list[Delta], tuple[str, ...]]:
    """The increment from ``old_irs`` to ``irs`` applied to ``system``, its
    deltas and the services it removed."""
    deltas = []
    for name in sorted(irs):
        old = old_irs.get(name, _empty_service_ir(name))
        if old.version_id == irs[name].version_id:
            continue
        d = compute_delta(old, irs[name])
        if d.is_empty():
            continue
        deltas.append(d)
        system = apply_delta(system, d, overlap_threshold)
    removed = tuple(sorted(set(old_irs) - set(irs)))
    for name in removed:
        system = remove_service(system, name, overlap_threshold)
    return system, deltas, removed


def _check_chain(label: str, increment: SystemIR, fresh: SystemIR) -> None:
    if increment != fresh:
        raise ArchDeltaError(
            f"chain integrity: increment at {label} diverged from "
            "full reconstruction"
        )


def replay(
    versions: Iterable[Version],
    profile: MarkerProfile | None = None,
    rules: Sequence[Rule] | None = None,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    *,
    service_names: Mapping[str, str] | None = None,
    verify_each_step: bool = True,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    out_dir: str | Path | None = None,
) -> EvolutionRecord:
    """Replay an oldest-first version history and evaluate rules per step.

    Versions are checkout roots, optionally labeled as ``(label, root)``, or
    ``(label, root, changed_paths)`` triples such as :func:`stream_revisions`
    yields; a triple's root is read before the next version is drawn, so one
    tree may be advanced in place.  Changed paths let a step rescan only the
    services holding them.  The first version is built from scratch.  Every
    later version is an increment: its deltas are applied to the previous
    system and the rules are evaluated against it.  A version whose tree
    cannot be read is skipped with a notice, and only the next readable
    version is re-anchored, built from scratch with ``reanchored`` set; when
    no version can be read the replay fails.

    Every increment must equal a full reconstruction from the same service
    representations, or the replay fails with "chain integrity" before any
    artifact is written.  With ``verify_each_step`` each step is compared;
    without it, each checkpoint and the last version are.  A checkpoint runs
    after every ``checkpoint_every`` increments: it rescans every service
    and compares the chain, but keeps the step's deltas and violations, so
    the record does not depend on the cadence.
    """
    profile = profile if profile is not None else default_profile()
    rule_list = list(rules) if rules is not None else builtin_rules()

    cache: ExtractionCache = {}
    warnings: list[ScanWarning] = []
    entries: list[VersionEntry] = []
    skipped: list[SkipNotice] = []
    prev_system: SystemIR | None = None
    prev_services: Services = []
    prev_irs: dict[str, MicroserviceIR] = {}
    need_reanchor = False
    since_checkpoint = 0
    unchecked: str | None = None  # the label of an increment not yet compared

    for label, root, changed in _normalize_versions(versions):
        anchor = prev_system is None or need_reanchor
        checkpoint = not anchor and since_checkpoint >= checkpoint_every
        previous = None if anchor or checkpoint else (prev_services, prev_irs)
        try:
            services, irs = _extract(
                root, changed, previous, profile, service_names, cache, warnings
            )
        except ExtractionError as exc:
            logger.warning("skipping version %s: %s", label, exc)
            skipped.append(SkipNotice(label=label, reason=str(exc)))
            need_reanchor = prev_system is not None
            continue

        if anchor:
            baseline = None
            system = build_system_ir(irs.values(), overlap_threshold)
            deltas: list[Delta] = []
            removed: tuple[str, ...] = ()
        else:
            baseline = prev_system
            system, deltas, removed = _advance(
                prev_system, prev_irs, irs, overlap_threshold
            )
            # Equality covers every field the document holds.  The extraction
            # cache hands both sides the same component objects, so mostly
            # the cross edges are compared value by value.
            if verify_each_step or checkpoint:
                fresh = build_system_ir(irs.values(), overlap_threshold)
                _check_chain(label, system, fresh)
        unchecked = None if anchor or checkpoint or verify_each_step else label
        since_checkpoint = 0 if anchor or checkpoint else since_checkpoint + 1
        violations = evaluate_many(baseline, deltas, system, rule_list)
        entries.append(
            VersionEntry(
                label=label,
                system=system,
                deltas=tuple(deltas),
                violations=tuple(violations),
                reanchored=need_reanchor,
                removed_services=removed,
            )
        )
        need_reanchor = False
        prev_system = system
        prev_services, prev_irs = services, irs

    if unchecked is not None:  # the last version, when not checked per step
        fresh = build_system_ir(prev_irs.values(), overlap_threshold)
        _check_chain(unchecked, prev_system, fresh)
    if not entries and not skipped:
        raise ArchDeltaError("replay requires at least one version")
    if not entries:
        labels = ", ".join(notice.label for notice in skipped)
        raise ArchDeltaError(f"replay read no version; skipped {labels}")
    rule_names = [r.name for r in rule_list]
    per_rule_series = {
        name: [
            sum(1 for v in entry.violations if v.rule_name == name)
            for entry in entries
        ]
        for name in rule_names
    }
    unique_totals = {
        name: len(
            {
                v.dedup_key
                for entry in entries
                for v in entry.violations
                if v.rule_name == name
            }
        )
        for name in rule_names
    }
    record = EvolutionRecord(
        versions=entries,
        per_rule_series=per_rule_series,
        unique_totals=unique_totals,
        rule_names=rule_names,
        skipped=skipped,
        scan_warnings=warnings,
    )
    if out_dir is not None:
        write_artifacts(record, out_dir)
    return record


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def emit_timeseries(record: EvolutionRecord) -> bytes:
    """Per-version rule violation counts as CSV (columns AR1..AR4)."""
    lines = ["Index," + ",".join(col for col, _ in TIMESERIES_COLUMNS)]
    count = len(record.versions)
    for i in range(count):
        counts = [
            record.per_rule_series.get(rule, [0] * count)[i]
            for _, rule in TIMESERIES_COLUMNS
        ]
        lines.append(f"{i}," + ",".join(str(c) for c in counts))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_summary(record: EvolutionRecord) -> dict:
    return {
        "schema": SUMMARY_SCHEMA,
        "commits": len(record.versions),
        "uniqueViolations": dict(record.unique_totals),
        "skipped": [
            {"label": s.label, "reason": s.reason} for s in record.skipped
        ],
    }


def render_summary_table(record: EvolutionRecord) -> str:
    """Aligned text table of per-rule unique violation totals."""
    rows = [("Rule", "Unique")] + [
        (name, str(record.unique_totals.get(name, 0))) for name in record.rule_names
    ]
    width = max(len(r[0]) for r in rows)
    lines = [f"{name:<{width}}  {count}" for name, count in rows]
    lines.append(f"{'Commits':<{width}}  {len(record.versions)}")
    return "\n".join(lines) + "\n"


def write_artifacts(record: EvolutionRecord, out_dir: str | Path) -> None:
    """Persist one run: ir/, deltas/, violations/, timeseries.csv, summary.json."""
    out = Path(out_dir)
    for sub in ("ir", "deltas", "violations"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    window = FragmentWindow()
    for i, entry in enumerate(record.versions):
        (out / "ir" / f"{i}.json").write_bytes(serialize_ir(entry.system, window))
        if i > 0:
            (out / "deltas" / f"{i}.json").write_bytes(
                serialize_delta_set(
                    entry.deltas, entry.reanchored, entry.removed_services
                )
            )
        (out / "violations" / f"{i}.json").write_bytes(
            serialize_violations(entry.violations, entry.system.version_label)
        )
    (out / "timeseries.csv").write_bytes(emit_timeseries(record))
    (out / "summary.json").write_bytes(canonical_json(emit_summary(record)))


# ---------------------------------------------------------------------------
# Version-control ingestion (the library itself only reads local trees)
# ---------------------------------------------------------------------------


# Tree entry modes written to the checkout: regular and executable files.
# Symlinks (120000) and submodules (160000) are never written.
_REGULAR_MODES = frozenset({"100644", "100755"})


def _git(repo: str | Path, *args: str, stdin: bytes | None = None) -> bytes:
    result = subprocess.run(
        ["git", "-C", str(repo), *args], input=stdin, capture_output=True
    )
    if result.returncode != 0:
        raise ExtractionError(
            f"git {args[0]} failed: {result.stderr.decode(errors='replace').strip()}"
        )
    return result.stdout


def git_revisions(repo: str | Path, first_parent: bool = True) -> list[str]:
    """Oldest-first revision list of a local repository's current branch."""
    args = ["rev-list", "--reverse"]
    if first_parent:
        args.append("--first-parent")
    out = _git(repo, *args, "HEAD").decode()
    return [line for line in out.splitlines() if line]


def _tree_changes(
    repo: str | Path, previous: str | None, rev: str
) -> list[tuple[str, str, str, str]]:
    """``(old mode, new mode, new blob id, path)`` for each path ``rev`` changes.

    Against no previous revision every entry of ``rev``'s tree is an addition.
    """
    if previous is None:
        fields = _git(repo, "ls-tree", "-r", "-z", "--full-tree", rev).split(b"\0")
        changes = []
        for entry in fields[:-1]:
            meta, path = entry.split(b"\t", 1)
            mode, _, oid = meta.decode().split(" ")
            changes.append(("000000", mode, oid, path.decode(errors="surrogateescape")))
        return changes
    fields = _git(
        repo, "diff-tree", "-r", "-z", "--no-renames", previous, rev
    ).split(b"\0")
    changes = []
    for meta, path in zip(fields[:-1:2], fields[1::2]):
        old_mode, new_mode, _, oid, _ = meta.decode().lstrip(":").split(" ")
        changes.append((old_mode, new_mode, oid, path.decode(errors="surrogateescape")))
    return changes


def _read_blobs(repo: str | Path, oids: Sequence[str]) -> list[memoryview]:
    """Contents of ``oids``, in order, from one ``git cat-file --batch``."""
    request = "".join(f"{oid}\n" for oid in oids).encode()
    out = _git(repo, "cat-file", "--batch", stdin=request)
    view = memoryview(out)
    blobs = []
    pos = 0
    for oid in oids:
        end = out.index(b"\n", pos)
        header = out[pos:end].split()  # <oid> blob <size>, or <oid> missing
        if len(header) != 3 or header[1] != b"blob":
            raise ExtractionError(f"git cat-file: no blob {oid}")
        start = end + 1
        pos = start + int(header[2])
        blobs.append(view[start:pos])
        pos += 1  # the newline after the contents
    return blobs


def _safe_relative(path: str) -> bool:
    return not path.startswith("/") and all(
        part not in ("", ".", "..") for part in path.split("/")
    )


def stream_revisions(
    repo: str | Path, revisions: Iterable[str], scratch: str | Path
) -> Iterator[tuple[str, Path, frozenset[str]]]:
    """Advance one checkout through oldest-first ``revisions``.

    The checkout is a new directory under ``scratch`` named after the
    repository's directory.  The first revision's tree is listed with ``git ls-tree``, each later one
    is diffed against its predecessor with ``git diff-tree``; the added and
    modified blobs of a revision come from one ``git cat-file --batch`` and
    deleted paths are unlinked.  Blobs are written as committed, with no
    attribute filters or end-of-line conversion.  Only regular files are
    written: symlinks, submodules and paths that would leave the checkout are
    skipped.  After the checkout holds ``rev`` this yields ``(rev, tree,
    changed_paths)``, the repository-relative paths whose file was written or
    removed; the tree changes when the next revision is drawn.  A git
    failure, such as an unknown revision, raises :class:`ExtractionError`.
    """
    tree = Path(scratch) / (Path(repo).resolve().name or "repository")
    tree.mkdir(parents=True)
    previous: str | None = None
    for rev in revisions:
        if rev.startswith("-"):  # git would parse it as an option
            raise ExtractionError(f"not a revision: {rev!r}")
        changes = [c for c in _tree_changes(repo, previous, rev) if _safe_relative(c[3])]
        removed = [
            path
            for old, new, _, path in changes
            if old in _REGULAR_MODES and new not in _REGULAR_MODES
        ]
        written = [(oid, path) for _, new, oid, path in changes if new in _REGULAR_MODES]
        for path in removed:
            target = tree / path
            target.unlink(missing_ok=True)
            for parent in target.parents:
                if parent == tree:
                    break
                try:
                    parent.rmdir()
                except OSError:  # not empty
                    break
        blobs = _read_blobs(repo, [oid for oid, _ in written]) if written else []
        for (_, path), data in zip(written, blobs):
            target = tree / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        yield rev, tree, frozenset(removed) | {path for _, path in written}
        previous = rev


def materialize_revisions(
    repo: str | Path, revisions: Sequence[str], dest: str | Path
) -> list[tuple[str, Path]]:
    """Copy each revision's tree, read by :func:`stream_revisions`, to ``dest/<rev>``."""
    out = []
    with tempfile.TemporaryDirectory(prefix="archdelta-revisions-") as scratch:
        for rev, tree, _ in stream_revisions(repo, revisions, scratch):
            target = Path(dest) / rev
            shutil.copytree(tree, target, dirs_exist_ok=True)
            out.append((rev, target))
    return out
