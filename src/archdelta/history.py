"""Replaying an ordered version history of a multi-repository system.

Each step extracts the changed services (a content-addressed cache makes
unchanged files free), computes per-service deltas, applies them to the
moving baseline, evaluates the rules and records everything.  A version's
tree, a checkout directory or a listing, is read as one
:class:`SourceListing`, and each service root is kept as its path from the
tree's root.  The git revisions read by :func:`stream_revisions` are
listings keyed by blob id, read straight from git objects with no checkout,
so an unchanged file is never read.  They name the paths changed since the
previous revision, and a version that does rescans only the services
holding them.
Per-service version ids are content digests, so an increment and a
from-scratch reconstruction of the same sources are label-identical, which
is what the chain-integrity check compares.
"""

from __future__ import annotations

import logging
import subprocess
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from pathlib import Path
from functools import partial
from types import MappingProxyType
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
    _DESCRIPTOR,
    ExtractionCache,
    KeyedListing,
    ScanWarning,
    SourceListing,
    SourceTree,
    _service_roots,
    scan_repository,
    walk_key,
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


# A tree, a checkout root or a listing, optionally labeled, optionally with
# the repository-relative POSIX paths that differ from the previous version's
# tree (None: unknown).
Version = (
    SourceTree | tuple[str, SourceTree] | tuple[str, SourceTree, Collection[str] | None]
)


# Discovered services of a version: (name, the names of its root's path from
# the tree's root).
Services = list[tuple[str, tuple[str, ...]]]


def _extract(
    root: SourceListing,
    changed: frozenset[str] | None,
    previous: tuple[Services, dict[str, MicroserviceIR]] | None,
    profile: MarkerProfile,
    service_names: Mapping[str, str] | None,
    cache: ExtractionCache,
    warnings: list[ScanWarning],
) -> tuple[Services, dict[str, MicroserviceIR]]:
    """Per-service representations of the version whose tree is ``root``.

    ``previous`` is the prior version's result when ``changed`` names every
    path that differs from it.  Then, unless a path component is a build
    descriptor (which can move service roots), discovery is reused and only
    services holding a changed path are rescanned; otherwise everything is
    discovered and scanned.
    """
    if (
        previous is not None
        and changed is not None
        and not any(_DESCRIPTOR.search("/" + path) for path in changed)
    ):
        services, previous_irs = previous
    else:
        services = _service_roots(root, service_names)
        previous_irs = {}
    irs: dict[str, MicroserviceIR] = {}
    for name, parts in services:
        prefix = "".join(part + "/" for part in parts)
        if name in previous_irs and not any(p.startswith(prefix) for p in changed):
            irs[name] = previous_irs[name]
            continue
        tree = root.joinpath(*parts)
        ir = scan_repository(tree, profile, name, "", warnings=warnings, cache=cache)
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
    out_dir: str | Path | None = None,
) -> EvolutionRecord:
    """Replay an oldest-first version history and evaluate rules per step.

    Versions are trees, each a checkout root or a :class:`SourceListing`,
    optionally labeled as ``(label, root)``, or ``(label, root,
    changed_paths)`` triples such as :func:`stream_revisions` yields.
    Changed paths let a step rescan only the services holding them.  The
    first version is built from scratch.  Every later version is an
    increment: its deltas are applied to the previous system and the rules
    are evaluated against it.  A version whose tree cannot be read is
    skipped with a notice, and only the next readable version is
    re-anchored, built from scratch with ``reanchored`` set; when no version
    can be read the replay fails.

    Every increment must equal a full reconstruction from the same service
    representations, or the replay fails with "chain integrity" before any
    artifact is written.  With ``verify_each_step`` each step is compared;
    without it, each checkpoint and the last version are.  A checkpoint runs
    after every ``DEFAULT_CHECKPOINT_EVERY`` increments: it rescans every service
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

    for item in versions:
        label, tree, *rest = item if isinstance(item, tuple) else (None, item)
        root = SourceListing.of(tree)
        label = root.name if label is None else str(label)
        changed = None if not rest or rest[0] is None else frozenset(rest[0])
        anchor = prev_system is None or need_reanchor
        checkpoint = not anchor and since_checkpoint >= DEFAULT_CHECKPOINT_EVERY
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
# Version-control ingestion (read with the git executable; nothing is written)
# ---------------------------------------------------------------------------


# Tree entry modes listed: regular and executable files.  Symlinks (120000)
# and submodules (160000) are never listed.
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


def _read_blobs(repo: str | Path, oids: Sequence[str]) -> list[bytes]:
    """Contents of ``oids``, in order, from one ``git cat-file --batch``."""
    request = "".join(f"{oid}\n" for oid in oids).encode()
    out = _git(repo, "cat-file", "--batch", stdin=request)
    blobs = []
    pos = 0
    for oid in oids:
        end = out.index(b"\n", pos)
        header = out[pos:end].split()  # <oid> blob <size>, or <oid> missing
        if len(header) != 3 or header[1] != b"blob":
            raise ExtractionError(f"git cat-file: no blob {oid}")
        start = end + 1
        pos = start + int(header[2])
        blobs.append(out[start:pos])
        pos += 1  # the newline after the contents
    return blobs


def _safe_relative(path: str) -> bool:
    return not path.startswith("/") and all(
        part not in ("", ".", "..") for part in path.split("/")
    )


def stream_revisions(
    repo: str | Path, revisions: Iterable[str]
) -> Iterator[tuple[str, KeyedListing, frozenset[str]]]:
    """List the tree of each of oldest-first ``revisions``, straight from git.

    The first revision's tree is listed with ``git ls-tree``, each later one
    is diffed against its predecessor with ``git diff-tree``.  For each
    revision this yields ``(rev, listing, changed_paths)``: a
    :class:`KeyedListing` of the revision's regular files keyed by blob id
    and named after the repository's directory, and the repository-relative
    paths of the files it added, modified or removed.  The paths are kept in
    walk order from revision to revision, by bisection on the changes, so the
    listing of one service is a slice of them.  Symlinks, submodules
    and paths that would leave the tree are never listed.  The listing holds
    the blobs the revision added or modified, read with one ``git cat-file
    --batch``, as committed: no attribute filters or end-of-line conversion
    apply.  It reads any other blob on demand, one batch at a time.  Nothing
    is written.  A git failure, such as an unknown revision, raises
    :class:`ExtractionError`.
    """
    name = Path(repo).resolve().name or "repository"
    read = partial(_read_blobs, repo)
    files: dict[str, str] = {}
    paths: list[str] = []  # the keys of files, in walk order
    previous: str | None = None
    for rev in revisions:
        if rev.startswith("-"):  # git would parse it as an option
            raise ExtractionError(f"not a revision: {rev!r}")
        # the listings already yielded keep theirs
        files, paths = dict(files), list(paths)
        changed = set()
        added: dict[str, str] = {}
        for old, new, oid, path in _tree_changes(repo, previous, rev):
            if not _safe_relative(path):
                continue
            if new in _REGULAR_MODES:
                if path not in files:
                    insort(paths, path, key=walk_key)
                files[path] = added[path] = oid
            elif old in _REGULAR_MODES:
                if files.pop(path, None) is not None:
                    del paths[bisect_left(paths, walk_key(path), key=walk_key)]
            else:
                continue
            changed.add(path)
        oids = sorted(set(added.values()))
        held = dict(zip(oids, read(oids))) if oids else {}
        listing = KeyedListing(name, paths, MappingProxyType(files), held, read)
        yield rev, listing, frozenset(changed)
        previous = rev


def materialize_revisions(
    repo: str | Path, revisions: Sequence[str], dest: str | Path
) -> list[tuple[str, Path]]:
    """Write each revision's regular files, listed by :func:`stream_revisions`,
    to ``dest/<rev>``."""
    out = []
    for rev, listing, _ in stream_revisions(repo, revisions):
        target = Path(dest) / rev
        target.mkdir(parents=True, exist_ok=True)
        for path, data in listing.contents(list(listing.keys.items())).items():
            file = target / path
            file.parent.mkdir(parents=True, exist_ok=True)
            file.write_bytes(data)
        out.append((rev, target))
    return out
