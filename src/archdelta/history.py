"""Replaying an ordered version history of a multi-repository system.

Each step extracts the changed services (a content-addressed cache makes
unchanged files free), computes per-service deltas, applies them to the
moving baseline, evaluates the rules and records everything.  Per-service
version ids are content digests, so an increment and a from-scratch
reconstruction of the same sources are label-identical, which is what the
chain-integrity check compares.
"""

from __future__ import annotations

import io
import logging
import subprocess
import tarfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .delta import compute_delta
from .documents import canonical_json, delta_to_doc, serialize_ir
from .errors import ArchDeltaError, ExtractionError
from .extractor import ExtractionCache, ScanWarning, discover_services, scan_repository
from .linker import DEFAULT_OVERLAP_THRESHOLD, build_system_ir
from .merge import apply_delta, remove_service
from .model import Delta, MicroserviceIR, SystemIR, ir_content_digest, with_content_version
from .profiles import MarkerProfile, default_profile
from .rules import Rule, Violation, builtin_rules, evaluate_many, violations_doc

logger = logging.getLogger(__name__)

SUMMARY_SCHEMA = "summary@1"
DELTA_SET_SCHEMA = "delta-set@1"

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


def _normalize_versions(
    versions: Sequence[str | Path | tuple[str, str | Path]],
) -> list[tuple[str, Path]]:
    out = []
    for item in versions:
        if isinstance(item, tuple):
            label, root = item
            out.append((str(label), Path(root)))
        else:
            out.append((Path(item).name, Path(item)))
    return out


def _extract_all(
    root: Path,
    profile: MarkerProfile,
    service_names: Mapping[str, str] | None,
    cache: ExtractionCache,
    warnings: list[ScanWarning],
) -> dict[str, MicroserviceIR]:
    irs: dict[str, MicroserviceIR] = {}
    for name, path in discover_services(root, service_names):
        ir = scan_repository(
            path, profile, name, version_id="", warnings=warnings, cache=cache
        )
        irs[name] = with_content_version(ir)
    return irs


def _empty_service_ir(name: str) -> MicroserviceIR:
    empty = MicroserviceIR(
        name=name, version_id="", components={}, call_graph_edges=frozenset()
    )
    return MicroserviceIR(
        name=name,
        version_id=ir_content_digest(empty),
        components={},
        call_graph_edges=frozenset(),
    )


def replay(
    versions: Sequence[str | Path | tuple[str, str | Path]],
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

    Versions are checkout roots (optionally labeled).  A version whose tree
    cannot be read is skipped with a notice and the chain re-anchors with a
    full reconstruction at the next readable version; when no version can be
    read the replay fails.
    """
    ordered = _normalize_versions(versions)
    if not ordered:
        raise ArchDeltaError("replay requires at least one version")
    profile = profile if profile is not None else default_profile()
    rule_list = list(rules) if rules is not None else builtin_rules()

    cache: ExtractionCache = {}
    warnings: list[ScanWarning] = []
    entries: list[VersionEntry] = []
    skipped: list[SkipNotice] = []
    prev_system: SystemIR | None = None
    prev_irs: dict[str, MicroserviceIR] = {}
    need_reanchor = False
    since_checkpoint = 0

    for label, root in ordered:
        try:
            irs = _extract_all(root, profile, service_names, cache, warnings)
        except ExtractionError as exc:
            logger.warning("skipping version %s: %s", label, exc)
            skipped.append(SkipNotice(label=label, reason=str(exc)))
            need_reanchor = True
            continue

        removed: tuple[str, ...] = ()
        if prev_system is None or need_reanchor or since_checkpoint >= checkpoint_every:
            system = build_system_ir(irs.values(), overlap_threshold)
            deltas: list[Delta] = []
            violations = evaluate_many(None, [], system, rule_list)
            entries.append(
                VersionEntry(
                    label=label,
                    system=system,
                    deltas=(),
                    violations=tuple(violations),
                    reanchored=prev_system is not None,
                )
            )
            need_reanchor = False
            since_checkpoint = 0
        else:
            deltas = []
            system = prev_system
            for name in sorted(irs):
                old = prev_irs.get(name, _empty_service_ir(name))
                if old.version_id == irs[name].version_id:
                    continue
                d = compute_delta(old, irs[name])
                if d.is_empty():
                    continue
                deltas.append(d)
                system = apply_delta(system, d, overlap_threshold)
            removed = tuple(sorted(set(prev_irs) - set(irs)))
            for name in removed:
                system = remove_service(system, name, overlap_threshold)
            if verify_each_step:
                fresh = build_system_ir(irs.values(), overlap_threshold)
                if serialize_ir(fresh) != serialize_ir(system):
                    raise ArchDeltaError(
                        f"chain integrity: increment at {label} diverged from "
                        "full reconstruction"
                    )
            violations = evaluate_many(prev_system, deltas, system, rule_list)
            entries.append(
                VersionEntry(
                    label=label,
                    system=system,
                    deltas=tuple(deltas),
                    violations=tuple(violations),
                    removed_services=removed,
                )
            )
            since_checkpoint += 1
        prev_system = system
        prev_irs = irs

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
    for i, entry in enumerate(record.versions):
        (out / "ir" / f"{i}.json").write_bytes(serialize_ir(entry.system))
        if i > 0:
            delta_set = {
                "schema": DELTA_SET_SCHEMA,
                "deltas": [delta_to_doc(d) for d in entry.deltas],
                "reanchored": entry.reanchored,
                "removedServices": list(entry.removed_services),
            }
            (out / "deltas" / f"{i}.json").write_bytes(canonical_json(delta_set))
        (out / "violations" / f"{i}.json").write_bytes(
            canonical_json(
                violations_doc(entry.violations, entry.system.version_label)
            )
        )
    (out / "timeseries.csv").write_bytes(emit_timeseries(record))
    (out / "summary.json").write_bytes(canonical_json(emit_summary(record)))


# ---------------------------------------------------------------------------
# Version-control ingestion (the library itself only reads local trees)
# ---------------------------------------------------------------------------


def git_revisions(repo: str | Path, first_parent: bool = True) -> list[str]:
    """Oldest-first revision list of a local repository's current branch."""
    cmd = ["git", "-C", str(repo), "rev-list", "--reverse"]
    if first_parent:
        cmd.append("--first-parent")
    cmd.append("HEAD")
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        raise ExtractionError(f"git rev-list failed: {result.stderr.strip()}")
    return [line for line in result.stdout.splitlines() if line]


def materialize_revisions(
    repo: str | Path, revisions: Sequence[str], dest: str | Path
) -> list[tuple[str, Path]]:
    """Check out revisions of a local repository into per-revision trees."""
    out = []
    dest = Path(dest)
    for rev in revisions:
        target = dest / rev
        target.mkdir(parents=True, exist_ok=True)
        result = subprocess.run(
            ["git", "-C", str(repo), "archive", "--format=tar", rev],
            capture_output=True,
        )
        if result.returncode != 0:
            raise ExtractionError(
                f"git archive {rev} failed: {result.stderr.decode().strip()}"
            )
        with tarfile.open(fileobj=io.BytesIO(result.stdout)) as tar:
            tar.extractall(target)
        out.append((rev, target))
    return out
