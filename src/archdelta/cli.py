"""Command-line front end for pipeline use.

Exit codes: 0 clean, 1 violations found (with --fail-on-violation),
2 input or usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Any

from . import __version__
from .delta import compute_delta
from .documents import (
    _Fault,
    _get,
    _loaded,
    _number,
    _strings_of,
    _within,
    canonical_json,
    deserialize_delta,
    deserialize_ir,
    deserialize_microservice_ir,
    serialize_delta,
    serialize_ir,
    serialize_microservice_ir,
    serialize_violations,
)
from .errors import ArchDeltaError, DocumentError
from .extractor import ScanWarning, scan_repository
from .history import git_revisions, render_summary_table, replay, stream_revisions
from .impact import (
    DEFAULT_CROSS_SERVICE_HOPS,
    impact_graph_doc,
    impact_report_to_doc,
    impact_set,
)
from .linker import DEFAULT_OVERLAP_THRESHOLD, build_system_ir, link_report
from .merge import apply_delta
from .model import with_content_version
from .profiles import default_profile, load_profile
from .rules import builtin_rules, evaluate, load_rules, render_violations_text

PROFILE_ENV_VAR = "ARCHDELTA_PROFILE"


def _profile_from_args(args) -> object:
    path = getattr(args, "profile", None) or os.environ.get(PROFILE_ENV_VAR)
    if path:
        return load_profile(path)
    return default_profile()


def _write_or_print(data: bytes, out: str | None) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _load_rules_arg(paths: list[str | Path] | None) -> list:
    if not paths:
        return builtin_rules()
    rules = []
    for path in paths:
        rules.extend(load_rules(Path(path).read_bytes()))
    return rules


def _print_warnings(warnings: list[ScanWarning]) -> None:
    for w in warnings:
        print(f"warning: {w.path}: {w.message}", file=sys.stderr)


def cmd_extract(args) -> int:
    profile = _profile_from_args(args)
    warnings: list[ScanWarning] = []
    ir = scan_repository(
        args.tree, profile, args.service, args.version or "", warnings=warnings
    )
    if not args.version:
        ir = with_content_version(ir)
    _print_warnings(warnings)
    _write_or_print(serialize_microservice_ir(ir), args.out)
    print(
        f"extracted {args.service}: {len(ir.components)} components, "
        f"{len(ir.call_graph_edges)} call edges",
        file=sys.stderr,
    )
    return 0


def cmd_link(args) -> int:
    services = [deserialize_microservice_ir(Path(p).read_bytes()) for p in args.irs]
    system = build_system_ir(services, args.overlap_threshold, args.label)
    _write_or_print(serialize_ir(system), args.out)
    print(json.dumps(link_report(system), indent=2, sort_keys=True))
    return 0


def _ir_from_path(path: str, args):
    p = Path(path)
    if p.is_dir():
        profile = _profile_from_args(args)
        service = args.service or p.resolve().name
        return with_content_version(scan_repository(p, profile, service, ""))
    return deserialize_microservice_ir(p.read_bytes())


def cmd_delta(args) -> int:
    old_ir = _ir_from_path(args.old, args)
    new_ir = _ir_from_path(args.new, args)
    d = compute_delta(old_ir, new_ir)
    _write_or_print(serialize_delta(d), args.out)
    print(f"delta {d.old_version_id} -> {d.new_version_id}: "
          f"{len(d.changes)} changes", file=sys.stderr)
    return 0


def cmd_merge(args) -> int:
    baseline = deserialize_ir(Path(args.baseline).read_bytes())
    d = deserialize_delta(Path(args.delta).read_bytes())
    increment = apply_delta(baseline, d, args.overlap_threshold)
    _write_or_print(serialize_ir(increment), args.out)
    return 0


def _impact_report(baseline, d, args):
    return impact_set(
        baseline,
        d,
        max_hops=args.max_hops,
        cross_service_hops=args.cross_service_hops,
        include_data_overlap=not args.no_data_overlap,
        include_entity_usage=args.entity_usage,
    )


def cmd_analyze(args) -> int:
    baseline = deserialize_ir(Path(args.baseline).read_bytes())
    d = deserialize_delta(Path(args.delta).read_bytes())
    increment = apply_delta(baseline, d, args.overlap_threshold)
    rules = _load_rules_arg(args.rules)
    violations = evaluate(baseline, d, increment, rules)
    report = _impact_report(baseline, d, args)
    violations_payload = serialize_violations(violations, increment.version_label)
    impact_payload = canonical_json(impact_report_to_doc(report))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "violations.json").write_bytes(violations_payload)
        (out / "impact.json").write_bytes(impact_payload)
        (out / "increment.json").write_bytes(serialize_ir(increment))
        if args.graph:
            (out / "impact-graph.json").write_bytes(
                canonical_json(impact_graph_doc(report))
            )
    sys.stdout.write(render_violations_text(violations))
    affected = ", ".join(sorted(report.affected_services)) or "none"
    print(f"direct impact: {len(report.direct)} components; "
          f"indirect: {len(report.indirect)}; affected services: {affected}")
    if violations and args.fail_on_violation:
        return 1
    return 0


def cmd_impact(args) -> int:
    baseline = deserialize_ir(Path(args.baseline).read_bytes())
    d = deserialize_delta(Path(args.delta).read_bytes())
    report = _impact_report(baseline, d, args)
    _write_or_print(canonical_json(impact_report_to_doc(report)), args.out)
    if args.graph:
        Path(args.graph).write_bytes(canonical_json(impact_graph_doc(report)))
    return 0


def _name_map(names: dict) -> dict:
    """``names``, each of whose values must be a string."""
    for key, name in names.items():
        if type(name) is not str:
            raise _Fault(f"expected str, got {type(name).__name__}", "." + key)
    return names


def _read_replay_config(doc: Any) -> dict:
    """The replay config ``doc``, each key that is present of its type."""
    if type(doc) is not dict:
        raise _Fault("expected an object")
    for key in ("versions", "revisions", "rules"):
        if key in doc:
            _within(doc, key, list, _strings_of)
    for key in ("repository", "profile", "out"):
        if key in doc:
            _get(doc, key, str)
    for key in ("firstParent", "verifyEachStep"):
        if key in doc:
            _get(doc, key, bool)
    if "serviceNames" in doc:
        _within(doc, "serviceNames", dict, _name_map)
    if "overlapThreshold" in doc:
        if not math.isfinite(_number(doc, "overlapThreshold")):
            raise _Fault("expected a finite number", ".overlapThreshold")
    return doc


def cmd_replay(args) -> int:
    try:
        config = _loaded(Path(args.config).read_bytes(), None, _read_replay_config)
    except DocumentError as exc:
        raise ArchDeltaError(f"replay config {args.config}: {exc}") from None
    base = Path(args.config).resolve().parent

    def resolve(path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else base / p

    profile = (
        load_profile(resolve(config["profile"]))
        if config.get("profile")
        else default_profile()
    )
    rules = _load_rules_arg([resolve(path) for path in config.get("rules") or []])
    out_dir = args.out or (resolve(config["out"]) if config.get("out") else None)
    threshold = float(config.get("overlapThreshold", DEFAULT_OVERLAP_THRESHOLD))

    with tempfile.TemporaryDirectory(prefix="archdelta-replay-") as scratch:
        if config.get("versions"):
            versions = [resolve(v) for v in config["versions"]]
        elif config.get("repository"):
            repo = resolve(config["repository"])
            revisions = config.get("revisions") or git_revisions(
                repo, first_parent=config.get("firstParent", True)
            )
            versions = stream_revisions(repo, revisions, scratch)
        else:
            raise ArchDeltaError("replay config needs 'versions' or 'repository'")
        record = replay(
            versions,
            profile=profile,
            rules=rules,
            overlap_threshold=threshold,
            service_names=config.get("serviceNames"),
            verify_each_step=config.get("verifyEachStep", True),
            out_dir=out_dir,
        )
    sys.stdout.write(render_summary_table(record))
    for notice in record.skipped:
        print(f"skipped {notice.label}: {notice.reason}", file=sys.stderr)
    total = sum(record.unique_totals.values())
    if total and args.fail_on_violation:
        return 1
    return 0


def _overlap_threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, not {text!r}")
    return value


def _add_overlap_threshold(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--overlap-threshold",
        type=_overlap_threshold,
        default=DEFAULT_OVERLAP_THRESHOLD,
    )


def _hop_bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a whole number of hops, not {text!r}"
        )
    return value


def _add_impact_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-hops", type=_hop_bound, default=None)
    p.add_argument(
        "--cross-service-hops", type=_hop_bound, default=DEFAULT_CROSS_SERVICE_HOPS
    )
    p.add_argument("--no-data-overlap", action="store_true")
    p.add_argument("--entity-usage", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archdelta",
        description=(
            "Reconstruct a whole-system representation of a microservice "
            "system, maintain it with per-commit deltas, and flag potential "
            "breaking changes across service boundaries."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="scan one microservice source tree")
    p.add_argument("tree")
    p.add_argument("--profile", help="marker profile document")
    p.add_argument("--service", required=True, help="logical service name")
    p.add_argument("--version", dest="version", default="", help="version id")
    p.add_argument("--out", help="output file (stdout by default)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("link", help="combine per-service documents into a system")
    p.add_argument("irs", nargs="+")
    _add_overlap_threshold(p)
    p.add_argument("--label", default=None, help="system version label")
    p.add_argument("--out")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("delta", help="diff two versions of one service")
    p.add_argument("old", help="service document or source tree")
    p.add_argument("new", help="service document or source tree")
    p.add_argument("--service", help="service name when diffing source trees")
    p.add_argument("--profile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("merge", help="apply a delta to a system baseline")
    p.add_argument("baseline")
    p.add_argument("delta")
    _add_overlap_threshold(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser(
        "analyze", help="derive the increment, evaluate rules, report impact"
    )
    p.add_argument("baseline")
    p.add_argument("delta")
    p.add_argument("--rules", nargs="*", help="rule documents (bundled by default)")
    _add_overlap_threshold(p)
    _add_impact_options(p)
    p.add_argument("--graph", action="store_true", help="also write the graph export")
    p.add_argument("--out", help="output directory")
    p.add_argument("--fail-on-violation", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("impact", help="impact report for a delta over a baseline")
    p.add_argument("baseline")
    p.add_argument("delta")
    _add_impact_options(p)
    p.add_argument("--graph", help="write the node/edge export to this file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_impact)

    p = sub.add_parser("replay", help="replay a version history from a config")
    p.add_argument("config")
    p.add_argument("--out", help="artifact directory (overrides config)")
    p.add_argument("--fail-on-violation", action="store_true")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArchDeltaError, OSError) as exc:  # OSError: a file not read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
