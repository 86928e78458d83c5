"""Benchmark of archdelta on seeded multi-service Spring/Java systems.

Three workloads, each a closed loop with one client in one process (the next
operation starts when the previous one returns):

  commit-stream   single-file commits on a medium system, applied to an
                  in-memory baseline: scan_repository of the changed service
                  with a warm cache, compute_delta, apply_delta,
                  evaluate_many with the built-in rules, impact_set.
  cold-build      full reconstruction of a large system with an empty cache
                  (discover_services, scan_repository, build_system_ir,
                  evaluate_many), then storing the baseline and loading it.
  history-replay  ``archdelta replay`` with a default config over a local git
                  repository that set-up builds with fixed dates.

Usage:

  python3 bench/run.py --workload commit-stream --seed 1 --seconds 25 --trace 0
  python3 bench/run.py --smoke                # every workload at tiny size

``--trace 1`` runs a fixed number of operations untraced, then the same
number traced, and reports per-layer metrics and the tracing overhead.
``--smoke`` runs every workload untraced once and traced twice, each in its
own process, and checks that every count metric repeats exactly.

Every line but the last names a metric: ``METRIC <workload> <name> <value>
<unit>``.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs are checked against ground truth the
generator derives from its own model; a mismatch is printed to standard
error, counts as a failed operation and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from archgen import Model, Shape
from spantrace import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Reserved for confirming a claimed gain; not to be used while writing a change.
CONFIRM_SEED = 7919

LAYERS = (
    "extractor", "linker", "delta", "merge", "rules",
    "impact", "documents", "history", "cli",
)
RULES = ("IC", "UEM", "SMM", "RMM")
SETUP_REPEATS = 3

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("store_ms", "ms"),
    ("load_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("extractor.scan_s", "s"),
    ("extractor.parse_s", "s"),
    ("extractor.files_parsed", "count"),
    ("linker.build_s", "s"),
    ("linker.remote_edges_s", "s"),
    ("linker.overlap_s", "s"),
    ("linker.overlap_pairs", "count"),
    ("linker.overlap_hit_ratio", "ratio"),
    ("linker.match_calls", "count"),
    ("linker.match_hit_ratio", "ratio"),
    ("delta.compute_s", "s"),
    ("delta.changes", "count"),
    ("merge.apply_s", "s"),
    ("merge.edges_added", "count"),
    ("merge.edges_dropped", "count"),
    *((f"rules.{rule}_s", "s") for rule in RULES),
    *((f"rules.violations.{rule}", "count") for rule in RULES),
    ("impact.impact_s", "s"),
    ("impact.indirect", "count"),
    ("impact.affected_services", "count"),
    ("documents.serialize_s", "s"),
    ("documents.deserialize_s", "s"),
    ("documents.serialize_calls", "count"),
    ("documents.ir_bytes", "bytes"),
    ("history.materialize_s", "s"),
    ("history.rescan_s", "s"),
    ("history.verify_s", "s"),
    ("history.evaluate_s", "s"),
    ("history.artifacts_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.ops", "count"),
    ("trace.overhead_ms", "ms"),
)

# Functions traced with a span, by defining module.
SPANNED = {
    "extractor": ("discover_services", "scan_repository", "extract_component", "resolve_call_graph"),
    "linker": (
        "build_system_ir", "remote_call_edges", "data_overlap_edges",
        "overlap_edges_for_pairs", "unmatched_calls", "uncalled_endpoints",
    ),
    "delta": ("compute_delta", "apply_to_service"),
    "merge": ("apply_delta", "remove_service"),
    "rules": (
        "evaluate_many", "detect_invalid_calls", "detect_uncalled_endpoints",
        "detect_service_method_modifications", "detect_repository_method_modifications",
    ),
    "impact": ("impact_set",),
    "documents": ("serialize_ir", "deserialize_ir"),
    "history": ("replay", "write_artifacts", "materialize_revisions", "git_revisions"),
    "cli": ("main",),
}


class GroundTruthError(Exception):
    """archdelta's output disagrees with the generator's ground truth."""


def expect_counts(where: str, got: dict, want: dict) -> None:
    wrong = {k: (got.get(k, 0), v) for k, v in want.items() if got.get(k, 0) != v}
    if wrong:
        detail = ", ".join(f"{k} got {g} expected {w}" for k, (g, w) in sorted(wrong.items()))
        raise GroundTruthError(f"{where}: {detail}")


def expected_counts(truth, overlap_pairs: int, smm: int = 0, rmm: int = 0) -> dict:
    return {
        "RemoteCall": truth.remote_edges,
        "DataOverlap": overlap_pairs,
        "IC": truth.ic,
        "UEM": truth.uem,
        "SMM": smm,
        "RMM": rmm,
    }


def observed_counts(edge_kinds, rule_names) -> dict:
    return dict(Counter(edge_kinds) + Counter(rule_names))


def load_archdelta() -> SimpleNamespace:
    """Import archdelta from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "archdelta" / "__init__.py").is_file():
        sys.exit(f"error: no archdelta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"archdelta.{name}")
        for name in (*LAYERS, "model", "profiles")
    }
    origin = Path(modules["model"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: archdelta imported from {origin}, not from {SRC}")
    return SimpleNamespace(package=importlib.import_module("archdelta"), **modules)


def store_and_load(ad, system, path: Path):
    """Store a system as a baseline document and load it back, timing both."""
    start = perf_counter()
    data = ad.documents.serialize_ir(system)
    path.write_bytes(data)
    stored = perf_counter()
    loaded = ad.documents.deserialize_ir(path.read_bytes())
    return stored - start, perf_counter() - stored, data, loaded


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    SHAPES: dict[str, Shape] = {}
    MIN_OPS = {"full": 1, "tiny": 1}  # untraced operations per run, at least
    TRACE_OPS = {"full": 1, "tiny": 1}  # operations per traced phase
    # Untimed baseline store/load samples are taken after every STORE_EVERY
    # untraced operations, so that they spread over the run like the
    # operations do; 0 means the operation stores and loads by itself.
    STORE_EVERY = 0
    versions_per_op = 1

    def __init__(self, ad, size: str, seed: int, work: Path):
        self.ad = ad
        self.size = size
        self.shape = self.SHAPES[size]
        self.min_ops = self.MIN_OPS[size]
        self.trace_ops = self.TRACE_OPS[size]
        self.seed = seed
        self.work = work
        self.profile = ad.profiles.default_profile()
        self.rules = ad.rules.builtin_rules()
        self.store: list[float] = []
        self.load: list[float] = []
        work.mkdir(parents=True)

    def setup(self) -> float:
        """Build the inputs; returns the seconds that count as set-up."""
        raise NotImplementedError

    def check_setup(self) -> None:
        pass

    def op(self) -> float:
        """Run one operation; returns the seconds of its timed region."""
        raise NotImplementedError

    def sample_store_load(self) -> None:
        """Time storing the current system as a baseline and loading it back."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed checks after the last operation."""

    def _baseline_path(self) -> Path:
        # a new file each time: no truncation inside the timed store
        return self.work / f"baseline-{len(self.store)}.json"


class CommitStream(Workload):
    name = "commit-stream"
    SHAPES = {
        "full": Shape(24, 6, 3, 3, 0.2, 0.03, 0.03, (3, 6), 20),
        "tiny": Shape(3, 2, 3, 2, 0.2, 0.1, 0.1, (3, 5), 12),
    }
    MIN_OPS = {"full": 100, "tiny": 3}
    TRACE_OPS = {"full": 40, "tiny": 4}
    STORE_EVERY = 20

    def setup(self) -> float:
        ad = self.ad
        start = perf_counter()
        self.model = Model.generate(self.shape, self.seed, self.name)
        self.root = self.work / "system"
        self.model.write(self.root)
        self.cache: dict = {}
        self.irs = {
            name: ad.model.with_content_version(
                ad.extractor.scan_repository(path, self.profile, name, "", cache=self.cache)
            )
            for name, path in ad.extractor.discover_services(self.root)
        }
        self.system = ad.linker.build_system_ir(self.irs.values())
        return perf_counter() - start

    def check_setup(self) -> None:
        self.overlap_pairs = len(self.model.overlap_pairs())
        violations = self.ad.rules.evaluate_many(None, [], self.system, self.rules)
        self._check("baseline", self.system, violations, 0, 0)
        self.commits = 0

    def _check(self, where, system, violations, smm, rmm) -> None:
        expect_counts(
            where,
            observed_counts((e.kind.value for e in system.cross_edges), (v.rule_name for v in violations)),
            expected_counts(self.model.truth(), self.overlap_pairs, smm, rmm),
        )

    def op(self) -> float:
        ad, model = self.ad, self.model
        edit = model.random_edit()
        (self.root / edit.path).write_text(model.edited_text(edit), encoding="utf-8")
        if edit.kind == "entity":
            self.overlap_pairs = len(model.overlap_pairs())

        start = perf_counter()
        ir = ad.model.with_content_version(
            ad.extractor.scan_repository(
                self.root / edit.service, self.profile, edit.service, "", cache=self.cache
            )
        )
        d = ad.delta.compute_delta(self.irs[edit.service], ir)
        system = ad.merge.apply_delta(self.system, d)
        violations = ad.rules.evaluate_many(self.system, [d], system, self.rules)
        ad.impact.impact_set(self.system, d)
        elapsed = perf_counter() - start

        self.commits += 1
        self.irs[edit.service], self.system = ir, system
        self._check(f"commit {self.commits} ({edit.kind} {edit.path})", system, violations, edit.smm, edit.rmm)
        return elapsed

    def sample_store_load(self) -> None:
        store, load, _, _ = store_and_load(self.ad, self.system, self._baseline_path())
        self.store.append(store)
        self.load.append(load)

    def finish(self) -> None:
        ad = self.ad
        if not self.store:
            self.sample_store_load()
        fresh = ad.linker.build_system_ir(
            ad.model.with_content_version(ad.extractor.scan_repository(path, self.profile, name, ""))
            for name, path in ad.extractor.discover_services(self.root)
        )
        if ad.documents.serialize_ir(fresh) != ad.documents.serialize_ir(self.system):
            raise GroundTruthError(
                f"after {self.commits} commits the increment differs from a full rebuild"
            )


class ColdBuild(Workload):
    name = "cold-build"
    SHAPES = {
        "full": Shape(60, 10, 3, 3, 0.2, 0.03, 0.03, (3, 6), 24),
        "tiny": Shape(4, 2, 3, 2, 0.2, 0.1, 0.1, (3, 5), 12),
    }
    MIN_OPS = {"full": 2, "tiny": 1}
    TRACE_OPS = {"full": 2, "tiny": 1}

    def setup(self) -> float:
        start = perf_counter()
        self.model = Model.generate(self.shape, self.seed, self.name)
        self.root = self.work / "system"
        self.model.write(self.root)
        return perf_counter() - start

    def check_setup(self) -> None:
        self.expected = expected_counts(self.model.truth(), len(self.model.overlap_pairs()))
        self.round_trip_checked = False
        self.builds = 0

    def op(self) -> float:
        ad = self.ad
        start = perf_counter()
        irs = [
            ad.extractor.scan_repository(path, self.profile, name, "cold")
            for name, path in ad.extractor.discover_services(self.root)
        ]
        system = ad.linker.build_system_ir(irs)
        violations = ad.rules.evaluate_many(None, [], system, self.rules)
        elapsed = perf_counter() - start
        store, load, data, loaded = store_and_load(ad, system, self._baseline_path())
        self.store.append(store)
        self.load.append(load)

        self.builds += 1
        where = f"build {self.builds}"
        expect_counts(where, {"components": sum(len(ir.components) for ir in irs)},
                      {"components": self.shape.component_count()})
        expect_counts(
            where,
            observed_counts((e.kind.value for e in system.cross_edges), (v.rule_name for v in violations)),
            self.expected,
        )
        if not self.round_trip_checked:
            if ad.documents.serialize_ir(loaded) != data:
                raise GroundTruthError(f"{where}: the loaded baseline does not round-trip")
            self.round_trip_checked = True
        return elapsed


class HistoryReplay(Workload):
    name = "history-replay"
    SHAPES = {
        "full": Shape(20, 4, 3, 3, 0.2, 0.03, 0.03, (3, 6), 20),
        "tiny": Shape(3, 2, 3, 2, 0.2, 0.1, 0.1, (3, 5), 12),
    }
    REVISIONS = {"full": 10, "tiny": 3}
    MIN_OPS = {"full": 2, "tiny": 1}
    TRACE_OPS = {"full": 2, "tiny": 1}
    STORE_EVERY = 1

    @property
    def versions_per_op(self) -> int:
        return self.REVISIONS[self.size]

    def _git(self, *args: str, revision: int = 0) -> None:
        date = f"2020-01-01T{revision:02d}:00:00+0000"
        env = {
            **os.environ,
            "GIT_AUTHOR_NAME": "bench",
            "GIT_AUTHOR_EMAIL": "bench@example.invalid",
            "GIT_COMMITTER_NAME": "bench",
            "GIT_COMMITTER_EMAIL": "bench@example.invalid",
            "GIT_AUTHOR_DATE": date,
            "GIT_COMMITTER_DATE": date,
        }
        subprocess.run(
            ["git", "-c", "init.defaultBranch=main", "-c", "commit.gpgsign=false",
             "-C", str(self.repo), *args],
            env=env, check=True, capture_output=True,
        )

    def _expect_revision(self, edits) -> None:
        self.expected.append(
            expected_counts(
                self.model.truth(),
                len(self.model.overlap_pairs()),
                sum(e.smm for e in edits),
                sum(e.rmm for e in edits),
            )
        )

    def setup(self) -> float:
        start = perf_counter()
        model = self.model = Model.generate(self.shape, self.seed, self.name)
        self.repo = self.work / "repo"
        model.write(self.repo)
        self._git("init", "-q")
        self._git("add", "-A")
        self._git("commit", "-q", "-m", "revision 0")
        # Ground truth per revision; its time does not count as set-up.
        self.expected: list[dict] = []
        truth_start = perf_counter()
        self._expect_revision([])
        truth_seconds = perf_counter() - truth_start
        for revision in range(1, self.versions_per_op):
            edits = []
            for service in model.rng.sample(model.services, model.rng.choice((2, 3))):
                for _ in range(2):
                    edit = model.random_edit(service, avoid={e.path for e in edits})
                    (self.repo / edit.path).write_text(model.edited_text(edit), encoding="utf-8")
                    edits.append(edit)
            self._git("add", "-A")
            self._git("commit", "-q", "-m", f"revision {revision}", revision=revision)
            truth_start = perf_counter()
            self._expect_revision(edits)
            truth_seconds += perf_counter() - truth_start
        self.config = self.work / "replay.json"
        self.config.write_text(json.dumps({"repository": "repo"}))
        self.replays = 0
        return perf_counter() - start - truth_seconds

    def op(self) -> float:
        # a new artifact directory each time: nothing is deleted between replays
        artifacts = self.work / f"artifacts-{self.replays}"
        printed = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(printed):
            code = self.ad.cli.main(["replay", str(self.config), "--out", str(artifacts)])
        elapsed = perf_counter() - start

        self.replays += 1
        where = f"replay {self.replays}"
        versions = self.versions_per_op
        expect_counts(where, {"exit code": code, "versions": _commits_line(printed.getvalue())},
                      {"exit code": 0, "versions": versions})
        for i in range(versions):
            ir = json.loads((artifacts / "ir" / f"{i}.json").read_bytes())
            found = json.loads((artifacts / "violations" / f"{i}.json").read_bytes())
            expect_counts(
                f"{where}, version {i}",
                observed_counts(
                    (e["kind"] for e in ir["crossEdges"]),
                    (v["ruleName"] for v in found["violations"]),
                ),
                self.expected[i],
            )
        self.last_ir = artifacts / "ir" / f"{versions - 1}.json"
        return elapsed / versions

    def sample_store_load(self) -> None:
        # The replay wrote the last system; load it, then store it again.
        for _ in range(5):
            start = perf_counter()
            system = self.ad.documents.deserialize_ir(self.last_ir.read_bytes())
            loaded = perf_counter()
            self._baseline_path().write_bytes(self.ad.documents.serialize_ir(system))
            self.load.append(loaded - start)
            self.store.append(perf_counter() - loaded)


def _commits_line(table: str) -> int | None:
    for line in table.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "Commits":
            return int(parts[1])
    return None


WORKLOADS = {w.name: w for w in (CommitStream, ColdBuild, HistoryReplay)}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def run_ops(wl: Workload, tally: Tally, *, seconds: float = 0.0, count: int | None = None,
            tracer: Tracer | None = None, store_every: int = 0) -> list[float]:
    """Closed loop of operations: ``count`` of them, or at least ``wl.min_ops``
    and until ``seconds`` have passed.  Stops at the first failure."""
    samples: list[float] = []
    start = perf_counter()
    cap = max(2 * seconds, seconds + 30)
    while True:
        tally.attempted += 1
        if tracer is not None and tracer.boundary is None:
            tracer.op += 1
        try:
            samples.append(wl.op())
            if store_every and len(samples) % store_every == 0:
                wl.sample_store_load()
        except GroundTruthError as exc:
            tally.failed += 1
            print(f"GROUND TRUTH MISMATCH in {wl.name}: {exc}", file=sys.stderr)
            break
        except Exception:
            tally.failed += 1
            traceback.print_exc()
            break
        if count is not None:
            if len(samples) >= count:
                break
            continue
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(samples) >= wl.min_ops) or elapsed >= cap:
            break
    return samples


def p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ad, cls, size: str, seed: int, seconds: float, work: Path):
    """Untraced run: end-to-end metrics."""
    setup_times = []
    for k in range(SETUP_REPEATS):
        wl = None  # drop the previous repetition before building the next
        wl = cls(ad, size, seed, work / f"setup-{k}")
        setup_times.append(wl.setup())
    wl.check_setup()
    tally = Tally()
    samples = run_ops(wl, tally, seconds=seconds, store_every=wl.STORE_EVERY)
    correct = tally.failed == 0
    if correct:
        try:
            wl.finish()
        except GroundTruthError as exc:
            print(f"GROUND TRUTH MISMATCH in {wl.name}: {exc}", file=sys.stderr)
            correct = False
    metrics = {}
    if samples and wl.store:
        metrics = {
            "op_p50_ms": statistics.median(samples) * 1000,
            "op_p90_ms": p90(samples) * 1000,
            "store_ms": statistics.median(wl.store) * 1000,
            "load_ms": statistics.median(wl.load) * 1000,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
    extra = _workload_names(wl, metrics, len(samples))
    extra["failed_ratio"] = tally.failed / tally.attempted
    return correct, tally, metrics, extra


def _workload_names(wl: Workload, metrics: dict, samples: int) -> dict:
    """The end-to-end figures under their workload-specific names."""
    if not metrics:
        return {}
    if wl.name == "commit-stream":
        return {"commit_p50_ms": metrics["op_p50_ms"], "commit_p90_ms": metrics["op_p90_ms"],
                "commits": samples}
    if wl.name == "cold-build":
        return {"cold_build_s": metrics["op_p50_ms"] / 1000,
                "baseline_store_s": metrics["store_ms"] / 1000,
                "baseline_load_s": metrics["load_ms"] / 1000, "builds": samples}
    return {"replay_ms_per_version": metrics["op_p50_ms"], "replays": samples,
            "versions": wl.versions_per_op}


EXTRA_UNITS = {
    "commit_p50_ms": "ms", "commit_p90_ms": "ms", "commits": "count",
    "cold_build_s": "s", "baseline_store_s": "s", "baseline_load_s": "s", "builds": "count",
    "replay_ms_per_version": "ms", "replays": "count", "versions": "count",
    "failed_ratio": "ratio",
}


def instrument(tracer: Tracer, ad) -> list[tuple[frozenset, frozenset]]:
    """Install every wrapper.  Returns the (before, after) cross-edge sets of
    each ``apply_delta``, diffed only once the run is over."""
    counts = tracer.counts
    edge_pairs: list[tuple[frozenset, frozenset]] = []

    def on_delta(result, args, kwargs):
        counts["delta.changes"] += len(result.changes)

    def on_apply(result, args, kwargs):
        edge_pairs.append((args[0].cross_edges, result.cross_edges))

    def on_evaluate(result, args, kwargs):
        counts.update(f"rules.violations.{v.rule_name}" for v in result)

    def on_impact(result, args, kwargs):
        counts["impact.indirect"] += len(result.indirect)
        counts["impact.affected_services"] += len(result.affected_services)

    def on_serialize(result, args, kwargs):
        counts["documents.serialize_calls"] += 1
        counts["documents.ir_bytes"] += len(result)

    hooks = {
        "compute_delta": on_delta,
        "apply_delta": on_apply,
        "evaluate_many": on_evaluate,
        "impact_set": on_impact,
        "serialize_ir": on_serialize,
    }
    tracer.count(ad.linker.match_call_to_endpoint, lambda endpoint: endpoint is not None)
    threshold = ad.linker.DEFAULT_OVERLAP_THRESHOLD
    tracer.count(ad.linker.entity_overlap, lambda similarity: similarity >= threshold)
    for layer, names in SPANNED.items():
        module = getattr(ad, layer)
        for name in names:
            tracer.wrap(getattr(module, name), hooks.get(name))
    return edge_pairs


def layer_metrics(tracer: Tracer, edge_pairs: list, ops: int) -> dict:
    """Per-layer figures per operation (commit, build or replayed version)."""
    c = tracer.counts
    total = tracer.total

    def ratio(hits: str, calls: str) -> float:
        return c[hits] / c[calls] if c[calls] else 0.0

    # Inside a replay the first full build is the baseline and later ones
    # verify an increment; serializations directly inside replay verify too.
    builds = tracer.children("history.replay", "linker.build_system_ir")
    baselines = {}
    for span in builds:
        baselines.setdefault(span.parent, span)
    verify = sum(s.duration for s in builds if baselines[s.parent] is not s) + sum(
        s.duration for s in tracer.children("history.replay", "documents.serialize_ir")
    )

    added = sum(len(new - old) for old, new in edge_pairs)
    dropped = sum(len(old - new) for old, new in edge_pairs)
    selfs = tracer.self_times()
    raw = {
        "extractor.scan_s": total({"extractor.scan_repository"}),
        "extractor.parse_s": total({"extractor.extract_component"}),
        "extractor.files_parsed": sum(1 for s in tracer.spans if s.name == "extractor.extract_component"),
        "linker.build_s": total({"linker.build_system_ir"}),
        "linker.remote_edges_s": total({"linker.remote_call_edges"}),
        "linker.overlap_s": total({"linker.data_overlap_edges", "linker.overlap_edges_for_pairs"}),
        "linker.overlap_pairs": c["linker.entity_overlap.calls"],
        "linker.match_calls": c["linker.match_call_to_endpoint.calls"],
        "delta.compute_s": total({"delta.compute_delta"}),
        "delta.changes": c["delta.changes"],
        "merge.apply_s": total({"merge.apply_delta", "merge.remove_service"}),
        "merge.edges_added": added,
        "merge.edges_dropped": dropped,
        "rules.IC_s": total({"rules.detect_invalid_calls"}),
        "rules.UEM_s": total({"rules.detect_uncalled_endpoints"}),
        "rules.SMM_s": total({"rules.detect_service_method_modifications"}),
        "rules.RMM_s": total({"rules.detect_repository_method_modifications"}),
        **{f"rules.violations.{r}": c[f"rules.violations.{r}"] for r in RULES},
        "impact.impact_s": total({"impact.impact_set"}),
        "impact.indirect": c["impact.indirect"],
        "impact.affected_services": c["impact.affected_services"],
        "documents.serialize_s": total({"documents.serialize_ir"}),
        "documents.deserialize_s": total({"documents.deserialize_ir"}),
        "documents.serialize_calls": c["documents.serialize_calls"],
        "documents.ir_bytes": c["documents.ir_bytes"],
        "history.materialize_s": total({"history.materialize_revisions"}),
        "history.rescan_s": total(
            {"extractor.scan_repository", "extractor.discover_services"}, within="history.replay"
        ),
        "history.verify_s": verify,
        "history.evaluate_s": sum(s.duration for s in tracer.children("history.replay", "rules.evaluate_many")),
        "history.artifacts_s": total({"history.write_artifacts"}),
        **{f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS},
    }
    out = {name: value / ops for name, value in raw.items()}
    out["linker.overlap_hit_ratio"] = ratio("linker.entity_overlap.hits", "linker.entity_overlap.calls")
    out["linker.match_hit_ratio"] = ratio(
        "linker.match_call_to_endpoint.hits", "linker.match_call_to_endpoint.calls"
    )
    return out


def trace(ad, cls, size: str, seed: int, work: Path):
    """Traced run: per-layer metrics over a fixed number of operations."""
    wl = cls(ad, size, seed, work / "setup-0")
    wl.setup()
    wl.check_setup()
    tally = Tally()
    reference = run_ops(wl, tally, count=wl.trace_ops)
    tracer = Tracer([ad.package, *(getattr(ad, m) for m in (*LAYERS, "model", "profiles"))])
    if cls is HistoryReplay:
        tracer.boundary = "extractor.discover_services"  # one call per replayed version
    edge_pairs = instrument(tracer, ad)
    try:
        traced = run_ops(wl, tally, count=wl.trace_ops, tracer=tracer) if tally.failed == 0 else []
    finally:
        tracer.restore()
    tracer.dump(OUT / f"trace-{wl.name}-s{seed}.json")
    correct = tally.failed == 0
    metrics = {}
    if correct:
        metrics = layer_metrics(tracer, edge_pairs, len(traced) * wl.versions_per_op)
        metrics["trace.ops"] = len(traced) * wl.versions_per_op
        metrics["trace.overhead_ms"] = (
            statistics.median(traced) - statistics.median(reference)
        ) * 1000
    return correct, tally, metrics, {"failed_ratio": tally.failed / tally.attempted}


def emit(workload: str, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"METRIC {workload} {name} {value!r} {units[name]}")


def run_one(args) -> int:
    ad = load_archdelta()
    cls = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Keep every file the run makes, archdelta's temporary trees included,
    # inside the checkout, and keep git away from user configuration.
    tempfile.tempdir = str(work / "tmp")
    os.environ.update(TMPDIR=tempfile.tempdir, GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1")
    try:
        if args.trace:
            correct, tally, metrics, extra = trace(ad, cls, args.size, args.seed, work)
        else:
            correct, tally, metrics, extra = measure(
                ad, cls, args.size, args.seed, args.seconds, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    emit(args.workload, metrics, units)
    emit(args.workload, extra, EXTRA_UNITS)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def smoke(args) -> int:
    """Every workload untraced once and traced twice, each in a child process;
    count metrics of the two traced runs must be identical."""
    if not (SRC / "archdelta" / "__init__.py").is_file():
        sys.exit(f"error: no archdelta sources under {SRC}")
    correct, attempted, failed, combined = True, 0, 0, {}
    for workload in WORKLOADS:
        traced_counts = []
        for trace_flag in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace_flag), "--size", args.size],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            if proc.returncode != 0 or not lines:
                print(f"{workload} --trace {trace_flag} exited {proc.returncode}", file=sys.stderr)
                correct = False
                continue
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                combined[f"{workload}/{name}"] = metric
            if trace_flag:
                traced_counts.append({
                    name: metric["value"] for name, metric in result["metrics"].items()
                    if metric["unit"] in ("count", "bytes", "ratio")
                })
        if len(traced_counts) == 2 and traced_counts[0] != traced_counts[1]:
            differ = sorted(k for k in traced_counts[0] if traced_counts[0][k] != traced_counts[1].get(k))
            print(f"count metrics of {workload} did not repeat: {differ}", file=sys.stderr)
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time (default 25, smoke 0.5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), help="default full, smoke tiny")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced once and traced twice")
    args = parser.parse_args(argv)
    if args.smoke:
        args.size = args.size or "tiny"
        args.seconds = 0.5 if args.seconds is None else args.seconds
        return smoke(args)
    args.size = args.size or "full"
    args.seconds = 25.0 if args.seconds is None else args.seconds
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
