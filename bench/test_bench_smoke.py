"""Smoke test of the benchmark runner: tiny systems, every workload.

``run.py --smoke`` runs each workload untraced once and traced twice, each in
its own process, and fails when the two traced runs disagree on any count.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).with_name("run.py")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# The end-to-end figures under their workload-specific names.
NAMED = {
    "commit-stream": {"commit_p50_ms": "ms", "commit_p90_ms": "ms"},
    "cold-build": {"cold_build_s": "s", "baseline_store_s": "s", "baseline_load_s": "s"},
    "history-replay": {"replay_ms_per_version": "ms"},
}
EVERY_WORKLOAD = {"setup_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio"}


def test_smoke_prints_every_metric_with_unit_and_no_failures():
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--smoke", "--seed", "3"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    printed: dict[tuple[str, str], list[tuple[float, str]]] = {}
    for line in lines[:-1]:
        tag, workload, name, value, unit = line.split()
        assert tag == "METRIC"
        printed.setdefault((workload, name), []).append((float(value), unit))

    spec = json.loads(BENCHMARK.read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in NAMED:
        wanted = {**declared, **NAMED[workload], **EVERY_WORKLOAD}
        for name, unit in wanted.items():
            assert (workload, name) in printed, f"{workload} did not print {name}"
            assert {u for _, u in printed[(workload, name)]} == {unit}, (workload, name)
        assert all(v == 0 for v, _ in printed[(workload, "failed_ratio")])

    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
