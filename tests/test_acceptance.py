"""Acceptance suite: one check per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 needs network access and a git binary and is skipped
unless ARCHDELTA_NETWORK_TESTS=1.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import entities, ir_chains

from archdelta.delta import apply_to_service, compose_deltas, compute_delta, empty_delta
from archdelta.documents import serialize_ir
from archdelta.extractor import scan_repository
from archdelta.history import emit_timeseries, replay, write_artifacts
from archdelta.linker import (
    OverlapIndex,
    build_system_ir,
    data_overlap_edges,
    entity_overlap,
    match_call_to_endpoint,
)
from archdelta.merge import apply_delta
from archdelta.model import (
    UNRESOLVED,
    ComponentType,
    Endpoint,
    Method,
    MicroserviceIR,
    RestCall,
    component_id,
    ir_content_digest,
    make_component,
    method_content_hash,
)
from archdelta.profiles import default_profile
from archdelta.rules import detect_invalid_calls, detect_uncalled_endpoints

PROFILE = default_profile()
SERVICES = ("ts-order", "ts-station", "ts-user")

_PROPERTY_SETTINGS = dict(
    deadline=None,
    suppress_health_check=list(HealthCheck),
    derandomize=True,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def _extract(version_root: Path, name: str) -> MicroserviceIR:
    ir = scan_repository(version_root / name, PROFILE, name, "")
    return MicroserviceIR(
        name=ir.name,
        version_id=ir_content_digest(ir),
        components=ir.components,
        call_graph_edges=ir.call_graph_edges,
    )


def _fresh_system(version_root: Path):
    return build_system_ir([_extract(version_root, name) for name in SERVICES])


def test_c1_merge_equivalence(history_versions):
    """Every increment equals a from-scratch reconstruction, byte for byte."""
    with criterion(1, "merge equivalence on 3-service, 6-version history"):
        started = time.monotonic()
        baseline = _fresh_system(history_versions[0])
        for current in history_versions[1:]:
            for name in SERVICES:
                new = _extract(current, name)
                old = baseline.services[name]
                if old.version_id == new.version_id:
                    continue
                baseline = apply_delta(baseline, compute_delta(old, new))
            assert serialize_ir(baseline) == serialize_ir(_fresh_system(current))
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c2_anomaly_injection(history_versions, golden_dir, tmp_path):
    """The injected anomalies surface as violations naming their components."""
    with criterion(2, "anomaly injection with golden violation lists"):
        started = time.monotonic()
        record = replay(history_versions, out_dir=tmp_path / "run")
        for i in range(len(record.versions)):
            produced = (tmp_path / "run" / "violations" / f"{i}.json").read_bytes()
            expected = (golden_dir / "history_violations" / f"{i}.json").read_bytes()
            assert produced == expected, f"violations/{i}.json diverges from golden"
        flat = [v for entry in record.versions for v in entry.violations]
        by_rule = {}
        for v in flat:
            by_rule.setdefault(v.rule_name, []).append(v)
        for rule in ("IC", "UEM", "SMM", "RMM"):
            assert by_rule.get(rule), f"no {rule} violation detected"

        def names(rule, kind):
            return {
                i.component_id.qualified_name
                for v in by_rule[rule]
                for i in v.impacted
                if i.kind == kind
            }

        assert "order.OrderService" in names("IC", "restCall")
        assert any(
            t.component_id.qualified_name == "station.StationController"
            for v in by_rule["IC"]
            for t in v.triggering
        )
        assert any(
            i.evidence == "POST /api/v1/users"
            for v in by_rule["UEM"]
            for i in v.impacted
        )
        assert "order.OrderService" in names("SMM", "method")
        assert any(
            "findByOrderId/1" in i.evidence
            for v in by_rule["RMM"]
            for i in v.impacted
        )
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c3_delta_algebra_properties():
    """Inverse, commutation, associativity and identity laws, 1000 cases."""
    with criterion(3, "delta algebra randomized properties (1000 cases)"):

        @given(ir_chains(length=3))
        @settings(max_examples=1000, **_PROPERTY_SETTINGS)
        def laws(chain):
            v0, v1, v2, v3 = chain
            d1 = compute_delta(v0, v1)
            d2 = compute_delta(v1, v2)
            d3 = compute_delta(v2, v3)
            # apply is the inverse witness of compute
            assert apply_to_service(v0, d1) == v1
            # compose commutes with apply
            assert apply_to_service(apply_to_service(v0, d1), d2) == (
                apply_to_service(v0, compose_deltas(d1, d2))
            )
            # compose is associative on valid chains
            assert compose_deltas(compose_deltas(d1, d2), d3) == (
                compose_deltas(d1, compose_deltas(d2, d3))
            )
            # the empty delta is the identity
            assert compose_deltas(d1, empty_delta(v1.name, v1.version_id)) == d1
            assert compose_deltas(empty_delta(v0.name, v0.version_id), d1) == d1
            # diffing a version against itself yields nothing
            assert compute_delta(v1, v1).is_empty()

        laws()


def test_c4_rule_engine_oracle(history_versions):
    """System rules see the same world on increments and fresh builds."""
    with criterion(4, "system-rule evaluation equals from-scratch evaluation"):
        record = replay(history_versions, verify_each_step=False)
        for entry, root in zip(record.versions, history_versions):
            fresh = _fresh_system(root)
            for detector in (detect_invalid_calls, detect_uncalled_endpoints):
                incremental_keys = {v.dedup_key for v in detector(entry.system)}
                fresh_keys = {v.dedup_key for v in detector(fresh)}
                assert incremental_keys == fresh_keys, entry.label


def _entity_service_irs(drawn_entities):
    services = []
    for index, entity in enumerate(drawn_entities):
        name = f"svc-{index}"
        cid = component_id(name, ComponentType.ENTITY, f"pkg.E{index}")
        comp = make_component(cid, entity_ref=entity, source_path=f"E{index}.java")
        services.append(
            MicroserviceIR(name, "v0", {cid: comp}, frozenset())
        )
    return services


def test_c5_linker_properties():
    """Overlap symmetry, threshold monotonicity, ambiguity tie rule."""
    with criterion(5, "linker randomized properties (1200 cases) + tie rule"):

        @given(entities(min_fields=1), entities(min_fields=1))
        @settings(max_examples=600, **_PROPERTY_SETTINGS)
        def symmetry(a, b):
            assert entity_overlap(a, b) == entity_overlap(b, a)

        @given(
            st.lists(entities(min_fields=1), min_size=2, max_size=4),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
        )
        @settings(max_examples=600, **_PROPERTY_SETTINGS)
        def monotonicity(drawn, t_a, t_b):
            low, high = sorted((t_a, t_b))
            comps = [
                comp
                for ir in _entity_service_irs(drawn)
                for comp in ir.components.values()
            ]
            _, high_edges = data_overlap_edges(OverlapIndex({}), (), comps, high)
            _, low_edges = data_overlap_edges(OverlapIndex({}), (), comps, low)
            assert high_edges <= low_edges

        symmetry()
        monotonicity()

        # two same-shape endpoints in different services: an unresolved call
        # must match neither
        def endpoint_service(name):
            cid = component_id(name, ComponentType.CONTROLLER, f"{name}.Api")
            comp = make_component(
                cid,
                endpoints=[Endpoint("GET", "/shared/{*}", "h", cid)],
                source_path="Api.java",
            )
            return MicroserviceIR(name, "v0", {cid: comp}, frozenset())

        caller_id = component_id("svc-c", ComponentType.SERVICE, "c.Caller")
        call = RestCall("GET", UNRESOLVED, "/shared/{*}", "c.Caller.go", caller_id)
        caller = make_component(
            caller_id,
            methods=[
                Method(
                    name="go",
                    rest_calls=(call,),
                    content_hash=method_content_hash("go();"),
                )
            ],
            source_path="Caller.java",
        )
        caller_ir = MicroserviceIR(
            "svc-c", "v0", {caller_id: caller}, frozenset()
        )
        two = build_system_ir(
            [endpoint_service("svc-a"), endpoint_service("svc-b"), caller_ir]
        )
        one = build_system_ir([endpoint_service("svc-a"), caller_ir])
        assert match_call_to_endpoint(call, two) is None
        assert match_call_to_endpoint(call, one) is not None


def test_c6_timeseries_golden(history_versions, golden_dir):
    """CSV byte-identity against the hand-derived golden file."""
    with criterion(6, "time-series format byte-matches golden"):
        record = replay(history_versions)
        produced = emit_timeseries(record)
        assert produced.splitlines()[0] == b"Index,AR1,AR2,AR3,AR4"
        expected = (golden_dir / "history_timeseries.csv").read_bytes()
        assert produced == expected


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_c7_replay_determinism(history_versions, tmp_path):
    """Two full replays produce byte-identical artifact trees."""
    with criterion(7, "replay determinism (byte-identical artifact trees)"):
        first = tmp_path / "run-1"
        second = tmp_path / "run-2"
        write_artifacts(replay(history_versions), first)
        write_artifacts(replay(history_versions), second)
        a, b = _tree_bytes(first), _tree_bytes(second)
        assert a.keys() == b.keys()
        for rel in a:
            assert a[rel] == b[rel], f"{rel} differs between runs"


NETWORK_REPO = "https://github.com/shabbirdwd53/Springboot-Microservice"


@pytest.mark.skipif(
    os.environ.get("ARCHDELTA_NETWORK_TESTS") != "1",
    reason="network smoke test; set ARCHDELTA_NETWORK_TESTS=1 to run",
)
def test_c8_live_repository_replay(tmp_path):
    """Non-gating smoke run over a small public multi-service repository."""
    with criterion(8, "live repository replay smoke (optional)"):
        from archdelta.history import git_revisions, stream_revisions

        checkout = tmp_path / "repo"
        subprocess.run(
            ["git", "clone", "--quiet", NETWORK_REPO, str(checkout)], check=True
        )
        revisions = git_revisions(checkout)
        versions = stream_revisions(checkout, revisions)
        record = replay(versions, verify_each_step=True)
        assert len(record.versions) == len(revisions)
        assert record.unique_totals["UEM"] > 0
