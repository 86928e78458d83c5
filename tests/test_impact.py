from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impact
from strategies import LINK_SERVICES, linked_irs, relinked

from archdelta.delta import compute_delta, empty_delta
from archdelta.documents import serialize_delta, serialize_ir
from archdelta.extractor import resolve_call_graph, scan_repository
from archdelta.impact import impact_graph_doc, impact_report_to_doc, impact_set
from archdelta.linker import build_system_ir
from archdelta.merge import apply_delta, remove_service
from archdelta.model import (
    ChangeKind,
    ComponentChange,
    ComponentType,
    Delta,
    Endpoint,
    Method,
    MicroserviceIR,
    RestCall,
    component_id,
    make_component,
    method_content_hash,
)
from archdelta.profiles import default_profile

PROFILE = default_profile()


def _minimal_two_service_system():
    """Service A: controller (owns an endpoint) calling a service component;
    service B: a component whose rest call targets that endpoint."""
    svc_id = component_id("svc-a", ComponentType.SERVICE, "a.Core")
    core = make_component(
        svc_id,
        methods=[Method(name="logic", content_hash=method_content_hash("x();"))],
        source_path="Core.java",
    )
    ctrl_id = component_id("svc-a", ComponentType.CONTROLLER, "a.Api")
    ctrl = make_component(
        ctrl_id,
        methods=[
            Method(
                name="handle",
                body_call_targets=("Core.logic/0",),
                content_hash=method_content_hash("core.logic();"),
            )
        ],
        endpoints=[Endpoint("GET", "/a/x", "handle", ctrl_id)],
        source_path="Api.java",
    )
    comps_a = {core.id: core, ctrl.id: ctrl}
    svc_a = MicroserviceIR("svc-a", "v0", comps_a, resolve_call_graph(comps_a))

    caller_id = component_id("svc-b", ComponentType.SERVICE, "b.Caller")
    caller = make_component(
        caller_id,
        methods=[
            Method(
                name="fetch",
                rest_calls=(
                    RestCall("GET", "svc-a", "/a/x", "b.Caller.fetch", caller_id),
                ),
                content_hash=method_content_hash("rest();"),
            )
        ],
        source_path="Caller.java",
    )
    comps_b = {caller.id: caller}
    svc_b = MicroserviceIR("svc-b", "v0", comps_b, resolve_call_graph(comps_b))
    system = build_system_ir([svc_a, svc_b])
    return system, core, ctrl, caller


def _modify_delta(system, component):
    bumped = make_component(
        component.id,
        methods=[
            Method(name="logic", content_hash=method_content_hash("y(); z();"))
        ],
        endpoints=component.endpoints,
        entity_ref=component.entity_ref,
        source_path=component.source_path,
    )
    service = system.services[component.id.microservice]
    new_ir = MicroserviceIR(
        name=service.name,
        version_id="v1",
        components={**service.components, component.id: bumped},
        call_graph_edges=service.call_graph_edges,
    )
    return compute_delta(service, new_ir)


def test_empty_delta_yields_empty_report(history_versions):
    ir = scan_repository(history_versions[0] / "ts-order", PROFILE, "ts-order", "v0")
    system = build_system_ir([ir])
    report = impact_set(system, empty_delta("ts-order", "v0"))
    assert report.direct == frozenset()
    assert report.indirect == {}
    assert report.affected_services == frozenset()


def test_hand_traced_indirect_impact():
    system, core, ctrl, caller = _minimal_two_service_system()
    d = _modify_delta(system, core)
    report = impact_set(system, d)
    assert report.direct == {core.id}
    assert set(report.indirect) == {ctrl.id, caller.id}
    assert report.affected_services == {"svc-b"}
    # evidence paths start at the direct component
    ctrl_path = report.indirect[ctrl.id]
    assert ctrl_path[0].kind == "call"
    assert (ctrl_path[0].from_id, ctrl_path[0].to_id) == (ctrl.id, core.id)
    caller_path = report.indirect[caller.id]
    assert [e.kind for e in caller_path] == ["call", "remoteCall"]


def test_zero_hop_bound_gives_no_indirect():
    system, core, _, _ = _minimal_two_service_system()
    d = _modify_delta(system, core)
    report = impact_set(system, d, max_hops=0)
    assert report.direct == {core.id}
    assert report.indirect == {}


def test_monotonic_in_hop_bound():
    system, core, _, _ = _minimal_two_service_system()
    d = _modify_delta(system, core)
    previous: set = set()
    for hops in range(0, 4):
        current = set(impact_set(system, d, max_hops=hops).indirect)
        assert previous <= current
        previous = current


def test_cross_service_hop_bound():
    system, core, _, caller = _minimal_two_service_system()
    d = _modify_delta(system, core)
    report = impact_set(system, d, cross_service_hops=0)
    assert caller.id not in report.indirect
    assert report.affected_services == frozenset()


def test_paths_reverify_against_the_graph(history_versions):
    services = [
        scan_repository(history_versions[0] / name, PROFILE, name, "v0")
        for name in ("ts-order", "ts-station", "ts-user")
    ]
    system = build_system_ir(services)
    order = system.services["ts-order"]
    target = next(
        cid for cid in order.components if cid.qualified_name == "order.OrderService"
    )
    comp = order.components[target]
    d = _modify_delta(system, comp)
    report = impact_set(system, d)
    cross = {(e.source, e.target) for e in system.cross_edges}
    for cid, path in report.indirect.items():
        assert path, f"{cid} has an empty path"
        for edge in path:
            if edge.kind == "call":
                svc = system.services[edge.from_id.microservice]
                assert (edge.from_id, edge.to_id) in svc.call_graph_edges
            else:
                assert (edge.from_id, edge.to_id) in cross
        assert path[0].from_id in report.direct or path[0].to_id in report.direct


def test_fixture_impact_spans_both_neighbor_services(history_versions):
    services = [
        scan_repository(history_versions[0] / name, PROFILE, name, "v0")
        for name in ("ts-order", "ts-station", "ts-user")
    ]
    system = build_system_ir(services)
    order = system.services["ts-order"]
    target = next(
        cid for cid in order.components if cid.qualified_name == "order.OrderService"
    )
    d = _modify_delta(system, order.components[target])
    report = impact_set(system, d)
    names = {cid.qualified_name for cid in report.indirect}
    assert "order.OrderController" in names
    assert "user.UserService" in names  # caller of the affected endpoint
    assert "station.StationController" in names  # provider this service calls
    assert report.affected_services == {"ts-station", "ts-user"}


def test_isolated_service_affects_nothing():
    cid = component_id("svc-solo", ComponentType.SERVICE, "s.Only")
    comp = make_component(
        cid,
        methods=[Method(name="run", content_hash=method_content_hash("r();"))],
        source_path="Only.java",
    )
    ir = MicroserviceIR("svc-solo", "v0", {cid: comp}, frozenset())
    system = build_system_ir([ir])
    d = _modify_delta(system, comp)
    report = impact_set(system, d)
    assert report.affected_services == frozenset()


def test_data_overlap_traversal_can_be_disabled(history_versions):
    services = [
        scan_repository(history_versions[0] / name, PROFILE, name, "v0")
        for name in ("ts-order", "ts-station", "ts-user")
    ]
    system = build_system_ir(services)
    order = system.services["ts-order"]
    payment = next(
        cid for cid in order.components if cid.qualified_name == "order.Payment"
    )
    d = _modify_delta(system, order.components[payment])
    with_overlap = impact_set(system, d, include_data_overlap=True)
    without = impact_set(system, d, include_data_overlap=False)
    assert any(cid.qualified_name == "user.Account" for cid in with_overlap.indirect)
    assert not any(
        cid.qualified_name == "user.Account" for cid in without.indirect
    )


def test_entity_usage_traversal_behind_flag(history_versions):
    services = [
        scan_repository(history_versions[0] / name, PROFILE, name, "v0")
        for name in ("ts-order", "ts-station", "ts-user")
    ]
    system = build_system_ir(services)
    order = system.services["ts-order"]
    entity = next(
        cid for cid in order.components if cid.qualified_name == "order.Order"
    )
    d = _modify_delta(system, order.components[entity])
    plain = impact_set(system, d, include_entity_usage=False)
    with_usage = impact_set(system, d, include_entity_usage=True)
    users_of_entity = {
        cid.qualified_name
        for cid in with_usage.indirect
        if cid.microservice == "ts-order"
    }
    assert "order.OrderRepository" in users_of_entity  # signature mentions Order
    assert set(plain.indirect) <= set(with_usage.indirect)


def test_report_documents_are_serializable():
    system, core, _, _ = _minimal_two_service_system()
    d = _modify_delta(system, core)
    report = impact_set(system, d)
    doc = impact_report_to_doc(report)
    assert doc["schema"] == "impact-report@1"
    assert doc["affectedServices"] == ["svc-b"]
    graph = impact_graph_doc(report)
    roles = {n["role"] for n in graph["nodes"]}
    assert roles == {"direct", "indirect"}


# Every combination the impact options allow, within small bounds.
_OPTIONS = list(
    itertools.product((None, 0, 1, 3), (0, 1, 2), (False, True), (False, True))
)


def _touch(comp) -> Delta:
    """A delta that names one component as modified, and nothing else."""
    change = ComponentChange(
        ChangeKind.MODIFY, comp.id, comp, old_content_hash=comp.content_hash
    )
    return Delta(comp.id.microservice, "", "", (change,))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_lazy_impact_equals_the_whole_graph_reference(data):
    # The baseline of each step is the previous increment, so its incidence
    # map and cached service maps were carried forward, not built fresh.  Each
    # step checks its own delta and a delta seeded at every single component.
    system = build_system_ir([data.draw(linked_irs(name)) for name in LINK_SERVICES])
    for step in range(1, data.draw(st.integers(1, 4)) + 1):
        name = data.draw(st.sampled_from(LINK_SERVICES))
        if name in system.services and data.draw(st.sampled_from("ddddr")) == "r":
            system = remove_service(system, name)
            continue
        current = system.services.get(name) or MicroserviceIR(
            name, "", {}, frozenset()
        )
        d = compute_delta(current, data.draw(relinked(current, f"v{step}")))
        for seed in (d, *map(_touch, system.iter_components())):
            for max_hops, cross, overlap, usage in _OPTIONS:
                options = dict(
                    cross_service_hops=cross,
                    include_data_overlap=overlap,
                    include_entity_usage=usage,
                )
                assert impact_set(system, seed, max_hops, **options) == (
                    reference_impact.impact_set(system, seed, max_hops, **options)
                )
        system = apply_delta(system, d)


def _mutual_controllers():
    """Controllers ``a.Api`` and ``b.Api`` in two services calling each other,
    so two remote-call steps from one to the other tie on neighbour and kind."""
    services = []
    for name, other in (("a", "b"), ("b", "a")):
        cid = component_id(f"svc-{name}", ComponentType.CONTROLLER, f"{name}.Api")
        call = RestCall("GET", f"svc-{other}", f"/{other}", f"{name}.Api.get", cid)
        comp = make_component(
            cid,
            methods=[
                Method(
                    name="get",
                    rest_calls=(call,),
                    content_hash=method_content_hash("rest();"),
                )
            ],
            endpoints=[Endpoint("GET", f"/{name}", "get", cid)],
            source_path="Api.java",
        )
        comps = {cid: comp}
        services.append(MicroserviceIR(f"svc-{name}", "v0", comps, frozenset()))
    return build_system_ir(services)


def test_tied_steps_give_the_same_impact_under_every_hash_seed(tmp_path):
    system = _mutual_controllers()
    [api] = system.services["svc-a"].components.values()
    (tmp_path / "baseline.json").write_bytes(serialize_ir(system))
    (tmp_path / "delta.json").write_bytes(serialize_delta(_modify_delta(system, api)))
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys; from archdelta.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = set()
    for seed in ("1", "3", "6"):  # a two-key sort gave both orders among these
        out = tmp_path / f"impact-{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        subprocess.run(
            [sys.executable, "-c", script, "impact", "baseline.json", "delta.json",
             "--out", str(out)],
            cwd=tmp_path, env=env, check=True,
        )
        outputs.add(out.read_bytes())
    [only] = outputs
    [entry] = json.loads(only)["indirect"]
    # the tie breaks on the edge's ends: a.Api -> b.Api sorts first
    assert [e["fromComponentId"]["qualifiedName"] for e in entry["path"]] == ["a.Api"]
