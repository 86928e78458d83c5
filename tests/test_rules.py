from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import LINK_SERVICES, linked_irs, relinked

from archdelta import rules as rules_module
from archdelta.delta import compute_delta
from archdelta.errors import DocumentError
from archdelta.extractor import scan_repository
from archdelta.linker import build_system_ir, link_report
from archdelta.merge import apply_delta
from archdelta.model import ChangeKind, ComponentType, MicroserviceIR, ir_content_digest
from archdelta.profiles import default_profile
from archdelta.rules import (
    builtin_rules,
    detect_invalid_calls,
    detect_repository_method_modifications,
    detect_service_method_modifications,
    detect_uncalled_endpoints,
    evaluate,
    evaluate_many,
    load_rules,
)

PROFILE = default_profile()
SERVICES = ("ts-order", "ts-station", "ts-user")


def _extract(version_root, name):
    ir = scan_repository(version_root / name, PROFILE, name, "")
    return type(ir)(
        name=ir.name,
        version_id=ir_content_digest(ir),
        components=ir.components,
        call_graph_edges=ir.call_graph_edges,
    )


def _system(version_root):
    return build_system_ir([_extract(version_root, name) for name in SERVICES])


@pytest.fixture(scope="module")
def systems(history_versions):
    return [_system(root) for root in history_versions]


@pytest.fixture(scope="module")
def deltas(history_versions, systems):
    out = []
    for prev_root, cur_root, prev_sys in zip(
        history_versions, history_versions[1:], systems
    ):
        step = []
        for name in SERVICES:
            old = prev_sys.services[name]
            new = _extract(cur_root, name)
            if old.version_id != new.version_id:
                step.append(compute_delta(old, new))
        out.append(step)
    return out


# -- rule loading -----------------------------------------------------------


def test_load_invalid_call_rule_document():
    doc = {
        "name": "IC",
        "AnalysisLevels": ["System"],
        "ChangedComponents": [
            {"ComponentType": ["Endpoint", "Call"], "ChangeType": ["All"]}
        ],
        "MonitoredImpact": {"ComponentType": "Call", "ImpactType": "Unmatched"},
    }
    [rule] = load_rules(json.dumps(doc))
    assert rule.analysis_levels == frozenset({"System"})
    assert rule.changed_components[0].component_types == frozenset(
        {"Endpoint", "Call"}
    )
    assert rule.monitored_impact.component_type == "Call"
    assert rule.monitored_impact.impact_type == "Unmatched"


def test_load_service_modification_rule_document():
    doc = {
        "name": "SMM",
        "AnalysisLevels": ["Delta"],
        "ChangedComponents": [
            {"ComponentType": ["Service"], "ChangeType": ["Modify"]}
        ],
        "MonitoredImpact": {"ComponentType": "Service", "ImpactType": "Inconsistent"},
    }
    [rule] = load_rules(json.dumps(doc))
    assert rule.analysis_levels == frozenset({"Delta"})
    # "Modify" is the document spelling; the filter vocabulary says Update
    assert rule.changed_components[0].change_types == frozenset({"Update"})
    assert rule.monitored_impact.impact_type == "Inconsistent"


def test_load_rejects_unknown_impact_type():
    doc = {
        "name": "X",
        "AnalysisLevels": ["System"],
        "ChangedComponents": [],
        "MonitoredImpact": {"ComponentType": "Call", "ImpactType": "Bogus"},
    }
    with pytest.raises(DocumentError) as excinfo:
        load_rules(json.dumps(doc))
    assert "ImpactType" in excinfo.value.location


def test_rule_validator_is_built_once_and_used_for_every_document():
    rules_module._rule_validator.cache_clear()
    for _ in range(3):
        builtin_rules()
    info = rules_module._rule_validator.cache_info()
    assert (info.misses, info.hits) == (1, 3 * 4 - 1)


def test_builtin_rules_ship_all_four():
    assert [r.name for r in builtin_rules()] == ["IC", "UEM", "SMM", "RMM"]


# -- IC ----------------------------------------------------------------------


def test_no_invalid_calls_when_everything_matches(systems):
    assert detect_invalid_calls(systems[0]) == []


def test_invalid_call_names_the_call_site(systems):
    [violation] = detect_invalid_calls(systems[2])
    [item] = violation.impacted
    assert item.component_id.qualified_name == "order.OrderService"
    assert item.evidence == "GET ts-station /api/v1/stations/{*}"
    assert item.site == "order.OrderService.getOrder"


def test_invalid_call_triggering_names_the_endpoint_change(systems, deltas):
    [violation] = detect_invalid_calls(
        systems[2], baseline=systems[1], deltas=deltas[1]
    )
    [trigger] = violation.triggering
    assert trigger.component_id.qualified_name == "station.StationController"
    assert trigger.change_kind is ChangeKind.MODIFY


# -- UEM ---------------------------------------------------------------------


def test_uncalled_endpoint_counting(systems):
    violations = detect_uncalled_endpoints(systems[0])
    flagged = sorted(v.impacted[0].evidence for v in violations)
    assert flagged == [
        "GET /api/v1/stations",
        "GET /api/v1/users/{*}",
        "GET /api/v1/users/{*}/orders",
        "POST /api/v1/orders",
    ]


def test_every_endpoint_called_yields_no_uem(summary_versions):
    services = [
        _extract(summary_versions[0], name) for name in ("svc-alpha", "svc-beta")
    ]
    system = build_system_ir(services)
    assert detect_uncalled_endpoints(system) == []


# -- SMM ---------------------------------------------------------------------


def test_return_object_usage_change_is_flagged(systems, deltas):
    [d] = deltas[0]
    [violation] = detect_service_method_modifications(
        systems[0], d, apply_delta(systems[0], d)
    )
    items = {i.kind: i for i in violation.impacted}
    assert "getOrder/1 return object usage changed" in items["method"].evidence
    assert items["dependent"].component_id.qualified_name == "order.OrderController"
    assert violation.triggering[0].change_kind is ChangeKind.MODIFY


def test_return_type_change_is_flagged(systems):
    base = systems[0]
    service = base.services["ts-order"]
    target = next(
        cid
        for cid in service.components
        if cid.component_type is ComponentType.SERVICE
    )
    comp = service.components[target]
    from archdelta.model import Method, make_component

    reshaped_methods = [
        Method(
            name=m.name,
            parameters=m.parameters,
            return_type="OrderDTO" if m.name == "getOrder" else m.return_type,
            annotations=m.annotations,
            body_call_targets=m.body_call_targets,
            rest_calls=m.rest_calls,
            content_hash=m.content_hash,
        )
        for m in comp.methods
    ]
    reshaped = make_component(
        comp.id,
        methods=reshaped_methods,
        endpoints=comp.endpoints,
        entity_ref=comp.entity_ref,
        source_path=comp.source_path,
    )
    new_ir = type(service)(
        name=service.name,
        version_id="reshaped",
        components={**service.components, target: reshaped},
        call_graph_edges=service.call_graph_edges,
    )
    d = compute_delta(service, new_ir)
    [violation] = detect_service_method_modifications(
        base, d, apply_delta(base, d)
    )
    [method_item] = [i for i in violation.impacted if i.kind == "method"]
    assert "return type changed Order -> OrderDTO" in method_item.evidence


def test_formatting_only_commit_produces_no_smm(history_versions, systems):
    # a whitespace-only rewrite hashes identically, so the delta is empty
    service = systems[0].services["ts-order"]
    same = _extract(history_versions[0], "ts-order")
    d = compute_delta(service, same)
    assert d.is_empty()
    assert detect_service_method_modifications(
        systems[0], d, apply_delta(systems[0], d)
    ) == []


# -- RMM ---------------------------------------------------------------------


def test_removed_query_annotation_is_flagged(systems, deltas):
    [d] = deltas[2]
    [violation] = detect_repository_method_modifications(
        systems[2], d, apply_delta(systems[2], d)
    )
    items = {i.kind: i for i in violation.impacted}
    assert items["method"].evidence == "findByOrderId/1 annotations changed"
    assert items["method"].component_id.qualified_name == "order.OrderRepository"
    assert items["dependent"].component_id.qualified_name == "order.OrderService"


def test_repository_body_only_change_is_not_flagged(systems):
    # station repository methods carry no annotations; a body-level change
    # in another component type never reaches the repository detector
    [d] = [
        compute_delta(
            systems[0].services["ts-order"],
            _extract_history_v1(systems),
        )
    ]
    assert detect_repository_method_modifications(
        systems[0], d, apply_delta(systems[0], d)
    ) == []


def _extract_history_v1(systems):
    return systems[1].services["ts-order"]


def test_added_repository_component_is_not_flagged(systems, deltas):
    adds = [d for step in deltas for d in step if d.microservice == "ts-order"]
    v5_delta = adds[-1]  # the notification service addition
    assert any(c.kind is ChangeKind.ADD for c in v5_delta.changes)
    assert detect_repository_method_modifications(
        systems[4], v5_delta, apply_delta(systems[4], v5_delta)
    ) == []


# -- evaluate ----------------------------------------------------------------


def test_evaluate_with_no_rules_is_empty(systems):
    assert evaluate(None, None, systems[0], []) == []


def test_evaluate_is_deterministic(systems, deltas):
    [d] = deltas[1]
    rules = builtin_rules()
    first = evaluate(systems[1], d, systems[2], rules)
    second = evaluate(systems[1], d, systems[2], rules)
    assert first == second


def test_ic_uem_counts_match_link_report(systems):
    for system in systems:
        report = link_report(system)
        ic = detect_invalid_calls(system)
        uem = detect_uncalled_endpoints(system)
        assert len(ic) == report.unmatched_call_count
        assert len(uem) == report.uncalled_endpoint_count


def test_generic_rule_equivalent_to_ic_detector(systems):
    doc = {
        "name": "CustomUnmatched",
        "AnalysisLevels": ["System"],
        "ChangedComponents": [
            {"ComponentType": ["Endpoint", "Call"], "ChangeType": ["All"]}
        ],
        "MonitoredImpact": {"ComponentType": "Call", "ImpactType": "Unmatched"},
    }
    [rule] = load_rules(json.dumps(doc))
    generic = evaluate(None, None, systems[2], [rule])
    builtin = detect_invalid_calls(systems[2])
    assert len(generic) == len(builtin) == 1
    assert generic[0].impacted[0].evidence == builtin[0].impacted[0].evidence


def test_generic_delta_rule_traverses_to_dependents(systems, deltas):
    doc = {
        "name": "TouchedServices",
        "AnalysisLevels": ["Delta"],
        "ChangedComponents": [
            {"ComponentType": ["Service"], "ChangeType": ["Update"]}
        ],
        "MonitoredImpact": {"ComponentType": "Service", "ImpactType": "Inconsistent"},
    }
    [rule] = load_rules(json.dumps(doc))
    [d] = deltas[0]
    violations = evaluate(systems[0], d, systems[1], [rule])
    assert len(violations) == 1
    assert violations[0].impacted[0].component_id.qualified_name == "order.OrderService"


# Custom rules over every impact type the generic evaluator computes from the
# graph, at both analysis levels.
_CUSTOM_RULES = load_rules(
    json.dumps(
        [
            {
                "name": f"Custom{level}{ctype}{impact}",
                "AnalysisLevels": [level],
                "ChangedComponents": [
                    {
                        "ComponentType": ["Controller", "Service", "Endpoint", "Call"],
                        "ChangeType": ["All"],
                    }
                ],
                "MonitoredImpact": {"ComponentType": ctype, "ImpactType": impact},
            }
            for level in ("System", "Delta")
            for ctype in ("Controller", "Service")
            for impact in ("Unmatched", "Unused")
        ]
    )
)


def _scanning_helpers(monkeypatch):
    """Swap in the generic rules' former helpers, which scan every cross edge
    and call edge of the system for each component."""

    def has_cross_edge(cid, system):
        return any(cid in (e.source, e.target) for e in system.cross_edges)

    def has_inbound(cid, system):
        service = system.services.get(cid.microservice)
        if service and any(b == cid for _, b in service.call_graph_edges):
            return True
        return has_cross_edge(cid, system)

    def neighbours(system, cid):
        pairs = [p for ir in system.services.values() for p in ir.call_graph_edges]
        pairs += [(e.source, e.target) for e in system.cross_edges]
        near = set()
        for a, b in pairs:
            if a == cid:
                near.add(b)
            if b == cid:
                near.add(a)
        return near

    monkeypatch.setattr(rules_module, "_has_cross_edge", has_cross_edge)
    monkeypatch.setattr(rules_module, "_has_inbound", has_inbound)
    monkeypatch.setattr(rules_module, "_neighbours", neighbours)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_custom_rules_match_the_scanning_helpers(data):
    system = build_system_ir([data.draw(linked_irs(name)) for name in LINK_SERVICES])
    steps = [(None, [], system)]
    for step in range(1, data.draw(st.integers(1, 3)) + 1):
        name = data.draw(st.sampled_from(LINK_SERVICES))
        current = system.services.get(name) or MicroserviceIR(
            name, "", {}, frozenset()
        )
        d = compute_delta(current, data.draw(relinked(current, f"v{step}")))
        increment = apply_delta(system, d)
        steps.append((system, [d], increment))
        system = increment
    indexed_neighbours = rules_module._neighbours
    for baseline, deltas, increment in steps:
        got = evaluate_many(baseline, deltas, increment, _CUSTOM_RULES)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _scanning_helpers(monkeypatch)
            scanning_neighbours = rules_module._neighbours
            want = evaluate_many(baseline, deltas, increment, _CUSTOM_RULES)
        assert got == want
        # Delta rules reach one hop from their seeds; compare every hop.
        for comp in increment.iter_components():
            assert indexed_neighbours(increment, comp.id) == scanning_neighbours(
                increment, comp.id
            )
