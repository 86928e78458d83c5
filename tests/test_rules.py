from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rules
from strategies import LINK_SERVICES, linked_irs, relinked

from archdelta import rules as rules_module
from archdelta.delta import compute_delta
from archdelta.documents import serialize_violations
from archdelta.errors import DocumentError
from archdelta.extractor import resolve_call_graph, scan_repository
from archdelta.linker import build_system_ir, link_report
from archdelta.merge import apply_delta, remove_service
from archdelta.model import (
    ChangeKind,
    ComponentType,
    Delta,
    Endpoint,
    ImpactedItem,
    Method,
    MicroserviceIR,
    Parameter,
    RestCall,
    component_id,
    ir_content_digest,
    make_component,
)
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
    make_violation,
)

PROFILE = default_profile()
SERVICES = ("ts-order", "ts-station", "ts-user")


def _as_written(violations, system):
    """The violations document of ``system`` holding ``violations``."""
    return serialize_violations(violations, system.version_label)


def _matches_reference(got, name, increment, **context):
    """Whether a carried detector's violations are the full sweep's, put in
    dedup-key order, as the violations document of the increment."""
    want = reference_rules.in_final_order(
        getattr(reference_rules, name)(increment, **context)
    )
    return _as_written(got, increment) == _as_written(want, increment)


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


def _rule_doc() -> dict:
    return {
        "name": "R",
        "AnalysisLevels": ["System", "Delta"],
        "ChangedComponents": [
            {"ComponentType": ["Service", "Call"], "ChangeType": ["Modify", "All"]}
        ],
        "MonitoredImpact": {"ComponentType": "Service", "ImpactType": "Inconsistent"},
    }


def _rule_edit(edit):
    def document():
        doc = _rule_doc()
        edit(doc)
        return doc

    return document


def _filter_edit(**changes):
    return _rule_edit(lambda doc: doc["ChangedComponents"][0].update(changes))


def _monitored_edit(**changes):
    return _rule_edit(lambda doc: doc["MonitoredImpact"].update(changes))


@pytest.mark.parametrize(
    "document, location",
    [
        (_rule_edit(lambda doc: doc.pop("MonitoredImpact")), "$"),
        (_rule_edit(lambda doc: doc.update(extra=1)), "$"),
        (_rule_edit(lambda doc: doc.update(name="")), "$.name"),
        (_rule_edit(lambda doc: doc.update(name=5)), "$.name"),
        (_rule_edit(lambda doc: doc.update(AnalysisLevels=[])), "$.AnalysisLevels"),
        (_rule_edit(lambda doc: doc.update(AnalysisLevels="System")), "$.AnalysisLevels"),
        (
            _rule_edit(lambda doc: doc.update(AnalysisLevels=["System", "Bogus"])),
            "$.AnalysisLevels[1]",
        ),
        (
            _rule_edit(lambda doc: doc.update(AnalysisLevels=[["System"]])),
            "$.AnalysisLevels[0]",
        ),
        (_rule_edit(lambda doc: doc.update(ChangedComponents=[5])), "$.ChangedComponents[0]"),
        (_filter_edit(extra=[]), "$.ChangedComponents[0]"),
        (
            _rule_edit(lambda doc: doc["ChangedComponents"][0].pop("ChangeType")),
            "$.ChangedComponents[0]",
        ),
        (_filter_edit(ComponentType=[]), "$.ChangedComponents[0].ComponentType"),
        (_filter_edit(ComponentType=["Entity"]), "$.ChangedComponents[0].ComponentType[0]"),
        (_filter_edit(ChangeType=[{}]), "$.ChangedComponents[0].ChangeType[0]"),
        (
            _rule_edit(lambda doc: doc.update(MonitoredImpact=[doc["MonitoredImpact"]])),
            "$.MonitoredImpact",
        ),
        (_monitored_edit(ComponentType=["Service"]), "$.MonitoredImpact.ComponentType"),
        (_monitored_edit(ImpactType="Bogus"), "$.MonitoredImpact.ImpactType"),
        (lambda: [_rule_doc(), {**_rule_doc(), "extra": 1}], "$[1]"),
        (lambda: 5, "$"),
    ],
    ids=[
        "missing-key",
        "unexpected-key",
        "name-empty",
        "name-number",
        "levels-empty",
        "levels-string",
        "level-unknown",
        "level-list",
        "filter-number",
        "filter-extra-key",
        "filter-missing-key",
        "filter-types-empty",
        "filter-type-unknown",
        "filter-change-object",
        "monitored-list",
        "monitored-type-list",
        "impact-unknown",
        "second-rule",
        "scalar",
    ],
)
def test_malformed_rule_document_is_rejected_at_its_location(document, location):
    with pytest.raises(DocumentError) as excinfo:
        load_rules(json.dumps(document()))
    assert excinfo.value.location == location


def test_first_unexpected_key_in_sorted_order_is_reported():
    with pytest.raises(DocumentError) as excinfo:
        load_rules(json.dumps({**_rule_doc(), "zeta": 1, "alpha": 2}))
    assert str(excinfo.value) == "$: unexpected key 'alpha'"


@pytest.mark.parametrize(
    "document, names",
    [
        (lambda: [], []),
        (_rule_edit(lambda doc: doc.update(AnalysisLevels=["System", "System"])), ["R"]),
        (_rule_edit(lambda doc: doc.update(ChangedComponents=[])), ["R"]),
    ],
    ids=["empty-list", "duplicate-levels", "no-filters"],
)
def test_rule_documents_accepted(document, names):
    assert [rule.name for rule in load_rules(json.dumps(document()))] == names


def test_loading_rules_and_profiles_imports_no_schema_library():
    code = (
        "import sys, archdelta; archdelta.builtin_rules(); archdelta.default_profile(); "
        "print('jsonschema' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


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


def _serving(name: str, verb: str, path: str) -> MicroserviceIR:
    api = component_id(name, ComponentType.CONTROLLER, "pkg.Api")
    comp = make_component(api, endpoints=[Endpoint(verb, path, "handle", api)])
    return MicroserviceIR(name, "v0", {api: comp}, frozenset())


def _calling(name: str, calls: list[tuple[str, str, str]]) -> MicroserviceIR:
    core = component_id(name, ComponentType.SERVICE, "pkg.Core")
    method = Method(
        "fetch",
        rest_calls=tuple(
            RestCall(verb, target, path, "pkg.Core.fetch", core)
            for verb, target, path in calls
        ),
    )
    comps = {core: make_component(core, methods=[method])}
    return MicroserviceIR(name, "v0", comps, resolve_call_graph(comps))


def test_uem_names_the_changed_caller_of_every_endpoint_of_the_shape():
    # svc-a and svc-b both serve GET /x, and svc-c calls svc-a's.  When that
    # call goes, svc-b's endpoint is neither changed nor newly uncalled, but
    # its triggering list comes from the baseline callers of the whole shape.
    baseline = build_system_ir(
        [
            _serving("svc-a", "GET", "/x"),
            _serving("svc-b", "GET", "/x"),
            _calling("svc-c", [("GET", "svc-a", "/x")]),
        ]
    )
    assert detect_uncalled_endpoints(baseline)  # svc-b's, and a view to carry
    d = compute_delta(baseline.services["svc-c"], _calling("svc-c", []))
    increment = apply_delta(baseline, d)
    got = detect_uncalled_endpoints(increment, baseline=baseline, deltas=[d])
    caller = component_id("svc-c", ComponentType.SERVICE, "pkg.Core")
    flagged = sorted(v.impacted[0].component_id.microservice for v in got)
    assert flagged == ["svc-a", "svc-b"]
    for v in got:
        assert [(t.component_id, t.change_kind) for t in v.triggering] == [
            (caller, ChangeKind.MODIFY)
        ]
    assert _matches_reference(
        got, "detect_uncalled_endpoints", increment, baseline=baseline, deltas=[d]
    )


def test_uem_flags_equal_endpoints_of_a_component_once():
    # overloaded handlers can give a controller two equal endpoints, or two
    # of one signature; dropping one changes no endpoint's membership of the
    # uncalled set, and of one signature the first handler is named
    api = component_id("svc-a", ComponentType.CONTROLLER, "pkg.Api")
    ep = Endpoint("GET", "/x", "handle", api)
    other = Endpoint("GET", "/x", "also", api)

    def service(*endpoints):
        comp = make_component(api, endpoints=endpoints)
        return MicroserviceIR("svc-a", "v0", {api: comp}, frozenset())

    baseline = build_system_ir([service(ep, ep, other)])
    [first] = detect_uncalled_endpoints(baseline)
    assert first.impacted[0].site == "also"
    d = compute_delta(baseline.services["svc-a"], service(ep))
    increment = apply_delta(baseline, d)
    got = detect_uncalled_endpoints(increment, baseline=baseline, deltas=[d])
    assert _matches_reference(
        got, "detect_uncalled_endpoints", increment, baseline=baseline, deltas=[d]
    )
    assert [v.impacted[0].site for v in got] == ["handle"]


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


def _repository(methods: list[Method]) -> MicroserviceIR:
    repo = component_id("svc", ComponentType.REPOSITORY, "pkg.Repo")
    comps = {repo: make_component(repo, methods=methods)}
    return MicroserviceIR("svc", "v0", comps, frozenset())


def test_repository_signature_and_annotated_method_changes_are_flagged():
    long_id, text_id = (Parameter("id", "Long"),), (Parameter("id", "String"),)
    old = _repository(
        [
            Method("byId", long_id, "Order"),
            Method("gone", (), "Order", ("Query",)),
            Method("plainGone", (), "Order"),
        ]
    )
    new = _repository(
        [
            Method("byId", text_id, "Order"),
            Method("added", (), "Order", ("Query",)),
            Method("plainAdded", (), "Order"),
        ]
    )
    baseline = build_system_ir([old])
    d = compute_delta(old, new)
    violations = detect_repository_method_modifications(
        baseline, d, apply_delta(baseline, d)
    )
    assert [v.impacted[0].evidence for v in violations] == [
        "byId/1 signature changed",
        "added/0 annotated method added",
        "gone/0 annotated method removed",
    ]


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
        assert len(ic) == report["unmatchedCalls"]
        assert len(uem) == report["uncalledEndpoints"]


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


def test_generic_endpoint_rule_equivalent_to_uem_detector(systems):
    doc = {
        "name": "CustomUncalled",
        "AnalysisLevels": ["System"],
        "ChangedComponents": [{"ComponentType": ["Endpoint"], "ChangeType": ["All"]}],
        "MonitoredImpact": {"ComponentType": "Endpoint", "ImpactType": "Unused"},
    }
    [rule] = load_rules(json.dumps(doc))
    generic = evaluate(None, None, systems[0], [rule])
    builtin = detect_uncalled_endpoints(systems[0])
    assert len(generic) == len(builtin) == 4
    assert {v.impacted for v in generic} == {v.impacted for v in builtin}


def test_generic_endpoint_rule_flags_the_endpoints_of_a_changed_controller():
    before, after = _serving("svc", "GET", "/x"), _serving("svc", "POST", "/x")
    doc = {
        "name": "ChangedEndpoints",
        "AnalysisLevels": ["Delta"],
        "ChangedComponents": [{"ComponentType": ["Endpoint"], "ChangeType": ["All"]}],
        "MonitoredImpact": {"ComponentType": "Endpoint", "ImpactType": "Inconsistent"},
    }
    [rule] = load_rules(json.dumps(doc))
    baseline = build_system_ir([before])
    d = compute_delta(before, after)
    [violation] = evaluate(baseline, d, apply_delta(baseline, d), [rule])
    [item] = violation.impacted
    assert (item.kind, item.evidence, item.site) == ("endpoint", "POST /x", "handle")
    assert [t.change_kind for t in violation.triggering] == [ChangeKind.MODIFY]


@pytest.mark.parametrize("level", ["System", "Delta"])
def test_generic_call_rule_flags_a_call_made_from_two_methods_once(level):
    svc = component_id("svc-a", ComponentType.SERVICE, "pkg.S")
    methods = [
        Method(site, rest_calls=(RestCall("GET", "svc-b", "/gone", site, svc),))
        for site in ("a", "b")
    ]
    empty = MicroserviceIR("svc-a", "v0", {}, frozenset())
    service = MicroserviceIR(
        "svc-a", "v1", {svc: make_component(svc, methods=methods)}, frozenset()
    )
    [rule] = load_rules(
        json.dumps(
            {
                "name": "CustomUnmatched",
                "AnalysisLevels": [level],
                "ChangedComponents": [{"ComponentType": ["Call"], "ChangeType": ["All"]}],
                "MonitoredImpact": {"ComponentType": "Call", "ImpactType": "Unmatched"},
            }
        )
    )
    baseline, increment = build_system_ir([empty]), build_system_ir([service])
    d = compute_delta(empty, service)
    [violation] = evaluate(baseline, d, increment, [rule])
    assert [(i.evidence, i.site) for i in violation.impacted] == [("GET svc-b /gone", "a")]


def test_the_first_violation_of_a_dedup_key_wins_across_rules_of_one_name():
    # A custom Delta rule named IC flags the call the built-in IC flags, with
    # the same dedup key but its method's name as the site.  Whichever rule
    # comes first in the list wins, also when the built-in rules repeat.
    baseline = build_system_ir(
        [_serving("svc-b", "GET", "/x"), _calling("svc-a", [("GET", "svc-b", "/x")])]
    )
    edited = _calling("svc-a", [("GET", "svc-b", "/gone")])
    d = compute_delta(baseline.services["svc-a"], edited)
    increment = apply_delta(baseline, d)
    [custom] = load_rules(
        json.dumps(
            {
                "name": "IC",
                "AnalysisLevels": ["Delta"],
                "ChangedComponents": [
                    {"ComponentType": ["Call"], "ChangeType": ["All"]}
                ],
                "MonitoredImpact": {"ComponentType": "Call", "ImpactType": "Unmatched"},
            }
        )
    )
    builtin = builtin_rules()
    for rules, site in (
        ([custom, *builtin], "fetch"),
        ([*builtin, custom, *builtin], "pkg.Core.fetch"),
        ([*builtin, *builtin], "pkg.Core.fetch"),
    ):
        got = evaluate_many(baseline, [d], increment, rules)
        want = reference_rules.evaluate_many(baseline, [d], increment, rules)
        assert _as_written(got, increment) == _as_written(want, increment)
        [ic] = [v for v in got if v.rule_name == "IC"]
        assert ic.impacted[0].site == site
        assert [v.rule_name for v in got] == ["IC", "UEM"]


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


def test_evaluate_many_runs_the_detectors_the_module_holds(monkeypatch):
    """``evaluate_many`` looks each built-in detector up at call time, so one
    replaced on the module runs, such as the benchmark's traced wrappers."""
    cid = component_id("svc", ComponentType.SERVICE, "p.S")
    sentinels = []
    for name in (
        "detect_invalid_calls",
        "detect_uncalled_endpoints",
        "detect_service_method_modifications",
        "detect_repository_method_modifications",
    ):
        sentinel = make_violation(name, "", [ImpactedItem(cid, "stub", name)])
        sentinels.append(sentinel)
        monkeypatch.setattr(rules_module, name, lambda *a, v=sentinel, **k: [v])
    system = build_system_ir([])
    step = [Delta("svc", "v0", "v1", ())]
    found = evaluate_many(system, step, system, builtin_rules())
    assert found == sorted(sentinels, key=lambda v: (v.rule_name, v.dedup_key))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_carried_link_rules_equal_the_full_sweep(data):
    """At every step of a link-churn chain, IC and UEM as carried from the
    previous step equal the full-sweep reference put in dedup-key order, and
    the violations document ``evaluate_many`` gives is the reference's, byte
    for byte: triggering lists, order and labels included.  A step applies
    the deltas of one or two services, as a replay step does, and may remove
    a service.  Some chains start from the empty system."""
    start = data.draw(st.sampled_from([LINK_SERVICES, ()]))
    system = build_system_ir([data.draw(linked_irs(name)) for name in start])
    steps = [(None, [], system)]
    for step in range(1, data.draw(st.integers(1, 5)) + 1):
        baseline, deltas = system, []
        names = data.draw(
            st.lists(st.sampled_from(LINK_SERVICES), min_size=1, max_size=2, unique=True)
        )
        for name in names:
            current = system.services.get(name) or MicroserviceIR(
                name, "", {}, frozenset()
            )
            d = compute_delta(current, data.draw(relinked(current, f"v{step}")))
            deltas.append(d)
            system = apply_delta(system, d)
        others = sorted(set(system.services) - set(names))
        if others and data.draw(st.booleans()):
            system = remove_service(system, data.draw(st.sampled_from(others)))
        steps.append((baseline, deltas, system))
    rules = builtin_rules()
    for baseline, deltas, increment in steps:
        got = evaluate_many(baseline, deltas, increment, rules)
        want = reference_rules.evaluate_many(baseline, deltas, increment, rules)
        assert _as_written(got, increment) == _as_written(want, increment)
        for context in ({"baseline": baseline, "deltas": deltas}, {"deltas": deltas}):
            for name in ("detect_invalid_calls", "detect_uncalled_endpoints"):
                got = getattr(rules_module, name)(increment, **context)
                assert _matches_reference(got, name, increment, **context)
