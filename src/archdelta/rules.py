"""Declarative conflict-detection rules over (baseline, delta, increment).

A rule names its analysis level (Delta rules consume the change itself,
System rules sweep the whole increment), a changed-component filter, and one
monitored impact.  The four bundled rules are bound by name to dedicated
detectors:

    IC   a rest call targets no endpoint present in the system
    UEM  an endpoint is called from no other middleware service
    SMM  a modified service method risks returning inconsistent results
    RMM  a modified repository method risks returning inconsistent results

Rule matches are flags for the review process, not proofs of breakage.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from importlib import resources
from typing import Any, Iterable, Mapping, Sequence

import jsonschema

from .documents import component_id_to_doc, parse_json
from .errors import DocumentError, RuleBindingError
from .extractor import parse_call_target, type_name_parts
from .linker import LinkIndex, uncalled_endpoints, unmatched_calls
from .model import (
    ChangeKind,
    Component,
    ComponentChange,
    ComponentId,
    ComponentType,
    Delta,
    Incidence,
    Method,
    MicroserviceIR,
    SystemIR,
)

VIOLATIONS_SCHEMA = "violations@1"

BUILTIN_RULE_NAMES = ("IC", "UEM", "SMM", "RMM")

_RULE_COMPONENT_TYPES = ["Endpoint", "Call", "Controller", "Service", "Repository"]
_CHANGE_TYPE_TOKENS = ["Delete", "Update", "Add", "All", "Modify", "Remove"]
_CHANGE_TYPE_ALIASES = {"Modify": "Update", "Remove": "Delete"}
_KIND_TO_CHANGE_TYPE = {
    ChangeKind.ADD: "Add",
    ChangeKind.MODIFY: "Update",
    ChangeKind.DELETE: "Delete",
}

RULE_DOCUMENT_SCHEMA = {
    "type": "object",
    "required": ["name", "AnalysisLevels", "ChangedComponents", "MonitoredImpact"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "AnalysisLevels": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": ["Delta", "System"]},
        },
        "ChangedComponents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ComponentType", "ChangeType"],
                "additionalProperties": False,
                "properties": {
                    "ComponentType": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"enum": _RULE_COMPONENT_TYPES},
                    },
                    "ChangeType": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"enum": _CHANGE_TYPE_TOKENS},
                    },
                },
            },
        },
        "MonitoredImpact": {
            "type": "object",
            "required": ["ComponentType", "ImpactType"],
            "additionalProperties": False,
            "properties": {
                "ComponentType": {"enum": _RULE_COMPONENT_TYPES},
                "ImpactType": {"enum": ["Unused", "Inconsistent", "Unmatched"]},
            },
        },
    },
}


@dataclass(frozen=True)
class ChangedComponentFilter:
    component_types: frozenset[str]
    change_types: frozenset[str]  # canonical: Delete | Update | Add | All


@dataclass(frozen=True)
class MonitoredImpact:
    component_type: str
    impact_type: str  # Unused | Inconsistent | Unmatched


@dataclass(frozen=True)
class Rule:
    name: str
    analysis_levels: frozenset[str]
    changed_components: tuple[ChangedComponentFilter, ...]
    monitored_impact: MonitoredImpact


def _rule_from_doc(doc: Mapping[str, Any]) -> Rule:
    filters = []
    for flt in doc["ChangedComponents"]:
        change_types = frozenset(
            _CHANGE_TYPE_ALIASES.get(t, t) for t in flt["ChangeType"]
        )
        filters.append(
            ChangedComponentFilter(
                component_types=frozenset(flt["ComponentType"]),
                change_types=change_types,
            )
        )
    monitored = doc["MonitoredImpact"]
    return Rule(
        name=doc["name"],
        analysis_levels=frozenset(doc["AnalysisLevels"]),
        changed_components=tuple(filters),
        monitored_impact=MonitoredImpact(
            component_type=monitored["ComponentType"],
            impact_type=monitored["ImpactType"],
        ),
    )


@functools.cache
def _rule_validator() -> jsonschema.protocols.Validator:
    """The rule schema's validator, checked and built once per process."""
    cls = jsonschema.validators.validator_for(RULE_DOCUMENT_SCHEMA)
    cls.check_schema(RULE_DOCUMENT_SCHEMA)
    return cls(RULE_DOCUMENT_SCHEMA)


def load_rules(rule_document: bytes | str) -> list[Rule]:
    """Parse and validate a rule document (one rule object or a list)."""
    doc = parse_json(rule_document)
    docs = doc if isinstance(doc, list) else [doc]
    rules = []
    for i, rule_doc in enumerate(docs):
        errors = _rule_validator().iter_errors(rule_doc)
        exc = jsonschema.exceptions.best_match(errors)  # as jsonschema.validate
        if exc is not None:
            location = exc.json_path if isinstance(doc, dict) else f"$[{i}]" + exc.json_path[1:]
            raise DocumentError(exc.message, location) from exc
        rules.append(_rule_from_doc(rule_doc))
    return rules


def builtin_rules() -> list[Rule]:
    """The four bundled rule documents."""
    rules = []
    for stem in ("ic", "uem", "smm", "rmm"):
        raw = resources.files("archdelta.data.rules").joinpath(f"{stem}.json").read_bytes()
        rules.extend(load_rules(raw))
    return rules


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriggerItem:
    component_id: ComponentId
    change_kind: ChangeKind


@dataclass(frozen=True)
class ImpactedItem:
    """An affected element with its evidence.

    ``evidence`` is a stable identity string and participates in violation
    deduplication; ``site`` is descriptive context that does not.
    """

    component_id: ComponentId
    kind: str  # restCall | endpoint | method | dependent | component
    evidence: str
    site: str = ""


@dataclass(frozen=True)
class Violation:
    rule_name: str
    system_version_label: str
    triggering: tuple[TriggerItem, ...]
    impacted: tuple[ImpactedItem, ...]
    dedup_key: str


def _dedup_key(rule_name: str, impacted: Iterable[ImpactedItem]) -> str:
    identity = "|".join(
        sorted(f"{i.component_id}#{i.kind}#{i.evidence}" for i in impacted)
    )
    return hashlib.sha256(f"{rule_name}|{identity}".encode("utf-8")).hexdigest()


def make_violation(
    rule_name: str,
    system_version_label: str,
    impacted: Sequence[ImpactedItem],
    triggering: Sequence[TriggerItem] = (),
) -> Violation:
    if not impacted:
        raise ValueError("violation must name at least one impacted element")
    ordered_impacted = tuple(
        sorted(impacted, key=lambda i: (str(i.component_id), i.kind, i.evidence))
    )
    ordered_triggering = tuple(
        sorted(triggering, key=lambda t: (str(t.component_id), t.change_kind.value))
    )
    return Violation(
        rule_name=rule_name,
        system_version_label=system_version_label,
        triggering=ordered_triggering,
        impacted=ordered_impacted,
        dedup_key=_dedup_key(rule_name, ordered_impacted),
    )


def violation_to_doc(v: Violation) -> dict:
    return {
        "ruleName": v.rule_name,
        "systemVersionLabel": v.system_version_label,
        "triggering": [
            {
                "componentId": component_id_to_doc(t.component_id),
                "changeKind": t.change_kind.value,
            }
            for t in v.triggering
        ],
        "impacted": [
            {
                "componentId": component_id_to_doc(i.component_id),
                "kind": i.kind,
                "evidence": i.evidence,
                "site": i.site,
            }
            for i in v.impacted
        ],
        "dedupKey": v.dedup_key,
    }


def violations_doc(violations: Sequence[Violation], label: str) -> dict:
    return {
        "schema": VIOLATIONS_SCHEMA,
        "systemVersionLabel": label,
        "violations": [violation_to_doc(v) for v in violations],
    }


def render_violations_text(violations: Sequence[Violation]) -> str:
    """Human-readable report, one block per violation."""
    if not violations:
        return "no rule violations\n"
    lines = []
    for v in violations:
        lines.append(f"[{v.rule_name}] {v.impacted[0].evidence}")
        for item in v.impacted:
            site = f" (at {item.site})" if item.site else ""
            lines.append(f"    {item.kind}: {item.component_id} {item.evidence}{site}")
        for t in v.triggering:
            lines.append(f"    triggered by {t.change_kind.value} {t.component_id}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Built-in detectors
# ---------------------------------------------------------------------------


def _changed_ids(deltas: Sequence[Delta]) -> dict[ComponentId, ChangeKind]:
    merged: dict[ComponentId, ChangeKind] = {}
    for d in deltas:
        for ch in d.changes:
            merged[ch.component_id] = ch.kind
    return merged


def _link_violation(
    rule_name: str,
    increment: SystemIR,
    item: ImpactedItem,
    culprits: Iterable[ComponentId],
    changed: Mapping[ComponentId, ChangeKind],
) -> Violation:
    """A violation of a link rule, triggered by those culprits the deltas changed."""
    return make_violation(
        rule_name,
        increment.version_label,
        impacted=[item],
        triggering=[TriggerItem(c, changed[c]) for c in culprits if c in changed],
    )


def detect_invalid_calls(
    increment: SystemIR,
    *,
    baseline: SystemIR | None = None,
    deltas: Sequence[Delta] = (),
) -> list[Violation]:
    """One violation per rest call with no matching endpoint in the system.

    When the change context is supplied, the triggering list names the delta
    entry that broke the call (the call's own component, or the component
    whose endpoint served this call in the baseline).
    """
    changed = _changed_ids(deltas)
    violations = []
    for call in unmatched_calls(increment):
        culprits = [call.owning_component]
        if call.owning_component not in changed and baseline is not None:
            old_endpoint = LinkIndex.of(baseline).resolve(call)
            culprits = [old_endpoint.owning_component] if old_endpoint else []
        item = ImpactedItem(
            call.owning_component, "restCall", call.signature(), call.site_method
        )
        violations.append(_link_violation("IC", increment, item, culprits, changed))
    return violations


def detect_uncalled_endpoints(
    increment: SystemIR,
    *,
    baseline: SystemIR | None = None,
    deltas: Sequence[Delta] = (),
) -> list[Violation]:
    """One violation per endpoint no middleware rest call matches.

    Endpoints used only by user interfaces or third-party systems surface
    here as ghost predictions; that caveat is inherent to static scope.
    """
    changed = _changed_ids(deltas)
    violations = []
    for endpoint in uncalled_endpoints(increment):
        owner = endpoint.owning_component
        culprits = {owner}
        if baseline is not None and changed and owner not in changed:
            # the components whose calls reached this shape in the baseline
            old = LinkIndex.of(baseline)
            culprits = {
                call.owning_component
                for ep in old.endpoints.get((endpoint.http_method, endpoint.path), ())
                for call in old.callers.get(ep, ())
            }
        item = ImpactedItem(
            owner, "endpoint", endpoint.signature(), endpoint.handler_method
        )
        violations.append(_link_violation("UEM", increment, item, culprits, changed))
    return violations


def _methods_by_signature(comp: Component) -> dict[tuple[str, int], Method]:
    return {(m.name, m.arity): m for m in comp.methods}


def _return_object_targets(method: Method) -> frozenset[str]:
    """Call targets invoked on a value of the method's declared return type."""
    return_names = type_name_parts(method.return_type)
    targets = set()
    for target in method.body_call_targets:
        receiver, name, arity = parse_call_target(target)
        if receiver is not None and receiver in return_names:
            targets.add(target)
    return frozenset(targets)


def _dependents_of(
    service: MicroserviceIR, start: ComponentId, wanted: ComponentType
) -> list[ComponentId]:
    """Components of the wanted type reachable against call-edge direction."""
    seen = {start}
    frontier = [start]
    found = set()
    while frontier:
        current = frontier.pop()
        for caller in service.callers.get(current, ()):
            if caller in seen:
                continue
            seen.add(caller)
            frontier.append(caller)
            if caller.component_type is wanted:
                found.add(caller)
    return sorted(found, key=str)


def _modification_violations(
    rule_name: str,
    component_type: ComponentType,
    dependent_type: ComponentType,
    flagger,
    baseline: SystemIR,
    d: Delta,
    increment: SystemIR,
) -> list[Violation]:
    old_service = baseline.services.get(d.microservice)
    if old_service is None:
        return []
    new_service = increment.services[d.microservice]
    violations = []
    for change in d.changes:
        if change.kind is not ChangeKind.MODIFY:
            continue
        cid = change.component_id
        if cid.component_type is not component_type:
            continue
        old_comp = old_service.components.get(cid)
        if old_comp is None:
            continue
        new_comp = change.new_component
        flagged = flagger(old_comp, new_comp)
        for evidence in flagged:
            impacted = [
                ImpactedItem(component_id=cid, kind="method", evidence=evidence)
            ]
            for dep in _dependents_of(new_service, cid, dependent_type):
                impacted.append(
                    ImpactedItem(
                        component_id=dep,
                        kind="dependent",
                        evidence=f"depends on {cid.qualified_name}",
                    )
                )
            violations.append(
                make_violation(
                    rule_name,
                    baseline.version_label,
                    impacted=impacted,
                    triggering=[TriggerItem(cid, change.kind)],
                )
            )
    return violations


def _service_method_flags(old_comp: Component, new_comp: Component) -> list[str]:
    flags = []
    old_methods = _methods_by_signature(old_comp)
    new_methods = _methods_by_signature(new_comp)
    for sig in sorted(set(old_methods) & set(new_methods)):
        old_m, new_m = old_methods[sig], new_methods[sig]
        name, arity = sig
        if old_m.return_type != new_m.return_type:
            flags.append(
                f"{name}/{arity} return type changed "
                f"{old_m.return_type} -> {new_m.return_type}"
            )
        elif _return_object_targets(old_m) != _return_object_targets(new_m):
            flags.append(f"{name}/{arity} return object usage changed")
    return flags


def _signature_tuple(m: Method) -> tuple:
    return (tuple(p.declared_type for p in m.parameters), m.return_type)


def _repository_method_flags(old_comp: Component, new_comp: Component) -> list[str]:
    flags = []
    old_methods = _methods_by_signature(old_comp)
    new_methods = _methods_by_signature(new_comp)
    for sig in sorted(set(old_methods) & set(new_methods)):
        old_m, new_m = old_methods[sig], new_methods[sig]
        name, arity = sig
        if sorted(old_m.annotations) != sorted(new_m.annotations):
            flags.append(f"{name}/{arity} annotations changed")
        elif _signature_tuple(old_m) != _signature_tuple(new_m):
            flags.append(f"{name}/{arity} signature changed")
    for sig in sorted(set(new_methods) - set(old_methods)):
        if new_methods[sig].annotations:
            flags.append(f"{sig[0]}/{sig[1]} annotated method added")
    for sig in sorted(set(old_methods) - set(new_methods)):
        if old_methods[sig].annotations:
            flags.append(f"{sig[0]}/{sig[1]} annotated method removed")
    return flags


def detect_service_method_modifications(
    baseline: SystemIR, d: Delta, increment: SystemIR
) -> list[Violation]:
    """Modified service methods whose returned data may have changed shape.

    Flags a changed return type, or a change in the set of calls made on a
    value of the declared return type; impacted components include the
    controllers reaching the service through the call graph of the
    increment, the system ``d`` derives from ``baseline``.
    """
    return _modification_violations(
        "SMM",
        ComponentType.SERVICE,
        ComponentType.CONTROLLER,
        _service_method_flags,
        baseline,
        d,
        increment,
    )


def detect_repository_method_modifications(
    baseline: SystemIR, d: Delta, increment: SystemIR
) -> list[Violation]:
    """Modified repository methods with changed annotations or signatures."""
    return _modification_violations(
        "RMM",
        ComponentType.REPOSITORY,
        ComponentType.SERVICE,
        _repository_method_flags,
        baseline,
        d,
        increment,
    )


# ---------------------------------------------------------------------------
# Generic rule evaluation
# ---------------------------------------------------------------------------


def _component_touches_virtual(
    token: str, old_comp: Component | None, new_comp: Component | None
) -> bool:
    """Whether the change alters the component's endpoints or its calls."""

    def members(comp: Component | None) -> frozenset:
        if comp is None:
            return frozenset()
        return frozenset(comp.endpoints) if token == "Endpoint" else comp.rest_calls()

    old, new = members(old_comp), members(new_comp)
    return bool(old or new) and (old_comp is None or new_comp is None or old != new)


def _change_matches(
    change: ComponentChange,
    flt: ChangedComponentFilter,
    baseline: SystemIR | None,
) -> bool:
    if (
        "All" not in flt.change_types
        and _KIND_TO_CHANGE_TYPE[change.kind] not in flt.change_types
    ):
        return False
    concrete = change.component_id.component_type.value
    if concrete in flt.component_types:
        return True
    old_comp = baseline.component(change.component_id) if baseline else None
    for token in flt.component_types & {"Endpoint", "Call"}:
        if _component_touches_virtual(token, old_comp, change.new_component):
            return True
    return False


def _neighbours(system: SystemIR, cid: ComponentId) -> set[ComponentId]:
    """Components one call or cross edge away from ``cid``, either direction."""
    edges = Incidence.of(system).edges(cid)
    near = {e.target if e.source == cid else e.source for e in edges}
    service = system.services.get(cid.microservice)
    if service is not None:
        near.update(service.callers.get(cid, ()), service.callees.get(cid, ()))
    return near


def _impact_items_for_component(
    rule: Rule,
    comp: Component,
    increment: SystemIR,
    baseline: SystemIR | None,
    unmatched: frozenset,
) -> list[ImpactedItem]:
    monitored = rule.monitored_impact
    ctype = monitored.component_type
    impact = monitored.impact_type
    items: list[ImpactedItem] = []
    if ctype in ("Call", "Endpoint"):
        if ctype == "Call":
            members = [
                (call in unmatched, "restCall", call.signature(), m.name)
                for m in comp.methods
                for call in m.rest_calls
            ]
        else:
            called = LinkIndex.of(increment).callers
            members = [
                (ep not in called, "endpoint", ep.signature(), ep.handler_method)
                for ep in comp.endpoints
            ]
        inconsistent = _is_inconsistent(comp, baseline)
        return [
            ImpactedItem(comp.id, kind, evidence, site)
            for unlinked, kind, evidence, site in members
            if (unlinked if impact in ("Unmatched", "Unused") else inconsistent)
        ]
    if comp.id.component_type.value != ctype:
        return items
    if impact == "Inconsistent":
        if _is_inconsistent(comp, baseline):
            items.append(ImpactedItem(comp.id, "component", "content changed"))
    elif impact == "Unmatched":
        if not _has_cross_edge(comp.id, increment):
            items.append(ImpactedItem(comp.id, "component", "no cross-service link"))
    elif impact == "Unused":
        if not _has_inbound(comp.id, increment):
            items.append(ImpactedItem(comp.id, "component", "no inbound dependency"))
    else:  # pragma: no cover - schema keeps this unreachable
        raise RuleBindingError(f"unsupported impact type {impact!r}")
    return items


def _is_inconsistent(comp: Component, baseline: SystemIR | None) -> bool:
    if baseline is None:
        return False
    old = baseline.component(comp.id)
    return old is not None and old.content_hash != comp.content_hash


def _has_cross_edge(cid: ComponentId, system: SystemIR) -> bool:
    return bool(Incidence.of(system).edges(cid))


def _has_inbound(cid: ComponentId, system: SystemIR) -> bool:
    service = system.services.get(cid.microservice)
    return bool(service and cid in service.callers) or _has_cross_edge(cid, system)


def _evaluate_generic_system(
    rule: Rule, increment: SystemIR, baseline: SystemIR | None
) -> list[Violation]:
    unmatched = frozenset(unmatched_calls(increment))
    violations = []
    for comp in increment.iter_components():
        for item in _impact_items_for_component(
            rule, comp, increment, baseline, unmatched
        ):
            violations.append(
                make_violation(rule.name, increment.version_label, impacted=[item])
            )
    return violations


def _evaluate_generic_delta(
    rule: Rule,
    baseline: SystemIR,
    d: Delta,
    increment: SystemIR,
) -> list[Violation]:
    seeds: list[ComponentChange] = [
        change
        for change in d.changes
        if any(_change_matches(change, flt, baseline) for flt in rule.changed_components)
    ]
    if not seeds:
        return []
    reached = {ch.component_id for ch in seeds}
    for ch in seeds:
        reached.update(_neighbours(increment, ch.component_id))
    unmatched = frozenset(unmatched_calls(increment))
    triggering = [TriggerItem(ch.component_id, ch.kind) for ch in seeds]
    violations = []
    for cid in sorted(reached, key=str):
        comp = increment.component(cid)
        if comp is None:
            continue  # deleted by this delta
        for item in _impact_items_for_component(
            rule, comp, increment, baseline, unmatched
        ):
            violations.append(
                make_violation(
                    rule.name,
                    increment.version_label,
                    impacted=[item],
                    triggering=triggering,
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def evaluate_many(
    baseline: SystemIR | None,
    deltas: Sequence[Delta],
    increment: SystemIR,
    rules: Sequence[Rule],
) -> list[Violation]:
    """Evaluate rules for one version step (possibly several service deltas).

    System rules sweep the increment once; Delta rules run per delta against
    the shared baseline.  Results are deduplicated by dedup key and sorted.
    """
    violations: list[Violation] = []
    for rule in rules:
        if "System" in rule.analysis_levels:
            if rule.name == "IC":
                violations.extend(
                    detect_invalid_calls(increment, baseline=baseline, deltas=deltas)
                )
            elif rule.name == "UEM":
                violations.extend(
                    detect_uncalled_endpoints(
                        increment, baseline=baseline, deltas=deltas
                    )
                )
            else:
                violations.extend(
                    _evaluate_generic_system(rule, increment, baseline)
                )
        if "Delta" in rule.analysis_levels and baseline is not None:
            for d in deltas:
                if rule.name == "SMM":
                    violations.extend(
                        detect_service_method_modifications(baseline, d, increment)
                    )
                elif rule.name == "RMM":
                    violations.extend(
                        detect_repository_method_modifications(baseline, d, increment)
                    )
                else:
                    violations.extend(
                        _evaluate_generic_delta(rule, baseline, d, increment)
                    )
    unique: dict[str, Violation] = {}
    for v in violations:
        unique.setdefault(v.dedup_key, v)
    return sorted(unique.values(), key=lambda v: (v.rule_name, v.dedup_key))


def evaluate(
    baseline: SystemIR | None,
    d: Delta | None,
    increment: SystemIR,
    rules: Sequence[Rule],
) -> list[Violation]:
    """Evaluate rules for one increment derived from one delta."""
    deltas = [d] if d is not None else []
    return evaluate_many(baseline, deltas, increment, rules)
