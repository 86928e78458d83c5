"""Full-sweep reference for the IC and UEM detectors of ``archdelta.rules``.

These are the detectors as they were before a system carried its IC and UEM
violations: every step sweeps every unmatched call and every endpoint of the
increment, and builds each violation with ``make_violation``, baseline
culprits and label included.  ``evaluate_many`` is the dispatch as it was
before each rule's violations came in their final order: every violation
found, deduplicated across all rules by dedup key, the first kept, then
sorted.  Tests compare the carried detectors and dispatch against them.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from archdelta import rules

from archdelta.linker import LinkIndex, call_sort_key, endpoint_sort_key
from archdelta.model import (
    ChangeKind,
    ComponentId,
    Delta,
    Endpoint,
    ImpactedItem,
    RestCall,
    SystemIR,
    TriggerItem,
    Violation,
)
from archdelta.rules import Rule, make_violation


def _changed_ids(deltas: Sequence[Delta]) -> dict[ComponentId, ChangeKind]:
    return {ch.component_id: ch.kind for d in deltas for ch in d.changes}


def unmatched_calls(system: SystemIR) -> list[RestCall]:
    """Distinct unmatched calls: per component, the first call of each
    (owner, verb, target, path) in method order."""
    unmatched = LinkIndex.of(system).unmatched
    out: list[RestCall] = []
    for cid in {call.owning_component for call in unmatched}:
        seen: set[tuple] = set()
        for m in system.component(cid).methods:
            for call in m.rest_calls:
                key = (str(cid), call.http_method, call.target_service, call.path)
                if call in unmatched and key not in seen:
                    seen.add(key)
                    out.append(call)
    out.sort(key=call_sort_key)
    return out


def uncalled_endpoints(system: SystemIR) -> list[Endpoint]:
    """Every endpoint of the system that no call resolves to."""
    called = LinkIndex.of(system).callers
    out = [ep for ep in system.iter_endpoints() if ep not in called]
    out.sort(key=endpoint_sort_key)
    return out


def _link_violation(
    rule_name: str,
    increment: SystemIR,
    item: ImpactedItem,
    culprits: Iterable[ComponentId],
    changed: Mapping[ComponentId, ChangeKind],
) -> Violation:
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
    changed = _changed_ids(deltas)
    violations = []
    for endpoint in uncalled_endpoints(increment):
        owner = endpoint.owning_component
        culprits = {owner}
        if baseline is not None and changed and owner not in changed:
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


def in_final_order(violations: Iterable[Violation]) -> list[Violation]:
    """One violation per dedup key, the first found, sorted by rule name and
    dedup key."""
    unique: dict[str, Violation] = {}
    for v in violations:
        unique.setdefault(v.dedup_key, v)
    return sorted(unique.values(), key=attrgetter("rule_name", "dedup_key"))


def evaluate_many(
    baseline: SystemIR | None,
    deltas: Sequence[Delta],
    increment: SystemIR,
    rule_list: Sequence[Rule],
) -> list[Violation]:
    """Every rule's violations, IC and UEM from the full sweeps above, put
    in final order all together."""
    on_system = {"IC": detect_invalid_calls, "UEM": detect_uncalled_endpoints}
    on_delta = {
        "SMM": rules.detect_service_method_modifications,
        "RMM": rules.detect_repository_method_modifications,
    }
    found: list[Violation] = []
    for rule in rule_list:
        if "System" in rule.analysis_levels:
            generic = partial(rules._evaluate_generic_system, rule)
            detect = on_system.get(rule.name, generic)
            found += detect(increment, baseline=baseline, deltas=deltas)
        if "Delta" in rule.analysis_levels and baseline is not None:
            generic = partial(rules._evaluate_generic_delta, rule)
            for d in deltas:
                found += on_delta.get(rule.name, generic)(baseline, d, increment)
    return in_final_order(found)
