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

import hashlib
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .documents import _each, _Fault, _get, _loaded, _within
from .errors import RuleBindingError
from .extractor import type_name_parts
from .linker import LinkIndex, call_sort_key, distinct_unmatched, endpoint_sort_key
from .model import (
    ChangeKind,
    Component,
    ComponentChange,
    ComponentId,
    ComponentType,
    Delta,
    Endpoint,
    ImpactedItem,
    Incidence,
    Method,
    MicroserviceIR,
    RestCall,
    SystemIR,
    TriggerItem,
    Violation,
)

BUILTIN_RULE_NAMES = ("IC", "UEM", "SMM", "RMM")

_LEVELS = ("Delta", "System")
_COMPONENT_TYPES = ("Endpoint", "Call", "Controller", "Service", "Repository")
_CHANGE_TYPES = ("Delete", "Update", "Add", "All", "Modify", "Remove")
_CHANGE_TYPE_ALIASES = {"Modify": "Update", "Remove": "Delete"}
_IMPACT_TYPES = ("Unused", "Inconsistent", "Unmatched")
_KIND_TO_CHANGE_TYPE = {
    ChangeKind.ADD: "Add",
    ChangeKind.MODIFY: "Update",
    ChangeKind.DELETE: "Delete",
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


def _closed(doc: Any, keys: tuple[str, ...]) -> None:
    """Fail unless ``doc`` is an object holding exactly ``keys``."""
    if type(doc) is not dict:
        raise _Fault("expected an object")
    for key in keys:
        if key not in doc:
            raise _Fault(f"missing key '{key}'")
    unexpected = sorted(doc.keys() - set(keys))
    if unexpected:
        raise _Fault(f"unexpected key '{unexpected[0]}'")


def _token(token: Any, known: tuple[str, ...]) -> str:
    if type(token) is not str or token not in known:
        raise _Fault(f"{token!r} is not one of {list(known)!r}")
    return token


def _tokens(items: list, known: tuple[str, ...]) -> frozenset[str]:
    if not items:
        raise _Fault("expected a non-empty list")
    return frozenset(_each(items, _token, known))


def _read_filter(doc: Any) -> ChangedComponentFilter:
    _closed(doc, ("ComponentType", "ChangeType"))
    types = _within(doc, "ComponentType", list, _tokens, _COMPONENT_TYPES)
    changes = _within(doc, "ChangeType", list, _tokens, _CHANGE_TYPES)
    return ChangedComponentFilter(
        types, frozenset(_CHANGE_TYPE_ALIASES.get(t, t) for t in changes)
    )


def _read_monitored(doc: Any) -> MonitoredImpact:
    _closed(doc, ("ComponentType", "ImpactType"))
    return MonitoredImpact(
        _within(doc, "ComponentType", str, _token, _COMPONENT_TYPES),
        _within(doc, "ImpactType", str, _token, _IMPACT_TYPES),
    )


def _read_rule(doc: Any) -> Rule:
    _closed(doc, ("name", "AnalysisLevels", "ChangedComponents", "MonitoredImpact"))
    name = _get(doc, "name", str)
    if not name:
        raise _Fault("expected a non-empty string", ".name")
    return Rule(
        name,
        _within(doc, "AnalysisLevels", list, _tokens, _LEVELS),
        _within(doc, "ChangedComponents", list, _each, _read_filter),
        _within(doc, "MonitoredImpact", dict, _read_monitored),
    )


def _read_rules(doc: Any) -> list[Rule]:
    return list(_each(doc, _read_rule)) if type(doc) is list else [_read_rule(doc)]


def load_rules(rule_document: bytes | str) -> list[Rule]:
    """Parse and check a rule document (one rule object or a list)."""
    return _loaded(rule_document, None, _read_rules)


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


def _dedup_key(rule_name: str, impacted: Iterable[ImpactedItem]) -> str:
    identity = "|".join(
        sorted(f"{i.component_id}#{i.kind}#{i.evidence}" for i in impacted)
    )
    return hashlib.sha256(f"{rule_name}|{identity}".encode("utf-8")).hexdigest()


def make_violation(
    rule_name: str,
    system_version_label: str | None,
    impacted: Sequence[ImpactedItem],
    triggering: Sequence[TriggerItem] = (),
) -> Violation:
    if not impacted:
        raise ValueError("violation must name at least one impacted element")
    ordered = tuple(
        sorted(impacted, key=lambda i: (str(i.component_id), i.kind, i.evidence))
    )
    key = _dedup_key(rule_name, ordered)
    return Violation(
        rule_name, system_version_label, _ordered_triggering(triggering), ordered, key
    )


def _ordered_triggering(triggering: Iterable[TriggerItem]) -> tuple[TriggerItem, ...]:
    return tuple(
        sorted(triggering, key=lambda t: (str(t.component_id), t.change_kind.value))
    )


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
    return {ch.component_id: ch.kind for d in deltas for ch in d.changes}


# A call or endpoint an IC or UEM violation flags, and that violation as
# ``make_violation`` built it, without label or triggering list.
Entry = tuple[RestCall | Endpoint, Violation]
_KEY = attrgetter("dedup_key")


def _call_entries(comp: Component, index: LinkIndex) -> Iterator[Entry]:
    for call in sorted(distinct_unmatched(comp, index.unmatched), key=call_sort_key):
        item = ImpactedItem(comp.id, "restCall", call.signature(), call.site_method)
        yield call, make_violation("IC", None, [item])


def _endpoint_entries(comp: Component, index: LinkIndex) -> Iterator[Entry]:
    uncalled = [ep for ep in comp.endpoints if ep not in index.callers]
    for ep in sorted(uncalled, key=endpoint_sort_key):
        item = ImpactedItem(comp.id, "endpoint", ep.signature(), ep.handler_method)
        yield ep, make_violation("UEM", None, [item])


@dataclass(frozen=True)
class CarriedRun:
    """One rule's carried violations, in dedup-key order, and the entries
    of each component that owns any."""

    violations: tuple[Violation, ...]
    owners: Mapping[ComponentId, tuple[Entry, ...]]

    def replaced(
        self,
        system: SystemIR,
        refreshed: set[ComponentId],
        rebuild: Callable[[Component, LinkIndex], Iterator[Entry]],
    ) -> CarriedRun:
        """This run with the entries of the refreshed components rebuilt.

        ``rebuild`` yields a component's entries in the detector's sort
        order, and of those with one dedup key the first is kept.  Only the
        refreshed components' entries are deleted and inserted, each where
        bisection on the dedup key puts it; a run built from nothing is
        sorted once.
        """
        if not refreshed:
            return self
        index = LinkIndex.of(system)
        violations, owners = list(self.violations), dict(self.owners)
        added: list[Violation] = []
        for cid in refreshed:
            for _, v in owners.pop(cid, ()):
                del violations[bisect_left(violations, v.dedup_key, key=_KEY)]
            comp = system.component(cid)
            if comp is None:
                continue
            distinct: dict[str, Entry] = {}
            for member, v in rebuild(comp, index):
                distinct.setdefault(v.dedup_key, (member, v))
            if distinct:
                owners[cid] = tuple(distinct.values())
                added += (v for _, v in distinct.values())
        if violations:
            for v in added:
                insort(violations, v, key=_KEY)
        else:
            violations = sorted(added, key=_KEY)
        return CarriedRun(tuple(violations), owners)

    def triggered(
        self,
        touched: Iterable[ComponentId],
        triggering: Callable[[Any], tuple[TriggerItem, ...]],
    ) -> list[Violation]:
        """The run, where the entries of the ``touched`` owners whose member
        ``triggering`` gives a non-empty list are built again with it."""
        violations = list(self.violations)
        for cid in touched:
            for member, v in self.owners.get(cid, ()):
                if found := triggering(member):
                    at = bisect_left(violations, v.dedup_key, key=_KEY)
                    violations[at] = replace(v, triggering=found)
        return violations


_NO_RUN = CarriedRun((), {})


@dataclass(frozen=True)
class LinkViolations:
    """A system's IC and UEM violations, in their final order, without the
    triggering list each step computes.

    An entry depends only on its owner component and on the link index's
    ``unmatched`` set and ``callers`` keys.  So ``linker.relink`` carries a
    system's entries to the increment of a change through ``carried``: only
    the entries of the replaced components, and of the owners of the calls
    and endpoints whose link the change toggled, are built again.
    """

    invalid_calls: CarriedRun
    uncalled_endpoints: CarriedRun

    @classmethod
    def of(cls, system: SystemIR) -> LinkViolations:
        """The system's entries, built on first use and kept with the system,
        which then hands them on to the increments derived from it."""
        if system.link_violations is None:
            every = list(system.iter_components())
            view = cls(_NO_RUN, _NO_RUN).carried(system, (), every, (), ())
            object.__setattr__(system, "link_violations", view)
        return system.link_violations

    def carried(
        self,
        system: SystemIR,
        before: Sequence[Component],
        after: Sequence[Component],
        calls: Iterable[RestCall],
        endpoints: Iterable[Endpoint],
    ) -> LinkViolations:
        """The entries of ``system``: this view's system with the components
        ``before`` replaced by ``after``, where ``calls`` entered or left
        ``unmatched`` and ``endpoints`` gained a first caller or lost the
        last one."""
        changed = (*before, *after)
        calling = {c.id for c in changed if any(m.rest_calls for m in c.methods)}
        calling.update(call.owning_component for call in calls)
        serving = {c.id for c in changed if c.endpoints}
        serving.update(ep.owning_component for ep in endpoints)
        return LinkViolations(
            self.invalid_calls.replaced(system, calling, _call_entries),
            self.uncalled_endpoints.replaced(system, serving, _endpoint_entries),
        )


def detect_invalid_calls(
    increment: SystemIR,
    *,
    baseline: SystemIR | None = None,
    deltas: Sequence[Delta] = (),
) -> list[Violation]:
    """One violation per rest call with no matching endpoint in the system,
    in dedup-key order and without a label: the document's applies.

    When the change context is supplied, the triggering list names the delta
    entry that broke the call (the call's own component, or the component
    whose endpoint served this call in the baseline).  ``increment`` is the
    baseline with the deltas applied, so only the calls of changed
    components and the baseline callers of their endpoints can have one.
    """
    changed = _changed_ids(deltas)
    touched = set(changed)
    if changed and baseline is not None:
        old = LinkIndex.of(baseline)
        touched.update(
            call.owning_component
            for comp in filter(None, map(baseline.component, changed))
            for ep in comp.endpoints
            for call in old.callers.get(ep, ())
        )

    def triggering(call: RestCall) -> tuple[TriggerItem, ...]:
        culprit = call.owning_component
        if culprit not in changed and baseline is not None:
            old_endpoint = LinkIndex.of(baseline).resolve(call)
            culprit = old_endpoint.owning_component if old_endpoint else None
        return (TriggerItem(culprit, changed[culprit]),) if culprit in changed else ()

    run = LinkViolations.of(increment).invalid_calls
    return run.triggered(touched, triggering)


def detect_uncalled_endpoints(
    increment: SystemIR,
    *,
    baseline: SystemIR | None = None,
    deltas: Sequence[Delta] = (),
) -> list[Violation]:
    """One violation per endpoint no middleware rest call matches, in
    dedup-key order and without a label: the document's applies.  Endpoints
    of one component that differ only in their handler count once, as the
    first of them.

    Endpoints used only by user interfaces or third-party systems surface
    here as ghost predictions; that caveat is inherent to static scope.

    With the change context, the triggering list names the changed
    components among the endpoint's own and, for an unchanged endpoint, the
    baseline callers of every endpoint of its shape.  ``increment`` is the
    baseline with the deltas applied, so only the endpoints of changed
    components and those of shapes a changed component called can have one.
    """
    changed = _changed_ids(deltas)
    touched = set(changed)
    old = LinkIndex.of(baseline) if changed and baseline is not None else None
    if old is not None:
        shapes = {
            (call.http_method, call.path)
            for comp in filter(None, map(baseline.component, changed))
            for call in comp.rest_calls()
        }
        new = LinkIndex.of(increment)
        touched.update(
            ep.owning_component
            for shape in shapes
            for ep in new.endpoints.get(shape, ())
        )
    triggering_of: dict[tuple[str, str], tuple[TriggerItem, ...]] = {}

    def triggering(endpoint: Endpoint) -> tuple[TriggerItem, ...]:
        cid = endpoint.owning_component
        if cid in changed:
            return (TriggerItem(cid, changed[cid]),)
        if old is None:
            return ()
        # the changed components whose calls reached this shape in the baseline
        shape = (endpoint.http_method, endpoint.path)
        if shape not in triggering_of:
            culprits = {
                call.owning_component
                for ep in old.endpoints.get(shape, ())
                for call in old.callers.get(ep, ())
            }
            triggering_of[shape] = _ordered_triggering(
                TriggerItem(c, kind) for c, kind in changed.items() if c in culprits
            )
        return triggering_of[shape]

    run = LinkViolations.of(increment).uncalled_endpoints
    return run.triggered(touched, triggering)


def _methods_by_signature(comp: Component) -> dict[tuple[str, int], Method]:
    return {(m.name, m.arity): m for m in comp.methods}


def _return_object_targets(method: Method) -> frozenset[str]:
    """Call targets invoked on a value of the method's declared return type."""
    return_names = type_name_parts(method.return_type)
    return frozenset(
        target
        for target, (receiver, _, _) in zip(method.body_call_targets, method.call_targets)
        if receiver in return_names
    )


def _dependents_of(
    service: MicroserviceIR, start: ComponentId, wanted: ComponentType
) -> list[ComponentId]:
    """Components of the wanted type reachable against call-edge direction."""
    seen, frontier = {start}, [start]
    while frontier:
        for caller in service.callers.get(frontier.pop(), ()):
            if caller not in seen:
                seen.add(caller)
                frontier.append(caller)
    seen.discard(start)
    return sorted((c for c in seen if c.component_type is wanted), key=str)


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
        cid = change.component_id
        old_comp = old_service.components.get(cid)
        if (
            change.kind is not ChangeKind.MODIFY
            or cid.component_type is not component_type
            or old_comp is None
        ):
            continue
        dependents = [
            ImpactedItem(dep, "dependent", f"depends on {cid.qualified_name}")
            for dep in _dependents_of(new_service, cid, dependent_type)
        ]
        triggering = [TriggerItem(cid, change.kind)]
        for evidence in flagger(old_comp, change.new_component):
            impacted = [ImpactedItem(cid, "method", evidence), *dependents]
            violations.append(
                make_violation(rule_name, baseline.version_label, impacted, triggering)
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
        "SMM", ComponentType.SERVICE, ComponentType.CONTROLLER,
        _service_method_flags, baseline, d, increment,
    )


def detect_repository_method_modifications(
    baseline: SystemIR, d: Delta, increment: SystemIR
) -> list[Violation]:
    """Modified repository methods with changed annotations or signatures."""
    return _modification_violations(
        "RMM", ComponentType.REPOSITORY, ComponentType.SERVICE,
        _repository_method_flags, baseline, d, increment,
    )


# ---------------------------------------------------------------------------
# Generic rule evaluation
# ---------------------------------------------------------------------------


def _component_touches_virtual(
    token: str, old_comp: Component | None, new_comp: Component | None
) -> bool:
    """Whether the change alters the component's endpoints or its calls."""
    old, new = (
        frozenset() if comp is None
        else frozenset(comp.endpoints) if token == "Endpoint"
        else comp.rest_calls()
        for comp in (old_comp, new_comp)
    )
    return bool(old or new) and (old_comp is None or new_comp is None or old != new)


def _change_matches(
    change: ComponentChange,
    flt: ChangedComponentFilter,
    baseline: SystemIR | None,
) -> bool:
    if not flt.change_types & {"All", _KIND_TO_CHANGE_TYPE[change.kind]}:
        return False
    if change.component_id.component_type.value in flt.component_types:
        return True
    old_comp = baseline.component(change.component_id) if baseline else None
    return any(
        _component_touches_virtual(token, old_comp, change.new_component)
        for token in flt.component_types & {"Endpoint", "Call"}
    )


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
) -> list[ImpactedItem]:
    ctype = rule.monitored_impact.component_type
    impact = rule.monitored_impact.impact_type
    if ctype in ("Call", "Endpoint"):
        index = LinkIndex.of(increment)
        if ctype == "Call":
            members = [
                (call in index.unmatched, "restCall", call.signature(), m.name)
                for m in comp.methods
                for call in m.rest_calls
            ]
        else:
            members = [
                (ep not in index.callers, "endpoint", ep.signature(), ep.handler_method)
                for ep in comp.endpoints
            ]
        inconsistent = _is_inconsistent(comp, baseline)
        return [
            ImpactedItem(comp.id, kind, evidence, site)
            for unlinked, kind, evidence, site in members
            if (unlinked if impact in ("Unmatched", "Unused") else inconsistent)
        ]
    if comp.id.component_type.value != ctype:
        return []
    if impact == "Inconsistent":
        hit, evidence = _is_inconsistent(comp, baseline), "content changed"
    elif impact == "Unmatched":
        hit, evidence = not _has_cross_edge(comp.id, increment), "no cross-service link"
    elif impact == "Unused":
        hit, evidence = not _has_inbound(comp.id, increment), "no inbound dependency"
    else:  # pragma: no cover - the rule reader keeps this unreachable
        raise RuleBindingError(f"unsupported impact type {impact!r}")
    return [ImpactedItem(comp.id, "component", evidence)] if hit else []


def _is_inconsistent(comp: Component, baseline: SystemIR | None) -> bool:
    old = baseline.component(comp.id) if baseline is not None else None
    return old is not None and old.content_hash != comp.content_hash


def _has_cross_edge(cid: ComponentId, system: SystemIR) -> bool:
    return bool(Incidence.of(system).edges(cid))


def _has_inbound(cid: ComponentId, system: SystemIR) -> bool:
    service = system.services.get(cid.microservice)
    return bool(service and cid in service.callers) or _has_cross_edge(cid, system)


def _generic_violations(
    rule: Rule,
    comps: Iterable[Component],
    increment: SystemIR,
    baseline: SystemIR | None,
    triggering: Sequence[TriggerItem] = (),
) -> list[Violation]:
    """One violation per impacted item of each of ``comps``."""
    return [
        make_violation(rule.name, None, [item], triggering)
        for comp in comps
        for item in _impact_items_for_component(rule, comp, increment, baseline)
    ]


def _evaluate_generic_system(
    rule: Rule, increment: SystemIR, *, baseline: SystemIR | None, deltas: Sequence
) -> list[Violation]:
    return _generic_violations(rule, increment.iter_components(), increment, baseline)


def _evaluate_generic_delta(
    rule: Rule, baseline: SystemIR, d: Delta, increment: SystemIR
) -> list[Violation]:
    seeds: list[ComponentChange] = [
        change
        for change in d.changes
        if any(_change_matches(change, flt, baseline) for flt in rule.changed_components)
    ]
    reached = {ch.component_id for ch in seeds}
    for ch in seeds:
        reached.update(_neighbours(increment, ch.component_id))
    # a component this delta deleted has no impacted items
    comps = filter(None, map(increment.component, sorted(reached, key=str)))
    triggering = [TriggerItem(ch.component_id, ch.kind) for ch in seeds]
    return _generic_violations(rule, comps, increment, baseline, triggering)


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
    the shared baseline.  Results come by rule name, each rule's in
    dedup-key order with one violation per key, the first found.  The IC and
    UEM detectors return their runs in that form already.
    """
    # Looked up at call time, so that a detector replaced on the module runs.
    on_system = {"IC": detect_invalid_calls, "UEM": detect_uncalled_endpoints}
    on_delta = {
        "SMM": detect_service_method_modifications,
        "RMM": detect_repository_method_modifications,
    }
    found: dict[str, list[list[Violation]]] = {}
    carried = set()  # the names whose first run is a detector's finished one
    for rule in rules:
        runs = found.setdefault(rule.name, [])
        if "System" in rule.analysis_levels:
            if rule.name in on_system and not runs:
                carried.add(rule.name)
            detect = on_system.get(rule.name, partial(_evaluate_generic_system, rule))
            runs.append(detect(increment, baseline=baseline, deltas=deltas))
        if "Delta" in rule.analysis_levels and baseline is not None:
            detect = on_delta.get(rule.name, partial(_evaluate_generic_delta, rule))
            runs += (detect(baseline, d, increment) for d in deltas)
    violations: list[Violation] = []
    for name in sorted(found):
        runs = found[name]
        if name in carried and len(runs) == 1:
            violations += runs[0]
        else:
            unique: dict[str, Violation] = {}
            for v in chain.from_iterable(runs):
                unique.setdefault(v.dedup_key, v)
            violations += sorted(unique.values(), key=_KEY)
    return violations


def evaluate(
    baseline: SystemIR | None,
    d: Delta | None,
    increment: SystemIR,
    rules: Sequence[Rule],
) -> list[Violation]:
    """Evaluate rules for one increment derived from one delta."""
    deltas = [d] if d is not None else []
    return evaluate_many(baseline, deltas, increment, rules)
