from __future__ import annotations

import pytest

from archdelta.delta import apply_to_service, compose_deltas, compute_delta, empty_delta
from archdelta.errors import DeltaError, MergeError, StaleBaselineError
from archdelta.extractor import resolve_call_graph, scan_repository
from archdelta.model import (
    ChangeKind,
    ComponentChange,
    ComponentType,
    Delta,
    Method,
    MicroserviceIR,
    component_id,
    make_component,
    make_delta,
    method_content_hash,
)
from archdelta.profiles import default_profile

PROFILE = default_profile()


def _ir(name: str, version: str, comps: dict) -> MicroserviceIR:
    return MicroserviceIR(name, version, comps, resolve_call_graph(comps))


def _component(service: str, qname: str, body: str, ctype=ComponentType.SERVICE):
    cid = component_id(service, ctype, qname)
    return make_component(
        cid,
        methods=[Method(name="run", content_hash=method_content_hash(body))],
        source_path=f"{qname}.java",
    )


def test_identical_versions_give_empty_delta():
    comp = _component("svc", "p.A", "x();")
    old = _ir("svc", "v0", {comp.id: comp})
    new = _ir("svc", "v1", {comp.id: comp})
    d = compute_delta(old, new)
    assert d.is_empty()
    assert (d.old_version_id, d.new_version_id) == ("v0", "v1")


def test_delta_covers_all_three_change_kinds():
    kept = _component("svc", "p.Kept", "k();")
    changed_old = _component("svc", "p.S", "a();")
    changed_new = _component("svc", "p.S", "b();")
    removed = _component("svc", "p.C", "c();", ComponentType.CONTROLLER)
    added = _component("svc", "p.R", "r();", ComponentType.REPOSITORY)
    old = _ir("svc", "v0", {c.id: c for c in (kept, changed_old, removed)})
    new = _ir("svc", "v1", {c.id: c for c in (kept, changed_new, added)})
    d = compute_delta(old, new)
    kinds = {str(c.component_id): c.kind for c in d.changes}
    assert kinds == {
        str(removed.id): ChangeKind.DELETE,
        str(added.id): ChangeKind.ADD,
        str(changed_old.id): ChangeKind.MODIFY,
    }
    modify = next(c for c in d.changes if c.kind is ChangeKind.MODIFY)
    assert modify.old_content_hash == changed_old.content_hash
    assert modify.new_component == changed_new


def test_compute_delta_rejects_different_services():
    a = _ir("svc-a", "v0", {})
    b = _ir("svc-b", "v1", {})
    with pytest.raises(DeltaError):
        compute_delta(a, b)


def test_apply_is_inverse_of_compute(history_versions):
    old = scan_repository(history_versions[0] / "ts-order", PROFILE, "ts-order", "v0")
    new = scan_repository(history_versions[1] / "ts-order", PROFILE, "ts-order", "v1")
    d = compute_delta(old, new)
    assert not d.is_empty()
    assert apply_to_service(old, d) == new


def test_apply_detects_missing_target():
    comp = _component("svc", "p.A", "x();")
    ghost = _component("svc", "p.Ghost", "g();")
    base = _ir("svc", "v0", {comp.id: comp})
    d = Delta(
        "svc",
        "v0",
        "v1",
        (
            ComponentChange(
                ChangeKind.DELETE, ghost.id, old_content_hash=ghost.content_hash
            ),
        ),
    )
    with pytest.raises(MergeError):
        apply_to_service(base, d)


def test_apply_detects_stale_baseline():
    comp_v0 = _component("svc", "p.A", "x();")
    comp_v1 = _component("svc", "p.A", "y();")
    comp_v2 = _component("svc", "p.A", "z();")
    base_v0 = _ir("svc", "v0", {comp_v0.id: comp_v0})
    base_v1 = _ir("svc", "v1", {comp_v1.id: comp_v1})
    d = compute_delta(base_v1, _ir("svc", "v2", {comp_v2.id: comp_v2}))
    with pytest.raises(StaleBaselineError):
        apply_to_service(base_v0, d)  # delta was computed against v1, not v0


@pytest.mark.parametrize("kind", [ChangeKind.MODIFY, ChangeKind.DELETE])
@pytest.mark.parametrize(
    "qname, recorded, error, message",
    [
        (
            "p.Ghost",
            None,
            MergeError,
            "{kind} of unknown component svc::Service::p.Ghost",
        ),
        (
            "p.A",
            "f" * 64,
            StaleBaselineError,
            "{kind} of svc::Service::p.A: baseline hash {held} does not match "
            "recorded ffffffffffff",
        ),
    ],
    ids=["unknown", "stale"],
)
def test_apply_rejects_a_change_to_a_component_it_does_not_hold(
    kind, qname, recorded, error, message
):
    comp = _component("svc", "p.A", "x();")
    base = _ir("svc", "v0", {comp.id: comp})
    target = _component("svc", qname, "y();")
    change = ComponentChange(
        kind,
        target.id,
        new_component=target if kind is ChangeKind.MODIFY else None,
        old_content_hash=recorded or target.content_hash,
    )
    with pytest.raises(MergeError) as excinfo:
        apply_to_service(base, Delta("svc", "v0", "v1", (change,)))
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message.format(
        kind=kind.value, held=comp.content_hash[:12]
    )


def test_compose_identity():
    comp_old = _component("svc", "p.A", "a();")
    comp_new = _component("svc", "p.A", "b();")
    d = compute_delta(
        _ir("svc", "v0", {comp_old.id: comp_old}),
        _ir("svc", "v1", {comp_new.id: comp_new}),
    )
    assert compose_deltas(d, empty_delta("svc", "v1")) == d
    assert compose_deltas(empty_delta("svc", "v0"), d) == d


def test_compose_add_then_delete_cancels():
    comp = _component("svc", "p.A", "a();")
    base = _ir("svc", "v0", {})
    with_comp = _ir("svc", "v1", {comp.id: comp})
    d1 = compute_delta(base, with_comp)
    d2 = compute_delta(with_comp, _ir("svc", "v2", {}))
    combined = compose_deltas(d1, d2)
    assert combined.is_empty()
    assert (combined.old_version_id, combined.new_version_id) == ("v0", "v2")


def test_compose_modify_chain_keeps_earliest_hash():
    v0 = _component("svc", "p.A", "a();")
    v1 = _component("svc", "p.A", "b();")
    v2 = _component("svc", "p.A", "c();")
    d1 = compute_delta(_ir("svc", "v0", {v0.id: v0}), _ir("svc", "v1", {v1.id: v1}))
    d2 = compute_delta(_ir("svc", "v1", {v1.id: v1}), _ir("svc", "v2", {v2.id: v2}))
    combined = compose_deltas(d1, d2)
    [change] = combined.changes
    assert change.kind is ChangeKind.MODIFY
    assert change.old_content_hash == v0.content_hash
    assert change.new_component == v2


def test_compose_delete_then_readd_unchanged_cancels():
    comp = _component("svc", "p.A", "a();")
    with_comp = _ir("svc", "v0", {comp.id: comp})
    without = _ir("svc", "v1", {})
    readded = _ir("svc", "v2", {comp.id: comp})
    d1 = compute_delta(with_comp, without)
    d2 = compute_delta(without, readded)
    assert compose_deltas(d1, d2).is_empty()


def test_compose_delete_then_readd_changed_is_modify():
    before = _component("svc", "p.A", "a();")
    after = _component("svc", "p.A", "b();")
    d1 = compute_delta(
        _ir("svc", "v0", {before.id: before}), _ir("svc", "v1", {})
    )
    d2 = compute_delta(_ir("svc", "v1", {}), _ir("svc", "v2", {after.id: after}))
    [change] = compose_deltas(d1, d2).changes
    assert change.kind is ChangeKind.MODIFY
    assert change.old_content_hash == before.content_hash
    assert change.new_component == after


def test_compose_rejects_broken_version_chain():
    comp = _component("svc", "p.A", "a();")
    d1 = compute_delta(_ir("svc", "v0", {}), _ir("svc", "v1", {comp.id: comp}))
    d2 = compute_delta(_ir("svc", "v5", {comp.id: comp}), _ir("svc", "v6", {}))
    with pytest.raises(DeltaError):
        compose_deltas(d1, d2)


@pytest.mark.parametrize(
    "second, message",
    [
        (
            lambda first: empty_delta("svc-b", "v1"),
            "cannot compose deltas of different services: 'svc' vs 'svc-b'",
        ),
        (
            lambda first: Delta("svc", "v1", "v2", first.changes),
            "invalid change sequence ADD then ADD for svc::Service::p.A",
        ),
    ],
    ids=["two-services", "add-then-add"],
)
def test_compose_rejects_deltas_that_do_not_follow_each_other(second, message):
    comp = _component("svc", "p.A", "a();")
    first = compute_delta(_ir("svc", "v0", {}), _ir("svc", "v1", {comp.id: comp}))
    with pytest.raises(DeltaError) as excinfo:
        compose_deltas(first, second(first))
    assert str(excinfo.value) == message


def test_apply_rejects_another_services_delta():
    d = empty_delta("svc-b", "v0")
    with pytest.raises(DeltaError) as excinfo:
        apply_to_service(_ir("svc-a", "v0", {}), d)
    assert str(excinfo.value) == "delta for 'svc-b' applied to service 'svc-a'"


def test_apply_rejects_an_add_of_a_present_component():
    comp = _component("svc", "p.A", "a();")
    base = _ir("svc", "v0", {comp.id: comp})
    d = compute_delta(_ir("svc", "v0", {}), base)
    with pytest.raises(MergeError) as excinfo:
        apply_to_service(base, d)
    assert type(excinfo.value) is MergeError
    assert str(excinfo.value) == "ADD of already-present component svc::Service::p.A"


def _change(kind, comp, old_hash=None):
    """A change of ``kind`` that carries ``comp``."""
    return ComponentChange(kind, comp.id, new_component=comp, old_content_hash=old_hash)


@pytest.mark.parametrize(
    "changes, message",
    [
        (
            lambda a: [_change(ChangeKind.ADD, a), _change(ChangeKind.ADD, a)],
            "component svc::Service::p.A appears twice in delta",
        ),
        (
            lambda a: [_change(ChangeKind.DELETE, a, a.content_hash)],
            "DELETE entry must not carry a component",
        ),
        (
            lambda a: [_change(ChangeKind.ADD, a, a.content_hash)],
            "ADD entry must not carry an old hash",
        ),
    ],
    ids=["repeated-id", "delete-with-component", "add-with-old-hash"],
)
def test_make_delta_rejects_a_malformed_change(changes, message):
    comp = _component("svc", "p.A", "a();")
    with pytest.raises(ValueError) as excinfo:
        make_delta("svc", "v0", "v1", changes(comp))
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message
