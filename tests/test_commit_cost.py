"""A commit's work follows the commit, not the system.

These tests count work, not time: the nodes ``impact_set`` expands and the
cross edges ``apply_delta`` validates, per commit, and the entity pairs whose
overlap it computes, per entity-field commit, on synthetic systems of 24 and
96 services that receive the same kinds of commit.  Every service talks
to a fixed number of others, so a commit's neighbourhood has the same size
at both scales, and so must its work.  A build of the same systems computes
the overlap of each entity pair at most once.
"""

from __future__ import annotations

from collections import Counter

import pytest

from archdelta import impact, linker
from archdelta.delta import compute_delta
from archdelta.extractor import resolve_call_graph
from archdelta.impact import impact_set
from archdelta.linker import build_system_ir
from archdelta.merge import apply_delta
from archdelta.model import (
    ComponentType,
    Endpoint,
    Entity,
    EntityField,
    Method,
    MicroserviceIR,
    Parameter,
    RestCall,
    component_id,
    make_component,
    method_content_hash,
)


def _service(
    i: int, n: int, body: str = "", post: bool = True, hop: int = 1, field: str = "c"
) -> MicroserviceIR:
    """Service ``i`` of a ring of ``n``.

    Its controller serves GET and, with ``post``, POST, and calls the service
    class, which calls the repository and the controllers of services
    ``i + hop`` and ``i + 3``.  Its entity shares its fields with the
    entities of the other services in its block of four.
    """
    name = f"svc{i}"
    api = component_id(name, ComponentType.CONTROLLER, f"s{i}.Api")
    core = component_id(name, ComponentType.SERVICE, f"s{i}.Core")
    repo = component_id(name, ComponentType.REPOSITORY, f"s{i}.Repo")
    item = component_id(name, ComponentType.ENTITY, f"s{i}.Item")
    endpoints = [Endpoint("GET", f"/s{i}/items/{{*}}", "get", api)]
    if post:
        endpoints.append(Endpoint("POST", f"/s{i}/items", "post", api))
    get, put = (i + hop) % n, (i + 3) % n
    calls = (
        RestCall("GET", f"svc{get}", f"/s{get}/items/{{*}}", "fetch", core),
        RestCall("POST", f"svc{put}", f"/s{put}/items", "fetch", core),
    )
    fields = ("id", f"b{i // 4}", f"{field}{i // 4}")
    comps = [
        make_component(
            api,
            methods=[Method("get", body_call_targets=("Core.work/0",))],
            endpoints=endpoints,
        ),
        make_component(
            core,
            methods=[
                Method(
                    "work",
                    return_type="Item",
                    body_call_targets=("Repo.find/1",),
                    content_hash=method_content_hash(body),
                ),
                Method("fetch", rest_calls=calls),
            ],
        ),
        make_component(
            repo,
            methods=[Method("find", (Parameter("id", "String"),), "Item")],
        ),
        make_component(
            item,
            entity_ref=Entity("Item", tuple(EntityField(f, "String") for f in fields)),
        ),
    ]
    components = {comp.id: comp for comp in comps}
    return MicroserviceIR(name, "v0", components, resolve_call_graph(components))


# The commit kinds, applied in turn to each committed service: a method body
# edit, an endpoint removed and added back, a call retargeted, an entity
# field renamed.
_COMMITS = [
    {"body": "edited"},
    {"body": "edited", "post": False},
    {"body": "edited"},
    {"body": "edited", "hop": 2},
    {"body": "edited", "hop": 2, "field": "d"},
]


def _work_per_commit(n: int, monkeypatch) -> tuple[float, float, float]:
    """Mean nodes expanded and cross edges validated per commit, and entity
    pairs compared per entity-field commit."""
    counts = {"expanded": 0, "validated": 0, "compared": 0}
    expand, validate = impact._expand, linker.validate_cross_edges
    overlap = linker.entity_overlap

    def counting_expand(*args):
        counts["expanded"] += 1
        return expand(*args)

    def counting_validate(system, edges):
        edges = list(edges)
        counts["validated"] += len(edges)
        validate(system, edges)

    def counting_overlap(a, b):
        counts["compared"] += 1
        return overlap(a, b)

    system = build_system_ir(_service(i, n) for i in range(n))
    with monkeypatch.context() as patch:
        patch.setattr(impact, "_expand", counting_expand)
        patch.setattr(linker, "validate_cross_edges", counting_validate)
        patch.setattr(linker, "entity_overlap", counting_overlap)
        commits = entity_commits = 0
        for i in (2, 9, 17):
            for change in _COMMITS:
                current = system.services[f"svc{i}"]
                d = compute_delta(current, _service(i, n, **change))
                impact_set(system, d)
                system = apply_delta(system, d)
                commits += 1
                entity_commits += "field" in change
    return (
        counts["expanded"] / commits,
        counts["validated"] / commits,
        counts["compared"] / entity_commits,
    )


def test_commit_work_does_not_grow_with_the_system(monkeypatch):
    small = _work_per_commit(24, monkeypatch)
    large = _work_per_commit(96, monkeypatch)
    names = ("nodes expanded", "edges validated", "entity pairs compared")
    for what, a, b in zip(names, small, large):
        assert a > 0 and b > 0, what
        assert max(a, b) <= 1.5 * min(a, b), f"{what}: {a} at 24, {b} at 96"
    # the work is a real neighbourhood's: a body edit reaches services that
    # call the changed one and services it calls
    system = build_system_ir(_service(i, 96) for i in range(96))
    d = compute_delta(system.services["svc9"], _service(9, 96, body="edited"))
    affected = impact_set(system, d).affected_services
    assert {"svc6", "svc8", "svc10", "svc12"} <= affected


@pytest.mark.parametrize("n", [24, 96])
@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_a_build_compares_each_entity_pair_at_most_once(monkeypatch, n, threshold):
    # A build adds every entity to the empty system: each one is paired with
    # those indexed before it, never with one indexed after it as well.
    compared: Counter = Counter()
    overlap = linker.entity_overlap

    def counting_overlap(a, b):
        compared[frozenset((id(a), id(b)))] += 1
        return overlap(a, b)

    services = [_service(i, n) for i in range(n)]
    monkeypatch.setattr(linker, "entity_overlap", counting_overlap)
    build_system_ir(services, threshold)
    assert max(compared.values()) == 1
    # at 0 every cross-service pair is a candidate, at 0.5 those of a block
    assert len(compared) == (n * (n - 1) // 2 if threshold == 0 else n // 4 * 6)
