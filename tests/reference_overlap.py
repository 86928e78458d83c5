"""The all-pairs entity overlap, kept as the tests' reference.

This is how ``DataOverlap`` edges were found before the overlap index: every
pair of entities in different services is compared by ``entity_overlap``.
The indexed search must give the same edges, ``similarity`` bytes included.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from archdelta.linker import entity_overlap
from archdelta.model import DependencyEdge, EdgeKind, MicroserviceIR, OverlapEvidence


def reference_overlap_edges(
    services: Mapping[str, MicroserviceIR], threshold: float
) -> frozenset[DependencyEdge]:
    entity_components = [
        comp for name in sorted(services) for comp, _ in services[name].entities()
    ]
    edges = set()
    for comp_a, comp_b in itertools.combinations(entity_components, 2):
        if comp_a.id.microservice == comp_b.id.microservice:
            continue
        ent_a, ent_b = comp_a.entity_ref, comp_b.entity_ref
        if not ent_a.fields or not ent_b.fields:
            continue  # empty entities are excluded from overlap analysis
        similarity = entity_overlap(ent_a, ent_b)
        if similarity < threshold:
            continue
        source, target = sorted((comp_a.id, comp_b.id), key=str)
        edges.add(
            DependencyEdge(
                kind=EdgeKind.DATA_OVERLAP,
                source=source,
                target=target,
                evidence=OverlapEvidence(similarity=similarity),
            )
        )
    return frozenset(edges)
