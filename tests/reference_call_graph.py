"""The intra-service call graph as it was resolved before ``Method`` kept its
parsed call targets, kept as the tests' reference.

Every resolution parses every body call target with the target regex again,
and a method's arity is its ``arity`` property.  ``resolve_call_graph`` must
give the same edges as this does.
"""

from __future__ import annotations

import re
from typing import Mapping

from archdelta.extractor import _simple_type
from archdelta.model import Component, ComponentId

_TARGET_RE = re.compile(r"^(?:(.+)\.)?(\w+)/(\d+)$")


def parse_call_target(target: str) -> tuple[str | None, str, int]:
    m = _TARGET_RE.match(target)
    if not m:
        return None, target, 0
    receiver, name, arity = m.groups()
    return receiver, name, int(arity)


def resolve_call_graph(
    components: Mapping[ComponentId, Component],
) -> frozenset[tuple[ComponentId, ComponentId]]:
    by_class: dict[str, set[ComponentId]] = {}
    by_sig: dict[tuple[str, int], set[ComponentId]] = {}
    for cid, comp in components.items():
        by_class.setdefault(_simple_type(cid.qualified_name), set()).add(cid)
        for m in comp.methods:
            by_sig.setdefault((m.name, m.arity), set()).add(cid)
    edges: set[tuple[ComponentId, ComponentId]] = set()
    for cid, comp in components.items():
        for m in comp.methods:
            for target in m.body_call_targets:
                receiver, name, arity = parse_call_target(target)
                if receiver is not None:
                    candidates = by_class.get(receiver, set())
                else:
                    candidates = by_sig.get((name, arity), set())
                for other in candidates:
                    if other != cid:
                        edges.add((cid, other))
    return frozenset(edges)
