"""Shared hypothesis strategies: random valid representations and edits."""

from __future__ import annotations

from hypothesis import strategies as st

from archdelta.extractor import resolve_call_graph
from archdelta.linker import build_system_ir
from archdelta.model import (
    ComponentId,
    ComponentType,
    Endpoint,
    Entity,
    EntityField,
    Method,
    MicroserviceIR,
    Parameter,
    RestCall,
    UNRESOLVED,
    component_id,
    make_component,
    method_content_hash,
)

_IDENT = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
_TYPE = st.sampled_from(["String", "Order", "int", "List<Order>", "Account", "void"])
_VERB = st.sampled_from(["GET", "POST", "PUT", "DELETE"])
_PATH = st.sampled_from(
    ["/api/a", "/api/a/{*}", "/api/b", "/x/y/{*}", "/things", "/things/{*}"]
)


@st.composite
def methods(draw, owning: ComponentId) -> Method:
    name = draw(_IDENT)
    params = tuple(
        Parameter(name=draw(_IDENT), declared_type=draw(_TYPE))
        for _ in range(draw(st.integers(0, 2)))
    )
    body = f"stmt{draw(st.integers(0, 10**9))}();"
    n_calls = draw(st.integers(0, 1))
    rest_calls = tuple(
        RestCall(
            http_method=draw(_VERB),
            target_service=draw(st.sampled_from([UNRESOLVED, "svc-a", "svc-b"])),
            path=draw(_PATH),
            site_method=f"{owning.qualified_name}.{name}",
            owning_component=owning,
        )
        for _ in range(n_calls)
    )
    targets = tuple(
        draw(st.sampled_from(["helper/0", "Order.getId/0", "save/1", "Repo.find/1"]))
        for _ in range(draw(st.integers(0, 2)))
    )
    return Method(
        name=name,
        parameters=params,
        return_type=draw(_TYPE),
        annotations=tuple(draw(st.lists(st.sampled_from(["Query(\"q\")", "Override"]), max_size=2))),
        body_call_targets=targets,
        rest_calls=rest_calls,
        content_hash=method_content_hash(body),
    )


@st.composite
def components(draw, service: str, qualified_name: str):
    ctype = draw(st.sampled_from(list(ComponentType)))
    cid = component_id(service, ctype, qualified_name)
    method_list = draw(st.lists(methods(cid), max_size=3))
    endpoints = ()
    entity = None
    if ctype is ComponentType.CONTROLLER:
        endpoints = tuple(
            Endpoint(
                http_method=draw(_VERB),
                path=draw(_PATH),
                handler_method=draw(_IDENT),
                owning_component=cid,
            )
            for _ in range(draw(st.integers(0, 2)))
        )
    if ctype is ComponentType.ENTITY:
        entity = Entity(
            name=qualified_name.rsplit(".", 1)[-1],
            fields=tuple(
                EntityField(field_name=draw(_IDENT), declared_type=draw(_TYPE))
                for _ in range(draw(st.integers(0, 4)))
            ),
            annotations=("Entity",),
        )
    return make_component(
        cid,
        methods=method_list,
        endpoints=endpoints,
        entity_ref=entity,
        source_path=f"src/{qualified_name}.java",
    )


@st.composite
def microservice_irs(draw, name: str | None = None, version: str = "v0"):
    service = name or draw(st.sampled_from(["svc-a", "svc-b", "svc-c"]))
    count = draw(st.integers(0, 4))
    comps = {}
    for i in range(count):
        comp = draw(components(service, f"pkg.Unit{i}"))
        comps[comp.id] = comp
    return MicroserviceIR(
        name=service,
        version_id=version,
        components=comps,
        call_graph_edges=resolve_call_graph(comps),
    )


@st.composite
def system_irs(draw):
    names = draw(
        st.lists(
            st.sampled_from(["svc-a", "svc-b", "svc-c"]),
            min_size=0,
            max_size=3,
            unique=True,
        )
    )
    services = [draw(microservice_irs(name=n)) for n in names]
    threshold = draw(st.sampled_from([0.3, 0.5, 0.8]))
    return build_system_ir(services, threshold)


@st.composite
def edited(draw, ir: MicroserviceIR, version: str):
    """A successor version of ``ir`` produced by random component edits."""
    comps = dict(ir.components)
    n_ops = draw(st.integers(0, 3))
    for _ in range(n_ops):
        op = draw(st.sampled_from(["add", "remove", "modify"]))
        if op == "remove" and comps:
            victim = draw(st.sampled_from(sorted(comps, key=str)))
            del comps[victim]
        elif op == "add":
            suffix = draw(st.integers(100, 999))
            comp = draw(components(ir.name, f"pkg.Added{suffix}"))
            comps[comp.id] = comp
        elif op == "modify" and comps:
            victim = draw(st.sampled_from(sorted(comps, key=str)))
            old = comps[victim]
            token = draw(st.integers(0, 10**6))
            bumped = Method(
                name="bump",
                parameters=(),
                return_type="void",
                annotations=(),
                body_call_targets=(),
                rest_calls=(),
                content_hash=method_content_hash(f"bump(); // {token}" + str(token)),
            )
            comps[victim] = make_component(
                old.id,
                methods=tuple(m for m in old.methods if m.name != "bump") + (bumped,),
                endpoints=old.endpoints,
                entity_ref=old.entity_ref,
                source_path=old.source_path,
            )
    return MicroserviceIR(
        name=ir.name,
        version_id=version,
        components=comps,
        call_graph_edges=resolve_call_graph(comps),
    )


@st.composite
def ir_chains(draw, length: int = 3):
    """A chain of successive versions of one service."""
    chain = [draw(microservice_irs(version="v0"))]
    for i in range(1, length + 1):
        chain.append(draw(edited(chain[-1], f"v{i}")))
    return chain


@st.composite
def entities(draw, min_fields: int = 0):
    names = draw(
        st.lists(_IDENT, min_size=min_fields, max_size=6, unique=True)
    )
    return Entity(
        name=draw(st.sampled_from(["Account", "Order", "User"])),
        fields=tuple(EntityField(field_name=n, declared_type="String") for n in names),
        annotations=("Entity",),
    )


# Link-churn strategies.  Endpoints and calls share a pool of two shapes, so
# that shapes collide within a service (duplicate endpoints) and across
# services (ambiguous UNRESOLVED calls), and edits make them appear and vanish.
# Call targets and types name the units of the same pool, so call edges and
# entity mentions come and go too, and entity fields share one vocabulary.
LINK_SERVICES = ("svc-a", "svc-b", "svc-c")
_LINK_SHAPE = st.sampled_from([("GET", "/api/a/{*}"), ("POST", "/api/a")])
_LINK_TARGET = st.sampled_from(
    ["Unit0.call0/0", "Unit1.call1/0", "Unit2.call0/0", "Added2.call0/0", "call0/0"]
)
_LINK_TYPE = st.sampled_from(["Unit0", "List<Unit1>", "Unit2", "Added3", "void"])
_LINK_FIELD = st.sampled_from(["id", "name", "owner", "total"])


@st.composite
def linked_components(draw, service: str, qualified_name: str, ctype=None):
    """A controller, service or entity component whose endpoints, calls, call
    targets, types and fields come from the pools."""
    ctype = ctype or draw(
        st.sampled_from(
            [ComponentType.CONTROLLER, ComponentType.SERVICE, ComponentType.ENTITY]
        )
    )
    cid = component_id(service, ctype, qualified_name)
    endpoints = []
    if ctype is ComponentType.CONTROLLER:
        for i, (verb, path) in enumerate(draw(st.lists(_LINK_SHAPE, max_size=2))):
            endpoints.append(Endpoint(verb, path, f"handle{i}", cid))
    entity = None
    if ctype is ComponentType.ENTITY:
        entity = Entity(
            name=qualified_name.rsplit(".", 1)[-1],
            fields=tuple(
                EntityField(field_name=name, declared_type="String")
                for name in draw(st.lists(_LINK_FIELD, max_size=4, unique=True))
            ),
            annotations=("Entity",),
        )
    method_list = []
    for i in range(draw(st.integers(0, 2))):
        calls = tuple(
            RestCall(
                http_method=verb,
                target_service=draw(
                    st.sampled_from([UNRESOLVED, UNRESOLVED, *LINK_SERVICES])
                ),
                path=path,
                site_method=f"{qualified_name}.call{i}",
                owning_component=cid,
            )
            for verb, path in draw(st.lists(_LINK_SHAPE, max_size=2))
        )
        body = f"call{i}(); // {draw(st.integers(0, 10**6))}"
        method_list.append(
            Method(
                name=f"call{i}",
                parameters=tuple(
                    Parameter("arg", t) for t in draw(st.lists(_LINK_TYPE, max_size=1))
                ),
                return_type=draw(_LINK_TYPE),
                body_call_targets=tuple(draw(st.lists(_LINK_TARGET, max_size=2))),
                rest_calls=calls,
                content_hash=method_content_hash(body),
            )
        )
    return make_component(
        cid,
        methods=method_list,
        endpoints=endpoints,
        entity_ref=entity,
        source_path=f"src/{qualified_name}.java",
    )


def _service(name: str, version: str, comps: dict) -> MicroserviceIR:
    return MicroserviceIR(name, version, comps, resolve_call_graph(comps))


@st.composite
def linked_irs(draw, name: str, version: str = "v0"):
    comps = {}
    for i in range(draw(st.integers(0, 3))):
        comp = draw(linked_components(name, f"pkg.Unit{i}"))
        comps[comp.id] = comp
    return _service(name, version, comps)


@st.composite
def relinked(draw, ir: MicroserviceIR, version: str):
    """A successor of ``ir``: components added, removed or redrawn in place."""
    comps = dict(ir.components)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["add", "remove", "modify"]))
        if op == "add":
            name = f"pkg.Added{draw(st.integers(0, 9))}"
            comp = draw(linked_components(ir.name, name))
            comps[comp.id] = comp
        elif comps:
            victim = draw(st.sampled_from(sorted(comps, key=str)))
            if op == "remove":
                del comps[victim]
            else:
                comps[victim] = draw(
                    linked_components(
                        ir.name, victim.qualified_name, victim.component_type
                    )
                )
    return _service(ir.name, version, comps)
