"""Seeded generator of multi-service Spring/Java systems and their ground truth.

A system is a set of services.  Each service holds a fixed number of domain
modules plus one health controller, and each module renders as a controller,
a service class, a repository and an entity.  Service classes make
cross-service calls through ``RestTemplate``:

* most name their target host literally and hit an endpoint of that service;
* some build the URL from a non-literal base (the host is ``UNRESOLVED``) and
  hit an endpoint whose verb and path exist nowhere else;
* a few are dangling: a literal host, but a path no service serves;
* a few are ambiguous: an unresolved host and ``GET /api/health/status``,
  which every service serves.

The generator keeps its own model of endpoints, calls and entity fields.
``Model.truth`` derives the expected link and rule counts from that model by
the matching rules of the paper, so the benchmark checks archdelta against
the model and never against archdelta's own output.  Edits mutate the model
and re-render exactly one file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

UNRESOLVED = "UNRESOLVED"

# Endpoint operations a controller may serve: name -> (verb, path suffix).
OPS = {
    "get": ("GET", "/{id}"),
    "create": ("POST", "/create"),
    "update": ("PUT", "/{id}"),
    "remove": ("DELETE", "/{id}"),
    "search": ("GET", "/search"),
    "status": ("PATCH", "/{id}/status"),
    "export": ("GET", "/export"),
}
HEALTH_PATH = "/api/health/status"

_MAPPING = {
    "GET": "GetMapping",
    "POST": "PostMapping",
    "PUT": "PutMapping",
    "DELETE": "DeleteMapping",
    "PATCH": "PatchMapping",
}

SERVICE_WORDS = (
    "account", "audit", "billing", "booking", "cart", "catalog", "checkout",
    "coupon", "delivery", "device", "email", "fleet", "gateway", "invoice",
    "ledger", "loyalty", "media", "metrics", "notify", "order", "partner",
    "payment", "pricing", "profile", "quote", "rating", "refund", "report",
    "route", "search", "session", "shipping", "station", "stock", "tax",
    "ticket", "travel", "user", "voucher", "wallet",
)
MODULE_WORDS = (
    "Address", "Asset", "Batch", "Card", "Claim", "Contract", "Customer",
    "Discount", "Event", "Fare", "Item", "Journey", "Label", "Lease", "Member",
    "Note", "Offer", "Parcel", "Plan", "Policy", "Receipt", "Record", "Seat",
    "Slot", "Tariff", "Token", "Trip", "Unit", "Visit", "Zone",
)
FIELD_WORDS = (
    "amount", "balance", "channel", "city", "code", "country", "createdAt",
    "currency", "customerId", "deadline", "email", "expiresAt", "label",
    "locale", "name", "orderId", "owner", "phone", "price", "priority",
    "quantity", "region", "score", "status", "tags", "total", "updatedAt",
    "version", "weight", "zip",
)


@dataclass(frozen=True)
class Shape:
    """Size and mix of one generated system."""

    services: int
    modules: int  # domain modules per service
    endpoints: int  # endpoints each controller starts with, of len(OPS)
    calls: int  # remote calls per service class
    unresolved: float  # share of calls with a non-literal host, ambiguous included
    dangling: float  # share of calls to a path no service serves
    ambiguous: float  # share of calls that match several services
    fields: tuple[int, int]  # entity field count range, besides ``id``
    vocabulary: int  # entity field words, shared by every service

    def component_count(self) -> int:
        return self.services * (4 * self.modules + 1)


@dataclass
class Call:
    """One remote call; ``host`` None means a non-literal base URL."""

    verb: str
    host: str | None
    path: str  # template; ``{id}`` marks where the URL splices a variable

    def shape(self) -> tuple[str, str]:
        return self.verb, normal_path(self.path)


@dataclass
class Module:
    service: str
    name: str
    ops: dict[str, bool]  # operation -> endpoint present
    calls: list[Call]
    fields: list[str]
    limit: int = 7  # a literal in ``find``; plain body edits change it
    audited: bool = False  # ``find`` calls a method on the object it returns
    query: bool = True  # ``findById`` carries ``@Query``
    id_type: str = "String"  # declared type of the ``findById`` parameter

    @property
    def base(self) -> str:
        return f"/api/{self.service}/{self.name.lower()}"


@dataclass(frozen=True)
class Edit:
    """One single-file change and the delta rules it must trigger."""

    kind: str  # body | usage | endpoint | retarget | entity | repository
    service: str
    module: str
    path: str  # file path relative to the system root
    smm: int = 0  # SMM violations the edit must raise
    rmm: int = 0  # RMM violations the edit must raise


@dataclass(frozen=True)
class Truth:
    """Expected link and system-rule counts of one model state."""

    remote_edges: int  # distinct calls matched to another service's endpoint
    ic: int  # distinct unmatched calls per (component, verb, host, path)
    uem: int  # endpoints no call matches


def normal_path(template: str) -> str:
    return template.replace("{id}", "{*}")


def _package(service: str) -> str:
    return "com.bench." + service.replace("-", "")


def _java_string_concat(prefix: str, template: str) -> str:
    """URL expression: ``prefix`` + literal text, ``{id}`` spliced as a variable."""
    pieces = template.split("{id}")
    parts = [prefix] if prefix else []
    for i, piece in enumerate(pieces):
        if i:
            parts.append("id")
        if piece:
            parts.append(f'"{piece}"')
    return " + ".join(parts)


@dataclass
class Model:
    shape: Shape
    services: list[str]
    modules: dict[str, list[Module]]  # service -> modules
    vocabulary: list[str]
    rng: random.Random = field(repr=False)
    _missing: int = 0  # dangling paths handed out so far

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def generate(cls, shape: Shape, seed: int, label: str) -> "Model":
        rng = random.Random(f"{seed}:{label}")
        words = rng.sample(SERVICE_WORDS, min(shape.services, len(SERVICE_WORDS)))
        services = [
            f"{words[i % len(words)]}-{i:02d}" for i in range(shape.services)
        ]
        vocabulary = rng.sample(FIELD_WORDS, shape.vocabulary)
        modules: dict[str, list[Module]] = {}
        for svc in services:
            modules[svc] = []
            for name in rng.sample(MODULE_WORDS, shape.modules):
                present = set(rng.sample(sorted(OPS), shape.endpoints))
                modules[svc].append(
                    Module(
                        service=svc,
                        name=name,
                        ops={op: op in present for op in OPS},
                        calls=[],
                        fields=rng.sample(vocabulary, rng.randint(*shape.fields)),
                    )
                )
        model = cls(shape, services, modules, vocabulary, rng)
        model._assign_calls()
        return model

    def _assign_calls(self) -> None:
        shape = self.shape
        total = shape.services * shape.modules * shape.calls
        ambiguous = max(1, round(total * shape.ambiguous))
        dangling = max(1, round(total * shape.dangling))
        unresolved = max(0, round(total * shape.unresolved) - ambiguous)
        kinds = (
            ["ambiguous"] * ambiguous
            + ["dangling"] * dangling
            + ["unresolved"] * unresolved
        )
        kinds += ["resolved"] * (total - len(kinds))
        self.rng.shuffle(kinds)
        slots = iter(kinds)
        for svc in self.services:
            for mod in self.modules[svc]:
                mod.calls = [self._new_call(svc, next(slots)) for _ in range(shape.calls)]

    def _new_call(self, caller: str, kind: str) -> Call:
        rng = self.rng
        if kind == "ambiguous":
            return Call("GET", None, HEALTH_PATH)
        target = rng.choice([s for s in self.services if s != caller])
        if kind == "dangling":
            self._missing += 1
            mod = rng.choice(self.modules[target])
            return Call("GET", target, f"{mod.base}/gone{self._missing}")
        if kind == "resolved" and rng.random() < 0.1:
            return Call("GET", target, HEALTH_PATH)
        mod = rng.choice(self.modules[target])
        live = [op for op, on in mod.ops.items() if on] or list(OPS)
        verb, suffix = OPS[rng.choice(live)]
        return Call(verb, target if kind == "resolved" else None, mod.base + suffix)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    def endpoints(self) -> list[tuple[str, str, str, str]]:
        """(service, controller, verb, normalized path) of every endpoint."""
        out = []
        for svc in self.services:
            out.append((svc, "HealthController", "GET", HEALTH_PATH))
            for mod in self.modules[svc]:
                for op, on in mod.ops.items():
                    if on:
                        verb, suffix = OPS[op]
                        out.append(
                            (svc, f"{mod.name}Controller", verb, normal_path(mod.base + suffix))
                        )
        return out

    def truth(self) -> Truth:
        """Expected RemoteCall edges and IC and UEM counts."""
        served: dict[tuple[str, str, str], tuple] = {}
        by_shape: dict[tuple[str, str], list[tuple]] = {}
        endpoints = self.endpoints()
        for ep in endpoints:
            served[(ep[0], ep[2], ep[3])] = ep
            by_shape.setdefault((ep[2], ep[3]), []).append(ep)
        hit: set[tuple] = set()
        unmatched: set[tuple] = set()
        edges = 0
        for svc in self.services:
            for mod in self.modules[svc]:
                for call in mod.calls:
                    verb, path = call.shape()
                    if call.host is not None:
                        endpoint = served.get((call.host, verb, path))
                    else:
                        candidates = by_shape.get((verb, path), [])
                        endpoint = candidates[0] if len(candidates) == 1 else None
                    if endpoint is None:
                        unmatched.add(
                            (svc, mod.name, verb, call.host or UNRESOLVED, path)
                        )
                        continue
                    hit.add(endpoint)
                    if endpoint[0] != svc:
                        edges += 1
        return Truth(
            remote_edges=edges,
            ic=len(unmatched),
            uem=len(endpoints) - len(hit),
        )

    def overlap_pairs(self) -> set[tuple]:
        """Cross-service entity pairs whose field-name Jaccard index is >= 0.5."""
        entities = [
            ((mod.service, mod.name), frozenset(["id", *(f.lower() for f in mod.fields)]))
            for svc in self.services
            for mod in self.modules[svc]
        ]
        pairs = set()
        for i, (ka, fa) in enumerate(entities):
            for kb, fb in entities[i + 1 :]:
                if ka[0] != kb[0] and 2 * len(fa & fb) >= len(fa | fb):
                    pairs.add((ka, kb))
        return pairs
        for i, (ka, fa) in enumerate(entities):
            for kb, fb in entities[i + 1 :]:
                if ka[0] != kb[0] and 2 * len(fa & fb) >= len(fa | fb):
                    pairs.add(tuple(sorted((ka, kb))))
        return pairs

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def _source_path(self, svc: str, cls_name: str) -> str:
        return f"{svc}/src/main/java/com/bench/{svc.replace('-', '')}/{cls_name}.java"

    def files(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for svc in self.services:
            out[f"{svc}/pom.xml"] = _POM.format(name=svc)
            out[self._source_path(svc, "HealthController")] = _HEALTH.format(
                package=_package(svc)
            )
            for mod in self.modules[svc]:
                for kind in ("Controller", "Service", "Repository", ""):
                    out[self._source_path(svc, mod.name + kind)] = self._render(mod, kind)
        return out

    def write(self, root: Path) -> None:
        for rel, text in self.files().items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

    def edited_text(self, edit: Edit) -> str:
        """Current text of the file an edit changed."""
        mod = next(m for m in self.modules[edit.service] if m.name == edit.module)
        return self._render(mod, _EDITED_FILE[edit.kind])

    def _render(self, mod: Module, kind: str) -> str:
        package = _package(mod.service)
        name = mod.name
        var = name[0].lower() + name[1:]
        if kind == "Controller":
            handlers = []
            for op, on in mod.ops.items():
                if not on:
                    continue
                verb, suffix = OPS[op]
                if "{id}" in suffix:
                    params, body = "@PathVariable String id", f"{var}Service.find(id)"
                else:
                    params, body = f"@RequestBody {name} body", f"{var}Service.store(body)"
                handlers.append(
                    f'    @{_MAPPING[verb]}("{suffix}")\n'
                    f"    public {name} {op}({params}) {{\n"
                    f"        return {body};\n"
                    "    }\n"
                )
            return (
                f"package {package};\n\n"
                "import org.springframework.web.bind.annotation.*;\n\n"
                "@RestController\n"
                f'@RequestMapping("{mod.base}")\n'
                f"public class {name}Controller {{\n\n"
                "    @Autowired\n"
                f"    private {name}Service {var}Service;\n\n"
                + "\n".join(handlers)
                + "}\n"
            )
        if kind == "Service":
            audit = "        item.audit();\n" if mod.audited else ""
            remote = "\n".join(
                self._render_call(i, call) for i, call in enumerate(mod.calls)
            )
            return (
                f"package {package};\n\n"
                "import org.springframework.stereotype.Service;\n\n"
                "@Service\n"
                f"public class {name}Service {{\n\n"
                "    @Autowired\n"
                f"    private {name}Repository {var}Repository;\n\n"
                "    @Autowired\n"
                "    private RestTemplate restTemplate;\n\n"
                "    private String baseUrl;\n\n"
                f"    public {name} find(String id) {{\n"
                f"        {name} item = {var}Repository.findById(id);\n"
                f"        int limit = {mod.limit};\n"
                f"{audit}"
                "        return item;\n"
                "    }\n\n"
                f"    public {name} store({name} item) {{\n"
                f"        return {var}Repository.save(item);\n"
                "    }\n\n"
                f"{remote}"
                "}\n"
            )
        if kind == "Repository":
            query = (
                f'    @Query("SELECT e FROM {name} e WHERE e.id = ?1")\n'
                if mod.query
                else ""
            )
            return (
                f"package {package};\n\n"
                "import org.springframework.stereotype.Repository;\n\n"
                "@Repository\n"
                f"public interface {name}Repository {{\n\n"
                f"{query}"
                f"    {name} findById({mod.id_type} id);\n\n"
                f"    {name} save({name} item);\n"
                "}\n"
            )
        fields = "".join(f"    private String {f};\n" for f in mod.fields)
        return (
            f"package {package};\n\n"
            "import javax.persistence.Entity;\n\n"
            "@Entity\n"
            f"public class {name} {{\n"
            "    private String id;\n"
            f"{fields}"
            "}\n"
        )

    @staticmethod
    def _render_call(index: int, call: Call) -> str:
        if call.host is None:
            url = _java_string_concat("baseUrl", call.path)
        else:
            url = _java_string_concat("", f"http://{call.host}{call.path}")
        invoke = {
            "GET": f"restTemplate.getForObject({url}, String.class)",
            "POST": f"restTemplate.postForObject({url}, id, String.class)",
            "PATCH": f"restTemplate.patchForObject({url}, id, String.class)",
        }.get(call.verb)
        if invoke is None:
            method = "put" if call.verb == "PUT" else "delete"
            extra = ", id" if call.verb == "PUT" else ""
            body = f"        restTemplate.{method}({url}{extra});\n        return id;\n"
        else:
            body = f"        String reply = {invoke};\n        return reply;\n"
        return f"    public String call{index}(String id) {{\n{body}    }}\n"

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------

    EDIT_WEIGHTS = (
        ("body", 15),
        ("usage", 15),
        ("endpoint", 15),
        ("retarget", 20),
        ("entity", 15),
        ("repository", 20),
    )

    def random_edit(self, service: str | None = None, avoid: set[str] = frozenset()) -> Edit:
        """Apply one random single-file edit to the model and describe it.

        ``service`` pins the edited service; files in ``avoid`` are not chosen.
        Every edit changes the rendered file.
        """
        rng = self.rng
        kinds, weights = zip(*self.EDIT_WEIGHTS)
        while True:
            kind = rng.choices(kinds, weights)[0]
            svc = service or rng.choice(self.services)
            mod = rng.choice(self.modules[svc])
            path = self._source_path(svc, mod.name + _EDITED_FILE[kind])
            retargetable = [
                i for i, c in enumerate(mod.calls) if c.host is not None or c.path != HEALTH_PATH
            ]
            if path not in avoid and (kind != "retarget" or retargetable):
                break
        smm = rmm = 0
        if kind == "body":
            mod.limit = rng.choice([v for v in range(2, 50) if v != mod.limit])
        elif kind == "usage":
            mod.audited = not mod.audited
            smm = 1
        elif kind == "endpoint":
            op = rng.choice(sorted(OPS))
            mod.ops[op] = not mod.ops[op]
        elif kind == "retarget":
            # keeps the call's kind, so the mix of hosts and dangling calls holds
            i = rng.choice(retargetable)
            old = mod.calls[i]
            if "/gone" in old.path:
                call_kind = "dangling"
            else:
                call_kind = "resolved" if old.host is not None else "unresolved"
            new = old
            while new == old:
                new = self._new_call(svc, call_kind)
            mod.calls[i] = new
        elif kind == "entity":
            i = rng.randrange(len(mod.fields))
            mod.fields[i] = rng.choice([w for w in self.vocabulary if w not in mod.fields])
        else:
            if rng.random() < 0.5:
                mod.query = not mod.query
            else:
                mod.id_type = "Long" if mod.id_type == "String" else "String"
            rmm = 1
        return Edit(kind, svc, mod.name, path, smm=smm, rmm=rmm)


_EDITED_FILE = {
    "body": "Service",
    "usage": "Service",
    "retarget": "Service",
    "endpoint": "Controller",
    "repository": "Repository",
    "entity": "",
}

_POM = """<?xml version="1.0" encoding="UTF-8"?>
<project>
  <modelVersion>4.0.0</modelVersion>
  <groupId>bench</groupId>
  <artifactId>{name}</artifactId>
  <version>1.0.0</version>
</project>
"""

_HEALTH = """package {package};

import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping("/api/health")
public class HealthController {{

    @GetMapping("/status")
    public String status() {{
        return "ok";
    }}
}}
"""
