from __future__ import annotations

import gc
import pickle
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_call_graph
import reference_walk
from corpus import ACCOUNT_ENTITY, ORDER_SERVICE_V0
from strategies import components

import archdelta.extractor as extractor
import archdelta.model as model
from archdelta.errors import AmbiguousMarkerError, ExtractionError
from archdelta.extractor import (
    BUILD_DESCRIPTORS,
    ScanWarning,
    classify_source_unit,
    discover_services,
    extract_component,
    extract_endpoints,
    extract_entity,
    parse_unit,
    resolve_call_graph,
    scan_repository,
)
from archdelta.documents import deserialize_microservice_ir, serialize_microservice_ir
from archdelta.model import (
    UNRESOLVED,
    ComponentType,
    MicroserviceIR,
    component_id,
    make_component,
)
from archdelta.profiles import default_profile

PROFILE = default_profile()


def test_empty_directory_yields_empty_ir(tmp_path):
    ir = scan_repository(tmp_path, PROFILE, "svc", "v0")
    assert ir.components == {}
    assert ir.call_graph_edges == frozenset()


def test_fixture_service_extraction(history_versions):
    # Hand-count for ts-station at v0: one controller with two endpoints,
    # one service, one repository, one entity; controller calls the service,
    # the service calls the repository.
    ir = scan_repository(
        history_versions[0] / "ts-station", PROFILE, "ts-station", "v0"
    )
    by_type = {}
    for cid in ir.components:
        by_type.setdefault(cid.component_type, []).append(cid)
    assert len(ir.components) == 4
    assert {t: len(v) for t, v in by_type.items()} == {
        ComponentType.CONTROLLER: 1,
        ComponentType.SERVICE: 1,
        ComponentType.REPOSITORY: 1,
        ComponentType.ENTITY: 1,
    }
    controller = by_type[ComponentType.CONTROLLER][0]
    service = by_type[ComponentType.SERVICE][0]
    repository = by_type[ComponentType.REPOSITORY][0]
    assert (controller, service) in ir.call_graph_edges
    assert (service, repository) in ir.call_graph_edges
    endpoints = sorted(
        (e.http_method, e.path) for e in ir.iter_endpoints()
    )
    assert endpoints == [
        ("GET", "/api/v1/stations"),
        ("GET", "/api/v1/stations/{*}"),
    ]


def test_unparseable_file_degrades_to_warning(tmp_path):
    good = tmp_path / "src" / "A.java"
    good.parent.mkdir(parents=True)
    good.write_text(
        "package p;\n@Service\npublic class A { public void go() { } }\n"
    )
    for i in range(4):
        (tmp_path / "src" / f"B{i}.java").write_text(
            f"package p;\n@Service\npublic class B{i} {{ public void go() {{ }} }}\n"
        )
    (tmp_path / "src" / "Broken.java").write_text(
        "package p;\n@Service\npublic class Broken { public void x() { \n"
    )
    warnings: list[ScanWarning] = []
    ir = scan_repository(tmp_path, PROFILE, "svc", "v0", warnings=warnings)
    assert len(ir.components) == 5
    assert len(warnings) == 1
    assert "Broken" in warnings[0].path


def test_duplicate_endpoint_in_a_service_is_a_warning_and_both_are_kept(tmp_path):
    for name in ("A", "B"):
        (tmp_path / f"{name}.java").write_text(
            f"package p;\n@RestController\npublic class {name} {{\n"
            '    @GetMapping("/x") public String get() { return ""; }\n}\n'
        )
    warnings: list[ScanWarning] = []
    ir = scan_repository(tmp_path, PROFILE, "svc", "v0", warnings=warnings)
    assert [ep.owning_component.qualified_name for ep in ir.iter_endpoints()] == [
        "p.A",
        "p.B",
    ]
    assert warnings == [
        ScanWarning(
            "",
            "svc: duplicate endpoint GET /x "
            "(svc::Controller::p.A vs svc::Controller::p.B)",
        )
    ]


def test_classify_controller_marker():
    text = "package p;\n@RestController\npublic class C { }\n"
    assert classify_source_unit(text, PROFILE) is ComponentType.CONTROLLER


def test_classify_unmarked_unit_is_none():
    text = "package p;\npublic class Plain { private int x; }\n"
    assert classify_source_unit(text, PROFILE) is None


def test_classify_conflicting_markers_raises():
    text = "package p;\n@Service\n@Repository\npublic class Confused { }\n"
    with pytest.raises(AmbiguousMarkerError):
        classify_source_unit(text, PROFILE)


def test_endpoint_base_path_concatenation_and_variables():
    text = (
        "package p;\n@RestController\n@RequestMapping(\"/api/v1/orders\")\n"
        "public class C {\n"
        "    @GetMapping(\"/{id}\")\n"
        "    public Order get(@PathVariable String id) { return null; }\n"
        "}\n"
    )
    unit = parse_unit(text)
    cid = component_id("svc", ComponentType.CONTROLLER, unit.qualified_name)
    eps = extract_endpoints(unit, PROFILE, cid)
    assert [(e.http_method, e.path, e.handler_method) for e in eps] == [
        ("GET", "/api/v1/orders/{*}", "get")
    ]


def test_endpoint_composite_marker_reads_method_attribute():
    text = (
        "package p;\n@RestController\n@RequestMapping(\"/api\")\n"
        "public class C {\n"
        "    @RequestMapping(value = \"/create\", method = RequestMethod.POST)\n"
        "    public String create() { return null; }\n"
        "}\n"
    )
    unit = parse_unit(text)
    cid = component_id("svc", ComponentType.CONTROLLER, unit.qualified_name)
    eps = extract_endpoints(unit, PROFILE, cid)
    assert [(e.http_method, e.path) for e in eps] == [("POST", "/api/create")]


def test_controller_without_annotated_methods_has_no_endpoints():
    text = (
        "package p;\n@RestController\npublic class C {\n"
        "    public String helper() { return null; }\n"
        "}\n"
    )
    unit = parse_unit(text)
    cid = component_id("svc", ComponentType.CONTROLLER, unit.qualified_name)
    assert extract_endpoints(unit, PROFILE, cid) == []


def _rest_calls(text: str) -> list:
    component, _ = extract_component(text, PROFILE, "svc", "S.java")
    return [call for method in component.methods for call in method.rest_calls]


def test_rest_call_with_literal_host():
    calls = _rest_calls(ORDER_SERVICE_V0)
    assert [(c.http_method, c.target_service, c.path) for c in calls] == [
        ("GET", "ts-station", "/api/v1/stations/{*}")
    ]
    assert calls[0].site_method == "order.OrderService.getOrder"


def test_rest_call_with_variable_host_is_unresolved():
    text = (
        "package p;\n@Service\npublic class S {\n"
        "    private RestTemplate restTemplate;\n"
        "    public Price quote(String host) {\n"
        "        return restTemplate.getForObject(host + \"/api/v1/price\", Price.class);\n"
        "    }\n"
        "}\n"
    )
    calls = _rest_calls(text)
    assert [(c.http_method, c.target_service, c.path) for c in calls] == [
        ("GET", UNRESOLVED, "/api/v1/price")
    ]


def test_unit_without_remote_calls_yields_none():
    text = (
        "package p;\n@Service\npublic class S {\n"
        "    public int add(int a, int b) { return a + b; }\n"
        "}\n"
    )
    assert _rest_calls(text) == []


def test_overloads_keep_their_own_rest_calls():
    text = (
        "package p;\n@Service\npublic class S {\n"
        "    private RestTemplate restTemplate;\n"
        "    public String fetch() {\n"
        '        return restTemplate.getForObject("http://svc-b/a", String.class);\n'
        "    }\n"
        "    public String fetch(int id) {\n"
        '        return restTemplate.getForObject("http://svc-c/b/" + id, String.class);\n'
        "    }\n"
        "}\n"
    )
    component, _ = extract_component(text, PROFILE, "svc", "S.java")
    calls = {m.arity: [c.signature() for c in m.rest_calls] for m in component.methods}
    assert calls == {0: ["GET svc-b /a"], 1: ["GET svc-c /b/{*}"]}
    assert {c.signature() for c in component.rest_calls()} == {
        "GET svc-b /a",
        "GET svc-c /b/{*}",
    }


def test_entity_account_fields():
    unit = parse_unit(ACCOUNT_ENTITY)
    entity = extract_entity(unit)
    assert entity.name == "Account"
    assert sorted(f.field_name for f in entity.fields) == ["id", "money", "userId"]


def test_entity_excludes_static_and_transient():
    text = (
        "package p;\n@Entity\npublic class E {\n"
        "    public static final String TABLE = \"e\";\n"
        "    private transient int scratch;\n"
        "    @Transient\n    private int cached;\n"
        "    private String id;\n"
        "    private String name;\n"
        "}\n"
    )
    entity = extract_entity(parse_unit(text))
    assert sorted(f.field_name for f in entity.fields) == ["id", "name"]


def test_unreadable_file_degrades_to_warning(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text(ACCOUNT_ENTITY)
    listed = extractor._source_files

    def listing(root, profile):  # names a file that is gone when it is read
        return [("Gone.java", str(tmp_path / "Gone.java")), *listed(root, profile)]

    monkeypatch.setattr(extractor, "_source_files", listing)
    warnings: list[ScanWarning] = []
    cache: dict = {}
    ir = scan_repository(tmp_path, PROFILE, "svc", "v0", warnings=warnings, cache=cache)
    assert [c.source_path for c in ir.components.values()] == ["A.java"]
    assert [w.path for w in warnings] == ["Gone.java"]
    assert warnings[0].message.startswith("unreadable: ")
    assert list(cache) == [("svc", "A.java")]


def test_entity_without_fields_warns(tmp_path):
    (tmp_path / "E.java").write_text(
        "package p;\n@Entity\npublic class E { }\n"
    )
    warnings: list[ScanWarning] = []
    ir = scan_repository(tmp_path, PROFILE, "svc", "v0", warnings=warnings)
    assert len(ir.components) == 1
    assert any("no instance fields" in w.message for w in warnings)


def test_scan_is_deterministic(history_versions):
    root = history_versions[0] / "ts-order"
    first = serialize_microservice_ir(scan_repository(root, PROFILE, "ts-order", "v0"))
    second = serialize_microservice_ir(scan_repository(root, PROFILE, "ts-order", "v0"))
    assert first == second


def test_extraction_cache_reproduces_uncached_scan(history_versions):
    root = history_versions[0] / "ts-order"
    cache: dict = {}
    cached_once = scan_repository(root, PROFILE, "ts-order", "v0", cache=cache)
    cached_twice = scan_repository(root, PROFILE, "ts-order", "v0", cache=cache)
    plain = scan_repository(root, PROFILE, "ts-order", "v0")
    assert (
        serialize_microservice_ir(cached_once)
        == serialize_microservice_ir(cached_twice)
        == serialize_microservice_ir(plain)
    )


def test_extraction_cache_holds_one_entry_per_file_path(tmp_path):
    # Each edit replaces the edited file's entry; the other file's result is
    # reused as the very same object.  A file back at an earlier content is
    # extracted again, so its notes are reported again.
    empty = "package p;\n@Entity\npublic class E { }\n"
    (tmp_path / "E.java").write_text(empty)
    (tmp_path / "F.java").write_text("package p;\n@Entity\npublic class F { int a; }\n")
    cache: dict = {}
    first = scan_repository(tmp_path, PROFILE, "svc", "v0", cache=cache)
    for n in range(5):
        (tmp_path / "E.java").write_text(
            f"package p;\n@Entity\npublic class E {{ int f{n}; }}\n"
        )
        ir = scan_repository(tmp_path, PROFILE, "svc", f"v{n}", cache=cache)
        assert sorted(cache) == [("svc", "E.java"), ("svc", "F.java")]
        [f] = [c for c in ir.components.values() if c.id.qualified_name == "p.F"]
        assert f is cache["svc", "F.java"][1]
    (tmp_path / "E.java").write_text(empty)
    warnings: list[ScanWarning] = []
    again = scan_repository(
        tmp_path, PROFILE, "svc", "v0", warnings=warnings, cache=cache
    )
    assert any("no instance fields" in w.message for w in warnings)
    assert serialize_microservice_ir(again) == serialize_microservice_ir(first)


def test_discover_services_multi_module(history_versions):
    found = discover_services(history_versions[0])
    assert [name for name, _ in found] == ["ts-order", "ts-station", "ts-user"]


def test_discover_services_name_override(history_versions):
    found = discover_services(history_versions[0], {"ts-order": "orders"})
    assert [name for name, _ in found] == ["orders", "ts-station", "ts-user"]


def test_discover_services_plain_tree_is_single_service(tmp_path):
    (tmp_path / "src").mkdir()
    found = discover_services(tmp_path)
    assert found == [(tmp_path.name, tmp_path)]


def test_paths_are_normalized_after_scan(history_versions):
    ir = scan_repository(
        history_versions[0] / "ts-user", PROFILE, "ts-user", "v0"
    )
    for ep in ir.iter_endpoints():
        assert ep.path.startswith("/")
        assert "{id}" not in ep.path
    for call in ir.iter_rest_calls():
        assert call.path.startswith("/")
        assert "{" not in call.path or "{*}" in call.path


TEXT_BLOCK_CONTROLLER = (
    "package p;\n@RestController\n@RequestMapping(\"/api\")\n"
    "public class C {\n"
    "    private RestTemplate restTemplate;\n"
    "    @GetMapping(\"/doc\")\n"
    "    public String doc() {\n"
    '        String q = """\n'
    '            a " b { (\n'
    '            """;\n'
    "        return restTemplate.getForObject(\"http://ts-x/api/v1/y\", String.class);\n"
    "    }\n"
    "    @PostMapping(\"/other\")\n"
    "    public String other() { return helper(); }\n"
    "}\n"
)


def _method_hashes(text: str) -> dict[str, str]:
    component, _ = extract_component(text, PROFILE, "svc", "C.java")
    return {m.name: m.content_hash for m in component.methods}


def test_text_block_controller_is_extracted(tmp_path):
    (tmp_path / "C.java").write_text(TEXT_BLOCK_CONTROLLER)
    warnings: list[ScanWarning] = []
    ir = scan_repository(tmp_path, PROFILE, "svc", "v0", warnings=warnings)
    assert warnings == []
    (component,) = ir.components.values()
    assert [(e.http_method, e.path) for e in component.endpoints] == [
        ("GET", "/api/doc"),
        ("POST", "/api/other"),
    ]
    assert [m.name for m in component.methods] == ["doc", "other"]
    assert [c.signature() for c in component.rest_calls()] == ["GET ts-x /api/v1/y"]
    # Whitespace inside the block is content; whitespace outside it is not.
    base = _method_hashes(TEXT_BLOCK_CONTROLLER)
    inside = _method_hashes(TEXT_BLOCK_CONTROLLER.replace('a " b', 'a  " b'))
    outside = _method_hashes(TEXT_BLOCK_CONTROLLER.replace("String q =", "String  q ="))
    assert inside["doc"] != base["doc"]
    assert outside == base


def test_each_file_is_tokenized_once_and_each_body_scanned_once(
    history_versions, monkeypatch
):
    root = history_versions[0] / "ts-order"
    files = sorted(root.rglob("*.java"))
    bodies = 0
    for path in files:
        unit = parse_unit(path.read_text())
        if classify_source_unit(path.read_text(), PROFILE) is not None:
            bodies += sum(m.body_span is not None for m in unit.methods)
    counts = {"views": 0, "lexes": 0, "scans": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(extractor, "lexed_views", "views")
    counted(model, "_lexemes", "lexes")
    counted(extractor, "_scan_calls", "scans")
    ir = scan_repository(root, PROFILE, "ts-order", "v0")
    assert ir.components and bodies
    # bodies and annotation arguments are hashed from the views, not lexed again
    assert counts == {"views": len(files), "lexes": len(files), "scans": bodies}


def test_constructor_calls_are_not_call_targets():
    text = (
        "package p;\n@Service\npublic class S {\n    public void run() {\n"
        "        Foo f = new Foo(1);\n        helper(new  Bar());\n        renew(f);\n"
        "    }\n}\n"
    )
    component, _ = extract_component(text, PROFILE, "svc", "S.java")
    assert component.methods[0].body_call_targets == ("helper/1", "renew/1")


def _calls_made(text: str) -> int:
    """Python and C function calls made while extracting ``text``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        extract_component(text, PROFILE, "svc", "S.java")
    except ExtractionError:
        pass
    finally:
        sys.setprofile(None)
    return count


def test_call_scan_is_linear_in_the_number_of_calls():
    def unit(calls: int) -> str:
        return (
            "package p;\n@Service\npublic class S {\n    public void run() {\n"
            + "        f();\n" * calls
            + "    }\n}\n"
        )

    # Deterministic: four times the calls in the body, at most four times
    # the function calls (plus the fixed part's share).
    assert _calls_made(unit(8_000)) <= 4.5 * _calls_made(unit(2_000))

    # Timed: catches work done inside C calls, such as slicing.  Garbage
    # collection is off inside the timed region, so a collection triggered
    # by earlier tests' garbage does not land in one size only.
    n = 20_000
    texts = (unit(n), unit(4 * n))
    best = [float("inf")] * len(texts)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):  # interleaved, so both sizes see the same host load
            for i, text in enumerate(texts):
                started = time.process_time()
                extract_component(text, PROFILE, "svc", "S.java")
                best[i] = min(best[i], time.process_time() - started)
    finally:
        gc.enable()
    assert best[1] < 6 * best[0]


# Class bodies of ``n`` repeated parts, each part hard on one step of the
# member pass: many members, annotations with nested arguments, one
# annotation nested ``n`` deep, long unclosed "(" and "{" (at member level and
# in a body), and long "=" initializers.
_ADVERSARIAL = {
    "members": lambda n: (
        "    @Autowired\n    private Foo f, g;\n"
        "    public Foo h(@PathVariable String a, int b) throws E { return f.h(a, b); }\n"
    ) * n,
    "annotations": lambda n: '    @A(b = @B(c = {1, 2}), d = "x  y")\n    void m() {}\n' * n,
    "nested annotation": lambda n: "    @A(" + "@B(" * n + ")" * n + ")\n    void m() {}\n",
    "unclosed paren": lambda n: "    void f(" + "int a; " * n + "\n",
    "unclosed brace": lambda n: "    void f() {" + " int a;" * n + "\n",
    "unclosed paren in body": lambda n: "    void f() { g(" + " a," * n + " }\n",
    "initializer": lambda n: "    int x = " + "a + (b) + " * n + "1;\n",
    "initializers": lambda n: "    int x = a + b, y;\n" * n,
}


@pytest.mark.parametrize("part", sorted(_ADVERSARIAL))
def test_extraction_cost_is_linear_on_adversarial_input(part):
    def unit(n: int) -> str:
        return f"package p;\n@Service\npublic class S {{\n{_ADVERSARIAL[part](n)}}}\n"

    assert _calls_made(unit(2_000)) <= 2.2 * _calls_made(unit(1_000))


_FRAGMENTS = [
    b"package p;\n",
    b"@RestController\n",
    b"@Service\n",
    b"@Entity\n",
    b"@GetMapping(\"/x/{id}\")\n",
    b"@RequestMapping(",
    b"public class C ",
    b"interface I ",
    b"enum E ",
    b"void m(int a, String b) ",
    b"private RestTemplate rest;\n",
    b"rest.getForObject(\"http://svc/a\" + id, A.class);",
    b"new A(",
    b"int x = ",
    b"{", b"}", b"(", b")", b"<", b">", b";", b",", b"=", b"+", b".", b"@",
    b'"', b"'", b'"""', b"\\", b"/*", b"*/", b"//", b"\n", b" ",
    b"\xff\xfe", b"\xc3", b"\x00",
]


# A unit is a classified class opening (or nothing), fragments and raw bytes,
# then a closing brace (or nothing).
_JAVA_BYTES = st.tuples(
    st.sampled_from(
        [
            b"",
            b"package p;\n@RestController\npublic class C {\n",
            b"package p;\n@Service\nclass S {\nprivate RestTemplate rest;\n",
            b"@Entity\npublic class E {\n",
        ]
    ),
    st.lists(st.sampled_from(_FRAGMENTS) | st.binary(max_size=6), max_size=40),
    st.sampled_from([b"", b"}\n"]),
).map(lambda parts: parts[0] + b"".join(parts[1]) + parts[2])


@given(st.lists(_JAVA_BYTES, min_size=1, max_size=4))
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=list(HealthCheck),
    derandomize=True,
)
def test_scan_is_total_on_arbitrary_bytes(tmp_path_factory, files):
    root = tmp_path_factory.mktemp("fuzz")
    names = []
    for index, data in enumerate(files):
        names.append(f"F{index}.java")
        (root / names[-1]).write_bytes(data)
    warnings: list[ScanWarning] = []
    ir = scan_repository(root, PROFILE, "svc", "v0", warnings=warnings)
    produced = [c.source_path for c in ir.components.values()]
    warned = {w.path for w in warnings}
    assert warned - {""} <= set(names)
    # Each file yields one component, no component, or a warning.
    for name in names:
        text = (root / name).read_bytes().decode("utf-8", errors="replace")
        try:
            component, _ = extract_component(text, PROFILE, "svc", name)
        except Exception:
            assert name in warned and name not in produced
            continue
        if component is None:
            assert name not in produced
        else:
            assert produced.count(name) == 1 or name in warned  # or a duplicate


NESTED_ANNOTATION_ENTITY = """package shop;

import javax.persistence.*;

@Entity
@Table(name = "orders", indexes = @Index(columnList = "a"))
public class Order {
    @Id
    private Long id;
    private String status;
}
"""

NESTED_MARKER_SERVICE = """package shop;

import org.springframework.context.annotation.Import;
import org.springframework.stereotype.*;

@Service
@Import(@Repository)
public class Billing {
    public void bill() {
    }
}
"""


def test_annotation_nested_in_arguments_is_not_a_class_annotation():
    component, _ = extract_component(NESTED_ANNOTATION_ENTITY, PROFILE, "svc", "O.java")
    assert component.entity_ref.annotations == (
        "Entity",
        'Table(name = "orders", indexes = @Index(columnList = "a"))',
    )


def test_marker_nested_in_arguments_does_not_make_the_unit_ambiguous():
    component, _ = extract_component(NESTED_MARKER_SERVICE, PROFILE, "svc", "B.java")
    assert component.id == component_id("svc", ComponentType.SERVICE, "shop.Billing")
    assert [m.name for m in component.methods] == ["bill"]


# Names a generated tree draws from: each name the walk treats apart, and
# names whose sorted paths are not their sorted strings ("a/x" sorts before
# "a-b").
_TREE_NAMES = (
    "a", "a-b", "a.java", "..java", "A.JAVA", ".git", ".A.java", "B.java",
    "src", "test", "main", "target", "build", "out", "node_modules",
    *BUILD_DESCRIPTORS,
)
_TREES = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_TREE_NAMES), min_size=1, max_size=4).map(tuple),
        st.sampled_from(("file", "dir", "dir-link", "file-link", "broken-link")),
    ),
    max_size=30,
)
_EVERY_CASE = [
    ((".git", "pom.xml"), "file"),
    ((".git", "A.java"), "file"),
    ((".A.java",), "file"),
    (("target", "A.java"), "file"),
    (("a", "build", "A.java"), "file"),
    (("a", "b", "out", "pom.xml"), "file"),
    (("node_modules", "build.gradle"), "file"),
    (("src", "test", "A.java"), "file"),
    (("src", "main", "test", "A.java"), "file"),
    (("m", "src", "test"), "file"),
    (("a", "test", "A.java"), "file"),
    (("pom.xml",), "file"),
    (("a", "pom.xml"), "file"),
    (("a", "b", "build.gradle"), "file"),
    (("m", "build.gradle.kts"), "dir"),
    (("linked",), "dir-link"),
    (("Linked.java",), "file-link"),
    (("Broken.java",), "broken-link"),
    (("gone", "pom.xml"), "broken-link"),
    (("..java",), "file"),
    (("A.JAVA",), "file"),
    (("a", "x.java"), "file"),
    (("a-b",), "file"),
    (("a.java",), "file"),
]


def _tree(base: Path, entries) -> Path:
    """A tree of ``entries`` under ``base``; its links point out of it."""
    outside = base / "outside"
    (outside / "pkg").mkdir(parents=True)
    (outside / "pkg" / "X.java").write_text("")
    (outside / "pom.xml").write_text("")
    targets = {
        "dir-link": outside,
        "file-link": outside / "pkg" / "X.java",
        "broken-link": outside / "missing",
    }
    root = base / "tree"
    root.mkdir()
    for parts, kind in entries:
        path = root.joinpath(*parts)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if kind == "file":
                path.write_text("")
            elif kind == "dir":
                path.mkdir()
            else:
                path.symlink_to(targets[kind])
        except OSError:  # a name already taken, or a file where a directory goes
            pass
    return root


def _services(discover, root):
    try:
        return [(name, str(path)) for name, path in discover(root)]
    except ExtractionError as exc:
        return str(exc)


@pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="the reference is rglob as of Python 3.11"
)
@given(_TREES, st.sampled_from([(".java",), (".java", "", ".JAVA", ".xml")]))
@example(_EVERY_CASE, (".java", ""))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=list(HealthCheck),
    derandomize=True,
)
def test_the_walk_finds_what_the_pathlib_walk_found(entries, extensions):
    profile = replace(PROFILE, file_extensions=extensions)
    with tempfile.TemporaryDirectory() as base:
        root = _tree(Path(base), entries)
        for walk_root in (root, root / "src"):
            if not walk_root.is_dir():
                continue
            files = extractor._source_files(walk_root, profile)
            expected = reference_walk._source_files(walk_root, profile)
            assert [(r, str(p)) for r, p in files] == [(r, str(p)) for r, p in expected]
            assert _services(discover_services, walk_root) == _services(
                reference_walk.discover_services, walk_root
            )


# Targets the extractor never writes, beside well-formed ones; "m/٣" has a
# non-ASCII digit that ``\d`` matches.
_ODD_TARGETS = ["", "/1", "a.b", "x/y", "a.b.c/1", "m/٣", "Unit9.run/0"]


@st.composite
def _called_components(draw) -> dict:
    """Components whose methods also call each other's classes and methods,
    their own class, and the odd targets."""
    units = [
        draw(components("svc-a", f"pkg.Unit{i}"))
        for i in range(draw(st.integers(1, 4)))
    ]
    pool = [*_ODD_TARGETS, *(f"Unit{i}.work/0" for i in range(len(units)))]
    pool += [f"{m.name}/{len(m.parameters)}" for c in units for m in c.methods]
    comps = {}
    for c in units:
        methods = []
        for m in c.methods:
            extra = tuple(draw(st.lists(st.sampled_from(pool), max_size=4)))
            methods.append(replace(m, body_call_targets=m.body_call_targets + extra))
        comp = make_component(c.id, methods, c.endpoints, c.entity_ref, c.source_path)
        comps[comp.id] = comp
    return comps


@given(_called_components())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_call_graph_equals_the_reference(comps):
    expected = reference_call_graph.resolve_call_graph(comps)
    assert resolve_call_graph(comps) == expected
    ir = MicroserviceIR("svc-a", "v0", comps, expected)
    # a loaded or unpickled method resolves the same, parsed or not
    loaded = deserialize_microservice_ir(serialize_microservice_ir(ir)).components
    for again in (loaded, pickle.loads(pickle.dumps(comps))):
        assert resolve_call_graph(again) == expected
        for comp in again.values():
            for m in comp.methods:
                parsed = map(reference_call_graph.parse_call_target, m.body_call_targets)
                assert m.call_targets == tuple(parsed)
