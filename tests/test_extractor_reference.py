"""The one-pass extractor against the extractor it replaced.

``reference_extractor`` re-scanned each member head and lexed each body and
annotation argument again.  On every source the one-pass extractor must give
the same component, the same notes in order, and the same exception (type
and message), as it did.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_extractor
from corpus import _EXTRA_SERVICE, HISTORY_BASE, HISTORY_STEPS, SUMMARY_BASE, SUMMARY_STEPS

from archdelta.extractor import extract_component
from archdelta.profiles import default_profile

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from archgen import Model, Shape  # noqa: E402

PROFILE = default_profile()


def _outcome(extract, text: str):
    try:
        return extract(text, PROFILE, "svc", "src/A.java")
    except Exception as exc:  # the exception is part of the outcome
        return type(exc), str(exc)


def _assert_same(text: str) -> None:
    assert _outcome(extract_component, text) == _outcome(
        reference_extractor.extract_component, text
    )


# ---------------------------------------------------------------------------
# Generated Java-like sources
# ---------------------------------------------------------------------------

def _mostly(clean: list[str], odd: list[str]) -> st.SearchStrategy[str]:
    """One of ``clean``, or one of ``odd`` about one time in ten."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(odd if i == 0 else clean)
    )


_WS = st.sampled_from([" ", " ", "  ", "\n", "\n    ", "\t", "", " "])
_NAME = _mostly(
    [
        "a", "id", "item", "x1", "rest", "restTemplate", "url", "foo", "find",
        "save", "getForObject", "postForObject", "exchange", "put", "delete",
        "renew", "newer", "_", "9",
    ],
    ["new", "this", "super", "if", "for", "return", "throws", "final", "static", "class"],
)
_TYPE = _mostly(
    [
        "String", "int", "void", "Foo", "List<Foo>", "Map<String, List<Foo>>",
        "int[]", "Foo [ ]", "a.b.Foo", "RestTemplate", "Long", "<T> T", "Optional<?>",
    ],
    ["List<Foo", "Foo>", "public", "", "Foo)", "(Foo"],
)
_ANNOTATION = _mostly(
    [
        "@Autowired", "@Override", "@Id", "@Transient", "@PathVariable",
        "@RequestBody", '@GetMapping("/a/{id}")', '@PostMapping(value = "/b")',
        '@RequestMapping(value = "/c", method = RequestMethod.PUT)',
        '@RequestMapping(path = {"/d"}, method = {RequestMethod.DELETE})',
        '@RequestMapping(method = "PATCH")',
        '@Query("SELECT e FROM E e  WHERE e.id = ?1")',
        '@Column(name = "x", /* c */ nullable = false)', "@A(@B(c = (1)))",
        '@org.x.Y( "z" )', "@ Spaced",
    ],
    ["@Bad(", "@Also)", "@", "@X(y = \"(\")"],
)
_MODIFIERS = st.lists(
    st.sampled_from(
        ["public", "private", "protected", "static", "final", "transient", "abstract"]
    ),
    max_size=3,
).map(" ".join)
_URL = st.sampled_from(
    [
        '"http://svc-a/api/x"', '"http://svc-b:8080/p/" + id', 'baseUrl + "/q/" + id',
        '"/rel"', "url", '"http://" + host + "/h"', '"""\n  http://svc-c/tb\n"""',
        '"http://svc-d/a b"', "'c'",
    ]
)
_ODD = st.sampled_from(
    [
        "(", ")", "{", "}", "[", "]", "<", ">", ",", ";", "=", "==", ".", ":",
        "+", "@", '"', "'", "/*", "*/", "// c {\n", "\n", "class X", "enum", "throws",
        "new", " . ", '"a ) b"', "'{'", '"""\n x\n"""', "\\", "/** @Id */",
    ]
)


@st.composite
def _expression(draw, depth: int = 0) -> str:
    kind = draw(st.integers(0, 6 if depth < 2 else 2))
    if kind == 0:
        return draw(_NAME)
    if kind == 1:
        return draw(_URL)
    if kind == 2:
        return draw(st.sampled_from(["1", "a < b", "x == y", "(Foo) a", "a[0]", "{1, 2}"]))
    args = draw(st.lists(_expression(depth + 1), max_size=3))
    sep = draw(st.sampled_from([", ", ",", " ,\n"]))
    call = f"{draw(_NAME)}{draw(_WS)}({sep.join(args)})"
    if kind == 3:
        return call
    if kind == 4:
        return f"new {call}"
    receiver = draw(st.sampled_from(["restTemplate", "rest", "a", "this", "svc.rest", "x"]))
    return f"{receiver}{draw(_WS)}.{draw(_WS)}{call}"


@st.composite
def _rest_call(draw) -> str:
    receiver = draw(st.sampled_from(["restTemplate", "rest", "client.restTemplate"]))
    method = draw(
        st.sampled_from(["getForObject", "postForObject", "put", "delete", "exchange"])
    )
    args = [draw(_URL)]
    if method == "exchange":
        args.append(draw(st.sampled_from(["HttpMethod.POST", '"GET"', "verb"])))
    args += draw(st.lists(_expression(1), max_size=2))
    return f"{receiver}.{draw(_WS)}{method}({', '.join(args)})"


@st.composite
def _statement(draw) -> str:
    kind = draw(st.integers(0, 9))
    if kind <= 1:
        return f"{draw(_TYPE)} {draw(_NAME)} = {draw(_expression() | _rest_call())};"
    if kind <= 3:
        return f"{draw(_expression())};"
    if kind <= 5:
        return f"return {draw(_rest_call())};"
    if kind == 6:
        return f"for ({draw(_TYPE)} {draw(_NAME)} : {draw(_NAME)}) {{ {draw(_expression())}; }}"
    if kind == 7:
        return f"if ({draw(_expression())}) {{ {draw(_statement())} }}"
    if kind == 8:
        return f"{draw(_NAME)}.{draw(_NAME)}({draw(_NAME)});"
    return draw(_ODD)


@st.composite
def _member(draw) -> str:
    ws = draw(_WS)
    annotations = ws.join(draw(st.lists(_ANNOTATION, max_size=3)))
    head = f"{annotations}{ws}{draw(_MODIFIERS)} {draw(_TYPE)} {draw(_NAME)}"
    kind = draw(st.integers(0, 9))
    if kind <= 2:  # fields
        names = "".join(f", {draw(_NAME)}" for _ in range(draw(st.integers(0, 2))))
        init = draw(st.sampled_from(["", "", f" = {draw(_expression())}"]))
        return f"{head}{names}{init};"
    if kind == 9:  # odd tokens
        return ws.join(draw(st.lists(_ODD | _NAME | _TYPE, max_size=6)))
    params = []
    for _ in range(draw(st.integers(0, 3))):
        param_ann = draw(st.sampled_from(["", "", "@PathVariable ", '@RequestParam("q") ', "final "]))
        params.append(f"{param_ann}{draw(_TYPE)} {draw(_NAME)}")
    throws = draw(st.sampled_from(["", "", " throws IOException", " throws A, B<C>", " throws"]))
    signature = f"{head}{ws}({', '.join(params)}){throws}"
    if kind == 3:
        return f"{signature};"
    body = "\n".join(draw(st.lists(_statement(), max_size=5)))
    if kind <= 6:
        return f"{signature} {{\n{body}\n}}"
    return f"{signature}{ws}{{{body}}}"  # compact


_MARKER = st.sampled_from(["@RestController", "@Service", "@Repository", "@Entity"])
_EXTRA_MARKER = st.sampled_from(
    [
        '@RequestMapping("/base")', '@RequestMapping(value = "/v", method = RequestMethod.GET)',
        '@Table(name = "t", i = @Index(c = "x"))', "@Import(@Repository)", "@Controller",
        "@Deprecated", "@Service",
    ]
)


@st.composite
def java_units(draw) -> str:
    package = draw(st.sampled_from(["package p;\n", "package a.b ;\n", "", "package"]))
    markers = [draw(_MARKER)] if draw(st.integers(0, 9)) else []
    markers += draw(st.lists(_EXTRA_MARKER, max_size=2))
    kind = draw(_mostly(["class", "class", "interface", "enum"], ["record", "@interface"]))
    members = draw(st.lists(_member(), max_size=6))
    end = draw(st.sampled_from(["}\n", "}\n", "}", "", "}}\n", "} // end\n"]))
    nested = draw(st.sampled_from(["", "", "static class Inner { int x; void f() {} }\n"]))
    return (
        f"{package}import x.y.*;\n/* header {{ */\n"
        + "\n".join(markers)
        + f"\npublic {kind} Unit extends Base<T> {{\n"
        + nested
        + "\n".join(members)
        + "\n"
        + end
    )


@given(java_units())
@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=list(HealthCheck),
    derandomize=True,
)
def test_generated_units_extract_as_the_reference_extracts(text):
    _assert_same(text)


# ---------------------------------------------------------------------------
# The fixture corpora and the benchmark's generated systems
# ---------------------------------------------------------------------------


def _fixture_texts() -> list[str]:
    trees = [HISTORY_BASE, *HISTORY_STEPS, SUMMARY_BASE, *SUMMARY_STEPS, _EXTRA_SERVICE]
    return sorted(
        {
            text
            for tree in trees
            for rel, text in tree.items()
            if rel.endswith(".java") and text is not None
        }
    )


def test_fixture_corpora_extract_as_the_reference_extracts():
    texts = _fixture_texts()
    assert len(texts) > 20
    for text in texts:
        _assert_same(text)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_systems_extract_as_the_reference_extracts(seed):
    shape = Shape(4, 2, 3, 2, 0.2, 0.1, 0.1, (3, 5), 12)
    model = Model.generate(shape, seed, "extractor-reference")
    texts = {t for rel, t in model.files().items() if rel.endswith(".java")}
    for _ in range(30):  # random edits, each leaving its file's new text
        texts.add(model.edited_text(model.random_edit()))
    for text in sorted(texts):
        _assert_same(text)
