from __future__ import annotations

import pickle
import random
import re
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_extractor
import reference_hash
import reference_lexer
from strategies import components

import archdelta.model as model
from archdelta.model import (
    ChangeKind,
    Component,
    ComponentId,
    ComponentType,
    EdgeKind,
    Endpoint,
    Entity,
    EntityField,
    Method,
    Parameter,
    component_id,
    hash_component,
    make_component,
    method_content_hash,
    normalize_path,
    normalize_source_text,
    source_views,
)


def test_component_id_holds_its_parts():
    cid = component_id("ts-order", ComponentType.SERVICE, "order.OrderServiceImpl")
    assert cid.microservice == "ts-order"
    assert cid.component_type is ComponentType.SERVICE
    assert cid.qualified_name == "order.OrderServiceImpl"


def test_component_id_is_deterministic():
    a = component_id("ts-order", ComponentType.SERVICE, "order.OrderServiceImpl")
    b = component_id("ts-order", ComponentType.SERVICE, "order.OrderServiceImpl")
    assert a == b and hash(a) == hash(b)


def test_component_id_hashes_and_compares_as_a_tuple_of_strings():
    assert ComponentId.__hash__ is tuple.__hash__
    for enum in (ComponentType, EdgeKind, ChangeKind):
        assert enum.__hash__ is str.__hash__
    cid = component_id("ts-order", ComponentType.CONTROLLER, "order.Api")
    plain = ("ts-order", "Controller", "order.Api")
    assert cid == plain and hash(cid) == hash(plain)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "a-b", "b", "a.b"]),
            st.sampled_from(list(ComponentType)),
            st.sampled_from(["x", "x.Y", "X", "a::b"]),
        ),
        max_size=8,
    )
)
def test_component_ids_sort_by_service_type_value_and_name(parts):
    ids = [ComponentId(*p) for p in parts]
    by_parts = sorted(
        ids, key=lambda c: (c.microservice, c.component_type.value, c.qualified_name)
    )
    assert sorted(ids) == by_parts


def test_component_id_text_repr_and_pickle_are_unchanged():
    cid = component_id("ts-order", ComponentType.REPOSITORY, "order.Repo")
    assert str(cid) == "ts-order::Repository::order.Repo"
    assert repr(cid) == (
        "ComponentId(microservice='ts-order', "
        "component_type=<ComponentType.REPOSITORY: 'Repository'>, "
        "qualified_name='order.Repo')"
    )
    again = pickle.loads(pickle.dumps(cid))
    assert type(again) is ComponentId and again == cid
    assert again.component_type is ComponentType.REPOSITORY


def test_component_type_participates_in_identity():
    a = component_id("ts-order", ComponentType.SERVICE, "a.X")
    b = component_id("ts-order", ComponentType.REPOSITORY, "a.X")
    assert a != b


@pytest.mark.parametrize("service,qname", [("", "a.X"), ("svc", "")])
def test_component_id_rejects_empty_parts(service, qname):
    with pytest.raises(ValueError):
        component_id(service, ComponentType.SERVICE, qname)


def test_normalize_path_variables_and_queries():
    assert normalize_path("/order/{id}") == "/order/{*}"
    assert normalize_path("/order/{orderId}") == "/order/{*}"
    assert normalize_path("order//x/") == "/order/x"
    assert normalize_path("/price?from=a&to=b") == "/price"
    assert normalize_path("") == "/"


def test_blank_comments_respects_string_literals():
    src = 'a = "http://x"; // trailing\n/* block */ b = 2;'
    blanked, _ = source_views(src)
    assert '"http://x"' in blanked
    assert "trailing" not in blanked
    assert "block" not in blanked
    assert len(blanked) == len(src)


def test_normalize_keeps_string_interior_whitespace():
    assert normalize_source_text('x  =  "a  b";') == 'x = "a  b";'


# Text without text blocks, which the reference loops read as an empty string
# followed by an open one.
_LEXER_TEXTS = st.text(
    alphabet="\"'\\/*{}()<>" + string.ascii_letters + "\n\t\x0b\x85 ", max_size=40
).map(lambda text: re.sub('"{3,}', '""', text))


@given(_LEXER_TEXTS)
@settings(
    max_examples=2000,
    deadline=None,
    suppress_health_check=list(HealthCheck),
    derandomize=True,
)
def test_token_pass_equals_the_reference_loops(text):
    code, skel = source_views(text)
    assert code == reference_lexer.blank_comments(text)
    assert skel == reference_lexer.blank_strings(code)
    assert normalize_source_text(text) == reference_lexer.normalize_source_text(text)


# Text with text blocks and unusual whitespace, for the normalization the
# extractor used, which lexed each fragment on its own.
_BLOCK_TEXTS = st.lists(
    st.sampled_from(['"""', '"', "'", "\\", "/", "*", "{", " ", "\n", "\x1c", "a"]),
    max_size=30,
).map("".join)


@given(_BLOCK_TEXTS)
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_normalization_from_the_views_equals_lexing_again(text):
    assert normalize_source_text(text) == reference_extractor.normalize_source_text(text)


def test_text_block_is_one_literal():
    block = 'x = """\n a " b { ( // c\n """; y'
    code, skel = source_views(block)
    assert code == block
    interior = len(block) - len('x = """') - len('"""; y')
    assert skel == 'x = """' + " " * interior + '"""; y'
    assert normalize_source_text(block) == block


class _CountedPattern:
    """A compiled pattern that counts the matches tried with it."""

    def __init__(self, pattern: re.Pattern) -> None:
        self.pattern, self.attempts = pattern, 0

    def match(self, text: str, pos: int) -> re.Match | None:
        self.attempts += 1
        return self.pattern.match(text, pos)


def _mix(seed: int, alphabet: str) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice(alphabet) for _ in range(10_000))


# Texts of 10k characters that start a lexeme, or seem to, again and again.
_STARTERS = [
    "/" * 10_000,
    "'" * 10_000,
    '"' + "a" * 9_999,
    "/*" + "/" * 9_998,
    "/*" + " '\" x" * 1_999 + " ",
    "a/" * 5_000,
    "'/" * 5_000,
    "\"'" * 5_000,
    _mix(7, "/'\"*\\a \n"),
    _mix(8, "/'\""),
]


@pytest.mark.parametrize("text", _STARTERS, ids=range(len(_STARTERS)))
@pytest.mark.parametrize("read", [source_views, normalize_source_text])
def test_the_lexeme_pattern_is_tried_only_at_quotes_and_slashes(text, read, monkeypatch):
    """At most one attempt per quote or slash, each from where the last lexeme
    ended: the lexer's work is linear in the text, whatever the text."""
    counted = _CountedPattern(model._LEXEME)
    monkeypatch.setattr(model, "_LEXEME", counted)
    read(text)
    assert 0 < counted.attempts <= sum(text.count(c) for c in "\"'/")


def _make(body: str, return_type: str = "Order", annotations=()):
    cid = component_id("svc", ComponentType.SERVICE, "pkg.Svc")
    method = Method(
        name="get",
        parameters=(Parameter("id", "String"),),
        return_type=return_type,
        annotations=tuple(annotations),
        body_call_targets=("Repo.find/1",),
        content_hash=method_content_hash(body),
    )
    return make_component(cid, methods=[method], source_path="a/Svc.java")


def test_hash_is_insensitive_to_member_order():
    cid = component_id("svc", ComponentType.SERVICE, "pkg.Svc")
    m1 = Method(name="a", content_hash=method_content_hash("x();"))
    m2 = Method(name="b", content_hash=method_content_hash("y();"))
    forward = make_component(cid, methods=[m1, m2])
    reverse = make_component(cid, methods=[m2, m1])
    assert forward.content_hash == reverse.content_hash


_SIGNATURE_TYPES = st.sampled_from(["a", "a!", "a,b", "ab", "b", ""])


@st.composite
def _shuffled_components(draw) -> Component:
    """A component built directly, its members in any order, with methods
    whose sort keys tie and types whose joined signatures sort unlike them."""
    base = draw(components("svc", "pkg.Unit"))
    methods = list(base.methods)
    for _ in range(draw(st.integers(0, 3))):
        params = tuple(
            Parameter(f"p{i}", draw(_SIGNATURE_TYPES)) for i in range(draw(st.integers(0, 2)))
        )
        methods.append(
            Method(
                name=draw(st.sampled_from(["m", "n"])),
                parameters=params,
                content_hash=method_content_hash(draw(st.sampled_from(["x();", "y();"]))),
            )
        )
    entity = base.entity_ref
    if entity is not None:
        entity = Entity(entity.name, tuple(draw(st.permutations(entity.fields))), entity.annotations)
    return Component(
        base.id,
        tuple(draw(st.permutations(methods))),
        tuple(draw(st.permutations(base.endpoints))),
        entity,
        base.source_path,
    )


@given(_shuffled_components())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_component_digest_equals_the_reference(comp):
    expected = reference_hash.hash_component(comp)
    assert hash_component(comp) == expected
    built = make_component(comp.id, comp.methods, comp.endpoints, comp.entity_ref, comp.source_path)
    assert built.content_hash == reference_hash.hash_component(built) == expected


def _oracle_normalize(text: str) -> str:
    # Independent normalizer: regex comment removal, then whitespace collapse
    # outside quoted segments.  Deliberately a different implementation from
    # the one under test.
    text = re.sub(r"//[^\n]*", " ", text)
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    parts = re.split(r'("(?:[^"\\]|\\.)*")', text)
    collapsed = [
        part if i % 2 else " ".join(part.split()) for i, part in enumerate(parts)
    ]
    return "".join(collapsed).strip()


def test_whitespace_only_reformat_hashes_equal():
    original = 'Order o = repo.find( id ); // lookup\nreturn o;'
    reformatted = 'Order o =   repo.find( id );\n\n    return o;  /* done */'
    assert _oracle_normalize(original) != _oracle_normalize("return null;")
    # the two bodies agree under the independent normalizer...
    assert _oracle_normalize(original) == _oracle_normalize(reformatted)
    # ...and therefore under the component hash
    assert _make(original).content_hash == _make(reformatted).content_hash


def test_return_type_change_alters_hash():
    assert (
        _make("return repo.find(id);", "Order").content_hash
        != _make("return repo.find(id);", "OrderDTO").content_hash
    )


def test_annotation_change_alters_hash():
    assert (
        _make("x();", annotations=('Query("a")',)).content_hash
        != _make("x();", annotations=()).content_hash
    )


def test_file_move_does_not_alter_hash():
    a = _make("x();")
    cid = a.id
    moved = make_component(
        cid, methods=a.methods, source_path="elsewhere/Svc.java"
    )
    assert a.content_hash == moved.content_hash


def test_identity_is_stable_under_body_edits():
    before = _make("return repo.find(id);")
    after = _make("return repo.find(id).copy();")
    assert before.id == after.id
    assert before.content_hash != after.content_hash


def test_endpoints_restricted_to_controllers():
    cid = component_id("svc", ComponentType.SERVICE, "pkg.Svc")
    ep = Endpoint("GET", "/x", "h", cid)
    with pytest.raises(ValueError):
        make_component(cid, endpoints=[ep])


def test_entity_payload_must_match_type():
    service_id = component_id("svc", ComponentType.SERVICE, "pkg.Svc")
    with pytest.raises(ValueError):
        make_component(service_id, entity_ref=Entity("X", (EntityField("a", "T"),)))
    entity_id = component_id("svc", ComponentType.ENTITY, "pkg.X")
    with pytest.raises(ValueError):
        make_component(entity_id)  # entity payload missing
