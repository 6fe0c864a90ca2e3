import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from ribbonsurf import (
    DocumentSyntaxError,
    GraphDocument,
    MalformedWordError,
    format_word,
    from_rotation_lists,
    parse_document,
    parse_graph,
    parse_word,
    petal,
    serialize_document,
    serialize_graph,
)
from ribbonsurf.io import cayley_ball_to_dot, cayley_ball_to_json, map_to_dot
from ribbonsurf.maps import LABEL_PATTERN

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def test_compact_word_grammar():
    assert parse_word("abAB") == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    assert parse_word("") == ()
    assert parse_word("zZ") == (("z", 1), ("z", -1))


def test_token_word_grammar():
    assert parse_word("e1 e2' e1'") == (("e1", 1), ("e2", -1), ("e1", -1))
    assert parse_word("a B c") == (("a", 1), ("b", -1), ("c", 1))
    assert parse_word("alpha beta'") == (("alpha", 1), ("beta", -1))


def test_word_grammar_respects_known_generators():
    # a multi-character generator name parses as one letter when declared;
    # membership of other letters is the solver's concern, not the parser's
    assert parse_word("ab", generators=("ab",)) == (("ab", 1),)
    assert parse_word("ab") == (("a", 1), ("b", 1))
    assert parse_word("q", generators=("a", "b")) == (("q", 1),)


def test_format_word_round_trip():
    for text in ["", "abAB", "xyzXYZ", "e1 e2'", "alpha beta' alpha'"]:
        assert format_word(parse_word(text)) == text


generator_labels = st.one_of(st.sampled_from("ABCabc"),
                             st.from_regex(LABEL_PATTERN, fullmatch=True))


@settings(max_examples=100, deadline=None)
@given(st.lists(generator_labels, min_size=1, max_size=4, unique=True).flatmap(
    lambda names: st.tuples(st.just(names), st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from([1, -1]))))))
def test_format_word_round_trips_over_generators(case):
    names, word = case
    assert parse_word(format_word(word, names), generators=names) == tuple(word)


def test_format_word_spaces_a_compact_text_that_names_a_generator():
    assert format_word([("a", -1)], ("a", "A")) == "a'"
    assert format_word([("a", 1), ("b", 1)], ("a", "b", "ab")) == "a b"
    assert format_word([("a", -1)]) == "A"
    assert format_word([("a", 1), ("b", 1)], ("a", "b")) == "ab"


def test_malformed_words_rejected():
    for bad in ["a+", "1a", "a''", "'a"]:
        with pytest.raises(MalformedWordError):
            parse_word(bad)


def test_shipped_documents_byte_stable():
    docs = sorted(DATA.glob("*.json"))
    assert len(docs) >= 8
    for path in docs:
        text = path.read_text()
        doc = parse_document(text)
        assert serialize_document(doc) == text


def test_document_map_round_trip():
    m = petal(2)
    assert parse_graph(serialize_graph(m)) == m


def test_document_preserves_name_and_comment():
    doc = GraphDocument(edges=("a",), rotations=(("a+", "a-"),),
                        name="loop", comment="one loop")
    text = serialize_document(doc)
    again = parse_document(text)
    assert again == doc
    assert json.loads(text)["comment"] == "one loop"


def test_document_key_order_fixed():
    text = serialize_graph(petal(1), name="x")
    keys = list(json.loads(text).keys())
    assert keys == ["edges", "vertices", "name"]
    assert text.endswith("\n")


def test_unknown_keys_rejected():
    with pytest.raises(DocumentSyntaxError):
        parse_document('{"edges": [], "vertices": [], "extra": 0}')
    with pytest.raises(DocumentSyntaxError):
        parse_document(
            '{"edges": ["a"], "vertices": [{"rotation": ["a+", "a-"], "z": 1}]}')


def test_schema_shape_errors():
    bad = ['[]', '3', 'junk', '{"vertices": []}', '{"edges": []}',
           '{"edges": "a", "vertices": []}',
           '{"edges": ["a"], "vertices": [["a+", "a-"]]}',
           '{"edges": ["a"], "vertices": [{"rotation": "a+"}]}',
           '{"edges": ["a"], "vertices": [{"rotation": [1]}]}',
           '{"edges": ["a"], "vertices": [{"rotation": ["a+", "a-"]}], "name": 3}']
    for text in bad:
        with pytest.raises(DocumentSyntaxError):
            parse_document(text)


def test_semantic_errors_not_syntax_errors():
    # well-formed document, bad rotation system
    text = '{"edges": ["a"], "vertices": [{"rotation": ["a+"]}]}'
    doc = parse_document(text)
    with pytest.raises(Exception) as info:
        parse_graph(text)
    assert not isinstance(info.value, DocumentSyntaxError)
    assert doc.edges == ("a",)


def test_map_to_dot_structure():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    dot = map_to_dot(theta)
    assert dot.startswith("graph G {")
    assert dot.count(" -- ") == 3
    assert dot.count("// face:") == 3
    assert dot.rstrip().endswith("}")


def test_cayley_serializers():
    from ribbonsurf import cayley_ball, zxz_presentation
    ball = cayley_ball(zxz_presentation(), 2)
    dot = cayley_ball_to_dot(ball)
    assert dot.startswith("digraph")
    assert dot.count(" -> ") == len(ball.edges)
    data = json.loads(cayley_ball_to_json(ball))
    assert data["radius"] == 2
    assert len(data["vertices"]) == 13
    assert len(data["edges"]) == 16
    assert len(data["cells"]) == 4
