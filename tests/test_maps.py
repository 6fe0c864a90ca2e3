import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonsurf import (
    DartRef,
    DisconnectedError,
    DuplicateDartError,
    DuplicateLabelError,
    InternalInvariantViolation,
    MapError,
    MissingDartError,
    UnknownLabelError,
    degree,
    from_rotation_lists,
    parse_dart_token,
    petal,
    refine,
    relabeled,
    surface_report,
    validate_rotation_lists,
)
from ribbonsurf import maps
from ribbonsurf.maps import _from_dart_rows
from util import corpus, scramble


def theta():
    return from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])


def test_dart_indexing_conventions():
    m = theta()
    assert m.num_edges == 3
    assert m.num_darts == 6
    assert m.num_vertices == 2
    # edge k owns darts 2k (forward) and 2k+1 (backward)
    assert m.dart_index(("e1", 1)) == 0
    assert m.dart_index(("e1", -1)) == 1
    assert m.dart_index(("e3", -1)) == 5
    assert m.iota(0) == 1 and m.iota(1) == 0
    assert m.edge_of(4) == "e3"
    assert m.dart_ref(2) == DartRef("e2", 1)


def test_sigma_orbits_are_stars():
    m = theta()
    assert m.star(m.vertex_of(0)) == (0, 2, 4)
    assert m.star(m.vertex_of(1)) == (1, 5, 3)
    # sigma cycles within the star
    assert m.next_dart(0) == 2
    assert m.next_dart(4) == 0
    assert degree(m, m.vertex_of(0)) == 3


def test_star_walk_must_close():
    # Every star, face and corner-class walk must return to its start: a
    # sigma that is not a permutation is a bug in the caller.
    for sigma in [(1, 1), (2, 0, 2, 1), (1, 2, 3, 3)]:
        with pytest.raises(InternalInvariantViolation, match="does not close"):
            maps.RibbonMap(["a", "b"][:len(sigma) // 2], sigma)
    with pytest.raises(InternalInvariantViolation, match="does not close"):
        maps._orbits([1, 0, 0], 0)


def test_parse_dart_token_forms():
    assert parse_dart_token("a+") == DartRef("a", 1)
    assert parse_dart_token("ab_2-") == DartRef("ab_2", -1)
    assert parse_dart_token(("a", -1)) == DartRef("a", -1)
    assert parse_dart_token(DartRef("a", 1)) == DartRef("a", 1)
    with pytest.raises(Exception):
        parse_dart_token("a")
    with pytest.raises(Exception):
        parse_dart_token("+a")


def test_validation_codes():
    report = validate_rotation_lists(["a", "a"], [["a+", "a-"]])
    assert not report.ok and any(c == "DuplicateLabel" for c, _ in report.issues)
    report = validate_rotation_lists(["a"], [["a+", "a+", "a-"]])
    assert any(c == "DuplicateDart" for c, _ in report.issues)
    report = validate_rotation_lists(["a"], [["a+"]])
    assert any(c == "MissingDart" for c, _ in report.issues)
    report = validate_rotation_lists(["a"], [["a+", "b-", "a-"]])
    assert any(c == "UnknownLabel" for c, _ in report.issues)
    report = validate_rotation_lists(["a", "b"],
                                     [["a+", "a-"], ["b+", "b-"]])
    assert any(c == "Disconnected" for c, _ in report.issues)
    report = validate_rotation_lists(["a"], [["a+", "a-"], []])
    assert any(c == "IsolatedVertex" for c, _ in report.issues)
    assert validate_rotation_lists(["a"], [["a+", "a-"]]).ok


def test_constructor_raises_matching_exceptions():
    with pytest.raises(DuplicateLabelError):
        from_rotation_lists(["a", "a"], [["a+", "a-"]])
    with pytest.raises(DuplicateDartError):
        from_rotation_lists(["a"], [["a+", "a+", "a-"]])
    with pytest.raises(MissingDartError):
        from_rotation_lists(["a"], [["a+"]])
    with pytest.raises(UnknownLabelError):
        from_rotation_lists(["a"], [["a+", "b-", "a-"]])
    with pytest.raises(DisconnectedError):
        from_rotation_lists(["a", "b"], [["a+", "a-"], ["b+", "b-"]])


def test_connectivity_checks_count_the_darts_reached():
    # Three one-loop components: the walk from dart 0 reaches a+ and a-.
    labels = ("a", "b", "c")
    message = "map splits into components (2 of 6 darts reached)"
    rotations = [["a+", "a-"], ["b+", "b-"], ["c+", "c-"]]
    assert validate_rotation_lists(labels, rotations).issues == [
        ("Disconnected", message)]
    with pytest.raises(DisconnectedError, match=rf"^{re.escape(message)}$"):
        from_rotation_lists(labels, rotations)
    message = "rows split into components (2 of 6 darts reached)"
    with pytest.raises(InternalInvariantViolation, match=rf"^{re.escape(message)}$"):
        _from_dart_rows(labels, [[0, 1], [2, 3], [4, 5]])


def test_from_rotation_lists_parses_each_token_once(monkeypatch):
    parsed = []

    def counting(token):
        parsed.append(token)
        return parse_dart_token(token)

    monkeypatch.setattr(maps, "parse_dart_token", counting)
    theta()
    assert sorted(parsed) == ["e1+", "e1-", "e2+", "e2-", "e3+", "e3-"]


def test_internal_constructor_matches_token_constructor():
    m = _from_dart_rows(("e1", "e2", "e3"), [[0, 2, 4], [1, 5, 3]])
    assert m.edge_labels == theta().edge_labels
    assert m.sigma == theta().sigma
    assert _from_dart_rows((), []).num_vertices == 1


@pytest.mark.parametrize("labels, rows", [
    (("a",), [[0, 1, 0]]),           # a dart placed twice
    (("a", "b"), [[0, 1, 2]]),       # dart 3 placed in no row
    (("a",), [[0, 1, 2]]),           # dart 2 out of range
    (("a",), [[0, 1], []]),          # an empty row: isolated vertex
    (("a", "b"), [[0, 1], [2, 3]]),  # two components
    ((), [[], []]),                  # edgeless map with two vertices
])
def test_internal_constructor_rejects_broken_rows(labels, rows):
    with pytest.raises(InternalInvariantViolation):
        _from_dart_rows(labels, rows)


def test_edgeless_map():
    m = from_rotation_lists([], [[]])
    assert m.num_edges == 0 and m.num_vertices == 1
    assert from_rotation_lists([], []).num_vertices == 1


def test_edgeless_map_is_the_one_vertex_sphere():
    s0 = maps.RibbonMap((), ())
    assert s0.num_vertices == 1 and s0.vertices() == (0,) and s0.star(0) == ()
    assert s0.rotation_tokens() == [[]]
    assert repr(s0) == "RibbonMap(S0)"
    assert s0 == from_rotation_lists([], [[]]) == from_rotation_lists([], []) == petal(0)
    assert hash(s0) == hash(petal(0))
    assert refine(s0) == s0
    with pytest.raises(IndexError):
        s0.star(1)


def canonical_stars(m):
    """Reference equality key: the sorted edge labels, and every star as a
    token tuple at its least rotation, the stars sorted."""
    stars = []
    for v in range(m.num_vertices):
        tokens = tuple(m.dart_ref(d).token() for d in m.star(v))
        stars.append(min((tokens[i:] + tokens[:i] for i in range(len(tokens))),
                         default=()))
    return tuple(sorted(m.edge_labels)), tuple(sorted(stars))


EQUALITY_CORPUS = [m for _, m in corpus(40, seed=23)] + [petal(0), petal(1)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(EQUALITY_CORPUS) - 1),
       st.integers(0, len(EQUALITY_CORPUS) - 1), st.integers(0, 2 ** 32))
def test_equality_matches_canonical_stars_reference(i, j, seed):
    # Pairs: a map and its rotation lists re-written (edges and vertices
    # shuffled, each list re-phased), two corpus maps (often with the same
    # labels), one of them re-written, and a map with its edges renamed.
    rng = random.Random(seed)
    a, b = EQUALITY_CORPUS[i], EQUALITY_CORPUS[j]
    for x, y in ((a, scramble(a, rng, rename=False)), (a, b),
                 (a, scramble(b, rng, rename=False)), (a, scramble(a, rng))):
        same = canonical_stars(x) == canonical_stars(y)
        assert (x == y) is same and (y == x) is same
        if same:
            assert hash(x) == hash(y)


def test_equality_ignores_presentation_order():
    m = theta()
    rng = random.Random(3)
    for _ in range(10):
        assert scramble(m, rng, rename=False) == m
    assert hash(scramble(m, rng, rename=False)) == hash(m)


def test_relabeled_preserves_structure():
    m = petal(2)
    out = relabeled(m, {"a": "p", "b": "q", "c": "r", "d": "s"})
    assert out.edge_labels == ("p", "q", "r", "s")
    assert out.sigma == m.sigma
    with pytest.raises(DuplicateLabelError):
        relabeled(m, {"a": "x", "b": "x", "c": "y", "d": "z"})
    with pytest.raises(UnknownLabelError):
        relabeled(m, {"a": "x"})
    with pytest.raises(MapError, match=r"^bad edge label '1x'$"):
        relabeled(m, {"a": "p", "b": "1x", "c": "r", "d": "s"})


def test_refine_doubles_edges_and_keeps_genus():
    for g, m in corpus(25, seed=11):
        if m.num_edges == 0:
            continue
        fine = refine(m)
        assert fine.num_edges == 2 * m.num_edges
        assert fine.num_vertices == m.num_vertices + m.num_edges
        assert surface_report(fine).genus == g
        # midpoints have degree 2
        twos = sum(1 for v in range(fine.num_vertices)
                   if degree(fine, v) == 2)
        assert twos >= m.num_edges


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6))
def test_handshake_sum_of_degrees(g):
    m = petal(g)
    total = sum(degree(m, v) for v in range(m.num_vertices))
    assert total == 2 * m.num_edges


def test_rotation_tokens_round_trip():
    for _, m in corpus(20, seed=5):
        rebuilt = from_rotation_lists(m.edge_labels, m.rotation_tokens())
        assert rebuilt == m
