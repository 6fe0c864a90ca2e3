import hashlib

import pytest

from ribbonsurf import (
    Presentation,
    PreconditionError,
    UnsupportedPresentationError,
    cayley_ball,
    free_presentation,
    free_reduce,
    invert_word,
    is_trivial_word,
    parse_word,
    surface_group,
    zxz_presentation,
)
from ribbonsurf.io import cayley_ball_to_json


def pairwise_ball(pres, radius):
    """Reference ball: (vertices, edges, cells) found by comparing each
    candidate through is_trivial_word with every representative in the
    ball layers within one of the layer it steps from."""
    words, dist, layers = [()], [0], {0: [0]}

    def find(word, around):
        for r in (around - 1, around, around + 1):
            for vi in layers.get(r, ()):
                if is_trivial_word(word + invert_word(words[vi]), pres):
                    return vi
        return None

    alphabet = ([(g, 1) for g in pres.generators]
                + [(g, -1) for g in pres.generators])
    for r in range(1, radius + 1):
        layers[r] = []
        for ui in layers[r - 1]:
            for letter in alphabet:
                cand = free_reduce(words[ui] + (letter,))
                if find(cand, r - 1) is None:
                    words.append(cand)
                    dist.append(r)
                    layers[r].append(len(words) - 1)
    edges = []
    for ui, base in enumerate(words):
        for gen in pres.generators:
            target = find(free_reduce(base + ((gen, 1),)), dist[ui])
            if target is not None:
                edges.append((ui, gen, target))
    cells = []
    for bi, base in enumerate(words):
        for rj, relator in enumerate(pres.relators):
            cycle, word = [bi], base
            for letter in relator[:-1]:
                word = free_reduce(word + (letter,))
                at = find(word, dist[cycle[-1]])
                if at is None:
                    break
                cycle.append(at)
            else:
                assert is_trivial_word(word + relator[-1:] + invert_word(base), pres)
                cells.append((bi, rj, tuple(cycle)))
    return tuple(words), tuple(edges), tuple(cells)


@pytest.mark.parametrize("pres, radii", [
    (free_presentation(1), range(5)),
    (free_presentation(2), range(4)),
    (zxz_presentation(), range(6)),
    (surface_group(2), range(2)),
    (surface_group(3), [1]),
], ids=["free1", "free2", "zxz", "surface2", "surface3"])
def test_matches_pairwise_reference(pres, radii):
    for r in radii:
        ball = cayley_ball(pres, r)
        assert (ball.vertices, ball.edges, ball.cells) == pairwise_ball(pres, r)


@pytest.mark.parametrize("pres, radius, digest", [
    (free_presentation(2), 3,
     "673a565cc190e6587b56ba0e025945d0fa7b63e207ddd21a55a48ed59c63c569"),
    (zxz_presentation(), 3,
     "32b7bc4ce6aa04f66de264b8b239e4882d3da5e5c1c37870987bcc1a72f5279a"),
    (surface_group(2), 2,
     "9b04198affd9eb657656caf18dde7c5f71e46f6feefc8e494b38660cbc151885"),
], ids=["free2", "zxz", "surface2"])
def test_pinned_ball_json(pres, radius, digest):
    text = cayley_ball_to_json(cayley_ball(pres, radius))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_free_rank2_ball_is_a_tree():
    expected = [1, 5, 17, 53, 161, 485]
    for r, count in enumerate(expected):
        ball = cayley_ball(free_presentation(2), r)
        assert ball.num_vertices == count
        assert len(ball.edges) == count - 1
        assert len(ball.cells) == 0


def test_zxz_ball_taxicab_counts():
    for r in range(6):
        ball = cayley_ball(zxz_presentation(), r)
        assert ball.num_vertices == 2 * r * r + 2 * r + 1


def test_zxz_cells_are_squares():
    ball = cayley_ball(zxz_presentation(), 2)
    assert len(ball.edges) == 16
    assert len(ball.cells) == 4
    for base_index, relator_index, cycle in ball.cells:
        assert relator_index == 0
        assert len(cycle) == 4
        assert cycle[0] == base_index
        assert len(set(cycle)) == 4


def test_genus2_radius1_count():
    ball = cayley_ball(surface_group(2), 1)
    assert ball.num_vertices == 9
    assert len(ball.edges) == 8
    assert len(ball.cells) == 0


def test_identity_first_and_reps_geodesic():
    ball = cayley_ball(zxz_presentation(), 3)
    assert ball.vertices[0] == ()
    for word in ball.vertices:
        assert free_reduce(word) == word
        # taxicab distance of the representative equals its length
        sums = {}
        for lab, s in word:
            sums[lab] = sums.get(lab, 0) + s
        assert sum(abs(v) for v in sums.values()) == len(word)


def test_edges_connect_adjacent_elements():
    # in a free group representatives are unique reduced words, so the
    # target representative is literally source * generator reduced
    ball = cayley_ball(free_presentation(2), 3)
    for u, gen, v in ball.edges:
        assert free_reduce(ball.vertices[u] + ((gen, 1),)) == ball.vertices[v]


def test_vertex_layering_by_radius():
    ball = cayley_ball(free_presentation(1), 4)
    lengths = [len(w) for w in ball.vertices]
    assert lengths == sorted(lengths)
    assert max(lengths) == 4
    assert ball.num_vertices == 9


def test_rejects_unsupported_presentation():
    with pytest.raises(UnsupportedPresentationError):
        cayley_ball(Presentation(("a",), (parse_word("aaa"),)), 2)


def test_rejects_negative_radius():
    with pytest.raises(PreconditionError):
        cayley_ball(free_presentation(2), -1)


def test_trivial_group_ball():
    ball = cayley_ball(surface_group(0), 3)
    assert ball.num_vertices == 1
    assert ball.vertices == (() ,)
    assert len(ball.edges) == 0
