import hashlib
import itertools
import sys

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
from ribbonsurf import cayley, groups
from ribbonsurf.groups import Solver
from ribbonsurf.io import cayley_ball_to_json


def reference_cayley_ball(pres, radius):
    """(vertices, edges, cells) as the ball was grown before one-letter
    steps: every candidate freely reduced and keyed from its start."""
    solver = Solver(pres)
    words = [()]
    by_key = {solver.key(()): [0]}

    def find(word):
        for vi in by_key.get(solver.key(word), ()):
            if solver.kind != "dehn" or solver.is_trivial(
                    free_reduce(word + invert_word(words[vi]))):
                return vi
        return None

    alphabet = ([(g, 1) for g in pres.generators]
                + [(g, -1) for g in pres.generators])
    start = 0
    for _ in range(radius):
        layer, start = words[start:], len(words)
        for base in layer:
            for letter in alphabet:
                cand = free_reduce(base + (letter,))
                if find(cand) is None:
                    by_key.setdefault(solver.key(cand), []).append(len(words))
                    words.append(cand)

    edges = []
    for ui, base in enumerate(words):
        for gen in pres.generators:
            target = find(free_reduce(base + ((gen, 1),)))
            if target is not None:
                edges.append((ui, gen, target))

    cells = []
    for base_index, base in enumerate(words):
        for rj, relator in enumerate(pres.relators):
            cycle, word = [base_index], base
            for letter in relator[:-1]:
                word = free_reduce(word + (letter,))
                cycle.append(find(word))
                if cycle[-1] is None:
                    break
            else:
                assert find(free_reduce(word + relator[-1:])) == base_index
                cells.append((base_index, rj, tuple(cycle)))
    return tuple(words), tuple(edges), tuple(cells)


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


@pytest.fixture(autouse=True)
def edges_join_consecutive_spheres(monkeypatch):
    """Every ball a test here grows has each edge join words whose lengths
    differ by one: the parity argument that lets the growth skip stepping
    its outermost sphere."""
    grow = cayley_ball

    def checked(pres, radius):
        ball = grow(pres, radius)
        lengths = [len(word) for word in ball.vertices]
        assert all(abs(lengths[u] - lengths[v]) == 1 for u, _, v in ball.edges)
        return ball

    monkeypatch.setattr(sys.modules[__name__], "cayley_ball", checked)


def surface_sphere_sizes(genus, radius):
    """Sphere sizes up to ``radius`` of the genus-g surface group on its
    standard generators, from its growth series N(z) / D(z) with
    N = 1 + 2z + ... + 2z^(2g-1) + z^(2g) and
    D = 1 - (4g-2)(z + ... + z^(2g-1)) + z^(2g)
    (Cannon; Floyd and Plotnick, "Growth functions on Fuchsian groups and
    the Euler characteristic", 1987)."""
    num = [1] + [2] * (2 * genus - 1) + [1]
    den = [1] + [2 - 4 * genus] * (2 * genus - 1) + [1]
    sizes = []
    for n in range(radius + 1):
        lower = sum(den[i] * sizes[n - i] for i in range(1, min(n, 2 * genus) + 1))
        sizes.append((num[n] if n < len(num) else 0) - lower)
    return sizes


@pytest.mark.parametrize("genus, sizes", [(2, [1, 9, 65, 457, 3193]),
                                          (3, [1, 13, 145, 1597])],
                         ids=["surface2", "surface3"])
def test_surface_balls_follow_the_growth_series(genus, sizes):
    spheres = surface_sphere_sizes(genus, len(sizes) - 1)
    assert list(itertools.accumulate(spheres)) == sizes
    for r, size in enumerate(sizes):
        assert cayley_ball(surface_group(genus), r).num_vertices == size


def test_genus2_radius4_cells():
    # The first radius at which a genus-2 cell closes: the eight octagons
    # around the identity, each checked letter by letter by Dehn's algorithm.
    pres = surface_group(2)
    ball = cayley_ball(pres, 4)
    relator = pres.relators[0]
    assert len(ball.cells) == 8
    assert len({frozenset(cycle) for _, _, cycle in ball.cells}) == 8
    for base, rj, cycle in ball.cells:
        assert rj == 0 and cycle[0] == base and 0 in cycle
        assert len(set(cycle)) == len(relator)
        for i, letter in enumerate(relator):
            u, v = ball.vertices[cycle[i]], ball.vertices[cycle[(i + 1) % len(cycle)]]
            assert is_trivial_word(u + (letter,) + invert_word(v), pres)


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


@pytest.mark.parametrize("pres, radii", [
    (free_presentation(1), range(12)),
    (free_presentation(2), range(6)),
    (free_presentation(3), range(4)),
    (zxz_presentation(), range(12)),
    (surface_group(2), range(3)),
    (surface_group(3), range(3)),
], ids=["free1", "free2", "free3", "zxz", "surface2", "surface3"])
def test_matches_reference_ball(pres, radii):
    for r in radii:
        ball = cayley_ball(pres, r)
        assert (ball.vertices, ball.edges, ball.cells) == reference_cayley_ball(pres, r)


# Acceptance criterion 8 (free:2 r <= 5, zxz r <= 10, surface:2 r = 1) plus
# surface:2 r = 2 and surface:3 r = 1: the balls the groups benchmark grows.
BENCHMARK_BALLS = ([(free_presentation(2), r) for r in range(6)]
                   + [(zxz_presentation(), r) for r in range(11)]
                   + [(surface_group(2), 1), (surface_group(2), 2),
                      (surface_group(3), 1)])


def test_pinned_benchmark_balls():
    digest = hashlib.sha256()
    for pres, r in BENCHMARK_BALLS:
        ball = cayley_ball(pres, r)
        digest.update(repr((ball.vertices, ball.edges, ball.cells)).encode())
    assert digest.hexdigest() == (
        "cfc4e0fe6767ee9db9d6b88b9775307175d442afd0c344c963cdef8336ec7264")


@pytest.mark.parametrize("pres, radius, size", [(free_presentation(2), 5, 485),
                                                (zxz_presentation(), 10, 221)],
                         ids=["free2", "zxz"])
def test_balls_never_reduce_or_sum_whole_words(monkeypatch, pres, radius, size):
    # Each word is one letter from a word whose key is known, so growing a
    # ball of a free group or of Z x Z reduces and sums no word from its start.
    calls = []
    for module in (cayley, groups):
        for name in ("free_reduce", "exponent_sums"):
            original = getattr(groups, name)
            monkeypatch.setattr(
                module, name,
                lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args),
                raising=False)
    assert cayley_ball(pres, radius).num_vertices == size
    assert calls == []


@pytest.mark.parametrize("pres, radius, steps", [
    (free_presentation(2), 3, 52),
    (zxz_presentation(), 5, 100),
    (surface_group(2), 2, 64),
    (surface_group(100), 1, 400),
], ids=["free2", "zxz", "surface2", "surface100"])
def test_edges_come_from_the_growth_steps(monkeypatch, pres, radius, steps):
    # Every edge joins two consecutive spheres, so the growth steps each
    # edge once, from its inner end, and reads edges and cells from its
    # table: the outermost sphere and the cell loop step nothing.
    calls = []
    step = Solver.step
    monkeypatch.setattr(Solver, "step",
                        lambda self, *args: calls.append(1) or step(self, *args))
    ball = cayley_ball(pres, radius)
    assert len(calls) == len(ball.edges) == steps


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
