import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ribbonsurf import (
    EmptyMapError,
    InternalInvariantViolation,
    are_isomorphic,
    canonical_encoding,
    from_rotation_lists,
    parse_word,
    petal,
    random_filling_map,
    refine,
    relabeled,
    trace_faces,
    word_to_map,
)
from ribbonsurf import iso
from ribbonsurf.cli import CommandResult, dispatch
from util import corpus, scramble

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def all_roots_encoding(m):
    """Reference encoding: the least full BFS image over every root."""
    images = []
    for root in range(m.num_darts):
        order = {root: 0}
        queue = [root]
        for d in queue:
            for nxt in (m.sigma[d], d ^ 1):
                if nxt not in order:
                    order[nxt] = len(order)
                    queue.append(nxt)
        sigma_new = [order[m.sigma[d]] for d in queue]
        iota_new = [order[d ^ 1] for d in queue]
        images.append(b"".join(v.to_bytes(4, "big") for v in sigma_new + iota_new))
    return min(images)


def first_root_witness(a, b):
    """Reference witness: a screen on sizes, star lengths and face lengths,
    then each of b's darts in turn as the image of dart 0; the mapping of the
    first match, () for two edgeless maps, or None."""
    if a.num_edges != b.num_edges or a.num_vertices != b.num_vertices:
        return None
    if a.num_edges == 0:
        return ()
    if sorted(len(a.star(v)) for v in range(a.num_vertices)) != \
       sorted(len(b.star(v)) for v in range(b.num_vertices)):
        return None
    if sorted(map(len, trace_faces(a))) != sorted(map(len, trace_faces(b))):
        return None
    for root in range(b.num_darts):
        fwd = iso._match_from(a, b, root)
        if fwd is not None:
            return tuple(fwd)
    return None


def witness(a, b):
    bijection = are_isomorphic(a, b)
    return None if bijection is None else bijection.mapping


def test_relabeled_copies_are_isomorphic():
    m = petal(2)
    copy = relabeled(m, {"a": "w", "b": "x", "c": "y", "d": "z"})
    bijection = are_isomorphic(m, copy)
    assert bijection is not None
    assert bijection.commutes(m, copy)


def test_encoding_invariant_under_scrambling():
    rng = random.Random(17)
    for _, m in corpus(12, seed=23):
        if m.num_edges == 0:
            continue
        base = canonical_encoding(m)
        for _ in range(20):
            assert canonical_encoding(scramble(m, rng)) == base


def test_wedge_embeddings_not_isomorphic():
    interleaved = from_rotation_lists(["a", "b"], [["a+", "b+", "a-", "b-"]])
    nested = from_rotation_lists(["a", "b"], [["a+", "a-", "b+", "b-"]])
    assert are_isomorphic(interleaved, nested) is None
    assert canonical_encoding(interleaved) != canonical_encoding(nested)


def test_different_sizes_fast_reject():
    assert are_isomorphic(petal(1), petal(2)) is None


def test_refined_map_not_isomorphic_to_original():
    m = petal(1)
    assert are_isomorphic(m, refine(m)) is None


def test_encoding_equality_iff_isomorphic_on_small_family():
    maps = [petal(1),
            from_rotation_lists(["a", "b"], [["a+", "b+", "a-", "b-"]]),
            from_rotation_lists(["a", "b"], [["a+", "a-", "b+", "b-"]]),
            from_rotation_lists(["a", "b"], [["a+", "b-", "a-", "b+"]])]
    for i, m1 in enumerate(maps):
        for j, m2 in enumerate(maps):
            same_encoding = (canonical_encoding(m1) == canonical_encoding(m2))
            assert same_encoding == (are_isomorphic(m1, m2) is not None)


def test_empty_maps_isomorphic_but_not_encodable():
    empty = from_rotation_lists([], [[]])
    assert are_isomorphic(empty, empty) is not None
    with pytest.raises(EmptyMapError):
        canonical_encoding(empty)


def test_bijection_maps_darts_consistently():
    m = petal(2)
    rng = random.Random(5)
    copy = scramble(m, rng)
    bijection = are_isomorphic(m, copy)
    assert bijection is not None
    seen = sorted(bijection(d) for d in range(m.num_darts))
    assert seen == list(range(m.num_darts))
    assert bijection.commutes(m, copy)


def test_a_match_that_does_not_commute_is_a_bug(monkeypatch):
    # A permutation that swaps darts 0 and 2 breaks the edge involution; the
    # search must report it rather than try the next root.
    def swapped(a, b, root):
        fwd = list(range(a.num_darts))
        fwd[0], fwd[2] = 2, 0
        return fwd

    monkeypatch.setattr(iso, "_match_from", swapped)
    message = "match to root 0 does not commute"
    with pytest.raises(InternalInvariantViolation, match=f"^{message}$"):
        are_isomorphic(petal(2), petal(2))
    path = str(DATA / "petal_2.json")
    assert dispatch(["iso", path, path]) == CommandResult(
        3, f"internal error: {message}")


def test_encoding_matches_all_roots_reference():
    maps = [m for _, m in corpus(40, seed=31) if m.num_edges]
    maps += [refine(m) for m in maps[::3]]
    for g in range(1, 7):
        maps += [petal(g), refine(petal(g))]
    for m in maps:
        assert canonical_encoding(m) == all_roots_encoding(m)


def test_witness_matches_first_root_reference():
    # The witness sends dart 0 to the smallest dart of b that any
    # isomorphism reaches: the root the reference finds first.
    rng = random.Random(43)
    maps = [m for _, m in corpus(30, seed=47)]
    for g in range(1, 9):
        maps += [petal(g), refine(petal(g)), refine(refine(petal(g)))]
    maps += [scramble(m, rng) for m in maps]
    for i, a in enumerate(maps):
        for b in (a, scramble(a, rng), maps[i - 1]):
            assert witness(a, b) == first_root_witness(a, b)


class CountedSigma(tuple):
    """A rotation that counts its reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


def test_encoding_work_grows_linearly_on_symmetric_maps():
    # Many roots of a petal tie the best image to the end, which made the
    # reads grow 4x per doubling; orbit pruning searches about two of them.
    for build in (petal, lambda g: refine(petal(g))):
        reads = []
        for g in (50, 100, 200):
            m = build(g)
            m.sigma = CountedSigma(m.sigma)
            canonical_encoding(m)
            reads.append(m.sigma.reads)
        assert reads[1] <= 2.2 * reads[0] and reads[2] <= 2.2 * reads[1], reads


def test_one_match_per_isomorphism_test(monkeypatch):
    # petal(100) shares its sizes, star and face with the one-face map
    # x1 ... x200 x1' ... x200', so a screen cannot tell them apart.
    calls = []
    match = iso._match_from
    monkeypatch.setattr(iso, "_match_from",
                        lambda a, b, root: calls.append(root) or match(a, b, root))
    names = [f"x{i}" for i in range(1, 201)]
    one_face = word_to_map(parse_word(" ".join(names + [x + "'" for x in names])))
    m = petal(100)
    for b, isomorphic in ((one_face, False), (m, True),
                          (scramble(m, random.Random(3)), True)):
        calls.clear()
        assert (are_isomorphic(m, b) is not None) == isomorphic
        assert len(calls) == isomorphic


def test_pinned_encodings():
    interleaved = from_rotation_lists(["a", "b"], [["a+", "b+", "a-", "b-"]])
    nested = from_rotation_lists(["a", "b"], [["a+", "a-", "b+", "b-"]])
    petal_1 = ("00000001000000020000000300000000"
               "00000002000000030000000000000001")
    assert canonical_encoding(petal(1)).hex() == petal_1
    assert canonical_encoding(interleaved).hex() == petal_1
    assert canonical_encoding(nested).hex() == (
        "00000001000000020000000300000000"
        "00000001000000000000000300000002")
    assert canonical_encoding(petal(2)).hex() == (
        "00000001000000020000000300000004"
        "00000005000000060000000700000000"
        "00000002000000030000000000000001"
        "00000006000000070000000400000005")


small_maps = st.builds(random_filling_map, st.integers(0, 3), st.integers(0, 25),
                       st.integers(0, 10 ** 6)).filter(lambda m: m.num_edges > 0)


@settings(max_examples=40, deadline=None)
@given(small_maps, st.randoms(use_true_random=False))
def test_encoding_survives_scrambling(m, rng):
    assert canonical_encoding(scramble(m, rng)) == canonical_encoding(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(1, 25), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.booleans(), st.randoms(use_true_random=False))
def test_encoding_equality_iff_isomorphic(g, moves, seed1, seed2, copy, rng):
    # Independent draws are rarely isomorphic, so half the pairs are copies.
    m1 = random_filling_map(g, moves, seed1)
    m2 = scramble(m1, rng) if copy else random_filling_map(g, moves, seed2)
    assert m1.num_edges == m2.num_edges
    same = canonical_encoding(m1) == canonical_encoding(m2)
    assert same == (are_isomorphic(m1, m2) is not None)
    assert witness(m1, m2) == first_root_witness(m1, m2)
