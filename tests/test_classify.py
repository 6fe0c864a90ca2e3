import importlib
import random

import pytest

from ribbonsurf import (
    Cancel,
    ContractEdge,
    CutGlue,
    DartRef,
    DeleteEdge,
    InternalInvariantViolation,
    LoopNotContractibleError,
    MalformedWordError,
    MapError,
    MoveTrace,
    PolygonWord,
    PreconditionError,
    classify,
    contract_edge,
    delete_edge,
    delete_face_merging_edge,
    euler_characteristic,
    format_word,
    from_rotation_lists,
    genus,
    insert_edge,
    is_canonical_word,
    normalize,
    petal,
    polygon_word,
    random_filling_map,
    reduce_to_one_vertex_one_face,
    refine,
    relabeled,
    replay,
    split_vertex,
    trace_faces,
    word_to_map,
)
from ribbonsurf import maps
from ribbonsurf.classify import _strict_blocks as strict_blocks
from ribbonsurf.classify import canonical_rotation
from util import corpus

classify_module = importlib.import_module("ribbonsurf.classify")


def test_polygon_word_of_petal():
    assert format_word(polygon_word(petal(1))) == "abAB"
    assert format_word(polygon_word(petal(3))) == "abABcdCDefEF"


def test_polygon_word_requires_one_vertex_one_face():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    with pytest.raises(PreconditionError):
        polygon_word(theta)


def test_word_to_map_chi_oracle():
    for text, chi in [("aA", 2), ("abAB", 0), ("abcdABCD", -2),
                      ("abABcdCD", -2), ("abBA", 2), ("aBAb", 0)]:
        letters = [(c.lower(), 1 if c.islower() else -1) for c in text]
        m = word_to_map(PolygonWord(letters))
        assert euler_characteristic(m) == chi
        assert len(trace_faces(m)) == 1


def test_polygon_word_round_trip_through_map():
    word = polygon_word(petal(2))
    m = word_to_map(word)
    assert polygon_word(m).cyclic_eq(word)


def test_delete_move_merges_two_faces():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    step = delete_face_merging_edge(theta)
    assert step is not None
    smaller, label = step
    assert smaller.num_edges == theta.num_edges - 1
    assert len(trace_faces(smaller)) == len(trace_faces(theta)) - 1
    assert smaller.num_vertices == theta.num_vertices
    assert euler_characteristic(smaller) == euler_characteristic(theta)


def test_delete_move_absent_on_one_face_maps():
    assert delete_face_merging_edge(petal(2)) is None


def test_delete_edge_rejects_bridges():
    path = from_rotation_lists(["a", "b"], [["a+"], ["a-", "b+"], ["b-"]])
    for label in ("a", "b"):
        with pytest.raises(PreconditionError, match="both sides on one face"):
            delete_edge(path, label)
    with pytest.raises(TypeError):
        delete_edge(path, "a", check_faces=False)


def test_reduction_traces_each_map_once(monkeypatch):
    calls = []

    def counted(ribbon_map):
        calls.append(ribbon_map)
        return trace_faces(ribbon_map)

    monkeypatch.setattr(classify_module, "trace_faces", counted)
    for _, m in corpus(20, seed=4):
        calls.clear()
        reduced, trace = reduce_to_one_vertex_one_face(m)
        assert len(calls) == len(trace) + 1
        assert len({id(c) for c in calls}) == len(calls)
        assert reduced in calls


def test_generator_traces_each_map_once(monkeypatch):
    calls = []

    def counted(ribbon_map):
        calls.append(ribbon_map)
        return trace_faces(ribbon_map)

    monkeypatch.setattr(classify_module, "trace_faces", counted)
    for g, k, seed in [(0, 0, 1), (0, 9, 2), (1, 6, 3), (2, 25, 4), (3, 40, 5)]:
        calls.clear()
        m = random_filling_map(g, k, seed)
        assert len(calls) == k + 1
        assert len({id(c) for c in calls}) == len(calls)
        assert calls[-1] is m


def test_every_public_move_is_checked(monkeypatch):
    # A move that builds its input again changes neither V nor F, so each
    # public move must report it as a bug.
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    torus = petal(1)
    edgeless = from_rotation_lists([], [[]])
    cases = [
        ("_rebuild", theta, lambda: delete_edge(theta, "e1")),
        ("_rebuild", theta, lambda: delete_face_merging_edge(theta)),
        ("_rebuild", theta, lambda: contract_edge(theta, "e2")),
        ("_from_dart_rows", torus, lambda: insert_edge(torus, "x", 0, 0, 2)),
        ("_from_dart_rows", edgeless, lambda: insert_edge(edgeless, "x", 0, 0, 0)),
        ("_from_dart_rows", torus, lambda: split_vertex(torus, "x", 0, 1, 3)),
    ]
    for constructor, m, move in cases:
        with monkeypatch.context() as patch:
            patch.setattr(classify_module, constructor, lambda *args, m=m: m)
            with pytest.raises(InternalInvariantViolation):
                move()


def test_contract_move_merges_two_vertices():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    smaller = contract_edge(theta, "e2")
    assert smaller.num_vertices == 1
    assert smaller.num_edges == 2
    assert len(trace_faces(smaller)) == len(trace_faces(theta))
    assert euler_characteristic(smaller) == euler_characteristic(theta)


def test_contract_rejects_loops():
    with pytest.raises(LoopNotContractibleError):
        contract_edge(petal(1), "a")


def test_reduction_reaches_one_vertex_one_face():
    for _, m in corpus(40, seed=4):
        reduced, trace = reduce_to_one_vertex_one_face(m)
        assert reduced.num_vertices == 1 or reduced.num_edges == 0
        assert len(trace_faces(reduced)) == 1
        assert euler_characteristic(reduced) == euler_characteristic(m)


def test_move_count_bound():
    for _, m in corpus(30, seed=9):
        faces = len(trace_faces(m))
        _, trace = reduce_to_one_vertex_one_face(m)
        assert len(trace.moves) <= (faces - 1) + (m.num_vertices - 1)


def test_normalize_gathers_into_blocks():
    word = polygon_word(word_to_map(PolygonWord(
        [("a", 1), ("b", 1), ("a", -1), ("b", -1)])))
    normal, trace = normalize(word)
    assert is_canonical_word(normal)
    assert len(normal) == 4


def test_normalize_octagon():
    letters = [(c.lower(), 1 if c.islower() else -1) for c in "abcdABCD"]
    normal, trace = normalize(PolygonWord(letters))
    assert is_canonical_word(normal)
    assert len(normal) == 8
    cut_glues = [m for m in trace if isinstance(m, CutGlue)]
    assert cut_glues, "gathering requires cut-and-glue moves"


def test_normalize_cancels_trivial_pair():
    normal, trace = normalize(PolygonWord([("a", 1), ("a", -1)]))
    assert len(normal) == 0
    assert any(isinstance(m, Cancel) for m in trace)


def test_canonical_word_detector():
    assert is_canonical_word(PolygonWord(
        [(c.lower(), 1 if c.islower() else -1) for c in "abABcdCD"]))
    assert not is_canonical_word(PolygonWord(
        [(c.lower(), 1 if c.islower() else -1) for c in "abcdABCD"]))
    assert is_canonical_word(PolygonWord([]))


def test_normalize_finds_blocks_once_per_gathered_pair(monkeypatch):
    calls = []
    strict_blocks = classify_module._strict_blocks
    monkeypatch.setattr(classify_module, "_strict_blocks",
                        lambda letters: calls.append(1) or strict_blocks(letters))
    maps = [m for _, m in corpus(30, seed=6)]
    maps += [random_filling_map(g, 30, g) for g in (6, 12)]
    for m in maps:
        reduced, _ = reduce_to_one_vertex_one_face(m)
        if reduced.num_edges == 0:
            continue
        calls.clear()
        _, trace = normalize(polygon_word(reduced))
        cut_glues = sum(isinstance(move, CutGlue) for move in trace)
        assert len(calls) <= cut_glues // 2 + 2


def reference_is_canonical_word(word):
    """is_canonical_word as it was before the block starts were found once
    per word."""
    letters = list(word)
    n = len(letters)
    if n % 4:
        return False
    return all(p in strict_blocks(letters) or p % 4 for p in range(0, n, 4))


def reference_canonical_rotation(letters):
    """canonical_rotation as it was, one reference_is_canonical_word call
    per candidate."""
    if not letters:
        return []
    candidates = []
    for p in strict_blocks(letters):
        rotated = letters[p:] + letters[:p]
        if reference_is_canonical_word(rotated):
            candidates.append(rotated)
    if not candidates:
        raise InternalInvariantViolation("word is not fully gathered")
    return min(candidates, key=lambda ls: [ref.token() for ref in ls])


def test_block_logic_matches_reference():
    def outcome(rotate, letters):
        try:
            return rotate(letters)
        except InternalInvariantViolation:
            return "not gathered"

    rng = random.Random(17)
    words = []
    maps = [m for _, m in corpus(40, seed=8)]
    maps += [random_filling_map(g, 20, g) for g in (4, 5)]
    for m in maps:
        reduced, _ = reduce_to_one_vertex_one_face(m)
        if reduced.num_edges == 0:
            continue
        words.append(list(polygon_word(reduced)))
        canonical = classify(m).canonical_word
        if canonical is None:
            continue
        blocks = [list(canonical)[i:i + 4] for i in range(0, len(canonical), 4)]
        rng.shuffle(blocks)
        words.append([ref for block in blocks for ref in block])
        # Inverting one block leaves x' y' x y, which is not a strict block.
        blocks[0] = [ref.reversed() for ref in blocks[0]]
        words.append([ref for block in blocks for ref in block])
    words.append(list(PolygonWord([("a", 1), ("a", -1)])))
    words.append([])
    for letters in words:
        for p in range(max(1, len(letters))):
            rotated = letters[p:] + letters[:p]
            assert (is_canonical_word(rotated)
                    == reference_is_canonical_word(rotated)), rotated
            assert (outcome(canonical_rotation, rotated)
                    == outcome(reference_canonical_rotation, rotated)), rotated


def test_classify_petals_and_sphere():
    result = classify(petal(2))
    assert result.genus == 2
    assert format_word(result.canonical_word) == "abABcdCD"
    sphere = classify(petal(0))
    assert sphere.genus == 0 and sphere.canonical_word is None
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    result = classify(theta)
    assert result.genus == 0 and result.canonical_word is None


def test_classify_round_trip_with_replay():
    rng = random.Random(13)
    for _ in range(25):
        g = rng.randrange(0, 4)
        m = random_filling_map(g, rng.randrange(0, 15), rng.randrange(10 ** 6))
        result = classify(m)
        assert result.genus == g == genus(m)
        if g == 0:
            assert result.canonical_word is None
            continue
        assert len(result.canonical_word) == 4 * g
        assert is_canonical_word(result.canonical_word)
        assert replay(m, result.trace) == result.canonical_word


def test_insert_edge_splits_face():
    m = petal(1)
    bigger = insert_edge(m, "x", 0, 0, 2)
    assert bigger.num_edges == 3
    assert len(trace_faces(bigger)) == 2
    assert euler_characteristic(bigger) == euler_characteristic(m)
    assert genus(bigger) == 1


def test_insert_edge_on_edgeless_map():
    m = from_rotation_lists([], [[]])
    loop = insert_edge(m, "a", 0, 0, 0)
    assert loop.num_edges == 1 and loop.num_vertices == 1
    assert genus(loop) == 0


def test_split_vertex_adds_vertex_keeps_faces():
    m = petal(1)
    bigger = split_vertex(m, "x", 0, 1, 3)
    assert bigger.num_vertices == 2
    assert bigger.num_edges == 3
    assert len(trace_faces(bigger)) == len(trace_faces(m))
    assert genus(bigger) == 1


def test_bad_face_and_vertex_arguments_are_precondition_errors():
    two_faces = insert_edge(petal(1), "x", 0, 0, 2)
    for m in (two_faces, from_rotation_lists([], [[]])):
        for f in (-1, len(trace_faces(m))):
            with pytest.raises(PreconditionError, match=rf"^face {f} out of range$"):
                insert_edge(m, "y", f, 0, 0)
    split = split_vertex(petal(1), "x", 0, 1, 3)
    for m in (split, petal(2)):
        for v in (-1, m.num_vertices):
            with pytest.raises(PreconditionError, match=rf"^vertex {v} out of range$"):
                split_vertex(m, "y", v, 0, 0)


def test_new_edge_labels_are_checked():
    for m in (petal(1), from_rotation_lists([], [[]])):
        with pytest.raises(MapError, match=r"^bad edge label '1x'$"):
            insert_edge(m, "1x", 0, 0, 1)
    with pytest.raises(MapError, match=r"^bad edge label '1x'$"):
        split_vertex(petal(1), "1x", 0, 1, 3)
    with pytest.raises(MapError, match=r"^bad edge label '1x'$"):
        word_to_map(PolygonWord([("1x", 1), ("1x", -1)]))


def test_moves_edit_darts_without_tokens(monkeypatch):
    def no_tokens(*args):
        raise AssertionError("dart tokens used inside a move")

    monkeypatch.setattr(maps, "parse_dart_token", no_tokens)
    monkeypatch.setattr(DartRef, "token", no_tokens)
    m = random_filling_map(2, 12, 5)
    relabeled(m, {lab: lab.upper() for lab in m.edge_labels})
    refine(m)
    reduced, trace = reduce_to_one_vertex_one_face(m)
    assert len(trace) and reduced.num_vertices == 1
    assert word_to_map(polygon_word(reduced)).num_edges == reduced.num_edges


def test_random_filling_map_deterministic():
    a = random_filling_map(2, 10, 42)
    b = random_filling_map(2, 10, 42)
    assert a == b
    assert random_filling_map(1, 0, 0) == petal(1)
    assert genus(random_filling_map(0, 5, 3)) == 0


def test_polygon_word_validates_letters():
    with pytest.raises(MalformedWordError):
        PolygonWord([("a", 1), ("a", 1)])
    with pytest.raises(MalformedWordError):
        PolygonWord([("a", 1)])


def test_linked_pairs_exist_in_polygon_words():
    # every edge of a one-vertex one-face map interleaves with some other
    rng = random.Random(31)
    for _ in range(15):
        g = rng.randrange(1, 4)
        m = random_filling_map(g, rng.randrange(0, 12), rng.randrange(10 ** 6))
        reduced, _ = reduce_to_one_vertex_one_face(m)
        word = polygon_word(reduced)
        letters = list(word)
        labels = {ref.label for ref in letters}
        pos = {(" ".join([ref.label, "+" if ref.sign > 0 else "-"])): i
               for i, ref in enumerate(letters)}
        for lab in labels:
            i1 = pos[f"{lab} +"]
            i2 = pos[f"{lab} -"]
            lo, hi = min(i1, i2), max(i1, i2)
            inside = {letters[i].label for i in range(lo + 1, hi)} - {lab}
            outside = ({letters[i].label for i in range(0, lo)}
                       | {letters[i].label for i in range(hi + 1, len(letters))}) - {lab}
            assert inside & outside, f"edge {lab} is unlinked in {word.tokens()}"


# (genus, moves, seed) -> (edge labels of the random map, canonical word,
# classify's trace with the edge labels left after each map move).  The
# reduction deletes and contracts by edge order, so this pins the order as
# well as the moves.
PINNED = {
    (1, 6, 3): ("a b e1 e2 e3 e4 e5 e6", "e6 e1 e6' e1'", [
        (DeleteEdge("a"), "e1 b e4 e5 e2 e3 e6"),
        (DeleteEdge("e4"), "e1 e5 e2 b e6 e3"),
        (DeleteEdge("e5"), "e1 e2 b e3 e6"),
        (ContractEdge("e2"), "e1 b e3 e6"),
        (ContractEdge("b"), "e1 e3 e6"),
        (ContractEdge("e3"), "e1 e6"),
    ]),
    (2, 7, 11): ("a b c d e1 e2 e3 e4 e5 e6 e7",
                 "z1 z2 z1' z2' z3 z4 z3' z4'", [
        (DeleteEdge("b"), "a e1 e7 e3 e4 e2 e5 e6 c d"),
        (DeleteEdge("e7"), "a e1 e3 e4 e2 e5 e6 c d"),
        (DeleteEdge("e3"), "a e1 e4 e2 e5 e6 c d"),
        (DeleteEdge("e4"), "a e1 e2 e5 e6 c d"),
        (ContractEdge("e2"), "a e1 c e5 e6 d"),
        (ContractEdge("c"), "a e1 d e5 e6"),
        (ContractEdge("e6"), "a e1 d e5"),
        (CutGlue("z1", "d", (0, 4), -1), None),
        (CutGlue("z2", "a", (2, 6), 1), None),
        (CutGlue("z3", "e1", (0, 7), -1), None),
        (CutGlue("z4", "e5", (1, 0), 1), None),
    ]),
    (0, 5, 7): ("e1 e2 e3 e4 e5", None, [
        (DeleteEdge("e1"), "e5 e4 e2 e3"),
        (DeleteEdge("e4"), "e5 e2 e3"),
        (ContractEdge("e5"), "e2 e3"),
        (ContractEdge("e2"), "e3"),
        (ContractEdge("e3"), ""),
    ]),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_trace_and_edge_order(key):
    labels, word, steps = PINNED[key]
    m = random_filling_map(*key)
    assert " ".join(m.edge_labels) == labels
    result = classify(m)
    assert result.trace == MoveTrace(tuple(move for move, _ in steps))
    assert (format_word(result.canonical_word)
            if result.canonical_word else None) == word
    for move, after in steps:
        if isinstance(move, DeleteEdge):
            m = delete_edge(m, move.label)
        elif isinstance(move, ContractEdge):
            m = contract_edge(m, move.label)
        else:
            continue
        assert " ".join(m.edge_labels) == after, move
