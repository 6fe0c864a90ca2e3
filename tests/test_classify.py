import hashlib
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    UnknownLabelError,
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
    parse_graph,
    petal,
    polygon_word,
    random_filling_map,
    reduce_to_one_vertex_one_face,
    refine,
    relabeled,
    replay,
    serialize_graph,
    split_vertex,
    trace_faces,
    word_to_map,
)
from ribbonsurf import maps
from ribbonsurf.classify import _strict_blocks as strict_blocks
from ribbonsurf.classify import canonical_rotation
from util import corpus, scramble

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


def count_calls(monkeypatch, name):
    """Wrap ``classify.<name>`` so that its calls are recorded."""
    calls = []
    inner = getattr(classify_module, name)
    monkeypatch.setattr(classify_module, name,
                        lambda *args: calls.append(args) or inner(*args))
    return calls


def test_reduction_traces_each_map_once(monkeypatch):
    # The chain runs on one working form: its input and its result are the
    # only maps, each traced once, and only the result is built.
    traced = count_calls(monkeypatch, "trace_faces")
    built = count_calls(monkeypatch, "_from_dart_rows")
    maps = [m for _, m in corpus(20, seed=4)] + [random_filling_map(3, 60, 1)]
    for m in maps:
        traced.clear()
        built.clear()
        reduced, trace = reduce_to_one_vertex_one_face(m)
        assert len(traced) <= 2 and traced[0] == (m,)
        assert len(built) == 1


def test_generator_traces_each_map_once(monkeypatch):
    traced = count_calls(monkeypatch, "trace_faces")
    built = count_calls(monkeypatch, "_from_dart_rows")
    for g, k, seed in [(0, 0, 1), (0, 9, 2), (1, 6, 3), (2, 25, 4), (3, 40, 5)]:
        traced.clear()
        built.clear()
        m = random_filling_map(g, k, seed)
        assert len(traced) <= 2 and traced[-1] == (m,)
        assert len(built) == 1


def swap_with_wrong_partner(swap, form, d):
    """Exchange the successors of d and the dart after d-bar, not d-bar."""
    x = form.sigma[d + 1]
    after_d, after_x = form.sigma[d], form.sigma[x]
    form._link(d, after_x)
    form._link(x, after_d)


# Wrong edits made through each primitive of the working form: a link to the
# wrong dart or a link left out (sigma stops being a permutation), a dart put
# in at the wrong corner, a swap left out or made with the wrong partner
# (sigma stays one).
WRONG_EDITS = {
    "_link": [lambda link, form, a, b: link(form, a, b ^ 1),
              lambda link, form, a, b: link(form, a, form.sigma[b]),
              lambda link, form, a, b: None],
    "_place": [lambda place, form, d, before: place(form, d, form.sigma[before])],
    "_swap": [lambda swap, form, d: None, swap_with_wrong_partner],
}


def wrong_edits(monkeypatch, run):
    """Run ``run`` once plainly, then once per primitive call it makes and
    per wrong edit of that primitive, with that one call made wrong.  Each
    wrong edit must raise InternalInvariantViolation or be undone by later
    edits (the result is unchanged); returns how many raised."""
    expected = repr(run())
    caught = 0
    for name, wrongs in WRONG_EDITS.items():
        right = getattr(classify_module._Form, name)
        for wrong in wrongs:
            t = 0
            while True:
                calls = []

                def edit(form, *args, wrong=wrong, t=t):
                    calls.append(args)
                    if len(calls) == t + 1:
                        return wrong(right, form, *args)
                    return right(form, *args)

                with monkeypatch.context() as patch:
                    patch.setattr(classify_module._Form, name, edit)
                    try:
                        result = repr(run())
                    except InternalInvariantViolation:
                        caught += 1
                        result = expected
                if len(calls) <= t:
                    break
                assert result == expected, (name, t)
                t += 1
    return caught


def test_every_public_move_is_checked(monkeypatch):
    # A wrong edit inside any of the four working-form moves is reported as
    # a bug, whether the move is made alone or inside either chain.
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    torus = petal(1)
    edgeless = from_rotation_lists([], [[]])
    tree = from_rotation_lists(["a", "b"], [["a+", "b+"], ["a-"], ["b-"]])
    moves = [
        lambda: delete_edge(theta, "e1"),
        lambda: delete_face_merging_edge(theta),
        lambda: contract_edge(theta, "e2"),
        lambda: contract_edge(tree, "a"),
        lambda: insert_edge(torus, "x", 0, 0, 2),
        lambda: insert_edge(torus, "x", 0, 1, 1),
        lambda: insert_edge(edgeless, "x", 0, 0, 0),
        lambda: split_vertex(torus, "x", 0, 1, 3),
        lambda: split_vertex(torus, "x", 0, 2, 2),
        lambda: random_filling_map(2, 12, 2),
        lambda: reduce_to_one_vertex_one_face(random_filling_map(1, 10, 1)),
    ]
    for move in moves:
        assert wrong_edits(monkeypatch, move) > 0


def reference_rebuild(ribbon_map, rows):
    """The map on the darts left in ``rows``, edges renumbered in order of
    first appearance (the per-move rebuild the working form replaced)."""
    new_edge = {}
    for row in rows:
        for d in row:
            new_edge.setdefault(d >> 1, len(new_edge))
    labels = [ribbon_map.edge_labels[k] for k in new_edge]
    return maps._from_dart_rows(
        labels, [[2 * new_edge[d >> 1] + (d & 1) for d in row] for row in rows])


def face_of_dart(ribbon_map):
    """Index of the face containing each dart."""
    where = [0] * ribbon_map.num_darts
    for i, face in enumerate(trace_faces(ribbon_map)):
        for d in face.darts:
            where[d] = i
    return where


def reference_reduce(ribbon_map):
    """reduce_to_one_vertex_one_face as it was before the working form:
    every move rebuilt the whole map and traced it again."""
    current, moves = ribbon_map, []
    while True:
        where = face_of_dart(current)
        k = next((k for k in range(current.num_edges)
                  if where[2 * k] != where[2 * k + 1]), None)
        if k is None:
            break
        moves.append(DeleteEdge(current.edge_labels[k]))
        current = reference_rebuild(
            current, [[d for d in star if d >> 1 != k] for star in current._stars])
    while current.num_edges and current.num_vertices > 1:
        k = next(k for k in range(current.num_edges)
                 if current.vertex_of(2 * k) != current.vertex_of(2 * k + 1))
        d, v = 2 * k, current.vertex_of(2 * k + 1)
        star_v = current.star(v)
        at = star_v.index(d + 1)
        splice = list(star_v[at + 1:] + star_v[:at])
        rows = [[y for x in star for y in (splice if x == d else [x])]
                for w, star in enumerate(current._stars) if w != v]
        moves.append(ContractEdge(current.edge_labels[k]))
        current = reference_rebuild(current, rows)
    return current, MoveTrace(tuple(moves))


def reference_random_filling_map(g, moves, seed):
    """random_filling_map as it was before the working form: every move
    rebuilt the whole map from dart rows, and the next move traced it."""
    rng = random.Random(seed)
    current = petal(g)
    for i in range(1, moves + 1):
        label, faces = f"e{i}", trace_faces(current)
        new = current.num_darts
        if current.num_edges == 0:
            for _ in range(3):  # face 0 and two corners of its empty boundary
                rng.randrange(1)
            current = maps._from_dart_rows([label], [[0, 1]])
            continue
        if rng.random() < 0.5:
            face = faces[rng.randrange(len(faces))].darts
            da = face[rng.randrange(len(face))]
            db = face[rng.randrange(len(face))]
            rows = [[y for x in star for y in ([new] * (x == da) + [new + 1] * (x == db)
                                               + [x])]
                    for star in current._stars]
        else:
            v = rng.randrange(current.num_vertices)
            star = current.star(v)
            i, j = rng.randrange(len(star)), rng.randrange(len(star))
            arc_a = [star[(i + t) % len(star)] for t in range((j - i) % len(star))]
            arc_b = [star[(j + t) % len(star)]
                     for t in range((i - j) % len(star) or len(star))]
            rows = [list(s) for w, s in enumerate(current._stars) if w != v]
            rows[v:v] = [arc_a + [new], arc_b + [new + 1]]
        current = maps._from_dart_rows(current.edge_labels + (label,), rows)
    return current


def reduction_outcome(m):
    reduced, trace = reduce_to_one_vertex_one_face(m)
    return reduced.edge_labels, reduced.sigma, trace


def reference_outcome(m):
    reduced, trace = reference_reduce(m)
    return reduced.edge_labels, reduced.sigma, trace


@settings(max_examples=40)
@given(st.integers(0, 5), st.integers(0, 60), st.integers(0, 10 ** 6))
def test_working_form_matches_rebuild_reference(g, k, seed):
    m = random_filling_map(g, k, seed)
    expected = reference_random_filling_map(g, k, seed)
    assert (m.edge_labels, m.sigma) == (expected.edge_labels, expected.sigma)
    copies = [m, parse_graph(serialize_graph(m)), refine(m),
              scramble(m, random.Random(seed))]
    for copy in copies:
        assert reduction_outcome(copy) == reference_outcome(copy)


def maps_large_triples(count, seed):
    """(genus, moves, seed) with the sizes of the maps_large benchmark."""
    rng = random.Random(seed)
    strata = ((3, 40, 200), (10, 40, 200), (24, 20, 60))
    for i in range(count):
        g, low, high = strata[i % 3]
        yield g, rng.randint(low, high), rng.randrange(10 ** 9)


def test_pinned_large_maps_and_reductions():
    # Captured with the per-move rebuild, before the working form.
    digest = hashlib.sha256()
    for g, k, seed in maps_large_triples(300, 2026):
        m = random_filling_map(g, k, seed)
        digest.update(serialize_graph(m).encode())
        reduced, trace = reduce_to_one_vertex_one_face(m)
        digest.update(repr(trace.moves).encode())
        digest.update(serialize_graph(reduced).encode())
    assert digest.hexdigest() == (
        "b2bd8af630134b201cef463befde9920da0145e4db8ebb00d7924f4d0998eaaf")


def test_pinned_large_words():
    # Captured before the corner-class oracle and the O(n) rotation.
    digest = hashlib.sha256()
    for g, k, seed in maps_large_triples(300, 2026):
        reduced, _ = reduce_to_one_vertex_one_face(random_filling_map(g, k, seed))
        word, trace = normalize(polygon_word(reduced))
        digest.update(" ".join(word.tokens()).encode())
        digest.update(repr(trace.moves).encode())
    assert digest.hexdigest() == (
        "a14fb667972fd1183c15416a16eb8c9c87731cf1a7d8cb9ff70d6d5f06b6288d")


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


def reference_replay(ribbon_map, trace):
    """replay as it was: every map move rebuilt, traced and checked a whole
    map, and the word moves ran unchecked."""
    current, moves, at = ribbon_map, list(trace), 0
    while at < len(moves) and isinstance(moves[at], (DeleteEdge, ContractEdge)):
        move = moves[at]
        if isinstance(move, DeleteEdge):
            current = delete_edge(current, move.label)
        else:
            current = contract_edge(current, move.label)
        at += 1
    if current.num_edges == 0:
        if at != len(moves):
            raise PreconditionError("word moves recorded for an edgeless map")
        return None
    letters = list(polygon_word(current).letters)
    for move in moves[at:]:
        letters = classify_module.apply_word_move(letters, move)
    if letters:
        letters = canonical_rotation(letters)
    return PolygonWord(letters) if letters else None


def outcome(run, *args):
    """The result of ``run``, or the type and message of what it raised."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


def hand_built_trace(m, rng):
    """Random face-merging deletes, then random non-loop contractions, then
    the word moves of the reduced word's normalize; not classify's choices."""
    moves = []
    while True:
        where = face_of_dart(m)
        merging = [k for k in range(m.num_edges) if where[2 * k] != where[2 * k + 1]]
        if not merging:
            break
        moves.append(DeleteEdge(m.edge_labels[rng.choice(merging)]))
        m = delete_edge(m, moves[-1].label)
    while m.num_vertices > 1:
        links = [k for k in range(m.num_edges)
                 if m.vertex_of(2 * k) != m.vertex_of(2 * k + 1)]
        moves.append(ContractEdge(m.edge_labels[rng.choice(links)]))
        m = contract_edge(m, moves[-1].label)
    if m.num_edges:
        moves += normalize(polygon_word(m))[1].moves
    return MoveTrace(tuple(moves))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 60), st.integers(0, 10 ** 6))
def test_replay_matches_reference(g, k, seed):
    rng = random.Random(seed)
    m = random_filling_map(g, k, seed)
    result = classify(m)
    assert replay(m, result.trace) == result.canonical_word
    for trace in (result.trace, hand_built_trace(m, rng), hand_built_trace(m, rng)):
        word = replay(m, trace)
        assert word == reference_replay(m, trace)
        assert (len(word) if word else 0) == 4 * g


def test_tampered_traces_fail_as_in_reference():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    m = random_filling_map(2, 7, 11)
    moves = classify(m).trace.moves
    first, words = moves[0], [move for move in moves if isinstance(move, CutGlue)]
    bad_cut = CutGlue(words[0].new_label, words[0].old_label, (0, 1), 1)
    cases = [
        (m, [first, first], UnknownLabelError, "unknown edge label 'b'"),
        (m, [DeleteEdge("nope")], UnknownLabelError, "unknown edge label 'nope'"),
        (petal(1), [ContractEdge("a")], LoopNotContractibleError, "edge 'a' is a loop"),
        (petal(1), [DeleteEdge("a")], PreconditionError,
         "edge 'a' has both sides on one face; deleting it would not merge faces"),
        (theta, classify(theta).trace.moves + (Cancel("e1"),),
         PreconditionError, "word moves recorded for an edgeless map"),
        (m, moves[:-1 - len(words)], PreconditionError,
         "map has 2 vertices; reduce it first"),
        (m, [move for move in moves if move not in words] + [bad_cut],
         PreconditionError, "cut must separate the two occurrences of 'd'"),
        (m, [move for move in moves if move not in words]
         + [CutGlue("z1", "d", (2, 2), -1)],
         PreconditionError, "empty or full cut arc"),
        (m, moves + (first,), PreconditionError, f"not a word move: {first!r}"),
    ]
    for ribbon_map, trace, error, message in cases:
        trace = MoveTrace(tuple(trace))
        expected = outcome(reference_replay, ribbon_map, trace)
        assert expected == (error, message)
        assert outcome(replay, ribbon_map, trace) == expected
    # A trace whose word moves stop before the word is gathered is bad
    # input; the reference reports it as a failed internal check.
    for stop in range(len(words)):
        trace = MoveTrace(moves[:len(moves) - len(words) + stop])
        assert outcome(replay, m, trace) == (
            PreconditionError, "word moves stop before the word is gathered")
        assert outcome(reference_replay, m, trace) == (
            InternalInvariantViolation, "word is not fully gathered")


def test_cut_corners_must_lie_on_the_word():
    m = random_filling_map(2, 7, 11)
    reduced, map_trace = reduce_to_one_vertex_one_face(m)
    letters = list(polygon_word(reduced).letters)
    assert len(letters) == 8
    glued = classify_module.apply_cut_glue(letters, CutGlue("z1", "d", (0, 2), -1))
    assert [ref.label for ref in glued].count("z1") == 2
    for cut in ((-8, 2), (8, 2), (0, 8), (-1, 3), (0, 100)):
        move = CutGlue("z1", "d", cut, -1)
        message = f"cut corners {cut!r} out of range"
        assert outcome(classify_module.apply_cut_glue, letters, move) == (
            PreconditionError, message)
        trace = MoveTrace(map_trace.moves + (move,))
        assert outcome(replay, m, trace) == (PreconditionError, message)


def test_replay_builds_one_map(monkeypatch):
    # The map moves run on one working form: the input and the reduced map
    # are traced, and only the reduced map is built.
    m = random_filling_map(3, 60, 1)
    result = classify(m)
    assert sum(isinstance(move, (DeleteEdge, ContractEdge))
               for move in result.trace) == 60
    traced = count_calls(monkeypatch, "trace_faces")
    built = count_calls(monkeypatch, "_from_dart_rows")
    assert replay(m, result.trace) == result.canonical_word
    assert len(built) == 1 and len(traced) <= 2


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
    for build in (word_to_map, normalize):
        with pytest.raises(MapError, match=r"^bad edge label '1x'$"):
            build(PolygonWord([("1x", 1), ("1x", -1)]))


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


def test_moves_find_labels_without_scanning(monkeypatch):
    # Labels are found through the form's dict: a scan of the label list on
    # every move made the generator and replay quadratic in the edges.
    class Unscannable(list):
        def __contains__(self, label):
            raise AssertionError("label list scanned")

        def index(self, *args):
            raise AssertionError("label list scanned")

    init = classify_module._Form.__init__

    def unscannable(form, ribbon_map):
        init(form, ribbon_map)
        form.labels = Unscannable(form.labels)

    monkeypatch.setattr(classify_module._Form, "__init__", unscannable)
    m = random_filling_map(2, 30, 7)
    reduced, trace = reduce_to_one_vertex_one_face(m)
    assert reduced.num_vertices == 1 and len(trace) == 30
    result = classify(m)
    assert replay(m, result.trace) == result.canonical_word
    form = classify_module._Form(petal(1))
    form.insert("x", 0, 0, 2)
    assert form.edge("x") == 2
    with pytest.raises(PreconditionError, match="^label 'x' already in use$"):
        form.split("x", 0, 0, 1)


def test_random_filling_map_deterministic():
    a = random_filling_map(2, 10, 42)
    b = random_filling_map(2, 10, 42)
    assert a == b
    assert random_filling_map(1, 0, 0) == petal(1)
    assert genus(random_filling_map(0, 5, 3)) == 0


def word_moves(word):
    """The word, then the word after each move normalize makes on it."""
    letters = list(word)
    yield letters
    for move in normalize(word)[1]:
        letters = classify_module.apply_word_move(letters, move)
        yield letters


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 60), st.integers(0, 10 ** 6))
def test_corner_class_oracle_matches_word_to_map(g, k, seed):
    # Reduced words, every intermediate word of normalize, and shuffles of
    # them (valid words of other genera), from the map and a scrambled copy.
    rng = random.Random(seed)
    m = random_filling_map(g, k, seed)
    for copy in (m, scramble(m, rng)):
        reduced, _ = reduce_to_one_vertex_one_face(copy)
        if reduced.num_edges == 0:
            continue
        for letters in word_moves(polygon_word(reduced)):
            shuffled = rng.sample(letters, len(letters))
            assert classify_module._oracle_genus(letters) == g
            for w in (letters, shuffled):
                expected = genus(word_to_map(PolygonWord(w))) if w else 0
                assert classify_module._oracle_genus(w) == expected


def test_oracle_checks_each_label_once_per_sign():
    for text in ("a", "aa", "aAa", "abABa", "abBa", "aBbACcd", "baaB"):
        letters = [DartRef(c.lower(), 1 if c.islower() else -1) for c in text]
        with pytest.raises(MalformedWordError) as expected:
            PolygonWord(letters)
        with pytest.raises(MalformedWordError) as got:
            classify_module._oracle_genus(letters)
        assert str(got.value) == str(expected.value)


def test_word_moves_are_checked(monkeypatch):
    # A move that returns a valid word of another genus is reported as a bug:
    # one that adds a handle, and one that returns the sphere's word.  Made
    # by normalize or replayed, the move goes through the same check.
    inner = classify_module.apply_word_move
    handle = [DartRef("q1", 1), DartRef("q2", 1), DartRef("q1", -1), DartRef("q2", -1)]
    sphere = [DartRef("q1", 1), DartRef("q1", -1)]
    mutants = [(lambda letters, move: inner(letters, move) + handle,
                ("aA", "abcABC", "abcdABCD")),
               (lambda letters, move: sphere, ("abcABC", "abcdABCD"))]
    m = random_filling_map(2, 7, 11)
    trace = classify(m).trace
    for mutant, texts in mutants:
        monkeypatch.setattr(classify_module, "apply_word_move", mutant)
        for text in texts:
            letters = [(c.lower(), 1 if c.islower() else -1) for c in text]
            with pytest.raises(InternalInvariantViolation,
                               match=r"^move .* changed the surface$"):
                normalize(PolygonWord(letters))
        with pytest.raises(InternalInvariantViolation,
                           match=r"^move CutGlue.* changed the surface$"):
            replay(m, trace)


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
