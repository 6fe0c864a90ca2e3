import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonsurf import (
    DiscretePath,
    EndpointMismatchError,
    InternalInvariantViolation,
    Presentation,
    PreconditionError,
    UnknownLabelError,
    UnsupportedPresentationError,
    cayley_ball,
    cyclic_reduce,
    free_presentation,
    free_reduce,
    from_rotation_lists,
    homotopic,
    homotopic_words,
    invert_word,
    is_trivial_word,
    parse_word,
    path_endpoints,
    petal,
    pi1_presentation,
    random_filling_map,
    solver_kind,
    spanning_tree,
    surface_group,
    zxz_presentation,
)
from ribbonsurf import groups
from util import corpus

letter = st.tuples(st.sampled_from("abcd"), st.sampled_from([1, -1]))
words = st.lists(letter, max_size=30).map(tuple)


@settings(max_examples=80, deadline=None)
@given(words)
def test_free_reduce_idempotent_and_shorter(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)
    # no adjacent inverse pair survives
    for x, y in zip(r, r[1:]):
        assert not (x[0] == y[0] and x[1] == -y[1])


@settings(max_examples=60, deadline=None)
@given(words)
def test_word_times_inverse_reduces_to_identity(w):
    assert free_reduce(w + invert_word(w)) == ()


def test_surface_group_presentations():
    assert surface_group(0) == Presentation((), ())
    g1 = surface_group(1)
    assert g1.generators == ("a", "b")
    assert g1.relators == (parse_word("abAB"),)
    g2 = surface_group(2)
    assert g2.relators == (parse_word("abABcdCD"),)
    assert g2.deficiency == 3
    assert zxz_presentation() == g1


def test_solver_dispatch():
    assert solver_kind(free_presentation(3)) == "free"
    assert solver_kind(surface_group(1)) == "abelian"
    assert solver_kind(surface_group(4)) == "dehn"
    with pytest.raises(UnsupportedPresentationError):
        solver_kind(Presentation(("a",), (parse_word("aa"),)))
    # a word that freely reduces to the identity needs no solver
    assert is_trivial_word(parse_word("aA"), Presentation(("a",), (parse_word("aaa"),)))


@pytest.mark.parametrize("pres", [free_presentation(2), zxz_presentation(),
                                  surface_group(2)], ids=["free2", "zxz", "surface2"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solver_keys_separate_elements(pres, data):
    solver = groups.Solver(pres)
    letter = st.tuples(st.sampled_from(pres.generators), st.sampled_from([1, -1]))
    u = data.draw(st.lists(letter, max_size=12).map(tuple))
    # a permutation of u has u's exponent sums, so it often shares u's key
    v = data.draw(st.one_of(st.lists(letter, max_size=12).map(tuple),
                            st.permutations(u).map(tuple)))
    same = is_trivial_word(u + invert_word(v), pres)
    if solver.key(free_reduce(u)) != solver.key(free_reduce(v)):
        assert not same
    elif solver.kind != "dehn":
        assert same


def test_cayley_ball_resolves_the_shape_once(monkeypatch):
    calls = []
    shape_genus = groups._surface_shape_genus
    monkeypatch.setattr(groups, "_surface_shape_genus",
                        lambda pres: calls.append(pres) or shape_genus(pres))
    cayley_ball(surface_group(2), 2)
    assert len(calls) == 1


def test_trivial_words_free_group():
    free2 = free_presentation(2)
    assert is_trivial_word((), free2)
    assert is_trivial_word(parse_word("abBA"), free2)
    assert not is_trivial_word(parse_word("ab"), free2)
    with pytest.raises(UnknownLabelError):
        is_trivial_word(parse_word("x"), free2)


def test_trivial_words_torus():
    torus = surface_group(1)
    assert is_trivial_word(parse_word("abAB"), torus)
    assert is_trivial_word(parse_word("abABabAB"), torus)
    assert not is_trivial_word(parse_word("a"), torus)
    assert not is_trivial_word(parse_word("aabb"), torus)


def test_trivial_words_higher_genus():
    g2 = surface_group(2)
    relator = parse_word("abABcdCD")
    assert is_trivial_word(relator, g2)
    assert not is_trivial_word(parse_word("abAB"), g2)
    assert not is_trivial_word(parse_word("ab"), g2)
    # conjugates and products of conjugates of the relator are trivial
    rng = random.Random(7)
    gens = "abcd"
    for _ in range(30):
        w = ()
        for _ in range(rng.randrange(1, 4)):
            conj = tuple((rng.choice(gens), rng.choice((1, -1)))
                         for _ in range(rng.randrange(0, 4)))
            w = w + conj + relator + invert_word(conj)
        assert is_trivial_word(w, g2)


def reference_cyclic_reduce(word):
    """The earlier cyclic reduction, one end pair per slice (quadratic)."""
    w = list(free_reduce(word))
    while len(w) > 1 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def reference_dehn_trivial(word, relator):
    """The earlier Dehn's algorithm, kept as a differential reference: it
    rescans the whole cyclic word, longest pieces first, after every
    rewrite of a subword covering more than half of a relator shift."""
    big_r = len(relator)
    need = big_r // 2 + 1
    prefixes = {}
    for base in (relator, invert_word(relator)):
        for s in range(big_r):
            rot = base[s:] + base[:s]
            for length in range(need, big_r + 1):
                prefixes.setdefault(rot[:length], rot)
    w = reference_cyclic_reduce(word)
    while w:
        n = len(w)
        hit = None
        for length in range(min(n, big_r), need - 1, -1):
            for p in range(n):
                if p + length <= n:
                    piece = w[p:p + length]
                else:
                    piece = w[p:] + w[:p + length - n]
                rot = prefixes.get(piece)
                if rot is not None:
                    hit = (p, length, rot)
                    break
            if hit:
                break
        if hit is None:
            return False
        p, length, rot = hit
        rest = (w[p:] + w[:p])[length:]
        w = reference_cyclic_reduce(invert_word(rot[length:]) + rest)
    return True


@st.composite
def surface_words(draw):
    """A surface presentation and a random word over it, or relator
    conjugates nested at random places, with or without one extra letter."""
    pres = surface_group(draw(st.sampled_from([2, 3, 5])))
    gen = st.tuples(st.sampled_from(pres.generators), st.sampled_from([1, -1]))
    if draw(st.booleans()):
        return pres, tuple(draw(st.lists(gen, max_size=40)))
    relator = pres.relators[0]
    word = ()
    for _ in range(draw(st.integers(1, 4))):
        conj = tuple(draw(st.lists(gen, max_size=5)))
        shift = draw(st.integers(0, len(relator) - 1))
        rel = relator[shift:] + relator[:shift]
        if draw(st.booleans()):
            rel = invert_word(rel)
        at = draw(st.integers(0, len(word)))
        word = word[:at] + conj + rel + invert_word(conj) + word[at:]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(word)))
        word = word[:at] + (draw(gen),) + word[at:]
    return pres, word


@settings(max_examples=300, deadline=None)
@given(surface_words())
def test_dehn_matches_reference(case):
    pres, word = case
    w = free_reduce(word)
    expected = not w or reference_dehn_trivial(w, pres.relators[0])
    assert is_trivial_word(word, pres) == expected


class CountingDict(dict):
    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def long_surface_word(pres, length, rng):
    """Relator conjugates inserted at random places until ``length``."""
    relator, gens = pres.relators[0], pres.generators
    word = []
    while len(word) < length:
        conj = [(rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randrange(6))]
        at = rng.randrange(len(word) + 1)
        word[at:at] = conj + list(relator) + list(invert_word(conj))
    return tuple(word)


@pytest.mark.parametrize("g", [2, 3, 5])
@pytest.mark.parametrize("trivial", [True, False], ids=["trivial", "nontrivial"])
def test_dehn_work_is_linear(g, trivial):
    pres = surface_group(g)
    rng = random.Random(g)
    word = long_surface_word(pres, 23_000, rng)
    if not trivial:
        at = rng.randrange(len(word) + 1)
        word = word[:at] + ((rng.choice(pres.generators), 1),) + word[at:]
    word = free_reduce(word)
    assert len(word) >= 20_000
    solver = groups.Solver(pres)
    solver._pieces = CountingDict(solver._pieces)
    assert solver.is_trivial(word) == trivial
    assert solver._pieces.gets <= (1 + len(pres.relators[0]) / 4) * len(word)


def test_dehn_table_is_linear_in_the_relator():
    # 2R shifts of R = 400 letters: one copy of each base word, not 2R
    # prefixes of R/2 letters (which took about 11 MiB).
    pres = surface_group(100)
    tracemalloc.start()
    try:
        solver = groups.Solver(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(solver._pieces) == 800
    assert peak < 2 ** 20


def test_dehn_table_refuses_two_letter_pieces(monkeypatch):
    # The two letters ending a shift's first R/2 + 1 name it only when no
    # two-letter subword repeats; "ab" appears twice in this relator.
    monkeypatch.setattr(groups, "solver_kind", lambda pres: "dehn")
    pres = Presentation(tuple("abcd"), (parse_word("abcdabCD"),))
    with pytest.raises(InternalInvariantViolation):
        groups.Solver(pres)


@pytest.mark.parametrize("pres", [free_presentation(2), zxz_presentation(),
                                  surface_group(2)], ids=["free2", "zxz", "surface2"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solver_step_matches_key(pres, data):
    solver = groups.Solver(pres)
    letter = st.tuples(st.sampled_from(pres.generators), st.sampled_from([1, -1]))
    word = free_reduce(data.draw(st.lists(letter, max_size=12).map(tuple)))
    step = data.draw(letter)
    assert solver.key(()) == solver.identity_key
    expected = free_reduce(word + (step,))
    assert solver.step(word, solver.key(word), step) == (expected, solver.key(expected))


@settings(max_examples=200, deadline=None)
@given(words)
def test_cyclic_reduce_matches_reference(w):
    assert cyclic_reduce(w) == reference_cyclic_reduce(w)


def test_cyclic_reduce_long_conjugate():
    rng = random.Random(3)
    u = [("c", 1)]
    while len(u) < 10_000:
        x = (rng.choice("abcd"), rng.choice((1, -1)))
        if x != (u[-1][0], -u[-1][1]):
            u.append(x)
    u = tuple(reversed(u))  # ends in c, so it cancels with neither end of ab
    word = u + parse_word("ab") + invert_word(u)
    assert len(word) == 20_002
    assert cyclic_reduce(word) == reference_cyclic_reduce(word) == parse_word("ab")


def test_dehn_needs_more_than_half_relator():
    # length-4 subwords of the octagon relator make no Dehn move
    g2 = surface_group(2)
    assert not is_trivial_word(parse_word("abAB"), g2)
    assert not is_trivial_word(parse_word("cdCD"), g2)


def test_abelianization_detects_nontrivial():
    rng = random.Random(11)
    for g in (2, 3):
        pres = surface_group(g)
        gens = pres.generators
        for _ in range(50):
            w = free_reduce(tuple((rng.choice(gens), rng.choice((1, -1)))
                                  for _ in range(rng.randrange(1, 9))))
            sums = {}
            for lab, s in w:
                sums[lab] = sums.get(lab, 0) + s
            if any(v != 0 for v in sums.values()):
                assert not is_trivial_word(w, pres)


def test_homotopic_words_wrapper():
    torus = surface_group(1)
    assert homotopic_words(parse_word("ab"), parse_word("ba"), torus)
    assert not homotopic_words(parse_word("a"), parse_word("b"), torus)


def test_spanning_tree_theta():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    tree = spanning_tree(theta, 0)
    assert tree == {"e1"}
    assert spanning_tree(petal(2), 0) == set()


def test_pi1_matches_surface_groups_on_petals():
    for g in range(7):
        assert pi1_presentation(petal(g)) == surface_group(g)


def test_pi1_theta_sphere():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    pres = pi1_presentation(theta)
    assert pres.generators == ("e2", "e3")
    assert len(pres.relators) == 3
    assert pres.genus_hint is None


def test_deficiency_identity_on_corpus():
    for g, m in corpus(40, seed=19):
        if m.num_edges == 0:
            assert pi1_presentation(m) == surface_group(0)
            continue
        pres = pi1_presentation(m)
        assert len(pres.generators) - len(pres.relators) == 2 * g - 1


def test_path_endpoints_and_validation():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    p = DiscretePath((theta.dart_index(("e1", 1)), theta.dart_index(("e2", -1))))
    assert path_endpoints(theta, p) == (0, 0)
    with pytest.raises(PreconditionError):
        # e1+ then e3+ does not chain: e3+ starts where e1+ started
        path_endpoints(theta, DiscretePath((0, theta.dart_index(("e3", 1)))))
    constant = DiscretePath((), start=1)
    assert path_endpoints(theta, constant) == (1, 1)
    with pytest.raises(PreconditionError):
        path_endpoints(theta, DiscretePath(()))


def test_bad_vertex_arguments_are_precondition_errors():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    for call in (lambda: spanning_tree(theta, 99),
                 lambda: pi1_presentation(theta, base=99),
                 lambda: pi1_presentation(petal(0), base=99),
                 lambda: path_endpoints(theta, DiscretePath((), start=99))):
        with pytest.raises(PreconditionError, match="vertex 99 out of range"):
            call()


def test_out_of_range_darts_are_precondition_errors():
    m = petal(1)
    loop = DiscretePath((0,))
    for dart in (99, -1):
        bad = DiscretePath((dart,))
        for call in (lambda: path_endpoints(m, bad),
                     lambda: path_endpoints(m, DiscretePath((0, dart))),
                     lambda: homotopic(m, bad, loop),
                     lambda: homotopic(m, loop, bad)):
            with pytest.raises(PreconditionError,
                               match=f"dart {dart} out of range for 2 edges"):
                call()


def test_homotopic_loops_on_torus():
    m = petal(1)
    a = DiscretePath((m.dart_index(("a", 1)),))
    b = DiscretePath((m.dart_index(("b", 1)),))
    ab = DiscretePath((m.dart_index(("a", 1)), m.dart_index(("b", 1))))
    ba = DiscretePath((m.dart_index(("b", 1)), m.dart_index(("a", 1))))
    const = DiscretePath((), start=0)
    face = DiscretePath(tuple(m.dart_index(l) for l in parse_word("abAB")))
    assert not homotopic(m, a, b)
    assert homotopic(m, ab, ba)
    assert homotopic(m, face, const)
    assert homotopic(m, a, a)


def test_homotopic_face_loop_genus2():
    m = petal(2)
    face = DiscretePath(tuple(m.dart_index(l) for l in parse_word("abABcdCD")))
    const = DiscretePath((), start=0)
    assert homotopic(m, face, const)
    half = DiscretePath(tuple(m.dart_index(l) for l in parse_word("abAB")))
    assert not homotopic(m, half, const)


def test_homotopic_builds_the_spanning_tree_once(monkeypatch):
    calls = []
    tree = groups.spanning_tree
    monkeypatch.setattr(groups, "spanning_tree",
                        lambda m, base=0: calls.append(base) or tree(m, base))
    m = petal(3)
    face = DiscretePath(tuple(m.dart_index(l) for l in parse_word("abAB")))
    assert not homotopic(m, face, DiscretePath((), start=0))
    assert calls == [0]


def test_homotopic_endpoint_mismatch():
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    p1 = DiscretePath((theta.dart_index(("e1", 1)),))
    const = DiscretePath((), start=0)
    with pytest.raises(EndpointMismatchError):
        homotopic(theta, p1, const)


def test_homotopic_free_reduction_before_dispatch():
    # identical paths succeed even where the presentation has no solver
    m = random_filling_map(1, 5, 1)
    p = DiscretePath((m.dart_index(("a", 1)), m.dart_index(("e3", -1))))
    assert homotopic(m, p, p)
    with pytest.raises(UnsupportedPresentationError):
        homotopic(m, p, DiscretePath((), start=0))


def test_homotopic_on_tree_is_always_true():
    path = from_rotation_lists(
        ["e1", "e2"], [["e1-"], ["e1+", "e2+"], ["e2-"]])
    out = DiscretePath((path.dart_index(("e1", -1)),))
    back = DiscretePath((path.dart_index(("e1", -1)),
                         path.dart_index(("e2", 1)),
                         path.dart_index(("e2", -1))))
    assert homotopic(path, out, back)


def test_genus_hint_is_derived():
    # The hint is read off the generators and relators, so no presentation
    # can carry one that disagrees with its shape.
    assert free_presentation(0).genus_hint == 0
    assert free_presentation(2).genus_hint is None
    assert Presentation(("a", "b"), (parse_word("abAB"),)).genus_hint == 1
    assert Presentation(("a",), (parse_word("aaa"),)).genus_hint is None
    theta = from_rotation_lists(
        ["e1", "e2", "e3"],
        [["e1+", "e2+", "e3+"], ["e1-", "e3-", "e2-"]])
    assert pi1_presentation(theta).genus_hint is None
    for g in range(5):
        assert surface_group(g).genus_hint == g
        assert pi1_presentation(petal(g)).genus_hint == g
    with pytest.raises(TypeError):
        Presentation(("a", "b"), (parse_word("abAB"),), genus_hint=2)


def test_homotopic_on_the_sphere_checks_base():
    sphere = petal(0)
    here = DiscretePath((), start=0)
    assert homotopic(sphere, here, here)
    with pytest.raises(PreconditionError, match="vertex 1 out of range"):
        homotopic(sphere, here, here, base=1)


# -- the tuple path as a differential reference --------------------------------
# The word problem as it was decided on (label, sign) letters: a validation
# loop, free reduction, then exponent sums or a Dehn pass over tuple letters
# with a table keyed on letter pairs.  The library decides on integer codes.


def reference_free_reduce(word):
    stack = []
    for lab, sign in word:
        if stack and stack[-1][0] == lab and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((lab, sign))
    return tuple(stack)


def reference_exponent_sums(word, generators):
    sums = dict.fromkeys(generators, 0)
    for lab, sign in word:
        sums[lab] += sign
    return tuple(sums[g] for g in generators)


def reference_tuple_dehn(word, relator):
    size = len(relator)
    need = size // 2 + 1
    pieces = {}
    for base in (relator, invert_word(relator)):
        cycle = list(base + base)
        flipped = [(lab, -sign) for lab, sign in cycle]
        for s in range(size):
            ends = (cycle[s + need - 2], cycle[s + need - 1])
            assert ends not in pieces
            pieces[ends] = (cycle, flipped, s, s + need, s + size)
    stack = []
    pending = list(reversed(word))
    while pending:
        lab, sign = letter = pending.pop()
        if stack and stack[-1][0] == lab and stack[-1][1] == -sign:
            stack.pop()
            continue
        stack.append(letter)
        if len(stack) >= need:
            shift = pieces.get((stack[-2], letter))
            if shift is not None:
                cycle, flipped, start, cut, stop = shift
                if stack[-need] == cycle[start] and stack[-need:] == cycle[start:cut]:
                    del stack[-need:]
                    pending.extend(flipped[cut:stop])
    return not stack


def reference_is_trivial_word(word, pres):
    gens = set(pres.generators)
    for lab, sign in word:
        if lab not in gens:
            raise UnknownLabelError(f"word uses unknown generator {lab!r}")
        if sign not in (1, -1):
            raise PreconditionError(f"bad sign {sign!r} in word")
    w = reference_free_reduce(word)
    if not w:
        return True
    kind = solver_kind(pres)
    if kind == "free":
        return False
    if kind == "abelian":
        return not any(reference_exponent_sums(w, pres.generators))
    return reference_tuple_dehn(w, pres.relators[0])


DIFFERENTIAL_GROUPS = (free_presentation(2), free_presentation(3), zxz_presentation(),
                       surface_group(2), surface_group(3), surface_group(5))


@st.composite
def unreduced_words(draw, pres):
    """A word that is often trivial: a random base (often empty) with inverse
    pairs and conjugated relator shifts, either way round, inserted at
    random places, so it is rarely freely reduced."""
    gen = st.tuples(st.sampled_from(pres.generators), st.sampled_from([1, -1]))
    word = draw(st.one_of(st.just([]), st.lists(gen, max_size=30)))
    for _ in range(draw(st.integers(0, 5))):
        conj = draw(st.lists(gen, max_size=5))
        if pres.relators and draw(st.booleans()):
            relator = pres.relators[0]
            shift = draw(st.integers(0, len(relator) - 1))
            inner = list(relator[shift:] + relator[:shift])
        else:
            inner = [draw(gen)]
        if draw(st.booleans()):
            inner = list(invert_word(inner))
        inner = inner if draw(st.booleans()) else inner + list(invert_word(inner))
        at = draw(st.integers(0, len(word)))
        word[at:at] = conj + inner + list(invert_word(conj))
    return tuple(word)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_code_path_matches_tuple_path(data):
    pres = data.draw(st.sampled_from(DIFFERENTIAL_GROUPS))
    word = data.draw(unreduced_words(pres))
    expected = reference_is_trivial_word(word, pres)
    assert is_trivial_word(word, pres) == expected
    assert groups.Solver(pres).is_trivial(word) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_same_matches_the_tuple_path(data):
    # same(u, v) decides u v' by Dehn's algorithm for genus >= 2 and trusts
    # equal keys otherwise (exact keys), as Cayley balls call it.
    pres = data.draw(st.sampled_from(DIFFERENTIAL_GROUPS))
    solver = groups.Solver(pres)
    u = data.draw(unreduced_words(pres))
    v = data.draw(st.one_of(unreduced_words(pres),
                            st.just(u + data.draw(unreduced_words(pres)))))
    expected = solver.is_trivial(free_reduce(u + invert_word(v)))
    assert expected == reference_is_trivial_word(u + invert_word(v), pres)
    if solver.kind == "dehn" or solver.key(free_reduce(u)) == solver.key(free_reduce(v)):
        assert solver.same(u, v) == expected
        assert solver.same(free_reduce(u), free_reduce(v)) == expected


def outcome(decide, word, pres):
    try:
        return decide(word, pres)
    except Exception as exc:
        return type(exc), str(exc)


UNSUPPORTED = Presentation(("a", "b"), (parse_word("aab"),))


@pytest.mark.parametrize("pres", [free_presentation(2), zxz_presentation(),
                                  surface_group(2), UNSUPPORTED],
                         ids=["free2", "zxz", "surface2", "unsupported"])
def test_inputs_are_checked_as_on_the_tuple_path(pres):
    bad = [[("a", 1), ("x", 1)]]                                     # unknown label
    bad += [[("a", 1), ("b", sign)] for sign in (0, 2, "1", None, False)]
    bad += [[("x", 1), ("a", 2)], [("a", 2), ("x", 1)]]              # first is reported
    bad += [[("a", 1, 0)], ["a"], [(["a"], 1)], [("a", 1), "b1"]]    # malformed letters
    for word in bad:
        got = outcome(is_trivial_word, word, pres)
        assert got == outcome(reference_is_trivial_word, word, pres), word
        assert isinstance(got, tuple) and issubclass(got[0], Exception), word
    assert outcome(is_trivial_word, [("x", 1)], pres) == (
        UnknownLabelError, "word uses unknown generator 'x'")
    assert outcome(is_trivial_word, [("a", 1), ("a", None)], pres) == (
        PreconditionError, "bad sign None in word")
    # list letters and a True sign are accepted, and freely trivial words
    # are trivial even where no solver fits
    for word in ([["a", 1], ["a", -1]], [("a", True), ("a", -1)],
                 [["b", True], ("a", 1), ("a", -1), ("b", -1)], ()):
        assert is_trivial_word(word, pres) is True
        assert reference_is_trivial_word(word, pres) is True
    for word in ([["a", True]], [("a", 1), ["b", -1]]):
        got = outcome(is_trivial_word, word, pres)
        assert got == outcome(reference_is_trivial_word, word, pres)
        if pres is UNSUPPORTED:
            assert got == (UnsupportedPresentationError,
                           "solver handles free and standard surface presentations only")
        else:
            assert got is False


def test_words_may_be_one_shot_iterators():
    # The first, fast read of a word can meet a letter it does not know; the
    # checks then read the word again, so an iterator is not used up first.
    g2 = surface_group(2)
    assert is_trivial_word(iter(parse_word("abABcdCD")), g2)
    assert not is_trivial_word(iter(parse_word("abAB")), g2)
    assert is_trivial_word(iter([["a", 1], ("a", -1)]), g2)
    with pytest.raises(UnknownLabelError, match="unknown generator 'x'"):
        is_trivial_word(iter([("a", 1), ("x", 1)]), g2)
    with pytest.raises(PreconditionError, match="bad sign 2"):
        is_trivial_word((letter for letter in [("a", 2)]), free_presentation(1))
