"""Reduction of a filling map to its canonical polygon.

Any connected map is carried to a one-vertex one-face map by deleting edges
whose two sides lie on distinct faces (merging the faces) and then
contracting non-loop edges (merging vertices); both moves preserve the Euler
characteristic.  The random generator runs the inverse moves: chord
insertions and vertex splits.  Every map move is checked by one test of its
change to (V, F) and hands the faces of its result on, so a chain of moves
traces each map once.  The surviving map's single face spells a polygon
word in which every edge label appears once per sign.  Cut-and-glue
rewriting brings that word to the canonical form
x1 y1 x1' y1' ... xg yg xg' yg', whose length names the genus directly.
Every step is recorded in a replayable MoveTrace, and the word after every
move is checked against the independent chi oracle word_to_map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import (
    InternalInvariantViolation,
    LoopNotContractibleError,
    MalformedWordError,
    PreconditionError,
    UnknownLabelError,
)
from .maps import DartRef, RibbonMap, _check_label, _from_dart_rows
from .surfaces import face_of_dart, genus, petal, trace_faces


class PolygonWord:
    """A cyclic word of signed edge labels, each label once per sign."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence):
        normalized = tuple(DartRef(l[0], l[1]) for l in letters)
        counts = {}
        for ref in normalized:
            counts.setdefault(ref.label, []).append(ref.sign)
        for lab, signs in counts.items():
            if sorted(signs) != [-1, 1]:
                raise MalformedWordError(
                    f"label {lab!r} must appear exactly once per sign")
        self.letters = normalized

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if not isinstance(other, PolygonWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def cyclic_eq(self, other: "PolygonWord") -> bool:
        if len(self) != len(other):
            return False
        if not self.letters:
            return True
        doubled = other.letters + other.letters
        return any(doubled[i:i + len(self)] == self.letters
                   for i in range(len(other)))

    def tokens(self) -> list:
        return [ref.token() for ref in self.letters]

    def __repr__(self):
        return f"PolygonWord({' '.join(self.tokens())})"


# -- move records ----------------------------------------------------------


@dataclass(frozen=True)
class DeleteEdge:
    label: str


@dataclass(frozen=True)
class ContractEdge:
    label: str


@dataclass(frozen=True)
class Cancel:
    label: str


@dataclass(frozen=True)
class CutGlue:
    """Cut the polygon between two corners and reglue along an old edge.

    ``cut`` = (i, j) splits the current cyclic word into the arc [i, j) and
    its complement; the fresh chord edge enters the first piece with sign
    ``chord_sign``.  Regluing along ``old_label`` (one occurrence per piece)
    removes it, so the word keeps its length.
    """

    new_label: str
    old_label: str
    cut: Tuple[int, int]
    chord_sign: int


@dataclass(frozen=True)
class MoveTrace:
    moves: tuple = ()

    def __len__(self):
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def extend(self, more) -> "MoveTrace":
        return MoveTrace(self.moves + tuple(more))


@dataclass(frozen=True)
class ClassificationResult:
    """genus, the canonical polygon word (None for the sphere), and the
    full move trace that turns the input into it."""

    genus: int
    canonical_word: Optional[PolygonWord]
    trace: MoveTrace


# -- map-level moves -------------------------------------------------------
#
# Each move has a private core that takes its input's faces and returns
# (new map, its faces) through _checked.  The public moves trace their input
# and call the core.


def _edge_index(ribbon_map: RibbonMap, label: str) -> int:
    if label not in ribbon_map.edge_labels:
        raise UnknownLabelError(f"unknown edge label {label!r}")
    return ribbon_map.edge_labels.index(label)


def _rebuild(ribbon_map: RibbonMap, rows: list) -> RibbonMap:
    """The map on the surviving darts of ``ribbon_map``, one row per vertex.
    Edges are renumbered in order of first appearance in the rows."""
    new_edge = {}
    for row in rows:
        for d in row:
            new_edge.setdefault(d >> 1, len(new_edge))
    labels = [ribbon_map.edge_labels[k] for k in new_edge]
    return _from_dart_rows(labels, [[2 * new_edge[d >> 1] + (d & 1) for d in row]
                                    for row in rows])


def _checked(before: RibbonMap, faces: list, after: RibbonMap,
             dv: int, df: int, what: str):
    """(after, its faces), once V and F are seen to change by (dv, df)."""
    after_faces = trace_faces(after)
    change = (after.num_vertices - before.num_vertices,
              len(after_faces) - len(faces))
    if change != (dv, df):
        raise InternalInvariantViolation(
            f"{what} changed (V, F) by {change}, not {(dv, df)}")
    return after, after_faces


def _merging_edge(ribbon_map: RibbonMap, faces: list) -> Optional[str]:
    """The first edge whose two sides lie on distinct faces, if any."""
    where = face_of_dart(ribbon_map, faces)
    return next((label for k, label in enumerate(ribbon_map.edge_labels)
                 if where[2 * k] != where[2 * k + 1]), None)


def _delete(ribbon_map: RibbonMap, faces: list, label: str):
    k = _edge_index(ribbon_map, label)
    where = face_of_dart(ribbon_map, faces)
    if where[2 * k] == where[2 * k + 1]:
        raise PreconditionError(
            f"edge {label!r} has both sides on one face; deleting it "
            "would not merge faces")
    rows = [[d for d in star if d >> 1 != k] for star in ribbon_map._stars]
    return _checked(ribbon_map, faces, _rebuild(ribbon_map, rows), 0, -1,
                    f"deleting {label!r}")


def delete_edge(ribbon_map: RibbonMap, label: str) -> RibbonMap:
    """Remove one edge whose sides lie on distinct faces, merging them; chi
    and connectedness are kept."""
    return _delete(ribbon_map, trace_faces(ribbon_map), label)[0]


def delete_face_merging_edge(ribbon_map: RibbonMap):
    """Delete the smallest-dart edge whose sides lie on distinct faces.

    Returns (new map, deleted label), or None when every edge has both
    sides on one face -- in particular whenever F = 1.
    """
    faces = trace_faces(ribbon_map)
    label = _merging_edge(ribbon_map, faces)
    return None if label is None else (_delete(ribbon_map, faces, label)[0], label)


def _contract(ribbon_map: RibbonMap, faces: list, label: str):
    d = 2 * _edge_index(ribbon_map, label)
    dbar = d ^ 1
    u = ribbon_map.vertex_of(d)
    v = ribbon_map.vertex_of(dbar)
    if u == v:
        raise LoopNotContractibleError(f"edge {label!r} is a loop")
    star_v = ribbon_map.star(v)
    at = star_v.index(dbar)
    splice = star_v[at + 1:] + star_v[:at]
    rows = []
    for w, star in enumerate(ribbon_map._stars):
        if w == v:
            continue
        row = []
        for x in star:
            if x == d:
                row.extend(splice)
            else:
                row.append(x)
        rows.append(row)
    return _checked(ribbon_map, faces, _rebuild(ribbon_map, rows), -1, 0,
                    f"contracting {label!r}")


def contract_edge(ribbon_map: RibbonMap, label: str) -> RibbonMap:
    """Contract a non-loop edge, merging its endpoints.

    In the rotation at the tail, the edge's dart is replaced by the star of
    the head read cyclically from just after the opposite dart; V drops by
    one and F is untouched.
    """
    return _contract(ribbon_map, trace_faces(ribbon_map), label)[0]


def reduce_to_one_vertex_one_face(ribbon_map: RibbonMap):
    """Delete face-merging edges until one face remains, then contract
    non-loop edges until one vertex remains.  Returns (map, MoveTrace).
    Each map along the way is traced once; its faces are handed on."""
    moves = []
    current = ribbon_map
    faces = trace_faces(current)
    while True:
        label = _merging_edge(current, faces)
        if label is None:
            break
        current, faces = _delete(current, faces, label)
        moves.append(DeleteEdge(label))
    if current.num_edges:
        if len(faces) != 1:
            raise InternalInvariantViolation(
                "several faces left but no edge separates two of them")
        while current.num_vertices > 1:
            for k, label in enumerate(current.edge_labels):
                if current.vertex_of(2 * k) != current.vertex_of(2 * k + 1):
                    current, faces = _contract(current, faces, label)
                    moves.append(ContractEdge(label))
                    break
            else:
                raise InternalInvariantViolation(
                    "several vertices left but every edge is a loop")
    return current, MoveTrace(tuple(moves))


def polygon_word(ribbon_map: RibbonMap) -> PolygonWord:
    """The single face of a one-vertex one-face map, starting at dart 0."""
    if ribbon_map.num_edges == 0:
        raise PreconditionError("edgeless map has no polygon word")
    if ribbon_map.num_vertices != 1:
        raise PreconditionError(
            f"map has {ribbon_map.num_vertices} vertices; reduce it first")
    faces = trace_faces(ribbon_map)
    if len(faces) != 1:
        raise PreconditionError(
            f"map has {len(faces)} faces; reduce it first")
    return PolygonWord(faces[0].word(ribbon_map))


def word_to_map(word) -> RibbonMap:
    """Rebuild the quotient map of a polygon word.

    Positions of the word are the darts, the face successor is the cyclic
    shift, and the rotation is recovered as sigma = phi o iota.  The result
    always has exactly one face, namely the word itself; its vertex count is
    the number of corner classes of the glued polygon.
    """
    if not isinstance(word, PolygonWord):
        word = PolygonWord(word)
    n = len(word)
    labels = list(dict.fromkeys(ref.label for ref in word.letters))
    for label in labels:
        _check_label(label)
    index = {label: k for k, label in enumerate(labels)}
    darts = [2 * index[ref.label] + (0 if ref.sign > 0 else 1) for ref in word.letters]
    partner = {}
    other = [0] * n
    for i, ref in enumerate(word.letters):
        j = partner.pop(ref.label, None)
        if j is None:
            partner[ref.label] = i
        else:
            other[i], other[j] = j, i
    sigma = [(other[i] + 1) % n for i in range(n)]
    seen = [False] * n
    rows = []
    for start in range(n):
        if seen[start]:
            continue
        row = []
        i = start
        while not seen[i]:
            seen[i] = True
            row.append(darts[i])
            i = sigma[i]
        rows.append(row)
    return _from_dart_rows(labels, rows)


# -- word-level moves ------------------------------------------------------


def _cyclic_slice(letters: list, i: int, j: int) -> list:
    if i == j:
        raise InternalInvariantViolation("empty or full cut arc")
    if i < j:
        return letters[i:j]
    return letters[i:] + letters[:j]


def apply_cancel(letters: list, move: Cancel) -> list:
    """Remove the (cyclically) adjacent inverse pair of ``move.label``."""
    n = len(letters)
    for i in range(n):
        j = (i + 1) % n
        a, b = letters[i], letters[j]
        if a.label == move.label == b.label and a.sign == -b.sign:
            if i < j:
                return letters[:i] + letters[j + 1:]
            return letters[1:i]  # pair wraps around the end
    raise PreconditionError(f"label {move.label!r} has no adjacent inverse pair")


def apply_cut_glue(letters: list, move: CutGlue) -> list:
    """Cut the cyclic word at ``move.cut`` and reglue along the old edge."""
    i, j = move.cut
    arc_a = _cyclic_slice(letters, i, j)
    arc_b = _cyclic_slice(letters, j, i)
    pos_a = [p for p, ref in enumerate(arc_a) if ref.label == move.old_label]
    pos_b = [p for p, ref in enumerate(arc_b) if ref.label == move.old_label]
    if len(pos_a) != 1 or len(pos_b) != 1:
        raise PreconditionError(
            f"cut must separate the two occurrences of {move.old_label!r}")
    if any(ref.label == move.new_label for ref in letters):
        raise PreconditionError(f"label {move.new_label!r} already in use")
    pa, pb = pos_a[0], pos_b[0]
    chord = DartRef(move.new_label, move.chord_sign)
    # Piece 1 is arc_a plus the chord, piece 2 the reversed chord plus arc_b;
    # gluing the pieces along old_label concatenates them read from just
    # after its two occurrences.
    return (arc_a[pa + 1:] + [chord] + arc_a[:pa]
            + arc_b[pb + 1:] + [chord.reversed()] + arc_b[:pb])


def apply_word_move(letters: list, move) -> list:
    if isinstance(move, Cancel):
        return apply_cancel(letters, move)
    if isinstance(move, CutGlue):
        return apply_cut_glue(letters, move)
    raise PreconditionError(f"not a word move: {move!r}")


def _strict_blocks(letters: list) -> list:
    """Start positions of gathered blocks (x+, y+, x-, y-), x != y."""
    n = len(letters)
    starts = []
    for p in range(n):
        a, b, c, d = (letters[p], letters[(p + 1) % n],
                      letters[(p + 2) % n], letters[(p + 3) % n])
        if (a.label == c.label and b.label == d.label
                and a.label != b.label
                and (a.sign, b.sign, c.sign, d.sign) == (1, 1, -1, -1)):
            starts.append(p)
    return starts


def _gathered_labels(letters: list) -> set:
    out = set()
    n = len(letters)
    for p in _strict_blocks(letters):
        out.add(letters[p].label)
        out.add(letters[(p + 1) % n].label)
    return out


def _aligned_rotations(letters: list) -> list:
    """Positions p from which the word reads x1 y1 x1' y1' ...: every
    (p + 4i) mod n is a block start."""
    n = len(letters)
    if n % 4:
        return []
    starts = set(_strict_blocks(letters))
    return [p for p in sorted(starts)
            if all((p + q) % n in starts for q in range(0, n, 4))]


def is_canonical_word(word) -> bool:
    """True when the word is exactly x1 y1 x1' y1' ... read from position 0."""
    letters = list(word)
    return not letters or 0 in _aligned_rotations(letters)


def canonical_rotation(letters: list) -> list:
    """Rotate a fully gathered word to its least block-aligned rotation."""
    if not letters:
        return []
    candidates = [letters[p:] + letters[:p] for p in _aligned_rotations(letters)]
    if not candidates:
        raise InternalInvariantViolation("word is not fully gathered")
    return min(candidates, key=lambda ls: [ref.token() for ref in ls])


def _oracle_genus(letters: list) -> int:
    return genus(word_to_map(PolygonWord(letters))) if letters else 0


def _fresh_label(used: set, counter: list) -> str:
    while True:
        name = f"z{counter[0]}"
        counter[0] += 1
        if name not in used:
            used.add(name)
            return name


def _find_adjacent_inverse(letters: list):
    n = len(letters)
    for i in range(n):
        a, b = letters[i], letters[(i + 1) % n]
        if a.label == b.label and a.sign == -b.sign:
            return a.label
    return None


def _linked_pairs(letters: list, ignore: set):
    """Labels (a, b) outside ``ignore`` whose occurrences interleave."""
    positions = {}
    for p, ref in enumerate(letters):
        positions.setdefault(ref.label, []).append(p)
    labels = [lab for lab in positions if lab not in ignore]
    for a in labels:
        p1, p2 = positions[a]
        for b in labels:
            q1, q2 = positions[b]
            if (p1 < q1 < p2) != (p1 < q2 < p2):
                yield a, b


def _cut_around(letters: list, around: str, old_label: str, chord_sign: int,
                used: set, counter: list) -> CutGlue:
    """Cut just around the two occurrences of ``around`` with a fresh chord
    and reglue along ``old_label``."""
    p1, p2 = [p for p, ref in enumerate(letters) if ref.label == around]
    return CutGlue(new_label=_fresh_label(used, counter), old_label=old_label,
                   cut=(p1, (p2 + 1) % len(letters)), chord_sign=chord_sign)


def normalize(word):
    """Rewrite a one-vertex polygon word into canonical form.

    Returns (canonical PolygonWord, MoveTrace).  Adjacent inverse pairs are
    cancelled, then linked pairs are gathered into blocks x y x' y' until the
    word is a concatenation of such blocks; the genus can then be read off as
    length/4.  The word after every move is checked against the word_to_map
    chi oracle.
    """
    letters = list(PolygonWord(word).letters)
    target = _oracle_genus(letters)
    used = {ref.label for ref in letters}
    counter = [1]
    moves = []

    def apply(move):
        nonlocal letters
        letters = apply_word_move(letters, move)
        if _oracle_genus(letters) != target:
            raise InternalInvariantViolation(f"move {move!r} changed the surface")
        moves.append(move)

    while True:
        lab = _find_adjacent_inverse(letters)
        if lab is not None:
            apply(Cancel(lab))
            continue
        if not letters:
            break
        gathered = _gathered_labels(letters)
        present = {ref.label for ref in letters}
        if gathered == present:
            break
        try:
            a, b = next(_linked_pairs(letters, gathered))
        except StopIteration:
            raise PreconditionError(
                "no linked pair among ungathered edges; the word does not "
                "come from a one-vertex map") from None
        # Two cuts fuse the linked pair into a fresh gathered block, leaving
        # every other arc of the word intact.
        apply(_cut_around(letters, a, b, -1, used, counter))
        apply(_cut_around(letters, moves[-1].new_label, a, 1, used, counter))
    if letters:
        letters = canonical_rotation(letters)
    return PolygonWord(letters), MoveTrace(tuple(moves))


def replay_word_moves(word, moves) -> PolygonWord:
    """Apply recorded word moves and the final canonical rotation."""
    letters = list(PolygonWord(word).letters)
    for move in moves:
        letters = apply_word_move(letters, move)
    if letters:
        letters = canonical_rotation(letters)
    return PolygonWord(letters)


# -- full pipeline ---------------------------------------------------------


def classify(ribbon_map: RibbonMap) -> ClassificationResult:
    """Genus, canonical polygon word (None for the sphere) and move trace."""
    if ribbon_map.num_edges == 0:
        return ClassificationResult(0, None, MoveTrace())
    reduced, map_trace = reduce_to_one_vertex_one_face(ribbon_map)
    if reduced.num_edges == 0:
        return ClassificationResult(0, None, map_trace)
    word = polygon_word(reduced)
    canonical, word_trace = normalize(word)
    trace = map_trace.extend(word_trace.moves)
    if len(canonical) == 0:
        return ClassificationResult(0, None, trace)
    g = len(canonical) // 4
    if g != genus(ribbon_map):
        raise InternalInvariantViolation(
            f"canonical word says genus {g}, chi says {genus(ribbon_map)}")
    return ClassificationResult(g, canonical, trace)


def replay(ribbon_map: RibbonMap, trace: MoveTrace) -> Optional[PolygonWord]:
    """Re-run a recorded trace from scratch; None means the sphere."""
    current = ribbon_map
    moves = list(trace)
    at = 0
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
    word = polygon_word(current)
    final = replay_word_moves(word, moves[at:])
    return final if len(final) else None


# -- randomized instance generator ------------------------------------------


def _insert(ribbon_map: RibbonMap, faces: list, label: str, face_index: int,
            corner_a: int, corner_b: int):
    if ribbon_map.num_edges == 0:
        _check_label(label)
        return _checked(ribbon_map, faces, _from_dart_rows([label], [[0, 1]]),
                        0, 1, f"inserting {label!r}")
    if label in ribbon_map.edge_labels:
        raise PreconditionError(f"label {label!r} already in use")
    face = faces[face_index]
    da = face.darts[corner_a % len(face)]
    db = face.darts[corner_b % len(face)]
    new = ribbon_map.num_darts
    rows = []
    for star in ribbon_map._stars:
        row = []
        for x in star:
            if x == da:
                row.append(new)
            if x == db:
                row.append(new + 1)
            row.append(x)
        rows.append(row)
    _check_label(label)
    result = _from_dart_rows(ribbon_map.edge_labels + (label,), rows)
    return _checked(ribbon_map, faces, result, 0, 1, f"inserting {label!r}")


def insert_edge(ribbon_map: RibbonMap, label: str, face_index: int,
                corner_a: int, corner_b: int) -> RibbonMap:
    """Split one face with a fresh chord between two of its corners.

    Corners are face positions; the chord's forward dart enters the rotation
    just before the dart at ``corner_a`` (V stays, m and F grow by one).
    The edgeless sphere admits one insertion: the single loop.
    """
    faces = trace_faces(ribbon_map)
    if not 0 <= face_index < len(faces):
        raise PreconditionError(f"face {face_index} out of range")
    return _insert(ribbon_map, faces, label, face_index, corner_a, corner_b)[0]


def _split(ribbon_map: RibbonMap, faces: list, label: str, vertex: int,
           cut_a: int, cut_b: int):
    if label in ribbon_map.edge_labels:
        raise PreconditionError(f"label {label!r} already in use")
    star = ribbon_map.star(vertex)
    if not star:
        raise PreconditionError("cannot split an isolated vertex")
    deg = len(star)
    i, j = cut_a % deg, cut_b % deg
    if i == j:
        # Degenerate cut: the new edge carries off a bare endpoint.
        arc_a = []
        arc_b = [star[(j + t) % deg] for t in range(deg)]
    else:
        arc_a = [star[(i + t) % deg] for t in range((j - i) % deg)]
        arc_b = [star[(j + t) % deg] for t in range((i - j) % deg)]
    new = ribbon_map.num_darts
    rows = []
    for v, star in enumerate(ribbon_map._stars):
        if v == vertex:
            rows.extend((arc_a + [new], arc_b + [new + 1]))
        else:
            rows.append(star)
    _check_label(label)
    result = _from_dart_rows(ribbon_map.edge_labels + (label,), rows)
    return _checked(ribbon_map, faces, result, 1, 0, f"splitting off {label!r}")


def split_vertex(ribbon_map: RibbonMap, label: str, vertex: int,
                 cut_a: int, cut_b: int) -> RibbonMap:
    """Pull a vertex apart into two joined by a fresh edge.

    The star is cut at positions ``cut_a``/``cut_b``; each side keeps its
    cyclic order and gains one side of the new edge.  Inverse to contracting
    that edge (V and m grow by one, F stays).
    """
    if not 0 <= vertex < ribbon_map.num_vertices:
        raise PreconditionError(f"vertex {vertex} out of range")
    return _split(ribbon_map, trace_faces(ribbon_map), label, vertex,
                  cut_a, cut_b)[0]


def random_filling_map(g: int, moves: int, seed: int) -> RibbonMap:
    """A pseudorandom genus-g map: petal(g) blown up by ``moves`` inverse
    reduction moves (chord insertions and vertex splits).  Deterministic in
    ``seed``; the genus never changes.  Each map is traced once."""
    rng = random.Random(seed)
    current = petal(g)
    faces = trace_faces(current)
    for i in range(1, moves + 1):
        label = f"e{i}"
        if current.num_edges == 0 or rng.random() < 0.5:
            f = rng.randrange(len(faces))
            size = max(1, len(faces[f]))
            current, faces = _insert(current, faces, label, f,
                                     rng.randrange(size), rng.randrange(size))
        else:
            v = rng.randrange(current.num_vertices)
            deg = len(current.star(v))
            current, faces = _split(current, faces, label, v,
                                    rng.randrange(deg), rng.randrange(deg))
    if current.num_vertices - current.num_edges + len(faces) != 2 - 2 * g:
        raise InternalInvariantViolation("random moves changed the genus")
    return current
