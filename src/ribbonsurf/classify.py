"""Reduction of a filling map to its canonical polygon.

Any connected map is carried to a one-vertex one-face map by deleting edges
whose two sides lie on distinct faces (merging the faces) and then
contracting non-loop edges (merging vertices); both moves preserve the Euler
characteristic.  The random generator runs the inverse moves: chord
insertions and vertex splits.  A chain of map moves edits one mutable dart
form in place; each move checks its change to (V, F) on the faces and stars
it touched, and the chain is built into a checked map and traced once, at
its end.  The surviving map's single face spells a polygon word in which
every edge label appears once per sign.  Cut-and-glue rewriting brings that
word to the canonical form x1 y1 x1' y1' ... xg yg xg' yg', whose length
names the genus directly.  Every step is recorded in a replayable
MoveTrace, and the word after every move must keep the genus: a chi oracle
counts the corner classes of the glued polygon with the orbit walk that
reads stars and faces.  word_to_map, which builds the glued map, is the
reference the oracle is tested against.  replay re-runs a trace through
the same code: its map moves on one working form, frozen once, and its
word moves through normalize's checked step.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from itertools import count
from typing import Optional, Sequence, Tuple

from .errors import (
    InternalInvariantViolation,
    LoopNotContractibleError,
    MalformedWordError,
    PreconditionError,
    UnknownLabelError,
)
from .maps import DartRef, RibbonMap, _check_label, _from_dart_rows, _orbits
from .surfaces import _genus_of_chi, genus, petal, trace_faces


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


class _Form:
    """A map under surgery, frozen into a RibbonMap once.  Dart ids never
    change: a removed dart is marked ``dead``, and its ``sigma`` entry still
    leads on to the first surviving dart after it.  ``edge_ids`` maps every
    label ever used, removed edges' too, to its edge id.  ``inv`` is sigma's
    inverse and ``order`` lists the live edge ids in edge order.  ``where``
    keys each dart's face (by its smallest dart, until a delete merges
    faces), ``flen`` maps face keys to lengths and ``fkeys`` lists them
    sorted.  ``vert`` names each dart's star by one of its darts; ``starts``
    holds each star's smallest dart in edge order, in that order."""

    __slots__ = ("labels", "edge_ids", "order", "sigma", "inv", "dead", "where",
                 "flen", "fkeys", "vert", "starts")

    def __init__(self, ribbon_map: RibbonMap):
        n = ribbon_map.num_darts
        self.labels = list(ribbon_map.edge_labels)
        self.edge_ids = {label: k for k, label in enumerate(self.labels)}
        self.order = list(range(ribbon_map.num_edges))
        self.sigma = list(ribbon_map.sigma)
        self.inv = [0] * n
        for d, nxt in enumerate(self.sigma):
            self.inv[nxt] = d
        self.dead = bytearray(n)
        self.where, self.flen = [0] * n, {}
        for face in trace_faces(ribbon_map):
            self.flen[face.darts[0] if face.darts else 0] = len(face)
            for d in face.darts:
                self.where[d] = face.darts[0]
        self.fkeys = list(self.flen)
        self.starts = [star[0] for star in ribbon_map._stars]
        self.vert = [self.starts[v] for v in ribbon_map._vertex_of]

    def _link(self, a: int, b: int) -> None:
        """Make dart b follow dart a in their star."""
        self.sigma[a] = b
        self.inv[b] = a

    def _place(self, d: int, before: int) -> None:
        self._link(self.inv[before], d)
        self._link(d, before)

    def _swap(self, d: int) -> None:
        """Exchange the successors of d and d-bar: join or cut their stars."""
        after_d, after_dbar = self.sigma[d], self.sigma[d + 1]
        self._link(d, after_dbar)
        self._link(d + 1, after_d)

    def _cycle(self, d: int, flip: int = 0) -> list:
        """The star (flip 0) or the face (flip 1) of dart d, read from d."""
        sigma, out, x = self.sigma, [d], self.sigma[d ^ flip]
        for _ in range(len(sigma)):
            if x == d:
                return out
            out.append(x)
            x = sigma[x ^ flip]
        raise InternalInvariantViolation(f"walk from dart {d} does not close")

    def edge(self, label: str) -> int:
        k = self.edge_ids.get(label, -1)
        if k < 0 or self.dead[2 * k]:
            raise UnknownLabelError(f"unknown edge label {label!r}")
        return k

    def first_edge(self, part: list) -> Optional[int]:
        """The first edge with its darts on two faces (where) or stars (vert)."""
        return next((e for e in self.order if part[2 * e] != part[2 * e + 1]), None)

    def _remove(self, k: int, what: str) -> None:
        """Splice edge k out of its stars and number the edges left by first
        appearance over the old stars, as a rebuild would: in vertex order,
        each read from its start or the first surviving dart after it.  Each
        new star must close, and together they must cover the live darts."""
        sigma, vert = self.sigma, self.vert
        for d in (2 * k, 2 * k + 1):
            self._link(self.inv[d], sigma[d])
            self.dead[d] = 1
        seen = bytearray(self.dead)
        rank = [-1] * len(self.labels)
        order, stars = [], []
        for s in self.starts:
            if s >> 1 == k:
                s = sigma[s] if sigma[s] >> 1 != k else sigma[sigma[s]]
                if s >> 1 == k:
                    continue  # the star held edge k alone
            if seen[s]:
                raise InternalInvariantViolation(f"{what} joined two stars")
            low = first = len(sigma)
            x = s
            while not seen[x]:
                seen[x] = 1
                vert[x] = s
                r = rank[x >> 1]
                if r < 0:
                    r = rank[x >> 1] = 2 * len(order)
                    order.append(x >> 1)
                if r + (x & 1) < low:
                    low, first = r + (x & 1), x
                x = sigma[x]
            if x != s:
                raise InternalInvariantViolation(f"{what} broke a star")
            stars.append((low, first))
        if 0 in seen:
            raise InternalInvariantViolation(f"{what} cut a star")
        stars.sort()
        self.order = order
        self.starts = [x for _, x in stars]

    def delete(self, k: int) -> None:
        """Remove edge k, whose sides lie on faces A != B; the merged face
        is walked and must hold |A| + |B| - 2 darts."""
        d, label = 2 * k, self.labels[k]
        a, b = self.where[d], self.where[d + 1]
        if a == b:
            raise PreconditionError(
                f"edge {label!r} has both sides on one face; deleting it "
                "would not merge faces")
        start = next((x for x in (self.sigma[d + 1], self.sigma[d])
                      if x >> 1 != k), None)
        self._remove(k, f"deleting {label!r}")
        merged = [] if start is None else self._cycle(start, 1)
        if len(merged) != self.flen[a] + self.flen[b] - 2:
            raise InternalInvariantViolation(f"deleting {label!r} merged no faces")
        for x in merged:
            self.where[x] = a
        self.flen[a] = len(merged)
        del self.flen[b]
        self.fkeys.remove(b)

    def contract(self, k: int) -> None:
        """Contract the non-loop edge k: the head's star, read from just
        after d-bar, takes the place of d in the tail's star.  Each face must
        only skip d and d-bar, from the dart p before them to q after them."""
        d, label = 2 * k, self.labels[k]
        sigma, vert = self.sigma, self.vert
        if vert[d] == vert[d + 1]:
            raise LoopNotContractibleError(f"edge {label!r} is a loop")
        ends = [(self.inv[x] ^ 1, sigma[x ^ 1]) for x in (d, d + 1)]
        skips = [(p, q if q >> 1 != k else sigma[q ^ 1])
                 for p, q in ends if p >> 1 != k]
        self.starts.remove(next(s for s in self.starts if vert[s] == vert[d + 1]))
        self._swap(d)
        self._remove(k, f"contracting {label!r}")
        if any(sigma[p ^ 1] != q for p, q in skips):
            raise InternalInvariantViolation(f"contracting {label!r} changed a face")
        self.flen[self.where[d]] -= 1
        self.flen[self.where[d + 1]] -= 1

    def _grow(self, label: str, where: tuple, vert: tuple) -> int:
        """Append an edge, its darts fixed by sigma until placed; returns 2m."""
        new = len(self.sigma)
        self.edge_ids[label] = len(self.labels)
        self.labels.append(label)
        self.order.append(new >> 1)
        self.sigma += (new, new + 1)
        self.inv += (new, new + 1)
        self.dead += b"\0\0"
        self.where += where
        self.vert += vert
        return new

    def insert(self, label: str, f: int, corner_a: int, corner_b: int) -> None:
        """Split face number f by a chord whose darts enter the stars just
        before the darts at corner_a and corner_b.  The new faces must be
        the two arcs of the old face, each closed by one side of the chord."""
        if not 0 <= f < len(self.fkeys):
            raise PreconditionError(f"face {f} out of range")
        if label in self.edge_ids:
            raise PreconditionError(f"label {label!r} already in use")
        key = self.fkeys[f]
        face = self._cycle(key, 1) if self.order else []
        _check_label(label)
        i, j = (corner_a % len(face), corner_b % len(face)) if face else (0, 0)
        if face:
            new = self._grow(label, (key, key),
                             (self.vert[face[i]], self.vert[face[j]]))
            self._place(new, face[i])
            self._place(new + 1, face[j])
        else:  # the edgeless sphere: one loop at its vertex
            new = self._grow(label, (0, 0), (0, 0))
            self.starts = [new]
            self._swap(new)
        one, two = self._cycle(new, 1), self._cycle(new + 1, 1)
        if (one[1:] != (face[j:i] if j < i else face[j:] + face[:i])
                or two[1:] != (face[i:j] if i <= j else face[i:] + face[:j])):
            raise InternalInvariantViolation(f"inserting {label!r} split no face")
        kept, cut = (one, two) if key in one else (two, one)
        other = min(cut)
        for x in cut:
            self.where[x] = other
        self.flen[key], self.flen[other] = len(kept), len(cut)
        insort(self.fkeys, other)

    def split(self, label: str, v: int, cut_a: int, cut_b: int) -> None:
        """Cut star number v before positions cut_a and cut_b (cut_a == cut_b
        carries off a bare end) into two stars joined by a new edge, each in
        its cyclic order.  The new stars are walked, and so are the faces
        through the cut corners, which must gain the new darts and no more."""
        if not 0 <= v < max(1, len(self.starts)):
            raise PreconditionError(f"vertex {v} out of range")
        if label in self.edge_ids:
            raise PreconditionError(f"label {label!r} already in use")
        star = self._cycle(self.starts[v]) if self.order else []
        if not star:
            raise PreconditionError("cannot split an isolated vertex")
        i, j = cut_a % len(star), cut_b % len(star)
        arc_a = star[i:j] if i <= j else star[i:] + star[:j]
        arc_b = star[j:] + star[:i] if j >= i else star[j:i]
        _check_label(label)
        new = self._grow(label, (self.where[star[j]], self.where[star[i]]),
                         (star[0], star[0]))
        self._place(new + 1, star[i])
        self._place(new, star[j])
        self._swap(new)
        if self._cycle(new)[1:] != arc_a or self._cycle(new + 1)[1:] != arc_b:
            raise InternalInvariantViolation(f"splitting off {label!r} cut no star")
        for x in (new, new + 1):
            self.flen[self.where[x]] += 1
        if any(len(self._cycle(x, 1)) != self.flen[self.where[x]]
               for x in (new, new + 1)):
            raise InternalInvariantViolation(f"splitting off {label!r} changed a face")
        row = arc_b + [new + 1] if star[0] in arc_a else arc_a + [new]
        for x in row:
            self.vert[x] = row[-1]
        insort(self.starts, min(row))

    def freeze(self) -> RibbonMap:
        """The map, edges numbered in edge order, through _from_dart_rows."""
        rank = {e: 2 * i for i, e in enumerate(self.order)}
        rows = [[rank[x >> 1] + (x & 1) for x in self._cycle(s)] for s in self.starts]
        return _from_dart_rows([self.labels[e] for e in self.order], rows or [[]])


def _map_moves(ribbon_map: RibbonMap, moves) -> RibbonMap:
    """Make recorded DeleteEdge and ContractEdge moves on one working form,
    frozen once at the end."""
    form = _Form(ribbon_map)
    for move in moves:
        k = form.edge(move.label)
        form.delete(k) if isinstance(move, DeleteEdge) else form.contract(k)
    return form.freeze()


def delete_edge(ribbon_map: RibbonMap, label: str) -> RibbonMap:
    """Remove one edge whose sides lie on distinct faces, merging them; chi
    and connectedness are kept."""
    return _map_moves(ribbon_map, [DeleteEdge(label)])


def delete_face_merging_edge(ribbon_map: RibbonMap):
    """Delete the smallest-dart edge whose sides lie on distinct faces.

    Returns (new map, deleted label), or None when every edge has both
    sides on one face -- in particular whenever F = 1.
    """
    form = _Form(ribbon_map)
    if (k := form.first_edge(form.where)) is None:
        return None
    form.delete(k)
    return form.freeze(), form.labels[k]


def contract_edge(ribbon_map: RibbonMap, label: str) -> RibbonMap:
    """Contract a non-loop edge, merging its endpoints.

    In the rotation at the tail, the edge's dart is replaced by the star of
    the head read cyclically from just after the opposite dart; V drops by
    one and F is untouched.
    """
    return _map_moves(ribbon_map, [ContractEdge(label)])


def reduce_to_one_vertex_one_face(ribbon_map: RibbonMap):
    """Delete face-merging edges until one face remains, then contract
    non-loop edges until one vertex remains.  Returns (map, MoveTrace).
    The chain runs on one working form, frozen and traced once at the end."""
    form = _Form(ribbon_map)
    moves = []
    while (k := form.first_edge(form.where)) is not None:
        moves.append(DeleteEdge(form.labels[k]))
        form.delete(k)
    if form.order and len(form.fkeys) != 1:
        raise InternalInvariantViolation(
            "several faces left but no edge separates two of them")
    while len(form.starts) > 1:
        k = form.first_edge(form.vert)
        if k is None:
            raise InternalInvariantViolation(
                "several vertices left but every edge is a loop")
        moves.append(ContractEdge(form.labels[k]))
        form.contract(k)
    reduced = form.freeze()
    if reduced.num_vertices != 1 or len(trace_faces(reduced)) != 1:
        raise InternalInvariantViolation("reduction left more than one vertex or face")
    return reduced, MoveTrace(tuple(moves))


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


def _corner_classes(letters: Sequence) -> list:
    """The corner classes of the polygon glued from ``letters``: the orbits
    of i -> partner(i) + 1 over positions, each read from its smallest
    position.  The same pass checks that every label appears once per sign,
    raising MalformedWordError as PolygonWord does."""
    n = len(letters)
    succ, first = [-1] * n, {}
    for i, ref in enumerate(letters):
        j = first.setdefault(ref.label, i)
        if j != i:
            if succ[j] >= 0 or letters[j].sign == ref.sign:
                break  # a third occurrence, or a second with the same sign
            succ[i], succ[j] = j + 1, (i + 1) % n
    if -1 in succ:
        PolygonWord(letters)  # raises, naming the first bad label
    return _orbits(succ)[0]


def word_to_map(word) -> RibbonMap:
    """Rebuild the quotient map of a polygon word.

    Positions of the word are the darts, the face successor is the cyclic
    shift, and the rotation is recovered as sigma = phi o iota.  The result
    always has exactly one face, namely the word itself; its vertex count is
    the number of corner classes of the glued polygon.
    """
    if not isinstance(word, PolygonWord):
        word = PolygonWord(word)
    labels = list(dict.fromkeys(ref.label for ref in word.letters))
    for label in labels:
        _check_label(label)
    index = {label: k for k, label in enumerate(labels)}
    darts = [2 * index[ref.label] + (0 if ref.sign > 0 else 1) for ref in word.letters]
    return _from_dart_rows(labels, [[darts[i] for i in orbit]
                                    for orbit in _corner_classes(word.letters)])


# -- word-level moves ------------------------------------------------------


def _cyclic_slice(letters: list, i: int, j: int) -> list:
    if i == j:
        raise PreconditionError("empty or full cut arc")
    if i < j:
        return letters[i:j]
    return letters[i:] + letters[:j]


def _inverse_pair(letters: list, label: Optional[str] = None) -> Optional[int]:
    """Start of the first cyclically adjacent pair x x' (of ``label``, if
    given), or None."""
    n = len(letters)
    for i, a in enumerate(letters):
        b = letters[(i + 1) % n]
        if a.label == b.label and a.sign == -b.sign and label in (None, a.label):
            return i
    return None


def apply_cancel(letters: list, move: Cancel) -> list:
    """Remove the (cyclically) adjacent inverse pair of ``move.label``."""
    i = _inverse_pair(letters, move.label)
    if i is None:
        raise PreconditionError(f"label {move.label!r} has no adjacent inverse pair")
    if i + 1 < len(letters):
        return letters[:i] + letters[i + 2:]
    return letters[1:i]  # pair wraps around the end


def apply_cut_glue(letters: list, move: CutGlue) -> list:
    """Cut the cyclic word at ``move.cut`` and reglue along the old edge."""
    i, j = move.cut
    if not (0 <= i < len(letters) and 0 <= j < len(letters)):
        raise PreconditionError(f"cut corners {move.cut!r} out of range")
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


def _aligned_rotations(letters: list) -> list:
    """Positions p from which the word reads x1 y1 x1' y1' ...: every
    (p + 4i) mod n is a block start.  That set is the residue class of p
    mod 4, so each of the four classes is checked once."""
    n = len(letters)
    if n % 4:
        return []
    starts = _strict_blocks(letters)
    is_start = set(starts)
    full = [all(p in is_start for p in range(r, n, 4)) for r in range(4)]
    return [p for p in starts if full[p % 4]]


def is_canonical_word(word) -> bool:
    """True when the word is exactly x1 y1 x1' y1' ... read from position 0."""
    letters = list(word)
    return not letters or 0 in _aligned_rotations(letters)


def canonical_rotation(letters: list) -> list:
    """Rotate a fully gathered word to its least block-aligned rotation.
    A polygon word's tokens are distinct, so its first token decides."""
    if not letters:
        return []
    aligned = _aligned_rotations(letters)
    if not aligned:
        raise InternalInvariantViolation("word is not fully gathered")
    p = min(aligned, key=lambda p: letters[p].token())
    return letters[p:] + letters[:p]


def _oracle_genus(letters: list) -> int:
    """The genus (n/2 - V + 1) / 2 of the one-face surface glued from the
    word, V its corner classes."""
    if not letters:
        return 0
    return _genus_of_chi(len(_corner_classes(letters)) - len(letters) // 2 + 1)


def _word_step(letters: list, move, genus: int) -> list:
    """Apply one word move; the glued surface must keep its genus."""
    letters = apply_word_move(letters, move)
    if _oracle_genus(letters) != genus:
        raise InternalInvariantViolation(f"move {move!r} changed the surface")
    return letters


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
                fresh) -> CutGlue:
    """Cut just around the two occurrences of ``around`` with the next label
    from ``fresh`` and reglue along ``old_label``."""
    p1, p2 = [p for p, ref in enumerate(letters) if ref.label == around]
    return CutGlue(new_label=next(fresh), old_label=old_label,
                   cut=(p1, (p2 + 1) % len(letters)), chord_sign=chord_sign)


def normalize(word):
    """Rewrite a one-vertex polygon word into canonical form.

    Returns (canonical PolygonWord, MoveTrace).  Adjacent inverse pairs are
    cancelled, then linked pairs are gathered into blocks x y x' y' until the
    word is a concatenation of such blocks; the genus can then be read off as
    length/4.  After every move the genus is recounted from the corner
    classes of the glued polygon and must not change.
    """
    letters = list(PolygonWord(word).letters)
    for ref in letters:
        _check_label(ref.label)
    target = _oracle_genus(letters)
    used = {ref.label for ref in letters}
    fresh = (name for name in map("z{}".format, count(1)) if name not in used)
    moves = []
    while letters:
        i = _inverse_pair(letters)
        if i is not None:
            moves.append(Cancel(letters[i].label))
            letters = _word_step(letters, moves[-1], target)
            continue
        n = len(letters)
        gathered = {letters[(p + k) % n].label
                    for p in _strict_blocks(letters) for k in (0, 1)}
        if 2 * len(gathered) == n:  # the oracle keeps each label twice
            break
        try:
            a, b = next(_linked_pairs(letters, gathered))
        except StopIteration:
            raise PreconditionError(
                "no linked pair among ungathered edges; the word does not "
                "come from a one-vertex map") from None
        # Two cuts fuse the linked pair into a fresh gathered block, leaving
        # every other arc of the word intact.
        moves.append(_cut_around(letters, a, b, -1, fresh))
        letters = _word_step(letters, moves[-1], target)
        moves.append(_cut_around(letters, moves[-1].new_label, a, 1, fresh))
        letters = _word_step(letters, moves[-1], target)
    return PolygonWord(canonical_rotation(letters)), MoveTrace(tuple(moves))


# -- full pipeline ---------------------------------------------------------


def classify(ribbon_map: RibbonMap) -> ClassificationResult:
    """Genus, canonical polygon word (None for the sphere) and move trace."""
    reduced, map_trace = reduce_to_one_vertex_one_face(ribbon_map)
    if reduced.num_edges == 0:
        return ClassificationResult(0, None, map_trace)
    word = polygon_word(reduced)
    canonical, word_trace = normalize(word)
    trace = map_trace.extend(word_trace.moves)
    g = len(canonical) // 4
    if g != genus(ribbon_map):
        raise InternalInvariantViolation(
            f"canonical word says genus {g}, chi says {genus(ribbon_map)}")
    return ClassificationResult(g, canonical, trace)


def replay(ribbon_map: RibbonMap, trace: MoveTrace) -> Optional[PolygonWord]:
    """Re-run a recorded trace from scratch; None means the sphere.  The map
    moves run as in the reduction and the word moves as in normalize."""
    moves = list(trace)
    at = next((i for i, move in enumerate(moves)
               if not isinstance(move, (DeleteEdge, ContractEdge))), len(moves))
    reduced = _map_moves(ribbon_map, moves[:at])
    if reduced.num_edges == 0:
        if at != len(moves):
            raise PreconditionError("word moves recorded for an edgeless map")
        return None
    letters = list(polygon_word(reduced).letters)
    target = _oracle_genus(letters)
    for move in moves[at:]:
        letters = _word_step(letters, move, target)
    if letters and not _aligned_rotations(letters):
        raise PreconditionError("word moves stop before the word is gathered")
    return PolygonWord(canonical_rotation(letters)) if letters else None


# -- randomized instance generator ------------------------------------------


def insert_edge(ribbon_map: RibbonMap, label: str, face_index: int,
                corner_a: int, corner_b: int) -> RibbonMap:
    """Split one face with a fresh chord between two of its corners.

    Corners are face positions; the chord's forward dart enters the rotation
    just before the dart at ``corner_a`` (V stays, m and F grow by one).
    The edgeless sphere admits one insertion: the single loop.
    """
    form = _Form(ribbon_map)
    form.insert(label, face_index, corner_a, corner_b)
    return form.freeze()


def split_vertex(ribbon_map: RibbonMap, label: str, vertex: int,
                 cut_a: int, cut_b: int) -> RibbonMap:
    """Pull a vertex apart into two joined by a fresh edge.

    The star is cut at positions ``cut_a``/``cut_b``; each side keeps its
    cyclic order and gains one side of the new edge.  Inverse to contracting
    that edge (V and m grow by one, F stays).
    """
    form = _Form(ribbon_map)
    form.split(label, vertex, cut_a, cut_b)
    return form.freeze()


def random_filling_map(g: int, moves: int, seed: int) -> RibbonMap:
    """A pseudorandom genus-g map: petal(g) blown up by ``moves`` inverse
    reduction moves (chord insertions and vertex splits).  Deterministic in
    ``seed``; the genus never changes.  The moves run on one working form,
    frozen and traced once at the end."""
    rng = random.Random(seed)
    start = petal(g)
    form = _Form(start)
    for i in range(1, moves + 1):
        label = f"e{i}"
        if not form.order or rng.random() < 0.5:
            f = rng.randrange(len(form.fkeys))
            size = max(1, form.flen[form.fkeys[f]])
            form.insert(label, f, rng.randrange(size), rng.randrange(size))
        else:
            v = rng.randrange(len(form.starts))
            deg = len(form._cycle(form.starts[v]))
            form.split(label, v, rng.randrange(deg), rng.randrange(deg))
    result = form.freeze()
    faces = trace_faces(result)
    if (len(faces) != len(form.fkeys) or
            result.num_vertices - result.num_edges + len(faces) != 2 - 2 * g):
        raise InternalInvariantViolation("random moves changed the genus")
    return result
