"""Fundamental groups read off a filling map.

Collapsing a spanning tree leaves one generator per remaining edge and one
relator per face (the face word with tree letters erased), a presentation of
the fundamental group of the filled surface.  For the one-vertex petal maps
this is literally the genus-g surface presentation
<a1, b1, ..., ag, bg | a1 b1 a1' b1' ... ag bg ag' bg'>.

The word problem is decided on letter codes (generator i is 2i, its inverse
2i + 1, so c ^ 1 inverts a letter), by presentation shape, chosen once by a
Solver: free presentations by free reduction, genus 1 (the abelian a b a' b'
relator) by counting codes, genus >= 2 by Dehn's algorithm in one pass over a
sentinel-padded stack that also cancels free pairs: at most (1 + R/4) * n
lookups for n letters and a relator of length R, in an O(R) table of 2R
shifts.  It is complete by Greendlinger's lemma: the surface relator's pieces
have one letter, so it satisfies C'(1/7), and a nonempty freely reduced
trivial word contains more than half of a relator shift.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import (
    EndpointMismatchError,
    InternalInvariantViolation,
    PreconditionError,
    UnknownLabelError,
    UnsupportedPresentationError,
)
from .maps import RibbonMap
from .surfaces import genus, standard_pair_labels, trace_faces

Letter = Tuple[str, int]


# -- free group words --------------------------------------------------------


def invert_word(word: Sequence[Letter]) -> tuple:
    return tuple((lab, -sign) for lab, sign in reversed(tuple(word)))


def free_reduce(word: Sequence[Letter]) -> tuple:
    """Cancel adjacent inverse pairs until none remain."""
    stack = []
    for lab, sign in word:
        if stack and stack[-1][0] == lab and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((lab, sign))
    return tuple(stack)


def cyclic_reduce(word: Sequence[Letter]) -> tuple:
    """Freely reduce, then strip inverse first/last pairs."""
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i][0] == w[j][0] and w[i][1] == -w[j][1]:
        i, j = i + 1, j - 1
    return w[i:j + 1]


def exponent_sums(word: Sequence[Letter], generators: Sequence[str]) -> tuple:
    sums = dict.fromkeys(generators, 0)
    for lab, sign in word:
        sums[lab] += sign
    return tuple(sums[g] for g in generators)


# -- presentations -----------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Generators with formal inverses, and one relator word per defining
    relation."""

    generators: tuple
    relators: tuple

    def __post_init__(self):
        gens = set(self.generators)
        if len(gens) != len(self.generators):
            raise PreconditionError("duplicate generator names")
        for rel in self.relators:
            for lab, sign in rel:
                if lab not in gens:
                    raise UnknownLabelError(
                        f"relator uses unknown generator {lab!r}")

    @property
    def deficiency(self) -> int:
        return len(self.generators) - len(self.relators)

    @property
    def genus_hint(self) -> Optional[int]:
        """g when the presentation is exactly the standard genus-g surface
        shape (no generators and no relators for g = 0), else None."""
        return _surface_shape_genus(self)


def _letter_names(k: int) -> list:
    if k <= 26:
        return [chr(ord("a") + i) for i in range(k)]
    return [f"x{i}" for i in range(1, k + 1)]


def free_presentation(rank: int) -> Presentation:
    if rank < 0:
        raise PreconditionError("rank must be >= 0")
    return Presentation(tuple(_letter_names(rank)), ())


def _commutator_product(generators: Sequence[str]) -> tuple:
    word = []
    for i in range(0, len(generators), 2):
        a, b = generators[i], generators[i + 1]
        word.extend(((a, 1), (b, 1), (a, -1), (b, -1)))
    return tuple(word)


def surface_group(g: int) -> Presentation:
    """The genus-g surface group; g = 0 is the empty presentation."""
    if g < 0:
        raise PreconditionError("genus must be >= 0")
    gens = tuple(standard_pair_labels(g))
    return Presentation(gens, (_commutator_product(gens),) if g else ())


def zxz_presentation() -> Presentation:
    """<a, b | a b a' b'>, the free abelian plane group Z x Z."""
    return surface_group(1)


def _surface_shape_genus(pres: Presentation) -> Optional[int]:
    """Genus g when the presentation is exactly the standard A_g shape."""
    n = len(pres.generators)
    if n % 2:
        return None
    if n == 0:
        return 0 if not pres.relators else None
    if len(pres.relators) != 1:
        return None
    if pres.relators[0] != _commutator_product(pres.generators):
        return None
    return n // 2


# -- the word problem --------------------------------------------------------


def solver_kind(pres: Presentation) -> str:
    """Which decision procedure fits: 'free', 'abelian', or 'dehn'.

    Raises UnsupportedPresentationError for any other shape.
    """
    if not pres.relators:
        return "free"
    g = pres.genus_hint
    if g == 1:
        return "abelian"
    if g is not None and g >= 2:
        return "dehn"
    raise UnsupportedPresentationError(
        "solver handles free and standard surface presentations only")


def _dehn_trivial(codes: list, pieces: dict, need: int, width: int) -> bool:
    """Dehn's algorithm in one pass over a stack of letter codes, padded
    with ``need`` sentinels -2 (no code, inverse or key) so its top
    ``need`` entries exist.  ``pieces`` maps prev * width + c, the codes
    ending the first ``need`` letters of a relator shift (over half of it),
    to that shift (see Solver).  Pushes cancel free pairs.  The stack never
    holds a shift's first ``need`` letters, and every longer relator
    subword ends in them, so one lookup per push finds every rewrite: the
    shift named by the top two codes is compared with the top ``need`` (its
    first code alone first).  A hit is popped and the inverse of the
    shift's rest pushed back.  A rewrite shortens stack plus pending
    letters by 2 * need - R >= 1, so n letters take at most (1 + R/4) * n
    lookups.  By Greendlinger's lemma the word is trivial iff no letter is
    left.  With no pieces and ``need`` 1 it is free reduction."""
    stack = [-2] * need
    pending = codes[::-1]
    get = pieces.get
    while pending:
        c = pending.pop()
        top = stack[-1]
        if top == c ^ 1:
            stack.pop()
            continue
        stack.append(c)
        shift = get(top * width + c)
        if shift is not None:
            cycle, flipped, start, cut, stop = shift
            if stack[-need] == cycle[start] and stack[-need:] == cycle[start:cut]:
                del stack[-need:]
                pending.extend(flipped[cut:stop])
    return len(stack) == need


class Solver:
    """The word-problem procedure of one presentation, resolved once by
    solver_kind (which raises for unsupported shapes).  The methods take
    words over the generators, ``key`` and ``step`` freely reduced ones."""

    def __init__(self, pres: Presentation):
        self.kind = solver_kind(pres)
        self.generators = pres.generators
        self._index = {g: i for i, g in enumerate(pres.generators)}
        self._code = {(g, s): 2 * i + (s < 0)
                      for i, g in enumerate(pres.generators) for s in (1, -1)}
        self.identity_key = () if self.kind == "free" else (0,) * len(pres.generators)
        self._pieces, self._need, self._width = {}, 1, len(self._code)
        if self.kind == "dehn":
            relator = [self._code[letter] for letter in pres.relators[0]]
            size = len(relator)
            self._need = need = size // 2 + 1
            # Shift s of a base word is cycle[s:s + size]; a hit pushes the
            # codes of flipped[s + need:s + size], which popped in turn
            # spell the inverse of the shift's rest.  Every entry shares its
            # base's two lists, so the table holds O(size) codes.
            for base in (relator, [c ^ 1 for c in reversed(relator)]):
                cycle = base + base
                flipped = [c ^ 1 for c in cycle]
                for s in range(size):
                    ends = cycle[s + need - 2] * self._width + cycle[s + need - 1]
                    if ends in self._pieces:
                        raise InternalInvariantViolation(
                            f"relator has a piece of two letters at shift {s}")
                    self._pieces[ends] = (cycle, flipped, s, s + need, s + size)

    def key(self, word: tuple):
        """Words with different keys are different elements.  The word itself
        for free groups, else the exponent-sum vector: exact for Z x Z, for
        genus >= 2 a bucket (the relator sums to zero in each generator)."""
        if self.kind == "free":
            return word
        return exponent_sums(word, self.generators)

    def step(self, word: tuple, key, letter: Letter) -> tuple:
        """(word * letter freely reduced, its key), given the key of the
        freely reduced ``word``: O(1) beyond copying the word, and O(rank)
        for the key."""
        lab, sign = letter
        if word and word[-1] == (lab, -sign):
            word = word[:-1]
        else:
            word = word + (letter,)
        if self.kind == "free":
            return word, word
        i = self._index[lab]
        return word, key[:i] + (key[i] + sign,) + key[i + 1:]

    def same(self, u: tuple, v: tuple) -> bool:
        """Do two words with the same key name the same element?  Always
        when the key is exact, else by Dehn's algorithm on u v'."""
        return self.kind != "dehn" or _dehn_trivial(
            [*map(self._code.get, u)] + [self._code[x] ^ 1 for x in reversed(v)],
            self._pieces, self._need, self._width)

    def is_trivial(self, word: Sequence[Letter]) -> bool:
        word = tuple(word)  # the checks below may read it a second time
        try:
            codes = list(map(self._code.get, word))
        except TypeError:  # an unhashable letter, such as a list
            codes = [None]
        if None in codes:
            for lab, sign in word:
                if (lab, 1) not in self._code:
                    raise UnknownLabelError(f"word uses unknown generator {lab!r}")
                if sign not in (1, -1):
                    raise PreconditionError(f"bad sign {sign!r} in word")
            codes = [self._code[lab, sign] for lab, sign in word]
        if self.kind == "abelian":
            return all(codes.count(c) == codes.count(c + 1) for c in (0, 2))
        return _dehn_trivial(codes, self._pieces, self._need, self._width)


def is_trivial_word(word: Sequence[Letter], pres: Presentation) -> bool:
    """Does the word represent the identity?

    Supported shapes: free presentations, and the standard genus-g surface
    presentations (genus 1 is Z x Z).  Anything else raises
    UnsupportedPresentationError rather than guessing.
    """
    try:
        return Solver(pres).is_trivial(word)
    except UnsupportedPresentationError:
        if Solver(Presentation(pres.generators, ())).is_trivial(word):
            return True
        raise


def homotopic_words(u: Sequence[Letter], v: Sequence[Letter],
                    pres: Presentation) -> bool:
    """Do two words represent the same group element?"""
    return is_trivial_word(tuple(u) + invert_word(v), pres)


# -- presentations from maps --------------------------------------------------


def spanning_tree(ribbon_map: RibbonMap, base: int = 0) -> set:
    """Edge labels of the breadth-first spanning tree rooted at ``base``.

    Vertices leave the queue in discovery order and stars are scanned from
    their smallest dart, so the tree is deterministic.
    """
    if not 0 <= base < ribbon_map.num_vertices:
        raise PreconditionError(f"vertex {base} out of range")
    seen = {base}
    tree = set()
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for d in ribbon_map.star(u):
            head = ribbon_map.vertex_of(d ^ 1)
            if head not in seen:
                seen.add(head)
                tree.add(ribbon_map.edge_of(d))
                queue.append(head)
    if len(seen) != ribbon_map.num_vertices:
        raise PreconditionError("map is not connected")  # pragma: no cover
    return tree


def pi1_presentation(ribbon_map: RibbonMap, base: int = 0) -> Presentation:
    """Presentation of the fundamental group of the filled surface.

    Generators are the non-tree edges; each face contributes its boundary
    word with tree letters erased, freely and cyclically reduced.  Faces map
    to relators one for one (duplicates and empties are kept).
    """
    if ribbon_map.num_edges == 0:
        if base != 0:
            raise PreconditionError(f"vertex {base} out of range")
        return Presentation((), ())
    tree = spanning_tree(ribbon_map, base)
    gens = tuple(lab for lab in ribbon_map.edge_labels if lab not in tree)
    relators = []
    for face in trace_faces(ribbon_map):
        word = [(ribbon_map.edge_of(d), -1 if d & 1 else 1)
                for d in face.darts if ribbon_map.edge_of(d) not in tree]
        relators.append(cyclic_reduce(word))
    return Presentation(gens, tuple(relators))


# -- discrete paths -----------------------------------------------------------


@dataclass(frozen=True)
class DiscretePath:
    """A walk given by darts, each ending where the next begins.  The empty
    (constant) path cannot infer a location, so it takes ``start``."""

    darts: tuple = ()
    start: Optional[int] = None

    def __len__(self):
        return len(self.darts)


def path_endpoints(ribbon_map: RibbonMap, path: DiscretePath) -> tuple:
    """(tail, head) of the walk; validates the chain."""
    if not path.darts:
        if path.start is None:
            raise PreconditionError("constant path needs an explicit start")
        if not 0 <= path.start < ribbon_map.num_vertices:
            raise PreconditionError(f"vertex {path.start} out of range")
        return path.start, path.start
    for d in path.darts:
        if not 0 <= d < ribbon_map.num_darts:
            raise PreconditionError(
                f"dart {d} out of range for {ribbon_map.num_edges} edges")
    tail = ribbon_map.vertex_of(path.darts[0])
    if path.start is not None and path.start != tail:
        raise PreconditionError("start does not match the first dart")
    at = tail
    for d in path.darts:
        if ribbon_map.vertex_of(d) != at:
            raise PreconditionError("darts do not chain tail to head")
        at = ribbon_map.vertex_of(d ^ 1)
    return tail, at


def path_word(ribbon_map: RibbonMap, path: DiscretePath,
              drop: set = frozenset()) -> tuple:
    return tuple((ribbon_map.edge_of(d), -1 if d & 1 else 1)
                 for d in path.darts if ribbon_map.edge_of(d) not in drop)


def homotopic(ribbon_map: RibbonMap, p1: DiscretePath, p2: DiscretePath,
              base: int = 0) -> bool:
    """Are two walks with the same endpoints homotopic on the surface?

    On the sphere every loop is trivial.  Otherwise the composite
    p1 . p2^-1 is a loop; it is projected through the spanning tree of
    ``base`` and decided in the resulting presentation.
    """
    ends1 = path_endpoints(ribbon_map, p1)
    ends2 = path_endpoints(ribbon_map, p2)
    if ends1 != ends2:
        raise EndpointMismatchError(
            f"paths run {ends1[0]}->{ends1[1]} and {ends2[0]}->{ends2[1]}")
    if not 0 <= base < ribbon_map.num_vertices:
        raise PreconditionError(f"vertex {base} out of range")
    if genus(ribbon_map) == 0:
        return True
    pres = pi1_presentation(ribbon_map, base)
    tree = set(ribbon_map.edge_labels) - set(pres.generators)
    word = (path_word(ribbon_map, p1, tree)
            + invert_word(path_word(ribbon_map, p2, tree)))
    return is_trivial_word(word, pres)
