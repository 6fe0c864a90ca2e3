"""Bounded pieces of Cayley graphs and their relator cells.

Vertices are group elements, one directed edge u --a--> u*a per generator a
(the reverse arc along a' is implied, not stored), and one disc per (base
vertex, relator) pair whose full boundary loop stays inside the ball.  The
ball of radius r around the identity is grown breadth first; an element's
representative is the first word that reaches it in shortlex order, hence a
geodesic.  Elements are filed by the presentation's solver key (each
presentation builds its solver once, on first use, and shares it with
is_trivial_word and homotopic): the reduced word in a free group, else the
exponent-sum vector.  Different keys are different elements, as every
supported relator has zero exponent sum in each generator.  The key is
exact for free groups and Z x Z; for genus >= 2 words sharing a key are
compared by Dehn's algorithm (u = v iff u v' is trivial).

Zero exponent sums make every relator even, so length parity is a
homomorphism and each edge joins two consecutive spheres.  The growth runs
radius rounds and fills one table, nbr[u][j] = u * alphabet[j]: a sphere
element makes one solver step (key carried from the parent's) per letter
whose entry is unknown, setting that entry and its inverse.  So each edge is
stepped once, from its inner end, and recorded then; cells read the table.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation, PreconditionError, _Value
from .groups import Presentation


class CayleyBall(_Value):
    """All elements within ``radius`` of the identity, identity first.

    ``vertices`` are the representative words, shortlex-first-discovered;
    ``edges`` are (source index, generator label, target index) and
    ``cells`` (base vertex index, relator index, boundary vertex cycle).
    """

    __slots__ = ("presentation", "radius", "vertices", "edges", "cells")

    def __init__(self, presentation: Presentation, radius: int,
                 vertices: tuple, edges: tuple, cells: tuple):
        set_field = object.__setattr__
        set_field(self, "presentation", presentation)
        set_field(self, "radius", radius)
        set_field(self, "vertices", vertices)
        set_field(self, "edges", edges)
        set_field(self, "cells", cells)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


def cayley_ball(pres: Presentation, radius: int) -> CayleyBall:
    """The radius-``radius`` ball of the Cayley complex.

    Works for any presentation the word-problem solver supports; raises
    UnsupportedPresentationError otherwise.
    """
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    solver = pres._solver
    words, keys, steps = [()], [solver.identity_key], []
    by_key = {keys[0]: [0]}
    k = len(pres.generators)
    alphabet = [(g, 1) for g in pres.generators] + [(g, -1) for g in pres.generators]
    nbr = [[None] * (2 * k)]
    sphere = range(1)
    for _ in range(radius):
        for ui in sphere:
            for j, letter in enumerate(alphabet):
                if nbr[ui][j] is not None:
                    continue
                word, key = solver.step(words[ui], keys[ui], letter)
                for vi in by_key.setdefault(key, []):
                    if solver.same(word, words[vi]):
                        break
                else:
                    vi = len(words)
                    by_key[key].append(vi)
                    words.append(word)
                    keys.append(key)
                    nbr.append([None] * (2 * k))
                nbr[ui][j] = vi
                nbr[vi][j - k] = ui  # index j - k is letter (j + k) % 2k
                steps.append((ui, j, vi) if j < k else (vi, j - k, ui))
        sphere = range(sphere.stop, len(words))

    edges = [(ui, pres.generators[j], vi) for ui, j, vi in sorted(steps)]
    code = {letter: j for j, letter in enumerate(alphabet)}
    relators = [[code[letter] for letter in relator] for relator in pres.relators]
    cells = []
    for base_index in range(len(words)):
        for rj, relator in enumerate(relators):
            cycle, vi = [base_index], base_index
            for j in relator[:-1]:
                vi = nbr[vi][j]
                if vi is None:
                    break
                cycle.append(vi)
            else:
                if nbr[vi][relator[-1]] != base_index:
                    raise InternalInvariantViolation(  # pragma: no cover
                        "relator loop did not close")
                cells.append((base_index, rj, tuple(cycle)))

    return CayleyBall(presentation=pres, radius=radius,
                      vertices=tuple(words), edges=tuple(edges),
                      cells=tuple(cells))
