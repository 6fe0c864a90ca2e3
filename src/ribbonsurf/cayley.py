"""Bounded pieces of Cayley graphs and their relator cells.

Vertices are group elements, one directed edge u --a--> u*a per generator a
(the reverse arc along a' is implied, not stored), and one disc per (base
vertex, relator) pair whose full boundary loop stays inside the ball.  The
ball of radius r around the identity is grown breadth first; an element's
representative is the first word that reaches it in shortlex order, hence a
geodesic.  Elements are filed by the presentation's solver key: the
reduced word in a free group, else the exponent-sum vector.  Words with
different keys are different elements, because every supported relator
has zero exponent sum in each generator.  The key is exact for free groups
and Z x Z; for genus >= 2 words sharing a key are compared by Dehn's
algorithm (u = v iff u v' is trivial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalInvariantViolation, PreconditionError
from .groups import Presentation, Solver, free_reduce, invert_word


@dataclass(frozen=True)
class CayleyBall:
    """All elements within ``radius`` of the identity, identity first."""

    presentation: Presentation
    radius: int
    vertices: tuple  # representative words, shortlex-first-discovered
    edges: tuple     # (source index, generator label, target index)
    cells: tuple     # (base vertex index, relator index, boundary vertex cycle)

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
    solver = Solver(pres)
    words = [()]
    by_key = {solver.key(()): [0]}

    def find(word: tuple) -> Optional[int]:
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
                if find(free_reduce(word + relator[-1:])) != base_index:
                    raise InternalInvariantViolation(  # pragma: no cover
                        "relator loop did not close")
                cells.append((base_index, rj, tuple(cycle)))

    return CayleyBall(presentation=pres, radius=radius,
                      vertices=tuple(words), edges=tuple(edges),
                      cells=tuple(cells))
