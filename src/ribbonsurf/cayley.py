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

The growth loop runs radius + 1 rounds and records every forward step that
lands inside the ball as an edge; its last round adds no element and steps
forward letters only.  Every word the growth and cell loops look up is one
letter away from a freely reduced word whose key is known, so each is made
by one solver step: the letter cancels the last one or is appended, and the
key is carried from the parent's (the new word itself, or one exponent sum
moved by one).  Only the Dehn comparisons of genus >= 2 read whole words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalInvariantViolation, PreconditionError
from .groups import Presentation, Solver


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
    words, keys = [()], [solver.identity_key]
    by_key = {keys[0]: [0]}

    def find(word: tuple, key) -> Optional[int]:
        for vi in by_key.get(key, ()):
            if solver.same(word, words[vi]):
                return vi
        return None

    forward = [(g, 1) for g in pres.generators]
    alphabet = forward + [(g, -1) for g in pres.generators]
    edges, start = [], 0
    for depth in range(radius + 1):
        stop = len(words)
        grow = depth < radius
        for ui, base, base_key in zip(range(start, stop), words[start:], keys[start:]):
            for letter in alphabet if grow else forward:
                word, key = solver.step(base, base_key, letter)
                vi = find(word, key)
                if vi is None and grow:
                    vi = len(words)
                    by_key.setdefault(key, []).append(vi)
                    words.append(word)
                    keys.append(key)
                if vi is not None and letter[1] > 0:
                    edges.append((ui, letter[0], vi))
        start = stop

    cells = []
    for base_index, (base, base_key) in enumerate(zip(words, keys)):
        for rj, relator in enumerate(pres.relators):
            cycle, word, key = [base_index], base, base_key
            for letter in relator[:-1]:
                word, key = solver.step(word, key, letter)
                cycle.append(find(word, key))
                if cycle[-1] is None:
                    break
            else:
                if find(*solver.step(word, key, relator[-1])) != base_index:
                    raise InternalInvariantViolation(  # pragma: no cover
                        "relator loop did not close")
                cells.append((base_index, rj, tuple(cycle)))

    return CayleyBall(presentation=pres, radius=radius,
                      vertices=tuple(words), edges=tuple(edges),
                      cells=tuple(cells))
