"""Isomorphism of maps as labelled-dart structures.

Two maps are isomorphic when some dart bijection commutes with both the
rotation and the edge involution; edge labels carry no weight.  Orientation
is part of the structure: mirror images (rotations read against sigma) do
not count.  The canonical byte encoding is the least image of a BFS
relabelling over all roots; a root is dropped once its image exceeds the
best, which keeps the bytes and prunes most roots after a few darts.  Two
maps are isomorphic exactly when their encodings are equal byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import EmptyMapError, InternalInvariantViolation
from .maps import RibbonMap
from .surfaces import trace_faces


@dataclass(frozen=True)
class DartBijection:
    """dart d of the source map corresponds to dart ``mapping[d]``."""

    mapping: tuple

    def __call__(self, dart: int) -> int:
        return self.mapping[dart]

    def commutes(self, source: RibbonMap, target: RibbonMap) -> bool:
        n = source.num_darts
        if target.num_darts != n or sorted(self.mapping) != list(range(n)):
            return False
        return all(self.mapping[source.sigma[d]] == target.sigma[self.mapping[d]]
                   and self.mapping[d ^ 1] == self.mapping[d] ^ 1
                   for d in range(n))


def canonical_encoding(ribbon_map: RibbonMap) -> bytes:
    """The least BFS encoding over all roots; invariant under relabelling.

    BFS pops darts in discovery order, so entry k of the relabelled sigma is
    known when dart k is popped.  A root stops at the first entry above the
    best root's; only one whose sigma ties or wins builds its iota.  The bytes
    equal the unpruned minimum: sigma then iota, 4-byte big-endian entries.
    """
    if ribbon_map.num_edges == 0:
        raise EmptyMapError("the edgeless map has no darts to encode")
    sigma = ribbon_map.sigma
    order = [-1] * ribbon_map.num_darts
    best = None
    for root in range(ribbon_map.num_darts):
        order[root] = 0
        queue = [root]  # discovery order; iterating it pops the darts
        sigma_seq = []
        tied = best is not None
        for d in queue:
            for nxt in (sigma[d], d ^ 1):
                if order[nxt] < 0:
                    order[nxt] = len(queue)
                    queue.append(nxt)
            s = order[sigma[d]]
            if tied:
                if s > best[0][len(sigma_seq)]:
                    break
                tied = s == best[0][len(sigma_seq)]
            sigma_seq.append(s)
        else:
            candidate = (sigma_seq, [order[d ^ 1] for d in queue])
            best = candidate if best is None else min(best, candidate)
        for d in queue:
            order[d] = -1
    return b"".join(v.to_bytes(4, "big") for v in best[0] + best[1])


def _quick_mismatch(a: RibbonMap, b: RibbonMap) -> bool:
    if a.num_edges != b.num_edges or a.num_vertices != b.num_vertices:
        return True
    if sorted(len(a.star(v)) for v in range(a.num_vertices)) != \
       sorted(len(b.star(v)) for v in range(b.num_vertices)):
        return True
    return sorted(map(len, trace_faces(a))) != sorted(map(len, trace_faces(b)))


def _match_from(a: RibbonMap, b: RibbonMap, root: int) -> Optional[list]:
    """Propagate dart 0 -> root through sigma and iota; None on conflict."""
    n = a.num_darts
    fwd = [-1] * n
    back = [-1] * n
    fwd[0] = root
    back[root] = 0
    queue = deque([0])
    while queue:
        d = queue.popleft()
        e = fwd[d]
        for nd, ne in ((a.sigma[d], b.sigma[e]), (d ^ 1, e ^ 1)):
            if fwd[nd] < 0 and back[ne] < 0:
                fwd[nd] = ne
                back[ne] = nd
                queue.append(nd)
            elif fwd[nd] != ne:
                return None
    return fwd


def are_isomorphic(a: RibbonMap, b: RibbonMap) -> Optional[DartBijection]:
    """A commuting dart bijection between the maps, or None.

    The bijection is forced once the image of one dart is chosen, so each
    of b's darts is tried as the image of dart 0.
    """
    if a.num_edges == 0 and b.num_edges == 0:
        return DartBijection(())
    if _quick_mismatch(a, b):
        return None
    for root in range(b.num_darts):
        fwd = _match_from(a, b, root)
        if fwd is not None:
            bijection = DartBijection(tuple(fwd))
            if not bijection.commutes(a, b):
                raise InternalInvariantViolation(f"match to root {root} does not commute")
            return bijection
    return None
