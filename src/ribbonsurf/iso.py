"""Isomorphism of maps as labelled-dart structures.

Two maps are isomorphic when some dart bijection commutes with both the
rotation and the edge involution; edge labels carry no weight.  Orientation
is part of the structure: mirror images (rotations read against sigma) do
not count.  One search answers both questions: the least BFS image over all
roots, sigma then iota, whose bytes are the canonical encoding.  A root is
dropped once its image exceeds the best.  If some star has one or two darts,
only roots on the smallest stars are tried (their images begin 0, or 1 0;
every other root's begins 1 then at least 2).  A root that ties the best to
the end pairs the two BFS orders into an automorphism, whose pairs a
union-find joins under the smaller dart, and a later root named by a smaller
dart is skipped (orbit pruning; McKay and Piperno, "Practical graph
isomorphism, II", 2014).  An automorphism is fixed by one dart's image, so
those found reach the whole orbit of the best root and the names are orbits.
Maps are isomorphic exactly when their images are equal; the witness sends
dart 0 to the orbit name of its image under the paired BFS orders, the
smallest dart of b that any isomorphism reaches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import EmptyMapError, InternalInvariantViolation
from .maps import RibbonMap


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


def _least_image(ribbon_map: RibbonMap) -> tuple:
    """(least image, a BFS order that reaches it, each dart's orbit name).

    BFS pops darts in discovery order, so entry k of the relabelled sigma is
    known when dart k is popped.  A root stops at the first entry above the
    best root's; only one whose sigma ties or wins builds its iota."""
    sigma, n = ribbon_map.sigma, ribbon_map.num_darts
    orbit = list(range(n))  # union-find parents; each class is led by its least dart

    def name(d: int) -> int:
        while orbit[d] != d:
            orbit[d] = d = orbit[orbit[d]]
        return d

    order = [-1] * n
    best = best_order = None
    stars = [ribbon_map.star(v) for v in range(ribbon_map.num_vertices)]
    low = min(map(len, stars))
    roots = range(n) if low > 2 else sorted(d for star in stars if len(star) == low
                                            for d in star)
    for root in roots:
        if name(root) < root:
            continue
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
            image = (sigma_seq, [order[d ^ 1] for d in queue])
            if best is None or image < best:
                best, best_order = image, queue
            elif image == best:
                for d, e in zip(best_order, queue):
                    d, e = sorted((name(d), name(e)))
                    orbit[e] = d
        for d in queue:
            order[d] = -1
    return best, best_order, [name(d) for d in range(n)]


def canonical_encoding(ribbon_map: RibbonMap) -> bytes:
    """The least BFS image over all roots in 4-byte big-endian entries."""
    if ribbon_map.num_edges == 0:
        raise EmptyMapError("the edgeless map has no darts to encode")
    sigma_seq, iota_seq = _least_image(ribbon_map)[0]
    return b"".join(v.to_bytes(4, "big") for v in sigma_seq + iota_seq)


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
    """A commuting dart bijection between the maps, or None.  It is forced by
    the image of dart 0: the smallest dart of b that any isomorphism reaches."""
    if a.num_edges != b.num_edges:
        return None
    if a.num_edges == 0:
        return DartBijection(())
    image_a, order_a, _ = _least_image(a)
    image_b, order_b, orbit_b = _least_image(b)
    if image_a != image_b:
        return None
    root = orbit_b[order_b[order_a.index(0)]]
    bijection = DartBijection(tuple(_match_from(a, b, root) or ()))
    if not bijection.commutes(a, b):
        raise InternalInvariantViolation(f"match to root {root} does not commute")
    return bijection
