"""Faces and the closed oriented surface a map fills.

Walking a face follows the successor phi(e) = sigma(e-bar): arrive along e,
turn to the next dart counterclockwise around the head vertex, leave along
it.  The phi-orbits partition the darts, each orbit read once in boundary
order, so face degrees sum to 2m.  The faces come from the orbit walk that
reads the vertex stars, ``maps._orbits``, with iota applied before each
step.  With V vertices, m edges and F faces the filled surface has Euler
characteristic chi = V - m + F and genus (2 - chi) / 2.  The edgeless map
stands for the sphere and counts one face.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation, PreconditionError, _Value
from .maps import DartRef, RibbonMap, _from_dart_rows, _orbits


class Face(_Value):
    """One phi-orbit; ``darts`` starts at the orbit's smallest dart."""

    __slots__ = ("darts",)

    def __init__(self, darts: tuple):
        object.__setattr__(self, "darts", darts)

    def __len__(self):
        return len(self.darts)

    def word(self, ribbon_map: RibbonMap) -> tuple:
        labels = ribbon_map.edge_labels
        return tuple(DartRef(labels[d >> 1], -1 if d & 1 else 1) for d in self.darts)


class SurfaceReport(_Value):
    __slots__ = ("num_vertices", "num_edges", "num_faces",
                 "euler_characteristic", "genus", "face_words")

    def __init__(self, num_vertices: int, num_edges: int, num_faces: int,
                 euler_characteristic: int, genus: int, face_words: tuple):
        set_field = object.__setattr__
        set_field(self, "num_vertices", num_vertices)
        set_field(self, "num_edges", num_edges)
        set_field(self, "num_faces", num_faces)
        set_field(self, "euler_characteristic", euler_characteristic)
        set_field(self, "genus", genus)
        set_field(self, "face_words", face_words)


def face_successor(ribbon_map: RibbonMap, dart: int) -> int:
    """phi(e) = sigma(e-bar): the dart after ``dart`` on the same face."""
    return ribbon_map.next_dart(ribbon_map.iota(dart))


def trace_faces(ribbon_map: RibbonMap) -> list:
    """All faces, sorted by smallest dart; the S0 map has one empty face."""
    if ribbon_map.num_edges == 0:
        return [Face(())]
    faces = [Face(orbit) for orbit in _orbits(ribbon_map.sigma, 1)[0]]
    if sum(len(f) for f in faces) != ribbon_map.num_darts:
        raise InternalInvariantViolation("faces do not partition the darts")
    return faces


def euler_characteristic(ribbon_map: RibbonMap) -> int:
    v = ribbon_map.num_vertices
    m = ribbon_map.num_edges
    f = len(trace_faces(ribbon_map))
    return v - m + f


def _genus_of_chi(chi: int) -> int:
    """The genus g of chi = 2 - 2g, which is always even and at most 2."""
    if chi % 2 != 0 or chi > 2:
        raise InternalInvariantViolation(f"impossible Euler characteristic {chi}")
    return (2 - chi) // 2


def genus(ribbon_map: RibbonMap) -> int:
    """Genus of the filled surface."""
    return _genus_of_chi(euler_characteristic(ribbon_map))


def surface_report(ribbon_map: RibbonMap) -> SurfaceReport:
    faces = trace_faces(ribbon_map)
    chi = ribbon_map.num_vertices - ribbon_map.num_edges + len(faces)
    return SurfaceReport(
        num_vertices=ribbon_map.num_vertices,
        num_edges=ribbon_map.num_edges,
        num_faces=len(faces),
        euler_characteristic=chi,
        genus=_genus_of_chi(chi),
        face_words=tuple(f.word(ribbon_map) for f in faces),
    )


def standard_pair_labels(g: int) -> list:
    """Edge labels for g handle pairs: letters a,b,c,... while they last,
    a1,b1,a2,b2,... beyond that."""
    if g < 0:
        raise PreconditionError("genus must be >= 0")
    if 2 * g <= 26:
        return [chr(ord("a") + i) for i in range(2 * g)]
    labels = []
    for i in range(1, g + 1):
        labels.extend((f"a{i}", f"b{i}"))
    return labels


def petal(g: int) -> RibbonMap:
    """The one-vertex map with 2g loops filling the genus-g surface.

    Petal i contributes the rotation block (a_i, b_i-bar, a_i-bar, b_i), so
    the single face reads the boundary word a_1 b_1 a_1' b_1' ... in order.
    petal(0) is the edgeless sphere map.
    """
    labels = standard_pair_labels(g)
    # Petal i owns darts 4i..4i+3: a_i+, a_i-, b_i+, b_i-.
    rotation = []
    for i in range(0, 4 * g, 4):
        rotation.extend((i, i + 3, i + 1, i + 2))
    return _from_dart_rows(labels, [rotation])
