"""Rotation systems on labelled dart sets.

A map with m edges lives on the dart set {0, ..., 2m-1}.  Edge k (the k-th
entry of ``edge_labels``) owns dart 2k, its forward side, and dart 2k+1, its
backward side; the edge involution iota therefore flips the low bit and is
fixed-point free by construction.  The rotation sigma is a permutation of the
darts whose orbits are the vertex stars in cyclic successor order.  A valid
map is connected: the group generated by sigma and iota acts transitively on
darts.  The edgeless map is the single exception and stands for the sphere
with one vertex.  One orbit walk, ``_orbits``, reads the stars
here, the faces in ``surfaces`` and the corner classes of a glued polygon
in ``classify``.  One breadth-first walk, ``_bfs_order``, answers
reachability: both connectivity checks here and the isomorphism witness in
``iso``.  Library code indexes a map's arrays (``sigma``, ``edge_labels``,
``_vertex_of``, ``_stars``, ``_tokens()``) for darts it got from that map;
the checked accessors serve callers outside.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence, Union

from .errors import (
    DisconnectedError,
    DuplicateDartError,
    DuplicateLabelError,
    InternalInvariantViolation,
    MapError,
    MissingDartError,
    UnknownLabelError,
)

LABEL_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class DartRef(NamedTuple):
    """A dart named by its edge label and side: sign +1 forward, -1 backward."""

    label: str
    sign: int

    def token(self) -> str:
        return self.label + ("+" if self.sign > 0 else "-")

    def reversed(self) -> "DartRef":
        return DartRef(self.label, -self.sign)


DartLike = Union[str, DartRef, tuple]


def _check_label(label) -> None:
    if not isinstance(label, str) or not LABEL_PATTERN.match(label):
        raise MapError(f"bad edge label {label!r}")


def parse_dart_token(token: DartLike) -> DartRef:
    """Normalize a dart given as "a+"/"a-" text, a DartRef, or a pair."""
    if isinstance(token, DartRef):
        ref = token
    elif isinstance(token, tuple) and len(token) == 2:
        ref = DartRef(token[0], token[1])
    elif isinstance(token, str) and len(token) >= 2 and token[-1] in "+-":
        ref = DartRef(token[:-1], 1 if token[-1] == "+" else -1)
    else:
        raise MapError(f"bad dart token {token!r}: expected '<label>+' or '<label>-'")
    _check_label(ref.label)
    if ref.sign not in (1, -1):
        raise MapError(f"bad dart sign {ref.sign!r} for label {ref.label!r}")
    return ref


class ValidationReport:
    """All problems found in a proposed rotation system.

    ``issues`` is a list of (code, message) pairs; an empty list means the
    input describes a valid map.
    """

    def __init__(self, issues: Optional[list] = None):
        self.issues = list(issues or [])

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str) -> None:
        self.issues.append((code, message))

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, issues={self.issues!r})"


_ISSUE_EXCEPTIONS = {error.code: error for error in (
    DuplicateDartError, MissingDartError, UnknownLabelError,
    DuplicateLabelError, DisconnectedError)}


class RibbonMap:
    """An immutable connected map: labelled edges plus a rotation permutation.

    Instances are built from dart tokens by :func:`from_rotation_lists`, and
    inside the library from integer dart rows by :func:`_from_dart_rows`;
    the constructor trusts its arguments.  Vertices are indexed 0..V-1 in
    order of their smallest dart, and each star tuple starts at that dart.
    """

    __slots__ = ("edge_labels", "sigma", "_stars", "_vertex_of", "_label_index")

    def __init__(self, edge_labels: Sequence[str], sigma: Sequence[int]):
        self.edge_labels = tuple(edge_labels)
        self.sigma = tuple(sigma)
        self._label_index = {lab: k for k, lab in enumerate(self.edge_labels)}
        self._stars, self._vertex_of = _orbits(self.sigma)

    # -- sizes ------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edge_labels)

    @property
    def num_darts(self) -> int:
        return 2 * len(self.edge_labels)

    @property
    def num_vertices(self) -> int:
        return len(self._stars) or 1

    # -- darts ------------------------------------------------------------

    def iota(self, dart: int) -> int:
        """The other side of the same edge."""
        self._check_dart(dart)
        return dart ^ 1

    def next_dart(self, dart: int) -> int:
        """sigma: the next dart counterclockwise around the same vertex."""
        self._check_dart(dart)
        return self.sigma[dart]

    def dart_ref(self, dart: int) -> DartRef:
        self._check_dart(dart)
        return DartRef(self.edge_labels[dart >> 1], -1 if dart & 1 else 1)

    def dart_index(self, ref: DartLike) -> int:
        ref = parse_dart_token(ref)
        k = self._label_index.get(ref.label)
        if k is None:
            raise UnknownLabelError(f"unknown edge label {ref.label!r}")
        return 2 * k + (0 if ref.sign > 0 else 1)

    def edge_of(self, dart: int) -> str:
        self._check_dart(dart)
        return self.edge_labels[dart >> 1]

    def _check_dart(self, dart: int) -> None:
        if not 0 <= dart < self.num_darts:
            raise IndexError(f"dart {dart} out of range for {self.num_edges} edges")

    # -- vertices ---------------------------------------------------------

    def star(self, vertex: int) -> tuple:
        """Darts at ``vertex`` in cyclic order, starting at the smallest."""
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(f"vertex {vertex} out of range")
        return self._stars[vertex] if self._stars else ()

    def vertex_of(self, dart: int) -> int:
        self._check_dart(dart)
        return self._vertex_of[dart]

    def vertices(self) -> tuple:
        return tuple(range(self.num_vertices))

    def rotation_tokens(self) -> list:
        """Rotations as token-string lists, in canonical vertex order."""
        tokens = self._tokens()
        return [[tokens[d] for d in star] for star in self._stars] or [[]]

    def _tokens(self) -> list:
        """Every dart's token, indexed by dart."""
        return [lab + side for lab in self.edge_labels for side in "+-"]

    # -- equality ---------------------------------------------------------

    def _successor_pairs(self) -> frozenset:
        """(dart token, next token around its vertex) for every dart: the
        labelled star structure, independent of edge declaration order,
        vertex order, and the phase each rotation list was written at."""
        tokens = self._tokens()
        return frozenset(zip(tokens, [tokens[d] for d in self.sigma]))

    def __eq__(self, other):
        if not isinstance(other, RibbonMap):
            return NotImplemented
        return self._successor_pairs() == other._successor_pairs()

    def __hash__(self):
        return hash(self._successor_pairs())

    def __repr__(self):
        if not self.edge_labels:
            return "RibbonMap(S0)"
        return (f"RibbonMap(edges={list(self.edge_labels)!r}, "
                f"rotations={self.rotation_tokens()!r})")


def _orbits(perm: Sequence[int], flip: int = 0):
    """(orbits, orbit_of) for the map d -> perm[d ^ flip]: the orbits sorted
    by smallest element, each a tuple read from that element, and each
    element's orbit number.  Flip 0 walks the stars of sigma, flip 1 the
    faces.  A walk that does not close on its start means the map is not a
    permutation, a bug here: InternalInvariantViolation."""
    orbit_of = [None] * len(perm)
    orbits = []
    for start, k in enumerate(orbit_of):
        if k is not None:
            continue
        k = len(orbits)
        orbit = []
        d = start
        while orbit_of[d] is None:
            orbit_of[d] = k
            orbit.append(d)
            d = perm[d ^ flip]
        if d != start:
            raise InternalInvariantViolation(f"walk from {start} does not close")
        orbits.append(tuple(orbit))
    return orbits, orbit_of


def _bfs_order(sigma: Sequence[int], root: int = 0) -> list:
    """The darts the group <sigma, iota> reaches from ``root``, breadth
    first: each dart discovers sigma(d), then d ^ 1."""
    seen = [False] * len(sigma)
    seen[root] = True
    order = [root]
    for d in order:
        for nxt in (sigma[d], d ^ 1):
            if not seen[nxt]:
                seen[nxt] = True
                order.append(nxt)
    return order


def _parse_rotation_lists(edge_labels: Sequence[str],
                          rotations: Sequence[Sequence[DartLike]]):
    """(report, sigma): every problem found, and the rotation read off the
    tokens once they all parse (else None)."""
    report = ValidationReport()
    labels = list(edge_labels)
    seen_labels = set()
    for lab in labels:
        if not isinstance(lab, str) or not LABEL_PATTERN.match(lab):
            report.add("BadLabel", f"bad edge label {lab!r}")
        elif lab in seen_labels:
            report.add("DuplicateLabel", f"edge label {lab!r} declared twice")
        else:
            seen_labels.add(lab)
    if not report.ok:
        return report, None

    label_index = {lab: k for k, lab in enumerate(labels)}
    n = 2 * len(labels)
    owner = [None] * n
    empty_rotations = 0
    parsed = []
    for vi, rotation in enumerate(rotations):
        row = []
        if len(rotation) == 0:
            empty_rotations += 1
        for token in rotation:
            try:
                ref = parse_dart_token(token)
            except MapError as exc:
                report.add("BadToken", f"vertex {vi}: {exc}")
                continue
            k = label_index.get(ref.label)
            if k is None:
                report.add("UnknownLabel",
                           f"vertex {vi}: dart {ref.token()} uses undeclared label")
                continue
            dart = 2 * k + (0 if ref.sign > 0 else 1)
            if owner[dart] is not None:
                report.add("DuplicateDart",
                           f"dart {ref.token()} appears more than once")
                continue
            owner[dart] = vi
            row.append(dart)
        parsed.append(row)
    for dart in range(n):
        if owner[dart] is None:
            lab = labels[dart >> 1]
            side = "-" if dart & 1 else "+"
            report.add("MissingDart", f"dart {lab}{side} appears in no rotation")
    if not report.ok:
        return report, None

    if n == 0:
        # Edgeless sphere: at most one (empty) vertex.
        if len(rotations) > 1:
            report.add("Disconnected", "edgeless map may have only one vertex")
        return report, []
    if empty_rotations:
        report.add("IsolatedVertex",
                   "isolated vertices are only allowed in the edgeless map")
        return report, None

    sigma = [0] * n
    for row in parsed:
        for i, dart in enumerate(row):
            sigma[dart] = row[(i + 1) % len(row)]
    count = len(_bfs_order(sigma))
    if count != n:
        report.add("Disconnected",
                   f"map splits into components ({count} of {n} darts reached)")
    return report, sigma


def validate_rotation_lists(edge_labels: Sequence[str],
                            rotations: Sequence[Sequence[DartLike]]) -> ValidationReport:
    """Check a proposed rotation system and report every problem found."""
    return _parse_rotation_lists(edge_labels, rotations)[0]


def from_rotation_lists(edge_labels: Sequence[str],
                        rotations: Sequence[Sequence[DartLike]]) -> RibbonMap:
    """Build a validated map from labelled rotation lists.

    ``rotations`` holds one dart sequence per vertex, each in cyclic
    successor order.  Raises the error for the first validation issue.
    """
    labels = tuple(edge_labels)
    report, sigma = _parse_rotation_lists(labels, rotations)
    if not report.ok:
        code, message = report.issues[0]
        raise _ISSUE_EXCEPTIONS.get(code, MapError)(message)
    return RibbonMap(labels, sigma)


def _from_dart_rows(edge_labels: Sequence[str], rows) -> RibbonMap:
    """Build a map from integer dart rows, one per vertex in cyclic order.

    For maps the library computes itself: the labels are trusted, and rows
    that do not form a connected rotation system are a bug here, so every
    failed check raises InternalInvariantViolation.
    """
    n = 2 * len(edge_labels)
    if n == 0:
        if len(rows) > 1 or any(rows):
            raise InternalInvariantViolation("edgeless map needs one empty vertex")
        return RibbonMap((), ())
    sigma = [None] * n
    for row in rows:
        if not row:
            raise InternalInvariantViolation("isolated vertex in a map with edges")
        for dart, nxt in zip(row, row[1:] + row[:1]):
            if not 0 <= dart < n or sigma[dart] is not None:
                raise InternalInvariantViolation(
                    f"dart {dart} placed twice or out of range")
            sigma[dart] = nxt
    if None in sigma:
        raise InternalInvariantViolation(f"dart {sigma.index(None)} placed in no row")
    count = len(_bfs_order(sigma))
    if count != n:
        raise InternalInvariantViolation(
            f"rows split into components ({count} of {n} darts reached)")
    return RibbonMap(edge_labels, sigma)


def degree(ribbon_map: RibbonMap, vertex: int) -> int:
    """Number of darts at ``vertex``; a loop contributes both of its sides."""
    return len(ribbon_map.star(vertex))


def relabeled(ribbon_map: RibbonMap, mapping: dict) -> RibbonMap:
    """Rename edges by a bijective label mapping, keeping all structure."""
    missing = [lab for lab in ribbon_map.edge_labels if lab not in mapping]
    if missing:
        raise UnknownLabelError(f"mapping misses labels {missing!r}")
    new_labels = [mapping[lab] for lab in ribbon_map.edge_labels]
    if len(set(new_labels)) != len(new_labels):
        raise DuplicateLabelError("label mapping is not injective")
    for lab in new_labels:
        _check_label(lab)
    return RibbonMap(new_labels, ribbon_map.sigma)


def refine(ribbon_map: RibbonMap) -> RibbonMap:
    """Subdivide every edge at a fresh midpoint vertex.

    Edge ``e`` becomes ``e_1`` (tail half) and ``e_2`` (head half), meeting
    at a new degree-2 vertex whose rotation is the two-dart cycle
    ``(e_1-, e_2+)``.  The result has V+m vertices and 2m edges and is a
    subdivision of the same surface.
    """
    new_labels = []
    for lab in ribbon_map.edge_labels:
        new_labels.extend((lab + "_1", lab + "_2"))
    # Edge k's forward dart 2k leaves along the tail half as e_1+ = 4k; its
    # backward dart leaves along the head half, travelling it against its
    # orientation, as e_2- = 4k+3.  Midpoint k is (e_1-, e_2+) = (4k+1, 4k+2).
    rows = [[2 * d + (d & 1) for d in star] for star in ribbon_map._stars]
    rows += [[4 * k + 1, 4 * k + 2] for k in range(ribbon_map.num_edges)]
    return _from_dart_rows(new_labels, rows)
