"""Independent answers the benchmark checks ribbonsurf against.

Nothing here imports ribbonsurf.  Surface invariants are recomputed from a
graph document's edges and rotation lists with a separate face walk,
canonical polygon words are checked by their block shape, Cayley ball sizes
come from closed forms, and words are built so that their verdict is known
by construction.
"""

from __future__ import annotations


class WrongAnswer(Exception):
    """The program returned an answer that disagrees with the oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# -- surfaces from rotation lists ---------------------------------------------


def _dart(label_index: dict, token: str) -> int:
    return 2 * label_index[token[:-1]] + (0 if token[-1] == "+" else 1)


def _sigma(edges, rotations) -> list:
    label_index = {lab: k for k, lab in enumerate(edges)}
    sigma = [0] * (2 * len(edges))
    for row in rotations:
        darts = [_dart(label_index, tok) for tok in row]
        for i, d in enumerate(darts):
            sigma[d] = darts[(i + 1) % len(darts)]
    return sigma


def face_orbits(edges, rotations) -> list:
    """Faces as dart lists, each from its smallest dart, walking
    phi(d) = sigma(d ^ 1); the edgeless map has one empty face."""
    if not edges:
        return [[]]
    sigma = _sigma(edges, rotations)
    seen = [False] * len(sigma)
    faces = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        face, d = [], start
        while not seen[d]:
            seen[d] = True
            face.append(d)
            d = sigma[d ^ 1]
        faces.append(face)
    return faces


def invariants(edges, rotations) -> dict:
    """V, m, F, Euler characteristic and genus of a rotation system."""
    v = max(len(rotations), 1)
    m = len(edges)
    f = len(face_orbits(edges, rotations))
    chi = v - m + f
    return {"vertices": v, "edges": m, "faces": f,
            "euler_characteristic": chi, "genus": (2 - chi) // 2}


def vertex_numbering(edges, rotations) -> list:
    """Vertex index of each dart, vertices ordered by their smallest dart
    (the numbering the CLI's ``--base`` refers to)."""
    label_index = {lab: k for k, lab in enumerate(edges)}
    rows = [[_dart(label_index, tok) for tok in row] for row in rotations if row]
    rows.sort(key=min)
    where = [0] * (2 * len(edges))
    for v, row in enumerate(rows):
        for d in row:
            where[d] = v
    return where


def dart_token(edges, dart: int) -> str:
    """A dart as a path letter: ``label`` forward, ``label'`` backward."""
    return edges[dart >> 1] + ("'" if dart & 1 else "")


def is_canonical_tokens(tokens, g: int) -> bool:
    """x1+ y1+ x1- y1- ... xg+ yg+ xg- yg-, every label distinct."""
    if len(tokens) != 4 * g:
        return False
    labels = set()
    for i in range(0, len(tokens), 4):
        a, b, c, d = tokens[i:i + 4]
        x, y = a[:-1], b[:-1]
        if x == y or (a, b, c, d) != (x + "+", y + "+", x + "-", y + "-"):
            return False
        labels.update((x, y))
    return len(labels) == 2 * g


# -- groups -------------------------------------------------------------------


def generators(spec: str) -> list:
    """Generator names of ``free:<k>``, ``surface:<g>`` and ``zxz``."""
    if spec == "zxz":
        return ["a", "b"]
    kind, _, arg = spec.partition(":")
    count = int(arg) * (2 if kind == "surface" else 1)
    if count > 26:
        raise ValueError(f"{spec} needs more than 26 one-letter generators")
    return [chr(ord("a") + i) for i in range(count)]


def relator(spec: str) -> tuple:
    """The defining relator a b a' b' c d c' d' ..., or () for free groups."""
    if spec.startswith("free:"):
        return ()
    gens = generators(spec)
    word = []
    for i in range(0, len(gens), 2):
        a, b = gens[i], gens[i + 1]
        word += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return tuple(word)


def invert(word) -> list:
    return [(lab, -sign) for lab, sign in reversed(word)]


def trivial_word(spec: str, length: int, rng) -> list:
    """A word of at least ``length`` letters that is the identity: u u' for
    free groups, otherwise conjugates c r c' of relator rotations inserted
    at random positions."""
    gens = generators(spec)
    rel = relator(spec)

    def letter():
        k = int(rng.random() * 2 * len(gens))
        return (gens[k >> 1], 1 - 2 * (k & 1))

    if not rel:
        half = [letter() for _ in range(max(1, (length + 1) // 2))]
        return half + invert(half)
    word = []
    while len(word) < length:
        k = rng.randrange(len(rel))
        piece = list(rel[k:] + rel[:k])
        if rng.random() < 0.5:
            piece = invert(piece)
        conj = [letter() for _ in range(rng.randrange(3))]
        at = rng.randrange(len(word) + 1)
        word[at:at] = conj + piece + invert(conj)
    return word


def nontrivial_word(spec: str, length: int, rng) -> list:
    """A trivial word with one generator appended: its exponent sum in that
    generator is 1, so its image in the abelianization, and the word, is
    not the identity in any of these groups."""
    return trivial_word(spec, length, rng) + [(rng.choice(generators(spec)), 1)]


def compact(word) -> str:
    """One letter per generator, uppercase for the inverse."""
    return "".join(lab if sign > 0 else lab.upper() for lab, sign in word)


def free_ball_size(rank: int, radius: int) -> int:
    """Elements of length <= radius in the free group of the given rank."""
    if rank == 0:
        return 1
    if rank == 1:
        return 2 * radius + 1
    return 1 + 2 * rank * ((2 * rank - 1) ** radius - 1) // (2 * rank - 2)


def ball_size(spec: str, radius: int) -> int:
    """Closed-form ball size: free groups count reduced words, Z x Z is the
    lattice diamond 2r^2 + 2r + 1, and the genus-g surface group grows
    like the free group of rank 2g while 2r is shorter than its relator."""
    if spec == "zxz":
        return 2 * radius * radius + 2 * radius + 1
    kind, _, arg = spec.partition(":")
    n = int(arg)
    if kind == "free":
        return free_ball_size(n, radius)
    if kind == "surface" and 2 * radius < 4 * n:
        return free_ball_size(2 * n, radius)
    raise ValueError(f"no closed form for {spec} at radius {radius}")
