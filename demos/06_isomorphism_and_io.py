"""
Isomorphism testing and the document format
===========================================

Maps serialize to a small JSON document (edge labels plus one rotation
list per vertex).  Isomorphism of maps is decided by a canonical
breadth-first encoding: relabel darts from every possible root, keep the
lexicographically least serialization, and compare bytes.
"""

import pathlib

from ribbonsurf import (
    are_isomorphic,
    canonical_encoding,
    parse_graph,
    petal,
    relabeled,
    serialize_graph,
)

data = pathlib.Path(__file__).parent / "data"

# Round trip: parse, serialize, parse again; the bytes stabilize.
text = (data / "theta.json").read_text()
theta = parse_graph(text)
assert serialize_graph(theta, name="theta") == text
print("theta round trip is byte-stable")

# A relabeled copy is isomorphic, and the witness is a verified dart
# bijection commuting with both the rotation and the reversal.
p2 = petal(2)
copy = relabeled(p2, {"a": "x", "b": "y", "c": "z", "d": "w"})
bijection = are_isomorphic(p2, copy)
print("petal(2) ~ relabeled copy:", bijection is not None)
if bijection is None:
    raise SystemExit("a relabeled copy should be isomorphic")
print("bijection commutes:", bijection.commutes(p2, copy))
print("encodings equal:", canonical_encoding(p2) == canonical_encoding(copy))

# The two wedge embeddings have the same underlying graph but different
# rotations, hence different face structure: not isomorphic as maps.
torus_wedge = parse_graph((data / "wedge_interleaved.json").read_text())
sphere_wedge = parse_graph((data / "wedge_nested.json").read_text())
split = are_isomorphic(torus_wedge, sphere_wedge) is None
print("interleaved ~ nested wedge:", not split)
if not split:
    raise SystemExit("the two wedge embeddings should not be isomorphic")
