"""
Surfaces from rotation systems
==============================

A graph drawn on an oriented surface is remembered combinatorially by the
cyclic order of edge ends around each vertex.  From that data alone we can
trace the faces, count them, and read off the genus of the unique closed
oriented surface the graph fills.
"""

from ribbonsurf import from_rotation_lists, surface_report, format_word

# The theta graph: two vertices joined by three parallel edges.  Each
# rotation lists the darts around one vertex in counterclockwise order;
# "e1+" is the head of edge e1 pointing away from the vertex, "e1-" its
# other end.
theta = from_rotation_lists(
    ["e1", "e2", "e3"],
    [["e1+", "e2+", "e3+"],
     ["e1-", "e3-", "e2-"]],
)

report = surface_report(theta)
print("theta graph")
print("  vertices:", report.num_vertices)
print("  edges:   ", report.num_edges)
print("  faces:   ", report.num_faces)
print("  chi:     ", report.euler_characteristic)
print("  genus:   ", report.genus)
for word in report.face_words:
    print("  face:", format_word(word))
if (report.num_faces, report.genus) != (3, 0):
    raise SystemExit("the theta graph should fill the sphere with 3 faces")

# Reversing one star changes the embedding, not the graph.  With the
# rotation at the second vertex flipped, two faces merge and the same
# abstract graph now fills the torus.
theta_twisted = from_rotation_lists(
    ["e1", "e2", "e3"],
    [["e1+", "e2+", "e3+"],
     ["e1-", "e2-", "e3-"]],
)
twisted = surface_report(theta_twisted)
print("\nsame graph, one star reversed")
print("  faces:", twisted.num_faces, " genus:", twisted.genus)
if twisted.genus != 1:
    raise SystemExit("the twisted theta graph should fill the torus")

# The same phenomenon on a wedge of two loops: interleaving the loops
# around the single vertex fills a torus, nesting them fills a sphere.
# The demo exits non-zero if any genus here comes out wrong.
for rotation, expected in ((["a+", "b+", "a-", "b-"], 1),
                           (["a+", "a-", "b+", "b-"], 0)):
    wedge = from_rotation_lists(["a", "b"], [rotation])
    r = surface_report(wedge)
    print(f"\nwedge rotation {rotation}")
    print("  faces:", r.num_faces, " genus:", r.genus)
    if r.genus != expected:
        raise SystemExit(f"wedge {rotation} should have genus {expected}")
