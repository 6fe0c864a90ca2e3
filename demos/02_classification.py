"""
Classification by polygon reduction
===================================

Any connected filling map can be reduced, by face deletions and vertex
contractions, to a one-vertex one-face map: a polygon with edge sides
identified in pairs.  Normalizing that polygon word gathers the edges
into commutator blocks, and the number of blocks is the genus.  Every
move is recorded, so the whole computation can be replayed and audited.
"""

from ribbonsurf import (
    classify,
    format_word,
    petal,
    polygon_word,
    random_filling_map,
    replay,
    surface_report,
)

# The petal map is already in canonical position: one vertex, one face,
# boundary word a b A B c d C D ... (uppercase marks the reversed side).
for g in range(4):
    p = petal(g)
    word = polygon_word(p) if g > 0 else None
    print(f"petal({g}): word =", format_word(word) if word else "(edgeless)")

# A scrambled corpus map of genus 2: twelve random inverse moves applied
# to petal(2).  classify recovers the genus and the canonical word.
m = random_filling_map(2, 12, 7)
r = surface_report(m)
print(f"\nrandom map: V={r.num_vertices} m={r.num_edges} F={r.num_faces}")

result = classify(m)
print("genus:", result.genus)
print("canonical word:", format_word(result.canonical_word))
print("moves used:", len(result.trace))
for move in result.trace:
    print("  ", move)

# The trace is a certificate: replaying it against the original map must
# land on the same canonical word, or the demo exits non-zero.
again = replay(m, result.trace)
print("replay matches:", again == result.canonical_word)
if again != result.canonical_word:
    raise SystemExit("replay did not land on the canonical word")
