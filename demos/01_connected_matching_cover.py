"""
Covering a 2-colored hypergraph with two connected matchings
============================================================

Generate a random 2-coloring of the complete 3-uniform hypergraph, run the
covering pipeline, and inspect what it did.
"""

from rcover import cover, oracle_matching_cover, verify_cover
from rcover.generators import uniform_instance

# A colored instance: every triple of K_20^(3) red with probability 1/2,
# drawn reproducibly from the seed.
col = uniform_instance(20, 0.5, seed=2024)
print(f"instance: n=20, {len(col.red)} red / {len(col.blue)} blue triples")

# The pipeline cleans weak pairs, takes each color's largest monochromatic
# component as its major one, and grows two disjoint matchings of major
# edges by exchange moves.  gamma controls the cleanup strength via
# delta = 10 * gamma^(1/6).
result = cover(col.host, col, gamma=1e-3)
print(f"covered {result.covered} of 20 vertices")
print(f"red matching:  {list(result.red.edges)}")
print(f"blue matching: {list(result.blue.edges)}")
print(f"uncovered:     {list(result.uncovered)}")

# Each matching carries pseudo-path certificates: consecutive matching edges
# are joined by same-colored edge sequences overlapping in 2 vertices.
for cert in result.red.certificates:
    print("red certificate:", " -> ".join(map(str, cert.edges)))

# The verifier re-checks everything from scratch: disjointness, colors,
# certificate shapes, and the covered/uncovered arithmetic.
ok, diagnostics = verify_cover(result, col.host, col)
print("verifier says:", "valid" if ok else diagnostics)

# The pipeline stages and every applied exchange move are on the trace.
for event in result.trace:
    if event["stage"] in ("clean", "partition"):
        print(event["stage"], "->", event["detail"])

# At n <= 9 an exhaustive oracle gives the true optimum for comparison.
small = uniform_instance(8, 0.5, seed=7)
got = cover(small.host, small, gamma=1e-3).covered
best = oracle_matching_cover(small.host, small).optimum
print(f"n=8 sanity: pipeline {got}, exhaustive optimum {best}")
