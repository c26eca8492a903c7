"""Walkthrough: building an electorate that realizes prescribed margins.

Run with: python3 demos/05_margin_graph_synthesis.py
"""

from setvote import (
    MajorityRelation,
    WeightedMajorityGraph,
    margins,
    realize,
    realize_relation,
    relation,
    top_cycle,
)
from setvote.io import serialize_profile

print("Any antisymmetric integer matrix with uniform parity off the diagonal")
print("is the margin matrix of some electorate. Ask for a 3-cycle with margin")
print("2 on every edge plus a fourth alternative losing 4-0 to everyone:\n")

target = [
    [0, 2, -2, 4],
    [-2, 0, 2, 4],
    [2, -2, 0, 4],
    [-4, -4, -4, 0],
]
graph = WeightedMajorityGraph(4, target)
profile = realize(graph)
print(serialize_profile(profile))
assert margins(profile).tolist() == target
bound = max(abs(v) for row in target for v in row)
print(f"{profile.n} voters realize it exactly (bound: {bound} * 16 + 1).")
print("Its top cycle:", top_cycle(relation(target)))

print("\nThe construction works one pair at a time: each canceling voter pair")
print("moves exactly one margin by +2 and nothing else. Odd targets start")
print("from a single index-order ballot and pay the even remainder in pairs.")

print("\nGiven only a relation, realize it with uniform strict margins:")
rel = MajorityRelation(3, (0b010, 0b100, 0b001))  # a>b, b>c, c>a
for weight in (2, 4):
    prof = realize_relation(rel, weight)
    print(f"  weight {weight}: {prof.n} voters, margins "
          f"{sorted(set(int(v) for v in margins(prof).ravel()))}")

print("\nTies force even parity, so a weight-1 request on a tied relation is")
print("rejected rather than approximated.")
