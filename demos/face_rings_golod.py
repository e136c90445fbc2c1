"""Bigraded Betti numbers of face rings, pairwise products between the
full-subcomplex classes, and the product-level Golod classification of
Bier spheres.

Run:  python3 demos/face_rings_golod.py   (about a minute: the full
m in {3,4,5} Golod census)
"""

from bierlab import (
    GF2,
    QQ,
    bier_sphere,
    boundary_simplex,
    cycle,
    drop_ghosts,
    golod_summary,
    hochster_betti,
    koszul_betti_oracle,
    tor_products,
    vertices_of,
)
from bierlab.census import verify

print("== the 4-cycle: Betti table and its one nonvanishing product ==")
square = cycle(4)
print("Hochster sweep:", dict(hochster_betti(square).table))
print("Koszul oracle: ", dict(koszul_betti_oracle(square).table))
for w in tor_products(square):
    print("product witness: classes on",
          vertices_of(w.subset_a), "and", vertices_of(w.subset_b))

print()
print("== Golod predicates on small spheres ==")
# golod_summary gives (product-Golod, minimally non-Golod)
print("Bier(boundary of the 4-simplex) is product-Golod:",
      golod_summary(drop_ghosts(bier_sphere(boundary_simplex(4))))[0])
print("the hexagon is minimally non-Golod:", golod_summary(cycle(6))[1])
print("over GF(2) as well:", golod_summary(cycle(6), GF2)[1])

print()
print("== the full census, m in {3, 4, 5}, over Q and GF(2) ==")
r = verify("golod")
print(f"instances: {r.instance_count}, passed: {r.pass_count}")
for cx in r.details["truncations_outside_k_family"]:
    print("a minimally non-Golod Bier sphere outside the K-level family:")
    print("   K =", cx["complex"], f"on [{cx['m']}]; neither K nor its dual is a set of points,")
    print(f"   yet Bier(K) is truncation_sphere({cx['m']}, {cx['cuts']})")
