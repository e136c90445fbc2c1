"""The cubical disc between the two polyhedral products, its boundary (the
canonical cubulation of the Bier sphere), and the partition of the cube by
the dual pair of products.

Run:  python3 demos/cubical_models.py
"""

from bierlab import (
    boundary_complex,
    cone_cubulation,
    cubical_homology,
    cycle,
    gw_partition_check,
    points,
    z_complex,
)
from bierlab.cubical import cell_dim, cell_symbol

print("== three points: the disc is a union of six squares ==")
k = points(3, 3)
z = z_complex(k)
tops = z.maximal_cells()
print(f"{len(tops)} top cells, all of dimension 2:")
for cell in tops:
    print("  ", cell_symbol(cell))
print("reduced homology of the disc:", cubical_homology(z), "(contractible)")

rim = boundary_complex(z)
verts = sum(1 for c in rim.cells if cell_dim(c) == 0)
edges = sum(1 for c in rim.cells if cell_dim(c) == 1)
print(f"boundary: {verts} vertices and {edges} edges, homology",
      cubical_homology(rim), "(a circle: the cubulated hexagon)")

print()
print("== cones are contractible cubulations ==")
cone = cone_cubulation(cycle(4))
print(f"cone over the 4-cycle: {len(cone.cells)} cells, homology",
      cubical_homology(cone))

print()
print("== the two polyhedral products partition the cube ==")
# a point lies in the K side iff its positive support is a face of K, and
# in the dual side iff the rest is a face of the dual, so the corners decide
violations = gw_partition_check(k)
print(f"checked the {2 ** k.m} corners, one per positive support: "
      f"{len(violations)} violations")
