"""The flag classification story: every flag Bier or Murai sphere is the
nerve of a product of a cube with one of four small factors.

Run:  python3 demos/flag_classification.py   (about ten seconds)
"""

from bierlab import (
    bier_sphere,
    classify_bier,
    drop_ghosts,
    make_complex,
    make_multicomplex,
    match_flag_family,
    murai_sphere,
)
from bierlab.census import enumerate_complexes, enumerate_multicomplexes, verify

print("== classifying a few flag Bier spheres ==")
for gens, m in [([[1], [2], [3]], 3), ([[1, 2], [3, 4]], 4), ([[1, 2], [2, 3]], 3)]:
    k = make_complex(m, gens)
    cls = classify_bier(k, drop_ghosts(bier_sphere(k)))
    print(f"K = {gens} on [{m}]  ->  tags {cls.tags}")

print()
print("== a Murai example: caps (2,1), generators x and y ==")
mc = make_multicomplex((2, 1), [(1, 0), (0, 1)])
print("flag family:", match_flag_family(drop_ghosts(murai_sphere(mc))), "(the pentagon)")

print()
print("== the censuses behind the theorems ==")
print("complexes on [4] up to isomorphism:", len(enumerate_complexes(4)))
print("proper multicomplexes with caps (1,1,1):",
      len(enumerate_multicomplexes((1, 1, 1))))

r = verify("bier-13types")
print(f"distinct 2-dimensional Bier sphere types: {r.details['distinct_types']}")

r = verify("flag-bier")
print(f"flag Bier spheres across m <= 5: {r.instance_count}, all in the four families:")
for kind, count in r.details["kinds"].items():
    print(f"   {kind:<18} x{count}")

r = verify("flag-murai")
print(f"flag Murai classes with |c| <= 4: {r.instance_count}; "
      f"1-dimensional ones form {r.details['one_dim_class_count']} classes "
      f"(the 4-, 5- and 6-gon)")
