"""Alexander duality, the Bier sphere (deleted join with the dual), its
minimal non-faces, and classification against the flag and truncation
reference families.

Ground-set convention: the Bier sphere of a complex on [m] lives on [2m],
with the primed copy of vertex i stored as m + i.  Outputs keep ghost
ground elements; comparisons against reference families restrict to the
vertex set first (combinatorial equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Complex,
    Isomorphism,
    are_isomorphic,
    boundary_simplex,
    cross_polytope,
    cycle,
    faces,
    is_flag,
    join,
    maps_facets_onto,
    maximal,
    minimal_nonfaces,
    nerve_q2_3,
    subset_of,
    truncation_sphere,
)
from .errors import InvalidInput, ResourceLimit, UndefinedDual


def alexander_dual(k: Complex) -> Complex:
    """Complex whose facets are the complements of the minimal non-faces.

    Involutive on every complex other than the full simplex, which has no
    dual here.
    """
    nonfaces = minimal_nonfaces(k)
    if not nonfaces:
        raise UndefinedDual("the full simplex has no Alexander dual")
    full = k.full_mask
    # complements of an antichain are one
    return Complex.from_antichain(k.m, tuple(sorted(full ^ s for s in nonfaces)))


# Listing the facets is cheap; using them is not.  ``faces`` already
# refuses the 84 M subsets of cross-polytope:7's 10,206 facets, and without
# this bound ``bier`` on cross-polytope:10 (393,660 facets) writes 78 MB of
# JSON in about 12 s.  The census's largest Bier sphere has 30 facets.
MAX_BIER_FACETS = 1 << 14


def bier_sphere(k: Complex, brute: bool = False) -> Complex:
    """Deleted join of ``k`` and its dual, on [2m]; dimension m - 2.

    Facets are generated directly as partitions A + {b} + C of [m] with A a
    face: C = [m] - A - b is a dual face iff A + {b} is not a face of ``k``,
    so the dual is never built.  More than ``MAX_BIER_FACETS`` facets raise
    ``ResourceLimit``.  ``brute=True`` instead filters all deleted-join
    faces with the dual for maximality and is kept as the verification
    oracle.
    """
    m = k.m
    faces_k = faces(k)
    if brute:
        faces_dual = faces(alexander_dual(k))
        gens = [
            a | (c << m)
            for a in faces_k
            for c in faces_dual
            if not a & c
        ]
        return Complex.from_masks(2 * m, gens)
    full = k.full_mask
    if full in faces_k:
        raise UndefinedDual("the full simplex has no Alexander dual")
    gens = []
    for a in faces_k:
        rest = full ^ a
        bb = rest
        while bb:
            b = bb & -bb
            bb ^= b
            if a | b not in faces_k:
                gens.append(a | ((rest ^ b) << m))
        if len(gens) > MAX_BIER_FACETS:
            raise ResourceLimit("bier_sphere: need <= 2^14 facets")
    # distinct facets of m - 1 vertices each are an antichain
    return Complex.from_antichain(2 * m, tuple(sorted(gens)))


def bier_minimal_nonfaces(k: Complex) -> list[int]:
    """Minimal non-faces of the Bier sphere from the three generator
    families: non-faces of k, primed non-faces of the dual, and the pairs
    {i, i'}.  The raw union may be redundant; it is minimalized here and
    equals ``minimal_nonfaces(bier_sphere(k))``."""
    reduced = maximal(bier_nonface_generators(k), lambda a, b: subset_of(b, a))
    return sorted(reduced, key=lambda x: (x.bit_count(), x))


def bier_nonface_generators(k: Complex) -> list[int]:
    """The unreduced generator list behind ``bier_minimal_nonfaces``."""
    dual = alexander_dual(k)
    m = k.m
    gens = list(minimal_nonfaces(k))
    gens += [s << m for s in minimal_nonfaces(dual)]
    gens += [(1 << i) | (1 << (m + i)) for i in range(m)]
    return sorted(set(gens), key=lambda x: (x.bit_count(), x))


def swap_isomorphism(k: Complex) -> Isomorphism:
    """The unprimed/primed swap i <-> i', an isomorphism from the Bier
    sphere of ``k`` onto the Bier sphere of its dual."""
    m = k.m
    mapping = tuple(list(range(m + 1, 2 * m + 1)) + list(range(1, m + 1)))
    iso = Isomorphism(mapping)
    if not maps_facets_onto(iso, bier_sphere(k), bier_sphere(alexander_dual(k))):
        raise AssertionError("swap failed to map the Bier sphere onto its dual's")
    return iso


# ---------------------------------------------------------------------------
# classification


# Each flag family's polytope is I^n x P; the table gives the nerve of P: a
# point (the void complex, so the polytope is I^n itself), the pentagon,
# the hexagon and the cube with two adjacent edge cuts.
FLAG_FACTORS = {
    "cube": Complex(0, (0,)),
    "cube_x_p5": cycle(5),
    "cube_x_p6": cycle(6),
    "cube_x_q23": nerve_q2_3(),
}


@dataclass(frozen=True)
class FlagKind:
    """Reference family of a flag sphere: the simple polytope I^n x P, with
    P the factor whose nerve ``FLAG_FACTORS[family]`` holds."""

    family: str
    n: int


@dataclass(frozen=True)
class BierClassification:
    """All applicable tags; a sphere can carry several (the hexagon is both
    a flag polygon and a truncation sphere)."""

    simplex: bool
    golod_points: int | None
    flag: bool
    flag_kind: FlagKind | None

    @property
    def tags(self) -> tuple[str, ...]:
        out = []
        if self.simplex:
            out.append("simplex")
        if self.golod_points is not None:
            out.append(f"golod-family({self.golod_points})")
        if self.flag:
            if self.flag_kind is not None:
                out.append(
                    f"flag-family({self.flag_kind.family}, n={self.flag_kind.n})"
                )
            else:
                out.append("flag-unclassified")
        if len(out) == 0:
            out.append("other")
        return tuple(out)


def reference_flag_sphere(kind: FlagKind) -> Complex:
    """The sphere (polytope-nerve) of a reference family member: the cross
    polytope of dimension n joined with the factor's nerve."""
    factor = FLAG_FACTORS.get(kind.family)
    if factor is None:
        raise InvalidInput(f"unknown flag family {kind.family!r}")
    if kind.n < max(0, -factor.dim):
        raise InvalidInput("cube family needs n >= 1; others n >= 0")
    return join(cross_polytope(kind.n), factor)


def match_flag_family(sphere: Complex) -> FlagKind | None:
    """Identify a ghost-free flag sphere against the families by
    isomorphism.  The join adds n to the factor's dimension and 2n to its
    vertex count, so the dimension pins down the only candidate n per
    family and the vertex count must agree."""
    for family, factor in FLAG_FACTORS.items():
        n = sphere.dim - factor.dim
        if n >= max(0, -factor.dim) and sphere.m == 2 * n + factor.m:
            kind = FlagKind(family, n)
            if are_isomorphic(sphere, reference_flag_sphere(kind)) is not None:
                return kind
    return None


def match_truncation_family(sphere: Complex) -> int | None:
    """The number l of cut vertices if the ghost-free ``sphere`` is the
    nerve of a simplex with l of its vertices cut off, else None.

    Dimension and vertex count pin down the only candidate
    ``truncation_sphere(dim + 2, l)``; l = 0 is the simplex boundary.
    """
    m = sphere.dim + 2
    cuts = sphere.m - m
    if not 0 <= cuts <= m:
        return None
    if are_isomorphic(sphere, truncation_sphere(m, cuts)) is None:
        return None
    return cuts


def k_truncation_cuts(k: Complex) -> int | None:
    """The K-level truncation family (m >= 3, k not the full simplex): 0
    when k or its dual is the boundary of the full simplex, l when k or its
    dual is l disjoint points (ghosts allowed), else None."""
    if k.m < 3:
        raise InvalidInput("classification needs m >= 3")
    dual = alexander_dual(k)
    if boundary_simplex(k.m) in (k, dual):
        return 0
    for c in (k, dual):
        if c.dim == 0:
            return len(c.facets)
    return None


def classify_bier(k: Complex, sphere: Complex) -> BierClassification:
    """Tags of ``sphere``, the ghost-free Bier sphere of ``k`` that the
    caller built (m >= 3, k not the full simplex):

    * simplex: k or its dual is the boundary of the full simplex;
    * golod-family(l): k or its dual is l disjoint points (ghosts allowed).
      This K-level tag implies the Bier sphere is the truncation nerve
      ``truncation_sphere(m, l)``, but not conversely: the m = 3 class of
      an edge plus a ghost vertex has a 4-gon Bier sphere (the square is
      the triangle with one vertex cut off), so it is minimally non-Golod
      without the tag (``match_truncation_family`` tests the sphere
      itself);
    * flag-family(kind): ``sphere`` is flag; the kind is found by
      isomorphism against the reference families of ``FLAG_FACTORS``.
    """
    cuts = k_truncation_cuts(k)
    flag = is_flag(sphere)
    kind = match_flag_family(sphere) if flag else None
    return BierClassification(cuts == 0, cuts or None, flag, kind)
