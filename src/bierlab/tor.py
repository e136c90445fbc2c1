"""Exact simplicial cohomology, the full-subcomplex decomposition of the
face-ring Tor algebra, and product-level Golod predicates.

Cochain conventions: the reduced complex includes the empty face in degree
-1; the coboundary of a basis cochain at face F places sign (-1)^pos(v, G)
on each coface G = F + {v}, where pos is the index of v in the sorted G.

The pairwise product on the decomposition is the join cross product: on
basis cochains, alpha_L (x) alpha_M goes to shuffle_sign(L, M) alpha_{L+M}
when L+M is a face and the supports are disjoint, else 0.  The shuffle sign
makes this a map of cochain complexes, so products of cocycles are cocycles
and vanishing modulo coboundaries is well defined.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import linalg
from .complexes import Complex, check_subset_sweep, faces, is_pure, submasks, vertices_of
from .errors import ResourceLimit
from .linalg import Echelon, check_characteristic


@dataclass(frozen=True)
class FieldTag:
    """Coefficient field: characteristic 0 is the rationals, else GF(p)."""

    p: int = 0

    def __post_init__(self):
        check_characteristic(self.p)


QQ = FieldTag(0)
GF2 = FieldTag(2)
GF3 = FieldTag(3)


# ---------------------------------------------------------------------------
# cochain machinery on plain face lists


def _boundary(face: int):
    """Codimension-one faces of ``face`` with sign (-1)^pos of the dropped
    vertex; the coboundary is its transpose."""
    sign = 1
    rest = face
    while rest:
        v_bit = rest & -rest
        rest ^= v_bit
        yield face ^ v_bit, sign
        sign = -sign


def _cohomology_ranks(groups: list[list[int]], p: int) -> dict[int, int]:
    """Reduced cohomology ranks by degree (degree s-1 from size-s faces)."""
    ranks = linalg.homology_ranks(groups, _boundary, p)
    return {s - 1: h for s, h in enumerate(ranks) if h}


@dataclass
class CohomologyBasis:
    """Ranks and echelonized cocycle representatives of reduced cohomology."""

    field: FieldTag
    ranks: dict[int, int]
    simplex_basis: dict[int, tuple[int, ...]]
    representatives: dict[int, list[tuple]]


def reduced_cohomology(k: Complex, f: FieldTag = QQ) -> CohomologyBasis:
    """Reduced simplicial cohomology of ``k`` over ``f`` with representatives.

    The void complex has rank 1 in degree -1.  Ghost ground elements do not
    contribute (cohomology is computed from the faces).
    """
    sc = subset_cohomology(k, f)
    j_mask = k.full_mask
    ranks = dict(sc.ranks(j_mask))
    groups = sc.groups(j_mask)
    basis = {deg: tuple(groups[deg + 1]) for deg in ranks}
    reps = {
        deg: [linalg.rref_row(v, f.p) for v in sc.representatives(j_mask, deg + 1)]
        for deg in ranks
    }
    assert all(len(reps[deg]) == r for deg, r in ranks.items())
    return CohomologyBasis(f, ranks, basis, reps)


def homology_sphere_check(k: Complex, n: int) -> bool:
    """True iff the link of every face (the empty one included) has the
    reduced rational homology of a sphere of dimension n - 1 - |face|."""
    if not is_pure(k) or k.facets[-1].bit_count() != n:
        return False
    # removing sigma from the faces containing it keeps their order
    all_faces = sorted(faces(k), key=vertices_of)
    for sigma in all_faces:
        s = sigma.bit_count()
        link_faces = [f ^ sigma for f in all_faces if f & sigma == sigma]
        ranks = _cohomology_ranks(linalg.graded(link_faces, int.bit_count), 0)
        if ranks != {n - 1 - s: 1}:
            return False
    return True


# ---------------------------------------------------------------------------
# bigraded Betti numbers


def check_koszul_oracle(k: Complex):
    """Refuse, before any work, a complex too large for the Koszul oracle,
    which builds a basis for each of the 2^m squarefree multidegrees."""
    if k.m > 10:
        raise ResourceLimit("koszul oracle is exponential; need m <= 10")


@dataclass
class BigradedBetti:
    """Ranks of the bigraded pieces, keyed (i, 2j) with both entries >= 0."""

    field: FieldTag
    m: int
    table: dict[tuple[int, int], int]

    def items_sorted(self):
        return sorted(self.table.items())


def hochster_betti(k: Complex, f: FieldTag = QQ) -> BigradedBetti:
    """Betti table via the sum over vertex subsets of reduced cohomology of
    full subcomplexes; beta[(0, 0)] = 1 comes from the empty subset."""
    check_subset_sweep(k)
    sc = subset_cohomology(k, f)
    table: dict[tuple[int, int], int] = {}
    for j_mask in range(1 << k.m):
        j = j_mask.bit_count()
        for deg, r in sc.ranks(j_mask).items():
            key = (j - deg - 1, 2 * j)
            table[key] = table.get(key, 0) + r
    return BigradedBetti(f, k.m, table)


def koszul_betti_oracle(k: Complex, f: FieldTag = QQ) -> BigradedBetti:
    """Betti table straight from the Koszul complex of the face ring.

    Independent of the full-subcomplex route: for each squarefree
    multidegree J the complex has basis (sigma, tau) with sigma a face,
    sigma + tau = J disjointly, graded by |tau|, and differential moving
    one element of tau into sigma when the union is again a face.
    """
    check_koszul_oracle(k)
    face_set = faces(k)
    table: dict[tuple[int, int], int] = {}
    for j_mask in range(1 << k.m):
        j = j_mask.bit_count()
        # index |tau| -> sigmas
        basis = linalg.graded(
            sorted(s for s in submasks(j_mask) if s in face_set),
            lambda sigma: (j_mask ^ sigma).bit_count(),
        )

        def differential(sigma):
            tau = j_mask ^ sigma
            tt = tau
            while tt:
                v_bit = tt & -tt
                tt ^= v_bit
                new_sigma = sigma | v_bit
                if new_sigma in face_set:
                    pos = (tau & (v_bit - 1)).bit_count()
                    yield new_sigma, -1 if pos & 1 else 1

        for i, h in enumerate(linalg.homology_ranks(basis, differential, f.p)):
            if h:
                key = (i, 2 * j)
                table[key] = table.get(key, 0) + h
    return BigradedBetti(f, k.m, table)


# ---------------------------------------------------------------------------
# pairwise products in the decomposition


def shuffle_sign(left: int, right: int) -> int:
    """Sign of the shuffle interleaving the sorted supports of two masks."""
    inversions = 0
    ll = left
    while ll:
        v_bit = ll & -ll
        inversions += (right & (v_bit - 1)).bit_count()
        ll ^= v_bit
    return -1 if inversions & 1 else 1


@dataclass(frozen=True, order=True)
class TorWitness:
    """A nonvanishing pairwise product between full-subcomplex classes."""

    subset_a: int
    subset_b: int
    size_a: int
    size_b: int
    index_a: int
    index_b: int


class SubsetCohomology:
    """Lazy cohomology data for all full subcomplexes of one complex.

    Shared by the Hochster sweep, the product scans of a complex and of all
    its deletions: the full subcomplexes of a deletion are exactly the K_J
    avoiding the deleted element, so one table serves every scan.

    Ranks go through strong collapses: when a vertex u dominates v in K_J
    (every facet of K_J through v contains u), K_J strong-deformation-retracts
    onto K_{J-v} (Barmak and Minian 2012), so both have the same ranks over
    every field.  Representatives, primitive integer rows over the rationals
    (``linalg.Echelon``), and products still use K_J itself.
    """

    def __init__(self, k: Complex, f: FieldTag):
        self.k = k
        self.field = f
        self.p = f.p
        # face f -> the vertices u for which f + {u} is a face
        self._star: dict[int, int] = {}
        for facet in k.facets:
            for face in submasks(facet):
                self._star[face] = self._star.get(face, 0) | facet
        # lexicographic vertex order, so each K_J's groups need no sort
        self._faces = sorted(self._star, key=vertices_of)
        self._groups: dict[int, list[list[int]]] = {}
        self._ranks: dict[int, dict[int, int]] = {}
        self._reps: dict[tuple[int, int], list] = {}
        self._im_echelon: dict[tuple[int, int], Echelon] = {}

    def groups(self, j_mask: int) -> list[list[int]]:
        g = self._groups.get(j_mask)
        if g is None:
            g = linalg.graded([x for x in self._faces if x & j_mask == x], int.bit_count)
            self._groups[j_mask] = g
        return g

    def _dominated(self, j_mask: int) -> int:
        """Bit of the lowest vertex of J that another vertex of J dominates
        in K_J, or 0."""
        rest = j_mask
        while rest:
            v_bit = rest & -rest
            rest ^= v_bit
            dom = j_mask ^ v_bit
            for facet in self.k.facets:
                trace = facet & j_mask
                if trace & v_bit:
                    dom &= self._star[trace]
                    if not dom:
                        break
            if dom:
                return v_bit
        return 0

    def ranks(self, j_mask: int) -> dict[int, int]:
        """Reduced cohomology ranks of K_J by degree.  The returned dict is
        shared between subsets and must not be mutated."""
        visited = []
        while j_mask not in self._ranks:
            v_bit = self._dominated(j_mask)
            if not v_bit:
                self._ranks[j_mask] = _cohomology_ranks(self.groups(j_mask), self.p)
                break
            visited.append(j_mask)
            j_mask ^= v_bit
        r = self._ranks[j_mask]
        for j in visited:
            self._ranks[j] = r
        return r

    def image_echelon(self, j_mask: int, size: int) -> Echelon:
        """Echelon basis of the coboundaries among size-``size`` cochains
        of K_J, built once and shared by representatives and products."""
        key = (j_mask, size)
        ech = self._im_echelon.get(key)
        if ech is None:
            groups = self.groups(j_mask)
            target = groups[size] if size < len(groups) else []
            ech = Echelon(self.p, len(target))
            if 1 <= size < len(groups):
                # row F of the boundary matrix is the coboundary of F's cochain
                for row in linalg.boundary_matrix(target, groups[size - 1], _boundary):
                    ech.add(row)
            self._im_echelon[key] = ech
        return ech

    def representatives(self, j_mask: int, size: int) -> list:
        """Echelonized cocycle representatives of degree size-1 of K_J: the
        cocycles reduced modulo ``image_echelon`` and echelonized, that is the
        reduced echelon rows of the cocycles at pivots outside the coboundaries."""
        key = (j_mask, size)
        reps = self._reps.get(key)
        if reps is None:
            groups = self.groups(j_mask)
            lower = groups[size]
            upper = groups[size + 1] if size + 1 < len(groups) else []
            coboundary = list(zip(*linalg.boundary_matrix(upper, lower, _boundary)))
            image = self.image_echelon(j_mask, size)
            ech = Echelon(self.p, len(lower))
            kernel = linalg.nullspace(coboundary, len(lower), self.p)
            rows = (ech.add(image.residual(v)) for v in kernel)
            reps = [row for row in rows if row is not None]
            self._reps[key] = reps
        return reps

    def interesting_subsets(self, allowed: int) -> list[int]:
        """Nonempty subsets of ``allowed`` whose full subcomplex has
        reduced cohomology, ascending."""
        out = []
        sub = allowed
        while sub:
            if self.ranks(sub):
                out.append(sub)
            sub = (sub - 1) & allowed
        return sorted(out)

    def product_class_vector(self, a_mask, sa, a_vec, b_mask, sb, b_vec):
        """Cochain of the product of two representatives, over the size
        sa+sb faces of the full subcomplex on the union: each pair of
        support faces L, M with L+M a face adds shuffle_sign(L, M) a_L b_M
        at L+M."""
        rights = [(right, y) for right, y in zip(self.groups(b_mask)[sb], b_vec) if y]
        product = {}
        for left, x in zip(self.groups(a_mask)[sa], a_vec):
            if x:
                for right, y in rights:
                    if left | right in self._star:
                        product[left | right] = x * y * shuffle_sign(left, right)
        groups = self.groups(a_mask | b_mask)
        t = sa + sb
        return [product.get(n, 0) for n in (groups[t] if t < len(groups) else [])]

    def product_is_nonzero(self, a_mask, sa, a_vec, b_mask, sb, b_vec) -> bool:
        """Whether the product of two representatives is not a coboundary."""
        vec = self.product_class_vector(a_mask, sa, a_vec, b_mask, sb, b_vec)
        if not any(vec):
            return False
        return not self.image_echelon(a_mask | b_mask, sa + sb).contains(vec)

    def _pairs(self, allowed: int):
        subsets = self.interesting_subsets(allowed)
        pairs = [
            (a, b)
            for a, b in itertools.combinations(subsets, 2)
            if not a & b
        ]
        # large unions first: witnesses on spheres pair complementary subsets
        pairs.sort(key=lambda ab: (-(ab[0] | ab[1]).bit_count(), ab))
        return pairs

    def _witnesses(self, allowed: int):
        """Nonvanishing products among subsets of ``allowed``, in scan order."""
        for a_mask, b_mask in self._pairs(allowed):
            # _pairs swept every subset of ``allowed``; in a degree where
            # K_{a+b} has no cohomology every product is a coboundary
            union_ranks = self._ranks[a_mask | b_mask]
            for sa in sorted(self.ranks(a_mask)):
                for sb in sorted(self.ranks(b_mask)):
                    if sa + sb + 1 not in union_ranks:
                        continue
                    reps_a = self.representatives(a_mask, sa + 1)
                    reps_b = self.representatives(b_mask, sb + 1)
                    for ia, va in enumerate(reps_a):
                        for ib, vb in enumerate(reps_b):
                            if self.product_is_nonzero(
                                a_mask, sa + 1, va, b_mask, sb + 1, vb
                            ):
                                yield TorWitness(a_mask, b_mask, sa + 1, sb + 1, ia, ib)

    def witnesses(self, allowed: int) -> list[TorWitness]:
        return sorted(self._witnesses(allowed))

    def has_witness(self, allowed: int) -> bool:
        return next(self._witnesses(allowed), None) is not None


@functools.lru_cache(maxsize=1)
def subset_cohomology(k: Complex, f: FieldTag) -> SubsetCohomology:
    """The table of ``k`` over ``f`` that every entry point of this module reads.

    Keyed by value, so a relabeled complex or another field gets a table of
    its own.  Callers finish one complex before starting the next, so one
    slot lets a Betti table, a Golod verdict and the witnesses of the same
    complex share one sweep, and the next complex evicts the old table.
    """
    return SubsetCohomology(k, f)


def tor_products(k: Complex, f: FieldTag = QQ) -> list[TorWitness]:
    """All nonvanishing pairwise products between classes of disjoint
    nonempty vertex subsets, in deterministic order."""
    check_subset_sweep(k)
    return subset_cohomology(k, f).witnesses(k.full_mask)


def is_product_golod(k: Complex, f: FieldTag = QQ) -> bool:
    """True iff every pairwise product of positive-degree classes vanishes."""
    check_subset_sweep(k)
    return not subset_cohomology(k, f).has_witness(k.full_mask)


def is_min_non_golod_product(k: Complex, f: FieldTag = QQ) -> bool:
    """Not product-Golod, but every single-element deletion is."""
    return golod_summary(k, f)[1]


def golod_summary(k: Complex, f: FieldTag = QQ) -> tuple[bool, bool]:
    """(product-Golod, minimally-non-Golod at product level), one table."""
    check_subset_sweep(k)
    sc = subset_cohomology(k, f)
    golod = not sc.has_witness(k.full_mask)
    if golod:
        return True, False
    for v in range(k.m):
        if sc.has_witness(k.full_mask ^ (1 << v)):
            return False, False
    return False, True
