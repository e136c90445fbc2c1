"""Simplicial complexes on an ordered ground set, stored as facet bitmasks.

Vertices are labeled 1..m and a subset of [m] is a Python int whose bit i-1
stands for vertex i.  All routines here are pure; ``Complex`` values are
immutable and hashable.  The representation is designed and tested for
m <= MAX_GROUND = 64 (the largest ground sets in scope are 12 elements).

A complex always contains the empty face.  The void complex {emptyset} is
stored as ``facets == (0,)``.  Ghost vertices (ground elements lying in no
face) are allowed everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInput, ResourceLimit

# the largest ground set the builders and the JSON reader accept
MAX_GROUND = 64

# ---------------------------------------------------------------------------
# vertex-set helpers


def mask_of(vertices) -> int:
    """Bitmask of an iterable of 1-based vertex labels."""
    m = 0
    for v in vertices:
        if v < 1:
            raise InvalidInput(f"vertex labels are 1-based, got {v}")
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex labels of a bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def submasks(mask: int):
    """All subsets of ``mask``, the empty set last."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_of(a: int, b: int) -> bool:
    """The inclusion order on masks."""
    return a & b == a


# ---------------------------------------------------------------------------
# antichains of any order; ``below(a, b)`` means a <= b


def maximal(items, below) -> tuple:
    """The items below no other one, deduplicated, ascending.  The reversed
    order ``lambda a, b: below(b, a)`` gives the minimal ones."""
    uniq = sorted(set(items))
    # a list, not a generator: tuple() of a generator resizes as it goes, which
    # fragmented the heap under the census's cached facets (peak RSS +0.6 MB)
    return tuple([a for a in uniq if not any(a != b and below(a, b) for b in uniq)])


def check_antichain(items, below, message: str) -> None:
    """Raise ``InvalidInput(message)`` when two of ``items`` are comparable."""
    for a, b in itertools.combinations(items, 2):
        if below(a, b) or below(b, a):
            raise InvalidInput(message)


# ---------------------------------------------------------------------------
# the complex type


def _check_ground(m: int, facets) -> None:
    """Refuse a negative ground-set size, an empty or non-tuple facet list,
    and a facet with a vertex outside [m]."""
    if m < 0:
        raise InvalidInput("ground-set size must be nonnegative")
    if not isinstance(facets, tuple) or not facets:
        raise InvalidInput("facets must be a nonempty tuple (use (0,) for the void complex)")
    full = (1 << m) - 1
    for f in facets:
        if f & ~full:
            raise InvalidInput(f"facet {bin(f)} has a vertex beyond ground set [{m}]")


@dataclass(frozen=True)
class Complex:
    """Ground-set size plus the facet antichain.

    ``Complex(m, facets)`` checks everything: the ground set, the ascending
    order and, pairwise, the antichain.  ``from_antichain`` checks only the
    ground set, for facets their builder already made a sorted antichain;
    ``from_masks`` reduces any masks to one with ``maximal`` and takes that
    path."""

    m: int
    facets: tuple[int, ...]

    def __post_init__(self):
        _check_ground(self.m, self.facets)
        if self.facets != tuple(sorted(self.facets)):
            raise InvalidInput("facets must be sorted ascending")
        check_antichain(self.facets, subset_of, "facets must form an inclusion antichain")

    @classmethod
    def from_antichain(cls, m: int, facets: tuple[int, ...]) -> "Complex":
        """The complex of ``facets``, which must already be an ascending
        inclusion antichain; only the ground set is checked."""
        _check_ground(m, facets)
        k = object.__new__(cls)
        object.__setattr__(k, "m", m)
        object.__setattr__(k, "facets", facets)
        return k

    @classmethod
    def from_masks(cls, m: int, masks) -> "Complex":
        return cls.from_antichain(m, maximal(masks, subset_of) or (0,))

    @property
    def dim(self) -> int:
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def facet_sets(self) -> list[tuple[int, ...]]:
        return sorted(vertices_of(f) for f in self.facets)

    def __repr__(self):
        return f"Complex(m={self.m}, facets={self.facet_sets()})"


def make_complex(m: int, generators) -> Complex:
    """Complex on [m] generated by faces given as vertex iterables."""
    return Complex.from_masks(m, (mask_of(g) for g in generators))


# ---------------------------------------------------------------------------
# faces and membership


def has_face(k: Complex, s: int) -> bool:
    """True iff the vertex set ``s`` lies in some facet."""
    if s & ~k.full_mask:
        raise InvalidInput("face has a vertex beyond the ground set")
    return any(s & f == s for f in k.facets)


def faces(k: Complex) -> set[int]:
    """All faces of ``k`` as masks, including the empty face."""
    # far above the suites, tests and benchmark, which reach 480 (a Bier
    # sphere on m = 5); boundary-simplex:20 would enumerate 20 * 2^19
    if sum(1 << f.bit_count() for f in k.facets) > 1 << 20:
        raise ResourceLimit("faces enumerates 2^|F| subsets of each facet F; need <= 2^20 in all")
    out: set[int] = set()
    for f in k.facets:
        out.update(submasks(f))
    return out


def check_subset_sweep(k: Complex):
    """Refuse, before any work, a complex whose 2^m vertex subsets are too
    many to sweep: the Betti table, every product scan and the partition
    check's corners each visit all of them."""
    if k.m > 16:
        raise ResourceLimit("a sweep over the subsets of [m] visits 2^m of them; need m <= 16")


def minimal_nonfaces(k: Complex) -> list[int]:
    """Inclusion-minimal non-faces, sorted by (size, mask): the sets f + {v}
    (f a face, v not in f) that are not faces while every maximal proper
    subset is.  Empty iff k is the full simplex.
    """
    face_set = faces(k)
    bits = [1 << v for v in range(k.m)]
    candidates = {f | b for f in face_set for b in bits} - face_set
    minimal = [c for c in candidates if all(c ^ b in face_set for b in bits if c & b)]
    return sorted(minimal, key=lambda c: (c.bit_count(), c))


def is_flag(k: Complex) -> bool:
    return all(s.bit_count() <= 2 for s in minimal_nonfaces(k))


def is_pure(k: Complex) -> bool:
    return len({f.bit_count() for f in k.facets}) == 1


# ---------------------------------------------------------------------------
# subcomplexes


def compress_mask(mask: int, keep: int) -> int:
    """Re-index ``mask`` through the sorted enumeration of the bits of ``keep``."""
    out = 0
    pos = 0
    while keep:
        low = keep & -keep
        if mask & low:
            out |= 1 << pos
        pos += 1
        keep ^= low
    return out


def link(k: Complex, s: int) -> Complex:
    """Link of the face ``s``, re-indexed to a ground set of size m - |s|:
    new vertex i is the i-th lowest vertex of [m] - s (``compress_mask``)."""
    if not has_face(k, s):
        raise InvalidInput("link requested at a non-face")
    keep = k.full_mask ^ s
    gens = [compress_mask(f ^ s, keep) for f in k.facets if f & s == s]
    return Complex.from_masks(k.m - s.bit_count(), gens)


def full_subcomplex(k: Complex, i: int) -> Complex:
    """K restricted to the vertex subset ``i``, re-indexed to |i| ground
    elements: new vertex j is the j-th lowest vertex of ``i`` (``compress_mask``)."""
    if i & ~k.full_mask:
        raise InvalidInput("subset has a vertex beyond the ground set")
    gens = [compress_mask(f & i, i) for f in k.facets]
    return Complex.from_masks(i.bit_count(), gens)


def drop_ghosts(k: Complex) -> Complex:
    """Full subcomplex on the actual vertex set (ghost ground elements
    removed); ``k`` itself when it has no ghost.  Compressing facets to
    the vertex set keeps them distinct, ascending and an antichain."""
    verts = 0
    for f in k.facets:
        verts |= f
    if verts == k.full_mask:
        return k
    facets = tuple([compress_mask(f, verts) for f in k.facets])
    return Complex.from_antichain(verts.bit_count(), facets)


# ---------------------------------------------------------------------------
# joins, cones, suspensions, stellar subdivisions


def join(k: Complex, l: Complex) -> Complex:
    """Join on the disjoint ground set [m_k] followed by [m_l] shifted by m_k."""
    gens = [fk | (fl << k.m) for fk in k.facets for fl in l.facets]
    return Complex.from_masks(k.m + l.m, gens)


def cone(k: Complex) -> Complex:
    """Join with a single point; the apex is the new last ground element."""
    return join(k, Complex(1, (1,)))


def suspension(k: Complex) -> Complex:
    """Join with two disjoint points (the poles are the two new elements)."""
    return join(k, Complex(2, (1, 2)))


def stellar_subdivision(k: Complex, f: int) -> Complex:
    """Stellar subdivision at the nonempty face ``f``; new vertex is m+1.

    Faces containing f are removed and replaced by the sets
    G + {w} + F' with F' a proper subset of f and G in the link of f.
    """
    if f == 0:
        raise InvalidInput("cannot subdivide the empty face")
    if not has_face(k, f):
        raise InvalidInput("cannot subdivide a non-face")
    w = 1 << k.m
    gens = [g for g in k.facets if g & f != f]
    for g in k.facets:
        if g & f == f:
            rest = g ^ f
            for v in vertices_of(f):
                gens.append(rest | w | (f ^ (1 << (v - 1))))
    return Complex.from_masks(k.m + 1, gens)


# ---------------------------------------------------------------------------
# isomorphism and canonical form


@dataclass(frozen=True)
class Isomorphism:
    """Ground-set bijection; mapping[i-1] is the image of vertex i."""

    mapping: tuple[int, ...]

    def apply(self, mask: int) -> int:
        out = 0
        for v in vertices_of(mask):
            out |= 1 << (self.mapping[v - 1] - 1)
        return out

    def inverse(self) -> "Isomorphism":
        inv = [0] * len(self.mapping)
        for i, im in enumerate(self.mapping):
            inv[im - 1] = i + 1
        return Isomorphism(tuple(inv))


def maps_facets_onto(iso: Isomorphism, k: Complex, l: Complex) -> bool:
    """Check that ``iso`` carries the facets of k exactly onto the facets of l."""
    if k.m != l.m or len(iso.mapping) != k.m:
        return False
    return sorted(iso.apply(f) for f in k.facets) == list(l.facets)


def _refine(colors, facet_verts, vertex_facets) -> list[int]:
    """The coarsest equitable refinement of ``colors`` on the vertex-facet
    incidence.  A facet's color is the multiset of its vertices' colors; a
    vertex's signature is its color plus the multiset of its facets'
    colors.  New colors are ranks of the sorted signatures, so they never
    depend on the labels, and cells keep their relative order.  A discrete
    ``colors`` is already equitable, and the loop would return the ranks of
    its colors."""
    cells = len(set(colors))
    if cells == len(colors):
        rank = {c: i for i, c in enumerate(sorted(colors))}
        return [rank[c] for c in colors]
    while True:
        fcol = [tuple(sorted(map(colors.__getitem__, vs))) for vs in facet_verts]
        sigs = [
            (colors[v], tuple(sorted(map(fcol.__getitem__, fs))))
            for v, fs in enumerate(vertex_facets)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == cells:
            return colors
        cells = len(rank)


def canonical_labeling(k: Complex, colors=None):
    """((m, facet masks), labeling): the least relabeled facet list over the
    leaves of an individualization-refinement search, and the Isomorphism
    from k onto it.

    The search refines to an equitable partition (``_refine``),
    individualizes in turn each vertex of the least-colored cell with more
    than one vertex, and recurses.  A discrete partition relabels vertex v
    as color(v) + 1.  A leaf whose facet list equals the least one so far
    gives an automorphism, and a candidate in the orbit of an already-tried
    one, under the automorphisms found so far that fix the current path, is
    skipped (McKay and Piperno, Practical graph isomorphism II, 2014).

    ``colors`` (one sortable value per vertex) restricts the search to
    color-preserving relabelings, lesser colors taking lesser labels.  The
    facet list does not record the colors, so callers compare forms only
    between inputs whose color classes have the same sizes.
    """
    m = k.m
    facet_verts = [[v - 1 for v in vertices_of(f)] for f in k.facets]
    vertex_facets: list[list[int]] = [[] for _ in range(m)]
    for i, vs in enumerate(facet_verts):
        for v in vs:
            vertex_facets[v].append(i)
    autos: list[list[int]] = []  # automorphisms, 0-based images
    best = None  # (form, labels) of the least leaf

    def leaf(labels):
        nonlocal best
        form = tuple(sorted(sum(1 << labels[v] for v in vs) for vs in facet_verts))
        if best is not None and form == best[0]:
            back = [0] * m
            for v, c in enumerate(best[1]):
                back[c] = v
            autos.append([back[labels[v]] for v in range(m)])
        elif best is None or form < best[0]:
            best = (form, labels)

    def orbit_root(parent, v):
        while parent[v] != v:
            v = parent[v]
        return v

    def search(colors, path):
        colors = _refine(colors, facet_verts, vertex_facets)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            leaf(colors)
            return
        tried: list[int] = []
        parent = list(range(m))  # orbits as a union-find forest
        merged = 0  # autos[:merged] are in the forest
        for v in target:
            for g in autos[merged:]:
                if all(g[u] == u for u in path):
                    for u in range(m):
                        a, b = orbit_root(parent, u), orbit_root(parent, g[u])
                        if a != b:
                            parent[max(a, b)] = min(a, b)
            merged = len(autos)
            if any(orbit_root(parent, v) == orbit_root(parent, u) for u in tried):
                continue
            tried.append(v)
            search([2 * c + (u != v) for u, c in enumerate(colors)], path + [v])

    search([0] * m if colors is None else list(colors), [])
    form, labels = best
    return (m, form), Isomorphism(tuple(c + 1 for c in labels))


def canonical_form(k: Complex) -> tuple[int, tuple[int, ...]]:
    """(m, facet masks), identical for isomorphic complexes and distinct
    otherwise; see ``canonical_labeling``."""
    return canonical_labeling(k)[0]


def are_isomorphic(k: Complex, l: Complex) -> Isomorphism | None:
    """A facet-preserving ground-set bijection, or None: k's canonical
    labeling followed by the inverse of l's."""
    if k.m != l.m:
        return None
    form_k, to_form = canonical_labeling(k)
    form_l, l_to_form = canonical_labeling(l)
    if form_k != form_l:
        return None
    back = l_to_form.inverse().mapping
    return Isomorphism(tuple(back[c - 1] for c in to_form.mapping))


def format_key(m: int, masks) -> str:
    """Key string of a ground-set size and a facet mask list, e.g. '4|3,6,12'."""
    return f"{m}|" + ",".join(str(x) for x in masks)


def canonical_key(k: Complex) -> str:
    return format_key(*canonical_form(k))


# ---------------------------------------------------------------------------
# standard builders


def boundary_simplex(m: int) -> Complex:
    """Boundary of the full simplex on [m]; the void complex when m = 1."""
    if m < 1:
        raise InvalidInput("boundary_simplex needs m >= 1")
    full = (1 << m) - 1
    return Complex.from_masks(m, [full ^ (1 << i) for i in range(m)])


def simplex(m: int) -> Complex:
    if m < 0:
        raise InvalidInput("simplex needs m >= 0")
    return Complex(m, ((1 << m) - 1,))


def cycle(n: int) -> Complex:
    if n < 3:
        raise InvalidInput("cycle needs at least 3 vertices")
    gens = [(1 << i) | (1 << ((i + 1) % n)) for i in range(n)]
    return Complex.from_masks(n, gens)


def points(count: int, m: int) -> Complex:
    """``count`` disjoint points on ground set [m]; the rest are ghosts."""
    if count < 0 or count > m:
        raise InvalidInput("need 0 <= count <= m")
    if count == 0:
        return Complex(m, (0,))
    return Complex.from_masks(m, [1 << i for i in range(count)])


def cross_polytope(n: int) -> Complex:
    """Boundary of the n-dimensional cross-polytope: n-fold join of S^0.

    This is the nerve complex of the n-cube; vertex pairs are (2i-1, 2i).
    """
    if n < 0:
        raise InvalidInput("cross_polytope needs n >= 0")
    if n > 10:
        raise ResourceLimit("cross_polytope builds 2^n facets; need n <= 10")
    out = Complex(0, (0,))
    s0 = Complex(2, (1, 2))
    for _ in range(n):
        out = join(out, s0)
    return out


@lru_cache(maxsize=None)
def nerve_q2_3() -> Complex:
    """Nerve of the cube with two adjacent edge cuts: a flag 2-sphere 8/18/12.

    Fixed choice: subdivide two edges of a common triangle of the
    octahedron (the duals of two cube edges sharing a vertex).
    """
    oct_ = cross_polytope(3)
    k = stellar_subdivision(oct_, mask_of([1, 3]))
    k = stellar_subdivision(k, mask_of([3, 5]))
    return k


def truncation_sphere(m: int, cuts: int) -> Complex:
    """Nerve of the simplex with ``cuts`` of its vertices cut off.

    Built from the boundary of the simplex on [m] by stellar subdivision of
    the facets [m] minus {i} for i = 1..cuts; vertex m+i is the i-th new one.
    """
    if not 0 <= cuts <= m:
        raise InvalidInput("need 0 <= cuts <= m")
    if m + cuts > MAX_GROUND:
        raise ResourceLimit(f"truncation_sphere: need m + cuts <= {MAX_GROUND} vertices")
    k = boundary_simplex(m)
    full = (1 << m) - 1
    for i in range(cuts):
        k = stellar_subdivision(k, full ^ (1 << i))
    return k


# name -> (number of arguments, builder)
_BUILDERS = {
    "boundary-simplex": (1, boundary_simplex),
    "simplex": (1, simplex),
    "cycle": (1, cycle),
    "cross-polytope": (1, cross_polytope),
    "points": (2, points),
    "void": (1, lambda m: Complex(m, (0,))),
    "nerve-q23": (0, nerve_q2_3),
    "truncation-sphere": (2, truncation_sphere),
}


def standard_complex(spec: str) -> Complex:
    """Builder lookup for strings like 'cycle:6', 'points:3,3', 'nerve-q23'.
    A builder takes exactly its own number of arguments, none above
    ``MAX_GROUND``."""
    name, _, argstr = spec.partition(":")
    if name not in _BUILDERS:
        raise InvalidInput(f"unknown builder {name!r}; choose from {sorted(_BUILDERS)}")
    arity, build = _BUILDERS[name]
    try:
        args = [int(a) for a in argstr.split(",") if a]
        if len(args) != arity:
            raise InvalidInput(f"{name!r} takes {arity} arguments")
        if any(n > MAX_GROUND for n in args):
            raise ResourceLimit(f"{spec!r}: need each argument <= {MAX_GROUND}")
        return build(*args)
    except ValueError as exc:
        raise InvalidInput(f"bad arguments for builder {name!r}: {argstr!r}") from exc
