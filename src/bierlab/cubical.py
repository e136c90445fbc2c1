"""Cubical models: the disc Z(K, K-dual) inside the subdivided cube
[-1,1]^m, its boundary (the canonical cubulation of the Bier sphere), cone
cubulations, exact cellular homology, and the polyhedral-product partition
check on the cube's 2^m corners.

Cells are combinatorial state vectors, one state per coordinate:
fixed at -1, 0 or +1, or spanning [-1,0] or [0,+1].  No floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .complexes import Complex, check_subset_sweep, faces, has_face, vertices_of
from .duality import alexander_dual, bier_sphere
from .errors import InvalidInput, ResourceLimit

FIX_NEG, FIX_ZERO, FIX_POS, SPAN_NEG, SPAN_POS = range(5)

STATE_SYMBOLS = {
    FIX_NEG: "-",
    FIX_ZERO: "0",
    FIX_POS: "+",
    SPAN_NEG: "[-0]",
    SPAN_POS: "[0+]",
}

_ENDPOINTS = {SPAN_NEG: (FIX_NEG, FIX_ZERO), SPAN_POS: (FIX_ZERO, FIX_POS)}

Cell = tuple[int, ...]


def cell_dim(cell: Cell) -> int:
    return sum(1 for s in cell if s in _ENDPOINTS)


def cell_faces(cell: Cell):
    """Codimension-one faces: one spanning coordinate pinned to an endpoint."""
    for i, s in enumerate(cell):
        if s in _ENDPOINTS:
            lower, upper = _ENDPOINTS[s]
            yield cell[:i] + (lower,) + cell[i + 1:]
            yield cell[:i] + (upper,) + cell[i + 1:]


def cell_symbol(cell: Cell) -> str:
    return " ".join(STATE_SYMBOLS[s] for s in cell)


def _closure(top_cells) -> frozenset[Cell]:
    seen: set[Cell] = set()
    stack = list(top_cells)
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        stack.extend(cell_faces(c))
    return frozenset(seen)


@dataclass(frozen=True)
class CubicalComplex:
    """Face-closed set of cells of the subdivided cube [-1,1]^m."""

    m: int
    cells: frozenset[Cell]

    def __post_init__(self):
        for c in self.cells:
            if len(c) != self.m or any(s not in STATE_SYMBOLS for s in c):
                raise InvalidInput(f"bad cell {c}")
            for f in cell_faces(c):
                if f not in self.cells:
                    raise InvalidInput(f"cell set not face-closed at {c}")

    @property
    def dim(self) -> int:
        return max((cell_dim(c) for c in self.cells), default=-1)

    def cells_by_dim(self) -> list[list[Cell]]:
        return linalg.graded(sorted(self.cells), cell_dim)

    def maximal_cells(self) -> list[Cell]:
        covers: set[Cell] = set()
        for c in self.cells:
            covers.update(cell_faces(c))
        return sorted(c for c in self.cells if c not in covers)


# ---------------------------------------------------------------------------
# construction


def z_complex(k: Complex) -> CubicalComplex:
    """The intersection of the two polyhedral products over [-1,1]: union of
    the cells spanned by the Bier triples (face of K, one zero coordinate,
    face of the dual), closed under faces.  A cubulated (m-1)-disc."""
    # 56,705 cells at m = 8, 516,925 at m = 9
    if k.m > 8:
        raise ResourceLimit("z_complex builds exponentially many cells; need m <= 8")
    sphere = bier_sphere(k)
    m = k.m
    tops = []
    for facet in sphere.facets:
        a = facet & k.full_mask
        c = facet >> m
        cell = []
        for i in range(m):
            b = 1 << i
            if a & b:
                cell.append(SPAN_POS)
            elif c & b:
                cell.append(SPAN_NEG)
            else:
                cell.append(FIX_ZERO)
        tops.append(tuple(cell))
    tops.append(tuple([FIX_ZERO] * m))
    return CubicalComplex(m, _closure(tops))


def cell_in_z(cell: Cell, k: Complex, dual: Complex | None = None) -> bool:
    """Membership predicate equivalent to the union-of-triples construction:
    the positive support must be a face of K and the negative support a
    face of the dual."""
    if dual is None:
        dual = alexander_dual(k)
    pos = 0
    neg = 0
    for i, s in enumerate(cell):
        if s in (FIX_POS, SPAN_POS):
            pos |= 1 << i
        elif s in (FIX_NEG, SPAN_NEG):
            neg |= 1 << i
    return has_face(k, pos) and has_face(dual, neg)


def boundary_complex(z: CubicalComplex) -> CubicalComplex:
    """Cells of codimension one lying in exactly one top cell, with all
    their faces.  Requires a pure complex."""
    top = z.dim
    by_dim = z.cells_by_dim()
    top_cells = by_dim[top] if top >= 0 else []
    if _closure(top_cells) != z.cells:
        raise InvalidInput("boundary of a non-pure cubical complex")
    counts: dict[Cell, int] = {}
    for c in top_cells:
        for f in cell_faces(c):
            counts[f] = counts.get(f, 0) + 1
    rim = [f for f, n in counts.items() if n == 1]
    return CubicalComplex(z.m, _closure(rim))


def cone_cubulation(l: Complex) -> CubicalComplex:
    """Union of the cubes [0,1]^tau over the faces tau: cells fix every
    coordinate outside a face of L at 0 and use only 0, +1 and [0,+1]
    states inside it.  Contractible."""
    cells: set[Cell] = set()
    for tau in faces(l):
        idx = [v - 1 for v in vertices_of(tau)]
        for states in itertools.product((FIX_ZERO, FIX_POS, SPAN_POS), repeat=len(idx)):
            cell = [FIX_ZERO] * l.m
            for i, s in zip(idx, states):
                cell[i] = s
            cells.add(tuple(cell))
    return CubicalComplex(l.m, frozenset(cells))


# ---------------------------------------------------------------------------
# cellular homology


def _cell_boundary(cell: Cell):
    """Crossing the k-th spanning coordinate carries sign (-1)^k, with +1 at
    the upper endpoint and -1 at the lower; a vertex bounds the augmentation
    cell ``()``."""
    span_no = 0
    for i, s in enumerate(cell):
        if s in _ENDPOINTS:
            lower, upper = _ENDPOINTS[s]
            sign = -1 if span_no & 1 else 1
            yield cell[:i] + (upper,) + cell[i + 1:], sign
            yield cell[:i] + (lower,) + cell[i + 1:], -sign
            span_no += 1
    if not span_no:
        yield (), 1


def check_cubical_homology(k: Complex | CubicalComplex):
    """Refuse a ground set too large for ``cubical_homology``.  Z(K) and its
    rim live in [-1,1]^m, as K does, so the CLI asks before Z(K) is built."""
    # the rim at m = 6 has 3,578 cells and its dense ranks took minutes
    if k.m > 5:
        raise ResourceLimit("cubical_homology eliminates dense cell matrices; need m <= 5")


def cubical_homology(c: CubicalComplex, p: int = 0) -> list[int]:
    """Reduced cellular homology ranks in degrees 0..dim over Q (p = 0) or
    GF(p).  The augmentation is a cell of degree -1, as the empty face is
    for a simplicial complex."""
    linalg.check_characteristic(p)
    check_cubical_homology(c)
    graded = [[()]] + c.cells_by_dim()
    return linalg.homology_ranks(graded, _cell_boundary, p)[1:]


# ---------------------------------------------------------------------------
# the polyhedral-product partition check


def gw_partition_check(k: Complex) -> tuple[int, ...]:
    """The positive supports at which the product of K with the nonpositive
    interval [-1,0] and the product of the dual with the positive interval
    (0,1] fail to partition [-1,1]^m: ascending masks, empty when they do.

    A point x lies in the first product iff its positive support
    P = {i : x_i > 0} is a face of K, and in the second iff [m] - P is a
    face of the dual.  Both depend on P alone, so the 2^m corners of the
    cube, one for each P, decide every point of it.
    """
    check_subset_sweep(k)
    dual = alexander_dual(k)
    full = k.full_mask
    return tuple(p for p in range(full + 1) if has_face(k, p) == has_face(dual, full ^ p))
