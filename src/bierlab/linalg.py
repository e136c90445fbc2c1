"""Exact linear algebra over the rationals and prime fields.

Matrices are lists of rows; input entries are ints (the boundary matrices
of this package, all built by ``boundary_matrix``, are integer matrices).
Characteristic 0 means the rationals, computed fraction-free on ints:
ranks use Bareiss elimination, and echelon forms keep primitive integer
rows, each a positive multiple of its reduced-row-echelon row.
Characteristic p works modulo p, with a bitmask fast path for p = 2 ranks.
No floating point anywhere; ``Fraction`` appears only in ``rref_row``.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .errors import InvalidInput


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_characteristic(p: int):
    if p != 0 and not is_prime(p):
        raise InvalidInput(f"characteristic must be 0 or prime, got {p}")


def _rank_gf2(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
            rank += 1
    return rank


def _rank_bareiss(matrix: list[list[int]]) -> int:
    a = [row[:] for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                a[r][c] = (a[row][col] * a[r][c] - a[r][col] * a[row][c]) // prev
            a[r][col] = 0
        prev = a[row][col]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def _rank_modp(matrix: list[list[int]], p: int) -> int:
    a = [[x % p for x in row] for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], p - 2, p)
        arow = a[row]
        for r in range(row + 1, nrows):
            f = a[r][col]
            if f:
                f = (f * inv) % p
                rrow = a[r]
                for c in range(col, ncols):
                    rrow[c] = (rrow[c] - f * arow[c]) % p
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def rank(matrix: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over Q (p = 0) or GF(p)."""
    if not matrix or not matrix[0]:
        return 0
    if p == 0:
        return _rank_bareiss(matrix)
    if p == 2:
        ncols = len(matrix[0])
        rows = []
        for row in matrix:
            bits = 0
            for j, x in enumerate(row):
                if x & 1:
                    bits |= 1 << j
            rows.append(bits)
        return _rank_gf2(rows)
    return _rank_modp(matrix, p)


# ---------------------------------------------------------------------------
# chain complexes: every boundary matrix and homology rank goes through here


def graded(cells, degree) -> list[list]:
    """``cells`` grouped by ``degree(cell)``, lowest first: entry d lists the
    cells of degree d in their input order, from degree 0 to the top."""
    out: list[list] = []
    for cell in cells:
        d = degree(cell)
        while len(out) <= d:
            out.append([])
        out[d].append(cell)
    return out


def boundary_matrix(cells, faces, boundary) -> list[list[int]]:
    """Dense integer matrix of a boundary map, one row per face and one
    column per cell.  ``boundary(cell)`` yields (face, sign) pairs; repeated
    pairs accumulate."""
    rows = {face: [0] * len(cells) for face in faces}
    for col, cell in enumerate(cells):
        for face, sign in boundary(cell):
            rows[face][col] += sign
    return list(rows.values())


def homology_ranks(graded, boundary, p: int) -> list[int]:
    """Homology ranks over Q (p = 0) or GF(p) of the chain complex whose
    cells in degree d are ``graded[d]``, lowest degree first: entry d is
    n_d - r_d - r_{d+1}, with r_d the rank of the boundary out of degree d.
    A rank is taken only between two nonempty degrees."""
    r = [0] * (len(graded) + 1)
    for d in range(1, len(graded)):
        if graded[d] and graded[d - 1]:
            r[d] = rank(boundary_matrix(graded[d], graded[d - 1], boundary), p)
    return [len(cells) - r[d] - r[d + 1] for d, cells in enumerate(graded)]


# ---------------------------------------------------------------------------
# echelon machinery for representatives and span membership

# Vectors are lists of ints: primitive integer rows over the rationals
# (p = 0), residues in [0, p) over GF(p).


def to_field(vec, p):
    """Ints for the echelon: over the rationals a positive multiple of
    ``vec`` clearing its denominators, over GF(p) its residues."""
    if p == 0:
        d = math.lcm(*(x.denominator for x in vec))
        return [x.numerator * (d // x.denominator) for x in vec]
    return [x % p for x in vec]


def _normalize(vec, lead_col, p):
    """The canonical multiple of ``vec``: pivot 1 over GF(p); over the
    rationals the primitive integer row (entries of gcd 1), pivot positive."""
    lead = vec[lead_col]
    if p == 0:
        g = math.gcd(*vec)
        return [x // g for x in vec] if lead > 0 else [-x // g for x in vec]
    if lead == 1:
        return vec
    inv = pow(lead, p - 2, p)
    return [(x * inv) % p for x in vec]


def rref_row(row, p) -> tuple:
    """An echelon row scaled to its reduced-row-echelon row, pivot 1."""
    if p:
        return tuple(row)
    lead = next(x for x in row if x)
    return tuple(Fraction(x, lead) for x in row)


class Echelon:
    """Growing reduced echelon basis of a subspace; supports residuals.

    Each row is zero at every other row's pivot, and a row's pivot is its
    first nonzero entry.  Over GF(p) the rows are the reduced row echelon
    form itself.  Over the rationals they are fraction-free: each is the
    primitive integer multiple (pivot positive) of its reduced row, and a
    vector v is cleared at a row's pivot by v <- (a/g) v - (c/g) row, with
    a the row's pivot entry, c that of v and g = gcd(a, c).
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _clear(self, v, row, piv) -> list[int]:
        """``v`` minus a multiple of ``row``, zero at ``row``'s pivot ``piv``;
        over the rationals ``v`` is first scaled by a positive integer."""
        c = v[piv]
        if self.p:
            return [(x - c * y) % self.p for x, y in zip(v, row)]
        a = row[piv]
        g = math.gcd(a, c)
        a //= g
        c //= g
        return [a * x - c * y for x, y in zip(v, row)]

    def residual(self, vec) -> list[int]:
        """Reduce ``vec`` against the basis: the residual over GF(p), a
        positive integer multiple of it over the rationals."""
        v = to_field(vec, self.p)
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                v = self._clear(v, row, piv)
        return v

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def add(self, vec) -> list[int] | None:
        """Insert ``vec``; returns the new basis row, or None.  Later adds
        keep the returned row reduced in place."""
        v = self.residual(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return None
        v = _normalize(v, piv, self.p)
        for row, rp in zip(self.rows, self.pivots):
            if row[piv]:
                row[:] = _normalize(self._clear(row, v, piv), rp, self.p)
        at = bisect.bisect(self.pivots, piv)
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return v

    @property
    def dim(self) -> int:
        return len(self.rows)


def nullspace(matrix: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Deterministic basis of the right kernel, one vector per free column
    of the RREF: over GF(p) the RREF kernel vector (1 at its free column),
    over the rationals a positive integer multiple of it."""
    ech = Echelon(p, ncols)
    for row in matrix:
        ech.add(row)
    pivset = set(ech.pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        hits = [(row, piv) for row, piv in zip(ech.rows, ech.pivots) if row[free]]
        # over GF(p) every pivot is 1, and so is the scale
        scale = math.lcm(*(row[piv] for row, piv in hits))
        vec = [0] * ncols
        vec[free] = scale
        for row, piv in hits:
            vec[piv] = -row[free] * (scale // row[piv])
        basis.append([x % p for x in vec] if p else vec)
    return basis
