"""Exact linear algebra over the rationals and prime fields.

Matrices are lists of rows; input entries are ints (the boundary matrices
of this package, all built by ``boundary_matrix``, are integer matrices).
Characteristic 0 means the rationals: ranks use fraction-free (Bareiss)
elimination on ints, echelon forms use ``fractions.Fraction``.
Characteristic p works modulo p, with a bitmask fast path for p = 2.  No
floating point anywhere.
"""

from __future__ import annotations

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

# Vectors are lists of Fraction (p = 0) or ints in [0, p).


def to_field(vec, p):
    if p == 0:
        return [Fraction(x) for x in vec]
    return [x % p for x in vec]


def _normalize(vec, lead_col, p):
    lead = vec[lead_col]
    if p == 0:
        return [x / lead for x in vec]
    inv = pow(lead, p - 2, p)
    return [(x * inv) % p for x in vec]


class Echelon:
    """Growing reduced echelon basis of a subspace; supports residuals."""

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def residual(self, vec) -> list:
        """Reduce ``vec`` (ints or field elements) against the basis."""
        v = to_field(vec, self.p)
        p = self.p
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                if p == 0:
                    v = [a - c * b for a, b in zip(v, row)]
                else:
                    v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def add(self, vec) -> list | None:
        """Insert ``vec``; returns the new normalized basis row, or None."""
        v = self.residual(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return None
        v = _normalize(v, piv, self.p)
        for row, rp in zip(self.rows, self.pivots):
            c = row[piv]
            if c:
                if self.p == 0:
                    row[:] = [a - c * b for a, b in zip(row, v)]
                else:
                    row[:] = [(a - c * b) % self.p for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(piv)
        order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return v

    @property
    def dim(self) -> int:
        return len(self.rows)


def nullspace(matrix: list[list[int]], ncols: int, p: int) -> list[list]:
    """Deterministic basis of the right kernel, from the RREF free columns."""
    ech = Echelon(p, ncols)
    for row in matrix:
        ech.add(row)
    pivset = set(ech.pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [Fraction(0) if p == 0 else 0] * ncols
        one = Fraction(1) if p == 0 else 1
        vec[free] = one
        for row, piv in zip(ech.rows, ech.pivots):
            c = row[free]
            if c:
                vec[piv] = -c if p == 0 else (-c) % p
        basis.append(vec)
    return basis
