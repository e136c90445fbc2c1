import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bierlab import linalg

# the CW structure of the real projective plane: one cell in each of
# degrees 0, 1 and 2, with d(e1) = v - v = 0 and d(e2) = 2 e1
RP2_CELLS = [["v"], ["e1"], ["e2"]]


def rp2_boundary(cell):
    if cell == "e1":
        yield "v", 1
        yield "v", -1
    elif cell == "e2":
        yield "e1", 1
        yield "e1", 1


def test_graded_keeps_the_input_order_and_the_empty_degrees():
    words = ["bb", "a", "cc", "dddd", "e", "aa"]
    assert linalg.graded(words, len) == [[], ["a", "e"], ["bb", "cc", "aa"], [], ["dddd"]]
    assert linalg.graded([], len) == []


def test_boundary_matrix_accumulates_repeated_faces():
    assert linalg.boundary_matrix(["e1"], ["v"], rp2_boundary) == [[0]]
    assert linalg.boundary_matrix(["e2"], ["e1"], rp2_boundary) == [[2]]
    assert linalg.boundary_matrix([], ["v"], rp2_boundary) == [[]]


def test_homology_ranks_of_a_cw_complex_with_a_coefficient_two_boundary():
    assert linalg.homology_ranks(RP2_CELLS, rp2_boundary, 0) == [1, 0, 0]
    assert linalg.homology_ranks(RP2_CELLS, rp2_boundary, 3) == [1, 0, 0]
    assert linalg.homology_ranks(RP2_CELLS, rp2_boundary, 2) == [1, 1, 1]


def test_homology_ranks_skips_empty_degrees(monkeypatch):
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda *a: calls.append(a) or real(*a))
    assert linalg.homology_ranks([["v"], [], ["e2"]], rp2_boundary, 0) == [1, 0, 1]
    assert linalg.homology_ranks([], rp2_boundary, 0) == []
    assert calls == []


def rref_oracle(matrix, ncols, p):
    """Reduced row echelon form and pivots by plain Gauss-Jordan
    elimination: Fractions over the rationals, residues over GF(p)."""
    field = Fraction if p == 0 else (lambda x: x % p)
    rows = [[field(x) for x in row] for row in matrix]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        lead = rows[r][col]
        inv = 1 / lead if p == 0 else pow(lead, p - 2, p)
        rows[r] = [field(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c:
                rows[i] = [field(x - c * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return [tuple(row) for row in rows[: len(pivots)]], pivots


@st.composite
def small_matrices(draw):
    """(p, ncols, rows, probe): a matrix up to 6 x 8 with entries in
    [-3, 3], and a vector that is either random or in its row span."""
    p = draw(st.sampled_from([0, 2, 3]))
    ncols = draw(st.integers(1, 8))
    entries = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(entries, max_size=6))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        probe = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
    else:
        probe = draw(entries)
    return p, ncols, rows, probe


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_echelon_and_nullspace_match_gauss_jordan(case):
    p, ncols, rows, probe = case
    rref, pivots = rref_oracle(rows, ncols, p)
    ech = linalg.Echelon(p, ncols)
    for row in rows:
        ech.add(row)
    assert ech.pivots == pivots
    # each row scaled to pivot 1 is its reduced-row-echelon row
    assert [tuple(Fraction(x, row[piv]) if p == 0 else x for x in row)
            for row, piv in zip(ech.rows, ech.pivots)] == rref
    for row, piv in zip(ech.rows, ech.pivots):
        assert all(type(x) is int for x in row)
        if p == 0:
            # primitive integer rows with a positive pivot
            assert row[piv] > 0 and math.gcd(*row) == 1
    rank = linalg.rank(rows, p)
    assert ech.dim == rank
    assert ech.contains(probe) == (linalg.rank(rows + [probe], p) == rank)

    kernel = linalg.nullspace(rows, ncols, p)
    assert len(kernel) == ncols - rank
    free = [j for j in range(ncols) if j not in pivots]
    for vec, col in zip(kernel, free):
        for row in rows:
            dot = sum(a * b for a, b in zip(row, vec))
            assert (dot % p if p else dot) == 0
        # a positive integer multiple of the RREF kernel vector at ``col``
        assert vec[col] > 0 and all(type(x) is int for x in vec)
        expected = [0] * ncols
        expected[col] = 1
        for row, piv in zip(rref, pivots):
            expected[piv] = -row[col] % p if p else -row[col]
        if p == 0:
            vec = [x / Fraction(vec[col]) for x in vec]
        assert vec == expected
