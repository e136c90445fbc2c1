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
