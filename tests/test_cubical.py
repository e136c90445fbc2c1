import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bierlab import cubical
from bierlab.census import enumerate_complexes, verify
from bierlab.complexes import Complex, cycle, has_face, make_complex, minimal_nonfaces, points
from bierlab.cubical import (
    FIX_NEG,
    FIX_POS,
    FIX_ZERO,
    SPAN_NEG,
    SPAN_POS,
    CubicalComplex,
    boundary_complex,
    cell_dim,
    cell_in_z,
    cell_symbol,
    cone_cubulation,
    cubical_homology,
    gw_partition_check,
    z_complex,
)
from bierlab.duality import alexander_dual, bier_sphere
from bierlab.errors import InvalidInput, ResourceLimit


def test_z_complex_of_three_points_is_six_squares():
    z = z_complex(points(3, 3))
    tops = z.maximal_cells()
    assert len(tops) == 6
    assert all(cell_dim(c) == 2 for c in tops)


def test_boundary_of_the_six_squares_is_a_cubulated_hexagon():
    z = z_complex(points(3, 3))
    rim = boundary_complex(z)
    assert sum(1 for c in rim.cells if cell_dim(c) == 0) == 12
    assert sum(1 for c in rim.cells if cell_dim(c) == 1) == 12
    assert cubical_homology(rim) == [0, 1]


def test_z_complex_of_path_is_four_squares():
    k = make_complex(3, [[1, 2], [2, 3]])
    z = z_complex(k)
    assert len(z.maximal_cells()) == len(bier_sphere(k).facets) == 4
    rim = boundary_complex(z)
    assert sum(1 for c in rim.cells if cell_dim(c) == 0) == 8
    assert sum(1 for c in rim.cells if cell_dim(c) == 1) == 8


def test_z_complex_is_contractible():
    for k in [points(3, 3), make_complex(3, [[1, 2], [2, 3]]), cycle(4)]:
        assert not any(cubical_homology(z_complex(k)))


def test_cell_membership_predicate():
    k = points(3, 3)
    z = z_complex(k)
    for cell in z.cells:
        assert cell_in_z(cell, k)
    assert not cell_in_z((SPAN_POS, SPAN_POS, FIX_ZERO), k)  # {1,2} not a face


def test_cone_cubulation_of_point_is_a_segment():
    c = cone_cubulation(Complex(1, (1,)))
    assert c.cells == frozenset({(FIX_ZERO,), (FIX_POS,), (SPAN_POS,)})
    assert not any(cubical_homology(c))


def test_cone_cubulation_of_square():
    c = cone_cubulation(cycle(4))
    assert sum(1 for cell in c.cells if cell_dim(cell) == 2) == 4
    assert len(c.cells) == 25
    assert not any(cubical_homology(c))


def test_cubical_homology_over_prime_fields():
    rim = boundary_complex(z_complex(points(3, 3)))
    assert cubical_homology(rim, 2) == [0, 1]
    assert cubical_homology(rim, 3) == [0, 1]


def test_boundary_rejects_non_pure_complexes():
    square = (SPAN_POS, SPAN_POS)
    stray = (FIX_NEG, SPAN_NEG)
    cells = set()
    stack = [square, stray]
    from bierlab.cubical import cell_faces

    while stack:
        c = stack.pop()
        if c not in cells:
            cells.add(c)
            stack.extend(cell_faces(c))
    z = CubicalComplex(2, frozenset(cells))
    with pytest.raises(InvalidInput):
        boundary_complex(z)


def test_cubical_complex_must_be_face_closed():
    with pytest.raises(InvalidInput):
        CubicalComplex(1, frozenset({(SPAN_POS,)}))


def test_cell_symbols():
    assert cell_symbol((FIX_NEG, FIX_ZERO, FIX_POS, SPAN_NEG, SPAN_POS)) == (
        "- 0 + [-0] [0+]"
    )


def test_gw_partition_check_refuses_a_large_ground_set_before_sweeping(monkeypatch):
    def no_work(k):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cubical, "alexander_dual", no_work)
    with pytest.raises(ResourceLimit):
        gw_partition_check(points(3, 17))


def cells_by_dim_oracle(c: CubicalComplex) -> list[list]:
    """Each dimension's cells, sorted: one pass over the cells, then a
    sort per dimension."""
    out = [[] for _ in range(c.dim + 1)]
    for cell in c.cells:
        out[cell_dim(cell)].append(cell)
    for lst in out:
        lst.sort()
    return out


def test_cells_by_dim_matches_a_per_dimension_sort():
    for m in (1, 2, 3):
        for k in enumerate_complexes(m, include_simplex=False):
            z = z_complex(k)
            for c in (z, boundary_complex(z)):
                assert c.cells_by_dim() == cells_by_dim_oracle(c)
    empty = CubicalComplex(2, frozenset())
    assert empty.cells_by_dim() == cells_by_dim_oracle(empty) == []


def test_z_complex_refuses_a_large_ground_set_before_building(monkeypatch):
    def no_work(k):
        raise AssertionError("the construction started")

    monkeypatch.setattr(cubical, "bier_sphere", no_work)
    with pytest.raises(ResourceLimit):
        z_complex(points(3, 9))


def test_cubical_homology_refuses_a_large_ground_set_before_eliminating(monkeypatch):
    def no_work(self):
        raise AssertionError("the elimination started")

    vertex = CubicalComplex(6, frozenset({(FIX_ZERO,) * 6}))
    monkeypatch.setattr(CubicalComplex, "cells_by_dim", no_work)
    with pytest.raises(ResourceLimit):
        cubical_homology(vertex)


@pytest.mark.parametrize("p", [4, 9])
def test_cubical_homology_refuses_a_characteristic_that_is_not_prime(p):
    rim = boundary_complex(z_complex(points(3, 3)))
    with pytest.raises(InvalidInput):
        cubical_homology(rim, p)


def test_gw_partition_check_counts(monkeypatch):
    assert gw_partition_check(points(3, 3)) == ()
    # a dual missing the vertex 1: the corner (-1, +1, +1) has positive
    # support {2, 3}, not a face of K, and negative support {1}, not a face
    # of the planted dual, so it lies in neither product
    monkeypatch.setattr(cubical, "alexander_dual", lambda k: make_complex(3, [[2], [3]]))
    assert gw_partition_check(points(3, 3)) == (0b110,)


def grid_oracle(k: Complex, dual: Complex) -> tuple:
    """The partition check as it once ran: every point of the rational grid
    of resolution 4 plus 128 seeded random rational points, a zero
    coordinate counted on the K side.  The grid holds every corner, so the
    positive supports of its violations, ascending, are all of them."""
    resolution = 4
    axis = [Fraction(2 * t - resolution, resolution) for t in range(resolution + 1)]
    rng = random.Random(0)
    q = 2 * resolution + 1
    randoms = [
        tuple(Fraction(rng.randint(-q, q), q) for _ in range(k.m))
        for _ in range(128)
    ]
    supports = set()
    for point in itertools.chain(itertools.product(axis, repeat=k.m), randoms):
        positive = sum(1 << i for i, xi in enumerate(point) if xi > 0)
        in_k = has_face(k, positive)
        in_dual = has_face(dual, sum(1 << i for i, xi in enumerate(point) if xi <= 0))
        if in_k == in_dual:
            supports.add(positive)
    return tuple(sorted(supports))


def assert_corners_match_the_grid(k: Complex, dual: Complex) -> None:
    """The corner sweep, handed ``dual`` as the Alexander dual, against the
    grid oracle; the products partition the cube iff ``dual`` is the dual."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubical, "alexander_dual", lambda _k: dual)
        violations = gw_partition_check(k)
    assert violations == grid_oracle(k, dual)
    assert bool(violations) == (dual != alexander_dual(k))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.integers(0, (1 << m) - 2), max_size=6),
    st.integers(0, (1 << m) - 1),
)))
def test_corner_sweep_matches_the_grid_on_true_and_planted_duals(case):
    m, gens, extra = case
    k = Complex.from_masks(m, gens)
    dual = alexander_dual(k)
    assert_corners_match_the_grid(k, dual)
    assert_corners_match_the_grid(k, Complex.from_masks(m, dual.facets[1:]))
    assert_corners_match_the_grid(k, Complex.from_masks(m, dual.facets + (extra,)))


def test_corner_sweep_matches_the_grid_on_the_census():
    for m in (1, 2, 3, 4):
        for k in enumerate_complexes(m, include_simplex=False):
            dual = alexander_dual(k)
            assert_corners_match_the_grid(k, dual)
            for i in range(len(dual.facets)):
                dropped = dual.facets[:i] + dual.facets[i + 1:]
                assert_corners_match_the_grid(k, Complex.from_masks(m, dropped))
            for s in minimal_nonfaces(dual):
                assert_corners_match_the_grid(k, Complex.from_masks(m, dual.facets + (s,)))


def test_a_wrong_dual_gives_a_gw_report_that_json_can_write(monkeypatch):
    def wrong_dual(k):
        dual = alexander_dual(k)
        return Complex.from_masks(k.m, dual.facets[1:])

    monkeypatch.setattr(cubical, "alexander_dual", wrong_dual)
    report = verify("gw-duality")
    assert not report.ok
    written = json.loads(json.dumps(report.to_dict()))
    assert written["counterexamples"][0]["violations"]
