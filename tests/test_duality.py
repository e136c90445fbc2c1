import pytest

from bierlab import complexes
from bierlab.census import enumerate_complexes
from bierlab.complexes import (
    Complex,
    are_isomorphic,
    boundary_simplex,
    cone,
    cross_polytope,
    cycle,
    drop_ghosts,
    is_flag,
    make_complex,
    mask_of,
    maps_facets_onto,
    minimal_nonfaces,
    nerve_q2_3,
    points,
    simplex,
    suspension,
    truncation_sphere,
)
from bierlab.duality import (
    alexander_dual,
    bier_minimal_nonfaces,
    bier_nonface_generators,
    bier_sphere,
    classify_bier,
    match_flag_family,
    match_truncation_family,
    reference_flag_sphere,
    swap_isomorphism,
    FlagKind,
)
from bierlab.errors import InvalidInput, UndefinedDual
from bierlab.tor import GF2, QQ, golod_summary


def census(m):
    return enumerate_complexes(m, up_to_iso=True, include_simplex=False)


def classify(k):
    return classify_bier(k, drop_ghosts(bier_sphere(k)))


def test_dual_of_path_is_single_point():
    k = make_complex(3, [[1, 2], [2, 3]])
    assert alexander_dual(k) == make_complex(3, [[2]])


def test_three_points_self_dual():
    k = points(3, 3)
    assert alexander_dual(k) == k


def test_dual_is_involutive_on_census():
    for m in range(1, 6):
        for k in census(m):
            assert alexander_dual(alexander_dual(k)) == k


def test_full_simplex_has_no_dual():
    with pytest.raises(UndefinedDual):
        alexander_dual(simplex(3))
    with pytest.raises(UndefinedDual):
        bier_sphere(simplex(3))


def test_bier_of_three_points_is_the_hexagon():
    b = bier_sphere(points(3, 3))
    # facets {1,2'},{3,2'},{3,1'},{2,1'},{2,3'},{1,3'} with i' = 3 + i
    expected = make_complex(
        6, [[1, 5], [3, 5], [3, 4], [2, 4], [2, 6], [1, 6]]
    )
    assert b == expected


def test_bier_of_path_is_a_square():
    b = bier_sphere(make_complex(3, [[1, 2], [2, 3]]))
    assert are_isomorphic(drop_ghosts(b), cycle(4)) is not None


def test_bier_of_point_and_segment_is_a_pentagon():
    b = bier_sphere(make_complex(3, [[1], [2, 3]]))
    assert are_isomorphic(drop_ghosts(b), cycle(5)) is not None


def test_bier_dimension_and_facet_criterion_on_census():
    for m in range(1, 6):
        for k in census(m):
            b = bier_sphere(k)
            assert b.dim == m - 2
            assert b == bier_sphere(k, brute=True)
            if b.facets != (0,):
                for facet in b.facets:
                    left = facet & k.full_mask
                    right = facet >> m
                    assert left.bit_count() + right.bit_count() == m - 1


def test_bier_sphere_makes_no_pairwise_facet_check(monkeypatch):
    # its facets are distinct and all have m - 1 vertices, so they are an
    # antichain; the pairwise check took about 10 s on these 10,206
    k = cross_polytope(7)
    checked = []
    monkeypatch.setattr(complexes, "check_antichain", lambda *args: checked.append(args))
    sphere = bier_sphere(k)
    assert len(sphere.facets) == 10206 and sphere.dim == 12
    assert checked == []


def test_bier_minimal_nonfaces_of_three_points():
    k = points(3, 3)
    got = bier_minimal_nonfaces(k)
    assert len(got) == 9  # all non-edges of the hexagon: C(6,2) - 6
    assert got == minimal_nonfaces(bier_sphere(k))


def test_bier_minimal_nonfaces_of_simplex_boundary():
    # dual is the void complex, whose ghost elements show up as primed
    # singleton non-faces; they absorb the pairs {i, i'}
    k = boundary_simplex(3)
    got = bier_minimal_nonfaces(k)
    assert got == [mask_of([4]), mask_of([5]), mask_of([6]), mask_of([1, 2, 3])]
    assert got == minimal_nonfaces(bier_sphere(k))


def test_bier_nonface_generators_can_be_redundant():
    k = boundary_simplex(3)
    raw = bier_nonface_generators(k)
    assert len(raw) > len(bier_minimal_nonfaces(k))


def test_bier_minimal_nonfaces_match_on_census():
    for m in range(1, 6):
        for k in census(m):
            b = bier_sphere(k)
            assert b.dim == m - 2
            assert bier_minimal_nonfaces(k) == minimal_nonfaces(b)


def test_swap_isomorphism():
    iso = swap_isomorphism(points(3, 3))  # self-dual: an automorphism
    b = bier_sphere(points(3, 3))
    assert maps_facets_onto(iso, b, b)
    k = make_complex(3, [[1, 2], [2, 3]])
    iso = swap_isomorphism(k)
    assert maps_facets_onto(iso, bier_sphere(k), bier_sphere(alexander_dual(k)))
    for m in range(1, 5):
        for k in census(m):
            swap_isomorphism(k)  # verifies internally


def test_flagness_equivalence_on_census():
    for m in range(1, 6):
        for k in census(m):
            dual = alexander_dual(k)
            assert is_flag(bier_sphere(k)) == (is_flag(k) and is_flag(dual))


def test_suspension_identity_small():
    for k in [points(2, 2), make_complex(3, [[1, 2], [2, 3]]), points(3, 3)]:
        lhs = bier_sphere(cone(k))
        rhs = suspension(bier_sphere(k))
        assert are_isomorphic(lhs, rhs) is not None


def test_ghost_convention_cases_give_isomorphic_spheres():
    # a point and a ghost vertex vs two disjoint points
    b1 = bier_sphere(points(1, 2))
    b2 = bier_sphere(points(2, 2))
    assert are_isomorphic(b1, b2) is not None
    # chain on four vertices vs cycle on four vertices
    chain = make_complex(4, [[1, 2], [2, 3], [3, 4]])
    b5 = bier_sphere(chain)
    b6 = bier_sphere(cycle(4))
    assert are_isomorphic(drop_ghosts(b5), drop_ghosts(b6)) is not None


def test_classify_simplex():
    cls = classify(boundary_simplex(4))
    assert cls.simplex and cls.tags == ("simplex",)
    # the void complex is the dual side of the same class
    cls = classify(Complex(4, (0,)))
    assert cls.simplex


def test_classify_three_points_has_both_tags():
    cls = classify(points(3, 3))
    assert cls.golod_points == 3
    assert cls.flag_kind == FlagKind("cube_x_p6", 0)
    assert set(cls.tags) == {"golod-family(3)", "flag-family(cube_x_p6, n=0)"}


def test_classify_two_disjoint_edges():
    k = make_complex(4, [[1, 2], [3, 4]])
    dual = alexander_dual(k)
    assert is_flag(k) and is_flag(dual)
    cls = classify(k)
    assert cls.flag and cls.flag_kind is not None


def test_classify_requires_m_at_least_three():
    with pytest.raises(InvalidInput):
        classify(points(2, 2))


def test_reference_families_are_flag_spheres():
    kinds = [
        FlagKind("cube", 2),
        FlagKind("cube", 3),
        FlagKind("cube_x_p5", 1),
        FlagKind("cube_x_p6", 1),
        FlagKind("cube_x_q23", 0),
        FlagKind("cube_x_q23", 1),
    ]
    for kind in kinds:
        ref = reference_flag_sphere(kind)
        assert is_flag(ref)
        assert match_flag_family(ref) == kind


def test_match_flag_family_separates_equal_f_vectors():
    # the suspended hexagon and the two-cut cube nerve share (1,8,18,12)
    a = suspension(cycle(6))
    b = nerve_q2_3()
    assert match_flag_family(a) == FlagKind("cube_x_p6", 1)
    assert match_flag_family(b) == FlagKind("cube_x_q23", 0)


def test_bier_of_points_is_the_truncation_nerve():
    for m, cuts in [(3, 1), (3, 2), (3, 3), (4, 2), (4, 4)]:
        sphere = drop_ghosts(bier_sphere(points(cuts, m)))
        assert are_isomorphic(sphere, truncation_sphere(m, cuts)) is not None


def test_edge_plus_ghost_is_a_truncation_nerve_outside_the_points_family():
    # K = <{2,3}> on [3] is its own Alexander dual; its Bier sphere is the
    # 4-gon {2,3},{3,2'},{2',3'},{3',2} (with i' = 3 + i), on which 1 and 1'
    # are ghosts
    k = make_complex(3, [[2, 3]])
    assert alexander_dual(k) == k
    b = bier_sphere(k)
    assert b == make_complex(6, [[2, 3], [3, 5], [5, 6], [2, 6]])
    sphere = drop_ghosts(b)
    assert are_isomorphic(sphere, cycle(4)) is not None
    # the square is the nerve of the triangle with one vertex cut off, and of
    # the 2-cube
    assert are_isomorphic(sphere, truncation_sphere(3, 1)) is not None
    assert are_isomorphic(sphere, cross_polytope(2)) is not None
    assert match_truncation_family(sphere) == 1
    for tag in (QQ, GF2):
        assert golod_summary(sphere, tag) == (False, True)
    # minimally non-Golod, yet neither K nor its dual is a set of points
    assert classify_bier(k, sphere).golod_points is None


def test_match_truncation_family():
    for m, cuts in [(3, 0), (3, 2), (4, 1), (4, 4), (5, 3)]:
        assert match_truncation_family(truncation_sphere(m, cuts)) == cuts
    assert match_truncation_family(cycle(5)) == 2
    assert match_truncation_family(cross_polytope(3)) is None
    assert match_truncation_family(nerve_q2_3()) is None
