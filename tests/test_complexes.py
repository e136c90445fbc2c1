import functools
import itertools
import operator

import pytest

from bierlab.census import all_labeled_complexes
from bierlab.complexes import (
    Complex,
    are_isomorphic,
    boundary_simplex,
    canonical_key,
    compress_mask,
    cone,
    cross_polytope,
    cycle,
    deletion,
    drop_ghosts,
    euler_characteristic,
    f_vector_counts,
    faces,
    full_subcomplex,
    has_face,
    index_map,
    is_flag,
    is_pure,
    join,
    link,
    make_complex,
    mask_of,
    maps_facets_onto,
    minimal_nonfaces,
    nerve_q2_3,
    points,
    simplex,
    standard_complex,
    stellar_subdivision,
    suspension,
    truncation_sphere,
    vertices_of,
)
from bierlab.errors import InvalidInput
from conftest import random_complex


def masks(vertex_lists):
    return [mask_of(v) for v in vertex_lists]


def test_make_complex_removes_dominated_generators():
    k = make_complex(3, [[1, 2], [2], [2, 3]])
    assert k.facet_sets() == [(1, 2), (2, 3)]


def test_make_complex_four_cycle():
    k = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert k == cycle(4)
    # its non-edges are the two diagonals
    assert minimal_nonfaces(k) == masks([[1, 3], [2, 4]])


def test_make_complex_void():
    assert make_complex(3, [[]]) == Complex(3, (0,))
    assert make_complex(3, []) == Complex(3, (0,))


def test_make_complex_rejects_out_of_range_generator():
    with pytest.raises(InvalidInput):
        Complex.from_masks(2, [0b100])


def test_facets_must_be_antichain():
    with pytest.raises(InvalidInput):
        Complex(3, (0b001, 0b011))


def test_from_antichain_checks_the_ground_set():
    assert Complex.from_antichain(3, (0b011, 0b110)) == Complex(3, (0b011, 0b110))
    with pytest.raises(InvalidInput, match="beyond ground set"):
        Complex.from_antichain(2, (0b001, 0b100))


def test_drop_ghosts_returns_a_ghost_free_complex_itself():
    for k in (cycle(5), cross_polytope(3), Complex(0, (0,))):
        assert drop_ghosts(k) is k
    assert drop_ghosts(points(2, 4)) == points(2, 2)


def test_drop_ghosts_is_the_full_subcomplex_on_the_vertex_set():
    for m in range(5):
        for k in all_labeled_complexes(m):
            verts = functools.reduce(operator.or_, k.facets)
            assert drop_ghosts(k) == full_subcomplex(k, verts), k


def test_has_face():
    k = cycle(4)
    assert not has_face(k, mask_of([1, 3]))
    assert has_face(k, mask_of([1, 2]))
    assert has_face(k, 0)
    with pytest.raises(InvalidInput):
        has_face(k, 1 << 10)


def test_minimal_nonfaces_five_cycle():
    got = minimal_nonfaces(cycle(5))
    assert got == masks([[1, 3], [1, 4], [2, 4], [2, 5], [3, 5]])


def test_minimal_nonfaces_boundary_simplex():
    assert minimal_nonfaces(boundary_simplex(3)) == [mask_of([1, 2, 3])]


def test_minimal_nonfaces_void():
    assert minimal_nonfaces(Complex(3, (0,))) == masks([[1], [2], [3]])


def test_minimal_nonfaces_empty_for_simplex():
    assert minimal_nonfaces(simplex(4)) == []


def test_link_of_vertex_in_four_cycle():
    lk = link(cycle(4), mask_of([1]))
    # ground set {2,3,4} re-indexed; neighbors 2 and 4 become 1 and 3
    assert lk == make_complex(3, [[1], [3]])
    assert index_map(mask_of([2, 3, 4])) == {1: 2, 2: 3, 3: 4}


def test_link_of_empty_face_is_the_complex():
    k = make_complex(3, [[1, 2], [2, 3]])
    assert link(k, 0) == k


def test_link_of_nonface_rejected():
    with pytest.raises(InvalidInput):
        link(cycle(4), mask_of([1, 3]))


def test_full_subcomplex_of_diagonal():
    sub = full_subcomplex(cycle(4), mask_of([1, 3]))
    assert sub == points(2, 2)


def test_deletion_is_full_subcomplex_on_rest():
    k = cycle(4)
    assert deletion(k, 2) == full_subcomplex(k, mask_of([1, 3, 4]))


def test_join_of_two_spheres_is_square():
    s0 = points(2, 2)
    assert are_isomorphic(join(s0, s0), cycle(4)) is not None


def test_cone_over_two_points_is_path():
    k = cone(points(2, 2))
    assert k == make_complex(3, [[1, 3], [2, 3]])


def test_suspension_of_square_is_octahedron():
    assert are_isomorphic(suspension(cycle(4)), cross_polytope(3)) is not None


def test_flag_pure_dim():
    assert not is_flag(boundary_simplex(3))
    k = cycle(4)
    assert is_flag(k) and is_pure(k) and k.dim == 1
    assert not is_pure(make_complex(3, [[1], [2, 3]]))


def test_stellar_subdivision_of_triangle_edge():
    k = stellar_subdivision(boundary_simplex(3), mask_of([1, 2]))
    assert are_isomorphic(k, cycle(4)) is not None
    assert k.m == 4


def test_stellar_subdivision_of_facet_is_vertex_cut():
    k = stellar_subdivision(boundary_simplex(4), mask_of([1, 2, 3]))
    assert are_isomorphic(k, truncation_sphere(4, 1)) is not None


def test_stellar_subdivision_rejects_nonface_and_empty():
    with pytest.raises(InvalidInput):
        stellar_subdivision(cycle(4), mask_of([1, 3]))
    with pytest.raises(InvalidInput):
        stellar_subdivision(cycle(4), 0)


def test_nerve_q2_3_counts():
    k = nerve_q2_3()
    assert f_vector_counts(k) == (1, 8, 18, 12)
    assert euler_characteristic(k) == 2
    assert is_flag(k)


def test_are_isomorphic_relabeled_four_cycles():
    a = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    b = make_complex(4, [[1, 3], [3, 2], [2, 4], [1, 4]])
    iso = are_isomorphic(a, b)
    assert iso is not None
    assert maps_facets_onto(iso, a, b)


def test_are_isomorphic_distinguishes_cycles():
    assert are_isomorphic(cycle(4), cycle(5)) is None


def test_ghosts_map_to_ghosts():
    a = make_complex(3, [[1, 2]])  # ghost 3
    b = make_complex(3, [[2, 3]])  # ghost 1
    iso = are_isomorphic(a, b)
    assert iso is not None
    assert iso.mapping[2] == 1  # the ghost goes to the ghost


def test_builders():
    assert are_isomorphic(cross_polytope(2), cycle(4)) is not None
    assert f_vector_counts(cycle(6)) == (1, 6, 6)
    assert points(3, 3).facet_sets() == [(1,), (2,), (3,)]
    with pytest.raises(InvalidInput):
        cycle(2)
    assert standard_complex("cycle:5") == cycle(5)
    assert standard_complex("points:2,4") == points(2, 4)
    with pytest.raises(InvalidInput):
        standard_complex("frobnicate:1")


def test_compress_mask():
    # keep {2,4,5}: bits re-index to 1,2,3
    keep = mask_of([2, 4, 5])
    assert compress_mask(mask_of([2, 5]), keep) == mask_of([1, 3])


# ---------------------------------------------------------------------------
# properties on random complexes


def test_links_are_valid_and_small(rng):
    for _ in range(60):
        k = random_complex(rng)
        for s in sorted(faces(k)):
            lk = link(k, s)
            assert lk.dim <= k.dim - s.bit_count()


def test_deletion_of_cone_apex_recovers_complex(rng):
    for _ in range(60):
        k = random_complex(rng)
        assert deletion(cone(k), k.m + 1) == k


def test_flagness_multiplies_over_joins(rng):
    for _ in range(40):
        a, b = random_complex(rng, 4), random_complex(rng, 3)
        assert is_flag(join(a, b)) == (is_flag(a) and is_flag(b))


def test_isomorphism_is_an_equivalence(rng):
    for _ in range(25):
        k = random_complex(rng, 5)
        perm = list(range(1, 6))
        rng.shuffle(perm)
        relabeled = Complex.from_masks(
            5, [mask_of(perm[v - 1] for v in vertices_of(f)) for f in k.facets]
        )
        iso = are_isomorphic(k, relabeled)
        assert iso is not None and maps_facets_onto(iso, k, relabeled)
        back = iso.inverse()
        assert maps_facets_onto(back, relabeled, k)
        assert are_isomorphic(k, k) is not None


def test_stellar_subdivision_preserves_sphere_euler():
    for sphere, face in [
        (boundary_simplex(3), mask_of([1, 2])),
        (boundary_simplex(4), mask_of([1, 2, 3])),
        (cross_polytope(3), mask_of([1, 3])),
    ]:
        assert euler_characteristic(stellar_subdivision(sphere, face)) == (
            euler_characteristic(sphere)
        )


def test_canonical_key_is_isomorphism_invariant(rng):
    for _ in range(40):
        k = random_complex(rng, 5)
        perm = list(range(1, 6))
        rng.shuffle(perm)
        relabeled = Complex.from_masks(
            5, [mask_of(perm[v - 1] for v in vertices_of(f)) for f in k.facets]
        )
        assert canonical_key(k) == canonical_key(relabeled)


def test_canonical_key_matches_isomorphism_verdicts(rng):
    pool = [random_complex(rng, 4) for _ in range(16)]
    for a, b in itertools.combinations(pool, 2):
        same_key = canonical_key(a) == canonical_key(b)
        assert same_key == (are_isomorphic(a, b) is not None)


def test_canonical_key_on_larger_symmetric_complexes():
    # 10 vertices with a big automorphism group: must still terminate fast
    a = cross_polytope(5)
    perm = [3, 4, 1, 2, 9, 10, 7, 8, 5, 6]
    b = Complex.from_masks(
        10, [mask_of(perm[v - 1] for v in vertices_of(f)) for f in a.facets]
    )
    assert canonical_key(a) == canonical_key(b)
