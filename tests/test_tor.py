import pytest

from bierlab import linalg
from bierlab.census import enumerate_complexes
from bierlab.complexes import (
    Complex,
    boundary_simplex,
    cross_polytope,
    cycle,
    drop_ghosts,
    make_complex,
    mask_of,
    nerve_q2_3,
    points,
)
from bierlab.duality import bier_sphere
from bierlab.errors import ResourceLimit
from bierlab.multicomplexes import make_multicomplex, murai_sphere
from bierlab.tor import (
    GF2,
    GF3,
    QQ,
    FieldTag,
    SubsetCohomology,
    _boundary,
    golod_summary,
    hochster_betti,
    homology_sphere_check,
    koszul_betti_oracle,
    subset_cohomology,
    tor_products,
)
from conftest import assert_subset_ranks_agree, random_complex


def spheres_census(max_m):
    out = []
    for m in range(1, max_m + 1):
        for k in enumerate_complexes(m, include_simplex=False):
            out.append(drop_ghosts(bier_sphere(k)))
    return out


def reduced_ranks(k, f=QQ):
    """Reduced cohomology ranks of ``k`` itself, the full subcomplex on [m]."""
    return subset_cohomology(k, f).ranks(k.full_mask)


def test_reduced_cohomology_examples():
    assert reduced_ranks(cycle(4)) == {1: 1}
    assert reduced_ranks(points(2, 2)) == {0: 1}
    assert reduced_ranks(Complex(3, (0,))) == {-1: 1}


def test_representatives_are_cocycles_and_independent():
    cases = [(cycle(6), QQ), (RP2, GF2), (RP2_MINUS_TWO, QQ), (RP2_MINUS_TWO, GF3)]
    for k, field in cases:
        sc = subset_cohomology(k, field)
        table = SubsetCohomology(k, field)
        groups = table.groups(k.full_mask)
        assert sc.ranks(k.full_mask)
        for deg, r in sc.ranks(k.full_mask).items():
            size = deg + 1
            reps = sc.representatives(k.full_mask, size)
            assert len(reps) == r
            image = table.image_echelon(k.full_mask, size)
            for rep in reps:
                assert len(rep) == len(groups[size])
                assert not any(_delta_of(groups, size, rep, field.p))
                # independent modulo the coboundaries
                assert image.add(rep) is not None
    # the exact echelon rows: primitive integer rows, here with pivot 1
    reps = subset_cohomology(RP2_MINUS_TWO, QQ).representatives(RP2_MINUS_TWO.full_mask, 2)
    assert all(type(x) is int for v in reps for x in v)
    assert [tuple(v) for v in reps] == [
        (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, -1, 0, 0, -1, -1, -2, -1, 0),
    ]


def test_field_tag_validation():
    with pytest.raises(Exception):
        FieldTag(4)


def test_homology_sphere_check():
    assert homology_sphere_check(cycle(6), 2)
    assert homology_sphere_check(cross_polytope(3), 3)
    assert homology_sphere_check(nerve_q2_3(), 3)
    assert not homology_sphere_check(make_complex(3, [[1, 2], [2, 3]]), 2)
    pentagon = murai_sphere(make_multicomplex((2, 1), [(1, 0), (0, 1)]))
    assert homology_sphere_check(pentagon, 2)
    # the empty sphere: the lone face is the empty one, its link has rank
    # one in degree -1
    assert homology_sphere_check(Complex(2, (0,)), 0)


def test_hochster_betti_frozen_tables():
    assert hochster_betti(cycle(4)).table == {(0, 0): 1, (1, 4): 2, (2, 8): 1}
    assert hochster_betti(cycle(5)).table == {
        (0, 0): 1,
        (1, 4): 5,
        (2, 6): 5,
        (3, 10): 1,
    }
    assert hochster_betti(boundary_simplex(3)).table == {(0, 0): 1, (1, 6): 1}


def test_koszul_oracle_agrees_on_corpus():
    corpus = [
        cycle(3), cycle(4), cycle(5), cycle(6),
        make_complex(3, [[1, 2], [2, 3]]),
        make_complex(4, [[1, 2], [3, 4]]),
        cross_polytope(2), cross_polytope(3),
        boundary_simplex(4),
        points(3, 4),
    ] + spheres_census(4)
    for k in corpus:
        assert k.m <= 8
        for tag in (QQ, GF2):
            assert koszul_betti_oracle(k, tag).table == hochster_betti(k, tag).table


def test_resource_limits():
    with pytest.raises(ResourceLimit):
        hochster_betti(Complex(17, (0,)))
    with pytest.raises(ResourceLimit):
        koszul_betti_oracle(Complex(11, (0,)))
    with pytest.raises(ResourceLimit):
        golod_summary(Complex(17, (0,)))


def test_tor_products_four_cycle_witness():
    witnesses = tor_products(cycle(4))
    assert len(witnesses) == 1
    w = witnesses[0]
    assert {w.subset_a, w.subset_b} == {mask_of([1, 3]), mask_of([2, 4])}
    assert w.size_a == w.size_b == 1


def test_tor_products_empty_cases():
    assert tor_products(boundary_simplex(3)) == []
    assert tor_products(make_complex(3, [[1, 2], [2, 3]])) == []


def test_ghost_classes_participate_in_products():
    # two ghost elements multiply through degree -1 classes
    k = make_complex(4, [[1, 2]])
    witnesses = tor_products(k)
    pairs = {(w.subset_a, w.subset_b) for w in witnesses}
    assert (mask_of([3]), mask_of([4])) in pairs


def test_golod_predicates():
    # golod_summary is (product-Golod, minimally non-Golod)
    assert golod_summary(drop_ghosts(bier_sphere(boundary_simplex(4)))) == (True, False)
    assert golod_summary(cycle(6)) == (False, True)
    assert golod_summary(cycle(4)) == (False, True)
    # a sphere that is not a simplex boundary is never product-Golod
    for sphere in spheres_census(4):
        simplexish = sphere.facets == (0,) or all(
            f.bit_count() == sphere.m - 1 for f in sphere.facets
        ) and len(sphere.facets) == sphere.m
        if not simplexish:
            assert not golod_summary(sphere)[0]


def test_field_independence_on_small_spheres():
    murai_spheres = [
        murai_sphere(make_multicomplex(c, gens))
        for c, gens in [
            ((2, 1), [(1, 0), (0, 1)]),
            ((3,), [(1,)]),
            ((2, 2), [(0, 2), (2, 0)]),
            ((2, 1, 1), [(0, 1, 1), (2, 1, 0)]),
        ]
    ]
    for sphere in spheres_census(4) + murai_spheres:
        t0 = hochster_betti(sphere, QQ).table
        assert hochster_betti(sphere, GF2).table == t0
        assert golod_summary(sphere, QQ) == golod_summary(sphere, GF2)
    assert golod_summary(cycle(6), GF3) == (False, True)


def _delta_of(groups, size, vec, p):
    upper = groups[size + 1] if size + 1 < len(groups) else []
    if not upper:
        return [0]
    mat = linalg.boundary_matrix(upper, groups[size], _boundary)
    out = []
    for col in zip(*mat):
        acc = 0
        for a, b in zip(col, vec):
            acc += a * b
        out.append(acc % p if p else acc)
    return out


def test_products_of_cocycles_are_cocycles(rng):
    # the shuffle sign makes the pairing a cochain map; scan random pairs
    checked = 0
    for _ in range(40):
        k = random_complex(rng, 5)
        sc = SubsetCohomology(k, QQ)
        interesting = sc.interesting_subsets(k.full_mask)
        for a_mask in interesting:
            for b_mask in interesting:
                if a_mask >= b_mask or a_mask & b_mask:
                    continue
                for sa in list(sc.ranks(a_mask)):
                    for sb in list(sc.ranks(b_mask)):
                        va = sc.representatives(a_mask, sa + 1)[0]
                        vb = sc.representatives(b_mask, sb + 1)[0]
                        vec = sc.product_class_vector(
                            a_mask, sa + 1, va, b_mask, sb + 1, vb
                        )
                        union = a_mask | b_mask
                        groups = sc.groups(union)
                        if sa + sb + 2 < len(groups):
                            delta = _delta_of(groups, sa + sb + 2, vec, 0)
                            assert not any(delta)
                            checked += 1
    assert checked > 0


def test_product_classes_survive_representative_perturbation(rng):
    # adding a coboundary to either representative must not change the
    # vanishing verdict of any product
    for k in [cycle(6), drop_ghosts(bier_sphere(points(2, 3)))]:
        sc = SubsetCohomology(k, QQ)
        interesting = sc.interesting_subsets(k.full_mask)
        for a_mask in interesting:
            for b_mask in interesting:
                if a_mask >= b_mask or a_mask & b_mask:
                    continue
                for sa in list(sc.ranks(a_mask)):
                    for sb in list(sc.ranks(b_mask)):
                        va = list(sc.representatives(a_mask, sa + 1)[0])
                        vb = sc.representatives(b_mask, sb + 1)[0]
                        base = sc.product_is_nonzero(
                            a_mask, sa + 1, va, b_mask, sb + 1, vb
                        )
                        groups = sc.groups(a_mask)
                        if sa + 1 >= 1:
                            lower = groups[sa] if sa < len(groups) else []
                            if lower:
                                mat = linalg.boundary_matrix(
                                    groups[sa + 1], lower, _boundary
                                )
                                col = rng.randrange(len(lower))
                                scale = rng.randint(1, 3)
                                # row col: the coboundary of lower[col]
                                perturbed = [
                                    x + scale * y
                                    for x, y in zip(va, mat[col])
                                ]
                                again = sc.product_is_nonzero(
                                    a_mask, sa + 1, perturbed, b_mask, sb + 1, vb
                                )
                                assert again == base


def test_min_non_golod_uses_all_deletions():
    # the octahedron is not minimally non-Golod: some deletion keeps a
    # nontrivial product
    assert golod_summary(cross_polytope(3), QQ) == (False, False)


# the 6-vertex real projective plane: acyclic over QQ, not over GF(2)
RP2 = make_complex(6, [
    [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
    [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6],
])
# RP^2 without the triangles 123 and 145: two degree-1 classes over QQ
RP2_MINUS_TWO = make_complex(6, [
    [1, 3, 4], [1, 5, 6], [1, 2, 6],
    [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6],
])


def test_betti_golod_and_witnesses_share_one_sweep(monkeypatch):
    sphere = drop_ghosts(bier_sphere(make_complex(4, [[1, 2], [3, 4]])))
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda *a: calls.append(a) or real(*a))
    subset_cohomology.cache_clear()
    hochster_betti(sphere, QQ)
    alone = len(calls)
    subset_cohomology.cache_clear()
    del calls[:]
    hochster_betti(sphere, QQ)
    golod_summary(sphere, QQ)
    assert tor_products(sphere, QQ)
    assert len(calls) == alone > 0


def test_subset_table_is_keyed_by_complex_and_field():
    assert reduced_ranks(RP2, QQ) == {}
    assert reduced_ranks(RP2, GF2) == {1: 1, 2: 1}
    tables = []
    for tag in (QQ, GF2, QQ):
        table = hochster_betti(RP2, tag).table
        assert table == koszul_betti_oracle(RP2, tag).table
        tables.append(table)
    assert tables[0] != tables[1] and tables[0] == tables[2]

    c5 = cycle(5)
    relabeled = make_complex(5, [[1, 3], [3, 5], [2, 5], [2, 4], [1, 4]])
    first = tor_products(c5, QQ)
    got = tor_products(relabeled, QQ)
    assert got == SubsetCohomology(relabeled, QQ).witnesses(relabeled.full_mask)
    assert got != first

    fresh = Complex.from_masks(c5.m, list(c5.facets))
    assert fresh is not c5 and fresh == c5
    assert tor_products(fresh, QQ) == tor_products(c5, QQ) == first
    assert subset_cohomology(fresh, QQ) is subset_cohomology(c5, QQ)


@pytest.mark.parametrize("tag", [QQ, GF2])
def test_has_witness_agrees_with_the_witness_list(tag):
    for sphere in spheres_census(4):
        table = SubsetCohomology(sphere, tag)
        full = sphere.full_mask
        for allowed in [full] + [full ^ (1 << v) for v in range(sphere.m)]:
            assert table.has_witness(allowed) == bool(table.witnesses(allowed))


@pytest.mark.parametrize("tag", [QQ, GF2])
def test_subset_ranks_agree_with_the_full_sweep(tag):
    spheres = [
        bier_sphere(k)
        for m in range(1, 5)
        for k in enumerate_complexes(m, include_simplex=False)
    ]
    ghost = make_complex(4, [[1, 2], [2, 3]])
    isolated = make_complex(4, [[1, 2, 3], [4]])
    corpus = spheres + [drop_ghosts(s) for s in spheres]
    for k in corpus + [RP2, Complex(3, (0,)), ghost, isolated]:
        assert_subset_ranks_agree(k, tag)


def test_a_cone_sweep_eliminates_only_singletons(monkeypatch):
    # every K_J of a simplex is a cone, so strong collapses take each
    # nonempty J down to a singleton before any elimination
    simplex = make_complex(5, [[1, 2, 3, 4, 5]])
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda *a: calls.append(a) or real(*a))
    table = SubsetCohomology(simplex, QQ)
    for j_mask in [0] + [1 << v for v in range(simplex.m)]:
        table.ranks(j_mask)
    singletons = len(calls)
    del calls[:]
    subset_cohomology.cache_clear()
    assert hochster_betti(simplex, QQ).table == {(0, 0): 1}
    assert len(calls) == singletons > 0


def test_each_coboundary_image_is_eliminated_once(monkeypatch):
    # the rows of the coboundary matrix into the size-s cochains of K_J enter
    # an echelon from one boundary_matrix call only, which image_echelon
    # makes and representatives and products then share
    sphere = drop_ghosts(bier_sphere(make_complex(4, [[1, 2], [3, 4]])))
    origin = {}  # id of a row -> (ids of the cells and faces lists, call number)
    keep = []  # every row stays alive, so no id is reused
    real_matrix = linalg.boundary_matrix
    real_add = linalg.Echelon.add
    eliminated = {}

    def boundary_matrix(cells, faces, boundary):
        rows = real_matrix(cells, faces, boundary)
        keep.append(rows)
        for row in rows:
            origin[id(row)] = ((id(cells), id(faces)), len(keep))
        return rows

    def add(self, vec):
        if id(vec) in origin:
            key, call = origin[id(vec)]
            eliminated.setdefault(key, set()).add(call)
        return real_add(self, vec)

    monkeypatch.setattr(linalg, "boundary_matrix", boundary_matrix)
    monkeypatch.setattr(linalg.Echelon, "add", add)
    subset_cohomology.cache_clear()
    golod_summary(sphere, QQ)
    assert tor_products(sphere, QQ)
    # the cells and faces lists are the table's own groups, one list per
    # (J, size), so equal ids mean the same coboundary image
    assert eliminated
    assert max(len(calls) for calls in eliminated.values()) == 1
