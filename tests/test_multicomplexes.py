import itertools
import tracemalloc

import pytest

from bierlab.census import all_labeled_complexes, compositions, enumerate_multicomplexes
from bierlab.complexes import (
    Complex,
    Isomorphism,
    are_isomorphic,
    cross_polytope,
    cycle,
    drop_ghosts,
    is_flag,
    make_complex,
    mask_of,
    maximal,
    minimal_nonfaces,
)
from bierlab.duality import FlagKind, bier_sphere, match_flag_family
from bierlab.errors import InvalidInput, ResourceLimit, UndefinedDual
from bierlab.multicomplexes import (
    MonomialIdeal,
    Multicomplex,
    bier_relabeling_to_murai,
    c_dual,
    make_multicomplex,
    minimal_nonmembers,
    multicomplex_of_complex,
    murai_face_ideal,
    murai_sphere,
    murai_vertex,
    nonmember_ideal,
    polarize,
    squarefree_support_masks,
    star_polarize,
)


def mc(c, gens):
    return make_multicomplex(c, gens)


def test_contains_and_reduction():
    m = mc((2, 1), [(1, 0)])
    assert m.max_monomials == ((1, 0),)
    assert not m.contains((2, 0))
    assert m.contains((0, 0))
    assert mc((3,), [(1,), (3,)]).max_monomials == ((3,),)


def test_contains_rejects_bad_vectors():
    m = mc((2, 1), [(1, 0)])
    with pytest.raises(InvalidInput):
        m.contains((0, 2))
    with pytest.raises(InvalidInput):
        make_multicomplex((2, 1), [(3, 0)])


def test_minimal_nonmembers():
    assert minimal_nonmembers(mc((2, 1), [(1, 0)])) == [(0, 1), (2, 0)]
    assert minimal_nonmembers(mc((1, 1, 1), [(1, 0, 0)])) == [(0, 0, 1), (0, 1, 0)]
    assert minimal_nonmembers(mc((3,), [(1,)])) == [(2,)]
    assert minimal_nonmembers(mc((2,), [(2,)])) == []


def test_minimal_nonmembers_match_minimalizing_every_nonmember():
    # the oracle tests divisibility among all non-members pairwise
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    for total in (1, 2, 3, 4):
        for caps in compositions(total):
            for m in enumerate_multicomplexes(caps) + [mc(caps, [caps])]:
                box = itertools.product(*(range(ci + 1) for ci in caps))
                outside = [a for a in box if not m.contains(a)]
                expected = sorted(maximal(outside, lambda a, b: divides(b, a)),
                                  key=lambda a: (sum(a), a))
                assert minimal_nonmembers(m) == expected, m


def test_c_dual_examples():
    assert c_dual(mc((3,), [(1,)])) == mc((3,), [(1,)])
    assert c_dual(mc((2, 1), [(0, 1)])) == mc((2, 1), [(1, 1)])
    three = mc((1, 1, 1), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert c_dual(three) == three
    # with caps (2,1) the multicomplex <x> has dual <x^2, y>
    assert c_dual(mc((2, 1), [(1, 0)])) == mc((2, 1), [(2, 0), (0, 1)])


def test_c_dual_involution_and_generator_lemma():
    for total in (1, 2, 3, 4, 5):
        for caps in compositions(total):
            for m in enumerate_multicomplexes(caps):
                dual = c_dual(m)
                assert c_dual(dual) == m
                # minimal generators of the dual ideal are the complements
                # of the maximal monomials
                expected = {
                    tuple(ci - x for ci, x in zip(caps, g)) for g in m.max_monomials
                }
                assert set(minimal_nonmembers(dual)) == expected


def test_members_and_unchecked_multicomplexes_match_their_oracles():
    # the oracles: the box filtered by divisibility, as members() once was,
    # and the constructor that checks everything
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    for total in (1, 2, 3, 4, 5):
        for caps in compositions(total):
            box = sorted(itertools.product(*(range(ci + 1) for ci in caps)),
                         key=lambda a: (sum(a), a))
            for m in enumerate_multicomplexes(caps):
                for x in (m, c_dual(m)):
                    assert Multicomplex(caps, x.max_monomials) == x
                    assert x.members() == [
                        a for a in box if any(divides(a, g) for g in x.max_monomials)
                    ]


def test_enumeration_and_c_dual_skip_the_per_object_check(monkeypatch):
    def refuse(self):
        raise AssertionError("checked again")

    monkeypatch.setattr(Multicomplex, "__post_init__", refuse)
    for m in enumerate_multicomplexes((2, 1, 1)):
        c_dual(m)


def test_members_refuses_a_large_box_before_building_any_monomial():
    # caps (400, 400) hold 160,801 vectors, over the 10^5 bound; the boxes
    # below (399, 399) once filled a set of 160,000 tuples, a 21 MB peak,
    # before the bound was asked
    m = mc((400, 400), [(399, 399)])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=r"need <= 10\^5"):
            m.members()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_multicomplex_of_complex_matches_the_checking_constructor(monkeypatch):
    labeled = [k for m in (1, 2, 3, 4) for k in all_labeled_complexes(m)]
    expected = [
        make_multicomplex((1,) * k.m, [tuple(f >> i & 1 for i in range(k.m)) for f in k.facets])
        for k in labeled
    ]

    def refuse(self):
        raise AssertionError("checked again")

    monkeypatch.setattr(Multicomplex, "__post_init__", refuse)
    assert [multicomplex_of_complex(k) for k in labeled] == expected
    with pytest.raises(InvalidInput, match="cap vector entries must be positive"):
        multicomplex_of_complex(Complex(0, (0,)))


def test_c_dual_of_full_rejected():
    with pytest.raises(UndefinedDual):
        c_dual(mc((2,), [(2,)]))


def test_polarize_examples():
    ideal = MonomialIdeal(("x1",), ((2,),))
    assert polarize(ideal, (2,)).generators == ((1, 1, 0),)
    assert star_polarize(ideal, (2,)).generators == ((0, 1, 1),)
    # pure power at the cap + 1
    ideal = MonomialIdeal(("x1",), ((2,),))
    assert polarize(ideal, (1,)).generators == ((1, 1),)
    with pytest.raises(InvalidInput):
        polarize(MonomialIdeal(("x1",), ((3,),)), (1,))


def test_murai_vertex_flattening():
    caps = (2, 1)
    assert [murai_vertex(caps, 0, j) for j in range(3)] == [1, 2, 3]
    assert [murai_vertex(caps, 1, j) for j in range(2)] == [4, 5]
    with pytest.raises(InvalidInput):
        murai_vertex(caps, 1, 2)


def test_murai_sphere_pentagon():
    m = mc((2, 1), [(1, 0), (0, 1)])
    assert c_dual(m) == m
    sphere = murai_sphere(m)
    expected = make_complex(5, [[2, 5], [1, 5], [1, 3], [3, 4], [2, 4]])
    assert sphere == expected
    assert are_isomorphic(sphere, cycle(5)) is not None


def test_murai_sphere_single_variable():
    sphere = murai_sphere(mc((3,), [(1,)]))
    assert are_isomorphic(sphere, cycle(4)) is not None
    assert sphere.m == 4


def test_murai_sphere_dimension():
    for total in (1, 2, 3, 4):
        for caps in compositions(total):
            for m in enumerate_multicomplexes(caps):
                assert murai_sphere(m).dim == total - 2


def test_murai_sphere_facets_are_the_antichain_from_masks_would_keep():
    # the oracle: from_masks, whose maximal pass drops any facet lying in
    # another; the rule's facets all have |c| - 1 vertices, so it drops none
    for total in (1, 2, 3, 4):
        for caps in compositions(total):
            for m in enumerate_multicomplexes(caps):
                sphere = murai_sphere(m)
                assert Complex.from_masks(sphere.m, sphere.facets) == sphere
                assert all(f.bit_count() == total - 1 for f in sphere.facets)


def test_murai_sphere_of_full_rejected():
    with pytest.raises(UndefinedDual):
        murai_sphere(mc((2,), [(2,)]))


def test_murai_sphere_refuses_a_level_set_beyond_the_largest_ground_set():
    # 64 level-set vertices are the most a complex file may have
    assert murai_sphere(mc((63,), [(5,)])).m == 64
    with pytest.raises(ResourceLimit, match="need <= 64"):
        murai_sphere(mc((64,), [(5,)]))
    with pytest.raises(ResourceLimit, match="need <= 64"):
        murai_sphere(mc((40, 30), [(5, 5)]))


def test_murai_reduces_to_bier_for_unit_caps():
    for k in [
        make_complex(3, [[1], [2], [3]]),
        make_complex(3, [[1, 2], [2, 3]]),
        make_complex(4, [[1, 2], [3, 4]]),
    ]:
        relabel = Isomorphism(tuple(bier_relabeling_to_murai(k.m)))
        sphere = bier_sphere(k)
        relabeled = sorted(relabel.apply(f) for f in sphere.facets)
        assert relabeled == list(murai_sphere(multicomplex_of_complex(k)).facets)


def test_murai_face_ideal_pentagon():
    ideal = murai_face_ideal(mc((2, 1), [(1, 0), (0, 1)]))
    assert ideal.generator_strings() == [
        "x2_0*x2_1",
        "x1_2*x2_1",
        "x1_1*x1_2",
        "x1_0*x2_0",
        "x1_0*x1_1",
    ]


def test_murai_face_ideal_cases_with_caps_2_1():
    # max(M) = {y} is the single-generator case with c_i = 2: the ideal is
    # (x1_0) + (x1_2 x1_1) + (x2_0 x2_1)
    ideal = murai_face_ideal(mc((2, 1), [(0, 1)]))
    assert set(ideal.generator_strings()) == {"x1_0", "x1_1*x1_2", "x2_0*x2_1"}
    # max(M) = {x}: computed honestly from the three families
    ideal = murai_face_ideal(mc((2, 1), [(1, 0)]))
    assert set(ideal.generator_strings()) == {"x1_0*x1_1", "x2_0", "x1_2*x2_1"}


def test_face_ideal_supports_match_minimal_nonfaces():
    for total in (2, 3, 4):
        for caps in compositions(total):
            for m in enumerate_multicomplexes(caps):
                supports = squarefree_support_masks(murai_face_ideal(m))
                assert supports == minimal_nonfaces(murai_sphere(m))


def test_nonmember_ideal():
    ideal = nonmember_ideal(mc((2, 1), [(1, 0)]))
    assert ideal.generators == ((0, 1), (2, 0))
    assert set(ideal.generator_strings()) == {"x2", "x1^2"}


def murai_flag_family(m):
    sphere = drop_ghosts(murai_sphere(m))
    assert is_flag(sphere)
    return match_flag_family(sphere)


def test_murai_flag_family_pentagon():
    assert murai_flag_family(mc((2, 1), [(1, 0), (0, 1)])) == FlagKind("cube_x_p5", 0)


def test_murai_flag_family_square_from_unit_caps():
    assert murai_flag_family(mc((1, 1, 1), [(1, 1, 0)])) == FlagKind("cube", 2)


def test_murai_flag_family_cross_polytope_with_ghost():
    # single generator (x_i^{c_i})^c with c_i = 2: the sphere is the
    # boundary of a cross-polytope missing the bottom level of block i
    m = mc((2, 1), [(0, 1)])
    sphere = murai_sphere(m)
    assert mask_of([1]) in minimal_nonfaces(sphere)  # x1^(0) is a ghost
    assert are_isomorphic(drop_ghosts(sphere), cross_polytope(2)) is not None
    assert murai_flag_family(m) == FlagKind("cube", 2)


def test_murai_sphere_invariant_under_variable_permutation():
    a = murai_sphere(mc((2, 1), [(1, 0)]))
    b = murai_sphere(mc((1, 2), [(0, 1)]))
    assert are_isomorphic(a, b) is not None


def test_antichain_validation():
    with pytest.raises(InvalidInput):
        Multicomplex((2, 1), ((1, 0), (2, 0)))
    with pytest.raises(InvalidInput):
        Multicomplex((2, 1), ())
