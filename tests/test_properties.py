"""Property tests: invariants that must hold on every small complex."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bierlab import linalg
from bierlab.census import _antichains, compositions, enumerate_complexes
from bierlab.complexes import (
    Complex,
    Isomorphism,
    are_isomorphic,
    canonical_form,
    canonical_key,
    check_antichain,
    faces,
    maximal,
    minimal_nonfaces,
    subset_of,
)
from bierlab.duality import alexander_dual, bier_sphere
from bierlab.errors import InvalidInput
from bierlab.multicomplexes import _box, _divides
from bierlab.tor import (
    GF2,
    GF3,
    QQ,
    SubsetCohomology,
    _boundary,
    hochster_betti,
    koszul_betti_oracle,
    shuffle_sign,
)
from conftest import assert_subset_ranks_agree

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def small_complexes(draw, max_m: int = 6, proper: bool = False):
    """A complex on [m] from random generators; ``proper`` excludes the
    full simplex, which has no Alexander dual."""
    m = draw(st.integers(1, max_m))
    full = (1 << m) - 1
    gens = draw(st.lists(st.integers(0, full - 1 if proper else full), max_size=6))
    return Complex.from_masks(m, gens)


@st.composite
def relabeled_pairs(draw):
    k = draw(small_complexes())
    perm = Isomorphism(tuple(draw(st.permutations(range(1, k.m + 1)))))
    return k, Complex.from_masks(k.m, [perm.apply(f) for f in k.facets])


@lru_cache(maxsize=None)
def _classes_by_key(m: int) -> dict:
    return {canonical_key(rep): rep for rep in enumerate_complexes(m)}


@SETTINGS
@given(relabeled_pairs())
def test_canonical_key_ignores_relabeling(pair):
    k, relabeled = pair
    assert canonical_key(relabeled) == canonical_key(k)


@SETTINGS
@given(small_complexes(max_m=5))
def test_iso_classes_keep_one_canonical_representative_per_key(k):
    by_key = _classes_by_key(k.m)
    assert len(by_key) == len(enumerate_complexes(k.m))
    rep = by_key[canonical_key(k)]
    assert Complex(*canonical_form(rep)) == rep
    assert are_isomorphic(k, rep) is not None


@SETTINGS
@given(small_complexes(proper=True))
def test_alexander_dual_is_an_involution(k):
    assert alexander_dual(alexander_dual(k)) == k


@SETTINGS
@given(small_complexes(proper=True))
def test_bier_sphere_matches_brute_force(k):
    assert bier_sphere(k) == bier_sphere(k, brute=True)


@SETTINGS
@given(small_complexes(), st.sampled_from([QQ, GF2]))
def test_hochster_betti_matches_the_koszul_oracle(k, field):
    assert hochster_betti(k, field).table == koszul_betti_oracle(k, field).table


@SETTINGS
@given(small_complexes(max_m=7), st.sampled_from([QQ, GF2]))
def test_subset_ranks_match_the_full_sweep(k, field):
    assert_subset_ranks_agree(k, field)


@SETTINGS
@given(small_complexes(max_m=7))
def test_minimal_nonfaces_match_their_definition(k):
    face_set = faces(k)
    brute = [
        s
        for s in range(1 << k.m)
        if s not in face_set
        and all(s & ~(1 << v) in face_set for v in range(k.m) if s >> v & 1)
    ]
    assert minimal_nonfaces(k) == sorted(brute, key=lambda s: (s.bit_count(), s))


def cocycle_representatives_oracle(groups, s, p):
    """Echelonized cocycle representatives of degree s-1, from one echelon
    that takes the coboundaries first and then the kernel vectors."""
    lower = groups[s]
    upper = groups[s + 1] if s + 1 < len(groups) else []
    coboundary = list(zip(*linalg.boundary_matrix(upper, lower, _boundary)))
    kernel = linalg.nullspace(coboundary, len(lower), p)
    ech = linalg.Echelon(p, len(lower))
    if s >= 1:
        for row in linalg.boundary_matrix(lower, groups[s - 1], _boundary):
            ech.add(row)
    return [row for row in map(ech.add, kernel) if row is not None]


def product_vector_oracle(table, a_mask, sa, a_vec, b_mask, sb, b_vec):
    """The join cross product face by face: the entry at a size sa+sb face
    N of K_{A+B} is shuffle_sign(L, M) a_L b_M, with L = N & A and
    M = N & B, when L and M are faces of the right sizes, else 0."""
    groups = table.groups(a_mask | b_mask)
    t = sa + sb
    index_a = {f: i for i, f in enumerate(table.groups(a_mask)[sa])}
    index_b = {f: i for i, f in enumerate(table.groups(b_mask)[sb])}
    vec = []
    for n in groups[t] if t < len(groups) else []:
        ia, ib = index_a.get(n & a_mask), index_b.get(n & b_mask)
        if ia is None or ib is None:
            vec.append(0)
        else:
            vec.append(a_vec[ia] * b_vec[ib] * shuffle_sign(n & a_mask, n & b_mask))
    return vec


@SETTINGS
@given(small_complexes(), st.sampled_from([QQ, GF2, GF3]))
def test_representatives_and_products_match_their_oracles(k, field):
    table = SubsetCohomology(k, field)
    subsets = table.interesting_subsets(k.full_mask)
    for j_mask in subsets:
        for deg in table.ranks(j_mask):
            expected = cocycle_representatives_oracle(table.groups(j_mask), deg + 1, field.p)
            assert table.representatives(j_mask, deg + 1) == expected
    for a_mask in subsets:
        for b_mask in subsets:
            if a_mask & b_mask:
                continue
            for sa in table.ranks(a_mask):
                for sb in table.ranks(b_mask):
                    for va in table.representatives(a_mask, sa + 1):
                        for vb in table.representatives(b_mask, sb + 1):
                            case = (a_mask, sa + 1, va, b_mask, sb + 1, vb)
                            got = table.product_class_vector(*case)
                            assert got == product_vector_oracle(table, *case)


# the antichain toolkit, against its definitions, in four orders
ORDERS = {
    "inclusion": (st.integers(0, 31), subset_of),
    "reverse inclusion": (st.integers(0, 31), lambda a, b: subset_of(b, a)),
    "divisibility": (st.tuples(st.integers(0, 3), st.integers(0, 2)), _divides),
    "reverse divisibility": (st.tuples(st.integers(0, 3), st.integers(0, 2)),
                             lambda a, b: _divides(b, a)),
}


@st.composite
def ordered_lists(draw):
    """Random items of one order, duplicates and the empty list included."""
    elements, below = ORDERS[draw(st.sampled_from(sorted(ORDERS)))]
    return draw(st.lists(elements, max_size=9)), below


@SETTINGS
@given(ordered_lists())
def test_maximal_keeps_exactly_the_items_below_no_other(case):
    items, below = case
    got = maximal(items, below)
    assert list(got) == sorted(set(got)) and set(got) <= set(items)
    for a in items:
        dominated = any(below(a, b) and b != a for b in items)
        assert (a in got) != dominated
        assert any(below(a, top) for top in got)


@SETTINGS
@given(ordered_lists())
def test_check_antichain_refuses_exactly_the_comparable_pairs(case):
    items, below = case
    comparable = any(
        below(items[i], items[j])
        for i in range(len(items))
        for j in range(len(items))
        if i != j
    )
    if comparable:
        with pytest.raises(InvalidInput, match="^not an antichain$"):
            check_antichain(items, below, "not an antichain")
    else:
        check_antichain(items, below, "not an antichain")
    check_antichain(maximal(items, below), below, "not an antichain")


# the antichain search, against every pairwise-incomparable subset
POSETS = [(tuple(range(1 << m)), subset_of) for m in range(5)]
POSETS += [(_box(c), _divides) for total in range(1, 5) for c in compositions(total)]


@st.composite
def linear_extensions(draw):
    """Some items of a poset of subsets of [m], m <= 4, or of a box with
    |c| <= 4, kept in the poset's listed order, which is a linear extension
    of it, so the kept items are listed in one of theirs too."""
    items, below = draw(st.sampled_from(POSETS))
    keep = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return tuple(x for x, k in zip(items, keep) if k), below


@SETTINGS
@given(linear_extensions())
def test_antichains_are_the_incomparable_subsets_in_depth_first_order(case):
    items, below = case

    def incomparable(s):
        return not any(below(items[i], items[j]) or below(items[j], items[i])
                       for i, j in itertools.combinations(s, 2))

    # depth first, an index tuple comes after its prefixes and before its
    # lexicographic successors: the order of sorted index tuples
    subsets = sorted(s for r in range(len(items) + 1)
                     for s in itertools.combinations(range(len(items)), r) if incomparable(s))
    assert list(_antichains(items, below)) == [tuple(items[i] for i in s) for s in subsets]
