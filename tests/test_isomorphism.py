"""The isomorphism engine against independent oracles.

``canonical_labeling`` is the one isomorphism search; ``canonical_form``,
``are_isomorphic`` and ``multicomplex_canonical_key`` are derived from it.
The oracles here are a brute force over all m! relabelings and the two
searches it replaced, kept verbatim below: the backtracking canonical
form and the permutation key of multicomplexes.  Keys changed once with
the new engine; these tests show the change is a one-to-one key map that
keeps every partition into classes.
"""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bierlab import census
from bierlab.census import (
    all_labeled_complexes,
    compositions,
    enumerate_complexes,
    enumerate_multicomplexes,
    multicomplex_canonical_key,
    sphere_record,
)
from bierlab.complexes import (
    Complex,
    Isomorphism,
    _refine,
    are_isomorphic,
    canonical_form,
    canonical_key,
    canonical_labeling,
    cross_polytope,
    cycle,
    drop_ghosts,
    f_vector_counts,
    faces,
    format_key,
    link,
    maps_facets_onto,
    points,
    truncation_sphere,
    vertices_of,
)
from bierlab.duality import bier_sphere
from bierlab.multicomplexes import Multicomplex, make_multicomplex, murai_sphere

SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# oracles


def brute_force_isomorphism(k: Complex, l: Complex) -> Isomorphism | None:
    """The first of all m! relabelings that carries k onto l, or None."""
    if k.m != l.m:
        return None
    for perm in itertools.permutations(range(1, k.m + 1)):
        iso = Isomorphism(perm)
        if maps_facets_onto(iso, k, l):
            return iso
    return None


def retired_multicomplex_key(m: Multicomplex) -> tuple:
    """The key before the engine: least monomial list over all
    permutations of variables with equal caps."""
    idx = range(m.nvars)
    best = None
    for perm in itertools.permutations(idx):
        if any(m.c[perm[i]] != m.c[i] for i in idx):
            continue
        relabeled = tuple(sorted(tuple(a[perm[i]] for i in idx) for a in m.max_monomials))
        if best is None or relabeled < best:
            best = relabeled
    return (m.c, best)


def _retired_vertex_invariants(k: Complex):
    fsizes: list[list[int]] = [[] for _ in range(k.m)]
    for f in k.facets:
        for v in vertices_of(f):
            fsizes[v - 1].append(f.bit_count())
    link_fv = []
    for v in range(1, k.m + 1):
        b = 1 << (v - 1)
        if any(f & b for f in k.facets):
            link_fv.append(f_vector_counts(link(k, b)))
        else:
            link_fv.append(())
    base = [(tuple(sorted(fsizes[v])), link_fv[v]) for v in range(k.m)]
    nbrs: list[list[int]] = [[] for _ in range(k.m)]
    for e in (s for s in faces(k) if s.bit_count() == 2):
        a, b = vertices_of(e)
        nbrs[a - 1].append(b - 1)
        nbrs[b - 1].append(a - 1)
    colors = base
    for _ in range(2):
        colors = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(k.m)]
    return colors


def _retired_swap_fixes_facets(facets, a: int, b: int) -> bool:
    ba, bb = 1 << a, 1 << b
    swapped = []
    for f in facets:
        g = f & ~(ba | bb)
        if f & ba:
            g |= bb
        if f & bb:
            g |= ba
        swapped.append(g)
    return sorted(swapped) == list(facets)


@lru_cache(maxsize=None)
def retired_canonical_form(k: Complex) -> tuple[int, tuple[int, ...]]:
    """The canonical form before the engine: least facet list over the
    relabelings that respect two rounds of vertex invariants."""
    m = k.m
    facets = k.facets
    if m == 0 or facets == (0,):
        return (m, facets)
    colors = _retired_vertex_invariants(k)
    classes: dict = {}
    for v in range(m):
        classes.setdefault(colors[v], []).append(v)
    pos_class: list = []
    for c in sorted(classes):
        pos_class.extend([c] * len(classes[c]))
    nf = len(facets)
    best: list[int] | None = None
    assigned: list[int] = []
    newlabel = [0] * m

    def complete_masks() -> list[int]:
        amask = 0
        for v in assigned:
            amask |= 1 << v
        done = []
        for f in facets:
            if f & amask == f:
                nm = 0
                ff = f
                while ff:
                    low = ff & -ff
                    nm |= 1 << (newlabel[low.bit_length() - 1] - 1)
                    ff ^= low
                done.append(nm)
        done.sort()
        return done

    def rec():
        nonlocal best
        kdepth = len(assigned)
        done = complete_masks()
        if best is not None:
            prefix = best[: len(done)]
            if done > prefix:
                return
            if done == prefix:
                if len(done) == nf:
                    return
                if len(done) < nf and best[len(done)] < (1 << kdepth):
                    return
        if kdepth == m:
            if best is None or done < best:
                best = done
            return
        candidates = [v for v in classes[pos_class[kdepth]] if newlabel[v] == 0]
        tried: list[int] = []
        for v in candidates:
            if any(_retired_swap_fixes_facets(facets, v, u) for u in tried):
                continue
            tried.append(v)
            assigned.append(v)
            newlabel[v] = kdepth + 1
            rec()
            newlabel[v] = 0
            assigned.pop()

    rec()
    return (m, tuple(best))


def relabel(k: Complex, iso: Isomorphism) -> Complex:
    return Complex.from_masks(k.m, [iso.apply(f) for f in k.facets])


def assert_one_to_one(old_keys, new_keys):
    """The two key lists induce the same partition of their objects."""
    pairs = set(zip(old_keys, new_keys))
    assert len(pairs) == len(set(old_keys)) == len(set(new_keys))


# ---------------------------------------------------------------------------
# are_isomorphic against the brute force


@st.composite
def complex_pairs(draw):
    """Two complexes on one ground set [m], m <= 6, ghosts allowed; half
    the time the second is a relabeling of the first."""
    m = draw(st.integers(0, 6))
    gens = st.lists(st.integers(0, (1 << m) - 1), max_size=6)
    k = Complex.from_masks(m, draw(gens))
    if draw(st.booleans()):
        perm = Isomorphism(tuple(draw(st.permutations(range(1, m + 1)))))
        return k, relabel(k, perm)
    return k, Complex.from_masks(m, draw(gens))


@SETTINGS
@given(complex_pairs())
def test_are_isomorphic_agrees_with_the_brute_force(pair):
    k, l = pair
    iso = are_isomorphic(k, l)
    assert (iso is None) == (brute_force_isomorphism(k, l) is None)
    assert (canonical_key(k) == canonical_key(l)) == (iso is not None)
    if iso is not None:
        assert maps_facets_onto(iso, k, l)


@SETTINGS
@given(complex_pairs())
def test_canonical_labeling_maps_onto_its_form(pair):
    k, _ = pair
    (m, form), labeling = canonical_labeling(k)
    assert maps_facets_onto(labeling, k, Complex(m, form))


def test_are_isomorphic_agrees_with_the_brute_force_on_all_of_m_3():
    labeled = all_labeled_complexes(3)
    for k, l in itertools.product(labeled, repeat=2):
        iso = are_isomorphic(k, l)
        assert (iso is None) == (brute_force_isomorphism(k, l) is None)
        assert iso is None or maps_facets_onto(iso, k, l)


@pytest.mark.parametrize(
    "k",
    [cross_polytope(7), cycle(16), truncation_sphere(7, 7), points(16, 16)],
    ids=["cross_polytope(7)", "cycle(16)", "truncation_sphere(7,7)", "points(16,16)"],
)
def test_symmetric_inputs(k):
    perm = list(range(1, k.m + 1))
    random.Random(k.m).shuffle(perm)
    relabeled = relabel(k, Isomorphism(tuple(perm)))
    assert canonical_key(relabeled) == canonical_key(k)
    iso = are_isomorphic(k, relabeled)
    assert iso is not None and maps_facets_onto(iso, k, relabeled)


def refine_by_signature_rounds(colors, facet_verts, vertex_facets):
    """``complexes._refine``'s general loop, with no shortcut for a
    discrete coloring."""
    cells = len(set(colors))
    while True:
        fcol = [tuple(sorted(colors[v] for v in vs)) for vs in facet_verts]
        sigs = [(colors[v], tuple(sorted(fcol[f] for f in fs)))
                for v, fs in enumerate(vertex_facets)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == cells:
            return colors
        cells = len(rank)


@SETTINGS
@given(complex_pairs(), st.booleans(), st.data())
def test_refine_agrees_with_the_signature_rounds(pair, discrete, data):
    k, _ = pair
    colors = data.draw(st.lists(st.integers(-9, 9), min_size=k.m, max_size=k.m,
                                unique=discrete))
    facet_verts = [[v - 1 for v in vertices_of(f)] for f in k.facets]
    vertex_facets = [[i for i, vs in enumerate(facet_verts) if v in vs] for v in range(k.m)]
    expected = refine_by_signature_rounds(colors, facet_verts, vertex_facets)
    assert _refine(colors, facet_verts, vertex_facets) == expected


# ---------------------------------------------------------------------------
# multicomplex keys against the retired keys


def test_multicomplex_keys_partition_like_the_retired_key():
    for total in (1, 2, 3, 4):
        labeled = [m for c in compositions(total) for m in enumerate_multicomplexes(c)]
        assert_one_to_one(
            [retired_multicomplex_key(m) for m in labeled],
            [multicomplex_canonical_key(m) for m in labeled],
        )


@lru_cache(maxsize=None)
def _multicomplexes(c: tuple) -> tuple:
    return tuple(enumerate_multicomplexes(c))


def _permute_equal_caps(m: Multicomplex, order) -> Multicomplex:
    """``m`` with its variables permuted within each group of equal caps,
    in the order the permutation ``order`` lists them."""
    perm = [0] * m.nvars
    for cap in set(m.c):
        slots = [i for i in range(m.nvars) if m.c[i] == cap]
        for i, j in zip(slots, [i for i in order if m.c[i] == cap]):
            perm[i] = j
    moved = [tuple(a[perm[i]] for i in range(m.nvars)) for a in m.max_monomials]
    return make_multicomplex(m.c, moved)


@SETTINGS
@given(st.sampled_from(compositions(5)), st.data())
def test_multicomplex_keys_agree_with_the_retired_key_at_total_5(c, data):
    pool = _multicomplexes(c)
    a, b = (data.draw(st.sampled_from(pool)) for _ in range(2))
    b_moved = _permute_equal_caps(b, data.draw(st.permutations(range(len(c)))))
    assert multicomplex_canonical_key(b_moved) == multicomplex_canonical_key(b)
    for x, y in ((a, b), (a, b_moved)):
        same = multicomplex_canonical_key(x) == multicomplex_canonical_key(y)
        assert same == (retired_multicomplex_key(x) == retired_multicomplex_key(y))


def test_caps_222_pair_stays_apart():
    # equal multisets of level colors, but no permutation of the variables
    # carries one monomial set onto the other
    a = make_multicomplex((2, 2, 2), [(2, 1, 0), (0, 1, 2)])
    b = make_multicomplex((2, 2, 2), [(2, 1, 0), (1, 0, 2)])
    assert retired_multicomplex_key(a) != retired_multicomplex_key(b)
    assert multicomplex_canonical_key(a) != multicomplex_canonical_key(b)


# ---------------------------------------------------------------------------
# the key change is a one-to-one map on the census


@lru_cache(maxsize=None)
def _retired_classes(m: int) -> tuple:
    """``enumerate_complexes(m, include_simplex=False)`` as the retired
    canonical form made it: representatives in key order."""
    seen = {}
    for k in all_labeled_complexes(m, include_simplex=False):
        form = retired_canonical_form(k)
        seen.setdefault(format_key(*form), form)
    return tuple(Complex(*seen[key]) for key in sorted(seen))


def test_keys_change_by_a_one_to_one_map_on_the_census():
    labeled = [k for m in (1, 2, 3, 4, 5) for k in all_labeled_complexes(m)]
    assert_one_to_one(
        [retired_canonical_form(k) for k in labeled], [canonical_form(k) for k in labeled]
    )
    bier = [sphere for m in (3, 4, 5) for _k, sphere, _key in census._bier_spheres(m)]
    murai = [
        drop_ghosts(murai_sphere(m))
        for total in (1, 2, 3, 4, 5)
        for _c, m, _n, _form in census._murai_census(total)
    ]
    spheres = list(dict.fromkeys(bier + murai))  # each labeled sphere once
    assert_one_to_one(
        [retired_canonical_form(s) for s in spheres], [canonical_form(s) for s in spheres]
    )
    assert [len(_retired_classes(m)) for m in (3, 4, 5)] == [8, 28, 208]


def _bier_row(k: Complex) -> tuple:
    """(K, ghost-free Bier sphere, its key), the row ``sphere_record`` reads."""
    sphere = drop_ghosts(bier_sphere(k))
    return k, sphere, canonical_key(sphere)


def test_census_records_differ_only_by_the_key_map():
    # a class whose representative is unchanged gives the same record up
    # to its key; the others are computed on both representatives
    new = enumerate_complexes(5, include_simplex=False)
    old = _retired_classes(5)
    by_class = {canonical_key(k): k for k in old}
    assert len(by_class) == len(new) == 208
    changed = [(by_class[canonical_key(k)], k) for k in new if by_class[canonical_key(k)] != k]
    assert changed  # the check below is not vacuous
    for old_rep, new_rep in changed:
        assert are_isomorphic(old_rep, new_rep) is not None
        old_record = sphere_record(_bier_row(old_rep)).to_dict()
        new_record = sphere_record(_bier_row(new_rep)).to_dict()
        del old_record["canonical"], new_record["canonical"]
        assert old_record == new_record
