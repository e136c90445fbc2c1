import functools
import itertools
import json
import math
import operator
from collections import Counter

import pytest

from bierlab import census, cli, complexes, duality, multicomplexes
from bierlab.census import (
    all_labeled_complexes,
    compositions,
    enumerate_complexes,
    enumerate_multicomplexes,
    multicomplex_canonical_key,
    sphere_record,
    verify,
)
from bierlab.complexes import (
    Isomorphism,
    canonical_key,
    drop_ghosts,
    full_subcomplex,
    make_complex,
    maps_facets_onto,
    mask_of,
    points,
    vertices_of,
)
from bierlab.duality import bier_sphere
from bierlab.errors import InvalidInput, ResourceLimit
from bierlab.multicomplexes import (
    block_offsets,
    c_dual,
    make_multicomplex,
    multicomplex_of_complex,
    murai_sphere,
)
from bierlab.tor import QQ


def test_labeled_counts():
    # antichain counts in the boolean lattice, void included, per ground set
    assert len(all_labeled_complexes(2)) == 5
    assert len(all_labeled_complexes(3)) == 19
    assert len(all_labeled_complexes(4)) == 167
    assert len(all_labeled_complexes(5)) == 7580


def test_iso_class_counts():
    assert len(enumerate_complexes(2)) == 4
    assert len(enumerate_complexes(2, include_simplex=False)) == 3
    assert len(enumerate_complexes(3)) == 9
    assert len(enumerate_complexes(4)) == 29
    assert len(enumerate_complexes(5)) == 209


def test_enumeration_is_duplicate_free_and_canonical():
    seen = set()
    for k in enumerate_complexes(4):
        key = canonical_key(k)
        assert key not in seen
        seen.add(key)
        assert canonical_key(k) == key


def test_census_contains_seed_types():
    keys = {canonical_key(k) for k in enumerate_complexes(3)}
    for gens in [[[1], [2, 3]], [[1], [2], [3]], [[1], [2]]]:
        assert canonical_key(make_complex(3, gens)) in keys


def test_orbit_stabilizer_cross_check():
    for m in (2, 3, 4):
        labeled = len(all_labeled_complexes(m))
        total = 0
        for k in enumerate_complexes(m):
            auts = 0
            for perm in itertools.permutations(range(1, m + 1)):
                relabeled = sorted(
                    mask_of(perm[v - 1] for v in vertices_of(f)) for f in k.facets
                )
                if tuple(relabeled) == k.facets:
                    auts += 1
            total += math.factorial(m) // auts
        assert total == labeled


def cycle_types(m: int, largest: int | None = None):
    """The partitions of m, parts in descending order."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in cycle_types(m - part, part):
            yield (part,) + rest


def cycle_permutation(cycle_type: tuple[int, ...]) -> list[int]:
    """A permutation of range(sum(cycle_type)) with the given cycle type."""
    perm = []
    for length in cycle_type:
        start = len(perm)
        perm += [start + (i + 1) % length for i in range(length)]
    return perm


def invariant_antichains(items, move, below) -> list[int]:
    """Coefficient j: the antichains with j members of the poset ``items``
    that its automorphism ``move`` fixes.  Such an antichain is a union of
    orbits of ``move``, no two of them comparable (one orbit's items all
    have one rank: subsets one size, exponent vectors one degree), so the
    count runs over the independent sets of the orbits' comparability
    graph, x^|O| for each orbit O chosen."""
    orbits, seen = [], set()
    for s in items:
        orbit = []
        while s not in seen:
            seen.add(s)
            orbit.append(s)
            s = move(s)
        if orbit:
            orbits.append(orbit)
    clash = [
        sum(1 << j for j, other in enumerate(orbits) if j != i and any(
            below(a, b) or below(b, a) for a in orbit for b in other))
        for i, orbit in enumerate(orbits)
    ]

    @functools.lru_cache(maxsize=None)
    def count(free: int) -> tuple[int, ...]:
        if not free:
            return (1,)
        i = (free & -free).bit_length() - 1
        rest = free & ~(1 << i)
        skip = count(rest)
        take = (0,) * len(orbits[i]) + count(rest & ~clash[i])
        return tuple(map(sum, itertools.zip_longest(skip, take, fillvalue=0)))

    return list(count((1 << len(orbits)) - 1))


def burnside_classes(weighted_fixed, order: int) -> dict[int, int]:
    """Size -> number of orbits of antichains, by Burnside's lemma, from
    (weight, fixed antichain counts by size) over the group of the given
    order, less the empty antichain and the one of the top element alone."""
    totals = []
    for weight, fixed in weighted_fixed:
        totals += [0] * (len(fixed) - len(totals))
        for j, n in enumerate(fixed):
            totals[j] += weight * n
    assert all(n % order == 0 for n in totals)
    classes = [n // order for n in totals]
    classes[0] -= 1  # the empty antichain
    classes[1] -= 1  # the top element alone
    return {j: n for j, n in enumerate(classes) if n}


def burnside_complex_counts(m: int) -> dict[int, int]:
    """Facet count -> number of isomorphism classes of complexes on [m] but
    the simplex, by Burnside's lemma over one permutation per cycle type,
    weighted by the size of its conjugacy class: the antichains of subsets
    of [m] less the empty one and {[m]}."""
    weighted_fixed = []
    for cycle_type in cycle_types(m):
        centralizer = math.prod(cycle_type) * math.prod(
            math.factorial(cycle_type.count(n)) for n in set(cycle_type))
        perm = cycle_permutation(cycle_type)
        fixed = invariant_antichains(
            range(1 << m),
            lambda s: sum(1 << perm[v] for v in range(m) if s >> v & 1),
            lambda a, b: a & b == a,
        )
        weighted_fixed.append((math.factorial(m) // centralizer, fixed))
    return burnside_classes(weighted_fixed, math.factorial(m))


def burnside_multicomplex_counts(c: tuple[int, ...]) -> dict[int, int]:
    """Maximal-monomial count -> number of classes of proper multicomplexes
    with caps c under the variable permutations that keep the caps, by
    Burnside's lemma over that group: the antichains of the box under
    divisibility less the empty one and {c}."""
    box = list(itertools.product(*(range(x + 1) for x in c)))
    group = [perm for perm in itertools.permutations(range(len(c)))
             if all(c[i] == c[j] for i, j in enumerate(perm))]
    weighted_fixed = [
        (1, invariant_antichains(
            box,
            lambda a: tuple(a[j] for j in perm),
            lambda a, b: all(x <= y for x, y in zip(a, b)),
        ))
        for perm in group
    ]
    return burnside_classes(weighted_fixed, len(group))


def test_census_class_counts_by_facet_count_match_burnside():
    counts = {m: burnside_complex_counts(m) for m in (1, 2, 3, 4, 5)}
    for m, by_facets in counts.items():
        census = enumerate_complexes(m, include_simplex=False)
        assert by_facets == Counter(len(k.facets) for k in census)
    assert [sum(counts[m].values()) for m in (3, 4, 5)] == [8, 28, 208]


def test_multicomplex_census_rows_by_caps_match_burnside():
    rows = Counter(
        (caps, len(m.max_monomials))
        for total in (1, 2, 3, 4, 5) for caps, m, _n, _form in census._murai_census(total)
    )
    assert sum(rows.values()) == 2012
    for total in (1, 2, 3, 4, 5):
        for caps in compositions(total):
            counts = burnside_multicomplex_counts(caps)
            assert counts == {j: n for (c, j), n in rows.items() if c == caps}


def test_a_negative_ground_set_is_invalid():
    with pytest.raises(InvalidInput, match="got -1"):
        all_labeled_complexes(-1)
    with pytest.raises(InvalidInput):
        enumerate_complexes(-1)


def test_enumeration_resource_limits():
    with pytest.raises(ResourceLimit):
        all_labeled_complexes(6)
    with pytest.raises(ResourceLimit):
        enumerate_multicomplexes((3, 3))


@pytest.mark.parametrize("caps", [(0,), (-1, 2), (), (2, 0)])
def test_multicomplex_enumeration_refuses_caps_that_are_not_positive(caps):
    with pytest.raises(InvalidInput, match="cap vector entries must be positive"):
        enumerate_multicomplexes(caps)


def test_multicomplex_enumeration():
    assert len(enumerate_multicomplexes((3,))) == 3
    assert len(enumerate_multicomplexes((1, 1))) == 4
    listed = {m.max_monomials for m in enumerate_multicomplexes((2, 1))}
    assert ((1, 0),) in listed and ((0, 1),) in listed
    assert ((0, 1), (1, 0)) in listed
    # the full box never shows up
    assert ((2, 1),) not in listed


def test_multicomplex_canonical_key_respects_caps():
    a = make_multicomplex((1, 1), [(1, 0)])
    b = make_multicomplex((1, 1), [(0, 1)])
    assert multicomplex_canonical_key(a) == multicomplex_canonical_key(b)
    c = make_multicomplex((2, 1), [(0, 1)])
    d = make_multicomplex((2, 1), [(1, 0)])
    assert multicomplex_canonical_key(c) != multicomplex_canonical_key(d)


def test_compositions():
    assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)] or sorted(
        compositions(3)
    ) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(compositions(5)) == 16


def test_sphere_record_round_trip():
    k = points(3, 3)
    sphere = drop_ghosts(duality.bier_sphere(k))
    record = sphere_record((k, sphere, canonical_key(sphere)), QQ)
    assert record.flag and record.min_non_golod and not record.product_golod
    assert record.f == (1, 6, 6) and record.h == (1, 4, 1)
    assert record.gamma == (1, 2)
    assert "golod-family(3)" in record.tags
    d = record.to_dict()
    assert d["betti_field"] == 0
    assert json.dumps(d)  # serializable


def test_verify_unknown_suite():
    with pytest.raises(InvalidInput):
        verify("no-such-suite")


def test_reports_are_deterministic():
    a = verify("bier-1dim").to_dict()
    b = verify("bier-1dim").to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_invariant():
    r = verify("bier-1dim")
    assert r.pass_count + len(r.counterexamples) == r.instance_count


def _first_bier_rows(monkeypatch, n):
    """Cut each ``_bier_spheres(m)`` table to its first n rows, so a golod
    run checks 3n spheres."""
    real = census._bier_spheres
    monkeypatch.setattr(census, "_bier_spheres", lambda m: real(m)[:n])


def test_golod_suite_reports_wrong_verdicts(monkeypatch):
    # the expected verdicts come from the truncation family, not from
    # golod_summary, so a negated verdict fails every instance
    real = census.golod_summary
    monkeypatch.setattr(
        census, "golod_summary",
        lambda sphere, tag: tuple(not v for v in real(sphere, tag)),
    )
    _first_bier_rows(monkeypatch, 2)
    r = verify("golod")
    assert r.instance_count == 6
    assert r.pass_count == 0 and len(r.counterexamples) == r.instance_count


def _record_calls(monkeypatch, *targets) -> list:
    """Route each (module, name) through one recorder of the first argument."""
    seen = []
    for module, name in targets:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda x, *args, real=real: seen.append(x) or real(x, *args)
        )
    return seen


def _record_canonical_forms(monkeypatch) -> list:
    """Route every canonical_form call through a recorder of its argument."""
    return _record_calls(monkeypatch, (complexes, "canonical_form"), (census, "canonical_form"))


def test_iso_classes_canonicalize_each_labeled_complex_once(monkeypatch):
    # at most once: only each class's first labeled complex is searched,
    # and the other 138 members of the 28 classes find their marks
    census._complex_classes.cache_clear()
    seen = _record_canonical_forms(monkeypatch)
    assert len(enumerate_complexes(4, include_simplex=False)) == 28
    assert seen == [k for k, _n in census._complex_classes(4).values()]


def test_warm_complex_classes_serve_the_census_and_the_squarefree_murai_rows(monkeypatch):
    enumerate_complexes(4, include_simplex=False)
    census._murai_census.cache_clear()
    seen = _record_canonical_forms(monkeypatch)
    census._murai_census(4)
    enumerate_complexes(4, include_simplex=True)
    assert seen == []


def test_squarefree_murai_rows_partition_like_the_multicomplex_key():
    # the rows of caps (1,...,1) come from the complex table, not from
    # multicomplex_canonical_key; both must give the same classes
    for n, labeled in zip((1, 2, 3, 4, 5), (1, 4, 18, 166, 7579)):
        caps = (1,) * n
        classes = {}
        for m in enumerate_multicomplexes(caps):
            classes.setdefault(multicomplex_canonical_key(m), []).append(m)
        assert sum(map(len, classes.values())) == labeled
        rows = [row for row in census._murai_census(n) if row[0] == caps]
        keys = [multicomplex_canonical_key(m) for _c, m, _n, _form in rows]
        assert sorted(keys) == sorted(classes)
        for key, (_c, m, multiplicity, _form) in zip(keys, rows):
            assert m in classes[key] and multiplicity == len(classes[key])


def test_warm_bier_tables_are_not_canonicalized_again(monkeypatch):
    census_spheres = {
        sphere for m in (3, 4, 5) for _k, sphere, _key in census._bier_spheres(m)
    }
    seen = _record_canonical_forms(monkeypatch)
    assert verify("bier-13types").ok
    _first_bier_rows(monkeypatch, 3)
    assert verify("golod").ok
    assert not census_spheres.intersection(seen)


def test_murai_census_builds_one_sphere_per_permutation_orbit(monkeypatch):
    census._complex_classes.cache_clear()
    census._murai_census.cache_clear()
    census._murai_spheres.cache_clear()
    seen = _record_canonical_forms(monkeypatch)
    keyed = []
    real_key = census.multicomplex_canonical_key
    monkeypatch.setattr(
        census, "multicomplex_canonical_key", lambda m: keyed.append(m) or real_key(m)
    )
    rows = census._murai_census(4)
    # only squarefree caps go through canonical_form, in the complex table:
    # one representative of each of the 28 classes of proper complexes on
    # [4], each a labeled multicomplex with caps (1,1,1,1)
    assert len(seen) == 28
    assert {k.m for k in seen} == {4}
    # other caps are keyed once per class, and only with sorted caps: the
    # permuted-caps rows are all marked by then
    sorted_rows = [c for c, *_ in rows if list(c) == sorted(c) and c != (1, 1, 1, 1)]
    assert len(keyed) == len(sorted_rows)
    assert all(list(m.c) == sorted(m.c) for m in keyed)
    built = []

    def recording(m):
        built.append(m)
        return murai_sphere(m)

    monkeypatch.setattr(census, "murai_sphere", recording)
    assert len(census._murai_spheres(4)) == len(rows) == 169
    # one sphere per pair of c-dual orbits among the 90 rows whose caps are
    # sorted; the other rows reuse them
    assert len(built) == 50
    assert all(list(m.c) == sorted(m.c) for m in built)


def _keyed_classes(labeled, form_of) -> list:
    """(form, first member with it, how many have it) in order of first
    appearance, keying every labeled object."""
    classes = {}
    for x in labeled:
        classes.setdefault(form_of(x), [x, 0])[1] += 1
    return [(form, x, n) for form, (x, n) in classes.items()]


def test_marked_tables_match_keying_every_labeled_object():
    # the tables key one member per orbit and mark its relabelings; keying
    # every member must give the same rows, order, representatives and
    # multiplicities
    for m in range(6):
        labeled = all_labeled_complexes(m, include_simplex=False)
        table = [(form, k, n) for form, (k, n) in census._complex_classes(m).items()]
        assert table == _keyed_classes(labeled, complexes.canonical_form), m
    for total in range(1, 6):
        rows = []
        for c in compositions(total):
            if c == (1,) * total:
                labeled = all_labeled_complexes(total, include_simplex=False)
                classes = [
                    (form, multicomplex_of_complex(k), n)
                    for form, k, n in _keyed_classes(labeled, complexes.canonical_form)
                ]
            else:
                labeled = enumerate_multicomplexes(c)
                classes = _keyed_classes(labeled, lambda x: multicomplex_canonical_key(x)[1])
            rows += [(c, x, n, form) for form, x, n in classes]
        assert list(census._murai_census(total)) == rows, total


def test_reused_murai_spheres_match_their_own_keys():
    for total in (1, 2, 3, 4, 5):
        for _caps, m, _n, _sphere, key in census._murai_spheres(total):
            assert canonical_key(drop_ghosts(murai_sphere(m))) == key, m


def _orbit_representatives(total: int) -> list:
    """The first ``_murai_census(total)`` row of each (sorted caps, form)
    orbit, the rows ``_murai_spheres`` may build a sphere for."""
    seen = set()
    out = []
    for caps, m, _n, form in census._murai_census(total):
        if (tuple(sorted(caps)), form) not in seen:
            seen.add((tuple(sorted(caps)), form))
            out.append(m)
    return out


def test_level_reversal_carries_each_murai_sphere_onto_its_dual_sphere():
    # _murai_spheres lets the first row of each c-dual orbit take the
    # sphere its partner built, which rests on this isomorphism
    checked = 0
    for total in (1, 2, 3, 4, 5):
        for m in _orbit_representatives(total):
            c = m.c
            offsets = block_offsets(c)
            reversal = Isomorphism(
                tuple(offsets[i] + c[i] - j + 1 for i in range(len(c)) for j in range(c[i] + 1))
            )
            assert maps_facets_onto(reversal, murai_sphere(m), murai_sphere(c_dual(m))), m
            checked += 1
    assert checked == 796


def test_drop_ghosts_is_the_full_subcomplex_on_the_vertex_set_of_census_spheres():
    raw = [bier_sphere(k) for m in (3, 4, 5) for k, _sphere, _key in census._bier_spheres(m)]
    raw += [murai_sphere(m) for total in (1, 2, 3, 4, 5) for m in _orbit_representatives(total)]
    for sphere in raw:
        verts = functools.reduce(operator.or_, sphere.facets)
        assert drop_ghosts(sphere) == full_subcomplex(sphere, verts), sphere


def test_bier_rows_key_like_their_unit_caps_murai_rows():
    # with caps (1,...,1) the Murai sphere of K is the Bier sphere of K
    # relabeled, which lets _sphere_classes read the Bier classes off the
    # Murai rows; ideal-consistency compares the two facet by facet only
    # for m <= 4
    for m in (1, 2, 3, 4, 5):
        murai = {
            form: key
            for (caps, _mc, _n, form), (*_row, key) in zip(
                census._murai_census(m), census._murai_spheres(m)
            )
            if caps == (1,) * m
        }
        bier = census._bier_spheres(m)
        assert len(bier) == len(murai)
        for k, _sphere, key in bier:
            assert murai[(k.m, k.facets)] == key, k


def test_a_cold_sphere_census_builds_no_bier_sphere(monkeypatch):
    for table in (census._complex_classes, census._murai_census, census._murai_spheres,
                  census._bier_spheres):
        table.cache_clear()
    built = _record_calls(monkeypatch, (census, "bier_sphere"), (duality, "bier_sphere"))
    r = verify("dehn-sommerville")
    assert r.ok and r.details["sphere_classes"] == 205
    assert built == []


def test_flag_suites_read_their_spheres_from_the_warm_tables(monkeypatch):
    for m in (3, 4, 5):
        census._bier_spheres(m)
    for total in (2, 3, 4):
        census._murai_spheres(total)
    built = _record_calls(
        monkeypatch,
        (census, "bier_sphere"), (duality, "bier_sphere"),
        (census, "murai_sphere"), (multicomplexes, "murai_sphere"),
    )
    assert verify("flag-bier").ok
    assert verify("flag-murai").ok
    assert built == []


def test_golod_reads_its_spheres_from_the_warm_tables(monkeypatch):
    # the K-level family is read beside the row's sphere, not off a rebuilt
    # one, and the sphere's flag family, which the suite does not read, is
    # not matched
    for m in (3, 4, 5):
        census._bier_spheres(m)
    work = _record_calls(
        monkeypatch,
        (census, "bier_sphere"), (duality, "bier_sphere"),
        (census, "match_flag_family"), (duality, "match_flag_family"),
    )
    # only builds and matches are counted, so the verdicts need not be computed
    monkeypatch.setattr(census, "golod_summary", lambda sphere, tag: (False, False))
    verify("golod")
    assert work == []


def test_a_cold_census_command_builds_each_class_sphere_once(monkeypatch, tmp_path):
    census._complex_classes.cache_clear()
    census._bier_spheres.cache_clear()
    built = _record_calls(
        monkeypatch, (census, "bier_sphere"), (duality, "bier_sphere"), (cli, "bier_sphere")
    )
    out = tmp_path / "census.json"
    assert cli.run(["census", "--m", "4", "--no-cache", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["records"]) == 28
    assert built == [k for k, _sphere, _key in census._bier_spheres(4)]


def test_golod_matches_each_sphere_class_against_the_truncations_once(monkeypatch):
    key_of = {
        id(sphere): key for m in (3, 4, 5) for _k, sphere, key in census._bier_spheres(m)
    }
    matched = _record_calls(monkeypatch, (census, "match_truncation_family"))
    # only the matches are counted, so the verdicts need not be computed
    monkeypatch.setattr(census, "golod_summary", lambda sphere, tag: (False, False))
    verify("golod")
    assert sorted(key_of[id(s)] for s in matched) == sorted(set(key_of.values()))
