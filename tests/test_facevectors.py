import pytest

from bierlab import facevectors
from bierlab.census import enumerate_complexes
from bierlab.complexes import (
    Complex,
    boundary_simplex,
    cross_polytope,
    cycle,
    is_flag,
    join,
    make_complex,
    points,
)
from bierlab.errors import InvalidInput, ResourceLimit
from bierlab.facevectors import (
    f_vector,
    gamma_vector,
    h_vector,
    is_dehn_sommerville,
    realize_gamma_as_flag_f,
)


def test_f_and_h_examples():
    assert f_vector(cycle(6)) == (1, 6, 6)
    assert h_vector(cycle(6)) == (1, 4, 1)
    assert f_vector(cycle(5)) == (1, 5, 5)
    assert h_vector(cycle(5)) == (1, 3, 1)
    assert h_vector(boundary_simplex(3)) == (1, 1, 1)


def test_gamma_examples():
    assert gamma_vector(cycle(6)) == (1, 2)
    assert gamma_vector(cycle(5)) == (1, 1)
    assert gamma_vector(boundary_simplex(3)) == (1, -1)
    assert gamma_vector(cross_polytope(3)) == (1, 0)


def test_gamma_none_when_h_not_symmetric():
    path = make_complex(3, [[1, 2], [2, 3]])
    assert not is_dehn_sommerville(path)
    assert gamma_vector(path) is None


def test_dehn_sommerville_on_spheres():
    for sphere in [cycle(4), cycle(5), cycle(6), cross_polytope(3), boundary_simplex(4)]:
        assert is_dehn_sommerville(sphere)


def test_realize_gamma_examples():
    two = realize_gamma_as_flag_f((1, 2))
    assert two is not None and f_vector(two) == (1, 2)
    one = realize_gamma_as_flag_f((1, 1))
    assert one is not None and f_vector(one) == (1, 1)
    empty = realize_gamma_as_flag_f((1, 0))
    assert empty == Complex(0, (0,))
    assert realize_gamma_as_flag_f((1, -1)) is None
    with pytest.raises(InvalidInput):
        realize_gamma_as_flag_f((2, 1))


def test_realize_gamma_with_edges():
    w = realize_gamma_as_flag_f((1, 4, 3))
    assert w is not None
    assert f_vector(w) == (1, 4, 3)
    assert is_flag(w)


def test_realize_gamma_refuses_a_huge_search_before_starting(monkeypatch):
    tried = []
    monkeypatch.setattr(facevectors, "_cliques", lambda n, edges: tried.append(edges))
    # C(28, 7) = 1,184,040 edge sets on 8 vertices
    with pytest.raises(ResourceLimit):
        realize_gamma_as_flag_f((1, 8, 7))
    assert tried == []


def test_h_polynomial_of_join_is_the_product():
    for a, b in [(points(2, 2), points(2, 2)), (cycle(5), points(2, 2)), (cycle(6), cycle(4))]:
        product = facevectors._poly_mul(list(h_vector(a)), list(h_vector(b)))
        assert h_vector(join(a, b)) == tuple(product)


def test_top_h_entry_tracks_euler_characteristic():
    for m in range(1, 5):
        for k in enumerate_complexes(m, include_simplex=False):
            h = h_vector(k)
            n = len(h) - 1
            reduced_euler = -sum((-1) ** i * c for i, c in enumerate(f_vector(k)))
            assert h[-1] == (-1) ** (n + 1) * reduced_euler
