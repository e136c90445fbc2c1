"""f-, h- and gamma-vectors, Dehn-Sommerville symmetry, and a brute-force
search for flag realizations of gamma-vectors.  All arithmetic is exact
integer polynomial arithmetic."""

from __future__ import annotations

import itertools
import math

from .complexes import Complex, f_vector_counts, is_flag
from .errors import InvalidInput, ResourceLimit


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(base: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, base)
    return out


# (f_-1, f_0, ..., f_{n-1}) with f_-1 = 1
f_vector = f_vector_counts


def h_vector(k: Complex) -> tuple[int, ...]:
    """(h_0, ..., h_n) from expanding sum_i f_{i-1} (t-1)^(n-i)."""
    f = f_vector(k)
    n = len(f) - 1
    coeffs = [0] * (n + 1)  # ascending powers of t
    for i, fi in enumerate(f):
        term = _poly_pow([-1, 1], n - i)
        for d, c in enumerate(term):
            coeffs[d] += fi * c
    return tuple(coeffs[n - j] for j in range(n + 1))


def is_dehn_sommerville(k: Complex) -> bool:
    h = h_vector(k)
    return h == h[::-1]


def gamma_vector(k: Complex) -> tuple[int, ...] | None:
    """Coefficients gamma_i with h(t) = sum gamma_i t^i (1+t)^(n-2i), or
    None when the h-vector is not symmetric."""
    h = h_vector(k)
    if h != h[::-1]:
        return None
    n = len(h) - 1
    rem = list(h)  # ascending: h_0 + h_1 t + ...
    gamma = []
    for i in range(n // 2 + 1):
        g = rem[i]
        gamma.append(g)
        term = _poly_pow([1, 1], n - 2 * i)
        for d, c in enumerate(term):
            rem[i + d] -= g * c
    assert not any(rem)
    return tuple(gamma)


def _cliques(n_vertices: int, edge_masks: set[int]) -> list[list[int]]:
    """Nonempty cliques of a graph on [n] given by its edge masks, grouped
    by size: entry s - 1 lists the s-cliques, ascending."""
    levels = [[1 << v for v in range(n_vertices)]]
    while True:
        bigger = set()
        for c in levels[-1]:
            for v in range(c.bit_length(), n_vertices):
                b = 1 << v
                if all((b | (1 << u)) in edge_masks for u in range(n_vertices)
                       if c & (1 << u)):
                    bigger.add(c | b)
        if not bigger:
            return levels
        levels.append(sorted(bigger))


def realize_gamma_as_flag_f(gamma) -> Complex | None:
    """A flag complex whose f-vector equals ``gamma`` (trailing zeros
    dropped), found by exhaustive search over graphs on gamma_1 vertices in
    canonical adjacency order; None if no witness exists."""
    gamma = tuple(gamma)
    if not gamma or gamma[0] != 1:
        raise InvalidInput("gamma vectors start with 1")
    if any(g < 0 for g in gamma):
        return None
    target = list(gamma)
    while len(target) > 1 and target[-1] == 0:
        target.pop()
    target = tuple(target)
    n = gamma[1] if len(gamma) > 1 else 0
    if n == 0:
        return Complex(0, (0,)) if target == (1,) else None
    want_edges = target[2] if len(target) > 2 else 0
    pair_count = math.comb(n, 2)
    if want_edges > pair_count:
        return None
    # far above the census (at most 1 candidate edge set) and the tests (20)
    if math.comb(pair_count, want_edges) > 10**6:
        raise ResourceLimit("realize_gamma_as_flag_f tries C(C(n,2), f_1) edge sets; need <= 10^6")
    vertex_pairs = list(itertools.combinations(range(1, n + 1), 2))
    for chosen in itertools.combinations(vertex_pairs, want_edges):
        edge_masks = {(1 << (a - 1)) | (1 << (b - 1)) for a, b in chosen}
        cliques = _cliques(n, edge_masks)
        if (1,) + tuple(len(level) for level in cliques) != target:
            continue
        witness = Complex.from_masks(n, itertools.chain.from_iterable(cliques))
        assert f_vector(witness) == target and is_flag(witness)
        return witness
    return None


def h_polynomial_product(h1: tuple[int, ...], h2: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector of a join is the product of h-polynomials."""
    return tuple(_poly_mul(list(h1), list(h2)))
