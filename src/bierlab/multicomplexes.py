"""c-multicomplexes, c-duality, monomial ideals with the two polarizations,
and the generalized Bier sphere of a proper multicomplex.

Exponent vectors are int tuples bounded componentwise by the cap vector c.
The sphere lives on the flattened level set: variable block i contributes
the c_i + 1 ground elements (i, 0), ..., (i, c_i), flattened to
offset_i + j + 1 with offset_i the sum of the earlier block sizes, so
output files are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .complexes import MAX_GROUND, Complex, check_antichain, maximal
from .errors import InvalidInput, ResourceLimit, UndefinedDual


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimalize(gens) -> tuple[tuple[int, ...], ...]:
    """The divisibility-minimal exponent vectors, deduplicated, ascending."""
    return maximal(gens, lambda a, b: _divides(b, a))


def _check_exponents(a: tuple[int, ...], c: tuple[int, ...]) -> None:
    """Refuse an exponent vector of the wrong length, with a negative entry,
    or above the caps."""
    if len(a) != len(c) or any(x < 0 for x in a):
        raise InvalidInput(f"bad exponent vector {a}")
    if not _divides(a, c):
        raise InvalidInput(f"exponent vector {a} exceeds the caps {c}")


@dataclass(frozen=True)
class Multicomplex:
    """Cap vector plus the divisibility-maximal monomials (an antichain).

    ``Multicomplex(c, max_monomials)`` checks everything: positive caps, a
    nonempty list, each exponent vector against the caps, the ascending
    order and, pairwise, the antichain.  ``from_antichain`` checks nothing,
    for monomials their builder already made a sorted antichain within caps
    it checked once."""

    c: tuple[int, ...]
    max_monomials: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.c or any(x < 1 for x in self.c):
            raise InvalidInput("cap vector entries must be positive")
        if not self.max_monomials:
            raise InvalidInput("a multicomplex always contains the constant monomial")
        for a in self.max_monomials:
            _check_exponents(a, self.c)
        check_antichain(self.max_monomials, _divides,
                        "maximal monomials must form a divisibility antichain")
        if self.max_monomials != tuple(sorted(self.max_monomials)):
            raise InvalidInput("maximal monomials must be sorted")

    @classmethod
    def from_antichain(cls, c: tuple[int, ...], max_monomials) -> "Multicomplex":
        """The multicomplex of ``max_monomials``, which must already be a
        nonempty ascending antichain within the positive caps ``c``."""
        m = object.__new__(cls)
        object.__setattr__(m, "c", c)
        object.__setattr__(m, "max_monomials", max_monomials)
        return m

    @property
    def nvars(self) -> int:
        return len(self.c)

    def contains(self, a: tuple[int, ...]) -> bool:
        _check_exponents(a, self.c)
        return any(_divides(a, g) for g in self.max_monomials)

    def members(self) -> list[tuple[int, ...]]:
        """All monomials of the multicomplex, in the graded box order: the
        union of the boxes below the maximal monomials."""
        box = _box(self.c)  # refuses a box too large before any work
        inside = set()
        for g in self.max_monomials:
            inside.update(itertools.product(*(range(x + 1) for x in g)))
        return [a for a in box if a in inside]


@lru_cache(maxsize=None)
def _box(c: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors bounded by c, sorted by (degree, tuple)."""
    # far above the suites, tests and benchmark, which reach 32 vectors
    # (the census's caps have |c| <= 5)
    if math.prod(ci + 1 for ci in c) > 10**5:
        raise ResourceLimit("the caps bound prod(c_i + 1) exponent vectors; need <= 10^5")
    return tuple(sorted(itertools.product(*(range(ci + 1) for ci in c)),
                        key=lambda a: (sum(a), a)))


def make_multicomplex(c, gens) -> Multicomplex:
    """Multicomplex generated by exponent vectors; dominated ones removed."""
    c = tuple(c)
    gens = [tuple(g) for g in gens]
    for g in gens:
        _check_exponents(g, c)
    return Multicomplex(c, maximal(gens, _divides) or ((0,) * len(c),))


def is_full(m: Multicomplex) -> bool:
    return m.max_monomials == (m.c,)


def minimal_nonmembers(m: Multicomplex) -> list[tuple[int, ...]]:
    """Divisibility-minimal monomials outside the multicomplex: exactly the
    minimal generating set of the ideal of non-members, in the graded box
    order.  Empty iff full.  Members are closed under division, so a
    non-member is minimal iff lowering any one exponent gives a member."""
    inside = set(m.members())
    return [
        a
        for a in _box(m.c)
        if a not in inside
        and all(a[:i] + (x - 1,) + a[i + 1:] in inside for i, x in enumerate(a) if x)
    ]


def c_dual(m: Multicomplex) -> Multicomplex:
    """Alexander dual w.r.t. the caps: maximal monomials are the
    complements c - g of the minimal non-members g.  An involution.  The
    minimal non-members are an antichain within the caps, and complementing
    reverses divisibility, so the complements are one too."""
    nonmembers = minimal_nonmembers(m)
    if not nonmembers:
        raise UndefinedDual("the full multicomplex has no dual")
    comp = [tuple(ci - x for ci, x in zip(m.c, g)) for g in nonmembers]
    return Multicomplex.from_antichain(m.c, tuple(sorted(comp)))


# ---------------------------------------------------------------------------
# monomial ideals and polarization


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generating set over a named variable list."""

    variables: tuple[str, ...]
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != len(self.variables) or any(x < 0 for x in g):
                raise InvalidInput(f"bad generator exponent vector {g}")
        check_antichain(self.generators, _divides, "generators must be divisibility-minimal")

    def generator_strings(self) -> list[str]:
        out = []
        for g in self.generators:
            parts = [
                self.variables[i] if e == 1 else f"{self.variables[i]}^{e}"
                for i, e in enumerate(g)
                if e
            ]
            out.append("*".join(parts) if parts else "1")
        return out


def nonmember_ideal(m: Multicomplex) -> MonomialIdeal:
    """The ideal generated by every monomial outside the multicomplex; its
    minimal generators are the minimal non-members."""
    variables = tuple(f"x{i + 1}" for i in range(m.nvars))
    return MonomialIdeal(variables, tuple(minimal_nonmembers(m)))


def polarized_variables(c: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(
        f"x{i + 1}_{j}" for i in range(len(c)) for j in range(c[i] + 1)
    )


def block_offsets(c: tuple[int, ...]) -> list[int]:
    offs = [0]
    for ci in c:
        offs.append(offs[-1] + ci + 1)
    return offs


def murai_vertex_labels(c: tuple[int, ...]) -> list[str]:
    return [f"x{i + 1}^({j})" for i in range(len(c)) for j in range(c[i] + 1)]


def _polarize_one(a: tuple[int, ...], c: tuple[int, ...], star: bool) -> tuple[int, ...]:
    offs = block_offsets(c)
    n = offs[-1]
    vec = [0] * n
    for i, e in enumerate(a):
        if e > c[i] + 1:
            raise InvalidInput(
                f"exponent {e} exceeds the polarization bound {c[i] + 1}"
            )
        if star:
            levels = range(c[i], c[i] - e, -1)
        else:
            levels = range(0, e)
        for j in levels:
            vec[offs[i] + j] = 1
    return tuple(vec)


def polarize(ideal: MonomialIdeal, c) -> MonomialIdeal:
    """Bottom polarization: x_i^e becomes x_{i,0} ... x_{i,e-1}."""
    c = tuple(c)
    gens = [_polarize_one(g, c, star=False) for g in ideal.generators]
    return MonomialIdeal(polarized_variables(c), _minimalize(gens))


def star_polarize(ideal: MonomialIdeal, c) -> MonomialIdeal:
    """Top polarization: x_i^e becomes x_{i,c_i} ... x_{i,c_i-e+1}."""
    c = tuple(c)
    gens = [_polarize_one(g, c, star=True) for g in ideal.generators]
    return MonomialIdeal(polarized_variables(c), _minimalize(gens))


def squarefree_support_masks(ideal: MonomialIdeal) -> list[int]:
    """Supports of a squarefree ideal's generators as vertex bitmasks."""
    out = []
    for g in ideal.generators:
        if any(e > 1 for e in g):
            raise InvalidInput("ideal is not squarefree")
        mask = 0
        for i, e in enumerate(g):
            if e:
                mask |= 1 << i
        out.append(mask)
    return sorted(out, key=lambda x: (x.bit_count(), x))


# ---------------------------------------------------------------------------
# the generalized Bier sphere


def murai_sphere(m: Multicomplex) -> Complex:
    """Sphere of a proper multicomplex on the flattened level set.

    Facets: for each member monomial a, each variable i and level j with
    a_i < j <= c_i such that bumping a_i to j leaves the multicomplex, take
    the whole level set minus the levels of a minus (i, j).  The rule's
    output is checked to be pairwise distinct sets of |c| - 1 vertices
    each, and distinct sets of one size form an antichain.
    """
    if is_full(m):
        raise UndefinedDual("the full multicomplex has no sphere")
    c = m.c
    offs = block_offsets(c)
    n = offs[-1]
    members = m.members()
    # a box within its bound can still have a long level set: caps (2000,)
    # give a sphere on 2,001 vertices, which the JSON reader refuses
    if n > MAX_GROUND:
        raise ResourceLimit(
            f"murai_sphere: the level set has sum(c_i + 1) vertices; need <= {MAX_GROUND}")
    full = (1 << n) - 1
    gens = []
    inside = set(members)
    for a in members:
        removed = 0
        for i, e in enumerate(a):
            removed |= 1 << (offs[i] + e)
        for i, e in enumerate(a):
            for j in range(e + 1, c[i] + 1):
                if a[:i] + (j,) + a[i + 1:] not in inside:
                    gens.append(full ^ removed ^ (1 << (offs[i] + j)))
    assert len(gens) == len(set(gens))
    assert all(g.bit_count() == n - len(c) - 1 for g in gens)
    return Complex.from_antichain(n, tuple(sorted(gens)))


def murai_face_ideal(m: Multicomplex) -> MonomialIdeal:
    """Face ideal of the sphere: polarization of the non-member ideal, plus
    star-polarization of the dual's, plus the polarized pure powers
    x_i^(c_i + 1); reduced to minimal squarefree generators."""
    if is_full(m):
        raise UndefinedDual("the full multicomplex has no sphere")
    c = m.c
    gens = [_polarize_one(g, c, star=False) for g in minimal_nonmembers(m)]
    gens += [
        _polarize_one(g, c, star=True) for g in minimal_nonmembers(c_dual(m))
    ]
    for i in range(len(c)):
        power = tuple(c[i] + 1 if t == i else 0 for t in range(len(c)))
        gens.append(_polarize_one(power, c, star=False))
    return MonomialIdeal(polarized_variables(c), _minimalize(gens))


def multicomplex_of_complex(k: Complex) -> Multicomplex:
    """The caps-(1,...,1) multicomplex whose monomials are the faces.  The
    facets are an inclusion antichain, so their exponent vectors are a
    divisibility antichain, and nothing is checked again."""
    if not k.m:
        raise InvalidInput("cap vector entries must be positive")
    gens = (tuple(f >> i & 1 for i in range(k.m)) for f in k.facets)
    return Multicomplex.from_antichain((1,) * k.m, tuple(sorted(gens)))


def bier_relabeling_to_murai(m_ground: int) -> list[int]:
    """Map from Bier-sphere labels on [2m] to flattened caps-(1,..,1) labels:
    vertex i goes to 2i-1 and the primed copy m+i goes to 2i."""
    out = [0] * (2 * m_ground)
    for i in range(1, m_ground + 1):
        out[i - 1] = 2 * i - 1
        out[m_ground + i - 1] = 2 * i
    return out
