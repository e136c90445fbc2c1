import random

import pytest

from bierlab.complexes import Complex
from bierlab.tor import SubsetCohomology, _cohomology_ranks


def random_complex(rng: random.Random, m: int | None = None) -> Complex:
    """Random facet antichain on a small ground set (ghosts possible)."""
    if m is None:
        m = rng.randint(1, 6)
    n_gens = rng.randint(0, 6)
    gens = [rng.randint(0, (1 << m) - 1) for _ in range(n_gens)]
    return Complex.from_masks(m, gens)


def assert_subset_ranks_agree(k: Complex, field) -> None:
    """Every K_J's ranks from the subset table against a sweep of K_J
    itself.  Largest J first, so the first reductions walk chains of
    subsets the table has not seen."""
    table = SubsetCohomology(k, field)
    for j_mask in range((1 << k.m) - 1, -1, -1):
        assert table.ranks(j_mask) == _cohomology_ranks(table.groups(j_mask), field.p), j_mask


@pytest.fixture
def rng():
    return random.Random(20240811)
