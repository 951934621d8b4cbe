"""Correctness above the exhaustive-enumeration sizes, on sampled trees.

The oracles enumerate every tree only up to n = 6/4/3 (k = 2/3/4).  Here a
uniform backward-walk sampler (tests/sampler.py) draws trees far above
that.  Each draw must survive both maps, validate, and be classified by
`is_compacted`, whose cross-assert between the interned-id and the cherry
criterion is the two-route check.  The share of compacted draws must match
the exact c_n / r_n, which decays only like n^(-1/4) at k = 2 (Elvey Price,
Fang and Wallner, JCTA 2021), so it stays measurable at n = 300.  Sizes,
draw counts and seeds are fixed here.
"""

import math
import random
from collections import Counter

import pytest

from dagenum.bijection import path_to_tree, tree_to_path
from dagenum.paths import generate_paths
from dagenum.tables import diagonal_sequence
from dagenum.trees import is_compacted, validate_tree
from sampler import PathSampler

SHARE_DRAWS = 800
# (k, n, seed, exact c_n / r_n to four places)
SHARE_CASES = [
    (2, 50, 1401, 0.4114),
    (2, 100, 1402, 0.3396),
    (2, 300, 1403, 0.2536),
    (3, 100, 1404, 0.8420),
]

CHI2_SEED = 1405
CHI2_DRAWS_PER_PATH = 40
CHI2_LIMIT = 180.80  # the 0.999 quantile of chi-square with 126 degrees of freedom


@pytest.mark.parametrize(
    "k, n, seed, share", SHARE_CASES, ids=[f"k{k}-n{n}" for k, n, _, _ in SHARE_CASES]
)
def test_sampled_trees_round_trip_and_match_the_compacted_share(k, n, seed, share):
    exact = diagonal_sequence("compacted", k, n)[n] / diagonal_sequence("relaxed", k, n)[n]
    assert round(exact, 4) == share
    sampler, rng = PathSampler(k, n), random.Random(seed)
    compacted = 0
    for _ in range(SHARE_DRAWS):
        p = sampler.draw(rng)
        t = path_to_tree(p)
        assert t.n == n
        assert tree_to_path(t) == p
        assert validate_tree(t).ok
        compacted += is_compacted(t)
    sigma = math.sqrt(exact * (1 - exact) / SHARE_DRAWS)
    assert abs(compacted / SHARE_DRAWS - exact) <= 4 * sigma


def test_sampler_is_uniform_over_the_127_paths_of_size_4():
    support = {p.steps for p in generate_paths(2, 4)}
    assert len(support) == 127
    sampler, rng = PathSampler(2, 4), random.Random(CHI2_SEED)
    draws = CHI2_DRAWS_PER_PATH * len(support)
    seen = Counter(sampler.draw(rng).steps for _ in range(draws))
    assert seen.keys() <= support
    chi2 = sum((seen[steps] - CHI2_DRAWS_PER_PATH) ** 2 for steps in support) / CHI2_DRAWS_PER_PATH
    assert chi2 < CHI2_LIMIT
