"""Correctness above the exhaustive-enumeration sizes, on sampled trees.

The oracles enumerate every tree only up to n = 6/4/3 (k = 2/3/4).  Here a
uniform backward-walk sampler (tests/sampler.py) draws trees far above
that.  Each draw must survive both maps, validate, and be classified by
`is_compacted`, whose cross-assert between the interned-id and the cherry
criterion is the two-route check.  The share of compacted draws must match
the exact c_n / r_n, which decays only like n^(-1/4) at k = 2 (Elvey Price,
Fang and Wallner, JCTA 2021), so it stays measurable at n = 300.  On the
same draws, the mean share of accepting-bit choices that make a draw's
automaton minimal must match the dfa recurrence's m_n / (2^n r_n).  The share
does not see a sampler that favours U steps; the length of a draw's final U
run does, and its exact law comes from the same wedge columns.  Sizes, draw
counts and seeds are fixed here.
"""

import math
import random
import statistics
from collections import Counter

import pytest

from dagenum.bijection import path_to_tree, tree_to_path
from dagenum.oracle import _minimal_bits
from dagenum.paths import generate_paths
from dagenum.tables import diagonal_sequence
from dagenum.trees import is_compacted, validate_tree
from sampler import PathSampler

SHARE_DRAWS = 800
# (k, n, seed, exact c_n / r_n and m_n / (2^n r_n) to four places)
SHARE_CASES = [
    (2, 50, 1401, 0.4114, 0.2891),
    (2, 100, 1402, 0.3396, 0.2623),
    (2, 300, 1403, 0.2536, 0.2265),
    (3, 100, 1404, 0.8420, 0.4398),
]

# (k, n, seed) for the final U run's mean
RUN_CASES = [(2, 300, 1406), (3, 100, 1407)]

CHI2_SEED = 1405
CHI2_DRAWS_PER_PATH = 40
CHI2_LIMIT = 180.80  # the 0.999 quantile of chi-square with 126 degrees of freedom


@pytest.mark.parametrize(
    "k, n, seed, share, dfa_share", SHARE_CASES, ids=[f"k{k}-n{n}" for k, n, *_ in SHARE_CASES]
)
def test_sampled_trees_round_trip_and_match_the_compacted_share(k, n, seed, share, dfa_share):
    r_n = diagonal_sequence("relaxed", k, n)[n]
    exact = diagonal_sequence("compacted", k, n)[n] / r_n
    assert round(exact, 4) == share
    dfa_exact = diagonal_sequence("dfa", k, n)[n] / (r_n << n)
    assert round(dfa_exact, 4) == dfa_share
    sampler, rng = PathSampler(k, n), random.Random(seed)
    compacted, minimal = 0, []
    for _ in range(SHARE_DRAWS):
        p = sampler.draw(rng)
        t = path_to_tree(p)
        assert t.n == n
        assert tree_to_path(t) == p
        assert not validate_tree(t)
        compacted += is_compacted(t)
        minimal.append(_minimal_bits(t) / 2**n)
    sigma = math.sqrt(exact * (1 - exact) / SHARE_DRAWS)
    assert abs(compacted / SHARE_DRAWS - exact) <= 4 * sigma
    # each draw's share of minimal bit choices has mean m_n / (2^n r_n)
    z = (statistics.fmean(minimal) - dfa_exact) / (statistics.stdev(minimal) / math.sqrt(SHARE_DRAWS))
    assert abs(z) <= 4, f"z = {z:.2f}"


@pytest.mark.parametrize("k, n, seed", RUN_CASES, ids=[f"k{k}-n{n}" for k, n, _ in RUN_CASES])
def test_final_u_run_matches_its_exact_law(k, n, seed):
    # A path ends in exactly j U steps when it passes ((k-1)n, n-j) by an H
    # step from ((k-1)n - 1, n-j), whose cross takes n-j+1 values; so
    # P(j) = (n-j+1) r[(k-1)n-1][n-j] / r_n for j = 1..n.
    sampler, rng = PathSampler(k, n), random.Random(seed)
    x, r_n = (k - 1) * n, sampler.count((k - 1) * n, n)
    weights = {j: (n - j + 1) * sampler.count(x - 1, n - j) for j in range(1, n + 1)}
    assert sum(weights.values()) == r_n
    mean = sum(j * w for j, w in weights.items()) / r_n
    var = sum(j * j * w for j, w in weights.items()) / r_n - mean**2
    total = 0
    for _ in range(SHARE_DRAWS):
        steps = sampler.draw(rng).steps
        total += next(j for j, step in enumerate(reversed(steps)) if step is not None)
    z = (total / SHARE_DRAWS - mean) / math.sqrt(var / SHARE_DRAWS)
    assert abs(z) <= 4, f"z = {z:.2f}"


def test_sampler_is_uniform_over_the_127_paths_of_size_4():
    support = {p.steps for p in generate_paths(2, 4)}
    assert len(support) == 127
    sampler, rng = PathSampler(2, 4), random.Random(CHI2_SEED)
    draws = CHI2_DRAWS_PER_PATH * len(support)
    seen = Counter(sampler.draw(rng).steps for _ in range(draws))
    assert seen.keys() <= support
    chi2 = sum((seen[steps] - CHI2_DRAWS_PER_PATH) ** 2 for steps in support) / CHI2_DRAWS_PER_PATH
    assert chi2 < CHI2_LIMIT
