import functools
import math

import pytest

from dagenum.asym.predict import (
    _log_int,
    log_factorial,
    predictor_log,
    ratio_diagnostic,
)
from dagenum.tables import diagonal_sequence


def test_log_factorial_small():
    for n in (0, 1, 2, 5, 20, 170, 2000):
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-13)
    with pytest.raises(ValueError, match="out-of-range"):
        log_factorial(-1)


def test_log_factorial_stirling_branch():
    # above the exact-summation cutoff the Stirling form takes over
    n = 250_000
    assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-14)


def test_log_int_bignum():
    assert _log_int(7) == pytest.approx(math.log(7.0))
    big = 10**500 + 12345
    assert _log_int(big) == pytest.approx(500 * math.log(10.0), rel=1e-15)


def test_predictor_guards():
    with pytest.raises(ValueError, match="arity-k"):
        predictor_log(1, 5)
    with pytest.raises(ValueError, match="out-of-range"):
        predictor_log(2, 0)


def test_predictor_dominant_term():
    # the superexponential part dominates: predictor ~ (k-1) ln n!
    n = 2000
    for k in (2, 3):
        lead = (k - 1) * log_factorial(n)
        assert predictor_log(k, n) == pytest.approx(lead, rel=0.25)


def test_ratio_point_holds_log_ratio():
    # log_ratio is ln count(n) - predictor, to the bit, on the exact route
    (pt,) = ratio_diagnostic("relaxed", 2, [40])
    count = diagonal_sequence("relaxed", 2, 40)[40]
    assert pt == (40, _log_int(count) - predictor_log(2, 40), "exact")


def test_ratio_route_selection():
    pts = ratio_diagnostic("relaxed", 2, [500, 700])
    assert [pt.route for pt in pts] == ["exact", "scaled"]
    assert [pt.n for pt in pts] == [500, 700]


def test_ratio_routes_agree_on_overlap():
    # k = 2 on [40, 700, 1000]: one scaled pass keeps three rows, two of
    # them above the auto route's cut-off
    for k, ns in ((2, [40, 80]), (3, [40, 80]), (2, [40, 700, 1000])):
        exact = ratio_diagnostic("relaxed", k, ns, route="exact")
        scaled = ratio_diagnostic("relaxed", k, ns, route="scaled")
        assert [pt.n for pt in exact] == [pt.n for pt in scaled] == ns
        for e, s in zip(exact, scaled):
            assert s.route == "scaled"
            assert abs(e.log_ratio - s.log_ratio) < 1e-9


def test_ratio_guards():
    with pytest.raises(ValueError, match="route"):
        ratio_diagnostic("relaxed", 2, [10], route="guess")
    with pytest.raises(ValueError, match="route"):
        ratio_diagnostic("compacted", 2, [10], route="scaled")
    with pytest.raises(ValueError, match="out-of-range"):
        ratio_diagnostic("relaxed", 2, [0])
    with pytest.raises(ValueError) as err:
        ratio_diagnostic("relaxed", 2, [10001])
    assert str(err.value) == "too-large: 20002 rows exceed the ceiling 20000"
    assert ratio_diagnostic("relaxed", 2, []) == []


def test_ratio_other_kinds_exact_route():
    pts = ratio_diagnostic("compacted", 2, [16, 32])
    assert all(pt.route == "exact" for pt in pts)
    assert pts[0].log_ratio != pts[1].log_ratio


# The growth law above the exact sizes.  log rho(n) = ln r_n - predictor_log
# is fitted by least squares as C + a n^(-1/3) + b n^(-2/3), plus one free
# term at a time, over n = 64 * 2^(t/4) up to the scaled route's 20,000-row
# ceiling (k n <= 20,000): 30 sizes to 9,742 for k = 2, 27 to 5,793 for
# k = 3.  A free delta n^(1/3) or epsilon ln n term measures how far the
# predictor's n^(1/3) coefficient and ln n exponent are from the counts'.
# The bounds were fixed before the test existed, at 3 to 8 times the
# measured values, and are not to move to absorb a later change.
#
# Measured (relaxed):
#   k = 2: C = 5.119, a = 3.172, b = -3.391, max residual 3.1e-4;
#          delta = -1.3e-4, epsilon = -1.3e-3
#   k = 3: C = 7.530, a = 3.651, b = -4.020, max residual 5.5e-4;
#          delta = -3.6e-4, epsilon = -3.3e-3
# Under the three-term fit the doubling gap |log rho(2n) - log rho(n)| is
# A m - |B| m^2 with m = n^(-1/3), A = a (1 - 2^(-1/3)) and
# |B| = |b| (1 - 2^(-2/3)).  It peaks at n = (2|B|/A)^3, near n = 56 for
# k = 2 and n = 62 for k = 3: so the gaps rise from n = 32 to 64 and fall
# from there, which is why acceptance 7's first pair fails.
_GROWTH_DELTA_BOUND = 1e-3
_GROWTH_EPSILON_BOUND = 1e-2


@functools.cache
def _growth_fit(k: int) -> dict:
    import numpy as np

    ns = []
    while k * round(64 * 2 ** (len(ns) / 4)) <= 20_000:
        ns.append(round(64 * 2 ** (len(ns) / 4)))
    points = ratio_diagnostic("relaxed", k, ns)
    n = np.array([p.n for p in points], dtype=float)
    y = np.array([p.log_ratio for p in points])
    base = [np.ones_like(n), n ** (-1 / 3), n ** (-2 / 3)]

    def fit(*extra):
        return np.linalg.lstsq(np.column_stack([*base, *extra]), y, rcond=None)[0]

    C, a, b = fit()
    A, B = a * (1 - 2 ** (-1 / 3)), abs(b) * (1 - 2 ** (-2 / 3))
    return {
        "sizes": (ns[0], ns[-1], len(ns)),
        "C": C, "a": a, "b": b,
        "gap_peak_n": (2 * B / A) ** 3,
        "delta": fit(n ** (1 / 3))[-1],
        "epsilon": fit(np.log(n))[-1],
    }


@pytest.mark.parametrize("k", [2, 3])
def test_growth_law_cube_root_coefficient(k):
    fit = _growth_fit(k)
    assert fit["sizes"] == {2: (64, 9742, 30), 3: (64, 5793, 27)}[k]
    assert abs(fit["delta"]) <= _GROWTH_DELTA_BOUND, fit


@pytest.mark.parametrize("k", [2, 3])
def test_growth_law_log_exponent(k):
    fit = _growth_fit(k)
    assert abs(fit["epsilon"]) <= _GROWTH_EPSILON_BOUND, fit


# Growth exponents of the compacted and dfa counts relative to relaxed.
# log(c_n / r_n) and log(m_n / (2^n r_n)), from the exact DP at
# n = 32 * 2^(t/4) <= 600 (<= 400 for k = 4), are fitted by least squares
# as C + gamma ln n + a n^(-1/3) + b n^(-2/3) + c/n.  For k = 2 the
# exponents are proven: compacted binary trees are
# Theta(n! 4^n e^(3 a1 n^(1/3)) n^(3/4)) (Elvey Price, Fang and Wallner,
# JCTA 177, 2021), minimal DFAs over two letters are
# Theta(n! 8^n e^(3 a1 n^(1/3)) n^(7/8)) (the same authors, STACS 2020),
# and relaxed binary trees carry n^1, so gamma = -1/4 and -1/8.  For k = 3
# and 4, |gamma| <= 0.01 pins a measurement, not a theorem: the source paper
# states only the recurrences for these kinds.  The bound was fixed before
# the test existed and is not to move to absorb a later change.
#
# Measured (compacted, dfa), largest residual 2.5e-6:
#   k = 2: gamma = -0.2515, -0.1249; C = 0.053, -0.782
#   k = 3: gamma =  0.0008,  0.0007; C = -0.185, -0.830
#   k = 4: gamma =  0.0006,  0.0003; C = -0.059, -0.742
#
# These fits reproduce exponents; they are no regression check of the
# recurrences.  A slip of one in a subtraction coefficient moves gamma by
# under 3e-3 and moves C, which the sampled shares in test_sampler.py see.
# Neither check catches a slip that moves the counts by a few parts in 10^4:
# adding 1 to both subtraction coefficients at every seventh m above 12
# moves gamma by under 6e-4 and passes the pinned counts and acceptances 1
# and 2.  The mod 2^61 - 1 recomputation in bench/checks.py checks that.
_SHARE_GAMMA = {(2, "compacted"): -1 / 4, (2, "dfa"): -1 / 8}  # 0 for k >= 3
_SHARE_GAMMA_BOUND = 0.01


@functools.cache
def _share_fits(k: int) -> dict:
    import numpy as np

    ns = []
    while round(32 * 2 ** (len(ns) / 4)) <= (400 if k == 4 else 600):
        ns.append(round(32 * 2 ** (len(ns) / 4)))
    r, c, m = (diagonal_sequence(kind, k, ns[-1]) for kind in ("relaxed", "compacted", "dfa"))
    shares = {
        "compacted": [math.log(c[n]) - math.log(r[n]) for n in ns],
        "dfa": [math.log(m[n]) - n * math.log(2) - math.log(r[n]) for n in ns],
    }
    n = np.array(ns, dtype=float)
    basis = np.column_stack([np.ones_like(n), np.log(n), n ** (-1 / 3), n ** (-2 / 3), 1 / n])
    return {
        kind: dict(zip(("C", "gamma"), np.linalg.lstsq(basis, np.array(y), rcond=None)[0]))
        for kind, y in shares.items()
    }


@pytest.mark.parametrize("kind", ["compacted", "dfa"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_share_growth_exponent(k, kind):
    fit = _share_fits(k)[kind]
    want = _SHARE_GAMMA.get((k, kind), 0.0)
    assert abs(fit["gamma"] - want) <= _SHARE_GAMMA_BOUND, (
        f"gamma = {fit['gamma']:.4f}, want {want:.4f}; C = {fit['C']:.4f}"
    )
