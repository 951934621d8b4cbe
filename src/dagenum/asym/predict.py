"""Leading-order growth prediction for the diagonal counts and the
doubling diagnostic that measures convergence toward it.

The predicted log-count for size n at arity k is

    (k-1) ln n! + n ln(k^k / (k-1)^(k-1))
        + 3 (k(k-1)/2)^(1/3) a1 n^(1/3) + ((2k-1)/3) ln n

with a1 the first Airy zero (negative, so the n^(1/3) term is a
stretched-exponential damping).  The unknown constant-factor gap shows up
as log_ratio; if the form is right, log_ratio differences along n -> 2n
shrink as n grows.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from ..tables import _check_arity

_LN2 = math.log(2.0)
_EXACT_FACT_LIMIT = 10_000


def airy_root_a1() -> float:
    """Largest (first negative) zero of Ai, a1 ~ -2.3381: DLMF Table 9.9.1,
    as its nearest double, -0x1.2b471a873adf9p+1."""
    return -2.338107410459767


def airy_scale(k: int) -> float:
    """B = (2/(k-1))^(1/3), the column scale of the Airy profile."""
    return (2.0 / (k - 1)) ** (1.0 / 3.0)


def profile_argument(k: int, i: int, j):
    """a1 + B (j+1) / i^(1/3), the Airy profile's argument at column j of
    row i; j may be a numpy array of columns."""
    return airy_root_a1() + airy_scale(k) * (j + 1.0) / float(i) ** (1.0 / 3.0)


def log_factorial(n: int) -> float:
    """ln n!; exactly-rounded summation below 10^4, Stirling with three
    correction terms above (error far below double precision there)."""
    if n < 0:
        raise ValueError(f"out-of-range: {n}")
    if n < _EXACT_FACT_LIMIT:
        return math.fsum(math.log(i) for i in range(2, n + 1))
    return (
        n * math.log(n)
        - n
        + 0.5 * math.log(2.0 * math.pi * n)
        + 1.0 / (12.0 * n)
        - 1.0 / (360.0 * n**3)
        + 1.0 / (1260.0 * n**5)
    )


def _log_int(x: int) -> float:
    """ln of a positive integer of arbitrary size."""
    if x <= 0:
        raise AssertionError(f"ln of a non-positive integer: {x}")
    if x.bit_length() <= 53:
        return math.log(x)
    shift = x.bit_length() - 53
    return math.log(x >> shift) + shift * _LN2


def predictor_log(k: int, n: int) -> float:
    _check_arity(k)
    if n < 1:
        raise ValueError(f"out-of-range: predictor needs n >= 1, got {n}")
    a1 = airy_root_a1()
    return (
        (k - 1) * log_factorial(n)
        + n * (k * math.log(k) - (k - 1) * math.log(k - 1))
        + 3.0 * (k * (k - 1) / 2.0) ** (1.0 / 3.0) * a1 * n ** (1.0 / 3.0)
        + (2.0 * k - 1.0) / 3.0 * math.log(n)
    )


class RatioPoint(NamedTuple):
    n: int
    log_ratio: float  # ln count(n) - predictor_log(k, n)
    route: str


_EXACT_ROUTE_LIMIT = 600


def ratio_diagnostic(
    kind: str, k: int, ns: Sequence[int], route: str = "auto"
) -> list[RatioPoint]:
    """log rho_n = ln count(n) - predictor at the given sizes.

    Counts come from the exact diagonal (bignum -> log) up to n = 600;
    larger sizes switch to the factorial-transform route through the
    scaled rows, which only reproduce the relaxed diagonal.  route
    forces "exact" or "scaled" throughout, mainly so the two can be
    cross-checked on their overlap.
    """
    cut = {"auto": _EXACT_ROUTE_LIMIT, "exact": math.inf, "scaled": 0}.get(route)
    if cut is None:
        raise ValueError(f"route: {route!r} is not auto/exact/scaled")
    ns = sorted(set(int(n) for n in ns))
    if not ns:
        return []
    if ns[0] < 1:
        raise ValueError(f"out-of-range: sizes must be >= 1, got {ns[0]}")
    exact_ns = [n for n in ns if n <= cut]
    scaled_ns = ns[len(exact_ns):]
    if scaled_ns and kind != "relaxed":
        raise ValueError(
            f"route: the scaled route only reproduces the relaxed diagonal, "
            f"got kind {kind!r}"
        )
    points = []
    if exact_ns:
        from ..tables import diagonal_sequence

        seq = diagonal_sequence(kind, k, exact_ns[-1])
        points = [RatioPoint(n, _log_int(seq[n]) - predictor_log(k, n), "exact") for n in exact_ns]
    if scaled_ns:
        from .scaled import _scaled_rows

        # one pass over rows 0..k max(n), reading row kn as it goes by
        for i, (row, scale_log2) in enumerate(_scaled_rows(k, k * scaled_ns[-1])):
            n = i // k
            if i % k or n not in scaled_ns:
                continue
            log_count = (
                log_factorial((k - 1) * n)
                - 2.0 * (k - 1) * n * math.log(k - 1.0)
                + (math.log(row[0]) + scale_log2 * _LN2)
            )
            points.append(RatioPoint(n, log_count - predictor_log(k, n), "scaled"))
    return points
