"""The exact side of the linear transform: rows over Fractions, the
transform identity and the suffix-walk monotonicity check.  Nothing here
imports numpy, so the `transform` and `p-ineq` scopes start without it.

The diagonal counts admit an exact reformulation: define d over rows
i = 0, 1, 2, ... with admissible columns j == i (mod k), 0 <= j <= i, by

    d[0][0] = 1
    d[i][j] = U(i, j) d[i-1][j-1] + d[i-1][j+k-1]

with weight U(i, j) = (k-1)^2 (i - j + k) / ((k-1) i + j) and zero reads
outside the admissible range.  Then

    count(n) = ((k-1)n)! / (k-1)^(2(k-1)n) * d[kn][0]

exactly, which verify_transform checks over Fractions; scaled.py iterates
the same rows in floating point.

Row i keeps its entries at j = (i mod k) + k*t for t = 0 .. i//k; the
iteration maps parent indices as

    i mod k >= 1:  j-1 -> same t,   j+k-1 -> t+1
    i mod k == 0:  j-1 -> t-1,      j+k-1 -> same t
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def weight_u(k: int, i: int, j):
    """U(i, j) in floating point; j may be a numpy array of columns."""
    return (k - 1) ** 2 * (i - j + k) / ((k - 1) * i + j)


def weight_u_exact(k: int, i: int, j: int) -> Fraction:
    return Fraction((k - 1) ** 2 * (i - j + k), (k - 1) * i + j)


def _check(k: int, i_max: int):
    if k < 2:
        raise ValueError(f"arity-k: {k}")
    if i_max < 0:
        raise ValueError(f"negative-size: {i_max}")


def _parent_rows(prev, r: int, zero, join):
    """The parents d[i-1][j-1] and d[i-1][j+k-1] of every entry of a row of
    residue r, as two rows aligned with it, given the previous row.

    i mod k >= 1 reads the same t and t+1; i mod k == 0 reads t-1 and t.
    zero pads the missing parent, and join(a, b) concatenates rows.
    """
    if r >= 1:
        return prev, join(prev[1:], zero)
    return join(zero, prev), join(prev, zero)


def _exact_rows(k: int, i_max: int) -> list[list[Fraction]]:
    rows = [[Fraction(1)]]
    for i in range(1, i_max + 1):
        r = i % k
        p1, p2 = _parent_rows(rows[-1], r, [Fraction(0)], operator.add)
        rows.append(
            [weight_u_exact(k, i, r + k * t) * a + b for t, (a, b) in enumerate(zip(p1, p2))]
        )
    return rows


_EXACT_ROW_LIMIT = 64


def exact_transform_diagonal(k: int, n_max: int) -> list[int]:
    """count(n) for n = 0..n_max recovered from the exact transform."""
    _check(k, n_max)
    if k * n_max > _EXACT_ROW_LIMIT:
        raise ValueError(
            f"too-large: exact transform capped at {_EXACT_ROW_LIMIT} rows, "
            f"got {k * n_max}"
        )
    rows = _exact_rows(k, k * n_max)
    out = []
    for n in range(n_max + 1):
        d00 = rows[k * n][0]
        value = Fraction(math.factorial((k - 1) * n), (k - 1) ** (2 * (k - 1) * n)) * d00
        if value.denominator != 1:
            raise AssertionError(f"non-integral transform value at n={n}")
        out.append(int(value))
    return out


def verify_transform(k: int, n_max: int) -> bool:
    """Exact-transform route versus the direct recurrence diagonal."""
    from ..tables import diagonal_sequence

    return exact_transform_diagonal(k, n_max) == diagonal_sequence("relaxed", k, n_max)


# p_ratio_check's cap on kn: the suffix counts are exact rationals
P_INEQ_KN_LIMIT = 60


def p_ratio_check(k: int, n: int) -> dict:
    """Exact monotonicity checks for the weighted suffix-walk counts.

    p[r][s] counts, with U weights on up steps, the walks from (r, s) to
    (kn, 0) that never go below the axis; they are computed backward in
    exact rationals.  Two families are checked: p[r][s]/(s+1) is
    nonincreasing in s over admissible s <= r (same residue class mod k),
    and the corner consequence p[kx][ky] <= (ky+1) p[kx][0] for y <= x.
    The suffix count at the origin must also reproduce the forward
    weighted-walk total, tying the two routes together exactly.  The
    window-truncation argument of the envelope bounds rests on these.

    Returns {"ok", "kn", "pairs_checked", "first_violation"}.
    """
    if k < 2:
        raise ValueError(f"arity-k: {k}")
    if n < 1:
        raise ValueError(f"out-of-range: n={n}")
    kn = k * n
    if kn > P_INEQ_KN_LIMIT:
        raise ValueError(
            f"too-large: exact suffix counts capped at kn={P_INEQ_KN_LIMIT}, got {kn}"
        )
    cols: list[dict[int, Fraction]] = [dict() for _ in range(kn + 1)]
    cols[kn][0] = Fraction(1)
    for r in range(kn - 1, -1, -1):
        nxt = cols[r + 1]
        cur = cols[r]
        for s in range(r % k, (k - 1) * (kn - r) + 1, k):
            v = Fraction(0)
            up = nxt.get(s + 1)
            if up is not None:
                v += weight_u_exact(k, r + 1, s + 1) * up
            if s - k + 1 >= 0:
                dn = nxt.get(s - k + 1)
                if dn is not None:
                    v += dn
            if v:
                cur[s] = v
    rows = _exact_rows(k, kn)
    if cols[0].get(0, Fraction(0)) != rows[kn][0]:
        raise AssertionError("suffix/forward mismatch")
    pairs = 0
    first: tuple | None = None
    for r in range(kn + 1):
        admissible = [s for s in sorted(cols[r]) if s <= r]
        for a in range(len(admissible) - 1):
            s1 = admissible[a]
            for b in range(a + 1, len(admissible)):
                s2 = admissible[b]
                pairs += 1
                if cols[r][s1] * (s2 + 1) < cols[r][s2] * (s1 + 1):
                    if first is None:
                        first = ("monotone", r, s1, s2)
    for x in range(n + 1):
        for y in range(x + 1):
            pairs += 1
            if cols[k * x].get(k * y, Fraction(0)) > (k * y + 1) * cols[k * x].get(
                0, Fraction(0)
            ):
                if first is None:
                    first = ("corner", x, y)
    return {
        "ok": first is None,
        "kn": kn,
        "pairs_checked": pairs,
        "first_violation": first,
    }
