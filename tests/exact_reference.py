"""Reference implementations over Fractions for dagenum.asym.exact.

These compute the transformed rows d[i][j] and the suffix-walk counts
p[r][s] literally, with the U weight as a rational at every cell, and scan
every pair of the two inequality families.  The package computes the same
quantities as integers scaled by their shared U denominator; the tests
compare the two.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from dagenum.asym.exact import P_INEQ_KN_LIMIT, _parent_rows


def weight_u_exact(k: int, i: int, j: int) -> Fraction:
    return Fraction((k - 1) ** 2 * (i - j + k), (k - 1) * i + j)


def exact_rows(k: int, i_max: int) -> list[list[Fraction]]:
    """d[i] for i = 0..i_max, each row over its admissible columns."""
    rows = [[Fraction(1)]]
    for i in range(1, i_max + 1):
        r = i % k
        p1, p2 = _parent_rows(rows[-1], r, [Fraction(0)], operator.add)
        rows.append(
            [weight_u_exact(k, i, r + k * t) * a + b for t, (a, b) in enumerate(zip(p1, p2))]
        )
    return rows


def exact_transform_diagonal(k: int, n_max: int) -> list[int]:
    rows = exact_rows(k, k * n_max)
    out = []
    for n in range(n_max + 1):
        value = Fraction(math.factorial((k - 1) * n), (k - 1) ** (2 * (k - 1) * n)) * rows[k * n][0]
        assert value.denominator == 1, n
        out.append(int(value))
    return out


def suffix_columns(k: int, n: int) -> list[dict[int, Fraction]]:
    """cols[r] = {s: p[r][s]} over the nonzero suffix counts, r = 0..kn."""
    kn = k * n
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
    return cols


def scan_columns(k: int, n: int, cols: list[dict[int, Fraction]]) -> tuple[int, tuple | None]:
    """Every pair of both families, in order: (pairs_checked, first_violation)."""
    pairs = 0
    first: tuple | None = None
    for r in range(k * n + 1):
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
            if cols[k * x].get(k * y, Fraction(0)) > (k * y + 1) * cols[k * x].get(0, Fraction(0)):
                if first is None:
                    first = ("corner", x, y)
    return pairs, first


def p_ratio_check(k: int, n: int) -> dict:
    assert k >= 2 and 1 <= n and k * n <= P_INEQ_KN_LIMIT
    cols = suffix_columns(k, n)
    assert cols[0][0] == exact_rows(k, k * n)[k * n][0]
    pairs, first = scan_columns(k, n, cols)
    return {"ok": first is None, "kn": k * n, "pairs_checked": pairs, "first_violation": first}


def scale(k: int, n: int, r: int, s: int) -> int:
    """P[r][s] / p[r][s] = k^(N-u) N!/u!, with N = (k-1)n, u = ((k-1)r + s)/k."""
    big_n, u = (k - 1) * n, ((k - 1) * r + s) // k
    return k ** (big_n - u) * math.factorial(big_n) // math.factorial(u)
