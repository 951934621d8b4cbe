"""The exact side of the linear transform: integer rows, the transform
identity and the suffix-walk monotonicity check.  Nothing here imports
numpy, so the `transform` and `p-ineq` scopes start without it.

The diagonal counts admit an exact reformulation: define d over rows
i = 0, 1, 2, ... with admissible columns j == i (mod k), 0 <= j <= i, by

    d[0][0] = 1
    d[i][j] = U(i, j) d[i-1][j-1] + d[i-1][j+k-1]

with weight U(i, j) = (k-1)^2 (i - j + k) / ((k-1) i + j) and zero reads
outside the admissible range.  Then

    count(n) = ((k-1)n)! / (k-1)^(2(k-1)n) * d[kn][0]

exactly; scaled.py iterates the same rows in floating point.

Along any walk, (k-1) i + j rises by exactly k on an up step and stays put
on a down step, so u = ((k-1) i + j) / k counts the up steps into (i, j),
and every walk into (i, j) has the same U denominator k^u u!.  The
integers D[i][j] = d[i][j] k^u u! therefore obey

    D[0][0] = 1
    D[i][j] = (k-1)^2 (i - j + k) D[i-1][j-1] + D[i-1][j+k-1]

and count(n) = D[kn][0] / ((k-1)^2 k)^((k-1)n), a division that must be
exact; `verify --scope transform` checks the result against the direct
recurrence.

Row i keeps its entries at j = (i mod k) + k*t for t = 0 .. i//k; the
iteration maps parent indices as

    i mod k >= 1:  j-1 -> same t,   j+k-1 -> t+1
    i mod k == 0:  j-1 -> t-1,      j+k-1 -> same t
"""

from __future__ import annotations

import operator

from ..tables import _check_arity, _check_size


def weight_u(k: int, i: int, j):
    """U(i, j) in floating point; j may be a numpy array of columns."""
    return (k - 1) ** 2 * (i - j + k) / ((k - 1) * i + j)


def _parent_rows(prev, r: int, zero, join):
    """The parents d[i-1][j-1] and d[i-1][j+k-1] of every entry of a row of
    residue r, as two rows aligned with it, given the previous row.

    i mod k >= 1 reads the same t and t+1; i mod k == 0 reads t-1 and t.
    zero pads the missing parent, and join(a, b) concatenates rows.
    """
    if r >= 1:
        return prev, join(prev[1:], zero)
    return join(zero, prev), join(prev, zero)


def _integer_rows(k: int, i_max: int):
    """Yield the rows D[0], ..., D[i_max] of the integer recurrence."""
    c = (k - 1) ** 2
    row = [1]
    yield row
    for i in range(1, i_max + 1):
        r = i % k
        p1, p2 = _parent_rows(row, r, [0], operator.add)
        # column j = r + k t, so i - j + k = i - r + k (1 - t)
        row = [c * (i - r + k * (1 - t)) * a + b for t, (a, b) in enumerate(zip(p1, p2))]
        yield row


_EXACT_ROW_LIMIT = 64


def exact_transform_diagonal(k: int, n_max: int) -> list[int]:
    """count(n) for n = 0..n_max recovered from the exact transform."""
    _check_size(k, n_max)
    if k * n_max > _EXACT_ROW_LIMIT:
        raise ValueError(
            f"too-large: exact transform capped at {_EXACT_ROW_LIMIT} rows, "
            f"got {k * n_max}"
        )
    step = ((k - 1) ** 2 * k) ** (k - 1)  # the divisor grows by this per n
    out = []
    for i, row in enumerate(_integer_rows(k, k * n_max)):
        if i % k == 0:
            value, rest = divmod(row[0], step ** (i // k))
            if rest:
                raise AssertionError(f"non-integral transform value at n={i // k}")
            out.append(value)
    return out


# p_ratio_check's cap on kn.  The integer counts would go far beyond it; it
# stays so that `verify --scope p-ineq` keeps its default sizes, its refusal
# and its output bytes.
P_INEQ_KN_LIMIT = 60


def _suffix_columns(k: int, kn: int) -> list[dict[int, int]]:
    """cols[r] = {s: P[r][s]} over the nonzero integer suffix counts, r = 0..kn."""
    c = (k - 1) ** 2
    cols: list[dict[int, int]] = [dict() for _ in range(kn + 1)]
    cols[kn][0] = 1
    for r in range(kn - 1, -1, -1):
        nxt = cols[r + 1]
        cur = cols[r]
        for s in range(r % k, (k - 1) * (kn - r) + 1, k):
            v = c * (r - s + k) * nxt.get(s + 1, 0)
            if s >= k - 1:
                v += nxt.get(s - k + 1, 0)
            if v:
                cur[s] = v
    return cols


def _holds(k: int, r: int, s1: int, v1: int, s2: int, v2: int) -> bool:
    """p[r][s1]/(s1+1) >= p[r][s2]/(s2+1) for s1 < s2 of one residue mod k,
    given the integer suffix counts v1 = P[r][s1] and v2 = P[r][s2].

    P[r][s] = p[r][s] k^(N-u) N!/u! with u = ((k-1) r + s)/k, so the
    comparison gains the factor prod_{t=1..(s2-s1)/k} ((k-1) r + s1 + k t).
    """
    factor = 1
    for t in range(1, (s2 - s1) // k + 1):
        factor *= (k - 1) * r + s1 + k * t
    return v1 * (s2 + 1) >= (s1 + 1) * factor * v2


def _scan_columns(k: int, n: int, cols: list[dict[int, int]]) -> tuple[int, tuple | None]:
    """pairs_checked and first_violation of the two families over the
    integer suffix columns cols[r] = {s: P[r][s]}, r = 0..kn, whose entries
    lie in range, s <= (k-1)(kn-r), as _suffix_columns makes them.

    The monotone family compares every pair s1 < s2 <= r of a column, in
    order; the corner family p[kx][ky] <= (ky+1) p[kx][0] is the pair
    (0, ky) of column kx.  A column whose neighbouring pairs all hold holds
    every pair by transitivity, so only a column with a failing neighbour
    pair is scanned pair by pair for its first violation.
    """
    pairs = 0
    first: tuple | None = None
    for r, col in enumerate(cols):
        ss = [s for s in sorted(col) if s <= r]
        pairs += len(ss) * (len(ss) - 1) // 2
        if first is None and not all(
            _holds(k, r, a, col[a], b, col[b]) for a, b in zip(ss, ss[1:])
        ):
            first = next(
                ("monotone", r, a, b)
                for i, a in enumerate(ss)
                for b in ss[i + 1:]
                if not _holds(k, r, a, col[a], b, col[b])
            )
    for x in range(n + 1):
        col = cols[k * x]
        for y in range(x + 1):
            pairs += 1
            if first is None and not _holds(k, k * x, 0, col.get(0, 0), k * y, col.get(k * y, 0)):
                first = ("corner", x, y)
    return pairs, first


def p_ratio_check(k: int, n: int) -> dict:
    """Exact monotonicity checks for the weighted suffix-walk counts.

    p[r][s] counts, with U weights on up steps, the walks from (r, s) to
    (kn, 0) that never go below the axis.  Two families are checked:
    p[r][s]/(s+1) is nonincreasing in s over admissible s <= r (same
    residue class mod k), and the corner consequence
    p[kx][ky] <= (ky+1) p[kx][0] for y <= x.  The window-truncation argument
    of the envelope bounds rests on these.

    The walks from (r, s) to (kn, 0) share one U denominator, as the
    forward ones do, so the integers P[r][s] = p[r][s] k^(N-u) N!/u!, with
    N = (k-1)n and u = ((k-1) r + s)/k, are computed backward by

        P[kn][0] = 1
        P[r][s] = (k-1)^2 (r - s + k) P[r+1][s+1] + P[r+1][s-k+1]

    and P[0][0] must equal the forward D[kn][0], tying the two routes
    together exactly.

    Returns {"ok", "kn", "pairs_checked", "first_violation"}.
    """
    _check_arity(k)
    if n < 1:
        raise ValueError(f"out-of-range: n={n}")
    kn = k * n
    if kn > P_INEQ_KN_LIMIT:
        raise ValueError(
            f"too-large: exact suffix counts capped at kn={P_INEQ_KN_LIMIT}, got {kn}"
        )
    cols = _suffix_columns(k, kn)
    *_, last = _integer_rows(k, kn)
    if cols[0].get(0, 0) != last[0]:
        raise AssertionError("suffix/forward mismatch")
    pairs, first = _scan_columns(k, n, cols)
    return {
        "ok": first is None,
        "kn": kn,
        "pairs_checked": pairs,
        "first_violation": first,
    }
