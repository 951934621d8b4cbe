"""Linear transform of the relaxed-tree recurrence and its scaled iteration.

The diagonal counts admit an exact reformulation: define d over rows
i = 0, 1, 2, ... with admissible columns j == i (mod k), 0 <= j <= i, by

    d[0][0] = 1
    d[i][j] = U(i, j) d[i-1][j-1] + d[i-1][j+k-1]

with weight U(i, j) = (k-1)^2 (i - j + k) / ((k-1) i + j) and zero reads
outside the admissible range.  Then

    count(n) = ((k-1)n)! / (k-1)^(2(k-1)n) * d[kn][0]

exactly, which this module verifies over Fractions (verify_transform) and
iterates in scaled floating point for large rows (build_scaled_table).
Row magnitudes grow like k^i, so each float row is renormalized to a
max-mantissa in [1/2, 1) with the shed power of two accumulated in an
integer exponent; the row shape is untouched (exact power-of-two scaling).

Row i keeps its entries at j = (i mod k) + k*t for t = 0 .. i//k; the
iteration maps parent indices as

    i mod k >= 1:  j-1 -> same t,   j+k-1 -> t+1
    i mod k == 0:  j-1 -> t-1,      j+k-1 -> same t

profile_check compares a scaled row against the Airy shape
Ai(a1 + B (j+1) / i^(1/3)), B = (2/(k-1))^(1/3), fitting a single scale
factor by least squares.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .airy import _airy_ai_vec, airy_root_a1


def weight_u(k: int, i: int, j: int) -> float:
    return (k - 1) ** 2 * (i - j + k) / ((k - 1) * i + j)


def weight_u_exact(k: int, i: int, j: int) -> Fraction:
    return Fraction((k - 1) ** 2 * (i - j + k), (k - 1) * i + j)


def drift(k: int, i: int, j: int) -> float:
    """Expected column movement of the weighted walk at (i, j); positive
    toward larger j for the first k-1 residues, then pulled back."""
    if 0 <= j <= k - 2:
        return 1.0
    return -k * (k - 1) * (j - k + 2) / (k * (i + 1) - i + j)


def _check(k: int, i_max: int):
    if k < 2:
        raise ValueError(f"arity-k: {k}")
    if i_max < 0:
        raise ValueError(f"negative-size: {i_max}")


@dataclass
class ScaledTable:
    """Scaled d rows.  Only requested rows (plus the final one) are kept;
    scale exponents and the j = 0 trace survive for every row."""

    k: int
    i_max: int
    scale_log2: list[int]
    rows: dict[int, np.ndarray] = field(repr=False)
    trace_j0: dict[int, float]

    def columns(self, i: int) -> np.ndarray:
        """Admissible j values of row i."""
        return np.arange(i // self.k + 1) * self.k + (i % self.k)

    def row(self, i: int) -> np.ndarray:
        if i not in self.rows:
            raise ValueError(f"row-not-retained: {i}")
        return self.rows[i]

    def d_log(self, i: int, j: int) -> float:
        """Natural log of the true d[i][j] for a retained row."""
        row = self.row(i)
        r = i % self.k
        if j < 0 or j % self.k != r or j > i:
            raise ValueError(f"out-of-range: ({i}, {j})")
        value = float(row[(j - r) // self.k])
        if value <= 0.0:
            raise ValueError(f"log-domain: d[{i}][{j}] underflowed to zero")
        return math.log(value) + self.scale_log2[i] * math.log(2.0)


def _parent_rows(prev, r: int, zero, join):
    """The parents d[i-1][j-1] and d[i-1][j+k-1] of every entry of a row of
    residue r, as two rows aligned with it, given the previous row.

    i mod k >= 1 reads the same t and t+1; i mod k == 0 reads t-1 and t.
    zero pads the missing parent, and join(a, b) concatenates rows.
    """
    if r >= 1:
        return prev, join(prev[1:], zero)
    return join(zero, prev), join(prev, zero)


_ROW_CEILING = 20000


def build_scaled_table(
    k: int, i_max: int, keep_rows=(), ceiling: int = _ROW_CEILING
) -> ScaledTable:
    _check(k, i_max)
    if i_max > ceiling:
        raise ValueError(f"too-large: {i_max} rows exceed the ceiling {ceiling}")
    keep = set(int(r) for r in keep_rows)
    keep.add(i_max)
    scale_log2 = [0]
    rows: dict[int, np.ndarray] = {}
    trace: dict[int, float] = {}
    cur = np.array([1.0])
    trace[0] = 1.0
    if 0 in keep:
        rows[0] = cur.copy()
    for i in range(1, i_max + 1):
        r = i % k
        size = i // k + 1
        js = np.arange(size) * k + r
        u = (k - 1) ** 2 * (i - js + k) / ((k - 1) * i + js)
        p1, p2 = _parent_rows(cur, r, 0.0, np.append)
        cur = u * p1 + p2
        mx = float(cur.max())
        if not mx > 0.0:
            raise AssertionError(f"row {i} collapsed to zero")
        e = math.frexp(mx)[1]
        cur = cur * math.ldexp(1.0, -e)
        scale_log2.append(scale_log2[-1] + e)
        if r == 0:
            trace[i] = float(cur[0])
        if i in keep:
            rows[i] = cur.copy()
    return ScaledTable(k, i_max, scale_log2, rows, trace)


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


@dataclass
class ProfileResult:
    k: int
    i: int
    rows: list[tuple[int, int, float, float]]  # (i, j, d_scaled, airy_fit)
    best_scale: float
    sup_deviation: float


def profile_check(k: int, i: int, j_limit: int | None = None) -> ProfileResult:
    """Fit row i of the scaled table to the Airy shape.

    The default window keeps j <= i^(2/3 - 0.1), inside which the scaled
    column is expected to track the Airy profile.  Deviation is the sup of
    |d_scaled - fit| over the window, normalized by the window's peak
    fitted value, so it is meaningful even where the Airy factor itself is
    small.
    """
    _check(k, i)
    if i < 100:
        raise ValueError(f"out-of-range: profile needs i >= 100, got {i}")
    if j_limit is None:
        j_limit = int(float(i) ** (2.0 / 3.0 - 0.1))
    table = build_scaled_table(k, i)
    values = table.row(i)
    js = table.columns(i)
    sel = js <= j_limit
    if not bool(np.any(sel)):
        raise ValueError(f"empty-column: no admissible column below {j_limit}")
    js = js[sel]
    values = values[sel]
    a1 = airy_root_a1()
    b = (2.0 / (k - 1)) ** (1.0 / 3.0)
    shape = _airy_ai_vec(a1 + b * (js + 1.0) / i ** (1.0 / 3.0))
    best_scale = float(np.dot(values, shape) / np.dot(shape, shape))
    fit = best_scale * shape
    sup_deviation = float(np.max(np.abs(values - fit)) / np.max(np.abs(fit)))
    rows = [
        (i, int(j), float(v), float(f)) for j, v, f in zip(js, values, fit)
    ]
    return ProfileResult(k, i, rows, best_scale, sup_deviation)
