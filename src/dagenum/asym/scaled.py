"""Floating-point iteration of the transformed relaxed recurrence, whose
definition and exact rows are in exact.py, and the Airy profile fit.

build_scaled_table iterates the rows d[i][j] for large i.  Row magnitudes
grow like k^i, so each float row is renormalized to a max-mantissa in
[1/2, 1) with the shed power of two accumulated in an integer exponent;
the row shape is untouched (exact power-of-two scaling).

profile_check compares a scaled row against the Airy shape
Ai(a1 + B (j+1) / i^(1/3)), B = (2/(k-1))^(1/3), fitting a single scale
factor by least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .airy import _airy_ai_vec
# bench/layers.py and bench/spans.py look exact_transform_diagonal up here
from .exact import _check, _parent_rows, exact_transform_diagonal
from .predict import airy_root_a1


def weight_u(k: int, i: int, j: int) -> float:
    return (k - 1) ** 2 * (i - j + k) / ((k - 1) * i + j)


def drift(k: int, i: int, j: int) -> float:
    """Expected column movement of the weighted walk at (i, j); positive
    toward larger j for the first k-1 residues, then pulled back."""
    if 0 <= j <= k - 2:
        return 1.0
    return -k * (k - 1) * (j - k + 2) / (k * (i + 1) - i + j)


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
