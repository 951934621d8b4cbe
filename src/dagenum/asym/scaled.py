"""Floating-point iteration of the transformed relaxed recurrence, whose
definition and exact rows are in exact.py, and the Airy profile fit.

_scaled_rows iterates the rows d[i][j] for large i.  Row magnitudes
grow like k^i, so each float row is renormalized to a max-mantissa in
[1/2, 1) with the shed power of two accumulated in an integer exponent;
the row shape is untouched (exact power-of-two scaling).

profile_check compares a scaled row against the Airy shape
Ai(a1 + B (j+1) / i^(1/3)), B = (2/(k-1))^(1/3) (predict.profile_argument),
fitting a single scale factor by least squares.
"""

from __future__ import annotations

import math

import numpy as np

from ..tables import _check_size
from .airy import _airy_ai_vec
# bench/layers.py and bench/spans.py look exact_transform_diagonal up here
from .exact import _parent_rows, exact_transform_diagonal, weight_u
from .predict import profile_argument


_ROW_CEILING = 20000


def _scaled_rows(k: int, i_max: int):
    """Yield (row, scale_log2) for rows 0..i_max: row i over its admissible
    columns j = i % k, i % k + k, ..., the true row being row * 2**scale_log2."""
    _check_size(k, i_max)
    if i_max > _ROW_CEILING:
        raise ValueError(f"too-large: {i_max} rows exceed the ceiling {_ROW_CEILING}")
    cur = np.array([1.0])
    scale_log2 = 0
    yield cur, scale_log2
    for i in range(1, i_max + 1):
        r = i % k
        js = np.arange(i // k + 1) * k + r
        u = weight_u(k, i, js)
        p1, p2 = _parent_rows(cur, r, 0.0, np.append)
        cur = u * p1 + p2
        mx = float(cur.max())
        if not mx > 0.0:
            raise AssertionError(f"row {i} collapsed to zero")
        e = math.frexp(mx)[1]
        cur = cur * math.ldexp(1.0, -e)
        scale_log2 += e
        yield cur, scale_log2


def build_scaled_table(k: int, i_max: int) -> tuple[np.ndarray, int]:
    """(row, scale_log2) for row i_max, after computing every row before it."""
    for last in _scaled_rows(k, i_max):
        pass
    return last


def profile_check(k: int, i: int, j_limit: int | None = None) -> list[tuple]:
    """Fit row i of the scaled table to the Airy shape.

    Returns one (i, j, d_scaled, airy_fit) row per admissible column j in
    the window, airy_fit being the least-squares multiple of the Airy
    shape.  The default window keeps j <= i^(2/3 - 0.1), inside which the
    scaled column is expected to track the Airy profile.
    """
    _check_size(k, i)
    if i < 100:
        raise ValueError(f"out-of-range: profile needs i >= 100, got {i}")
    if j_limit is None:
        j_limit = int(float(i) ** (2.0 / 3.0 - 0.1))
    values, _ = build_scaled_table(k, i)
    js = np.arange(i // k + 1) * k + i % k
    sel = js <= j_limit
    if not bool(np.any(sel)):
        raise ValueError(f"empty-column: no admissible column below {j_limit}")
    js = js[sel]
    values = values[sel]
    shape = _airy_ai_vec(profile_argument(k, i, js))
    fit = float(np.dot(values, shape) / np.dot(shape, shape)) * shape
    return [(i, int(j), float(v), float(f)) for j, v, f in zip(js, values, fit)]
