"""Two-sided Airy-profile witnesses bracketing the scaled-table columns.

The scaled recurrence d[i, j] = U(i, j) d[i-1, j-1] + d[i-1, j+k-1] admits
explicit sandwich witnesses of the form

    X(i, j) = bracket(i, j) * Ai(a1 + B (j + 1) / i^(1/3))

with B = (2/(k-1))^(1/3), a1 the largest real zero of Ai, and bracket a
polynomial correction in j/i^(2/3), j^2/i, j/i, j^2/i^(4/3), j^3/i^(5/3)
(plus an eta j^4/i^2 term on the upper side).  Together with the per-column
factors

    s(i) = k (1 + a1 / (B i^(2/3)) + (7k - 6) / (6 i) -+ i^(-7/6))

the lower witness eventually satisfies, inside a sublinear column window,

    s(i) X(i, j) <= U(i, j) X(i-1, j-1) + X(i-1, j+k-1)

with X clamped at zero, and the upper witness the reversed inequality
without clamping.  Iterating either inequality down the columns sandwiches
d[i, 0] between multiples of prod_t s(t), which is where the stretched
exponential exp(3 a1 i^(1/3) / B) comes from.

verify_bounds checks the cell inequalities exhaustively over a finite index
range and reports every violating cell as data; it never extrapolates
beyond the scanned range.  p_ratio_check (in exact.py, imported here)
validates, in exact arithmetic, the companion monotonicity of the weighted
suffix-walk counts that the window-truncation argument rests on.
"""

from __future__ import annotations

import math

import numpy as np

from ..tables import _check_arity, _check_bytes
from .airy import _airy_ai_vec
# bench/layers.py and bench/spans.py look p_ratio_check up here
from .exact import p_ratio_check, weight_u
from .predict import airy_root_a1, airy_scale, profile_argument

# Below this magnitude both inequality sides have fallen through the
# double-precision denormal range (Ai underflows near argument 108), so a
# raw comparison only measures rounding garbage; such cells count as
# satisfied.  Genuine in-window comparisons stay ~40 orders above the floor.
_UNDERFLOW_FLOOR = 1e-290

# A sweep block adds rows until it holds this many points, then makes its
# one Airy call.  The evaluator's cost is mostly per call up to a few
# thousand points, so blocks remove it; the budget keeps a block's arrays
# to a few MB however wide the rows get.
_BLOCK_POINTS = 1 << 16
# A block peaks near 250 bytes per Airy point (tracemalloc, series regime).
_BYTES_PER_POINT = 320

_SIDES = ("lower", "upper")


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise ValueError(f"side: {side!r} is not 'lower' or 'upper'")


def min_eta(k: int) -> float:
    """Admissibility floor for the upper witness's quartic coefficient."""
    _check_arity(k)
    return (k + 2) ** 2 / (72.0 * (k - 1) ** 2)


def _bracket_coeffs(k: int) -> tuple[float, float, float, float, float]:
    # c4 = c1^2/2 and c5 = c1*c2; kept in closed form for readability.
    B, a1 = airy_scale(k), airy_root_a1()
    c1 = a1 * (k - 2) * B**2 / 6.0
    c2 = (k + 2) / (6.0 * (k - 1))
    c3 = (7 * k - 11) / (6.0 * (k - 1))
    c4 = a1**2 * (k - 2) ** 2 * B**4 / 72.0
    c5 = a1 * (k**2 - 4) * B**5 / 72.0
    return c1, c2, c3, c4, c5


def _x_row(
    side: str,
    k: int,
    eta: float,
    rows: list[tuple[int, np.ndarray]],
) -> list[np.ndarray]:
    """Witness values X(i, j), one array for each (i, js) row, js an integer
    column vector; the lower side's values are clamped at zero.

    The brackets are built row by row; the Airy factors of all rows are
    evaluated in one call.
    """
    c1, c2, c3, c4, c5 = _bracket_coeffs(k)
    brackets, args = [], []
    for i, js in rows:
        jf = js.astype(np.float64)
        i13 = float(i) ** (1.0 / 3.0)
        i23 = i13 * i13
        br = (
            1.0
            - c1 * jf / i23
            - c2 * jf * jf / i
            + c3 * jf / i
            + c4 * jf * jf / (i23 * i23)
            + c5 * jf**3 / (i23 * i23 * i13)
        )
        if side == "upper":
            br = br + eta * jf**4 / float(i) ** 2
        brackets.append(br)
        args.append(profile_argument(k, i, jf))
    ai = _airy_ai_vec(np.concatenate(args))
    vals = np.concatenate(brackets) * ai
    if side == "lower":
        vals = np.maximum(vals, 0.0)
    return np.split(vals, np.cumsum([br.shape[0] for br in brackets])[:-1])


def s_factor(side: str, k: int, i: int) -> float:
    """Per-column growth factor; the sign of the i^(-7/6) slack term is
    what separates the lower factor from the upper one."""
    _check_side(side)
    _check_arity(k)
    if i < 1:
        raise ValueError(f"out-of-range: i={i} is below 1")
    tail = float(i) ** (-7.0 / 6.0)
    if side == "lower":
        tail = -tail
    return k * (
        1.0
        + airy_root_a1() / (airy_scale(k) * float(i) ** (2.0 / 3.0))
        + (7 * k - 6) / (6.0 * i)
        + tail
    )


def _window(i: int, p_exp: float) -> int:
    """Number of window columns at index i; j then ranges over [0, count)."""
    return math.ceil(float(i) ** p_exp)


def _scan_block(
    side: str,
    k: int,
    p_exp: float,
    eta: float,
    lo: int,
    hi: int,
) -> list[tuple[int, int]]:
    """Check the cell inequalities for every i in [lo, hi].

    Row i is evaluated once over j in [-1, window+k+1] and reused as the
    parent of row i+1; the window widens by at most one column per step,
    so the retained row always covers the parent positions j-1 and j+k-1.
    Rows are built in blocks of consecutive i that share one Airy call; a
    block stops growing once it holds _BLOCK_POINTS points, which bounds
    its memory.  A cell's verdict reads only rows i-1 and i, so the block
    seams do not change it.
    """
    out: list[tuple[int, int]] = []
    prev = None
    nxt = lo - 1
    while nxt <= hi:
        block: list[tuple[int, np.ndarray]] = []
        points = 0
        while nxt <= hi and points < _BLOCK_POINTS:
            js = np.arange(-1, _window(max(nxt, lo), p_exp) + k + 2)
            block.append((nxt, js))
            points += js.shape[0]
            nxt += 1
        for (i, _), cur in zip(block, _x_row(side, k, eta, block)):
            if i < lo:
                prev = cur
                continue
            cnt = _window(i, p_exp)
            if prev.shape[0] < cnt + k + 1:
                raise AssertionError("parent row too short")
            jf = np.arange(cnt, dtype=np.float64)
            u = weight_u(k, i, jf)
            lhs = s_factor(side, k, i) * cur[1 : cnt + 1]
            rhs = u * prev[0:cnt] + prev[k : cnt + k]
            bad = (lhs > rhs) if side == "lower" else (lhs < rhs)
            bad &= np.maximum(np.abs(lhs), np.abs(rhs)) >= _UNDERFLOW_FLOOR
            if bad.any():
                out.extend((i, int(j)) for j in np.nonzero(bad)[0])
            prev = cur
    return out


def verify_bounds(
    side: str,
    k: int,
    eta: float,
    epsilon: float,
    i_range: tuple[int, int],
) -> dict:
    """Exhaustively check one witness inequality on a finite index range.

    eta only enters the upper witness; it must be finite and sit strictly
    above min_eta(k).  epsilon, in (0, 2/3), sets the column windows
    (j < i^(2/3-eps) on the lower side, j < i^(1-eps) on the upper side).
    Scans every cell (i, j) with i_range[0] <= i <= i_range[1] and j inside
    the side's window.  Violations are reported as data, never raised: the
    report is the JSON-ready dict of side, k, eta, epsilon, i_min, i_max,
    first_verified_i0 and the violating cells as [i, j] lists, in scan
    order.  first_verified_i0 is the least index beyond which the scanned
    range is violation-free (i_min when the whole range is clean); nothing
    is claimed about indices outside the range.
    """
    _check_side(side)
    floor = min_eta(k)  # refuses k < 2
    if not eta > floor:
        raise ValueError(f"eta-floor: {eta} is not above {floor}")
    if eta == math.inf:  # inf * 0**4 would make every cell NaN, none failing
        raise ValueError(f"eta-finite: {eta} is not finite")
    if not 0.0 < epsilon < 2.0 / 3.0:
        raise ValueError(f"epsilon-range: {epsilon} outside (0, 2/3)")
    i_min, i_max = int(i_range[0]), int(i_range[1])
    if i_min < 2 or i_max < i_min:
        raise ValueError(f"i-range: ({i_min}, {i_max}) needs 2 <= i_min <= i_max")
    p_exp = (2.0 / 3.0 - epsilon) if side == "lower" else (1.0 - epsilon)
    # widest row plus one block, before any array; min() keeps float(i) finite
    widest = _window(min(i_max, 2**1000), p_exp) + k + 3
    _check_bytes("sweep", (widest + _BLOCK_POINTS) * _BYTES_PER_POINT)
    # the quartic forms eta * j^4 before it divides by i^2; j stays below widest
    if side == "upper" and math.isinf(eta * float(widest) ** 4):
        raise ValueError(f"eta-finite: {eta} * {widest}^4 overflows")
    violations = _scan_block(side, k, p_exp, eta, i_min, i_max)
    return {
        "side": side,
        "k": k,
        "eta": eta,
        "epsilon": epsilon,
        "i_min": i_min,
        "i_max": i_max,
        "first_verified_i0": violations[-1][0] + 1 if violations else i_min,
        "violations": [list(v) for v in violations],
    }
