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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..tables import DEFAULT_BYTE_BUDGET
from .airy import _airy_ai_vec
from .exact import p_ratio_check, weight_u
from .predict import airy_root_a1, airy_scale, profile_argument

__all__ = [
    "BoundParams",
    "BoundReport",
    "bound_value",
    "h_product_log",
    "min_eta",
    "p_ratio_check",
    "s_factor",
    "verify_bounds",
]

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
    if k < 2:
        raise ValueError(f"arity-k: {k}")
    return (k + 2) ** 2 / (72.0 * (k - 1) ** 2)


@dataclass(frozen=True)
class BoundParams:
    """Constants of the sandwich witnesses for one arity.

    eta only enters the upper witness; it must be finite and sit strictly
    above min_eta(k).  epsilon controls the column windows (j < i^(2/3-eps) on
    the lower side, j < i^(1-eps) on the upper side).
    """

    k: int
    eta: float
    epsilon: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"arity-k: {self.k}")
        floor = min_eta(self.k)
        if not self.eta > floor:
            raise ValueError(f"eta-floor: {self.eta} is not above {floor}")
        if self.eta == math.inf:  # inf * 0**4 would make every cell NaN, none failing
            raise ValueError(f"eta-finite: {self.eta} is not finite")
        if not 0.0 < self.epsilon < 2.0 / 3.0:
            raise ValueError(f"epsilon-range: {self.epsilon} outside (0, 2/3)")
        if not self.B > 0.0:
            raise AssertionError(f"B = {self.B} is not positive")
        if not -2.4 < self.a1 < -2.3:
            raise AssertionError(f"a1 = {self.a1} is outside (-2.4, -2.3)")

    @property
    def B(self) -> float:
        return airy_scale(self.k)

    @property
    def a1(self) -> float:
        return airy_root_a1()


def _bracket_coeffs(p: BoundParams) -> tuple[float, float, float, float, float]:
    # c4 = c1^2/2 and c5 = c1*c2; kept in closed form for readability.
    k, B, a1 = p.k, p.B, p.a1
    c1 = a1 * (k - 2) * B**2 / 6.0
    c2 = (k + 2) / (6.0 * (k - 1))
    c3 = (7 * k - 11) / (6.0 * (k - 1))
    c4 = a1**2 * (k - 2) ** 2 * B**4 / 72.0
    c5 = a1 * (k**2 - 4) * B**5 / 72.0
    return c1, c2, c3, c4, c5


def _default_quartic(p: BoundParams, i: int, j):
    """Standard upper-side quartic correction eta * j^4 / i^2.

    verify_bounds and bound_value accept any callable with this signature
    in its place, so alternative readings of the quartic term can be
    tested without touching the verifier.
    """
    return p.eta * j**4 / float(i) ** 2


QuarticTerm = Callable[[BoundParams, int, "np.ndarray | float"], "np.ndarray | float"]


def _x_row(
    side: str,
    p: BoundParams,
    rows: list[tuple[int, np.ndarray]],
    quartic: QuarticTerm,
    clamp: bool,
) -> list[np.ndarray]:
    """Witness values X(i, j), one array for each (i, js) row, js an integer
    column vector.

    The brackets are built row by row; the Airy factors of all rows are
    evaluated in one call.
    """
    c1, c2, c3, c4, c5 = _bracket_coeffs(p)
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
            br = br + quartic(p, i, jf)
        brackets.append(br)
        args.append(profile_argument(p.k, i, jf))
    ai = _airy_ai_vec(np.concatenate(args))
    vals = np.concatenate(brackets) * ai
    if clamp:
        vals = np.maximum(vals, 0.0)
    return np.split(vals, np.cumsum([br.shape[0] for br in brackets])[:-1])


def bound_value(
    side: str,
    params: BoundParams,
    i: int,
    j: int,
    quartic: Optional[QuarticTerm] = None,
) -> float:
    """Witness value X(i, j) from the closed formula.

    Returns the raw formula value; the lower side's clamping at zero is
    applied by verify_bounds, not here.  The ghost column j = -1 evaluates
    to bracket * Ai(a1), which is zero up to the root tolerance.
    """
    _check_side(side)
    if i < 1:
        raise ValueError(f"out-of-range: i={i} is below 1")
    q = quartic if quartic is not None else _default_quartic
    return float(_x_row(side, params, [(i, np.array([j]))], q, clamp=False)[0][0])


def s_factor(side: str, k: int, i: int) -> float:
    """Per-column growth factor; the sign of the i^(-7/6) slack term is
    what separates the lower factor from the upper one."""
    _check_side(side)
    if k < 2:
        raise ValueError(f"arity-k: {k}")
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


def h_product_log(side: str, k: int, i: int, start: int = 1) -> float:
    """ln prod_{t=start..i} s(t), the column normalizer in log form.

    Raises a "log-domain" error when a factor is non-positive: for k=2 the
    lower side has s(1) < 0, so its product only has a real logarithm when
    started at t=2 (constant offsets are absorbed by the bracketing
    constants, so diagnostics may shift the start index).
    """
    if start < 1:
        raise ValueError(f"out-of-range: start={start} is below 1")
    if i < start:
        raise ValueError(f"out-of-range: i={i} is below start={start}")
    total = 0.0
    for t in range(start, i + 1):
        s = s_factor(side, k, t)
        if s <= 0.0:
            raise ValueError(f"log-domain: factor at t={t} is {s!r}")
        total += math.log(s)
    return total


@dataclass
class BoundReport:
    """Outcome of one exhaustive inequality scan."""

    side: str
    params: BoundParams
    i_min: int
    i_max: int
    violations: list[tuple[int, int]]
    first_verified_i0: int

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "k": self.params.k,
            "eta": self.params.eta,
            "epsilon": self.params.epsilon,
            "i_min": self.i_min,
            "i_max": self.i_max,
            "first_verified_i0": self.first_verified_i0,
            "violations": [list(v) for v in self.violations],
        }


def _window(i: int, p_exp: float) -> int:
    """Number of window columns at index i; j then ranges over [0, count)."""
    return math.ceil(float(i) ** p_exp)


def _scan_block(
    side: str,
    params: BoundParams,
    p_exp: float,
    quartic: QuarticTerm,
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
    k = params.k
    clamp = side == "lower"
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
        for (i, _), cur in zip(block, _x_row(side, params, block, quartic, clamp)):
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
            bad = (lhs > rhs) if clamp else (lhs < rhs)
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
    quartic: Optional[QuarticTerm] = None,
) -> BoundReport:
    """Exhaustively check one witness inequality on a finite index range.

    Scans every cell (i, j) with i_range[0] <= i <= i_range[1] and j inside
    the side's window.  Violations are reported as data, never raised.  The
    report's first_verified_i0 is the least index beyond which the scanned
    range is violation-free (i_min when the whole range is clean); nothing
    is claimed about indices outside the range.
    """
    _check_side(side)
    params = BoundParams(k=k, eta=eta, epsilon=epsilon)
    i_min, i_max = int(i_range[0]), int(i_range[1])
    if i_min < 2 or i_max < i_min:
        raise ValueError(f"i-range: ({i_min}, {i_max}) needs 2 <= i_min <= i_max")
    q = quartic if quartic is not None else _default_quartic
    p_exp = (2.0 / 3.0 - epsilon) if side == "lower" else (1.0 - epsilon)
    # widest row plus one block, before any array; min() keeps float(i) finite
    widest = _window(min(i_max, 2**1000), p_exp) + k + 3
    if (widest + _BLOCK_POINTS) * _BYTES_PER_POINT > DEFAULT_BYTE_BUDGET:
        raise ValueError(
            f"byte-budget: projected sweep exceeds configured byte budget ({DEFAULT_BYTE_BUDGET})"
        )
    violations = _scan_block(side, params, p_exp, q, i_min, i_max)
    return BoundReport(
        side=side,
        params=params,
        i_min=i_min,
        i_max=i_max,
        violations=violations,
        first_verified_i0=violations[-1][0] + 1 if violations else i_min,
    )
