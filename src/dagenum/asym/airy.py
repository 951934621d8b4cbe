"""Airy function Ai on [-6, inf) without external special-function
libraries, in two regimes:

  * x <= 8: one double-double Maclaurin loop.  Both f and g grow like
    exp((2/3)x^{3/2}) while Ai decays, so near x = 8 roughly 13 decimal
    digits cancel; plain doubles would leave almost nothing.  The ~32-digit
    working precision keeps the result good to ~1e-15 relative across the
    interval.
  * 8 < x <= 115: one divergent asymptotic loop in plain doubles, truncated
    at its smallest term (relative error ~1e-13 at x = 8 and shrinking
    fast).  The values underflow to 0.0 past x ~ 108, where they are below
    1e-325; points past 115 are 0.0 without being evaluated.

One dispatcher, _airy_ai_vec, holds the domain check and the split into
regimes; airy_ai calls it on a one-point array, so a scalar equals the
vector value bit for bit.  Arguments left of -6 raise
ValueError("airy-domain: ..."): the oscillatory tail is not needed here.
"""

from __future__ import annotations

import math

import numpy as np

AIRY_DOMAIN_MIN = -6.0
AIRY_SERIES_CUTOFF = 8.0
# Ai is 0.0 in double precision well before this.
_ZERO_CUTOFF = 115.0

# double-double error-free transformations -------------------------------

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


# (hi, lo) pair arithmetic; works elementwise on numpy arrays too --------


def _dd_add(a, b):
    s, e = _two_sum(a[0], b[0])
    return _quick_two_sum(s, e + a[1] + b[1])


def _dd_mul(a, b):
    p, e = _two_prod(a[0], b[0])
    return _quick_two_sum(p, e + a[0] * b[1] + a[1] * b[0])


def _dd_mul_f(a, f):
    p, e = _two_prod(a[0], f)
    return _quick_two_sum(p, e + a[1] * f)


def _dd_div_f(a, f):
    q = a[0] / f
    p, e = _two_prod(q, f)
    return _quick_two_sum(q, ((a[0] - p) - e + a[1]) / f)


# Ai(0) and Ai'(0) to double-double accuracy:
#   Ai(0)  = 3^(-2/3) / Gamma(2/3)
#   Ai'(0) = -3^(-1/3) / Gamma(1/3)
_AI0 = (0.3550280538878172, 2.05233632436212e-17)
_AIP0 = (-0.2588194037928068, 2.522243111610832e-17)

_TINY = 1e-35
_MAX_TERMS = 120


def _series_dd(x):
    """Maclaurin evaluation for x <= 8 (a numpy array), in double-double.

    Ai = Ai(0) f + Ai'(0) g (DLMF §9.4), where f and g start from 1 and x
    and step by t_i = t_{i-1} x^3 / (3i (3i-1)) and x^3 / ((3i+1) 3i).  Both
    series stop together, once every term of either is below _TINY of the
    array's sums.
    """
    x3 = _dd_mul_f(_two_prod(x, x), x)
    tf, tg = (x * 0.0 + 1.0, x * 0.0), (x + 0.0, x * 0.0)
    f, g = tf, tg
    for i in range(1, _MAX_TERMS):
        tf = _dd_div_f(_dd_mul(tf, x3), (3 * i) * (3 * i - 1))
        f = _dd_add(f, tf)
        tg = _dd_div_f(_dd_mul(tg, x3), (3 * i + 1) * (3 * i))
        g = _dd_add(g, tg)
        scale = float(np.max(np.abs(f[0]))) + float(np.max(np.abs(g[0]))) + 1.0
        if max(float(np.max(np.abs(tf[0]))), float(np.max(np.abs(tg[0])))) < _TINY * scale:
            break
    return _dd_add(_dd_mul(f, _AI0), _dd_mul(g, _AIP0))[0]


def _asym(x):
    """Asymptotic expansion for x > 8 (a numpy array), plain doubles.

    With zeta = (2/3) x^{3/2}, the sum's term ratio is
    -(6i-1)(6i-5) / (72 i zeta) (DLMF §9.7).  A point's sum stops at its
    smallest term.
    """
    zeta = (2.0 / 3.0) * x * np.sqrt(x)
    total = np.ones_like(zeta)
    term = np.ones_like(zeta)
    frozen = np.zeros_like(zeta, dtype=bool)
    for i in range(1, 60):
        nxt = -term * ((6 * i - 1) * (6 * i - 5)) / (72.0 * i * zeta)
        grew = np.abs(nxt) >= np.abs(term)
        frozen = frozen | grew
        total = total + np.where(frozen, 0.0, nxt)
        term = np.where(frozen, term, nxt)
        if bool(np.all(frozen)) or float(np.max(np.abs(np.where(frozen, 0.0, term)))) < 1e-20:
            break
    with np.errstate(under="ignore"):
        pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * x**0.25)
    return pref * total


def _airy_ai_vec(xs) -> np.ndarray:
    """Ai elementwise over xs (all >= -6); airy_ai calls it on one point."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and float(np.min(xs)) < AIRY_DOMAIN_MIN:
        raise ValueError(f"airy-domain: {float(np.min(xs))} is left of {AIRY_DOMAIN_MIN}")
    out = np.zeros_like(xs)
    ser = xs <= AIRY_SERIES_CUTOFF
    asy = ~(ser | (xs > _ZERO_CUTOFF))
    if np.any(ser):
        out[ser] = _series_dd(xs[ser])
    if np.any(asy):
        out[asy] = _asym(xs[asy])
    return out


def airy_ai(x: float) -> float:
    """Ai(x) for x >= -6."""
    return float(_airy_ai_vec([float(x)])[0])
