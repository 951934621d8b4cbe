"""Airy function Ai on [-6, inf) without external special-function libraries.

Two regimes:

  * x <= 8: Maclaurin series Ai = Ai(0) f(x) - (-Ai'(0)) g(x), summed in
    double-double arithmetic.  Both f and g grow like exp((2/3)x^{3/2})
    while Ai decays, so near x = 8 roughly 13 decimal digits cancel; plain
    doubles would leave almost nothing.  The ~32-digit working precision
    keeps the result good to ~1e-15 relative across the interval.
  * x > 8: standard divergent asymptotic expansion in plain doubles,
    truncated at its smallest term (relative error ~1e-13 at the cutoff
    and shrinking fast).  Underflows to 0.0 for x beyond ~108, where the
    true value is below 1e-325.

Arguments left of -6 raise ValueError("airy-domain: ...); the oscillatory
tail is not needed here and would require a different scheme.
"""

from __future__ import annotations

import math

import numpy as np

AIRY_DOMAIN_MIN = -6.0
AIRY_SERIES_CUTOFF = 8.0

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


# Ai(0) and -Ai'(0) to double-double accuracy:
#   Ai(0)  = 3^(-2/3) / Gamma(2/3)
#   Ai'(0) = -3^(-1/3) / Gamma(1/3)
_AI0 = (0.3550280538878172, 2.05233632436212e-17)
_NEG_AIP0 = (0.2588194037928068, -2.522243111610832e-17)

_TINY = 1e-35
_MAX_TERMS = 120


def _ai_series_dd(x):
    """Maclaurin evaluation; x may be a float or a numpy array (all <= 8)."""
    x2 = _two_prod(x, x)
    x3 = _dd_mul_f(x2, x)
    tf = (x * 0.0 + 1.0, x * 0.0)
    tg = (x + 0.0, x * 0.0)
    f = tf
    g = tg
    for i in range(1, _MAX_TERMS):
        tf = _dd_div_f(_dd_mul(tf, x3), (3 * i) * (3 * i - 1))
        f = _dd_add(f, tf)
        tg = _dd_div_f(_dd_mul(tg, x3), (3 * i + 1) * (3 * i))
        g = _dd_add(g, tg)
        scale = float(np.max(np.abs(f[0]))) + float(np.max(np.abs(g[0]))) + 1.0
        if max(float(np.max(np.abs(tf[0]))), float(np.max(np.abs(tg[0])))) < _TINY * scale:
            break
    cf = _dd_mul(f, _AI0)
    cg = _dd_mul(g, _NEG_AIP0)
    return _dd_add(cf, (-cg[0], -cg[1]))[0]


def _aip_series_dd(x):
    """Same scheme for the derivative Ai'."""
    x2 = _two_prod(x, x)
    x3 = _dd_mul_f(x2, x)
    tf = _dd_mul_f(x2, 0.5)  # x^2/2, the first f' term
    fp = tf
    for i in range(2, _MAX_TERMS):
        tf = _dd_div_f(_dd_mul(tf, x3), (3 * i - 1) * (3 * i - 3))
        fp = _dd_add(fp, tf)
        if float(np.max(np.abs(tf[0]))) < _TINY * (float(np.max(np.abs(fp[0]))) + 1.0):
            break
    tg = (x * 0.0 + 1.0, x * 0.0)
    gp = tg
    for i in range(1, _MAX_TERMS):
        tg = _dd_div_f(_dd_mul(tg, x3), (3 * i) * (3 * i - 2))
        gp = _dd_add(gp, tg)
        if float(np.max(np.abs(tg[0]))) < _TINY * (float(np.max(np.abs(gp[0]))) + 1.0):
            break
    cf = _dd_mul(fp, _AI0)
    cg = _dd_mul(gp, _NEG_AIP0)
    return _dd_add(cf, (-cg[0], -cg[1]))[0]


def _ai_asym(x):
    """Asymptotic expansion for x > 8 (float or numpy array), plain doubles."""
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


def _aip_asym(x):
    zeta = (2.0 / 3.0) * x * np.sqrt(x)
    total = np.ones_like(zeta)
    term = np.ones_like(zeta)
    u = 1.0
    frozen = np.zeros_like(zeta, dtype=bool)
    for i in range(1, 60):
        u *= (6 * i - 1) * (6 * i - 5) / (72.0 * i)
        v = u * (6 * i + 1) / (1 - 6 * i)
        sign = -1.0 if i % 2 else 1.0
        nxt = sign * v / zeta**i
        grew = np.abs(nxt) >= np.abs(term)
        frozen = frozen | grew
        total = total + np.where(frozen, 0.0, nxt)
        term = np.where(frozen, term, nxt)
        if bool(np.all(frozen)) or float(np.max(np.abs(np.where(frozen, 0.0, term)))) < 1e-20:
            break
    with np.errstate(under="ignore"):
        pref = -(x**0.25) * np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    return pref * total


def airy_ai(x: float) -> float:
    """Ai(x) for x >= -6."""
    x = float(x)
    if x < AIRY_DOMAIN_MIN:
        raise ValueError(f"airy-domain: {x} is left of {AIRY_DOMAIN_MIN}")
    if x <= AIRY_SERIES_CUTOFF:
        return float(_ai_series_dd(x))
    return float(_ai_asym(x))


def airy_ai_prime(x: float) -> float:
    """Ai'(x) for x >= -6."""
    x = float(x)
    if x < AIRY_DOMAIN_MIN:
        raise ValueError(f"airy-domain: {x} is left of {AIRY_DOMAIN_MIN}")
    if x <= AIRY_SERIES_CUTOFF:
        return float(_aip_series_dd(x))
    return float(_aip_asym(x))


def _airy_ai_vec(xs: np.ndarray) -> np.ndarray:
    """Vectorized Ai over an array of arguments (all >= -6)."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and float(np.min(xs)) < AIRY_DOMAIN_MIN:
        raise ValueError(f"airy-domain: argument left of {AIRY_DOMAIN_MIN}")
    out = np.empty_like(xs)
    ser = xs <= AIRY_SERIES_CUTOFF
    if np.any(ser):
        out[ser] = _ai_series_dd(xs[ser])
    asy = ~ser
    if np.any(asy):
        out[asy] = _ai_asym(xs[asy])
    return out


def airy_root_a1() -> float:
    """Largest (first negative) zero of Ai, a1 ~ -2.3381: DLMF Table 9.9.1,
    as its nearest double, -0x1.2b471a873adf9p+1."""
    return -2.338107410459767
