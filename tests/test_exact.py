"""The integer rows of dagenum.asym.exact against the Fraction reference."""

import math
from fractions import Fraction

import pytest

import exact_reference as ref
from dagenum.asym.exact import (
    _EXACT_ROW_LIMIT,
    P_INEQ_KN_LIMIT,
    _integer_rows,
    _scan_columns,
    _suffix_columns,
    exact_transform_diagonal,
    p_ratio_check,
)

ARITIES = [2, 3, 4, 5]


@pytest.mark.parametrize("k", ARITIES)
def test_p_ratio_check_matches_reference_at_every_admitted_size(k):
    for n in range(1, P_INEQ_KN_LIMIT // k + 1):
        assert p_ratio_check(k, n) == ref.p_ratio_check(k, n)


@pytest.mark.parametrize("k", ARITIES)
def test_transform_matches_reference_at_every_admitted_size(k):
    n_top = _EXACT_ROW_LIMIT // k
    want = ref.exact_transform_diagonal(k, n_top)
    for n_max in range(n_top + 1):
        assert exact_transform_diagonal(k, n_max) == want[: n_max + 1]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_integer_rows_are_the_scaled_fraction_rows(k):
    # D[i][j] = d[i][j] k^u u! with u = ((k-1) i + j) / k
    for i, (row, want) in enumerate(zip(_integer_rows(k, 40), ref.exact_rows(k, 40))):
        cols = range(i % k, i + 1, k)
        assert len(row) == len(want) == len(cols)
        for j, v, d in zip(cols, row, want):
            u = ((k - 1) * i + j) // k
            assert v == d * k**u * math.factorial(u)


@pytest.mark.parametrize("k,n", [(2, 7), (3, 5), (4, 3)])
def test_suffix_columns_are_the_scaled_fraction_columns(k, n):
    got = _suffix_columns(k, k * n)
    want = ref.suffix_columns(k, n)
    assert [sorted(c) for c in got] == [sorted(c) for c in want]
    for r, (col, fcol) in enumerate(zip(got, want)):
        for s, v in col.items():
            assert v == fcol[s] * ref.scale(k, n, r, s)


def _columns(k, n, entries):
    """Hand-made p columns {r: {s: p}}, each s <= (k-1)(kn-r) as in a real
    column, as (integer P columns, Fraction p columns)."""
    p_cols = [{s: Fraction(v) for s, v in entries.get(r, {}).items()} for r in range(k * n + 1)]
    big = [{s: int(v * ref.scale(k, n, r, s)) for s, v in col.items()} for r, col in enumerate(p_cols)]
    return big, p_cols


@pytest.mark.parametrize(
    "entries,first",
    [
        # p/(s+1) reads 2, 1, 3 down column 4: the neighbours (0, 2) hold, so
        # the first failing pair in scan order is (0, 4), not the neighbours (2, 4)
        ({1: {1: 1}, 4: {0: 2, 2: 3, 4: 15}}, ("monotone", 4, 0, 4)),
        # no p[2][0]: column 2 has a single entry, so only the corner family sees it
        ({2: {2: 5}}, ("corner", 1, 1)),
        ({2: {0: 1, 2: 3}, 4: {0: 1, 2: 3, 4: 5}}, None),
    ],
)
def test_column_scan_matches_reference_on_hand_made_columns(entries, first):
    k, n = 2, 4
    big, p_cols = _columns(k, n, entries)
    assert _scan_columns(k, n, big) == ref.scan_columns(k, n, p_cols)
    assert _scan_columns(k, n, big)[1] == first


def test_non_integral_transform_value_raises(monkeypatch):
    from dagenum.asym import exact

    rows = exact._integer_rows
    monkeypatch.setattr(exact, "_integer_rows", lambda k, i_max: ([r[0] + 1, *r[1:]] for r in rows(k, i_max)))
    with pytest.raises(AssertionError, match="non-integral transform value at n=1"):
        exact_transform_diagonal(2, 3)


@pytest.mark.parametrize(
    "k,n,pairs", [(2, 400, 5_433_901), (3, 300, 6_060_401), (4, 200, 3_027_751), (5, 150, 1_815_926)]
)
def test_suffix_walk_families_hold_far_above_the_cli_cap(monkeypatch, k, n, pairs):
    # A measurement pinned, not a theorem: numerical evidence for the
    # paper's monotonicity lemma at kn = 750 to 900, where `verify --scope
    # p-ineq` stops at kn = 60.  The cap is raised for this test only.  A
    # slip in a suffix count past row 60 breaks P[0][0] = D[kn][0] (the
    # suffix/forward mismatch) or shows up as a violation.
    from dagenum.asym import exact

    monkeypatch.setattr(exact, "P_INEQ_KN_LIMIT", k * n)
    report = p_ratio_check(k, n)
    assert (report["ok"], report["pairs_checked"], report["first_violation"]) == (True, pairs, None)
