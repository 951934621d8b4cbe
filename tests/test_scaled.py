import math
from fractions import Fraction

import numpy as np
import pytest

from dagenum.asym.exact import exact_transform_diagonal, weight_u
from dagenum.asym.scaled import build_scaled_table, profile_check
from dagenum.tables import diagonal_sequence
from exact_reference import exact_rows, weight_u_exact


def test_weight_float_matches_exact():
    for k in (2, 3, 5):
        for i in (1, 4, 17, 300):
            for j in range(i % k, i + 1, k):
                assert weight_u(k, i, j) == pytest.approx(
                    float(weight_u_exact(k, i, j)), rel=1e-15
                )


def test_weight_corner_value():
    # (k-1)^2 (i - j + k) / ((k-1) i + j) at the first admissible cell
    assert weight_u_exact(2, 1, 1) == Fraction(1)
    assert weight_u_exact(3, 1, 1) == Fraction(4)


@pytest.mark.parametrize("k,n_max", [(2, 10), (3, 6), (4, 4), (5, 3)])
def test_exact_transform_matches_direct_diagonal(k, n_max):
    assert exact_transform_diagonal(k, n_max) == diagonal_sequence("relaxed", k, n_max)


def test_exact_transform_guards():
    with pytest.raises(ValueError, match="too-large"):
        exact_transform_diagonal(2, 33)
    with pytest.raises(ValueError, match="arity-k"):
        exact_transform_diagonal(1, 3)


def test_scaled_rows_track_exact_rows():
    k, i_max = 3, 15
    table = build_scaled_table(k, i_max, keep_rows=range(i_max + 1))
    exact = exact_rows(k, i_max)
    for i in range(i_max + 1):
        row = table.rows[i] * math.ldexp(1.0, table.scale_log2[i])
        want = np.array([float(v) for v in exact[i]])
        assert np.allclose(row, want, rtol=1e-12, atol=0.0)


def test_d_log_and_trace():
    k = 2
    table = build_scaled_table(k, 12, keep_rows=[12])
    exact = exact_rows(k, 12)
    # ln d[12][0], grouped as ratio_diagnostic's scaled route adds it
    d_log = math.log(table.rows[12][0]) + table.scale_log2[12] * math.log(2.0)
    assert d_log == pytest.approx(math.log(float(exact[12][0])), rel=1e-12)
    assert sorted(table.rows) == [12]  # only the requested rows are kept


def test_columns_layout():
    table = build_scaled_table(3, 8, keep_rows=[7, 8])
    assert table.rows[7].shape == table.rows[8].shape == (3,)
    # row 120 holds the columns j = 0, 3, 6, ...; the fit keeps j <= 120^(2/3 - 0.1)
    assert [j for _, j, _, _ in profile_check(3, 120)] == [0, 3, 6, 9, 12, 15]


def test_row_ceiling():
    with pytest.raises(ValueError, match="too-large"):
        build_scaled_table(2, 20001)


def test_profile_needs_large_row():
    with pytest.raises(ValueError, match="out-of-range"):
        profile_check(2, 99)
    with pytest.raises(ValueError, match="empty-column"):
        profile_check(2, 200, j_limit=-1)


@pytest.mark.parametrize("k", [2, 3])
def test_profile_tracks_airy_shape(k):
    def sup_deviation(rows):
        # sup |d_scaled - fit| over the window, against the peak fitted value
        d_scaled, fit = np.array([row[2:] for row in rows]).T
        return np.max(np.abs(d_scaled - fit)) / np.max(np.abs(fit))

    near = profile_check(k, 300)
    far = profile_check(k, 3000)
    assert far[0][3] > 0.0  # a positive fitted scale: Ai > 0 at column 0
    assert sup_deviation(far) < 0.08
    assert sup_deviation(far) < sup_deviation(near)
    # rows expose the fitted pairs inside the window
    for i, j, d_scaled, airy_fit in far:
        assert i == 3000
        assert 0 <= j <= int(3000 ** (2.0 / 3.0 - 0.1))
        assert d_scaled >= 0.0 and airy_fit >= 0.0
