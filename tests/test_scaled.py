import math
from fractions import Fraction

import numpy as np
import pytest

from dagenum.asym.exact import _exact_rows, exact_transform_diagonal, verify_transform, weight_u_exact
from dagenum.asym.scaled import build_scaled_table, drift, profile_check, weight_u
from dagenum.tables import diagonal_sequence


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


def test_drift_shape():
    assert drift(3, 10, 0) == 1.0
    assert drift(3, 10, 1) == 1.0
    assert drift(3, 10, 4) < 0.0
    # for k = 2 the pull-back term is -2j / (2(i+1) - i + j)
    assert drift(2, 50, 7) == pytest.approx(-2 * 7 / (2 * 51 - 50 + 7))


@pytest.mark.parametrize("k,n_max", [(2, 10), (3, 6), (4, 4), (5, 3)])
def test_exact_transform_matches_direct_diagonal(k, n_max):
    assert exact_transform_diagonal(k, n_max) == diagonal_sequence("relaxed", k, n_max)
    assert verify_transform(k, n_max)


def test_exact_transform_guards():
    with pytest.raises(ValueError, match="too-large"):
        exact_transform_diagonal(2, 33)
    with pytest.raises(ValueError, match="arity-k"):
        exact_transform_diagonal(1, 3)


def test_scaled_rows_track_exact_rows():
    k, i_max = 3, 15
    table = build_scaled_table(k, i_max, keep_rows=range(i_max + 1))
    exact = _exact_rows(k, i_max)
    for i in range(i_max + 1):
        row = table.row(i) * math.ldexp(1.0, table.scale_log2[i])
        want = np.array([float(v) for v in exact[i]])
        assert np.allclose(row, want, rtol=1e-12, atol=0.0)


def test_d_log_and_trace():
    k = 2
    table = build_scaled_table(k, 12, keep_rows=[12])
    exact = _exact_rows(k, 12)
    assert table.d_log(12, 0) == pytest.approx(math.log(float(exact[12][0])), rel=1e-12)
    # the j = 0 trace is recorded whenever the row has a j = 0 column
    for i in range(0, 13, k):
        assert i in table.trace_j0
    with pytest.raises(ValueError, match="row-not-retained"):
        table.row(5)
    with pytest.raises(ValueError, match="out-of-range"):
        table.d_log(12, 1)  # wrong residue


def test_columns_layout():
    table = build_scaled_table(3, 8, keep_rows=[7, 8])
    assert list(table.columns(7)) == [1, 4, 7]
    assert list(table.columns(8)) == [2, 5, 8]
    assert table.row(8).shape == (3,)


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
    near = profile_check(k, 300)
    far = profile_check(k, 3000)
    assert far.best_scale > 0.0
    assert far.sup_deviation < 0.08
    assert far.sup_deviation < near.sup_deviation
    # rows expose the fitted pairs inside the window
    for i, j, d_scaled, airy_fit in far.rows:
        assert i == 3000
        assert 0 <= j <= int(3000 ** (2.0 / 3.0 - 0.1))
        assert d_scaled >= 0.0 and airy_fit >= 0.0
