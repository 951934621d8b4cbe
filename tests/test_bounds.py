import json
import math
import threading

import numpy as np
import pytest

from dagenum.asym import bounds
from dagenum.asym.bounds import min_eta, s_factor, verify_bounds
from dagenum.asym.exact import p_ratio_check, weight_u
from dagenum.asym.predict import airy_root_a1, airy_scale
from dagenum.tables import DEFAULT_BYTE_BUDGET


def x(side, k, eta, i, j):
    """One witness value X(i, j), clamped at zero on the lower side."""
    return float(bounds._x_row(side, k, eta, [(i, np.array([j]))])[0][0])


def test_min_eta_values():
    assert min_eta(2) == pytest.approx(16 / 72)
    assert min_eta(3) == pytest.approx(25 / 288)
    assert min_eta(5) == pytest.approx(49 / (72 * 16))
    with pytest.raises(ValueError, match="arity-k"):
        min_eta(1)


def test_params_validation():
    def check(side="upper", k=3, eta=1.0, epsilon=0.1, i_range=(2, 3)):
        return verify_bounds(side, k, eta, epsilon, i_range)

    check(eta=1.05 * min_eta(3))
    assert airy_scale(3) == pytest.approx(1.0)
    assert -2.4 < airy_root_a1() < -2.3
    with pytest.raises(ValueError, match="eta-floor"):
        check(eta=min_eta(3))  # strict inequality
    with pytest.raises(ValueError, match="epsilon-range"):
        check(epsilon=0.7)
    with pytest.raises(ValueError, match="epsilon-range"):
        check(epsilon=0.0)
    with pytest.raises(ValueError, match="arity-k"):
        check(k=1)
    # the refusal order: eta before epsilon, epsilon before the index range
    with pytest.raises(ValueError, match="eta-floor"):
        check(eta=0.0, epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon-range"):
        check(epsilon=0.0, i_range=(1, 0))


def test_s_factor_signs_and_limits():
    # for k = 2 the very first lower factor is negative; everything else
    # on these ranges is positive and tends to k
    assert s_factor("lower", 2, 1) < 0.0
    assert s_factor("lower", 2, 2) > 0.0
    for k in (2, 3, 5):
        assert s_factor("lower", k, 50) < s_factor("upper", k, 50)
        assert s_factor("upper", k, 10**6) == pytest.approx(k, rel=1e-3)
    with pytest.raises(ValueError, match="side"):
        s_factor("middle", 2, 5)
    with pytest.raises(ValueError, match="out-of-range"):
        s_factor("lower", 2, 0)


def test_h_product_ordering_k3():
    def h(side, i):  # ln prod_{t=1..i} s(t), the column normalizer
        return math.fsum(math.log(s_factor(side, 3, t)) for t in range(1, i + 1))

    assert h("lower", 2000) <= h("upper", 2000)
    # normalizing away i ln k, the Airy i^(1/3) term and the log term leaves
    # a sequence whose doubling gaps shrink (the raw h grows past 2000 here)
    def norm(side, i):
        return (
            h(side, i)
            - i * math.log(3)
            - 3 * airy_root_a1() * i ** (1 / 3) / airy_scale(3)
            - ((7 * 3 - 6) / 6) * math.log(i)
        )

    for side in ("lower", "upper"):
        v500, v1000, v2000 = (norm(side, i) for i in (500, 1000, 2000))
        gap1, gap2 = abs(v1000 - v500), abs(v2000 - v1000)
        assert gap2 < gap1 < 0.5


def test_bound_value_basics():
    eta = 1.05 * min_eta(2)
    # the ghost column j = -1 evaluates against Ai at its root
    assert abs(x("lower", 2, eta, 500, -1)) < 1e-12
    # deep columns push the lower bracket negative, which is clamped to zero
    assert x("lower", 2, eta, 100, 80) == 0.0
    assert x("upper", 2, eta, 100, 3) > 0.0


def test_scan_matches_manual_cell():
    # recompute one lower-side cell from single witness values: the scan
    # inequality is s X(i,j) <= U(i,j) X(i-1,j-1) + X(i-1,j+k-1), X clamped
    k, i, j = 3, 500, 3
    eta = 1.05 * min_eta(k)
    lhs = s_factor("lower", k, i) * x("lower", k, eta, i, j)
    rhs = weight_u(k, i, j) * x("lower", k, eta, i - 1, j - 1) + x(
        "lower", k, eta, i - 1, j + k - 1
    )
    assert lhs <= rhs
    report = verify_bounds("lower", k, eta, 0.1, (2, 500))
    assert [i, j] not in report["violations"]


def test_verify_bounds_reports():
    eta = 1.05 * min_eta(3)
    report = verify_bounds("lower", 3, eta, 0.1, (2, 600))
    violations = report.pop("violations")
    assert report == {
        "side": "lower", "k": 3, "eta": eta, "epsilon": 0.1,
        "i_min": 2, "i_max": 600, "first_verified_i0": 8,
    }
    assert violations and all(type(v) is list and v[0] < 8 for v in violations)


def test_verify_bounds_starts_no_threads(monkeypatch):
    def refuse(self):
        raise RuntimeError("verify_bounds started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = verify_bounds("lower", 3, 1.05 * min_eta(3), 0.1, (2, 40))
    assert report["first_verified_i0"] == 8


@pytest.mark.parametrize("side,k", [("upper", 2), ("lower", 5)])
def test_verify_bounds_block_invariance(monkeypatch, side, k):
    eta = 1.05 * min_eta(k)
    batched = verify_bounds(side, k, eta, 0.1, (2, 600))
    monkeypatch.setattr(bounds, "_BLOCK_POINTS", 1)  # one row per Airy call
    per_row = verify_bounds(side, k, eta, 0.1, (2, 600))
    assert batched == per_row


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_verify_bounds_split_range(side):
    # a cell's verdict reads rows i-1 and i only, so where a range (and
    # with it every block) starts cannot change it
    eta = 1.05 * min_eta(5)
    whole = verify_bounds(side, 5, eta, 0.1, (2, 400))["violations"]
    head = verify_bounds(side, 5, eta, 0.1, (2, 200))["violations"]
    tail = verify_bounds(side, 5, eta, 0.1, (201, 400))["violations"]
    assert any(i > 200 for i, _ in whole)
    assert whole == head + tail


def test_sweeps_match_fixture_prefix(fixtures_dir):
    # the acceptance sweeps, cut at i = 1000, against the archived reports
    archived = json.loads((fixtures_dir / "bound_reports.json").read_text())
    for k in (2, 3, 4, 5):
        for side in ("lower", "upper"):
            report = verify_bounds(side, k, 1.05 * min_eta(k), 0.1, (2, 1000))
            expected = [v for v in archived[f"{side}-k{k}"]["violations"] if v[0] <= 1000]
            assert report["violations"] == expected, f"{side}-k{k}"
            i0 = expected[-1][0] + 1 if expected else 2
            assert report["first_verified_i0"] == i0, f"{side}-k{k}"


def test_sweep_airy_calls_bounded(monkeypatch):
    sizes = []
    evaluate = bounds._airy_ai_vec

    def record(xs):
        sizes.append(xs.size)
        return evaluate(xs)

    monkeypatch.setattr(bounds, "_airy_ai_vec", record)
    k, i_max = 2, 2000
    verify_bounds("upper", k, 1.05 * min_eta(k), 0.1, (2, i_max))
    widest_row = math.ceil(i_max**0.9) + k + 3
    rows = i_max  # i = 1 .. i_max
    assert max(sizes) <= bounds._BLOCK_POINTS + widest_row
    assert len(sizes) * 50 < rows


def test_verify_bounds_range_guard():
    eta = 1.05 * min_eta(2)
    with pytest.raises(ValueError, match="i-range"):
        verify_bounds("lower", 2, eta, 0.1, (1, 50))
    with pytest.raises(ValueError, match="i-range"):
        verify_bounds("lower", 2, eta, 0.1, (60, 50))


def test_verify_bounds_byte_budget():
    # i past the float range: refused up front, not an OverflowError
    with pytest.raises(ValueError, match="byte-budget: "):
        verify_bounds("upper", 2, 1.05 * min_eta(2), 0.1, (10**400, 10**400))
    # the acceptance sweeps (i <= 10000) project to about 1% of the budget
    widest = bounds._window(10_000, 1.0 - 0.1) + 5 + 3
    projected = (widest + bounds._BLOCK_POINTS) * bounds._BYTES_PER_POINT
    assert projected < DEFAULT_BYTE_BUDGET / 50


@pytest.mark.parametrize("k,n", [(2, 3), (2, 6), (3, 2), (3, 4)])
def test_p_ratio_check_small(k, n):
    report = p_ratio_check(k, n)
    assert report["ok"]
    assert report["kn"] == k * n
    assert report["pairs_checked"] > 0
    assert report["first_violation"] is None


def test_p_ratio_check_guards():
    with pytest.raises(ValueError, match="arity-k"):
        p_ratio_check(1, 2)
    with pytest.raises(ValueError, match="out-of-range"):
        p_ratio_check(2, 0)
    with pytest.raises(ValueError, match="too-large"):
        p_ratio_check(2, 31)
