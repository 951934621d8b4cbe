import json
import math

import mpmath
import numpy as np
import pytest

from dagenum.asym.airy import AIRY_DOMAIN_MIN, _airy_ai_vec, airy_ai
from dagenum.asym.predict import airy_root_a1

mpmath.mp.dps = 40


def _grid():
    xs = list(np.arange(-6.0, 8.0, 0.37))
    xs += [7.9, 8.0, 8.1, 9.0, 12.0, 20.0, 35.0, 60.0, 90.0]
    return xs


@pytest.mark.parametrize("x", _grid())
def test_ai_against_mpmath(x):
    want = float(mpmath.airyai(x))
    got = airy_ai(x)
    assert got == pytest.approx(want, rel=5e-13, abs=1e-300)


def test_vectorized_matches_scalar():
    xs = np.concatenate(
        [[-5.5, -1.0, 0.0, 4.0, 8.0, 9.5, 30.0], np.random.default_rng(9).uniform(-6.0, 120.0, 9000)]
    )
    vec = _airy_ai_vec(xs)
    assert [airy_ai(float(x)).hex() for x in xs] == [float(v).hex() for v in vec]


def test_golden_values(fixtures_dir):
    # 2,000 points over [-6, 120] (edges, then default_rng(20240817)), with
    # the values the evaluator gave when Ai and Ai' still had separate loops
    golden = json.loads((fixtures_dir / "airy_ai_golden.json").read_text())
    xs = np.array([float.fromhex(x) for x, _ in golden])
    assert [float(v).hex() for v in _airy_ai_vec(xs)] == [ai for _, ai in golden]


def test_slices_match_whole_array():
    xs = np.random.default_rng(13).uniform(-6.0, 120.0, 3000)
    whole = _airy_ai_vec(xs)
    for size in (1, 7, 64, 1000, 2999):
        for start in range(0, min(xs.size, 300 if size == 1 else xs.size), size):
            part = _airy_ai_vec(xs[start : start + size])
            assert np.array_equal(part.view(np.int64), whole[start : start + size].view(np.int64))


def test_domain_guard():
    with pytest.raises(ValueError, match="airy-domain"):
        airy_ai(-6.0001)
    with pytest.raises(ValueError, match="airy-domain"):
        _airy_ai_vec(np.array([0.0, -6.5]))
    assert airy_ai(AIRY_DOMAIN_MIN) == pytest.approx(
        float(mpmath.airyai(-6.0)), rel=1e-12
    )


def test_deep_tail_underflows_to_zero():
    assert airy_ai(120.0) == 0.0
    assert math.copysign(1.0, airy_ai(120.0)) == 1.0
    # but well before that the value is a genuine denormal-free double
    assert airy_ai(100.0) > 0.0
    # points past the 115 cut-off are zero; points before it are evaluated
    xs = np.array([100.0, 114.0, 115.0, math.nextafter(115.0, math.inf), 116.0, 1e6])
    assert np.array_equal(_airy_ai_vec(xs), [airy_ai(x) for x in xs])
    assert _airy_ai_vec(xs)[0] > 0.0 and not _airy_ai_vec(xs)[2:].any()


def test_first_root():
    a1 = airy_root_a1()
    want = float(mpmath.airyaizero(1))
    assert abs(a1 - want) < 1e-12
    assert abs(airy_ai(a1)) < 1e-12


def test_first_root_is_the_nearest_double():
    a1 = airy_root_a1()
    assert a1 == float(mpmath.airyaizero(1))
    assert a1.hex() == "-0x1.2b471a873adf9p+1"


def test_ai_changes_sign_across_first_root():
    # Ai'(a1) ~ 0.70, so one ulp of a1 moves Ai by ~3e-16, well above the
    # evaluator's error there: the sign flips between the neighbouring doubles
    a1 = airy_root_a1()
    assert airy_ai(math.nextafter(a1, -math.inf)) < 0.0
    assert airy_ai(math.nextafter(a1, math.inf)) > 0.0

