import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_genlaguerre, eval_hermite

from oscfree.specfun import hermite, kummer_truncated


def laguerre_recurrence(n: int, l: int, z: float) -> float:
    """Independent oracle: generalized Laguerre L_n^(l)(z) by its own recurrence."""
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + l - z
    for k in range(1, n):
        prev, cur = cur, ((2 * k + l + 1 - z) * cur - (k + l) * prev) / (k + 1)
    return cur


class TestHermite:
    def test_degree_zero_is_one(self):
        assert hermite(0, 3.7) == 1.0

    def test_degree_one_at_origin(self):
        assert hermite(1, 0.0) == 0.0

    def test_hand_recurrence_degree_four(self):
        # H2(1) = 2, H3(1) = -4, H4(1) = -20 by hand
        assert hermite(4, 1.0) == -20.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-6.0, 6.0, size=40)
        for n in range(31):
            ours = hermite(n, x)
            ref = eval_hermite(n, x)
            assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10)

    @given(
        n=st.integers(min_value=0, max_value=50),
        x=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    )
    def test_parity(self, n, x):
        assert hermite(n, -x) == pytest.approx((-1.0) ** n * hermite(n, x), rel=1e-12, abs=0.0)

    def test_recurrence_rearranged(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-5.0, 5.0, size=25)
        for n in range(1, 31):
            lhs = (hermite(n + 1, x) - 2.0 * x * hermite(n, x)) / (-2.0 * n)
            ref = hermite(n - 1, x)
            assert np.allclose(lhs, ref, rtol=1e-10, atol=1e-10)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)

    def test_array_shape_preserved(self):
        x = np.linspace(-1, 1, 7)
        assert hermite(3, x).shape == (7,)
        assert isinstance(hermite(3, 0.5), float)


class TestKummerTruncated:
    def test_zeroth_is_one(self):
        assert kummer_truncated(0, 3.0, 17.2) == 1.0

    def test_first_order_zero(self):
        # 1 - z/b with z = b
        assert kummer_truncated(1, 2.0, 2.0) == 0.0

    def test_second_order_hand_sum(self):
        # terms 1, -2, +0.5
        assert kummer_truncated(2, 1.0, 1.0) == -0.5

    @given(
        n=st.integers(min_value=0, max_value=40),
        b=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    )
    def test_unity_at_zero_argument(self, n, b):
        assert kummer_truncated(n, b, 0.0) == 1.0

    def test_laguerre_cross_check(self):
        # F(-n, l+1, z) * binom(n+l, n) equals the generalized Laguerre polynomial
        zs = np.linspace(0.0, 12.0, 13)
        for n in range(11):
            for l in range(11):
                scale = math.comb(n + l, n)
                for z in zs:
                    ours = kummer_truncated(n, l + 1.0, float(z)) * scale
                    ref = laguerre_recurrence(n, l, float(z))
                    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("a", [0, 3, 10])
    @pytest.mark.parametrize("n", [20, 40, 60, 100])
    def test_high_degree_against_scipy_laguerre(self, n, a):
        # error weighted by e^{-z/2} z^{a/2}, the 2D radial profile, out to
        # twice the turning-point value of z for the level
        z = np.linspace(0.0, 4.0 * (2 * n + a + 1), 2001)
        weight = np.exp(-0.5 * z) * z ** (0.5 * a)
        ref = eval_genlaguerre(n, a, z) / math.comb(n + a, n)
        ours = kummer_truncated(n, a + 1.0, z)
        err = np.max(np.abs(weight * (ours - ref))) / np.max(np.abs(weight * ref))
        assert err <= 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            kummer_truncated(-1, 1.0, 0.0)
        with pytest.raises(ValueError):
            kummer_truncated(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            kummer_truncated(2, -1.0, 0.0)

    def test_array_argument(self):
        z = np.array([0.0, 1.0, 2.0])
        out = kummer_truncated(1, 2.0, z)
        assert np.allclose(out, 1.0 - z / 2.0)
