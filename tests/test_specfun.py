import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, eval_hermite

from oscfree import OscillatorParams, QuantumNumbers1D, eigenstate_1d
from oscfree.analysis import _SLAB
from oscfree.specfun import hermite, hermite_scaled, kummer_truncated


def laguerre_recurrence(n: int, l: int, z: float) -> float:
    """Independent oracle: generalized Laguerre L_n^(l)(z) by its own recurrence."""
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + l - z
    for k in range(1, n):
        prev, cur = cur, ((2 * k + l + 1 - z) * cur - (k + l) * prev) / (k + 1)
    return cur


def reference_hermite(n: int, x):
    """H_n(x) by the recurrence over the whole array at once, one new array per step.

    The bit reference for `hermite`, whose in-place buffer updates must not
    change a single result.
    """
    xa = np.asarray(x, dtype=float)
    h_prev = np.ones_like(xa)
    if n == 0:
        out = h_prev
    else:
        h = 2.0 * xa
        for k in range(1, n):
            h, h_prev = 2.0 * xa * h - 2.0 * k * h_prev, h
        out = h
    if np.ndim(x) == 0:
        return float(out)
    return out


def reference_kummer(n: int, b: float, z):
    """F(-n, b, z) by the recurrence over the whole array at once, one new array per step.

    The bit reference for `kummer_truncated`, whose in-place buffer updates
    must not change a single result.
    """
    za = np.asarray(z, dtype=float)
    f_prev = np.ones_like(za)
    f = f_prev if n == 0 else 1.0 - za / b
    for k in range(1, n):
        f, f_prev = f + (k * (f - f_prev) - za * f) / (b + k), f
    if np.ndim(z) == 0:
        return float(f)
    return f


# sizes around the slab every grid evaluation hands over (one point short, exact,
# one over, two slabs and a tail), the same around the earlier 2^14-point slab, and
# the 2-D layouts: C order, Fortran order and a strided view
SIZES = [2**14 - 1, 2**14, 2**14 + 1, 2**15 + 3, _SLAB - 1, _SLAB, _SLAB + 1, 2 * _SLAB + 3]
LAYOUTS = ["0-d", 1, *SIZES, "c", "fortran", "strided"]


def sample_input(layout, low: float, high: float, seed: int):
    """Points in [low, high] shaped by `layout`, with +0.0 and -0.0 mixed in."""
    rng = np.random.default_rng(seed)
    if layout == "0-d":
        return float(rng.choice([low, 0.0, -0.0, rng.uniform(low, high)]))
    shape = (layout,) if isinstance(layout, int) else (150, 331)
    values = rng.uniform(low, high, size=shape)
    values.flat[::7] = 0.0
    values.flat[::11] = -0.0
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "strided":
        return values[:, ::3]
    return values


def assert_same_bits(ours, ref):
    assert type(ours) is type(ref)
    assert np.shape(ours) == np.shape(ref)
    assert np.asarray(ours).dtype == np.asarray(ref).dtype
    assert np.array_equal(np.asarray(ours).view(np.uint64), np.asarray(ref).view(np.uint64))


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
        with pytest.raises(ValueError):
            hermite_scaled(-1, 0.0)

    def test_scaled_pair_of_degree_zero(self):
        h, h_prev, e = hermite_scaled(0, np.array([-2.0, 0.0, 3.5]))
        assert h.tolist() == [1.0, 1.0, 1.0] and h_prev.tolist() == [0.0, 0.0, 0.0] and e == 0

    # where H_n passes the largest float, h 2^e does too; a point whose x is not finite runs
    # unscaled on its own, and the other points keep the (h, h_prev, e) of a call without it
    def test_overflows_only_past_the_largest_float(self):
        assert np.isfinite(hermite_scaled(300, 40.0)[0])
        x = np.array([1.0, 40.0, math.nan])
        with np.errstate(invalid="ignore", over="ignore"):
            assert hermite(300, 40.0) == math.inf
            h, h_prev, e = hermite_scaled(300, x)
        for ours, alone in zip((h, h_prev, e), hermite_scaled(300, x[:2])):
            assert np.array_equal(np.broadcast_to(ours, x.shape)[:2], alone)
        assert math.isnan(h[2])

    def test_array_shape_preserved(self):
        x = np.linspace(-1, 1, 7)
        assert hermite(3, x).shape == (7,)
        assert isinstance(hermite(3, 0.5), float)
        assert hermite(300, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @settings(max_examples=15, deadline=None)
    # past about n = 120 on +-30, hermite_scaled rescales (H_170(30) is near 2^1004, still finite)
    @given(
        n=st.integers(min_value=0, max_value=170),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bits_match_whole_array_recurrence(self, n, layout, seed):
        x = sample_input(layout, -30.0, 30.0, seed)
        assert_same_bits(hermite(n, x), reference_hermite(n, x))


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
        with pytest.raises(ValueError):
            kummer_truncated(2, float("nan"), 1.0)

    def test_array_argument(self):
        z = np.array([0.0, 1.0, 2.0])
        out = kummer_truncated(1, 2.0, z)
        assert np.allclose(out, 1.0 - z / 2.0)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        b=st.floats(min_value=1.0, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bits_match_whole_array_recurrence(self, n, b, layout, seed):
        z = sample_input(layout, 0.0, 500.0, seed)
        assert_same_bits(kummer_truncated(n, b, z), reference_kummer(n, b, z))


class TestAgainstMpmath:
    """Pointwise agreement with 40-digit mpmath: eigenstates to degree 170, hermite_scaled's
    pair at degrees 500 and 2000, the weighted Kummer polynomials to degree 150.

    Measured: eigenstates within 2.9e-14 to 8.2e-14 of max |psi|, the weighted Kummer
    polynomials within 1.4e-15 and 3.8e-15 of their maximum; the 40-digit references
    round to the same floats as 100- and 200-digit ones.
    """

    @pytest.mark.parametrize("n", [50, 100, 150, 170])
    def test_eigenstate_1d(self, n):
        mpmath = pytest.importorskip("mpmath")
        x = np.linspace(-1.0, 1.0, 301) * (math.sqrt(2 * n + 1) + 6.0)  # turning point + 6
        ours = eigenstate_1d(OscillatorParams(1.0, 1.0), QuantumNumbers1D(n), x, 0.0)
        with mpmath.workdps(40):
            scale = mpmath.pi ** -0.25 / mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n))
            ref = np.array([
                float(scale * mpmath.hermite(n, v) * mpmath.exp(-mpmath.mpf(v) ** 2 / 2)) for v in x
            ])
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    # measured within 1.6e-14 of max |psi_n| at n = 2000, where H_n reaches 2^13785
    @pytest.mark.parametrize("n", [500, 2000])
    def test_hermite_scaled(self, n):
        mpmath = pytest.importorskip("mpmath")
        x = np.linspace(-1.0, 1.0, 301) * (math.sqrt(2 * n + 1) + 6.0)  # turning point + 6
        h, h_prev, e = hermite_scaled(n, x)
        e = np.broadcast_to(e, x.shape)
        with mpmath.workdps(40):
            scale = mpmath.pi ** -0.25 / mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n))
            weight = [scale * mpmath.exp(-mpmath.mpf(v) ** 2 / 2) for v in x]
            for values, degree in ((h, n), (h_prev, n - 1)):
                ref = np.array([float(w * mpmath.hermite(degree, v)) for w, v in zip(weight, x)])
                ours = np.array([
                    float(w * mpmath.ldexp(float(v), int(k))) for w, v, k in zip(weight, values, e)
                ])
                assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n, b", [(50, 3.0), (150, 5.0)])
    def test_kummer_truncated(self, n, b):
        mpmath = pytest.importorskip("mpmath")
        # z = r^2 out to 6 past the turning radius r^2 = 2 (2n + b) of the 2D level
        z = np.linspace(0.0, 1.0, 301) * (math.sqrt(2 * (2 * n + b)) + 6.0) ** 2
        weight = np.exp(-z / 2) * z ** ((b - 1) / 2)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.hyp1f1(-n, b, v)) for v in z])
        error = np.abs(weight * (kummer_truncated(n, b, z) - ref)).max()
        assert error <= 1e-12 * np.abs(weight * ref).max()
