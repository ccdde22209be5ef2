import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from oscfree import (
    HalfPeriodError,
    OscillatorParams,
    QuantumNumbers1D,
    QuantumNumbers2D,
    eigenstate_1d,
    eigenstate_2d,
    free_to_osc_space,
    free_to_osc_time,
    lift_wavefunction,
    lifted_eigenstate_1d,
    lifted_eigenstate_2d,
    norm_constant_2d,
    osc_to_free_space,
    osc_to_free_time,
    pull_back_wavefunction,
)
from oscfree import analysis
from oscfree.analysis import Grid, Grid1D, auto_grid, residual
from oscfree.specfun import hermite, kummer_truncated
from oscfree.transform import _dressing_phase, _stretch_sq

PI_HALF = math.pi ** -0.5


class TestTimeMaps:
    def test_zero_is_fixed(self, params):
        assert osc_to_free_time(params, 0.0) == 0.0
        assert free_to_osc_time(params, 0.0) == 0.0

    def test_quarter_turn(self):
        assert osc_to_free_time(OscillatorParams(1, 2), math.pi / 8) == pytest.approx(0.5)
        assert osc_to_free_time(OscillatorParams(1, 1), math.pi / 4) == pytest.approx(1.0)

    def test_inverse_map_value(self, params):
        assert free_to_osc_time(params, 1.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_round_trip(self, params):
        # tan is ill-conditioned near the window edge, hence the relative tolerance
        for tau in (-1e3, -1.0, 0.3, 1e3):
            back = osc_to_free_time(params, free_to_osc_time(params, tau))
            assert abs(back - tau) <= 1e-13 * max(1.0, abs(tau))

    def test_window_guard(self, params):
        with pytest.raises(HalfPeriodError):
            osc_to_free_time(params, math.pi / 2)
        with pytest.raises(HalfPeriodError):
            osc_to_free_time(OscillatorParams(1, 2), -math.pi / 4)
        assert free_to_osc_time(params, 1e9) < math.pi / 2


# theta = omega tau stays within 1e150, so its square cannot overflow
@settings(max_examples=300, deadline=None)
@given(
    thetas=st.lists(
        st.floats(-1e150, 1e150) | st.sampled_from([5e-324, -2.5e-310, -0.0]), max_size=12
    ),
)
def test_stretch_sq_bits(thetas):
    # the stretch of an array of theta is each value's scalar stretch, bit for
    # bit, and both are Python's 1 + theta**2; a scalar gives a float
    scalar = [_stretch_sq(theta) for theta in thetas]
    assert all(type(s2) is float for s2 in scalar)
    assert _stretch_sq(np.array(thetas, dtype=float)).tolist() == scalar
    assert scalar == [1.0 + theta**2 for theta in thetas]


class TestSpaceMaps:
    def test_identity_at_time_zero(self, params):
        x = np.array([0.3, -1.7, 4.0])
        assert np.array_equal(osc_to_free_space(params, 0.0, x), x)
        assert np.array_equal(free_to_osc_space(params, 0.0, x), x)

    def test_stretch_at_pi_third(self, params):
        assert osc_to_free_space(params, math.pi / 3, 1.0) == pytest.approx(2.0)

    def test_shrink_matches_tan_identity(self, params):
        # 1/cos^2 = 1 + tan^2 connects the two scale factors
        x = np.linspace(-3, 3, 11)
        for t in (-1.2, -0.4, 0.9):
            tau = osc_to_free_time(params, t)
            y = osc_to_free_space(params, t, x)
            assert np.allclose(y / math.sqrt(1.0 + (params.omega * tau) ** 2), x, atol=1e-12)

    def test_free_side_value(self, params):
        assert free_to_osc_space(params, math.sqrt(3.0), 2.0) == pytest.approx(1.0)

    def test_round_trip(self, params):
        x = np.linspace(-5, 5, 23)
        for t in (-1.4, 0.2, 1.0):
            tau = osc_to_free_time(params, t)
            back = free_to_osc_space(params, tau, osc_to_free_space(params, t, x))
            assert np.allclose(back, x, atol=1e-12)

    def test_window_guard(self, params):
        with pytest.raises(HalfPeriodError):
            osc_to_free_space(params, 1.6, np.array([1.0]))


class TestLiftAndPullBack:
    def test_lift_identity_at_tau_zero(self, params):
        qn = QuantumNumbers1D(3)
        y = np.linspace(-4, 4, 41)
        psi = lambda x, t: eigenstate_1d(params, qn, x, t)
        assert np.allclose(
            lift_wavefunction(psi, params)(y, 0.0),
            eigenstate_1d(params, qn, y, 0.0),
            atol=1e-15,
        )

    def test_lifted_ground_state_density_decay(self, params):
        # |chi(0, tau)|^2 = rho_0(0) / sqrt(1 + tau^2)
        psi = lambda x, t: eigenstate_1d(params, QuantumNumbers1D(0), x, t)
        for tau in (0.0, 0.7, 3.0, 10.0):
            chi = lift_wavefunction(psi, params)(0.0, tau)
            expected = PI_HALF / math.sqrt(1.0 + tau**2)
            assert abs(chi) ** 2 == pytest.approx(expected, rel=1e-13)

    def test_lift_preserves_norm(self, params):
        qn = QuantumNumbers1D(2)
        psi = lambda x, t: eigenstate_1d(params, qn, x, t)
        for tau in (0.0, 1.0, 5.0):
            grid = auto_grid(params, 2, tau, 8001)
            chi = lift_wavefunction(psi, params)(grid.nodes, tau)
            assert simpson(np.abs(chi) ** 2, x=grid.nodes) == pytest.approx(1.0, abs=1e-8)

    def test_pull_back_identity_at_time_zero(self, params):
        qn = QuantumNumbers1D(2)
        x = np.linspace(-4, 4, 17)
        chi = lambda y, tau: lifted_eigenstate_1d(params, qn, y, tau)
        assert np.allclose(
            pull_back_wavefunction(chi, params)(x, 0.0),
            lifted_eigenstate_1d(params, qn, x, 0.0),
            atol=1e-15,
        )

    def test_pull_back_window_guard(self, params):
        # 1D and 2D, either side of the window: refused before chi is called
        calls = []
        chi = lambda *args: calls.append(args)
        for args in [(0.0, 1.6), (0.0, -1.6), (np.zeros(3), np.ones(3), 1.6), (0.5, -0.5, -2.0)]:
            with pytest.raises(HalfPeriodError):
                pull_back_wavefunction(chi, params)(*args)
        assert calls == []

    def test_round_trip_through_both_maps(self, params):
        x = np.linspace(-12, 12, 10001)
        for n in range(6):
            qn = QuantumNumbers1D(n)
            psi = lambda xx, tt: eigenstate_1d(params, qn, xx, tt)
            back = pull_back_wavefunction(lift_wavefunction(psi, params), params)
            for t in (-1.4, -0.7, 0.0, 0.9, 1.4):
                direct = eigenstate_1d(params, qn, x, t)
                assert np.abs(back(x, t) - direct).max() < 1e-12

    @pytest.mark.parametrize("n_radial, l", [(0, 2), (1, -1), (3, 4)])
    def test_round_trip_2d(self, params, n_radial, l):
        qn = QuantumNumbers2D(n_radial, l)
        psi = lambda x1, x2, t: eigenstate_2d(params, qn, np.hypot(x1, x2), np.arctan2(x2, x1), t)
        back = pull_back_wavefunction(lift_wavefunction(psi, params), params)
        x1, x2 = np.meshgrid(np.linspace(-7, 7, 57), np.linspace(-6, 6, 49), indexing="ij")
        for t in (-1.4, 0.0, 0.9):
            assert np.abs(back(x1, x2, t) - psi(x1, x2, t)).max() < 1e-12

    def test_round_trip_other_direction(self, params):
        y = np.linspace(-20, 20, 10001)
        for n in range(6):
            qn = QuantumNumbers1D(n)
            chi = lambda yy, ss: lifted_eigenstate_1d(params, qn, yy, ss)
            forward = lift_wavefunction(pull_back_wavefunction(chi, params), params)
            for tau in (-3.0, 0.5, 2.0):
                direct = lifted_eigenstate_1d(params, qn, y, tau)
                assert np.abs(forward(y, tau) - direct).max() < 1e-12


def reference_lifted_1d(params, qn, y, tau):
    """lifted_eigenstate_1d as one expression in xi = sqrt(m omega) y and theta = omega tau, the
    bit reference for its in-place evaluation: the m omega = 1 level, the log norm of
    (m omega / pi)^{1/4}, and s^2 = 1 + theta^2."""
    n, mw, theta = qn.n, params.mass * params.omega, params.omega * tau
    xi, s2 = math.sqrt(mw) * np.asarray(y, dtype=float), 1.0 + theta**2
    log_norm = 0.25 * math.log(mw / math.pi) - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0))
    out = np.exp(
        log_norm - 0.25 * math.log(s2) - 0.5 * (xi * xi) / s2
        + 1j * (0.5 * theta * (xi * xi) / s2 - (n + 0.5) * math.atan(theta))
    ) * hermite(n, math.sqrt(1.0 / s2) * xi)
    return complex(out) if np.ndim(y) == 0 else out


def reference_lifted_2d(params, qn, y1, y2, tau):
    """lifted_eigenstate_2d as one expression on (re, im) pairs in xi = sqrt(m omega) y and
    theta = omega tau, the bit reference for its in-place products:
    ((xi1 + i sgn(l) xi2)^|l| g1) kummer g2, with g1 and g2 the per-axis Gaussian and phase
    factors, the m omega = 1 norm constant times (m omega)^{1/2} in g1, and every complex
    product written in real arithmetic."""
    n, labs, mw, theta = qn.n_radial, abs(qn.l), params.mass * params.omega, params.omega * tau
    xi1, xi2 = (math.sqrt(mw) * np.asarray(c, dtype=float) for c in (y1, y2))
    s2 = 1.0 + theta**2
    times = lambda a, b: (a[0] * b[0] - a[1] * b[1], a[1] * b[0] + a[0] * b[1])

    def axis(xi_sq, level, scale):
        phase = 0.5 * theta * xi_sq / s2 - level * math.atan(theta)
        g = np.exp(xi_sq * (-0.5 / s2) + 1j * phase)
        return g.real * scale, g.imag * scale

    log_sq = (
        math.lgamma(n + labs + 1.0) - math.lgamma(n + 1.0) - 2.0 * math.lgamma(labs + 1.0)
        - math.log(math.pi)
    )
    scale = math.exp(0.5 * log_sq) * math.sqrt(mw) * s2 ** (-0.5 * (labs + 1))
    g1 = axis(xi1 * xi1, 2 * n + labs + 1, scale)
    re, im = functools.reduce(times, [(xi1, math.copysign(1.0, qn.l) * xi2)] * labs + [g1])
    if n:
        kummer = kummer_truncated(n, labs + 1.0, (xi1 * xi1 + xi2 * xi2) / s2)
        re, im = re * kummer, im * kummer
    re, im = times((re, im), axis(xi2 * xi2, 0.0, 1.0))
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return complex(out) if np.ndim(y1) == 0 and np.ndim(y2) == 0 else out


# a scalar, one point, a ragged count and more than two slabs of analysis._slabs
LIFT_SIZES = ["0-d", 1, 3001, "slabs"]
LIFT_PARAMS = OscillatorParams(1.3, 0.8)


def lift_points(size, half: float, seed: int):
    """Points in [-half, half] of the given size, with +0.0 and -0.0 mixed in."""
    rng = np.random.default_rng(seed)
    if size == "0-d":
        return float(rng.uniform(-half, half))
    values = rng.uniform(-half, half, size=2 * analysis._SLAB + 3 if size == "slabs" else size)
    values[::7], values[::11] = 0.0, -0.0
    return values


def assert_same_complex_bits(ours, ref):
    assert type(ours) is type(ref) and np.shape(ours) == np.shape(ref)
    ours, ref = np.atleast_1d(ours), np.atleast_1d(ref)
    assert ours.dtype == ref.dtype == complex
    assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))


def reference_lift(psi, params):
    """lift_wavefunction with its dressing as one expression, the bit reference for it."""

    def chi(*args):
        *y, tau = args
        theta, xi_sq = params.omega * tau, params.mass * params.omega * sum(np.square(c) for c in y)
        return (
            _stretch_sq(theta) ** (-0.25 * len(y))
            * np.exp(1j * _dressing_phase(theta, xi_sq, 0.0))
            * psi(*[free_to_osc_space(params, tau, c) for c in y], free_to_osc_time(params, tau))
        )

    return chi


def reference_pull_back(chi, params):
    """pull_back_wavefunction with its dressing as one expression, the bit reference for it."""

    def psi(*args):
        *x, t = args
        tau = osc_to_free_time(params, t)
        y = [osc_to_free_space(params, t, v) for v in x]
        theta, xi_sq = params.omega * tau, params.mass * params.omega * sum(np.square(c) for c in y)
        return (
            _stretch_sq(theta) ** (0.25 * len(y))
            * np.exp(-1j * _dressing_phase(theta, xi_sq, 0.0))
            * chi(*y, tau)
        )

    return psi


def dressing_cases(params):
    """(oscillator psi, free chi) pairs in 1, 2 and 3 dimensions; 2D goes through polar psi."""
    levels, qn2 = [QuantumNumbers1D(n) for n in (3, 1, 0)], QuantumNumbers2D(1, -2)

    def psi_2d(x1, x2, t):
        return eigenstate_2d(params, qn2, np.hypot(x1, x2), np.arctan2(x2, x1), t)

    def psi_3d(*args):  # a product of 1D levels, one per axis
        *x, t = args
        return math.prod(eigenstate_1d(params, qn, c, t) for qn, c in zip(levels, x))

    def chi_3d(*args):
        *y, tau = args
        return math.prod(lifted_eigenstate_1d(params, qn, c, tau) for qn, c in zip(levels, y))

    return {
        1: (lambda x, t: eigenstate_1d(params, levels[0], x, t),
            lambda y, tau: lifted_eigenstate_1d(params, levels[0], y, tau)),
        2: (psi_2d, lambda y1, y2, tau: lifted_eigenstate_2d(params, qn2, y1, y2, tau)),
        3: (psi_3d, chi_3d),
    }


# per dimension: a ragged grid, and one of more than 2^15 points, where numpy elides temporaries
DRESSING_SHAPES = {
    "ragged": {1: (3001,), 2: (57, 43), 3: (13, 11, 7)},
    "elided": {1: (2**16 + 3,), 2: (259, 131), 3: (37, 33, 29)},
}


def dressing_points(dim, size):
    """dim coordinates, floats for size "0-d", else meshgrids of DRESSING_SHAPES[size][dim]."""
    rng = np.random.default_rng(dim)
    if size == "0-d":
        return [float(v) for v in rng.uniform(-4.0, 4.0, dim)]
    axes = [np.sort(rng.uniform(-6.0, 6.0, count)) for count in DRESSING_SHAPES[size][dim]]
    return np.meshgrid(*axes, indexing="ij")


@pytest.mark.parametrize("time", [-1.3, 0.0, 0.6])
@pytest.mark.parametrize("size", ["0-d", "ragged", "elided"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dressing_bits_match_reference(dim, size, time):
    # the generic lift and pull-back, both directions of the one dressing, keep their bits;
    # time is tau for the lift and t for the pull-back (|omega t| < pi/2 at omega 0.8)
    psi, chi = dressing_cases(LIFT_PARAMS)[dim]
    coords = dressing_points(dim, size)
    lifted = lift_wavefunction(psi, LIFT_PARAMS)(*coords, time)
    assert_same_complex_bits(lifted, reference_lift(psi, LIFT_PARAMS)(*coords, time))
    pulled = pull_back_wavefunction(chi, LIFT_PARAMS)(*coords, time)
    assert_same_complex_bits(pulled, reference_pull_back(chi, LIFT_PARAMS)(*coords, time))


class TestLiftedEigenstate1D:
    @pytest.mark.parametrize("tau", [0.0, -0.7, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 40, 120])
    @pytest.mark.parametrize("size", LIFT_SIZES)
    def test_bits_match_reference(self, size, n, tau):
        qn = QuantumNumbers1D(n)
        y = lift_points(size, 25.0, n)
        ours = lifted_eigenstate_1d(LIFT_PARAMS, qn, y, tau)
        assert_same_complex_bits(ours, reference_lifted_1d(LIFT_PARAMS, qn, y, tau))

    def test_reduces_to_eigenstate_at_tau_zero(self, params):
        y = np.linspace(-6, 6, 201)
        qn = QuantumNumbers1D(2)
        assert np.allclose(
            lifted_eigenstate_1d(params, qn, y, 0.0),
            eigenstate_1d(params, qn, y, 0.0),
            atol=1e-16,
        )

    def test_density_scaling_value(self, params):
        # rho_2(0) = pi^{-1/2} H_2(0)^2 / 8 = pi^{-1/2} / 2; at tau = 1 scale by 1/sqrt(2)
        chi = lifted_eigenstate_1d(params, QuantumNumbers1D(2), 0.0, 1.0)
        assert abs(chi) ** 2 == pytest.approx(PI_HALF / (2.0 * math.sqrt(2.0)), rel=1e-13)

    def test_inherited_parity(self, params):
        y = np.linspace(0.1, 14.0, 57)
        for n in range(6):
            qn = QuantumNumbers1D(n)
            plus = lifted_eigenstate_1d(params, qn, y, 1.3)
            minus = lifted_eigenstate_1d(params, qn, -y, 1.3)
            assert np.allclose(minus, (-1.0) ** n * plus, rtol=1e-13, atol=1e-300)

    def test_subset_of_nodes_keeps_its_bits_at_n1000(self, params):
        # the Hermite recurrence rescales at n = 1000, each point by its own limit, so nodes
        # evaluated without the grid's outer ones keep the bits of a whole-grid call
        qn, grid = QuantumNumbers1D(1000), auto_grid(params, 1000, 0.7, 160001)
        whole = lifted_eigenstate_1d(params, qn, grid.nodes, 0.7)
        inner = np.flatnonzero(np.abs(grid.nodes) < 0.3 * grid.y_max)
        ours = lifted_eigenstate_1d(params, qn, grid.nodes[inner], 0.7)
        assert_same_complex_bits(ours, whole[inner])

    @pytest.mark.parametrize("other", [math.nan, math.inf, 1e30])
    def test_unscaled_point_keeps_the_others_bits_at_n400(self, params, other):
        # a point the Hermite recurrence cannot scale (x not finite, or g > 2^63) runs
        # unscaled on its own: y = 30 keeps the value and bits it has alone
        qn = QuantumNumbers1D(400)
        alone = lifted_eigenstate_1d(params, qn, np.array([30.0]), 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            both = lifted_eigenstate_1d(params, qn, np.array([30.0, other]), 0.0)
        assert alone[0] == pytest.approx(1.7230780949675965e-06, rel=1e-12)
        assert_same_complex_bits(both[:1], alone)

    def test_two_code_paths_one_answer(self, params):
        y = np.linspace(-20, 20, 10001)
        for n in range(6):
            qn = QuantumNumbers1D(n)
            chi = lift_wavefunction(lambda xx, tt: eigenstate_1d(params, qn, xx, tt), params)
            for tau in (0.0, 1.0, 5.0):
                generic = chi(y, tau)
                closed = lifted_eigenstate_1d(params, qn, y, tau)
                assert np.abs(generic - closed).max() < 1e-14


class TestLiftedEigenstate2D:
    @pytest.mark.parametrize("tau", [0.0, -0.7, 2.5])
    @pytest.mark.parametrize("n_radial, l", [(0, 0), (0, 1), (0, -1), (1, -2), (3, 4)])
    @pytest.mark.parametrize("size", LIFT_SIZES)
    def test_bits_match_reference(self, size, n_radial, l, tau):
        qn = QuantumNumbers2D(n_radial, l)
        y1, y2 = lift_points(size, 9.0, 10 * n_radial + l + 5), lift_points(size, 8.0, 7 - l)
        ours = lifted_eigenstate_2d(LIFT_PARAMS, qn, y1, y2, tau)
        assert_same_complex_bits(ours, reference_lifted_2d(LIFT_PARAMS, qn, y1, y2, tau))

    @pytest.mark.parametrize("tau", [0.0, -0.7, 2.5])
    @pytest.mark.parametrize("n_radial", [0, 1, 3])
    @pytest.mark.parametrize("l", [0, 1, -1, 2, -2, 3, -3, 4])
    def test_sparse_coordinates_give_the_bits_of_full_ones(self, l, n_radial, tau):
        # analysis._slabs hands the lift sparse ij coordinates and perfbench checks the CLI's
        # tables against full np.meshgrid ones: both, and the 0-d path, give the same bits
        qn = QuantumNumbers2D(n_radial, l)
        n1, n2 = lift_points(41, 9.0, 3 * n_radial + l + 5), lift_points(37, 8.0, 11 - l)
        sparse = lifted_eigenstate_2d(
            LIFT_PARAMS, qn, *np.meshgrid(n1, n2, indexing="ij", sparse=True), tau
        )
        full = lifted_eigenstate_2d(LIFT_PARAMS, qn, *np.meshgrid(n1, n2, indexing="ij"), tau)
        assert_same_complex_bits(sparse, full)
        for i, j in [(0, 0), (0, 7), (11, 0), (7, 22), (40, 36)]:  # +-0.0 nodes, then none
            point = lifted_eigenstate_2d(LIFT_PARAMS, qn, float(n1[i]), float(n2[j]), tau)
            assert_same_complex_bits(point, complex(full[i, j]))

    def test_reduces_to_ground_state_at_tau_zero(self, params):
        qn = QuantumNumbers2D(0, 0)
        val = lifted_eigenstate_2d(params, qn, 0.7, -0.4, 0.0)
        r = math.hypot(0.7, -0.4)
        expected = eigenstate_2d(params, qn, r, math.atan2(-0.4, 0.7), 0.0)
        assert val == pytest.approx(expected, abs=1e-15)

    def test_centrifugal_zero_at_origin(self, params):
        for tau in (0.0, 2.5):
            assert lifted_eigenstate_2d(params, QuantumNumbers2D(0, 2), 0.0, 0.0, tau) == 0.0

    def test_unit_norm_at_tau_two(self, params):
        qn = QuantumNumbers2D(0, 1)
        half = (math.sqrt(4.0) + 10.0) * math.sqrt(5.0)
        nodes = np.linspace(-half, half, 1201)
        y1, y2 = np.meshgrid(nodes, nodes, indexing="ij")
        chi = lifted_eigenstate_2d(params, qn, y1, y2, 2.0)
        inner = simpson(np.abs(chi) ** 2, x=nodes, axis=1)
        assert simpson(inner, x=nodes) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("n_radial, l", [(0, 2), (1, 1), (3, -2), (5, 4)])
    def test_matches_generic_lift(self, params, n_radial, l):
        qn = QuantumNumbers2D(n_radial, l)

        def psi(x1, x2, t):
            return eigenstate_2d(params, qn, np.hypot(x1, x2), np.arctan2(x2, x1), t)

        nodes = np.linspace(-8, 8, 41)
        y1, y2 = np.meshgrid(nodes, nodes, indexing="ij")
        generic = lift_wavefunction(psi, params)(y1, y2, 1.5)
        closed = lifted_eigenstate_2d(params, qn, y1, y2, 1.5)
        assert np.abs(generic - closed).max() < 1e-14

    def test_radially_excited_solves_free_equation(self, params):
        # the Kummer factor of an n_radial > 0 state must keep the closed
        # form a free solution: two-grid residual ratio
        qn = QuantumNumbers2D(1, 1)
        axis = Grid1D(-10.0, 10.0, 161)
        solution = lambda a, b, s: lifted_eigenstate_2d(params, qn, a, b, s)
        coarse = residual(solution, Grid((axis, axis)), 0.5, 1.0, dt=axis.spacing)
        fine_axis = axis.refined(2)
        fine = residual(solution, Grid((fine_axis, fine_axis)), 0.5, 1.0, dt=fine_axis.spacing)
        assert 3.6 <= coarse[0] / fine[0] <= 4.4

    def test_norm_constant_positive(self, params):
        assert norm_constant_2d(params, QuantumNumbers2D(0, 4)) > 0
