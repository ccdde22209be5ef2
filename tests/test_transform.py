import math

import numpy as np
import pytest
from scipy.integrate import simpson

from oscfree import (
    HalfPeriodError,
    LiftedState,
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
from oscfree.analysis import Grid1D, Grid2D, auto_grid, residual

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
        y = np.linspace(-4, 4, 41)[None, :]
        psi = lambda x, t: eigenstate_1d(params, qn, x[0], t)
        assert np.allclose(
            lift_wavefunction(psi, params, 1, y, 0.0),
            eigenstate_1d(params, qn, y[0], 0.0),
            atol=1e-15,
        )

    def test_lifted_ground_state_density_decay(self, params):
        # |chi(0, tau)|^2 = rho_0(0) / sqrt(1 + tau^2)
        psi = lambda x, t: eigenstate_1d(params, QuantumNumbers1D(0), x[0], t)
        for tau in (0.0, 0.7, 3.0, 10.0):
            chi = lift_wavefunction(psi, params, 1, np.zeros((1,)), tau)
            expected = PI_HALF / math.sqrt(1.0 + tau**2)
            assert abs(chi) ** 2 == pytest.approx(expected, rel=1e-13)

    def test_lift_preserves_norm(self, params):
        qn = QuantumNumbers1D(2)
        psi = lambda x, t: eigenstate_1d(params, qn, x[0], t)
        for tau in (0.0, 1.0, 5.0):
            grid = auto_grid(params, 2, tau, 8001)
            chi = lift_wavefunction(psi, params, 1, grid.nodes[None, :], tau)
            assert simpson(np.abs(chi) ** 2, x=grid.nodes) == pytest.approx(1.0, abs=1e-8)

    def test_lift_checks_leading_axis(self, params):
        psi = lambda x, t: eigenstate_1d(params, QuantumNumbers1D(0), x[0], t)
        with pytest.raises(ValueError):
            lift_wavefunction(psi, params, 2, np.zeros((1, 5)), 0.0)

    def test_pull_back_identity_at_time_zero(self, params):
        qn = QuantumNumbers1D(2)
        x = np.linspace(-4, 4, 17)[None, :]
        chi = lambda y, tau: lifted_eigenstate_1d(params, qn, y[0], tau)
        assert np.allclose(
            pull_back_wavefunction(chi, params, 1, x, 0.0),
            lifted_eigenstate_1d(params, qn, x[0], 0.0),
            atol=1e-15,
        )

    def test_pull_back_window_guard(self, params):
        chi = lambda y, tau: lifted_eigenstate_1d(params, QuantumNumbers1D(0), y[0], tau)
        with pytest.raises(HalfPeriodError):
            pull_back_wavefunction(chi, params, 1, np.zeros((1,)), 1.6)

    def test_round_trip_through_both_maps(self, params):
        x = np.linspace(-12, 12, 10001)[None, :]
        for n in range(6):
            qn = QuantumNumbers1D(n)
            psi = lambda xx, tt: eigenstate_1d(params, qn, xx[0], tt)
            chi = lambda yy, ss: lift_wavefunction(psi, params, 1, yy, ss)
            for t in (-1.4, -0.7, 0.0, 0.9, 1.4):
                back = pull_back_wavefunction(chi, params, 1, x, t)
                direct = eigenstate_1d(params, qn, x[0], t)
                assert np.abs(back - direct).max() < 1e-12

    def test_round_trip_other_direction(self, params):
        y = np.linspace(-20, 20, 10001)[None, :]
        for n in range(6):
            qn = QuantumNumbers1D(n)
            chi = lambda yy, ss: lifted_eigenstate_1d(params, qn, yy[0], ss)
            psi = lambda xx, tt: pull_back_wavefunction(chi, params, 1, xx, tt)
            for tau in (-3.0, 0.5, 2.0):
                forward = lift_wavefunction(psi, params, 1, y, tau)
                direct = lifted_eigenstate_1d(params, qn, y[0], tau)
                assert np.abs(forward - direct).max() < 1e-12


class TestLiftedEigenstate1D:
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

    def test_two_code_paths_one_answer(self, params):
        y = np.linspace(-20, 20, 10001)
        for n in range(6):
            qn = QuantumNumbers1D(n)
            psi = lambda xx, tt: eigenstate_1d(params, qn, xx[0], tt)
            for tau in (0.0, 1.0, 5.0):
                generic = lift_wavefunction(psi, params, 1, y[None, :], tau)
                closed = lifted_eigenstate_1d(params, qn, y, tau)
                assert np.abs(generic - closed).max() < 1e-14


class TestLiftedEigenstate2D:
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

        def psi(x, t):
            r = np.hypot(x[0], x[1])
            phi = np.arctan2(x[1], x[0])
            return eigenstate_2d(params, qn, r, phi, t)

        nodes = np.linspace(-8, 8, 41)
        y1, y2 = np.meshgrid(nodes, nodes, indexing="ij")
        generic = lift_wavefunction(psi, params, 2, np.stack([y1, y2]), 1.5)
        closed = lifted_eigenstate_2d(params, qn, y1, y2, 1.5)
        assert np.abs(generic - closed).max() < 1e-14


class TestLiftedState:
    def test_dimension_source_mismatch(self, params):
        with pytest.raises(ValueError):
            LiftedState(params, 2, QuantumNumbers1D(0))
        with pytest.raises(ValueError):
            LiftedState(params, 1, QuantumNumbers2D(0, 0))
        with pytest.raises(ValueError):
            LiftedState(params, 3, QuantumNumbers2D(0, 0))

    def test_coordinate_arity(self, params):
        state = LiftedState(params, 1, QuantumNumbers1D(0))
        with pytest.raises(TypeError):
            state(0.0, 0.0, tau=0.0)

    def test_dispatches_1d(self, params):
        state = LiftedState(params, 1, QuantumNumbers1D(3))
        y = np.linspace(-3, 3, 11)
        assert np.array_equal(
            state(y, tau=0.8), lifted_eigenstate_1d(params, QuantumNumbers1D(3), y, 0.8)
        )

    def test_dispatches_2d_closed_form(self, params):
        qn = QuantumNumbers2D(0, 1)
        state = LiftedState(params, 2, qn)
        assert state(1.0, 0.5, tau=0.3) == lifted_eigenstate_2d(params, qn, 1.0, 0.5, 0.3)

    def test_radially_excited_solves_free_equation(self, params):
        # the Kummer factor of an n_radial > 0 state must keep the closed
        # form a free solution: two-grid residual ratio
        state = LiftedState(params, 2, QuantumNumbers2D(1, 1))
        axis = Grid1D(-10.0, 10.0, 161)
        solution = lambda a, b, s: state(a, b, tau=s)
        coarse = residual(solution, Grid2D(axis, axis), 0.5, 1.0, dt=axis.spacing)
        fine_axis = axis.refined(2)
        fine = residual(solution, Grid2D(fine_axis, fine_axis), 0.5, 1.0, dt=fine_axis.spacing)
        assert 3.6 <= coarse[0] / fine[0] <= 4.4

    def test_norm_constant_positive(self, params):
        assert norm_constant_2d(params, QuantumNumbers2D(0, 4)) > 0
