import math

import numpy as np
import pytest
from scipy.integrate import quad

from oscfree import (
    DegenerateTangencyError,
    HalfPeriodError,
    OscillatorParams,
    TrajectoryFamily,
    action_boundary_identity,
    canonical_phase,
    envelope,
    free_trajectory,
    oscillator_trajectory,
    osc_to_free_space,
    osc_to_free_time,
    tangency,
    turning_points,
)


@pytest.fixture
def fam(params) -> TrajectoryFamily:
    return TrajectoryFamily(energy=0.5, params=params)  # amplitude 1


class TestFamily:
    def test_rejects_nonpositive_energy(self, params):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                TrajectoryFamily(energy=bad, params=params)

    def test_amplitude(self, params):
        assert TrajectoryFamily(2.5, params).amplitude == pytest.approx(math.sqrt(5.0))

    def test_from_level(self, params):
        assert TrajectoryFamily.from_level(params, 2).energy == 2.5

    def test_canonical_phase(self):
        assert canonical_phase(2.0 * math.pi + 0.3) == pytest.approx(0.3)
        assert canonical_phase(-0.5) == pytest.approx(2.0 * math.pi - 0.5)


class TestTrajectories:
    def test_oscillator_start(self, fam):
        assert oscillator_trajectory(fam, 0.0, 0.0) == 1.0

    def test_oscillator_quarter_phase(self, fam):
        assert oscillator_trajectory(fam, math.pi / 2, 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_energy_conserved_along_trajectory(self, params):
        fam = TrajectoryFamily(3.2, params)
        m, omega, a = params.mass, params.omega, fam.amplitude
        for alpha in (0.0, 0.9, 2.4):
            for t in np.linspace(-3.0, 3.0, 25):
                x = oscillator_trajectory(fam, alpha, t)
                xdot = -a * omega * math.sin(omega * t + alpha)
                e = 0.5 * m * xdot**2 + 0.5 * m * omega**2 * x**2
                assert e == pytest.approx(fam.energy, abs=1e-10)

    def test_free_constant_at_alpha_zero(self, fam):
        tau = np.linspace(-10, 10, 21)
        assert np.array_equal(free_trajectory(fam, 0.0, tau), np.ones_like(tau))

    def test_free_linear_at_alpha_half_pi(self, fam):
        assert free_trajectory(fam, math.pi / 2, 3.0) == pytest.approx(-3.0)

    def test_consistent_with_coordinate_map(self, params):
        # mapping the oscillator trajectory pointwise must land on the free one
        fam = TrajectoryFamily(2.5, params)
        for alpha in (0.0, 1.1, 3.9, 5.5):
            for t in np.linspace(-1.5, 1.5, 31):
                tau = osc_to_free_time(params, t)
                mapped = osc_to_free_space(params, t, oscillator_trajectory(fam, alpha, t))
                assert abs(mapped - free_trajectory(fam, alpha, tau)) < 1e-12

    def test_free_trajectory_is_affine(self, fam):
        tau = np.linspace(-10, 10, 101)
        y = free_trajectory(fam, 2.2, tau)
        second = y[2:] - 2.0 * y[1:-1] + y[:-2]
        assert np.abs(second).max() < 1e-12


class TestEnvelope:
    def test_at_tau_zero(self, fam):
        assert envelope(fam, 0.0) == (1.0, -1.0)

    def test_hyperbolic_growth(self, fam):
        plus, minus = envelope(fam, math.sqrt(3.0))
        assert plus == pytest.approx(2.0)
        assert minus == pytest.approx(-2.0)

    def test_matches_turning_points_exactly(self, params):
        for energy in (0.5, 2.5, 11.0):
            fam = TrajectoryFamily(energy, params)
            assert envelope(fam, 0.0) == turning_points(fam)

    def test_array_call_matches_scalar_calls(self):
        # the envelope table is written from one array call; it must keep the
        # bits of the per-value calls (an array ``** 2`` differs in the last bit)
        fam = TrajectoryFamily(0.731, OscillatorParams(1.7, 0.6))
        taus = np.linspace(-7.3, 9.1, 2001)
        plus, minus = envelope(fam, taus)
        scalar = [envelope(fam, t) for t in taus.tolist()]
        assert plus.tolist() == [p for p, _ in scalar]
        assert minus.tolist() == [m for _, m in scalar]

    def test_turning_point_values(self, params):
        assert turning_points(TrajectoryFamily(0.5, params)) == (1.0, -1.0)
        plus, minus = turning_points(TrajectoryFamily(2.5, params))
        assert plus == pytest.approx(math.sqrt(5.0))
        assert minus == -plus

    def test_turning_points_sit_at_potential_energy(self, params):
        for energy in (0.5, 2.5, 7.5):
            fam = TrajectoryFamily(energy, params)
            plus, _ = turning_points(fam)
            v = 0.5 * params.mass * params.omega**2 * plus**2
            assert abs(v - energy) < 1e-14

    def test_dominates_trajectories_with_single_touch(self, fam):
        taus = np.linspace(-10, 10, 2001)
        mags = envelope(fam, taus)[0]
        for alpha in (np.arange(100) + 0.5) * 2.0 * math.pi / 100:
            y = np.abs(free_trajectory(fam, alpha, taus))
            gap = mags - y
            assert gap.min() > -1e-10
            tau_star, y_star = tangency(fam, alpha)
            assert abs(abs(y_star) - envelope(fam, tau_star)[0]) < 1e-10
            # touched nowhere else: zero gaps may occur only next to tau_star
            near_zero = taus[gap < 1e-10]
            assert np.all(np.abs(near_zero - tau_star) <= taus[1] - taus[0])


class TestTangency:
    def test_constant_trajectory_touches_at_origin(self, fam):
        point = tangency(fam, 0.0)
        assert point.tau_star == 0.0
        assert point.y_star == 1.0

    def test_hand_solved_case(self, fam):
        # -sin a - omega tau cos a = 0 at a = 3 pi / 4 gives tau* = 1, y* = -sqrt(2)
        point = tangency(fam, 3.0 * math.pi / 4.0)
        assert point.tau_star == pytest.approx(1.0, abs=1e-12)
        assert point.y_star == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_touch_point_lies_on_trajectory(self, fam):
        for alpha in (0.3, 1.0, 2.0, 4.0, 6.0):
            point = tangency(fam, alpha)
            assert free_trajectory(fam, alpha, point.tau_star) == pytest.approx(
                point.y_star, abs=1e-10
            )

    def test_degenerate_angles_flagged(self, fam):
        for alpha in (math.pi / 2, 3.0 * math.pi / 2, math.pi / 2 + 4.0 * math.pi):
            with pytest.raises(DegenerateTangencyError):
                tangency(fam, alpha)

    def test_non_penetration(self, fam):
        taus = np.linspace(-10, 10, 4001)
        mags = envelope(fam, taus)[0]
        for alpha in (0.4, 2.1, 3.8, 5.9):
            y = np.abs(free_trajectory(fam, alpha, taus))
            assert np.all(y <= mags + 1e-12)


class TestActionIdentity:
    def test_empty_interval(self, fam):
        result = action_boundary_identity(fam, 1.0, 0.4, 0.4)
        assert result == (0.0, 0.0, 0.0)

    def test_constant_trajectory_case(self, fam):
        result = action_boundary_identity(fam, 0.0, -0.8, 1.1)
        assert result.defect < 1e-8

    def test_generic_case(self, fam):
        result = action_boundary_identity(fam, math.pi / 3, -0.5, 0.7)
        assert result.defect < 1e-8

    def test_lhs_against_quad_oracle(self, params):
        # independent adaptive quadrature of the oscillator Lagrangian
        fam = TrajectoryFamily(2.5, params)
        alpha, t1, t2 = 0.8, -0.6, 1.2
        a = fam.amplitude
        m, omega = params.mass, params.omega

        def lagrangian(t):
            x = a * math.cos(omega * t + alpha)
            xdot = -a * omega * math.sin(omega * t + alpha)
            return 0.5 * m * xdot**2 - 0.5 * m * omega**2 * x**2

        oracle, _ = quad(lagrangian, t1, t2, epsabs=1e-12, epsrel=1e-12)
        result = action_boundary_identity(fam, alpha, t1, t2)
        assert result.lhs == pytest.approx(oracle, abs=1e-9)
        assert result.defect < 1e-8

    def test_random_sweep(self, params):
        fam = TrajectoryFamily(2.5, params)
        rng = np.random.default_rng(2024)
        for _ in range(50):
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            t1, t2 = rng.uniform(-1.4, 1.4, size=2)
            assert action_boundary_identity(fam, alpha, t1, t2).defect < 1e-8

    def test_window_guard(self, fam):
        with pytest.raises(HalfPeriodError):
            action_boundary_identity(fam, 0.0, 0.0, 1.6)
