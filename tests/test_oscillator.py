import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from oscfree import (
    OscillatorParams,
    QuantumNumbers1D,
    QuantumNumbers2D,
    density_1d,
    eigenstate_1d,
    eigenstate_2d,
    energy_1d,
    energy_2d,
    norm_constant_2d,
)
from oscfree.analysis import (
    Grid1D,
    Grid2D,
    auto_grid,
    find_density_maxima,
    residual,
    residual_study,
    sample_field,
)

PI_QUARTER = math.pi ** -0.25  # |psi_0(0)|
PI_HALF = math.pi ** -0.5  # rho_0(0)


class TestDomainTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(mass=0.0, omega=1.0)
        with pytest.raises(ValueError):
            OscillatorParams(mass=1.0, omega=-2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                OscillatorParams(mass=bad, omega=1.0)
            with pytest.raises(ValueError):
                OscillatorParams(mass=1.0, omega=bad)

    def test_quantum_number_validation(self):
        with pytest.raises(ValueError):
            QuantumNumbers1D(-1)
        with pytest.raises(ValueError):
            QuantumNumbers2D(-1, 0)
        QuantumNumbers2D(0, -3)  # negative angular momentum is fine


class TestEnergies:
    def test_ground_state(self):
        assert energy_1d(OscillatorParams(1, 1), QuantumNumbers1D(0)) == 0.5

    def test_second_level(self):
        assert energy_1d(OscillatorParams(1, 1), QuantumNumbers1D(2)) == 2.5

    def test_scales_with_omega(self):
        assert energy_1d(OscillatorParams(1, 2), QuantumNumbers1D(3)) == 7.0

    def test_2d_level(self):
        assert energy_2d(OscillatorParams(1, 1), QuantumNumbers2D(1, -2)) == 5.0


class TestEigenstate1D:
    def test_ground_state_at_origin(self, params):
        val = eigenstate_1d(params, QuantumNumbers1D(0), 0.0, 0.0)
        assert val == pytest.approx(PI_QUARTER, abs=1e-15)

    def test_odd_state_vanishes_at_origin(self, params):
        assert eigenstate_1d(params, QuantumNumbers1D(1), 0.0, 3.21) == 0.0

    def test_phase_after_half_period(self, params):
        # e^{-i omega (n + 1/2) t} with n = 0, t = pi gives -i
        val = eigenstate_1d(params, QuantumNumbers1D(0), 0.0, math.pi)
        assert val == pytest.approx(-1j * PI_QUARTER, abs=1e-15)

    def test_unit_norm_quadrature(self, params):
        x = np.linspace(-12.0, 12.0, 4001)
        for n in (0, 3, 10):
            psi = eigenstate_1d(params, QuantumNumbers1D(n), x, 0.0)
            assert simpson(np.abs(psi) ** 2, x=x) == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality(self, params):
        x = np.linspace(-12.0, 12.0, 4001)
        states = [eigenstate_1d(params, QuantumNumbers1D(n), x, 0.0) for n in range(11)]
        for n in range(11):
            for k in range(n, 11):
                overlap = simpson(np.conj(states[n]) * states[k], x=x)
                expected = 1.0 if n == k else 0.0
                assert abs(overlap - expected) < 1e-8

    def test_large_n_stays_finite(self, params):
        # log-space normalization: 2^n n! alone would overflow here
        val = eigenstate_1d(params, QuantumNumbers1D(180), 1.0, 0.0)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_solves_oscillator_equation(self, params):
        qn = QuantumNumbers1D(2)
        grid = auto_grid(params, 2, 0.0, 2001)
        report = residual_study(
            lambda x, t: eigenstate_1d(params, qn, x, t), grid, 0.3, params.mass,
            refinements=3, omega=params.omega,
        )
        assert 1.8 <= report.fitted_order <= 2.2


class TestDensity1D:
    def test_ground_state_at_origin(self, params):
        assert density_1d(params, QuantumNumbers1D(0), 0.0) == pytest.approx(PI_HALF, abs=1e-15)

    def test_node_at_origin(self):
        assert density_1d(OscillatorParams(2.0, 0.7), QuantumNumbers1D(1), 0.0) == 0.0

    def test_even_symmetry(self, params):
        x = np.linspace(0.1, 6.0, 37)
        for n in (0, 1, 4, 9):
            d_plus = density_1d(params, QuantumNumbers1D(n), x)
            d_minus = density_1d(params, QuantumNumbers1D(n), -x)
            assert np.array_equal(d_plus, d_minus)

    def test_matches_squared_eigenstate(self, params):
        x = np.linspace(-8.0, 8.0, 101)
        for n in (0, 2, 7):
            d = density_1d(params, QuantumNumbers1D(n), x)
            psi = eigenstate_1d(params, QuantumNumbers1D(n), x, 0.0)
            assert np.allclose(d, np.abs(psi) ** 2, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("n", range(21))
    def test_maxima_count_is_n_plus_one(self, params, n):
        grid = auto_grid(params, n, 0.0, 16001)
        qn = QuantumNumbers1D(n)
        field = sample_field(lambda x, t: eigenstate_1d(params, qn, x, t), grid, 0.0)
        record = find_density_maxima(field)
        assert len(record.positions) == n + 1


class TestEigenstate2D:
    def test_origin_value_is_norm_constant(self, params):
        qn = QuantumNumbers2D(0, 0)
        val = eigenstate_2d(params, qn, 0.0, 0.0, 0.0)
        assert val == pytest.approx(norm_constant_2d(params, qn), abs=1e-15)

    def test_angular_momentum_zero_at_origin(self, params):
        assert eigenstate_2d(params, QuantumNumbers2D(0, 2), 0.0, 1.3, 0.7) == 0.0

    def test_rejects_negative_radius(self, params):
        with pytest.raises(ValueError):
            eigenstate_2d(params, QuantumNumbers2D(0, 1), -0.5, 0.0, 0.0)

    def test_unit_norm_against_quad_oracle(self, params):
        # independent check: adaptive radial quadrature of |psi_{0,1}|^2 * r
        qn = QuantumNumbers2D(0, 1)

        def radial_sq(r):
            return abs(eigenstate_2d(params, qn, r, 0.0, 0.0)) ** 2 * r

        total, _ = quad(radial_sq, 0.0, 14.0, epsabs=1e-12, epsrel=1e-12)
        assert 2.0 * math.pi * total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n_radial, l", [(20, 3), (60, -10)])
    def test_unit_norm_high_radial_level(self, n_radial, l):
        # radial Simpson well past the classical turning radius
        params = OscillatorParams(1.3, 0.8)
        qn = QuantumNumbers2D(n_radial, l)
        mw = params.mass * params.omega
        r_turn = math.sqrt(2.0 * (2 * n_radial + abs(l) + 1) / mw)
        r = np.linspace(0.0, r_turn + 12.0 / math.sqrt(mw), 40001)
        psi = eigenstate_2d(params, qn, r, 0.0, 0.0)
        total = 2.0 * math.pi * simpson(np.abs(psi) ** 2 * r, x=r)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_angular_dependence_is_pure_phase(self, params):
        for l in (-3, 1, 2):
            qn = QuantumNumbers2D(1, l)
            a = eigenstate_2d(params, qn, 1.7, 0.4, 0.2)
            b = eigenstate_2d(params, qn, 1.7, 2.9, 0.2)
            assert a == pytest.approx(b * np.exp(1j * l * (0.4 - 2.9)), abs=1e-12)

    def test_residual_rules_out_halved_phase(self, params):
        # the same state with half the level energy in its phase must fail
        # the equation: the residual then stalls instead of shrinking
        qn = QuantumNumbers2D(0, 1)
        half_energy = 0.5 * energy_2d(params, qn)

        def wrong(x1, x2, t):
            r = np.hypot(x1, x2)
            phi = np.arctan2(x2, x1)
            return eigenstate_2d(params, qn, r, phi, 0.0) * np.exp(-1j * half_energy * t)

        axis = Grid1D(-8.0, 8.0, 161)
        coarse = residual(wrong, Grid2D(axis, axis), 0.3, params.mass, axis.spacing, params.omega)
        fine_axis = axis.refined(2)
        fine = residual(
            wrong, Grid2D(fine_axis, fine_axis), 0.3, params.mass, fine_axis.spacing, params.omega
        )
        assert fine[0] > 0.1 * coarse[0]
        assert fine[0] > 1e-2


class TestNormConstant2D:
    def test_ground_state_value(self, params):
        # oracle: 2 pi int e^{-r^2} r dr = pi, so N = pi^{-1/2}
        assert norm_constant_2d(params, QuantumNumbers2D(0, 0)) == pytest.approx(
            PI_HALF, rel=1e-12
        )

    def test_scaling_in_mass_omega(self):
        base = OscillatorParams(1.0, 1.0)
        for mass, omega in ((2.0, 1.0), (0.5, 3.0), (1.7, 0.9)):
            scaled = OscillatorParams(mass, omega)
            for l in (0, 1, 3):
                qn = QuantumNumbers2D(0, l)
                expected = norm_constant_2d(base, qn) * (mass * omega) ** ((abs(l) + 1) / 2)
                assert norm_constant_2d(scaled, qn) == pytest.approx(expected, rel=1e-11)

    def test_positive_for_all_small_levels(self, params):
        for n in range(6):
            for l in range(-5, 6):
                assert norm_constant_2d(params, QuantumNumbers2D(n, l)) > 0.0

    def test_independent_of_l_sign(self, params):
        a = norm_constant_2d(params, QuantumNumbers2D(2, 3))
        b = norm_constant_2d(params, QuantumNumbers2D(2, -3))
        assert a == b
