"""Oscillator <-> free-particle correspondence (Niederer's transformation).

The point transformation

    tau = tan(omega t) / omega,        y = x / cos(omega t)

maps harmonic motion on the half period |omega t| < pi/2 onto free motion
for all real tau.  Its quantum counterpart dresses an oscillator solution
psi(x, t) into a free-particle solution

    chi(y, tau) = (1 + omega^2 tau^2)^{-d/4}
                  * exp(i m omega^2 tau |y|^2 / (2 (1 + omega^2 tau^2)))
                  * psi(y (1 + omega^2 tau^2)^{-1/2}, arctan(omega tau)/omega)

and back.  The prefactor exponent is -d/4 in d dimensions (it is the
square root of the coordinate-map Jacobian, which is what preserves the
L2 norm), and the phase denominator carries tau squared; both facts are
pinned down by the norm and residual tests.

Vector-valued maps accept coordinates stacked along a leading axis of
length d, so a wavefunction evaluator is called as f(x, t) with
x.shape == (d, ...).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HalfPeriodError
from .oscillator import (
    OscillatorParams,
    QuantumNumbers1D,
    QuantumNumbers2D,
    _log_norm_1d,
    energy_1d,
    energy_2d,
    norm_constant_2d,
)
from .specfun import hermite, kummer_truncated


def _check_half_period(params: OscillatorParams, t: float) -> None:
    if not abs(params.omega * t) < 0.5 * math.pi:
        raise HalfPeriodError(
            f"|omega*t| = {abs(params.omega * t)} leaves the half-period window (< pi/2)"
        )


def osc_to_free_time(params: OscillatorParams, t: float) -> float:
    """Map oscillator time to free time, tau = tan(omega t) / omega."""
    _check_half_period(params, t)
    return math.tan(params.omega * t) / params.omega


def free_to_osc_time(params: OscillatorParams, tau: float) -> float:
    """Map free time to oscillator time, t = arctan(omega tau) / omega."""
    return math.atan(params.omega * tau) / params.omega


def osc_to_free_space(params: OscillatorParams, t: float, x):
    """Map oscillator-side position(s) to free-side, y = x / cos(omega t)."""
    _check_half_period(params, t)
    return np.asarray(x, dtype=float) / math.cos(params.omega * t)


def free_to_osc_space(params: OscillatorParams, tau: float, y):
    """Map free-side position(s) to oscillator-side, x = y (1 + omega^2 tau^2)^{-1/2}."""
    return np.asarray(y, dtype=float) / math.sqrt(1.0 + (params.omega * tau) ** 2)


def lift_wavefunction(psi, params: OscillatorParams, dimension: int, y, tau: float):
    """Dress an oscillator solution psi into a free-particle solution at (y, tau).

    Parameters
    ----------
    psi : callable
        Oscillator-side evaluator psi(x, t) -> complex, with x shaped
        (dimension, ...).  Must solve the oscillator equation for the
        result to solve the free one; that is the caller's contract and
        is what the residual checks verify downstream.
    params : OscillatorParams
    dimension : int
        Spatial dimension d >= 1.
    y : array_like
        Free-side coordinates stacked along a leading axis of length d.
    tau : float
        Free time.

    Returns
    -------
    complex or ndarray
        chi(y, tau), with the leading coordinate axis consumed.
    """
    ya = np.asarray(y, dtype=float)
    if ya.shape[0] != dimension:
        raise ValueError(f"leading axis of y must have length {dimension}, got {ya.shape[0]}")
    omega = params.omega
    s2 = 1.0 + (omega * tau) ** 2
    t = math.atan(omega * tau) / omega
    y_sq = np.sum(ya * ya, axis=0)
    prefactor = s2 ** (-0.25 * dimension)
    phase = np.exp(0.5j * params.mass * omega**2 * tau * y_sq / s2)
    return prefactor * phase * psi(ya / math.sqrt(s2), t)


def pull_back_wavefunction(chi, params: OscillatorParams, dimension: int, x, t: float):
    """Undress a free-particle solution chi back to the oscillator side at (x, t).

    chi is called as chi(y, tau) with y shaped (dimension, ...).  Valid
    only inside the half-period window |omega t| < pi/2.
    """
    tau = osc_to_free_time(params, t)
    xa = np.asarray(x, dtype=float)
    if xa.shape[0] != dimension:
        raise ValueError(f"leading axis of x must have length {dimension}, got {xa.shape[0]}")
    omega = params.omega
    c = math.cos(omega * t)
    x_sq = np.sum(xa * xa, axis=0)
    prefactor = c ** (-0.5 * dimension)
    phase = np.exp(-0.5j * params.mass * omega * math.tan(omega * t) * x_sq)
    return prefactor * phase * chi(xa / c, tau)


def lifted_eigenstate_1d(params: OscillatorParams, qn: QuantumNumbers1D, y, tau: float):
    """Closed-form free-particle solution obtained by lifting the 1D level n.

    Single combined expression; agrees with lift_wavefunction applied to
    eigenstate_1d to machine precision (two code paths, one answer).

    Parameters
    ----------
    params : OscillatorParams
    qn : QuantumNumbers1D
    y : float or ndarray
        Free-side position(s).
    tau : float
        Free time.

    Returns
    -------
    complex or ndarray
        chi_n(y, tau), scalar in / scalar out.
    """
    omega = params.omega
    mw = params.mass * omega
    ya = np.asarray(y, dtype=float)
    s2 = 1.0 + (omega * tau) ** 2
    t = math.atan(omega * tau) / omega
    y_sq = ya * ya
    exponent = (
        _log_norm_1d(params, qn.n)
        - 0.25 * math.log(s2)
        - 0.5 * mw * y_sq / s2
        + 1j * (0.5 * params.mass * omega**2 * tau * y_sq / s2 - energy_1d(params, qn) * t)
    )
    out = np.exp(exponent) * hermite(qn.n, math.sqrt(mw / s2) * ya)
    if np.ndim(y) == 0:
        return complex(out)
    return out


def lifted_eigenstate_2d(params: OscillatorParams, qn: QuantumNumbers2D, y1, y2, tau: float):
    """Closed-form lift of the 2D level (n_radial, l), for every n_radial >= 0.

    (y1 + i sgn(l) y2)^{|l|} carries r^{|l|} exp(i l phi) without an angle,
    and kummer_truncated the radial excitation.  Agrees with
    lift_wavefunction applied to eigenstate_2d to machine precision.

    Parameters
    ----------
    params : OscillatorParams
    qn : QuantumNumbers2D
    y1, y2 : float or ndarray
        Cartesian free-side coordinates (broadcast together).
    tau : float
        Free time.

    Returns
    -------
    complex or ndarray
        chi_{n_radial,l}(y1, y2, tau), scalar in / scalar out.
    """
    omega = params.omega
    mw = params.mass * omega
    y1a = np.asarray(y1, dtype=float)
    y2a = np.asarray(y2, dtype=float)
    labs = abs(qn.l)
    s2 = 1.0 + (omega * tau) ** 2
    t = math.atan(omega * tau) / omega
    r_sq = y1a * y1a + y2a * y2a
    z = mw * r_sq / s2
    exponent = -0.5 * z + 1j * (
        0.5 * params.mass * omega**2 * tau * r_sq / s2 - energy_2d(params, qn) * t
    )
    out = (
        norm_constant_2d(params, qn)
        * s2 ** (-0.5 * (labs + 1))
        * (y1a + 1j * math.copysign(1.0, qn.l) * y2a) ** labs
        * kummer_truncated(qn.n_radial, labs + 1.0, z)
        * np.exp(exponent)
    )
    if np.ndim(y1) == 0 and np.ndim(y2) == 0:
        return complex(out)
    return out

