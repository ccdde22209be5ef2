"""Oscillator <-> free-particle correspondence (Niederer's transformation).

The point transformation

    tau = tan(omega t) / omega,        y = x / cos(omega t)

maps harmonic motion on the half period |omega t| < pi/2 onto free motion
for all real tau.  Its quantum counterpart dresses an oscillator solution
psi(x, t) into a free-particle solution

    chi(y, tau) = (s^2)^{-d/4}
                  * exp(i m omega^2 tau |y|^2 / (2 s^2))
                  * psi(y / s, arctan(omega tau) / omega),   s^2 = 1 + omega^2 tau^2

and back.  The prefactor exponent is -d/4 in d dimensions (it is the
square root of the coordinate-map Jacobian, which is what preserves the
L2 norm), and the phase denominator carries tau squared; both facts are
pinned down by the norm and residual tests.

The stretch s^2, the time map and the dressing are each written once here.
A solution is called as f(*coords, t), one coordinate per axis, as in
analysis.sample_field; lift_wavefunction and pull_back_wavefunction turn a
solution on one side into the solution on the other, in any dimension.
Each level lifts scale covariantly, chi(y, tau; m, omega) = (m omega)^{d/4} chi(xi, theta; 1, 1)
with xi = sqrt(m omega) y and theta = omega tau, so the closed-form lifts run at m = omega = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HalfPeriodError
from .oscillator import (
    _UNIT,
    OscillatorParams,
    QuantumNumbers1D,
    QuantumNumbers2D,
    _log_norm_1d,
    norm_constant_2d,
)
from .specfun import hermite_scaled, kummer_truncated


def _check_half_period(params: OscillatorParams, t: float) -> None:
    if not abs(params.omega * t) < 0.5 * math.pi:
        raise HalfPeriodError(
            f"|omega*t| = {abs(params.omega * t)} leaves the half-period window (< pi/2)"
        )


def _stretch_sq(theta):
    """Squared stretch s^2 = 1 + theta^2 at theta = omega tau (a float for a scalar theta).

    float_power rounds like the scalar ``**`` (libm pow), where an array
    ``** 2`` squares; so an array call gives each value's scalar-call bits.
    """
    s2 = 1.0 + np.float_power(np.asarray(theta, dtype=float), 2)
    return float(s2) if np.ndim(s2) == 0 else s2


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
    return np.asarray(y, dtype=float) / math.sqrt(_stretch_sq(params.omega * tau))


def _dressing_phase(theta: float, xi_sq, level: float):
    """The lift's phase theta xi_sq / (2 s^2) - E' atan(theta), theta = omega tau.

    It is m omega^2 tau |y|^2 / (2 s^2) - E t, t the mapped time, with E' = E / omega (0 for
    the bare dressing) and xi_sq = m omega |y|^2, or one axis's part in the 2D lift.
    """
    return 0.5 * theta * xi_sq / _stretch_sq(theta) - level * math.atan(theta)


def _dressing(params: OscillatorParams, y, tau: float, sign: int):
    """(s^2)^{-sign d/4} exp(sign i m omega^2 tau |y|^2 / (2 s^2)): sign 1 lifts, -1 pulls back."""
    theta = params.omega * tau
    phase = _dressing_phase(theta, params.mass * params.omega * sum(np.square(c) for c in y), 0.0)
    return _stretch_sq(theta) ** (-0.25 * sign * len(y)) * np.exp(sign * 1j * phase)


def lift_wavefunction(psi, params: OscillatorParams):
    """Dress an oscillator solution psi(*x, t) into the free-particle solution chi(*y, tau).

    psi must solve the oscillator equation for chi to solve the free one;
    that is the caller's contract, which the residual checks verify.
    """

    def chi(*args):
        *y, tau = args
        x = [free_to_osc_space(params, tau, c) for c in y]
        return _dressing(params, y, tau, 1) * psi(*x, free_to_osc_time(params, tau))

    return chi


def pull_back_wavefunction(chi, params: OscillatorParams):
    """Undress a free-particle solution chi(*y, tau) into the oscillator solution psi(*x, t).

    psi is valid only inside the half-period window |omega t| < pi/2 and
    raises HalfPeriodError outside it.
    """

    def psi(*args):
        *x, t = args
        tau = osc_to_free_time(params, t)
        y = [osc_to_free_space(params, t, v) for v in x]
        return _dressing(params, y, tau, -1) * chi(*y, tau)

    return psi


def lifted_eigenstate_1d(params: OscillatorParams, qn: QuantumNumbers1D, y, tau: float):
    """Closed-form free-particle solution obtained by lifting the 1D level n.

    One exp of the norm (with (m omega)^{1/4}), stretch and dressing in xi and theta, times H_n
    in place; agrees with lift_wavefunction applied to eigenstate_1d to machine precision.

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
    mw, theta = params.mass * params.omega, params.omega * tau
    xi = math.sqrt(mw) * np.asarray(y, dtype=float)
    s2 = _stretch_sq(theta)
    # the recurrence runs before any complex temporary exists, and the product is taken in
    # place in the operand order exp(...) * H_n (complex products round by operand order)
    h, e = hermite_scaled(qn.n, math.sqrt(1.0 / s2) * xi)[::2]
    xi_sq = xi * xi
    del xi  # so that the complex temporaries below find one real buffer fewer
    out = np.exp(
        _log_norm_1d(mw, qn.n) + e * math.log(2.0) - 0.25 * math.log(s2) - 0.5 * xi_sq / s2
        + 1j * _dressing_phase(theta, xi_sq, qn.level)
    )
    out *= h
    if np.ndim(y) == 0:
        return complex(out)
    return out


def _product(a, b, out, tmp):
    """out = a b for complex values held as (re, im) pairs of real arrays; returns out.

    One real ufunc per product or sum: a real product or sum rounds the same in every numpy
    loop, where a complex product fuses one of its products (FMA) in the AVX2 and AVX-512
    loops only.  So the bits are the same at every SIMD dispatch level, and on broadcast
    operands as on full ones.  out may be a; tmp is two real buffers shaped like out.
    """
    (ar, ai), (br, bi), (re, im), (t, u) = a, b, out, tmp
    np.multiply(ai, bi, out=t)
    np.multiply(ar, bi, out=u)
    np.multiply(ar, br, out=re)
    np.subtract(re, t, out=re)
    np.multiply(ai, br, out=im)
    np.add(im, u, out=im)
    return out


def _axis_factor(theta: float, xi_sq, level: float, scale: float):
    """scale exp(a xi_sq - i E' atan theta), a = (-1 + i theta) / (2 s^2), as an (re, im) pair.

    The 2D lift's Gaussian and dressing phase are exp(a |xi|^2 - i E' atan theta), a product
    of one such factor per axis.  The complex exp is numpy's scalar loop, with the same bits
    at every SIMD dispatch level; the rest is real arithmetic.
    """
    arg = np.empty(np.shape(xi_sq), dtype=complex)
    np.multiply(xi_sq, -0.5 / _stretch_sq(theta), out=arg.real)
    arg.imag = _dressing_phase(theta, xi_sq, level)
    np.exp(arg, out=arg)
    return np.multiply(arg.real, scale, out=arg.real), np.multiply(arg.imag, scale, out=arg.imag)


def lifted_eigenstate_2d(params: OscillatorParams, qn: QuantumNumbers2D, y1, y2, tau: float):
    """Closed-form lift of the 2D level (n_radial, l), for every n_radial >= 0.

    In xi = sqrt(m omega) y and theta = omega tau: (xi1 + i sgn(l) xi2)^{|l|} carries
    r^{|l|} exp(i l phi) without an angle, kummer_truncated the radial excitation, and the
    Gaussian and dressing phase, functions of |xi|^2 alone, split into one factor per axis:
    g1 = C exp(a xi1^2 - i E' atan theta), with the m omega = 1 norm constant, (m omega)^{1/2}
    and s^{-(|l|+1)} in C, and g2 = exp(a xi2^2).  On sparse coordinates (analysis._slabs)
    that is one complex exp per axis node, not per point.
    Every product is real arithmetic (_product), so sparse and full coordinates give the
    same bits, at every SIMD dispatch level.  Agrees with lift_wavefunction applied to
    eigenstate_2d to machine precision.

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
    mw, theta = params.mass * params.omega, params.omega * tau
    xi1, xi2 = (math.sqrt(mw) * np.asarray(c, dtype=float) for c in (y1, y2))
    labs = abs(qn.l)
    s2 = _stretch_sq(theta)
    sq1, sq2 = xi1 * xi1, xi2 * xi2
    # the recurrence runs before any other full-size buffer exists, on the one full r^2
    if qn.n_radial:
        kummer = kummer_truncated(qn.n_radial, labs + 1.0, (sq1 + sq2) / s2)
    scale = norm_constant_2d(_UNIT, qn) * math.sqrt(mw) * s2 ** (-0.5 * (labs + 1))
    g1 = _axis_factor(theta, sq1, qn.level, scale)
    g2 = _axis_factor(theta, sq2, 0.0, 1.0)
    shape = np.broadcast_shapes(xi1.shape, xi2.shape)
    buf, tmp = (np.empty(shape), np.empty(shape)), (np.empty(shape), np.empty(shape))
    # ((y1 + i sgn(l) y2)^|l| g1) kummer g2, left to right.  The power comes first, so that
    # where it overflows the lift fails, as one power did, rather than g1's small norm
    # constant first taking the product to a finite 0
    factors = [(xi1, math.copysign(1.0, qn.l) * xi2)] * labs + [g1]
    chi = factors[0]
    for factor in factors[1:]:
        chi = _product(chi, factor, buf, tmp)
    if qn.n_radial:
        chi = tuple(np.multiply(c, kummer, out=b) for c, b in zip(chi, buf))
    chi = _product(chi, g2, buf, tmp)
    del tmp
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = chi
    if np.ndim(y1) == 0 and np.ndim(y2) == 0:
        return complex(out)
    return out
