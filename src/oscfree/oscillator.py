"""Harmonic-oscillator stationary states in natural units (hbar = 1).

1D eigenfunctions, 2D joint energy/angular-momentum eigenfunctions in polar coordinates,
their energies and probability densities.  Normalization constants are handled in log
space: 2**n * n! overflows a double near n = 170, while log(norm) stays tame.  A state is
evaluated at m = omega = 1, in xi = sqrt(m omega) x and theta = omega t, times (m omega)^{d/4}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .specfun import hermite_scaled, kummer_truncated


@dataclass(frozen=True)
class OscillatorParams:
    """Mass and angular frequency of the oscillator, both positive and finite.

    mass * omega must be a normal finite double too: the evaluators scale by sqrt(m omega)
    and (m omega)^{d/4}, and otherwise run at m = omega = 1 in xi and theta = omega tau.
    """

    mass: float
    omega: float

    def __post_init__(self) -> None:
        # written so that nan fails too
        if not 0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        mw = self.mass * self.omega
        if not sys.float_info.min <= mw < math.inf:
            raise ValueError(f"mass * omega must be a normal finite double, got {mw!r}")


_UNIT = OscillatorParams(1.0, 1.0)  # m = omega = 1, where xi = x and theta = omega t = t


# largest 1D level, where cost grows as n^2: at 10^4, level_extrema took 0.5 s (2.0 s at 2 10^4)
# and peaks 0.5 s in-process for its exact rows, where measuring them on a 400001-node grid
# took 6.4 s a tau, on a 2-vCPU Xeon; the lifted unit norm held within 4e-12
MAX_LEVEL_1D = 10_000


@dataclass(frozen=True)
class QuantumNumbers1D:
    """Principal quantum number of a 1D level, 0 .. MAX_LEVEL_1D."""

    n: int
    dims: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        if self.n > MAX_LEVEL_1D:
            raise ValueError(f"n must be at most {MAX_LEVEL_1D}, got {self.n}")

    @property
    def level(self) -> float:
        """Reduced energy E' = E / omega = n + 1/2."""
        return self.n + 0.5


# largest 2D level 2 n_radial + |l|: kummer_truncated and the angular power take O(n_radial) and
# O(|l|) numpy calls; one tau of gen2d on 101^2 points took 0.42 s at n_radial 5000 and 0.73 s
# at |l| 10^4 (2-vCPU Xeon)
MAX_LEVEL_2D = 10_000


@dataclass(frozen=True)
class QuantumNumbers2D:
    """Radial quantum number and signed angular momentum of a 2D level, 2 n_radial + |l| capped."""

    n_radial: int
    l: int
    dims: ClassVar[int] = 2

    def __post_init__(self) -> None:
        if self.n_radial < 0:
            raise ValueError(f"n_radial must be nonnegative, got {self.n_radial}")
        degree = self.level - 1
        if degree > MAX_LEVEL_2D:
            raise ValueError(f"2 n_radial + |l| must be at most {MAX_LEVEL_2D}, got {degree}")

    @property
    def level(self) -> int:
        """Reduced energy E' = E / omega = 2 n_radial + |l| + 1: the exponent that makes the 2D
        polar eigenfunction solve the time-dependent oscillator equation; residual tests pin it."""
        return 2 * self.n_radial + abs(self.l) + 1


def energy(params: OscillatorParams, qn: QuantumNumbers1D | QuantumNumbers2D) -> float:
    """Level energy omega E', E' the level's reduced energy (qn.level)."""
    return params.omega * qn.level


def _log_norm_1d(mw: float, n: int) -> float:
    return 0.25 * math.log(mw / math.pi) - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0))


def _amplitude_1d(params: OscillatorParams, qn: QuantumNumbers1D, x):
    """psi_n(x, 0) as exp(log norm - xi^2 / 2 + e ln 2) h, xi = sqrt(m omega) x, H_n(xi) = h 2^e.

    H_n gives its exponent to the exp, so neither factor overflows.
    """
    mw = params.mass * params.omega
    xi = math.sqrt(mw) * np.asarray(x, dtype=float)
    poly, e = hermite_scaled(qn.n, xi)[::2]
    return np.exp(_log_norm_1d(mw, qn.n) + e * math.log(2.0) - 0.5 * xi * xi) * poly


def eigenstate_1d(params: OscillatorParams, qn: QuantumNumbers1D, x, t: float):
    """Normalized 1D eigenfunction psi_n(x, t).

    psi_n = (2^n n!)^{-1/2} (m omega / pi)^{1/4}
            exp(-i omega (n + 1/2) t) exp(-m omega x^2 / 2)
            H_n(sqrt(m omega) x)

    Parameters
    ----------
    params : OscillatorParams
    qn : QuantumNumbers1D
    x : float or ndarray
        Position(s).
    t : float
        Time.

    Returns
    -------
    complex or ndarray
        psi_n(x, t), scalar in / scalar out.
    """
    out = _amplitude_1d(params, qn, x) * np.exp(-1j * qn.level * (params.omega * t))
    return complex(out) if np.ndim(x) == 0 else out


def density_1d(params: OscillatorParams, qn: QuantumNumbers1D, x):
    """Stationary probability density |psi_n(x)|^2 (time drops out): the squared amplitude."""
    amp = _amplitude_1d(params, qn, x)
    out = amp * amp
    return float(out) if np.ndim(x) == 0 else out


def eigenstate_2d(params: OscillatorParams, qn: QuantumNumbers2D, r, phi, t: float):
    """Normalized 2D polar eigenfunction psi_{n,l}(r, phi, t).

    The radial profile is exp(-rho^2 / 2) rho^{|l|} F(-n, |l| + 1, rho^2),
    rho = sqrt(m omega) r, with F the terminating Kummer function, times
    (m omega)^{1/2}; the angular factor exp(i l phi) makes the state a joint
    eigenfunction of energy and angular momentum, and the time factor carries
    the full 2D level energy omega (2n + |l| + 1).

    Parameters
    ----------
    params : OscillatorParams
    qn : QuantumNumbers2D
    r : float or ndarray
        Radius, r >= 0.
    phi : float or ndarray
        Polar angle.
    t : float
        Time.

    Returns
    -------
    complex or ndarray
        psi_{n,l}(r, phi, t), scalar in / scalar out.
    """
    ra = np.asarray(r, dtype=float)
    if np.any(ra < 0):
        raise ValueError("radius must be nonnegative")
    pa = np.asarray(phi, dtype=float)
    mw = params.mass * params.omega
    labs = abs(qn.l)
    rho = math.sqrt(mw) * ra
    radial = (
        np.exp(-0.5 * rho * rho)
        * rho**labs
        * kummer_truncated(qn.n_radial, labs + 1.0, rho * rho)
    )
    out = (
        norm_constant_2d(_UNIT, qn) * math.sqrt(mw)
        * radial
        * np.exp(1j * (qn.l * pa - qn.level * (params.omega * t)))
    )
    if np.ndim(r) == 0 and np.ndim(phi) == 0:
        return complex(out)
    return out


def norm_constant_2d(params: OscillatorParams, qn: QuantumNumbers2D) -> float:
    """Normalization constant giving the 2D state unit L2 norm.

    Closed form sqrt((m omega)^{|l|+1} (n+|l|)! / (pi n! |l|!^2)) from the
    Laguerre orthogonality integral, evaluated with lgamma so that large
    levels do not overflow.
    """
    n, labs = qn.n_radial, abs(qn.l)
    log_sq = (
        (labs + 1) * math.log(params.mass * params.omega)
        + math.lgamma(n + labs + 1.0)
        - math.lgamma(n + 1.0)
        - 2.0 * math.lgamma(labs + 1.0)
        - math.log(math.pi)
    )
    return math.exp(0.5 * log_sq)
