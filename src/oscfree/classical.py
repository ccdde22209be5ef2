"""Classical trajectory family, envelope/caustic, and the action identity.

A 1D oscillator level with energy E corresponds to the family of
trajectories x(t, alpha) = A cos(omega t + alpha), A = sqrt(2E/(m omega^2)),
parametrized by the phase angle alpha.  Under the oscillator-to-free map
these become straight lines y(tau, alpha) = A (cos alpha - omega tau sin alpha)
whose envelope is the hyperbola +- A sqrt(1 + omega^2 tau^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._quadrature import gauss_panels
from .errors import DegenerateTangencyError, HalfPeriodError
from .oscillator import OscillatorParams, QuantumNumbers1D, energy_1d

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrajectoryFamily:
    """Classical trajectory family at fixed finite energy E > 0."""

    energy: float
    params: OscillatorParams

    def __post_init__(self) -> None:
        # written so that nan fails too
        if not 0 < self.energy < math.inf:
            raise ValueError(f"energy must be positive and finite, got {self.energy}")

    @property
    def amplitude(self) -> float:
        """Oscillation amplitude sqrt(2E / (m omega^2))."""
        return math.sqrt(2.0 * self.energy / (self.params.mass * self.params.omega**2))

    @classmethod
    def from_level(cls, params: OscillatorParams, n: int) -> "TrajectoryFamily":
        """Family at the energy of quantum level n."""
        return cls(energy=energy_1d(params, QuantumNumbers1D(n)), params=params)


def canonical_phase(alpha: float) -> float:
    """Reduce a phase angle to [0, 2 pi)."""
    return alpha % _TWO_PI


def oscillator_trajectory(fam: TrajectoryFamily, alpha: float, t):
    """Oscillator-side trajectory x(t, alpha) = A cos(omega t + alpha)."""
    return fam.amplitude * np.cos(fam.params.omega * np.asarray(t, dtype=float) + alpha)


def free_trajectory(fam: TrajectoryFamily, alpha: float, tau):
    """Free-side trajectory y(tau, alpha) = A (cos alpha - omega tau sin alpha)."""
    ta = np.asarray(tau, dtype=float)
    return fam.amplitude * (math.cos(alpha) - fam.params.omega * ta * math.sin(alpha))


def envelope(fam: TrajectoryFamily, tau):
    """Both envelope branches +- A sqrt(1 + omega^2 tau^2) at free time tau."""
    ta = np.asarray(tau, dtype=float)
    # float_power rounds like the scalar ``**`` (libm pow), where an array
    # ``** 2`` squares; so an array call gives each value's scalar-call bits
    mag = fam.amplitude * np.sqrt(1.0 + np.float_power(fam.params.omega * ta, 2))
    if np.ndim(tau) == 0:
        return float(mag), float(-mag)
    return mag, -mag


def turning_points(fam: TrajectoryFamily) -> tuple[float, float]:
    """Classical turning points (+A, -A) bounding the allowed region."""
    a = fam.amplitude
    return a, -a


class TangencyPoint(NamedTuple):
    tau_star: float
    y_star: float


def tangency(fam: TrajectoryFamily, alpha: float) -> TangencyPoint:
    """Point where the trajectory at phase alpha touches its envelope.

    Stationarity of y(tau, alpha) in alpha gives omega tau* = -tan(alpha)
    and the touch point y* = A / cos(alpha); the branch touched is the one
    with the sign of cos(alpha).  For cos(alpha) = 0 the trajectory is a
    line through the origin that approaches the envelope only as
    |tau| -> infinity, reported as DegenerateTangencyError.
    """
    a = canonical_phase(alpha)
    c = math.cos(a)
    if abs(c) < 1e-12:
        raise DegenerateTangencyError(
            f"trajectory at alpha = {alpha} touches the envelope only asymptotically"
        )
    tau_star = -math.tan(a) / fam.params.omega
    y_star = fam.amplitude / c
    return TangencyPoint(tau_star, y_star)


class ActionIdentity(NamedTuple):
    lhs: float
    rhs: float
    defect: float


def action_boundary_identity(
    fam: TrajectoryFamily, alpha: float, t1: float, t2: float
) -> ActionIdentity:
    """Check that the Lagrangians on the two sides differ by a boundary term.

    lhs integrates the oscillator Lagrangian (m/2) xdot^2 - (m omega^2 / 2) x^2
    along the trajectory from t1 to t2.  rhs integrates the free kinetic
    term (m/2) (dy/dtau)^2 over the mapped interval and subtracts the
    boundary term [(m omega / 4) sin(2 omega t) y^2] evaluated at the
    endpoints, with y the mapped trajectory.  Both integrals use
    panel-doubling quadrature stabilized to 1e-10.

    Returns (lhs, rhs, |lhs - rhs|); raises HalfPeriodError if either
    endpoint leaves the half-period window and QuadratureError if a
    quadrature fails to stabilize.
    """
    omega = fam.params.omega
    m = fam.params.mass
    for t in (t1, t2):
        if not abs(omega * t) < 0.5 * math.pi:
            raise HalfPeriodError(f"|omega*t| = {abs(omega * t)} leaves the half-period window")
    a = fam.amplitude

    def lagrangian(t):
        x = a * np.cos(omega * t + alpha)
        xdot = -a * omega * np.sin(omega * t + alpha)
        return 0.5 * m * xdot**2 - 0.5 * m * omega**2 * x**2

    lhs = gauss_panels(lagrangian, t1, t2, rtol=1e-10)

    tau1 = math.tan(omega * t1) / omega
    tau2 = math.tan(omega * t2) / omega
    dy_dtau = -a * omega * math.sin(alpha)
    kinetic = gauss_panels(
        lambda tau: 0.5 * m * dy_dtau**2 * np.ones_like(tau), tau1, tau2, rtol=1e-10
    )

    def boundary(t: float) -> float:
        y = a * math.cos(omega * t + alpha) / math.cos(omega * t)
        return 0.25 * m * omega * math.sin(2.0 * omega * t) * y * y

    rhs = kinetic - (boundary(t2) - boundary(t1))
    return ActionIdentity(lhs, rhs, abs(lhs - rhs))
