"""Classical trajectory family, envelope/caustic, and the action identity.

A 1D oscillator level with energy E corresponds to the family of
trajectories x(t, alpha) = A cos(omega t + alpha), A = sqrt(2E/(m omega^2)),
parametrized by the phase angle alpha.  Under the oscillator-to-free map
these become straight lines y(tau, alpha) = A (cos alpha - omega tau sin alpha)
whose envelope is the hyperbola +- A sqrt(1 + theta^2), theta = omega tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTangencyError
from .oscillator import OscillatorParams, QuantumNumbers1D, energy
from .transform import _stretch_sq, osc_to_free_space, osc_to_free_time

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
        """Oscillation amplitude sqrt(2E / (m omega^2)): sqrt(2E / omega) in xi, / sqrt(m omega)."""
        omega = self.params.omega
        return math.sqrt(2.0 * self.energy) / math.sqrt(omega) / math.sqrt(self.params.mass * omega)

    @classmethod
    def from_level(cls, params: OscillatorParams, n: int) -> "TrajectoryFamily":
        """Family at the energy of quantum level n."""
        return cls(energy=energy(params, QuantumNumbers1D(n)), params=params)


def canonical_phase(alpha: float) -> float:
    """Reduce a phase angle to [0, 2 pi)."""
    return alpha % _TWO_PI


def oscillator_trajectory(fam: TrajectoryFamily, alpha: float, t):
    """Oscillator-side trajectory x(t, alpha) = A cos(omega t + alpha)."""
    return fam.amplitude * np.cos(fam.params.omega * np.asarray(t, dtype=float) + alpha)


def free_trajectory(fam: TrajectoryFamily, alpha: float, tau):
    """Free-side trajectory y(tau, alpha) = A (cos alpha - theta sin alpha), theta = omega tau."""
    theta = fam.params.omega * np.asarray(tau, dtype=float)
    return fam.amplitude * (math.cos(alpha) - theta * math.sin(alpha))


def envelope(fam: TrajectoryFamily, tau):
    """Both envelope branches +- A sqrt(1 + theta^2) at free time tau, theta = omega tau."""
    mag = fam.amplitude * np.sqrt(_stretch_sq(fam.params.omega * np.asarray(tau, dtype=float)))
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

    lhs is the action of the oscillator Lagrangian (m/2) xdot^2 - (m omega^2 / 2) x^2
    along the trajectory from t1 to t2.  rhs is the action of the free kinetic
    term (m/2) (dy/dtau)^2 over the mapped interval minus the boundary term
    [(m omega / 4) sin(2 omega t) y^2] at the endpoints, with y the mapped
    trajectory.  Both actions come from exact antiderivatives:
    -(m A^2 omega / 4) sin 2(omega t + alpha), and (m/2) (dy/dtau)^2 tau with
    dy/dtau constant along the straight line.

    Returns (lhs, rhs, |lhs - rhs|); raises HalfPeriodError if either
    endpoint leaves the half-period window.
    """
    tau1 = osc_to_free_time(fam.params, t1)
    tau2 = osc_to_free_time(fam.params, t2)
    omega = fam.params.omega
    m = fam.params.mass
    a = fam.amplitude
    phase1 = 2.0 * (omega * t1 + alpha)
    phase2 = 2.0 * (omega * t2 + alpha)
    lhs = -0.25 * m * a * a * omega * (math.sin(phase2) - math.sin(phase1))

    dy_dtau = -a * omega * math.sin(alpha)
    kinetic = 0.5 * m * dy_dtau**2 * (tau2 - tau1)

    def boundary(t: float) -> float:
        y = osc_to_free_space(fam.params, t, oscillator_trajectory(fam, alpha, t))
        return float(0.25 * m * omega * math.sin(2.0 * omega * t) * y * y)

    rhs = kinetic - (boundary(t2) - boundary(t1))
    return ActionIdentity(lhs, rhs, abs(lhs - rhs))
