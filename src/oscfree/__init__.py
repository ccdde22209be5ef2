"""Accelerating free-particle wave packets from harmonic-oscillator states.

Closed-form oscillator eigenstates, their lift to non-separable solutions
of the free Schroedinger equation, the matching classical trajectory
family with its hyperbolic envelope, and the numerical machinery that
verifies every analytic property (PDE residuals, density scaling, peak
trajectories, action identity).
"""

from .analysis import (
    ComplexField,
    Grid,
    Grid1D,
    PeakLawReport,
    PeakRecord,
    ResidualReport,
    auto_grid,
    auto_grid_2d,
    convergence_order,
    coordinates,
    density_scaling_check,
    expectation_position,
    find_density_maxima,
    level_extrema,
    norm,
    peak_trajectory_check,
    residual,
    residual_study,
    sample_field,
    semiclassical_gap,
    spectral_propagate_free,
)
from .classical import (
    ActionIdentity,
    TangencyPoint,
    TrajectoryFamily,
    action_boundary_identity,
    canonical_phase,
    envelope,
    free_trajectory,
    oscillator_trajectory,
    tangency,
    turning_points,
)
from .errors import (
    BoundaryDecayError,
    DegenerateTangencyError,
    HalfPeriodError,
    NonFiniteError,
    NormalizationError,
    OscfreeError,
    PeakDetectionError,
)
from .oscillator import (
    OscillatorParams,
    QuantumNumbers1D,
    QuantumNumbers2D,
    density_1d,
    eigenstate_1d,
    eigenstate_2d,
    energy,
    norm_constant_2d,
)
from .specfun import hermite, kummer_truncated
from .transform import (
    free_to_osc_space,
    free_to_osc_time,
    lift_wavefunction,
    lifted_eigenstate_1d,
    lifted_eigenstate_2d,
    osc_to_free_space,
    osc_to_free_time,
    pull_back_wavefunction,
)

__version__ = "0.1.0"
