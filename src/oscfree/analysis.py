"""Verification machinery: grids, PDE residuals, spectral oracle, norms, peaks.

Everything here consumes closed-form evaluators (no time stepping).  Grids
are tensor products of Grid1D axes, and fields, norms and residuals work on
any number of axes: a solution is called as solution(*coords, t).  Residual
time derivatives are central differences at t +- dt, with dt tied to the
grid spacing so one parameter drives the convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .classical import TrajectoryFamily
from .errors import BoundaryDecayError, NonFiniteError, NormalizationError, PeakDetectionError
from .oscillator import OscillatorParams, QuantumNumbers1D, QuantumNumbers2D, density_1d
from .transform import lifted_eigenstate_1d

# ---------------------------------------------------------------------------
# grids and sampled fields


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid with count nodes spanning [y_min, y_max]."""

    y_min: float
    y_max: float
    count: int

    def __post_init__(self) -> None:
        if not -math.inf < self.y_min < self.y_max < math.inf:
            raise ValueError(f"need finite y_min < y_max, got [{self.y_min}, {self.y_max}]")
        if self.count < 3:
            raise ValueError(f"need at least 3 nodes, got {self.count}")

    @property
    def axes(self) -> tuple[Grid1D]:
        return (self,)

    @property
    def spacing(self) -> float:
        return (self.y_max - self.y_min) / (self.count - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.count)

    def refined(self, factor: int) -> Grid1D:
        """Same span with the spacing divided by factor."""
        return Grid1D(self.y_min, self.y_max, (self.count - 1) * factor + 1)


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product grid from two 1D axes."""

    axis1: Grid1D
    axis2: Grid1D

    @property
    def axes(self) -> tuple[Grid1D, Grid1D]:
        return (self.axis1, self.axis2)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.axis1.nodes, self.axis2.nodes, indexing="ij")

    def refined(self, factor: int) -> Grid2D:
        return Grid2D(self.axis1.refined(factor), self.axis2.refined(factor))


Grid = Grid1D | Grid2D


def _coords(grid: Grid) -> tuple[np.ndarray, ...]:
    """One coordinate array per axis, each shaped like the grid."""
    return tuple(np.meshgrid(*(axis.nodes for axis in grid.axes), indexing="ij"))


@dataclass(frozen=True)
class ComplexField:
    """Complex wavefunction values sampled on a grid at one time."""

    grid: Grid
    values: np.ndarray
    time_label: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        shape = tuple(axis.count for axis in self.grid.axes)
        if v.shape != shape:
            raise ValueError(f"values shape {v.shape} does not match grid shape {shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def density(self) -> np.ndarray:
        return self.values.real**2 + self.values.imag**2


def sample_field(solution, grid: Grid, time: float) -> ComplexField:
    """Evaluate a closed-form solution(*coords, time) on the grid."""
    return ComplexField(grid, solution(*_coords(grid), time), time)


def auto_grid(params: OscillatorParams, n: int, tau: float, count: int) -> Grid1D:
    """Symmetric grid wide enough for level n at free time tau.

    Half-width is (turning point + 10 natural lengths), stretched by
    sqrt(1 + omega^2 tau^2) so the spreading state never pushes mass off
    the grid.
    """
    fam = TrajectoryFamily.from_level(params, n)
    stretch = math.sqrt(1.0 + (params.omega * tau) ** 2)
    half = (fam.amplitude + 10.0 / math.sqrt(params.mass * params.omega)) * stretch
    return Grid1D(-half, half, count)


def auto_grid_2d(params: OscillatorParams, qn: QuantumNumbers2D, tau: float, count: int) -> Grid2D:
    """Square 2D analogue of auto_grid for the level (n_radial, l)."""
    mw = params.mass * params.omega
    r_turn = math.sqrt(2.0 * (2 * qn.n_radial + abs(qn.l) + 1) / mw)
    stretch = math.sqrt(1.0 + (params.omega * tau) ** 2)
    half = (r_turn + 10.0 / math.sqrt(mw)) * stretch
    axis = Grid1D(-half, half, count)
    return Grid2D(axis, axis)


# ---------------------------------------------------------------------------
# residuals and convergence


def residual(
    solution, grid: Grid, time: float, mass: float, dt: float, omega: float | None = None
) -> tuple[float, float]:
    """Stencil residual of i d_t psi + (1/2m) lap psi - (m omega^2/2) |x|^2 psi = 0.

    omega=None drops the potential (free equation).  Central differences in t
    (t +- dt) and along each axis, at interior nodes only; the samples pass the
    checks of a ComplexField.  Returns (max norm, discrete L2 norm).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    coords = _coords(grid)
    times = (time, time + dt, time - dt)
    psi0, psip, psim = (ComplexField(grid, solution(*coords, t), t).values for t in times)
    inner = (slice(1, -1),) * len(coords)
    lap = 0.0
    for k, axis in enumerate(grid.axes):
        up = inner[:k] + (slice(2, None),) + inner[k + 1 :]
        down = inner[:k] + (slice(None, -2),) + inner[k + 1 :]
        lap = lap + (psi0[up] - 2.0 * psi0[inner] + psi0[down]) / axis.spacing**2
    resid = 1j * (psip[inner] - psim[inner]) / (2.0 * dt) + lap / (2.0 * mass)
    if omega is not None:
        r_sq = sum(c[inner] ** 2 for c in coords)
        resid = resid - 0.5 * mass * omega**2 * r_sq * psi0[inner]
    mags = np.abs(resid)
    cell = math.prod(axis.spacing for axis in grid.axes)
    return float(mags.max()), float(math.sqrt(cell * float(np.sum(mags**2))))


def convergence_order(residual_pairs) -> float:
    """Least-squares slope of log(residual) against log(spacing).

    Needs at least two (h, residual) pairs with h strictly decreasing and
    residuals positive.
    """
    pairs = list(residual_pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two (spacing, residual) pairs")
    h = np.array([p[0] for p in pairs], dtype=float)
    r = np.array([p[1] for p in pairs], dtype=float)
    if not np.all(np.diff(h) < 0):
        raise ValueError("spacings must be strictly decreasing")
    if not np.all(r > 0):
        raise ValueError("residuals must be positive to fit a log-log slope")
    slope, _ = np.polyfit(np.log(h), np.log(r), 1)
    return float(slope)


@dataclass(frozen=True)
class ResidualReport:
    """Residuals over a sequence of grid refinements plus the fitted order."""

    spacings: list[float]
    linf_residuals: list[float]
    l2_residuals: list[float]
    fitted_order: float

    def __post_init__(self) -> None:
        k = len(self.spacings)
        if k < 2 or len(self.linf_residuals) != k or len(self.l2_residuals) != k:
            raise ValueError("need equally long residual lists with at least two entries")
        if not all(a > b for a, b in zip(self.spacings, self.spacings[1:])):
            raise ValueError("spacings must be strictly decreasing")

    def to_dict(self) -> dict:
        return {
            "spacings": list(self.spacings),
            "linf": list(self.linf_residuals),
            "l2": list(self.l2_residuals),
            "fitted_order": self.fitted_order,
        }


def residual_study(
    solution, grid: Grid, time: float, mass: float, refinements: int = 4, omega: float | None = None
) -> ResidualReport:
    """Residuals over successive spacing halvings, with dt = the smallest axis spacing."""
    grids = [grid.refined(2**k) for k in range(refinements)]
    spacings = [min(axis.spacing for axis in g.axes) for g in grids]
    norms = [residual(solution, g, time, mass, h, omega) for g, h in zip(grids, spacings)]
    linfs, l2s = map(list, zip(*norms))
    return ResidualReport(spacings, linfs, l2s, convergence_order(zip(spacings, l2s)))


# ---------------------------------------------------------------------------
# spectral oracle, norms, expectations

_BOUNDARY_DECAY = 1e-10


def spectral_propagate_free(initial: ComplexField, tau: float, m: float) -> ComplexField:
    """Exact free evolution of the sampled field, mode by mode.

    Treats the grid as periodic: each discrete Fourier mode k picks up
    exp(-i k^2 tau / (2m)).  The initial data must be negligible at the
    grid edges (magnitude below 1e-10 of the peak), otherwise the
    periodization is meaningless and BoundaryDecayError is raised.
    """
    v = initial.values
    vmax = float(np.abs(v).max())
    if vmax > 0.0:
        edge = max(abs(v[0]), abs(v[-1]))
        if edge > _BOUNDARY_DECAY * vmax:
            raise BoundaryDecayError(
                f"boundary magnitude {edge:.3e} exceeds {_BOUNDARY_DECAY:.0e} of peak {vmax:.3e}"
            )
    k = 2.0 * math.pi * np.fft.fftfreq(initial.grid.count, d=initial.grid.spacing)
    evolved = np.fft.ifft(np.fft.fft(v) * np.exp(-0.5j * k**2 * tau / m))
    return ComplexField(initial.grid, evolved, initial.time_label + tau)


def norm(field: ComplexField) -> float:
    """Squared-modulus integral by composite Simpson rule, iterated over the axes."""
    total = field.density()
    for axis in reversed(field.grid.axes):
        total = simpson(total, x=axis.nodes)
    return float(total)


sample_field_1d = sample_field  # one-axis alias
norm_1d = norm  # one-axis alias


def expectation_position(field: ComplexField) -> float:
    """Position expectation of a unit-norm field (norm checked to 1e-6)."""
    total = norm(field)
    if abs(total - 1.0) > 1e-6:
        raise NormalizationError(f"field norm {total} is not 1 within 1e-6")
    return float(simpson(field.grid.nodes * field.density(), x=field.grid.nodes))


# ---------------------------------------------------------------------------
# density laws: scaling, peaks, widths


def density_scaling_check(params: OscillatorParams, n: int, tau: float, grid: Grid1D) -> float:
    """Max pointwise gap between the lifted density and the rescaled stationary one.

    The lifted state's density must equal
    (1 + omega^2 tau^2)^{-1/2} rho_n(y (1 + omega^2 tau^2)^{-1/2})
    identically; both sides are evaluated in closed form.
    """
    qn = QuantumNumbers1D(n)
    lhs = sample_field(lambda y, t: lifted_eigenstate_1d(params, qn, y, t), grid, tau).density()
    s = math.sqrt(1.0 + (params.omega * tau) ** 2)
    rhs = density_1d(params, qn, grid.nodes / s) / s
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class PeakRecord:
    """Refined density-maximum positions and heights at one free time."""

    tau: float
    positions: list[float]
    heights: list[float]

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.heights):
            raise ValueError("positions and heights must pair up")
        if not all(a < b for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")
        if not all(h > 0 for h in self.heights):
            raise ValueError("heights must be positive")


_PEAK_HEIGHT_FLOOR = 1e-12  # relative to the tallest peak, suppresses tail noise


def find_density_maxima(field: ComplexField) -> PeakRecord:
    """Locate strict interior local maxima of the sampled density.

    Each maximum is refined by the vertex of the parabola through the
    three surrounding nodes.  Maxima closer than three grid spacings are
    reported as PeakDetectionError (the grid is too coarse to trust), as
    is a field with no maxima at all.
    """
    d = field.density()
    dmax = float(d.max())
    if dmax == 0.0:
        raise PeakDetectionError("flat zero field has no maxima")
    floor = _PEAK_HEIGHT_FLOOR * dmax
    idx = np.nonzero((d[1:-1] > d[:-2]) & (d[1:-1] > d[2:]) & (d[1:-1] > floor))[0] + 1
    if idx.size == 0:
        raise PeakDetectionError("no interior density maxima found")
    h = field.grid.spacing
    y = field.grid.nodes
    positions: list[float] = []
    heights: list[float] = []
    for j in idx:
        denom = d[j + 1] - 2.0 * d[j] + d[j - 1]
        offset = 0.5 * h * (d[j - 1] - d[j + 1]) / denom
        positions.append(float(y[j] + offset))
        heights.append(float(d[j] - (d[j + 1] - d[j - 1]) ** 2 / (8.0 * denom)))
    for a, b in zip(positions, positions[1:]):
        if b - a < 3.0 * h:
            raise PeakDetectionError(
                f"maxima at {a} and {b} are closer than 3 grid spacings ({3 * h})"
            )
    return PeakRecord(field.time_label, positions, heights)


def peak_widths(field: ComplexField, record: PeakRecord) -> list[float]:
    """Full width at half maximum of each recorded peak.

    Half-maximum crossings are found by linear interpolation on the
    sampled density; a crossing that runs off the grid or into the
    neighbouring peak is a detection failure.
    """
    d = field.density()
    y = field.grid.nodes
    h = field.grid.spacing
    widths: list[float] = []
    node_idx = [int(round((p - field.grid.y_min) / h)) for p in record.positions]
    for k, (j, height) in enumerate(zip(node_idx, record.heights)):
        half = 0.5 * height
        lo_limit = node_idx[k - 1] if k > 0 else 0
        hi_limit = node_idx[k + 1] if k + 1 < len(node_idx) else len(d) - 1
        i = j
        while i > lo_limit and d[i] >= half:
            i -= 1
        if d[i] >= half:
            raise PeakDetectionError(f"no left half-maximum crossing for peak at {record.positions[k]}")
        left = y[i] + h * (half - d[i]) / (d[i + 1] - d[i])
        i = j
        while i < hi_limit and d[i] >= half:
            i += 1
        if d[i] >= half:
            raise PeakDetectionError(f"no right half-maximum crossing for peak at {record.positions[k]}")
        right = y[i - 1] + h * (half - d[i - 1]) / (d[i] - d[i - 1])
        widths.append(float(right - left))
    return widths


@dataclass(frozen=True)
class PeakLawReport:
    """Outcome of checking the hyperbolic peak-motion and broadening laws."""

    peak_count: int
    max_position_rel_error: float
    max_fwhm_rel_error: float
    records: list[PeakRecord] = field(repr=False, default_factory=list)


def peak_trajectory_check(
    params: OscillatorParams, n: int, taus, count: int = 32001
) -> PeakLawReport:
    """Verify that lifted-density peaks ride the stretched baseline positions.

    Peaks are detected at every tau in taus (which must contain 0, the
    baseline); each position is compared against the tau = 0 position
    scaled by sqrt(1 + omega^2 tau^2), and each full width at half
    maximum against the same stretch of the baseline width.  Position
    errors are relative to the scaled position, floored at one stretched
    natural length so the central peak of even states (sitting at the
    origin) stays well defined.
    """
    tau_list = [float(t) for t in taus]
    if not tau_list:
        raise ValueError("need at least one tau")
    if 0.0 not in tau_list:
        raise ValueError("taus must include 0 (the baseline)")
    qn = QuantumNumbers1D(n)
    natural = 1.0 / math.sqrt(params.mass * params.omega)

    def detect(tau: float) -> tuple[PeakRecord, list[float]]:
        grid = auto_grid(params, n, tau, count)
        fld = sample_field(lambda y, s: lifted_eigenstate_1d(params, qn, y, s), grid, tau)
        rec = find_density_maxima(fld)
        return rec, peak_widths(fld, rec)

    base_rec, base_widths = detect(0.0)
    records = [base_rec]
    pos_err = 0.0
    width_err = 0.0
    for tau in tau_list:
        if tau == 0.0:
            continue
        rec, widths = detect(tau)
        records.append(rec)
        if len(rec.positions) != len(base_rec.positions):
            raise PeakDetectionError(
                f"peak count changed from {len(base_rec.positions)} to {len(rec.positions)} at tau={tau}"
            )
        stretch = math.sqrt(1.0 + (params.omega * tau) ** 2)
        for p0, p in zip(base_rec.positions, rec.positions):
            expected = p0 * stretch
            scale = max(abs(expected), natural * stretch)
            pos_err = max(pos_err, abs(p - expected) / scale)
        for w0, w in zip(base_widths, widths):
            width_err = max(width_err, abs(w - w0 * stretch) / (w0 * stretch))
    return PeakLawReport(len(base_rec.positions), pos_err, width_err, records)


def semiclassical_gap(
    params: OscillatorParams, n_values, count: int = 32001
) -> list[tuple[int, float]]:
    """Relative gap between the outermost density maximum and the turning point.

    For each level n the stationary density is scanned on a fine grid;
    gap_ratio = (x_turn - y_outer) / x_turn measures how far inside the
    classically allowed region the outermost maximum sits.
    """
    ns = [int(n) for n in n_values]
    if not ns:
        raise ValueError("need at least one level")
    if any(n < 1 for n in ns):
        raise ValueError("levels must be >= 1")
    if not all(a < b for a, b in zip(ns, ns[1:])):
        raise ValueError("levels must be strictly increasing")
    out: list[tuple[int, float]] = []
    for n in ns:
        grid = auto_grid(params, n, 0.0, count)
        qn = QuantumNumbers1D(n)
        fld = sample_field(lambda y, s: lifted_eigenstate_1d(params, qn, y, s), grid, 0.0)
        rec = find_density_maxima(fld)
        x_turn = TrajectoryFamily.from_level(params, n).amplitude
        out.append((n, (x_turn - rec.positions[-1]) / x_turn))
    return out
