"""Verification machinery: grids, PDE residuals, spectral oracle, norms, peaks.

Everything here consumes closed-form evaluators (no time stepping).  A Grid
is a tuple of Grid1D axes (a Grid1D is itself a 1D grid); fields, norms,
residuals and the spectral oracle, periodic with its edge check on every
axis, work on any number of axes: a solution is called as
solution(*coords, t).  Residual time derivatives are central differences
at t +- dt, with dt tied to the grid spacing so one parameter drives the
convergence studies.  Every grid evaluation (sampled fields, residuals
and the CLI's field tables) walks axis 0 in slabs of about 2^14 points, cut
by one walker, _slabs: a field's memory is its values, a residual's grows by
one float (|resid|^2) per interior point, a table's not at all.  Sampled
fields and residuals run their slabs on a thread pool (_map_slabs), with the
bits and errors of a serial walk; tables stay on the calling thread.  Integrals
use the trapezoid rule: exponentially accurate for smooth fields negligible
at the grid edges (auto_grid makes them so), second order otherwise.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .classical import TrajectoryFamily
from .errors import BoundaryDecayError, NonFiniteError, NormalizationError, PeakDetectionError
from .oscillator import OscillatorParams, QuantumNumbers1D, QuantumNumbers2D, density_1d
from .transform import _stretch_sq, lifted_eigenstate_1d

# ---------------------------------------------------------------------------
# grids and sampled fields

_POINT_BUDGET = 2**24  # most points of a grid (over all its axes) or of a range


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid with count nodes spanning [y_min, y_max]: one axis, or a 1D grid."""

    y_min: float
    y_max: float
    count: int

    def __post_init__(self) -> None:
        if not (self.y_min < self.y_max and math.isfinite(self.y_max - self.y_min)):
            got = f"[{self.y_min}, {self.y_max}]"
            raise ValueError(f"need finite y_min < y_max and y_max - y_min, got {got}")
        if not 3 <= self.count <= _POINT_BUDGET:
            raise ValueError(f"need 3 to {_POINT_BUDGET} nodes, got {self.count}")

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
class Grid:
    """Tensor-product grid of Grid1D axes, the first axis varying slowest."""

    axes: tuple[Grid1D, ...]

    def __post_init__(self) -> None:
        if self.count > _POINT_BUDGET:
            counts = " x ".join(str(axis.count) for axis in self.axes)
            raise ValueError(f"need at most {_POINT_BUDGET} grid points, got {counts}")

    @property
    def count(self) -> int:
        """Number of grid points, as Grid1D.count is for a one-axis grid."""
        return math.prod(axis.count for axis in self.axes)

    def refined(self, factor: int) -> Grid:
        return Grid(tuple(axis.refined(factor) for axis in self.axes))


def _one_axis(grid: Grid1D | Grid) -> Grid1D:
    if len(grid.axes) != 1:
        raise ValueError(f"need a one-axis grid, got {len(grid.axes)} axes")
    return grid.axes[0]


def coordinates(grid: Grid1D | Grid) -> tuple[np.ndarray, ...]:
    """One coordinate array per axis, each shaped like the grid."""
    return tuple(np.meshgrid(*(axis.nodes for axis in grid.axes), indexing="ij"))


def _checked_samples(values, shape: tuple[int, ...]) -> np.ndarray:
    """values as a complex array, checked to have the given shape and finite entries."""
    v = np.asarray(values, dtype=complex)
    if v.shape != shape:
        raise ValueError(f"values shape {v.shape} does not match grid shape {shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("field contains non-finite values")
    return v


@dataclass(frozen=True)
class ComplexField:
    """Complex wavefunction values sampled on a grid at one time."""

    grid: Grid1D | Grid
    values: np.ndarray
    time_label: float

    def __post_init__(self) -> None:
        shape = tuple(axis.count for axis in self.grid.axes)
        object.__setattr__(self, "values", _checked_samples(self.values, shape))

    def density(self) -> np.ndarray:
        return self.values.real**2 + self.values.imag**2


# grid points per slab of axis 0, halo rows aside: the few slab-sized buffers of
# the Hermite and Kummer recurrences then stay in a 2 MB L2 cache for all n steps
_SLAB = 2**14


def _slabs(nodes, halo: int):
    """Axis-0 slabs (start, stop, coords) of the grid of 1-D node sequences nodes.

    start .. stop spans about _SLAB points' worth of axis-0 rows, halo rows at the axis ends
    aside; coords is the ij meshgrid of those rows, halo more each side, and the later axes.
    """
    rows = max(1, _SLAB // math.prod(len(axis) for axis in nodes[1:]))
    count = len(nodes[0]) - 2 * halo
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        yield start, stop, np.meshgrid(nodes[0][start : stop + 2 * halo], *nodes[1:], indexing="ij")


_in_slab = contextvars.ContextVar("in_slab", default=False)


@functools.cache
def _slab_pool():
    """(pool, workers) of _map_slabs, made on first use.

    A worker per CPU of the process's affinity mask (taskset -c 0 gives one), at most 4,
    as each running slab holds a few MB of temporaries.
    """
    from concurrent.futures import ThreadPoolExecutor
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(4, cpus or 1)
    return ThreadPoolExecutor(workers, thread_name_prefix="oscfree-slab"), workers


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_slab_pool.cache_clear)  # a forked child has no threads


def _map_slabs(fn, nodes, halo: int) -> list:
    """[fn(start, stop, coords) for each slab of _slabs(nodes, halo)], slabs run concurrently.

    Slabs keep the caller's context (np.errstate); at most two per worker are in flight.
    Results come in slab order and the first failing slab's error is raised, as by a serial
    loop, once no slab runs (slabs not started are dropped).  A call from inside a slab runs
    inline, so it cannot deadlock a full pool.
    """
    slabs = _slabs(nodes, halo)
    if _in_slab.get():
        return [fn(*slab) for slab in slabs]
    context = contextvars.copy_context()
    context.run(_in_slab.set, True)
    pool, workers = _slab_pool()
    pending, results = [], []
    try:
        for slab in slabs:
            pending.append(pool.submit(context.copy().run, fn, *slab))
            if len(pending) == 2 * workers:
                results.append(pending.pop(0).result())
        while pending:
            results.append(pending.pop(0).result())
    finally:
        for future in pending:
            if not future.cancel():
                future.exception()  # waits for a running slab; a later slab's error is dropped
    return results


def sample_field(solution, grid: Grid1D | Grid, time: float) -> ComplexField:
    """Evaluate a closed-form solution(*coords, time) on the grid, its slabs concurrently.

    Each slab of _map_slabs writes its own rows; bits and errors are those of a serial walk.
    """
    values = np.empty(tuple(axis.count for axis in grid.axes), dtype=complex)

    def slab(start, stop, coords):
        values[start:stop] = _checked_samples(solution(*coords, time), coords[0].shape)

    _map_slabs(slab, [axis.nodes for axis in grid.axes], 0)
    return ComplexField(grid, values, time)


def _auto_axis(params: OscillatorParams, turn: float, tau: float, count: int) -> Grid1D:
    """Symmetric axis of half-width (turn + 10 natural lengths) * sqrt(1 + omega^2 tau^2)."""
    stretch = math.sqrt(_stretch_sq(params, tau))
    half = (turn + 10.0 / math.sqrt(params.mass * params.omega)) * stretch
    return Grid1D(-half, half, count)


def auto_grid(params: OscillatorParams, n: int, tau: float, count: int) -> Grid1D:
    """Symmetric grid wide enough for level n as it spreads up to free time tau."""
    return _auto_axis(params, TrajectoryFamily.from_level(params, n).amplitude, tau, count)


def auto_grid_2d(params: OscillatorParams, qn: QuantumNumbers2D, tau: float, count: int) -> Grid:
    """Square 2D analogue of auto_grid for the level (n_radial, l), from its turning radius."""
    r_turn = math.sqrt(2.0 * (2 * qn.n_radial + abs(qn.l) + 1) / (params.mass * params.omega))
    return Grid((_auto_axis(params, r_turn, tau, count),) * 2)


# ---------------------------------------------------------------------------
# residuals and convergence


def residual(
    solution, grid: Grid1D | Grid, time: float, mass: float, dt: float, omega: float | None = None
) -> tuple[float, float]:
    """Stencil residual of i d_t psi + (1/2m) lap psi - (m omega^2/2) |x|^2 psi = 0.

    omega=None drops the potential (free equation).  Central differences in t
    (t +- dt) and along each axis, at interior nodes only; the samples pass the
    checks of a ComplexField.  Returns (max norm, discrete L2 norm).

    Axis 0 is walked in the slabs of _map_slabs with a one-row halo, so only |resid|^2 is
    held on the whole interior: memory grows by one float per interior point.  Slabs run
    concurrently, each writing its own rows, with the errors of a serial walk.  Elementwise
    arithmetic gives the same bits on a slab as on the whole grid, and one np.sum over
    |resid|^2 keeps its pairwise summation, so both norms are those of a whole grid.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    times = (time, time + dt, time - dt)
    inner = (slice(1, -1),) * len(grid.axes)
    sq = np.empty(tuple(axis.count - 2 for axis in grid.axes))

    # interior rows start + 1 .. stop of axis 0, with one halo row on either side
    def slab(start, stop, coords):
        psi0, psip, psim = (_checked_samples(solution(*coords, t), coords[0].shape) for t in times)
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
        np.square(mags, out=sq[start:stop])
        return mags.max()

    peaks = _map_slabs(slab, [axis.nodes for axis in grid.axes], 1)
    cell = math.prod(axis.spacing for axis in grid.axes)
    return float(np.max(peaks)), float(math.sqrt(cell * float(np.sum(sq))))


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
    solution,
    grid: Grid1D | Grid,
    time: float,
    mass: float,
    refinements: int = 4,
    omega: float | None = None,
) -> ResidualReport:
    """Residuals over successive spacing halvings, with dt = the smallest axis spacing.

    An L2 residual that underflowed to zero leaves no log-log slope to fit: NonFiniteError.
    """
    if refinements < 2:
        raise ValueError(f"need at least 2 refinements, got {refinements}")
    grids = [grid.refined(2**k) for k in range(refinements)]
    spacings = [min(axis.spacing for axis in g.axes) for g in grids]
    norms = [residual(solution, g, time, mass, h, omega) for g, h in zip(grids, spacings)]
    linfs, l2s = map(list, zip(*norms))
    for h, l2 in zip(spacings, l2s):
        if l2 == 0.0:
            raise NonFiniteError(f"L2 residual underflowed to zero at spacing {h}; no order to fit")
    return ResidualReport(spacings, linfs, l2s, convergence_order(zip(spacings, l2s)))


# ---------------------------------------------------------------------------
# spectral oracle, norms, expectations

_BOUNDARY_DECAY = 1e-10


def spectral_propagate_free(initial: ComplexField, tau: float, m: float) -> ComplexField:
    """Exact free evolution of the sampled field, mode by mode, on any number of axes.

    Treats the grid as periodic along every axis: each discrete Fourier mode
    (k_1, ..., k_d) picks up exp(-i |k|^2 tau / (2m)).  The initial data must
    be negligible on the first and last slab of every axis (magnitude below
    1e-10 of the peak), otherwise the periodization is meaningless and
    BoundaryDecayError is raised.
    """
    v = initial.values
    vmax = float(np.abs(v).max())
    if vmax > 0.0:
        edge = max(np.abs(np.take(v, [0, -1], axis=a)).max() for a in range(v.ndim))
        if edge > _BOUNDARY_DECAY * vmax:
            raise BoundaryDecayError(
                f"boundary magnitude {edge:.3e} exceeds {_BOUNDARY_DECAY:.0e} of peak {vmax:.3e}"
            )
    k_sq = [(2.0 * math.pi * np.fft.fftfreq(a.count, d=a.spacing)) ** 2 for a in initial.grid.axes]
    # summing sparse per-axis arrays makes |k|^2 the one full-size array (in 1D, the k^2 itself)
    k_sq = functools.reduce(np.add, np.meshgrid(*k_sq, indexing="ij", sparse=True, copy=False))
    evolved = np.fft.ifftn(np.fft.fftn(v) * np.exp(-0.5j * k_sq * tau / m))
    return ComplexField(initial.grid, evolved, initial.time_label + tau)


def norm(field: ComplexField) -> float:
    """Squared-modulus integral by the trapezoid rule, iterated over the axes.

    Exponentially accurate for smooth fields negligible at the grid edges, else second order.
    """
    total = field.density()
    for axis in reversed(field.grid.axes):
        total = np.trapezoid(total, dx=axis.spacing)
    return float(total)


# one-axis aliases kept because perfbench calls them; they go with ROADMAP item 2
sample_field_1d = sample_field
norm_1d = norm


def expectation_position(field: ComplexField) -> float:
    """Position expectation of a unit-norm field (norm checked to 1e-6); trapezoid rule, as norm."""
    axis, total = _one_axis(field.grid), norm(field)
    if abs(total - 1.0) > 1e-6:
        raise NormalizationError(f"field norm {total} is not 1 within 1e-6")
    return float(np.trapezoid(axis.nodes * field.density(), dx=axis.spacing))


# ---------------------------------------------------------------------------
# density laws: scaling, peaks, widths


def density_scaling_check(
    params: OscillatorParams, n: int, tau: float, grid: Grid1D | Grid
) -> float:
    """Max pointwise gap between the lifted density and the rescaled stationary one.

    The lifted state's density must equal
    (1 + omega^2 tau^2)^{-1/2} rho_n(y (1 + omega^2 tau^2)^{-1/2})
    identically; both sides are evaluated in closed form.
    """
    qn, axis = QuantumNumbers1D(n), _one_axis(grid)
    lhs = sample_field(lambda y, t: lifted_eigenstate_1d(params, qn, y, t), axis, tau).density()
    s = math.sqrt(_stretch_sq(params, tau))
    rhs = density_1d(params, qn, axis.nodes / s) / s
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class PeakRecord:
    """Density maxima at one free time: refined positions, heights, full widths at half maximum."""

    tau: float
    positions: list[float]
    heights: list[float]
    widths: list[float]

    def __post_init__(self) -> None:
        if not len(self.positions) == len(self.heights) == len(self.widths):
            raise ValueError("positions, heights and widths must pair up")
        if not all(a < b for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")
        if not all(h > 0 for h in self.heights):
            raise ValueError("heights must be positive")


_PEAK_HEIGHT_FLOOR = 1e-12  # relative to the tallest peak, suppresses tail noise


def find_density_maxima(field: ComplexField) -> PeakRecord:
    """Locate and measure the strict interior local maxima of the sampled density.

    Each maximum's position and height are the vertex of the parabola
    through the three surrounding nodes.  Its full width at half maximum
    joins the half-height crossings on either side, each interpolated
    linearly between the two nodes around it and searched for between the
    maximum's node and the neighbouring maxima's (or the grid ends).
    PeakDetectionError is raised for a field with no maxima, for maxima
    closer than three grid spacings (the grid is too coarse to trust) and
    for a crossing that runs off the grid or into the neighbouring peak.
    """
    axis = _one_axis(field.grid)
    d = field.density()
    dmax = float(d.max())
    if dmax == 0.0:
        raise PeakDetectionError("flat zero field has no maxima")
    floor = _PEAK_HEIGHT_FLOOR * dmax
    idx = np.nonzero((d[1:-1] > d[:-2]) & (d[1:-1] > d[2:]) & (d[1:-1] > floor))[0] + 1
    if idx.size == 0:
        raise PeakDetectionError("no interior density maxima found")
    h, y = axis.spacing, axis.nodes
    below, at, above = d[idx - 1], d[idx], d[idx + 1]
    denom = above - 2.0 * at + below
    positions = y[idx] + 0.5 * h * (below - above) / denom
    # float_power rounds like a scalar ** (libm pow), where an array ** 2 squares
    heights = at - np.float_power(above - below, 2) / (8.0 * denom)
    close = np.flatnonzero(np.diff(positions) < 3.0 * h)
    if close.size:
        a, b = positions[close[0]], positions[close[0] + 1]
        raise PeakDetectionError(f"maxima at {a} and {b} are closer than 3 grid spacings ({3 * h})")
    half = 0.5 * heights
    ends = np.concatenate(([0], idx, [d.size - 1]))
    lo = np.empty_like(idx)  # last node under half height at or left of each maximum
    hi = np.empty_like(idx)  # first node under half height at or right of it
    for k, j in enumerate(idx):
        before = np.flatnonzero(d[ends[k] : j + 1] < half[k])
        if before.size == 0:
            raise PeakDetectionError(f"no left half-maximum crossing for peak at {positions[k]}")
        after = np.flatnonzero(d[j : ends[k + 2] + 1] < half[k])
        if after.size == 0:
            raise PeakDetectionError(f"no right half-maximum crossing for peak at {positions[k]}")
        lo[k], hi[k] = ends[k] + before[-1], j + after[0]
    left = y[lo] + h * (half - d[lo]) / (d[lo + 1] - d[lo])
    right = y[hi - 1] + h * (half - d[hi - 1]) / (d[hi] - d[hi - 1])
    widths = right - left
    return PeakRecord(field.time_label, positions.tolist(), heights.tolist(), widths.tolist())


def _lifted_peaks(params: OscillatorParams, n: int, tau: float, count: int) -> PeakRecord:
    """Density maxima of the lifted level n, sampled on its auto grid at free time tau.

    Level n has n + 1 maxima; finding another number is a PeakDetectionError.
    """
    qn = QuantumNumbers1D(n)
    grid = auto_grid(params, n, tau, count)
    record = find_density_maxima(
        sample_field(lambda y, s: lifted_eigenstate_1d(params, qn, y, s), grid, tau)
    )
    if len(record.positions) != n + 1:
        raise PeakDetectionError(
            f"level {n} has {n + 1} density maxima, found {len(record.positions)} at tau={tau}"
            f" on {count} nodes"
        )
    return record


@dataclass(frozen=True)
class PeakLawReport:
    """Outcome of checking the hyperbolic peak-motion and broadening laws."""

    peak_count: int
    max_position_rel_error: float
    max_fwhm_rel_error: float


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
    natural = 1.0 / math.sqrt(params.mass * params.omega)
    base_rec = _lifted_peaks(params, n, 0.0, count)
    pos_err = width_err = 0.0
    for tau in tau_list:
        if tau == 0.0:
            continue
        rec = _lifted_peaks(params, n, tau, count)
        stretch = math.sqrt(_stretch_sq(params, tau))
        for p0, p in zip(base_rec.positions, rec.positions):
            expected = p0 * stretch
            scale = max(abs(expected), natural * stretch)
            pos_err = max(pos_err, abs(p - expected) / scale)
        for w0, w in zip(base_rec.widths, rec.widths):
            width_err = max(width_err, abs(w - w0 * stretch) / (w0 * stretch))
    return PeakLawReport(len(base_rec.positions), pos_err, width_err)


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
        rec = _lifted_peaks(params, n, 0.0, count)
        x_turn = TrajectoryFamily.from_level(params, n).amplitude
        out.append((n, (x_turn - rec.positions[-1]) / x_turn))
    return out
