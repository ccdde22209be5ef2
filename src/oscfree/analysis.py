"""Verification machinery: grids, PDE residuals, spectral oracle, norms, exact maxima, peaks.

Everything here consumes closed-form evaluators (no time stepping).  A Grid
is a tuple of Grid1D axes (a Grid1D is itself a 1D grid); fields, norms,
residuals and the spectral oracle, periodic with its edge check on every
axis, work on any number of axes: a solution is called as
solution(*coords, t).  Residual time derivatives are central differences
at t +- dt, with dt tied to the grid spacing so one parameter drives the
convergence studies.  Every grid evaluation (sampled fields, residuals
and the CLI's field tables) walks axis 0 in slabs of about _SLAB points (its
comment says why that many), cut by one walker, _slabs, whose coordinates are
sparse, one array per axis that a solution broadcasts: a field's memory is its
values, a residual's grows by one float (|resid|^2) per interior point, a
table's not at all.  Sampled fields and residuals run their slabs on a thread
pool (_map_slabs), with the bits and errors of a serial walk.  The spectral
oracle multiplies its phase into the spectrum in place, in real arithmetic, one
slab of half the axis-0 modes at a time (the other half are their mirror
images), so its only grid-sized buffer is the spectrum.  A table's slabs are
lifted and formatted on the calling thread (cli._write_field_table).  A
lifted level's peaks are its exact maxima and half-height points
(level_extrema), stretched to each free time (_exact_peaks), with no grid;
peak_trajectory_check still finds them on a sampled grid.  Integrals use the
trapezoid rule: exponentially accurate for smooth fields negligible at the grid
edges (auto_grid makes them so), second order otherwise.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryDecayError, NonFiniteError, NormalizationError, PeakDetectionError
from .oscillator import _UNIT, OscillatorParams, QuantumNumbers1D, QuantumNumbers2D, density_1d
from .specfun import hermite_scaled
from .transform import _product, _stretch_sq, lifted_eigenstate_1d

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


# grid points per slab of axis 0, halo rows aside.  Two bounds set it, both measured (2-vCPU
# Xeon, 2 MB L2, numpy 2.4): the four 8-byte buffers of the Hermite and Kummer recurrences,
# 1 MB, stay in L2 for all n steps (hermite(120) on 400001 points took 0.13 s in one call,
# 0.06 s in 2^15-point pieces); and each of their 3n numpy calls, about 16 us, outlasts a
# handoff of the GIL between two slab workers.  hermite(120) on two threads against one ran
# 0.45x as fast over 2^12-point calls, 0.97x over 2^14 (8 us a call) and 1.56x over 2^15.
# At 2^16 the buffers fill L2, and perfbench verify-residual's peak RSS rose 8% over 2^15.
_SLAB = 2**15


def _slab_rows(later_counts) -> int:
    """Axis-0 rows of a slab: about _SLAB points' worth over later axes of these node counts."""
    return max(1, _SLAB // math.prod(later_counts))


def _slabs(nodes, halo: int):
    """Axis-0 slabs (start, stop, coords) of the grid of 1-D node sequences nodes.

    start .. stop spans about _SLAB points' worth of axis-0 rows, halo rows at the axis ends
    aside; coords() builds the sparse ij meshgrid of those rows, halo more each side, and the
    later axes: one array per axis, of length 1 on every other axis, which a solution
    broadcasts.  The slab's shape is np.broadcast_shapes of the coordinates' shapes.
    """
    rows = _slab_rows(map(len, nodes[1:]))
    count = len(nodes[0]) - 2 * halo
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        rows_here = nodes[0][start : stop + 2 * halo]
        yield start, stop, functools.partial(
            np.meshgrid, rows_here, *nodes[1:], indexing="ij", sparse=True
        )


def _slab_samples(values, coords) -> np.ndarray:
    """values on a slab of _slabs, broadcast to the slab's shape and checked as _checked_samples.

    A solution may return any array of the slab's dimension that broadcasts to it, such as
    a function of y1 alone; a scalar, or any other shape, fails the shape check.
    """
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    v = np.asarray(values, dtype=complex)
    if v.ndim == len(shape) and all(n in (1, m) for n, m in zip(v.shape, shape)):
        v = np.broadcast_to(v, shape)
    return _checked_samples(v, shape)


_in_slab = contextvars.ContextVar("in_slab", default=False)


def _workers() -> int:
    """A worker per CPU of the process's affinity mask (taskset -c 0 gives one), at most 4.

    It sizes the slab pool.  At most 4, as each running slab holds up to about 2.5 MB: a 2D
    residual slab peaks near 75 bytes per point (tests/test_analysis.py, TestSlabMemory),
    2.5 MB at 2^15 points.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(4, cpus or 1)


@functools.cache
def _slab_pool():
    """(pool, workers) of _map_slabs, made on first use with _workers() threads."""
    from concurrent.futures import ThreadPoolExecutor
    workers = _workers()
    return ThreadPoolExecutor(workers, thread_name_prefix="oscfree-slab"), workers


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_slab_pool.cache_clear)  # a forked child has no threads


def _map_slabs(fn, nodes, halo: int) -> list:
    """[fn(start, stop, coords) for each slab of _slabs(nodes, halo)], slabs run concurrently.

    Slabs keep the caller's context (np.errstate); at most two per worker are in flight, and
    a slab builds its coordinates when it starts, so a queued one holds none.
    Results come in slab order and the first failing slab's error is raised, as by a serial
    loop, once no slab runs (slabs not started are dropped).  A call from inside a slab runs
    inline, so it cannot deadlock a full pool.
    """
    def run(start, stop, coords):
        return fn(start, stop, coords())

    slabs = _slabs(nodes, halo)
    if _in_slab.get():
        return [run(*slab) for slab in slabs]
    context = contextvars.copy_context()
    context.run(_in_slab.set, True)
    pool, workers = _slab_pool()
    pending, results = [], []
    try:
        for slab in slabs:
            pending.append(pool.submit(context.copy().run, run, *slab))
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

    coords are a slab's sparse coordinates (_slabs), and the solution returns an array that
    broadcasts to the slab (_slab_samples).  Each slab of _map_slabs writes its own rows;
    bits and errors are those of a serial walk.
    """
    values = np.empty(tuple(axis.count for axis in grid.axes), dtype=complex)

    def slab(start, stop, coords):
        values[start:stop] = _slab_samples(solution(*coords, time), coords)

    _map_slabs(slab, [axis.nodes for axis in grid.axes], 0)
    return ComplexField(grid, values, time)


def _auto_axis(params: OscillatorParams, level: float, tau: float, count: int) -> Grid1D:
    """Symmetric axis for a level of energy omega * level: in xi = sqrt(m omega) y, its turning
    point sqrt(2 level) and 10 more, times s = sqrt(1 + theta^2), theta = omega tau."""
    stretch = math.sqrt(_stretch_sq(params.omega * tau))
    half = (math.sqrt(2.0 * level) + 10.0) * stretch / math.sqrt(params.mass * params.omega)
    return Grid1D(-half, half, count)


def auto_grid(params: OscillatorParams, n: int, tau: float, count: int) -> Grid1D:
    """Symmetric grid wide enough for level n as it spreads up to free time tau."""
    return _auto_axis(params, QuantumNumbers1D(n).n + 0.5, tau, count)


def auto_grid_2d(params: OscillatorParams, qn: QuantumNumbers2D, tau: float, count: int) -> Grid:
    """Square 2D analogue of auto_grid for the level (n_radial, l), from its turning radius."""
    return Grid((_auto_axis(params, 2 * qn.n_radial + abs(qn.l) + 1, tau, count),) * 2)


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
    concurrently, each writing its own rows, with the errors of a serial walk; a slab samples
    t + dt, t - dt, then t, and raises the first failing sample's error.  Elementwise
    arithmetic gives the same bits on a slab as on the whole grid, and one np.sum over
    |resid|^2 keeps its pairwise summation, so both norms are those of a whole grid.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    inner = (slice(1, -1),) * len(grid.axes)
    sq = np.empty(tuple(axis.count - 2 for axis in grid.axes))

    # interior rows start + 1 .. stop of axis 0, with one halo row on either side.  The t +- dt
    # samples come first and are dropped once they make the time term, so at most two
    # samples are held at once.  Each axis's stencil term is built in one buffer and summed
    # into lap in place, in the operand order of lap + (up - 2 inner + down) / h^2, and lap
    # then holds the potential term; |resid| is squared in place in sq.  Each quotient by a
    # real c is a product by 1 / c, as numpy's complex quotient computes it (up to the sign
    # of a zero) in a scalar loop.  The coordinates are sparse, so each is sliced to the
    # interior along its own axis only
    def slab(start, stop, coords):
        sample = lambda t: _slab_samples(solution(*coords, t), coords)
        psip, psim = sample(time + dt), sample(time - dt)
        resid = 1j * (psip[inner] - psim[inner]) * (1.0 / (2.0 * dt))
        del psip, psim
        psi0 = sample(time)
        lap = None
        for k, axis in enumerate(grid.axes):
            up = inner[:k] + (slice(2, None),) + inner[k + 1 :]
            down = inner[:k] + (slice(None, -2),) + inner[k + 1 :]
            term = np.multiply(2.0, psi0[inner])
            np.subtract(psi0[up], term, out=term)
            np.add(term, psi0[down], out=term)
            np.multiply(term, 1.0 / axis.spacing**2, out=term)
            lap = term if lap is None else np.add(lap, term, out=lap)
        np.multiply(lap, 1.0 / (2.0 * mass), out=lap)
        np.add(resid, lap, out=resid)
        if omega is not None:
            own = lambda k: tuple(inner[j] if j == k else slice(None) for j in range(len(inner)))
            r_sq = sum(c[own(k)] ** 2 for k, c in enumerate(coords))
            np.multiply(0.5 * mass * omega**2 * r_sq, psi0[inner], out=lap)
            np.subtract(resid, lap, out=resid)
        mags = np.abs(resid, out=sq[start:stop])
        peak = mags.max()
        np.square(mags, out=mags)
        return peak

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


def _halves(shape):
    """Index tuples cutting an array of this (rows, columns) shape in two: by rows, or by
    columns if it has one row.  The first half is the larger."""
    rows, cols = shape
    if rows > 1:
        return (slice(0, (rows + 1) // 2),), (slice((rows + 1) // 2, rows),)
    return (slice(None), slice(0, (cols + 1) // 2)), (slice(None), slice((cols + 1) // 2, cols))


def _free_phase(spectrum: np.ndarray, axes, tau: float, m: float) -> None:
    """Multiply the C-ordered spectrum in place by exp(-i |k|^2 tau / (2m)), k its modes.

    Each mode's phase has the bits of exp(-0.5j * k_sq * tau / m), k_sq the sum over the axes,
    in order, of (2 pi fftfreq)^2; the product by 1/m rounds as numpy's complex quotient by a
    real does, but in a SIMD loop.  Axis-0 mode N - j is exactly -(mode j) in fftfreq, so the
    phase is built for modes 0 .. N//2 only, _slab_rows rows at a time in one reused buffer,
    and multiplied into rows j and their mirror rows N - j.  A slab builds its |k|^2 in its
    own real part (axis-0 mode j as fftfreq forms it, j * (1 / (N h))) and broadcasts each
    later axis through its imaginary part, so numpy allocates no buffer for it.  Each product
    is spectrum * phase in real arithmetic (transform._product), half a slab at a time, so its
    bits are the same at every SIMD dispatch level and for any slab size.
    """
    first, later = axes[0], axes[1:]
    count, step = first.count, 1.0 / (first.count * first.spacing)
    later_sq = [(2.0 * math.pi * np.fft.fftfreq(a.count, d=a.spacing)) ** 2 for a in later]
    later_sq = np.meshgrid(*later_sq, indexing="ij", sparse=True, copy=False)
    half = count // 2 + 1
    rows = min(_slab_rows(a.count for a in later), half)
    column = (-1,) + (1,) * len(later)
    phase = np.empty((rows,) + spectrum.shape[1:], dtype=complex)
    # (rows, columns) views, not copies, as spectrum and phase are C-ordered
    spectrum2d, phase2d = spectrum.reshape(count, -1), phase.reshape(rows, -1)
    tmp = np.empty((2, phase2d[_halves(phase2d.shape)[0]].size))

    def times(rows_of_spectrum, rows_of_phase):
        for piece in _halves(rows_of_spectrum.shape):
            a, b = rows_of_spectrum[piece], rows_of_phase[piece]
            t, u = (buf[: a.size].reshape(a.shape) for buf in tmp)
            _product((a.real, a.imag), (b.real, b.imag), (a.real, a.imag), (t, u))

    for start in range(0, half, rows):
        stop = min(start + rows, half)
        block = phase[: stop - start]
        re, im = block.real, block.imag
        np.copyto(re, np.arange(start, stop, dtype=float).reshape(column))
        re *= step
        re *= 2.0 * math.pi
        np.square(re, out=re)
        for k_sq in later_sq:
            np.copyto(im, k_sq)
            np.add(re, im, out=re)
        im.fill(0.0)
        np.multiply(-0.5j, block, out=block)
        block *= tau
        block *= 1.0 / m
        np.exp(block, out=block)
        times(spectrum2d[start:stop], phase2d[: stop - start])
        # the mirror rows N - j of modes j = lo .. hi - 1, the rows past half
        lo, hi = max(start, 1), min(stop, count - half + 1)
        if lo < hi:
            times(spectrum2d[count - lo : count - hi : -1], phase2d[lo - start : hi - start])


def spectral_propagate_free(initial: ComplexField, tau: float, m: float) -> ComplexField:
    """Exact free evolution of the sampled field, mode by mode, on any number of axes.

    Treats the grid as periodic along every axis: each discrete Fourier mode
    (k_1, ..., k_d) picks up exp(-i |k|^2 tau / (2m)).  The initial data must
    be negligible on the first and last slab of every axis (magnitude below
    1e-10 of the peak), otherwise the periodization is meaningless and
    BoundaryDecayError is raised.

    One grid-sized buffer is made: the spectrum, which _free_phase multiplies in place, one
    slab of the phase at a time, and which is transformed back in place.  Its products are
    real arithmetic, so the bits are the same at every SIMD dispatch level.
    """
    v = initial.values
    vmax = float(np.abs(v).max())
    if vmax > 0.0:
        edge = max(np.abs(np.take(v, [0, -1], axis=a)).max() for a in range(v.ndim))
        if edge > _BOUNDARY_DECAY * vmax:
            raise BoundaryDecayError(
                f"boundary magnitude {edge:.3e} exceeds {_BOUNDARY_DECAY:.0e} of peak {vmax:.3e}"
            )
    # out= spares fftn an array per axis; a C-ordered one, for _free_phase, whatever v's order
    spectrum = np.fft.fftn(v, out=np.empty(v.shape, dtype=complex))
    _free_phase(spectrum, initial.grid.axes, tau, m)
    evolved = np.fft.ifftn(spectrum, out=spectrum)
    return ComplexField(initial.grid, evolved, initial.time_label + tau)


def norm(field: ComplexField) -> float:
    """Squared-modulus integral by the trapezoid rule, iterated over the axes.

    Exponentially accurate for smooth fields negligible at the grid edges, else second order.
    """
    total = field.density()
    for axis in reversed(field.grid.axes):
        total = np.trapezoid(total, dx=axis.spacing)
    return float(total)


# one-axis aliases kept because perfbench calls them; they go with ROADMAP item 4
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
    s = math.sqrt(_stretch_sq(params.omega * tau))
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
_PEAK_COUNT = 32001  # default auto-grid node count of peak detection


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


# ---------------------------------------------------------------------------
# exact maxima of a level, and peaks from them

def _bracketed_roots(fn, lo, hi, rising):
    """The root of fn in each bracket (lo, hi), by Newton steps kept inside the bracket.

    fn(x) returns (value, slope) at the points x; in each bracket value changes sign once,
    rising (a bool per bracket) or falling.  Each step shrinks the bracket to the side of
    the root; a Newton step that would leave it bisects instead.  Stops once no point moves
    by more than 4 ulps of max(|x|, 1).
    """
    x = 0.5 * (lo + hi)
    tol = 4.0 * np.finfo(float).eps
    for _ in range(200):
        value, slope = fn(x)
        left = (value < 0) == rising
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        step = x - value / slope
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.all(np.abs(step - x) <= tol * np.maximum(np.abs(x), 1.0))
        x = step
        if done:
            break
    return x


# most Taylor coefficients of H_n kept about a node: 16 gave level_extrema the bits of 24 at
# n = 20 to 5000, and 12 moved its points by up to 50 ulps
_TAYLOR_TERMS = 16


def _taylor_evaluator(n: int, xi: np.ndarray):
    """evaluate(x) = (p, p', e) with H_n(x) = p 2^e at x in [0, xi[-1]], from one hermite_scaled.

    xi are the nodes j h, j = 0, 1, ...  About each, p = H_n 2^-e (hermite_scaled's pair,
    scaled again, exactly, so that max(|p|, |p_{n-1}|) is in [1/2, 1) and the coefficients
    have headroom) has the Taylor series sum a_k u^k: a_0 = p, a_1 = p' = 2n p_{n-1}, and
    H_n'' = 2 xi H_n' - 2n H_n gives a_{k+2} = (2 xi (k+1) a_{k+1} + 2 (k-n) a_k) / ((k+2)(k+1)).
    It ends at k = n, and min(n + 1, _TAYLOR_TERMS) terms are kept.  A point x is summed by
    Horner about its nearest node (|u| <= h / 2), so the recurrence is never run again.
    """
    h, last, terms = xi[1], xi.size - 1, min(n + 1, _TAYLOR_TERMS)
    p, p_prev, e = hermite_scaled(n, xi)
    _, shift = np.frexp(np.maximum(np.abs(p), np.abs(p_prev)))
    p, p_prev, e = np.ldexp(p, -shift), np.ldexp(p_prev, -shift), e + shift
    a = [p, 2.0 * n * p_prev][:terms]
    for k in range(terms - 2):
        a.append((2.0 * (k + 1) * xi * a[k + 1] + 2.0 * (k - n) * a[k]) / ((k + 2) * (k + 1)))
    slopes = [(k + 1) * a_k for k, a_k in enumerate(a[1:])] + [np.zeros_like(xi)]
    coefficients = np.stack((a[::-1], slopes[::-1]), axis=1).reshape(2 * terms, xi.size)

    def evaluate(x):
        j = np.minimum(np.rint(x / h).astype(int), last)
        u = x - xi[j]
        c = coefficients.take(j, axis=1).reshape(terms, 2, x.size)  # (term, value | slope, x)
        acc = c[0].copy()
        for c_k in c[1:]:
            acc *= u
            acc += c_k
        return acc[0], acc[1], e[j]

    return evaluate


def level_extrema(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maxima of the level-n density and their half-height points, in xi = sqrt(m omega) x.

    Returns (maxima, left, right), each n + 1 increasing floats: the maxima of rho_n, and for
    each the point on its left and on its right where rho_n falls to half its maximum.  At
    free time tau the lifted density has these points times s / sqrt(m omega),
    s = sqrt(1 + omega^2 tau^2).

    The n zeros and n + 1 maxima of psi_n alternate inside the turning points
    +-sqrt(2n + 1), and neighbours are at least pi / (2 sqrt(2n + 1)) apart (Sturm
    comparison: psi_n'' = -(2n + 1 - xi^2) psi_n).  psi_n has the parity of n, so 0 is a
    zero (n odd) or a maximum (n even), and the rest are solved on xi > 0 and mirrored:
    the result is exactly symmetric.  On nodes from 0 with cells half as long as that bound,
    the sign of psi_n (of psi_n') changes exactly across the cells past the first that hold
    a zero (a maximum), one each.  In its cell a zero is the root of H_n, monotone there
    (slope 2n H_{n-1}), and a maximum the root of psi_n'/psi_n = 2n H_{n-1}/H_n - xi, which
    falls there (slope xi^2 - 2n - 1 - (psi_n'/psi_n)^2).  Each half-height point lies
    between a maximum and the zero beside it, or 1 past the turning point for the outer one,
    where log rho_n - log rho_max + ln 2 (slope 2 psi_n'/psi_n) rises or falls through 0 once.
    All are solved by _bracketed_roots on the local Taylor series of _taylor_evaluator, from
    one run of hermite_scaled (which no n overflows) on the nodes out to 1 past the turning
    point.  That run is the cost: O(n) numpy calls over O(n) nodes, so O(n) memory and
    O(n^2) arithmetic; 1.8 ms at n = 120, 32 ms at n = 2000 and 0.5 s at MAX_LEVEL_1D
    (2-vCPU Xeon).  A level past MAX_LEVEL_1D is a ValueError, raised before any of it.
    """
    QuantumNumbers1D(n)  # a level in 0 .. MAX_LEVEL_1D
    edge, odd = math.sqrt(2.0 * n + 1.0), n % 2
    h = 2.0 * edge / (1 + int(8.0 * edge * edge / math.pi))
    xi = np.arange(math.ceil((edge + 1.0) / h) + 1) * h
    with np.errstate(all="ignore"):  # zeros of psi_n are never evaluated where a ratio needs it
        evaluate = _taylor_evaluator(n, xi)
        p, dp, _ = evaluate(xi)
        signs = np.signbit(p), np.signbit(dp - xi * p)
        zero_cells, max_cells = (np.flatnonzero(a[2:] != a[1:-1]) + 1 for a in signs)
        cells = np.concatenate((zero_cells, max_cells))
        is_zero = np.arange(cells.size) < zero_cells.size
        rising = is_zero & ~signs[0][cells + 1]

        def zero_or_maximum(x):
            p, dp, _ = evaluate(x)
            f = dp / p - x
            slope = np.where(is_zero, dp, x * x - (2.0 * n + 1.0) - f * f)
            return np.where(is_zero, p, f), slope

        roots = _bracketed_roots(zero_or_maximum, xi[cells], xi[cells + 1], rising)
        zeros, maxima = roots[: zero_cells.size], roots[zero_cells.size :]
        # the maxima at xi >= 0, and the zero (or 0) left of each one past 0
        right_of = maxima if odd else np.concatenate(([0.0], maxima))
        left_of = np.concatenate(([0.0], zeros)) if odd else zeros
        x_max = np.concatenate((maxima, right_of))
        p_max, _, e_max = evaluate(x_max)

        def half_height(x):
            p, dp, e = evaluate(x)
            log_ratio = np.log(np.abs(p / p_max)) + (e - e_max) * math.log(2.0)
            value = 2.0 * log_ratio - (x - x_max) * (x + x_max) + math.log(2.0)
            return value, 2.0 * (dp / p - x)

        lo = np.concatenate((left_of, right_of))
        hi = np.concatenate((maxima, zeros, [edge + 1.0]))
        rising = np.arange(lo.size) < maxima.size
        crossings = _bracketed_roots(half_height, lo, hi, rising)
        left, right = crossings[: maxima.size], crossings[maxima.size :]
    mirrored = ((maxima, right_of), (right, left), (left, right))  # xi < 0 from xi > 0
    return tuple(np.concatenate((-a[::-1], b)) for a, b in mirrored)


def _exact_peaks(params: OscillatorParams, n: int, taus):
    """(tau, positions, heights, widths) of the lifted level n's density maxima, a tuple a tau.

    At free time tau the lifted density is sqrt(m omega) / s times the m = omega = 1 rho_n at
    xi / s, xi = sqrt(m omega) y, s = sqrt(1 + theta^2), theta = omega tau (C04); so its maxima and
    half-height points are level_extrema's points times s / sqrt(m omega), and its heights
    sqrt(m omega) / s times |chi_n|^2 of the m = omega = 1 lift at tau = 0, evaluated once:
    its bits, like level_extrema's, are the same at every SIMD dispatch level, where
    density_1d's real exp is not (ROADMAP item 13).  level_extrema runs at the first tuple.
    """
    maxima, left, right = level_extrema(n)
    natural = math.sqrt(params.mass * params.omega)
    chi = lifted_eigenstate_1d(_UNIT, QuantumNumbers1D(n), maxima, 0.0)
    density, widths = (chi.real**2 + chi.imag**2) * natural, right - left
    for tau in taus:
        s = math.sqrt(_stretch_sq(params.omega * tau))
        yield tau, maxima * (s / natural), density / s, widths * (s / natural)


@dataclass(frozen=True)
class PeakLawReport:
    """Outcome of checking the hyperbolic peak-motion and broadening laws."""

    peak_count: int
    max_position_rel_error: float
    max_fwhm_rel_error: float


def peak_trajectory_check(
    params: OscillatorParams, n: int, taus, count: int = _PEAK_COUNT
) -> PeakLawReport:
    """Verify that lifted-density peaks ride the stretched baseline positions.

    Peaks are detected at every tau in taus (which must contain 0, the
    baseline) by find_density_maxima on the lifted level sampled on its auto
    grid of count nodes; finding other than n + 1 maxima is a
    PeakDetectionError.  Each position is compared against the tau = 0
    position scaled by sqrt(1 + omega^2 tau^2), and each full width at half
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
    later = [tau for tau in tau_list if tau != 0.0]
    records = []
    for tau in [0.0, *later]:
        grid = auto_grid(params, n, tau, count)
        record = find_density_maxima(
            sample_field(lambda y, s: lifted_eigenstate_1d(params, qn, y, s), grid, tau)
        )
        if len(record.positions) != n + 1:
            raise PeakDetectionError(
                f"level {n} has {n + 1} density maxima, found {len(record.positions)}"
                f" at tau={tau} on {count} nodes"
            )
        records.append(record)
    base_rec, *recs = records
    pos_err = width_err = 0.0
    for tau, rec in zip(later, recs):
        stretch = math.sqrt(_stretch_sq(params.omega * tau))
        for p0, p in zip(base_rec.positions, rec.positions):
            expected = p0 * stretch
            scale = max(abs(expected), natural * stretch)
            pos_err = max(pos_err, abs(p - expected) / scale)
        for w0, w in zip(base_rec.widths, rec.widths):
            width_err = max(width_err, abs(w - w0 * stretch) / (w0 * stretch))
    return PeakLawReport(len(base_rec.positions), pos_err, width_err)


def semiclassical_gap(
    params: OscillatorParams, n_values, count: int = _PEAK_COUNT
) -> list[tuple[int, float]]:
    """Relative gap between the outermost density maximum and the turning point.

    gap_ratio = (x_turn - y_outer) / x_turn measures how far inside the classically allowed
    region the outermost maximum sits.  In xi = sqrt(m omega) x the turning point is
    sqrt(2n + 1) and the outermost maximum level_extrema's last, so the ratio is
    1 - xi_outer / sqrt(2n + 1), whatever m and omega.  count is ignored, and goes once
    perfbench stops passing it (ROADMAP item 9).
    """
    ns = [int(n) for n in n_values]
    if not ns:
        raise ValueError("need at least one level")
    if any(n < 1 for n in ns):
        raise ValueError("levels must be >= 1")
    if not all(a < b for a, b in zip(ns, ns[1:])):
        raise ValueError("levels must be strictly increasing")
    QuantumNumbers1D(ns[-1])  # the largest level within MAX_LEVEL_1D, before any evaluation
    return [(n, 1.0 - float(level_extrema(n)[0][-1]) / math.sqrt(2.0 * n + 1.0)) for n in ns]
