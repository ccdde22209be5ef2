import functools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import monotonic, sleep
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from oscfree import (
    BoundaryDecayError,
    NonFiniteError,
    NormalizationError,
    OscillatorParams,
    PeakDetectionError,
    QuantumNumbers1D,
    QuantumNumbers2D,
    TrajectoryFamily,
    eigenstate_1d,
    eigenstate_2d,
    envelope,
    lift_wavefunction,
    lifted_eigenstate_1d,
    lifted_eigenstate_2d,
)
from oscfree import analysis
from oscfree.analysis import (
    ComplexField,
    Grid,
    Grid1D,
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
from oscfree.oscillator import MAX_LEVEL_1D

FWHM_GAUSSIAN = 2.0 * math.sqrt(math.log(2.0))  # of exp(-y^2)


def lifted(params, n):
    qn = QuantumNumbers1D(n)
    return lambda y, tau: lifted_eigenstate_1d(params, qn, y, tau)


def polar_eigenstate_2d(params, qn):
    """The 2D oscillator eigenstate as a function of Cartesian coordinates."""
    return lambda x1, x2, t: eigenstate_2d(params, qn, np.hypot(x1, x2), np.arctan2(x2, x1), t)


def second_order_case(params, d, equation):
    """Solution, grid, time and omega of a state whose residual is cleanly second order."""
    if d == 1 and equation == "free":
        return lifted(params, 2), auto_grid(params, 2, 1.0, 2001), 1.0, None
    if d == 1:
        qn = QuantumNumbers1D(2)
        solution = lambda x, t: eigenstate_1d(params, qn, x, t)
        return solution, auto_grid(params, 2, 0.0, 2001), 0.3, params.omega
    if equation == "free":
        qn = QuantumNumbers2D(0, 1)
        solution = lambda a, b, tau: lifted_eigenstate_2d(params, qn, a, b, tau)
        axis = Grid1D(-12.0, 12.0, 161)
        return solution, Grid((axis, axis)), 0.5, None
    qn = QuantumNumbers2D(1, 1)
    axis = Grid1D(-8.0, 8.0, 161)
    return polar_eigenstate_2d(params, qn), Grid((axis, axis)), 0.3, params.omega


def zero_case(d, equation):
    """A zero solution, a small grid of dimension d and the omega of the equation."""
    zero = lambda *args: np.zeros_like(args[0], dtype=complex)
    omega = 1.0 if equation == "oscillator" else None
    if d == 1:
        return zero, Grid1D(-5.0, 5.0, 101), omega
    axis = Grid1D(-3.0, 3.0, 31)
    return zero, Grid((axis, axis)), omega


RESIDUAL_CASES = [(1, "free"), (1, "oscillator"), (2, "free"), (2, "oscillator")]


class TestGridsAndFields:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, -1.0, 11)
        with pytest.raises(ValueError):
            Grid1D(-1.0, 1.0, 2)
        for bound in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Grid1D(bound, 1.0, 5)
            with pytest.raises(ValueError):
                Grid1D(-1.0, bound, 5)
        with pytest.raises(ValueError, match="y_max - y_min"):
            Grid1D(-1e308, 1e308, 11)  # finite bounds, span overflows to inf
        for counts in ((5000, 5000), (257, 257, 257)):
            with pytest.raises(ValueError, match=" x ".join(map(str, counts))):
                Grid(tuple(Grid1D(-1.0, 1.0, c) for c in counts))

    def test_spacing_and_nodes(self):
        grid = Grid1D(-1.0, 1.0, 5)
        assert grid.spacing == 0.5
        assert np.array_equal(grid.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
        fine = grid.refined(2)
        assert fine.count == 9 and fine.spacing == 0.25

    def test_field_validation(self):
        grid = Grid1D(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            ComplexField(grid, np.zeros(4, dtype=complex), 0.0)
        with pytest.raises(NonFiniteError):
            ComplexField(grid, np.array([0, 0, np.inf, 0, 0], dtype=complex), 0.0)
        with pytest.raises(ValueError):
            ComplexField(Grid((grid, grid)), np.zeros(5, dtype=complex), 0.0)

    def test_auto_grid_widens_with_tau(self, params):
        narrow = auto_grid(params, 2, 0.0, 101)
        wide = auto_grid(params, 2, 3.0, 101)
        assert wide.y_max == pytest.approx(narrow.y_max * math.sqrt(10.0))
        assert narrow.y_max == pytest.approx(math.sqrt(5.0) + 10.0)


@pytest.mark.parametrize("d, equation", RESIDUAL_CASES)
class TestResidual:
    def test_zero_field_zero_residual(self, d, equation):
        zero, grid, omega = zero_case(d, equation)
        assert residual(zero, grid, 0.5, 1.0, 0.01, omega) == (0.0, 0.0)

    def test_rejects_bad_dt(self, d, equation):
        zero, grid, omega = zero_case(d, equation)
        for dt in (0.0, -0.01, math.nan, math.inf):
            with pytest.raises(ValueError):
                residual(zero, grid, 0.5, 1.0, dt, omega)

    def test_second_order(self, params, d, equation):
        solution, grid, time, omega = second_order_case(params, d, equation)
        fine_grid = grid.refined(2)
        coarse = residual(solution, grid, time, 1.0, grid.axes[0].spacing, omega)
        fine = residual(solution, fine_grid, time, 1.0, fine_grid.axes[0].spacing, omega)
        assert 3.6 <= coarse[0] / fine[0] <= 4.4
        assert 3.6 <= coarse[1] / fine[1] <= 4.4

    def test_rejects_non_finite_samples(self, d, equation):
        _, grid, omega = zero_case(d, equation)
        nan = lambda *args: np.full_like(args[0], np.nan, dtype=complex)
        with pytest.raises(NonFiniteError):
            residual(nan, grid, 0.5, 1.0, 0.01, omega)


class TestResidualExamples:
    def test_plane_wave_second_order(self):
        # exact solution e^{i(k y - k^2 tau / 2m)}; Taylor error is O(h^2) + O(dt^2)
        k, m = 2.0, 1.0
        wave = lambda y, tau: np.exp(1j * (k * y - k**2 * tau / (2.0 * m)))
        grid = Grid1D(-math.pi, math.pi, 201)
        ratios = []
        prev = None
        for factor in (1, 2, 4):
            g = grid.refined(factor)
            linf, _ = residual(wave, g, 0.7, m, g.spacing)
            if prev is not None:
                ratios.append(prev / linf)
            prev = linf
        assert all(3.6 <= r <= 4.4 for r in ratios)

    def test_isotropic_state_factorizes(self, params):
        # the l = 0 lifted state is a product of two 1D ground states, so
        # the 2D residual of either form is the same number
        qn2 = QuantumNumbers2D(0, 0)
        qn1 = QuantumNumbers1D(0)
        closed = lambda a, b, tau: lifted_eigenstate_2d(params, qn2, a, b, tau)

        def product(a, b, tau):
            return lifted_eigenstate_1d(params, qn1, a, tau) * lifted_eigenstate_1d(
                params, qn1, b, tau
            )

        axis = Grid1D(-10.0, 10.0, 101)
        grid = Grid((axis, axis))
        y1, y2 = coordinates(grid)
        assert np.abs(closed(y1, y2, 0.8) - product(y1, y2, 0.8)).max() < 1e-12
        r_closed = residual(closed, grid, 0.8, 1.0, axis.spacing)
        r_product = residual(product, grid, 0.8, 1.0, axis.spacing)
        assert r_closed[0] == pytest.approx(r_product[0], rel=1e-9)

    def test_2d_oscillator_study_second_order(self, params):
        # omega turns the study into the oscillator equation in any dimension
        axis = Grid1D(-8.0, 8.0, 81)
        report = residual_study(
            polar_eigenstate_2d(params, QuantumNumbers2D(1, 1)), Grid((axis, axis)), 0.3,
            params.mass, refinements=3, omega=params.omega,
        )
        assert 1.8 <= report.fitted_order <= 2.2


def reference_residual(solution, grid, time, mass, dt, omega=None):
    """The whole-grid residual the slab walk replaced, kept verbatim as the bit reference."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    coords = coordinates(grid)
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


SLAB_PARAMS = OscillatorParams(1.3, 0.8)


def product_eigenstate(levels):
    """Separable oscillator eigenstate in len(levels) dimensions, one 1D level per axis."""

    def psi(*args):
        *xs, t = args
        factors = zip(levels, xs)
        return math.prod(eigenstate_1d(SLAB_PARAMS, QuantumNumbers1D(n), x, t) for n, x in factors)

    return psi


def slab_case(name):
    """Solution, grid, time and omega of a residual checked slab by slab against the reference.

    Every grid's axis-0 interior is odd, so slabs of 4 rows leave a ragged last slab.
    """
    p = SLAB_PARAMS
    rect = Grid((Grid1D(-9.0, 9.0, 43), Grid1D(-7.5, 8.0, 31)))
    box = Grid((Grid1D(-6.0, 6.0, 13), Grid1D(-5.0, 5.5, 11), Grid1D(-4.0, 4.0, 9)))
    if name == "1d-free-n0":
        return lifted(p, 0), auto_grid(p, 0, 0.7, 301), 0.7, None
    if name == "1d-free-n7":
        return lifted(p, 7), auto_grid(p, 7, 1.9, 301), 1.9, None
    if name == "1d-osc-n2":
        return product_eigenstate((2,)), auto_grid(p, 2, 0.0, 301), 0.3, p.omega
    if name.startswith("2d-free"):
        qn = QuantumNumbers2D(*{"2d-free-(1,-2)": (1, -2), "2d-free-(3,4)": (3, 4)}[name])
        return lambda a, b, tau: lifted_eigenstate_2d(p, qn, a, b, tau), rect, 0.6, None
    if name == "2d-osc":
        return polar_eigenstate_2d(p, QuantumNumbers2D(1, 1)), rect, 0.3, p.omega
    if name == "3d-free":
        return lift_wavefunction(product_eigenstate((0, 1, 2)), p), box, 0.5, None
    assert name == "3d-osc"
    return product_eigenstate((1, 0, 2)), box, 0.3, p.omega


SLAB_CASES = [
    "1d-free-n0", "1d-free-n7", "1d-osc-n2", "2d-free-(1,-2)", "2d-free-(3,4)", "2d-osc",
    "3d-free", "3d-osc",
]


def set_slab_rows(monkeypatch, grid, rows):
    """Make residual walk axis 0 of grid in slabs of rows interior rows."""
    monkeypatch.setattr(analysis, "_SLAB", rows * math.prod(a.count for a in grid.axes[1:]))


class TestSlabResidual:
    @pytest.mark.parametrize("rows", [1, 4, "whole"])
    @pytest.mark.parametrize("name", SLAB_CASES)
    def test_bits_match_whole_grid_reference(self, monkeypatch, name, rows):
        solution, grid, time, omega = slab_case(name)
        interior = grid.axes[0].count - 2
        if rows == "whole":
            rows = 2 * interior  # one slab, larger than the grid
        else:
            assert rows == 1 or interior % rows != 0  # several slabs, the last ragged
        set_slab_rows(monkeypatch, grid, rows)
        dt = min(axis.spacing for axis in grid.axes)
        ref = reference_residual(solution, grid, time, SLAB_PARAMS.mass, dt, omega)
        ours = residual(solution, grid, time, SLAB_PARAMS.mass, dt, omega)
        assert ref[0] > 0.0 and all(type(x) is float for x in ours)
        assert np.array_equal(np.array(ours).view(np.uint64), np.array(ref).view(np.uint64))

    def test_memory_grows_by_one_float_per_interior_point(self, params):
        # at 401^2 and 801^2 only |resid|^2 grows with the grid; the slab
        # samples and temporaries stay about _SLAB (2^15) points each
        qn = QuantumNumbers2D(0, 1)
        solution = lambda a, b, tau: lifted_eigenstate_2d(params, qn, a, b, tau)
        base = auto_grid_2d(params, qn, 0.5, 101)
        residual(solution, base.refined(4), 0.5, params.mass, 0.05)  # untraced warm-up
        peaks = {}
        for factor in (4, 8):
            grid = base.refined(factor)
            tracemalloc.start()
            try:
                residual(solution, grid, 0.5, params.mass, grid.axes[0].spacing)
                peaks[factor] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] - peaks[4] <= 8 * (799**2 - 399**2) + 2**20

    def test_wrong_shape_raises_value_error(self):
        axis = Grid1D(-3.0, 3.0, 31)
        for grid in (axis, Grid((axis, axis))):
            with pytest.raises(ValueError, match="does not match grid shape"):
                residual(lambda *args: 0j, grid, 0.5, 1.0, 0.01)

    def test_non_finite_in_last_slab_raises(self, monkeypatch):
        grid = Grid((Grid1D(-3.0, 3.0, 31), Grid1D(-2.0, 2.0, 21)))
        set_slab_rows(monkeypatch, grid, 4)
        calls = []

        def last_row_nan(a, b, t):
            calls.append(a.shape)
            return np.where(a == 3.0, np.nan, 0.0).astype(complex)

        with pytest.raises(NonFiniteError, match="^field contains non-finite values$"):
            residual(last_row_nan, grid, 0.5, 1.0, 0.01)
        # 29 interior rows: seven clean 4-row slabs of three samples each, then
        # the first sample of the ragged 1-row slab and its two halo rows; slabs
        # run concurrently, so only the count and shapes are fixed, not the order.
        # The coordinates are sparse: y1 is one column of the slab's rows
        assert len(calls) == 3 * 7 + 1 and calls.count((1 + 2, 1)) == 1


def sample_case(dims, count):
    """Solution, grid (count nodes per axis) and time of a field sampled slab by slab."""
    p = SLAB_PARAMS
    if dims == 1:
        return lifted(p, 40), auto_grid(p, 40, 1.3, count), 1.3
    qn = QuantumNumbers2D(2, -3)
    solution = lambda a, b, tau: lifted_eigenstate_2d(p, qn, a, b, tau)
    return solution, auto_grid_2d(p, qn, 0.6, count), 0.6


def assert_sample_field_bits(dims, rows):
    """sample_field in slabs of rows rows (or the default slab) has the bits of a whole grid."""
    # the default slab is 2^15 points, so its grids are larger to span several slabs
    count = {1: 40003, 2: 301}[dims] if rows == "default" else 43
    solution, grid, time = sample_case(dims, count)
    per_row = math.prod(axis.count for axis in grid.axes[1:])
    points = analysis._SLAB if rows == "default" else rows * per_row
    slab_rows = points // per_row
    assert count > slab_rows and (slab_rows == 1 or count % slab_rows)  # last slab ragged
    ref = np.asarray(solution(*coordinates(grid), time), dtype=complex)
    with mock.patch.object(analysis, "_SLAB", points):
        field = sample_field(solution, grid, time)
    assert field.values.shape == ref.shape and field.time_label == time
    assert np.array_equal(field.values.view(np.uint64), ref.view(np.uint64))


class TestSlabSampleField:
    @pytest.mark.parametrize("rows", [1, 4, "default"])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_bits_match_whole_grid_reference(self, dims, rows):
        assert_sample_field_bits(dims, rows)

    def test_wrong_shape_raises_value_error(self):
        axis = Grid1D(-3.0, 3.0, 31)
        for grid in (axis, Grid((axis, axis))):
            with pytest.raises(ValueError, match="does not match grid shape"):
                sample_field(lambda *args: 0j, grid, 0.5)

    def test_non_finite_in_later_slab_raises(self):
        grid = Grid((Grid1D(-3.0, 3.0, 31), Grid1D(-2.0, 2.0, 21)))
        calls = []

        def last_row_inf(a, b, t):
            calls.append(a.shape)
            return np.where(a == 3.0, np.inf, 0.0).astype(complex)

        with mock.patch.object(analysis, "_SLAB", 4 * 21):
            with pytest.raises(NonFiniteError, match="^field contains non-finite values$"):
                sample_field(last_row_inf, grid, 0.5)
        # 31 rows: seven clean 4-row slabs, then the ragged 3-row slab with the inf;
        # slabs run concurrently, so calls may come in any order; y1 is sparse, one column
        assert sorted(calls, reverse=True) == [(4, 1)] * 7 + [(3, 1)]


@pytest.mark.parametrize("slab_workers", [1, 2, 3], indirect=True)
class TestSlabPool:
    """Slabs evaluated on pools of 1 to 3 workers give the bits and errors of a serial walk."""

    @pytest.fixture(autouse=True)
    def fast_switching(self):
        """Switch threads often, so that a lost or misplaced slab write would show."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(interval)

    @pytest.mark.parametrize("rows", [1, 4, "default"])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_sample_field_bits(self, slab_workers, dims, rows):
        assert_sample_field_bits(dims, rows)

    @pytest.mark.parametrize("rows", [1, 4, "default"])
    @pytest.mark.parametrize("name", ["1d-free-n7", "2d-free-(1,-2)", "3d-osc"])
    def test_residual_bits(self, slab_workers, monkeypatch, name, rows):
        solution, grid, time, omega = slab_case(name)
        if rows == "default":
            while grid.count < 3 * analysis._SLAB:  # several default slabs
                grid = grid.refined(2)
        else:
            set_slab_rows(monkeypatch, grid, rows)
        dt = min(axis.spacing for axis in grid.axes)
        ref = reference_residual(solution, grid, time, SLAB_PARAMS.mass, dt, omega)
        ours = residual(solution, grid, time, SLAB_PARAMS.mass, dt, omega)
        assert np.array_equal(np.array(ours).view(np.uint64), np.array(ref).view(np.uint64))

    def test_workers_keep_the_callers_errstate(self, slab_workers):
        # exp overflows past y = 709.78: in slabs 14 to 16 of 17
        grid = Grid1D(0.0, 800.0, 801)
        with mock.patch.object(analysis, "_SLAB", 50), np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                sample_field(lambda y, t: np.exp(y).astype(complex), grid, 0.0)

    def test_first_failing_slab_raises_and_no_slab_runs_after(self, slab_workers):
        grid = Grid1D(0.0, 39.0, 40)  # ten 4-node slabs: node y is in slab int(y) // 4
        log = []

        def solution(y, t):
            # slab 3 outlasts slab 2, and slab 5 fails first in time where it runs
            k = int(y[0]) // 4
            sleep({2: 0.05, 3: 0.1, 5: 0.0}.get(k, 0.02))
            log.append(k)
            if k in (2, 5):
                raise NonFiniteError("slab 2") if k == 2 else ValueError("slab 5")
            return np.zeros_like(y, dtype=complex)

        with mock.patch.object(analysis, "_SLAB", 4):
            with pytest.raises(NonFiniteError, match="^slab 2$"):
                sample_field(solution, grid, 0.0)
        seen = list(log)
        sleep(0.3)
        assert log == seen
        # slabs 0 to 2, and no further than two slabs per worker in flight
        assert {0, 1, 2} <= set(seen) <= set(range(2 + 2 * slab_workers))


def test_queued_slabs_hold_no_coordinates():
    """On a 1-worker pool, a slab queued behind a blocked one has built no coordinates."""
    grid = Grid1D(0.0, 39.0, 40)  # ten 4-node slabs
    started, release, built, submitted = threading.Event(), threading.Event(), [], []
    meshgrid = np.meshgrid

    def counting_meshgrid(*args, **kwargs):
        built.append(args[0][0])
        return meshgrid(*args, **kwargs)

    def solution(y, t):
        started.set()
        assert release.wait(30)  # the first slab holds the only worker
        return np.zeros_like(y, dtype=complex)

    with ThreadPoolExecutor(1) as pool:
        def submit(*args):
            submitted.append(args)
            return ThreadPoolExecutor.submit(pool, *args)

        with mock.patch.object(pool, "submit", submit), \
                mock.patch.object(analysis, "_slab_pool", lambda: (pool, 1)), \
                mock.patch.object(analysis, "_SLAB", 4), \
                mock.patch.object(np, "meshgrid", counting_meshgrid):
            caller = threading.Thread(target=sample_field, args=(solution, grid, 0.0))
            caller.start()
            try:
                deadline = monotonic() + 30
                while len(submitted) < 2 and monotonic() < deadline:
                    sleep(0.005)
                assert started.is_set() and len(submitted) == 2  # slab 1 waits in the queue
                assert built == [0.0]  # only the running slab 0 has its coordinates
            finally:
                release.set()
                caller.join(30)
    assert not caller.is_alive()
    assert built == [4.0 * k for k in range(10)]


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs, after an untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSlabMemory:
    """Guards against a slab temporary coming back: each bound sits a little above the
    traced peak measured when it was set (numpy 2.4, 2^15-point slabs)."""

    def test_lifted_1d_at_n120(self):
        # measured 52 B/pt: the Hermite recurrence runs before the complex temporaries exist
        # (80 B/pt when it ran after them)
        y = np.linspace(-25.0, 25.0, analysis._SLAB)
        peak = traced_peak(lambda: lifted_eigenstate_1d(SLAB_PARAMS, QuantumNumbers1D(120), y, 0.7))
        assert peak / y.size < 56

    @pytest.mark.parametrize("n_radial, l", [(1, -2), (3, 4)])
    def test_residual_2d_slab(self, n_radial, l):
        # one slab of a 2D residual, |resid|^2 included: measured 75 B/pt; 107 B/pt with
        # the lift's complex exp per point and the stencil's temporaries, 136 B/pt with
        # three samples held through the stencil and the 2D recurrence run after the
        # complex factors, at 2^14-point slabs
        qn = QuantumNumbers2D(n_radial, l)
        grid = auto_grid_2d(SLAB_PARAMS, qn, 0.6, math.isqrt(analysis._SLAB))
        solution = lambda a, b, tau: lifted_eigenstate_2d(SLAB_PARAMS, qn, a, b, tau)
        dt = grid.axes[0].spacing
        peak = traced_peak(lambda: residual(solution, grid, 0.6, SLAB_PARAMS.mass, dt))
        assert peak / grid.count < 110

    @pytest.mark.parametrize("dims, count", [(1, 2**18), (2, 201), (3, 33)])
    def test_spectral_propagation(self, dims, count):
        # the spectrum, one slab of the phase and half a slab of real temporaries: measured
        # 1.25 grid-sized complex arrays in 1D, and 1.96 and 1.95 in 2D and 3D, where one
        # slab holds all the half of the modes that is built; 2.0 in any dimension with a
        # grid-sized phase, 3.5 when the phase took several temporaries and fftn one per axis
        if dims == 1:
            grid = auto_grid(SLAB_PARAMS, 60, 0.4, count)
            field, tau = sample_field(lifted(SLAB_PARAMS, 60), grid, 0.0), 0.4
        else:
            field, tau = spectral_case(dims, count)
        peak = traced_peak(lambda: spectral_propagate_free(field, tau, SLAB_PARAMS.mass))
        assert peak / field.values.nbytes < (1.4 if dims == 1 else 2.1)


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports oscfree from this checkout."""
    src = Path(analysis.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-W", "ignore::DeprecationWarning", "-c", code],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )


SLAB_SCRIPT = """
import os, sys, time
import numpy as np
from oscfree import analysis
from oscfree.analysis import Grid1D, sample_field
analysis._SLAB = 4
grid = Grid1D(-1.0, 1.0, 41)
ones = lambda y, t: np.ones_like(y, dtype=complex)
"""


def test_nested_sample_field_does_not_deadlock():
    # every worker of a full pool runs an outer slab, so inner slabs must not wait for one
    code = SLAB_SCRIPT + """
def outer(y, t):
    return np.full_like(y, sample_field(ones, grid, t).values.sum(), dtype=complex)
sys.exit(0 if (sample_field(outer, grid, 0.0).values == 41).all() else 1)
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_evaluates_slabs():
    # the child inherits the pool object but none of its threads
    code = SLAB_SCRIPT + """
sample_field(ones, grid, 0.0)
pid = os.fork()
if pid == 0:
    os._exit(0 if (sample_field(ones, grid, 0.0).values == 1).all() else 1)
deadline = time.monotonic() + 30
while not (status := os.waitpid(pid, os.WNOHANG))[0]:
    if time.monotonic() > deadline:
        os.kill(pid, 9)
        sys.exit("forked child hung")
    time.sleep(0.01)
sys.exit(os.waitstatus_to_exitcode(status[1]))
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


class TestConvergenceOrder:
    def test_exact_quadratic(self):
        assert convergence_order([(0.1, 1e-2), (0.05, 2.5e-3)]) == pytest.approx(2.0)

    def test_exact_linear(self):
        assert convergence_order([(0.1, 1e-3), (0.05, 5e-4)]) == pytest.approx(1.0)

    def test_synthetic_three_point(self):
        h = np.array([0.2, 0.1, 0.05])
        pairs = list(zip(h, 3.7 * h**2))
        assert convergence_order(pairs) == pytest.approx(2.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_order([(0.1, 1e-2)])
        with pytest.raises(ValueError):
            convergence_order([(0.05, 1e-2), (0.1, 1e-3)])
        with pytest.raises(ValueError):
            convergence_order([(0.1, 1e-2), (0.05, 0.0)])

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ResidualReport([0.1], [1e-2], [1e-2], 2.0)
        with pytest.raises(ValueError):
            ResidualReport([0.1, 0.2], [1e-2, 1e-3], [1e-2, 1e-3], 2.0)

    @pytest.mark.parametrize("refinements", [0, 1, -2])
    def test_study_needs_two_refinements(self, refinements):
        def solution(*args):
            raise AssertionError("no grid may be sampled")

        with pytest.raises(ValueError, match=f"need at least 2 refinements, got {refinements}"):
            residual_study(solution, Grid1D(-5.0, 5.0, 101), 0.5, 1.0, refinements)


def reference_propagate_1d(field, tau, m):
    """The 1D-only propagator the N-axis one replaced, its spectrum * phase product written
    in real arithmetic, kept as a bit-level reference."""
    k = 2.0 * math.pi * np.fft.fftfreq(field.grid.count, d=field.grid.spacing)
    s, p = np.fft.fft(field.values), np.exp(-0.5j * k**2 * tau / m)
    out = np.empty_like(s)
    out.real, out.imag = s.real * p.real - s.imag * p.imag, s.imag * p.real + s.real * p.imag
    return np.fft.ifft(out)


def reference_propagate(field, tau, m):
    """spectral_propagate_free's transform as one expression, the bit reference on any grid:
    spectrum * phase with the complex product written in real arithmetic."""
    k_sq = [(2.0 * math.pi * np.fft.fftfreq(a.count, d=a.spacing)) ** 2 for a in field.grid.axes]
    k_sq = functools.reduce(np.add, np.meshgrid(*k_sq, indexing="ij", sparse=True, copy=False))
    s, p = np.fft.fftn(field.values), np.exp(-0.5j * k_sq * tau / m)
    out = np.empty_like(s)
    out.real, out.imag = s.real * p.real - s.imag * p.imag, s.imag * p.real + s.real * p.imag
    return np.fft.ifftn(out)


def spectral_case(dims, count):
    """A field that decays to the edges of a grid of dims axes (counts from count up), and tau.

    In 2D, axis 1 has 5 nodes more than axis 0, so an odd count gives an odd x even grid.
    """
    p, tau = SLAB_PARAMS, 0.9
    if dims == 1:
        grid, solution = auto_grid(p, 60, tau, count), lifted(p, 60)
    elif dims == 2:
        qn = QuantumNumbers2D(1, -2)
        grid = auto_grid_2d(p, qn, tau, count)
        grid = Grid((grid.axes[0], Grid1D(grid.axes[1].y_min, grid.axes[1].y_max, count + 5)))
        solution = lambda a, b, t: lifted_eigenstate_2d(p, qn, a, b, t)
    else:
        grid = Grid(tuple(auto_grid(p, n, tau, count + 3 * n) for n in (0, 1, 2)))
        solution = lift_wavefunction(product_eigenstate((0, 1, 2)), p)
    return sample_field(solution, grid, 0.0), tau


class TestSpectralPropagation:
    @pytest.mark.parametrize("dims, count", [(2, 3), (2, 128), (2, 201), (3, 24), (3, 33)])
    def test_bits_match_reference(self, dims, count):
        field, tau = spectral_case(dims, count)
        out = spectral_propagate_free(field, tau, SLAB_PARAMS.mass).values
        assert out.tobytes() == reference_propagate(field, tau, SLAB_PARAMS.mass).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("dims, count", [(1, 4), (1, 4001), (2, 3), (2, 201), (3, 33)])
    def test_bits_do_not_depend_on_the_slab(self, monkeypatch, dims, count, rows):
        # the phase is built and multiplied in slabs of rows axis-0 modes, halved for the
        # products (by columns, for one row), and the mirror rows cut differently from these
        field, tau = spectral_case(dims, count)
        default = spectral_propagate_free(field, tau, SLAB_PARAMS.mass).values
        set_slab_rows(monkeypatch, field.grid, rows)
        out = spectral_propagate_free(field, tau, SLAB_PARAMS.mass).values
        assert out.tobytes() == default.tobytes()

    def test_fortran_ordered_values_give_the_same_bits(self):
        # the phase is multiplied into (rows, columns) views of the spectrum, which must be
        # C-ordered whatever the order of the samples
        field, tau = spectral_case(3, 24)
        flipped = ComplexField(field.grid, np.asfortranarray(field.values), 0.0)
        out = spectral_propagate_free(flipped, tau, SLAB_PARAMS.mass).values
        reference = spectral_propagate_free(field, tau, SLAB_PARAMS.mass).values
        assert out.tobytes() == reference.tobytes()

    def test_identity_at_tau_zero(self, params):
        grid = auto_grid(params, 2, 0.0, 1001)
        field = sample_field(lifted(params, 2), grid, 0.0)
        out = spectral_propagate_free(field, 0.0, 1.0)
        assert np.abs(out.values - field.values).max() < 1e-14

    def test_single_mode_picks_up_phase(self):
        # a resolved periodic mode is an eigenvector of the propagator; a negative mode sits
        # in the half of the phase copied from its mirror
        for count, mode in [(257, 5), (257, -7), (256, 5), (256, -7)]:
            grid = Grid1D(-math.pi, math.pi, count)
            length = grid.spacing * grid.count
            k = 2.0 * math.pi * mode / length
            values = np.exp(1j * k * grid.nodes)
            # oscfree's own phase, applied directly: a plane wave is its own periodic
            # extension, which the decay check of spectral_propagate_free rejects
            spectrum = np.fft.fft(values)
            analysis._free_phase(spectrum, grid.axes, 0.8, 1.3)
            out = np.fft.ifft(spectrum)
            expected = values * np.exp(-0.5j * k**2 * 0.8 / 1.3)
            assert np.abs(out - expected).max() < 1e-12
            assert np.abs(np.abs(out) - 1.0).max() < 1e-12

    def test_matches_closed_form(self, params):
        grid = Grid1D(-20.0, 20.0, 801)
        initial = sample_field(lifted(params, 2), grid, 0.0)
        out = spectral_propagate_free(initial, 1.0, 1.0)
        closed = lifted_eigenstate_1d(params, QuantumNumbers1D(2), grid.nodes, 1.0)
        l2 = math.sqrt(simpson(np.abs(out.values - closed) ** 2, x=grid.nodes))
        assert l2 < 1e-6
        assert out.time_label == 1.0

    def test_matches_direct_dft_oracle(self):
        # independent O(N^2) transform, same propagator semantics
        grid = Grid1D(-8.0, 8.0, 128)
        values = np.exp(-grid.nodes**2) * np.exp(0.3j * grid.nodes)
        field = ComplexField(grid, values, 0.0)
        out = spectral_propagate_free(field, 0.6, 1.3)

        n = grid.count
        j = np.arange(n)
        dft = np.exp(-2j * math.pi * np.outer(j, j) / n) @ values
        k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.spacing)
        back = np.exp(2j * math.pi * np.outer(j, j) / n) @ (
            dft * np.exp(-0.5j * k**2 * 0.6 / 1.3)
        ) / n
        assert np.abs(out.values - back).max() < 1e-10

    @pytest.mark.parametrize("count", [3, 4, 5, 4000, 4001, 2**18])
    @pytest.mark.parametrize("n, tau", [(2, 1.5), (3, -0.7), (60, 0.4)])
    def test_1d_bits_match_reference(self, count, n, tau):
        params = OscillatorParams(1.3, 0.8)
        grid = auto_grid(params, n, tau, count)
        field = sample_field(lifted(params, n), grid, 0.0)
        if count == 3 and n % 2:
            # an odd level is 0 at the middle of 3 nodes, so its edges are its peak
            with pytest.raises(BoundaryDecayError):
                spectral_propagate_free(field, tau, params.mass)
            return
        out = spectral_propagate_free(field, tau, params.mass).values
        assert out.tobytes() == reference_propagate_1d(field, tau, params.mass).tobytes()

    def test_matches_direct_dft_oracle_2d(self):
        # unequal counts and spacings pin which axis each k_a^2 belongs to
        grid = Grid((Grid1D(-8.0, 8.0, 16), Grid1D(-5.0, 6.0, 12)))
        y1, y2 = coordinates(grid)
        values = np.exp(-(y1**2) - 1.5 * (y2 - 0.5) ** 2 + 0.3j * y1 - 0.7j * y2)
        out = spectral_propagate_free(ComplexField(grid, values, 0.0), 0.6, 1.3)

        def dft(n, sign):
            j = np.arange(n)
            return np.exp(sign * 2j * math.pi * np.outer(j, j) / n)

        (n1, n2), (a1, a2) = values.shape, grid.axes
        k1 = 2.0 * math.pi * np.fft.fftfreq(n1, d=a1.spacing)
        k2 = 2.0 * math.pi * np.fft.fftfreq(n2, d=a2.spacing)
        modes = dft(n1, -1) @ values @ dft(n2, -1).T
        phase = np.exp(-0.5j * (k1[:, None] ** 2 + k2[None, :] ** 2) * 0.6 / 1.3)
        back = dft(n1, 1) @ (modes * phase) @ dft(n2, 1).T / (n1 * n2)
        assert np.abs(out.values - back).max() < 1e-10

    def test_separable_3d_lift(self):
        # a product of 1D levels solves the 3D oscillator, so its lift is a free 3D solution
        params, levels, tau = OscillatorParams(1.3, 0.8), (0, 1, 2), 0.5

        def psi(x1, x2, x3, t):
            factors = zip(levels, (x1, x2, x3))
            return math.prod(eigenstate_1d(params, QuantumNumbers1D(n), x, t) for n, x in factors)

        chi = lift_wavefunction(psi, params)
        grid = Grid(tuple(auto_grid(params, n, tau, 65) for n in levels))
        closed = sample_field(chi, grid, tau)
        out = spectral_propagate_free(sample_field(chi, grid, 0.0), tau, params.mass)
        assert abs(norm(closed) - 1.0) < 1e-12
        assert abs(norm(out) - 1.0) < 1e-12
        assert math.sqrt(norm(ComplexField(grid, out.values - closed.values, tau))) < 1e-10

    def test_boundary_decay_enforced(self, params):
        grid = Grid1D(-2.0, 2.0, 101)
        field = sample_field(lifted(params, 2), grid, 0.0)
        with pytest.raises(BoundaryDecayError):
            spectral_propagate_free(field, 1.0, 1.0)

    @pytest.mark.parametrize("decaying", [0, 1])
    def test_boundary_decay_enforced_on_every_axis(self, decaying):
        # decays along one axis only: the other axis's edge slabs carry the peak
        axis = Grid1D(-8.0, 8.0, 33)
        grid = Grid((axis, axis))
        values = np.exp(-coordinates(grid)[decaying] ** 2).astype(complex)
        with pytest.raises(BoundaryDecayError):
            spectral_propagate_free(ComplexField(grid, values, 0.0), 1.0, 1.0)
        both = values * values.T
        spectral_propagate_free(ComplexField(grid, both, 0.0), 1.0, 1.0)

    def test_zero_field_passes_through(self):
        grid = Grid1D(-2.0, 2.0, 101)
        field = ComplexField(grid, np.zeros(101, dtype=complex), 0.0)
        out = spectral_propagate_free(field, 1.0, 1.0)
        assert np.abs(out.values).max() < 1e-15


class TestNormsAndExpectations:
    def test_ground_state_norm(self, params):
        grid = Grid1D(-12.0, 12.0, 2001)
        field = sample_field(lifted(params, 0), grid, 0.0)
        assert norm(field) == pytest.approx(1.0, abs=1e-10)

    def test_norm_preserved_at_late_tau(self, params):
        scale = math.sqrt(10.0)
        grid = Grid1D(-12.0 * scale, 12.0 * scale, 2001)
        field = sample_field(lifted(params, 0), grid, 3.0)
        assert norm(field) == pytest.approx(1.0, abs=1e-8)

    def test_norm_2d(self, params):
        qn = QuantumNumbers2D(0, 2)
        axis = Grid1D(-14.0, 14.0, 1001)
        field = sample_field(
            lambda a, b, tau: lifted_eigenstate_2d(params, qn, a, b, tau), Grid((axis, axis)), 0.0
        )
        assert norm(field) == pytest.approx(1.0, abs=1e-9)

    def test_zero_field_norm(self):
        grid = Grid1D(-1.0, 1.0, 11)
        assert norm(ComplexField(grid, np.zeros(11, dtype=complex), 0.0)) == 0.0

    # the unit-norm fields of acceptance criterion C06, with Simpson as the oracle
    @pytest.mark.parametrize("tau", [0.0, 3.0])
    def test_matches_simpson_1d(self, params, tau):
        for n in range(11):
            field = sample_field(lifted(params, n), auto_grid(params, n, tau, 20001), tau)
            oracle = simpson(field.density(), x=field.grid.nodes)
            assert abs(norm(field) - oracle) < 1e-12, n

    @pytest.mark.parametrize("tau", [0.0, 3.0])
    def test_matches_simpson_2d(self, params, tau):
        for l in range(4):
            qn = QuantumNumbers2D(0, l)
            grid = auto_grid_2d(params, qn, tau, 1201)
            field = sample_field(
                lambda a, b, s: lifted_eigenstate_2d(params, qn, a, b, s), grid, tau
            )
            oracle = simpson(simpson(field.density(), x=grid.axes[1].nodes), x=grid.axes[0].nodes)
            assert abs(norm(field) - oracle) < 1e-12, l

    # the end nodes carry half weight; a bare cell-times-sum would count them fully
    def test_constant_field_gives_length_or_area(self):
        c = 1.7 - 0.4j
        line = Grid1D(-1.3, 2.9, 7)
        field = ComplexField(line, np.full(7, c), 0.0)
        assert norm(field) == pytest.approx(abs(c) ** 2 * 4.2, rel=1e-14)
        plane = Grid((line, Grid1D(0.5, 3.0, 11)))
        field = ComplexField(plane, np.full((7, 11), c), 0.0)
        assert norm(field) == pytest.approx(abs(c) ** 2 * 4.2 * 2.5, rel=1e-14)

    def test_parity_gives_zero_expectation(self, params):
        for n in (0, 3):
            for tau in (0.0, 1.5):
                grid = auto_grid(params, n, tau, 8001)
                field = sample_field(lifted(params, n), grid, tau)
                assert abs(expectation_position(field)) < 1e-10

    def test_translated_gaussian(self):
        a = 1.7
        grid = Grid1D(a - 10.0, a + 10.0, 4001)
        values = math.pi**-0.25 * np.exp(-0.5 * (grid.nodes - a) ** 2)
        field = ComplexField(grid, values.astype(complex), 0.0)
        assert expectation_position(field) == pytest.approx(a, abs=1e-8)

    def test_norm_precondition(self, params):
        grid = Grid1D(-12.0, 12.0, 2001)
        field = sample_field(lambda y, t: 2.0 * lifted(params, 0)(y, t), grid, 0.0)
        with pytest.raises(NormalizationError):
            expectation_position(field)

    def test_superposition_center_moves_affinely(self, params):
        # equal-weight mix of the two lowest levels; free motion keeps
        # <y> affine in tau (here constant: the initial mean momentum is zero)
        qn0, qn1 = QuantumNumbers1D(0), QuantumNumbers1D(1)

        def mix(y, tau):
            return (
                lifted_eigenstate_1d(params, qn0, y, tau)
                + lifted_eigenstate_1d(params, qn1, y, tau)
            ) / math.sqrt(2.0)

        taus = [0.0, 0.5, 1.0, 1.5, 2.0]
        means = []
        for tau in taus:
            grid = auto_grid(params, 1, tau, 8001)
            means.append(expectation_position(sample_field(mix, grid, tau)))
        second = [means[i - 1] - 2.0 * means[i] + means[i + 1] for i in range(1, len(means) - 1)]
        assert max(abs(s) for s in second) < 1e-6
        # <x> of (psi_0 + psi_1)/sqrt(2) is 1/sqrt(2 m omega)
        assert means[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)

    def test_imaginary_mix_moves_linearly(self, params):
        # (psi_0 + i psi_1)/sqrt(2) carries momentum sqrt(m omega / 2):
        # <y>(tau) = <p> tau / m, a genuinely sloped line
        qn0, qn1 = QuantumNumbers1D(0), QuantumNumbers1D(1)

        def mix(y, tau):
            return (
                lifted_eigenstate_1d(params, qn0, y, tau)
                + 1j * lifted_eigenstate_1d(params, qn1, y, tau)
            ) / math.sqrt(2.0)

        taus = [0.0, 0.5, 1.0, 1.5, 2.0]
        means = []
        for tau in taus:
            grid = auto_grid(params, 1, tau, 8001)
            means.append(expectation_position(sample_field(mix, grid, tau)))
        slope = math.sqrt(0.5)
        for tau, mean in zip(taus, means):
            assert mean == pytest.approx(slope * tau, abs=1e-7)


class TestDensityScaling:
    def test_identity_at_tau_zero(self, params):
        grid = auto_grid(params, 3, 0.0, 2001)
        assert density_scaling_check(params, 3, 0.0, grid) < 1e-15

    def test_machine_level_at_tau_one(self, params):
        grid = Grid1D(-15.0, 15.0, 4001)
        assert density_scaling_check(params, 2, 1.0, grid) < 1e-12

    def test_machine_level_far_out(self, params):
        grid = auto_grid(params, 5, 4.0, 4001)
        assert density_scaling_check(params, 5, 4.0, grid) < 1e-12

    # measured 1.9e-14 to 2.8e-14; 0.15 at n = 120 and 150 while density_1d underflowed
    @pytest.mark.parametrize("n", [120, 150, 500])
    def test_machine_level_at_high_levels(self, params, n):
        grid = auto_grid(params, n, 0.7, 40001)
        assert density_scaling_check(params, n, 0.7, grid) < 1e-12


class TestOneAxisGrid:
    """A one-axis Grid is a 1D grid for the 1D analysis functions; more axes are a ValueError."""

    def test_matches_grid1d(self, params):
        axis = auto_grid(params, 3, 1.2, 4001)
        line, wrapped = (sample_field(lifted(params, 3), g, 1.2) for g in (axis, Grid((axis,))))
        assert find_density_maxima(wrapped) == find_density_maxima(line)
        assert expectation_position(wrapped).hex() == expectation_position(line).hex()
        gaps = [density_scaling_check(params, 3, 1.2, g).hex() for g in (axis, Grid((axis,)))]
        assert gaps[0] == gaps[1]
        assert Grid((axis,)).count == axis.count == 4001

    def test_two_axis_grid_raises(self, params):
        qn = QuantumNumbers2D(0, 1)
        grid = Grid((Grid1D(-8.0, 8.0, 101), Grid1D(-6.0, 6.0, 81)))
        assert grid.count == 101 * 81
        field = sample_field(lambda a, b, t: lifted_eigenstate_2d(params, qn, a, b, t), grid, 0.0)
        with pytest.raises(ValueError, match="one-axis grid, got 2 axes"):
            find_density_maxima(field)
        with pytest.raises(ValueError, match="one-axis grid, got 2 axes"):
            expectation_position(field)
        with pytest.raises(ValueError, match="one-axis grid, got 2 axes"):
            density_scaling_check(params, 1, 0.0, grid)


def reference_peaks(field):
    """Positions, heights and widths of the density maxima, one peak and one node at a time.

    The per-peak refinement and the node-by-node half-maximum walks that
    find_density_maxima replaced, kept as its bit-exact reference.
    """
    d = field.density()
    dmax = float(d.max())
    if dmax == 0.0:
        raise PeakDetectionError("flat zero field has no maxima")
    floor = 1e-12 * dmax
    idx = np.nonzero((d[1:-1] > d[:-2]) & (d[1:-1] > d[2:]) & (d[1:-1] > floor))[0] + 1
    if idx.size == 0:
        raise PeakDetectionError("no interior density maxima found")
    h = field.grid.spacing
    y = field.grid.nodes
    positions, heights = [], []
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
    widths = []
    node_idx = [int(round((p - field.grid.y_min) / h)) for p in positions]
    for k, (j, height) in enumerate(zip(node_idx, heights)):
        half = 0.5 * height
        lo_limit = node_idx[k - 1] if k > 0 else 0
        hi_limit = node_idx[k + 1] if k + 1 < len(node_idx) else len(d) - 1
        i = j
        while i > lo_limit and d[i] >= half:
            i -= 1
        if d[i] >= half:
            raise PeakDetectionError(f"no left half-maximum crossing for peak at {positions[k]}")
        left = y[i] + h * (half - d[i]) / (d[i + 1] - d[i])
        i = j
        while i < hi_limit and d[i] >= half:
            i += 1
        if d[i] >= half:
            raise PeakDetectionError(f"no right half-maximum crossing for peak at {positions[k]}")
        right = y[i - 1] + h * (half - d[i - 1]) / (d[i] - d[i - 1])
        widths.append(float(right - left))
    return positions, heights, widths


class TestPeaks:
    def test_single_gaussian_peak(self, params):
        for tau in (0.0, 2.0):
            grid = auto_grid(params, 0, tau, 8001)
            field = sample_field(lifted(params, 0), grid, tau)
            record = find_density_maxima(field)
            assert len(record.positions) == 1
            assert abs(record.positions[0]) < 1e-12

    def test_three_peaks_of_second_level(self, params):
        grid = auto_grid(params, 2, 0.0, 32001)
        field = sample_field(lifted(params, 2), grid, 0.0)
        record = find_density_maxima(field)
        assert len(record.positions) == 3
        outer = math.sqrt(2.5)  # maxima of (4x^2-2)^2 e^{-x^2} sit at 0, +-sqrt(5/2)
        assert record.positions[0] == pytest.approx(-outer, abs=1e-6)
        assert record.positions[1] == pytest.approx(0.0, abs=1e-12)
        assert record.positions[2] == pytest.approx(outer, abs=1e-6)

    def test_peaks_stretch_with_tau(self, params):
        grid = auto_grid(params, 2, 1.0, 32001)
        field = sample_field(lifted(params, 2), grid, 1.0)
        record = find_density_maxima(field)
        assert record.positions[2] == pytest.approx(math.sqrt(2.5) * math.sqrt(2.0), rel=1e-6)

    def test_zero_field_rejected(self):
        grid = Grid1D(-1.0, 1.0, 11)
        field = ComplexField(grid, np.zeros(11, dtype=complex), 0.0)
        with pytest.raises(PeakDetectionError):
            find_density_maxima(field)

    def test_too_close_peaks_rejected(self):
        # alternating samples put strict maxima two nodes apart, under the
        # three-spacing separation floor
        grid = Grid1D(-1.0, 1.0, 11)
        values = (np.arange(11) % 2).astype(complex)
        field = ComplexField(grid, values, 0.0)
        with pytest.raises(PeakDetectionError):
            find_density_maxima(field)

    def test_gaussian_fwhm(self, params):
        grid = auto_grid(params, 0, 0.0, 32001)
        field = sample_field(lifted(params, 0), grid, 0.0)
        record = find_density_maxima(field)
        assert record.widths[0] == pytest.approx(FWHM_GAUSSIAN, abs=1e-6)

    def test_fwhm_broadens_with_tau(self, params):
        stretch = math.sqrt(1.0 + 4.0)
        grid = auto_grid(params, 0, 2.0, 32001)
        field = sample_field(lifted(params, 0), grid, 2.0)
        widths = find_density_maxima(field).widths
        assert widths[0] == pytest.approx(FWHM_GAUSSIAN * stretch, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 40),
        tau=st.floats(-5.0, 5.0),
        count=st.integers(200, 20001),
    )
    def test_matches_per_peak_reference(self, n, tau, count):
        params = OscillatorParams(1.0, 1.0)
        field = sample_field(lifted(params, n), auto_grid(params, n, tau, count), tau)
        try:
            expected = reference_peaks(field)
        except PeakDetectionError as exc:
            with pytest.raises(PeakDetectionError, match=re.escape(str(exc))):
                find_density_maxima(field)
            return
        record = find_density_maxima(field)
        assert (record.positions, record.heights, record.widths) == expected

    # the scan of the sampled lift finds the exact rows to its grid's resolution: measured up
    # to 7.2e-4 grid spacings in position, 5.4e-8 in height and 1.0e-6 in width, relative,
    # on 40001 nodes for n up to 150, as perfbench's semiclassical gap
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 150),
        mass=st.floats(0.5, 2.0),
        omega=st.floats(0.5, 2.0),
        tau=st.floats(-5.0, 5.0),
    )
    def test_exact_peaks_match_the_scan(self, n, mass, omega, tau):
        params = OscillatorParams(mass, omega)
        grid = auto_grid(params, n, tau, 40001)
        record = find_density_maxima(sample_field(lifted(params, n), grid, tau))
        ((_, positions, heights, widths),) = analysis._exact_peaks(params, n, [tau])
        assert len(record.positions) == n + 1
        assert np.max(np.abs(record.positions - positions)) < 1e-3 * grid.spacing
        assert np.max(np.abs(record.heights / heights - 1)) < 1e-7
        assert np.max(np.abs(record.widths / widths - 1)) < 2e-6

    # at n = 1000 the Hermite recurrence rescales, each point by its own limit; the scan
    # still finds the exact rows, measured to 4.5e-4 grid spacings in position, 1.6e-7 in
    # height and 2.4e-6 in width, relative
    @pytest.mark.parametrize("tau", [0.0, 0.7])
    def test_exact_peaks_match_the_scan_at_n1000(self, tau):
        params = OscillatorParams(1.0, 1.0)
        grid = auto_grid(params, 1000, tau, 160001)
        record = find_density_maxima(sample_field(lifted(params, 1000), grid, tau))
        ((_, positions, heights, widths),) = analysis._exact_peaks(params, 1000, [tau])
        assert len(record.positions) == 1001
        assert np.max(np.abs(record.positions - positions)) < 5e-4 * grid.spacing
        assert np.max(np.abs(record.heights / heights - 1)) < 2e-7
        assert np.max(np.abs(record.widths / widths - 1)) < 3e-6

    # perfbench peaks-highn draws mass and omega from [0.8, 1.25] and taus from [0, 2]; its
    # rows and gaps come from level_extrema, with no grid sampled whatever the count
    @pytest.mark.parametrize("mass, omega", [(0.8, 0.8), (0.8, 1.25), (1.25, 0.8), (1.25, 1.25)])
    def test_perfbench_inputs_are_not_scanned(self, mass, omega, monkeypatch):
        def built(*_):
            raise AssertionError("a grid was sampled")

        monkeypatch.setattr(analysis, "sample_field", built)
        monkeypatch.setattr(analysis.Grid1D, "nodes", property(built))
        params = OscillatorParams(mass, omega)
        for n, taus in ((40, np.linspace(0, 2, 9)), (120, [0.0, 1.0, 2.0])):
            rows = list(analysis._exact_peaks(params, n, taus))
            assert len(rows) == len(taus)
            assert all(np.all(np.isfinite(block)) for _, *blocks in rows for block in blocks)
        gaps = semiclassical_gap(params, [10, 40, 80, 120, 150], count=100001)
        assert gaps == semiclassical_gap(params, [10, 40, 80, 120, 150])
        assert len(gaps) == 5

    # densities on 11 nodes: a maximum at node 2 whose left flank stays above
    # half height to the grid end, its mirror image, and two maxima four
    # nodes apart with no half-height dip between them
    @pytest.mark.parametrize(
        "density, side",
        [
            ([0.8, 0.9, 1.0, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "left"),
            ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.3, 1.0, 0.9, 0.8], "right"),
            ([0.0, 0.1, 1.0, 0.8, 0.7, 0.8, 1.0, 0.1, 0.0, 0.0, 0.0], "right"),
        ],
        ids=["left-off-grid", "right-off-grid", "into-neighbour"],
    )
    def test_crossing_failures(self, density, side):
        field = ComplexField(Grid1D(-1.0, 1.0, 11), np.sqrt(density).astype(complex), 0.0)
        message = f"no {side} half-maximum crossing"
        with pytest.raises(PeakDetectionError, match=message):
            reference_peaks(field)
        with pytest.raises(PeakDetectionError, match=message):
            find_density_maxima(field)


class TestLevelExtrema:
    def test_ground_state(self):
        maxima, left, right = level_extrema(0)
        half = math.sqrt(math.log(2.0))  # exp(-xi^2) halves there
        assert maxima.tolist() == [0.0]
        assert left[0] == pytest.approx(-half, abs=1e-15)
        assert right[0] == pytest.approx(half, abs=1e-15)

    # measured up to 1.8e-15 in xi, 1.5e-14 off the half ratio, and in _exact_peaks's rows
    # (these points stretched, with the heights of the lift at tau = 0) 2.1e-16 in position
    # and 9.1e-14 in height, at n = 150; n = 120 is perfbench's peaks level
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 40, 80, 120, 150])
    def test_against_mpmath(self, n):
        params = OscillatorParams(1.1, 0.93)
        maxima, left, right = level_extrema(n)
        rows = list(analysis._exact_peaks(params, n, [0.0, 1.3]))
        log_slope = lambda x: 2 * n * mpmath.hermite(n - 1, x) / mpmath.hermite(n, x) - x
        rho = lambda x: mpmath.hermite(n, x) ** 2 * mpmath.exp(-x * x)
        with mpmath.workdps(40):
            mw = mpmath.mpf(params.mass) * mpmath.mpf(params.omega)
            norm_sq = mpmath.sqrt(mw / mpmath.pi) / (2**n * mpmath.factorial(n))
            for k, (x_max, x_left, x_right) in enumerate(zip(maxima, left, right)):
                root = mpmath.findroot(log_slope, mpmath.mpf(float(x_max)))
                assert abs(float(root) - x_max) < 4e-15
                for x in (x_left, x_right):
                    assert abs(float(rho(mpmath.mpf(float(x))) / rho(root)) - 0.5) < 3e-14
                width = mpmath.mpf(float(x_right)) - mpmath.mpf(float(x_left))
                for tau, positions, heights, widths in rows:
                    s = mpmath.sqrt(1 + (mpmath.mpf(params.omega) * tau) ** 2)
                    scale = s / mpmath.sqrt(mw)
                    assert abs(positions[k] - root * scale) <= 1e-14 * abs(root * scale)
                    assert abs(heights[k] / (norm_sq * rho(root) / s) - 1) < 2e-13
                    assert abs(widths[k] / (width * scale) - 1) < 2e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 150])
    def test_interlaces_with_the_zeros(self, n):
        maxima, left, right = level_extrema(n)
        zeros, _ = np.polynomial.hermite.hermgauss(n)
        outer = math.sqrt(2 * n + 1) + 1.0
        below = np.append(-outer, zeros)
        above = np.append(zeros, outer)
        assert np.all((below < left) & (left < maxima) & (maxima < right) & (right < above))

    @pytest.mark.parametrize("n", [500, 2000])
    def test_high_levels(self, n):
        maxima, left, right = level_extrema(n)
        assert maxima.shape == left.shape == right.shape == (n + 1,)
        assert np.all(np.isfinite(maxima)) and np.all(np.diff(maxima) > 0)
        assert np.all((left < maxima) & (maxima < right))
        # rho_n is even, and the points at xi < 0 are those at xi > 0 mirrored
        assert np.array_equal(maxima, -maxima[::-1])
        assert np.array_equal(left, -right[::-1])

    # one Hermite recurrence per call: Newton steps run on its Taylor tables
    @pytest.mark.parametrize("n", [0, 1, 40, 150, 2000])
    def test_runs_one_recurrence(self, n):
        with mock.patch.object(analysis, "hermite_scaled", wraps=analysis.hermite_scaled) as spy:
            level_extrema(n)
        assert spy.call_count == 1

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match="nonnegative"):
            level_extrema(-1)

    def test_rejects_levels_past_the_cap(self):
        with mock.patch.object(analysis, "hermite_scaled", side_effect=AssertionError("ran")):
            with pytest.raises(ValueError, match=f"at most {MAX_LEVEL_1D}"):
                level_extrema(MAX_LEVEL_1D + 1)


class TestPeakLaw:
    def test_symmetric_singlet_stays_put(self, params):
        report = peak_trajectory_check(params, 0, [0.0, 1.0, 3.0], count=8001)
        assert report.peak_count == 1
        assert report.max_position_rel_error < 1e-10

    def test_doublet_scales_exactly(self, params):
        report = peak_trajectory_check(params, 1, [0.0, math.sqrt(3.0)], count=16001)
        assert report.peak_count == 2
        assert report.max_position_rel_error < 1e-6
        assert report.max_fwhm_rel_error < 1e-4

    def test_sextet_full_sweep(self, params):
        report = peak_trajectory_check(params, 5, [0.0, 1.0, 2.0], count=16001)
        assert report.peak_count == 6
        assert report.max_position_rel_error < 1e-6
        assert report.max_fwhm_rel_error < 1e-4

    def test_outer_peaks_double_at_sqrt_three(self, params):
        # sqrt(1 + 3) = 2: every peak coordinate exactly doubles
        sol = lifted(params, 2)
        base = find_density_maxima(
            sample_field(sol, auto_grid(params, 2, 0.0, 16001), 0.0)
        )
        late = find_density_maxima(
            sample_field(sol, auto_grid(params, 2, math.sqrt(3.0), 16001), math.sqrt(3.0))
        )
        for p0, p in zip(base.positions, late.positions):
            assert p == pytest.approx(2.0 * p0, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("n", range(11))
    def test_count_stable_under_stretching(self, params, n):
        report = peak_trajectory_check(params, n, [0.0, 1.5, 4.0], count=16001)
        assert report.peak_count == n + 1

    # grids too coarse to resolve every maximum of the level
    @pytest.mark.parametrize(
        "n, taus, count, found", [(6, [0.0, 1.0], 41, 3), (2, [0.0], 3, 1)]
    )
    def test_missing_maxima_raise(self, params, n, taus, count, found):
        message = f"level {n} has {n + 1} density maxima, found {found} at tau=0.0 on {count} nodes"
        with pytest.raises(PeakDetectionError, match=re.escape(message)):
            peak_trajectory_check(params, n, taus, count=count)

    def test_requires_baseline(self, params):
        with pytest.raises(ValueError):
            peak_trajectory_check(params, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            peak_trajectory_check(params, 2, [])

    def test_law_on_fixed_grid(self, params):
        # same check without the proportional auto-grid, so detection
        # biases do not cancel between times
        grid = Grid1D(-40.0, 40.0, 64001)
        qn = QuantumNumbers1D(2)
        sol = lambda y, tau: lifted_eigenstate_1d(params, qn, y, tau)
        base = find_density_maxima(sample_field(sol, grid, 0.0))
        for tau in (1.0, 2.0):
            rec = find_density_maxima(sample_field(sol, grid, tau))
            stretch = math.sqrt(1.0 + tau**2)
            for p0, p in zip(base.positions, rec.positions):
                assert abs(p - p0 * stretch) / max(abs(p0 * stretch), stretch) < 1e-6


class TestSemiclassicalGap:
    def test_gaps_positive_and_decreasing(self, params):
        gaps = semiclassical_gap(params, [2, 10, 40], count=16001)
        values = [g for _, g in gaps]
        assert all(v > 0 for v in values)
        assert values[0] > values[1] > values[2]

    def test_gaps_positive_and_decreasing_to_n_1000(self, params):
        values = [g for _, g in semiclassical_gap(params, [150, 203, 250, 500, 1000])]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_levels_past_the_cap_before_any_evaluation(self, params):
        with mock.patch.object(analysis, "level_extrema", side_effect=AssertionError("ran")):
            with pytest.raises(ValueError, match=f"at most {MAX_LEVEL_1D}"):
                semiclassical_gap(params, [10, MAX_LEVEL_1D + 1])

    def test_validation(self, params):
        with pytest.raises(ValueError):
            semiclassical_gap(params, [])
        with pytest.raises(ValueError):
            semiclassical_gap(params, [0, 2])
        with pytest.raises(ValueError):
            semiclassical_gap(params, [4, 2])

    def test_outer_peak_tracks_envelope_shape(self, params):
        # outer peak curve and envelope stretch by the same factor, so their
        # ratio is tau-independent
        n = 6
        fam = TrajectoryFamily.from_level(params, n)
        qn = QuantumNumbers1D(n)
        sol = lambda y, tau: lifted_eigenstate_1d(params, qn, y, tau)
        ratios = []
        for tau in (0.0, 1.0, 2.5):
            grid = auto_grid(params, n, tau, 16001)
            rec = find_density_maxima(sample_field(sol, grid, tau))
            ratios.append(rec.positions[-1] / envelope(fam, tau)[0])
        assert max(ratios) - min(ratios) < 1e-6
        assert all(0.0 < r < 1.0 for r in ratios)
