"""Scale covariance: each level evaluator at (m, omega) is its m = omega = 1 value, scaled.

Niederer's map and every level it lifts satisfy
chi(y, tau; m, omega) = (m omega)^{d/4} chi(xi, theta; 1, 1), xi = sqrt(m omega) y and
theta = omega tau, in d dimensions; the stationary states, their densities, the auto grids,
the exact peak rows and the classical family scale the same way.  The draws are (m, omega)
log-uniform over [1e-150, 1e150]^2, xi within the level's turning point plus 3, |theta| <= 10,
n <= 40 and 2 n_radial + |l| <= 40.  Each evaluation runs with every warning an error, and
must equal its scaled m = omega = 1 value within 1e-13 of the largest |value| of its row.
The points are drawn in xi and theta and mapped to y = xi / sqrt(m omega) and
tau = theta / omega; the m = omega = 1 side takes sqrt(m omega) y and omega tau, the identity's
own arguments, so the rounding of that mapping (up to 1.1e-13 of a 2D row, measured) is not
part of what the tolerance covers.  What is left is the evaluators' own rounding: the 1D
level's exp takes an exponent near -240 at m omega = 1e-300, whose ulp is 2.8e-14, and
density_1d squares it; over 15000 draws the largest error was 8.4e-14 of a row,
in density_1d.  So the draws are derandomized, the same ones every run.

verify checks each suite's m = omega = 1 equation at theta and scales only the residuals it
prints, so its fitted order at (m, omega) is the unit one to the bit, and so is its verdict.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscfree import (
    OscillatorParams,
    QuantumNumbers1D,
    QuantumNumbers2D,
    TrajectoryFamily,
    density_1d,
    eigenstate_1d,
    eigenstate_2d,
    envelope,
    free_trajectory,
    lifted_eigenstate_1d,
    lifted_eigenstate_2d,
)
from oscfree.analysis import _exact_peaks, auto_grid, auto_grid_2d
from oscfree.cli import main

UNIT = OscillatorParams(1.0, 1.0)
TOLERANCE = 1e-13
POINTS = 15  # xi values a draw takes, per axis

decades = st.floats(-150.0, 150.0)
thetas = st.floats(-10.0, 10.0)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def levels_2d(draw):
    l = draw(st.integers(-40, 40))
    return QuantumNumbers2D(draw(st.integers(0, (40 - abs(l)) // 2)), l)


def assert_scaled(ours, unit, factor):
    """ours equals factor times unit within TOLERANCE of the largest |factor unit|."""
    expected = factor * np.asarray(unit)
    error = np.abs(np.asarray(ours) - expected).max()
    assert error <= TOLERANCE * np.abs(expected).max(), (error, np.abs(expected).max())


def in_xi(seed: int, edge: float, dims: int) -> list[np.ndarray]:
    """POINTS xi values in [-edge, edge] per axis, 0 among them."""
    xi = np.random.default_rng(seed).uniform(-edge, edge, size=(dims, POINTS))
    xi[:, 0] = 0.0
    return list(xi)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(decade_m=decades, decade_w=decades, n=st.integers(0, 40), theta=thetas, seed=seeds)
@example(decade_m=-150.0, decade_w=-150.0, n=40, theta=10.0, seed=0)
@example(decade_m=150.0, decade_w=-150.0, n=5, theta=-0.8, seed=1)
@example(decade_m=0.0, decade_w=-150.0, n=3, theta=1.0, seed=2)
def test_1d_evaluators_scale(decade_m, decade_w, n, theta, seed):
    m, w = 10.0**decade_m, 10.0**decade_w
    root, qn = math.sqrt(m * w), QuantumNumbers1D(n)
    (xi,) = in_xi(seed, math.sqrt(2.0 * n + 1.0) + 3.0, 1)
    y, tau = xi / root, theta / w
    xi, theta = root * y, w * tau
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = OscillatorParams(m, w)
        assert_scaled(
            lifted_eigenstate_1d(params, qn, y, tau),
            lifted_eigenstate_1d(UNIT, qn, xi, theta), math.sqrt(root),
        )
        assert_scaled(
            eigenstate_1d(params, qn, y, tau), eigenstate_1d(UNIT, qn, xi, theta), math.sqrt(root)
        )
        assert_scaled(density_1d(params, qn, y), density_1d(UNIT, qn, xi), root)
        grid, unit = auto_grid(params, n, tau, 11), auto_grid(UNIT, n, theta, 11)
        assert_scaled([grid.y_min, grid.y_max], [unit.y_min, unit.y_max], 1.0 / root)
        (_, *rows), (_, *unit_rows) = (
            next(_exact_peaks(p, n, [t])) for p, t in ((params, tau), (UNIT, theta))
        )
        for row, unit_row, factor in zip(rows, unit_rows, (1.0 / root, root, 1.0 / root)):
            assert_scaled(row, unit_row, factor)
        fam, unit_fam = TrajectoryFamily.from_level(params, n), TrajectoryFamily.from_level(UNIT, n)
        taus, unit_taus = np.array([0.0, tau, -tau]), np.array([0.0, theta, -theta])
        assert_scaled(envelope(fam, taus), envelope(unit_fam, unit_taus), 1.0 / root)
        assert_scaled(
            free_trajectory(fam, seed % 7, taus), free_trajectory(unit_fam, seed % 7, unit_taus),
            1.0 / root,
        )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(decade_m=decades, decade_w=decades, qn=levels_2d(), theta=thetas, seed=seeds)
@example(decade_m=-150.0, decade_w=-150.0, qn=QuantumNumbers2D(3, -5), theta=10.0, seed=0)
@example(decade_m=-100.0, decade_w=-100.0, qn=QuantumNumbers2D(0, 40), theta=0.8, seed=1)
@example(decade_m=150.0, decade_w=150.0, qn=QuantumNumbers2D(20, 0), theta=-3.0, seed=2)
def test_2d_evaluators_scale(decade_m, decade_w, qn, theta, seed):
    m, w = 10.0**decade_m, 10.0**decade_w
    root = math.sqrt(m * w)
    turn = math.sqrt(2.0 * (2 * qn.n_radial + abs(qn.l) + 1))
    xi1, xi2 = in_xi(seed, turn + 3.0, 2)
    xi1, xi2 = np.meshgrid(xi1, xi2, indexing="ij", sparse=True)
    y1, y2, tau = xi1 / root, xi2 / root, theta / w
    xi1, xi2, theta = root * y1, root * y2, w * tau
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = OscillatorParams(m, w)
        assert_scaled(
            lifted_eigenstate_2d(params, qn, y1, y2, tau),
            lifted_eigenstate_2d(UNIT, qn, xi1, xi2, theta), root,
        )
        r, phi = np.hypot(y1, y2), np.arctan2(y2, y1)
        assert_scaled(
            eigenstate_2d(params, qn, r, phi, tau),
            eigenstate_2d(UNIT, qn, root * r, phi, theta), root,
        )
        grid, unit = auto_grid_2d(params, qn, tau, 11), auto_grid_2d(UNIT, qn, theta, 11)
        for axis, unit_axis in zip(grid.axes, unit.axes):
            assert_scaled([axis.y_min, axis.y_max], [unit_axis.y_min, unit_axis.y_max], 1.0 / root)


def verify_report(*args: str) -> dict:
    """verify's report of args, which pass (exit 0) or fail their order band (exit 4)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", *args]) in (0, 4)
    return json.loads(out.getvalue())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    decade_m=decades,
    decade_w=decades,
    theta=st.floats(-1.5, 1.5),
    n=st.integers(0, 6),
    qn=st.builds(QuantumNumbers2D, st.integers(0, 1), st.integers(-3, 3)),
)
@example(decade_m=-150.0, decade_w=-150.0, theta=1.5, n=6, qn=QuantumNumbers2D(1, -3))
@example(decade_m=150.0, decade_w=-150.0, theta=0.5, n=2, qn=QuantumNumbers2D(1, 1))
def test_verify_verdicts_scale(decade_m, decade_w, theta, n, qn):
    m, w = 10.0**decade_m, 10.0**decade_w
    level = ["--n", str(n), "--n-radial", str(qn.n_radial), "--l", str(qn.l), "--refinements", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for suite in ("free-residual", "osc-residual", "free-residual-2d"):
            flag = "--time" if suite == "osc-residual" else "--tau"
            time = theta / w
            ours = verify_report("--suite", suite, "--mass", repr(m), "--omega", repr(w),
                                 f"{flag}={time!r}", *level)
            unit = verify_report("--suite", suite, f"{flag}={w * time!r}", *level)
            assert ours["fitted_order"] == unit["fitted_order"], suite
            assert ours["pass"] == unit["pass"], suite
