"""Acceptance gate: every analytic property at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) and
asserts the same condition, so a plain pytest run is the gate.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from oscfree import (
    OscillatorParams,
    QuantumNumbers1D,
    QuantumNumbers2D,
    TrajectoryFamily,
    eigenstate_1d,
    envelope,
    free_trajectory,
    lift_wavefunction,
    lifted_eigenstate_1d,
    lifted_eigenstate_2d,
    pull_back_wavefunction,
    tangency,
    turning_points,
)
from oscfree.analysis import (
    ComplexField,
    Grid1D,
    auto_grid,
    auto_grid_2d,
    density_scaling_check,
    expectation_position,
    find_density_maxima,
    level_extrema,
    norm,
    peak_trajectory_check,
    residual_study,
    sample_field,
    semiclassical_gap,
    spectral_propagate_free,
)
from oscfree.classical import action_boundary_identity
from oscfree.cli import main

from golden_manifest import GOLDEN, GOLDEN_DIR

PARAMS = OscillatorParams(mass=1.0, omega=1.0)
ORDER_BAND = (1.8, 2.2)

# coarsest grid per level: fine enough to reach 1e-6 at the last of four
# refinements, coarse enough to stay above the rounding floor of the stencil
BASE_COUNT = {0: 2001, 1: 4001, 2: 8001, 3: 10001, 4: 12001, 5: 20001}


def report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_c01_free_equation_residual():
    worst_order_gap = 0.0
    worst_linf = 0.0
    for n in (0, 1, 2, 5):
        qn = QuantumNumbers1D(n)
        for tau in (0.5, 2.0):
            grid = auto_grid(PARAMS, n, tau, BASE_COUNT[n])
            rep = residual_study(
                lambda y, s: lifted_eigenstate_1d(PARAMS, qn, y, s),
                grid,
                tau,
                PARAMS.mass,
                refinements=4,
            )
            ok = ORDER_BAND[0] <= rep.fitted_order <= ORDER_BAND[1]
            worst_order_gap = max(worst_order_gap, abs(rep.fitted_order - 2.0))
            worst_linf = max(worst_linf, rep.linf_residuals[-1])
            assert ok, f"order {rep.fitted_order} out of band at n={n}, tau={tau}"
    report(
        worst_linf < 1e-6,
        f"C01 free-equation residual: order within {ORDER_BAND} "
        f"(max |order-2| = {worst_order_gap:.3f}), finest Linf = {worst_linf:.2e} < 1e-6",
    )


def test_c02_oscillator_equation_residual():
    worst_order_gap = 0.0
    worst_linf = 0.0
    for n in range(6):
        qn = QuantumNumbers1D(n)
        grid = auto_grid(PARAMS, n, 0.0, BASE_COUNT[n])
        rep = residual_study(
            lambda x, t: eigenstate_1d(PARAMS, qn, x, t), grid, 0.3, PARAMS.mass,
            refinements=4, omega=PARAMS.omega,
        )
        ok = ORDER_BAND[0] <= rep.fitted_order <= ORDER_BAND[1]
        worst_order_gap = max(worst_order_gap, abs(rep.fitted_order - 2.0))
        worst_linf = max(worst_linf, rep.linf_residuals[-1])
        assert ok, f"order {rep.fitted_order} out of band at n={n}"
    report(
        worst_linf < 1e-6,
        f"C02 oscillator-equation residual: order within {ORDER_BAND} "
        f"(max |order-2| = {worst_order_gap:.3f}), finest Linf = {worst_linf:.2e} < 1e-6",
    )


def test_c03_round_trip_identity():
    x = np.linspace(-12.0, 12.0, 10001)
    worst = 0.0
    for n in range(6):
        qn = QuantumNumbers1D(n)
        psi = lambda xx, tt: eigenstate_1d(PARAMS, qn, xx, tt)
        back = pull_back_wavefunction(lift_wavefunction(psi, PARAMS), PARAMS)
        for t in (-1.4, -0.7, 0.0, 0.9, 1.4):
            direct = eigenstate_1d(PARAMS, qn, x, t)
            worst = max(worst, float(np.abs(back(x, t) - direct).max()))
    report(worst < 1e-12, f"C03 round-trip identity: max pointwise gap {worst:.2e} < 1e-12")


def test_c04_density_scaling():
    worst = 0.0
    for n in range(11):
        for tau in (0.0, 1.0, 4.0, 10.0):
            grid = auto_grid(PARAMS, n, tau, 4001)
            worst = max(worst, density_scaling_check(PARAMS, n, tau, grid))
    report(worst < 1e-12, f"C04 density scaling law: max deviation {worst:.2e} < 1e-12")


def test_c05_peak_law():
    worst_pos = 0.0
    worst_fwhm = 0.0
    for n in (1, 2, 5):
        rep = peak_trajectory_check(PARAMS, n, [0.0, 1.0, 2.0], count=16001)
        assert rep.peak_count == n + 1, f"expected {n + 1} peaks, found {rep.peak_count}"
        worst_pos = max(worst_pos, rep.max_position_rel_error)
        worst_fwhm = max(worst_fwhm, rep.max_fwhm_rel_error)
    report(
        worst_pos < 1e-6 and worst_fwhm < 1e-4,
        f"C05 peak law: n+1 peaks, position err {worst_pos:.2e} < 1e-6, "
        f"width err {worst_fwhm:.2e} < 1e-4",
    )


def test_c06_unitarity():
    worst_1d = 0.0
    for n in range(11):
        qn = QuantumNumbers1D(n)
        for tau in (0.0, 3.0):
            grid = auto_grid(PARAMS, n, tau, 20001)
            field = sample_field(
                lambda y, s: lifted_eigenstate_1d(PARAMS, qn, y, s), grid, tau
            )
            worst_1d = max(worst_1d, abs(norm(field) - 1.0))
    worst_2d = 0.0
    for l in range(4):
        qn = QuantumNumbers2D(0, l)
        for tau in (0.0, 3.0):
            grid2 = auto_grid_2d(PARAMS, qn, tau, 1201)
            field = sample_field(
                lambda a, b, s: lifted_eigenstate_2d(PARAMS, qn, a, b, s), grid2, tau
            )
            worst_2d = max(worst_2d, abs(norm(field) - 1.0))
    report(
        worst_1d < 1e-8 and worst_2d < 1e-7,
        f"C06 unitarity: 1D norm defect {worst_1d:.2e} < 1e-8, 2D {worst_2d:.2e} < 1e-7",
    )


def test_c07_spectral_oracle():
    qn = QuantumNumbers1D(2)
    grid = Grid1D(-20.0, 20.0, 801)
    initial = sample_field(
        lambda y, s: lifted_eigenstate_1d(PARAMS, qn, y, s), grid, 0.0
    )
    evolved = spectral_propagate_free(initial, 1.0, PARAMS.mass)
    closed = lifted_eigenstate_1d(PARAMS, qn, grid.nodes, 1.0)
    l2 = math.sqrt(float(simpson(np.abs(evolved.values - closed) ** 2, x=grid.nodes)))
    report(l2 < 1e-6, f"C07 spectral oracle: L2 gap to closed form {l2:.2e} < 1e-6")
    # the non-separable 2D levels, propagated on 2D grids sized for the final time
    params, tau = OscillatorParams(mass=1.3, omega=0.8), 1.5
    for n_radial, l in [(0, 1), (2, -3), (5, 2)]:
        qn2 = QuantumNumbers2D(n_radial, l)
        solution = lambda y1, y2, s: lifted_eigenstate_2d(params, qn2, y1, y2, s)
        grid2 = auto_grid_2d(params, qn2, tau, 257)
        evolved = spectral_propagate_free(sample_field(solution, grid2, 0.0), tau, params.mass)
        gap = evolved.values - sample_field(solution, grid2, tau).values
        l2 = math.sqrt(norm(ComplexField(grid2, gap, tau)))
        report(l2 < 1e-10, f"C07 2D spectral oracle ({n_radial}, {l}): L2 gap {l2:.2e} < 1e-10")


def test_c08_ehrenfest():
    qn0, qn1 = QuantumNumbers1D(0), QuantumNumbers1D(1)

    def mix(y, tau):
        return (
            lifted_eigenstate_1d(PARAMS, qn0, y, tau)
            + lifted_eigenstate_1d(PARAMS, qn1, y, tau)
        ) / math.sqrt(2.0)

    taus = [0.0, 0.5, 1.0, 1.5, 2.0]
    means = []
    for tau in taus:
        grid = auto_grid(PARAMS, 1, tau, 8001)
        means.append(expectation_position(sample_field(mix, grid, tau)))
    second = max(
        abs(means[i - 1] - 2.0 * means[i] + means[i + 1]) for i in range(1, len(means) - 1)
    )
    worst_parity = 0.0
    for n in (0, 1, 2, 5):
        qn = QuantumNumbers1D(n)
        for tau in (0.0, 2.0):
            grid = auto_grid(PARAMS, n, tau, 8001)
            field = sample_field(
                lambda y, s: lifted_eigenstate_1d(PARAMS, qn, y, s), grid, tau
            )
            worst_parity = max(worst_parity, abs(expectation_position(field)))
    report(
        second < 1e-6 and worst_parity < 1e-10,
        f"C08 Ehrenfest: superposition <y> second differences {second:.2e} < 1e-6, "
        f"definite-parity <y> {worst_parity:.2e} < 1e-10",
    )


def test_c09_action_identity():
    fam = TrajectoryFamily(2.5, PARAMS)
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        t1, t2 = rng.uniform(-1.4, 1.4, size=2)
        worst = max(worst, action_boundary_identity(fam, alpha, t1, t2).defect)
    report(worst < 1e-8, f"C09 action boundary identity: max defect {worst:.2e} < 1e-8")


def test_c10_envelope():
    fam = TrajectoryFamily(2.5, PARAMS)
    taus = np.linspace(-10.0, 10.0, 2001)
    envelope_mag = envelope(fam, taus)[0]
    # offset sweep avoids the degenerate angles where the touch recedes to
    # infinite time; those trajectories are covered by the dominance check
    alphas = (np.arange(100) + 0.5) * 2.0 * math.pi / 100.0
    worst_excess = 0.0
    worst_touch = 0.0
    for alpha in alphas:
        y = np.abs(free_trajectory(fam, alpha, taus))
        worst_excess = max(worst_excess, float((y - envelope_mag).max()))
        tau_star, y_star = tangency(fam, alpha)
        gap_at_touch = abs(envelope(fam, tau_star)[0] - abs(y_star))
        worst_touch = max(worst_touch, gap_at_touch)
        # uniqueness: away from the touch the trajectory stays strictly inside
        away = np.abs(taus - tau_star) > taus[1] - taus[0]
        assert np.count_nonzero(envelope_mag[away] - y[away] <= 1e-10) == 0
    exact = envelope(fam, 0.0) == turning_points(fam)
    report(
        worst_excess < 1e-10 and worst_touch < 1e-10 and exact,
        f"C10 envelope: max excess {worst_excess:.2e} < 1e-10, single touch gap "
        f"{worst_touch:.2e} < 1e-10, turning points exact at tau=0: {exact}",
    )


def test_c11_semiclassical_gap():
    gaps = semiclassical_gap(PARAMS, [5, 10, 20, 40, 60], count=32001)
    values = [g for _, g in gaps]
    positive = all(v > 0.0 for v in values)
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    report(
        positive and decreasing,
        "C11 semiclassical gap: ratios "
        + ", ".join(f"n={n}: {g:.4f}" for n, g in gaps)
        + " positive and strictly decreasing",
    )


def test_c12_lifted_2d_residual():
    worst_gap = 0.0
    for l in (0, 1, 2):
        qn = QuantumNumbers2D(0, l)
        grid2 = auto_grid_2d(PARAMS, qn, 0.5, 151)
        rep = residual_study(
            lambda a, b, s: lifted_eigenstate_2d(PARAMS, qn, a, b, s),
            grid2,
            0.5,
            PARAMS.mass,
            refinements=4,
        )
        ok = ORDER_BAND[0] <= rep.fitted_order <= ORDER_BAND[1]
        worst_gap = max(worst_gap, abs(rep.fitted_order - 2.0))
        assert ok, f"2D order {rep.fitted_order} out of band at l={l}"
    report(
        True,
        f"C12 lifted 2D residual: convergence order within {ORDER_BAND} "
        f"(max |order-2| = {worst_gap:.3f}) for l in (0, 1, 2)",
    )


def test_c13_cli_determinism(tmp_path):
    gen_args, env_args = GOLDEN["gen1d_n2.csv"], GOLDEN["envelope_n2.csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(gen_args + ["--out", str(a)]) == 0
    assert main(gen_args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    golden_gen = a.read_bytes() == (GOLDEN_DIR / "gen1d_n2.csv").read_bytes()
    c = tmp_path / "c.csv"
    assert main(env_args + ["--out", str(c)]) == 0
    golden_env = c.read_bytes() == (GOLDEN_DIR / "envelope_n2.csv").read_bytes()
    report(
        identical and golden_gen and golden_env,
        f"C13 CLI determinism: reruns bit-identical ({identical}), "
        f"golden files match ({golden_gen}, {golden_env})",
    )


# (mass, omega, n, a fixed box or None, position and width bounds): the peaks CLI, which
# prints the exact points stretched, at the golden levels and perfbench peaks-highn's two
# (mass and omega inside its box), and find_density_maxima on a box that does not stretch
# with tau, each bound a little above the errors measured at tau 0.5, 1 and 2 (at most
# 2.7e-16 and 3.1e-16 from the CLI, 9.9e-8 and 9.1e-8 on the box)
C14_CASES = [
    (1.0, 1.0, 5, None, 1e-15, 1e-15),
    (1.0, 1.0, 40, None, 1e-15, 1e-15),
    (1.1, 0.9, 40, None, 1e-15, 1e-15),
    (1.1, 0.9, 120, None, 1e-15, 1e-15),
    (1.0, 1.0, 5, Grid1D(-20.0, 20.0, 32001), 1.2e-7, 1.1e-7),
]


def test_c14_peaks_at_the_exact_maxima(tmp_path):
    taus = (0.5, 1.0, 2.0)
    results = []
    for mass, omega, n, box, pos_bound, width_bound in C14_CASES:
        params = OscillatorParams(mass, omega)
        if box is not None:
            qn = QuantumNumbers1D(n)
            lifted = lambda y, s: lifted_eigenstate_1d(params, qn, y, s)
            records = [find_density_maxima(sample_field(lifted, box, tau)) for tau in taus]
            found = [(r.positions, r.widths) for r in records]
            where = f"a fixed box of {box.count} nodes"
        else:
            out = tmp_path / "peaks.json"
            args = ["peaks", "--mass", str(mass), "--omega", str(omega), "--n", str(n),
                    "--tau", ",".join(map(str, taus))]
            assert main(args + ["--format", "json", "--out", str(out)]) == 0
            rows = np.array(json.loads(out.read_text())["rows"])
            found = [(rows[rows[:, 0] == tau, 2], rows[rows[:, 0] == tau, 4]) for tau in taus]
            where = "the peaks CLI"
        maxima, left, right = level_extrema(n)
        pos_err = width_err = 0.0
        for tau, (positions, widths) in zip(taus, found):
            scale = math.sqrt((1.0 + (omega * tau) ** 2) / (mass * omega))
            exact, exact_widths = maxima * scale, (right - left) * scale
            floor = np.maximum(np.abs(exact), scale)  # one stretched natural length
            pos_err = max(pos_err, float(np.max(np.abs(positions - exact) / floor)))
            width_err = max(width_err, float(np.max(np.abs(widths - exact_widths) / exact_widths)))
        results.append((
            pos_err < pos_bound and width_err < width_bound,
            f"n={n} on {where}: position err {pos_err:.1e} < {pos_bound:.1e}, "
            f"width err {width_err:.1e} < {width_bound:.1e}",
        ))
    report(
        all(ok for ok, _ in results),
        "C14 peaks at the exact maxima: " + "; ".join(label for _, label in results),
    )
