"""Seeded workloads: the operation list of each, and how each output is checked.

The seed picks only mass, omega, tau values, the sign of l and the alphas,
each inside the range where every operation is valid.  Node counts,
degrees, refinements and the operation list are fixed per workload, so
two seeds do the same amount of work.

An operation either calls ``oscfree.cli.main(argv)`` with a generated
argument vector or calls one public library function.  Only the call is
timed; reading the output back and checking it happen outside the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pickle
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
import oscfree.analysis as analysis
import oscfree.classical as classical
import oscfree.cli as cli
import oscfree.transform as transform
from oscfree.analysis import Grid1D
from oscfree.classical import TrajectoryFamily
from oscfree.oscillator import OscillatorParams, QuantumNumbers1D, QuantumNumbers2D
from scipy.integrate import simpson

import checks


@dataclass
class Outcome:
    """What one operation returned: exit code and streams, or a library value."""

    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: Any = None
    error: str | None = None
    warnings: int = 0
    data: bytes | None = None
    fingerprint: bytes = b""
    rows: int = 0
    nbytes: int = 0


@dataclass
class Op:
    """One timed operation of a workload."""

    name: str
    invoke: Callable[[Path], Outcome]
    check: Callable[[Outcome], list[str]]
    array_bytes: int
    out: str | None = None
    rows: Callable[[Outcome], int] = field(default=lambda outcome: 0)

    def collect(self, outdir: Path, outcome: Outcome) -> Outcome:
        """Read the written table back (outside the timed call)."""
        if self.out is not None:
            path = outdir / self.out
            outcome.data = path.read_bytes() if path.exists() else None
        return outcome

    def fingerprint(self, outcome: Outcome) -> bytes:
        """Digest of everything the operation produced; passes must agree exactly."""
        digest = hashlib.sha256(pickle.dumps(
            (outcome.exit_code, outcome.stdout, outcome.error, outcome.value)
        ))
        digest.update(outcome.data or b"")
        return digest.digest()

    def bytes_written(self, outcome: Outcome) -> int:
        return len(outcome.stdout.encode()) + (len(outcome.data) if outcome.data else 0)


def _call_quietly(fn: Callable[[], Any]) -> Outcome:
    """Run fn with stdout/stderr captured and RuntimeWarnings counted."""
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = fn()
        except SystemExit as exc:  # argparse usage errors
            outcome.exit_code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the operation failed; the benchmark keeps running
            outcome.error = f"{type(exc).__name__}: {exc}"
        else:
            if isinstance(result, int):
                outcome.exit_code = result
            else:
                outcome.value = result
    outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
    outcome.warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return outcome


def _table_rows(fmt: str) -> Callable[[Outcome], int]:
    def rows(outcome: Outcome) -> int:
        if not outcome.data:
            return 0
        if fmt == "json":
            return outcome.data.count(b"[") - 2  # columns list and the outer rows list
        return outcome.data.count(b"\n") - 1

    return rows


def cli_op(name: str, argv: list[str], check, array_bytes: int, out: str | None = None,
           fmt: str = "csv") -> Op:
    def invoke(outdir: Path) -> Outcome:
        full = argv + (["--out", str(outdir / out)] if out else [])
        return _call_quietly(lambda: cli.main(full))

    def checked(outcome: Outcome) -> list[str]:
        if outcome.error is not None:
            return [f"raised {outcome.error}"]
        if outcome.exit_code != 0:
            said = (outcome.stderr or outcome.stdout).strip()[:200]
            return [f"exit code {outcome.exit_code}: {said}"]
        if out is not None and outcome.data is None:
            return ["no table written"]
        return check(outcome)

    rows = _table_rows(fmt) if out else (lambda outcome: 1 if outcome.stdout else 0)
    return Op(name, invoke, checked, array_bytes, out, rows)


def lib_op(name: str, fn: Callable[[], Any], check, array_bytes: int) -> Op:
    def checked(outcome: Outcome) -> list[str]:
        if outcome.error is not None:
            return [f"raised {outcome.error}"]
        return check(outcome.value)

    return Op(name, lambda outdir: _call_quietly(fn), checked, array_bytes)


# ---------------------------------------------------------------------------
# seeded inputs


def _num(x: float) -> str:
    return f"{x:.4f}"


def _taus(rng: random.Random, count: int, lo: float, hi: float) -> list[str]:
    return [_num(t) for t in sorted(rng.uniform(lo, hi) for _ in range(count))]


def generate(workload: str, seed: int) -> dict:
    """The generated inputs of one run; every value is a string passed to oscfree."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-residual":
        # the fitted orders of the n = 40 and (0, 3) suites leave [1.8, 2.2] once
        # omega/m or tau grows past this box (pre-asymptotic base grids)
        inputs = {"mass": _num(rng.uniform(1.0, 1.25)), "omega": _num(rng.uniform(0.8, 1.0))}
    else:
        inputs = {"mass": _num(rng.uniform(0.8, 1.25)), "omega": _num(rng.uniform(0.8, 1.25))}
    if workload == "tables-io":
        inputs.update(
            gen2d_l=str(rng.choice((1, -1))),
            gen2d_taus=_taus(rng, 2, 0.0, 2.0),
            json_l=str(2 * rng.choice((1, -1))),
            json_taus=_taus(rng, 2, 0.0, 2.0),
            gen1d_taus=_taus(rng, 10, 0.0, 5.0),
            envelope_span=_num(rng.uniform(3.0, 8.0)),
            alphas=[_num(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(3)],
            to_tau=_num(rng.uniform(0.5, 1.5)),
        )
    elif workload == "verify-residual":
        inputs.update(
            signs=[str(rng.choice((1, -1))) for _ in range(3)],
            tau_2d=_num(rng.uniform(0.3, 0.8)),
            tau_radial=_num(rng.uniform(0.3, 0.8)),
            tau_1d=_num(rng.uniform(0.3, 0.5)),
            osc_time=_num(rng.uniform(0.1, 0.5)),
            alphas=[_num(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(4)],
        )
    elif workload == "peaks-highn":
        inputs.update(
            taus_n40=_taus(rng, 9, 0.0, 2.0),
            taus_n120=_taus(rng, 3, 0.0, 2.0),
            spectral_tau=_num(rng.uniform(0.5, 1.5)),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# ---------------------------------------------------------------------------
# operation lists


def _field_1d_expected(params, n: int, taus: list[float], nodes: np.ndarray) -> dict:
    qn = QuantumNumbers1D(n)
    values = np.concatenate([transform.lifted_eigenstate_1d(params, qn, nodes, t) for t in taus])
    return {
        "tau": np.repeat(taus, nodes.size),
        "y": np.tile(nodes, len(taus)),
        "re": values.real,
        "im": values.imag,
    }


def _field_2d_expected(params, l: int, taus: list[float], axis: np.ndarray) -> dict:
    y1, y2 = np.meshgrid(axis, axis, indexing="ij")
    qn = QuantumNumbers2D(0, l)
    values = np.concatenate(
        [transform.lifted_eigenstate_2d(params, qn, y1, y2, t).ravel() for t in taus]
    )
    return {
        "tau": np.repeat(taus, y1.size),
        "y1": np.tile(y1.ravel(), len(taus)),
        "y2": np.tile(y2.ravel(), len(taus)),
        "re": values.real,
        "im": values.imag,
    }


def _table_check(fmt: str, header: list[str], expected: Callable[[], dict], seed: int):
    return lambda outcome: checks.check_table(outcome.data, fmt, header, expected(), seed)


def _field_bytes(rows: int, columns: int) -> int:
    # complex128 field plus the float64 table it is written from
    return rows * 16 + rows * columns * 8


def build(workload: str, inputs: dict, seed: int, root: Path) -> tuple[list[Op], list[Op]]:
    """The timed operations of a workload, and its known-defect probes."""
    mass, omega = inputs["mass"], inputs["omega"]
    common = ["--mass", mass, "--omega", omega]
    params = OscillatorParams(float(mass), float(omega))
    builder = {"tables-io": _tables_io, "verify-residual": _verify_residual,
               "peaks-highn": _peaks_highn}[workload]
    return builder(inputs, seed, root, common, params)


def _tables_io(inputs, seed, root, common, params):
    golden = root / "tests" / "golden"
    unit = OscillatorParams(1.0, 1.0)
    ops = [
        cli_op(
            "golden-gen1d",
            ["gen1d", "--n", "2", "--omega", "1", "--mass", "1", "--tau", "0,1,2",
             "--grid", "-20:20:201", "--format", "csv"],
            lambda o: checks.check_golden(o.data, (golden / "gen1d_n2.csv").read_bytes()),
            _field_bytes(603, 5), out="golden_gen1d.csv",
        ),
    ]
    env_taus = np.linspace(-5.0, 5.0, 101)
    fam_unit = TrajectoryFamily.from_level(unit, 2)
    ops.append(cli_op(
        "golden-envelope",
        ["envelope", "--energy-from-n", "2", "--tau", "-5:5:101"],
        lambda o: checks.check_golden(o.data, (golden / "envelope_n2.csv").read_bytes())
        + checks.check_table(o.data, "csv", ["tau", "y_plus", "y_minus"],
                             {"tau": env_taus, "y_plus": classical.envelope(fam_unit, env_taus)[0]}, seed),
        101 * 3 * 8, out="golden_envelope.csv",
    ))

    l = int(inputs["gen2d_l"])
    taus = [float(t) for t in inputs["gen2d_taus"]]
    axis = Grid1D(-12.0, 12.0, 301).nodes
    ops.append(cli_op(
        "gen2d-csv",
        ["gen2d", *common, "--l", str(l), "--tau", ",".join(inputs["gen2d_taus"]),
         "--grid", "-12:12:301", "--format", "csv"],
        _table_check("csv", ["tau", "y1", "y2", "re", "im", "density"],
                     lambda: _field_2d_expected(params, l, taus, axis), seed),
        _field_bytes(2 * 301 * 301, 6), out="gen2d.csv",
    ))

    jl = int(inputs["json_l"])
    jtaus = [float(t) for t in inputs["json_taus"]]
    jaxis = Grid1D(-12.0, 12.0, 201).nodes
    ops.append(cli_op(
        "gen2d-json",
        ["gen2d", *common, "--l", str(jl), "--tau", ",".join(inputs["json_taus"]),
         "--grid", "-12:12:201", "--format", "json"],
        _table_check("json", ["tau", "y1", "y2", "re", "im", "density"],
                     lambda: _field_2d_expected(params, jl, jtaus, jaxis), seed),
        _field_bytes(2 * 201 * 201, 6), out="gen2d.json", fmt="json",
    ))

    gtaus = [float(t) for t in inputs["gen1d_taus"]]
    nodes = Grid1D(-20.0, 20.0, 20001).nodes
    ops.append(cli_op(
        "gen1d-csv",
        ["gen1d", *common, "--n", "2", "--tau", ",".join(inputs["gen1d_taus"]),
         "--grid", "-20:20:20001"],
        _table_check("csv", ["tau", "y", "re", "im", "density"],
                     lambda: _field_1d_expected(params, 2, gtaus, nodes), seed),
        _field_bytes(10 * 20001, 5), out="gen1d.csv",
    ))

    span = float(inputs["envelope_span"])
    etaus = np.linspace(-span, span, 10001)
    alphas = [float(a) for a in inputs["alphas"]]
    fam = TrajectoryFamily.from_level(params, 2)
    ops.append(cli_op(
        "trajectories",
        ["envelope", *common, "--energy-from-n", "2",
         "--tau", f"-{inputs['envelope_span']}:{inputs['envelope_span']}:10001",
         "--alpha", ",".join(inputs["alphas"])],
        _table_check("csv", ["tau", "alpha", "y"], lambda: {
            "tau": np.tile(etaus, len(alphas)),
            "alpha": np.repeat(alphas, etaus.size),
            "y": np.concatenate([classical.free_trajectory(fam, a, etaus) for a in alphas]),
        }, seed),
        3 * 10001 * 3 * 8, out="trajectories.csv",
    ))

    to_tau = float(inputs["to_tau"])
    pgrid = Grid1D(-20.0, 20.0, 4001)
    qn2 = QuantumNumbers1D(2)

    def propagate_expected() -> dict:
        initial = analysis.sample_field_1d(
            lambda y, s: transform.lifted_eigenstate_1d(params, qn2, y, s), pgrid, 0.0
        )
        final = analysis.spectral_propagate_free(initial, to_tau, params.mass).values
        return {"tau": np.full(pgrid.count, to_tau), "y": pgrid.nodes,
                "re": final.real, "im": final.imag}

    def propagate_check(o: Outcome) -> list[str]:
        report = json.loads(o.stdout)
        return (
            checks.check_table(o.data, "csv", ["tau", "y", "re", "im", "density"],
                               propagate_expected(), seed)
            + checks.check_close("propagated norm", report["norm"], 1.0, 1e-8)
            + checks.check_close("L2 gap to closed form",
                                 report["l2_difference_vs_closed_form"], 0.0, 1e-6)
        )

    ops.append(cli_op(
        "propagate",
        ["propagate", *common, "--n", "2", "--to-tau", inputs["to_tau"], "--grid", "-20:20:4001"],
        propagate_check, _field_bytes(4001, 5) + 3 * 4001 * 16, out="propagate.csv",
    ))
    return ops, []


def _residual_bytes(base: int, refinements: int, dims: int) -> int:
    # three complex128 evaluations (tau, tau +- dt) per refinement grid
    return sum(3 * 16 * ((base - 1) * 2**k + 1) ** dims for k in range(refinements))


def _verify_residual(inputs, seed, root, common, params):
    s1, s3, sr = (int(s) for s in inputs["signs"])
    cases = [
        ("verify-2d-l1", "free-residual-2d",
         ["--l", str(s1), "--tau", inputs["tau_2d"]], _residual_bytes(101, 4, 2)),
        ("verify-2d-l3", "free-residual-2d",
         ["--l", str(3 * s3), "--tau", "1.5"], _residual_bytes(101, 4, 2)),
        ("verify-2d-radial", "free-residual-2d",
         ["--l", str(sr), "--n-radial", "1", "--tau", inputs["tau_radial"]],
         _residual_bytes(101, 4, 2)),
        ("verify-1d-n40", "free-residual",
         ["--n", "40", "--refinements", "5", "--tau", inputs["tau_1d"]],
         _residual_bytes(501, 5, 1)),
        ("verify-osc-n20", "osc-residual",
         ["--n", "20", "--refinements", "5", "--time", inputs["osc_time"]],
         _residual_bytes(501, 5, 1)),
    ]
    ops = [
        cli_op(name, ["verify", "--suite", suite, *common, *extra],
               lambda o, suite=suite: checks.check_verify(o.exit_code, o.stdout, suite), nbytes)
        for name, suite, extra, nbytes in cases
    ]
    fam = classical.TrajectoryFamily.from_level(params, 2)
    alphas = [float(a) for a in inputs["alphas"]]
    t1, t2 = -0.4 / params.omega, 1.1 / params.omega

    def identities():
        return [classical.action_boundary_identity(fam, a, t1, t2).defect for a in alphas]

    ops.append(lib_op(
        "action-identity", identities,
        lambda defects: [p for i, d in enumerate(defects)
                         for p in checks.check_close(f"action defect {i}", d, 0.0, 1e-8)],
        0,
    ))
    # known defect: outside the box drawn in generate() the fixed base grid is
    # pre-asymptotic and a correct state fails its order gate (exit 4)
    probes = [cli_op(
        "probe-verify-n40-wide",
        ["verify", "--suite", "free-residual", "--mass", "0.8", "--omega", "1.25", "--n", "40",
         "--refinements", "5", "--tau", "1.0"],
        lambda o: checks.check_verify(o.exit_code, o.stdout, "free-residual"),
        _residual_bytes(501, 5, 1),
    )]
    return ops, probes


def _peaks_highn(inputs, seed, root, common, params):
    natural = 1.0 / math.sqrt(params.mass * params.omega)
    ops = []
    for n, key, count in ((40, "taus_n40", 200001), (120, "taus_n120", 400001)):
        taus = [float(t) for t in inputs[key]]
        ops.append(cli_op(
            f"peaks-n{n}",
            ["peaks", *common, "--n", str(n), "--tau", ",".join(inputs[key]),
             "--count", str(count)],
            lambda o, n=n, taus=taus: checks.check_peaks(o.data, taus, n, params.omega, natural),
            len(taus) * count * 24, out=f"peaks_n{n}.csv",
        ))

    levels = [10, 40, 80, 120, 150]

    def gaps_check(gaps) -> list[str]:
        ratios = [g for _, g in gaps]
        if [n for n, _ in gaps] != levels:
            return [f"levels {[n for n, _ in gaps]} != {levels}"]
        if not all(r > 0 for r in ratios) or not all(a > b for a, b in zip(ratios, ratios[1:])):
            return [f"gap ratios not positive and strictly decreasing: {ratios}"]
        return []

    ops.append(lib_op(
        "semiclassical-gap", lambda: analysis.semiclassical_gap(params, levels, count=100001),
        gaps_check, len(levels) * 100001 * 24,
    ))

    tau = float(inputs["spectral_tau"])
    qn = QuantumNumbers1D(60)
    grid = analysis.auto_grid(params, 60, tau, 2**18)

    def spectral():
        initial = analysis.sample_field_1d(
            lambda y, s: transform.lifted_eigenstate_1d(params, qn, y, s), grid, 0.0
        )
        return analysis.spectral_propagate_free(initial, tau, params.mass)

    def spectral_check(final) -> list[str]:
        closed = transform.lifted_eigenstate_1d(params, qn, grid.nodes, tau)
        gap = math.sqrt(float(simpson(np.abs(final.values - closed) ** 2, x=grid.nodes)))
        return (checks.check_close("spectral L2 gap to closed form", gap, 0.0, 1e-6)
                + checks.check_close("spectral norm", analysis.norm_1d(final), 1.0, 1e-8))

    ops.append(lib_op("spectral-n60", spectral, spectral_check, 4 * 2**18 * 16))

    # known defects: overflow of the Hermite recurrence from n of about 180
    probe_nodes = np.linspace(-40.0, 40.0, 2001)
    probes = [
        cli_op(
            "probe-gen1d-n300",
            ["gen1d", *common, "--n", "300", "--tau", "0", "--grid", "-40:40:2001"],
            _table_check("csv", ["tau", "y", "re", "im", "density"],
                         lambda: _field_1d_expected(params, 300, [0.0], probe_nodes), seed),
            _field_bytes(2001, 5), out="probe_gen1d.csv",
        ),
        cli_op(
            "probe-peaks-n250",
            ["peaks", *common, "--n", "250", "--tau", "0", "--count", "20001"],
            lambda o: checks.check_peaks(o.data, [0.0], 250, params.omega, natural),
            20001 * 24, out="probe_peaks.csv",
        ),
    ]
    return ops, probes
