"""Command-line front end.

Subcommands generate solution/density tables, classical envelopes and
trajectories, peak tracks, spectral propagation, and residual
verification reports, as CSV or JSON artifacts for external plotting.

Exit codes: 0 ok, 2 usage error, 3 numerical precondition failure
(peak detection, boundary decay, half-period window, non-finite
sampled values), 4 verification failure (a verify suite ran
but its pass criterion did not hold).

Grid specs are `min:max:count`; tau lists are comma-separated values or
`min:max:count` ranges.  CSV output is deterministic: identical configs
produce bit-identical files (floats are written in shortest round-trip
form).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

from .analysis import (
    Grid1D,
    Grid2D,
    auto_grid,
    auto_grid_2d,
    find_density_maxima,
    norm,
    peak_widths,
    residual_study,
    sample_field,
    spectral_propagate_free,
)
from .classical import TrajectoryFamily, envelope, free_trajectory
from .errors import OscfreeError
from .oscillator import OscillatorParams, QuantumNumbers1D, QuantumNumbers2D, eigenstate_1d
from .transform import LiftedState, lifted_eigenstate_1d, lifted_eigenstate_2d

SCHEMA_VERSION = 1
ORDER_BAND = (1.8, 2.2)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


@dataclass
class RunConfig:
    """Fully resolved invocation; parameter set depends on the command."""

    command: str
    mass: float = 1.0
    omega: float = 1.0
    n: int | None = None
    l: int | None = None
    n_radial: int = 0
    tau_list: list[float] = field(default_factory=list)
    grid: Grid1D | None = None
    grid2: Grid2D | None = None
    format: str = "csv"
    out_path: str | None = None
    count: int = 32001
    energy: float | None = None
    alphas: list[float] | None = None
    suite: str | None = None
    refinements: int = 4
    base_count: int = 501
    time: float = 0.3
    to_tau: float | None = None


def _parse_range(spec: str, what: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) == 3:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError(f"{what} range needs a positive count, got {count}")
        return [float(v) for v in np.linspace(lo, hi, count)]
    return [float(v) for v in spec.split(",")]


def _parse_grid(spec: str) -> Grid1D:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be min:max:count, got {spec!r}")
    return Grid1D(float(parts[0]), float(parts[1]), int(parts[2]))


def _parse_grid2(spec: str) -> Grid2D:
    specs = spec.split(",")
    if len(specs) == 1:
        axis = _parse_grid(specs[0])
        return Grid2D(axis, axis)
    if len(specs) == 2:
        return Grid2D(_parse_grid(specs[0]), _parse_grid(specs[1]))
    raise ValueError(f"2D grid spec must be one or two min:max:count blocks, got {spec!r}")


def _write_table(path: str, header: list[str], rows: list[list], fmt: str, command: str) -> None:
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "columns": header,
            "rows": rows,
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _float_row(*values) -> list:
    return [v if isinstance(v, int) else float(v) for v in values]


def _run_gen1d(config: RunConfig) -> int:
    params = OscillatorParams(config.mass, config.omega)
    qn = QuantumNumbers1D(config.n)
    y = config.grid.nodes
    rows: list[list] = []
    for tau in config.tau_list:
        values = lifted_eigenstate_1d(params, qn, y, tau)
        re = values.real
        im = values.imag
        # density written as re^2 + im^2 so re-reading the CSV reproduces it exactly
        dens = re * re + im * im
        for i in range(y.size):
            rows.append(_float_row(tau, y[i], re[i], im[i], dens[i]))
    _write_table(config.out_path, ["tau", "y", "re", "im", "density"], rows, config.format, "gen1d")
    return EXIT_OK


def _run_gen2d(config: RunConfig) -> int:
    params = OscillatorParams(config.mass, config.omega)
    qn = QuantumNumbers2D(config.n_radial, config.l)
    y1, y2 = config.grid2.nodes()
    rows: list[list] = []
    for tau in config.tau_list:
        values = lifted_eigenstate_2d(params, qn, y1, y2, tau)
        re = values.real
        im = values.imag
        dens = re * re + im * im
        for i in range(y1.shape[0]):
            for j in range(y1.shape[1]):
                rows.append(_float_row(tau, y1[i, j], y2[i, j], re[i, j], im[i, j], dens[i, j]))
    _write_table(
        config.out_path, ["tau", "y1", "y2", "re", "im", "density"], rows, config.format, "gen2d"
    )
    return EXIT_OK


def _run_peaks(config: RunConfig) -> int:
    params = OscillatorParams(config.mass, config.omega)
    qn = QuantumNumbers1D(config.n)
    rows: list[list] = []
    for tau in config.tau_list:
        grid = auto_grid(params, config.n, tau, config.count)
        fld = sample_field(lambda yy, tt: lifted_eigenstate_1d(params, qn, yy, tt), grid, tau)
        record = find_density_maxima(fld)
        widths = peak_widths(fld, record)
        for k, (pos, height, width) in enumerate(
            zip(record.positions, record.heights, widths)
        ):
            rows.append(_float_row(tau, k, pos, height, width))
    _write_table(
        config.out_path,
        ["tau", "peak_index", "position", "height", "fwhm"],
        rows,
        config.format,
        "peaks",
    )
    return EXIT_OK


def _run_envelope(config: RunConfig) -> int:
    params = OscillatorParams(config.mass, config.omega)
    fam = TrajectoryFamily(config.energy, params)
    rows: list[list] = []
    if config.alphas:
        for alpha in config.alphas:
            for tau in config.tau_list:
                rows.append(_float_row(tau, alpha, free_trajectory(fam, alpha, tau)))
        _write_table(config.out_path, ["tau", "alpha", "y"], rows, config.format, "envelope")
        return EXIT_OK
    for tau in config.tau_list:
        plus, minus = envelope(fam, tau)
        rows.append(_float_row(tau, plus, minus))
    _write_table(config.out_path, ["tau", "y_plus", "y_minus"], rows, config.format, "envelope")
    return EXIT_OK


def _run_verify(config: RunConfig) -> int:
    params = OscillatorParams(config.mass, config.omega)
    tau = config.tau_list[0] if config.tau_list else 0.5
    # the free suites check the free equation at tau; osc-residual overrides both
    time, omega = tau, None
    if config.suite == "free-residual":
        state = LiftedState(params, 1, QuantumNumbers1D(config.n))
        solution = lambda y, s: state(y, tau=s)
        grid = auto_grid(params, config.n, tau, config.base_count)
        run_params = {"mass": config.mass, "omega": config.omega, "n": config.n, "tau": tau}
    elif config.suite == "osc-residual":
        qn = QuantumNumbers1D(config.n)
        solution = lambda x, t: eigenstate_1d(params, qn, x, t)
        grid = auto_grid(params, config.n, 0.0, config.base_count)
        time, omega = config.time, params.omega
        run_params = {"mass": config.mass, "omega": config.omega, "n": config.n, "t": config.time}
    elif config.suite == "free-residual-2d":
        qn = QuantumNumbers2D(config.n_radial, config.l)
        state = LiftedState(params, 2, qn)
        solution = lambda y1, y2, s: state(y1, y2, tau=s)
        grid = auto_grid_2d(params, qn, tau, config.base_count)
        run_params = {
            "mass": config.mass,
            "omega": config.omega,
            "n_radial": config.n_radial,
            "l": config.l,
            "tau": tau,
        }
    else:
        raise ValueError(f"unknown suite {config.suite!r}")
    report = residual_study(solution, grid, time, params.mass, config.refinements, omega)
    passed = ORDER_BAND[0] <= report.fitted_order <= ORDER_BAND[1]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "suite": config.suite,
        "params": run_params,
        **report.to_dict(),
        "pass": passed,
    }
    text = json.dumps(payload)
    print(text)
    if config.out_path:
        Path(config.out_path).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK if passed else EXIT_VERIFICATION


def _run_propagate(config: RunConfig) -> int:
    params = OscillatorParams(config.mass, config.omega)
    qn = QuantumNumbers1D(config.n)
    initial = sample_field(
        lambda y, s: lifted_eigenstate_1d(params, qn, y, s), config.grid, 0.0
    )
    final = spectral_propagate_free(initial, config.to_tau, params.mass)
    closed = lifted_eigenstate_1d(params, qn, config.grid.nodes, config.to_tau)
    diff = np.abs(final.values - closed) ** 2
    l2_diff = math.sqrt(float(simpson(diff, x=config.grid.nodes)))
    y = config.grid.nodes
    re = final.values.real
    im = final.values.imag
    dens = re * re + im * im
    rows = [
        _float_row(config.to_tau, y[i], re[i], im[i], dens[i]) for i in range(y.size)
    ]
    _write_table(
        config.out_path, ["tau", "y", "re", "im", "density"], rows, config.format, "propagate"
    )
    print(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "propagate",
                "to_tau": config.to_tau,
                "norm": norm(final),
                "l2_difference_vs_closed_form": l2_diff,
            }
        )
    )
    return EXIT_OK


_RUNNERS = {
    "gen1d": _run_gen1d,
    "gen2d": _run_gen2d,
    "peaks": _run_peaks,
    "envelope": _run_envelope,
    "verify": _run_verify,
    "propagate": _run_propagate,
}


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    return _RUNNERS[config.command](config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscfree",
        description="Accelerating free-particle wave packets: generation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_format: bool = True) -> None:
        p.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
        p.add_argument("--omega", type=float, default=1.0, help="angular frequency (default 1)")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("gen1d", help="sample a lifted 1D eigenstate on a grid")
    add_common(p)
    p.add_argument("--n", type=int, required=True, help="1D level")
    p.add_argument("--tau", required=True, help="free times: a,b,c or min:max:count")
    p.add_argument("--grid", required=True, help="grid spec min:max:count")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen2d", help="sample a lifted 2D eigenstate on a grid")
    add_common(p)
    p.add_argument("--l", type=int, required=True, help="angular momentum")
    p.add_argument("--n-radial", type=int, default=0, help="radial quantum number (default 0)")
    p.add_argument("--tau", required=True)
    p.add_argument("--grid", required=True, help="one or two min:max:count blocks (comma-separated)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("peaks", help="track density maxima of a lifted 1D eigenstate")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--count", type=int, default=32001, help="auto-grid node count")
    p.add_argument("--out", required=True)

    p = sub.add_parser("envelope", help="classical envelope (or trajectory family members)")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--energy", type=float, help="family energy E > 0")
    group.add_argument("--energy-from-n", type=int, help="use the energy of 1D level n")
    p.add_argument("--tau", required=True)
    p.add_argument("--alpha", help="phase angles a,b,c: emit trajectories tau,alpha,y instead")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="residual convergence study with a JSON report")
    add_common(p, with_format=False)
    p.add_argument(
        "--suite",
        required=True,
        choices=("free-residual", "osc-residual", "free-residual-2d"),
    )
    p.add_argument("--n", type=int, default=2, help="1D level (1D suites)")
    p.add_argument("--l", type=int, default=1, help="angular momentum (2D suite)")
    p.add_argument("--n-radial", type=int, default=0)
    p.add_argument("--tau", help="free time of the residual check (default 0.5)")
    p.add_argument("--time", type=float, default=0.3, help="oscillator time (osc-residual)")
    p.add_argument("--refinements", type=int, default=4)
    p.add_argument("--base-count", type=int, default=None, help="coarsest grid node count")
    p.add_argument("--out", help="also write the JSON report here")

    p = sub.add_parser("propagate", help="spectrally propagate a lifted state and compare")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--to-tau", type=float, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command, mass=args.mass, omega=args.omega)
    try:
        if args.command in ("gen1d", "gen2d", "peaks", "envelope"):
            config.tau_list = _parse_range(args.tau, "tau")
        if args.command == "gen1d":
            config.n = args.n
            config.grid = _parse_grid(args.grid)
        elif args.command == "gen2d":
            config.l = args.l
            config.n_radial = args.n_radial
            config.grid2 = _parse_grid2(args.grid)
        elif args.command == "peaks":
            config.n = args.n
            config.count = args.count
        elif args.command == "envelope":
            if args.energy_from_n is not None:
                params = OscillatorParams(args.mass, args.omega)
                config.energy = params.omega * (args.energy_from_n + 0.5)
            else:
                config.energy = args.energy
            if args.alpha:
                config.alphas = _parse_range(args.alpha, "alpha")
        elif args.command == "verify":
            config.suite = args.suite
            config.n = args.n
            config.l = args.l
            config.n_radial = args.n_radial
            config.tau_list = [float(args.tau)] if args.tau else []
            config.time = args.time
            config.refinements = args.refinements
            if args.base_count is not None:
                config.base_count = args.base_count
            elif args.suite == "free-residual-2d":
                config.base_count = 101
            config.out_path = args.out
        elif args.command == "propagate":
            config.n = args.n
            config.to_tau = args.to_tau
            config.grid = _parse_grid(args.grid)
        if args.command != "verify":
            config.format = getattr(args, "format", "csv")
            config.out_path = args.out
    except ValueError as exc:
        parser.error(str(exc))
    return config


_VALUE_FLAGS = {"--grid", "--tau", "--alpha"}


def _fuse_dash_values(argv: list[str]) -> list[str]:
    # argparse reads "-20:20:2001" as an option; rewrite to --flag=value form
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_fuse_dash_values(argv))
    config = _config_from_args(parser, args)
    try:
        return run(config)
    except OscfreeError as exc:
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            )
        )
        return EXIT_NUMERICAL
    except ValueError as exc:
        # bad parameter values that survived flag parsing (e.g. negative energy)
        print(f"oscfree: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
