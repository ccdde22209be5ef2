"""Command-line front end.

Subcommands generate solution/density tables, classical envelopes and
trajectories, peak tracks, spectral propagation, and residual
verification reports, as CSV or JSON artifacts for external plotting.

Exit codes: 0 ok, 2 usage error, 3 numerical precondition failure
(peak detection, boundary decay, half-period window, non-finite
sampled values, a non-finite table, which is then not written, or a
floating-point overflow), 4 verification failure (a verify suite ran
but its pass criterion did not hold), 5 I/O error (the output file
could not be written).

Grid specs are `min:max:count`; tau lists are comma-separated values or
`min:max:count` ranges.  Tables are written column-wise, a block of rows
at a time.  CSV output is deterministic: identical invocations produce
bit-identical files (floats are written in shortest round-trip form).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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
from .errors import NonFiniteError, OscfreeError
from .oscillator import OscillatorParams, QuantumNumbers1D, QuantumNumbers2D, eigenstate_1d
from .transform import LiftedState, lifted_eigenstate_1d, lifted_eigenstate_2d

SCHEMA_VERSION = 1
ORDER_BAND = (1.8, 2.2)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4
EXIT_IO = 5

_CSV_BLOCK_ROWS = 4096


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


def _write_table(
    path: str, header: list[str], columns: list[np.ndarray], fmt: str, command: str
) -> None:
    """Write one 1-D array per column; a non-finite float column fails before path is opened."""
    for name, column in zip(header, columns):
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            raise NonFiniteError(
                f"{command}: column {name!r} has non-finite values; no table written"
            )
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            f.write(",".join(header) + "\n")
            # repr is csv.writer's float format; formatting in blocks bounds the
            # memory held by the cell strings
            for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                cells = [map(repr, c[start : start + _CSV_BLOCK_ROWS].tolist()) for c in columns]
                f.write("\n".join(map(",".join, zip(*cells))) + "\n")
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "columns": header,
            "rows": list(zip(*[c.tolist() for c in columns])),
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _field_columns(values: np.ndarray) -> list[np.ndarray]:
    re = values.real
    im = values.imag
    # density written as re^2 + im^2 so re-reading the table reproduces it exactly
    return [re, im, re * re + im * im]


def _run_gen1d(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    qn = QuantumNumbers1D(args.n)
    y = args.grid.nodes
    values = np.concatenate([lifted_eigenstate_1d(params, qn, y, tau) for tau in args.tau])
    columns = [np.repeat(args.tau, y.size), np.tile(y, len(args.tau)), *_field_columns(values)]
    _write_table(args.out, ["tau", "y", "re", "im", "density"], columns, args.format, "gen1d")
    return EXIT_OK


def _run_gen2d(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    qn = QuantumNumbers2D(args.n_radial, args.l)
    y1, y2 = args.grid.nodes()
    values = np.concatenate(
        [lifted_eigenstate_2d(params, qn, y1, y2, tau).ravel() for tau in args.tau]
    )
    count = len(args.tau)
    columns = [
        np.repeat(args.tau, y1.size),
        np.tile(y1.ravel(), count),
        np.tile(y2.ravel(), count),
        *_field_columns(values),
    ]
    _write_table(
        args.out, ["tau", "y1", "y2", "re", "im", "density"], columns, args.format, "gen2d"
    )
    return EXIT_OK


def _run_peaks(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    qn = QuantumNumbers1D(args.n)
    per_tau = []
    for tau in args.tau:
        grid = auto_grid(params, args.n, tau, args.count)
        fld = sample_field(lambda yy, tt: lifted_eigenstate_1d(params, qn, yy, tt), grid, tau)
        record = find_density_maxima(fld)
        widths = peak_widths(fld, record)
        k = len(widths)
        per_tau.append((np.full(k, tau), np.arange(k), record.positions, record.heights, widths))
    _write_table(
        args.out,
        ["tau", "peak_index", "position", "height", "fwhm"],
        [np.concatenate(c) for c in zip(*per_tau)],
        args.format,
        "peaks",
    )
    return EXIT_OK


def _run_envelope(args: argparse.Namespace) -> int:
    fam = TrajectoryFamily(args.energy, OscillatorParams(args.mass, args.omega))
    taus = np.array(args.tau)
    if args.alpha:
        header = ["tau", "alpha", "y"]
        columns = [
            np.tile(taus, len(args.alpha)),
            np.repeat(args.alpha, taus.size),
            np.concatenate([free_trajectory(fam, alpha, taus) for alpha in args.alpha]),
        ]
    else:
        header = ["tau", "y_plus", "y_minus"]
        columns = [taus, *envelope(fam, taus)]
    _write_table(args.out, header, columns, args.format, "envelope")
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    # the free suites check the free equation at tau; osc-residual overrides both
    time, omega = args.tau, None
    if args.suite == "free-residual":
        state = LiftedState(params, 1, QuantumNumbers1D(args.n))
        solution = lambda y, s: state(y, tau=s)
        grid = auto_grid(params, args.n, args.tau, args.base_count)
        run_params = {"mass": args.mass, "omega": args.omega, "n": args.n, "tau": args.tau}
    elif args.suite == "osc-residual":
        qn = QuantumNumbers1D(args.n)
        solution = lambda x, t: eigenstate_1d(params, qn, x, t)
        grid = auto_grid(params, args.n, 0.0, args.base_count)
        time, omega = args.time, params.omega
        run_params = {"mass": args.mass, "omega": args.omega, "n": args.n, "t": args.time}
    elif args.suite == "free-residual-2d":
        qn = QuantumNumbers2D(args.n_radial, args.l)
        state = LiftedState(params, 2, qn)
        solution = lambda y1, y2, s: state(y1, y2, tau=s)
        grid = auto_grid_2d(params, qn, args.tau, args.base_count)
        run_params = {
            "mass": args.mass,
            "omega": args.omega,
            "n_radial": args.n_radial,
            "l": args.l,
            "tau": args.tau,
        }
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    report = residual_study(solution, grid, time, params.mass, args.refinements, omega)
    passed = ORDER_BAND[0] <= report.fitted_order <= ORDER_BAND[1]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "suite": args.suite,
        "params": run_params,
        **report.to_dict(),
        "pass": passed,
    }
    text = json.dumps(payload)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK if passed else EXIT_VERIFICATION


def _run_propagate(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    qn = QuantumNumbers1D(args.n)
    y = args.grid.nodes
    initial = sample_field(lambda yy, s: lifted_eigenstate_1d(params, qn, yy, s), args.grid, 0.0)
    final = spectral_propagate_free(initial, args.to_tau, params.mass)
    closed = lifted_eigenstate_1d(params, qn, y, args.to_tau)
    diff = np.abs(final.values - closed) ** 2
    l2_diff = math.sqrt(float(simpson(diff, x=y)))
    columns = [np.full(y.size, args.to_tau), y, *_field_columns(final.values)]
    _write_table(args.out, ["tau", "y", "re", "im", "density"], columns, args.format, "propagate")
    print(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "propagate",
                "to_tau": args.to_tau,
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


def _resolve(args: argparse.Namespace) -> None:
    """Parse the spec flags in place and fill in the values derived from others."""
    if args.command == "verify":
        args.tau = float(args.tau) if args.tau else 0.5
        if args.base_count is None:
            args.base_count = 101 if args.suite == "free-residual-2d" else 501
        return
    if args.command != "propagate":
        args.tau = _parse_range(args.tau, "tau")
    if args.command == "gen2d":
        args.grid = _parse_grid2(args.grid)
    elif args.command in ("gen1d", "propagate"):
        args.grid = _parse_grid(args.grid)
    elif args.command == "envelope":
        if args.energy_from_n is not None:
            params = OscillatorParams(args.mass, args.omega)
            args.energy = params.omega * (args.energy_from_n + 0.5)
        if args.alpha:
            args.alpha = _parse_range(args.alpha, "alpha")


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


def _numerical_failure(exc: OscfreeError) -> int:
    error = {"type": type(exc).__name__, "message": str(exc)}
    print(json.dumps({"schema_version": SCHEMA_VERSION, "error": error}))
    return EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_fuse_dash_values(argv))
    try:
        _resolve(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return _RUNNERS[args.command](args)
    except OscfreeError as exc:
        return _numerical_failure(exc)
    except OverflowError as exc:
        # Python float arithmetic raises where numpy would return inf
        return _numerical_failure(NonFiniteError(f"floating-point overflow: {exc}"))
    except ValueError as exc:
        # bad parameter values that survived flag parsing (e.g. negative energy)
        print(f"oscfree: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"oscfree: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
