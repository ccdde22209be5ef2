"""Command-line front end.

Subcommands generate solution/density tables, classical envelopes and
trajectories, peak tracks, spectral propagation, and residual
verification reports, as CSV or JSON artifacts for external plotting.

Exit codes: 0 ok, 2 usage error (a malformed or non-finite flag value,
named in the message, or a grid, range or table over the 2**24-point or
2**24-row budget), 3 numerical precondition failure (peak detection,
including a level that shows other than n + 1 maxima on its peaks grid,
boundary decay, half-period window, non-finite sampled values, a
non-finite table, which is then not written, or a floating-point
overflow, invalid operation or division by zero), 4 verification failure
(a verify suite ran but its pass criterion did not hold), 5 I/O error
(the output file could not be written).  Nothing is written on exit 2 or
3, and verify writes its --out report before printing it.

Grid specs are `min:max:count`; tau lists are comma-separated values or
`min:max:count` ranges.  Any flag takes a dash-leading value (-1e-3,
-20:20:2001) as a separate token, the same as --flag=value.  CSV and JSON
tables are written by one chunked pass over the cells (the JSON bytes equal
json.dumps of the whole table), deterministically: identical invocations
give bit-identical files, floats in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    _POINT_BUDGET,
    ComplexField,
    Grid,
    Grid1D,
    _lifted_peaks,
    auto_grid,
    auto_grid_2d,
    coordinates,
    norm,
    residual_study,
    sample_field,
    spectral_propagate_free,
)
from .classical import TrajectoryFamily, envelope, free_trajectory
from .errors import NonFiniteError, OscfreeError
from .oscillator import OscillatorParams, QuantumNumbers1D, QuantumNumbers2D, eigenstate_1d
from .transform import lifted_eigenstate_1d, lifted_eigenstate_2d

SCHEMA_VERSION = 1
ORDER_BAND = (1.8, 2.2)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4
EXIT_IO = 5

_BLOCK_ROWS = 4096


def _parse_finite(spec: str) -> float:
    value = float(spec)
    if not math.isfinite(value):
        raise ValueError(f"need a finite value, got {spec!r}")
    return value


def _parse_range(spec: str, what: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) == 3:
        lo, hi = _parse_finite(parts[0]), _parse_finite(parts[1])
        count = int(parts[2])
        if not (1 <= count <= _POINT_BUDGET and math.isfinite(hi - lo)):
            raise ValueError(f"{what} needs a finite span, 1 to {_POINT_BUDGET} values: {spec!r}")
        return np.linspace(lo, hi, count).tolist()
    return [_parse_finite(v) for v in spec.split(",")]


def _parse_grid(spec: str) -> Grid1D:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be min:max:count, got {spec!r}")
    return Grid1D(float(parts[0]), float(parts[1]), int(parts[2]))


def _parse_grid2(spec: str) -> Grid:
    specs = spec.split(",")
    if len(specs) not in (1, 2):
        raise ValueError(f"2D grid spec must be one or two min:max:count blocks, got {spec!r}")
    axes = [_parse_grid(s) for s in specs]
    return Grid((axes[0], axes[-1]))  # one block: a square grid


def _flag_type(parse, *extra):
    """An argparse type from a spec parser; its ValueError text names the flag."""

    def convert(spec: str):
        try:
            return parse(spec, *extra)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def _write_table(
    path: str, header: list[str], blocks: list[list[np.ndarray]], fmt: str, command: str
) -> None:
    """Write a table given as blocks of rows, each block one 1-D array per column.

    Every float column of every block is checked before path is opened: a non-finite
    table writes nothing.  repr is the float and int text of csv.writer and json alike,
    so one chunked pass of repr cells serves both formats and only the framing differs.
    """
    for k, name in enumerate(header):
        if not all(np.isfinite(b[k]).all() for b in blocks if b[k].dtype.kind == "f"):
            raise NonFiniteError(
                f"{command}: column {name!r} has non-finite values; no table written"
            )
    meta = json.dumps({"schema_version": SCHEMA_VERSION, "command": command, "columns": header})
    # head, cell and row separators, chunk close, leads of the first and later chunks, tail
    head, cell, row, close, lead, later, tail = {
        "csv": (",".join(header) + "\n", ",", "\n", "\n", "", "", ""),
        "json": (meta[:-1] + ', "rows": [', ", ", "], [", "]", "[", ", [", "]}\n"),
    }[fmt]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(head)
        for block in blocks:
            for start in range(0, len(block[0]), _BLOCK_ROWS):
                cells = [map(repr, c[start : start + _BLOCK_ROWS].tolist()) for c in block]
                f.write(lead + row.join(map(cell.join, zip(*cells))) + close)
                lead = later
        f.write(tail)


def _check_rows(taus: int, per_tau: int, what: str) -> None:
    """Fail before anything is evaluated when a table of taus x per_tau rows is over the budget."""
    if taus * per_tau > _POINT_BUDGET:
        rows = f"{taus} taus x {per_tau} {what}"
        raise ValueError(f"need at most {_POINT_BUDGET} table rows, got {rows}")


def _write_field_table(args: argparse.Namespace, lift, taus, names) -> None:
    """Tabulate lift(*coords, tau) on args.grid per tau as tau, coordinate, re, im, density."""
    _check_rows(len(taus), math.prod(axis.count for axis in args.grid.axes), "grid points")
    coords = [c.ravel() for c in coordinates(args.grid)]
    blocks = []
    for tau in taus:
        values = lift(*coords, tau)
        re, im = values.real, values.imag
        # density written as re^2 + im^2 so re-reading the table reproduces it exactly
        blocks.append([np.full(coords[0].size, tau), *coords, re, im, re * re + im * im])
    header = ["tau", *names, "re", "im", "density"]
    _write_table(args.out, header, blocks, args.format, args.command)


def _run_gen1d(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    qn = QuantumNumbers1D(args.n)
    lift = lambda y, tau: lifted_eigenstate_1d(params, qn, y, tau)
    _write_field_table(args, lift, args.tau, ["y"])
    return EXIT_OK


def _run_gen2d(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    qn = QuantumNumbers2D(args.n_radial, args.l)
    lift = lambda y1, y2, tau: lifted_eigenstate_2d(params, qn, y1, y2, tau)
    _write_field_table(args, lift, args.tau, ["y1", "y2"])
    return EXIT_OK


def _run_peaks(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    blocks = []
    for tau in args.tau:
        rec = _lifted_peaks(params, args.n, tau, args.count)
        measured = map(np.array, (rec.positions, rec.heights, rec.widths))
        blocks.append([np.full(len(rec.widths), tau), np.arange(len(rec.widths)), *measured])
    header = ["tau", "peak_index", "position", "height", "fwhm"]
    _write_table(args.out, header, blocks, args.format, "peaks")
    return EXIT_OK


def _run_envelope(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    if args.energy_from_n is None:
        fam = TrajectoryFamily(args.energy, params)
    else:
        fam = TrajectoryFamily.from_level(params, args.energy_from_n)
    taus = np.array(args.tau)
    if args.alpha:
        _check_rows(taus.size, len(args.alpha), "alphas")
        header = ["tau", "alpha", "y"]
        blocks = [[taus, np.full(taus.size, a), free_trajectory(fam, a, taus)] for a in args.alpha]
    else:
        header = ["tau", "y_plus", "y_minus"]
        blocks = [[taus, *envelope(fam, taus)]]
    _write_table(args.out, header, blocks, args.format, "envelope")
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    base_count = args.base_count
    if base_count is None:
        base_count = 101 if args.suite == "free-residual-2d" else 501
    # the free suites check the free equation at tau; osc-residual overrides both
    time, omega = args.tau, None
    if args.suite == "free-residual":
        qn = QuantumNumbers1D(args.n)
        solution = lambda y, s: lifted_eigenstate_1d(params, qn, y, s)
        grid = auto_grid(params, args.n, args.tau, base_count)
        suite_params = {"n": args.n, "tau": args.tau}
    elif args.suite == "osc-residual":
        qn = QuantumNumbers1D(args.n)
        solution = lambda x, t: eigenstate_1d(params, qn, x, t)
        grid = auto_grid(params, args.n, 0.0, base_count)
        time, omega = args.time, params.omega
        suite_params = {"n": args.n, "t": args.time}
    else:
        qn = QuantumNumbers2D(args.n_radial, args.l)
        solution = lambda y1, y2, s: lifted_eigenstate_2d(params, qn, y1, y2, s)
        grid = auto_grid_2d(params, qn, args.tau, base_count)
        suite_params = {"n_radial": args.n_radial, "l": args.l, "tau": args.tau}
    report = residual_study(solution, grid, time, params.mass, args.refinements, omega)
    passed = ORDER_BAND[0] <= report.fitted_order <= ORDER_BAND[1]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "suite": args.suite,
        "params": {"mass": args.mass, "omega": args.omega, **suite_params},
        **report.to_dict(),
        "pass": passed,
    }
    text = json.dumps(payload)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _run_propagate(args: argparse.Namespace) -> int:
    params = OscillatorParams(args.mass, args.omega)
    qn = QuantumNumbers1D(args.n)
    initial = sample_field(lambda yy, s: lifted_eigenstate_1d(params, qn, yy, s), args.grid, 0.0)
    final = spectral_propagate_free(initial, args.to_tau, params.mass)
    closed = lifted_eigenstate_1d(params, qn, args.grid.nodes, args.to_tau)
    diff = ComplexField(args.grid, final.values - closed, args.to_tau)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "propagate",
        "to_tau": args.to_tau,
        "norm": norm(final),
        "l2_difference_vs_closed_form": math.sqrt(norm(diff)),
    }
    _write_field_table(args, lambda yy, tau: final.values, [args.to_tau], ["y"])
    print(json.dumps(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscfree",
        description="Accelerating free-particle wave packets: generation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tau_list = _flag_type(_parse_range, "tau")
    finite = _flag_type(_parse_finite)
    grid = _flag_type(_parse_grid)

    def add_command(name: str, run, summary: str, with_format: bool = True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
        p.add_argument("--omega", type=float, default=1.0, help="angular frequency (default 1)")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    p = add_command("gen1d", _run_gen1d, "sample a lifted 1D eigenstate on a grid")
    p.add_argument("--n", type=int, required=True, help="1D level")
    p.add_argument("--tau", type=tau_list, required=True, help="free times: a,b,c or min:max:count")
    p.add_argument("--grid", type=grid, required=True, help="grid spec min:max:count")
    p.add_argument("--out", required=True)

    p = add_command("gen2d", _run_gen2d, "sample a lifted 2D eigenstate on a grid")
    p.add_argument("--l", type=int, required=True, help="angular momentum")
    p.add_argument("--n-radial", type=int, default=0, help="radial quantum number (default 0)")
    p.add_argument("--tau", type=tau_list, required=True)
    p.add_argument(
        "--grid",
        type=_flag_type(_parse_grid2),
        required=True,
        help="one or two min:max:count blocks (comma-separated)",
    )
    p.add_argument("--out", required=True)

    p = add_command("peaks", _run_peaks, "track density maxima of a lifted 1D eigenstate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=tau_list, required=True)
    p.add_argument("--count", type=int, default=32001, help="auto-grid node count")
    p.add_argument("--out", required=True)

    p = add_command("envelope", _run_envelope, "classical envelope (or trajectory family members)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--energy", type=float, help="family energy E > 0")
    group.add_argument("--energy-from-n", type=int, help="use the energy of 1D level n")
    p.add_argument("--tau", type=tau_list, required=True)
    p.add_argument(
        "--alpha",
        type=_flag_type(_parse_range, "alpha"),
        help="phase angles a,b,c: emit trajectories tau,alpha,y instead",
    )
    p.add_argument("--out", required=True)

    p = add_command(
        "verify", _run_verify, "residual convergence study with a JSON report", with_format=False
    )
    p.add_argument(
        "--suite",
        required=True,
        choices=("free-residual", "osc-residual", "free-residual-2d"),
    )
    p.add_argument("--n", type=int, default=2, help="1D level (1D suites)")
    p.add_argument("--l", type=int, default=1, help="angular momentum (2D suite)")
    p.add_argument("--n-radial", type=int, default=0)
    p.add_argument(
        "--tau", type=finite, default=0.5, help="free time of the residual check (default 0.5)"
    )
    p.add_argument("--time", type=finite, default=0.3, help="oscillator time (osc-residual)")
    p.add_argument("--refinements", type=int, default=4)
    p.add_argument("--base-count", type=int, default=None, help="coarsest grid node count")
    p.add_argument("--out", help="also write the JSON report here")

    p = add_command("propagate", _run_propagate, "spectrally propagate a lifted state and compare")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--to-tau", type=finite, required=True)
    p.add_argument("--grid", type=grid, required=True)
    p.add_argument("--out", required=True)
    return parser


def _fuse_dash_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Rewrite "--flag -value" as "--flag=-value" for each one-value flag of the parser.

    argparse takes a dash-leading value such as -1e-3 or -20:20:2001 for an
    option; a token that starts with "--" or is an option is never a value.
    """
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for p in commands.choices.values() for a in p._actions]
    options = {flag for a in actions for flag in a.option_strings}
    one_value = {flag for a in actions if a.nargs is None for flag in a.option_strings}
    out: list[str] = []
    for tok in argv:
        is_value = tok.startswith("-") and not tok.startswith("--") and tok not in options
        if is_value and out and out[-1] in one_value:
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def _numerical_failure(exc: OscfreeError) -> int:
    error = {"type": type(exc).__name__, "message": str(exc)}
    print(json.dumps({"schema_version": SCHEMA_VERSION, "error": error}))
    return EXIT_NUMERICAL


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_fuse_dash_values(parser, argv))
        with np.errstate(over="raise", invalid="raise"):
            return args.run(args)
    except OscfreeError as exc:
        return _numerical_failure(exc)
    except ArithmeticError as exc:
        # numpy's FloatingPointError under errstate, and Python float
        # OverflowError or ZeroDivisionError where numpy would return inf or nan
        return _numerical_failure(NonFiniteError(f"floating-point failure: {exc}"))
    except ValueError as exc:
        # bad parameter values that survived flag parsing (e.g. negative energy)
        print(f"oscfree: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"oscfree: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
