"""Command-line front end.

Subcommands generate solution/density tables, classical envelopes and
trajectories, peak tracks, spectral propagation, and residual
verification reports, as CSV or JSON artifacts for external plotting.

Exit codes: 0 ok, 2 usage error (a malformed or non-finite flag value,
named in the message, a grid, range or table over the 2**24-point or
2**24-row budget, a 1D --n over oscillator.MAX_LEVEL_1D, a 2D level
2 --n-radial + |--l| over oscillator.MAX_LEVEL_2D, or a --mass and
--omega refused by OscillatorParams), 3 numerical
precondition failure (boundary decay, half-period window, non-finite
sampled values, a non-finite table, which is then not written, a verify
residual that underflowed to zero, or a floating-point overflow, invalid
operation or division by zero), 4 verification failure (a verify suite ran
but its pass criterion did not hold), 5 I/O error (the output file could
not be written).  An existing --out that is not a regular file (a
directory, /dev/stdout, /dev/null, a FIFO) is a usage error.  peaks
prints the exact maxima (analysis._exact_peaks) and samples no grid, so
it raises no peak detection error, and its --count is ignored, unchecked.

--out is replaced whole, so nothing is written on exit 2, 3 or 5 (see
_replacing); verify writes its --out report before printing it.  Tables are
written deterministically in the CSV or JSON format of _write_table, field
tables one slab of one tau at a time (_write_field_table); float cells get
repr's text from a vectorized formatter (_floattext).

Grid specs are `min:max:count`; tau lists are comma-separated values or
`min:max:count` ranges.  Every option but --help takes one value, so any
long flag, abbreviated or not, takes a dash-leading value (-1e-3,
-20:20:2001) as a separate token, the same as --flag=value.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Iterable

import numpy as np

from .analysis import (
    _POINT_BUDGET,
    ComplexField,
    Grid,
    Grid1D,
    _exact_peaks,
    _slabs,
    auto_grid,
    auto_grid_2d,
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

_BLOCK_ROWS = 4096  # table rows formatted at a time (_write_table)


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


def _parse_grid(spec: str, dims: int) -> Grid:
    """A dims-axis Grid from comma-separated min:max:count blocks, one per axis.

    One block serves every axis (a square grid in 2D); a 1D spec is one block.
    """
    blocks = spec.split(",") if dims == 2 else [spec]
    if len(blocks) not in (1, dims):
        raise ValueError(f"2D grid spec must be one or two min:max:count blocks, got {spec!r}")
    axes = []
    for block in blocks:
        parts = block.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be min:max:count, got {block!r}")
        axes.append(Grid1D(float(parts[0]), float(parts[1]), int(parts[2])))
    return Grid(tuple(axes * (dims // len(axes))))


def _flag_type(parse, *extra):
    """An argparse type from a spec parser; its ValueError text names the flag."""

    def convert(spec: str):
        try:
            return parse(spec, *extra)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


@contextlib.contextmanager
def _replacing(path: str):
    """A text file that replaces path when the with-block completes without error.

    It is a temporary file beside path's target (symlinks resolved, so a symlinked
    path is written through), os.replace'd over the target, so path is never seen
    half written.  An existing non-regular target (a directory, /dev/stdout, a FIFO)
    is refused with a ValueError.  On any failure the temporary file is removed, and
    an OSError names path, not it.  Its mode is 0o666 less the umask, as for open().
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"--out {path!r} is not a regular file; nothing written")
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with open(fd, "w", newline="", encoding="utf-8") as f:
            yield f
        os.replace(tmp, target)
    except OSError as exc:
        os.unlink(tmp)
        raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        os.unlink(tmp)
        raise


def _check_finite(command: str, header: list[str], block: list) -> None:
    """Raise NonFiniteError naming the first float array column of block with a non-finite cell."""
    for name, c in zip(header, block):
        if c.dtype.kind == "f" and not np.isfinite(c).all():
            raise NonFiniteError(f"{command}: column {name!r} has non-finite values; no table written")


def _rows_text(columns: list, lead: bytes, cell: bytes, close: bytes) -> bytes:
    """The text of rows given as columns: each row is lead, its cells joined by cell, then
    close.

    Float arrays get repr's bytes from _floattext.cells; bytes arrays ('S') are text.  Each
    row is laid out in a row of one fixed-width matrix, with NUL where no byte is, and the
    text is the matrix's other bytes.
    """
    from ._floattext import _WIDTH, cells

    pieces = [lead]
    for column in columns:
        pieces += [column, cell]
    pieces[-1] = close
    widths = [
        len(p) if isinstance(p, bytes) else _WIDTH if p.dtype.kind == "f" else p.itemsize
        for p in pieces
    ]
    matrix = np.empty((len(columns[0]), sum(widths)), np.uint8)
    at = 0
    for piece, width in zip(pieces, widths):
        block = matrix[:, at : at + width]
        at += width
        if isinstance(piece, bytes):
            block[:] = np.frombuffer(piece, np.uint8)
        elif piece.dtype.kind == "f":
            cells(piece, block)
        else:
            block[:] = piece.view(np.uint8).reshape(-1, width)
    return matrix.tobytes().translate(None, b"\0")


def _write_table(
    path: str, header: list[str], blocks: Iterable[list], fmt: str, command: str
) -> None:
    """Write a table given as an iterable of blocks of rows, one column per header name.

    A column is a 1-D float array, whose cells are formatted here, or a bytes array ('S') of
    cells already formatted as text.  Blocks are taken one at a time: each block's float
    columns are checked before any of its rows are written, and a non-finite one ends the
    write with path untouched (see _replacing).  Rows are formatted and written _BLOCK_ROWS
    at a time, across block ends (_rows_text).  Float cells get repr's bytes from the
    vectorized formatter (_floattext), so csv.writer and json would write the same cells.
    """
    meta = json.dumps({"schema_version": SCHEMA_VERSION, "command": command, "columns": header})
    # head, each row's lead, cell separator and close, the bytes of the first lead not written,
    # tail
    head, lead, cell, close, skip, tail = {
        "csv": (",".join(header) + "\n", b"", b",", b"\n", 0, ""),
        "json": (meta[:-1] + ', "rows": [', b", [", b", ", b"]", 2, "]}\n"),
    }[fmt]

    def joined(parts: list) -> list:
        return parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]

    def chunks():  # the checked blocks' rows, _BLOCK_ROWS at a time
        parts, rows = [], 0
        for block in blocks:
            _check_finite(command, header, block)
            start = 0
            while start < len(block[0]):
                parts.append([c[start : start + _BLOCK_ROWS - rows] for c in block])
                start += len(parts[-1][0])
                rows += len(parts[-1][0])
                if rows == _BLOCK_ROWS:
                    yield joined(parts)
                    parts, rows = [], 0
        if rows:
            yield joined(parts)

    with _replacing(path) as f:
        f.write(head)
        f.flush()
        for columns in chunks():
            f.buffer.write(_rows_text(columns, lead, cell, close)[skip:])
            skip = 0
        f.write(tail)


def _check_rows(taus: int, per_tau: int, what: str) -> None:
    """Fail before anything is evaluated when a table of taus x per_tau rows is over the budget."""
    if taus * per_tau > _POINT_BUDGET:
        rows = f"{taus} taus x {per_tau} {what}"
        raise ValueError(f"need at most {_POINT_BUDGET} table rows, got {rows}")


def _write_field_table(args: argparse.Namespace, lift, taus, names) -> None:
    """Tabulate lift(rows, *coords, tau) on args.grid per tau as tau, coordinate, re, im, density.

    Blocks come per tau per axis-0 slab of analysis._slabs: lift gets the slab's row slice
    and coordinates, and the slab's re, im and density are checked before any of its rows
    are written.  Its density column is built, and its coordinates gathered, per chunk of
    _BLOCK_ROWS rows, so a table holds one slab's values and one chunk's text.  The tau and
    node texts are formatted once (_floattext.texts): lifting is under 1% of a table's
    time, and formatting most of the rest.
    """
    from ._floattext import texts

    _check_rows(len(taus), args.grid.count, "grid points")
    nodes = [axis.nodes for axis in args.grid.axes]
    text = [texts(n) for n in nodes]
    header = ["tau", *names, "re", "im", "density"]

    def slab_blocks(tau, tau_text, start, stop, coords):
        values = lift(slice(start, stop), *coords(), tau).ravel()
        re, im = values.real, values.imag
        # density written as re^2 + im^2 so re-reading the table reproduces it exactly
        _check_finite(args.command, header[-3:], [re, im, re * re + im * im])
        shape = (stop - start, *map(len, nodes[1:]))
        for a in range(0, len(values), _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, len(values))
            at = np.unravel_index(np.arange(a, b), shape)
            words = [t[i] for t, i in zip(text, (at[0] + start, *at[1:]))]
            # copies, so rows held for a chunk past the slab's end keep no slab alive
            r, i = re[a:b].copy(), im[a:b].copy()
            yield [np.full(b - a, tau_text), *words, r, i, r * r + i * i]

    def blocks():
        for tau, tau_text in zip(taus, texts(np.array(taus, dtype=float))):
            for slab in _slabs(nodes, 0):
                yield from slab_blocks(tau, tau_text, *slab)

    _write_table(args.out, header, blocks(), args.format, args.command)


def _run_gen1d(args: argparse.Namespace, params: OscillatorParams) -> int:
    qn = QuantumNumbers1D(args.n)
    lift = lambda rows, y, tau: lifted_eigenstate_1d(params, qn, y, tau)
    _write_field_table(args, lift, args.tau, ["y"])
    return EXIT_OK


def _run_gen2d(args: argparse.Namespace, params: OscillatorParams) -> int:
    qn = QuantumNumbers2D(args.n_radial, args.l)
    lift = lambda rows, y1, y2, tau: lifted_eigenstate_2d(params, qn, y1, y2, tau)
    _write_field_table(args, lift, args.tau, ["y1", "y2"])
    return EXIT_OK


def _run_peaks(args: argparse.Namespace, params: OscillatorParams) -> int:
    QuantumNumbers1D(args.n)  # a level out of range is named before the row budget
    _check_rows(len(args.tau), args.n + 1, "peaks")
    index = np.arange(args.n + 1).astype("S")
    blocks = (
        [np.full(index.size, tau), index, *rows]
        for tau, *rows in _exact_peaks(params, args.n, args.tau)
    )
    header = ["tau", "peak_index", "position", "height", "fwhm"]
    _write_table(args.out, header, blocks, args.format, "peaks")
    return EXIT_OK


def _run_envelope(args: argparse.Namespace, params: OscillatorParams) -> int:
    if args.energy_from_n is None:
        fam = TrajectoryFamily(args.energy, params)
    else:
        fam = TrajectoryFamily.from_level(params, args.energy_from_n)
    taus = np.array(args.tau)
    if args.alpha:
        from ._floattext import texts

        _check_rows(taus.size, len(args.alpha), "alphas")
        header = ["tau", "alpha", "y"]
        tau_text = texts(taus)
        blocks = (
            [tau_text, np.full(taus.size, a_text), free_trajectory(fam, a, taus)]
            for a, a_text in zip(args.alpha, texts(args.alpha))
        )
    else:
        header = ["tau", "y_plus", "y_minus"]
        blocks = [[taus, *envelope(fam, taus)]]
    _write_table(args.out, header, blocks, args.format, "envelope")
    return EXIT_OK


def _run_verify(args: argparse.Namespace, params: OscillatorParams) -> int:
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
        with _replacing(args.out) as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _run_propagate(args: argparse.Namespace, params: OscillatorParams) -> int:
    qn = QuantumNumbers1D(args.n)
    chi = lambda yy, s: lifted_eigenstate_1d(params, qn, yy, s)
    final = spectral_propagate_free(sample_field(chi, args.grid, 0.0), args.to_tau, params.mass)
    closed = sample_field(chi, args.grid, args.to_tau).values
    diff = ComplexField(args.grid, final.values - closed, args.to_tau)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "propagate",
        "to_tau": args.to_tau,
        "norm": norm(final),
        "l2_difference_vs_closed_form": math.sqrt(norm(diff)),
    }
    _write_field_table(args, lambda rows, yy, tau: final.values[rows], [args.to_tau], ["y"])
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
    grid = _flag_type(_parse_grid, 1)

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
        type=_flag_type(_parse_grid, 2),
        required=True,
        help="one or two min:max:count blocks (comma-separated)",
    )
    p.add_argument("--out", required=True)

    p = add_command("peaks", _run_peaks, "track density maxima of a lifted 1D eigenstate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=tau_list, required=True)
    p.add_argument(
        "--count", type=int, help="ignored, until ROADMAP item 9 drops it from perfbench"
    )
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


# main's parser, built once per process: building it takes 1 to 2 ms (2-vCPU Xeon), up to
# half the fixed cost of a small `peaks` run
_main_parser = functools.cache(build_parser)


def _fuse_dash_values(argv: list[str]) -> list[str]:
    """Rewrite "--flag -value" as "--flag=-value": argparse takes -1e-3 for an option.

    Every option but -h/--help takes one value, so a one-dash token other than -h
    is the value of the long flag, full or abbreviated, just before it, unless that
    flag already holds "=value" or is a prefix of --help ("--" included).
    """
    out: list[str] = []
    for tok in argv:
        is_value = tok.startswith("-") and not tok.startswith("--") and tok != "-h"
        flag = out[-1] if out else ""
        if is_value and flag.startswith("--") and "=" not in flag and not "--help".startswith(flag):
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
        args = _main_parser().parse_args(_fuse_dash_values(argv))
        params = OscillatorParams(args.mass, args.omega)
        with np.errstate(over="raise", invalid="raise"):
            return args.run(args, params)
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
