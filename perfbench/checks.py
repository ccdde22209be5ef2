"""Output checks for the benchmark's operations.

Every check returns a list of problems; an empty list means the output is
correct.  Tables are parsed from the bytes the CLI wrote and compared
exactly against columns the caller computed with the library, so a single
changed digit anywhere in a column is a failure.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

SPOT_ROWS = 8


def parse_table(data: bytes, fmt: str) -> tuple[list[str], list[list[str]] | None, np.ndarray]:
    """Header, raw CSV fields (None for JSON) and the values as a float array."""
    if fmt == "json":
        payload = json.loads(data)
        header = list(payload["columns"])
        values = np.array(payload["rows"], dtype=float).reshape(-1, len(header))
        return header, None, values
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    fields = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(header) for row in fields):
        raise ValueError("CSV row with the wrong number of fields")
    values = np.array([float(v) for row in fields for v in row], dtype=float)
    return header, fields, values.reshape(-1, len(header))


def check_table(
    data: bytes,
    fmt: str,
    header: list[str],
    expected: dict[str, np.ndarray],
    spot_seed: int,
) -> list[str]:
    """Exact check of a table against expected columns.

    ``expected`` maps column names to the full expected column.  Beyond
    those, a ``density`` column must equal re*re + im*im exactly and a
    ``y_plus`` column must equal -y_minus.  Seeded spot rows of a CSV must
    carry each value in shortest round-trip (repr) form.
    """
    try:
        got_header, fields, values = parse_table(data, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable table: {exc}"]
    if got_header != header:
        return [f"header {got_header} != {header}"]
    problems = []
    rows = len(next(iter(expected.values())))
    if values.shape[0] != rows:
        return [f"{values.shape[0]} rows, expected {rows}"]
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        problems.append(f"{bad} non-finite values")
    col = {name: values[:, i] for i, name in enumerate(header)}
    for name, want in expected.items():
        mismatched = np.count_nonzero(col[name] != want)
        if mismatched:
            problems.append(f"column {name}: {mismatched} values differ from the library")
    if "density" in col:
        re, im = col["re"], col["im"]
        if np.any(col["density"] != re * re + im * im):
            problems.append("density != re*re + im*im")
    if "y_plus" in col and np.any(col["y_plus"] != -col["y_minus"]):
        problems.append("y_plus != -y_minus")
    if fields is not None and rows:
        rng = random.Random(spot_seed)
        for i in sorted(rng.sample(range(rows), min(SPOT_ROWS, rows))):
            for j, name in enumerate(header):
                want = expected.get(name, values[:, j])[i]
                if fields[i][j] != repr(float(want)):
                    problems.append(f"row {i} {name}: {fields[i][j]!r} != repr {float(want)!r}")
    return problems


def check_golden(data: bytes, golden: bytes) -> list[str]:
    if data == golden:
        return []
    n = min(len(data), len(golden))
    first = next((i for i in range(n) if data[i] != golden[i]), n)
    return [f"differs from the golden file at byte {first} ({len(data)} vs {len(golden)} bytes)"]


def check_peaks(data: bytes, taus: list[float], n: int, omega: float, natural: float) -> list[str]:
    """n + 1 finite peaks per tau that ride the stretched positions and widths.

    Positions at each tau, divided by sqrt(1 + omega^2 tau^2), must match
    those at the first tau to 1e-6 relative (floored at one natural
    length), and widths likewise to 1e-4.
    """
    try:
        header, _, values = parse_table(data, "csv")
    except ValueError as exc:
        return [f"unparseable table: {exc}"]
    if header != ["tau", "peak_index", "position", "height", "fwhm"]:
        return [f"header {header}"]
    if values.shape[0] != len(taus) * (n + 1):
        return [f"{values.shape[0]} peak rows, expected {len(taus) * (n + 1)}"]
    if not np.all(np.isfinite(values)):
        return ["non-finite peak values"]
    problems = []
    blocks = values.reshape(len(taus), n + 1, 5)
    if np.any(blocks[:, :, 0] != np.array(taus)[:, None]):
        problems.append("tau column differs from the requested taus")
    if np.any(blocks[:, :, 1] != np.arange(n + 1)[None, :]):
        problems.append("peak_index column is not 0..n")
    if np.any(blocks[:, :, 3] <= 0) or np.any(blocks[:, :, 4] <= 0):
        problems.append("nonpositive height or width")
    stretch = np.sqrt(1.0 + (omega * np.array(taus)) ** 2)[:, None]
    pos = blocks[:, :, 2] / stretch
    width = blocks[:, :, 4] / stretch
    pos_err = float(np.max(np.abs(pos - pos[0]) / np.maximum(np.abs(pos[0]), natural)))
    width_err = float(np.max(np.abs(width - width[0]) / width[0]))
    if not pos_err < 1e-6:
        problems.append(f"peak positions off the hyperbolic law by {pos_err:.2e} (> 1e-6)")
    if not width_err < 1e-4:
        problems.append(f"peak widths off the broadening law by {width_err:.2e} (> 1e-4)")
    return problems


def check_verify(exit_code: int, stdout: str, suite: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"stdout is not one JSON report: {stdout[:80]!r}"]
    problems = []
    if report.get("suite") != suite:
        problems.append(f"suite {report.get('suite')!r} != {suite!r}")
    order = report.get("fitted_order")
    if report.get("pass") is not True or not (isinstance(order, float) and 1.8 <= order <= 2.2):
        problems.append(f"verify did not pass (fitted order {order})")
    return problems


def check_close(label: str, value: float, target: float, tol: float) -> list[str]:
    if math.isfinite(value) and abs(value - target) <= tol:
        return []
    return [f"{label} {value!r} is not within {tol:g} of {target!r}"]
