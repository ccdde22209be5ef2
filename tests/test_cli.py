import csv
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oscfree import OscillatorParams, QuantumNumbers2D, lifted_eigenstate_2d
from oscfree.cli import _CSV_BLOCK_ROWS, _write_table, main

GOLDEN_DIR = Path(__file__).parent / "golden"

GEN1D_GOLDEN_ARGS = [
    "gen1d", "--n", "2", "--omega", "1", "--mass", "1",
    "--tau", "0,1,2", "--grid", "-20:20:201", "--format", "csv",
]
ENVELOPE_GOLDEN_ARGS = ["envelope", "--energy-from-n", "2", "--tau", "-5:5:101"]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class TestGen1D:
    def test_shape_contract(self, tmp_path):
        out = tmp_path / "field.csv"
        code = main(
            ["gen1d", "--n", "2", "--tau", "0,1,2", "--grid", "-20:20:2001", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["tau", "y", "re", "im", "density"]
        assert len(rows) == 3 * 2001

    def test_density_recomputable_from_csv(self, tmp_path):
        out = tmp_path / "field.csv"
        main(["gen1d", "--n", "1", "--tau", "0,0.5", "--grid", "-15:15:301", "--out", str(out)])
        _, rows = read_csv(out)
        for row in rows:
            re, im, dens = float(row[2]), float(row[3]), float(row[4])
            assert re * re + im * im == dens

    def test_bit_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen1d", "--n", "3", "--tau", "0:2:5", "--grid", "-18:18:501"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "field.json"
        main(
            ["gen1d", "--n", "0", "--tau", "0", "--grid", "-10:10:11",
             "--format", "json", "--out", str(out)]
        )
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["columns"] == ["tau", "y", "re", "im", "density"]
        assert len(payload["rows"]) == 11

    def test_matches_golden(self, tmp_path):
        out = tmp_path / "gen1d.csv"
        assert main(GEN1D_GOLDEN_ARGS + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "gen1d_n2.csv").read_bytes()


class TestEnvelope:
    def test_turning_points_at_tau_zero(self, tmp_path):
        out = tmp_path / "envelope.csv"
        assert main(ENVELOPE_GOLDEN_ARGS + ["--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["tau", "y_plus", "y_minus"]
        assert len(rows) == 101
        center = rows[50]
        assert float(center[0]) == 0.0
        assert float(center[1]) == pytest.approx(math.sqrt(5.0), abs=1e-15)
        assert float(center[2]) == pytest.approx(-math.sqrt(5.0), abs=1e-15)

    def test_matches_golden(self, tmp_path):
        out = tmp_path / "envelope.csv"
        assert main(ENVELOPE_GOLDEN_ARGS + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "envelope_n2.csv").read_bytes()

    def test_trajectory_mode(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["envelope", "--energy", "0.5", "--tau", "0,2", "--alpha", "0,1.5707963267948966",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["tau", "alpha", "y"]
        assert len(rows) == 4
        # alpha = 0 keeps y = amplitude = 1; alpha = pi/2 gives y = -omega tau
        assert float(rows[0][2]) == 1.0
        assert float(rows[1][2]) == 1.0
        assert float(rows[3][2]) == pytest.approx(-2.0, abs=1e-12)

    def test_rejects_nonpositive_energy(self, tmp_path):
        code = main(["envelope", "--energy", "-1", "--tau", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_rejects_non_finite_energy(self, tmp_path):
        code = main(["envelope", "--energy", "nan", "--tau", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()


class TestPeaks:
    def test_schema_and_counts(self, tmp_path):
        out = tmp_path / "peaks.csv"
        code = main(["peaks", "--n", "2", "--tau", "0,1", "--count", "16001", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["tau", "peak_index", "position", "height", "fwhm"]
        assert len(rows) == 6  # n + 1 peaks at each of two times
        outer = [float(r[2]) for r in rows if r[0] == "0.0"][2]
        assert outer == pytest.approx(math.sqrt(2.5), abs=1e-5)
        assert all(float(r[4]) > 0 for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_index_is_an_int_column(self, tmp_path, fmt):
        out = tmp_path / f"peaks.{fmt}"
        code = main(["peaks", "--n", "2", "--tau", "0,1", "--count", "8001",
                     "--format", fmt, "--out", str(out)])
        assert code == 0
        if fmt == "csv":
            index = [r[1] for r in read_csv(out)[1]]
            assert index == ["0", "1", "2", "0", "1", "2"]
        else:
            index = [r[1] for r in json.loads(out.read_text())["rows"]]
            assert index == [0, 1, 2, 0, 1, 2]
            assert all(type(k) is int for k in index)


class TestGen2D:
    def test_shape_contract(self, tmp_path):
        out = tmp_path / "field2.csv"
        code = main(["gen2d", "--l", "2", "--tau", "0,1", "--grid", "-8:8:41", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["tau", "y1", "y2", "re", "im", "density"]
        assert len(rows) == 2 * 41 * 41
        at_origin = [r for r in rows if float(r[1]) == 0.0 and float(r[2]) == 0.0]
        assert len(at_origin) == 2
        assert all(float(r[5]) == 0.0 for r in at_origin)

    def test_rectangular_grid(self, tmp_path):
        out = tmp_path / "field2.csv"
        code = main(
            ["gen2d", "--l", "0", "--tau", "0", "--grid", "-8:8:21,-6:6:31", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 21 * 31

    def test_radial_excitation_matches_closed_form(self, tmp_path):
        out = tmp_path / "field2.csv"
        code = main(["gen2d", "--l", "1", "--n-radial", "1", "--mass", "1.3", "--omega", "0.8",
                     "--tau", "0,0.7", "--grid", "-8:8:21", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 21 * 21
        tau, y1, y2, re, im = (np.array([float(r[k]) for r in rows]) for k in range(5))
        params = OscillatorParams(1.3, 0.8)
        qn = QuantumNumbers2D(1, 1)
        for t in (0.0, 0.7):
            at = tau == t
            expected = lifted_eigenstate_2d(params, qn, y1[at], y2[at], t)
            assert np.array_equal(re[at], expected.real)
            assert np.array_equal(im[at], expected.imag)

    def test_non_finite_omega_is_usage_error(self, tmp_path):
        code = main(["gen2d", "--l", "1", "--omega", "nan", "--tau", "0",
                     "--grid", "-8:8:21", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()


class TestVerify:
    def test_free_residual_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["verify", "--suite", "free-residual", "--n", "2", "--refinements", "3",
             "--base-count", "1001", "--out", str(report_path)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["suite"] == "free-residual"
        assert payload["pass"] is True
        assert 1.8 <= payload["fitted_order"] <= 2.2
        assert len(payload["spacings"]) == len(payload["linf"]) == len(payload["l2"]) == 3
        assert json.loads(report_path.read_text()) == payload

    def test_oscillator_suite(self, capsys):
        code = main(
            ["verify", "--suite", "osc-residual", "--n", "3", "--refinements", "3",
             "--base-count", "1001"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_2d_suite(self, capsys):
        code = main(
            ["verify", "--suite", "free-residual-2d", "--l", "1", "--refinements", "3",
             "--base-count", "81"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["params"]["l"] == 1

    def test_failed_convergence_exits_4(self, capsys):
        # the ground-state residual sits at the rounding floor on a grid
        # this fine, so the measured order drops out of the band
        code = main(
            ["verify", "--suite", "free-residual", "--n", "0", "--refinements", "4",
             "--base-count", "20001"]
        )
        assert code == 4
        assert json.loads(capsys.readouterr().out)["pass"] is False


class TestErrorPaths:
    def test_unknown_flag_for_command(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen1d", "--n", "1", "--l", "2", "--tau", "0",
                  "--grid", "-5:5:11", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_malformed_grid(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen1d", "--n", "1", "--tau", "0", "--grid", "oops",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_non_finite_grid_bound(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen1d", "--n", "2", "--tau", "0", "--grid", "nan:1:5",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    # the Hermite recurrence overflows at this level (ROADMAP item 2); once it
    # is scaled, the overflow warning and this failure go away
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_field_exits_3(self, tmp_path, capsys):
        code = main(["peaks", "--n", "250", "--tau", "0", "--count", "2001",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "NonFiniteError"

    # the first two overflow in the Hermite/Kummer recurrences (ROADMAP item 2),
    # the third in the envelope's square; each warns before the table is refused
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "args, column",
        [
            (["gen2d", "--l", "1", "--n-radial", "300", "--tau", "0", "--grid", "-60:60:41"], "re"),
            (["gen1d", "--n", "300", "--tau", "0", "--grid", "-40:40:2001"], "re"),
            (["envelope", "--energy", "1", "--tau", "1e200"], "y_plus"),
        ],
    )
    def test_non_finite_table_exits_3_and_writes_nothing(self, tmp_path, capsys, args, column):
        out = tmp_path / "x.csv"
        assert main(args + ["--out", str(out)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "NonFiniteError"
        assert repr(column) in payload["error"]["message"]
        assert not out.exists()

    def test_float_overflow_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["gen1d", "--n", "2", "--tau", "1e308", "--grid", "-4:4:5", "--out", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "NonFiniteError"
        assert not out.exists()

    def test_unwritable_output_exits_5(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["gen1d", "--n", "2", "--tau", "0", "--grid", "-4:4:5", "--out", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("oscfree: error:") and str(out) in err
        assert err.count("\n") == 1

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # truncating the state mid-bulk violates the spectral decay precondition
        code = main(
            ["propagate", "--n", "2", "--to-tau", "1", "--grid", "-2:2:101",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "BoundaryDecayError"


class TestPropagate:
    def test_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "prop.csv"
        code = main(
            ["propagate", "--n", "2", "--to-tau", "1", "--grid", "-20:20:801", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["l2_difference_vs_closed_form"] < 1e-6
        assert summary["norm"] == pytest.approx(1.0, abs=1e-8)
        header, rows = read_csv(out)
        assert header == ["tau", "y", "re", "im", "density"]
        assert len(rows) == 801


def _per_row_reference(directory: Path, header, columns, fmt: str) -> bytes:
    """The per-row csv.writer / json.dumps path the column-wise writer replaced."""
    rows = [
        [int(c[i]) if c.dtype.kind == "i" else float(c[i]) for c in columns]
        for i in range(len(columns[0]))
    ]
    path = directory / f"reference.{fmt}"
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    else:
        payload = {"schema_version": 1, "command": "test", "columns": header, "rows": rows}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path.read_bytes()


def _assert_writer_matches_reference(directory: Path, columns) -> None:
    header = [f"c{k}" for k in range(len(columns))]
    for fmt in ("csv", "json"):
        path = directory / f"table.{fmt}"
        _write_table(str(path), header, columns, fmt, "test")
        assert path.read_bytes() == _per_row_reference(directory, header, columns, fmt)


EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(min_value=0, max_value=40),
    n_float=st.integers(min_value=1, max_value=5),
)
def test_column_writer_matches_per_row_writer(data, rows, n_float):
    elements = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EXTREME_FLOATS)
    )
    columns = [data.draw(arrays(np.float64, rows, elements=elements)) for _ in range(n_float)]
    index = data.draw(arrays(np.int64, rows, elements=st.integers(-(2**62), 2**62)))
    columns.insert(data.draw(st.integers(0, n_float)), index)
    with tempfile.TemporaryDirectory() as directory:
        _assert_writer_matches_reference(Path(directory), columns)


@pytest.mark.parametrize(
    "rows",
    [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 3 * _CSV_BLOCK_ROWS + 7],
)
def test_column_writer_block_boundaries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = [np.arange(rows), rng.standard_normal(rows), rng.uniform(-1e300, 1e300, rows)]
    _assert_writer_matches_reference(tmp_path, columns)


def test_module_entry_point(tmp_path):
    out = tmp_path / "field.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "oscfree.cli", "gen1d", "--n", "1", "--tau", "0",
         "--grid", "-10:10:101", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
