import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oscfree import (
    OscillatorParams, QuantumNumbers1D, QuantumNumbers2D, analysis, cli, lifted_eigenstate_2d,
    transform,
)
from oscfree.cli import _BLOCK_ROWS, _write_table, main
from oscfree.oscillator import MAX_LEVEL_1D, MAX_LEVEL_2D

from golden_manifest import GOLDEN, GOLDEN_DIR


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


class TestEnvelope:
    def test_turning_points_at_tau_zero(self, tmp_path):
        out = tmp_path / "envelope.csv"
        assert main(GOLDEN["envelope_n2.csv"] + ["--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["tau", "y_plus", "y_minus"]
        assert len(rows) == 101
        center = rows[50]
        assert float(center[0]) == 0.0
        assert float(center[1]) == pytest.approx(math.sqrt(5.0), abs=1e-15)
        assert float(center[2]) == pytest.approx(-math.sqrt(5.0), abs=1e-15)

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

    # peaks prints level_extrema's points stretched to each tau and builds no grid; --count
    # is accepted and ignored until perfbench stops passing it (ROADMAP item 9), so counts
    # too coarse to resolve the level's maxima, which once exited 3, print the same rows
    @pytest.mark.parametrize(
        "args",
        [*(argv for argv in GOLDEN.values() if argv[0] == "peaks"),
         ["peaks", "--n", "250", "--tau", "0"],
         ["peaks", "--n", "6", "--tau", "0,1", "--count", "41"],
         ["peaks", "--n", "2", "--tau", "0", "--count", "3"]],
        ids=[*(name for name, argv in GOLDEN.items() if argv[0] == "peaks"), "n250",
             "coarse-n6", "coarse-n2"],
    )
    def test_builds_no_grid_and_ignores_count(self, tmp_path, monkeypatch, args):
        def built(*_):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(analysis, "sample_field", built)
        monkeypatch.setattr(analysis.Grid1D, "nodes", property(built))
        out, counted = tmp_path / "p.out", tmp_path / "counted.out"
        assert main(args + ["--out", str(out)]) == 0
        assert main(args + ["--count", "400001", "--out", str(counted)]) == 0
        assert counted.read_bytes() == out.read_bytes()

    # a level past MAX_LEVEL_1D is a usage error before anything is evaluated, so it never
    # runs level_extrema's O(n^2) recurrence on O(n) nodes (by extrapolation, hours at n = 10^6)
    def test_huge_level_exits_2_without_the_exact_maxima(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        extrema = mock.Mock(side_effect=AssertionError("level_extrema ran"))
        start = time.perf_counter()
        with mock.patch.object(analysis, "level_extrema", extrema):
            assert main(["peaks", "--n", "1000000", "--tau", "0", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n must be at most {MAX_LEVEL_1D}, got 1000000" in captured.err
        assert not out.exists()

    # the table's len(tau) x (n + 1) rows are checked against the budget before the exact
    # maxima are sought
    def test_rows_over_the_budget_exit_2_before_any_peak(self, tmp_path, monkeypatch, capsys):
        extrema = mock.Mock(side_effect=AssertionError("the peaks were sought"))
        monkeypatch.setattr(analysis, "level_extrema", extrema)
        out = tmp_path / "p.csv"
        assert main(["peaks", "--n", "5000", "--tau", "0:1:4000", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need at most 16777216 table rows, got 4000 taus x 5001 peaks" in captured.err
        assert not out.exists()

    # every level to MAX_LEVEL_1D prints n + 1 finite rows a tau, level_extrema's points
    # stretched; the grid scan that peaks once ran overflowed in the far tails from n = 170,
    # and took about 8 s a tau at MAX_LEVEL_1D
    @pytest.mark.parametrize("n", [180, 200, MAX_LEVEL_1D])
    def test_high_levels_match_the_exact_maxima(self, tmp_path, n):
        out = tmp_path / "peaks.json"
        assert main(["peaks", "--n", str(n), "--tau", "0,1", "--format", "json",
                     "--out", str(out)]) == 0
        rows = np.array(json.loads(out.read_text())["rows"])
        maxima, left, right = analysis.level_extrema(n)
        assert np.all(np.isfinite(rows)) and np.all(rows[:, 3] > 0)
        for tau in (0.0, 1.0):
            block = rows[rows[:, 0] == tau]
            stretch = math.sqrt(1.0 + tau * tau)
            assert block[:, 1].tolist() == list(range(n + 1))
            assert np.allclose(block[:, 2], maxima * stretch, rtol=1e-15, atol=0)
            assert np.allclose(block[:, 4], (right - left) * stretch, rtol=1e-15, atol=0)

    # the lift's dressing phase overflows on the grid at this tau, and the stretch s^2 at
    # 1e200 (ROADMAP item 19); the exact rows are those at tau = 0 times s (over s in height)
    def test_large_tau_scales_the_rows_at_zero(self, tmp_path, capsys):
        base, far = tmp_path / "base.json", tmp_path / "far.json"
        for tau, out in (("0", base), ("1e150", far)):
            assert main(["peaks", "--n", "3", "--tau", tau, "--format", "json",
                         "--out", str(out)]) == 0
        s = math.sqrt(1.0 + 1e300)
        at_zero, at_far = (np.array(json.loads(f.read_text())["rows"]) for f in (base, far))
        expected = at_zero[:, 2:] * [s, 1.0 / s, s]
        assert np.allclose(at_far[:, 2:], expected, rtol=1e-15, atol=0)
        out = tmp_path / "overflow.json"
        assert main(["peaks", "--n", "3", "--tau", "1e200", "--out", str(out)]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["message"] == "floating-point failure: overflow encountered in float_power"
        assert not out.exists()


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

    @pytest.mark.parametrize("suite", ["free-residual", "free-residual-2d"])
    def test_underflowed_residual_exits_3(self, tmp_path, capsys, suite):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", suite, "--mass", "1e-300", "--out", str(out)]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "NonFiniteError"
        assert "residual underflowed to zero" in error["message"]
        assert list(tmp_path.iterdir()) == []


def _assert_exit_3_writes_nothing(tmp_path: Path, capsys, args) -> str:
    """Run args into a fresh and a pre-existing --out: exit 3, no table, no temp file left.

    Returns the error message of the second run.
    """
    out = tmp_path / "x.csv"
    for old in (None, b"old bytes\n"):
        if old is not None:
            out.write_bytes(old)
        assert main(args + ["--out", str(out)]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "NonFiniteError"
        assert (out.read_bytes() if out.exists() else None) == old
        assert list(tmp_path.iterdir()) == ([] if old is None else [out])
    return error["message"]


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

    # a lift that returns inf: the heights are not finite
    def test_non_finite_field_exits_3(self, tmp_path, monkeypatch, capsys):
        lift = analysis.lifted_eigenstate_1d
        monkeypatch.setattr(analysis, "lifted_eigenstate_1d", lambda *args: lift(*args) * np.inf)
        code = main(["peaks", "--n", "250", "--tau", "0", "--count", "2001",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "NonFiniteError"

    # gen2d overflows in the Kummer recurrence (ROADMAP item 1) and the envelope in its
    # square, each where it overflows; gen1d at n = 300, finite since H_n is scaled, gets a
    # lift that returns inf
    @pytest.mark.parametrize(
        "args, inf_lift",
        [
            (["gen2d", "--l", "1", "--n-radial", "300", "--tau", "0", "--grid", "-60:60:41"],
             False),
            (["gen1d", "--n", "300", "--tau", "0", "--grid", "-40:40:2001"], True),
            (["envelope", "--energy", "1", "--tau", "1e200"], False),
        ],
        ids=["gen2d-n-radial-300", "gen1d-n-300", "envelope-tau-1e200"],
    )
    def test_non_finite_table_exits_3_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, args, inf_lift
    ):
        if inf_lift:
            lift = cli.lifted_eigenstate_1d
            monkeypatch.setattr(cli, "lifted_eigenstate_1d", lambda *args: lift(*args) * np.inf)
        _assert_exit_3_writes_nothing(tmp_path, capsys, args)

    def test_later_non_finite_tau_exits_3_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the first two taus are finite and their rows written before the third is
        # lifted; the fourth is never lifted
        lift, calls = cli.lifted_eigenstate_1d, []

        def inf_at_third_tau(params, qn, y, tau):
            calls.append(tau)
            values = lift(params, qn, y, tau)
            return values * np.inf if tau == 2.0 else values

        monkeypatch.setattr(cli, "lifted_eigenstate_1d", inf_at_third_tau)
        args = ["gen1d", "--n", "2", "--tau", "0,1,2,3", "--grid", "-20:20:5001"]
        message = _assert_exit_3_writes_nothing(tmp_path, capsys, args)
        assert calls == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]
        assert repr("re") in message

    def test_non_finite_in_a_later_slab_exits_3_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # 5001 nodes in 1024-row slabs: four clean slabs of the first tau are written
        # before the ragged fifth, inf at y = 20, is lifted; nothing is lifted after it
        lift, calls = cli.lifted_eigenstate_1d, []

        def inf_in_last_slab(params, qn, y, tau):
            calls.append((tau, y.size))
            values = lift(params, qn, y, tau)
            return values * np.inf if y[-1] == 20.0 else values

        monkeypatch.setattr(cli, "lifted_eigenstate_1d", inf_in_last_slab)
        monkeypatch.setattr(analysis, "_SLAB", 1024)
        args = ["gen1d", "--n", "2", "--tau", "0.5,1", "--grid", "-20:20:5001"]
        message = _assert_exit_3_writes_nothing(tmp_path, capsys, args)
        assert calls == 2 * ([(0.5, 1024)] * 4 + [(0.5, 905)])
        assert repr("re") in message

    def test_non_finite_table_names_the_column(self, tmp_path, capsys):
        # the classical amplitude sqrt(2E / (m omega^2)) overflows to inf
        out = tmp_path / "x.csv"
        args = ["envelope", "--energy", "1e308", "--mass", "1e-300", "--tau", "0,1"]
        assert main(args + ["--out", str(out)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "NonFiniteError"
        assert repr("y_plus") in payload["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["gen1d", "--n", "2", "--grid", "-4:4:5", "--tau", "nan"], "--tau"),
            (["gen1d", "--n", "2", "--grid", "-4:4:5", "--tau", "inf"], "--tau"),
            (["gen2d", "--l", "1", "--grid", "-4:4:5", "--tau", "0,nan"], "--tau"),
            (["peaks", "--n", "2", "--tau", "nan"], "--tau"),
            (["peaks", "--n", "2", "--tau", "0:inf:3"], "--tau"),
            (["envelope", "--energy", "1", "--tau", "nan"], "--tau"),
            (["envelope", "--energy", "1", "--tau", "1e308:-1e308:3"], "--tau"),
            (["envelope", "--energy", "1", "--tau", "0", "--alpha", "nan"], "--alpha"),
            (["propagate", "--n", "2", "--grid", "-20:20:101", "--to-tau", "nan"], "--to-tau"),
            (["verify", "--suite", "free-residual", "--tau", "nan"], "--tau"),
            (["verify", "--suite", "osc-residual", "--time", "nan"], "--time"),
            # finite bounds whose span overflows to inf
            (["gen1d", "--n", "2", "--tau", "0", "--grid", "-1e308:1e308:11"], "--grid"),
            (["gen2d", "--l", "1", "--tau", "0", "--grid", "-1:1:11,-1e308:1e308:11"], "--grid"),
        ],
    )
    def test_non_finite_time_is_usage_error(self, tmp_path, capsys, args, flag):
        out = tmp_path / "x.out"
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()

    # each count, and the row count of a table, is checked before anything of
    # that size is allocated or evaluated; the table cases are just over budget
    @pytest.mark.parametrize(
        "args",
        [
            ["gen1d", "--n", "2", "--tau", "0", "--grid", "-1:1:1000000000000"],
            ["gen2d", "--l", "1", "--tau", "0", "--grid", "-1:1:5000"],
            ["envelope", "--energy", "1", "--tau", "0:1:1000000000000"],
            ["verify", "--suite", "free-residual", "--refinements", "40"],
            ["verify", "--suite", "free-residual-2d", "--refinements", "8"],
            ["gen1d", "--n", "2", "--tau", "0:1:2", "--grid", "-1:1:8388609"],
            ["envelope", "--energy", "1", "--tau", "0:1:4097", "--alpha", "0:1:4097"],
        ],
        ids=["grid", "grid-2d", "range", "verify-1d", "verify-2d",
             "table-rows", "trajectory-rows"],
    )
    def test_count_over_point_budget_is_usage_error(self, tmp_path, monkeypatch, capsys, args):
        def evaluated(*_):
            raise AssertionError("an over-budget table was evaluated")

        monkeypatch.setattr(cli, "lifted_eigenstate_1d", evaluated)
        monkeypatch.setattr(cli, "free_trajectory", evaluated)
        out = tmp_path / "x.out"
        try:
            code = main(args + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "16777216" in capsys.readouterr().err
        assert not out.exists()

    # kummer_truncated and the angular power take O(n_radial) and O(|l|) numpy calls, so a 2D
    # level past MAX_LEVEL_2D is refused before anything is evaluated
    @pytest.mark.parametrize(
        "args",
        [
            ["gen2d", "--n-radial", "100000000", "--l", "0", "--tau", "0", "--grid", "-1:1:3"],
            ["gen2d", "--l", "100000000", "--tau", "0", "--grid", "-0.5:0.5:3"],
            ["verify", "--suite", "free-residual-2d", "--n-radial", "5001", "--l", "0"],
            ["verify", "--suite", "free-residual-2d", "--l", "-10001"],
        ],
        ids=["gen2d-n-radial", "gen2d-l", "verify-n-radial", "verify-l"],
    )
    def test_2d_level_over_the_cap_exits_2(self, tmp_path, monkeypatch, capsys, args):
        lift = mock.Mock(side_effect=AssertionError("a 2D level over the cap was evaluated"))
        monkeypatch.setattr(cli, "lifted_eigenstate_2d", lift)
        out = tmp_path / "x.out"
        assert main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"2 n_radial + |l| must be at most {MAX_LEVEL_2D}, got" in captured.err
        assert not out.exists()

    # omega**2 and m omega^2 underflow to 0, so the classical amplitude would divide by zero
    @pytest.mark.parametrize(
        "args",
        [
            ["peaks", "--mass", "1e-200", "--omega", "1e-200", "--n", "2", "--tau", "0",
             "--count", "101"],
            ["verify", "--suite", "free-residual", "--mass", "1e-200", "--omega", "1e-200"],
        ],
        ids=["peaks", "verify"],
    )
    def test_underflowing_mass_omega_products_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "omega**2 must be a normal finite double" in captured.err
        assert not out.exists()

    # (mass, omega) where omega**2, mass * omega or mass * omega**2 is not a normal double,
    # which gave silently wrong tables, then those right before, in gen1d and gen2d
    @pytest.mark.parametrize(
        "command, mass, omega, code",
        [
            ("gen1d", "1e-150", "1e-150", 2),
            ("gen1d", "1", "1e-300", 2),
            ("gen1d", "1e300", "1e-300", 2),
            ("gen2d", "1e-120", "1e-100", 2),
            ("gen2d", "1e-100", "1e-110", 2),
            ("gen1d", "1e-300", "1", 0),
            ("gen1d", "1e200", "1", 0),
            ("gen1d", "1e150", "1e-150", 0),
            ("gen2d", "1e150", "1e-150", 0),
        ],
    )
    def test_mass_omega_range(self, tmp_path, capsys, command, mass, omega, code):
        """Exit 2 with nothing written out of range; in range, the scaled table of m = omega = 1.

        The lift is scale covariant: chi(y, tau; m, omega) = (m omega)^(d/4) chi(sqrt(m omega) y,
        omega tau; 1, 1) in d dimensions, so the table at y = xi / sqrt(m omega) and
        tau = 0.8 / omega holds the values at xi and 0.8 times (m omega)^(d/4).
        """
        m, w = float(mass), float(omega)
        length = 1 / math.sqrt(m * w)
        level = ["--n", "5"] if command == "gen1d" else ["--l", "2", "--n-radial", "1"]
        grid = f"{-6 * length!r}:{6 * length!r}:5"
        args = [command, *level, "--mass", mass, "--omega", omega, f"--tau={0.8 / w!r}",
                f"--grid={grid}", "--out", str(tmp_path / "scaled.csv")]
        assert main(args) == code
        if code:
            assert not (tmp_path / "scaled.csv").exists()
            assert "must be a normal finite double" in capsys.readouterr().err
            return
        unit = [command, *level, "--tau=0.8", "--grid=-6:6:5", "--out", str(tmp_path / "unit.csv")]
        assert main(unit) == 0
        dims = 1 if command == "gen1d" else 2
        scaled = np.loadtxt(tmp_path / "scaled.csv", delimiter=",", skiprows=1)[:, -3:-1]
        expected = np.loadtxt(tmp_path / "unit.csv", delimiter=",", skiprows=1)[:, -3:-1]
        factor = (m * w) ** (dims / 4)
        assert np.allclose(scaled / factor, expected, rtol=1e-12, atol=1e-14 * abs(expected).max())

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
        # the message names --out, not the temporary file written beside it
        assert err == f"oscfree: error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_report_exits_5_before_stdout(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code = main(["verify", "--suite", "free-residual", "--refinements", "2",
                     "--out", str(out)])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out) in captured.err

    @pytest.mark.parametrize("refinements", ["0", "-2"])
    def test_too_few_refinements_exits_2(self, tmp_path, capsys, refinements):
        out = tmp_path / "r.json"
        code = main(["verify", "--suite", "free-residual", "--refinements", refinements,
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refinements" in captured.err
        assert not out.exists()

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

    def test_phase_overflow_exits_3(self, tmp_path, capsys):
        # k^2 tau overflows in the phase: the command's errstate must hold there
        out = tmp_path / "prop.csv"
        code = main(["propagate", "--n", "2", "--to-tau", "1e307", "--grid", "-20:20:101",
                     "--out", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "NonFiniteError",
            "message": "floating-point failure: overflow encountered in multiply",
        }
        assert not out.exists()


GEN1D_SMALL_ARGS = ["gen1d", "--n", "2", "--tau", "0,1", "--grid", "-8:8:41"]
VERIFY_SMALL_ARGS = ["verify", "--suite", "free-residual", "--refinements", "2"]


class TestOutputFile:
    """--out is replaced whole: a temporary file beside it is renamed over it on success."""

    @pytest.mark.parametrize("args", [GEN1D_SMALL_ARGS, VERIFY_SMALL_ARGS], ids=["table", "report"])
    def test_replaces_an_existing_file(self, tmp_path, capsys, args):
        fresh, out = tmp_path / "fresh.out", tmp_path / "x.out"
        assert main(args + ["--out", str(fresh)]) == 0
        out.write_text("a longer stale file than any report of the run\n" * 1000)
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.out", "x.out"]

    def test_io_error_mid_table_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        lift = cli.lifted_eigenstate_1d

        def disk_full_at_second_tau(params, qn, y, tau):
            if tau == 1.0:
                raise OSError(28, "No space left on device", "elsewhere")
            return lift(params, qn, y, tau)

        monkeypatch.setattr(cli, "lifted_eigenstate_1d", disk_full_at_second_tau)
        out = tmp_path / "x.csv"
        out.write_bytes(b"old bytes\n")
        assert main(GEN1D_SMALL_ARGS + ["--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            f"oscfree: error: [Errno 28] No space left on device: {str(out)!r}\n"
        )
        assert out.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "x.csv"
        old = os.umask(0o027)
        try:
            assert main(GEN1D_SMALL_ARGS + ["--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("args", [GEN1D_SMALL_ARGS, VERIFY_SMALL_ARGS], ids=["table", "report"])
    def test_symlink_is_written_through(self, tmp_path, capsys, args):
        fresh = tmp_path / "fresh.out"
        assert main(args + ["--out", str(fresh)]) == 0
        (tmp_path / "real").mkdir()
        target, link = tmp_path / "real" / "x.out", tmp_path / "link.out"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(args + ["--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()
        assert [p.name for p in target.parent.iterdir()] == ["x.out"]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        target, link = tmp_path / "x.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(GEN1D_SMALL_ARGS + ["--out", str(link)]) == 0
        assert link.is_symlink() and target.is_file()

    @pytest.mark.parametrize("args", [GEN1D_SMALL_ARGS, VERIFY_SMALL_ARGS], ids=["table", "report"])
    @pytest.mark.parametrize("kind", ["fifo", "directory", "symlink-to-fifo"])
    def test_non_regular_target_is_refused(self, tmp_path, capsys, args, kind):
        out = tmp_path / "x.out"
        if kind == "directory":
            out.mkdir()
        else:
            os.mkfifo(tmp_path / "fifo")
            if kind == "fifo":
                out = tmp_path / "fifo"
            else:
                out.symlink_to(tmp_path / "fifo")
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"oscfree: error: --out {str(out)!r} is not a regular file; nothing written\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert out.is_dir() if kind == "directory" else stat.S_ISFIFO(out.stat().st_mode)


def _per_row_reference(directory: Path, header, columns, fmt: str, command="test") -> bytes:
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
        payload = {"schema_version": 1, "command": command, "columns": header, "rows": rows}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path.read_bytes()


def _blocks(columns, cuts=(), text=()):
    """The columns as a generator of blocks of rows, cut before each of the sorted row
    indices in cuts.  Int columns, and the columns indexed in text, are handed over as bytes
    arrays ('S') of their repr cells, the writer's one other column type."""
    bounds = [0, *cuts, len(columns[0])]
    for a, b in zip(bounds, bounds[1:]):
        yield [np.array(list(map(repr, c[a:b].tolist())), "S")
               if k in text or c.dtype.kind == "i" else c[a:b]
               for k, c in enumerate(columns)]


def _assert_writer_matches_reference(directory: Path, columns, cuts=(), text=()) -> None:
    """Write the columns as blocks cut at cuts; compare with the per-row writer's whole table."""
    header = [f"c{k}" for k in range(len(columns))]
    for fmt in ("csv", "json"):
        path = directory / f"table.{fmt}"
        _write_table(str(path), header, _blocks(columns, cuts, text), fmt, "test")
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
    # repeated cuts and cuts at 0 or rows give empty blocks
    cuts = sorted(data.draw(st.lists(st.integers(0, rows), max_size=6)))
    # columns handed over already formatted, as the field tables hand over tau and coordinates
    text = data.draw(st.sets(st.integers(0, n_float)))
    with tempfile.TemporaryDirectory() as directory:
        _assert_writer_matches_reference(Path(directory), columns, cuts, text)


@pytest.mark.parametrize(
    "rows",
    [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7],
)
def test_column_writer_block_boundaries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = [np.arange(rows), rng.standard_normal(rows), rng.uniform(-1e300, 1e300, rows)]
    _assert_writer_matches_reference(tmp_path, columns)


# two empty blocks, 5 rows, blocks one row short of, exactly and one row over the chunk
# size, a block of three chunks, another empty block and a last block of 3 rows
STRADDLING_CUTS = [0, 0, 5, _BLOCK_ROWS + 4, 2 * _BLOCK_ROWS + 4, 3 * _BLOCK_ROWS + 5,
                   5 * _BLOCK_ROWS + 6, 5 * _BLOCK_ROWS + 6]


def test_column_writer_blocks_straddle_chunks(tmp_path):
    rows = 5 * _BLOCK_ROWS + 9
    rng = np.random.default_rng(7)
    columns = [rng.uniform(-4, 4, rows), np.arange(rows) - rows // 2, rng.standard_normal(rows)]
    for text in ((), (0,)):  # the float columns as arrays, then the first one as repr cells
        _assert_writer_matches_reference(tmp_path, columns, STRADDLING_CUTS, text)


# axis specs: some end on -0.0 (a -0.0 node that np.unique would merge with 0.0), some start
# on it (linspace then gives 0.0); counts of a few nodes, or 1D counts and 2D products
# that straddle the writer's chunk
AXIS_ENDS = st.sampled_from([("-6", "4"), ("-2.5", "-0.0"), ("-0.0", "1"), ("-3", "3")])


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    dims=st.sampled_from([1, 2]),
    taus=st.lists(st.sampled_from(["0", "-0.0", "0.5", "1.5", "-2.25"]), min_size=1, max_size=4),
    fmt=st.sampled_from(["csv", "json"]),
    slab=st.sampled_from(["one row", "few rows", "default"]),
)
def test_field_table_matches_per_row_reference(data, dims, taus, fmt, slab):
    if dims == 1:
        counts = [data.draw(st.one_of(
            st.integers(3, 40), st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
        ))]
    else:
        counts = data.draw(st.one_of(
            st.lists(st.integers(3, 9), min_size=2, max_size=2),
            st.sampled_from([[64, 64], [63, 65], [65, 63], [64, 65]]),
        ))
    spec = ",".join(f"{lo}:{hi}:{n}" for (lo, hi), n in zip(data.draw(
        st.lists(AXIS_ENDS, min_size=dims, max_size=dims)), counts))
    grid = cli._parse_grid(spec, dims)
    params, tau_values = OscillatorParams(1.3, 0.7), [float(t) for t in taus]
    coords = [c.ravel() for c in analysis.coordinates(grid)]
    if dims == 1:
        command, names = ["gen1d", "--n", "3"], ["y"]
        lifts = [cli.lifted_eigenstate_1d(params, QuantumNumbers1D(3), *coords, t)
                 for t in tau_values]
    else:
        command, names = ["gen2d", "--l", "-2", "--n-radial", "1"], ["y1", "y2"]
        lifts = [lifted_eigenstate_2d(params, QuantumNumbers2D(1, -2), *coords, t)
                 for t in tau_values]
    values = np.concatenate(lifts)
    re, im = values.real, values.imag
    columns = [np.repeat(tau_values, grid.count), *(np.tile(c, len(taus)) for c in coords),
               re, im, re * re + im * im]
    header = ["tau", *names, "re", "im", "density"]
    # rows per axis-0 slab: 1, the fewest (from 2) that leave a ragged last slab, or _SLAB's
    rows = {"one row": 1, "few rows": next(r for r in range(2, counts[0]) if counts[0] % r)}
    points = rows[slab] * math.prod(counts[1:]) if slab in rows else analysis._SLAB
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(analysis, "_SLAB", points):
        out = Path(directory) / f"table.{fmt}"
        argv = [*command, "--mass", "1.3", "--omega", "0.7", f"--tau={','.join(taus)}",
                f"--grid={spec}", "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        expected = _per_row_reference(Path(directory), header, columns, fmt, command[0])
        assert out.read_bytes() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_text_of_100001_rows_matches_per_row_reference(tmp_path, fmt):
    """A gen1d-like table of 100001 rows, 25 chunks of the writer, has the per-row repr bytes."""
    rows = 100_001
    rng = np.random.default_rng(100_001)
    values = rng.standard_normal(rows) * np.exp(rng.uniform(-700, 10, rows))
    columns = [np.repeat([0.0, 0.5, 1.25], [33_334, 33_334, 33_333]), np.linspace(-20, 20, rows),
               values, -values[::-1], values * values]
    header = ["tau", "y", "re", "im", "density"]
    path = tmp_path / f"t.{fmt}"
    _write_table(str(path), header, _blocks(columns, [50_000]), fmt, "gen1d")
    assert path.read_bytes() == _per_row_reference(tmp_path, header, columns, fmt, "gen1d")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_is_bounded_by_the_chunk(tmp_path, fmt):
    """A 100k-row x 6-column table, handed over in ten blocks, peaks under 8 MiB of new memory."""
    rows = 100_000
    columns = list(np.random.default_rng(3).standard_normal((6, rows)))
    blocks = _blocks(columns, range(rows // 10, rows, rows // 10))
    tracemalloc.start()
    try:
        _write_table(str(tmp_path / f"t.{fmt}"), [f"c{k}" for k in range(6)], blocks, fmt, "t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"{fmt} writer peaked at {peak / 2**20:.1f} MiB"


def test_field_table_memory_does_not_grow_with_taus(tmp_path):
    """The traced peak of a gen1d table is the same for 4 taus as for 40, one tau lifted at a time.

    Measured 2.23 and 2.26 MiB, of which 0.78 MiB is the float formatter's working set
    (1.0 MiB for both with repr); blocks built for every tau before writing peaked at 1.2
    and 3.3 MiB with repr.
    """
    peaks = {}
    for taus in (4, 4, 40):  # the first run also traces one-time allocations
        args = ["gen1d", "--n", "2", "--tau", f"0:5:{taus}", "--grid", "-20:20:2001"]
        tracemalloc.start()
        try:
            assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0
            peaks[taus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] < 1.25 * peaks[4], {k: f"{v / 2**20:.2f} MiB" for k, v in peaks.items()}


def test_field_table_memory_does_not_grow_with_the_grid(tmp_path):
    """The traced peak of a one-tau gen2d table is the same at 501^2 points as at 251^2.

    Each is lifted and written one axis-0 slab of about 2^15 points at a time.  Measured
    2.94 and 2.98 MiB (2.7 and 2.9 with repr); lifted whole (_SLAB = 2^24), 4.1 and 15.6 MiB
    with repr.  Both grids are at least two slabs: 201^2, under two, peaked at 2.3 MiB,
    1.23x under 401^2, with repr.
    """

    def gen2d(count):
        args = ["gen2d", "--l", "1", "--tau", "0.5", "--grid", f"-12:12:{count}"]
        assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0

    gen2d(251)  # untraced warm-up for one-time allocations
    peaks = {}
    for count in (251, 501):
        tracemalloc.start()
        try:
            gen2d(count)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[501] < 1.25 * peaks[251], {k: f"{v / 2**20:.2f} MiB" for k, v in peaks.items()}


def test_field_table_memory_does_not_grow_with_the_slab(tmp_path, monkeypatch):
    """Past the lift of one slab, a one-tau gen2d table's traced peak is the same at any _SLAB.

    Text and density columns are built per chunk of _BLOCK_ROWS rows, so only the lift grows
    with the slab.  363^2 points are the fewest that hold two whole slabs at 2^16 points.
    Measured: 2.21 MiB over one slab's lift at 2^13-point slabs and 1.34 MiB at 2^16 (1.39
    and 0.74 with repr); with each slab's text built whole, 1.62 and 4.93 MiB with repr.
    """
    args = ["gen2d", "--l", "1", "--tau", "0.5", "--grid", "-12:12:363"]
    nodes = [np.linspace(-12.0, 12.0, 363)] * 2
    assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0  # one-time allocations
    excess = {}
    for points in (2**13, 2**16):
        monkeypatch.setattr(analysis, "_SLAB", points)
        coords = next(analysis._slabs(nodes, 0))[2]
        peaks = []
        for run in (
            lambda: main(args + ["--out", str(tmp_path / "t.csv")]),
            lambda: lifted_eigenstate_2d(OscillatorParams(1, 1), QuantumNumbers2D(0, 1),
                                         *coords(), 0.5),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        excess[points] = peaks[0] - peaks[1]
    assert excess[2**16] < excess[2**13] + 2**19, {
        k: f"{v / 2**20:.2f} MiB" for k, v in excess.items()
    }


# tables of several slabs and writer chunks: with 2^13-point slabs, two taus of 8751 gen1d
# rows in slabs of 8192 and 559 rows, of 107^2 or 101 x 91 gen2d rows in slabs of 76 and 31
# or of 90 and 11 axis-0 rows
TABLE_CASES = {
    "gen1d-csv": ["gen1d", "--n", "3", "--tau", "0,1.5", "--grid", "-20:20:8751"],
    "gen1d-json": ["gen1d", "--n", "3", "--tau", "0,1.5", "--grid", "-20:20:8751",
                   "--format", "json"],
    "gen2d-csv": ["gen2d", "--l", "1", "--tau", "0,0.5", "--grid", "-12:12:107"],
    "gen2d-json": ["gen2d", "--l", "-2", "--n-radial", "1", "--tau", "0,1",
                   "--grid", "-12:12:101,-9:9:91", "--format", "json"],
    "propagate": ["propagate", "--n", "2", "--to-tau", "0.7", "--grid", "-20:20:17501"],
}


@pytest.fixture
def small_slabs(monkeypatch):
    """Slabs of 2^13 points, two chunks of the writer."""
    monkeypatch.setattr(analysis, "_SLAB", 2**13)


@pytest.mark.parametrize("slab_workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_text_gives_the_one_writer_bytes(tmp_path, monkeypatch, capsys, case, slab_workers):
    """Small slabs, whose chunks of the writer span slab ends, on pools of 1 to 3 workers (which
    sample propagate's field), give the bytes of default slabs."""
    one = _main_outcome(TABLE_CASES[case], tmp_path / "default", capsys)
    monkeypatch.setattr(analysis, "_SLAB", 2**13)
    assert _main_outcome(TABLE_CASES[case], tmp_path / "small", capsys) == one
    assert one[0] == 0


# tables of many writer chunks at default slabs: a 301^2 gen2d and a 20001-node gen1d, one
# tau whose last slab is ragged (a chunk spans the end of one slab and a part of the next),
# and levels whose Hermite factor passes the largest float (the scaled recurrence)
POOL_CASES = {
    "big-csv": ["gen2d", "--l", "1", "--tau", "0,0.5", "--grid", "-12:12:301"],
    "big-json": ["gen1d", "--n", "3", "--tau", "0:2:4", "--grid", "-20:20:20001",
                 "--format", "json"],
    "ragged": ["gen1d", "--n", "3", "--tau", "0.5", "--grid", "-20:20:100001"],
    "n300": ["gen1d", "--n", "300", "--tau", "0", "--grid", "-40:40:2001"],
    "p250": ["peaks", "--n", "250", "--tau", "0", "--count", "20001"],
}


@pytest.mark.parametrize("case", POOL_CASES)
def test_table_text_on_one_worker_gives_the_default_pool_bytes(tmp_path, capsys, case):
    """A 1-worker pool, as under taskset -c 0, where a queued slab or chunk waits behind a
    running one, gives the default pool's bytes."""
    default = _main_outcome(POOL_CASES[case], tmp_path / "default", capsys)
    with ThreadPoolExecutor(1) as pool:
        with mock.patch.object(analysis, "_slab_pool", lambda: (pool, 1)):
            assert _main_outcome(POOL_CASES[case], tmp_path / "one", capsys) == default
    assert default[0] == 0


def test_table_text_gives_the_first_error_in_row_order(
    tmp_path, monkeypatch, capsys, small_slabs
):
    """Non-finite later slabs: exit 3 with the message of the first, nothing written.

    Four slabs; im is inf in slab 2 and re in slab 3, so the message names 'im'.
    """
    lift = cli.lifted_eigenstate_1d

    def failing(params, qn, y, tau):
        values = lift(params, qn, y, tau)
        if tau == 1.5 and y[0] == -20.0:
            return np.full_like(values, complex(0.0, np.inf))
        return np.full_like(values, np.inf) if tau == 1.5 and y[-1] == 20.0 else values

    monkeypatch.setattr(cli, "lifted_eigenstate_1d", failing)
    out = tmp_path / "x.csv"
    out.write_bytes(b"old bytes\n")
    code, stdout, stderr, data = _main_outcome(TABLE_CASES["gen1d-csv"], out, capsys)
    assert (code, stderr, data) == (3, "", b"old bytes\n")
    assert repr("im") in json.loads(stdout)["error"]["message"]
    assert list(tmp_path.iterdir()) == [out]


def test_table_text_stops_at_the_first_failing_block(tmp_path, monkeypatch, capsys, small_slabs):
    """A non-finite first slab ends the table before any later slab is lifted."""
    lift, lifted = cli.lifted_eigenstate_1d, []

    def failing(params, qn, y, tau):
        lifted.append((tau, y[0]))
        values = lift(params, qn, y, tau)
        return np.full_like(values, np.nan) if tau == 0.0 and y[0] == -20.0 else values

    monkeypatch.setattr(cli, "lifted_eigenstate_1d", failing)
    code, stdout, _, data = _main_outcome(TABLE_CASES["gen1d-csv"], tmp_path / "x.csv", capsys)
    assert (code, data) == (3, None)
    assert repr("re") in json.loads(stdout)["error"]["message"]
    assert list(tmp_path.iterdir()) == []
    assert lifted == [(0.0, -20.0)]


def test_table_text_stops_at_the_first_failing_chunk(tmp_path, monkeypatch):
    """An error formatting a chunk ends the table: no later chunk is formatted."""
    rows_text, started = cli._rows_text, []

    def failing(columns, *framing):
        started.append(int(columns[0][0]) // cli._BLOCK_ROWS)
        if started[-1] == 2:
            raise MemoryError("chunk 2")
        return rows_text(columns, *framing)

    monkeypatch.setattr(cli, "_rows_text", failing)
    out = tmp_path / "x.csv"
    out.write_bytes(b"old bytes\n")
    column = np.arange(10 * cli._BLOCK_ROWS, dtype=float)
    with pytest.raises(MemoryError, match="^chunk 2$"):
        _write_table(str(out), ["c"], [[column]], "csv", "test")
    assert started == [0, 1, 2]
    assert list(tmp_path.iterdir()) == [out] and out.read_bytes() == b"old bytes\n"


def test_table_text_interrupted_leaves_the_old_file(tmp_path, monkeypatch, small_slabs):
    """A KeyboardInterrupt mid-table keeps --out and leaves no temporary file."""
    lift, formatted = cli.lifted_eigenstate_1d, []

    def interrupted(params, qn, y, tau):
        if tau == 1.5:
            raise KeyboardInterrupt
        return lift(params, qn, y, tau)

    monkeypatch.setattr(cli, "lifted_eigenstate_1d", interrupted)
    out = tmp_path / "x.csv"
    out.write_bytes(b"old bytes\n")
    with pytest.raises(KeyboardInterrupt):
        main([*TABLE_CASES["gen1d-csv"], "--out", str(out)])
    assert out.read_bytes() == b"old bytes\n" and list(tmp_path.iterdir()) == [out]


def test_hermite_sees_at_most_one_slab(tmp_path, monkeypatch, capsys):
    """verify hands the Hermite recurrence one slab of analysis._slabs at a time.

    A slab is _SLAB points, plus a halo row on either side for a residual; so the
    recurrence buffers stay cache-sized however large the grid.  peaks lifts only the
    level's n + 1 exact maxima, in one call whatever the taus.
    """
    sizes, hermite_scaled = [], transform.hermite_scaled

    def recording(n, x):
        sizes.append(np.size(x))
        return hermite_scaled(n, x)

    monkeypatch.setattr(transform, "hermite_scaled", recording)
    assert main(GOLDEN["peaks_n40.json"] + ["--out", str(tmp_path / "p.json")]) == 0
    assert sizes == [41]
    sizes.clear()
    assert main(["verify", "--suite", "free-residual", "--refinements", "5"]) == 0
    capsys.readouterr()
    # three samples (t, t +- dt) of the grids of 501 to 8001 nodes
    assert max(sizes) <= analysis._SLAB + 2 and sum(sizes) == 3 * (501 + 1001 + 2001 + 4001 + 8001)


def _main_outcome(argv, out: Path, capsys):
    """Exit code (or SystemExit code), stdout, stderr and the output file of one run."""
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


# argparse reads -1e-3 as an option unless it is fused to its flag
@pytest.mark.parametrize(
    "args, flag, code",
    [
        (["propagate", "--n", "2", "--grid", "-20:20:101"], "--to-tau", 0),
        (["verify", "--suite", "osc-residual", "--n", "1", "--refinements", "2"], "--time", 0),
        (["verify", "--suite", "free-residual", "--refinements", "2"], "--tau", 0),
        (["gen1d", "--n", "2", "--tau", "0", "--grid", "-4:4:5"], "--mass", 2),
        (["gen1d", "--n", "2", "--tau", "0", "--grid", "-4:4:5"], "--omega", 2),
        (["envelope", "--tau", "0"], "--energy", 2),
    ],
    ids=["propagate-to-tau", "verify-time", "verify-tau", "mass", "omega", "envelope-energy"],
)
def test_dash_leading_value_as_separate_token(tmp_path, capsys, args, flag, code):
    separate = _main_outcome([*args, flag, "-1e-3"], tmp_path / "separate.out", capsys)
    fused = _main_outcome([*args, f"{flag}=-1e-3"], tmp_path / "fused.out", capsys)
    assert "expected one argument" not in separate[2]
    assert separate[0] == code
    assert separate == fused


# argparse accepts an abbreviated long flag; it takes a dash-leading value by the same rule
@pytest.mark.parametrize(
    "args, short, full, value",
    [
        (["propagate", "--n", "2", "--grid", "-20:20:101"], "--to", "--to-tau", "-1e-3"),
        (["gen1d", "--n", "2", "--tau", "0"], "--gr", "--grid", "-4:4:5"),
        (["verify", "--suite", "osc-residual", "--n", "1", "--refinements", "2"],
         "--ti", "--time", "-1e-3"),
    ],
    ids=["propagate-to", "gen1d-gr", "verify-ti"],
)
def test_abbreviated_flag_takes_dash_leading_value(tmp_path, capsys, args, short, full, value):
    separate = _main_outcome([*args, short, value], tmp_path / "separate.out", capsys)
    fused = _main_outcome([*args, f"{full}={value}"], tmp_path / "fused.out", capsys)
    assert "expected one argument" not in separate[2]
    assert separate[0] == 0
    assert separate == fused


def test_every_option_but_help_takes_one_value():
    # cli._fuse_dash_values fuses a dash-leading token onto the long flag before
    # it, which is right only while every option but --help takes one value
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, command in commands.choices.items():
        for action in command._actions:
            if action.option_strings and "--help" not in action.option_strings:
                assert action.nargs is None, (name, action.option_strings)


@pytest.mark.parametrize("option", ["--refinements", "--ref", "-h"])
def test_option_is_never_taken_as_a_value(tmp_path, monkeypatch, capsys, option):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "free-residual", "--out", option, "2"])
    assert exc.value.code == 2
    assert "argument --out: expected one argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _mostly(good, bad):
    """Draw from good seven times in eight, else from bad."""
    return st.integers(0, 7).flatmap(lambda k: good if k else bad)


NUMBERS = _mostly(
    st.sampled_from(["0.3", "0.8", "1", "2.5"]),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-200", "-1e-3", "-1", "0", ""]),
)
LEVELS = _mostly(st.integers(0, 40).map(str), st.sampled_from(["-1", "", "nan", "1e308"]))
# far below the point budget, or one eighth of the time far above it, so
# that no example builds a large table or grid
HUGE = "1000000000000"
COUNTS = _mostly(
    _mostly(st.sampled_from(["3", "21", "201"]), st.sampled_from(["-1", "0", "1", "2", ""])),
    st.just(HUGE),
)
RANGE_COUNTS = _mostly(
    _mostly(st.sampled_from(["1", "3"]), st.sampled_from(["-1", "0"])), st.just(HUGE)
)
RANGES = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, min_size=2, max_size=3).map(",".join),
    st.tuples(NUMBERS, NUMBERS, RANGE_COUNTS).map(":".join),
)
GRIDS = _mostly(
    st.tuples(st.sampled_from(["-12", "-6"]), st.sampled_from(["6", "12"]), COUNTS).map(":".join),
    st.one_of(NUMBERS, st.tuples(NUMBERS, NUMBERS, COUNTS).map(":".join)),
)
GRIDS_2D = st.one_of(GRIDS, st.tuples(GRIDS, GRIDS).map(",".join))
TIME_FLAGS = ("--tau", "--to-tau", "--time")
SUITES = _mostly(
    st.sampled_from(["free-residual", "osc-residual", "free-residual-2d"]), st.just("none")
)

# flags of each command with the values drawn for them; the first group is
# always given, the second each with probability 1/2 (envelope also gets one
# of its two exclusive energy flags); each flag is given as --flag=value or
# as --flag value
COMMAND_FLAGS = {
    "gen1d": ({"--n": LEVELS, "--tau": RANGES, "--grid": GRIDS}, {}),
    "gen2d": ({"--l": LEVELS, "--tau": RANGES, "--grid": GRIDS_2D}, {"--n-radial": LEVELS}),
    "peaks": ({"--n": LEVELS, "--tau": RANGES}, {"--count": COUNTS}),
    "envelope": ({"--tau": RANGES}, {"--alpha": RANGES}),
    "verify": (
        {"--suite": SUITES, "--refinements": _mostly(st.sampled_from(["2", "3"]), st.just("1"))},
        {"--n": LEVELS, "--l": LEVELS, "--n-radial": LEVELS, "--tau": NUMBERS,
         "--time": NUMBERS, "--base-count": COUNTS},
    ),
    "propagate": ({"--n": LEVELS, "--to-tau": NUMBERS, "--grid": GRIDS}, {}),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(COMMAND_FLAGS)))
def test_exit_codes_over_random_arguments(data, command):
    required, optional = COMMAND_FLAGS[command]
    common = {"--mass": NUMBERS, "--omega": NUMBERS}
    if command != "verify":
        common["--format"] = st.sampled_from(["csv", "json"])
    flags = dict(required)
    if command == "envelope":
        energy = data.draw(st.sampled_from(["--energy", "--energy-from-n"]))
        flags[energy] = NUMBERS if energy == "--energy" else LEVELS
    flags.update((f, v) for f, v in {**common, **optional}.items() if data.draw(st.booleans()))
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory) / data.draw(_mostly(st.just("x.out"), st.just("missing/x.out")))
        given = {**{f: data.draw(v) for f, v in flags.items()}, "--out": str(out)}
        argv = [command]
        for flag, value in given.items():
            argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {0, 2, 3, 4, 5}, argv
        # a non-finite time, or a count over the point budget in a value that
        # is parsed with its flag, is a usage error whatever else was drawn
        parts = {f: set(re.split("[,:]", v)) for f, v in given.items()}
        if any(parts.get(f, set()) & {"nan", "inf", "-inf"} for f in TIME_FLAGS):
            assert code == 2, argv
        if any(HUGE in parts.get(f, set()) for f in ("--tau", "--alpha", "--grid")):
            assert code == 2, argv
        # no drawn value starts with "--", so each belongs to its flag
        assert "expected one argument" not in err.getvalue(), argv
        if code in {2, 3, 5}:
            assert not out.exists(), argv
        if code == 4:
            assert out.exists(), argv
        # no temporary file is left beside --out, whatever the exit
        assert set(os.listdir(directory)) <= {"x.out"}, argv


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


def dispatch_disabled(level: str, dispatch) -> list[str]:
    """The features of dispatch (numpy's __cpu_dispatch__) that NPY_DISABLE_CPU_FEATURES turns
    off to run numpy's loops at an x86-64 level: at v3 every X86_V4 and AVX-512 loop, at v2
    the X86_V3 loops as well.  Taken from numpy's own list, as an older numpy names its
    AVX-512 features one by one and has no X86_V* names."""
    v3 = [f for f in dispatch if f == "X86_V4" or f.startswith("AVX512")]
    return {"v2": [f for f in dispatch if f == "X86_V3"] + v3, "v3": v3, "native": []}[level]


def test_dispatch_disabled_follows_numpys_names():
    assert dispatch_disabled("v2", ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]) == [
        "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"
    ]
    older = ["SSE41", "POPCNT", "AVX2", "FMA3", "AVX512F", "AVX512_SKX", "AVX512_ICL"]
    assert dispatch_disabled("v3", older) == ["AVX512F", "AVX512_SKX", "AVX512_ICL"]
    assert dispatch_disabled("v2", older) == dispatch_disabled("v3", older)
    assert dispatch_disabled("native", older) == []


@pytest.mark.parametrize("name", GOLDEN)
def test_matches_golden(tmp_path, capsys, name):
    """The golden file's argv writes its bytes (and prints them, for a verify report), and
    leaves no temporary file beside --out (_replacing)."""
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out)]) == 0
    golden = (GOLDEN_DIR / name).read_bytes()
    assert out.read_bytes() == golden
    if GOLDEN[name][0] == "verify":
        assert capsys.readouterr().out.encode() == golden
    assert os.listdir(tmp_path) == [name]


def test_golden_files_are_the_manifest():
    """A golden file left behind by a rename, or a manifest entry without its file, fails."""
    assert sorted(os.listdir(GOLDEN_DIR)) == sorted([*GOLDEN, "manifest.json"])


@pytest.mark.parametrize("slab_workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("name", GOLDEN)
def test_matches_golden_at_any_worker_count(tmp_path, capsys, name, slab_workers):
    test_matches_golden(tmp_path, capsys, name)


# the 2D lift and the spectral oracle write their complex products in real arithmetic, which
# rounds the same in every numpy loop, and the float formatter is integer arithmetic, so
# every golden keeps its bytes at every level
@pytest.mark.parametrize("level", ["v2", "v3", "native"])
def test_golden_bytes_at_every_dispatch_level(tmp_path, level):
    """Run every golden argv in one child at the dispatch level, and compare its output with
    the golden file; skip a level numpy has no loops to turn off for, or the host lacks."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = dispatch_disabled(level, __cpu_dispatch__)
    if level != "native" and not disabled:
        pytest.skip(f"numpy dispatches no loop above x86-64-{level}")
    if level == "v3" and not __cpu_features__.get("X86_V3", __cpu_features__.get("AVX2")):
        pytest.skip("the host has no x86-64-v3")
    argvs = [args + ["--out", str(tmp_path / name)] for name, args in GOLDEN.items()]
    child = (
        "import json, sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "from oscfree.cli import main\n"
        "disabled, argvs = json.loads(sys.argv[1])\n"
        "assert not any(__cpu_features__[f] for f in disabled), 'level not in effect'\n"
        "sys.exit(max(main(argv) for argv in argvs))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps([disabled, argvs])],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == sorted(GOLDEN)
    for name in GOLDEN:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def _after_import(probe: str) -> str:
    """stdout of probe run in a fresh interpreter that has imported oscfree and oscfree.cli."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, threading, oscfree, oscfree.cli; " + probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # scipy.integrate alone takes most of a cold start; the runtime needs numpy only
    probe = "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _after_import(probe) == "[]"


def test_import_starts_no_slab_pool():
    # the pool and concurrent.futures come with the first grid evaluation
    probe = "print('concurrent.futures' in sys.modules, threading.active_count())"
    assert _after_import(probe) == "False 1"
