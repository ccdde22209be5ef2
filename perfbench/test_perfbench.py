"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

The short runs take about two minutes in all, mostly tables-io.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oscfree.cli  # noqa: E402
import workloads  # noqa: E402
from oscfree import OscillatorParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HEADER = ["tau", "y", "re", "im", "density"]


@pytest.fixture
def gen1d_table(tmp_path):
    out = tmp_path / "field.csv"
    argv = ["gen1d", "--n", "3", "--mass", "0.9", "--omega", "1.1", "--tau", "0.5,1.5",
            "--grid", "-8:8:401", "--out", str(out)]
    assert oscfree.cli.main(argv) == 0
    expected = workloads._field_1d_expected(
        OscillatorParams(0.9, 1.1), 3, [0.5, 1.5], workloads.Grid1D(-8.0, 8.0, 401).nodes
    )
    return out.read_bytes(), expected


def test_checker_accepts_the_cli_table(gen1d_table):
    data, expected = gen1d_table
    assert checks.check_table(data, "csv", HEADER, expected, spot_seed=1) == []


def test_checker_rejects_one_flipped_digit(gen1d_table):
    data, expected = gen1d_table
    lines = data.decode().split("\n")
    row = random.Random(7).randrange(1, len(lines) - 1)
    fields = lines[row].split(",")
    re = fields[2]
    i = next(k for k, c in enumerate(re) if c.isdigit() and c != "0")
    fields[2] = re[:i] + str((int(re[i]) + 1) % 10) + re[i + 1:]
    lines[row] = ",".join(fields)
    flipped = "\n".join(lines).encode()
    assert checks.check_table(flipped, "csv", HEADER, expected, spot_seed=1)


def test_checker_rejects_a_nan_row(gen1d_table):
    data, expected = gen1d_table
    lines = data.decode().split("\n")
    lines[5] = ",".join(["nan"] * len(HEADER))
    problems = checks.check_table("\n".join(lines).encode(), "csv", HEADER, expected, 1)
    assert any("non-finite" in p for p in problems)


def test_checker_rejects_a_golden_mismatch():
    golden = (ROOT / "tests" / "golden" / "envelope_n2.csv").read_bytes()
    assert checks.check_golden(golden, golden) == []
    flipped = golden.replace(b"5.0", b"5.1", 1)
    assert flipped != golden and checks.check_golden(flipped, golden)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    printed = list(result["metrics"]) + ([] if trace else ["cold_pass_s", "fail_frac"])
    for name in printed:
        assert f"\n{name} " in proc.stdout  # printed by name before the JSON line
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "verify-residual", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
