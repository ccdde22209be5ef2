"""oscfree benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables-io --seed 1 --seconds 15 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  This launcher does
not import the program.  It runs the workload in child processes
(perfbench/worker.py) with numpy threading pinned to one thread: a few
that stop after the cold pass, so that ``setup_s`` and ``cold_pass_s``
are medians over fresh processes, then one that runs the timed passes.
It prints every metric by name and unit with its sample count, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  ``cold_pass_s`` and ``fail_frac``
are printed but are not JSON metrics: a single first pass per process is
too noisy on a shared host to carry a bound, and ``fail_frac`` is 0.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
COLD_WORKERS = 3
LAYERS = ("specfun", "oscillator", "transform", "classical", "analysis", "cli")
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def run_worker(argv: list[str], env: dict, cwd: Path, deadline: float) -> tuple[float, dict]:
    """Run worker.py; returns the set-up time and the worker's JSON result.

    Set-up time runs from starting the fresh interpreter to the worker's
    ``ready`` line, printed once oscfree.cli is imported.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-s", str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd, text=True,
    ) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker did not finish within the time limit") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{err}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cache_sizes() -> dict:
    sizes = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            sizes[level.lower()] = int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            sizes[level.lower()] = None
    return sizes


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "oscfree" / "__init__.py").is_file():
        print(f"perfbench: no oscfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=ROOT / ".perfbench_work"))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--root", str(ROOT),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        colds = []
        for i in range(0 if args.trace else COLD_WORKERS):
            (work / f"cold{i}").mkdir()
            colds.append(run_worker([*common, "--work", str(work / f"cold{i}"), "--cold-only"],
                                    env, work, deadline))
        (work / "main").mkdir()
        main_setup, raw = run_worker([*common, "--work", str(work / "main")], env, work, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup = [main_setup] + [s for s, _ in colds]
    cold = [raw["cold_pass_s"]] + [c["cold_pass_s"] for _, c in colds]
    # every fresh process must produce the outputs the main worker checked
    for _, c in colds:
        for name, a, b in zip(raw["ops"], raw["fingerprints"], c["fingerprints"]):
            if a != b:
                raw["failed"] += 1
                raw["failures"].setdefault(name, []).append("a fresh process wrote other output")
        raw["attempted"] += len(raw["ops"])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {why[args.workload]}")
    print(f"inputs {json.dumps({'seed': args.seed, **raw['inputs']})}")
    fail_frac = raw["failed"] / raw["attempted"]
    print(f"fail_frac {fail_frac!r} ratio ({raw['failed']} of {raw['attempted']} operations "
          f"over {len(raw['ops'])} ops x {raw['attempted'] // len(raw['ops'])} passes)")
    for name, problems in raw["failures"].items():
        print(f"  FAILED {name}: {'; '.join(problems)}")
    for name, problems in raw["probes"].items():
        state = "fails (known defect): " + "; ".join(problems) if problems else "passes"
        print(f"known-defect probe {name} {state}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    samples = raw["pass_s"]
    if args.trace:
        metrics = {name: raw["layers"][name] for name in (m["name"] for m in spec["per_layer"])}
        print(f"traced passes {len(raw['traced_pass_s'])}, untraced passes {len(samples)}")
        total = sum(raw["layers"][f"{layer}.self_s"] for layer in LAYERS)
        print("self-time shares " + ", ".join(
            f"{layer} {100.0 * raw['layers'][f'{layer}.self_s'] / total:.1f}%" for layer in LAYERS
        ))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(samples),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        t = tail(samples)
        detail = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "pass_s": f"median of {len(samples)} passes; " + (
                f"p{t[0]:.0f} {t[1]!r} s" if t else "no percentile has 10 samples beyond it"),
            "peak_rss_mb": "workload process, before output checks",
        }
        print(f"cold_pass_s {statistics.median(cold)!r} s  "
              f"(first pass after import, median of {len(cold)} processes; not bounded)")
    for name, value in metrics.items():
        note = "" if args.trace else f"  ({detail[name]})"
        print(f"{name} {value!r} {units[name]}{note}")
    record = {
        "nproc": os.cpu_count(),
        "load": "one process, no worker threads; numpy threading pinned to 1",
        "versions": raw["versions"],
        "git_sha": git_sha(ROOT),
        "cache_bytes": cache_sizes(),
        "array_bytes_per_pass": raw["array_bytes_per_pass"],
        "array_bytes_note": "computed from array shapes; no bandwidth claim",
    }
    print(f"record {json.dumps(record)}")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
