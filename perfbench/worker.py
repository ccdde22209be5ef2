"""Runs one workload in a fresh process and prints its raw results as one JSON line.

Started by run.py with numpy threading pinned to one thread.  It prints
``ready`` as soon as ``oscfree.cli`` is imported, which is where run.py
stops the set-up clock.  The first pass after import is the cold pass;
with ``--cold-only`` the worker stops after it and reports the pass time
and output fingerprints.  Otherwise timed passes follow until
``--seconds`` have elapsed; each must reproduce the cold pass's outputs
exactly.  Peak memory is read before the outputs are parsed and checked,
so it is the workload's and not the checker's.  With ``--trace 1``, timed
passes alternate between untraced and traced, and per-layer metrics come
from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter


def run_pass(ops, outdir: Path):
    """Run every operation once; returns the summed call time and per-op records."""
    total = 0.0
    outcomes = []
    for op in ops:
        start = perf_counter()
        outcome = op.invoke(outdir)
        total += perf_counter() - start
        op.collect(outdir, outcome)
        outcome.fingerprint = op.fingerprint(outcome)
        outcome.rows = op.rows(outcome)
        outcome.nbytes = op.bytes_written(outcome)
        outcome.data = None
        outcomes.append(outcome)
    return total, outcomes


def cli_metrics(outcomes) -> dict:
    return {
        "cli.rows": sum(o.rows for o in outcomes),
        "cli.bytes": sum(o.nbytes for o in outcomes),
        "cli.exit_nonzero": sum(o.exit_code not in (None, 0) for o in outcomes),
        "cli.warnings": sum(o.warnings for o in outcomes),
    }


def check_all(ops, outcomes, outdir: Path) -> list[list[str]]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [op.check(op.collect(outdir, o)) for op, o in zip(ops, outcomes)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--cold-only", action="store_true")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import oscfree.cli  # noqa: F401

    print("ready", flush=True)
    import numpy
    import scipy

    import oscfree

    if not Path(oscfree.__file__).resolve().is_relative_to(src):
        print(f"oscfree imported from {oscfree.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from spans import Recorder, layer_metrics

    inputs = workloads.generate(args.workload, args.seed)
    ops, probes = workloads.build(args.workload, inputs, args.seed, args.root)
    cold_dir, pass_dir = args.work / "cold", args.work / "pass"
    cold_dir.mkdir()
    pass_dir.mkdir()

    recorder = Recorder()
    if args.trace and not args.cold_only:
        recorder.install()

    cold_s, cold = run_pass(ops, cold_dir)
    fingerprints = [o.fingerprint.hex() for o in cold]
    if args.cold_only:
        print(json.dumps({"cold_pass_s": cold_s, "fingerprints": fingerprints}))
        return 0
    mismatched = [0] * len(ops)
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    start = perf_counter()
    while True:
        tracing = bool(args.trace) and len(untraced) > len(traced)
        recorder.active = tracing
        mark = len(recorder.spans)
        pass_s, outcomes = run_pass(ops, pass_dir)
        recorder.active = False
        for i, (a, b) in enumerate(zip(cold, outcomes)):
            mismatched[i] += a.fingerprint != b.fingerprint
        if tracing:
            traced.append(pass_s)
            m = layer_metrics(recorder.spans[mark:], oscfree.OscfreeError)
            m.update(cli_metrics(outcomes))
            layers.append(m)
        else:
            untraced.append(pass_s)
        if perf_counter() - start >= args.seconds and (not args.trace or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        recorder.uninstall()
        spans_dir = args.root / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        recorder.write(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    problems = check_all(ops, cold, cold_dir)
    passes = 1 + len(untraced) + len(traced)
    failed = sum(passes if p else mismatched[i] for i, p in enumerate(problems))
    failures = {op.name: p for op, p in zip(ops, problems) if p}
    failures.update({op.name: ["output differs from the checked cold pass"]
                     for op, n in zip(ops, mismatched) if n and op.name not in failures})

    probe_dir = args.work / "probes"
    probe_dir.mkdir()
    _, probe_outcomes = run_pass(probes, probe_dir)
    probe_problems = check_all(probes, probe_outcomes, probe_dir)

    layer = {}
    if layers:
        layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        layer["cli.rows_per_s"] = statistics.median(
            m["cli.rows"] / m["cli.self_s"] if m["cli.self_s"] > 0 else 0.0 for m in layers
        )
        base = statistics.median(untraced)
        layer["trace.overhead_frac"] = (statistics.median(traced) - base) / base
        layer["edge_probes.failed"] = sum(bool(p) for p in probe_problems)

    result = {
        "inputs": inputs,
        "ops": [op.name for op in ops],
        "cold_pass_s": cold_s,
        "fingerprints": fingerprints,
        "pass_s": untraced,
        "traced_pass_s": traced,
        "peak_rss_mb": peak_rss_mb,
        "attempted": passes * len(ops),
        "failed": failed,
        "failures": failures,
        "probes": {op.name: p for op, p in zip(probes, probe_problems)},
        "layers": layer,
        "array_bytes_per_pass": sum(op.array_bytes for op in ops),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "oscfree": oscfree.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
