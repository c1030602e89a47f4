"""Benchmark of the cdindex CLI, end to end and per layer.

    python3 perfbench/run.py --workload compute-s5-top [--seed 1] [--seconds 35] [--trace 0|1]

Run from the root of a checkout; the package is imported from its `src`.
Each invocation is the real CLI in a fresh interpreter, single-process,
with the seeded reflection order as its only varying input; every output
is checked against perfbench/reference (see checks.py).

--trace 0 (tracing off) reports the end-to-end metrics named in
BENCHMARK.json: the median over the invocations that fit in --seconds, with
`setup_s` the median of fresh-interpreter imports of the CLI, taken a few
before each invocation.
--trace 1 runs the CLI once untraced and then under perfbench/tracer.py,
and reports the per-layer metrics plus the tracing overhead.

Output: one human-readable line per metric, then a JSON record with the
samples (the input of compare.py), then, last, the summary object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from checks import check_output, load_reference
from summary import describe
from tracer import layer_values
from workloads import (
    DEFAULT_SEED,
    OUT_DIR,
    REFERENCE_DIR,
    ROOT,
    WORKLOADS,
    check_source_tree,
    cli_argv,
    run_cli,
    run_process,
    run_setup,
)

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_PER_INVOCATION = 3
MIN_SETUP_SAMPLES = 11
COUNT_SUFFIXES = (".calls", ".paths", ".vertices", ".words", ".pairs", "_ratio")


def load_benchmark() -> dict:
    with open(BENCHMARK_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def intervals_written(kind: str, returncode: int, stdout: bytes) -> int:
    """Intervals the CLI finished: scan records, or the one interval."""
    if returncode != 0:
        return 0
    if kind == "scan":
        return sum(1 for line in stdout.splitlines() if line.strip())
    return 1


def repeat_within(seconds: float, step):
    """Call step() until another call would likely end past `seconds`.

    At least one call is made; the estimate is the median call so far.
    """
    started = time.perf_counter()
    durations, results = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(durations) > seconds:
            return results


def measured_run(workload, seed: int, seconds: float, ref: dict, metrics_def: list[dict]):
    # Set-up samples are spread over the run, a few before each invocation,
    # so that their median sees the same host load as the invocations.
    setup = []

    def step():
        setup.extend(run_setup() for _ in range(SETUP_PER_INVOCATION))
        return run_cli(workload, seed)

    invocations = repeat_within(seconds, step)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run_setup())
    for s in setup:
        if s.returncode != 0:
            raise SystemExit("error: the CLI does not import: " + s.stderr.decode())
    checks = [check_output(workload.kind, inv.returncode, inv.stdout, ref) for inv in invocations]
    samples = {
        "wall_s": [inv.wall_s for inv in invocations],
        "cpu_s": [inv.cpu_s for inv in invocations],
        "setup_s": [s.wall_s for s in setup],
        "peak_rss_mb": [inv.peak_rss_mb for inv in invocations],
        "intervals_per_s": [
            intervals_written(workload.kind, inv.returncode, inv.stdout) / inv.wall_s
            for inv in invocations
        ],
    }
    metrics = {m["name"]: describe(samples[m["name"]], m["unit"], m["better"]) for m in metrics_def}
    return metrics, checks


def traced_invocation(workload, seed: int, run_id: str):
    trace_file = OUT_DIR / f"{workload.name}.trace.json"
    trace_file.unlink(missing_ok=True)
    inv = run_process(
        [sys.executable, str(TRACER), "--out", str(trace_file), "--run-id", run_id, "--",
         *cli_argv(workload, seed)]
    )
    values = None
    if inv.returncode == 0 and trace_file.exists():
        with open(trace_file, encoding="utf-8") as fh:
            values = layer_values(json.load(fh))
        values["cli.output_bytes"] = len(inv.stdout)
    return inv, values


def traced_run(workload, seed: int, seconds: float, ref: dict, metrics_def: list[dict]):
    untraced = run_cli(workload, seed)
    runs = repeat_within(
        seconds,
        lambda: traced_invocation(workload, seed, f"{workload.name}-{seed}-{time.time_ns()}"),
    )
    checks = [check_output(workload.kind, untraced.returncode, untraced.stdout, ref)]
    for inv, values in runs:
        check = check_output(workload.kind, inv.returncode, inv.stdout, ref)
        if values is None:
            check.problems.append("traced run wrote no trace")
        checks.append(check)
    traces = [values for _, values in runs if values is not None]
    samples = {m["name"]: [] for m in metrics_def}
    for values in traces:
        for name in samples:
            samples[name].append(values.get(name, 0))
    samples["trace.overhead_s"] = [inv.wall_s - untraced.wall_s for inv, _ in runs]
    # Counts and ratios must repeat exactly between traced runs of one seed.
    for name, vals in samples.items():
        if name.endswith(COUNT_SUFFIXES) and len(set(vals)) > 1:
            checks[0].problems.append(f"{name} differs between traced runs: {vals}")
    if not traces:
        samples = {name: vals or [0] for name, vals in samples.items()}
    metrics = {m["name"]: describe(samples[m["name"]], m["unit"], m["better"]) for m in metrics_def}
    return metrics, checks


def print_report(workload, seed, order, trace, metrics, attempted, failed, problems):
    print(f"workload {workload.name}  seed {seed}  order {order}  trace {trace}")
    for name, m in metrics.items():
        extra = f"median of {m['n']}"
        if m["tail"] is not None:
            extra += f", p{m['tail']['percentile']} {m['tail']['value']:.6g}"
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} ({extra})")
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} {'':6s} ({failed} of {attempted} units)")
    for p in problems:
        print(f"  check failed: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cdindex CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    problem = check_source_tree()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    ref = load_reference(REFERENCE_DIR, workload.name)

    if args.trace:
        metrics, checks = traced_run(workload, args.seed, seconds, ref, bench["per_layer"])
    else:
        metrics, checks = measured_run(workload, args.seed, seconds, ref, bench["end_to_end"])

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    correct = all(c.correct for c in checks)
    order = cli_argv(workload, args.seed)[-1]
    print_report(workload, args.seed, order, args.trace, metrics, attempted, failed, problems)
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "order": order, "trace": args.trace,
        "seconds": seconds, "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics,
    }))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
