"""Benchmark of `nodal`: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 44 --trace 0

Runs checked passes of the workload back to back in this process for about
`--seconds` seconds (a pass is started only if the passes so far say it will
end in time; there is always at least one).  `--trace 0` reports the
end-to-end metrics, with the set-up probes spread among the passes inside
the same time budget; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics plus the tracing overhead.  Human-readable lines
come first; the last line of standard output is the JSON result.  See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15


def import_nodal():
    """Import `nodal` from this checkout's src/, or exit with a message and status 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nodal
    except ImportError as e:
        sys.exit(f"perfbench: cannot import nodal from {src}: {e}")
    if Path(nodal.__file__).resolve().parent != src / "nodal":
        sys.exit(f"perfbench: nodal imported from {nodal.__file__}, not {src}")
    if not (ROOT / "fixtures").is_dir():
        sys.exit(f"perfbench: no fixtures directory under {ROOT}")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def setup_probe():
    """Set-up seconds of one fresh process, as timed inside it, and the probe's wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed ({proc.returncode}): {proc.stderr}")
    return float(proc.stdout.split()[-1]), wall


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_pass(workload, seed):
    c0, t0 = time.process_time(), time.perf_counter()
    result = workload.run_pass(seed)
    return time.perf_counter() - t0, time.process_time() - c0, result


def report_pass(kind, i, wall, cpu, result):
    line = (f"pass {i} {kind}: {wall:.3f} s wall, {cpu:.3f} s cpu, "
            f"{len(result.latencies)} verdicts, {result.failed} failed")
    print(line, flush=True)
    for problem in result.problems:
        print(f"  problem: {problem}", flush=True)


def run_untraced(workload, seed, seconds, samples):
    """Checked passes and `samples` set-up probes, spread evenly over `seconds`.

    Before each pass the run takes the probes due by then; the rest follow the
    last pass.  A pass is started only if it and the outstanding probes still
    fit in the budget.
    """
    passes, setup, probe_walls = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        due = min(samples, max(1, math.ceil(samples * elapsed / seconds)))
        while len(setup) < due:
            s, wall = setup_probe()
            setup.append(s)
            probe_walls.append(wall)
        leftover = tracer.wrapped_bindings()
        if leftover:
            raise RuntimeError(f"tracer wrappers left in place: {leftover}")
        wall, cpu, result = timed_pass(workload, seed)
        passes.append((wall, cpu, result))
        report_pass("untraced", len(passes), wall, cpu, result)
        median = statistics.median(p[0] for p in passes)
        outstanding = (samples - len(setup)) * statistics.mean(probe_walls)
        if time.perf_counter() - start + median + outstanding > seconds:
            break
    while len(setup) < samples:
        setup.append(setup_probe()[0])
    return passes, setup


def run_traced(workload, seed, seconds):
    """Pairs of (untraced, traced) passes; returns both lists and the tracers."""
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, result = timed_pass(workload, seed)
        untraced.append((wall, cpu, result))
        report_pass("untraced", len(untraced), wall, cpu, result)
        t = tracer.Tracer()
        with t:
            wall, cpu, result = timed_pass(workload, seed)
        leftover = tracer.wrapped_bindings()
        if leftover:
            raise RuntimeError(f"tracer wrappers left in place: {leftover}")
        traced.append((wall, cpu, result))
        tracers.append(t)
        report_pass("traced", len(traced), wall, cpu, result)
        pair = (statistics.median(p[0] for p in untraced)
                + statistics.median(p[0] for p in traced))
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced, tracers


def end_to_end(passes, setup_times):
    walls = [p[0] for p in passes]
    latencies = [x for p in passes for x in p[2].latencies]
    attempted = sum(max(len(p[2].latencies), p[2].failed) for p in passes)
    failed = sum(p[2].failed for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "pass_s": (statistics.median(walls), "s", len(walls)),
        "cpu_s": (statistics.median(p[1] for p in passes), "s", len(passes)),
        "verdicts_per_s": (len(latencies) / sum(walls), "1/s", len(latencies)),
        "verdict_p50_s": (percentile(latencies, 50), "s", len(latencies)),
        "verdict_p90_s": (percentile(latencies, 90), "s", len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "ok_ratio": (1 - failed / attempted, "ratio", attempted),
    }
    return metrics, attempted, failed


def per_layer(untraced, traced, tracers):
    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":  # times: median over traced passes; counts: first pass
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = (value, unit, len(per_pass))
    # Overhead from CPU time, pair by pair: the two passes of a pair run back
    # to back, so machine drift cancels better than between run medians.
    pairs = list(zip(untraced, traced))
    metrics["trace.untraced_cpu_s"] = (statistics.median(p[1] for p in untraced), "s", len(pairs))
    metrics["trace.traced_cpu_s"] = (statistics.median(p[1] for p in traced), "s", len(pairs))
    metrics["trace.overhead_s"] = (statistics.median(t[1] - u[1] for u, t in pairs),
                                   "s", len(pairs))
    metrics["trace.overhead_ratio"] = (statistics.median(t[1] / u[1] - 1 for u, t in pairs),
                                       "ratio", len(pairs))
    all_passes = untraced + traced
    attempted = sum(max(len(p[2].latencies), p[2].failed) for p in all_passes)
    failed = sum(p[2].failed for p in all_passes)
    return metrics, attempted, failed


def print_spans(t, limit=40):
    print(f"{'span':<44} {'calls':>9} {'incl_s':>9} {'self_s':>9}")
    for name, calls, incl, self_s in t.table()[:limit]:
        print(f"{name:<44} {calls:>9} {incl:>9.3f} {self_s:>9.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("curve-search", "points-m3", "corpus"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_nodal()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    print("env start: " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    print(f"workload {workload.name}: {workload.why}", flush=True)
    if args.trace:
        untraced, traced, tracers = run_traced(workload, args.seed, args.seconds)
        print_spans(tracers[0])
        metrics, attempted, failed = per_layer(untraced, traced, tracers)
        passes = untraced + traced
    else:
        passes, setup_times = run_untraced(workload, args.seed, args.seconds, SETUP_SAMPLES)
        metrics, attempted, failed = end_to_end(passes, setup_times)
    digests = {k: v for p in passes for k, v in p[2].digests.items()}
    checked = [k for k in digests if workload.recorded.get(str(args.seed), {}).get(k)]
    print(f"digests: {json.dumps(digests, sort_keys=True)}")
    print(f"digests checked against the record: {checked or 'none recorded for this seed'}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit:<6} n={n}")
    print(f"{'fail_ratio':<44} {failed / attempted:>14.6g} ratio  n={attempted}")
    print("env end: " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    problems = [x for p in passes for x in p[2].problems]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
