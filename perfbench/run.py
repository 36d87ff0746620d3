#!/usr/bin/env python3
"""Closed-loop benchmark of obtusewalk over the analysis, market and cli workloads.

Run from the repository root:

    python3 perfbench/run.py --workload market --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

The program under test is imported from ./src; inputs are generated from
--seed before any timing. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones. The exit status is 1 when an output check fails and 2 when the
source tree is missing.
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import CheckFailed
from spans import Tracer, per_layer_metrics

WORKLOADS = ("analysis", "market", "cli")
ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def import_package():
    """Import obtusewalk from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "obtusewalk" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {src / 'obtusewalk'}; run from a repository checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    ow = importlib.import_module("obtusewalk")
    importlib.import_module("obtusewalk.cli")
    if Path(ow.__file__).resolve().parent != (src / "obtusewalk").resolve():
        print(f"perfbench: imported obtusewalk from {ow.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return ow, str(src)


def report_end_to_end(loop, setup_s) -> dict:
    completed = loop.attempted - loop.failed
    lat = loop.latencies
    p50, p90 = harness.percentile(lat, 0.5), harness.percentile(lat, 0.9)
    beyond = sum(x > p90 for x in lat)
    metrics = {
        "jobs_per_s": (completed / loop.busy_s, "jobs/s",
                       f"{completed} completed of {loop.attempted} attempted in {loop.busy_s:.2f} s timed"),
        "job_p50_ms": (1e3 * p50, "ms", f"n={len(lat)}"),
        "job_p90_ms": (1e3 * p90, "ms", f"n={len(lat)}, {beyond} beyond"),
        "setup_s": (setup_s, "s", "median of 7 fresh imports of obtusewalk and obtusewalk.cli"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB", "ru_maxrss of this process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<12} = {value:.6g} {unit}  ({note})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def report_per_layer(tracer, loop, first_span, probe_failed) -> dict:
    agg = tracer.aggregate(first_span)
    values = tracer.layer_metrics(agg, loop.traced_cycles)
    untraced_jobs = loop.attempted - loop.traced_jobs
    untraced_rate = untraced_jobs / (loop.busy_s - loop.traced_busy_s)
    traced_rate = loop.traced_jobs / loop.traced_busy_s
    values["bench.trace_overhead"] = 1.0 - traced_rate / untraced_rate
    values["bench.defect_probe_failed"] = probe_failed
    print(f"tracing overhead: traced {traced_rate:.4g} jobs/s over {loop.traced_cycles} cycles, "
          f"untraced {untraced_rate:.4g} jobs/s over {loop.cycles - loop.traced_cycles} cycles")
    job_s = loop.traced_busy_s / loop.traced_cycles
    print(f"per traced cycle: {job_s:.4g} s of jobs, {values['bench.self_s']:.4g} s "
          f"({100 * values['bench.self_s'] / job_s:.2f}%) outside every layer span")
    for (job, name), (calls, secs) in sorted(agg["by_job"].items()):
        print(f"  per call  {job:<36} {name:<28} {1e3 * secs / calls:10.3f} ms  x{calls}")
    units = per_layer_metrics()
    for name, (unit, _) in units.items():
        print(f"{name:<28} = {values[name]:.6g} {unit}  (per cycle)")
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()}


def run(args) -> int:
    ow, src = import_package()
    module = importlib.import_module(f"wl_{args.workload}")
    print(f"env: {harness.environment()}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    setup_s = None if args.trace else harness.setup_seconds(src)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    tracer = Tracer()
    t0 = time.perf_counter()
    try:
        if args.trace:
            tracer.install()
        try:
            workload = module.build(ow, args.seed, workdir, tracer)
        finally:
            tracer.uninstall()
        if tracer.spans:
            agg = tracer.aggregate()
            opened = {k: v["busy_s"] for k, v in sorted(agg["layers"].items())}
            print("set-up spans (untimed, not in per-layer metrics): "
                  + ", ".join(f"{k} {v:.4g} s" for k, v in opened.items()))
        first_span = len(tracer.spans)
        harness.warm_up(workload, tracer)
        probe = workload.probe() if workload.probe else None
        loop = harness.closed_loop(workload, args.seconds, tracer, bool(args.trace))
    except CheckFailed as exc:  # the run stops at its first wrong answer
        print(f"OUTPUT CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{loop.cycles} cycles of {len(workload.jobs)} jobs, {loop.attempted} jobs, "
          f"{loop.busy_s:.2f} s timed, {time.perf_counter() - t0:.2f} s wall")
    errors = ", ".join(f"{k} x{v}" for k, v in sorted(loop.errors.items())) or "none"
    print(f"failed_frac  = {loop.failed / loop.attempted:.6g} ratio  "
          f"({loop.failed} failed / {loop.attempted} attempted; exceptions: {errors})")
    probe_failed = 0
    if probe is not None:
        probe_failed = probe.failed
        errors = ", ".join(f"{k} x{v}" for k, v in sorted(probe.errors.items())) or "none"
        print(f"known-defect probe (untimed, outside the cycle): failed_frac = "
              f"{probe.failed / probe.attempted:.6g} ({probe.failed} failed / {probe.attempted} attempted; "
              f"exceptions: {errors})")
    if args.trace:
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl", t0)
        metrics = report_per_layer(tracer, loop, first_span, probe_failed)
    else:
        metrics = report_end_to_end(loop, setup_s)
    print(json.dumps({"correct": True, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
