"""Closed-loop load generator: one client, whole cycles of a fixed job sequence.

A job is one user request. The loop sends the next job only after the
previous one has returned and been checked, so a slower program simply
completes fewer jobs. Only the call itself is timed; checking the result
happens outside the timed region, and a result that fails its check stops
the run, so a wrong answer never counts as a fast one. An exception is a
failed job: it is counted and misses every latency limit.
"""
from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from spans import Tracer


class CheckFailed(Exception):
    """A job returned a result that is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Job:
    """One user request: a timed call and an untimed check of its result."""

    name: str
    kind: str  # the warm-up runs the first job of each kind
    paths: int
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    jobs: list[Job]  # one cycle, in order
    probe: Callable[[], "ProbeResult"] | None = None  # untimed, outside the cycle


@dataclass
class ProbeResult:
    attempted: int
    failed: int
    errors: Counter = field(default_factory=Counter)


@dataclass
class LoopResult:
    latencies: list[float]  # seconds; inf for a failed job
    busy_s: float
    errors: Counter
    cycles: int
    traced_cycles: int
    traced_jobs: int
    traced_busy_s: float

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(math.isinf(x) for x in self.latencies)


def run_job(job: Job, tracer: Tracer) -> tuple[float, Any, Exception | None]:
    """Time one call; the result is checked by the caller, outside the timing."""
    start = time.perf_counter()
    try:
        with tracer.job(job.name, job.paths):
            result = job.run()
    except Exception as exc:  # a failed operation: counted, never re-raised
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def warm_up(workload: Workload, tracer: Tracer) -> None:
    """Run and check the first job of each kind, untimed and untraced."""
    seen = set()
    for job in workload.jobs:
        if job.kind in seen:
            continue
        seen.add(job.kind)
        _, result, exc = run_job(job, tracer)
        if exc is None:
            job.check(result)


def closed_loop(workload: Workload, seconds: float, tracer: Tracer, trace: bool) -> LoopResult:
    """Run whole cycles until the timed work reaches the budget.

    With tracing on, cycles alternate between traced and untraced so that
    both see the same machine; the gap between them is the tracing overhead.
    """
    latencies: list[float] = []
    errors: Counter = Counter()
    busy = traced_busy = 0.0
    cycles = traced_cycles = traced_jobs = 0
    while True:
        traced = trace and cycles % 2 == 0
        if traced:
            tracer.install()
        try:
            for job in workload.jobs:
                elapsed, result, exc = run_job(job, tracer)
                busy += elapsed
                if traced:
                    traced_busy += elapsed
                    traced_jobs += 1
                if exc is not None:
                    latencies.append(math.inf)
                    errors[f"{job.name}: {type(exc).__name__}"] += 1
                    continue
                latencies.append(elapsed)
                job.check(result)
        finally:
            tracer.uninstall()
        cycles += 1
        traced_cycles += traced
        if busy >= seconds and (not trace or cycles >= 2):
            break
    return LoopResult(latencies, busy, errors, cycles, traced_cycles, traced_jobs, traced_busy)


def percentile(values: list[float], q: float) -> float:
    """Exclusive-method quantile, as statistics.quantiles computes it.

    Failed jobs are +inf and sort last, so they push every percentile up.
    """
    data = sorted(values)
    n = len(data)
    if n == 1:
        return data[0]
    pos = min(max(q * (n + 1), 1.0), float(n))
    lo = int(pos) - 1
    frac = pos - int(pos)
    if frac == 0.0 or lo + 1 >= n:
        return data[lo]
    if math.isinf(data[lo + 1]):
        return math.inf
    return data[lo] + frac * (data[lo + 1] - data[lo])


def setup_seconds(src: str, repeats: int = 7) -> float:
    """Median wall time for a fresh interpreter to import the package and its CLI."""
    code = f"import sys; sys.path.insert(0, {src!r}); import obtusewalk, obtusewalk.cli"
    cmd = [sys.executable, "-E", "-c", code]
    subprocess.run(cmd, check=True)  # writes the bytecode cache; not timed
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name', '?')}-{blas.get('version', '?')} "
        f"blas_threads={_blas_threads()} nproc={affinity}"
    )


def _blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"
