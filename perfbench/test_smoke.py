"""Smoke test of the benchmark itself: tiny budgets, every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that failures are counted right, and that a wrong result stops the run.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        assert any(re.match(rf"{re.escape(metric['name'])}\s+= \S+ {re.escape(metric['unit'])}\b", line)
                   for line in lines), metric["name"]
    frac = next(line for line in lines if line.startswith("failed_frac"))
    assert f"{result['failed']} failed / {result['attempted']} attempted" in frac


def test_probe_failure_accounting():
    """The N >= 10 probe's failed_frac agrees with the failures it lists."""
    proc = run_bench("analysis", 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = next(x for x in proc.stdout.splitlines() if x.startswith("known-defect probe"))
    m = re.search(r"failed_frac = (\S+) \((\d+) failed / (\d+) attempted; exceptions: (.*)\)$", line)
    frac, failed, attempted = float(m.group(1)), int(m.group(2)), int(m.group(3))
    listed = sum(int(n) for n in re.findall(r" x(\d+)", m.group(4)))
    assert attempted == 2 and failed == listed
    assert frac == pytest.approx(failed / attempted)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["metrics"]["bench.defect_probe_failed"]["value"] == failed


def test_failed_jobs_miss_every_latency_limit():
    def boom():
        raise ValueError("einsum")

    jobs = [harness.Job(f"ok{i}", "ok", 1, lambda: 1, lambda r: None) for i in range(8)]
    jobs += [harness.Job("bad", "bad", 1, boom, lambda r: None)] * 2
    loop = harness.closed_loop(harness.Workload(jobs), 0.0, Tracer(), trace=False)
    assert (loop.attempted, loop.failed) == (10, 2)
    assert loop.errors == Counter({"bad: ValueError": 2})
    assert math.isinf(harness.percentile(loop.latencies, 0.9))
    assert math.isfinite(harness.percentile(loop.latencies, 0.5))


def test_percentile_matches_statistics():
    import statistics

    data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3, 2.3]
    assert harness.percentile(data, 0.5) == pytest.approx(statistics.quantiles(data, n=2)[0])
    assert harness.percentile(data, 0.9) == pytest.approx(statistics.quantiles(data, n=10)[8])


@pytest.fixture(scope="module")
def ow():
    ow, _ = bench.import_package()
    return ow


@pytest.mark.parametrize("workload, corrupt", [
    ("analysis", lambda r: (r[0], r[1] * 1.001)),
    ("market", lambda r: r[:3] + (r[3] * 1.01,) + r[4:]),
])
def test_corrupted_library_result_trips_check(ow, tmp_path, workload, corrupt):
    module = __import__(f"wl_{workload}")
    work = module.build(ow, 7, tmp_path, Tracer())
    job = work.jobs[0]
    result = job.run()
    job.check(result)
    with pytest.raises(harness.CheckFailed):
        job.check(corrupt(result))


def test_corrupted_cli_output_trips_check(ow, tmp_path):
    import wl_cli

    work = wl_cli.build(ow, 7, tmp_path, Tracer())
    by_name = {job.name: job for job in work.jobs}
    decompose, reconstruct = by_name["chaos decompose small"], by_name["chaos reconstruct small"]
    decompose.check(decompose.run())
    reconstruct.check(reconstruct.run())
    out = next(tmp_path.glob("out-*-chaos-reconstruct-small"))
    table = json.loads(out.read_text())
    out.write_text(json.dumps([x + 1e-3 for x in table]))
    with pytest.raises(harness.CheckFailed):
        reconstruct.check(0)


def test_wrong_answer_stops_the_run(ow, monkeypatch, capsys):
    reconstruct = ow.chaos.reconstruct
    monkeypatch.setattr(ow.chaos, "reconstruct", lambda walk, c: reconstruct(walk, c) * 1.001)
    status = bench.main(["--workload", "analysis", "--seed", "7", "--seconds", "0.1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert status == 1
    assert any(line.startswith("OUTPUT CHECK FAILED") for line in out)
    assert json.loads(out[-1])["correct"] is False


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cli", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
