"""`analysis` workload: library sessions of operator jobs on fixed shapes.

Each shape (d, N) is one session: the walk is built once from seeded
probabilities and reused by every job, so a cache kept on WalkSpec shows
here and not on `market` or `cli`, which rebuild per request. The shapes
mix per-time-tuple Python loops (d = 1, many steps) with vectorised d^r
tensors (d = 3). Chaos decomposition and the OU chaos route at
(1, 11) hit the known N >= 10 einsum-letter defect; they run once per run
as an untimed probe whose failures are printed, not inside the timed cycle.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from harness import Job, ProbeResult, Workload, require, run_job

SHAPES = ((1, 9), (2, 6), (3, 4), (1, 11))
OPS = (
    "decompose_reconstruct", "ou_apply_chaos", "ou_apply_kernel", "gradient",
    "clark_ocone", "divergence", "deviation_bound", "conditional_expectation",
)
#: Operator jobs that fail at N >= 10 with the einsum-letter defect.
DEFECT_OPS = ("decompose_reconstruct", "ou_apply_chaos")


class Session:
    """One shape: a walk built once plus seeded operands and reference values."""

    def __init__(self, ow, shape, rng, tracer):
        self.ow = ow
        self.shape = shape
        d, N = shape
        probs = [rng.dirichlet(np.full(d + 1, 4.0)) for _ in range(N + 1)]
        paths = (d + 1) ** (N + 1)
        with tracer.job(f"session {d},{N}", paths):
            self.walk = ow.walk.construct_obtuse(probs)
            self.walk.space.outcomes, self.walk.measure, self.walk.increments
        self.table = ow.PathTable(self.walk.space, rng.standard_normal(paths))
        self.process = ow.VectorProcess(self.walk.space, rng.standard_normal((N + 1, paths, d)))
        self.t = float(rng.uniform(0.2, 1.0))
        self.x = float(rng.uniform(0.5, 1.5))
        self.scale = max(1.0, float(np.max(np.abs(self.table.values))))
        self.mean = ow.expectation(self.walk, self.table)
        self.second = ow.expectation(self.walk, self.table * self.table)
        grad = ow.gradient(self.walk, self.table).values
        self.duality = float(np.einsum("p,kpj,kpj->", self.walk.measure, grad, self.process.values))
        self.ou_results: dict[str, np.ndarray] = {}

    def job(self, op: str) -> Job:
        d, N = self.shape
        run, check = getattr(self, f"_run_{op}"), getattr(self, f"_check_{op}")
        return Job(f"{op} d={d} N={N}", f"{op} {d},{N}", self.walk.space.num_paths, run, check)

    def _close(self, a, b, tol=1e-8) -> bool:
        return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol * self.scale)

    # each _run_* is timed; each _check_* runs afterwards, untimed

    def _run_decompose_reconstruct(self):
        coeffs = self.ow.chaos.decompose(self.walk, self.table)
        return coeffs, self.ow.chaos.reconstruct(self.walk, coeffs)

    def _check_decompose_reconstruct(self, result):
        coeffs, back = result
        require(self._close(back.values, self.table.values), "chaos round trip differs from the table")
        energy = self.ow.parseval_energy(coeffs)
        require(abs(energy - self.second) <= 1e-8 * self.second, "Parseval energy differs from E[F^2]")

    def _run_ou_apply_chaos(self):
        return self.ow.ou.ou_apply_chaos(self.walk, self.table, self.t)

    def _check_ou_apply_chaos(self, result):
        self._check_ou("chaos", result)

    def _run_ou_apply_kernel(self):
        return self.ow.ou.ou_apply_kernel(self.walk, self.table, self.t)

    def _check_ou_apply_kernel(self, result):
        self._check_ou("kernel", result)

    def _check_ou(self, route, result):
        mean = self.ow.expectation(self.walk, result)
        require(abs(mean - self.mean) <= 1e-8 * self.scale, f"OU {route} route changes the mean")
        self.ou_results[route] = result.values
        if len(self.ou_results) == 2:
            require(self._close(self.ou_results["chaos"], self.ou_results["kernel"]),
                    "OU chaos and kernel routes disagree")

    def _run_gradient(self):
        return self.ow.malliavin.gradient(self.walk, self.table)

    def _check_gradient(self, grad):
        energy = float(np.einsum("p,kpj,kpj->", self.walk.measure, grad.values, grad.values))
        variance = self.second - self.mean**2
        require(variance <= energy * (1 + 1e-9), "Poincare inequality fails for the gradient")

    def _run_clark_ocone(self):
        return self.ow.malliavin.clark_ocone(self.walk, self.table)

    def _check_clark_ocone(self, result):
        mean, xi = result
        rebuilt = mean + self.ow.integrate_predictable(self.walk, xi).values
        require(self._close(rebuilt, self.table.values), "Clark-Ocone does not rebuild F")

    def _run_divergence(self):
        return self.ow.malliavin.divergence(self.walk, self.process)

    def _check_divergence(self, delta):
        lhs = self.ow.expectation(self.walk, self.table * delta)
        require(abs(lhs - self.duality) <= 1e-8 * max(1.0, abs(self.duality)) * self.scale,
                "divergence duality E[G delta(X)] = E[<DG, X>] fails")

    def _run_deviation_bound(self):
        return self.ow.ou.deviation_bound(self.walk, self.table, self.x)

    def _check_deviation_bound(self, bound):
        tail = float(np.sum(self.walk.measure * (self.table.values - self.mean >= self.x)))
        require(abs(bound.oracle_tail - tail) <= 1e-12, "exact tail differs from enumeration")
        require(bound.bound_bennett >= tail, "Bennett bound is below the exact tail")

    def _run_conditional_expectation(self):
        ce = self.ow.omega.conditional_expectation
        return [ce(self.walk, self.table, n) for n in range(-1, self.shape[1] + 1)]

    def _check_conditional_expectation(self, tables):
        for n, table in enumerate(tables, start=-1):
            require(self.ow.is_measurable(table, n), f"E[F | F_{n}] is not F_{n}-measurable")
            require(abs(self.ow.expectation(self.walk, table) - self.mean) <= 1e-10 * self.scale,
                    f"E[E[F | F_{n}]] differs from E[F]")
        require(self._close(tables[-1].values, self.table.values, 0.0), "E[F | F_N] is not F")


def build(ow, seed: int, workdir, tracer) -> Workload:
    rng = np.random.default_rng([seed, 1])
    sessions = [Session(ow, shape, rng, tracer) for shape in SHAPES]
    jobs, probe_jobs = [], []
    for op in OPS:
        for session in sessions:
            defect = session.shape[1] >= 10 and op in DEFECT_OPS
            (probe_jobs if defect else jobs).append(session.job(op))

    def probe() -> ProbeResult:
        errors = Counter()
        for job in probe_jobs:
            _, result, exc = run_job(job, tracer)
            if exc is None:
                job.check(result)
            else:
                errors[f"{job.name}: {type(exc).__name__}"] += 1
        return ProbeResult(len(probe_jobs), sum(errors.values()), errors)

    return Workload(jobs, probe=probe)
