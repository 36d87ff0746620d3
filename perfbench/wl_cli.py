"""`cli` workload: in-process `obtusewalk.cli.main(argv)` invocations.

Every job is one command line writing its result with `--out` into the
run's work directory. The cycle covers the 13 golden subcommand forms at a
small and a mid size (d <= 2, N <= 5, at most 729 paths; CRR with at most
8 periods), so fixed per-invocation costs dominate: parser construction,
JSON parsing, the walk build and 17-digit formatting. An engine-level
change should read as no change here. `chaos reconstruct` reads the
coefficients that the cycle's `chaos decompose` wrote, and `serialize` is
exercised both reading (JSON into `symmetrize`) and writing (CSV and JSON).
"""
from __future__ import annotations

import csv
import json

import numpy as np

from harness import Job, Workload, require

#: (label, d, N) of the walk inputs; (label, periods) of the CRR inputs.
WALKS = (("small", 1, 5), ("mid", 2, 5))
MARKETS = (("small", 5), ("mid", 8))


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class Inputs:
    """Seeded input files of one walk size and the reference values checks use."""

    def __init__(self, ow, rng, workdir, label, d, N):
        self.ow = ow
        probs = [rng.dirichlet(np.full(d + 1, 4.0)) for _ in range(N + 1)]
        self.walk = ow.walk.construct_obtuse(probs)
        self.paths = self.walk.space.num_paths
        values = rng.standard_normal(self.paths)
        process = rng.standard_normal((N + 1, self.paths, d))
        self.table = ow.PathTable(self.walk.space, values)
        self.t = repr(float(rng.uniform(0.2, 1.0)))
        self.x = repr(float(rng.uniform(0.5, 1.5)))
        self.scale = max(1.0, float(np.max(np.abs(values))))
        self.mean = ow.expectation(self.walk, self.table)
        grad = ow.gradient(self.walk, self.table).values
        self.duality = float(np.einsum("p,kpj,kpj->", self.walk.measure, grad, process))

        def write(name, obj):
            path = workdir / f"{label}-{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        self.probs_file = write("probs", {"d": d, "N": N, "steps": [{"p": list(p)} for p in probs]})
        self.walk_file = write("walk", ow.serialize.walk_to_json(self.walk))
        self.table_file = write("table", list(values))
        self.process_file = write("process", {"values": process.tolist()})
        self.coeffs_file = str(workdir / f"{label}-coeffs.json")

    def close(self, a, b, tol=1e-8) -> bool:
        return bool(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))) <= tol * self.scale)


class Session:
    """Builds the jobs; remembers prices so hedges can be checked against them."""

    def __init__(self, ow, seed, workdir):
        self.ow = ow
        self.workdir = workdir
        rng = np.random.default_rng([seed, 3])
        self.walks = {label: Inputs(ow, rng, workdir, label, d, N) for label, d, N in WALKS}
        self.markets = {}
        for label, periods in MARKETS:
            spec = {
                "d": 1, "N": periods - 1, "S0": [float(rng.uniform(90.0, 110.0))], "r": 0.01,
                "scenarios": [[{"lambda": [float(rng.uniform(0.06, 0.12))]},
                               {"lambda": [float(rng.uniform(-0.10, -0.05))]}]] * periods,
            }
            path = workdir / f"{label}-market.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            payoff = f"max(S(1)-{spec['S0'][0] * float(rng.uniform(0.95, 1.05))!r},0)"
            self.markets[label] = (str(path), payoff, 2**periods)
        self.prices: dict[str, float] = {}
        self.count = 0

    def _job(self, form, label, paths, argv, check) -> Job:
        self.count += 1
        out = str(self.workdir / f"out-{self.count:02d}-{form.replace(' ', '-')}-{label}")
        if form == "chaos decompose":
            out = self.walks[label].coeffs_file

        def run():
            return self.ow.cli.main(argv + ["--out", out])

        def checked(code):
            require(code == 0, f"{form} ({label}) exited with {code}")
            check(out)

        return Job(f"{form} {label}", f"{form} {label}", paths, run, checked)

    def walk_jobs(self, label) -> list[Job]:
        inp = self.walks[label]
        w, tab = inp.walk_file, inp.table_file
        ow = self.ow

        def validate(out):
            require(_read_json(out)["passed"] is True, "walk validate did not pass")

        def construct(out):
            walk = ow.serialize.walk_from_json(_read_json(out))
            require(ow.walk.validate(walk).passed, "constructed walk is not obtuse")

        def decompose(out):
            require(abs(_read_json(out)["mean"] - inp.mean) <= 1e-12 * inp.scale,
                    "chaos mean differs from E[F]")

        def reconstruct(out):
            require(inp.close(_read_json(out), inp.table.values), "reconstructed table differs from the input")

        def gradient(out):
            header, rows = _read_csv(out)
            require(header == ["k", "j", "path", "value"], "gradient CSV header")
            grad = np.array([float(r[3]) for r in rows]).reshape(inp.walk.N + 1, inp.walk.d, inp.paths)
            energy = float(np.einsum("p,kjp,kjp->", inp.walk.measure, grad, grad))
            second = ow.expectation(inp.walk, inp.table * inp.table)
            require(second - inp.mean**2 <= energy * (1 + 1e-9), "Poincare inequality fails")

        def clark_ocone(out):
            payload = _read_json(out)
            xi = ow.VectorProcess(inp.walk.space, payload["integrand"])
            rebuilt = payload["mean"] + ow.integrate_predictable(inp.walk, xi).values
            require(inp.close(rebuilt, inp.table.values), "Clark-Ocone output does not rebuild F")

        def divergence(out):
            delta = ow.PathTable(inp.walk.space, _read_json(out))
            lhs = ow.expectation(inp.walk, inp.table * delta)
            require(abs(lhs - inp.duality) <= 1e-8 * max(1.0, abs(inp.duality)) * inp.scale,
                    "divergence duality fails")

        def ou(out):
            damped = ow.PathTable(inp.walk.space, _read_json(out))
            require(abs(ow.expectation(inp.walk, damped) - inp.mean) <= 1e-8 * inp.scale,
                    "OU output changes the mean")

        def deviation(out):
            payload = _read_json(out)
            require(payload["bound_bennett"] >= payload["oracle_tail"], "Bennett bound below the exact tail")

        forms = (
            ("walk validate", ["walk", "validate", w], validate),
            ("walk construct", ["walk", "construct", inp.probs_file], construct),
            ("chaos decompose", ["chaos", "decompose", w, "--table", tab], decompose),
            ("chaos reconstruct", ["chaos", "reconstruct", w, "--coeffs", inp.coeffs_file], reconstruct),
            ("gradient", ["gradient", w, "--table", tab], gradient),
            ("clark-ocone", ["clark-ocone", w, "--table", tab], clark_ocone),
            ("divergence", ["divergence", w, "--process", inp.process_file], divergence),
            ("ou", ["ou", w, "--table", tab, "--t", inp.t], ou),
            ("deviation", ["deviation", w, "--payoff-table", tab, "--x", inp.x], deviation),
        )
        return [self._job(form, label, inp.paths, argv, check) for form, argv, check in forms]

    def market_jobs(self, label) -> list[Job]:
        path, payoff, paths = self.markets[label]

        def emm(out):
            q = np.array(_read_json(out)["q"])
            require(bool(np.all(q > 0)) and np.allclose(q.sum(axis=1), 1.0), "EMM weights invalid")

        def price(out):
            self.prices[label] = _read_json(out)["price"]

        def hedge(out):
            header, rows = _read_csv(out)
            require(header[-1] == "V", "hedge CSV header")
            require(abs(float(rows[0][-1]) - self.prices[label]) <= 1e-9 * self.prices[label],
                    "hedge value differs from the price")

        def verify(out):
            payload = _read_json(out)
            require(payload["passed"] is True, "market verify did not pass")
            require(abs(payload["value_initial"] - self.prices[label]) <= 1e-9 * self.prices[label],
                    "verified hedge value differs from the price")

        claim = ["--payoff", payoff]
        forms = (
            ("market emm", ["market", "emm", path], emm),
            ("market price", ["market", "price", path] + claim, price),
            ("market hedge", ["market", "hedge", path] + claim, hedge),
            ("market verify", ["market", "verify", path] + claim + ["--method", "clark-ocone"], verify),
        )
        return [self._job(form, label, paths, argv, check) for form, argv, check in forms]


def build(ow, seed: int, workdir, tracer) -> Workload:
    session = Session(ow, seed, workdir)
    jobs = []
    for (label, _, _), (mlabel, _) in zip(WALKS, MARKETS):
        jobs += session.walk_jobs(label) + session.market_jobs(mlabel)
    return Workload(jobs)
