"""`market` workload: hedging-desk requests shaped like `market verify`.

Each job loads its market from a JSON file, parses and evaluates a payoff,
finds the risk-neutral measure, prices the claim, hedges it and verifies
the hedge. The market is rebuilt from JSON on every job, as a user pays
for it on every request. Per-atom `cond`/`solve` loops and repeated price
builds dominate; `chaos` and `ou` are never reached, and `malliavin` only
through the closed-form hedge.

Models: CRR with 12 and 15 periods (4,096 and 32,768 paths), the two-asset
basket of scripts/hedge_demo.py over 8 periods at rate 0.01 (6,561 paths),
and a two-asset model whose first step has non-diagonal scenario matrices
(6 periods, 729 paths), which only replication can hedge. The cycle holds
two CRR-15 jobs among 45 so that their multi-second latency sits above the
90th percentile instead of setting the run length; the counts put the
median and the 90th percentile inside clusters of similar jobs rather than
on a step between them, which keeps both steady from run to run.
"""
from __future__ import annotations

import json
import math

import numpy as np

from harness import CheckFailed, Job, Workload

RATE = 0.01
SQ2 = math.sqrt(2.0)
#: The basket walk of scripts/hedge_demo.py: per-asset returns load on it.
BASKET_V = np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]])

#: (model, payoff, hedge method, how many per cycle)
CYCLE = (
    ("nondiag6", "exchange", "replicate", 6),
    ("nondiag6", "call1", "replicate", 5),
    ("nondiag6", "basket", "replicate", 5),
    ("crr12", "call", "clark-ocone", 3),
    ("crr12", "put", "clark-ocone", 3),
    ("crr12", "asian", "clark-ocone", 3),
    ("basket8", "basket", "clark-ocone", 3),
    ("basket8", "put", "clark-ocone", 3),
    ("basket8", "path", "clark-ocone", 3),
    ("crr12", "call", "replicate", 2),
    ("crr12", "asian", "replicate", 2),
    ("basket8", "basket", "replicate", 3),
    ("basket8", "path", "replicate", 2),
    ("crr15", "call", "replicate", 1),
    ("crr15", "put", "clark-ocone", 1),
)


def _crr(rng, periods):
    up, down = float(rng.uniform(0.06, 0.12)), float(rng.uniform(-0.10, -0.05))
    return {
        "d": 1, "N": periods - 1, "S0": [float(rng.uniform(90.0, 110.0))], "r": RATE,
        "scenarios": [[{"lambda": [up]}, {"lambda": [down]}]] * periods,
    }


def _basket_steps(sig, periods):
    return [[{"lambda": (RATE + sig * BASKET_V[i]).tolist()} for i in range(3)]] * periods


def _basket(rng, periods):
    sig = rng.uniform(0.03, 0.08, size=2)
    s0 = rng.uniform(90.0, 110.0, size=2)
    return {"d": 2, "N": periods - 1, "S0": s0.tolist(), "r": RATE, "scenarios": _basket_steps(sig, periods)}


def _nondiag(rng, periods):
    """First step non-diagonal with a positive risk-neutral solution, then a basket."""
    s0 = np.array([100.0, 50.0]) * rng.uniform(0.9, 1.1, size=2)
    q = np.array([0.3, 0.3, 0.4])
    m0 = np.array([[0.10, 0.02], [0.01, 0.06]])
    m1 = np.array([[-0.04, 0.00], [0.02, -0.08]])
    w = (RATE * s0 - q[0] * m0 @ s0 - q[1] * m1 @ s0) / q[2]
    first = [{"M": m.tolist()} for m in (m0, m1, np.diag(w / s0))]
    rest = _basket_steps(rng.uniform(0.03, 0.08, size=2), periods - 1)
    return {"d": 2, "N": periods - 1, "S0": s0.tolist(), "r": RATE, "scenarios": [first] + rest}


def _payoffs(spec, rng) -> dict[str, str]:
    s0 = spec["S0"]
    k = float(np.mean(s0)) * float(rng.uniform(0.95, 1.05))
    n = spec["N"]
    out = {
        "call": f"max(S(1)-{k!r},0)",
        "call1": f"max(S(1)-{s0[0]!r},0)",
        "put": f"max({k!r}-S(1),0)",
        "asian": f"max((S(1,{n // 3})+S(1,{2 * n // 3})+S(1))/3-{k!r},0)",
    }
    if spec["d"] == 2:
        out.update({
            "basket": f"max(0.5*(S(1)+S(2))-{k!r},0)",
            "put": f"max({k!r}-0.5*(S(1)+S(2)),0)",
            "path": f"max(S(1,{n // 2})-S(2,{n // 2}),0)+max(S(2)-{k!r},0)",
            "exchange": "max(S(1)-2*S(2),0)",
        })
    return out


class Desk:
    """Market files and the cross-job checks of one run."""

    def __init__(self, ow, seed, workdir, tracer):
        self.ow = ow
        self.tracer = tracer
        rng = np.random.default_rng([seed, 2])
        specs = {
            "crr12": _crr(rng, 12), "crr15": _crr(rng, 15),
            "basket8": _basket(rng, 8), "nondiag6": _nondiag(rng, 6),
        }
        self.paths = {name: (s["d"] + 1) ** (s["N"] + 1) for name, s in specs.items()}
        self.files = {}
        self.payoffs = {}
        for name, spec in specs.items():
            self.files[name] = workdir / f"market-{name}.json"
            self.files[name].write_text(json.dumps(spec), encoding="utf-8")
            self.payoffs[name] = _payoffs(spec, rng)
        self.gaps_checked: set = set()

    def job(self, model, payoff_name, method) -> Job:
        ow, path, source = self.ow, self.files[model], self.payoffs[model][payoff_name]
        hedge_name = "hedge_clark_ocone" if method == "clark-ocone" else "hedge_replicate"

        def run():
            text = path.read_bytes()
            with self.tracer.span("serialize.load", bytes_in=len(text)):
                market = ow.serialize.market_from_json(json.loads(text))
            claim = ow.payoff.eval_payoff(ow.payoff.parse_payoff(source, market.d, market.N), market)
            emm = ow.market.find_emm(market)
            price = ow.market.price_claim(market, emm, claim)
            strategy = getattr(ow.market, hedge_name)(market, emm, claim)
            report = ow.market.verify_strategy(market, strategy, claim)
            return market, emm, claim, price, strategy, report

        def check(result):
            market, emm, claim, price, strategy, report = result
            if not report.passed:
                raise CheckFailed(f"{model} {payoff_name}: hedge fails verification: {report}")
            if abs(price - report.value_initial) > 1e-9 * max(1.0, abs(price)):
                raise CheckFailed(f"{model} {payoff_name}: price {price} != hedge value {report.value_initial}")
            if market.diagonal and (model, payoff_name) not in self.gaps_checked:
                self.gaps_checked.add((model, payoff_name))
                self._check_gap(model, market, emm, claim, strategy, method)

        return Job(f"{model} {payoff_name} {method}", f"{model} {method}", self.paths[model], run, check)

    def _check_gap(self, model, market, emm, claim, strategy, method):
        """Replication and the closed-form hedge must give the same portfolio."""
        other = (self.ow.market.hedge_replicate if method == "clark-ocone"
                 else self.ow.market.hedge_clark_ocone)(market, emm, claim)
        scale = max(1.0, float(np.max(np.abs(strategy.beta))))
        gap = max(float(np.max(np.abs(strategy.gamma - other.gamma))),
                  float(np.max(np.abs(strategy.beta - other.beta))) / scale)
        if gap > 1e-7:
            raise CheckFailed(f"{model}: replication and closed-form hedges differ by {gap:.3e}")


def build(ow, seed: int, workdir, tracer) -> Workload:
    desk = Desk(ow, seed, workdir, tracer)
    groups = [[desk.job(m, p, h)] * count for m, p, h, count in CYCLE]
    jobs = []
    while any(groups):  # round-robin over the request types
        for group in groups:
            if group:
                jobs.append(group.pop())
    return Workload(jobs)
