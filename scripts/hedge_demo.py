#!/usr/bin/env python3
"""Walk through pricing and hedging a call in two small complete markets.

Prints the risk-neutral probabilities, the claim price, both hedge
constructions, and the verification report for a two-period one-asset
model and a one-period two-asset basket model.
"""
import numpy as np

from obtusewalk import (
    MarketSpec,
    crr_market,
    eval_payoff,
    find_emm,
    hedge_clark_ocone,
    hedge_replicate,
    parse_payoff,
    price_claim,
    verify_strategy,
)
from obtusewalk.serialize import strategy_to_csv


def report(title, market, payoff_text):
    print(f"=== {title}")
    wq = find_emm(market)
    print("risk-neutral q per step:")
    for k, step in enumerate(wq.steps):
        print(f"  step {k}: {np.round(step.p, 6)}")
    claim = eval_payoff(parse_payoff(payoff_text, market.d, market.N), market)
    print(f"claim: {payoff_text}")
    print(f"price: {price_claim(market, wq, claim):.6f}")

    replicated = hedge_replicate(market, wq, claim)
    closed_form = hedge_clark_ocone(market, wq, claim)
    gap = max(
        float(np.max(np.abs(replicated.gamma - closed_form.gamma))),
        float(np.max(np.abs(replicated.beta - closed_form.beta))),
    )
    print(f"closed-form vs replication gap: {gap:.3e}")

    checks = verify_strategy(market, replicated, claim)
    print(f"terminal replication error: {checks.replication:.3e}")
    print(f"verification passed: {checks.passed}")
    print("strategy:")
    print(strategy_to_csv(market, replicated))


def basket_market():
    # per-asset returns proportional to the driving walk's increment coordinates,
    # so the closed-form hedge applies
    v = np.array([[np.sqrt(2.0), 1.0], [-np.sqrt(2.0), 1.0], [0.0, -1.0]])
    sig = np.array([0.05, 0.08])
    scenarios = np.zeros((2, 3, 2, 2))
    for i in range(3):
        scenarios[:, i] = np.diag(sig * v[i])
    return MarketSpec(
        d=2,
        N=1,
        s_init=np.array([100.0, 100.0]),
        rates=np.zeros(2),
        scenarios=scenarios,
    )


def main():
    report(
        "two-period binomial call (S0=100, +-10%, r=0, strike 100)",
        crr_market(100.0, 0.1, -0.1, 0.0, 2),
        "max(S(1)-100,0)",
    )
    report(
        "two-period basket call on two assets (three scenarios per step)",
        basket_market(),
        "max(0.5*(S(1)+S(2))-100,0)",
    )


if __name__ == "__main__":
    main()
