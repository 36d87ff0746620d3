"""JSON and CSV interchange for walks, kernels, tables, markets, strategies.

All numeric output is rendered with 17 significant digits so that values
round-trip exactly and identical inputs always produce byte-identical
output.
"""
from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .chaos import ChaosCoefficients
from .integrals import Kernel, VectorProcess, symmetrize
from .market import MarketSpec, Strategy, strategy_values
from .omega import DEFAULT_CAP, PathSpace, PathTable
from .walk import StepLaw, WalkSpec, canonical_step


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return f"{x:.17g}"


def dump_json(obj: Any, indent: int = 0) -> str:
    """Serialize nested dict/list/str/number structures deterministically."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(key))}: {dump_json(val, indent + 2)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dump_json(val, indent) for val in obj]
        flat = "[" + ", ".join(parts) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        items = [f"{pad}  {dump_json(val, indent + 2)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# -- walks -------------------------------------------------------------------

def walk_to_json(walk: WalkSpec) -> dict:
    return {
        "d": walk.d,
        "N": walk.N,
        "steps": [
            {"p": [float(x) for x in step.p], "v": [[float(x) for x in row] for row in step.v]}
            for step in walk.steps
        ],
    }


def walk_from_json(obj: dict, cap: int = DEFAULT_CAP) -> WalkSpec:
    """Load a walk; step entries lacking "v" get the canonical construction."""
    d = int(obj["d"])
    N = int(obj["N"])
    raw_steps = obj["steps"]
    if len(raw_steps) != N + 1:
        raise ValueError(f"walk declares N={N} but has {len(raw_steps)} steps")
    steps = []
    for n, raw in enumerate(raw_steps):
        p = np.asarray(raw["p"], dtype=float)
        if len(p) != d + 1:
            raise ValueError(f"step {n}: expected {d + 1} probabilities, got {len(p)}")
        if "v" in raw:
            steps.append(StepLaw(p, np.asarray(raw["v"], dtype=float)))
        else:
            steps.append(canonical_step(p, n))
    return WalkSpec(d=d, N=N, steps=tuple(steps), cap=cap)


# -- kernels and chaos coefficients -----------------------------------------

def kernel_to_json(kernel: Kernel) -> dict:
    """Emit the kernel in the raw entry convention.

    Entries are written on increasing tuples only, scaled by order!, so that
    symmetrization on load reproduces the stored kernel exactly; the written
    value is then also the coefficient of the matching increment monomial.
    """
    fact = math.factorial(kernel.order)
    entries = []
    for times in sorted(kernel.entries):
        tensor = kernel.entries[times]
        if kernel.order == 0:
            entries.append({"times": [], "coords": [], "value": float(tensor)})
            continue
        for coords in np.ndindex(*tensor.shape):
            value = float(tensor[coords])
            if value != 0.0:
                entries.append(
                    {
                        "times": list(times),
                        "coords": [c + 1 for c in coords],
                        "value": fact * value,
                    }
                )
    return {"order": kernel.order, "entries": entries}


def kernel_from_json(obj: dict, d: int) -> Kernel:
    """Load raw kernel entries and symmetrize them."""
    order = int(obj["order"])
    raw = [
        (tuple(e["times"]), tuple(e["coords"]), float(e["value"]))
        for e in obj.get("entries", [])
    ]
    return symmetrize(raw, order, d)


def chaos_to_json(coeffs: ChaosCoefficients) -> dict:
    return {
        "d": coeffs.d,
        "N": coeffs.N,
        "mean": coeffs.mean,
        "kernels": {str(k.order): kernel_to_json(k) for k in coeffs.kernels},
    }


def chaos_from_json(obj: dict) -> ChaosCoefficients:
    d = int(obj["d"])
    N = int(obj["N"])
    kernels = []
    for r in range(1, N + 2):
        raw = obj.get("kernels", {}).get(str(r))
        kernels.append(kernel_from_json(raw, d) if raw else Kernel.zero(r, d))
    return ChaosCoefficients(d=d, N=N, mean=float(obj["mean"]), kernels=tuple(kernels))


# -- tables and processes ----------------------------------------------------

def table_from_json(obj: Any, space: PathSpace) -> PathTable:
    """A raw table is a JSON array in canonical path order."""
    values = np.asarray(obj, dtype=float)
    if values.shape != (space.num_paths,):
        raise ValueError(
            f"table has {values.size} entries, expected {space.num_paths}"
        )
    return PathTable(space, values)


def table_to_json(table: PathTable) -> list:
    return [float(x) for x in table.values]


def process_from_json(obj: dict, space: PathSpace) -> VectorProcess:
    """Process schema: {"values": [[[coord per asset] per path] per time]}."""
    return VectorProcess(space, np.asarray(obj["values"], dtype=float))


def process_to_json(process: VectorProcess) -> dict:
    return {"values": [[list(map(float, row)) for row in t] for t in process.values]}


# -- markets and strategies ---------------------------------------------------

def market_from_json(obj: dict, cap: int = DEFAULT_CAP) -> MarketSpec:
    d = int(obj["d"])
    N = int(obj["N"])
    rates_raw = obj.get("r", 0.0)
    if isinstance(rates_raw, (int, float)):
        rates = np.full(N + 1, float(rates_raw))
    else:
        rates = np.asarray(rates_raw, dtype=float)
    scenarios = np.empty((N + 1, d + 1, d, d))
    raw_steps = obj["scenarios"]
    if len(raw_steps) != N + 1:
        raise ValueError(f"market declares N={N} but has {len(raw_steps)} scenario steps")
    for k, step in enumerate(raw_steps):
        if len(step) != d + 1:
            raise ValueError(f"step {k}: expected {d + 1} scenarios, got {len(step)}")
        for i, scen in enumerate(step):
            if "lambda" in scen:
                lam = np.asarray(scen["lambda"], dtype=float)
                if lam.shape != (d,):
                    raise ValueError(f"step {k} scenario {i}: lambda needs {d} entries")
                scenarios[k, i] = np.diag(lam)
            elif "M" in scen:
                scenarios[k, i] = np.asarray(scen["M"], dtype=float)
            else:
                raise ValueError(f"step {k} scenario {i}: need 'lambda' or 'M'")
    return MarketSpec(
        d=d,
        N=N,
        s_init=np.asarray(obj["S0"], dtype=float),
        rates=rates,
        scenarios=scenarios,
        cap=cap,
    )


def strategy_to_csv(market: MarketSpec, strategy: Strategy) -> str:
    """Rows: time, atom prefix, bond units, share counts, formation value.

    The time-n row for an atom shows the portfolio chosen at time n-1 on
    that atom and its value at formation, so the first row's value is the
    claim price.
    """
    space = market.space
    prices = market.prices.values
    _, v_init = strategy_values(market, strategy)
    header = "time,atom,beta," + ",".join(
        f"gamma_{j}" for j in range(1, market.d + 1)
    ) + ",V"
    lines = [header]
    for n in range(market.N + 1):
        block = space.atom_size(n - 1)
        for a in range(space.atom_count(n - 1)):
            start = a * block
            prefix = "".join(str(int(w)) for w in space.outcomes[start][:n])
            if n == 0:
                value = v_init
            else:
                value = float(
                    strategy.beta[n][start] * market.bond[n - 1]
                    + strategy.gamma[n][start] @ prices[n - 1][start]
                )
            fields = [str(n), prefix, fmt_float(float(strategy.beta[n][start]))]
            fields += [
                fmt_float(float(strategy.gamma[n][start][j])) for j in range(market.d)
            ]
            fields.append(fmt_float(value))
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def table_to_csv(values: np.ndarray) -> str:
    """Table CSV: columns path index, value."""
    lines = ["path,value"]
    for p, x in enumerate(values):
        lines.append(f"{p},{fmt_float(float(x))}")
    return "\n".join(lines) + "\n"


def matrix_to_csv(values: np.ndarray) -> str:
    """Dense matrix CSV: one row per target path, entries in path order."""
    lines = []
    for row in values:
        lines.append(",".join(fmt_float(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def gradient_to_csv(values: np.ndarray) -> str:
    """Gradient field CSV: columns time k, coordinate j, path index, value."""
    lines = ["k,j,path,value"]
    steps, num_paths, d = values.shape
    for k in range(steps):
        for j in range(d):
            for p in range(num_paths):
                lines.append(f"{k},{j + 1},{p},{fmt_float(float(values[k][p][j]))}")
    return "\n".join(lines) + "\n"
