"""Reference writers and readers: the straightforward recursive JSON
renderer, the element-by-element CSV loops and kernel entry loops, and the
entry-by-entry symmetrization, which the array code in `obtusewalk.serialize`
and `obtusewalk.integrals` must reproduce byte for byte and bit for bit.

The JSON renderer formats a list's items once at the list's own indent to
try the flat form, and again at indent + 2 for the expanded form, so a
value under k expanded lists is formatted up to 2^k times.
"""
import json
import math
from itertools import combinations

import numpy as np

from obtusewalk.market import MarketSpec, Strategy
from obtusewalk.omega import _as_int
from obtusewalk.serialize import fmt_float
from market_oracle import oracle_prices, oracle_strategy_values, strategy_paths


def oracle_dump_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(key))}: {oracle_dump_json(val, indent + 2)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [oracle_dump_json(val, indent) for val in obj]
        flat = "[" + ", ".join(parts) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        items = [f"{pad}  {oracle_dump_json(val, indent + 2)}" for val in obj]
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


def oracle_table_to_csv(values: np.ndarray) -> str:
    lines = ["path,value"]
    for p, x in enumerate(values):
        lines.append(f"{p},{fmt_float(float(x))}")
    return "\n".join(lines) + "\n"


def oracle_matrix_to_csv(values: np.ndarray) -> str:
    lines = []
    for row in values:
        lines.append(",".join(fmt_float(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def oracle_gradient_to_csv(values: np.ndarray) -> str:
    lines = ["k,j,path,value"]
    steps, num_paths, d = values.shape
    for k in range(steps):
        for j in range(d):
            for p in range(num_paths):
                lines.append(f"{k},{j + 1},{p},{fmt_float(float(values[k][p][j]))}")
    return "\n".join(lines) + "\n"


def oracle_strategy_to_csv(market: MarketSpec, strategy: Strategy) -> str:
    """One row per atom, its prefix read off the path outcome table."""
    space = market.space
    prices = oracle_prices(market)
    beta, gamma = strategy_paths(strategy)
    _, v_init = oracle_strategy_values(market, strategy)
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
                    beta[n][start] * market.bond[n - 1]
                    + gamma[n][start] @ prices[n - 1][start]
                )
            fields = [str(n), prefix, fmt_float(float(beta[n][start]))]
            fields += [
                fmt_float(float(gamma[n][start][j])) for j in range(market.d)
            ]
            fields.append(fmt_float(value))
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def oracle_kernel_entries(coeffs, order: int) -> list:
    """Raw entries of one order: each increasing tuple's block, component by component."""
    fact = math.factorial(order)
    entries = []
    for times in combinations(range(coeffs.N + 1), order):
        index = tuple(slice(1, None) if n in times else 0 for n in range(coeffs.N + 1))
        tensor = coeffs.coef[index] / fact
        for coords in np.ndindex(*tensor.shape):
            value = float(tensor[coords])
            if value != 0.0:
                entries.append(
                    {"times": list(times), "coords": [c + 1 for c in coords], "value": fact * value}
                )
    return entries


def oracle_chaos_to_json(coeffs) -> dict:
    return {
        "d": coeffs.d,
        "N": coeffs.N,
        "mean": coeffs.mean,
        "kernels": {
            str(r): {"order": r, "entries": oracle_kernel_entries(coeffs, r)}
            for r in range(1, coeffs.N + 2)
        },
    }


def oracle_symmetrize(raw, order: int, d: int) -> dict:
    """Symmetrized components accumulated one entry at a time, by sorted tuple."""
    fact = math.factorial(order)
    acc = {}
    for times, coords, value in raw:
        # integers are read by the library's one rule: the oracle is for the accumulation
        times = tuple(_as_int(t, "times entry") for t in times)
        coords = tuple(_as_int(k, "coords entry") for k in coords)
        if len(times) != order or len(coords) != order:
            raise ValueError(f"entry at {times} must carry {order} times and coords")
        if len(set(times)) != order:
            raise ValueError(f"time tuple {times} has repeated indices")
        if any(k < 1 or k > d for k in coords):
            raise ValueError(f"coordinates {coords} outside [1, {d}]")
        key = tuple(sorted(times))
        comp = [0] * order
        for m, t in enumerate(times):
            comp[key.index(t)] = coords[m] - 1
        tensor = acc.setdefault(key, np.zeros((d,) * order))
        tensor[tuple(comp)] += float(value) / fact
    return acc


def oracle_chaos_coef(obj: dict) -> np.ndarray:
    """The coefficient tensor of a chaos JSON object, filled one tuple block at a time."""
    d, N = obj["d"], obj["N"]
    coef = np.zeros((d + 1,) * (N + 1))
    coef[(0,) * (N + 1)] = float(obj["mean"])
    for r in range(1, N + 2):
        raw = [
            (e["times"], e["coords"], e["value"])
            for e in obj["kernels"].get(str(r), {}).get("entries", [])
        ]
        for times, tensor in oracle_symmetrize(raw, r, d).items():
            index = tuple(slice(1, None) if n in times else 0 for n in range(N + 1))
            coef[index] += math.factorial(r) * tensor
    return coef
