"""Reference writers: the straightforward recursive JSON renderer and the
element-by-element CSV loops that the single-pass writers in
`obtusewalk.serialize` must reproduce byte for byte.

The JSON renderer formats a list's items once at the list's own indent to
try the flat form, and again at indent + 2 for the expanded form, so a
value under k expanded lists is formatted up to 2^k times.
"""
import json

import numpy as np

from obtusewalk.market import MarketSpec, Strategy, strategy_values
from obtusewalk.serialize import fmt_float
from market_oracle import strategy_paths


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
    prices = market.prices.values
    beta, gamma = strategy_paths(strategy)
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
