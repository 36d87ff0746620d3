"""JSON and CSV interchange for walks, kernels, tables, markets, strategies.

All numeric output is rendered with 17 significant digits so that values
round-trip exactly and identical inputs always produce byte-identical
output. Writers read arrays through `ndarray.tolist()` and format every
number once, so output costs time linear in its size.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _json_string  # what json.dumps does for a str
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
    """Serialize nested dict/list/str/number structures deterministically.

    A list is written on one line when that line holds no newline and at
    most 100 characters, else one item per line. Every value is rendered
    once: an item's text is the same at any indent unless it spans lines,
    so the text rendered for the expanded form also decides the flat one.
    """
    if type(obj) is float:
        return fmt_float(obj)
    if type(obj) is int:
        return str(obj)
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {_json_string(str(key))}: {dump_json(val, indent + 2)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dump_json(val, indent + 2) for val in obj]
        flat = "[" + ", ".join(parts) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        return f"[\n{pad}  " + f",\n{pad}  ".join(parts) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# -- walks -------------------------------------------------------------------

def walk_to_json(walk: WalkSpec) -> dict:
    return {
        "d": walk.d,
        "N": walk.N,
        "steps": [
            {"p": step.p.tolist(), "v": step.v.tolist()}
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


def chaos_from_json(obj: dict, cap: int = DEFAULT_CAP) -> ChaosCoefficients:
    """Load coefficients; their path space must fit the cap, which bounds every order read."""
    d = int(obj["d"])
    N = int(obj["N"])
    PathSpace(d, N, cap)
    kernels = []
    for r in range(1, N + 2):
        raw = obj.get("kernels", {}).get(str(r))
        if raw and int(raw["order"]) != r:  # checked before any d^order tensor is built
            raise ValueError(f"kernel {r} declares order {raw['order']}")
        kernels.append(kernel_from_json(raw, d) if raw else Kernel.zero(r, d))
    return ChaosCoefficients(d=d, N=N, mean=float(obj["mean"]), kernels=tuple(kernels))


# -- tables and processes ----------------------------------------------------

def _first_non_finite(values: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first NaN or infinite entry in canonical order, if any."""
    bad = np.flatnonzero(~np.isfinite(values))
    if not bad.size:
        return None
    return tuple(int(i) for i in np.unravel_index(bad[0], values.shape))


def table_from_json(obj: Any, space: PathSpace) -> PathTable:
    """A raw table is a JSON array of finite numbers in canonical path order."""
    values = np.asarray(obj, dtype=float)
    if values.shape != (space.num_paths,):
        raise ValueError(
            f"table has {values.size} entries, expected {space.num_paths}"
        )
    bad = _first_non_finite(values)
    if bad is not None:
        raise ValueError(f"table entry at path {bad[0]} is not finite: {float(values[bad])!r}")
    return PathTable(space, values)


def table_to_json(table: PathTable) -> list:
    return table.values.tolist()


def process_from_json(obj: dict, space: PathSpace) -> VectorProcess:
    """Process schema: {"values": [[[coord per asset] per path] per time]}."""
    process = VectorProcess(space, np.asarray(obj["values"], dtype=float))
    bad = _first_non_finite(process.values)
    if bad is not None:
        time, path, coord = bad
        raise ValueError(
            f"process value at time {time}, path {path}, coordinate {coord + 1} "
            f"is not finite: {float(process.values[bad])!r}"
        )
    return process


def process_to_json(process: VectorProcess) -> dict:
    return {"values": process.values.tolist()}


# -- markets and strategies ---------------------------------------------------

def market_from_json(obj: dict, cap: int = DEFAULT_CAP) -> MarketSpec:
    d = int(obj["d"])
    N = int(obj["N"])
    raw_steps = obj["scenarios"]
    if len(raw_steps) != N + 1:
        raise ValueError(f"market declares N={N} but has {len(raw_steps)} scenario steps")
    for k, step in enumerate(raw_steps):
        if len(step) != d + 1:
            raise ValueError(f"step {k}: expected {d + 1} scenarios, got {len(step)}")
    # lengths first, so that no array is sized by a bare d or N alone
    rates_raw = obj.get("r", 0.0)
    if isinstance(rates_raw, (int, float)):
        rates = np.full(N + 1, float(rates_raw))
    else:
        rates = np.asarray(rates_raw, dtype=float)
    scenarios = np.empty((N + 1, d + 1, d, d))
    for k, step in enumerate(raw_steps):
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


def _atom_prefixes(d: int, n: int) -> list[str]:
    """Outcome prefixes w_0..w_{n-1} of the atoms of F_{n-1}, in canonical order."""
    prefixes = [""]
    digits = [str(i) for i in range(d + 1)]
    for _ in range(n):
        prefixes = [prefix + digit for prefix in prefixes for digit in digits]
    return prefixes


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
        beta = strategy.beta[n][::block]
        gamma = strategy.gamma[n][::block]
        if n == 0:
            values = [v_init]
        else:
            # stacked 1x1 matmul: the same BLAS dot per atom as gamma_row @ price_row,
            # which an elementwise sum would not reproduce bit for bit
            dots = np.matmul(gamma[:, None, :], prices[n - 1][::block][:, :, None])[:, 0, 0]
            values = (beta * market.bond[n - 1] + dots).tolist()
        rows = zip(_atom_prefixes(market.d, n), beta.tolist(), gamma.tolist(), values)
        lines.extend(
            f"{n},{prefix},{fmt_float(b)},{','.join(map(fmt_float, g))},{fmt_float(v)}"
            for prefix, b, g, v in rows
        )
    return "\n".join(lines) + "\n"


def table_to_csv(values: np.ndarray) -> str:
    """Table CSV: columns path index, value."""
    rows = np.asarray(values, dtype=float).tolist()
    lines = ["path,value"]
    lines.extend(f"{p},{fmt_float(x)}" for p, x in enumerate(rows))
    return "\n".join(lines) + "\n"


def matrix_to_csv(values: np.ndarray) -> str:
    """Dense matrix CSV: one row per target path, entries in path order."""
    rows = np.asarray(values, dtype=float).tolist()
    return "\n".join(",".join(map(fmt_float, row)) for row in rows) + "\n"


def gradient_to_csv(values: np.ndarray) -> str:
    """Gradient field CSV: columns time k, coordinate j, path index, value."""
    lines = ["k,j,path,value"]
    steps, num_paths, d = values.shape
    columns = np.asarray(values, dtype=float).transpose(0, 2, 1).tolist()  # [k][j][p]
    paths = [f",{p}," for p in range(num_paths)]
    for k in range(steps):
        for j in range(d):
            head = f"{k},{j + 1}"
            lines += [head + path + fmt_float(x) for path, x in zip(paths, columns[k][j])]
    return "\n".join(lines) + "\n"
