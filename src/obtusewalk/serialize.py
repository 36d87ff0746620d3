"""JSON and CSV interchange for walks, kernels, tables, markets, strategies.

All numeric output is rendered with 17 significant digits so that values
round-trip exactly and identical inputs always produce byte-identical
output. Each distinct value is formatted once; arrays render without
per-element recursion. Every writer formats through one primitive,
`_float_texts`, which checks a whole array for finiteness at once; formatting
each distinct value of an array once pays because the paper's objects repeat values (a
gradient d+1 times, a Clark-Ocone integrand once per path of an atom). A
float64 ndarray or a nest of float lists is rendered bottom-up one axis at a
time, and a list of same-keyed dicts one key at a time. Readers take counts
and indices through omega._as_int and real numbers through omega._as_real,
which reads their types with the writers' scan of nested lists
(omega._leaves), and leave other checks to constructors.
"""
from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string  # what json.dumps does for a str
from typing import Any

import numpy as np

from .chaos import ChaosCoefficients
from .integrals import Kernel, VectorProcess, symmetrize
from .market import MarketSpec, Strategy, _check_market_size
from .omega import DEFAULT_CAP, PathSpace, PathTable, _as_int, _as_real, _check_finite, _leaves
from .walk import StepLaw, WalkSpec, canonical_step

_FORMAT = "%.17g"


def _format_distinct(values) -> list[str]:
    """Texts of values that are pairwise distinct: the one place numbers are formatted."""
    return list(map(_FORMAT.__mod__, values))


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return _format_distinct((x,))[0]


def _float_texts(values) -> list[str]:
    """Texts of an array's entries in C order, each distinct value formatted once.

    Finiteness is checked once for the whole array; the first non-finite
    entry raises fmt_float's error. Values are distinct by their bytes, so
    0.0 and -0.0 keep their own texts.
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        fmt_float(float(arr.ravel()[np.argmin(finite.ravel())]))
    distinct, where = np.unique(arr.view(np.uint64).ravel(), return_inverse=True)
    texts = np.array(_format_distinct(distinct.view(np.float64).tolist()), dtype=object)
    return texts[where.ravel()].tolist()


def _join_list(parts: list[str], pad: str) -> str:
    """A list of rendered items: on one line when that holds no newline and
    at most 100 characters, else one item per line."""
    if not parts:
        return "[]"
    if sum(map(len, parts)) + 2 * len(parts) <= 100:  # the length of the flat form
        flat = "[" + ", ".join(parts) + "]"
        if "\n" not in flat:
            return flat
    return f"[\n{pad}  " + f",\n{pad}  ".join(parts) + f"\n{pad}]"


def _array_items(arr: np.ndarray, indent: int) -> list[str]:
    """Texts of a float64 array's items along its first axis, each rendered
    at indent as the nested lists of its tolist().

    Rendering goes bottom-up one axis at a time. Each axis's rows are joined
    through one of two templates: the flat form when the row's items span
    no line and it fits in 100 characters, else one item per line. An
    item's text does not depend on its indent unless it spans lines, so each
    is rendered once.
    """
    if arr.size == 0:
        return [dump_json(item, indent) for item in arr.tolist()]
    items = _float_texts(arr)
    lengths = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
    spans = np.zeros(len(items), dtype=bool)  # which items span lines
    for axis in range(arr.ndim - 1, 0, -1):
        size, pad = arr.shape[axis], " " * (indent + 2 * (axis - 1))
        lengths = lengths.reshape(-1, size).sum(axis=1) + 2 * size  # of the flat forms
        flat = (lengths <= 100) & ~spans.reshape(-1, size).any(axis=1)
        flat_form = "[" + ", ".join(["%s"] * size) + "]"
        open_form = f"[\n{pad}  " + f",\n{pad}  ".join(["%s"] * size) + f"\n{pad}]"
        rows = zip(*[iter(items)] * size)
        if flat.all():
            items = list(map(flat_form.__mod__, rows))
        elif not flat.any():
            items = list(map(open_form.__mod__, rows))
        else:
            items = [(flat_form if f else open_form) % row for f, row in zip(flat.tolist(), rows)]
        spans = ~flat
    return items


def _float_nest(items: list) -> np.ndarray | None:
    """The lists as one float64 array if they nest equally deep and evenly
    down to floats, else None."""
    leaves, kinds, shape = _leaves(items)
    if shape is None or not kinds <= {float, np.float64}:
        return None
    return np.array(leaves, dtype=np.float64).reshape(shape)


def _item_texts(items, indent: int) -> list[str]:
    """Texts of a list's items, each rendered at indent.

    Floats, ints and lists of either render in one pass over the list; a
    list of dicts that share their keys renders one key at a time through a
    row template.
    """
    kinds = set(map(type, items))
    if kinds <= {float, np.float64}:
        return _float_texts(items)
    if kinds == {int}:
        return list(map(str, items))
    if kinds == {list}:
        if set(map(type, chain.from_iterable(items))) <= {int}:
            # a list of ints prints as its flat JSON form
            texts = list(map(repr, items))
            if max(map(len, texts)) <= 100:
                return texts
            return [_join_list(list(map(str, item)), " " * indent) for item in items]
        nest = _float_nest(items)
        if nest is not None:
            return _array_items(nest, indent)
    if kinds == {dict}:
        keys = list(items[0])
        if keys and all(map(keys.__eq__, map(list, items))):
            pad = " " * indent
            columns = [_item_texts([item[key] for item in items], indent + 2) for key in keys]
            heads = [f"{pad}  {_json_string(str(key))}: ".replace("%", "%%") for key in keys]
            template = "{\n" + ",\n".join(head + "%s" for head in heads) + f"\n{pad}}}"
            return list(map(template.__mod__, zip(*columns)))
    return [dump_json(item, indent) for item in items]


def dump_json(obj: Any, indent: int = 0) -> str:
    """Serialize nested dict/list/ndarray/str/number structures deterministically.

    A list is written on one line when that line holds no newline and at
    most 100 characters, else one item per line; a float64 ndarray is
    written as the nested lists of its tolist().
    """
    if type(obj) is float:
        return fmt_float(obj)
    if type(obj) is int:
        return str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = " " * indent
        items = [
            f"{pad}  {_json_string(str(key))}: {dump_json(val, indent + 2)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        return _join_list(_item_texts(obj, indent + 2), " " * indent) if obj else "[]"
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0:
            return dump_json(obj.tolist(), indent)
        return _join_list(_array_items(obj, indent + 2), " " * indent)
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
    d, N = _as_int(obj["d"], "d"), _as_int(obj["N"], "N")
    steps = []
    for n, raw in enumerate(obj["steps"]):
        p = _as_real(raw["p"], f"step {n}: p entry")
        if "v" in raw:
            steps.append(StepLaw(p, _as_real(raw["v"], f"step {n}: v entry")))
        else:
            steps.append(canonical_step(p, n, cap))
    return WalkSpec(d=d, N=N, steps=tuple(steps), cap=cap)


# -- kernels and chaos coefficients -----------------------------------------

def kernel_to_json(kernel: Kernel) -> dict:
    """Emit the kernel in the raw entry convention.

    Entries are written on increasing tuples only, scaled by order!, and
    symmetrization on load divides by order! again. Up to order 2, order! is
    a power of two and the round trip is exact; from order 3 on the scaling
    and the division each round, so a component can come back one ulp off.
    The written value is the coefficient of the matching increment monomial
    up to the same rounding.
    Entries go by tuple, then coordinates; zero components are left out,
    except the scalar of order 0.
    """
    order, d = kernel.order, kernel.d
    rows, comps = np.nonzero((kernel.tensors != 0.0) | (order == 0))
    coords = comps[:, None] // d ** np.arange(order - 1, -1, -1) % d + 1
    values = kernel.tensors[rows, comps] * float(math.factorial(order))
    entries = zip(kernel.times[rows].tolist(), coords.tolist(), values.tolist())
    entries = [{"times": t, "coords": c, "value": v} for t, c, v in entries]
    return {"order": order, "entries": entries}


def kernel_from_json(obj: dict, d: int) -> Kernel:
    """Load raw kernel entries and symmetrize them."""
    entries = obj.get("entries", [])
    values = _as_real([e["value"] for e in entries], "value").tolist()  # a list stays a list
    raw = [(e["times"], e["coords"], v) for e, v in zip(entries, values)]
    return symmetrize(raw, _as_int(obj["order"], "order"), d)


def chaos_to_json(coeffs: ChaosCoefficients) -> dict:
    """The mean and the kernels of orders 1..N+1 in the raw entry convention."""
    kernels = {str(r): kernel_to_json(coeffs.kernel(r)) for r in range(1, coeffs.N + 2)}
    return {"d": coeffs.d, "N": coeffs.N, "mean": coeffs.mean, "kernels": kernels}


def chaos_from_json(obj: dict, cap: int = DEFAULT_CAP) -> ChaosCoefficients:
    """Load coefficients; their path space must fit the cap, which bounds every order read."""
    d, N = _as_int(obj["d"], "d"), _as_int(obj["N"], "N")
    PathSpace(d, N, cap)
    raws = {r: obj.get("kernels", {}).get(str(r)) for r in range(1, N + 2)}
    for r, raw in raws.items():
        if raw and _as_int(raw["order"], "order") != r:  # checked before any d^order tensor is built
            raise ValueError(f"kernel {r} declares order {raw['order']}")
    kernels = [kernel_from_json(raw, d) for raw in raws.values() if raw]
    (mean,) = _as_real([obj["mean"]], "mean").tolist()  # a list stays a list
    return ChaosCoefficients.from_kernels(d, N, mean, kernels)


# -- tables and processes ----------------------------------------------------

def table_from_json(obj: Any, space: PathSpace) -> PathTable:
    """A raw table is a JSON array of finite numbers in canonical path order."""
    table = PathTable(space, _as_real(obj, "table entry"))
    _check_finite(table, "table")
    return table


def process_from_json(obj: dict, space: PathSpace) -> VectorProcess:
    """Process schema: {"values": [[[coord per asset] per path] per time]}."""
    process = VectorProcess(space, _as_real(obj["values"], "process value"))
    bad = np.flatnonzero(~np.isfinite(process.values))
    if bad.size:
        time, path, coord = np.unravel_index(bad[0], process.values.shape)
        raise ValueError(
            f"process value at time {time}, path {path}, coordinate {coord + 1} "
            f"is not finite: {float(process.values[time, path, coord])!r}"
        )
    return process


# -- markets and strategies ---------------------------------------------------

def market_from_json(obj: dict, cap: int = DEFAULT_CAP) -> MarketSpec:
    d, N = _as_int(obj["d"], "d"), _as_int(obj["N"], "N")
    raw_steps = obj["scenarios"]
    if len(raw_steps) != N + 1:
        raise ValueError(f"market declares N={N} but has {len(raw_steps)} scenario steps")
    for k, step in enumerate(raw_steps):
        if len(step) != d + 1:
            raise ValueError(f"step {k}: expected {d + 1} scenarios, got {len(step)}")
    # lengths and size first, so that no array is sized by a bare d or N alone
    _check_market_size(d, N, cap)
    rates = _as_real(obj.get("r", 0.0), "r")
    rates = np.full(N + 1, rates) if rates.ndim == 0 else rates
    scenarios = np.zeros((N + 1, d + 1, d, d))
    diagonals = np.einsum("kijj->kij", scenarios)  # a writable view
    for k, step in enumerate(raw_steps):
        for i, scen in enumerate(step):
            if "lambda" in scen:
                lam = _as_real(scen["lambda"], f"step {k} scenario {i}: lambda entry")
                if lam.shape != (d,):
                    raise ValueError(f"step {k} scenario {i}: lambda needs {d} entries")
                diagonals[k, i] = lam
            elif "M" in scen:
                matrix = _as_real(scen["M"], f"step {k} scenario {i}: M entry")
                if matrix.shape != (d, d):
                    raise ValueError(f"step {k} scenario {i}: M needs shape ({d}, {d})")
                scenarios[k, i] = matrix
            else:
                raise ValueError(f"step {k} scenario {i}: need 'lambda' or 'M'")
    return MarketSpec(
        d=d,
        N=N,
        s_init=_as_real(obj["S0"], "S0 entry"),
        rates=rates,
        scenarios=scenarios,
        cap=cap,
    )


def _row_heads(d: int, N: int) -> list[str]:
    """Heads "n,w_0..w_{n-1}," of the atoms of F_{n-1} for n = 0..N, in tree order.

    Each time's outcome prefixes extend the last time's by one digit, and
    its heads come from one join and one split.
    """
    digits = [str(i) for i in range(d + 1)]
    prefixes, heads = [""], ["0,,"]
    for n in range(1, N + 1):
        prefixes = [prefix + digit for prefix in prefixes for digit in digits]
        heads += (f"{n}," + f",\0{n},".join(prefixes) + ",").split("\0")
    return heads


def strategy_to_csv(market: MarketSpec, strategy: Strategy) -> str:
    """Rows: time, atom prefix, bond units, share counts, formation value.

    The time-n row for an atom shows the portfolio chosen at time n-1 on
    that atom and its value at formation, so the first row's value is the
    claim price.
    """
    d, N = market.d, market.N
    header = "time,atom,beta," + ",".join(f"gamma_{j}" for j in range(1, d + 1)) + ",V"
    # row k > 0 is formed on atom k of F_0..F_{N-1} in tree order, at its prices
    # and the bond B_{n-1} of its step n; row 0 is worth the claim price
    rows = strategy.positions.rows
    prices = market.prices[1 : len(rows)]
    # stacked 1x1 matmul: the same BLAS dot per atom as gamma_row @ price_row,
    # which an elementwise sum would not reproduce bit for bit
    dots = np.matmul(rows[1:, None, 1:], prices[:, :, None])[:, 0, 0]
    bonds = np.repeat(market.bond[:N], [market.space.atom_count(n) for n in range(N)])
    values = np.concatenate([[float(strategy.beta_init)], rows[1:, 0] * bonds + dots])
    return header + "\n" + _csv_rows(_row_heads(d, N), np.column_stack([rows, values])) + "\n"


def _csv_rows(heads: list[str], table: np.ndarray) -> str:
    """One line per row of a 2-D table: its head, then its entries comma-separated."""
    row = ",".join(["%s"] * table.shape[1])
    return "\n".join([head + row for head in heads]) % tuple(_float_texts(table))


def table_to_csv(values: np.ndarray) -> str:
    """Table CSV: columns path index, value."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    return "path,value\n" + _csv_rows([f"{p}," for p in range(len(column))], column) + "\n"


def matrix_to_csv(values: np.ndarray) -> str:
    """Dense matrix CSV: one row per target path, entries in path order."""
    values = np.asarray(values, dtype=float)
    return _csv_rows([""] * len(values), values) + "\n"


def gradient_to_csv(values: np.ndarray) -> str:
    """Gradient field CSV: columns time k, coordinate j, path index, value."""
    steps, num_paths, d = values.shape
    texts = _float_texts(np.asarray(values, dtype=float).transpose(0, 2, 1))  # [k][j][p]
    block = "\n".join([f"\0{p},%s" for p in range(num_paths)])  # \0 stands for "k,j,"
    template = "\n".join(
        block.replace("\0", f"{k},{j + 1},") for k in range(steps) for j in range(d)
    )
    return "k,j,path,value\n" + template % tuple(texts) + "\n"
