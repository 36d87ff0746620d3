"""Command-line front end.

Subcommands drive every library module from JSON specifications:

    walk validate | walk construct
    chaos decompose | chaos reconstruct
    gradient, clark-ocone, divergence, ou, deviation
    market emm | market price | market hedge | market verify

Exit status is 0 on success, 1 on validation or input failure, 2 on usage
errors. Numeric output carries 17 significant digits and identical inputs
produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import chaos as chaos_mod
from . import malliavin, ou, serialize
from . import market as market_mod
from . import walk as walk_mod
from .errors import ObtuseWalkError
from .omega import DEFAULT_CAP
from .payoff import eval_payoff, parse_payoff


@dataclass(frozen=True)
class RunConfig:
    """Validated run options shared by all subcommands."""

    out: str | None
    fmt: str
    tol: float
    cap: int

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ObtuseWalkError(f"enumeration cap must be >= 1, got {self.cap}")
        if not self.tol > 0.0:
            raise ObtuseWalkError(f"tolerance must be > 0, got {self.tol}")


def _config_from(args) -> RunConfig:
    cap = DEFAULT_CAP if args.cap is None else args.cap
    return RunConfig(out=args.out, fmt=args.format, tol=args.tol, cap=cap)


def _cap_from(args) -> int:
    return _config_from(args).cap


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load(path: str, loader, *args, **kwargs):
    """Build an object from a JSON file; a missing field, a value of the wrong
    shape or a number beyond the float range is reported with the file."""
    obj = _load_json(path)
    try:
        return loader(obj, *args, **kwargs)
    except KeyError as exc:
        raise ObtuseWalkError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ObtuseWalkError(f"{path}: {exc}") from None


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_walk(args) -> walk_mod.WalkSpec:
    return _load(args.walk, serialize.walk_from_json, cap=_cap_from(args))


def _load_market(args) -> market_mod.MarketSpec:
    return _load(args.market, serialize.market_from_json, cap=_cap_from(args))


def _load_table(args, space):
    path = getattr(args, "table", None) or getattr(args, "payoff_table", None)
    return _load(path, serialize.table_from_json, space)


def _emit_table(args, table) -> None:
    if args.format == "csv":
        _emit(args, serialize.table_to_csv(table.values))
    else:
        _emit(args, serialize.dump_json(serialize.table_to_json(table)))


def _market_claim(args, market):
    if getattr(args, "payoff", None):
        expr = parse_payoff(args.payoff, market.d, market.N)
        return eval_payoff(expr, market)
    if getattr(args, "payoff_table", None):
        return _load(args.payoff_table, serialize.table_from_json, market.space)
    raise ObtuseWalkError("provide --payoff or --payoff-table")


def _cmd_walk_validate(args) -> int:
    walk = _load_walk(args)
    report = walk_mod.validate(walk, tol=args.tol)
    payload = {
        "passed": report.passed,
        "errors": list(report.errors),
        "max_mean_residual": report.max_mean_residual,
        "worst_mean": list(report.worst_mean) if report.worst_mean else None,
        "max_moment_residual": report.max_moment_residual,
        "worst_moment": list(report.worst_moment) if report.worst_moment else None,
    }
    _emit(args, serialize.dump_json(payload))
    return 0 if report.passed else 1


def _cmd_walk_construct(args) -> int:
    walk = _load_walk(args)
    _emit(args, serialize.dump_json(serialize.walk_to_json(walk)))
    return 0


def _cmd_chaos_decompose(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args, walk.space)
    coeffs = chaos_mod.decompose(walk, table)
    _emit(args, serialize.dump_json(serialize.chaos_to_json(coeffs)))
    return 0


def _cmd_chaos_reconstruct(args) -> int:
    walk = _load_walk(args)
    coeffs = _load(args.coeffs, serialize.chaos_from_json, cap=_cap_from(args))
    _emit_table(args, chaos_mod.reconstruct(walk, coeffs))
    return 0


def _cmd_gradient(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args, walk.space)
    grad = malliavin.gradient(walk, table)
    if args.format == "json":
        _emit(args, serialize.dump_json(grad.values.tolist()))
    else:
        _emit(args, serialize.gradient_to_csv(grad.values))
    return 0


def _cmd_clark_ocone(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args, walk.space)
    if args.start is not None:
        head, xi = malliavin.clark_ocone_from(walk, table, args.start)
        payload = {
            "head": serialize.table_to_json(head),
            "integrand": serialize.process_to_json(xi)["values"],
        }
    else:
        mean, xi = malliavin.clark_ocone(walk, table)
        payload = {
            "mean": mean,
            "integrand": serialize.process_to_json(xi)["values"],
        }
    _emit(args, serialize.dump_json(payload))
    return 0


def _cmd_divergence(args) -> int:
    walk = _load_walk(args)
    process = _load(args.process, serialize.process_from_json, walk.space)
    _emit_table(args, malliavin.divergence(walk, process))
    return 0


def _cmd_ou(args) -> int:
    walk = _load_walk(args)
    if args.kernel_matrix:
        matrix = ou.ou_kernel_matrix(walk, args.t)
        _emit(args, serialize.matrix_to_csv(matrix.values))
        return 0
    if args.table is None:
        raise ObtuseWalkError("provide --table (or --kernel-matrix)")
    table = _load_table(args, walk.space)
    apply = ou.ou_apply_kernel if args.method == "kernel" else ou.ou_apply_chaos
    _emit_table(args, apply(walk, table, args.t))
    return 0


def _cmd_deviation(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args, walk.space)
    bound = ou.deviation_bound(walk, table, args.x)
    payload = {
        "x": bound.x,
        "spread": bound.spread,
        "coeff_max": bound.coeff_max,
        "grad_norm": bound.grad_norm,
        "scale": bound.scale,
        "bound_bennett": bound.bound_bennett,
        "bound_log": bound.bound_log,
        "oracle_tail": bound.oracle_tail,
    }
    _emit(args, serialize.dump_json(payload))
    return 0


def _cmd_market_emm(args) -> int:
    market = _load_market(args)
    emm = market_mod.find_emm(market, tol=args.tol)
    _emit(args, serialize.dump_json({"q": emm.q.tolist()}))
    return 0


def _cmd_market_price(args) -> int:
    market = _load_market(args)
    claim = _market_claim(args, market)
    emm = market_mod.find_emm(market, tol=args.tol)
    price = market_mod.price_claim(market, emm, claim)
    _emit(args, serialize.dump_json({"price": price}))
    return 0


def _hedge(args, market, claim):
    emm = market_mod.find_emm(market, tol=args.tol)
    if args.method == "clark-ocone":
        return market_mod.hedge_clark_ocone(market, emm, claim)
    return market_mod.hedge_replicate(market, emm, claim)


def _cmd_market_hedge(args) -> int:
    market = _load_market(args)
    claim = _market_claim(args, market)
    strategy = _hedge(args, market, claim)
    _emit(args, serialize.strategy_to_csv(market, strategy))
    return 0


def _cmd_market_verify(args) -> int:
    market = _load_market(args)
    claim = _market_claim(args, market)
    strategy = _hedge(args, market, claim)
    report = market_mod.verify_strategy(market, strategy, claim, tol=args.tol_verify)
    payload = {
        "passed": report.passed,
        "predictability": report.predictability,
        "self_financing": report.self_financing,
        "telescoping": report.telescoping,
        "discounted_increment": report.discounted_increment,
        "decomposition": report.decomposition,
        "replication": report.replication,
        "value_initial": report.value_initial,
    }
    _emit(args, serialize.dump_json(payload))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obtusewalk",
        description="Exact stochastic analysis and hedging on finite obtuse walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, tol_default: float = 1e-10):
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--cap", type=int, default=None, help="enumeration cap (or env OBTUSE_CAP)")

    walk_parser = sub.add_parser("walk", help="walk validation and construction")
    walk_sub = walk_parser.add_subparsers(dest="action", required=True)
    p = walk_sub.add_parser("validate", help="check the defining identities")
    p.add_argument("walk")
    common(p)
    p.set_defaults(func=_cmd_walk_validate)
    p = walk_sub.add_parser("construct", help="complete steps that only give probabilities")
    p.add_argument("walk")
    common(p)
    p.set_defaults(func=_cmd_walk_construct)

    chaos_parser = sub.add_parser("chaos", help="chaos decomposition round trip")
    chaos_sub = chaos_parser.add_subparsers(dest="action", required=True)
    p = chaos_sub.add_parser("decompose")
    p.add_argument("walk")
    p.add_argument("--table", required=True, help="JSON array in canonical path order")
    common(p)
    p.set_defaults(func=_cmd_chaos_decompose)
    p = chaos_sub.add_parser("reconstruct")
    p.add_argument("walk")
    p.add_argument("--coeffs", required=True)
    common(p)
    p.set_defaults(func=_cmd_chaos_reconstruct)

    p = sub.add_parser("gradient", help="finite-difference gradient of a table")
    p.add_argument("walk")
    p.add_argument("--table", required=True)
    common(p)
    p.set_defaults(func=_cmd_gradient, format="csv")

    p = sub.add_parser("clark-ocone", help="predictable representation of a table")
    p.add_argument("walk")
    p.add_argument("--table", required=True)
    p.add_argument("--from", dest="start", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_clark_ocone)

    p = sub.add_parser("divergence", help="divergence of a vector process")
    p.add_argument("walk")
    p.add_argument("--process", required=True)
    common(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("ou", help="apply the damping semigroup")
    p.add_argument("walk")
    p.add_argument("--table", default=None)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=("chaos", "kernel"), default="chaos")
    p.add_argument(
        "--kernel-matrix",
        dest="kernel_matrix",
        action="store_true",
        help="emit the transition kernel over path pairs as CSV instead",
    )
    common(p)
    p.set_defaults(func=_cmd_ou)

    p = sub.add_parser("deviation", help="tail bound constants for a table")
    p.add_argument("walk")
    p.add_argument("--payoff-table", dest="payoff_table", required=True)
    p.add_argument("--x", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_deviation)

    market_parser = sub.add_parser("market", help="pricing and hedging")
    market_sub = market_parser.add_subparsers(dest="action", required=True)

    def market_common(p: argparse.ArgumentParser, with_claim: bool):
        p.add_argument("market")
        if with_claim:
            p.add_argument("--payoff", default=None, help="payoff expression, e.g. 'max(S(1)-100,0)'")
            p.add_argument("--payoff-table", dest="payoff_table", default=None)
        common(p, tol_default=1e-9)

    p = market_sub.add_parser("emm", help="risk-neutral scenario probabilities")
    market_common(p, with_claim=False)
    p.set_defaults(func=_cmd_market_emm)
    p = market_sub.add_parser("price", help="discounted risk-neutral price")
    market_common(p, with_claim=True)
    p.set_defaults(func=_cmd_market_price)
    p = market_sub.add_parser("hedge", help="replicating strategy as CSV")
    market_common(p, with_claim=True)
    p.add_argument("--method", choices=("replicate", "clark-ocone"), default="replicate")
    p.set_defaults(func=_cmd_market_hedge)
    p = market_sub.add_parser("verify", help="check a hedge end to end")
    market_common(p, with_claim=True)
    p.add_argument("--method", choices=("replicate", "clark-ocone"), default="replicate")
    p.add_argument("--tol-verify", dest="tol_verify", type=float, default=1e-8)
    p.set_defaults(func=_cmd_market_verify)

    return parser


#: (build_parser, its parser) from the first main call of the process.
_parser_cache: tuple | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: parse_args keeps no state.

    It is built again if build_parser has been replaced since, as
    instrumentation that wraps build_parser does.
    """
    global _parser_cache
    if _parser_cache is None or _parser_cache[0] is not build_parser:
        _parser_cache = (build_parser, build_parser())
    return _parser_cache[1]


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    env_cap = os.environ.get("OBTUSE_CAP")
    if args.cap is None and env_cap is not None:
        try:
            args.cap = int(env_cap)
        except ValueError:
            parser.error(f"environment variable OBTUSE_CAP: invalid int value: {env_cap!r}")
    try:
        return args.func(args)
    except (ObtuseWalkError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
