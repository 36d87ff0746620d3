"""Command-line front end.

Subcommands drive every library module from JSON specifications:

    walk validate | walk construct
    chaos decompose | chaos reconstruct
    gradient, clark-ocone, divergence, ou, ou-kernel, deviation
    market emm | market price | market hedge | market verify

Exit status is 0 on success, 1 on validation or input failure, 2 on usage
errors. Numeric output carries 17 significant digits and identical inputs
produce byte-identical output. A form accepts only the flags it reads.
`walk validate`, `deviation` and `market verify` print their dataclass,
ValidationReport, DeviationBound and StrategyReport, field for field, so a
field added to one of them changes that form's output and its golden.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import chaos as chaos_mod
from . import malliavin, ou, serialize
from . import market as market_mod
from . import walk as walk_mod
from .errors import ObtuseWalkError
from .omega import DEFAULT_CAP, _check_tolerance
from .payoff import eval_payoff, parse_payoff


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load(path: str, loader, *args, **kwargs):
    """Build an object from a JSON file; a missing field, a bad value, a value
    of the wrong shape, a number beyond the float range, a size beyond the cap
    or a model the constructor refuses is reported with the file."""
    obj = _load_json(path)
    try:
        return loader(obj, *args, **kwargs)
    except KeyError as exc:
        raise ObtuseWalkError(f"{path}: missing field {exc.args[0]!r}") from None
    except (ObtuseWalkError, ValueError, TypeError, AttributeError, OverflowError) as exc:
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
    return _load(args.walk, serialize.walk_from_json, cap=args.cap)


def _load_market(args) -> market_mod.MarketSpec:
    return _load(args.market, serialize.market_from_json, cap=args.cap)


def _load_table(path: str, space):
    return _load(path, serialize.table_from_json, space)


def _emit_table(args, table) -> None:
    if args.format == "csv":
        _emit(args, serialize.table_to_csv(table.values))
    else:
        _emit(args, serialize.dump_json(table.values))


def _market_job(args):
    """Market, risk-neutral walk and claim: the model is checked before any payoff reads it."""
    market = _load_market(args)
    walk = market_mod.find_emm(market)
    if args.payoff is not None:
        claim = eval_payoff(parse_payoff(args.payoff, market.d, market.N), market)
    else:
        claim = _load_table(args.payoff_table, market.space)
    return market, walk, claim


def _cmd_walk_validate(args) -> int:
    walk = _load_walk(args)
    report = walk_mod.validate(walk, tol=args.tol)
    _emit(args, serialize.dump_json(dataclasses.asdict(report)))
    return 0 if report.passed else 1


def _cmd_walk_construct(args) -> int:
    walk = _load_walk(args)
    _emit(args, serialize.dump_json(serialize.walk_to_json(walk)))
    return 0


def _cmd_chaos_decompose(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args.table, walk.space)
    coeffs = chaos_mod.decompose(walk, table)
    _emit(args, serialize.dump_json(serialize.chaos_to_json(coeffs)))
    return 0


def _cmd_chaos_reconstruct(args) -> int:
    walk = _load_walk(args)
    coeffs = _load(args.coeffs, serialize.chaos_from_json, cap=args.cap)
    _emit_table(args, chaos_mod.reconstruct(walk, coeffs))
    return 0


def _cmd_gradient(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args.table, walk.space)
    grad = malliavin.gradient(walk, table)
    if args.format == "json":
        _emit(args, serialize.dump_json(grad.values))
    else:
        _emit(args, serialize.gradient_to_csv(grad.values))
    return 0


def _cmd_clark_ocone(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args.table, walk.space)
    if args.start is not None:
        head, xi = malliavin.clark_ocone_from(walk, table, args.start)
        payload = {"head": head.values, "integrand": xi.on_paths()}
    else:
        mean, xi = malliavin.clark_ocone(walk, table)
        payload = {"mean": mean, "integrand": xi.on_paths()}
    _emit(args, serialize.dump_json(payload))
    return 0


def _cmd_divergence(args) -> int:
    walk = _load_walk(args)
    process = _load(args.process, serialize.process_from_json, walk.space)
    _emit_table(args, malliavin.divergence(walk, process))
    return 0


def _cmd_ou(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args.table, walk.space)
    apply = ou.ou_apply_kernel if args.method == "kernel" else ou.ou_apply_chaos
    _emit_table(args, apply(walk, table, args.t))
    return 0


def _cmd_ou_kernel(args) -> int:
    walk = _load_walk(args)
    _emit(args, serialize.matrix_to_csv(ou.ou_kernel_matrix(walk, args.t)))
    return 0


def _cmd_deviation(args) -> int:
    walk = _load_walk(args)
    table = _load_table(args.payoff_table, walk.space)
    bound = ou.deviation_bound(walk, table, args.x)
    _emit(args, serialize.dump_json(dataclasses.asdict(bound)))
    return 0


def _cmd_market_emm(args) -> int:
    market = _load_market(args)
    walk = market_mod.find_emm(market)
    _emit(args, serialize.dump_json({"q": np.stack([step.p for step in walk.steps])}))
    return 0


def _cmd_market_price(args) -> int:
    market, walk, claim = _market_job(args)
    price = market_mod.price_claim(market, walk, claim)
    _emit(args, serialize.dump_json({"price": price}))
    return 0


def _hedge(args, market, walk, claim):
    if args.method == "clark-ocone":
        return market_mod.hedge_clark_ocone(market, walk, claim)
    return market_mod.hedge_replicate(market, walk, claim)


def _cmd_market_hedge(args) -> int:
    market, walk, claim = _market_job(args)
    strategy = _hedge(args, market, walk, claim)
    _emit(args, serialize.strategy_to_csv(market, strategy))
    return 0


def _cmd_market_verify(args) -> int:
    market, walk, claim = _market_job(args)
    strategy = _hedge(args, market, walk, claim)
    report = market_mod.verify_strategy(market, strategy, claim)
    _emit(args, serialize.dump_json(dataclasses.asdict(report)))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obtusewalk",
        description="Exact stochastic analysis and hedging on finite obtuse walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, table_format=None):
        """Flags of every form; --format only on the forms whose output it changes."""
        p.add_argument("--out", default=None, help="write output to this file")
        if table_format is not None:
            p.add_argument("--format", choices=("json", "csv"), default=table_format)
        p.add_argument("--cap", type=int, default=None, help="enumeration cap (or env OBTUSE_CAP)")

    walk_parser = sub.add_parser("walk", help="walk validation and construction")
    walk_sub = walk_parser.add_subparsers(dest="action", required=True)
    p = walk_sub.add_parser("validate", help="check the defining identities")
    p.add_argument("walk")
    p.add_argument("--tol", type=float, default=1e-10)
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
    common(p, table_format="json")
    p.set_defaults(func=_cmd_chaos_reconstruct)

    p = sub.add_parser("gradient", help="finite-difference gradient of a table")
    p.add_argument("walk")
    p.add_argument("--table", required=True)
    common(p, table_format="csv")
    p.set_defaults(func=_cmd_gradient)

    p = sub.add_parser("clark-ocone", help="predictable representation of a table")
    p.add_argument("walk")
    p.add_argument("--table", required=True)
    p.add_argument("--from", dest="start", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_clark_ocone)

    p = sub.add_parser("divergence", help="divergence of a vector process")
    p.add_argument("walk")
    p.add_argument("--process", required=True)
    common(p, table_format="json")
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("ou", help="apply the damping semigroup")
    p.add_argument("walk")
    p.add_argument("--table", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=("chaos", "kernel"), default="chaos")
    common(p, table_format="json")
    p.set_defaults(func=_cmd_ou)

    p = sub.add_parser("ou-kernel", help="transition kernel over path pairs as CSV")
    p.add_argument("walk")
    p.add_argument("--t", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_ou_kernel)

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
            claim = p.add_mutually_exclusive_group(required=True)
            claim.add_argument("--payoff", help="payoff expression, e.g. 'max(S(1)-100,0)'")
            claim.add_argument("--payoff-table", dest="payoff_table")
        common(p)

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
    if args.cap is None:
        args.cap = DEFAULT_CAP
    try:
        if args.cap < 1:
            raise ObtuseWalkError(f"enumeration cap must be >= 1, got {args.cap}")
        if hasattr(args, "tol"):
            _check_tolerance(args.tol)
        return args.func(args)
    except (ObtuseWalkError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
