"""Command-line front end.

Subcommands drive every library module from JSON specifications:

    walk validate | walk construct
    chaos decompose | chaos reconstruct
    gradient, clark-ocone, divergence, ou, ou-kernel, deviation
    market emm | market price | market hedge | market verify

Each form returns its result and `main` alone writes it: CSV text as it
is, a report dataclass (ValidationReport, DeviationBound, StrategyReport)
as JSON field for field, so a field added to one changes that form's
golden, and any other payload through `serialize.dump_json`. Exit status
is 1 when the result has a false `passed` field (a failed `walk validate`
or `market verify`, written all the same) or the input is refused with one
`error:` line, 2 on usage errors, else 0. Every form except `walk
validate` refuses a walk that `validate` refuses. Numeric output carries
17 significant digits and identical inputs produce byte-identical output.
A form accepts only the flags it reads.
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
    """The walk of an operator form, refused with its file unless `validate` passes it."""
    return _load(args.walk, lambda spec: walk_mod.require_obtuse(
        serialize.walk_from_json(spec, args.cap)))


def _walk_and_table(args):
    walk = _load_walk(args)
    return walk, _load(args.table, serialize.table_from_json, walk.space)


def _load_market(args) -> market_mod.MarketSpec:
    return _load(args.market, serialize.market_from_json, cap=args.cap)


def _table_result(args, result, to_csv=serialize.table_to_csv):
    """A table or process in the form's --format: CSV text, or its values for JSON."""
    return to_csv(result.values) if args.format == "csv" else result.values


def _market_job(args):
    """Market, risk-neutral walk and claim: the model is checked before any payoff reads it."""
    market = _load_market(args)
    walk = market_mod.find_emm(market)
    if args.payoff is not None:
        claim = eval_payoff(parse_payoff(args.payoff, market.d, market.N), market)
    else:
        claim = _load(args.payoff_table, serialize.table_from_json, market.space)
    return market, walk, claim


def _cmd_walk_validate(args):
    """Reads any walk, obtuse or not, and reports on it."""
    return walk_mod.validate(_load(args.walk, serialize.walk_from_json, args.cap), args.tol)


def _cmd_walk_construct(args):
    return serialize.walk_to_json(_load_walk(args))


def _cmd_chaos_decompose(args):
    return serialize.chaos_to_json(chaos_mod.decompose(*_walk_and_table(args)))


def _cmd_chaos_reconstruct(args):
    walk = _load_walk(args)
    coeffs = _load(args.coeffs, serialize.chaos_from_json, cap=args.cap)
    return _table_result(args, chaos_mod.reconstruct(walk, coeffs))


def _cmd_gradient(args):
    grad = malliavin.gradient(*_walk_and_table(args))
    return _table_result(args, grad, serialize.gradient_to_csv)


def _cmd_clark_ocone(args):
    walk, table = _walk_and_table(args)
    if args.start is None:
        mean, xi = malliavin.clark_ocone(walk, table)
        return {"mean": mean, "integrand": xi.on_paths()}
    head, xi = malliavin.clark_ocone_from(walk, table, args.start)
    return {"head": head.values, "integrand": xi.on_paths()}


def _cmd_divergence(args):
    walk = _load_walk(args)
    process = _load(args.process, serialize.process_from_json, walk.space)
    return _table_result(args, malliavin.divergence(walk, process))


def _cmd_ou(args):
    apply = ou.ou_apply_kernel if args.method == "kernel" else ou.ou_apply_chaos
    return _table_result(args, apply(*_walk_and_table(args), args.t))


def _cmd_ou_kernel(args):
    return serialize.matrix_to_csv(ou.ou_kernel_matrix(_load_walk(args), args.t))


def _cmd_deviation(args):
    return ou.deviation_bound(*_walk_and_table(args), args.x)


def _cmd_market_emm(args):
    walk = market_mod.find_emm(_load_market(args))
    return {"q": np.stack([step.p for step in walk.steps])}


def _cmd_market_price(args):
    market, walk, claim = _market_job(args)
    return {"price": market_mod.price_claim(market, walk, claim)}


def _hedge(args, market, walk, claim):
    if args.method == "clark-ocone":
        return market_mod.hedge_clark_ocone(market, walk, claim)
    return market_mod.hedge_replicate(market, walk, claim)


def _cmd_market_hedge(args):
    market, walk, claim = _market_job(args)
    return serialize.strategy_to_csv(market, _hedge(args, market, walk, claim))


def _cmd_market_verify(args):
    market, walk, claim = _market_job(args)
    return market_mod.verify_strategy(market, _hedge(args, market, walk, claim), claim)


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
    p.add_argument("--tol", type=float, default=walk_mod.IDENTITY_TOL)
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
    p.add_argument("--payoff-table", dest="table", metavar="PAYOFF_TABLE", required=True)
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
        result = args.func(args)
        if dataclasses.is_dataclass(result):
            text = serialize.dump_json(dataclasses.asdict(result))
        else:
            text = result if isinstance(result, str) else serialize.dump_json(result)
        _emit(args, text)
    except (ObtuseWalkError, ValueError, OSError, KeyError, MemoryError) as exc:
        text = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        print(f"error: {text}", file=sys.stderr)
        return 1
    return 0 if getattr(result, "passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
