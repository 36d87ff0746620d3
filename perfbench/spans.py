"""Benchmark-side spans that attribute job time to obtusewalk's modules.

Nothing here touches the package's source. While tracing is on, every
call from one ``obtusewalk`` module (or from the benchmark) into another
module's public function goes through a wrapper that records a span; the
lazily built path-space tables (``PathSpace.outcomes``,
``WalkSpec.measure``, ``WalkSpec.increments``) get a descriptor that times
their first touch; and the CLI's argument parsing, JSON reading and output
writing are timed through its own helpers. Everything is put back when
tracing stops, so the untraced code path is the library's own.

A call from one module into another is a layer boundary and gets a span; a
call that stays inside one module does not, which keeps recursive and
per-element helpers (``dump_json``, ``fmt_float``) cheap and out of the
trace. Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

#: The package's modules, which are the benchmark's layers.
LAYERS = (
    "omega", "walk", "integrals", "chaos", "malliavin",
    "ou", "market", "payoff", "serialize", "cli",
)

#: Per-function splits: metric name -> span names whose inclusive time it sums.
SPLITS = {
    "chaos.decompose_s": ("chaos.decompose",),
    "chaos.reconstruct_s": ("chaos.reconstruct",),
    "ou.apply_chaos_s": ("ou.ou_apply_chaos",),
    "ou.apply_kernel_s": ("ou.ou_apply_kernel",),
    "ou.deviation_bound_s": ("ou.deviation_bound",),
    "malliavin.gradient_s": ("malliavin.gradient",),
    "malliavin.clark_ocone_s": ("malliavin.clark_ocone",),
    "malliavin.divergence_s": ("malliavin.divergence",),
    "market.find_emm_s": ("market.find_emm",),
    "market.hedge_replicate_s": ("market.hedge_replicate",),
    "market.hedge_clark_ocone_s": ("market.hedge_clark_ocone",),
    "market.verify_strategy_s": ("market.verify_strategy",),
    "market.price_claim_s": ("market.price_claim",),
    "payoff.parse_s": ("payoff.parse_payoff",),
    "payoff.eval_s": ("payoff.eval_payoff",),
    "walk.build_s": ("walk.build", "walk.construct_obtuse"),
    "omega.outcomes_s": ("omega.outcomes",),
    "cli.parse_s": ("cli.parse",),
}

#: Lazily computed path-space tables whose first touch is the path-space build.
_LAZY_TABLES = (
    ("omega", "PathSpace", "outcomes", "omega.outcomes"),
    ("walk", "WalkSpec", "measure", "walk.build"),
    ("walk", "WalkSpec", "increments", "walk.build"),
)

# span record fields
NAME, START, END, PARENT, JOB, PATHS, BYTES_IN, BYTES_OUT, FAILED = range(9)


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = ("s", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.paths"] = ("count", "lower")
        out[f"{layer}.failed"] = ("count", "lower")
    for name in SPLITS:
        out[name] = ("s", "lower")
    out["serialize.load_s"] = ("s", "lower")
    out["serialize.dump_s"] = ("s", "lower")
    out["serialize.bytes_in"] = ("bytes", "lower")
    out["serialize.bytes_out"] = ("bytes", "lower")
    out["bench.self_s"] = ("s", "lower")
    out["bench.trace_overhead"] = ("ratio", "lower")
    out["bench.defect_probe_failed"] = ("count", "lower")
    return out


def path_count(obj) -> int:
    """Paths of the first path-space carrying argument, 0 if none."""
    if hasattr(obj, "d") and hasattr(obj, "N") and isinstance(obj.N, int):
        return (obj.d + 1) ** (obj.N + 1)
    space = getattr(obj, "space", None)
    return getattr(space, "num_paths", 0) if space is not None else getattr(obj, "num_paths", 0)


class Tracer:
    """In-memory span recorder; a no-op unless a job is being recorded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.recording = False
        self.job_id: str | None = None
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, paths: int = 0, bytes_in: int = 0, bytes_out: int = 0):
        if not self.recording:
            yield None
            return
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.job_id, paths, bytes_in, bytes_out, False]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: str, paths: int):
        """Root span of one job; while installed, library calls inside it are recorded."""
        if not self._undo:
            yield
            return
        self.job_id = job_id
        self.recording = True
        try:
            with self.span("bench.job", paths=paths):
                yield
        finally:
            self.recording = False
            self.job_id = None

    # -- installing the probes -----------------------------------------------

    def install(self) -> None:
        """Route every cross-module call through a span-recording wrapper.

        Names that one module imports from another are rebound to wrappers,
        and references to another module are rebound to a copy of it whose
        functions are wrappers. A module's own namespace keeps the original
        functions, so calls inside one module cost nothing extra.
        """
        if self._undo:
            return
        package = sys.modules["obtusewalk"]
        layers = {name: sys.modules[f"obtusewalk.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, mod in layers.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        views = {
            mod: types.SimpleNamespace(**{k: wrappers.get(v, v) if inspect.isfunction(v) else v
                                          for k, v in vars(mod).items()})
            for mod in layers.values()
        }
        for namespace in (package, *layers.values()):
            for name, obj in list(vars(namespace).items()):
                if obj is namespace:
                    continue
                if inspect.isfunction(obj) and obj in wrappers and obj.__module__ != namespace.__name__:
                    self._patch(namespace, name, wrappers[obj])
                elif inspect.ismodule(obj) and obj in views:
                    self._patch(namespace, name, views[obj])
        for mod_name, cls_name, attr, span_name in _LAZY_TABLES:
            cls = getattr(layers[mod_name], cls_name)
            self._patch(cls, attr, _FirstTouch(self, cls.__dict__[attr], span_name))
        self._instrument_cli(layers["cli"])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap(self, fn, span_name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            paths = next((p for p in map(path_count, args) if p), 0)
            with tracer.span(span_name, paths=paths):
                return fn(*args, **kwargs)

        return wrapper

    def _instrument_cli(self, cli) -> None:
        """Time argument parsing, JSON reading and output writing inside main."""
        if cli is None:
            return
        tracer = self
        build_parser = cli.__dict__["build_parser"]

        def traced_build_parser():
            with tracer.span("cli.parse"):
                parser = build_parser()
            parse_args = parser.parse_args

            def traced_parse_args(*args, **kwargs):
                with tracer.span("cli.parse"):
                    return parse_args(*args, **kwargs)

            parser.parse_args = traced_parse_args
            return parser

        self._patch(cli, "build_parser", traced_build_parser)
        if "_load_json" in cli.__dict__:
            load_json = cli.__dict__["_load_json"]

            def traced_load_json(path):
                with tracer.span("serialize.load", bytes_in=Path(path).stat().st_size):
                    return load_json(path)

            self._patch(cli, "_load_json", traced_load_json)
        if "_emit" in cli.__dict__:
            emit = cli.__dict__["_emit"]

            def traced_emit(args, text):
                with tracer.span("serialize.dump", bytes_out=len(text.encode())):
                    return emit(args, text)

            self._patch(cli, "_emit", traced_emit)

    # -- results ---------------------------------------------------------------

    def write(self, path: Path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps({
                    "name": rec[NAME], "start": rec[START] - t0, "end": rec[END] - t0,
                    "parent": rec[PARENT], "job": rec[JOB], "paths": rec[PATHS],
                    "bytes_in": rec[BYTES_IN], "bytes_out": rec[BYTES_OUT], "failed": rec[FAILED],
                }) + "\n")

    def aggregate(self, first: int = 0, last: int | None = None) -> dict:
        """Self time per layer, inclusive time per span name, and counters.

        by_job holds (calls, seconds) of each job's direct calls, per job name.

        Covers the spans recorded at indices first..last-1, which must be
        whole jobs.
        """
        last = len(self.spans) if last is None else last
        child_time = defaultdict(float)
        for rec in self.spans[first:last]:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        layers = defaultdict(lambda: {"busy_s": 0.0, "calls": 0, "paths": 0, "failed": 0})
        inclusive = defaultdict(float)
        by_job = defaultdict(lambda: [0, 0.0])
        bytes_in = bytes_out = 0
        self_s = 0.0
        for i in range(first, last):
            rec = self.spans[i]
            dur = rec[END] - rec[START]
            if rec[NAME] == "bench.job":
                self_s += dur - child_time[i]
                continue
            stats = layers[rec[NAME].split(".", 1)[0]]
            stats["busy_s"] += dur - child_time[i]
            stats["calls"] += 1
            stats["paths"] += rec[PATHS]
            stats["failed"] += rec[FAILED]
            inclusive[rec[NAME]] += dur
            if self.spans[rec[PARENT]][NAME] == "bench.job":
                per_call = by_job[rec[JOB], rec[NAME]]
                per_call[0] += 1
                per_call[1] += dur
            bytes_in += rec[BYTES_IN]
            bytes_out += rec[BYTES_OUT]
        return {
            "layers": layers, "inclusive": inclusive, "by_job": by_job,
            "bytes_in": bytes_in, "bytes_out": bytes_out, "self_s": self_s,
        }

    def layer_metrics(self, agg: dict, cycles: int) -> dict[str, float]:
        """Per-layer metric values per traced cycle (the bench.* extras excluded)."""
        out = {}
        for layer in LAYERS:
            stats = agg["layers"].get(layer, {"busy_s": 0.0, "calls": 0, "paths": 0, "failed": 0})
            for key, value in stats.items():
                out[f"{layer}.{key}"] = value / cycles
        for metric, names in SPLITS.items():
            out[metric] = sum(agg["inclusive"].get(n, 0.0) for n in names) / cycles
        load = dump = 0.0
        for name, secs in agg["inclusive"].items():
            if name.startswith("serialize."):
                if name == "serialize.load" or name.endswith("_from_json"):
                    load += secs
                else:
                    dump += secs
        out["serialize.load_s"] = load / cycles
        out["serialize.dump_s"] = dump / cycles
        out["serialize.bytes_in"] = agg["bytes_in"] / cycles
        out["serialize.bytes_out"] = agg["bytes_out"] / cycles
        out["bench.self_s"] = agg["self_s"] / cycles
        return out


class _FirstTouch:
    """Non-data descriptor around a cached_property that times its first touch.

    Once the value sits in the instance dict, attribute lookup never reaches
    this descriptor again, so later reads cost nothing extra.
    """

    def __init__(self, tracer: Tracer, inner, span_name: str) -> None:
        self.tracer = tracer
        self.inner = inner
        self.span_name = span_name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.inner
        with self.tracer.span(self.span_name, paths=path_count(obj)):
            return self.inner.__get__(obj, owner)
