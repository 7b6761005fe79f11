"""Run-time spans around every public function of ``degenlab``.

Installing a :class:`Tracer` replaces each public function of each module
with a wrapper, in every module namespace that binds it, including its own
module, so calls between and inside layers are both seen.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` restores the originals.

Each span records its id, its parent's id, the operation id, the function
and its start and end.  A span's self time is its duration minus the time
covered by its direct child spans; it is summed per function as the span
closes.  Spans are kept in memory and written out at the end.  The first
``MAX_SPANS`` are kept; later ones still count towards the totals, and the
number dropped is written to the trace file, so memory stays bounded on the
workloads that make millions of calls.

Not wrapped: methods of the classes in ``__all__`` (``BaseTuple``,
``NormalForm``, ``ClosedPoint`` and the rest), generator functions (for
both, the work counts as the calling function's self time, so ``base`` is
under-reported and its callers over-reported), and ``weights.side_of`` and
``weights.admissible_1ps``, per-point and per-level predicates called tens
of thousands of times per operation, whose cost shows up as the self time
of ``flow_limit`` and ``is_git_stable``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

from checks import SUITES, detail_numbers

LAYERS = (
    "base", "dual_complex", "configurations", "weights", "limits",
    "render", "scenario", "verify", "cli",
)
UNWRAPPED = {"weights.side_of", "weights.admissible_1ps"}
MAX_SPANS = 100_000
SUBCOMMANDS = ("limit", "fiber", "stability", "weights", "normalize", "render", "verify")


def _count(key, measure):
    def hook(counters, args, kwargs, result):
        counters[key] = counters.get(key, 0) + measure(args, kwargs, result)
    return hook


def _oracle_cut_sets(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return 1 << max(k - 1, 0)


HOOKS = {
    "dual_complex.build_fibre": _count(
        "dual_complex.vertices_built",
        lambda a, kw, r: len(r.dual_complex.vertices)),
    "dual_complex.locate": _count(
        "dual_complex.locate.off_vertex_calls",
        lambda a, kw, r: not r.is_vertex),
    "limits.unique_stable_subdivision_oracle": _count(
        "limits.oracle.cut_sets", _oracle_cut_sets),
    "render.render_fibre": _count(
        "render.bytes", lambda a, kw, r: len(r.encode())),
    "scenario.parse_scenario": _count(
        "scenario.bytes", lambda a, kw, r: len(a[0].encode())),
    "scenario.dumps": _count(
        "scenario.bytes", lambda a, kw, r: len(r.encode())),
    **{
        f"verify.check_{suite}": _count(
            "verify.cases", lambda a, kw, r: detail_numbers(r.detail)[0])
        for suite in SUITES
    },
}


def _wrappable(fn, module) -> bool:
    if getattr(fn, "__module__", None) != module.__name__:
        return False
    if hasattr(fn, "cache_info"):  # functools.lru_cache wrapper
        return True
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


class Tracer:
    """Span recorder; install it, run operations, then read the totals."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.dropped = 0
        self.counters: dict[str, int] = {}
        self.op_id = 0
        self._stack: list[list[int]] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn, hook):
        idx = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_ns.append(0)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += elapsed - frame[1]
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((
                        frame[0], parent[0] if parent else 0,
                        tracer.op_id, idx, start, end,
                    ))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer wherever it is bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"degenlab.{layer}")
            for name in module.__all__:
                qualname = f"{layer}.{name}"
                fn = getattr(module, name)
                if qualname in UNWRAPPED or not _wrappable(fn, module):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(qualname, fn, HOOKS.get(qualname)))
        namespaces = [
            m for name, m in list(sys.modules.items())
            if name == "degenlab" or name.startswith("degenlab.")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def calls_of(self, qualname: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == qualname)

    def self_ms_of(self, predicate) -> float:
        return sum(ns for n, ns in zip(self.names, self.self_ns) if predicate(n)) / 1e6

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one JSON array per kept span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                **header,
                "fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                "kept": len(self.spans),
                "dropped": self.dropped,
            }) + "\n")
            for span_id, parent, op, idx, start, end in self.spans:
                out.write(json.dumps([span_id, parent, op, self.names[idx], start, end]) + "\n")


def _is_to_json(name: str) -> bool:
    return name.startswith("scenario.") and (name.endswith("_to_json") or name == "scenario.dumps")


def _is_parse(name: str) -> bool:
    return name == "scenario.parse_scenario" or (
        name.startswith("scenario.") and name.endswith("_from_json"))


def _metric_table(t: Tracer, cache: dict, cli: dict):
    """(name, unit, better, value) for every layer metric, before dividing
    per-operation totals by the number of operations."""
    per_op = []

    def calls(name, qualname):
        per_op.append((name, "calls/op", "lower", t.calls_of(qualname)))

    def self_ms(name, predicate):
        per_op.append((name, "ms/op", "lower", t.self_ms_of(predicate)))

    def counter(name, unit):
        per_op.append((name, unit, "lower", t.counters.get(name, 0)))

    def exactly(qualname):
        return lambda n: n == qualname

    calls("weights.is_git_stable.calls", "weights.is_git_stable")
    self_ms("weights.is_git_stable.self_ms", exactly("weights.is_git_stable"))
    calls("weights.hm_invariant.calls", "weights.hm_invariant")
    calls("weights.flow_limit.calls", "weights.flow_limit")
    self_ms("weights.flow_limit.self_ms", exactly("weights.flow_limit"))
    self_ms("weights.bounded_weight.self_ms", exactly("weights.bounded_weight"))
    self_ms("weights.constructive_linearization.self_ms",
            exactly("weights.constructive_linearization"))
    calls("dual_complex.build_fibre.calls", "dual_complex.build_fibre")
    self_ms("dual_complex.build_fibre.self_ms", exactly("dual_complex.build_fibre"))
    counter("dual_complex.vertices_built", "vertices/op")
    calls("dual_complex.locate.calls", "dual_complex.locate")
    self_ms("dual_complex.locate.self_ms", exactly("dual_complex.locate"))
    counter("dual_complex.locate.off_vertex_calls", "calls/op")
    calls("configurations.place.calls", "configurations.place")
    self_ms("configurations.place.self_ms", exactly("configurations.place"))
    self_ms("configurations.stability_report.self_ms",
            exactly("configurations.stability_report"))
    self_ms("limits.flat_limit.self_ms", exactly("limits.flat_limit"))
    calls("limits.oracle.calls", "limits.unique_stable_subdivision_oracle")
    self_ms("limits.oracle.self_ms", exactly("limits.unique_stable_subdivision_oracle"))
    counter("limits.oracle.cut_sets", "cut_sets/op")
    calls("render.calls", "render.render_fibre")
    self_ms("render.self_ms", exactly("render.render_fibre"))
    counter("render.bytes", "bytes/op")
    self_ms("scenario.parse.self_ms", _is_parse)
    self_ms("scenario.to_json.self_ms", _is_to_json)
    counter("scenario.bytes", "bytes/op")
    self_ms("base.self_ms", lambda n: n.startswith("base."))
    counter("verify.cases", "cases/op")
    for suite in SUITES:
        self_ms(f"verify.{suite}.self_ms", exactly(f"verify.check_{suite}"))
    self_ms("cli.main.self_ms", exactly("cli.main"))

    whole = [
        ("dual_complex.cache.hit_ratio", "ratio", "higher", cache["hit_ratio"]),
        ("dual_complex.cache.entries", "count", "lower", cache["entries"]),
        ("cli.interpreter_ms", "ms", "lower", cli.get("interpreter_ms", 0.0)),
        ("cli.import_ms", "ms", "lower", cli.get("import_ms", 0.0)),
        *(
            (f"cli.{sub}.ms", "ms", "lower", cli.get(f"{sub}_ms", 0.0))
            for sub in SUBCOMMANDS
        ),
    ]
    return per_op, whole


def layer_metrics(t: Tracer, ops: int, cache: dict, cli: dict, factor: float = 1.0) -> dict:
    """Every per-layer metric; per-operation ones are totals over ``ops``.

    Times are multiplied by ``factor``, the run's speed factor.
    """
    per_op, whole = _metric_table(t, cache, cli)
    out = {}
    for rows, divisor in ((per_op, max(ops, 1)), (whole, 1)):
        for name, unit, _, value in rows:
            scale = factor if unit in ("ms", "ms/op") else 1.0
            out[name] = {"value": value * scale / divisor, "unit": unit}
    return out


def metric_specs() -> list[dict]:
    """Name, unit and better direction of each per-layer metric, in order."""
    per_op, whole = _metric_table(Tracer(), {"hit_ratio": 0, "entries": 0}, {})
    return [
        {"name": n, "unit": u, "better": b}
        for n, u, b, _ in [*per_op, *whole]
    ]
