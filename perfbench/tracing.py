"""Spans and counts around the calls into each library layer.

The tracer wraps the public functions of the layer modules where every
calling module looks them up (the module globals of the package), from the
benchmark's side, and restores the originals afterwards; no library file
is edited. It is installed only around a traced op, so untraced ops run the
unwrapped code. Spans and counts live in memory until the run ends.

README.md lists the per-layer metrics and the end-to-end metric each
should move. A layer metric reads zero on a workload that never calls the
layer.

span_cost() calibrates what one span adds to a call, on a no-op function;
spans times that cost estimates the tracing overhead directly.
"""
from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("channel", "resolvability", "info", "rates", "types_sanov", "linalg")

# compositions recurses once per alphabet letter; its time belongs to the
# enumeration span that calls it. The JSON parsers and label formatting are
# the command line's input and output formats, so they stay in cli.self_s.
# The coercion and Hermiticity helpers run once per matrix inside eigh; a
# span there would cost more than the call.
UNWRAPPED = {"channel.compositions", "channel.channel_from_json",
             "channel.distribution_from_json", "channel.codebook_from_json",
             "channel.format_label", "linalg.as_matrix", "linalg.hermitianize",
             "linalg.validate_hermitian"}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# span name -> [(count metric, amount per call from (args, kwargs, result))]
COUNTERS = {
    "channel.m_type_counts": [
        ("channel.types_enumerated", lambda a, k, r: r.shape[0])],
    "channel.CQChannel.power": [
        ("channel.product_states", lambda a, k, r: 0 if r is a[0] else r.size)],
    "info.renyi_mutual_info": [
        ("info.renyi_iterations", lambda a, k, r: r.iterations),
        ("info.renyi_letters", lambda a, k, r: _arg(a, k, 1, "channel").size)],
    "rates.capacity": [("rates.capacity_iterations", lambda a, k, r: r.iterations)],
    "rates.fixed_input_rate": [("rates.vertices", lambda a, k, r: r.iterations)],
    "types_sanov.ee31_margin": [("types_sanov.ee31_calls", lambda a, k, r: 1)],
    "types_sanov.twirl": [
        ("types_sanov.twirl_permutations",
         lambda a, k, r: math.factorial(_arg(a, k, 1, "n")))],
    "linalg.eigh": [("linalg.eigh_calls", lambda a, k, r: 1)],
}
COUNTS = tuple(metric for pairs in COUNTERS.values() for metric, _ in pairs)

# metric -> (span name, "total" or "self")
TIMES = {
    "channel.enumerate_s": ("channel.m_type_counts", "total"),
    "channel.power_s": ("channel.CQChannel.power", "total"),
    "resolvability.exact_self_s": ("resolvability.resolution_error_exact", "self"),
    "resolvability.worst_self_s": ("resolvability.resolution_error_worst", "self"),
    "resolvability.softcover_self_s": ("resolvability.soft_cover_simulate", "self"),
    "info.renyi_s": ("info.renyi_mutual_info", "total"),
    "info.mutual_info_s": ("info.mutual_info", "total"),
    "rates.capacity_s": ("rates.capacity", "total"),
    "rates.fixed_rate_s": ("rates.fixed_input_rate", "total"),
    "types_sanov.ee31_s": ("types_sanov.ee31_margin", "total"),
    "types_sanov.twirl_s": ("types_sanov.twirl", "total"),
    "types_sanov.type_projector_s": ("types_sanov.type_projector", "total"),
    "linalg.eigh_s": ("linalg.eigh", "total"),
    "cli.self_s": ("cli.main", "self"),
}


def _targets():
    """(span name, original callable) for every traced function and method."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"cqresolve.{layer}")
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in UNWRAPPED:
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                out.append((name, value))
    channel = importlib.import_module("cqresolve.channel")
    out.append(("channel.CQChannel.power", channel.CQChannel.power))
    out.append(("cli.main", importlib.import_module("cqresolve.cli").main))
    return out


SPAN_COST_CALLS = 20000
SPAN_COST_REPEATS = 5


class Tracer:
    """Records (name, start, end, parent, op) spans and per-layer counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._thread = threading.get_ident()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in _targets()}
        # Every place a traced callable is looked up: module globals of the
        # package (including `from .x import f` copies) and the class method.
        self._patches = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cqresolve" and not mod_name.startswith("cqresolve."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    self._patches.append((module, attr, value, wrappers[id(value)]))
        channel = importlib.import_module("cqresolve.channel")
        power = channel.CQChannel.power
        self._patches.append((channel.CQChannel, "power", power, wrappers[id(power)]))

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, ())
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            for metric, amount in counters:
                self.counts[metric] += amount(args, kwargs, result)
            return result

        return traced

    def install(self, op: int) -> None:
        self._op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer seconds and counts summed over every recorded span."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
        out = {metric: (total if kind == "total" else self_time)[span]
               for metric, (span, kind) in TIMES.items()}
        out.update({name: self.counts[name] for name in COUNTS})
        return out

    def dump(self) -> dict:
        """Spans as compact rows plus the name table, for writing at exit."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {"names": names,
                "columns": ["name", "start", "end", "parent", "op"],
                "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
                "counts": dict(self.counts)}


def span_cost() -> float:
    """Seconds a span adds to one call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(SPAN_COST_REPEATS):
        start = clock()
        for _ in range(SPAN_COST_CALLS):
            wrapped()
        middle = clock()
        for _ in range(SPAN_COST_CALLS):
            noop()
        end = clock()
        costs.append(((middle - start) - (end - middle)) / SPAN_COST_CALLS)
    return statistics.median(costs)
