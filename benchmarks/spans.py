"""Outside-in tracing of the walshcube layers for the benchmark's traced run.

The library has no tracing of its own, so spans are recorded from here:
every public function of each layer module is wrapped wherever it is bound
(the package namespace and every module that imported it with
``from .x import name``), and the validating constructors are wrapped at
their class.  Patching only the owning module would miss the calls that
`estimators` and `inequalities` make through their own imported names.

A span is ``(name, start_ns, end_ns, parent_index, count)``; ``count`` is
the work a call does as an exact number (sign patterns, computed bytes),
taken from its arguments.  Spans stay in memory and are written out once,
at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "hypercube",
    "operators",
    "norms",
    "inequalities",
    "martingales",
    "estimators",
    "verification",
)

# Constructors and alternate constructors whose validation is a layer cost.
CLASS_METHODS = {
    "hypercube": {
        "HypercubeFunction": ("__init__", "from_values"),
        "WalshSpectrum": ("__init__", "from_coefficients"),
    },
    "martingales": {
        "FiniteFiltration": ("__init__", "dyadic"),
        "MartingaleSequence": ("__init__",),
    },
}


def _sign_patterns(tables, p, space, plan, weights=None) -> int:
    return (1 << tables.shape[0]) if plan.mode == "exact" else plan.samples


def _umd_patterns(M, p, space, signs=None) -> int:
    return 1 if signs is not None else 1 << M.steps


def _butterfly_bytes(table, n: int) -> int:
    # Computed, not measured: each of the n stages reads and writes the table once.
    return 2 * n * table.nbytes


COUNTERS = {
    "hypercube.walsh_forward": lambda f: _butterfly_bytes(f.values, f.n),
    "hypercube.walsh_inverse": lambda s: _butterfly_bytes(s.coefficients, s.n),
    "norms.signed_combination_average": _sign_patterns,
    "martingales.umd_ratio": _umd_patterns,
}

# The call that evaluates a search's functional once, per functional family.
OBJECTIVE_ENTRY_POINTS = ("inequalities.pisier_lhs", "martingales.make_dyadic_martingale")
SEARCH_SPAN = "estimators.maximize_ratio"


class Tracer:
    """Collects spans from the wrappers it hands out; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            count = counter(*args, **kwargs) if counter is not None else 0
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, count)

        return traced

    def clear(self) -> None:
        self.spans.clear()


@contextmanager
def patched(tracer: Tracer):
    """Route every layer call through `tracer` for the duration of the block."""
    wrappers = {}  # id(original) -> (original, wrapper)
    restore = []  # (owner, attribute, original)
    for layer in LAYERS:
        module = sys.modules[f"walshcube.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, tracer.wrap(name, fn, COUNTERS.get(name)))
        for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                raw = cls.__dict__[method]
                name = f"{layer}.{cls_name}.{method}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(name, raw.__func__))
                else:
                    wrapped = tracer.wrap(name, raw)
                setattr(cls, method, wrapped)
                restore.append((cls, method, raw))
    for module_name, module in list(sys.modules.items()):
        if module_name != "walshcube" and not module_name.startswith("walshcube."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                restore.append((module, attr, value))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


class SpanTotals:
    """Per-name sums over any number of span lists (calls, ns, counts)."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.inclusive_ns = defaultdict(int)
        self.count = defaultdict(int)
        self.objective_calls = 0
        self.searches = 0

    def add(self, spans) -> None:
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent, count = span
            self.calls[name] += 1
            self.self_ns[name] += own
            self.inclusive_ns[name] += end - start
            self.count[name] += count
            if name == SEARCH_SPAN:
                self.searches += 1
            elif name in OBJECTIVE_ENTRY_POINTS and parent >= 0 and spans[parent][0] == SEARCH_SPAN:
                self.objective_calls += 1

    def _sum(self, table, names) -> int:
        return sum(table[name] for name in names)

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".", 1)[0] == layer)

    def per_layer(self, ops: int) -> dict[str, float]:
        """The benchmark's per-layer metrics, each per operation."""
        s = 1e-9 / ops  # ns summed over `ops` operations -> seconds per operation

        construct = ("hypercube.HypercubeFunction.__init__", "hypercube.WalshSpectrum.__init__")
        walsh = ("hypercube.walsh_forward", "hypercube.walsh_inverse")
        sign_average = ("norms.signed_combination_average", "norms.rademacher_average")
        kernel = "norms.signed_combination_average"
        patterns = self.count[kernel]
        kernel_ns = self.inclusive_ns[kernel]
        metrics = {
            "estimators.objective_calls_per_cert": (
                self.objective_calls / self.searches if self.searches else 0.0
            ),
            "estimators.search.self_s": self.self_ns[SEARCH_SPAN] * s,
            "hypercube.construct.calls": self._sum(self.calls, construct) / ops,
            "hypercube.construct.self_s": self._sum(
                self.self_ns,
                construct
                + ("hypercube.HypercubeFunction.from_values", "hypercube.WalshSpectrum.from_coefficients"),
            )
            * s,
            "hypercube.walsh.calls": self._sum(self.calls, walsh) / ops,
            "hypercube.walsh.self_s": self._sum(self.self_ns, walsh) * s,
            "hypercube.walsh.bytes_computed": self._sum(self.count, walsh) / ops,
            "operators.derivative_stack.self_s": self.self_ns["operators.derivative_stack"] * s,
            "operators.conditional_expectation.self_s": (
                self.self_ns["operators.conditional_expectation"] * s
            ),
            "operators.fractional_laplacian.self_s": (
                self.self_ns["operators.fractional_laplacian"] * s
            ),
            "norms.sign_average.calls": self.calls[kernel] / ops,
            "norms.sign_average.self_s": self._sum(self.self_ns, sign_average) * s,
            "norms.sign_average.patterns": patterns / ops,
            "norms.sign_average.patterns_per_s": patterns / (kernel_ns * 1e-9) if kernel_ns else 0.0,
            "norms.lp_norm.self_s": self.self_ns["norms.lp_norm"] * s,
            "martingales.filtration.self_s": self._sum(
                self.self_ns,
                ("martingales.FiniteFiltration.__init__", "martingales.FiniteFiltration.dyadic"),
            )
            * s,
            "martingales.sequence.self_s": self.self_ns["martingales.MartingaleSequence.__init__"] * s,
            "martingales.umd_ratio.self_s": self.self_ns["martingales.umd_ratio"] * s,
            "martingales.umd_ratio.patterns": self.count["martingales.umd_ratio"] / ops,
            "martingales.lp_norm.self_s": self.self_ns["martingales.martingale_lp_norm"] * s,
            "verification.suite.s": self.inclusive_ns["verification.run_verification_suite"] * s,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self.layer_self_ns(layer) * s
        return metrics


def write_spans(path, spans) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent index, count."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps(["name", "start_ns", "end_ns", "parent", "count"]) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")
