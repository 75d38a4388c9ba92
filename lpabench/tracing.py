"""Spans and counts recorded around the calls into each leavittpath module.

The tracer rebinds every public function of the traced modules, in every
``leavittpath`` namespace that holds it (``classify`` imports ``hs_closure``
from ``closures``, so both names are rebound), plus a few ``Graph`` and
``AlgebraElement`` methods and the ``_kernel`` entry points.  Hot per-edge
accessors are counted without a span.  Each span is (name, start, end,
parent span, request id) and all of them stay in memory until the run ends.
A wrap target that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = (
    "graph", "_kernel", "classify", "closures", "ideals", "hedgehog",
    "terms", "oracles", "selftest", "cli",
)
SPAN_METHODS = (
    ("graph", "Graph", "reach_masks"),
    ("terms", "AlgebraElement", "__mul__"),
    ("terms", "AlgebraElement", "__add__"),
)
COUNTED_METHODS = (
    ("graph", "Graph", "index"),
    ("graph", "Graph", "check_vertices"),
)
# Public functions called once per edge, token or term: counted, no span.
COUNT_ONLY = frozenset({
    "graph.is_valid_id", "graph.mult_to_json", "graph.parse_instance",
    "graph.instance_id", "graph.instance_sort_key",
    "terms.make_monomial", "terms.special_edge",
})
# Targets that per-layer metrics are read from; missing ones are reported.
REQUIRED = (
    "graph.parse_graph", "graph.condense", "graph.graph_digest",
    "graph.Graph.index", "graph.Graph.check_vertices", "graph.Graph.reach_masks",
    "_kernel.reach_masks", "_kernel.scc_labels", "_kernel.saturation_fixpoint",
    "classify.csp_class", "classify.properly_infinite", "classify.classify",
    "closures.hs_closure", "closures.saturate_once", "closures.breaking_vertices",
    "closures.breaking_capable", "closures.density_check",
    "ideals.pi_decomposition", "ideals.largest_ideals_report",
    "cli.report_payload", "terms.AlgebraElement.__mul__",
    "terms.AlgebraElement.__add__", "hedgehog.build_hedgehog",
    "selftest.check_graph",
)


def span_name(module: str, qualname: str) -> str:
    """Metric-side name of a target: ``_kernel`` is reported as ``kernel``."""
    return f"{module.lstrip('_')}.{qualname}"


class Tracer:
    """Records spans and counts while installed; restores everything after."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}  # phase -> Counter
        self._phase_counts = [self.counts.setdefault(None, Counter())]
        self.request = None
        self.absent: list = []
        self._stack: list = []
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def tag(self, phase: str, i: int) -> None:
        self.request = (phase, i)
        self._phase_counts[0] = self.counts.setdefault(phase, Counter())

    def _span_wrapper(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, k: int = 1) -> None:
        """Add k to a counter of the current request's phase."""
        self._phase_counts[0][name] += k

    def _count_wrapper(self, name: str, fn):
        current = self._phase_counts

        def wrapper(*args, **kwargs):
            current[0][name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_result(self, name: str):
        count = self.count
        if name == "kernel.saturation_fixpoint":
            def hook(result):
                count("kernel.saturation_rounds", result[1])
            return hook
        if name == "terms.AlgebraElement.__mul__":
            def hook(result):
                if result is not NotImplemented:
                    count("terms.product_terms", len(result.terms))
            return hook
        return None

    # -- installing -----------------------------------------------------------

    def install(self, extra=()) -> None:
        """Wrap every target; ``extra`` adds (module object, attr, name) spans."""
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "leavittpath" or n.startswith("leavittpath."))
        ]
        found = set()
        for short in MODULES:
            try:
                mod = importlib.import_module(f"leavittpath.{short}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = f"{short}.{attr}"
                found.add(key)
                name = span_name(short, attr)
                if key in COUNT_ONLY:
                    wrapper = self._count_wrapper(name, obj)
                else:
                    wrapper = self._span_wrapper(name, obj, self._on_result(name))
                self._rebind_everywhere(namespaces, obj, wrapper)
        for methods, counted in ((SPAN_METHODS, False), (COUNTED_METHODS, True)):
            for short, cls_name, meth in methods:
                mod = sys.modules.get(f"leavittpath.{short}")
                cls = getattr(mod, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    continue
                key = f"{short}.{cls_name}.{meth}"
                found.add(key)
                name = span_name(short, f"{cls_name}.{meth}")
                wrapper = (self._count_wrapper(name, fn) if counted
                           else self._span_wrapper(name, fn, self._on_result(name)))
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, wrapper)
        for mod, attr, name in extra:
            fn = getattr(mod, attr)
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self._span_wrapper(name, fn))
        self.absent = [key for key in REQUIRED if key not in found]

    def _rebind_everywhere(self, namespaces, obj, wrapper) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()
        self.request = None
        self._phase_counts[0] = self.counts[None]


class Layers:
    """Per-name call counts, inclusive and self seconds, for one phase."""

    def __init__(self, spans, phase: str):
        n = len(spans)
        child = [0.0] * n
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_s: Counter = Counter()
        self.top_level: Counter = Counter()
        for idx, (name, start, end, parent, request) in enumerate(spans):
            if request is None or request[0] != phase:
                continue
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur - child[idx]
            module = name.split(".", 1)[0]
            if parent < 0 or spans[parent][0].split(".", 1)[0] != module:
                self.top_level[module] += dur
