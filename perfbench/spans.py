"""Span tracing of pcgraph's public functions, from outside the package.

A :class:`Tracer` wraps selected functions by rebinding their names in
every loaded ``pcgraph`` module (and on the ``ElemFn`` class for its
two methods), so calls that resolve those names at call time go
through a wrapper.  Each call records one span: the function, its
start and end, and the span that was open when it started.  Spans stay
in memory and are folded into per-function totals by :meth:`fold`;
a span's self time is its duration minus the durations of its direct
children, which on a single thread exactly covers the part of the span
the children occupy.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Span name -> (module, attribute).  "Class.method" attributes are
# rebound on the class; plain names in every pcgraph module that holds
# the same function object.
TRACED = {
    "models.build_model": ("models", "build_model"),
    "leveller.level": ("leveller", "level"),
    "graph.topological_sort": ("graph", "topological_sort"),
    "graph.min_distances": ("graph", "min_distances"),
    "graph.path_length_sets": ("graph", "path_length_sets"),
    "graph.level_structure": ("graph", "level_structure"),
    "graph.param_keys": ("graph", "param_keys"),
    "graph.check_params": ("graph", "check_params"),
    "autodiff.forward": ("autodiff", "forward"),
    "autodiff.backprop": ("autodiff", "backprop"),
    "autodiff.collect_updates": ("autodiff", "collect_updates"),
    "functions.ElemFn.call": ("functions", "ElemFn.__call__"),
    "functions.ElemFn.vjp": ("functions", "ElemFn.vjp"),
    "numerics.fsum_arrays": ("numerics", "fsum_arrays"),
    "numerics.l2_norm": ("numerics", "l2_norm"),
    "pc.init_state": ("pc", "init_state"),
    "pc.inference_step": ("pc", "inference_step"),
    "pc.extract_updates": ("pc", "extract_updates"),
    "pc.il_train_step": ("pc", "il_train_step"),
    "zil.make_schedule": ("zil", "make_schedule"),
    "zil.zil_train_step": ("zil", "zil_train_step"),
    "zil.zil_ablate": ("zil", "zil_ablate"),
    "zil.check_quiet_window": ("zil", "check_quiet_window"),
    "report.make_report": ("report", "make_report"),
    "report.divergence": ("report", "divergence"),
}

class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        # fsum_arrays also counts the array components it summed.
        count_components = name == "numerics.fsum_arrays"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if count_components:
                counts[f"{name}.components"] += result.size
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = {key: mod for key, mod in sys.modules.items()
                   if key == "pcgraph" or key.startswith("pcgraph.")}
        for name, (module, attr) in TRACED.items():
            owner = modules[f"pcgraph.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        return self

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def fold(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-function self time and call count of the spans recorded
        since the last fold; the spans are then dropped."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        # A child span is appended after its parent, so a reverse walk
        # sees every child's duration before its parent's self time.
        for index in range(len(spans) - 1, -1, -1):
            name, parent, start, end = spans[index]
            duration = end - start
            self_s[name] += duration - child_time[index]
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += duration
        spans.clear()
        return dict(self_s), dict(calls)

    def take_counts(self) -> dict[str, int]:
        counts = dict(self.counts)
        self.counts.clear()
        return counts
