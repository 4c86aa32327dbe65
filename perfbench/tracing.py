"""Span tracing of the tsnwcd layers from outside the package.

The tracer replaces module attributes with wrappers for the duration of a
``with tracer.installed(api):`` block and restores the originals on exit.
Each wrapper records one span: its name, its parent span (the innermost span
open when it started), its duration and its self time (duration minus the
time covered by its child spans).  Spans are folded into per-(name, parent)
totals as they close, so memory stays flat however many calls a pass makes.

The simulator's ``heapq`` is replaced by a counting proxy: pushes and pops
are counted and pushes are timed, without a span per heap operation.
"""
from __future__ import annotations

import heapq
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  The span name's prefix is the layer.
# validate_testcase is wrapped in every namespace that imported it.
PATCHES = (
    ("testgen", "build_testcase", "testgen.build_testcase"),
    ("netmodel", "save_testcase", "netmodel.save_testcase"),
    ("netmodel", "load_testcase", "netmodel.load_testcase"),
    ("netmodel", "validate_testcase", "netmodel.validate_testcase"),
    ("testgen", "validate_testcase", "netmodel.validate_testcase"),
    ("cbs", "validate_testcase", "netmodel.validate_testcase"),
    ("cqf", "validate_testcase", "netmodel.validate_testcase"),
    ("sim", "validate_testcase", "netmodel.validate_testcase"),
    ("cbs", "tfa_solve", "cbs.tfa_solve"),
    ("cbs", "aggregate_arrival", "cbs.aggregate_arrival"),
    ("cbs", "report_to_json", "cbs.report_to_json"),
    ("cbs", "sum_of", "minplus.sum_of"),
    ("cbs", "min_of", "minplus.min_of"),
    ("cbs", "h_dev", "minplus.h_dev"),
    ("cbs", "shift_delay", "minplus.shift_delay"),
    ("cqf", "solve", "cqf.solve"),
    ("cqf", "report_to_json", "cqf.report_to_json"),
    ("sim", "simulate_cbs", "sim.simulate_cbs"),
    ("sim", "simulate_cqf", "sim.simulate_cqf"),
    ("sim", "report_to_json", "sim.report_to_json"),
)

LAYERS = ("testgen", "netmodel", "cbs", "minplus", "cqf", "sim", "bench")


class HeapProxy:
    """Stands in for the ``heapq`` module inside ``tsnwcd.sim``."""

    def __init__(self):
        self.pushes = 0
        self.pops = 0
        self.push_s = 0.0

    def heappush(self, heap, item):
        t0 = perf_counter()
        heapq.heappush(heap, item)
        self.push_s += perf_counter() - t0
        self.pushes += 1

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)

    def __getattr__(self, name):
        return getattr(heapq, name)


class Tracer:
    def __init__(self):
        self.heap = HeapProxy()
        # (name, parent name or None) -> [count, total seconds, self seconds]
        self.edges: dict[tuple, list] = {}
        self._stack: list[list] = []      # open spans: [name, child seconds]

    def span(self, name, fn, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[1] += dur
            key = (name, parent[0] if parent is not None else None)
            acc = self.edges.setdefault(key, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - frame[1]

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self, api):
        """Wrap every PATCHES entry present in ``api`` (module name ->
        module); entries a later version of the package dropped are
        skipped."""
        saved = []
        try:
            for mod_name, attr, name in PATCHES:
                mod = api[mod_name]
                if hasattr(mod, attr):
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(name, original))
            if hasattr(api["sim"], "heapq"):
                saved.append((api["sim"], "heapq", api["sim"].heapq))
                api["sim"].heapq = self.heap
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # summaries

    def calls(self, name) -> int:
        return sum(v[0] for (n, _), v in self.edges.items() if n == name)

    def total_s(self, name) -> float:
        return sum(v[1] for (n, _), v in self.edges.items() if n == name)

    def self_s(self, name) -> float:
        return sum(v[2] for (n, _), v in self.edges.items() if n == name)

    def layer_self_s(self, layer) -> float:
        return sum(v[2] for (n, _), v in self.edges.items()
                   if n.split(".", 1)[0] == layer)

    def edge_table(self) -> list[dict]:
        return [
            {"span": n, "parent": p, "count": v[0],
             "total_s": v[1], "self_s": v[2]}
            for (n, p), v in sorted(self.edges.items(),
                                    key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]
