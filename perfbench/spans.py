"""Spans for the traced run, recorded at the library's layer boundaries.

A traced child process rebinds public names in the modules that call them
(`families.attach_pendant_stars`, `search.subtree_stats_of_tree`, ...) to
timing wrappers, runs the workload once, and ships the spans to the parent.
Spans live in memory until then.  Hot leaf calls are aggregated into one
entry per (name, parent span) with a call count.  `self_times` turns the
spans into per-layer self times.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

from subtree_census import census, families, graphs, search, stems

ROOT_SPAN = 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.leaves: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, seconds]
        self.graphs: list[graphs.Graph] = []  # census inputs, for the enumeration probe
        self.max_bits: Counter = Counter()
        self._stack = [ROOT_SPAN]
        self._ids = itertools.count(ROOT_SPAN + 1)

    def span(self, name: str, fn, observe=None):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def leaf(self, name: str, fn):
        """Aggregated span for a hot call that contains no traced call."""
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            cell = leaves.get((name, stack[-1]))
            if cell is None:
                leaves[(name, stack[-1])] = [1, elapsed]
            else:
                cell[0] += 1
                cell[1] += elapsed
            return result
        return traced

    def _census_input(self, args, result):
        self.graphs.append(args[0])

    def _required_input(self, args, result):
        if args[2]:  # with no required edge it delegates to marked_census
            self.graphs.append(args[0])

    def _bits(self, key: str, *values: int):
        self.max_bits[key] = max(self.max_bits[key], *(v.bit_length() for v in values))

    def _attach_bits(self, args, result):
        self._bits("census.attach", result.count, result.total_order)

    def _mean_bits(self, args, result):
        self._bits("stems.mean", result.numerator, result.denominator)

    def install(self):
        """Rebind the layer boundaries; returns a function that undoes it."""
        cen, req = self._census_input, self._required_input
        points = [
            # (owner, attribute, span name, kind, observe)
            (graphs, "parse_graph6", "graphs.parse", "leaf", None),
            (graphs.Graph, "add_edges", "graphs.build", "span", None),
            (graphs, "make_double_broom", "graphs.build", "span", None),
            (graphs, "make_fan_broom", "graphs.build", "span", None),
            (graphs, "make_broom_core", "graphs.build", "span", None),
            (graphs, "make_fan_broom_core", "graphs.build", "span", None),
            (families, "make_broom_core", "graphs.build", "span", None),
            (families, "make_fan_broom_core", "graphs.build", "span", None),
            (census, "subtree_stats_kirchhoff", "census.kirchhoff", "span", cen),
            (search, "subtree_stats_kirchhoff", "census.kirchhoff", "span", cen),
            (census, "marked_census", "census.marked", "span", cen),
            (families, "marked_census", "census.marked", "span", cen),
            (census, "census_with_required", "census.required", "span", req),
            (families, "census_with_required", "census.required", "span", req),
            (families, "attach_pendant_stars", "census.attach", "span", self._attach_bits),
            (families, "mean", "census.mean", "span", None),
            (search, "mean", "census.mean", "span", None),
            (search, "prufer_edges", "trees.prufer", "leaf", None),
            (search, "subtree_stats_of_tree", "trees.dp", "leaf", None),
            (families, "find_decrease_witnesses", "families.scan", "span", None),
            (families, "_hub_census", "families.core_census", "span", None),
            (families, "_marked_core_census", "families.core_census", "span", None),
            (families, "_required_core_census", "families.core_census", "span", None),
            (stems, "graph_mean_order", "stems.mean", "span", self._mean_bits),
            (stems, "stem_count", "stems.stem_count", "leaf", None),
            (search, "corpus_scan", "search.corpus", "span", None),
            (search, "tree_bound_sweep", "search.sweep", "span", None),
        ]
        saved = []
        for owner, attr, name, kind, observe in points:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            wrapped = self.span(name, original, observe) if kind == "span" else self.leaf(name, original)
            setattr(owner, attr, wrapped)

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        return restore

    def probe(self) -> dict:
        """Enumerate the connected subsets of every censused graph again,
        alone: the enumeration's own time, the subset count, and the Bareiss
        work computed from subset sizes as floor(sum (k-1)**3 / 3)."""
        sizes: Counter = Counter()
        elapsed = 0.0
        for g in self.graphs:
            start = time.perf_counter()
            sizes.update(map(len, census.iter_connected_subsets(g)))
            elapsed += time.perf_counter() - start
        return {"subsets": sum(sizes.values()),
                "bareiss_ops": sum(c * (k - 1) ** 3 for k, c in sizes.items()) // 3,
                "enumerate_s": elapsed}

    def export(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "leaves": [[name, parent, calls, secs]
                           for (name, parent), (calls, secs) in self.leaves.items()],
                "max_bits": dict(self.max_bits)}


def self_times(trace: dict) -> tuple[dict[str, float], Counter]:
    """Self time and call count per span name.  A span's self time is its
    duration minus the time of the spans and leaf entries directly under it."""
    spans = trace["spans"]
    child_time: dict[int, float] = {}
    for _, _, start, end, parent in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for _, parent, _, secs in trace["leaves"]:
        child_time[parent] = child_time.get(parent, 0.0) + secs
    selfs: dict[str, float] = {}
    calls: Counter = Counter()
    for sid, name, start, end, _ in spans:
        selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        calls[name] += 1
    for name, _, n, secs in trace["leaves"]:
        selfs[name] = selfs.get(name, 0.0) + secs
        calls[name] += n
    return selfs, calls
