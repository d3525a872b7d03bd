"""Counterexample and property scans.

* `edge_addition_scan` / `corpus_scan`: find single-edge additions that
  strictly decrease the mean subtree order, over one graph or over a
  newline-delimited graph6 stream.
* `k_edge_scan`: the k-edge generalization with an explicit budget.  It
  censuses G once, then each set F = (f_1, ..., f_k) by deletion-contraction
  of one edge at a time: stats(G + F) = stats(G) + the sum over i of
  through_edge_stats(G + f_1 + ... + f_i, f_i).
* `tree_bound_sweep`: verify mu(T) >= (n+2)/3 over every labeled tree,
  with equality exactly on paths.

All comparisons are exact rationals; reports are deterministically ordered
and independent of the worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, NamedTuple

from .census import mean, subtree_stats_kirchhoff, through_edge_stats
from .errors import Graph6Error, TooLargeError
from .graphs import Edge, Graph, iter_graph6_lines
from .limits import CORPUS_MAX, SCAN_MAX, SWEEP_MAX
from .trees import adjacency_lists, prufer_edges, subtree_stats_of_tree


class EdgeAdditionHit(NamedTuple):
    added: Edge
    mu_before: Fraction
    mu_after: Fraction


def edge_addition_scan(g: Graph) -> list[EdgeAdditionHit]:
    """Non-edges whose addition strictly decreases the mean subtree order;
    `k_edge_scan` with k = 1."""
    return [EdgeAdditionHit(w.added[0], w.mu_before, w.mu_after)
            for w in k_edge_scan(g, 1).witnesses]


# ---------------------------------------------------------------------------
# Corpus scan

class ScanInstance(NamedTuple):
    order: int
    graph_id: str          # the graph6 text
    added: Edge
    mu_before: Fraction
    mu_after: Fraction


@dataclass(frozen=True)
class ScanReport:
    source: str
    max_order: int
    graphs_scanned: int
    instances: tuple[ScanInstance, ...]     # sorted by (order, id, edge)
    parse_errors: tuple[tuple[int, str], ...]
    skipped: tuple[tuple[int, str], ...]

    @property
    def min_order(self) -> int | None:
        return self.instances[0].order if self.instances else None


def _scan_entry(item: tuple[str, Graph]) -> list[ScanInstance]:
    text, g = item
    return [ScanInstance(g.order, text, hit.added, hit.mu_before, hit.mu_after)
            for hit in edge_addition_scan(g)]


def corpus_scan(lines: Iterable[str], max_order: int = CORPUS_MAX,
                jobs: int = 1, source: str = "<stream>") -> ScanReport:
    """Edge-addition scan over a graph6 stream.

    Malformed lines are logged with their line number and the scan
    continues; oversized or disconnected entries are skipped with a notice.
    The report is byte-identical across runs and worker counts.
    """
    if max_order > CORPUS_MAX:
        raise TooLargeError(f"corpus scan capped at order {CORPUS_MAX}")
    entries: list[tuple[str, Graph]] = []
    errors: list[tuple[int, str]] = []
    skipped: list[tuple[int, str]] = []
    for line_no, text, result in iter_graph6_lines(lines):
        if isinstance(result, Graph6Error):
            errors.append((line_no, str(result)))
        elif result.order > max_order:
            skipped.append((line_no, f"order {result.order} exceeds max order {max_order}"))
        elif not result.is_connected():
            skipped.append((line_no, "disconnected graph"))
        else:
            entries.append((text, result))
    if jobs > 1 and len(entries) > 1:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            per_entry = pool.map(_scan_entry, entries, chunksize=16)
    else:
        per_entry = [_scan_entry(item) for item in entries]
    instances = sorted(
        (inst for batch in per_entry for inst in batch),
        key=lambda i: (i.order, i.graph_id, i.added))
    return ScanReport(source, max_order, len(entries), tuple(instances),
                      tuple(errors), tuple(skipped))


# ---------------------------------------------------------------------------
# k-edge scan

class KEdgeWitness(NamedTuple):
    added: tuple[Edge, ...]
    mu_before: Fraction
    mu_after: Fraction


@dataclass(frozen=True)
class KEdgeScanResult:
    witnesses: tuple[KEdgeWitness, ...]
    examined: int
    exhausted: bool  # False means the budget ran out before the search space


def k_edge_scan(g: Graph, k: int, budget: int | None = None,
                early_exit: bool = False) -> KEdgeScanResult:
    """Find k-subsets of non-edges whose joint addition decreases the mean.

    Candidate sets are tried in lexicographic order.  `budget` bounds the
    number of candidate sets examined; running out of budget is reported
    distinctly from exhausting the space.  With `early_exit` the scan stops
    at the first witness.  Means are compared by cross-multiplication.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if g.order > SCAN_MAX:
        raise TooLargeError(f"k-edge scan capped at {SCAN_MAX} vertices")
    if not g.is_connected():
        raise ValueError("k-edge scan requires a connected graph")
    if k == 0:
        return KEdgeScanResult((), 0, True)
    base = subtree_stats_kirchhoff(g)
    witnesses = []
    examined = 0
    exhausted = True
    for fset in combinations(sorted(g.non_edges()), k):
        if budget is not None and examined >= budget:
            exhausted = False
            break
        examined += 1
        after = sum((through_edge_stats(g.add_edges(fset[:i + 1]), *fset[i])
                     for i in range(k)), base)
        if after.total_order * base.count < base.total_order * after.count:
            witnesses.append(KEdgeWitness(fset, mean(base), mean(after)))
            if early_exit:
                break
    return KEdgeScanResult(tuple(witnesses), examined, exhausted)


# ---------------------------------------------------------------------------
# Lower-bound sweep over all labeled trees

@dataclass(frozen=True)
class TreeBoundReport:
    n_max: int
    trees_checked: int
    equalities: dict[int, int]   # n -> trees with mu == (n+2)/3
    paths: dict[int, int]        # n -> labeled paths seen
    violations: tuple[tuple, ...]
    passed: bool


def _sweep_range(n: int, first_symbols: tuple[int, ...]) -> tuple[int, int, int, list]:
    """Sweep the labeled trees on n vertices whose Prüfer sequence starts
    with one of `first_symbols` (all trees when n < 3).

    Returns (checked, equalities, paths, violations).  The bound check is
    integer-only: 3*total >= (n+2)*count, equality exactly on paths, and a
    tree is a path exactly when its Prüfer symbols are pairwise distinct.
    """
    if n < 3:
        return 1, 1, 1, []  # the single tree is a path: mu = 1 or 4/3 = (n+2)/3
    checked = 0
    equalities = 0
    paths = 0
    violations: list = []
    bound = n + 2
    for head in first_symbols:
        for rest in product(range(n), repeat=n - 3):
            seq = (head,) + rest
            adj = adjacency_lists(n, prufer_edges(seq, n))
            count, total = subtree_stats_of_tree(n, adj)
            checked += 1
            lhs = 3 * total
            rhs = bound * count
            is_path = len(set(seq)) == n - 2
            if lhs < rhs:
                violations.append((n, seq, "below bound"))
            elif lhs == rhs:
                equalities += 1
                if not is_path:
                    violations.append((n, seq, "equality off a path"))
            if is_path:
                paths += 1
                if lhs != rhs:
                    violations.append((n, seq, "path not tight"))
    return checked, equalities, paths, violations


def tree_bound_sweep(n_max: int, jobs: int = 1) -> TreeBoundReport:
    """Check mu(T) >= (n+2)/3 on every labeled tree with at most n_max
    vertices, and that equality holds exactly on paths."""
    if n_max > SWEEP_MAX:
        raise TooLargeError(f"labeled-tree sweep capped at {SWEEP_MAX} vertices")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    trees_checked = 0
    equalities: dict[int, int] = {}
    paths: dict[int, int] = {}
    violations: list = []
    for n in range(1, n_max + 1):
        if n >= 8 and jobs > 1:
            args = [(n, (h,)) for h in range(n)]
            with multiprocessing.get_context("fork").Pool(jobs) as pool:
                parts = pool.starmap(_sweep_range, args)
        else:
            parts = [_sweep_range(n, tuple(range(n)))]
        c = e = p = 0
        for pc, pe, pp, pv in parts:
            c += pc
            e += pe
            p += pp
            violations.extend(pv)
        trees_checked += c
        equalities[n] = e
        paths[n] = p
    return TreeBoundReport(n_max, trees_checked, equalities, paths,
                           tuple(violations), not violations)
