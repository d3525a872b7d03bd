"""Counterexample and property scans.

* `k_edge_scan`: find k-sets of non-edges whose joint addition strictly
  decreases the mean subtree order; `corpus_scan` runs it with k = 1 over
  a newline-delimited graph6 stream.  For each prefix P = (f_1, ...,
  f_{k-1}) of the candidate sets, one `added_edge_stats` pass over G + P
  gives stats(G + P) and the statistics of the subtrees through every
  further edge e, so
  stats(G + P + e) = stats(G + P) + through(G + P + e, e) for all e at
  once; for k = 1 that is one pass per graph.
* `tree_bound_sweep`: verify mu(T) >= (n+2)/3 over every labeled tree,
  with equality exactly on paths.  It runs the tree DP once per
  isomorphism class, weighted by the class's n!/|Aut T| labelings; the
  labeled Prüfer sweep `_sweep_range` survives as its test oracle.

All comparisons are exact rationals; reports are deterministically ordered
and independent of the worker count.
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial
from typing import Iterable, Iterator, NamedTuple

from .census import added_edge_stats, compare_means, mean, subtree_stats_kirchhoff
from .errors import Graph6Error, InvariantViolation, TooLargeError
from .graphs import Edge, Graph, iter_graph6_lines
from .limits import CORPUS_MAX, SCAN_MAX, SWEEP_MAX
from .trees import adjacency_lists, prufer_edges, prufer_sequence, subtree_stats_of_tree


# ---------------------------------------------------------------------------
# k-edge scan

class KEdgeWitness(NamedTuple):
    added: tuple[Edge, ...]
    mu_before: Fraction
    mu_after: Fraction


def k_edge_scan(g: Graph, k: int) -> tuple[KEdgeWitness, ...]:
    """Every k-set of non-edges whose joint addition strictly decreases the
    mean subtree order, in lexicographic order.

    Means are compared by `compare_means`.  The candidate sets sharing
    their first k - 1 edges P are consecutive and take their statistics
    from one `added_edge_stats` pass over g + P.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if g.order > SCAN_MAX:
        raise TooLargeError(f"k-edge scan capped at {SCAN_MAX} vertices")
    if not g.is_connected():
        raise ValueError("k-edge scan requires a connected graph")
    if k == 0:
        return ()  # combinations(..., 0) yields one empty set, with no last edge
    # for k = 1 the one pass, over g itself, gives stats(g) as well
    base = subtree_stats_kirchhoff(g) if k > 1 else None
    witnesses = []
    prefix = None
    for fset in combinations(sorted(g.non_edges()), k):
        if fset[:-1] != prefix:
            prefix = fset[:-1]
            start, through = added_edge_stats(g.add_edges(prefix))
            if base is None:
                base = start
        after = start + through[fset[-1]]
        if compare_means(after.total_order, after.count,
                         base.total_order, base.count) < 0:
            witnesses.append(KEdgeWitness(fset, mean(base), mean(after)))
    return tuple(witnesses)


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
    return [ScanInstance(g.order, text, w.added[0], w.mu_before, w.mu_after)
            for w in k_edge_scan(g, 1)]


def corpus_scan(lines: Iterable[str], max_order: int = CORPUS_MAX,
                jobs: int = 1, source: str = "<stream>") -> ScanReport:
    """Edge-addition scan over a graph6 stream.

    Malformed lines are logged with their line number and the scan
    continues; oversized or disconnected entries are skipped with a notice.
    The report is byte-identical across runs and worker counts.
    """
    if max_order > CORPUS_MAX:
        raise TooLargeError(f"corpus scan capped at order {CORPUS_MAX}")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
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
# Lower-bound sweep over the trees, one per isomorphism class

@dataclass(frozen=True)
class TreeBoundReport:
    n_max: int
    trees_checked: int
    equalities: dict[int, int]   # n -> labeled trees with mu == (n+2)/3
    paths: dict[int, int]        # n -> labeled paths seen
    violations: tuple[tuple, ...]
    passed: bool


def _forest_aut(kids: tuple[int, ...], aut: list[int]) -> int:
    """|Aut| of a forest of rooted trees, given by ids with equal ids
    adjacent: the product of the trees' own |Aut|, times k! for each tree
    that occurs k times."""
    result = 1
    run = 0
    for i, t in enumerate(kids):
        run = run + 1 if i and kids[i - 1] == t else 1
        result *= aut[t] * run
    return result


def _multisets(pool: list[int], order: list[int], total: int,
               start: int = 0) -> Iterator[tuple[int, ...]]:
    """Multisets of the trees in `pool` (ids sorted by order) with `total`
    vertices in all, each once, as id tuples in pool order."""
    if total == 0:
        yield ()
        return
    for i in range(start, len(pool)):
        t = pool[i]
        if order[t] > total:
            return
        for rest in _multisets(pool, order, total - order[t], i):
            yield (t,) + rest


class _RootedTrees:
    """The rooted trees on 1..m_max vertices, one per isomorphism class,
    generated by order: those of order m are a root over each multiset of
    smaller ones with m - 1 vertices in all.

    Tree t is kept as its order, its |Aut| and the parent of each vertex
    1..order-1, numbered in preorder from the root 0.  Ids are sorted by
    order.  A forest is a tuple of tree ids with equal ids adjacent."""

    def __init__(self, m_max: int):
        self.order = [1]
        self.aut = [1]
        self.parents: list[list[int]] = [[]]
        for m in range(2, m_max + 1):
            for kids in _multisets(list(range(len(self.order))), self.order, m - 1):
                self.order.append(m)
                self.aut.append(_forest_aut(kids, self.aut))
                self.parents.append(self.join(kids))

    def join(self, kids: tuple[int, ...]) -> list[int]:
        """Preorder parents of a new root with these children."""
        parents = []
        offset = 1
        for c in kids:
            parents.append(0)
            parents.extend(offset + p for p in self.parents[c])
            offset += self.order[c]
        return parents


def _tree_classes(n_max: int) -> Iterator[tuple[int, list[tuple[int, int]], int]]:
    """(n, edges, |Aut|) for one tree of every isomorphism class on
    1..n_max vertices, by its centroid (Jordan): a root whose branches all
    have fewer than n/2 vertices, or two rooted trees of order n/2 joined at
    their roots.  Every automorphism fixes the centroid or the central edge,
    so |Aut| is that of the forest below it.  Wright, Richmond, Odlyzko and
    McKay (1986)."""
    rooted = _RootedTrees(n_max // 2)
    order = rooted.order
    for n in range(1, n_max + 1):
        small = list(range(bisect_right(order, (n - 1) // 2)))
        for kids in _multisets(small, order, n - 1):
            yield n, list(zip(rooted.join(kids), range(1, n))), _forest_aut(kids, rooted.aut)
        if n % 2 == 0:
            half = range(bisect_left(order, n // 2), bisect_right(order, n // 2))
            for s, t in combinations_with_replacement(half, 2):
                parents = rooted.parents[s] + [0] + [order[s] + p for p in rooted.parents[t]]
                yield n, list(zip(parents, range(1, n))), _forest_aut((s, t), rooted.aut)


def _sweep_range(n: int, first_symbols: tuple[int, ...]) -> tuple[int, int, int, list]:
    """The labeled sweep, kept as the test oracle of `tree_bound_sweep`:
    the labeled trees on n vertices whose Prüfer sequence starts with one
    of `first_symbols` (all trees when n < 3).

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


def tree_bound_sweep(n_max: int) -> TreeBoundReport:
    """Check mu(T) >= (n+2)/3 on every labeled tree with at most n_max
    vertices, and that equality holds exactly on paths.

    Both sides are invariant under relabeling, so the DP runs once per
    isomorphism class, weighted by its n!/|Aut| labelings.  The weights of
    each order must sum to n**(n-2) (Cayley), or `InvariantViolation` is
    raised.  A violation names the Prüfer sequence of one labeled member of
    its class.
    """
    if n_max > SWEEP_MAX:
        raise TooLargeError(f"labeled-tree sweep capped at {SWEEP_MAX} vertices")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    equalities = dict.fromkeys(range(1, n_max + 1), 0)
    paths = dict.fromkeys(range(1, n_max + 1), 0)
    labelings = dict.fromkeys(range(1, n_max + 1), 0)
    violations: list = []
    for n, edges, aut in _tree_classes(n_max):
        weight = factorial(n) // aut
        labelings[n] += weight
        adj = adjacency_lists(n, edges)
        count, total = subtree_stats_of_tree(n, adj)
        lhs = 3 * total
        rhs = (n + 2) * count
        is_path = max(map(len, adj)) <= 2
        reasons = []
        if lhs < rhs:
            reasons.append("below bound")
        elif lhs == rhs:
            equalities[n] += weight
            if not is_path:
                reasons.append("equality off a path")
        if is_path:
            paths[n] += weight
            if lhs != rhs:
                reasons.append("path not tight")
        violations.extend((n, prufer_sequence(n, edges), r) for r in reasons)
    for n, weight in labelings.items():
        if weight != n ** max(0, n - 2):
            raise InvariantViolation(
                f"tree classes on {n} vertices cover {weight} labeled trees, "
                f"not n**(n-2) = {n ** max(0, n - 2)}")
    violations.sort(key=lambda v: v[:2])
    return TreeBoundReport(n_max, sum(labelings.values()), equalities, paths,
                           tuple(violations), not violations)
