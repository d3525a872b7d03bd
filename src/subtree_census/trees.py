"""Labeled-tree utilities: Prüfer codec, exhaustive enumeration, canonical
forms, and an allocation-light subtree DP for sweeps over millions of trees.

The canonical code and the subtree DP share one traversal, `_bfs_order`,
and both fold each vertex into its parent in reverse BFS order, so neither
recurses nor builds children lists.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from .errors import NotATreeError


def prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on 0..n-1 with Prüfer sequence `seq`."""
    if n < 2:
        if seq:
            raise ValueError("nonempty sequence for a tree with < 2 vertices")
        return []
    if len(seq) != n - 2:
        raise ValueError("sequence length must be n-2")
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    # pointer scan: repeatedly attach the smallest current leaf
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, x) if leaf < x else (x, leaf))
        deg[leaf] -= 1
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
            ptr += 1
    u = -1
    for v in range(n):
        if deg[v] == 1:
            if u < 0:
                u = v
            else:
                edges.append((u, v))
                break
    return edges


def prufer_sequence(n: int, edges: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Prüfer sequence of the labeled tree on 0..n-1 with these edges, the
    inverse of `prufer_edges`: remove the smallest leaf n - 2 times and
    record its neighbour each time, with the same pointer scan."""
    if len(edges) != max(0, n - 1):
        raise NotATreeError(f"{len(edges)} edges on {n} vertices")
    adj = adjacency_lists(n, edges)
    deg = [len(a) for a in adj]
    seq = []
    ptr = leaf = deg.index(1) if n > 2 else 0
    for _ in range(n - 2):
        deg[leaf] = 0
        x = next(u for u in adj[leaf] if deg[u])
        seq.append(x)
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    return tuple(seq)


def iter_labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """All n**(n-2) labeled trees on 0..n-1 as edge lists, in the
    lexicographic order of their Prüfer sequences."""
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    for seq in product(range(n), repeat=max(n - 2, 0)):
        yield prufer_edges(seq, n)


def adjacency_lists(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def tree_centers(n: int, adj: list[list[int]]) -> list[int]:
    """One or two central vertices, by iterative leaf stripping.  Raises
    `NotATreeError` unless there are n - 1 edges and stripping reaches every
    vertex; it never reaches a cycle's vertices."""
    deg = [len(adj[v]) for v in range(n)]
    if sum(deg) != 2 * (n - 1):
        raise NotATreeError(f"{sum(deg) // 2} edges on {n} vertices")
    if n == 1:
        return [0]
    layer = [v for v in range(n) if deg[v] == 1]
    removed = len(layer)
    while removed < n:
        if not layer:
            raise NotATreeError("the graph has a cycle")
        nxt = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        removed += len(nxt)
        layer = nxt
    return sorted(layer)


def _bfs_order(adj: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    """The vertices reachable from `root` in BFS order, and each one's parent
    (-1 for the root).  Every vertex comes after its parent, so a reverse
    scan of `order` meets each vertex after all of its descendants."""
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    parent[root] = -1
    return order, parent


def tree_canonical_code(n: int, edges: Sequence[tuple[int, int]]) -> str:
    """Label-independent canonical form: the AHU bracket code of the tree
    rooted at its centre, or the sorted join of the two halves' codes when
    the tree has two centres.

    Each vertex's code, the sorted codes of its children in brackets, is
    folded into its parent.  The centres fold into a virtual vertex n
    instead, so the second centre stays out of the first one's code."""
    adj = adjacency_lists(n, edges)
    centers = tree_centers(n, adj)
    order, parent = _bfs_order(adj, centers[0])
    for c in centers:
        parent[c] = n
    parts: list[list[str]] = [[] for _ in range(n + 1)]
    for v in reversed(order):
        kids = parts[v]
        if kids:
            kids.sort()
            parts[parent[v]].append("(" + "".join(kids) + ")")
        else:
            parts[parent[v]].append("()")
    return "".join(sorted(parts[n]))


def subtree_stats_of_tree(n: int, adj: list[list[int]]) -> tuple[int, int]:
    """(count, total order) of the subtrees of a tree.

    f[v] and g[v] count the subtrees whose vertex nearest the root is v and
    sum their orders.  Folding a finished child v into its parent p lets
    each subtree at p either skip v's branch or join one of v's f[v]
    subtrees, which adds their orders."""
    order, parent = _bfs_order(adj, 0)
    f = [1] * n
    g = [1] * n
    for v in order[:0:-1]:
        p = parent[v]
        fv = f[v] + 1
        g[p] = g[p] * fv + f[p] * g[v]
        f[p] *= fv
    return sum(f), sum(g)
