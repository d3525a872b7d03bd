import heapq
import random
from itertools import product

import pytest

from subtree_census.errors import NotATreeError
from subtree_census.graphs import Graph
from subtree_census.census import subtree_stats_bruteforce
from subtree_census.trees import (
    adjacency_lists,
    iter_labeled_trees,
    prufer_edges,
    prufer_sequence,
    subtree_stats_of_tree,
    tree_canonical_code,
    tree_centers,
)


def naive_prufer_decode(seq, n):
    """Textbook decode with a heap of current leaves."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((u, v))
    return edges


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_prufer_decode_matches_naive_exhaustive(n):
    if n == 2:
        assert prufer_edges((), 2) == [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        assert sorted(prufer_edges(seq, n)) == sorted(naive_prufer_decode(seq, n))


def test_prufer_decode_random_large():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(3, 12)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        assert sorted(prufer_edges(seq, n)) == sorted(naive_prufer_decode(seq, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_prufer_sequence_inverts_decode_exhaustive(n):
    for seq in product(range(n), repeat=max(0, n - 2)):
        edges = prufer_edges(seq, n)
        assert prufer_sequence(n, edges) == seq
        assert prufer_sequence(n, edges[::-1]) == seq  # edge order does not matter


def test_prufer_sequence_random_large():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(8, 60)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        assert prufer_sequence(n, prufer_edges(seq, n)) == seq


def test_prufer_sequence_rejects_wrong_edge_count():
    with pytest.raises(NotATreeError):
        prufer_sequence(4, [(0, 1), (1, 2)])


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
def test_labeled_tree_counts(n, count):
    trees = list(iter_labeled_trees(n))
    assert len(trees) == count
    # each really is a tree
    for edges in trees:
        assert Graph.of(n, edges).is_tree()


def test_tree_centers():
    assert tree_centers(1, [[]]) == [0]
    # path 0-1-2-3-4: center 2
    adj = adjacency_lists(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert tree_centers(5, adj) == [2]
    # path on 4: centers 1,2
    adj = adjacency_lists(4, [(0, 1), (1, 2), (2, 3)])
    assert tree_centers(4, adj) == [1, 2]


@pytest.mark.parametrize("n, edges", [
    (3, [(0, 1), (1, 2), (0, 2)]),            # a triangle: n edges
    (4, [(0, 1), (1, 2), (0, 2)]),            # n - 1 edges: a triangle and a lone vertex
    (5, [(0, 1), (1, 2), (2, 3), (3, 1)]),    # n - 1 edges: a pendant edge on a triangle and a lone vertex
    (4, [(0, 1), (2, 3)]),                    # a forest
    (1, [(0, 0)]),                            # a loop
    (0, []),
])
def test_non_trees_raise_instead_of_looping(n, edges):
    with pytest.raises(NotATreeError):
        tree_centers(n, adjacency_lists(n, edges))
    with pytest.raises(NotATreeError):
        tree_canonical_code(n, edges)


def test_canonical_code_invariant_under_relabeling():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]
        assert tree_canonical_code(n, edges) == tree_canonical_code(n, relabeled)


def test_canonical_code_separates_shapes():
    # star vs path on 4 vertices
    star = [(0, 1), (0, 2), (0, 3)]
    path = [(0, 1), (1, 2), (2, 3)]
    assert tree_canonical_code(4, star) != tree_canonical_code(4, path)
    # number of distinct codes on 6 vertices == number of unlabeled trees on 6 == 6
    codes = {tree_canonical_code(6, e) for e in iter_labeled_trees(6)}
    assert len(codes) == 6


def test_canonical_code_of_deep_trees():
    n = 3000
    path = [(v, v + 1) for v in range(n - 1)]
    perm = list(range(n))
    random.Random(3).shuffle(perm)
    relabeled = [(perm[u], perm[v]) for u, v in path]
    random.Random(4).shuffle(relabeled)
    # a spider of the same order: three legs of 1000, 1000 and 999 vertices
    spider = [(0, 1)] + [(v, v + 1) for v in range(1, n - 1) if v % 1000]
    spider += [(0, 1001), (0, 2001)]
    assert Graph.of(n, spider).is_tree()
    code = tree_canonical_code(n, path)
    assert tree_canonical_code(n, relabeled) == code
    assert tree_canonical_code(n, spider) != code


def test_fast_dp_agrees_with_bruteforce():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 9)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        g = Graph.of(n, edges)
        want = subtree_stats_bruteforce(g)
        got = subtree_stats_of_tree(n, adjacency_lists(n, edges))
        assert got == (want.count, want.total_order)
