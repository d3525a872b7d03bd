"""Edge-addition scans by deletion-contraction, against full censuses.

stats(G + e) = stats(G) + through(G + e, e): the subtrees of G + e either
avoid e, and are the subtrees of G, or use it.  `added_edge_stats` gives
the second term for every non-edge e from one pass, and `k_edge_scan`
applies it once per candidate set.  `through_edge_stats` computes that
term for one edge as the difference of two plain censuses, so both routes
are checked here against it, against full censuses of G + e and against
brute force.
"""

import random
from itertools import combinations

import pytest

from subtree_census.census import (
    SubtreeStats,
    _bareiss_det,
    _iter_connected_masks,
    _iter_forest_tables,
    _mask_vertices,
    _tau_mask,
    added_edge_stats,
    mean,
    subtree_stats_bruteforce,
    subtree_stats_kirchhoff,
    through_edge_stats,
)
from subtree_census.errors import TooLargeError
from subtree_census.graphs import Graph, make_complete, make_path, mask_connected, parse_graph6
from subtree_census.search import KEdgeWitness, k_edge_scan

from conftest import random_connected_graph, random_graph
from test_search import _all_connected_graphs_up_to

# order 10; its 2- and 3-edge scans find decreasing sets, the first after
# 4 and 68 candidates
K_WITNESS_G6 = "ILbIibOaw"


def test_added_edge_stats_matches_full_census_on_every_graph_up_to_5():
    graphs = _all_connected_graphs_up_to(5)
    # connected labeled graphs on 1..5 vertices (OEIS A001187)
    assert len(graphs) == 1 + 1 + 4 + 38 + 728
    pairs = 0
    for g in graphs:
        base, through = added_edge_stats(g)
        for e in g.non_edges():
            pairs += 1
            assert base + through[e] == subtree_stats_kirchhoff(g.add_edges([e])), (g, e)
    assert pairs == 3227


def test_through_edge_deletion_side_includes_bridges():
    # stats(G) = stats(G - e) + through(G, e) also when G - e is disconnected
    rng = random.Random(1201)
    bridges = 0
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 7), 0.3)
        stats = subtree_stats_kirchhoff(g)
        for e in sorted(g.edges):
            rest = g.remove_edges([e])
            bridges += not rest.is_connected()
            base, through = _check_added_edge_stats(rest)
            assert base + through[e] == stats, (g, e)
    assert bridges == 42


def test_through_edge_matches_bruteforce_at_orders_6_and_7():
    rng = random.Random(1202)
    cases = [(parse_graph6("FXhew"), (2, 6))]
    for n in (6, 6, 6, 7, 7, 7):
        g = random_connected_graph(rng, n, 0.25)
        cases.append((g, rng.choice(g.non_edges())))
    for g, e in cases:
        h = g.add_edges([e])
        assert (subtree_stats_bruteforce(g) + through_edge_stats(h, *e)
                == subtree_stats_bruteforce(h)), (g, e)


def test_through_edge_of_a_path_edge():
    # the subtrees of P_n through its edge (i, i+1) are the subpaths that
    # cover it: (i+1)(n-1-i) of them
    n = 7
    for i in range(n - 1):
        assert through_edge_stats(make_path(n), i, i + 1).count == (i + 1) * (n - 1 - i)


def test_through_edge_rejects_non_edges_and_large_graphs():
    with pytest.raises(ValueError):
        through_edge_stats(make_path(3), 0, 2)
    with pytest.raises(ValueError):
        through_edge_stats(make_path(3), 1, 1)
    with pytest.raises(TooLargeError):
        through_edge_stats(make_complete(23), 0, 1)


# ---------------------------------------------------------------------------
# k_edge_scan against one full census per candidate set

def _full_census_witnesses(g, fsets):
    mu0 = mean(subtree_stats_kirchhoff(g))
    return tuple(KEdgeWitness(fset, mu0, mu1) for fset in fsets
                 if (mu1 := mean(subtree_stats_kirchhoff(g.add_edges(fset)))) < mu0)


def _full_census_scan(g, k):
    return _full_census_witnesses(g, combinations(sorted(g.non_edges()), k))


@pytest.mark.parametrize("k", [2, 3])
def test_k_edge_scan_matches_full_census_on_small_graphs(k):
    rng = random.Random(1204 + k)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.35)
        assert k_edge_scan(g, k) == _full_census_scan(g, k), g


@pytest.mark.parametrize("k, first", [(2, 300), (3, 100)])
def test_k_edge_scan_matches_full_census_with_witnesses(k, first):
    # full censuses of the first candidate sets (all 300 for k = 2, 100 of
    # 2300 for k = 3) and of every witness
    g = parse_graph6(K_WITNESS_G6)
    got = k_edge_scan(g, k)
    head = list(combinations(sorted(g.non_edges()), k))[:first]
    assert got and got[0].added in head
    assert tuple(w for w in got if w.added in head) == _full_census_witnesses(g, head)
    assert got == _full_census_witnesses(g, [w.added for w in got])


# ---------------------------------------------------------------------------
# added_edge_stats: every non-edge from one pass, against deletion-contraction

def _check_added_edge_stats(g):
    base, through = added_edge_stats(g)
    assert base == subtree_stats_kirchhoff(g)
    assert list(through) == g.non_edges()
    return base, through


def test_added_edge_stats_matches_deletion_contraction_up_to_10():
    rng = random.Random(1901)
    for _ in range(60):
        n = rng.randint(1, 10)
        g = random_connected_graph(rng, n, rng.choice((0.1, 0.25, 0.5)))
        _, through = _check_added_edge_stats(g)
        for e, stats in through.items():
            assert stats == through_edge_stats(g.add_edges([e]), *e), (g, e)


def _max_hooks(g):
    """The most edges by which a vertex joins its parent subset in the pass."""
    return max((g.adjacency[vs[-1]] & mask).bit_count()
               for mask, _, vs, _, _ in _iter_forest_tables(g.adjacency, g.order))


def test_added_edge_stats_matches_deletion_contraction_on_dense_graphs():
    # dense subsets are where joins close many cycles at once: one rank-one
    # step per hook after the first
    rng = random.Random(2402)
    graphs = [random_connected_graph(rng, n, p) for n in (9, 10, 11, 12) for p in (0.8, 0.95)]
    # K_n less a perfect matching: as dense as a graph with n/2 non-edges gets
    graphs += [Graph.of(n, [(u, v) for u, v in combinations(range(n), 2) if v != u + 1 or u % 2])
               for n in (6, 8, 10)]
    for g in graphs:
        assert _max_hooks(g) >= 3
        _, through = _check_added_edge_stats(g)
        assert through, g
        for e, stats in through.items():
            assert stats == through_edge_stats(g.add_edges([e]), *e), (g, e)


def test_added_edge_stats_matches_bruteforce_up_to_7():
    rng = random.Random(1902)
    graphs = [parse_graph6("FXhew")]
    graphs += [random_connected_graph(rng, rng.randint(2, 7), 0.3) for _ in range(10)]
    graphs += [random_graph(rng, rng.randint(2, 6), 0.3) for _ in range(5)]  # may be disconnected
    for g in graphs:
        base, through = _check_added_edge_stats(g)
        assert base == subtree_stats_bruteforce(g)
        for e, stats in through.items():
            assert stats == subtree_stats_bruteforce(g.add_edges([e])) - base, (g, e)


def test_added_edge_stats_edge_cases():
    assert added_edge_stats(Graph.of(0)) == (SubtreeStats(0, 0), {})
    assert added_edge_stats(Graph.of(1)) == (SubtreeStats(1, 1), {})
    # two isolated vertices: the edge's only subtree is itself
    assert added_edge_stats(Graph.of(2)) == (SubtreeStats(2, 2), {(0, 1): SubtreeStats(1, 2)})
    assert added_edge_stats(make_path(2)) == (SubtreeStats(3, 4), {})
    assert added_edge_stats(make_complete(6))[1] == {}
    # closing P_n into C_n: the subtrees of C_n through one edge are the
    # k-vertex arcs that contain it, k - 1 of each order k = 2..n
    n = 8
    _, through = _check_added_edge_stats(make_path(n))
    assert through[(0, n - 1)] == SubtreeStats(
        sum(k - 1 for k in range(2, n + 1)), sum(k * (k - 1) for k in range(2, n + 1)))


def test_added_edge_stats_two_component_sets_carry_tree_counts():
    # two triangles joined by the path 2-3-4-5: for the non-edge 0-7 the set
    # {0, 1, 2, 5, 6, 7} induces two triangles, of weight tau * tau = 9
    g = Graph.of(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)])
    base, through = _check_added_edge_stats(g)
    for e, stats in through.items():
        assert stats == subtree_stats_bruteforce(g.add_edges([e])) - base, e
    # with the path gone every set is two components: A holds 0 and B holds 5,
    # each {x}, an edge (tau 1) or the triangle (tau 3); sum tau = 6 and
    # sum tau * |A| = 1 + 2 + 2 + 9 = 14 on either side
    triangles = Graph.of(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    _, through = _check_added_edge_stats(triangles)
    assert through[(0, 5)] == SubtreeStats(6 * 6, 14 * 6 + 6 * 14)
    assert through[(0, 5)] == through_edge_stats(triangles.add_edges([(0, 5)]), 0, 5)


def _minor_without(g, mask, x, y):
    """The Laplacian of g[mask] less rows and columns x and y: by the
    all-minors matrix-tree theorem, the spanning 2-forests of g[mask] that
    separate x from y."""
    vs = [v for v in _mask_vertices(mask) if v not in (x, y)]
    lap = [[-(g.adjacency[u] >> v & 1) for v in vs] for u in vs]
    for i, u in enumerate(vs):
        lap[i][i] = (g.adjacency[u] & mask).bit_count()
    return _bareiss_det(lap) if lap else 1


def test_forest_tables_match_all_minors_determinants():
    rng = random.Random(2401)
    graphs = [random_connected_graph(rng, n, 0.15) for n in (5, 7, 9)]
    graphs += [random_connected_graph(rng, n, 0.8) for n in (6, 8, 9)]
    graphs += [make_complete(n) for n in (2, 5, 9)]
    graphs.append(Graph.of(9, [(0, 1), (0, 2), (1, 2), (1, 3), (4, 5), (5, 6), (4, 6), (6, 7)]))
    seen = set()
    for g in graphs:
        n = g.order
        masks = []
        for mask, _, vs, tau, table in _iter_forest_tables(g.adjacency, n):
            masks.append(mask)
            assert sorted(vs) == _mask_vertices(mask)
            assert tau == _tau_mask(g, mask), (g, mask)
            want = [0] * (n * n)
            for x in vs:
                for y in vs:
                    if x != y:
                        want[x * n + y] = _minor_without(g, mask, x, y)
            assert table == want, (g, mask)
            # the joining vertex's edges into its parent: 1 hook is a leaf
            # update, each further one a rank-one step
            seen.add((g.adjacency[vs[-1]] & mask).bit_count())
        assert sorted(masks) == [m for m in range(1, 1 << n) if mask_connected(g.adjacency, m)]
    assert {0, 1, 2, 3, 8} <= seen


def test_enumeration_within_a_mask_gives_each_connected_subset_once():
    rng = random.Random(1903)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 9), 0.2)
        within = rng.randrange(1 << g.order)
        got = [mask for mask, _ in _iter_connected_masks(g.adjacency, g.order, within=within)]
        want = [m for m in range(1, 1 << g.order)
                if m & within == m and mask_connected(g.adjacency, m)]
        assert len(got) == len(set(got))
        assert sorted(got) == want
