"""Edge-addition scans by deletion-contraction, against full censuses.

stats(G + e) = stats(G) + through_edge_stats(G + e, e): the subtrees of
G + e either avoid e, and are the subtrees of G, or use it.  `k_edge_scan`
applies that rule once per edge of each candidate set, so each route is
checked here against a full census of the augmented graph.
"""

import random
from itertools import combinations

import pytest

from subtree_census.census import (
    _iter_connected_masks,
    mean,
    subtree_stats_bruteforce,
    subtree_stats_kirchhoff,
    through_edge_stats,
)
from subtree_census.errors import TooLargeError
from subtree_census.graphs import make_complete, make_path, mask_connected, parse_graph6
from subtree_census.search import KEdgeScanResult, KEdgeWitness, k_edge_scan

from conftest import random_connected_graph
from test_search import _all_connected_graphs_up_to

# order 10; its 2- and 3-edge scans find decreasing sets, the first after
# 4 and 68 candidates
K_WITNESS_G6 = "ILbIibOaw"


def test_through_edge_matches_full_census_on_every_graph_up_to_5():
    graphs = _all_connected_graphs_up_to(5)
    # connected labeled graphs on 1..5 vertices (OEIS A001187)
    assert len(graphs) == 1 + 1 + 4 + 38 + 728
    for g in graphs:
        base = subtree_stats_kirchhoff(g)
        for e in g.non_edges():
            h = g.add_edges([e])
            assert base + through_edge_stats(h, *e) == subtree_stats_kirchhoff(h), (g, e)


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
            assert subtree_stats_kirchhoff(rest) + through_edge_stats(g, *e) == stats
    assert bridges > 0


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


def test_seeded_enumeration_gives_each_connected_superset_once():
    rng = random.Random(1203)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8), 0.3)
        u, v = rng.choice(sorted(g.edges))
        seed = 1 << u | 1 << v
        got = [mask for mask, _ in _iter_connected_masks(g.adjacency, g.order, seed)]
        want = [m for m in range(1 << g.order)
                if m & seed == seed and mask_connected(g.adjacency, m)]
        assert len(got) == len(set(got))
        assert sorted(got) == want


# ---------------------------------------------------------------------------
# k_edge_scan against one full census per candidate set

def _full_census_scan(g, k, budget=None, early_exit=False):
    mu0 = mean(subtree_stats_kirchhoff(g))
    witnesses = []
    examined = 0
    exhausted = True
    for fset in combinations(sorted(g.non_edges()), k):
        if budget is not None and examined >= budget:
            exhausted = False
            break
        examined += 1
        mu1 = mean(subtree_stats_kirchhoff(g.add_edges(fset)))
        if mu1 < mu0:
            witnesses.append(KEdgeWitness(fset, mu0, mu1))
            if early_exit:
                break
    return KEdgeScanResult(tuple(witnesses), examined, exhausted)


@pytest.mark.parametrize("k", [2, 3])
def test_k_edge_scan_matches_full_census_on_small_graphs(k):
    rng = random.Random(1204 + k)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.35)
        assert k_edge_scan(g, k) == _full_census_scan(g, k), g


@pytest.mark.parametrize("k, kwargs", [
    (2, {}),
    (2, {"budget": 3}),
    (2, {"budget": 4}),
    (2, {"early_exit": True}),
    (3, {"budget": 100}),
    (3, {"budget": 100, "early_exit": True}),
])
def test_k_edge_scan_matches_full_census_with_witnesses(k, kwargs):
    g = parse_graph6(K_WITNESS_G6)
    got = k_edge_scan(g, k, **kwargs)
    assert got == _full_census_scan(g, k, **kwargs)
    budget = kwargs.get("budget")
    assert got.exhausted == (budget is None or got.examined < budget)
    if budget != 3:
        assert got.witnesses
        assert all(w.mu_after < w.mu_before for w in got.witnesses)
