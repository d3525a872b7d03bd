import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from subtree_census.census import (
    added_edge_stats,
    mean,
    subtree_stats_bruteforce,
    subtree_stats_kirchhoff,
    through_edge_stats,
)
from subtree_census import search
from subtree_census.errors import TooLargeError
from subtree_census.graphs import (
    Graph,
    emit_graph6,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    parse_graph6,
)
from subtree_census.limits import SCAN_MAX, SWEEP_MAX
from subtree_census.search import (
    _bound_sweep,
    _tree_classes,
    corpus_scan,
    k_edge_scan,
    tree_bound_sweep,
)
from subtree_census.trees import iter_labeled_trees, prufer_edges, tree_canonical_code

from conftest import random_connected_graph


def _all_connected_graphs_up_to(n_max):
    """Every connected graph on <= n_max vertices, one per labeled edge set."""
    out = []
    for n in range(1, n_max + 1):
        all_pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(all_pairs)):
            g = Graph.of(n, [p for i, p in enumerate(all_pairs) if bits >> i & 1])
            if g.is_connected():
                out.append(g)
    return out


# ---------------------------------------------------------------------------
# k_edge_scan with k = 1

def test_p3_closing_edge_not_reported():
    assert k_edge_scan(make_path(3), 1) == ()  # mu rises from 5/3 to 2


def test_scan_small_trees_all_exact():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        t = Graph.of(n, [(rng.randrange(v), v) for v in range(1, n)])
        for w in k_edge_scan(t, 1):
            g2 = t.add_edges(w.added)
            assert mean(subtree_stats_bruteforce(g2)) == w.mu_after
            assert mean(subtree_stats_bruteforce(t)) == w.mu_before
            assert w.mu_after < w.mu_before


def test_scan_complete_minus_edge():
    for n in (4, 5, 6):
        g = make_complete(n).remove_edges([(0, 1)])
        witnesses = k_edge_scan(g, 1)
        # exact comparison against brute force either way
        mu0 = mean(subtree_stats_bruteforce(g))
        mu1 = mean(subtree_stats_bruteforce(make_complete(n)))
        if mu1 < mu0:
            assert [w.added for w in witnesses] == [((0, 1),)]
        else:
            assert witnesses == ()


def test_scan_rejects_disconnected_and_oversize():
    with pytest.raises(ValueError):
        k_edge_scan(Graph.of(3, [(0, 1)]), 1)
    with pytest.raises(TooLargeError):
        k_edge_scan(make_path(21), 1)


# ---------------------------------------------------------------------------
# corpus_scan

def test_corpus_scan_empty_stream():
    rep = corpus_scan([])
    assert rep.graphs_scanned == 0
    assert rep.instances == ()
    assert rep.min_order is None


def test_corpus_scan_small_corpus_is_exact_and_sorted():
    corpus = [emit_graph6(g) for g in _all_connected_graphs_up_to(5)]
    rep = corpus_scan(corpus, max_order=5)
    assert rep.graphs_scanned == len(corpus)
    keys = [(i.order, i.graph_id, i.added) for i in rep.instances]
    assert keys == sorted(keys)
    # every reported pair re-verifies under brute force
    for inst in rep.instances:
        g = Graph.of(inst.order, [])
        from subtree_census.graphs import parse_graph6
        g = parse_graph6(inst.graph_id)
        assert mean(subtree_stats_bruteforce(g)) == inst.mu_before
        assert mean(subtree_stats_bruteforce(g.add_edges([inst.added]))) == inst.mu_after
        assert inst.mu_after < inst.mu_before


def test_corpus_scan_handles_bad_lines():
    lines = ["A_", "", "!!notgraph6", "D?{", "B"]  # "B" is truncated
    rep = corpus_scan(lines)
    assert rep.graphs_scanned == 2
    assert len(rep.parse_errors) == 2
    bad_lines = [no for no, _ in rep.parse_errors]
    assert bad_lines == [3, 5]


def test_corpus_scan_skips_oversize_and_disconnected():
    big = emit_graph6(make_path(13))
    disc = emit_graph6(Graph.of(3, [(0, 1)]))
    rep = corpus_scan([big, disc, "A_"], max_order=12)
    assert rep.graphs_scanned == 1
    assert len(rep.skipped) == 2


def test_corpus_scan_deterministic_across_jobs():
    corpus = [emit_graph6(g) for g in _all_connected_graphs_up_to(4)] * 2
    rep1 = corpus_scan(corpus, max_order=4, jobs=1)
    rep2 = corpus_scan(corpus, max_order=4, jobs=2)
    assert rep1 == rep2


# FXhew (order 7, 12 edges) is a graph whose mean drops when edge (2, 6) is
# added: 316/55 -> 9232/1607.  It is the only decreasing non-edge.
WITNESS_G6 = "FXhew"
WITNESS_EDGE = (2, 6)
WITNESS_MU = (Fraction(316, 55), Fraction(9232, 1607))


def test_edge_addition_scan_finds_witness():
    g = parse_graph6(WITNESS_G6)
    assert (g.order, g.size) == (7, 12)
    assert (mean(subtree_stats_bruteforce(g)),
            mean(subtree_stats_bruteforce(g.add_edges([WITNESS_EDGE])))) == WITNESS_MU
    assert len(g.non_edges()) == 9
    assert k_edge_scan(g, 1) == (((WITNESS_EDGE,), *WITNESS_MU),)


def test_corpus_scan_reports_witnesses_across_jobs():
    lines = [WITNESS_G6, "A_", WITNESS_G6]
    rep = corpus_scan(lines, max_order=7)
    assert rep.graphs_scanned == 3
    assert rep.instances == ((7, WITNESS_G6, WITNESS_EDGE, *WITNESS_MU),) * 2
    assert rep.min_order == 7
    assert corpus_scan(lines, max_order=7, jobs=2) == rep


def test_corpus_scan_rejects_large_max_order():
    with pytest.raises(TooLargeError):
        corpus_scan([], max_order=13)


@pytest.mark.parametrize("max_order", [0, -3])
def test_corpus_scan_rejects_max_order_below_1(max_order):
    # every graph has order >= 1, so such a scan would skip the whole corpus
    with pytest.raises(ValueError):
        corpus_scan([WITNESS_G6], max_order=max_order)


# ---------------------------------------------------------------------------
# k_edge_scan

def test_k_edge_scan_k0():
    assert k_edge_scan(make_path(4), 0) == ()
    with pytest.raises(ValueError):
        k_edge_scan(make_path(4), -1)


def test_k_edge_scan_complete_graph_no_candidates():
    assert k_edge_scan(make_complete(5), 2) == ()


def test_k_edge_scan_exact_vs_bruteforce():
    g = make_star(4)
    witnesses = k_edge_scan(g, 1)
    mu0 = mean(subtree_stats_bruteforce(g))
    for w in witnesses:
        assert mean(subtree_stats_bruteforce(g.add_edges(w.added))) == w.mu_after < mu0
    # cross-check the non-witnesses too
    witness_sets = {w.added for w in witnesses}
    for e in g.non_edges():
        mu1 = mean(subtree_stats_bruteforce(g.add_edges([e])))
        assert (mu1 < mu0) == ((e,) in witness_sets)


def test_k_edge_scan_confirms_family_witness():
    # a fan-chord decrease witness is materializable only with large stars,
    # so check cross-module consistency on the core scale: compare the scan
    # against direct means for a small double broom
    from subtree_census.families import broom_stats, fan_broom_stats
    from subtree_census.graphs import make_double_broom
    length, s = 5, 1
    g = make_double_broom(length, s)
    mu0 = mean(broom_stats(length, s))
    chord = (0, length - 1)
    in_witnesses = any(w.added == (chord,) for w in k_edge_scan(g, 1))
    mu1 = mean(fan_broom_stats(length, s, 1))
    assert in_witnesses == (mu1 < mu0)


def test_k_edge_scan_at_scan_max_agrees_with_rooted_censuses():
    # a seeded 20-vertex recursive tree plus two edges: 169 non-edges, 14 of
    # them decrease the mean
    rng = random.Random(1915)
    g = Graph.of(SCAN_MAX, [(rng.randrange(v), v) for v in range(1, SCAN_MAX)])
    g = g.add_edges(rng.sample([e for e in combinations(range(SCAN_MAX), 2)
                                if e not in g.edges], 2))
    found = k_edge_scan(g, 1)
    assert len(g.non_edges()) == 169
    assert len(found) == 14
    base = subtree_stats_kirchhoff(g)
    mu0 = mean(base)
    witnesses = {w.added[0]: w for w in found}
    sample = random.Random(1916).sample(g.non_edges(), 6) + [w.added[0] for w in found[:2]]
    for e in sample:
        mu1 = mean(base + through_edge_stats(g.add_edges([e]), *e))
        assert (e in witnesses) == (mu1 < mu0), e
        if e in witnesses:
            assert witnesses[e].mu_before == mu0 and witnesses[e].mu_after == mu1


@pytest.mark.parametrize("k", [2, 3])
def test_k_edge_scan_runs_one_pass_per_examined_prefix(monkeypatch, k):
    # one pass over g + P for each (k-1)-edge prefix P, in lexicographic order
    g = parse_graph6("ILbIibOaw")
    calls = []

    def counted(h):
        calls.append(h)
        return added_edge_stats(h)
    monkeypatch.setattr(search, "added_edge_stats", counted)
    assert k_edge_scan(g, k)
    prefixes = dict.fromkeys(fset[:-1] for fset in combinations(sorted(g.non_edges()), k))
    assert calls == [g.add_edges(p) for p in prefixes]


# ---------------------------------------------------------------------------
# tree_bound_sweep

def test_tree_bound_small():
    rep = tree_bound_sweep(6)
    assert rep.passed
    assert rep.trees_checked == 1 + 1 + 3 + 16 + 125 + 1296
    # equality exactly on paths: labeled paths are n!/2 for n >= 2
    assert rep.equalities[1] == rep.paths[1] == 1
    for n in range(2, 7):
        import math
        assert rep.paths[n] == math.factorial(n) // 2
        assert rep.equalities[n] == rep.paths[n]


def test_tree_bound_n7_passes():
    rep = tree_bound_sweep(7)
    assert rep.passed
    assert rep.trees_checked == 1 + 1 + 3 + 16 + 125 + 1296 + 16807


def test_tree_bound_star_strictly_above():
    stats = subtree_stats_bruteforce(make_star(3))
    assert mean(stats) == Fraction(23, 11) > 2  # K_{1,3} vs (4+2)/3


def test_tree_bound_cap():
    with pytest.raises(TooLargeError):
        tree_bound_sweep(SWEEP_MAX + 1)


def test_tree_bound_needs_an_order():
    with pytest.raises(ValueError):
        tree_bound_sweep(0)


# A000055: unlabeled trees on n = 1, 2, ... vertices
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159,
                    7741, 19320, 48629, 123867)


def test_tree_bound_classes_match_labeled_sweep():
    # the same check fed every labeled tree once instead of one tree per class
    for n_max in range(1, 9):
        oracle = _bound_sweep(n_max, ((n, edges, 1) for n in range(1, n_max + 1)
                                      for edges in iter_labeled_trees(n)))
        assert tree_bound_sweep(n_max) == oracle
    assert oracle.trees_checked == 280393 and oracle.passed


def test_tree_classes_are_a000055():
    assert SWEEP_MAX <= len(FREE_TREE_COUNTS)
    counts = Counter(n for n, _, _ in _tree_classes(SWEEP_MAX))
    assert [counts[n] for n in range(1, SWEEP_MAX + 1)] == list(FREE_TREE_COUNTS[:SWEEP_MAX])


def test_tree_classes_distinct_and_weighted_by_automorphisms():
    # every class is a tree, no two are isomorphic, and n!/|Aut| is the
    # number of labeled trees with its canonical code (orders <= 7, by brute force)
    labeled = Counter((n, tree_canonical_code(n, edges))
                      for n in range(1, 8) for edges in iter_labeled_trees(n))
    classes = {}
    for n, edges, aut in _tree_classes(7):
        assert Graph.of(n, edges).is_tree()
        key = (n, tree_canonical_code(n, edges))
        assert key not in classes
        classes[key] = math.factorial(n) // aut
    assert classes == dict(labeled)


def test_tree_classes_pairwise_non_isomorphic_up_to_sweep_max():
    codes = [(n, tree_canonical_code(n, edges)) for n, edges, _ in _tree_classes(SWEEP_MAX)]
    assert len(codes) == sum(FREE_TREE_COUNTS[:SWEEP_MAX])
    assert len(set(codes)) == len(codes)


def test_tree_bound_reports_labeled_member_of_offending_class(monkeypatch):
    target = tree_canonical_code(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    real = search.subtree_stats_of_tree

    def below_bound_on_target(n, adj):
        count, total = real(n, adj)
        edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
        if n == 6 and tree_canonical_code(n, edges) == target:
            return count, 0
        return count, total

    monkeypatch.setattr(search, "subtree_stats_of_tree", below_bound_on_target)
    rep = tree_bound_sweep(7)
    assert not rep.passed
    assert len(rep.violations) == 1
    n, seq, reason = rep.violations[0]
    assert (n, reason) == (6, "below bound")
    assert tree_canonical_code(n, prufer_edges(seq, n)) == target
