import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtree_census.census import (
    MarkedCensus,
    SubtreeStats,
    attach_pendant_stars,
    census_with_required,
    compare_means,
    coprime_fraction,
    density,
    enumerate_subtrees,
    iter_connected_subsets,
    marked_census,
    marked_census_bruteforce,
    mean,
    spanning_tree_count,
    subtree_stats_bruteforce,
    subtree_stats_kirchhoff,
    tree_subtree_stats,
)
from subtree_census.errors import InvariantViolation, NotATreeError, TooLargeError
from subtree_census.graphs import (
    Graph,
    make_complete,
    make_cycle,
    make_double_broom,
    make_empty,
    make_path,
    make_star,
)
from subtree_census.trees import iter_labeled_trees

from conftest import random_connected_graph, random_graph, random_tree


# ---------------------------------------------------------------------------
# Hand-enumerated values

def test_single_vertex():
    g = make_empty(1)
    assert subtree_stats_bruteforce(g) == SubtreeStats(1, 1)
    assert subtree_stats_kirchhoff(g) == SubtreeStats(1, 1)
    assert tree_subtree_stats(g) == SubtreeStats(1, 1)


def test_k2():
    stats = subtree_stats_bruteforce(make_path(2))
    assert stats == SubtreeStats(3, 4)
    assert mean(stats) == Fraction(4, 3)


def test_k3():
    stats = subtree_stats_bruteforce(make_complete(3))
    assert stats == SubtreeStats(9, 18)
    assert mean(stats) == 2


def test_star_k13():
    stats = subtree_stats_kirchhoff(make_star(3))
    assert stats == SubtreeStats(11, 23)
    assert tree_subtree_stats(make_star(3)) == stats


def test_star_count_formula():
    for s in range(0, 10):
        stats = tree_subtree_stats(make_star(s))
        assert stats.count == 2**s + s


def test_path_mean_formula():
    for q in range(1, 51):
        stats = tree_subtree_stats(make_path(q))
        assert mean(stats) == Fraction(q + 2, 3)


def test_mean_density_basics():
    assert mean(SubtreeStats(3, 4)) == Fraction(4, 3)
    assert mean(SubtreeStats(1, 1)) == 1
    assert density(SubtreeStats(1, 1), 1) == 1
    stats = tree_subtree_stats(make_path(10))
    assert density(stats, 10) == Fraction(2, 5)
    with pytest.raises(ValueError):
        mean(SubtreeStats(0, 0))


# ---------------------------------------------------------------------------
# Spanning trees

def test_spanning_tree_count_cayley():
    for n in range(1, 9):
        assert spanning_tree_count(make_complete(n)) == n ** max(0, n - 2)


def test_spanning_tree_count_cases():
    assert spanning_tree_count(make_cycle(5)) == 5
    assert spanning_tree_count(make_star(7)) == 1
    assert spanning_tree_count(make_path(6)) == 1
    assert spanning_tree_count(make_empty(3)) == 0  # disconnected -> 0


# ---------------------------------------------------------------------------
# Oracle equivalence (small grids here; the full sweep is in acceptance)

def test_methods_agree_on_trees():
    for n in range(1, 8):
        for edges in iter_labeled_trees(n):
            if n > 6 and hash(tuple(edges)) % 17:
                continue  # sample at n=7 to keep this test quick
            g = Graph.of(n, edges)
            a = subtree_stats_bruteforce(g)
            b = subtree_stats_kirchhoff(g)
            c = tree_subtree_stats(g)
            assert a == b == c


def test_methods_agree_on_random_connected_graphs():
    rng = random.Random(123)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 8), 0.3)
        assert subtree_stats_bruteforce(g) == subtree_stats_kirchhoff(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_methods_agree_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    pairs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])))
    g = Graph.of(n, pairs)
    assert subtree_stats_bruteforce(g) == subtree_stats_kirchhoff(g)


def _cross_sign(t1, c1, t2, c2):
    diff = t1 * c2 - t2 * c1
    return (diff > 0) - (diff < 0)


@st.composite
def _operand(draw):
    """0, a few bits, just past the 64-bit filter width, or up to 2**20 bits,
    drawn as random bits or as the all-ones and power-of-two edge cases."""
    bits = draw(st.one_of(st.just(0), st.integers(1, 8), st.integers(60, 140),
                          st.integers(1, 2 ** 20)))
    kind = draw(st.sampled_from(("random", "ones", "power")))
    if kind == "ones":
        return (1 << bits) - 1
    if kind == "power":
        return 1 << bits
    return draw(st.randoms(use_true_random=False)).getrandbits(bits)


@settings(max_examples=150, deadline=None)
@given(st.tuples(_operand(), _operand(), _operand(), _operand()))
def test_compare_means_equals_cross_multiplication(ops):
    assert compare_means(*ops) == _cross_sign(*ops)


@settings(max_examples=150, deadline=None)
@given(_operand(), _operand(), _operand(), st.integers(0, 4), st.integers(-1, 1))
def test_compare_means_ties_and_near_ties(x, y, z, slot, step):
    """(x*y)/(x*z) = y/z exactly; then one operand moved by -1, 0 or +1."""
    ops = [x * y, x * z, y, z]
    if slot < 4:
        ops[slot] = max(ops[slot] + step, 0)
    assert compare_means(*ops) == _cross_sign(*ops)


def _assert_all_arrangements(t1, c1, t2, c2):
    """compare_means on the eight operand orders that name the same two
    products, t1*c2 and t2*c1, in either factor order and on either side."""
    want = _cross_sign(t1, c1, t2, c2)
    for p, q in ((t1, c2), (c2, t1)):
        for r, u in ((t2, c1), (c1, t2)):
            assert compare_means(p, u, r, q) == want
            assert compare_means(r, q, p, u) == -want


@settings(max_examples=150, deadline=None)
@given(st.integers(2 ** 63, 2 ** 64 - 2), st.integers(2 ** 63, 2 ** 64 - 2),
       st.integers(1, 3000), st.lists(st.booleans(), min_size=4, max_size=4))
def test_compare_means_at_the_filter_bucket_edges(c, d, shift, ones):
    """Operands whose low `shift` bits are all zeros or all ones sit at the
    ends of their [x', x'+1) intervals, where the filter's bound is tight.
    With leading bits (t1', c1', t2', c2') = (c, d, c, d+1), zeros under t1
    and c2 and ones under c1 and t2, the leading bits suggest t1*c2 > t2*c1
    when d < c; only the +1 terms of the bound keep the filter from it."""
    low = (1 << shift) - 1
    heads = (c, d, c, d + 1)
    t1, c1, t2, c2 = ((h << shift) | (low if one else 0) for h, one in zip(heads, ones))
    _assert_all_arrangements(t1, c1, t2, c2)
    _assert_all_arrangements(c << shift, (d << shift) | low, (c << shift) | low, d + 1 << shift)


class _CountingInt(int):
    """An int that counts the full products taken of it."""
    products = 0

    def __mul__(self, other):
        _CountingInt.products += 1
        return int(self) * other


def test_compare_means_filter_decides_without_full_products():
    """Means 2**-40 apart relative, far above the 64-bit filter's resolution,
    are decided from the leading bits alone."""
    rng = random.Random(15)
    for _ in range(50):
        t, c = rng.getrandbits(4000) | 1 << 4000, rng.getrandbits(4000) | 1 << 4000
        ops = [_CountingInt(x) for x in (t + (t >> 40), c, t, c)]
        _CountingInt.products = 0
        assert compare_means(*ops) == 1 and compare_means(*ops[2:], *ops[:2]) == -1
        assert _CountingInt.products == 0
    # an exact tie and operands of at most 64 bits take the full products
    for ops in [(6 << 3000, 4 << 3000, 3 << 3000, 2 << 3000), (5, 3, 7, 4)]:
        _CountingInt.products = 0
        assert compare_means(*map(_CountingInt, ops)) == _cross_sign(*ops)
        assert _CountingInt.products == 2


def test_mu_bounds_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_connected_graph(rng, n, 0.4)
        stats = subtree_stats_kirchhoff(g)
        assert stats.count >= n and stats.total_order >= n
        assert 1 <= mean(stats) <= n
        assert 0 < density(stats, n) <= 1


def test_not_a_tree_rejected():
    with pytest.raises(NotATreeError):
        tree_subtree_stats(make_complete(3))
    with pytest.raises(NotATreeError):
        tree_subtree_stats(make_empty(2))


def test_size_caps():
    with pytest.raises(TooLargeError):
        subtree_stats_bruteforce(make_empty(13))
    with pytest.raises(TooLargeError):
        subtree_stats_kirchhoff(make_empty(23))
    with pytest.raises(TooLargeError):
        spanning_tree_count(make_empty(41))


# ---------------------------------------------------------------------------
# Connected subset enumeration

def test_connected_subsets_unique_and_complete():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, 0.5)
        subsets = list(iter_connected_subsets(g))
        assert len(subsets) == len(set(subsets))
        # reference: filter all subsets by connectivity
        def connected(vs):
            vs = set(vs)
            if not vs:
                return False
            stack = [next(iter(vs))]
            seen = {stack[0]}
            while stack:
                v = stack.pop()
                for a, b in g.edges:
                    u = b if a == v else a if b == v else None
                    if u in vs and u not in seen:
                        seen.add(u)
                        stack.append(u)
            return seen == vs
        want = {frozenset(c) for r in range(1, n + 1)
                for c in combinations(range(n), r) if connected(c)}
        assert set(subsets) == want


def test_enumerate_subtrees_k3():
    trees = list(enumerate_subtrees(make_complete(3)))
    assert len(trees) == 9
    sizes = sorted(len(t.vertices) for t in trees)
    assert sizes == [1, 1, 1, 2, 2, 2, 3, 3, 3]


# ---------------------------------------------------------------------------
# Marked census

def test_marked_census_p3_cells():
    cen = marked_census(make_path(3), {0, 2})
    assert cen.cell({0, 2}) == SubtreeStats(1, 3)
    assert cen.cell({0}) == SubtreeStats(2, 3)
    assert cen.cell({2}) == SubtreeStats(2, 3)
    assert cen.cell(()) == SubtreeStats(1, 1)


def test_marked_census_empty_marks_single_cell():
    g = make_complete(4)
    cen = marked_census(g, ())
    assert cen.total() == subtree_stats_kirchhoff(g)
    assert list(cen.table) == [(frozenset(), 0)]


def test_marked_census_cell_sums():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n, 0.35)
        marked = rng.sample(range(n), rng.randint(0, min(3, n)))
        tracked = rng.sample(sorted(g.edges), min(2, g.size)) if g.size else []
        cen = marked_census(g, marked, tracked)
        assert cen.total() == subtree_stats_kirchhoff(g)


def test_marked_census_against_bruteforce():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n, 0.35)
        marked = rng.sample(range(n), rng.randint(0, min(3, n)))
        tracked = rng.sample(sorted(g.edges), min(3, g.size)) if g.size else []
        a = marked_census(g, marked, tracked)
        b = marked_census_bruteforce(g, marked, tracked)
        assert a.table == b.table


def test_tracked_counts_max_cell_is_containment():
    # tracked = spine edges: the top tracked count is exactly the subtrees
    # containing every spine edge
    from subtree_census.graphs import make_fan_broom_core

    g, _ = make_fan_broom_core(7, 2)
    spine = [(i, i + 1) for i in range(1, 6)]
    cen = marked_census(g, {0, 1, 6}, spine)
    req = census_with_required(g, {0, 1, 6}, spine)
    for key, stats in req.table.items():
        assert cen.table[key] == stats


def test_census_with_required_triangle():
    cen = census_with_required(make_complete(3), (), [(0, 1)])
    assert cen.total() == SubtreeStats(3, 8)


def test_census_with_required_vs_bruteforce():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n, 0.4)
        k = rng.randint(1, min(3, g.size))
        req = rng.sample(sorted(g.edges), k)
        got = census_with_required(g, (), req).total()
        want_count = want_total = 0
        for t in enumerate_subtrees(g):
            if all((min(e), max(e)) in t.edges for e in req):
                want_count += 1
                want_total += len(t.vertices)
        assert got == SubtreeStats(want_count, want_total)


def test_every_edge_of_k6_tracked_matches_bruteforce():
    # 15 tracked edges: the top digits of the weighted determinant are used
    g = make_complete(6)
    a = marked_census(g, {0, 1}, sorted(g.edges))
    b = marked_census_bruteforce(g, {0, 1}, sorted(g.edges))
    assert a.table == b.table
    assert max(cnt for _, cnt in a.table) == 5


def test_census_with_required_cycle_is_empty():
    cen = census_with_required(make_complete(4), {0}, [(0, 1), (1, 2), (0, 2)])
    assert cen.table == {}
    assert cen.total() == SubtreeStats(0, 0)


def test_spine_required_census_matches_bruteforce_cells():
    from subtree_census.graphs import make_fan_broom_core

    g, _ = make_fan_broom_core(7, 2)
    spine = [(i, i + 1) for i in range(1, 6)]
    req = census_with_required(g, {0, 1, 6}, spine)
    brute = marked_census_bruteforce(g, {0, 1, 6}, spine)
    want = {key: st for key, st in brute.table.items() if key[1] == len(spine)}
    assert want and req.table == want


def test_marked_census_validation():
    g = make_path(4)
    with pytest.raises(TooLargeError):
        marked_census(make_path(8), range(7))
    with pytest.raises(ValueError):
        marked_census(g, {9})
    with pytest.raises(ValueError):
        marked_census(g, (), [(0, 2)])  # not an edge


# ---------------------------------------------------------------------------
# Leaf-stripped cores: every subset of these graphs strips down to a
# triangle, C5 or K4 core, a part of one, or a single vertex

LEAFY_CORES = [make_complete(3), make_cycle(5), make_complete(4)]


def _leafy_graph(rng, core, order):
    """`core` on its first vertices plus random pendant trees."""
    pairs = set(core.edges)
    for v in range(core.order, order):
        pairs.add((rng.randrange(v), v))
    return Graph.of(order, pairs)


def test_leafy_graph_census_matches_bruteforce():
    rng = random.Random(606)
    for core in LEAFY_CORES:
        for order in (core.order, 6, 9, 12):
            g = _leafy_graph(rng, core, order)
            assert subtree_stats_kirchhoff(g) == subtree_stats_bruteforce(g)


def test_leafy_graph_tracked_census_matches_bruteforce():
    # tracked edges on pendant paths are stripped, the core one is not
    rng = random.Random(607)
    for core in LEAFY_CORES:
        for order in (8, 11):
            g = _leafy_graph(rng, core, order)
            pendant = sorted(e for e in g.edges if e[1] >= core.order)
            tracked = rng.sample(pendant, 3) + rng.sample(sorted(core.edges), 1)
            marked = rng.sample(range(order), 2)
            a = marked_census(g, marked, tracked)
            b = marked_census_bruteforce(g, marked, tracked)
            assert a.table == b.table
            assert max(cnt for _, cnt in a.table) == len(tracked)


def test_tree_tracked_census_strips_to_one_vertex():
    # every subset of a tree strips to a single vertex; a K2 subset keeps
    # one end, and its tracked edge still lands in cell 1
    cen = marked_census(make_path(2), {0}, [(0, 1)])
    assert cen.table == {
        (frozenset({0}), 0): SubtreeStats(1, 1),
        (frozenset(), 0): SubtreeStats(1, 1),
        (frozenset({0}), 1): SubtreeStats(1, 2),
    }
    rng = random.Random(608)
    for order in (5, 9, 12):
        t = random_tree(rng, order)
        tracked = rng.sample(sorted(t.edges), 3)
        a = marked_census(t, {0, order - 1}, tracked)
        assert a.table == marked_census_bruteforce(t, {0, order - 1}, tracked).table


def _two_core(g, vs):
    """Naive 2-core of a connected vertex set; a tree keeps its minimum."""
    core = set(vs)
    while True:
        leaves = {v for v in core if sum(v in e and set(e) <= core for e in g.edges) <= 1}
        if not leaves or leaves == core:
            break
        core -= leaves
    return frozenset(core) if len(core) > 2 else frozenset({min(vs)})


def test_one_determinant_per_distinct_core(monkeypatch):
    # subsets that are their own core get a determinant each; all others
    # share one per distinct core, in the plain and the tracked census alike
    from subtree_census import census
    from subtree_census.graphs import make_fan_broom

    calls = []
    tau = census._tau_mask
    monkeypatch.setattr(census, "_tau_mask",
                        lambda g, mask, *args, **kwargs: calls.append(mask) or tau(g, mask, *args, **kwargs))
    rng = random.Random(610)
    fan = make_fan_broom(6, 3, 2)
    hubs, chords = {0, 5}, [(0, 5), (1, 5)]
    leafy = _leafy_graph(rng, make_cycle(5), 12)
    for g, same in ((fan, lambda: subtree_stats_kirchhoff(fan) == subtree_stats_bruteforce(fan)),
                    (fan, lambda: marked_census(fan, hubs, chords).table
                     == marked_census_bruteforce(fan, hubs, chords).table),
                    (leafy, lambda: subtree_stats_kirchhoff(leafy) == subtree_stats_bruteforce(leafy))):
        calls.clear()
        assert same()
        cores = {vs: _two_core(g, vs) for vs in iter_connected_subsets(g)}
        own = sum(1 for vs, core in cores.items() if vs == core)
        shared = {core for vs, core in cores.items() if vs != core}
        assert len(calls) == own + len(shared) < len(cores) // 10


def test_tracked_polynomial_out_of_range_raises(monkeypatch):
    # a tracked subset's weighted count must be a positive polynomial of at
    # most t + 1 digits; a zero determinant is caught
    from subtree_census import census

    monkeypatch.setattr(census, "_tau_mask", lambda g, mask, *args, **kwargs: 0)
    with pytest.raises(InvariantViolation):
        marked_census(make_cycle(4), {0}, [(0, 1)])


def test_tree_census_matches_tree_dp_above_bruteforce_size():
    rng = random.Random(609)
    for order in range(13, 23):
        for _ in range(3):
            t = random_tree(rng, order)
            assert subtree_stats_kirchhoff(t) == tree_subtree_stats(t)


# ---------------------------------------------------------------------------
# Pendant star attachment

def test_attach_stars_k1_core_gives_star():
    cen = marked_census(make_empty(1), {0})
    assert attach_pendant_stars(cen, {0: 3}) == SubtreeStats(11, 23)


def test_attach_stars_zero_identity():
    g = make_path(5)
    cen = marked_census(g, {0, 4})
    assert attach_pendant_stars(cen, {0: 0, 4: 0}) == subtree_stats_kirchhoff(g)


def test_attach_stars_matches_bruteforce_small():
    from subtree_census.graphs import make_broom_core
    core, hubs = make_broom_core(3)
    cen = marked_census(core, hubs)
    got = attach_pendant_stars(cen, {h: 1 for h in hubs})
    want = subtree_stats_bruteforce(make_double_broom(3, 1))
    assert got == want


def test_attach_stars_random_instances():
    # >= 50 materializable instances against an independent full computation
    rng = random.Random(2024)
    from subtree_census.graphs import make_broom_core, make_fan_broom_core
    from subtree_census.graphs import make_double_broom, make_fan_broom
    checked = 0
    while checked < 50:
        length = rng.randint(2, 8)
        s = rng.randint(0, 2)
        k = rng.choice([0, 0, 1, 2])
        if k and length < k + 2:
            continue
        if k:
            core, hubs = make_fan_broom_core(length, k)
            materialized = make_fan_broom(length, s, k)
        else:
            core, hubs = make_broom_core(length)
            materialized = make_double_broom(length, s)
        if materialized.order > 12:
            continue
        got = attach_pendant_stars(marked_census(core, hubs), {h: s for h in hubs})
        assert got == subtree_stats_bruteforce(materialized)
        checked += 1


def test_attach_stars_larger_instances_vs_census():
    # beyond brute-force size, verify against the direct census of the
    # materialized graph (independent of the star algebra)
    from subtree_census.graphs import make_broom_core
    for length, s in [(6, 5), (10, 4), (8, 5)]:
        core, hubs = make_broom_core(length)
        got = attach_pendant_stars(marked_census(core, hubs), {h: s for h in hubs})
        assert got == subtree_stats_kirchhoff(make_double_broom(length, s))


def test_attach_stars_hub_mismatch():
    cen = marked_census(make_path(3), {0, 2})
    with pytest.raises(ValueError):
        attach_pendant_stars(cen, {0: 1})


def test_attach_stars_exponent_cap():
    cen = marked_census(make_path(2), {0, 1})
    with pytest.raises(TooLargeError):
        attach_pendant_stars(cen, {0: 10**9, 1: 0})


def test_attach_stars_huge_s_exact():
    # count formula for a double star: both hubs, one edge between them
    cen = marked_census(make_path(2), {0, 1})
    s = 1000
    got = attach_pendant_stars(cen, {0: s, 1: s})
    p = 1 << s
    want_count = p + p + p * p + 2 * s
    assert got.count == want_count
    # one hub: s * 2**(s-1) leaves over its 2**s extensions; both hubs:
    # 2 * p * p vertices plus 2s * 2**(2s-1) leaves; 2s bare leaves
    one_hub = p + s * (p >> 1)
    assert got.total_order == 2 * one_hub + 2 * p * p + 2 * s * (p * p >> 1) + 2 * s


def _binomial_star_reference(census, leaf_counts, include_leaf_singletons=True):
    # each hub u contributes sum_j C(s_u, j) leaf subsets holding sum_j j*C(s_u, j)
    # leaves in total, independently of the other hubs
    subsets = {u: sum(comb(s, j) for j in range(s + 1)) for u, s in leaf_counts.items()}
    leaves = {u: sum(j * comb(s, j) for j in range(s + 1)) for u, s in leaf_counts.items()}
    count = total = 0
    for (hubs, _), stats in census.table.items():
        ways = 1
        for u in hubs:
            ways *= subsets[u]
        count += stats.count * ways
        total += stats.total_order * ways
        for u in hubs:
            others = 1
            for v in hubs - {u}:
                others *= subsets[v]
            total += stats.count * leaves[u] * others
    if include_leaf_singletons:
        count += sum(leaf_counts.values())
        total += sum(leaf_counts.values())
    return SubtreeStats(count, total)


def test_attach_stars_unequal_counts_vs_binomial_sums():
    from subtree_census.graphs import make_fan_broom_core
    rng = random.Random(88)
    cases = [
        (make_path(2), {0: 0, 1: 300}),
        (make_path(4), {0: 257, 3: 0}),
        (make_fan_broom_core(7, 2)[0], {0: 0, 3: 131, 6: 5}),
        (make_cycle(5), {0: 1, 2: 0, 3: 299}),
        (make_complete(4), {0: 64, 1: 0, 2: 3, 3: 200}),
    ]
    for _ in range(6):
        g = random_connected_graph(rng, rng.randint(3, 8), 0.4)
        hubs = rng.sample(range(g.order), rng.randint(1, 3))
        cases.append((g, {u: rng.choice([0, 1, rng.randint(2, 300)]) for u in hubs}))
    for g, leaf_counts in cases:
        cen = marked_census(g, leaf_counts)
        for singletons in (True, False):
            assert (attach_pendant_stars(cen, leaf_counts, include_leaf_singletons=singletons)
                    == _binomial_star_reference(cen, leaf_counts, singletons))


def test_attach_stars_unequal_stars_vs_materialized_census():
    from subtree_census.graphs import make_fan_broom_core
    core, _ = make_fan_broom_core(9, 2)
    for leaf_counts in ({0: 6, 4: 0, 8: 5}, {0: 4, 4: 3, 8: 5}):
        pairs = list(core.edges)
        order = core.order
        for hub, s in leaf_counts.items():
            pairs += [(hub, order + i) for i in range(s)]
            order += s
        assert order <= 22
        got = attach_pendant_stars(marked_census(core, leaf_counts), leaf_counts)
        assert got == subtree_stats_kirchhoff(Graph.of(order, pairs))


def test_stats_subtraction_guard():
    with pytest.raises(InvariantViolation):
        SubtreeStats(1, 1) - SubtreeStats(2, 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(-(1 << 300), 1 << 300), st.integers(1, 1 << 300),
       st.fractions(max_denominator=1 << 40))
def test_coprime_fraction_behaves_like_fraction(p, q, other):
    want = Fraction(p, q)
    got = coprime_fraction(want.numerator, want.denominator)
    assert type(got) is Fraction
    assert got == want and not got != want
    assert hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    assert (got < other) == (want < other) and (other < got) == (other < want)
    assert (got <= want) and (want <= got) and not got < want
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: b - a, lambda a, b: a / (b or 1)):
        assert op(got, other) == op(want, other)
    assert -got == -want and abs(got) == abs(want) and got ** 2 == want ** 2
    assert float(got) == float(want) and int(got) == int(want)
