import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtree_census.census import (
    MarkedCensus,
    SubtreeStats,
    mean,
    subtree_stats_bruteforce,
    subtree_stats_kirchhoff,
)
from subtree_census.errors import TooLargeError
from subtree_census.families import (
    StarSizeSequence,
    anchor_edge_stats,
    anchored_count_formula,
    anchored_family_stats,
    broom_stats,
    chord_class_stats,
    chorded_broom_stats,
    default_star_rule,
    density_trend,
    fan_anchor_stats,
    fan_broom_stats,
    find_chorded_decrease_witness,
    find_decrease_witnesses,
    geometric_star_sizes,
    path_mean_order,
    star_mean,
    star_stats,
    stepwise_deletion_check,
)
from subtree_census.graphs import (
    equal_span_chords,
    make_chorded_broom,
    make_double_broom,
    make_fan_broom,
)


# ---------------------------------------------------------------------------
# Star-size sequences

def test_default_star_rule_is_ceil_2log2():
    import math
    for n in range(1, 4000):
        want = math.ceil(2 * math.log2(n)) if n > 1 else 0
        assert default_star_rule(n) == want
    # huge n, exactly: 2**s >= n**2 > 2**(s-1)
    n = 10**50
    s = default_star_rule(n)
    assert (1 << s) >= n * n > (1 << (s - 1))


def test_sequence_conditions():
    seq = StarSizeSequence(k=1)
    m = seq.min_valid_n()
    assert m == 20  # first n with n - 2*ceil(2 log2 n) >= 2 staying valid
    assert seq.core_condition(m) and seq.growth_condition(m)
    assert not seq.core_condition(m - 1)
    seq.validate(m)
    with pytest.raises(ValueError):
        seq.validate(m - 1)
    assert seq.sublinearity_spot_check([2**i for i in range(4, 12)])


def test_growth_condition_exact_boundary():
    # rule one below the default fails growth exactly
    seq = StarSizeSequence(k=1, rule=lambda n: max(0, default_star_rule(n) - 1))
    assert not seq.growth_condition(100)
    assert StarSizeSequence(k=1).growth_condition(100)


# ---------------------------------------------------------------------------
# Family statistics vs materialized oracles

def test_path_mean_order():
    assert path_mean_order(1) == 1
    assert path_mean_order(4) == 2
    assert path_mean_order(7) == 3
    assert path_mean_order(10**30) == Fraction(10**30 + 2, 3)


def test_broom_stats_p3():
    assert broom_stats(3, 0) == subtree_stats_bruteforce(make_double_broom(3, 0))
    assert broom_stats(3, 0).count == 6


def test_fan_k0_equals_base():
    for length in range(2, 8):
        for s in (0, 1, 5, 100):
            assert fan_broom_stats(length, s, 0) == broom_stats(length, s)


def test_family_stats_match_bruteforce_grid():
    for length in range(2, 7):
        for s in (0, 1, 2):
            if length + 2 * s > 12:
                continue
            assert broom_stats(length, s) == subtree_stats_bruteforce(make_double_broom(length, s))
    for k in (1, 2):
        for length in range(k + 2, 8):
            for s in (0, 1):
                if length + 2 * s > 12:
                    continue
                got = fan_broom_stats(length, s, k)
                want = subtree_stats_bruteforce(make_fan_broom(length, s, k))
                assert got == want


def test_family_stats_match_census_larger():
    # star reduction vs direct census of the materialized graph (the
    # materialized cost grows like 4**s, so keep the stars modest here)
    for length, s, k in [(8, 4, 1), (10, 3, 2), (6, 4, 3)]:
        got = fan_broom_stats(length, s, k)
        want = subtree_stats_kirchhoff(make_fan_broom(length, s, k))
        assert got == want


def test_chorded_stats_match_bruteforce():
    chords = ((0, 2), (2, 4))
    got = chorded_broom_stats(5, 1, chords)
    want = subtree_stats_bruteforce(make_chorded_broom(5, 1, chords))
    assert got == want


def test_core_too_large():
    with pytest.raises(TooLargeError):
        broom_stats(23, 1)


# ---------------------------------------------------------------------------
# Anchored families

def test_anchored_count_closed_form_instances():
    assert anchored_count_formula(10, 2) == 16 * 15
    assert anchored_count_formula(6, 1) == 4 * 6
    for q in range(2, 15):
        assert anchored_count_formula(q, 0) == q * (q - 1) // 2


def test_anchor_edge_count_matches_closed_form():
    for length in range(2, 15):
        for s in (0, 1, 2, 10, 1000):
            n = length + 2 * s
            assert anchor_edge_stats(length, s).count == anchored_count_formula(n, s)


def test_anchor_edge_mean_in_range():
    for length in (3, 8, 14):
        for s in (0, 5, 50):
            mu = mean(anchor_edge_stats(length, s))
            assert 0 < mu <= length + 2 * s


def test_fan_anchor_small_cases():
    from subtree_census.census import SubtreeStats
    assert fan_anchor_stats(1) == SubtreeStats(1, 2)
    assert fan_anchor_stats(2) == SubtreeStats(3, 9)
    # members span between 3 and k+1 vertices
    for k in range(2, 7):
        stats = fan_anchor_stats(k)
        assert 3 * stats.count <= stats.total_order <= (k + 1) * stats.count


def test_fan_anchor_refuses_oversized_fans_before_building_them(monkeypatch):
    from subtree_census import families
    from subtree_census.limits import CENSUS_MAX

    class NoGraph:
        @staticmethod
        def of(*args):
            raise AssertionError("the fan was built before the size check")

    monkeypatch.setattr(families, "Graph", NoGraph)
    for k in (CENSUS_MAX, 200000):
        with pytest.raises(TooLargeError, match=f"census capped at {CENSUS_MAX} vertices"):
            fan_anchor_stats(k)


def test_anchored_family_k1_reduces_to_anchor_edge():
    for length in (3, 6, 10):
        for s in (0, 2, 7):
            assert anchored_family_stats(length, s, 1) == anchor_edge_stats(length, s)


def test_product_law_and_mean_identity():
    for k in range(1, 5):
        for length in range(k + 2, 12):
            for s in (0, 1, 2, 10):
                whole = anchored_family_stats(length, s, k)
                part_edge = anchor_edge_stats(length - k + 1, s)
                part_fan = fan_anchor_stats(k)
                assert whole.count == part_fan.count * part_edge.count
                assert mean(whole) == mean(part_edge) + mean(part_fan) - 2


def test_anchored_family_against_bruteforce():
    # direct enumeration of the defining family on a materialized instance
    from subtree_census.census import enumerate_subtrees
    length, s, k = 6, 1, 2
    g = make_fan_broom(length, s, k)
    spine_vertices = list(range(k - 1, length))
    spine_edges = {(i, i + 1) for i in range(k - 1, length - 1)}
    marks = {0, k - 1, length - 1}
    count = total = 0
    for t in enumerate_subtrees(g):
        if not marks <= t.vertices:
            continue
        if spine_edges <= t.edges:
            continue
        count += 1
        total += len(t.vertices)
    got = anchored_family_stats(length, s, k)
    assert (got.count, got.total_order) == (count, total)


# ---------------------------------------------------------------------------
# Chord-class families

def test_chord_classes_partition_everything():
    length, s = 7, 2
    chords = equal_span_chords(length, 2, 3)
    full = chorded_broom_stats(length, s, chords)
    acc_count = acc_total = 0
    for r in range(len(chords) + 1):
        for used in combinations(chords, r):
            st = chord_class_stats(length, s, chords, used)
            acc_count += st.count
            acc_total += st.total_order
    assert (acc_count, acc_total) == (full.count, full.total_order)


def test_chord_class_empty_set_is_chordless_family():
    length, s = 7, 3
    chords = equal_span_chords(length, 2, 3)
    assert chord_class_stats(length, s, chords, ()) == broom_stats(length, s)


def test_chord_class_mean_bound_equal_spans():
    # mu(class) <= n - |used|*(span-1)/3 for every chord subset
    for length, k, span, s in [(7, 2, 3, 0), (7, 2, 3, 10), (9, 2, 4, 2), (13, 3, 4, 1), (9, 4, 2, 5)]:
        chords = equal_span_chords(length, k, span)
        n = length + 2 * s
        for r in range(len(chords) + 1):
            for used in combinations(chords, r):
                st = chord_class_stats(length, s, chords, used)
                if st.count == 0:
                    continue
                assert mean(st) <= n - Fraction(len(used) * (span - 1), 3)


def test_chord_class_single_full_span_chord():
    # one chord across the whole path: members use the chord but not all of
    # the path; cross-check against explicit enumeration
    from subtree_census.census import enumerate_subtrees
    length = 6
    chords = ((0, length - 1),)
    g = make_chorded_broom(length, 0, chords)
    want_count = want_total = 0
    for t in enumerate_subtrees(g):
        if (0, length - 1) in t.edges:
            want_count += 1
            want_total += len(t.vertices)
    st = chord_class_stats(length, 0, chords, chords)
    assert (st.count, st.total_order) == (want_count, want_total)
    assert st.count == anchor_edge_stats(length, 0).count


def test_chord_class_validates_subset():
    with pytest.raises(ValueError):
        chord_class_stats(7, 0, ((0, 3),), ((3, 6),))


# ---------------------------------------------------------------------------
# Witness scans

def test_geometric_star_sizes():
    assert geometric_star_sizes(0) == [0]
    assert geometric_star_sizes(9) == [0, 1, 2, 4, 8]
    assert geometric_star_sizes(8) == [0, 1, 2, 4, 8]
    with pytest.raises(ValueError):
        geometric_star_sizes(-1)


def test_no_false_decrease_on_triangle_case():
    # adding the closing chord to P3 increases the mean: never a witness
    hits = find_decrease_witnesses(1, [3], [0])
    assert hits == []
    assert mean(fan_broom_stats(3, 0, 1)) == 2
    assert mean(broom_stats(3, 0)) == Fraction(5, 3)


def test_decrease_witnesses_exist_for_k123():
    from subtree_census.census import attach_pendant_stars, marked_census_bruteforce
    from subtree_census.graphs import make_fan_broom_core

    for k in (1, 2, 3):
        hits = find_decrease_witnesses(k, range(k + 2, 8), geometric_star_sizes(64))
        assert hits, f"no witness for k={k}"
        assert all(w.mu_added < w.mu_base for w in hits)
        # re-verify the first witness through an independent core census
        w = hits[0]
        core, hubs = make_fan_broom_core(w.length, k)
        cen = marked_census_bruteforce(core, hubs)
        redone = attach_pendant_stars(cen, {h: w.star_size for h in hubs})
        assert mean(redone) == w.mu_added


def test_decrease_scan_is_sorted_and_exact():
    hits = find_decrease_witnesses(1, range(3, 6), geometric_star_sizes(32))
    lex = [(w.length, w.star_size) for w in hits]
    assert lex == sorted(lex)


def test_decrease_scan_rejects_out_of_range_points_before_any_census(monkeypatch):
    from subtree_census import families
    from subtree_census.census import EXPONENT_CAP

    def no_census(*args):
        raise AssertionError("census ran before the range checks")

    monkeypatch.setattr(families, "_hub_census", no_census)
    with pytest.raises(TooLargeError, match="core length 23 exceeds the census bound 22"):
        find_decrease_witnesses(1, range(3, 24), geometric_star_sizes(65536))
    with pytest.raises(TooLargeError, match="exponent cap"):
        find_decrease_witnesses(1, range(3, 6), [0, 1, EXPONENT_CAP + 1])
    with pytest.raises(ValueError, match="negative leaf count"):
        find_decrease_witnesses(1, range(3, 6), [0, 1, -1])


def test_chorded_search_rejects_out_of_range_sizes_before_any_census(monkeypatch):
    from subtree_census import families
    from subtree_census.census import EXPONENT_CAP

    def no_census(*args):
        raise AssertionError("census ran before the range checks")

    monkeypatch.setattr(families, "_hub_census", no_census)
    with pytest.raises(ValueError, match="negative leaf count"):
        find_chorded_decrease_witness(2, range(4, 10), [0, -1])
    with pytest.raises(TooLargeError, match="exponent cap"):
        find_chorded_decrease_witness(2, range(4, 10), [EXPONENT_CAP + 1])
    # a length with no room for two chords of span >= 2 needs no census
    assert find_chorded_decrease_witness(2, [4], [0, 1]) is None


def test_chorded_witness_and_stepwise_deletion():
    w = find_chorded_decrease_witness(2, range(4, 10), geometric_star_sizes(64))
    assert w is not None
    assert w.mu_added < w.mu_base
    trace = stepwise_deletion_check(w.length, w.star_size, w.chords)
    assert trace.found
    assert len(trace.means) == len(w.chords) + 1
    assert all(a < b for a, b in zip(trace.means, trace.means[1:]))
    assert trace.means[0] == w.mu_added
    assert trace.means[-1] == w.mu_base


def test_stepwise_deletion_empty_chords():
    trace = stepwise_deletion_check(5, 1, ())
    assert trace.found and trace.order == ()
    assert trace.means == (mean(broom_stats(5, 1)),)


def test_stepwise_deletion_single_chord_witness():
    hits = find_decrease_witnesses(1, [3], [8])
    assert hits
    trace = stepwise_deletion_check(3, 8, ((0, 2),))
    assert trace.found and len(trace.order) == 1


# ---------------------------------------------------------------------------
# Density trend

def test_density_trend_rows():
    seq = StarSizeSequence(k=1)
    report = density_trend(1, seq, range(20, 60))
    assert report.rows, "no feasible points"
    for row in report.rows:
        assert 0 < row.sigma_added < row.sigma_base <= 1 or row.sigma_base <= row.sigma_added
        assert 0 < row.sigma_base <= 1
        assert 0 < row.sigma_added <= 1
    ns = [r.n for r in report.rows]
    assert ns == sorted(ns)
    skipped_ns = {n for n, _ in report.skipped}
    assert skipped_ns.isdisjoint(ns)


def test_density_trend_moves_toward_two_thirds():
    # The distance |sigma - 2/3| shrinks while the star rule holds s fixed
    # and jumps when s steps up, so monotonicity is per constant-s run; the
    # net movement over the whole feasible range is toward 2/3.
    seq = StarSizeSequence(k=1)
    report = density_trend(1, seq, range(20, 60))
    gaps = [abs(row.sigma_added - Fraction(2, 3)) for row in report.rows]
    sizes = [row.star_size for row in report.rows]
    for i in range(1, len(report.rows)):
        if sizes[i] == sizes[i - 1]:
            assert gaps[i] < gaps[i - 1]
    assert gaps[-1] < gaps[0]
    # queried up to the end of a constant-s run, the literal three-entry
    # check holds as well
    report2 = density_trend(1, seq, range(20, 45))
    tail = [abs(row.sigma_added - Fraction(2, 3)) for row in report2.rows[-3:]]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_density_trend_skips_a_core_too_short_for_the_chords():
    # the sequence's core condition admits n = 20 for k = 1, but the core
    # of length 20 - 2*9 = 2 has no fan variant
    report = density_trend(1, StarSizeSequence(k=1), [20])
    assert report.rows == ()
    assert report.skipped == ((20, "1 fan chords need a core length of at least 3, not 2"),)


def test_anchored_formula_takes_the_star_sizes_of_the_census_route():
    from subtree_census.census import EXPONENT_CAP

    s = EXPONENT_CAP // 2 + 1
    for length in (2, 3, 5):
        assert anchored_count_formula(length + 2 * s, s) == anchor_edge_stats(length, s).count
    for bad, error in ((EXPONENT_CAP + 1, TooLargeError), (-1, ValueError)):
        with pytest.raises(error):
            anchored_count_formula(4 + 2 * bad, bad)
        with pytest.raises(error):
            anchor_edge_stats(4, bad)


def test_product_law_and_mean_identity_beyond_12_fan_vertices():
    k = 12
    part_fan = fan_anchor_stats(k)
    assert 3 * part_fan.count <= part_fan.total_order <= (k + 1) * part_fan.count
    for length in (k + 2, k + 3):
        for s in (0, 2):
            whole = anchored_family_stats(length, s, k)
            part_edge = anchor_edge_stats(length - k + 1, s)
            assert whole.count == part_fan.count * part_edge.count
            assert mean(whole) == mean(part_edge) + mean(part_fan) - 2


# ---------------------------------------------------------------------------
# Reduced means through the resultant

def _two_hub_census(cells: dict[tuple[int, ...], tuple[int, int]]) -> MarkedCensus:
    return MarkedCensus(frozenset({0, 1}), frozenset(),
                        {(frozenset(hubs), 0): SubtreeStats(c, t) for hubs, (c, t) in cells.items()})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_star_mean_is_reduced_on_random_two_hub_tables(data):
    # a common factor in every cell makes the gcd of count and total nontrivial
    factor = data.draw(st.sampled_from([1, 2, 3, 6, 12, 35]))
    cells = {}
    for hubs in ((), (0,), (1,), (0, 1)):
        c = data.draw(st.integers(0, 400))
        cells[hubs] = (factor * c, factor * (c + data.draw(st.integers(0, 4 * c + 1))))
    s = data.draw(st.one_of(st.just(0), st.just(1), st.integers(0, 1 << 12)))
    cen = _two_hub_census(cells)
    stats = star_stats(cen, s)
    assume(stats.count > 0)
    got = star_mean(cen, s, stats)
    want = Fraction(stats.total_order, stats.count)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_star_mean_falls_back_when_the_resultant_vanishes(monkeypatch):
    from subtree_census import families

    def no_shortcut(p, q):
        raise AssertionError("resultant route taken with R = 0")

    monkeypatch.setattr(families, "coprime_fraction", no_shortcut)
    # every cell has mean 2, so at s = 0 Q = 2P = 2(1 + 3X + 2X^2): R = 0
    shared = _two_hub_census({(): (1, 2), (0,): (3, 6), (0, 1): (2, 4)})
    # no cell holds both hubs: P and Q are linear, and the formula gives R = 0
    linear = _two_hub_census({(): (4, 6), (0,): (2, 6), (1,): (1, 3)})
    for cen, s in ((shared, 0), (linear, 0), (linear, 5), (linear, 300)):
        stats = star_stats(cen, s)
        assert star_mean(cen, s, stats) == Fraction(stats.total_order, stats.count)


def test_decrease_grid_witness_means_equal_census_mean():
    sizes = geometric_star_sizes(1 << 16)
    for k in (1, 2, 3):
        hits = find_decrease_witnesses(k, range(k + 2, 23), sizes)
        assert len(hits) == {1: 280, 2: 266, 3: 252}[k]
        for w in hits:
            for got, stats in ((w.mu_base, broom_stats(w.length, w.star_size)),
                               (w.mu_added, fan_broom_stats(w.length, w.star_size, k))):
                want = mean(stats)
                assert type(got) is Fraction
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
