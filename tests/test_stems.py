import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from subtree_census import stems
from subtree_census.census import (
    Subtree,
    enumerate_subtrees,
    mean,
    subtree_stats_kirchhoff,
)
from subtree_census.errors import NoStemError, TooLargeError
from subtree_census.graphs import (
    Graph,
    make_complete_bipartite,
    make_complete_split,
)
from subtree_census.stems import (
    Bipartition,
    StemClass,
    class_mean_order,
    class_size,
    classify_stem,
    extension_count,
    graph_mean_order,
    is_stem,
    iter_stem_trees,
    mean_sweep,
    stem_count,
    stem_of,
    stem_table,
    threshold_search,
)


def _host_subtrees(part: Bipartition):
    return enumerate_subtrees(part.host_graph())


# ---------------------------------------------------------------------------
# Stem extraction

def test_single_a_vertex_is_its_own_stem():
    part = Bipartition(2, 2, "bipartite")
    t = Subtree(frozenset({0}), frozenset())
    assert is_stem(t, part)
    assert stem_of(t, part) == t


def test_single_b_vertex_has_no_stem():
    part = Bipartition(2, 2, "bipartite")
    t = Subtree(frozenset({2}), frozenset())
    assert not is_stem(t, part)
    with pytest.raises(NoStemError):
        stem_of(t, part)


def test_path_through_b_is_stem():
    part = Bipartition(2, 2, "bipartite")
    t = Subtree(frozenset({0, 1, 2}), frozenset({(0, 2), (1, 2)}))
    assert is_stem(t, part)
    assert stem_of(t, part) == t
    assert classify_stem(t, part) == StemClass(2, 1, 0, 0)


def test_star_of_b_leaves_contracts_to_center():
    part = Bipartition(1, 3, "bipartite")
    t = Subtree(frozenset({0, 1, 2, 3}), frozenset({(0, 1), (0, 2), (0, 3)}))
    assert not is_stem(t, part)
    stem = stem_of(t, part)
    assert stem == Subtree(frozenset({0}), frozenset())


def test_stem_of_every_subtree_is_a_stem():
    for m, n, variant in [(2, 3, "split"), (2, 3, "bipartite"), (3, 3, "split")]:
        part = Bipartition(m, n, variant)
        b = part.b_side
        for t in _host_subtrees(part):
            if len(t.vertices) == 1 and next(iter(t.vertices)) in b:
                continue
            stem = stem_of(t, part)
            assert is_stem(stem, part)
            # idempotent
            assert stem_of(stem, part) == stem


# ---------------------------------------------------------------------------
# Stem enumeration / counts

def test_stem_count_hand_cases():
    assert stem_count("bipartite", 2, 1) == 1    # the path a-b-a
    assert stem_count("split", 2, 0) == 1        # the edge a-a
    assert stem_count("bipartite", 2, 0) == 0    # no bipartite tree on two A
    assert stem_count("split", 1, 0) == 1        # single vertex
    assert stem_count("bipartite", 1, 0) == 1


@pytest.mark.parametrize("variant", ["split", "bipartite"])
def test_stem_count_matches_enumeration(variant):
    for a in range(1, 8):
        for b in range(0, min(a - 1, 7 - a) + 1):
            want = sum(1 for _ in iter_stem_trees(variant, a, b))
            assert stem_count(variant, a, b) == want


def test_stem_count_split_b0_is_cayley():
    # with no B-vertices, split stems are just labeled trees on the A-side
    for a in range(1, 6):
        assert stem_count("split", a, 0) == a ** max(0, a - 2)


def test_stem_class_identity_and_bounds():
    for variant in ("split", "bipartite"):
        for a in range(1, 5):
            for b in range(0, a):
                part = Bipartition(a, b, variant)
                for edges in iter_stem_trees(variant, a, b):
                    t = Subtree(frozenset(range(a + b)), frozenset(edges))
                    cls = classify_stem(t, part)
                    assert cls.a == a and cls.b == b
                    assert cls.b == cls.a - 1 - (cls.inner_edges + cls.excess)
                    assert cls.b <= cls.a - 1
                    if variant == "bipartite":
                        assert cls.inner_edges == 0


def test_stem_class_arguments_are_validated():
    with pytest.raises(ValueError, match="variant must be one of"):
        stem_count("tripartite", 3, 1)
    with pytest.raises(ValueError, match="at least one A-vertex"):
        stem_count("split", 0, 0)
    with pytest.raises(ValueError, match="0 <= b <= a-1"):
        stem_count("split", 3, 3)
    with pytest.raises(TooLargeError):
        stem_count("split", stems.STEM_M_MAX + 1, 0)
    with pytest.raises(ValueError, match="exceeds the A-side size"):
        class_size("split", 2, 5, 3, 0)
    with pytest.raises(ValueError, match="invalid stem class"):
        class_size("split", 4, 1, 3, 2)
    with pytest.raises(ValueError, match="m >= 1"):
        Bipartition(0, 1, "split")


def test_stem_counts_variant_dominance_and_top_class():
    for a in range(1, 6):
        for b in range(0, a):
            s_split = stem_count("split", a, b)
            s_bip = stem_count("bipartite", a, b)
            assert s_bip <= s_split
            if b == a - 1:
                assert s_bip == s_split  # top classes use no A-side edges
            if a <= 4 and b <= 3:
                m, n = 5, 4
                if b <= min(a - 1, n):
                    assert (class_size("split", m, n, a, b)
                            >= class_size("bipartite", m, n, a, b))


def test_extension_count():
    assert extension_count(1, 0, 2) == 4
    assert extension_count(2, 1, 3) == 9
    # b == n leaves no free B-vertices
    assert extension_count(3, 2, 2) == 1
    assert extension_count(2, 2, 2) == 1
    with pytest.raises(ValueError):
        extension_count(2, 3, 2)


def test_class_size_hand_cases():
    assert class_size("bipartite", 2, 2, 2, 1) == 6
    assert class_size("bipartite", 2, 2, 2, 0) == 0  # stem count 0
    for n in range(1, 6):
        assert class_size("split", 1, n, 1, 0) == 2**n
        assert class_size("bipartite", 1, n, 1, 0) == 2**n


def test_class_mean_order_cases():
    assert class_mean_order(5, 2, 1) == Fraction(17, 3)
    # b == n: every B-vertex used, mean == a + n
    assert class_mean_order(3, 4, 3) == 7
    # alternative form in terms of the edge decomposition
    for a in range(1, 6):
        for b in range(0, a):
            fc = a - 1 - b  # inner_edges + excess
            n = 11
            alt = Fraction((n + 2 + a) * a, a + 1) - Fraction(1 + fc, a + 1)
            assert class_mean_order(n, a, b) == alt


def test_class_mean_maximal_at_top_class():
    for m in range(2, 6):
        for n in range(m, 12):
            top = class_mean_order(n, m, m - 1)
            for a in range(1, m + 1):
                for b in range(0, min(a - 1, n) + 1):
                    if (a, b) != (m, m - 1):
                        assert class_mean_order(n, a, b) < top


def test_max_stem_order_characterization():
    # order 2m-1 is reached exactly by classes a=m, b=m-1 (forcing f=c=0)
    m = 4
    for variant in ("split", "bipartite"):
        for a in range(1, m + 1):
            for b in range(0, a):
                for edges in iter_stem_trees(variant, a, b):
                    order = a + b
                    assert order <= 2 * m - 1
                    if order == 2 * m - 1:
                        t = Subtree(frozenset(range(a + b)), frozenset(edges))
                        cls = classify_stem(t, Bipartition(a, b, variant))
                        assert (a, b) == (m, m - 1)
                        assert cls.inner_edges == 0 and cls.excess == 0


# ---------------------------------------------------------------------------
# Fibers in materialized hosts

@pytest.mark.parametrize("variant", ["split", "bipartite"])
@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_extension_fibers_match_formula(variant, m, n):
    part = Bipartition(m, n, variant)
    b_side = part.b_side
    fibers = Counter()
    singles_in_b = 0
    for t in _host_subtrees(part):
        if len(t.vertices) == 1 and next(iter(t.vertices)) in b_side:
            singles_in_b += 1
            continue
        fibers[stem_of(t, part)] += 1
    assert singles_in_b == n
    for stem, size in fibers.items():
        cls = classify_stem(stem, part)
        assert size == extension_count(cls.a, cls.b, n)


@pytest.mark.parametrize("variant", ["split", "bipartite"])
@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3), (3, 5)])
def test_class_sizes_partition_subtrees(variant, m, n):
    part = Bipartition(m, n, variant)
    total = sum(class_size(variant, m, n, a, b)
                for a in range(1, m + 1)
                for b in range(0, min(a - 1, n) + 1)) + n
    assert total == subtree_stats_kirchhoff(part.host_graph()).count


# ---------------------------------------------------------------------------
# Assembled means

@pytest.mark.parametrize("variant", ["split", "bipartite"])
def test_graph_mean_matches_census(variant):
    maker = make_complete_split if variant == "split" else make_complete_bipartite
    for m in range(1, 4):
        for n in range(1, 7):
            want = mean(subtree_stats_kirchhoff(maker(m, n)))
            assert graph_mean_order(variant, m, n) == want


def test_split_equals_bipartite_for_m1():
    for n in (1, 5, 40, 300):
        assert graph_mean_order("split", 1, n) == graph_mean_order("bipartite", 1, n)


def test_graph_mean_rejects_oversize():
    with pytest.raises(TooLargeError):
        graph_mean_order("split", stems.STEM_M_MAX + 1, 6)  # class grid too wide
    with pytest.raises(TooLargeError):
        graph_mean_order("split", 2, 10**7)


def test_graph_mean_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant must be one of"):
        graph_mean_order("tripartite", 3, 10)


def test_stem_table():
    table = stem_table("bipartite", 3)
    assert table.entries[(1, 0)] == 1
    assert table.entries[(2, 1)] == 1
    assert (3, 2) in table.entries


# ---------------------------------------------------------------------------
# Threshold search

def test_threshold_no_crossing_for_m1():
    rep = threshold_search(1, 60)
    assert rep.n_star is None
    assert all(sign == 0 for _, sign in rep.comparisons)


def test_threshold_m2_crossing_verified_by_census():
    rep = threshold_search(2, 12)
    assert rep.n_star == 6
    assert rep.persists
    # exact against materialized censuses on both sides of the crossing
    for n, expect_less in [(5, False), (6, True)]:
        ms = mean(subtree_stats_kirchhoff(make_complete_split(2, n)))
        mb = mean(subtree_stats_kirchhoff(make_complete_bipartite(2, n)))
        assert (ms < mb) is expect_less


def test_threshold_first_crossing_is_m_plus_2():
    # measured pattern for these m, not a theorem
    for m in range(3, 13):
        rep = threshold_search(m, 200)
        assert rep.n_star == m + 2 and rep.persists


@pytest.mark.parametrize("m", [5, 6])
def test_threshold_crossing_verified_by_census(m):
    n_star = threshold_search(m, 20).n_star
    for n, want in [(n_star - 1, 1), (n_star, -1)]:
        ms = mean(subtree_stats_kirchhoff(make_complete_split(m, n)))
        mb = mean(subtree_stats_kirchhoff(make_complete_bipartite(m, n)))
        assert (ms > mb) - (ms < mb) == want


def test_threshold_and_stem_table_never_enumerate(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("stem enumeration on the production path")
    monkeypatch.setattr(stems, "iter_stem_trees", no_enumeration)
    assert threshold_search(6, 50).n_star == 8
    table = stem_table("split", 8)
    assert len(table.entries) == 36
    assert table.entries[(8, 0)] == 8 ** 6


def test_threshold_ties_are_not_crossings():
    rep = threshold_search(1, 10)
    assert rep.n_star is None and rep.first_violation is None and not rep.persists


def test_threshold_signs_match_graph_means():
    for m in range(1, 5):
        rep = threshold_search(m, 80)
        want = []
        for n in range(1, 81):
            diff = graph_mean_order("split", m, n) - graph_mean_order("bipartite", m, n)
            want.append((n, (diff > 0) - (diff < 0)))
        assert list(rep.comparisons) == want


@pytest.mark.parametrize("m", range(1, 7))
def test_threshold_signs_match_plain_cross_multiplication(m):
    """The leading-bits filter against the full products, on totals of 2k to
    5.7k bits; at m = 1 the two hosts coincide and every sign is a tie."""
    want = []
    for p in mean_sweep(m, 2000):
        (ts, cs), (tb, cb) = p.split, p.bipartite
        diff = ts * cb - tb * cs
        want.append((p.n, (diff > 0) - (diff < 0)))
    assert threshold_search(m, 2000).comparisons == tuple(want)
    if m == 1:
        assert {sign for _, sign in want} == {0}


@pytest.mark.parametrize("variant", ["split", "bipartite"])
def test_sweep_means_match_census(variant):
    maker = make_complete_split if variant == "split" else make_complete_bipartite
    for m in range(1, 4):
        for point in mean_sweep(m, 6):
            want = mean(subtree_stats_kirchhoff(maker(m, point.n)))
            assert point.mean(variant) == want


@pytest.mark.parametrize("m,n_max", [(stems.STEM_M_MAX + 1, 10), (2, 10**7)])
def test_threshold_rejects_oversize_before_sweeping(monkeypatch, m, n_max):
    def no_enumeration(*args):
        raise AssertionError("stem count ran before the size check")
    monkeypatch.setattr(stems, "stem_count", no_enumeration)
    with pytest.raises(TooLargeError):
        threshold_search(m, n_max)


def test_threshold_empty_and_invalid_inputs():
    rep = threshold_search(3, 0)
    assert rep.comparisons == () and rep.n_star is None and not rep.persists
    with pytest.raises(ValueError):
        threshold_search(0, 5)


def test_threshold_refuses_negative_n_max():
    for n_max in (-1, -7):
        with pytest.raises(ValueError, match="n_max >= 0"):
            list(mean_sweep(2, n_max))
        with pytest.raises(ValueError, match="n_max >= 0"):
            threshold_search(1, n_max)


@pytest.mark.parametrize("m,n_max,error", [
    (0, 0, ValueError), (-3, -5, ValueError), (0, 5, ValueError),
    (stems.STEM_M_MAX + 1, 0, TooLargeError), (stems.STEM_M_MAX + 1, 5, TooLargeError),
    (stems.STEM_M_MAX + 1, -1, TooLargeError),
])
def test_threshold_checks_m_whatever_n_max(m, n_max, error):
    with pytest.raises(error):
        threshold_search(m, n_max)


def test_stem_table_rejects_m_below_1():
    for m in (0, -2):
        with pytest.raises(ValueError):
            stem_table("split", m)


def test_class_size_refuses_powers_beyond_the_exponent_cap():
    # the same (m, n) that graph_mean_order refuses
    with pytest.raises(TooLargeError):
        graph_mean_order("split", 3, 600_000)
    for a, b in ((3, 0), (3, 2), (1, 0)):
        with pytest.raises(TooLargeError, match="exponent cap"):
            class_size("split", 3, 600_000, a, b)
    with pytest.raises(TooLargeError):
        extension_count(3, 0, 600_000)
    # just inside: 4**(n-b) has 2*(n-b) + 1 bits, counted as (n-b)*bits(4)
    from subtree_census.census import EXPONENT_CAP
    n = EXPONENT_CAP // 3
    assert extension_count(3, 0, n) == 1 << (2 * n)


# ---------------------------------------------------------------------------
# The per-a sweep against the per-class closed forms

def _class_totals(variant, m, n):
    """(lcm * total order, count) summed class by class, plus the n single
    B-vertex subtrees: the form the per-a grouping replaces."""
    lcm = math.lcm(*range(1, m + 2))
    total, count = n * lcm, n
    for a in range(1, m + 1):
        for b in range(min(a - 1, n) + 1):
            size = class_size(variant, m, n, a, b)
            count += size
            total += size * class_mean_order(n, a, b) * lcm
    assert total.denominator == 1
    return int(total), count


@pytest.mark.parametrize("variant", ["split", "bipartite"])
def test_sweep_matches_class_sums(variant):
    # n = 1..m+2 covers the points with n < a-1, where P_a = (a+1)**(n-a+1)
    # is a fraction and the per-a bracket is divided exactly instead
    checked = 0
    for m in range(1, 11):
        points = {p.n: p for p in mean_sweep(m, 301)}
        for n in [*range(1, m + 3), 100, 301]:
            got = points[n].split if variant == "split" else points[n].bipartite
            assert got == _class_totals(variant, m, n), (m, n)
            checked += 1
    assert checked == 10 * 2 + sum(range(3, 13))


def test_graph_mean_matches_sweep_at_m64():
    points = {p.n: p for p in mean_sweep(64, 200)}
    for n in (1, 62, 63, 64, 200):
        for variant in ("split", "bipartite"):
            assert graph_mean_order(variant, 64, n) == points[n].mean(variant)


# ---------------------------------------------------------------------------
# The tail certificate against the exact sweep

def _exp_host_at(terms, n):
    """(K * lcm * total, K * count) of one host, summed over its bases."""
    return (sum(base ** n * stems._poly_at(delta, n) for base, _, delta in terms),
            sum(base ** n * stems._poly_at(gamma, n) for base, gamma, _ in terms))


def _abs(poly):
    return [abs(c) for c in poly]


def _certificate_parts(m):
    lcm, split, bip = stems._sweep_rows(m, 1)
    cert = stems._tail_certificate(m, 10**4, split, bip, lcm)
    return lcm, split, bip, cert


@pytest.mark.parametrize("m", range(2, 11))
def test_certificate_polynomials_match_the_sweep(m):
    """The exponential polynomial of each host equals the sweep's exact
    integers, and D splits into (m+1)**(2n) * H plus the term grid that S
    sums with absolute coefficients, at n = m-1..m+3, N and N + 100."""
    lcm, split, bip, (n_cert, sign) = _certificate_parts(m)
    assert sign == -1
    hosts = [stems._exp_terms(rows, lcm) for rows in (split, bip)]
    k = hosts[0][0][1][1]  # the base-1 count term is K * n
    h, s = stems._certificate_polys(split, bip, lcm)
    points = {p.n: p for p in mean_sweep(m, n_cert + 100)}
    for n in [*range(m - 1, m + 4), n_cert, n_cert + 100]:
        (ts, cs), (tb, cb) = (_exp_host_at(terms, n) for terms in hosts)
        p = points[n]
        assert (ts, cs, tb, cb) == (k * p.split[0], k * p.split[1],
                                    k * p.bipartite[0], k * p.bipartite[1])
        d = ts * cb - tb * cs
        assert d == k * k * (p.split[0] * p.bipartite[1] - p.bipartite[0] * p.split[1])
        assert (d > 0) - (d < 0) == p.sign
        # the grid oracle: every pair of terms but top * top, over its base
        at = stems._poly_at
        rest = bound = 0
        for (b1, _, ds_i), (_, _, db_i) in zip(*hosts):
            for (b2, gs_j, _), (_, gb_j, _) in zip(*hosts):
                if b1 == b2 == m + 1:
                    continue
                rest += (b1 * b2) ** n * (at(ds_i, n) * at(gb_j, n) - at(db_i, n) * at(gs_j, n))
                bound += (at(_abs(ds_i), n) * at(_abs(gb_j), n)
                          + at(_abs(db_i), n) * at(_abs(gs_j), n))
        assert d == (m + 1) ** (2 * n) * at(h, n) + rest
        assert sum(at(p_, n) * at(q, n) for p_, q in s) == bound
        assert abs(rest) <= (m * (m + 1)) ** n * bound


def test_certificate_thresholds():
    """N(m) against its induction start n1(m), the smallest n with
    m * (n+1)**d <= (m+1) * n**d at d = deg S = m + max(m-2, 1)."""
    got = {}
    for m in (2, 3, 4, 5, 6, 8, 10, 16):
        d = m + max(m - 2, 1)
        n1 = next(n for n in range(1, 10**4) if m * (n + 1) ** d <= (m + 1) * n ** d)
        n_cert, _ = _certificate_parts(m)[3]
        assert n_cert >= n1
        got[m] = (n1, n_cert)
    assert got == {2: (7, 20), 3: (14, 21), 4: (27, 27), 5: (44, 44), 6: (65, 65),
                   8: (119, 119), 10: (189, 189), 16: (495, 495)}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_threshold_certifies_its_tail(m):
    rep = threshold_search(m, 2000)
    assert rep.certified_from == _certificate_parts(m)[3][0]
    assert all(sign == -1 for n, sign in rep.comparisons if n >= rep.certified_from)


def test_threshold_certifies_ties_for_m1():
    rep = threshold_search(1, 2000)
    assert rep.certified_from == 1
    assert {sign for _, sign in rep.comparisons} == {0}


def test_certificate_refuses_a_positive_tail():
    """With the hosts swapped, D > 0 for large n: only the H < 0 check
    stands between that and a certified negative tail."""
    for m in (2, 3, 6):
        lcm, split, bip, _ = _certificate_parts(m)
        assert stems._tail_certificate(m, 10**4, bip, split, lcm) is None
        assert {p.n: p.sign for p in mean_sweep(m, 300)}[300] == -1  # swapped: +1


def test_threshold_without_certificate_is_the_exact_sweep(monkeypatch):
    certified = {m: threshold_search(m, 600) for m in range(1, 7)}
    monkeypatch.setattr(stems, "_tail_certificate", lambda *args: None)
    for m, rep in certified.items():
        swept = threshold_search(m, 600)
        assert swept.certified_from is None
        assert swept.comparisons == tuple((p.n, p.sign) for p in mean_sweep(m, 600))
        assert (swept.comparisons, swept.n_star, swept.persists, swept.first_violation) == (
            rep.comparisons, rep.n_star, rep.persists, rep.first_violation)


def test_threshold_sweeps_only_below_the_certificate(monkeypatch):
    calls = []
    host_at = stems._host_at
    monkeypatch.setattr(stems, "_host_at", lambda *args: calls.append(args[3]) or host_at(*args))
    rep = threshold_search(4, 6000)
    assert rep.certified_from == 27 and rep.n_star == 6 and rep.persists
    assert len(calls) == 2 * 27 and max(calls) == 27
    assert len(rep.comparisons) == 6000


def test_threshold_below_the_induction_start_builds_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("certificate built below its induction start")
    monkeypatch.setattr(stems, "_certificate_polys", refuse)
    rep = threshold_search(64, 200)
    assert rep.n_star == 67 and rep.certified_from is None
