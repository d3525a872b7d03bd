"""Star-ended path families and their exact subtree statistics.

The base family is a path of given core length with `s` pendant leaves
attached at each endpoint (a double broom); the star size `s` enters all
statistics only through powers of two, so it may be very large.  Variants
add chords to the core: the *fan* variant joins the first k path vertices
to the far hub, the *chorded* variant adds arbitrary disjoint-span chords.

Alongside the raw statistics live the structured subtree families used to
analyse them (subtrees anchored at the hub chord, subtrees classified by
which chords they use) and the scans that look for parameters where adding
chords makes the mean subtree order drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .census import (
    MarkedCensus,
    SubtreeStats,
    attach_pendant_stars,
    census_with_required,
    check_leaf_count,
    compare_means,
    coprime_fraction,
    density,
    marked_census,
    mean,
)
from .errors import TooLargeError
from .graphs import (
    Edge,
    Graph,
    VertexSet,
    edge,
    equal_span_chords,
    make_broom_core,
    make_chorded_broom_core,
    make_fan_broom_core,
)
from .limits import CENSUS_MAX


# ---------------------------------------------------------------------------
# Star-size sequences

def default_star_rule(n: int) -> int:
    """ceil(2*log2(n)), computed exactly for arbitrary-precision n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n * n - 1).bit_length()


_VALID_N_HORIZON = 1 << 16  # the n scanned by `StarSizeSequence.min_valid_n`


@dataclass(frozen=True)
class StarSizeSequence:
    """A rule n -> s_n together with the validity conditions that make the
    family constructions work: the core keeps at least k+1 vertices, and
    2**s_n grows at least like n**2.

    The core condition is one vertex looser than `make_fan_broom_core`,
    which needs k + 2 core vertices for k fan chords.  So for k = 1
    `min_valid_n()` is 20, whose core of length 2 has no fan variant, and
    `density_trend` skips that n.
    """

    k: int
    rule: Callable[[int], int] = default_star_rule

    def star_size(self, n: int) -> int:
        s = self.rule(n)
        if s < 0:
            raise ValueError("star size rule produced a negative value")
        return s

    def core_condition(self, n: int) -> bool:
        """2*s_n <= n - k - 1: a core of at least k + 1 vertices, one fewer
        than the k fan chords need."""
        return 2 * self.star_size(n) <= n - self.k - 1

    def growth_condition(self, n: int) -> bool:
        """2**s_n >= n**2, that is s_n >= `default_star_rule(n)`."""
        return self.star_size(n) >= default_star_rule(n)

    def validate(self, n: int):
        if not self.core_condition(n):
            raise ValueError(f"2*s_n > n-k-1 at n={n}")
        if not self.growth_condition(n):
            raise ValueError(f"2**s_n < n**2 at n={n}")

    def min_valid_n(self) -> int:
        """Least m such that both conditions hold for every scanned n >= m.

        The scan is verified over a generous window past the last violation;
        for the default rule the slack grows linearly while the star size
        grows logarithmically, so the window is decisive in practice.
        """
        last_bad = 0
        for n in range(1, _VALID_N_HORIZON + 1):
            if not (self.core_condition(n) and self.growth_condition(n)):
                last_bad = n
        if last_bad + 1 > _VALID_N_HORIZON:
            raise ValueError("no valid start found within the horizon")
        m = last_bad + 1
        for n in range(m, max(4 * m, m + 512)):
            if not (self.core_condition(n) and self.growth_condition(n)):
                raise ValueError(f"conditions fail again at n={n}; rule is not eventually valid")
        return m

    def sublinearity_spot_check(self, ns: Iterable[int]) -> bool:
        """s_n/n non-increasing over the given points (finite stand-in for
        the asymptotic smallness of s_n)."""
        ratios = [Fraction(self.star_size(n), n) for n in ns]
        return all(a >= b for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------
# Cached core censuses

@lru_cache(maxsize=None)
def _hub_census(core: Graph, hubs: VertexSet) -> MarkedCensus:
    return marked_census(core, hubs)


# the same call as `_hub_census`, so the same cache; a name of its own for
# the benchmark's tracer
_marked_core_census = _hub_census


@lru_cache(maxsize=None)
def _required_core_census(core: Graph, marks: VertexSet, required: tuple[Edge, ...]) -> MarkedCensus:
    return census_with_required(core, marks, required)


def _check_core(length: int):
    if length > CENSUS_MAX:
        raise TooLargeError(f"core length {length} exceeds the census bound {CENSUS_MAX}")


def star_stats(census: MarkedCensus, s: int, singletons: bool = True) -> SubtreeStats:
    """`s` pendant leaves at every marked vertex of `census`."""
    return attach_pendant_stars(census, dict.fromkeys(census.marked, s),
                                include_leaf_singletons=singletons)


def star_mean(census: MarkedCensus, s: int, stats: SubtreeStats) -> Fraction:
    """The reduced mean of `stats = star_stats(census, s)`, with no gcd of
    its big operands.

    With h = 2 hubs and X = 2**s, count = P(X) and 2*total = Q(X) for the
    quadratics P_j = sum of cell counts over the cells holding j hubs and
    Q_j = sum of 2*total + j*s*count over them; the 2s leaf singletons add
    2s to P_0 and 4s to Q_0.  A common divisor of P(X) and Q(X) divides
    their resultant R, an integer of about 90 bits (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 6), so the gcd is taken modulo R.
    R = 0 (P and Q share a factor) or h != 2 falls back to `Fraction`.

    Nothing checks that `stats` is `star_stats(census, s)`.  Given other
    statistics, such as `star_stats(census, s, singletons=False)`, the
    result can be an unreduced `Fraction` whose numerator and denominator
    share a factor.
    """
    t, c = stats.total_order, stats.count
    if len(census.marked) == 2:
        p, q = [0, 0, 0], [0, 0, 0]
        for (marks, _), cell in census.table.items():
            j = len(marks)
            p[j] += cell.count
            q[j] += 2 * cell.total_order + j * s * cell.count
        p[0] += 2 * s
        q[0] += 4 * s
        (a0, a1, a2), (b0, b1, b2) = p, q
        r = abs((a2 * b0 - a0 * b2) ** 2 - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1))
        if r:
            x = pow(2, s, r)
            g = gcd(r, (a0 + (a1 + a2 * x) * x) % r, (b0 + (b1 + b2 * x) * x) % r)
            g = gcd(g, t % g, c % g)
            return coprime_fraction(t // g, c // g)
    return Fraction(t, c)


# ---------------------------------------------------------------------------
# Family statistics

def broom_census(length: int) -> MarkedCensus:
    """Hub census of the double broom's path core."""
    _check_core(length)
    return _hub_census(*make_broom_core(length))


def fan_broom_census(length: int, k: int) -> MarkedCensus:
    """Hub census of the path core with the k fan chords (first k path
    vertices to the far hub)."""
    _check_core(length)
    return _hub_census(*make_fan_broom_core(length, k))


def chorded_broom_census(length: int, chords: Iterable[tuple[int, int]]) -> MarkedCensus:
    """Hub census of the path core with arbitrary valid chords."""
    _check_core(length)
    return _hub_census(*make_chorded_broom_core(length, chords))


def broom_stats(length: int, s: int) -> SubtreeStats:
    """Exact statistics of the double broom: path core + s leaves per hub."""
    return star_stats(broom_census(length), s)


def fan_broom_stats(length: int, s: int, k: int) -> SubtreeStats:
    """Double broom plus the k fan chords."""
    return star_stats(fan_broom_census(length, k), s)


def chorded_broom_stats(length: int, s: int, chords: Iterable[tuple[int, int]]) -> SubtreeStats:
    """Double broom plus arbitrary valid core chords."""
    return star_stats(chorded_broom_census(length, chords), s)


def path_mean_order(q: int) -> Fraction:
    """Mean subtree order of a path: (q+2)/3, exactly, any size."""
    if q < 1:
        raise ValueError("path order must be >= 1")
    return Fraction(q + 2, 3)


# ---------------------------------------------------------------------------
# Anchored families

def anchored_count_formula(n: int, s: int) -> int:
    """Closed form 2**(2s) * C(n-2s, 2) for the anchored family size; it
    takes exactly the star sizes that `anchor_edge_stats` takes."""
    length = n - 2 * s
    if length < 2:
        raise ValueError("need n - 2s >= 2")
    check_leaf_count(s)
    return (1 << (2 * s)) * comb(length, 2)


def _anchor_core(length: int) -> tuple[Graph, VertexSet]:
    # At length 2 the hub-hub chord coincides with the single path edge, so
    # the anchored family lives on the bare path core.
    if length == 2:
        return make_broom_core(2)
    return make_fan_broom_core(length, 1)


def anchor_edge_stats(length: int, s: int) -> SubtreeStats:
    """Statistics of the subtrees containing the hub-hub chord, in the fan
    variant with a single chord, stars attached."""
    _check_core(length)
    core, hubs = _anchor_core(length)
    anchor = edge(0, length - 1)
    return star_stats(_required_core_census(core, hubs, (anchor,)), s, singletons=False)


def fan_anchor_stats(k: int) -> SubtreeStats:
    """Statistics of the subtrees of the bare fan graph (path prefix of k
    vertices plus an apex joined to all of them) that contain the first
    prefix vertex, the last prefix vertex, and the apex.  The fan has k + 1
    vertices, so the census cap `CENSUS_MAX` bounds k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k + 1 > CENSUS_MAX:
        raise TooLargeError(f"census capped at {CENSUS_MAX} vertices")
    apex = k
    pairs = [(i, i + 1) for i in range(k - 1)] + [(i, apex) for i in range(k)]
    fan = Graph.of(k + 1, pairs)
    marks = frozenset({0, k - 1, apex})
    cen = _marked_core_census(fan, marks)
    return cen.cell(marks)


def anchored_family_stats(length: int, s: int, k: int) -> SubtreeStats:
    """Statistics of the subtrees of the fan variant that contain the first
    and k-th path vertices and the far hub but not the whole remaining
    spine, stars attached.

    For k == 1 these are the subtrees through the hub-hub chord, and the
    length-2 core, whose chord is its one path edge, is `anchor_edge_stats`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1 and length == 2:
        return anchor_edge_stats(length, s)
    _check_core(length)
    core, hubs = make_fan_broom_core(length, k)
    marks = frozenset({0, k - 1, length - 1})
    spine = tuple((i, i + 1) for i in range(k - 1, length - 1))
    with_marks = _marked_core_census(core, marks).cell(marks)
    with_spine = _required_core_census(core, marks, spine).cell(marks, len(spine))
    cell = with_marks - with_spine
    return star_stats(MarkedCensus(hubs, frozenset(), {(hubs, 0): cell}), s, singletons=False)


def chord_class_stats(length: int, s: int, chords: Iterable[tuple[int, int]],
                      used: Iterable[tuple[int, int]]) -> SubtreeStats:
    """Statistics of the subtrees of the chorded variant whose chord set is
    exactly `used`, stars attached.

    Unused chords are deleted from the core, used ones are forced; the
    subfamilies over all chord subsets partition the full family.
    """
    _check_core(length)
    all_chords = frozenset(edge(u, v) for u, v in chords)
    used_set = frozenset(edge(u, v) for u, v in used)
    if not used_set <= all_chords:
        raise ValueError("used chords must be a subset of the chords")
    core, hubs = make_chorded_broom_core(length, all_chords)
    trimmed = core.remove_edges(all_chords - used_set)
    # leaf singletons use no chord, so they belong only to the chordless class
    cen = _required_core_census(trimmed, hubs, tuple(sorted(used_set)))
    return star_stats(cen, s, singletons=not used_set)


# ---------------------------------------------------------------------------
# Witness scans

class DecreaseWitness(NamedTuple):
    length: int
    star_size: int
    mu_base: Fraction
    mu_added: Fraction


def geometric_star_sizes(s_max: int) -> list[int]:
    """0, 1, 2, 4, 8, ... up to s_max."""
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    out = [0]
    v = 1
    while v <= s_max:
        out.append(v)
        v *= 2
    return out


def _decreases(base: MarkedCensus, added: MarkedCensus,
               sizes: list[int]) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(s, mu_base, mu_added) for each star size s, in order, at which
    `added` with s leaves per hub has the strictly smaller mean.  Means are
    compared exactly, by `compare_means`, and reduced only for a hit."""
    for s in sizes:
        b = star_stats(base, s)
        a = star_stats(added, s)
        if compare_means(a.total_order, a.count, b.total_order, b.count) < 0:
            yield s, star_mean(base, s, b), star_mean(added, s, a)


def find_decrease_witnesses(k: int, lengths: Iterable[int],
                            star_sizes: Iterable[int]) -> list[DecreaseWitness]:
    """All (length, star size) pairs in the given ranges where adding the k
    fan chords strictly decreases the mean subtree order; scan order is
    lengths-major."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lengths = list(lengths)
    sizes = list(star_sizes)
    # fail on any out-of-range point before the first census
    for length in lengths:
        _check_core(length)
        make_fan_broom_core(length, k)
    for s in sizes:
        check_leaf_count(s)
    return [DecreaseWitness(length, *hit) for length in lengths
            for hit in _decreases(broom_census(length), fan_broom_census(length, k), sizes)]


class ChordWitness(NamedTuple):
    length: int
    star_size: int
    span: int
    chords: tuple[Edge, ...]
    mu_base: Fraction
    mu_added: Fraction


def find_chorded_decrease_witness(k: int, lengths: Iterable[int],
                                  star_sizes: Iterable[int]) -> ChordWitness | None:
    """First parameter set where adding k equal-span chords strictly
    decreases the mean; spans are tried largest-first within each length."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sizes = list(star_sizes)
    for s in sizes:
        check_leaf_count(s)
    for length in lengths:
        max_span = (length - 1) // k
        if max_span < 2:
            continue
        base_census = broom_census(length)
        for span in range(max_span, 1, -1):
            chords = equal_span_chords(length, k, span)
            added_census = chorded_broom_census(length, chords)
            for s, mu_base, mu_added in _decreases(base_census, added_census, sizes):
                return ChordWitness(length, s, span, chords, mu_base, mu_added)
    return None


class StepwiseTrace(NamedTuple):
    found: bool
    order: tuple[Edge, ...]
    means: tuple[Fraction, ...]  # mean before any deletion, then after each


def stepwise_deletion_check(length: int, s: int,
                            chords: Iterable[tuple[int, int]]) -> StepwiseTrace:
    """Search for an order to delete the chords one at a time so that the
    mean subtree order strictly increases at every step."""
    chord_set = frozenset(edge(u, v) for u, v in chords)

    @lru_cache(maxsize=None)
    def mu_of(remaining: frozenset) -> Fraction:
        return mean(chorded_broom_stats(length, s, remaining))

    start = mu_of(chord_set)
    if not chord_set:
        return StepwiseTrace(True, (), (start,))
    for order in permutations(sorted(chord_set)):
        means = [start]
        remaining = set(chord_set)
        ok = True
        for c in order:
            remaining.discard(c)
            nxt = mu_of(frozenset(remaining))
            if nxt <= means[-1]:
                ok = False
                break
            means.append(nxt)
        if ok:
            return StepwiseTrace(True, tuple(order), tuple(means))
    return StepwiseTrace(False, (), (start,))


# ---------------------------------------------------------------------------
# Density trend

class TrendRow(NamedTuple):
    n: int
    length: int
    star_size: int
    sigma_base: Fraction
    sigma_added: Fraction


@dataclass(frozen=True)
class TrendReport:
    k: int
    rows: tuple[TrendRow, ...]
    skipped: tuple[tuple[int, str], ...]


def density_trend(k: int, sequence: StarSizeSequence, ns: Iterable[int]) -> TrendReport:
    """Exact densities of the base and fan families along a star-size rule.

    Rows report sigma = mu/n for both graphs at each feasible n; infeasible
    points (core too long for the census or too short for the chords) are
    skipped with the refusal of `fan_broom_census`.  No limit is asserted;
    this is a finite trend table.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = []
    skipped = []
    for n in ns:
        s = sequence.star_size(n)
        length = n - 2 * s
        try:
            added = fan_broom_census(length, k)
        except (ValueError, TooLargeError) as exc:
            skipped.append((n, str(exc)))
            continue
        base = broom_stats(length, s)
        rows.append(TrendRow(n, length, s, density(base, n), density(star_stats(added, s), n)))
    return TrendReport(k, tuple(rows), tuple(skipped))
