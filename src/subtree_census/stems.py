"""Exact mean subtree order of complete split and complete bipartite graphs.

Both hosts share a vertex bipartition into an m-side A (complete in the
split variant, independent in the bipartite one) and an independent n-side
B.  Each subtree is classified by its *stem*: the subtree induced by all of
its A-vertices together with the B-vertices of degree at least two.  Stems
on fixed label sets are counted in closed form by inclusion-exclusion over
the B-vertices forced to be leaves; `iter_stem_trees` filters them out of
the labeled trees and serves only as the test oracle.  Everything else is
closed-form in n, so n may be large while m stays moderate: grouped by the
A-side size a, the classes make each host a sum over a of
(a+1)**(n-a+1) times a small integer combination of the C(n, b), b < a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from .census import Subtree, compare_means
from .errors import NoStemError, TooLargeError
from .graphs import Edge, Graph, make_complete_bipartite, make_complete_split
from .limits import STEM_ENUM_MAX, STEM_M_MAX, check_exponent
from .trees import iter_labeled_trees

VARIANTS = ("split", "bipartite")


@dataclass(frozen=True)
class Bipartition:
    """Host bipartition: A = 0..m-1, B = m..m+n-1."""

    m: int
    n: int
    variant: str

    def __post_init__(self):
        if self.m < 1 or self.n < 0:
            raise ValueError("need m >= 1 and n >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def a_side(self) -> frozenset[int]:
        return frozenset(range(self.m))

    @property
    def b_side(self) -> frozenset[int]:
        return frozenset(range(self.m, self.m + self.n))

    def host_graph(self) -> Graph:
        if self.variant == "split":
            return make_complete_split(self.m, self.n)
        return make_complete_bipartite(self.m, self.n)


class StemClass(NamedTuple):
    """Class data of a stem: side sizes plus the decomposition of the edge
    identity b = a - 1 - (inner_edges + excess)."""

    a: int
    b: int
    inner_edges: int  # edges inside the A-side
    excess: int       # sum over B-vertices of (degree - 2)


def _degrees(tree: Subtree) -> dict[int, int]:
    deg = {v: 0 for v in tree.vertices}
    for u, v in tree.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def is_stem(tree: Subtree, part: Bipartition) -> bool:
    """True when every B-side vertex of the tree has degree >= 2."""
    deg = _degrees(tree)
    b = part.b_side
    return all(deg[v] >= 2 for v in tree.vertices if v in b)


def stem_of(tree: Subtree, part: Bipartition) -> Subtree:
    """The subtree induced by A(T) and the B-vertices of degree >= 2.

    Undefined exactly when the tree is a single B-side vertex.
    """
    b = part.b_side
    if len(tree.vertices) == 1 and next(iter(tree.vertices)) in b:
        raise NoStemError("a single B-side vertex has no stem")
    deg = _degrees(tree)
    keep = frozenset(v for v in tree.vertices if v not in b or deg[v] >= 2)
    kept_edges = frozenset(e for e in tree.edges if e[0] in keep and e[1] in keep)
    return Subtree(keep, kept_edges)


def classify_stem(stem: Subtree, part: Bipartition) -> StemClass:
    a_side, b_side = part.a_side, part.b_side
    deg = _degrees(stem)
    a = sum(1 for v in stem.vertices if v in a_side)
    b = sum(1 for v in stem.vertices if v in b_side)
    inner = sum(1 for u, v in stem.edges if u in a_side and v in a_side)
    excess = sum(deg[v] - 2 for v in stem.vertices if v in b_side)
    return StemClass(a, b, inner, excess)


# ---------------------------------------------------------------------------
# Stem enumeration and counts on fixed labeled sides

def _check_class(variant: str, a: int, b: int):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if a < 1:
        raise ValueError("need at least one A-vertex")
    if b < 0 or b > a - 1:
        raise ValueError("stem classes require 0 <= b <= a-1")
    if a > STEM_M_MAX:
        raise TooLargeError(f"stem classes capped at {STEM_M_MAX} A-vertices")


def iter_stem_trees(variant: str, a: int, b: int) -> Iterator[tuple[Edge, ...]]:
    """All labeled stems on A = 0..a-1 and B = a..a+b-1, in Prüfer order: the
    labeled trees on a + b vertices whose edges respect the variant and
    whose B-vertices all have degree >= 2."""
    _check_class(variant, a, b)
    if a + b > STEM_ENUM_MAX:
        raise TooLargeError(f"stem enumeration capped at {STEM_ENUM_MAX} vertices")
    split = variant == "split"
    for edges in iter_labeled_trees(a + b):
        # each edge is (u, v) with u < v: u >= a makes a B-B edge, v < a an A-A edge
        if all(u < a and (split or v >= a) for u, v in edges):
            ends = [v for _, v in edges]  # with no B-B edge, a B-vertex is always v
            if all(ends.count(v) >= 2 for v in range(a, a + b)):
                yield tuple(edges)


def _host_tree_count(variant: str, a: int, b: int) -> int:
    """Spanning trees of the host on sides (a, b) that use no B-B edge."""
    if b == 0:
        if variant == "split":
            return a ** (a - 2) if a > 1 else 1
        return int(a == 1)
    return a ** (b - 1) * (b if variant == "bipartite" else a + b) ** (a - 1)


def stem_count(variant: str, a: int, b: int) -> int:
    """Number of labeled stems on fixed sides of sizes (a, b).

    Inclusion-exclusion over the j B-vertices forced to be leaves: removing
    them leaves a host tree on (a, b-j), and each hangs off one of a
    A-vertices.
    """
    _check_class(variant, a, b)
    return sum((-1) ** j * comb(b, j) * a ** j * _host_tree_count(variant, a, b - j)
               for j in range(b + 1))


def extension_count(a: int, b: int, n: int) -> int:
    """(a+1)**(n-b): the number of host subtrees with a given stem of class
    (a, b), each obtained by hanging some of the n-b free B-vertices as
    leaves off one of the a stem A-vertices."""
    if b > n:
        raise ValueError("stem uses more B-vertices than the host has")
    check_exponent((n - b) * (a + 1).bit_length(), "(a+1)**(n-b)")
    return (a + 1) ** (n - b)


def class_size(variant: str, m: int, n: int, a: int, b: int) -> int:
    """Number of host subtrees whose stem has class (a, b)."""
    if a > m:
        raise ValueError("a exceeds the A-side size")
    if b > min(a - 1, n):
        raise ValueError("invalid stem class")
    return comb(m, a) * comb(n, b) * stem_count(variant, a, b) * extension_count(a, b, n)


def class_mean_order(n: int, a: int, b: int) -> Fraction:
    """Mean order of the host subtrees with a fixed stem of class (a, b):
    each free B-vertex is present with probability a/(a+1)."""
    return Fraction((n - b) * a, a + 1) + a + b


def _check_grid(m: int, n: int) -> None:
    """Raise before any stem count when the hosts at (m, n) are out of reach;
    every check is monotone in n, so passing at n covers all smaller n."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if m > STEM_M_MAX:
        raise TooLargeError(f"stem classes capped at {STEM_M_MAX} A-vertices")
    check_exponent(n * (m + 1).bit_length(), "(a+1)**(n-b)")


def _a_rows(variant: str, m: int, lcm: int) -> list[tuple[int, list[int], list[int]]]:
    """Row (f, alpha, beta) per A-side size a = 1..m: class (a, b) has
    P_a * C(n, b) * alpha_b subtrees, P_a = (a+1)**(n-a+1), whose lcm * total
    order is P_a * C(n, b) * (n * f * alpha_b + beta_b), with f = a*lcm/(a+1)
    and `lcm` a multiple of every a+1."""
    rows = []
    for a in range(1, m + 1):
        q = lcm // (a + 1)
        alpha = [comb(m, a) * stem_count(variant, a, b) * (a + 1) ** (a - 1 - b)
                 for b in range(a)]
        beta = [w * ((a + b) * lcm - a * b * q) for b, w in enumerate(alpha)]
        rows.append((a * q, alpha, beta))
    return rows


def _host_at(rows, binom: list[int], powers: list[int], n: int, lcm: int) -> tuple[int, int]:
    """(lcm * total subtree order, subtree count) of one host at n, from
    binom[b] = C(n, b) and powers[a-1] = P_a.  While n < a-1, P_a is 1 and the
    bracket divides exactly by (a+1)**(a-1-n), as C(n, b) = 0 for b > n; the
    n single-B-vertex subtrees add order 1 each."""
    total, count = n * lcm, n
    for i, ((f, alpha, beta), p) in enumerate(zip(rows, powers)):
        c = sum(map(mul, alpha, binom))
        t = n * f * c + sum(map(mul, beta, binom))
        if i > n:
            d = (i + 2) ** (i - n)
            c, t = c // d, t // d
        count += p * c
        total += p * t
    return total, count


def graph_mean_order(variant: str, m: int, n: int) -> Fraction:
    """Exact mean subtree order of the complete split graph (variant
    "split") or of the complete bipartite graph (variant "bipartite"),
    assembled from the stem classes plus the n single-B-vertex subtrees."""
    _check_grid(m, n)
    lcm = math.lcm(*range(1, m + 2))
    rows = _a_rows(variant, m, lcm)
    binom = [comb(n, b) for b in range(m)]
    powers = [(a + 1) ** max(n - a + 1, 0) for a in range(1, m + 1)]
    total, count = _host_at(rows, binom, powers, n, lcm)
    return Fraction(total, lcm * count)


class SweepPoint(NamedTuple):
    """Both hosts at one n, unreduced: mu = total / (lcm * count)."""

    n: int
    lcm: int
    split: tuple[int, int]      # (lcm * total order, subtree count)
    bipartite: tuple[int, int]

    @property
    def sign(self) -> int:
        """sign(mu(split) - mu(bipartite)); the common lcm cancels."""
        return compare_means(*self.split, *self.bipartite)

    def mean(self, variant: str) -> Fraction:
        total, count = {"split": self.split, "bipartite": self.bipartite}[variant]
        return Fraction(total, self.lcm * count)


def mean_sweep(m: int, n_max: int) -> Iterator[SweepPoint]:
    """Both hosts for n = 1..n_max in one incremental pass of exact integers.

    Per n, C(n, b) moves by Pascal's rule and each P_a = (a+1)**(n-a+1) by
    one factor a+1, both shared by the hosts; each host then costs 2m
    big-integer products, and stem counts are looked up once.  Limits are
    checked against n_max first, so an out-of-reach sweep fails before it
    starts; m is checked even when the sweep is empty, then n_max >= 0.
    """
    _check_grid(m, max(n_max, 1))
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    lcm = math.lcm(*range(1, m + 2))
    split, bip = _a_rows("split", m, lcm), _a_rows("bipartite", m, lcm)
    binom = [1] + [0] * (m - 1)
    powers = [1] * m
    for n in range(1, n_max + 1):
        binom[1:] = [x + y for x, y in zip(binom, binom[1:])]
        powers[:n] = [p * (i + 2) for i, p in enumerate(powers[:n])]
        yield SweepPoint(n, lcm, _host_at(split, binom, powers, n, lcm),
                         _host_at(bip, binom, powers, n, lcm))


@dataclass(frozen=True)
class StemTable:
    variant: str
    m: int
    entries: dict[tuple[int, int], int]  # (a, b) -> stem count


def stem_table(variant: str, m: int) -> StemTable:
    if m < 1:
        raise ValueError("need m >= 1")
    _check_class(variant, m, 0)  # every limit the counts below check, before the first
    return StemTable(variant, m, {(a, b): stem_count(variant, a, b)
                                  for a in range(1, m + 1) for b in range(a)})


# ---------------------------------------------------------------------------
# Threshold search: first n where the split mean drops below the bipartite one

@dataclass(frozen=True)
class ThresholdReport:
    m: int
    n_max: int
    n_star: int | None          # minimal n with mu(split) < mu(bipartite)
    persists: bool              # strict inequality held for all n_star..n_max
    first_violation: int | None
    comparisons: tuple[tuple[int, int], ...]  # (n, sign(mu_split - mu_bip))

    @classmethod
    def from_comparisons(cls, m: int, n_max: int,
                         comparisons: Iterable[tuple[int, int]]) -> "ThresholdReport":
        """Ties count as "no crossing at this n"; after the first crossing,
        the first n where the inequality fails again is the violation."""
        comparisons = tuple(comparisons)
        n_star = next((n for n, sign in comparisons if sign < 0), None)
        first_violation = None
        if n_star is not None:
            first_violation = next((n for n, sign in comparisons
                                    if n > n_star and sign >= 0), None)
        persists = n_star is not None and first_violation is None
        return cls(m, n_max, n_star, persists, first_violation, comparisons)


def threshold_search(m: int, n_max: int) -> ThresholdReport:
    """Compare the two variants exactly for every n up to n_max."""
    return ThresholdReport.from_comparisons(
        m, n_max, ((p.n, p.sign) for p in mean_sweep(m, n_max)))
