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
From n = m-1 on, that sum is an exponential polynomial in n: the threshold
search sweeps up to the N(m) beyond which `_tail_certificate` proves the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
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


def class_size(variant: str, m: int, n: int, a: int, b: int, count: int | None = None) -> int:
    """Number of host subtrees whose stem has class (a, b); `count` is
    stem_count(variant, a, b) when the caller holds it already."""
    if a > m:
        raise ValueError("a exceeds the A-side size")
    if b > min(a - 1, n):
        raise ValueError("invalid stem class")
    count = stem_count(variant, a, b) if count is None else count
    return comb(m, a) * comb(n, b) * count * extension_count(a, b, n)


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


def _sweep_rows(m: int, n_max: int) -> tuple[int, list, list]:
    """(lcm, split rows, bipartite rows) once n_max passes every limit, so a sweep
    out of reach fails before it starts; m first, even for an empty sweep."""
    _check_grid(m, max(n_max, 1))
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    lcm = math.lcm(*range(1, m + 2))
    return lcm, _a_rows("split", m, lcm), _a_rows("bipartite", m, lcm)


def _sweep(lcm: int, split, bip, n_max: int) -> Iterator[SweepPoint]:
    binom = [1] + [0] * (len(split) - 1)
    powers = [1] * len(split)
    for n in range(1, n_max + 1):
        binom[1:] = [x + y for x, y in zip(binom, binom[1:])]
        powers[:n] = [p * (i + 2) for i, p in enumerate(powers[:n])]
        yield SweepPoint(n, lcm, _host_at(split, binom, powers, n, lcm),
                         _host_at(bip, binom, powers, n, lcm))


def mean_sweep(m: int, n_max: int) -> Iterator[SweepPoint]:
    """Both hosts for n = 1..n_max in one incremental pass of exact integers.

    Per n, C(n, b) moves by Pascal's rule and each P_a = (a+1)**(n-a+1) by
    one factor a+1, both shared by the hosts; each host then costs 2m
    big-integer products, and stem counts are looked up once.
    """
    return _sweep(*_sweep_rows(m, n_max), n_max)


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
# Tail certificate: from n = m-1 on, each host is an exponential polynomial in n

def _poly_add(*ps: list[int]) -> list[int]:
    return [sum(cs) for cs in zip_longest(*ps, fillvalue=0)]


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_at(p: list[int], x: int) -> int:
    return reduce(lambda acc, c: acc * x + c, reversed(p), 0)


def _exp_terms(rows, lcm: int) -> list[tuple[int, list[int], list[int]]]:
    """(B, gamma, delta) per base B = 1..m+1: for n >= m-1 the host has
    K * count = sum of B**n * gamma(n) and K * lcm * total = sum of
    B**n * delta(n), integer coefficients low degree first, with one
    K = (m-1)! * lcm of every (a+1)**(a-1) > 0 shared by both hosts."""
    m = len(rows)
    binom = [[math.factorial(m - 1)]]  # (m-1)! * C(x, b), b = 0..m-1
    for b in range(1, m):
        binom.append([c // b for c in _poly_mul(binom[-1], [1 - b, 1])])
    scale = math.lcm(*((a + 1) ** (a - 1) for a in range(1, m + 1)))
    k = binom[0][0] * scale
    terms = [(1, [0, k], [0, k * lcm])]  # the n single B-vertex subtrees
    for a, (f, alpha, beta) in enumerate(rows, 1):
        u = scale // (a + 1) ** (a - 1)
        gamma, delta = ([u * c for c in _poly_add(*([w * c for c in binom[b]]
                                                   for b, w in enumerate(ws)))]
                        for ws in (alpha, beta))
        delta = _poly_add([0] + [f * c for c in gamma], delta)
        terms.append((a + 1, gamma, delta))
    return terms


def _certificate_polys(split, bip, lcm: int) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
    """(H, S): D(n) = T_s * C_b - T_b * C_s in `_exp_terms`' scale is (m+1)**(2n) * H(n),
    from the top terms, plus terms bounded by (m(m+1))**n * S(n); S sums p * q over the
    returned pairs top * rest, rest * top and rest * rest, each with coefficients >= 0."""
    hosts = [_exp_terms(rows, lcm) for rows in (split, bip)]
    (_, gs, ds), (_, gb, db) = hosts[0][-1], hosts[1][-1]
    h = _poly_add(_poly_mul(ds, gb), [-c for c in _poly_mul(db, gs)])
    (rgs, rds), (rgb, rdb) = ([_poly_add(*([abs(c) for c in term[i]] for term in terms[:-1]))
                               for i in (1, 2)] for terms in hosts)
    gs, ds, gb, db = ([abs(c) for c in p] for p in (gs, ds, gb, db))
    return h, [(ds, rgb), (rds, gb), (rds, rgb), (db, rgs), (rdb, gs), (rdb, rgs)]


def _tail_certificate(m: int, n_max: int, split, bip, lcm: int) -> tuple[int, int] | None:
    """(N, sign) with sign(mu(split) - mu(bipartite)) = sign for every n >= N,
    or None when no N <= n_max is proved, by exact integer tests alone.

    With H and S from `_certificate_polys`, holds(n): H(n) < 0 and
    (m+1)**n * |H(n)| > m**n * S(n), gives D(n) < 0.  From the first n1 >= m-1
    with m * (n1+1)**d <= (m+1) * n1**d, d >= deg S, S grows by at most
    (m+1)/m per step; when H(n1 + x) has coefficients of one sign, |H| does
    not shrink, so holds(N) for one N >= n1 gives holds(n) for all n >= N.
    """
    if split == bip:  # m = 1: the two hosts are one graph
        return (1, 0) if n_max else None
    d = m + max(m - 2, 1)  # deg S, from the degrees m-1 of gamma and m of delta
    start = next((n for n in range(max(m - 1, 1), n_max + 1)
                  if m * (n + 1) ** d <= (m + 1) * n ** d), None)
    if start is None:
        return None
    h, s = _certificate_polys(split, bip, lcm)
    shifted = reduce(lambda acc, c: _poly_add(_poly_mul(acc, [start, 1]), [c]), reversed(h), [0])
    if max(len(p) + len(q) - 2 for p, q in s) > d or min(shifted) < 0 < max(shifted):
        return None
    holds = (n for n in range(start, n_max + 1) if (hn := _poly_at(h, n)) < 0
             and abs(hn) * (m + 1) ** n > sum(_poly_at(p, n) * _poly_at(q, n) for p, q in s) * m ** n)
    n_cert = next(holds, None)
    return None if n_cert is None else (n_cert, -1)


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
    certified_from: int | None  # N: the sweep stops there, the certificate holds on
    crossing: SweepPoint | None  # both hosts at n_star

    @classmethod
    def from_points(cls, m: int, n_max: int, points: Iterable[SweepPoint],
                    certified_from: int | None = None, tail_sign: int = 0) -> "ThresholdReport":
        """Signs of the points at n = 1, 2, ..., then `tail_sign` up to n_max.
        Ties count as "no crossing at this n"; after the first crossing, the
        first n where the inequality fails again is the violation."""
        comparisons, crossing = [], None
        for p in points:
            sign = p.sign
            comparisons.append((p.n, sign))
            if crossing is None and sign < 0:
                crossing = p
        comparisons += ((n, tail_sign) for n in range(len(comparisons) + 1, n_max + 1))
        n_star = crossing.n if crossing else None
        first_violation = next((n for n, sign in comparisons
                                if n_star is not None and n > n_star and sign >= 0), None)
        return cls(m, n_max, n_star, n_star is not None and first_violation is None,
                   first_violation, tuple(comparisons), certified_from, crossing)


def threshold_search(m: int, n_max: int) -> ThresholdReport:
    """Compare the two variants exactly for every n up to n_max: the exact
    sweep stops at the N of `_tail_certificate`, if any, and every n above
    it takes the sign proved for all n >= N."""
    lcm, split, bip = _sweep_rows(m, n_max)
    n_cert, tail_sign = _tail_certificate(m, n_max, split, bip, lcm) or (None, 0)
    return ThresholdReport.from_points(m, n_max, _sweep(lcm, split, bip, n_cert or n_max),
                                       n_cert, tail_sign)
