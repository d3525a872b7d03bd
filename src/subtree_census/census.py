"""Exact subtree statistics of small graphs by several independent methods.

A subtree is a subgraph that is a tree; single vertices count, the empty
graph does not.  Three routes to the same numbers:

* `subtree_stats_bruteforce` - every vertex subset, spanning trees listed
  explicitly by edge backtracking.
* `subtree_stats_kirchhoff` - pendant trees folded, as in the tree DP, into
  (count, total order) pairs at the vertices they hang from; then the
  connected subsets of the leafless rest, enumerated by recursive
  extension, spanning trees counted by an integer determinant.  A subset
  has as many spanning trees as its 2-core (what is left after stripping
  degree-1 vertices), so the determinant is memoised per core.
* `tree_subtree_stats` - linear rooted dynamic program, trees only.

`added_edge_stats` gives stats(G) and, for every non-edge e of G, the
statistics of the subtrees of G + e that use e, from one pass over G's
connected subsets that carries each subset's 2-forest counts (all-minors
matrix-tree theorem).  A subset updates its parent's table: O(|S|) when the
new vertex is a leaf, and one integer rank-one (Sherman-Morrison) step of
O(|S|**2) per further edge into the parent.  `through_edge_stats` is its
test oracle: the same numbers for one edge by deletion-contraction, the
difference of two plain censuses.

`marked_census` partitions the statistics by which marked vertices and how
many tracked edges each subtree contains; it and `subtree_stats_kirchhoff`
share one pass, `_census_cells`, that sums weighted spanning-tree counts
into cells keyed by an int mark mask (`_tau_mask` is the only Laplacian
builder).  `census_with_required` is the top tracked cell of that census.
`attach_pendant_stars` turns a census over hub vertices into exact
statistics for the graph with pendant stars attached at the hubs, with bit
shifts alone and without ever materializing the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvariantViolation, NotATreeError, TooLargeError
from .graphs import Edge, Graph, VertexSet, edge, mask_connected
from .limits import EXPONENT_CAP  # noqa: F401  (callers read census.EXPONENT_CAP)
from .limits import BRUTE_MAX, CENSUS_MAX, MARKED_MAX, SPANNING_MAX, check_exponent
from .trees import adjacency_lists, subtree_stats_of_tree


@dataclass(frozen=True)
class SubtreeStats:
    """Pair (number of subtrees, sum of their orders)."""

    count: int
    total_order: int

    def __add__(self, other: "SubtreeStats") -> "SubtreeStats":
        return SubtreeStats(self.count + other.count, self.total_order + other.total_order)

    def __sub__(self, other: "SubtreeStats") -> "SubtreeStats":
        c = self.count - other.count
        t = self.total_order - other.total_order
        if c < 0 or t < 0:
            raise InvariantViolation("subtree statistics went negative")
        return SubtreeStats(c, t)


ZERO_STATS = SubtreeStats(0, 0)


def mean(stats: SubtreeStats) -> Fraction:
    """Exact mean subtree order."""
    if stats.count <= 0:
        raise ValueError("mean of an empty subtree family")
    return Fraction(stats.total_order, stats.count)


def coprime_fraction(p: int, q: int) -> Fraction:
    """p/q for q > 0 and gcd(p, q) = 1, without the gcd that `Fraction(p, q)`
    spends on normalising.  It fills the two slots that `Fraction`'s own
    constructors fill, as 3.12's `Fraction._from_coprime_ints` does."""
    x = object.__new__(Fraction)
    x._numerator, x._denominator = p, q
    return x


def compare_means(t1: int, c1: int, t2: int, c2: int) -> int:
    """sign(t1*c2 - t2*c1) for non-negative ints: with c1, c2 > 0, the sign
    of t1/c1 - t2/c2, the comparison of two means.

    A filter decides from the leading 64 bits first: after shifting every
    operand right by the same amount, each true value lies in [x', x'+1),
    so one product's lower bound above the other's upper bound proves the
    sign.  Ties, near-ties and short operands take the exact products.
    """
    shift = max(t1.bit_length(), c1.bit_length(),
                t2.bit_length(), c2.bit_length()) - 64
    if shift > 0:
        a, b, c, d = t1 >> shift, c2 >> shift, t2 >> shift, c1 >> shift
        if a * b > (c + 1) * (d + 1):
            return 1
        if c * d > (a + 1) * (b + 1):
            return -1
    diff = t1 * c2 - t2 * c1
    return (diff > 0) - (diff < 0)


def density(stats: SubtreeStats, n: int) -> Fraction:
    """Mean subtree order divided by the graph order n."""
    if n <= 0:
        raise ValueError("density needs a positive graph order")
    return mean(stats) / n


class Subtree(NamedTuple):
    vertices: frozenset[int]
    edges: frozenset[Edge]


# ---------------------------------------------------------------------------
# Connected-subset enumeration (recursive extension with a forbidden set;
# every connected subset is produced exactly once, grown from its minimum
# vertex).  Each subset comes with its 2-core, the subset left after
# deleting degree-1 vertices until none is left; a tree keeps only its
# minimum vertex.

def _strip_leaves(adj: tuple[int, ...], mask: int) -> int:
    """2-core of a connected subset that contains a cycle."""
    leaves = []
    m = mask
    while m:
        b = m & -m
        m ^= b
        if (adj[b.bit_length() - 1] & mask).bit_count() == 1:
            leaves.append(b)
    core = mask
    while leaves:
        b = leaves.pop()
        core ^= b
        # the cycle survives, so the stripped leaf had one neighbour left
        u = adj[b.bit_length() - 1] & core
        if (adj[u.bit_length() - 1] & core).bit_count() == 1:
            leaves.append(u)
    return core


def _iter_connected_masks(adj: tuple[int, ...], n: int,
                          within: int | None = None) -> Iterator[tuple[int, int]]:
    """(mask, 2-core mask) for every connected subset of the vertex mask
    `within` (by default all of them).

    The order is depth first: a subset S that is not a single vertex comes
    after its parent, S less the vertex that joined last, and every subset
    in between grew from the parent by a vertex outside S.  The subsets
    come grouped by minimum vertex, the highest minimum first.
    """
    full = (1 << n) - 1
    within = full if within is None else within
    for v in reversed(_mask_vertices(within)):
        root = 1 << v
        below = root - 1 | full & ~within
        stack = [(root, adj[v] & ~(root | below), below, root)]
        while stack:
            s, ext, forb, core = stack.pop()
            yield s, core
            banned = 0
            cand = ext
            while cand:
                u = cand & -cand
                cand ^= u
                s2 = s | u
                forb2 = forb | banned
                au = adj[u.bit_length() - 1]
                ext2 = (au | ext) & ~(forb2 | s2)
                # a vertex joining by one edge is a leaf of s2: same core
                core2 = core if (au & s).bit_count() == 1 else _strip_leaves(adj, s2)
                stack.append((s2, ext2, forb2, core2))
                banned |= u


def iter_connected_subsets(g: Graph) -> Iterator[VertexSet]:
    """All nonempty connected vertex subsets, each exactly once."""
    n = g.order
    for mask, _ in _iter_connected_masks(g.adjacency, n):
        yield frozenset(v for v in range(n) if mask >> v & 1)


def _mask_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


# ---------------------------------------------------------------------------
# Fraction-free (Bareiss) determinant over exact integers.

def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a positive definite integer matrix, such as the reduced
    Laplacian of a connected graph with positive edge weights.  Every pivot
    is a leading principal minor, hence positive, so no row is exchanged."""
    n = len(m)
    prev = 1
    for k in range(n - 1):
        pivot = m[k][k]
        if pivot <= 0:
            raise InvariantViolation("non-positive Bareiss pivot")
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return m[n - 1][n - 1]


def _tau_mask(g: Graph, mask: int, weights: dict[Edge, int] | None = None) -> int:
    """Spanning-tree count of the subgraph induced on `mask` (Matrix-Tree):
    its Laplacian determinant less the row and column of its lowest vertex.
    With `weights`, a tree counts as prod_{e in T} w(e); unweighted edges
    have weight 1.
    """
    vs = _mask_vertices(mask & (mask - 1))
    adj = g.adjacency
    lap = []
    for i, u in enumerate(vs):
        a = adj[u] & mask
        if weights is None:
            row = [-(a >> v & 1) for v in vs]
            row[i] = a.bit_count()
        else:
            w = {v: weights.get((u, v) if u < v else (v, u), 1) for v in _mask_vertices(a)}
            row = [-w.get(v, 0) for v in vs]
            row[i] = sum(w.values())
        lap.append(row)
    return _bareiss_det(lap) if lap else 1


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees; 0 for disconnected input."""
    if g.order > SPANNING_MAX:
        raise TooLargeError(f"spanning tree count capped at {SPANNING_MAX} vertices")
    if not g.is_connected():
        return 0
    return _tau_mask(g, (1 << g.order) - 1)


# ---------------------------------------------------------------------------
# Subtree statistics

def _census_cells(g: Graph, mark_mask: int = 0, tracked: Sequence[Edge] = (),
                  bits: int = 0) -> dict[int, tuple[int, int]]:
    """cells[key] = (count, total order) of the subtrees whose vertex set S
    has S & mark_mask = key, from one pass over the connected subsets.

    S has the spanning trees of its 2-core, since a leaf's edge lies in
    every one, so one determinant serves every subset with the same core;
    only stripped cores enter the memo, so leafless graphs store nothing.
    A `tracked` edge weighs X = 2**bits, and each one stripped multiplies
    the core's weighted count by X.  The running cell is flushed only when
    the key changes.
    """
    if g.order > CENSUS_MAX:
        raise TooLargeError(f"census capped at {CENSUS_MAX} vertices")
    tr_masks = [1 << u | 1 << v for u, v in tracked]
    weights = {e: 1 << bits for e in tracked} or None
    memo: dict[int, int] = {}
    cells: dict[int, tuple[int, int]] = {}
    key = count = total = 0
    for mask, core in _iter_connected_masks(g.adjacency, g.order):
        if core == mask:
            value = _tau_mask(g, mask, weights)
        else:
            value = memo.get(core)
            if value is None:
                value = memo[core] = _tau_mask(g, core, weights)
        if tr_masks:
            t = sum(1 for em in tr_masks if mask & em == em)
            if core != mask:
                value <<= bits * (t - sum(1 for em in tr_masks if core & em == em))
            if value <= 0 or value >> (bits * (t + 1)):
                raise InvariantViolation("tracked-edge polynomial outside its digit range")
        if mask & mark_mask != key:
            c, s = cells.get(key, (0, 0))
            cells[key] = (c + count, s + total)
            key, count, total = mask & mark_mask, 0, 0
        count += value
        total += value * mask.bit_count()
    c, s = cells.get(key, (0, 0))
    cells[key] = (c + count, s + total)
    return cells


def subtree_stats_kirchhoff(g: Graph) -> SubtreeStats:
    """Sum spanning-tree counts over the connected subsets of g's core, the
    graph left after deleting degree-1 vertices until none is left.

    Each deleted vertex v folds into its neighbour p by the tree DP's rule
    (Jamison 1983; `trees.subtree_stats_of_tree`): f[v] and t[v] count and
    sum the subtrees whose vertex nearest the core is v.  A core subset S
    with tau spanning trees then stands for tau * prod_{v in S} f[v]
    subtrees, of total order tau * (|S| A + B) with A = prod f[v] and
    B = sum_v (t[v] - f[v]) prod_{u != v} f[u].  Vertices with f[v] != 1
    are marked, so one cell of `_census_cells` shares A and B.
    """
    n = g.order
    if n > CENSUS_MAX:
        raise TooLargeError(f"census capped at {CENSUS_MAX} vertices")
    adj = list(g.adjacency)
    f, t = [1] * n, [1] * n
    count = total = gone = 0
    leaves = [v for v in range(n) if adj[v].bit_count() == 1]
    while leaves:
        v = leaves.pop()
        if adj[v].bit_count() != 1:  # its last neighbour left first
            continue
        p = adj[v].bit_length() - 1
        adj[p] ^= 1 << v
        gone |= 1 << v
        count += f[v]
        total += t[v]
        t[p] = t[p] * (f[v] + 1) + f[p] * t[v]
        f[p] *= f[v] + 1
        if adj[p].bit_count() == 1:
            leaves.append(p)
    keep = [v for v in range(n) if not gone >> v & 1]
    index = {v: i for i, v in enumerate(keep)}
    core = Graph.of(len(keep), [(index[u], index[v]) for u, v in g.edges
                                if u in index and v in index])
    marks = sum(1 << i for i, v in enumerate(keep) if f[v] != 1)
    for key, (c, s) in _census_cells(core, marks).items():
        a, b = 1, 0
        for i in _mask_vertices(key):
            v = keep[i]
            a, b = a * f[v], b * f[v] + a * (t[v] - f[v])
        count += c * a
        total += s * a + c * b
    return SubtreeStats(count, total)


def through_edge_stats(g: Graph, u: int, v: int) -> SubtreeStats:
    """Statistics of the subtrees of g that use its edge uv.

    The subtrees of g either avoid uv, and are the subtrees of g - uv, or
    use it (deletion-contraction), so this is stats(g) - stats(g - uv)
    from two plain censuses, independent of `added_edge_stats`.
    """
    if edge(u, v) not in g.edges:
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    return subtree_stats_kirchhoff(g) - subtree_stats_kirchhoff(g.remove_edges([(u, v)]))


def _iter_forest_tables(adj: tuple[int, ...], n: int) -> Iterator[tuple[int, int, list[int], int, list[int]]]:
    """(mask, core, vs, tau, F) for every connected subset `mask`, in the
    order of `_iter_connected_masks`: its 2-core, its vertices in order of
    joining, its spanning-tree count and, in F[x*n + y] = F[y*n + x] for
    x != y in `mask`, the spanning 2-forests that separate x from y (other
    entries 0; F(x, y) is the Laplacian minor without rows and columns x
    and y, by the all-minors matrix-tree theorem, Chaiken 1982).

    Each subset updates its parent's table.  The joining vertex w, hooked
    to the parent by its lowest neighbour p there, is a leaf: tau stays and
    F(w, x) = F(p, x) + tau.  Every further hook h adds the edge wh, a
    rank-one change of the Laplacian, so Sherman-Morrison in integers gives
    tau' = tau + F(w, h) and F'(x, y) = (tau' F(x, y) - ((d_x - d_y)/2)**2)
    / tau with d_x = F(h, x) - F(w, x); d_x - d_y is even and the division
    exact.  That is O(|S|) per leaf join and O(|S|**2) per further hook.
    """
    path: list[tuple[int, list[int], int, list[int]]] = []
    for mask, core in _iter_connected_masks(adj, n):
        # the entries of `path` are the current subset's ancestors
        while path and path[-1][0] & ~mask:
            path.pop()
        if not path:
            vs, tau, table = [mask.bit_length() - 1], 1, [0] * (n * n)
        else:
            parent, vs, tau, table = path[-1]
            w = (mask ^ parent).bit_length() - 1
            p, *hooks = _mask_vertices(adj[w] & parent)
            table = table[:]
            wn = w * n
            for x in vs:
                table[wn + x] = table[x * n + w] = table[p * n + x] + tau
            vs = vs + [w]
            for h in hooks:
                f = table[wn + h]
                if f <= 0:
                    raise InvariantViolation("non-positive 2-forest count at a hook")
                tau2 = tau + f
                hn = h * n
                # every d_x has the same parity, so d_x//2 - d_y//2 = (d_x - d_y)/2
                half = [table[hn + x] - table[wn + x] >> 1 for x in vs]
                done = []
                for x, hx in zip(vs, half):
                    xn = x * n
                    for y, hy in done:
                        q = hx - hy
                        table[xn + y] = table[y * n + x] = (tau2 * table[xn + y] - q * q) // tau
                    done.append((x, hx))
                tau = tau2
        path.append((mask, vs, tau, table))
        yield mask, core, vs, tau, table


def added_edge_stats(g: Graph) -> tuple[SubtreeStats, dict[Edge, SubtreeStats]]:
    """stats(g) and, for every non-edge uv, the statistics of the subtrees
    of g + uv that use uv, from one pass over the connected subsets of g.

    Less uv, such a subtree on the vertex set S is a spanning 2-forest of
    g[S] that separates u from v.  So uv collects F_S(u, v), its number of
    such forests, with weight (1, |S|) from every S that holds u and v and
    induces either a connected graph or two components A and B with u in A
    and v in B, where F_S = tau(A) tau(B).

    Connected subsets come from `_iter_forest_tables` with their tables
    F_S, each updated from its parent's: O(|S|) when the joining vertex is
    a leaf, and one rank-one (Sherman-Morrison) step of O(|S|**2) per extra
    edge when it closes cycles.  For the two-component sets, each connected
    A meets the connected subsets B of g minus A, its neighbours and every
    vertex up to min(A); subsets with a higher minimum come first, so
    tau(B) = tau(core of B) is known by then.
    """
    n = g.order
    if n > CENSUS_MAX:
        raise TooLargeError(f"census capped at {CENSUS_MAX} vertices")
    adj = g.adjacency
    full = (1 << n) - 1
    # far[x]: the vertices above x that are not its neighbours
    far = [full & ~adj[x] & ~((2 << x) - 1) for x in range(n)]
    # through[x*n + y] + through[y*n + x] for x < y, by count and total order
    pair_count = [0] * (n * n)
    pair_total = [0] * (n * n)
    count = total = 0
    taus: dict[int, int] = {}  # tau of every subset that is its own core
    b_sides: dict[int, list[tuple[int, int, int]]] = {}  # by the mask B ranges over
    for mask, core, vs, tau, table in _iter_forest_tables(adj, n):
        if core == mask:
            taus[mask] = tau
        size = len(vs)
        count += tau
        total += tau * size
        near = 0
        for x in vs:
            near |= adj[x]
            rest = mask & far[x]
            while rest:
                b = rest & -rest
                rest ^= b
                i = x * n + b.bit_length() - 1
                f = table[i]
                pair_count[i] += f
                pair_total[i] += f * size
        low = mask & -mask
        outside = full & ~(mask | near) & ~((low << 1) - 1)
        if not outside:
            continue
        sides = b_sides.get(outside)
        if sides is None:
            # per vertex y: the sums of tau(B) and tau(B)|B| over the B holding y
            b_count = [0] * n
            b_total = [0] * n
            for bmask, bcore in _iter_connected_masks(adj, n, within=outside):
                t = taus[bcore]
                tb = t * bmask.bit_count()
                for y in _mask_vertices(bmask):
                    b_count[y] += t
                    b_total[y] += tb
            sides = b_sides[outside] = [(y, b_count[y], b_total[y])
                                        for y in _mask_vertices(outside)]
        for y, bc, bt in sides:
            c = tau * bc
            t = tau * bt + c * size
            for x in vs:
                pair_count[x * n + y] += c
                pair_total[x * n + y] += t
    through = {}
    for x, y in g.non_edges():
        i, j = x * n + y, y * n + x
        through[(x, y)] = SubtreeStats(pair_count[i] + pair_count[j],
                                       pair_total[i] + pair_total[j])
    return SubtreeStats(count, total), through


def _iter_spanning_trees(k: int, edges_in: list[tuple[int, int]]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All spanning trees of a k-vertex graph given as a local edge list."""
    need = k - 1

    def rec(idx: int, parent: list[int], chosen: list[tuple[int, int]]) -> Iterator[tuple[tuple[int, int], ...]]:
        if len(chosen) == need:
            yield tuple(chosen)
            return
        if len(edges_in) - idx < need - len(chosen):
            return
        u, v = edges_in[idx]
        ru, rv = u, v
        while parent[ru] != ru:
            ru = parent[ru]
        while parent[rv] != rv:
            rv = parent[rv]
        if ru != rv:
            p2 = parent.copy()
            p2[ru] = rv
            chosen.append((u, v))
            yield from rec(idx + 1, p2, chosen)
            chosen.pop()
        yield from rec(idx + 1, parent, chosen)

    yield from rec(0, list(range(k)), [])


def enumerate_subtrees(g: Graph) -> Iterator[Subtree]:
    """Explicitly list every subtree (vertex set, edge set). Brute force."""
    if g.order > BRUTE_MAX:
        raise TooLargeError(f"subtree enumeration capped at {BRUTE_MAX} vertices")
    n = g.order
    adj = g.adjacency
    edge_list = sorted(g.edges)
    for mask in range(1, 1 << n):
        if not mask_connected(adj, mask):
            continue
        vs = _mask_vertices(mask)
        vset = frozenset(vs)
        if len(vs) == 1:
            yield Subtree(vset, frozenset())
            continue
        local = {v: i for i, v in enumerate(vs)}
        inside = [(local[u], local[v]) for u, v in edge_list
                  if mask >> u & 1 and mask >> v & 1]
        back = {(local[u], local[v]): (u, v) for u, v in edge_list
                if mask >> u & 1 and mask >> v & 1}
        for tree in _iter_spanning_trees(len(vs), inside):
            yield Subtree(vset, frozenset(back[e] for e in tree))


def subtree_stats_bruteforce(g: Graph) -> SubtreeStats:
    """Fold of `enumerate_subtrees`; independent of the determinant route."""
    count = total = 0
    for t in enumerate_subtrees(g):
        count += 1
        total += len(t.vertices)
    return SubtreeStats(count, total)


def tree_subtree_stats(t: Graph) -> SubtreeStats:
    """Exact stats for a tree via the rooted DP. Rejects non-trees."""
    if not t.is_tree():
        raise NotATreeError("input graph is not a tree")
    c, s = subtree_stats_of_tree(t.order, adjacency_lists(t.order, t.edges))
    return SubtreeStats(c, s)


# ---------------------------------------------------------------------------
# Marked census

@dataclass(frozen=True)
class MarkedCensus:
    """Subtree statistics partitioned by signature.

    A signature is (set of marked vertices contained, number of tracked
    edges contained).  Cell sums reproduce the unpartitioned statistics.
    """

    marked: VertexSet
    tracked: frozenset[Edge]
    table: dict[tuple[VertexSet, int], SubtreeStats]

    def total(self) -> SubtreeStats:
        return sum(self.table.values(), ZERO_STATS)

    def cell(self, marks: Iterable[int], tracked_count: int = 0) -> SubtreeStats:
        return self.table.get((frozenset(marks), tracked_count), ZERO_STATS)


def _check_census_args(g: Graph, marked: Iterable[int], tracked) -> tuple[VertexSet, list[Edge]]:
    marks = frozenset(marked)
    if len(marks) > MARKED_MAX:
        raise TooLargeError(f"at most {MARKED_MAX} marked vertices")
    if any(not 0 <= v < g.order for v in marks):
        raise ValueError("marked vertex outside the graph")
    tr = [edge(u, v) for u, v in (tracked or ())]
    if len(set(tr)) != len(tr):
        raise ValueError("duplicate tracked edge")
    for e in tr:
        if e not in g.edges:
            raise ValueError(f"tracked edge {e} not in the graph")
    return marks, tr


def marked_census(g: Graph, marked: Iterable[int],
                  tracked: Iterable[tuple[int, int]] | None = None) -> MarkedCensus:
    """Partition subtree statistics by marked-vertex containment and
    tracked-edge count.

    Every tracked edge weighs X = 2**bits, so a subset's weighted spanning-
    tree count is P(X) = sum_j c_j X**j, c_j the trees with j tracked edges
    (weighted Matrix-Tree theorem).  A graph has at most 2**|E| + n - 1
    subtrees of order at most n, so with bits = |E| + 2*bit_length(n) + 1
    the base-X digits of a cell's sums are its statistics by tracked count.
    """
    marks, tr = _check_census_args(g, marked, tracked)
    bits = g.size + 2 * g.order.bit_length() + 1
    digit = (1 << bits) - 1
    top = bits * (len(tr) + 1)
    table: dict[tuple[VertexSet, int], SubtreeStats] = {}
    for key, (count, total) in _census_cells(g, sum(1 << v for v in marks), tr, bits).items():
        if count >> top or total >> top:
            raise InvariantViolation("tracked-edge cell sum above its top digit")
        cell_marks = frozenset(v for v in marks if key >> v & 1)
        for j in range(len(tr) + 1):
            c = count >> bits * j & digit
            if c:
                table[(cell_marks, j)] = SubtreeStats(c, total >> bits * j & digit)
    return MarkedCensus(marks, frozenset(tr), table)


def marked_census_bruteforce(g: Graph, marked: Iterable[int],
                             tracked: Iterable[tuple[int, int]] | None = None) -> MarkedCensus:
    """Same partition as `marked_census`, via explicit subtree listing."""
    marks, tr = _check_census_args(g, marked, tracked)
    tr_set = frozenset(tr)
    table: dict[tuple[VertexSet, int], SubtreeStats] = {}
    for t in enumerate_subtrees(g):
        key = (marks & t.vertices, len(tr_set & t.edges))
        table[key] = table.get(key, ZERO_STATS) + SubtreeStats(1, len(t.vertices))
    return MarkedCensus(marks, tr_set, table)


def census_with_required(g: Graph, marked: Iterable[int],
                         required: Iterable[tuple[int, int]]) -> MarkedCensus:
    """Census of the subtrees containing every `required` edge.

    This is the top cell of the census that tracks the required edges: a
    subtree contains them all exactly when it holds len(required) of them.
    Cells carry that tracked count, so the result composes with censuses
    that track the same edges.  A required set with a cycle gives an empty
    census.
    """
    req = list(required)
    full = marked_census(g, marked, req)
    return MarkedCensus(full.marked, full.tracked,
                        {key: stats for key, stats in full.table.items() if key[1] == len(req)})


# ---------------------------------------------------------------------------
# Pendant-star reduction

def check_leaf_count(s: int) -> None:
    """Reject a pendant-star size that `attach_pendant_stars` cannot take."""
    if s < 0:
        raise ValueError("negative leaf count")
    check_exponent(s, f"leaf count 2**{s}")


def attach_pendant_stars(census: MarkedCensus, leaf_counts: dict[int, int],
                         include_leaf_singletons: bool = True) -> SubtreeStats:
    """Statistics of the graph with `leaf_counts[u]` pendant leaves at each
    hub u, from a census whose marked set is exactly the hub set.

    A core subtree containing the hub set H extends by any of the 2**E leaf
    subsets at its hubs, E = sum_{u in H} s_u, and those extensions add
    sum_u s_u * 2**(s_u-1) * 2**(E-s_u) = E * 2**(E-1) leaves in total.  So
    a cell (count c, total order t) contributes c << E subtrees of total
    order (t << E) + (c*E << (E-1)): shifts only, no product of powers and
    no division.  Bare leaves contribute `s_u` extra singleton subtrees
    (suppressed for censuses that were filtered down to a restricted family).
    """
    if frozenset(leaf_counts) != census.marked:
        raise ValueError("leaf counts must cover exactly the census hub set")
    for s in leaf_counts.values():
        check_leaf_count(s)
    count = 0
    total = 0
    for (hubs, _), stats in census.table.items():
        e = sum(leaf_counts[u] for u in hubs)
        count += stats.count << e
        total += stats.total_order << e
        if e:
            total += stats.count * e << (e - 1)
    if include_leaf_singletons:
        extra = sum(leaf_counts.values())
        count += extra
        total += extra
    return SubtreeStats(count, total)
