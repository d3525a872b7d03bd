"""Immutable simple graphs, family-core constructors and the graph6 codec.

Vertices are dense integers 0..order-1.  The constructors build small graphs
only (at most `limits.MAX_MATERIALIZED` vertices); the huge graphs handled
elsewhere exist only through symbolic star sizes, see `families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import Graph6Error, TooLargeError
from .limits import MAX_MATERIALIZED

Edge = tuple[int, int]
VertexSet = frozenset[int]


def edge(u: int, v: int) -> Edge:
    """Normalized unordered pair (u < v). Rejects loops."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..order-1."""

    order: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("negative order")
        for u, v in self.edges:
            if not (0 <= u < v < self.order):
                raise ValueError(f"bad edge ({u}, {v}) for order {self.order}")

    @staticmethod
    def of(order: int, pairs: Iterable[tuple[int, int]] = ()) -> Graph:
        return Graph(order, frozenset(edge(u, v) for u, v in pairs))

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex."""
        adj = [0] * self.order
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> Graph:
        return Graph.of(self.order, list(self.edges) + list(pairs))

    def remove_edges(self, pairs: Iterable[tuple[int, int]]) -> Graph:
        gone = {edge(u, v) for u, v in pairs}
        return Graph(self.order, self.edges - gone)

    def non_edges(self) -> list[Edge]:
        return [e for e in combinations(range(self.order), 2) if e not in self.edges]

    def is_connected(self) -> bool:
        return mask_connected(self.adjacency, (1 << self.order) - 1)

    def is_tree(self) -> bool:
        return self.order >= 1 and self.size == self.order - 1 and self.is_connected()


def mask_connected(adj: tuple[int, ...], mask: int) -> bool:
    """Whether the vertex set `mask` is nonempty and induces a connected
    subgraph of the graph with neighbour bitmasks `adj`."""
    if mask == 0:
        return False
    seen = mask & -mask
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            nxt |= adj[(frontier & -frontier).bit_length() - 1]
            frontier &= frontier - 1
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


def _check_materialized(n: int):
    if n > MAX_MATERIALIZED:
        raise TooLargeError(f"order {n} exceeds the {MAX_MATERIALIZED}-vertex materialization cap")


# ---------------------------------------------------------------------------
# Constructors

def make_empty(n: int) -> Graph:
    _check_materialized(n)
    return Graph(n, frozenset())


def make_complete(n: int) -> Graph:
    _check_materialized(n)
    return Graph.of(n, combinations(range(n), 2))


def make_path(q: int) -> Graph:
    """Path on q vertices, edges {i, i+1}."""
    if q < 1:
        raise ValueError("path order must be >= 1")
    _check_materialized(q)
    return Graph.of(q, ((i, i + 1) for i in range(q - 1)))


def make_cycle(q: int) -> Graph:
    if q < 3:
        raise ValueError("cycle order must be >= 3")
    _check_materialized(q)
    return Graph.of(q, [(i, (i + 1) % q) for i in range(q)])


def make_star(s: int) -> Graph:
    """Star with center 0 and s leaves."""
    if s < 0:
        raise ValueError("leaf count must be >= 0")
    _check_materialized(s + 1)
    return Graph.of(s + 1, ((0, i) for i in range(1, s + 1)))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of g1 and g2 plus all edges between the two sides."""
    n1, n2 = g1.order, g2.order
    _check_materialized(n1 + n2)
    pairs = list(g1.edges)
    pairs += [(u + n1, v + n1) for u, v in g2.edges]
    pairs += [(u, v + n1) for u in range(n1) for v in range(n2)]
    return Graph.of(n1 + n2, pairs)


def make_complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("both sides must be nonempty")
    _check_materialized(m + n)
    return Graph.of(m + n, ((a, b) for a in range(m) for b in range(m, m + n)))


def make_complete_split(m: int, n: int) -> Graph:
    """K_m joined to n isolated vertices: K_{m,n} plus all edges inside the m-side."""
    if m < 1 or n < 1:
        raise ValueError("both sides must be nonempty")
    _check_materialized(m + n)
    return make_complete_bipartite(m, n).add_edges(combinations(range(m), 2))


# ---------------------------------------------------------------------------
# Family cores: a materialized path (plus optional chords) whose two endpoint
# hubs later receive symbolic pendant stars (census.attach_pendant_stars).

def make_broom_core(length: int) -> tuple[Graph, VertexSet]:
    """Bare path core; hubs are the two endpoints."""
    if length < 2:
        raise ValueError("core length must be >= 2")
    return make_path(length), frozenset({0, length - 1})


def _validate_chord(length: int, c: tuple[int, int]) -> Edge:
    u, v = edge(*c)
    if not 0 <= u < v < length:
        raise ValueError(f"chord {c} outside core 0..{length - 1}")
    if v - u == 1:
        raise ValueError(f"chord {c} coincides with a path edge")
    return (u, v)


def make_fan_broom_core(length: int, k: int) -> tuple[Graph, VertexSet]:
    """Path core plus k chords joining the first k path vertices to the far hub."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > length - 2:  # chord (k-1, length-1) would be a path edge
        raise ValueError(f"{k} fan chords need a core length of at least {k + 2}, not {length}")
    return make_chorded_broom_core(length, [(i, length - 1) for i in range(k)])


def make_chorded_broom_core(length: int, chords: Iterable[tuple[int, int]]) -> tuple[Graph, VertexSet]:
    """Path core plus arbitrary non-path chords."""
    core, hubs = make_broom_core(length)
    checked = [_validate_chord(length, c) for c in chords]
    if len(set(checked)) != len(checked):
        raise ValueError("duplicate chord")
    return core.add_edges(checked), hubs


def equal_span_chords(length: int, k: int, span: int) -> tuple[Edge, ...]:
    """k consecutive chords (0,p), (p,2p), ... all of span p along the core path."""
    if span < 2:
        raise ValueError("span must be >= 2 (span-1 chords are path edges)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k * span > length - 1:
        raise ValueError(f"{k} chords of span {span} do not fit in a core of length {length}")
    return tuple((i * span, (i + 1) * span) for i in range(k))


def _attach_leaves(core: Graph, hubs: VertexSet, s: int) -> Graph:
    if s < 0:
        raise ValueError("star size must be >= 0")
    n = core.order + s * len(hubs)
    _check_materialized(n)
    pairs = list(core.edges)
    nxt = core.order
    for h in sorted(hubs):
        for _ in range(s):
            pairs.append((h, nxt))
            nxt += 1
    return Graph.of(n, pairs)


def make_double_broom(length: int, s: int) -> Graph:
    """Materialized path-with-stars: s pendant leaves at each endpoint."""
    core, hubs = make_broom_core(length)
    return _attach_leaves(core, hubs, s)


def make_fan_broom(length: int, s: int, k: int) -> Graph:
    core, hubs = make_fan_broom_core(length, k)
    return _attach_leaves(core, hubs, s)


def make_chorded_broom(length: int, s: int, chords: Iterable[tuple[int, int]]) -> Graph:
    core, hubs = make_chorded_broom_core(length, chords)
    return _attach_leaves(core, hubs, s)


# ---------------------------------------------------------------------------
# graph6 codec (standard McKay encoding: bit-packed upper triangle, bytes
# offset by 63; column-major pair order (0,1),(0,2),(1,2),(0,3),...)

_G6_HEADER = b">>graph6<<"


def _g6_order(data: bytes) -> tuple[int, int]:
    """Decode the leading order field; returns (n, bytes consumed)."""
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    b0 = data[0]
    if b0 < 63 or b0 > 126:
        raise Graph6Error(f"out-of-range byte {b0}", 0)
    if b0 != 126:
        return b0 - 63, 1
    if len(data) >= 2 and data[1] == 126:
        chunk, start = data[2:8], 2
        width = 6
    else:
        chunk, start = data[1:4], 1
        width = 3
    if len(chunk) < width:
        raise Graph6Error("truncated order field", len(data))
    n = 0
    for i, b in enumerate(chunk):
        if b < 63 or b > 126:
            raise Graph6Error(f"out-of-range byte {b}", start + i)
        n = n << 6 | (b - 63)
    return n, start + width


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 string (short or long form).

    Orders above the materialization cap parse fine; the counting operations
    reject them later, so corpus streams need no pre-filtering.
    """
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII byte", exc.start) from None
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n")
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    n, pos = _g6_order(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error(f"truncated bit field (need {nbytes} bytes after the order)", len(data))
    if len(data) - pos > nbytes:
        raise Graph6Error("trailing data after bit field", pos + nbytes)
    pairs = []
    bit = 0
    u, v = 0, 1
    for i in range(nbytes):
        b = data[pos + i]
        if b < 63 or b > 126:
            raise Graph6Error(f"out-of-range byte {b}", pos + i)
        x = b - 63
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if x >> shift & 1:
                    raise Graph6Error("nonzero padding bit", pos + i)
                continue
            if x >> shift & 1:
                pairs.append((u, v))
            bit += 1
            u += 1
            if u == v:
                u, v = 0, v + 1
    return Graph.of(n, pairs)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (short form when order <= 62)."""
    n = g.order
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    elif n <= 68719476735:
        head = [126, 126] + [((n >> (6 * i)) & 63) + 63 for i in range(5, -1, -1)]
    else:
        raise TooLargeError("order too large for graph6")
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in g.edges else 0)
    out = bytearray(head)
    for i in range(0, len(bits), 6):
        chunk = bits[i:i + 6] + [0] * (6 - len(bits[i:i + 6]))
        x = 0
        for b in chunk:
            x = x << 1 | b
        out.append(x + 63)
    return out.decode("ascii")


def iter_graph6_lines(lines: Iterable[str]) -> Iterator[tuple[int, str, Graph | Graph6Error]]:
    """Parse a newline-delimited graph6 stream, yielding (line_no, text, result).

    Malformed lines yield the error instead of raising, so scans can continue.
    """
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            yield line_no, text, parse_graph6(text)
        except Graph6Error as exc:
            yield line_no, text, exc
