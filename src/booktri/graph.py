"""Bitset-backed simple undirected graphs on labeled vertices.

Adjacency rows are Python integers used as n-bit sets, so neighborhood
intersections are a single ``&`` and common-neighbor counts a single
``int.bit_count()``.  The vertex cap keeps rows at a fixed small size
(1024 bits = 16 machine words).  Whole-graph kernels convert rows to a
boolean matrix and back, a row crossing as one uint64 when n <= 64 and as
its little-endian bytes otherwise.  Twins have equal row ints, so the book
kernel finds twin classes by hashing the rows and unpacks one row per
class; its float32 Gram product, of all rows or of those, is exact while
MAX_VERTICES < 2^24.
The rows are a graph's only state: the edge count is read off them, never
stored beside them.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundsError, GraphSizeError, LoopError

MAX_VERTICES = 1024


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph with bitset adjacency rows.

    Rows stay symmetric and loop-free through every mutation.  The mutating
    methods are intended for a single-owner build phase; once built, a graph
    can be shared freely between concurrent readers.  The edge count m is a
    read-only property computed from the rows in O(n), so a caller that needs
    it more than once reads it into a local.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int):
        if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
            raise GraphSizeError(f"vertex count {n!r} outside 1..{MAX_VERTICES}")
        self.n = n
        self.adj = [0] * n

    @property
    def m(self) -> int:
        """Number of edges: half the sum of the row popcounts."""
        return sum(row.bit_count() for row in self.adj) // 2

    # -- validation -------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise BoundsError(f"vertex {v!r} outside 0..{self.n - 1}")

    def _check_pair(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise LoopError(f"self-loop at vertex {u}")

    # -- mutation (build phase) -------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        """Set edge {u, v}; idempotent.  Returns self for chaining."""
        self._check_pair(u, v)
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u
        return self

    def remove_edge(self, u: int, v: int) -> "Graph":
        """Clear edge {u, v}; idempotent."""
        self._check_pair(u, v)
        self.adj[u] &= ~(1 << v)
        self.adj[v] &= ~(1 << u)
        return self

    # -- queries ------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            high = self.adj[u] >> (u + 1)
            for off in _bits(high):
                yield (u, u + 1 + off)

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.n = self.n
        g.adj = list(self.adj)
        return g

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and other.n == self.n and other.adj == self.adj
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _row_bits(rows: list[int], n: int) -> np.ndarray:
    """The (len(rows), n) boolean matrix of n-bit rows: each row is packed
    into ceil(n/64) little-endian words, then unpacked bit by bit."""
    if n <= 64:
        packed = np.array(rows, dtype="<u8").view(np.uint8).reshape(len(rows), 8)
    else:
        width = 8 * ((n + 63) // 64)
        buf = b"".join([row.to_bytes(width, "little") for row in rows])
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), -1)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _set_row_bits(g: Graph, bits: np.ndarray) -> Graph:
    """Fill g's rows from a symmetric loop-free (n, n) boolean matrix."""
    if g.n <= 64:
        words = np.zeros((g.n, 64), dtype=bool)
        words[:, :g.n] = bits
        g.adj = np.packbits(words, axis=1, bitorder="little").view("<u8").ravel().tolist()
        return g
    packed = np.packbits(bits, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    g.adj = [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]
    return g


def _blowup(weights: list[int], pattern: list[tuple[int, int]]) -> Graph:
    """Weighted blow-up of a pattern graph.  Part i is weights[i] consecutive
    vertices forming an independent set, and each pattern edge (i, j) joins
    parts i and j completely; every vertex of a part shares one row mask."""
    g = Graph(sum(weights))  # refuses n above the vertex cap before any row is built
    starts = list(accumulate(weights, initial=0))
    masks = [((1 << w) - 1) << lo for w, lo in zip(weights, starts)]
    rows = [0] * len(weights)
    for i, j in pattern:
        rows[i] |= masks[j]
        rows[j] |= masks[i]
    for row, w, lo in zip(rows, weights, starts):
        g.adj[lo:lo + w] = [row] * w
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: vertices 0..a-1 on one side, a..a+b-1 on the other."""
    if a < 1 or b < 1:
        raise GraphSizeError(f"part sizes must be positive, got {a}, {b}")
    return _blowup([a, b], [(0, 1)])


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with exactly the listed edges (duplicates collapse)."""
    g = Graph(n)
    adj = g.adj
    for u, v in edges:  # add_edge, its checks run only where the plain-int test fails
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n and u != v):
            g._check_pair(u, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return g
