"""Exact triangle and book statistics.

The book of an edge is the set of triangles through it; its size equals the
number of common neighbors of the endpoints.  Everything here is a pure
function of an immutable graph.  Every whole-graph statistic reads one
kernel, ``_edge_codegrees``: edge uv's book is (A^2)_uv, read off a float32
Gram product one block of rows at a time, or once over one row per twin class
when a graph of more than one block has at most _BLOCK classes.  That is
exact: terms are 0 or 1, so every partial sum is an integer <= n < 2^24.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraphError, LoopError, MissingEdgeError
from .graph import Graph, _row_bits

_BLOCK = 128  # rows per row-product block, and most twin classes for the class product


@dataclass(frozen=True)
class TriangleStats:
    """Total triangle count plus its density relative to n^3."""

    count: int
    n: int

    @property
    def density(self) -> float:
        return self.count / self.n**3

    def density_str(self) -> str:
        # fixed 12 decimals so report files are byte-stable
        return f"{self.count / self.n**3:.12f}"


@dataclass(frozen=True)
class BookProfile:
    """Per-edge book sizes with the maximizing edge.

    max_edge is the lexicographically smallest edge attaining max_size, so
    profiles of equal graphs are identical.
    """

    per_edge: dict[tuple[int, int], int]
    max_edge: tuple[int, int]
    max_size: int


def codegree(g: Graph, u: int, v: int) -> int:
    """Number of common neighbors of u and v (the pair need not be an edge)."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise LoopError(f"codegree undefined for identical vertices ({u})")
    return (g.adj[u] & g.adj[v]).bit_count()


def book_size(g: Graph, u: int, v: int) -> int:
    """Book size of edge {u, v}.  Defined for existing edges only."""
    if not g.has_edge(u, v):
        raise MissingEdgeError(f"({u}, {v}) is not an edge; book size is undefined")
    return (g.adj[u] & g.adj[v]).bit_count()


def _codegree_chunks(g: Graph):
    """Every edge u < v in lexicographic order with its book size, one (u, v, c)
    per block of _BLOCK rows, computed lazily so a caller may stop early.
    Twins (equal rows, never adjacent) have equal books, so a graph of more than
    one block with k <= _BLOCK twin classes takes one k x k product over a row
    per class: k^2 n terms, no more than the row product's first block."""
    bits = _row_bits(g)
    order = np.arange(g.n)
    if _BLOCK < g.n and len(set(g.adj)) <= _BLOCK:
        first = {}  # classes are numbered by their first vertex
        lead = [first.setdefault(row, v) for v, row in enumerate(g.adj)]
        reps, cls = np.unique(lead, return_inverse=True)
        a = bits[reps].astype(np.float32)
        book = (a @ a.T).astype(np.int64)
    else:
        a, book = bits.astype(np.float32), None
    for r in range(0, g.n, _BLOCK):
        rows = slice(r, r + _BLOCK)
        idx = np.flatnonzero(bits[rows, r:] & (order[rows, None] < order[r:]))
        u, v = np.divmod(idx, g.n - r)
        u, v = u + r, v + r
        if book is None:
            yield u, v, (a[rows] @ a[:, r:]).ravel()[idx].astype(np.int64)
        else:
            yield u, v, book[cls[u], cls[v]]


def _edge_codegrees(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every edge u < v in lexicographic order, with its book size."""
    return tuple(map(np.concatenate, zip(*_codegree_chunks(g))))


def _t_and_b(c: np.ndarray) -> tuple[int, int]:
    """(t, largest book) from the per-edge books: their sum is 3t, and an
    edgeless graph's largest book is 0."""
    total = int(c.sum())
    assert total % 3 == 0
    return total // 3, int(c.max(initial=0))


def triangle_count(g: Graph) -> TriangleStats:
    """Exact triangle count via the codegree sum over edges (= 3t)."""
    return TriangleStats(count=_t_and_b(_edge_codegrees(g)[2])[0], n=g.n)


def book_profile(g: Graph) -> BookProfile:
    if not any(g.adj):
        raise EmptyGraphError("book profile of an edgeless graph is undefined")
    u, v, c = _edge_codegrees(g)
    i = int(c.argmax())  # first max, and edges are lexicographic, so ties go low
    return BookProfile(
        per_edge=dict(zip(zip(u.tolist(), v.tolist()), c.tolist())),
        max_edge=(int(u[i]), int(v[i])),
        max_size=int(c[i]),
    )


def book_histogram(g: Graph) -> dict[int, int]:
    """Map book size -> number of edges with that size."""
    counts = np.bincount(_edge_codegrees(g)[2]).tolist()
    return {size: k for size, k in enumerate(counts) if k}


def max_book(g: Graph) -> int:
    """Largest book size over all edges; 0 for an edgeless graph."""
    return _t_and_b(_edge_codegrees(g)[2])[1]


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Some triangle (u, v, w) with u < v < w, or None if triangle-free."""
    for u, v, c in _codegree_chunks(g):
        hit = np.flatnonzero(c)
        if hit.size:  # the first edge with a common neighbour, as edges are ordered
            x, y = int(u[hit[0]]), int(v[hit[0]])
            common = g.adj[x] & g.adj[y]
            w = (common & -common).bit_length() - 1
            return tuple(sorted((x, y, w)))
    return None


def analyze_report(g: Graph) -> dict:
    """Summary dict {n, m, t, b, max_edge, histogram} used by report files."""
    u, v, c = _edge_codegrees(g)
    if not c.size:
        b, max_edge, hist = None, None, {}
    else:
        i = int(c.argmax())
        b, max_edge = int(c[i]), [int(u[i]), int(v[i])]
        hist = {str(size): k for size, k in enumerate(np.bincount(c).tolist()) if k}
    return {
        "n": g.n,
        "m": c.size,
        "t": _t_and_b(c)[0],
        "b": b,
        "max_edge": max_edge,
        "histogram": hist,
    }
