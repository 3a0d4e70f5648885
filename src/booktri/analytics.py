"""Exact triangle and book statistics.

The book of an edge is the set of triangles through it; its size equals the
number of common neighbors of the endpoints.  Everything here is a pure
function of an immutable graph.  Edge uv's book is (A^2)_uv, read off a
float32 Gram product.  Every whole-graph statistic but book_profile reads
``_codegree_chunks``, groups of edges that share a book, one per adjacent
pair of twin classes or one per edge; book_profile lists every edge off the
row product, ``_row_chunks``.  That is exact: terms are 0 or 1, so every
partial sum is an integer <= n < 2^24.
"""

from __future__ import annotations

import numpy as np

from .errors import LoopError, MissingEdgeError
from .graph import Graph, _row_bits

_BLOCK = 128  # rows per row-product block, and most twin classes for the class product


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


def _leads(g: Graph) -> list[int]:
    """Each vertex's twin-class lead: the first vertex with its row."""
    first = {}
    return [first.setdefault(row, v) for v, row in enumerate(g.adj)]


def _codegree_chunks(g: Graph):
    """The edges u < v as groups (u, v, c, w), lazily, so a caller may stop
    early: (u, v) is a group's lexicographically first edge, c the book that
    all its w edges share, and groups come in first-edge order.  Twins (equal
    rows, never adjacent) have equal books, so a graph of more than one block
    with k <= _BLOCK twin classes takes one k x k product over a row per class
    (k^2 n terms, no more than the row product's first block) and yields one
    chunk, a group per adjacent pair of classes.  Any other graph takes
    _row_chunks."""
    if _BLOCK < g.n and len(set(g.adj)) <= _BLOCK:
        reps, size = np.unique(_leads(g), return_counts=True)
        a = _row_bits([g.adj[v] for v in reps.tolist()], g.n)  # one row per class
        i, j = np.nonzero(np.triu(a[:, reps]))  # adjacent classes, by their leads
        a = a.astype(np.float32)
        yield reps[i], reps[j], (a @ a.T)[i, j].astype(np.int64), size[i] * size[j]
        return
    yield from _row_chunks(g)


def _row_chunks(g: Graph):
    """Every edge u < v as a group of one, lazily: one chunk (u, v, c, None)
    per block of _BLOCK rows, edges in lexicographic order."""
    bits = _row_bits(g.adj, g.n)
    a, order = bits.astype(np.float32), np.arange(g.n)
    for r in range(0, g.n, _BLOCK):
        rows = slice(r, r + _BLOCK)
        idx = np.flatnonzero(bits[rows, r:] & (order[rows, None] < order[r:]))
        u, v = np.divmod(idx, g.n - r)
        yield u + r, v + r, (a[rows] @ a[:, r:]).ravel()[idx].astype(np.int64), None


def _groups(g: Graph) -> tuple:
    """All of _codegree_chunks' groups as (u, v, c) arrays, and hist: hist[s]
    edges have book s, and its last entry is nonzero unless g is edgeless."""
    u, v, c, w = zip(*_codegree_chunks(g))
    u, v, c = map(np.concatenate, (u, v, c))  # w[-1]: the class path's one chunk, or None
    return u, v, c, np.bincount(c, w[-1]).astype(np.int64, copy=False)


def _t_and_b(hist: np.ndarray) -> tuple[int, int]:
    """(t, largest book) from the book histogram: sum s * hist[s] is 3t, and
    an edgeless graph's largest book is 0."""
    total = int(hist @ np.arange(hist.size))
    assert total % 3 == 0
    return total // 3, max(hist.size - 1, 0)


def triangle_count(g: Graph) -> int:
    """Exact triangle count via the book histogram (sum of s * hist[s] = 3t)."""
    return _t_and_b(_groups(g)[3])[0]


def book_profile(g: Graph) -> dict[tuple[int, int], int]:
    """Every edge's book as {(u, v): book}, u < v in lexicographic order;
    {} for an edgeless graph."""
    u, v, c, _ = zip(*_row_chunks(g))
    u, v, c = map(np.concatenate, (u, v, c))
    return dict(zip(zip(u.tolist(), v.tolist()), c.tolist()))


def max_book(g: Graph) -> int:
    """Largest book size over all edges; 0 for an edgeless graph."""
    return _t_and_b(_groups(g)[3])[1]


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Some triangle (u, v, w) with u < v < w, or None if triangle-free."""
    for u, v, c, _ in _codegree_chunks(g):
        hit = np.flatnonzero(c)
        if hit.size:  # the first edge with a common neighbour, as groups are ordered
            x, y = int(u[hit[0]]), int(v[hit[0]])
            common = g.adj[x] & g.adj[y]
            w = (common & -common).bit_length() - 1
            return tuple(sorted((x, y, w)))
    return None


def analyze_report(g: Graph) -> dict:
    """Summary dict {n, m, t, b, max_edge, histogram} used by report files;
    max_edge is the first edge of the first group with the largest book."""
    u, v, c, hist = _groups(g)
    i = int(c.argmax()) if c.size else None
    return {
        "n": g.n,
        "m": int(hist.sum()),
        "t": _t_and_b(hist)[0],
        "b": None if i is None else int(c[i]),
        "max_edge": None if i is None else [int(u[i]), int(v[i])],
        "histogram": {str(size): k for size, k in enumerate(hist.tolist()) if k},
    }
