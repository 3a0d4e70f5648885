"""Vertex bipartitions: the max-degree stability split, the bipartizing
rewire built on it, and a deterministic local max-cut.

For a triangle-free graph with floor(n^2/4) - k edges, splitting off the
neighborhood of a maximum-degree vertex leaves at most k edges inside the
parts, and rewiring those edges across the cut yields a simple bipartite
graph with exactly internal_x more edges than the input.  The split is
measured once, and the rewire is computed from its masks: a bisection per X
vertex finds its new row, and one ascending sweep over Y sets the new cross
edges in the Y rows, O(n log n) big-int operations in all.  The split
reads one degree list; the local max-cut takes the edge count and its
cut counts from the degree sums of its own passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytics import find_triangle
from .errors import NotTriangleFreeError, ParameterError
from .graph import Graph, _bits


@dataclass(frozen=True)
class Partition:
    """Two-coloring of the vertices; side Y is the set bits of y_mask."""

    n: int
    y_mask: int
    cross_edges: int
    internal_edges: int

    def sides(self) -> tuple[list[int], list[int]]:
        xs = [v for v in range(self.n) if not (self.y_mask >> v) & 1]
        ys = list(_bits(self.y_mask))
        return xs, ys


@dataclass(frozen=True)
class StabilityReport:
    """Stability split of a triangle-free graph.

    deficit_k = floor(n^2/4) - e(G); whenever it is nonnegative the split
    satisfies internal_x + internal_y <= deficit_k, and internal_y is always
    zero because Y is a neighborhood in a triangle-free graph.
    """

    n: int
    m: int
    partition: Partition
    deficit_k: int
    internal_x: int
    internal_y: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "k": self.deficit_k,
            "internal_x": self.internal_x,
            "internal_y": self.internal_y,
            "sides": [(self.partition.y_mask >> v) & 1 for v in range(self.n)],
        }


def stability_partition(g: Graph) -> StabilityReport:
    """Split V into Y = N(v) and X = rest, for the lowest-indexed vertex v of
    maximum degree.  Requires a triangle-free input, so Y is independent:
    every edge at Y crosses the cut, and the degrees over Y count them."""
    witness = find_triangle(g)
    if witness is not None:
        raise NotTriangleFreeError(witness)
    deg = [row.bit_count() for row in g.adj]
    v, m = deg.index(max(deg)), sum(deg) // 2
    y_mask = g.adj[v]
    cross = sum([deg[y] for y in _bits(y_mask)])
    return StabilityReport(
        n=g.n,
        m=m,
        partition=Partition(g.n, y_mask, cross, m - cross),
        deficit_k=g.n * g.n // 4 - m,
        internal_x=m - cross,
        internal_y=0,
    )


def _rewire(g: Graph, report: StabilityReport) -> Graph:
    """The rewire of bipartize_rewire, from a split of g already measured."""
    y_mask = report.partition.y_mask
    x_mask = ((1 << g.n) - 1) ^ y_mask
    out = g.copy()
    leave = [0] * (g.n + 1)  # leave[L]: the X vertices whose targets all lie below L
    alive = 0
    for w in _bits(x_mask):
        s = (g.adj[w] & x_mask).bit_count()
        if not s:
            continue
        free = y_mask & ~g.adj[w]
        assert free.bit_count() >= s, "max-degree bound violated: not enough room in Y"
        lo, hi = s, free.bit_length()
        while lo < hi:  # the least L with s bits of free below L
            mid = (lo + hi) // 2
            if (free & ((1 << mid) - 1)).bit_count() < s:
                lo = mid + 1
            else:
                hi = mid
        out.adj[w] = (g.adj[w] & y_mask) | (free & ((1 << lo) - 1))
        leave[lo] |= 1 << w
        alive |= 1 << w
    for y in range(g.n):  # alive at y: the X vertices with a target at or above y
        alive ^= leave[y]
        if not alive:
            break
        if (y_mask >> y) & 1:
            out.adj[y] |= alive
    return out


def bipartize_rewire(g: Graph) -> Graph:
    """Replace every intra-X edge of the stability split with cross edges.

    Each vertex w in X sheds its s intra-X edges and gains s edges to its s
    lowest-indexed non-neighbors in Y, s counted in the original graph, so
    each deleted edge adds one new cross edge at either endpoint and
    e(G') = e(G) + internal_x.  The result is simple and bipartite with
    sides X, Y.  d(w) <= d(v) = |Y| guarantees enough room in Y.  A
    bisection on popcounts finds L_w, the least L with s free bits below it,
    and one ascending sweep ORs every w with L_w above y into Y row y; a y
    below L_w that is not free to w is already in N(w), so the OR adds
    nothing there, and the targets (lowest index first) are unchanged.
    """
    return _rewire(g, stability_partition(g))


def local_max_cut(g: Graph, seed: Partition | None = None) -> Partition:
    """Improve a partition by single-vertex flips until none helps.

    Each pass visits the vertices in index order and flips every vertex
    whose flip improves the cut at that moment; passes repeat until one
    makes no move.  At the fixed point every vertex has at least as many
    neighbors across the cut as on its own side.  Each flip raises
    cross_edges by at least 1, so there are at most m improving passes,
    which an assertion checks.  Each pass also sums the degrees (2m) and the
    cross neighbors; the last pass moves nothing, so its sums are the final
    counts.  Defaults to the all-X start; a seed must be a split of g's
    own vertices.
    """
    if seed is not None and (seed.n != g.n or not 0 <= seed.y_mask < 1 << g.n):
        raise ParameterError(f"seed n={seed.n}, y_mask={seed.y_mask} does not split {g.n} vertices")
    y_mask = seed.y_mask if seed is not None else 0
    full = (1 << g.n) - 1
    improving_passes = 0
    while True:
        moved = False
        degrees = across = 0
        for v in range(g.n):
            row = g.adj[v]
            opp = row & y_mask if not (y_mask >> v) & 1 else row & (full ^ y_mask)
            cross, degree = opp.bit_count(), row.bit_count()
            degrees += degree
            across += cross
            if degree - cross > cross:
                y_mask ^= 1 << v
                moved = True
        if not moved:
            break
        improving_passes += 1
        assert improving_passes <= max(degrees // 2, 1), "cut failed to stabilize within m passes"
    return Partition(g.n, y_mask, across // 2, (degrees - across) // 2)
