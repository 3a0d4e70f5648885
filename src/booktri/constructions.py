"""Deterministic generators for the extremal graph families.

All three families live at (or one edge below) the edge threshold
floor(n^2/4) + 1 where triangles become unavoidable:

* ``rademacher_extremal`` -- complete balanced bipartite plus one edge in the
  larger part; exactly floor(n/2) triangles, all through the added edge.
* ``theorem1_sharp`` -- balanced complete bipartite with one vertex re-wired
  to a attachment vertices on its own side and b on the other; t = a*b and
  the largest book is max(a, b), tunable below a cap alpha*n/2.
* ``edwards_generalized`` -- two sides, each split into three parts with
  complete tripartite inside and matching parts joined across; cubic triangle
  count with all books bounded by the largest part.

Part sizes are exact integer functions of (n, alpha) with alpha a rational,
so outputs are reproducible bit for bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .analytics import TriangleStats, _edge_codegrees, _t_and_b
from .errors import ParameterError
from .graph import Graph, complete_bipartite

__all__ = [
    "ConstructionReport",
    "rademacher_extremal",
    "theorem1_sharp",
    "edwards_generalized",
    "predicted_vs_actual",
    "as_alpha",
]


def as_alpha(value) -> Fraction:
    """Coerce an exact rational ('7/10', Fraction, int); floats and decimal
    strings are refused so no caller can smuggle in rounding drift."""
    if isinstance(value, float):
        raise ParameterError("alpha must be an exact rational, not a float")
    if isinstance(value, str) and not re.fullmatch(r"\s*-?\d+\s*(/\s*\d+\s*)?", value):
        raise ParameterError(f"alpha must be written p/q, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParameterError(f"bad rational {value!r}: {exc}") from None


def _strict_floor(x: Fraction) -> int:
    """Largest integer strictly below x."""
    fl = x.numerator // x.denominator
    return fl - 1 if x.denominator == 1 else fl


@dataclass(frozen=True)
class ConstructionReport:
    """A generated graph plus its closed-form statistics.

    part_sizes depends on the family: [big side, small side] for rademacher,
    the two attachment counts [a, b] for theorem1, and the six part sizes
    [x1, x2, x3, y1, y2, y3] for edwards.
    """

    kind: str
    n: int
    alpha: Fraction | None
    graph: Graph
    part_sizes: list[int]
    e: int
    predicted_t: int
    predicted_b: int

    def to_json_dict(self) -> dict:
        from .codec import to_graph6  # local import to avoid a cycle

        t, b = _t_and_b(_edge_codegrees(self.graph)[2])
        return {
            "kind": self.kind,
            "n": self.n,
            "alpha": None if self.alpha is None else str(self.alpha),
            "part_sizes": list(self.part_sizes),
            "e": self.e,
            "predicted_t": self.predicted_t,
            "predicted_b": self.predicted_b,
            "measured_t": t,
            "measured_b": b,
            "t_density": TriangleStats(count=t, n=self.n).density_str(),
            "graph6": to_graph6(self.graph),
        }


def rademacher_extremal(n: int) -> ConstructionReport:
    """K_{ceil(n/2), floor(n/2)} plus the edge {0, 1} inside the larger part.

    Has floor(n^2/4) + 1 edges and exactly floor(n/2) triangles, the forced
    minimum at this edge count; the added edge carries all of them, so the
    largest book is floor(n/2) as well.
    """
    if n < 4:
        raise ParameterError(f"need n >= 4, got {n}")
    big, small = (n + 1) // 2, n // 2
    g = complete_bipartite(big, small)
    g.add_edge(0, 1)
    return ConstructionReport(
        kind="rademacher",
        n=n,
        alpha=None,
        graph=g,
        part_sizes=[big, small],
        e=g.m,
        predicted_t=small,
        predicted_b=small,
    )


def theorem1_sharp(n: int, alpha) -> ConstructionReport:
    """Re-wire one vertex of K_{n/2,n/2} to sit in a*b triangles.

    Vertex v = n/2 - 1 loses its side edges and is reattached to ``a``
    lowest-indexed vertices of its own side and ``b`` of the other, with
    a + b = n/2 + 1 so the total stays n^2/4 + 1.  The classic split is
    a = floor(alpha*n/2) - 1; when its complement would put a book at or
    above alpha*n/2 the split is rebalanced to keep max(a, b) strictly
    below the cap.  If no split can (2s < n/2 + 1, s the largest integer
    strictly below alpha*n/2; equivalently alpha*n/2 <= ceil((n/2 + 1)/2)),
    the parameters are rejected.
    """
    alpha = as_alpha(alpha)
    if n % 2 != 0 or n < 8:
        raise ParameterError(f"need even n >= 8, got {n}")
    if not Fraction(1, 2) < alpha < 1:
        raise ParameterError(f"alpha must be in (1/2, 1), got {alpha}")
    half = n // 2
    cap_frac = alpha * n / 2
    floor_cap = cap_frac.numerator // cap_frac.denominator
    a = floor_cap - 1
    if a < 1:
        raise ParameterError(f"degenerate attachment count {a} for alpha={alpha}, n={n}")
    b = half + 1 - a
    strict = _strict_floor(cap_frac)
    if b > strict:
        b = strict
        a = half + 1 - b
        if a > strict:
            raise ParameterError(
                f"no attachment split of {half + 1} fits below book cap {cap_frac}"
            )

    g = complete_bipartite(half, half)
    v = half - 1
    for y in range(half, n):
        g.remove_edge(v, y)
    for x in range(a):
        g.add_edge(v, x)
    for y in range(half, half + b):
        g.add_edge(v, y)
    return ConstructionReport(
        kind="theorem1",
        n=n,
        alpha=alpha,
        graph=g,
        part_sizes=[a, b],
        e=g.m,
        predicted_t=a * b,
        predicted_b=max(a, b),
    )


def edwards_generalized(n: int, alpha) -> ConstructionReport:
    """Two-sided tripartite blow-up with cubic triangle count.

    Sides X (ceil(n/2)) and Y (floor(n/2)) are each cut into parts
    (p1, p2, p3): p1 is the largest integer strictly below alpha*n/2 and the
    rest splits evenly.  Each side is complete tripartite and X_i is joined
    completely to Y_i, so every triangle lies inside one side:
    t = x1*x2*x3 + y1*y2*y3, and every cross edge has book 0.  The largest
    book is the largest part, so every part must be at most p1; the largest
    of the rest is ceil((ceil(n/2) - p1)/2), so that holds iff
    ceil(n/2) <= 3*p1, and other parameters are rejected.
    """
    alpha = as_alpha(alpha)
    if not Fraction(1, 3) < alpha < Fraction(1, 2):
        raise ParameterError(f"alpha must be in (1/3, 1/2), got {alpha}")
    if n < 24:
        raise ParameterError(f"need n >= 24, got {n}")
    g = Graph(n)  # refuses n above the vertex cap before the part rows are built
    first = _strict_floor(alpha * n / 2)
    side = (n + 1) // 2
    if side > 3 * first:
        raise ParameterError(f"no 3-part split of {side} stays below book cap {alpha * n / 2}")

    def side_parts(size: int) -> list[int]:
        rem = size - first
        return [first, (rem + 1) // 2, rem // 2]

    xs = side_parts(side)
    ys = side_parts(n // 2)

    sizes = xs + ys
    starts = [sum(sizes[:i]) for i in range(6)]
    masks = [((1 << s) - 1) << lo for s, lo in zip(sizes, starts)]
    for i in range(6):
        # the rest of part i's own side plus the matching part across
        row = sum(masks[j] for j in range(6) if (j // 3 == i // 3) != (j % 3 == i % 3))
        g.adj[starts[i]:starts[i] + sizes[i]] = [row] * sizes[i]

    return ConstructionReport(
        kind="edwards",
        n=n,
        alpha=alpha,
        graph=g,
        part_sizes=xs + ys,
        e=g.m,
        predicted_t=xs[0] * xs[1] * xs[2] + ys[0] * ys[1] * ys[2],
        predicted_b=max(xs + ys),
    )


def predicted_vs_actual(report: ConstructionReport) -> bool:
    """True iff the closed-form t and b match exact measurements."""
    measured = _t_and_b(_edge_codegrees(report.graph)[2])
    return measured == (report.predicted_t, report.predicted_b)
