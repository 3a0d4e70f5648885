"""Deterministic generators for the extremal graph families.

Each family is a weighted blow-up of a small pattern graph at (or one edge
below) the edge threshold floor(n^2/4) + 1 where triangles become
unavoidable: pattern vertex i becomes an independent part of w_i
consecutive vertices, and pattern edge ij a complete bipartite graph.

* ``rademacher_extremal`` -- weights (1, 1, ceil(n/2) - 2, floor(n/2)),
  pattern {01, 03, 13, 23}: K_{ceil(n/2), floor(n/2)} plus the edge {0, 1}.
* ``theorem1_sharp`` -- weights (a, n/2 - 1 - a, 1, b, n/2 - b), pattern
  {02, 03, 04, 13, 14, 23}: K_{n/2, n/2} with one vertex re-wired to a
  vertices of its own side and b of the other.
* ``edwards_generalized`` -- weights (x1, x2, x3, y1, y2, y3), pattern
  {01, 02, 12, 34, 35, 45, 03, 14, 25}: the triangular prism, two complete
  tripartite sides with matching parts joined across.

``FAMILIES`` lists them once, keyed by ``construct``'s kind; each row holds
the builder and whether it takes alpha.  The CLI and the alpha sweep read it.

The statistics come from the pattern alone: e = sum of w_i*w_j over the
pattern edges, the book of edge ij is the weight of the common pattern
neighbours of i and j, 3t = sum of w_i*w_j*book_ij, and b is the largest
book over the edges whose two parts are nonempty.  Part sizes are exact
integer functions of (n, alpha) with alpha a rational, so outputs are
reproducible bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .analytics import _groups, _t_and_b
from .codec import to_graph6
from .errors import ParameterError
from .graph import Graph, _blowup


def as_alpha(value) -> Fraction:
    """Coerce an exact rational ('7/10', Fraction, int); floats and decimal
    strings are refused so no caller can smuggle in rounding drift."""
    if isinstance(value, float):
        raise ParameterError("alpha must be an exact rational, not a float")
    if isinstance(value, str) and not re.fullmatch(r"\s*-?\d+(/\d+)?\s*", value):
        raise ParameterError(f"alpha must be written p/q, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParameterError(f"bad rational {value!r}: {exc}") from None


def strict_book_cap(n: int, alpha: Fraction) -> int:
    """Smallest integer cap with (b < cap) equivalent to (b < alpha*n/2)."""
    return math.ceil(alpha * n / 2)


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
        t, b = _t_and_b(_groups(self.graph)[3])
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
            "t_density": f"{t / self.n**3:.12f}",  # fixed 12 decimals: byte-stable files
            "graph6": to_graph6(self.graph),
        }


def _report(kind, n, alpha, part_sizes, weights, pattern) -> ConstructionReport:
    """The blow-up of pattern by weights, with e, t and b computed from the
    pattern alone, never read off the graph."""
    nbrs = [set() for _ in weights]
    for i, j in pattern:
        nbrs[i].add(j)
        nbrs[j].add(i)
    e = t3 = b = 0
    for i, j in pattern:
        book = sum(weights[k] for k in nbrs[i] & nbrs[j])
        e += weights[i] * weights[j]
        t3 += weights[i] * weights[j] * book
        if weights[i] and weights[j]:
            b = max(b, book)
    return ConstructionReport(
        kind, n, alpha, _blowup(weights, pattern), part_sizes, e, t3 // 3, b
    )


def rademacher_extremal(n: int) -> ConstructionReport:
    """K_{ceil(n/2), floor(n/2)} plus the edge {0, 1} inside the larger part.

    Has floor(n^2/4) + 1 edges and exactly floor(n/2) triangles, the forced
    minimum at this edge count; the added edge carries all of them, so the
    largest book is floor(n/2) as well.
    """
    if n < 4:
        raise ParameterError(f"need n >= 4, got {n}")
    big, small = (n + 1) // 2, n // 2
    return _report(
        "rademacher", n, None, [big, small], [1, 1, big - 2, small],
        [(0, 1), (0, 3), (1, 3), (2, 3)],
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
    a = alpha * n // 2 - 1  # alpha > 1/2 and n >= 8 put alpha*n/2 above 2, so a >= 1
    b = half + 1 - a
    strict = strict_book_cap(n, alpha) - 1
    if b > strict:
        b = strict
        a = half + 1 - b
        if a > strict:
            raise ParameterError(
                f"no attachment split of {half + 1} fits below book cap {alpha * n / 2}"
            )
    # parts (A, rest of v's side, v, B, rest of the other side)
    return _report(
        "theorem1", n, alpha, [a, b], [a, half - 1 - a, 1, b, half - b],
        [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3)],
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
    first = strict_book_cap(n, alpha) - 1
    side = (n + 1) // 2
    if side > 3 * first:
        raise ParameterError(f"no 3-part split of {side} stays below book cap {alpha * n / 2}")
    sizes = [
        p for size in (side, n // 2) for p in (first, (size - first + 1) // 2, (size - first) // 2)
    ]
    return _report(
        "edwards", n, alpha, sizes, sizes,
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)],
    )


FAMILIES = {  # kind -> (builder, takes alpha), in construct's choices order
    "rademacher": (rademacher_extremal, False),
    "theorem1": (theorem1_sharp, True),
    "edwards": (edwards_generalized, True),
}


def predicted_vs_actual(report: ConstructionReport) -> bool:
    """True iff the closed-form t and b match exact measurements."""
    measured = _t_and_b(_groups(report.graph)[3])
    return measured == (report.predicted_t, report.predicted_b)
