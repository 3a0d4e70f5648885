"""Independent checks of the program's outputs.

Nothing here imports booktri.  Graphs are dense 0/1 numpy matrices; triangle
and book counts come from a float64 matrix product, which is exact because
every codegree is at most 1024 and every sum stays far below 2**53 (float32
would not be: it is inexact above 2**24).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np


def decode_graph6(data: str | bytes) -> np.ndarray:
    """graph6 decoder for well-formed input (header and padding unchecked)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    raw = np.frombuffer(data.strip(), dtype=np.uint8)
    if raw[0] == 126:
        n = ((int(raw[1]) - 63) << 12) | ((int(raw[2]) - 63) << 6) | (int(raw[3]) - 63)
        body = raw[4:]
    else:
        n = int(raw[0]) - 63
        body = raw[1:]
    bits = np.unpackbits((body - 63).astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    v, u = np.tril_indices(n, -1)
    a = np.zeros((n, n), dtype=np.uint8)
    a[u, v] = bits[: u.size]
    return a | a.T


def codegrees(a: np.ndarray) -> np.ndarray:
    f = a.astype(np.float64)
    return f @ f


def stats(a: np.ndarray) -> tuple[int, int]:
    """(t, b): triangle count and largest book (0 without edges)."""
    c = codegrees(a)
    on = a.astype(bool)
    t = int(round(float((c * on).sum()))) // 6
    b = int(c[on].max()) if on.any() else 0
    return t, b


def analyze_report(a: np.ndarray) -> dict:
    """The report booktri.analyze_report promises, from the matrix."""
    n = a.shape[0]
    c = codegrees(a)
    iu, ju = np.nonzero(np.triu(a, 1))  # row-major, so lexicographic
    m = int(iu.size)
    t = int(round(float((c * a).sum()))) // 6
    if m == 0:
        return {"n": n, "m": 0, "t": t, "b": None, "max_edge": None, "histogram": {}}
    books = c[iu, ju].astype(np.int64)
    best = int(np.argmax(books))  # first maximum = lexicographically smallest
    sizes, counts = np.unique(books, return_counts=True)
    return {
        "n": n,
        "m": m,
        "t": t,
        "b": int(books[best]),
        "max_edge": [int(iu[best]), int(ju[best])],
        "histogram": {str(int(s)): int(k) for s, k in zip(sizes, counts)},
    }


def side_vector(y_mask: int, n: int) -> np.ndarray:
    return np.array([(y_mask >> v) & 1 for v in range(n)], dtype=np.uint8)


def stability_fields(report) -> dict:
    """A StabilityReport in the shape of its JSON form."""
    return {
        "n": report.n,
        "m": report.m,
        "k": report.deficit_k,
        "internal_x": report.internal_x,
        "internal_y": report.internal_y,
        "sides": side_vector(report.partition.y_mask, report.n),
    }


def stability_ok(a: np.ndarray, fields: dict, rewired_g6: str) -> bool:
    """The stability contract: Y is independent, the edges left inside X number
    exactly internal_x and fit in the deficit k = floor(n^2/4) - m, and the
    rewire is a bipartite graph on the same sides with m + internal_x edges that
    keeps every original cross edge.  ``fields`` has the keys of
    StabilityReport.to_json_dict()."""
    n = a.shape[0]
    m = int(a.sum()) // 2
    y = np.asarray(fields["sides"], dtype=np.int32)
    x = 1 - y
    wide = a.astype(np.int32)
    inside_x = int(x @ (wide @ x)) // 2
    inside_y = int(y @ (wide @ y)) // 2
    out = decode_graph6(rewired_g6)
    cross = (np.outer(x, y) | np.outer(y, x)).astype(np.uint8)
    return (
        fields["n"] == n
        and fields["m"] == m
        and fields["k"] == n * n // 4 - m >= 0
        and fields["internal_y"] == inside_y == 0
        and fields["internal_x"] == inside_x
        and fields["internal_x"] + fields["internal_y"] <= fields["k"]
        and out.shape == a.shape
        and int(out.sum()) // 2 == m + inside_x <= n * n // 4
        and not (out & (1 - cross)).any()
        and not (a & cross & (1 - out)).any()
    )


def cut_ok(a: np.ndarray, part) -> bool:
    """local_max_cut's fixed point: no vertex has more neighbours on its own
    side than across, and the reported counts match the matrix."""
    n = a.shape[0]
    y = side_vector(part.y_mask, n).astype(np.int64)
    deg = a.sum(axis=1, dtype=np.int64)
    to_y = a.astype(np.int64) @ y
    across = np.where(y == 1, deg - to_y, to_y)
    internal = int(((deg - across).sum()) // 2)
    m = int(deg.sum()) // 2
    return (
        bool((across >= deg - across).all())
        and part.internal_edges == internal
        and part.cross_edges == m - internal
    )


def witness_ok(g6: str, n: int, e: int, pair: tuple[int, int]) -> bool:
    """A frontier witness decodes to an n-vertex, e-edge graph realising its
    (b, t) pair."""
    a = decode_graph6(g6)
    if a.shape[0] != n or int(a.sum()) // 2 != e:
        return False
    t, b = stats(a)
    return (b, t) == tuple(pair)


def frontier_ok(record, n: int, e: int, cap: int | None = None) -> bool:
    """A FrontierRecord is a sorted antichain whose witnesses realise it."""
    pareto = [tuple(p) for p in record.pareto]
    antichain = all(
        b1 < b2 and t1 > t2 for (b1, t1), (b2, t2) in zip(pareto, pareto[1:])
    )
    return (
        record.n == n
        and record.e == e
        and bool(pareto)
        and antichain
        and len(record.witnesses) == len(pareto)
        and record.min_b == pareto[0][0]
        and record.min_t == pareto[-1][1]
        and (cap is None or pareto[-1][0] < cap)
        and all(witness_ok(w, n, e, p) for w, p in zip(record.witnesses, pareto))
    )


def scan_total(n: int, e: int) -> int:
    return math.comb(math.comb(n, 2), e)


def record_digest(record) -> str:
    """sha256 of a FrontierRecord's JSON form; scan output is pinned by it."""
    blob = json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def strict_cap(n: int, alpha: Fraction) -> int:
    """Smallest integer c with (b < c) equivalent to (b < alpha * n / 2)."""
    return math.ceil(alpha * n / 2)


def construction_ok(d: dict, kind: str, n: int, alpha: Fraction | None) -> bool:
    """A construction report (ConstructionReport.to_json_dict() form): its graph
    has the stated edges, its measured t and b are exact and match the closed
    forms, and its largest book stays under the cap alpha*n/2."""
    a = decode_graph6(d["graph6"])
    t, b = stats(a)
    e = int(a.sum()) // 2
    return (
        d["kind"] == kind
        and d["n"] == n == a.shape[0]
        and d["alpha"] == (None if alpha is None else str(alpha))
        and d["e"] == e
        and d["measured_t"] == d["predicted_t"] == t
        and d["measured_b"] == d["predicted_b"] == b
        and e == family_edges(kind, n)
        and (alpha is None or b < alpha * n / 2)
        and (kind != "rademacher" or t == n // 2)
    )


def family_edges(kind: str, n: int) -> int:
    """The two-sided tripartite family sits one edge below the threshold
    floor(n^2/4) + 1; the other two sit on it."""
    return n * n // 4 + (kind != "edwards")
