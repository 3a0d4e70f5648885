"""Seeded input generators for the benchmark.

Every generator takes a ``numpy.random.Generator`` and returns a dense 0/1
adjacency matrix (``uint8``, symmetric, zero diagonal).  The serializers turn
a matrix into the only forms the program ever receives: graph6 bytes,
edge-list text, or an ``(n, edges)`` list.  Nothing here imports booktri, so
inputs (and the oracles built on the same matrices) are independent of the
code under test.
"""

from __future__ import annotations

import numpy as np

_G6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def _permute(rng: np.random.Generator, a: np.ndarray) -> np.ndarray:
    """Relabel vertices uniformly at random, so no structure follows labels."""
    p = rng.permutation(a.shape[0])
    return np.ascontiguousarray(a[np.ix_(p, p)])


def _symmetric(upper: np.ndarray) -> np.ndarray:
    a = np.triu(upper, 1).astype(np.uint8)
    return a | a.T


def gnp(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Erdos-Renyi G(n, p)."""
    return _symmetric(rng.random((n, n)) < p)


def c5_blowup(rng: np.random.Generator, sizes, keep: float = 1.0) -> np.ndarray:
    """Blow-up of C5 with the given part sizes: part i is joined completely to
    parts i+-1 (mod 5), then each edge is kept with probability ``keep``.
    Triangle-free, and the max-degree split leaves edges inside X."""
    part = np.repeat(np.arange(5), sizes)
    diff = (part[:, None] - part[None, :]) % 5
    joined = (diff == 1) | (diff == 4)
    if keep < 1.0:
        joined &= rng.random(joined.shape) < keep
    return _permute(rng, _symmetric(joined))


def bipartite_minus_matching(rng: np.random.Generator, a: int, b: int) -> np.ndarray:
    """K_{a,b} minus a random matching of random size (triangle-free)."""
    n = a + b
    m = np.zeros((n, n), dtype=np.uint8)
    m[:a, a:] = 1
    k = int(rng.integers(0, min(a, b) + 1))
    rows = rng.choice(a, size=k, replace=False)
    cols = a + rng.choice(b, size=k, replace=False)
    m[rows, cols] = 0
    return _permute(rng, m | m.T)


def random_fixed_edges(rng: np.random.Generator, n: int, e: int) -> np.ndarray:
    """Uniform random graph with exactly e edges (an anneal start)."""
    iu, ju = np.triu_indices(n, 1)
    pick = rng.choice(iu.size, size=e, replace=False)
    m = np.zeros((n, n), dtype=np.uint8)
    m[iu[pick], ju[pick]] = 1
    return m | m.T


def rewired_bipartite(n: int, a: int, b: int) -> np.ndarray:
    """K_{n/2,n/2} with vertex n/2-1 detached from the other side and joined to
    the first a vertices of its own side and the first b of the other: the
    rewired-vertex family, built here independently as an anneal start."""
    half = n // 2
    v = half - 1
    m = np.zeros((n, n), dtype=np.uint8)
    m[:half, half:] = 1
    m[v, half:] = 0
    m[v, :a] = 1
    m[v, half:half + b] = 1
    m[v, v] = 0
    m = np.triu(m | m.T, 1)
    return m | m.T


# -- serializers ---------------------------------------------------------------


def to_graph6(a: np.ndarray) -> bytes:
    """graph6 encoding: upper triangle column by column, 6 bits per byte."""
    n = a.shape[0]
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    v, u = np.tril_indices(n, -1)  # ordered by v, then u < v
    bits = a[u, v].astype(np.uint8)
    pad = (-bits.size) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    body = bits.reshape(-1, 6) @ _G6_WEIGHTS + 63
    return head + body.astype(np.uint8).tobytes()


def edge_pairs(a: np.ndarray) -> list[tuple[int, int]]:
    u, v = np.nonzero(np.triu(a, 1))
    return list(zip(u.tolist(), v.tolist()))


def to_edge_list_text(a: np.ndarray) -> str:
    u, v = np.nonzero(np.triu(a, 1))
    lines = [f"# n {a.shape[0]}"]
    lines.extend(f"{x} {y}" for x, y in zip(u.tolist(), v.tolist()))
    return "\n".join(lines) + "\n"
