"""Shared brute-force oracles and random graph generators.

The oracles deliberately avoid the library's bitset code paths: adjacency is
rebuilt as plain Python sets and triangles are counted by explicit vertex
triples, so tests compare two independent routes to the same quantity.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

import booktri as bt


def enumerate_fixed_edges(n: int, e: int):
    """Every labeled n-vertex graph with exactly e edges, each exactly once,
    in lexicographic order of its edge subset.

    Graphs are built edge by edge from itertools.combinations, independently
    of the scan kernel, so this is the reference the scan is checked against.
    It refuses what the scan refuses, through the scan's own guard.
    """
    bt.search._guard(n, e)
    for combo in combinations(combinations(range(n), 2), e):
        g = bt.Graph(n)
        for u, v in combo:
            g.add_edge(u, v)
        yield g


def bits_of(row: int) -> list[int]:
    """The set bit positions of a row, lowest first."""
    return [v for v in range(row.bit_length()) if (row >> v) & 1]


def partition_of(g: bt.Graph, y_mask: int) -> bt.Partition:
    """The split of g with side Y = y_mask, its edges counted pair by pair."""
    edges = list(g.edges())
    internal = sum(((y_mask >> u) & 1) == ((y_mask >> v) & 1) for u, v in edges)
    return bt.Partition(g.n, y_mask, len(edges) - internal, internal)


def adjacency_sets(g: bt.Graph) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_triangle_count(g: bt.Graph) -> int:
    """Triangle count by explicit triple enumeration (the slow oracle)."""
    adj = adjacency_sets(g)
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )


def brute_book_sizes(g: bt.Graph) -> dict[tuple[int, int], int]:
    """Per-edge common-neighbor counts via set intersections."""
    adj = adjacency_sets(g)
    return {(u, v): len(adj[u] & adj[v]) for u, v in g.edges()}


def brute_max_book(g: bt.Graph) -> int:
    sizes = brute_book_sizes(g)
    return max(sizes.values()) if sizes else 0


def random_graph(rng: random.Random, n: int, p: float) -> bt.Graph:
    g = bt.Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_triangle_free(rng: random.Random, n: int, p: float) -> bt.Graph:
    """Random graph cleaned by one greedy pass: any edge that still has a
    common neighbor when visited is deleted.  Deletions never create common
    neighbors, so the survivors form a triangle-free graph."""
    adj = [0] * n
    edges = []
    draw = rng.random
    for u in range(n):
        for v in range(u + 1, n):
            if draw() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                edges.append((u, v))
    for u, v in edges:
        if adj[u] >> v & 1 and adj[u] & adj[v]:
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
    g = bt.Graph(n)
    g.adj = adj
    return g


def bipartite_minus_matching(rng: random.Random, a: int, b: int) -> bt.Graph:
    g = bt.complete_bipartite(a, b)
    k = rng.randint(0, min(a, b))
    rows = rng.sample(range(a), k)
    cols = rng.sample(range(b), k)
    for i, j in zip(rows, cols):
        g.remove_edge(i, a + j)
    return g


@st.composite
def graphs(draw, max_n: int) -> bt.Graph:
    """Hypothesis strategy: any graph on 1..max_n vertices, each vertex pair
    an edge when its bit of one drawn integer is set."""
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    g = bt.Graph(n)
    for k, (u, v) in enumerate(combinations(range(n), 2)):
        if (mask >> k) & 1:
            g.add_edge(u, v)
    return g


@st.composite
def graph6_like(draw) -> bytes:
    """A header for n in 0..140, a payload of about the right length in
    mostly printable bytes (random padding bits included), sometimes with
    one arbitrary byte, and optional whitespace or a >>graph6<< prefix."""
    n = draw(st.integers(0, 140))
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    expect = (n * (n - 1) // 2 + 5) // 6
    size = draw(st.sampled_from([expect, expect, expect, max(expect - 1, 0), expect + 1]))
    payload = bytearray(draw(st.binary(min_size=size, max_size=size)))
    for i in range(size):
        payload[i] = 63 + payload[i] % 64
    if size and draw(st.booleans()):
        payload[draw(st.integers(0, size - 1))] = draw(st.integers(0, 255))
    prefix = draw(st.sampled_from([b"", b" ", b">>graph6<<", b">>graph6<< \n"]))
    return prefix + head + bytes(payload) + draw(st.sampled_from([b"", b"\n"]))


# pieces of the edge-list grammar and its near misses: digits and long
# numbers, every ASCII space and line break str.split and str.splitlines
# know, comments and headers, signs and underscores int() accepts, letters
_EL_PIECES = [
    "0", "1", "2", "3", "7", "10", "0012", "1023", "12345", "99999",
    " ", "  ", "\t", "\x1f", "\n", "\n", "\r", "\r\n", "\v", "\f", "\x1c",
    "#", "# n ", "+", "-", "_", "n", "a", "x",
    ".", "e", "1.0", "\x00", "\x1d", "\x1e", "99999999999999999999", " # ", "-1", "5 5",
]


@st.composite
def edge_list_like(draw):
    """Edge-list text as str or bytes: well-formed "u v" lines and
    headers mixed with single grammar pieces, sometimes one non-ASCII."""
    line = st.builds(
        "{}{}{}{}".format,
        st.integers(0, 12),
        st.sampled_from([" ", "\t", " \x1f "]),
        st.integers(0, 12),
        st.sampled_from(["\n", "\r\n", "\r", "\v"]),
    )
    header = st.builds("# n {}\n".format, st.integers(0, 14))
    parts = draw(st.lists(st.one_of(line, header, st.sampled_from(_EL_PIECES)), max_size=24))
    text = "".join(parts)
    as_bytes = draw(st.booleans())
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\xe9" + text[at:]
    return text.encode("latin-1") if as_bytes else text


def cycle(n: int) -> bt.Graph:
    return bt.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> bt.Graph:
    return bt.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> bt.Graph:
    return bt.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def sharp_split_exists(n: int, alpha: Fraction) -> bool:
    """Whether the one-vertex rewiring of K_{n/2,n/2} fits under the cap.

    The rewired vertex takes a + b = n/2 + 1 attachments and its largest
    book is max(a, b), which must stay strictly below alpha*n/2.  With s the
    largest integer strictly below alpha*n/2, a split exists iff 2s >= n/2 + 1.
    """
    cap = alpha * n / 2
    s = -(-cap.numerator // cap.denominator) - 1
    return 2 * s >= n // 2 + 1


def graph6_reference_encode(g: bt.Graph) -> str:
    """graph6 one bit at a time, as the codec was before it worked on whole
    matrices: columns v = 1..n-1, rows u < v, six bits per printable byte."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    group = 0
    nbits = 0
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            group = (group << 1) | ((col >> u) & 1)
            nbits += 1
            if nbits == 6:
                out.append(group + 63)
                group = 0
                nbits = 0
    if nbits:
        out.append((group << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def graph6_reference_decode(data: str | bytes) -> bt.Graph:
    """The per-bit decoder the codec replaced, with every check and error
    message (and offset) it raised."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise bt.Graph6ParseError(
                f"non-ASCII character {data[exc.start]!r}", exc.start
            ) from None
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):].strip()
    if not data:
        raise bt.Graph6ParseError("empty input", 0)

    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise bt.Graph6ParseError("vertex count exceeds supported range", 1)
        if len(data) < 4:
            raise bt.Graph6ParseError("truncated extended vertex count", len(data))
        vals = []
        for i in (1, 2, 3):
            b = data[i]
            if not 63 <= b <= 126:
                raise bt.Graph6ParseError(f"invalid count byte {b:#04x}", i)
            vals.append(b - 63)
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        pos = 4
    else:
        b = data[0]
        if not 63 <= b <= 125:
            raise bt.Graph6ParseError(f"invalid header byte {b:#04x}", 0)
        n = b - 63
        pos = 1

    if n < 1 or n > bt.MAX_VERTICES:
        raise bt.GraphSizeError(f"vertex count {n} outside 1..{bt.MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    payload = data[pos:]
    if len(payload) < expect:
        raise bt.Graph6ParseError(
            f"payload too short: expected {expect} bytes, got {len(payload)}",
            len(data),
        )
    if len(payload) > expect:
        raise bt.Graph6ParseError("trailing bytes after payload", pos + expect)

    g = bt.Graph(n)
    bit = 0
    u, v = 0, 1
    for i, byte in enumerate(payload):
        if not 63 <= byte <= 126:
            raise bt.Graph6ParseError(f"non-printable payload byte {byte:#04x}", pos + i)
        group = byte - 63
        for k in range(5, -1, -1):
            if bit == nbits:
                if (group >> k) & 1:
                    raise bt.Graph6ParseError("nonzero padding bits", pos + i)
                continue
            if (group >> k) & 1:
                g.adj[u] |= 1 << v
                g.adj[v] |= 1 << u
            bit += 1
            u += 1
            if u == v:
                u, v = 0, v + 1
    return g


def edge_list_reference(text: str | bytes, n: int | None = None) -> bt.Graph:
    """The per-line parser the codec replaced, with its ASCII rule in front:
    the first non-ASCII byte or character is refused at its line, every
    line of the ASCII text then goes through str.splitlines, strip and
    split, and the graph is built edge by edge."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            line = len((text[: exc.start].decode("ascii") + "x").splitlines())
            raise bt.EdgeListParseError(f"non-ASCII byte {text[exc.start]:#04x}", line) from None
    for i, ch in enumerate(text):
        if ord(ch) > 127:
            line = len((text[:i] + "x").splitlines())
            raise bt.EdgeListParseError(f"non-ASCII character {ch!r}", line)

    pairs = []
    maxv = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if n is None and len(tokens) == 2 and tokens[0] == "n":
                try:
                    n = int(tokens[1])
                except ValueError:
                    raise bt.EdgeListParseError(f"bad vertex count {tokens[1]!r}", lineno)
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise bt.EdgeListParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise bt.EdgeListParseError(f"non-integer vertex in {line!r}", lineno)
        if u < 0 or v < 0:
            raise bt.EdgeListParseError(f"negative vertex in {line!r}", lineno)
        if u == v:
            raise bt.EdgeListParseError(f"self-loop {u} {v}", lineno)
        pairs.append((u, v))
        maxv = max(maxv, u, v)

    if n is None:
        n = maxv + 1 if maxv >= 0 else 1
    if maxv >= n:
        raise bt.EdgeListParseError(f"vertex {maxv} outside declared count {n}", 0)
    return bt.from_edge_list(n, pairs)


def anneal_reference(n: int, e: int, params: bt.AnnealParams) -> bt.FrontierRecord:
    """The annealer as it was before its incremental rewrite: every proposal
    applies the swap to the graph, recounts t and b from scratch with the
    set-based oracles above, and undoes the swap if it is rejected.  Same
    draws in the same order, so it must return the same record."""
    search = bt.search
    slots_list = list(combinations(range(n), 2))
    slots = len(slots_list)
    if not 0 <= e <= slots:
        raise bt.ParameterError(f"edge count {e} outside 0..{slots} for n={n}")
    rng = np.random.Generator(np.random.PCG64(params.seed))

    if params.init is not None:
        if params.init.n != n or params.init.m != e:
            raise bt.ParameterError("init does not match (n, e)")
        g = params.init.copy()
        if brute_max_book(g) >= params.book_cap:
            raise bt.ParameterError("init violates book cap")
    else:
        g = None
        for _ in range(200):
            chosen = rng.choice(slots, size=e, replace=False)
            cand = bt.Graph(n)
            for idx in chosen:
                cand.add_edge(*slots_list[int(idx)])
            if brute_max_book(cand) < params.book_cap:
                g = cand
                break
        if g is None:
            raise bt.ParameterError("no feasible random start")

    index = {s: i for i, s in enumerate(slots_list)}
    present = [index[ed] for ed in g.edges()]
    present_pos = {s: i for i, s in enumerate(present)}
    absent = [i for i in range(slots) if i not in present_pos]
    absent_pos = {s: i for i, s in enumerate(absent)}

    def remove_from(pool, pos, slot):
        i = pos.pop(slot)
        last = pool.pop()
        if i < len(pool):
            pool[i] = last
            pos[last] = i

    def push(pool, pos, slot):
        pos[slot] = len(pool)
        pool.append(slot)

    def stats():
        return brute_triangle_count(g), brute_max_book(g)

    best_by_b = {}

    def record_state(t, b):
        if b not in best_by_b or t < best_by_b[b][0]:
            best_by_b[b] = (t, bt.to_graph6(g))

    cur_t, cur_b = stats()
    record_state(cur_t, cur_b)
    temp = params.t0
    steps = params.budget if present and absent else 0
    for _ in range(steps):
        rem_slot = present[int(rng.integers(0, len(present)))]
        add_slot = absent[int(rng.integers(0, len(absent)))]
        g.remove_edge(*slots_list[rem_slot])
        g.add_edge(*slots_list[add_slot])
        nxt_t, nxt_b = stats()
        accept = False
        if nxt_b < params.book_cap:
            delta = nxt_t - cur_t
            accept = delta <= 0 or rng.random() < (math.exp(-delta / temp) if temp else 0.0)
        if accept:
            remove_from(present, present_pos, rem_slot)
            push(present, present_pos, add_slot)
            remove_from(absent, absent_pos, add_slot)
            push(absent, absent_pos, rem_slot)
            cur_t, cur_b = nxt_t, nxt_b
            record_state(cur_t, cur_b)
        else:
            g.remove_edge(*slots_list[add_slot])
            g.add_edge(*slots_list[rem_slot])
        temp *= params.decay

    frontier = bt.pareto_min((b, t) for b, (t, _) in best_by_b.items())
    return bt.FrontierRecord(
        n=n,
        e=e,
        mode="heuristic",
        min_t=min(t for _, t in frontier),
        min_b=min(b for b, _ in frontier),
        pareto=frontier,
        witnesses=[best_by_b[b][1] for b, _ in frontier],
        scanned=steps + 1,
        rng=search.RNG_ALGORITHM,
        seed=params.seed,
        params={
            "book_cap": params.book_cap,
            "budget": params.budget,
            "t0": params.t0,
            "decay": params.decay,
        },
    )


def rewire_reference(g: bt.Graph) -> bt.Graph:
    """The rewire as it was before it worked on row masks: a fresh split,
    then every intra-X edge removed and every new cross edge added through
    the graph's validated edge updates, one at a time."""
    bits = bt.graph._bits
    report = bt.stability_partition(g)
    y_mask = report.partition.y_mask
    x_mask = ((1 << g.n) - 1) ^ y_mask

    out = g.copy()
    demand = {}
    for w in bits(x_mask):
        s = (g.adj[w] & x_mask).bit_count()
        if s:
            demand[w] = s
    for w, s in demand.items():
        for u in bits(g.adj[w] & x_mask):
            if u > w:
                out.remove_edge(w, u)
    for w in sorted(demand):
        s = demand[w]
        free = y_mask & ~g.adj[w]
        targets = []
        for y in bits(free):
            targets.append(y)
            if len(targets) == s:
                break
        assert len(targets) == s, "max-degree bound violated: not enough room in Y"
        for y in targets:
            out.add_edge(w, y)
    return out
