import hashlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import booktri as bt
from conftest import (
    adjacency_sets,
    bits_of,
    brute_book_sizes,
    brute_max_book,
    brute_triangle_count,
    complete,
    cycle,
    graphs,
    random_graph,
)


def test_codegree_known_values():
    k4 = complete(4)
    for u in range(4):
        for v in range(u + 1, 4):
            assert bt.codegree(k4, u, v) == 2
    kb = bt.complete_bipartite(5, 5)
    assert bt.codegree(kb, 0, 7) == 0
    c5 = cycle(5)
    assert bt.codegree(c5, 0, 1) == 0


def test_codegree_errors():
    g = complete(4)
    with pytest.raises(bt.LoopError):
        bt.codegree(g, 1, 1)
    with pytest.raises(bt.BoundsError):
        bt.codegree(g, 0, 9)


def test_book_size_known_values():
    k5 = complete(5)
    assert bt.book_size(k5, 0, 1) == 3
    rad = bt.rademacher_extremal(10)
    assert bt.book_size(rad.graph, 0, 1) == 5  # the added intra-part edge


def test_book_size_missing_edge():
    c5 = cycle(5)
    with pytest.raises(bt.MissingEdgeError):
        bt.book_size(c5, 0, 2)


def test_triangle_count_known_values():
    assert bt.triangle_count(complete(4)) == 4
    assert bt.triangle_count(bt.complete_bipartite(7, 7)) == 0
    assert bt.triangle_count(bt.rademacher_extremal(10).graph) == 5


def test_triangle_density_format():
    # t = 5 over 10^3, the value the construct_rademacher_10 golden pins
    assert bt.rademacher_extremal(10).to_json_dict()["t_density"] == "0.005000000000"


def test_book_profile_k6():
    books = bt.book_profile(complete(6))
    assert set(books.values()) == {4}
    assert len(books) == 15
    report = bt.analyze_report(complete(6))
    assert report["b"] == 4
    assert report["max_edge"] == [0, 1]  # lexicographic tie rule


def test_book_profile_constructions():
    g = bt.rademacher_extremal(12).graph
    report = bt.analyze_report(g)
    assert report["b"] == 6 and report["max_edge"] == [0, 1]
    assert max(bt.book_profile(g).values()) == 6
    g = bt.theorem1_sharp(20, "7/10").graph
    assert bt.analyze_report(g)["b"] == max(bt.book_profile(g).values()) == 6


def test_book_profile_matches_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 24), rng.random())
        assert bt.book_profile(g) == brute_book_sizes(g)


def test_book_profile_empty_graph():
    assert bt.book_profile(bt.Graph(4)) == {}


def test_histogram_known_values():
    assert bt.analyze_report(complete(4))["histogram"] == {"2": 6}
    assert bt.analyze_report(cycle(5))["histogram"] == {"0": 5}


def test_histogram_k33_plus_edge():
    # K_{3,3} plus the edge {0,1}: three triangles {0,1,b}; the added edge
    # has book 3, each cross edge at 0 or 1 sees exactly one, the rest none.
    g = bt.complete_bipartite(3, 3).add_edge(0, 1)
    hist = bt.analyze_report(g)["histogram"]
    assert hist == {"0": 3, "1": 6, "3": 1}
    assert sum(int(size) * mult for size, mult in hist.items()) == 3 * brute_triangle_count(g)


def test_handshake_identity():
    """Sum of book sizes over edges equals three times the triangle count."""
    rng = random.Random(7)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 32), rng.random())
        t = bt.triangle_count(g)
        assert sum(bt.book_profile(g).values()) == 3 * t


def test_oracle_equivalence():
    """Codegree-sum route equals explicit triple enumeration."""
    rng = random.Random(13)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 16), rng.random())
        assert bt.triangle_count(g) == brute_triangle_count(g)


def test_adding_edge_is_monotone():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(3, 20)
        g = random_graph(rng, n, 0.4)
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        before_t = bt.triangle_count(g)
        before_books = brute_book_sizes(g)
        u, v = rng.choice(non_edges)
        h = g.copy().add_edge(u, v)
        assert bt.triangle_count(h) >= before_t
        after_books = brute_book_sizes(h)
        for e, size in before_books.items():
            assert after_books[e] >= size


def test_mantel_threshold_forces_triangles():
    """Any graph with floor(n^2/4)+1 edges has a triangle (small-n check)."""
    rng = random.Random(23)
    for n in range(4, 9):
        e = n * n // 4 + 1
        for _ in range(200):
            g = bt.Graph(n)
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for u, v in rng.sample(pool, e):
                g.add_edge(u, v)
            assert bt.triangle_count(g) >= 1


def test_max_book_edgeless_is_zero():
    assert bt.max_book(bt.Graph(3)) == 0
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 20), rng.random())
        assert bt.max_book(g) == brute_max_book(g)


def test_analyze_report_shape():
    rep = bt.analyze_report(complete(4))
    assert rep == {
        "n": 4,
        "m": 6,
        "t": 4,
        "b": 2,
        "max_edge": [0, 1],
        "histogram": {"2": 6},
    }
    empty = bt.analyze_report(bt.Graph(3))
    assert empty["t"] == 0 and empty["b"] is None and empty["max_edge"] is None


def test_find_triangle():
    assert bt.find_triangle(cycle(5)) is None
    assert bt.find_triangle(complete(3)) == (0, 1, 2)


def _first_triangle_full_kernel(g):
    """find_triangle's witness read off every edge's book, as book_profile
    lists them: the first edge with a common neighbour, and its lowest one."""
    books = bt.book_profile(g)
    hit = [edge for edge, c in books.items() if c]
    if not hit:
        return None
    x, y = hit[0]
    common = g.adj[x] & g.adj[y]
    return tuple(sorted((x, y, (common & -common).bit_length() - 1)))


@settings(deadline=None)
@given(graphs(max_n=24))
def test_find_triangle_matches_full_kernel(g):
    assert bt.find_triangle(g) == _first_triangle_full_kernel(g)


def _group_edges(g, x, y, w):
    """The edges of the group whose first edge is (x, y), by plain row
    comparison: every edge between the twins of x and the twins of y, or the
    edge itself when the group carries no size (a group of one edge)."""
    if w is None:
        return [(x, y)]
    xs = [z for z in range(g.n) if g.adj[z] == g.adj[x]]
    ys = [z for z in range(g.n) if g.adj[z] == g.adj[y]]
    return [(min(p, q), max(p, q)) for p in xs for q in ys]


def _assert_groups_match_oracles(g):
    """The grouped kernel against per-edge oracles: the groups' edges are
    exactly g's edges, each once and with its group's book, and every count
    and answer read off the groups equals the brute one."""
    books = brute_book_sizes(g)
    groups = [
        (x, y, c, w)
        for u, v, cs, ws in bt.analytics._codegree_chunks(g)
        for x, y, c, w in zip(u.tolist(), v.tolist(), cs.tolist(),
                              [None] * cs.size if ws is None else ws.tolist())
    ]
    firsts = [(x, y) for x, y, _, _ in groups]
    assert firsts == sorted(set(firsts))  # in first-edge order, each once
    covered = []
    for x, y, c, w in groups:
        assert books[(x, y)] == c  # a real edge, with the group's book
        edges = _group_edges(g, x, y, w)
        assert min(edges) == (x, y) and len(edges) == (1 if w is None else w)
        assert all(books[e] == c for e in edges)
        covered += edges
    assert sorted(covered) == list(books)  # every edge in exactly one group
    weight = [1 if w is None else w for _, _, _, w in groups]
    assert sum(weight) == g.m
    hist = Counter()
    for (_, _, c, _), w in zip(groups, weight):
        hist[c] += w
    assert Counter(books.values()) == hist
    report = bt.analyze_report(g)
    assert report["m"] == g.m and report["histogram"] == {str(s): k for s, k in sorted(hist.items())}
    top = max(books.values(), default=None)
    first_max = min((e for e, c in books.items() if c == top), default=None)
    assert report["b"] == top and report["max_edge"] == (first_max and list(first_max))
    assert bt.find_triangle(g) == _first_triangle_brute(g)


def _assert_kernel_matches_oracles(g):
    """The grouped kernel as above, with the chunking its path promises, and
    book_profile's per-edge listing against per-edge popcounts."""
    _assert_groups_match_oracles(g)
    block = bt.analytics._BLOCK
    chunks = list(bt.analytics._codegree_chunks(g))
    assert all(c.dtype == np.int64 for _, _, c, _ in chunks)
    if block < g.n and len(set(g.adj)) <= block:  # the class path: one chunk
        assert len(chunks) == 1 and chunks[0][3].dtype == np.int64
    else:  # the row path: one chunk per block, each holding its own rows
        assert len(chunks) == -(-g.n // block)
        for r, (cu, _, _, w) in zip(range(0, g.n, block), chunks):
            assert ((r <= cu) & (cu < r + block)).all() and w is None
    edges = list(g.edges())
    books = bt.book_profile(g)
    assert list(books) == edges
    assert list(books.values()) == [(g.adj[x] & g.adj[y]).bit_count() for x, y in edges]
    assert bt.find_triangle(g) == _first_triangle_full_kernel(g) == _first_triangle_brute(g)


@pytest.mark.parametrize("minus_matching", [False, True])
def test_find_triangle_across_chunks(minus_matching):
    """K_{R,R} on 0..2R-1, with R the kernel's row block, plus edges among
    the three vertices after it.  Whole, it has a handful of twin classes and
    takes the class path, one chunk of groups; minus a perfect matching its
    rows are distinct and it takes the row path, where the first block holds
    exactly its own R*(R-1) triangle-free edges and the second block none.
    What comes after decides whether, and where, a triangle is found."""
    block = bt.analytics._BLOCK
    base = [(i, j) for i in range(block) for j in range(block, 2 * block)]
    if minus_matching:
        base = sorted(set(base) - {(i, block + i) for i in range(block)})
    a, b, c = range(2 * block, 2 * block + 3)  # rows of the third block
    for extra, expected in (
        ([(a, b), (b, c)], None),
        ([(a, b), (a, c), (b, c)], (a, b, c)),
        ([(0, 1), (a, b)], (0, 1, block + 2 * minus_matching)),
    ):
        g = bt.from_edge_list(2 * block + 3, base + extra)
        chunks = list(bt.analytics._codegree_chunks(g))
        if minus_matching:
            u, v, books, w = chunks[0]
            first = [(x, y) for x, y in extra if x < block]
            assert len(chunks) == 3 and w is None
            assert list(zip(u.tolist(), v.tolist())) == sorted(base + first)
            assert books.any() == bool(first)
        else:
            assert len(chunks) == 1
        _assert_kernel_matches_oracles(g)
        assert bt.find_triangle(g) == _first_triangle_full_kernel(g) == expected


def _first_triangle_brute(g):
    """find_triangle's contract read off plain sets: the first edge in
    lexicographic order with a common neighbour, and its lowest one."""
    adj = adjacency_sets(g)
    for u, v in g.edges():
        if adj[u] & adj[v]:
            return tuple(sorted((u, v, min(adj[u] & adj[v]))))
    return None


@st.composite
def blowups(draw) -> bt.Graph:
    """A blow-up of a random pattern on randomly labelled vertices, plus some
    isolated vertices and some flipped pairs, so that its twin classes come
    in any order and some are broken up."""
    parts = draw(st.integers(1, 8))
    pattern = {frozenset(p) for p in combinations(range(parts), 2) if draw(st.booleans())}
    part = [i for i in range(parts) for _ in range(draw(st.integers(1, 5)))]
    part += [None] * draw(st.integers(0, 3))  # isolated vertices
    n = len(part)
    part = [part[i] for i in draw(st.permutations(range(n)))]
    pairs = list(combinations(range(n), 2))
    edges = {(x, y) for x, y in pairs if frozenset((part[x], part[y])) in pattern}
    if pairs:
        edges ^= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    return bt.from_edge_list(n, edges)


@pytest.mark.parametrize("block", [4, 8])
@settings(deadline=None, max_examples=200)
@given(blowups())
def test_kernel_twin_classes_match_oracles(block, g):
    """With a small row block, blow-ups fall on both sides of k <= block < n:
    k distinct rows take the k x k class product, others the row product."""
    with mock.patch.object(bt.analytics, "_BLOCK", block):
        _assert_kernel_matches_oracles(g)


@settings(deadline=None)
@given(graphs(max_n=24))
@example(bt.Graph(1))
def test_grouped_kernel_matches_oracles(g):
    _assert_kernel_matches_oracles(g)


def test_class_path_reads_no_per_edge_arrays():
    """A blow-up's counts, books and first triangle come from its k x k class
    product and one group per adjacent pair of classes: no array per edge
    (262,145 edges in the Rademacher graph, 8 bytes a book, 12.6 MB when the
    kernel listed them) and no n x n matrix (1 MB of booleans)."""
    rademacher = bt.rademacher_extremal(1024).graph
    c5 = bt.graph._blowup([196, 210, 200, 214, 200], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert c5.n == 1020 and len(set(c5.adj)) == 5
    tracemalloc.start()
    try:
        report = bt.analyze_report(rademacher)
        peaks = [tracemalloc.get_traced_memory()[1]]
        tracemalloc.reset_peak()
        triangle = bt.find_triangle(c5)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert report["m"] == 262_145 and triangle is None
    assert max(peaks) < 3 * 2**20, peaks


def _distinct_rows(n, seed):
    """G(n, 1/2) from a fixed seed, checked to have n distinct rows."""
    rng = random.Random(seed)
    g = bt.from_edge_list(n, [p for p in combinations(range(n), 2) if rng.random() < 0.5])
    assert len(set(g.adj)) == n
    return g


def test_kernel_twin_classes_at_block_boundary():
    block = bt.analytics._BLOCK
    assert block == 128
    # n = 129 with 128 distinct rows takes the class product: vertex 1 is a
    # twin of vertex 0, so the classes' first vertices are 0, 2, 3, ..., 128
    g = _distinct_rows(block, 1)
    label = [0] + list(range(2, block + 1))
    twin = bt.from_edge_list(block + 1, [(label[x], label[y]) for x, y in g.edges()]
                             + [(1, label[w]) for w in bits_of(g.adj[0])])
    assert twin.adj[0] == twin.adj[1] and len(set(twin.adj)) == block
    _assert_kernel_matches_oracles(twin)
    # n = 129 with 129 distinct rows takes the row product
    g = _distinct_rows(block + 1, 2)
    _assert_kernel_matches_oracles(g)
    # n = 128 is one block, so even 2 distinct rows take the row product
    g = bt.complete_bipartite(block // 2, block // 2)
    assert len(set(g.adj)) == 2
    _assert_kernel_matches_oracles(g)
    # an edgeless graph above one block is a single class with a zero row
    g = bt.Graph(200)
    (u, v, c, w), = bt.analytics._codegree_chunks(g)
    assert u.size == v.size == c.size == w.size == 0
    assert bt.analyze_report(g) == {
        "n": 200, "m": 0, "t": 0, "b": None, "max_edge": None, "histogram": {},
    }
    assert bt.find_triangle(g) is None


def _without_pairs(n, pairs):
    """K_n minus the given disjoint pairs, built straight from its rows."""
    g = bt.Graph(n)
    g.adj = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    for u, v in pairs:
        g.remove_edge(u, v)
    return g


def test_kernel_exact_at_vertex_cap():
    """The largest Gram entries the float32 kernel can meet, at n = 1024:
    every term is 0 or 1 and every partial sum at most n < 2**24."""
    assert bt.graph.MAX_VERTICES < 2**24  # a larger cap could round a partial sum
    n = 1024
    m = n * (n - 1) // 2
    k = _without_pairs(n, [])
    assert bt.analyze_report(k) == {
        "n": n, "m": m, "t": 178_433_024, "b": n - 2, "max_edge": [0, 1],
        "histogram": {str(n - 2): m},
    }
    assert bt.triangle_count(k) == 178_433_024  # C(1024, 3)
    assert bt.analyze_report(k)["histogram"] == {"1022": 523_776}
    assert bt.find_triangle(k) == (0, 1, 2)
    # minus a perfect matching: each edge loses its ends and their two mates,
    # and a triangle takes one vertex from each of 3 of the 512 pairs: 8 C(512, 3)
    k = _without_pairs(n, [(v, v + 1) for v in range(0, n, 2)])
    assert bt.analyze_report(k) == {
        "n": n, "m": m - n // 2, "t": 177_909_760, "b": n - 4, "max_edge": [0, 2],
        "histogram": {str(n - 4): m - n // 2},
    }
    assert bt.find_triangle(k) == (0, 2, 4)
    empty = bt.Graph(n)
    assert bt.analyze_report(empty) == {
        "n": n, "m": 0, "t": 0, "b": None, "max_edge": None, "histogram": {},
    }
    assert bt.max_book(empty) == 0 and bt.analyze_report(empty)["histogram"] == {}
    assert bt.find_triangle(empty) is None


@settings(deadline=None)
@given(graphs(max_n=24))
@example(bt.Graph(1))
@example(bt.Graph(7))
def test_kernel_matches_brute_oracles(g):
    t = brute_triangle_count(g)
    books = brute_book_sizes(g)
    assert bt.triangle_count(g) == t
    assert bt.max_book(g) == brute_max_book(g)
    assert bt.analyze_report(g)["histogram"] == {str(s): k for s, k in sorted(Counter(books.values()).items())}
    report = bt.analyze_report(g)
    assert (report["n"], report["m"], report["t"]) == (g.n, g.m, t)
    assert bt.book_profile(g) == books
    if g.m:
        top = brute_max_book(g)
        first_max = min(e for e, c in books.items() if c == top)
        assert report["b"] == top and report["max_edge"] == list(first_max)
    else:
        assert report["b"] is None and report["histogram"] == {}
    tri = bt.find_triangle(g)
    if t == 0:
        assert tri is None
    else:
        u, v, w = tri
        assert u < v < w and g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)


def _half_density(n: int, seed: int) -> bt.Graph:
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    return bt.from_edge_list(n, zip(*(x.tolist() for x in np.nonzero(upper))))


# sha256 of the canonical JSON of analyze_report on G(n, 1/2) seeded by n,
# taken from the per-edge loops before the codegree kernel replaced them
DENSE_REPORT_PINS = {
    400: "2ee338eb167a1b207869d5ff4eaecdba2c6586da54316d22dcef012cd6f5a78e",
    1024: "c0957a4a282772a151887ad5ade70fac45b71efbce3744eafbfb7572b0cfd741",
}


@pytest.mark.parametrize("n", sorted(DENSE_REPORT_PINS))
def test_dense_report_golden_pins(n):
    report = bt.analyze_report(_half_density(n, n))
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("ascii")).hexdigest() == DENSE_REPORT_PINS[n]
