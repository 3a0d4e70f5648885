import random

import numpy as np
import pytest

import booktri as bt
from booktri.graph import _row_bits, _set_row_bits
from conftest import adjacency_sets, bits_of, complete, random_graph


def test_graph_empty():
    g = bt.Graph(5)
    assert g.n == 5 and g.m == 0
    assert list(g.edges()) == []


def test_graph_minimal():
    g = bt.Graph(1)
    assert g.n == 1 and g.m == 0


@pytest.mark.parametrize("n", [0, -3, 1025, 10**6])
def test_graph_size_errors(n):
    with pytest.raises(bt.GraphSizeError):
        bt.Graph(n)


def test_add_edge_basics():
    g = bt.Graph(3)
    g.add_edge(0, 1)
    assert g.m == 1 and g.has_edge(0, 1) and g.has_edge(1, 0)
    g.add_edge(0, 1)
    assert g.m == 1, "re-adding an edge must be a no-op"
    g.add_edge(1, 0)
    assert g.m == 1


def test_add_edge_errors():
    g = bt.Graph(3)
    with pytest.raises(bt.LoopError):
        g.add_edge(2, 2)
    with pytest.raises(bt.BoundsError):
        g.add_edge(0, 3)
    with pytest.raises(bt.BoundsError):
        g.add_edge(-1, 1)


def test_remove_edge():
    g = bt.Graph(3).add_edge(0, 1)
    g.remove_edge(0, 1)
    assert g.m == 0 and not g.has_edge(0, 1)
    g.remove_edge(0, 1)  # idempotent
    assert g.m == 0


def test_complete_bipartite_counts():
    g = bt.complete_bipartite(5, 5)
    assert g.m == 25
    assert bt.triangle_count(g) == 0
    assert bt.complete_bipartite(1, 1).m == 1
    assert bt.complete_bipartite(3, 4).m == 12


def test_complete_bipartite_sides():
    g = bt.complete_bipartite(3, 4)
    for u in range(3):
        assert bits_of(g.adj[u]) == [3, 4, 5, 6]
    for v in range(3, 7):
        assert bits_of(g.adj[v]) == [0, 1, 2]


def test_complete_bipartite_errors():
    with pytest.raises(bt.GraphSizeError):
        bt.complete_bipartite(0, 5)
    with pytest.raises(bt.GraphSizeError):
        bt.complete_bipartite(600, 600)


def test_from_edge_list():
    g = bt.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3 and bt.triangle_count(g) == 1
    assert bt.from_edge_list(4, []).m == 0
    assert bt.from_edge_list(3, [(0, 1), (0, 1)]).m == 1


def test_edges_lexicographic():
    g = complete(4)
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_copy_is_independent():
    g = bt.Graph(4).add_edge(0, 1)
    h = g.copy()
    h.add_edge(2, 3)
    assert g.m == 1 and h.m == 2
    assert g != h and g == g.copy()


def test_random_toggles_keep_invariants():
    """Symmetry, loop-freeness, and the edge count survive any mutation
    sequence: the rows hold exactly the pairs a set of toggles holds."""
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(2, 40)
        g = bt.Graph(n)
        pairs = set()
        for _ in range(rng.randint(0, 120)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            if rng.random() < 0.5:
                g.add_edge(u, v)
                pairs.add((min(u, v), max(u, v)))
            else:
                g.remove_edge(u, v)
                pairs.discard((min(u, v), max(u, v)))
        assert g.m == len(pairs)
        assert list(g.edges()) == sorted(pairs)
        for v in range(n):
            assert not (g.adj[v] >> v) & 1, "self-loop crept in"
            for w in bits_of(g.adj[v]):
                assert (g.adj[w] >> v) & 1, "asymmetric adjacency"


def test_random_graphs_match_recount():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 64), rng.random())
        assert g.m == len(list(g.edges())) == sum(map(len, adjacency_sets(g))) // 2


def test_edge_count_is_read_only():
    g = bt.complete_bipartite(2, 3)
    with pytest.raises(AttributeError):
        g.m = 7
    assert g.m == 6


def test_from_edge_list_errors():
    with pytest.raises(bt.BoundsError, match="vertex 3 outside 0..2"):
        bt.from_edge_list(3, [(0, 1), (0, 3)])
    with pytest.raises(bt.BoundsError, match="vertex -1 outside"):
        bt.from_edge_list(3, [(-1, 1)])
    with pytest.raises(bt.LoopError, match="self-loop at vertex 2"):
        bt.from_edge_list(3, [(0, 1), (2, 2)])
    with pytest.raises(bt.BoundsError, match="vertex 1.0 outside"):
        bt.from_edge_list(3, [(0, 1.0)])
    with pytest.raises(bt.BoundsError, match="outside 0..2"):
        bt.from_edge_list(3, [(np.int64(0), 1)])
    # the first bad pair in iteration order is the one reported
    with pytest.raises(bt.LoopError, match="vertex 1$"):
        bt.from_edge_list(3, iter([(0, 2), (1, 1), (0, 5)]))
    with pytest.raises(bt.BoundsError, match="vertex 5 outside"):
        bt.from_edge_list(3, iter([(0, 2), (0, 5), (1, 1)]))


def test_from_edge_list_accepts_what_add_edge_accepts():
    # bools are ints to add_edge, so they stay valid vertices here
    assert bt.from_edge_list(3, [(True, 2), (False, True)]) == bt.from_edge_list(3, [(1, 2), (0, 1)])
    g = bt.Graph(5)
    pairs = [(4, 0), (1, 3), (3, 1), (2, 4)]
    for u, v in pairs:
        g.add_edge(u, v)
    assert bt.from_edge_list(5, pairs) == g


def test_row_conversions_across_the_word_boundary():
    """Up to n = 64 a row crosses into numpy as one word, above it as bytes:
    both ways agree with the rows' bits for every n on both sides, with the
    top bit of a word set at n = 64 and the first bit past it at n = 65."""
    rng = random.Random(5)
    for n in range(1, 131):
        g = random_graph(rng, n, rng.random())
        if n > 1:
            g.add_edge(0, n - 1)
        bits = _row_bits(g.adj, n)
        assert bits.shape == (n, n) and bits.dtype == bool
        assert [np.flatnonzero(b).tolist() for b in bits] == [bits_of(row) for row in g.adj]
        part = _row_bits(g.adj[::3], n)  # any subset of rows, as the class product reads
        assert (part == bits[::3]).all()
        back = _set_row_bits(bt.Graph(n), bits)
        assert back.adj == g.adj and all(type(row) is int for row in back.adj)
    assert _row_bits([1 << 63], 64)[0, 63] and _row_bits([1 << 64], 65)[0, 64]
