import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import booktri as bt
from booktri.cli import main
from conftest import (
    adjacency_sets,
    bipartite_minus_matching,
    complete,
    cycle,
    graphs,
    partition_of,
    path,
    random_graph,
    random_triangle_free,
    rewire_reference,
)


def _is_bipartite_on(g, y_mask):
    """No edge inside Y and none inside X for the given split."""
    for u, v in g.edges():
        if ((y_mask >> u) & 1) == ((y_mask >> v) & 1):
            return False
    return True


def test_stability_c5_trace():
    report = bt.stability_partition(cycle(5))
    assert report.deficit_k == 25 // 4 - 5 == 1
    xs, ys = report.partition.sides()
    assert ys == [1, 4] and xs == [0, 2, 3]
    assert report.internal_x == 1 and report.internal_y == 0
    assert report.internal_x <= report.deficit_k


def test_stability_balanced_bipartite():
    report = bt.stability_partition(bt.complete_bipartite(6, 6))
    assert report.deficit_k == 0
    assert report.internal_x == 0 and report.internal_y == 0


def test_stability_rejects_triangles():
    with pytest.raises(bt.NotTriangleFreeError) as exc:
        bt.stability_partition(complete(3))
    assert exc.value.witness == (0, 1, 2)


def test_stability_report_json():
    d = bt.stability_partition(cycle(5)).to_json_dict()
    assert d == {
        "n": 5,
        "m": 5,
        "k": 1,
        "internal_x": 1,
        "internal_y": 0,
        "sides": [0, 1, 0, 0, 1],
    }


def test_rewire_c5():
    out = bt.bipartize_rewire(cycle(5))
    assert out.m == 6
    y_mask = bt.stability_partition(cycle(5)).partition.y_mask
    assert _is_bipartite_on(out, y_mask)
    assert len(list(out.edges())) == 6


def test_rewire_already_bipartite():
    g = bt.complete_bipartite(4, 4)
    assert bt.bipartize_rewire(g) == g


def test_rewire_path4():
    g = path(4)
    report = bt.stability_partition(g)
    out = bt.bipartize_rewire(g)
    assert out.m == g.m + report.internal_x == 3
    assert _is_bipartite_on(out, report.partition.y_mask)


def test_rewire_rejects_triangles():
    with pytest.raises(bt.NotTriangleFreeError):
        bt.bipartize_rewire(complete(4))


def _c5_blowup(rng, sizes):
    """C5 with vertex i replaced by an independent set of sizes[i], labels
    shuffled: triangle-free, and its rewires are rarely trivial."""
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    parts, start = [], 0
    for size in sizes:
        parts.append(label[start:start + size])
        start += size
    edges = [(u, v) for i in range(5) for u in parts[i] for v in parts[(i + 1) % 5]]
    return bt.from_edge_list(start, edges)


def _tight(g, report):
    """Whether some X vertex needs every free slot it has in Y."""
    y_mask = report.partition.y_mask
    x_mask = ((1 << g.n) - 1) ^ y_mask
    return any(
        0 < (g.adj[w] & x_mask).bit_count() == (y_mask & ~g.adj[w]).bit_count()
        for w in range(g.n)
        if (x_mask >> w) & 1
    )


def test_rewire_matches_reference():
    rng = random.Random(2024)
    cases = [cycle(5), path(4), bt.complete_bipartite(3, 4)]
    # K5,5 minus a perfect matching: the matched partner of vertex 0 lands
    # in X with four X neighbours and exactly four free slots in Y
    g = bt.complete_bipartite(5, 5)
    for u in range(5):
        g.remove_edge(u, 5 + (u + 1) % 5)
    cases.append(g)
    for trial in range(600):
        if trial % 3 == 0:
            cases.append(_c5_blowup(rng, [rng.randint(1, 8) for _ in range(5)]))
        elif trial % 3 == 1:
            cases.append(bipartite_minus_matching(rng, rng.randint(2, 12), rng.randint(2, 12)))
        else:
            cases.append(random_triangle_free(rng, rng.randint(5, 40), rng.random() * 0.6))
    tight = 0
    for g in cases:
        before = list(g.adj)
        out, ref = bt.bipartize_rewire(g), rewire_reference(g)
        assert out.adj == ref.adj and out.m == len(list(ref.edges()))
        assert g.adj == before, "the input graph must not change"
        tight += _tight(g, bt.stability_partition(g))
    assert _tight(cases[3], bt.stability_partition(cases[3]))
    assert tight > 10


def test_rewire_matches_reference_past_one_word():
    """Rows wider than a machine word: C5 blow-ups at n = 65, 130 and 1020,
    and K512,512 minus a perfect matching, where the matched partner of
    vertex 0 lands in X and needs every free slot of Y up to vertex 1023."""
    rng = random.Random(1024)
    cases = [_c5_blowup(rng, [n // 5 + (i < n % 5) for i in range(5)]) for n in (65, 130, 1020)]
    g = bt.complete_bipartite(512, 512)
    for u in range(512):
        g.remove_edge(u, 512 + (u + 1) % 512)
    cases.append(g)
    cases.append(bipartite_minus_matching(rng, 300, 724))
    outs = []
    for g in cases:
        before = list(g.adj)
        out, ref = bt.bipartize_rewire(g), rewire_reference(g)
        assert g.n > 64 and out.adj == ref.adj
        assert g.adj == before, "the input graph must not change"
        outs.append(out)
    assert _tight(cases[3], bt.stability_partition(cases[3]))
    assert outs[3].has_edge(513, 1023) and not cases[3].has_edge(513, 1023)


def test_split_and_rewire_check_triangles_once(monkeypatch, tmp_path, capsys):
    calls = []

    def counting(g):
        calls.append(g.n)
        return bt.find_triangle(g)

    monkeypatch.setattr(bt.partition, "find_triangle", counting)
    g = _c5_blowup(random.Random(3), [3, 5, 2, 4, 6])
    bt.bipartize_rewire(g)
    assert calls == [20]
    p = tmp_path / "c5b.g6"
    p.write_text(bt.to_graph6(g))
    calls.clear()
    assert main(["stability", str(p), "--rewire"]) == 0
    assert calls == [20]
    out = capsys.readouterr().out.splitlines()[-1]
    assert bt.from_graph6(out) == rewire_reference(g)


def test_stability_bound_random_family():
    rng = random.Random(55)
    for trial in range(800):
        if trial % 3 == 0:
            a = rng.randint(2, 20)
            g = bipartite_minus_matching(rng, a, rng.randint(2, 20))
        else:
            g = random_triangle_free(rng, rng.randint(5, 48), rng.random() * 0.6)
        assert bt.find_triangle(g) is None
        report = bt.stability_partition(g)
        assert report.deficit_k >= 0, "triangle-free graphs cannot exceed n^2/4 edges"
        assert report.internal_y == 0
        assert report.internal_x + report.internal_y <= report.deficit_k
        out = bt.bipartize_rewire(g)
        assert out.m == g.m + report.internal_x
        assert out.m <= g.n * g.n // 4
        assert _is_bipartite_on(out, report.partition.y_mask)
        assert len(list(out.edges())) == len(list(g.edges())) + report.internal_x


def test_partition_counts():
    g = complete(4)
    part = partition_of(g, 0b0011)
    assert part.cross_edges == 4 and part.internal_edges == 2
    assert part.cross_edges + part.internal_edges == g.m
    assert bt.local_max_cut(g, part) == part  # a 2+2 split of K4 is a local optimum


def test_split_masks_must_fit_the_graph():
    """A seed for another vertex count, or a mask with bits outside 0..n-1,
    is refused rather than yielding sides with vertices the graph lacks."""
    g = complete(4)
    other = partition_of(bt.complete_bipartite(4, 4), 0b11110011)
    with pytest.raises(bt.ParameterError, match=r"^seed n=8, y_mask=243 does not split 4 vertices$"):
        bt.local_max_cut(g, other)
    for mask in (-4, 1 << 4, 0b110011):
        with pytest.raises(bt.ParameterError):
            bt.local_max_cut(g, bt.Partition(4, mask, 0, 0))
    assert bt.local_max_cut(g, partition_of(g, 0b1111)).cross_edges == 4


def test_local_max_cut_bipartite_optimum():
    g = bt.complete_bipartite(5, 5)
    seed = partition_of(g, ((1 << 5) - 1) << 5)
    part = bt.local_max_cut(g, seed)
    assert part.y_mask == seed.y_mask
    assert part.cross_edges == 25


def test_local_max_cut_k4():
    part = bt.local_max_cut(complete(4))
    # every local optimum of K4 is a 2+2 split: brute force over all 2^4 seeds
    assert part.cross_edges == 4
    best = max(
        partition_of(complete(4), m).cross_edges for m in range(16)
    )
    assert part.cross_edges == best


def test_local_max_cut_empty_graph():
    g = bt.Graph(6)
    seed = partition_of(g, 0b010101)
    part = bt.local_max_cut(g, seed)
    assert part.y_mask == seed.y_mask


def test_local_max_cut_contract():
    """Every vertex ends with at least as many cross neighbors as same-side
    neighbors, within m improving passes."""
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 48)
        g = random_graph(rng, n, rng.random())
        part = bt.local_max_cut(g)  # asserts its own bound of m improving passes
        adj, side = adjacency_sets(g), [(part.y_mask >> v) & 1 for v in range(n)]
        for v in range(n):
            same = sum(1 for w in adj[v] if side[w] == side[v])
            cross = len(adj[v]) - same
            assert cross >= same


@settings(deadline=None)
@given(graphs(max_n=24), st.integers(min_value=0))
def test_local_max_cut_counts_match_recount(g, seed_bits):
    """The counts summed over the cut's last pass equal a recount of its
    final sides, from the all-X start and from a drawn seed."""
    for seed in (None, partition_of(g, seed_bits % (1 << g.n))):
        part = bt.local_max_cut(g, seed)
        assert part == partition_of(g, part.y_mask)


def test_local_max_cut_deterministic():
    rng = random.Random(4)
    g = random_graph(rng, 20, 0.5)
    for seed_mask in (0, 0b1010101010):
        seed = partition_of(g, seed_mask)
        a = bt.local_max_cut(g, seed)
        b = bt.local_max_cut(g, seed)
        assert a == b


def test_local_max_cut_never_decreases_cut():
    rng = random.Random(12)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 30), rng.random())
        for y_mask, _ in zip(
            (rng.getrandbits(g.n) for _ in range(3)), range(3)
        ):
            seed = partition_of(g, y_mask)
            part = bt.local_max_cut(g, seed)
            assert part.cross_edges >= seed.cross_edges


def _split_by_edge_loops(g):
    """v, m, the Y mask and the edges inside X, inside Y and across the
    stability split, from plain loops over g.edges()."""
    edges = list(g.edges())
    deg = [0] * g.n
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    v = min(u for u in range(g.n) if deg[u] == max(deg))
    ys = {w for e in edges if v in e for w in e if w != v}
    inside_y = sum(u in ys and w in ys for u, w in edges)
    inside_x = sum(u not in ys and w not in ys for u, w in edges)
    return v, len(edges), sum(1 << y for y in ys), inside_x, inside_y


@pytest.mark.parametrize("block", [None, 4])
@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 130), p=st.floats(0, 1), minus_matching=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=64, p=0.5, minus_matching=False, seed=1)
@example(n=65, p=0.5, minus_matching=True, seed=1)
@example(n=129, p=0.5, minus_matching=True, seed=2)
def test_split_matches_edge_loops(block, n, p, minus_matching, seed):
    """The split reads one degree list: v, m, internal_x (m less the
    degrees over Y) and internal_y (0, as Y = N(v) is independent) against
    pair-by-pair counts, on both sides of 64 and of the row block."""
    rng = random.Random(seed)
    if minus_matching and n > 1:
        side = rng.randint(1, n - 1)
        g = bipartite_minus_matching(rng, side, n - side)
    else:
        g = random_triangle_free(rng, n, p)
    v, m, y_mask, inside_x, inside_y = _split_by_edge_loops(g)
    with mock.patch.object(bt.analytics, "_BLOCK", block or bt.analytics._BLOCK):
        report = bt.stability_partition(g)
    assert report.m == m and report.partition.y_mask == y_mask == g.adj[v]
    assert inside_y == report.internal_y == 0 and report.internal_x == inside_x
    assert report.partition.cross_edges == m - inside_x
    assert report.partition.internal_edges == inside_x
    assert report.deficit_k == n * n // 4 - m
