#!/usr/bin/env python3
"""Demonstrate the stability split and the bipartizing rewire.

A triangle-free graph can have at most floor(n^2/4) edges; write its deficit
as k = floor(n^2/4) - e(G).  Splitting off the neighborhood of a maximum-
degree vertex (Y = N(v), X = the rest) leaves no edges inside Y and at most k
inside X, so a nearly extremal triangle-free graph is nearly bipartite.
Rewiring each intra-X edge across the cut produces a genuinely bipartite
graph with exactly internal_x extra edges, still at most floor(n^2/4).
"""

import random

import booktri as bt


def describe(name, g):
    report = bt.stability_partition(g)
    xs, ys = report.partition.sides()
    print(f"\n{name}: n={g.n}, e={g.m}, deficit k={report.deficit_k}")
    print(f"  split: |X|={len(xs)}, |Y|={len(ys)} "
          f"(Y = neighborhood of a max-degree vertex)")
    print(f"  edges inside X: {report.internal_x}, inside Y: {report.internal_y} "
          f"(bound: {max(report.deficit_k, 0)})")
    out = bt.bipartize_rewire(g)
    print(f"  rewired: e' = {out.m} = {g.m} + {report.internal_x}, "
          f"cap floor(n^2/4) = {g.n * g.n // 4}, "
          f"triangle-free: {bt.find_triangle(out) is None}")
    return report, out


def main():
    print("=" * 72)
    print("  STABILITY SPLIT AND BIPARTIZING REWIRE (triangle-free inputs)")
    print("=" * 72)

    c5 = bt.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    describe("C5 (5-cycle)", c5)

    describe("K_{6,6} (already extremal bipartite)", bt.complete_bipartite(6, 6))

    petersen = bt.from_edge_list(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ])
    describe("Petersen graph", petersen)

    print("\nRandom triangle-free graphs (greedy-cleaned):")
    rng = random.Random(11)
    worst = 0.0
    for trial in range(5):
        n = rng.randint(12, 40)
        adj = [set() for _ in range(n)]
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    adj[u].add(v); adj[v].add(u); edges.append((u, v))
        for u, v in edges:
            if v in adj[u] and adj[u] & adj[v]:
                adj[u].discard(v); adj[v].discard(u)
        g = bt.Graph(n)
        for u in range(n):
            for v in adj[u]:
                if v > u:
                    g.add_edge(u, v)
        report = bt.stability_partition(g)
        ratio = report.internal_x / max(report.deficit_k, 1)
        worst = max(worst, ratio)
        print(f"  n={n:>2}, e={g.m:>3}, k={report.deficit_k:>3}, "
              f"internal={report.internal_x:>3}  (internal/k = {ratio:.2f})")
    print(f"  worst internal/k ratio seen: {worst:.2f} (bound is 1.00)")


if __name__ == "__main__":
    main()
