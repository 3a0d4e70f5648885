#!/usr/bin/env python3
"""Walk through the core statistics: codegrees, per-edge books, triangle
counts, and the handshake identity tying them together.

A book of size b is an edge lying in b triangles; its size equals the number
of common neighbors of the endpoints.  Summing book sizes over all edges
counts every triangle three times, which gives a cheap self-check.
"""

import random

import booktri as bt


def show(name, g):
    rep = bt.analyze_report(g)
    print(f"\n{name}: n={rep['n']}, m={rep['m']}")
    print(f"  triangles t = {rep['t']}")
    print(f"  largest book b = {rep['b']} at edge {rep['max_edge']}")
    print(f"  book histogram (size -> edges): {rep['histogram']}")
    if g.m:
        total = sum(int(k) * v for k, v in rep["histogram"].items())
        print(f"  handshake: sum of book sizes = {total} = 3 * t = {3 * rep['t']}")


def main():
    print("=" * 64)
    print("  BOOK AND TRIANGLE STATISTICS")
    print("=" * 64)

    k5 = bt.from_edge_list(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    show("K5 (complete)", k5)

    show("K_{3,3} (bipartite, no triangles)", bt.complete_bipartite(3, 3))

    plus = bt.complete_bipartite(3, 3).add_edge(0, 1)
    show("K_{3,3} plus one edge inside a part", plus)
    print("  the added edge {0,1} carries every triangle:",
          bt.book_size(plus, 0, 1), "of them")

    c5 = bt.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    show("C5 (5-cycle)", c5)
    print("  codegree of adjacent vertices 0,1:", bt.codegree(c5, 0, 1))

    print("\nRandom spot-check of the handshake identity:")
    rng = random.Random(0)
    for trial in range(3):
        n = rng.randint(8, 16)
        g = bt.Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
        t = bt.triangle_count(g)
        s = sum(bt.book_profile(g).values())
        print(f"  n={n}, m={g.m}: sum(books)={s}, 3t={3 * t}, equal={s == 3 * t}")

    print("\ngraph6 round trip of K5:", repr(bt.to_graph6(k5)),
          "->", bt.from_graph6(bt.to_graph6(k5)) == k5)


if __name__ == "__main__":
    main()
