#!/usr/bin/env python3
"""Exhaustively map the (largest book, triangle count) plane at the edge
threshold floor(n^2/4)+1 for small n.

Every labeled graph with the given edge count is covered (bitmask subsets
of the C(n,2) edge slots), so the reported minima are exact: min t hits
floor(n/2) and min b stays above n/6 at every size scanned.  The scan
examines only the graphs whose vertex 0 is a max-degree vertex adjacent to
1..d, which hold a witness of every (b, t) pair, so n = 8 takes well under
a second.
"""

import time

import booktri as bt


def main():
    print("=" * 72)
    print("  EXHAUSTIVE (b, t) FRONTIER AT e = floor(n^2/4) + 1")
    print("=" * 72)
    print(f"\n  {'n':>2} {'e':>3} {'graphs':>12} {'min_t':>6} {'floor(n/2)':>10} "
          f"{'min_b':>6} {'floor(n/6)+1':>12} {'time':>8}")
    records = {}
    for n in range(4, 9):
        e = n * n // 4 + 1
        t0 = time.time()
        rec = bt.extremal_scan(n, e)
        dt = time.time() - t0
        records[n] = rec
        print(f"  {n:>2} {e:>3} {rec.scanned:>12} {rec.min_t:>6} {n // 2:>10} "
              f"{rec.min_b:>6} {n // 6 + 1:>12} {dt:>7.2f}s")

    print("\nPareto frontiers (no achieved pair is below-left of another):")
    for n, rec in records.items():
        pretty = ", ".join(f"(b={b}, t={t})" for b, t in rec.pareto)
        print(f"  n={n}: {pretty}")

    n = max(records)
    rec = records[n]
    print(f"\nWitnesses for n={n} re-verified from graph6:")
    for (b, t), w in zip(rec.pareto, rec.witnesses):
        g = bt.from_graph6(w)
        print(f"  {w:12s} -> t={bt.triangle_count(g)}, b={bt.max_book(g)} "
              f"(recorded t={t}, b={b})")

    print("\nMinimum t as the book cap rises (non-increasing by definition):")
    rec = records[6 if 6 in records else n]
    caps = range(1, rec.n)
    row = {c: rec.min_t_under_cap(c) for c in caps}
    print("  " + ", ".join(f"b<{c}: {v if v is not None else '-'}" for c, v in row.items()))


if __name__ == "__main__":
    main()
