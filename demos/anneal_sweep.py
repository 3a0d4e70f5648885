#!/usr/bin/env python3
"""Heuristic side of the toolkit: annealing under a book cap, and the
trade-off curve between the cap and the best known triangle count.

The annealer swaps one edge at a time inside the fixed-edge-count space,
rejects any state whose largest book reaches the cap, and keeps the best
states seen.  Its results are empirical upper bounds; at sizes the
exhaustive scanner can also handle, the two agree on the minimum.
"""

import booktri as bt


def main():
    print("=" * 72)
    print("  ANNEALING UNDER A BOOK CAP")
    print("=" * 72)

    exact = bt.extremal_scan(6, 10)
    run = bt.anneal_min_triangles(
        6, 10, bt.AnnealParams(book_cap=7, budget=200_000, seed=1)
    )
    print(f"\n  n=6, e=10: exhaustive min_t = {exact.min_t}, "
          f"anneal best t = {run.min_t} (budget 2e5, seed 1)")
    print(f"  anneal frontier: {run.pareto}")
    again = bt.anneal_min_triangles(
        6, 10, bt.AnnealParams(book_cap=7, budget=200_000, seed=1)
    )
    print(f"  same seed reproduces the record exactly: "
          f"{run.to_json_dict() == again.to_json_dict()}")

    print("\n  n=12, e=37 under a loose cap: any output obeys t >= floor(n/2) = 6")
    run = bt.anneal_min_triangles(
        12, 37, bt.AnnealParams(book_cap=12, budget=50_000, seed=1)
    )
    print(f"  best t found: {run.min_t} at b = "
          f"{min(b for b, t in run.pareto if t == run.min_t)}")

    print("\n" + "=" * 72)
    print("  TRADE-OFF CURVE: BEST KNOWN t UNDER CAP alpha*n/2  (n = 40)")
    print("=" * 72)
    print("\n  As alpha falls from 1 toward 1/3, forcing smaller books, the")
    print("  achievable triangle count climbs from linear through quadratic")
    print("  to cubic in n.  Rows are upper bounds, not proven optima.\n")
    alphas = ["39/40", "9/10", "4/5", "7/10", "3/5", "9/20", "2/5", "7/20"]
    entries = bt.alpha_sweep(40, alphas, seed=7, budget=20_000)
    print("  " + bt.sweep_to_csv(entries).replace("\n", "\n  "))

    print("  (csv columns: alpha, integer book cap, best t, which source won;")
    print("   source none: no generator keeps its books under that cap at n = 40)")


if __name__ == "__main__":
    main()
