#!/usr/bin/env python3
"""Build the three extremal families and compare closed-form predictions with
exact measurements.

At floor(n^2/4)+1 edges, triangles are unavoidable: the minimum is floor(n/2)
(attained by the bipartite-plus-edge graph, whose one special edge then
carries a book of floor(n/2)), and some book always exceeds n/6.  Between the
extremes sit two tunable families: the re-wired-vertex family with t = a*b
triangles and books below alpha*n/2 (quadratic regime, alpha > 1/2), and the
two-sided tripartite family with cubic triangle count and density tending to
alpha*(1-alpha)^2/16 (alpha < 1/2).
"""

from fractions import Fraction

import booktri as bt


def check(report):
    ok = bt.predicted_vs_actual(report)
    t = bt.triangle_count(report.graph)
    b = bt.max_book(report.graph)
    return t, b, "ok" if ok else "MISMATCH"


def main():
    print("=" * 72)
    print("  EXTREMAL CONSTRUCTIONS: PREDICTED vs MEASURED")
    print("=" * 72)

    print("\nBipartite plus one edge (minimum triangles at the threshold):")
    print(f"  {'n':>4} {'e':>7} {'t pred':>7} {'t meas':>7} {'b pred':>7} {'b meas':>7}")
    for n in (6, 7, 10, 12, 25, 50):
        r = bt.rademacher_extremal(n)
        t, b, status = check(r)
        print(f"  {n:>4} {r.e:>7} {r.predicted_t:>7} {t:>7} {r.predicted_b:>7} {b:>7}  {status}")

    print("\nRe-wired vertex family (alpha > 1/2, t = a*b, b(G) = max(a, b)):")
    print(f"  {'n':>4} {'alpha':>6} {'a':>4} {'b':>4} {'t':>7} "
          f"{'t/(n^2/4)':>10} {'target':>8} {'book':>5} {'cap':>7}")
    for n, alpha in [(20, Fraction(7, 10)), (40, Fraction(9, 10)),
                     (200, Fraction(7, 10)), (120, Fraction(11, 20))]:
        r = bt.theorem1_sharp(n, alpha)
        t, b, status = check(r)
        target = float(alpha * (1 - alpha))
        print(f"  {n:>4} {str(alpha):>6} {r.part_sizes[0]:>4} {r.part_sizes[1]:>4} "
              f"{t:>7} {t / (n * n / 4):>10.4f} {target:>8.4f} {b:>5} "
              f"{float(alpha * n / 2):>7.2f}  {status}")

    print("\nTwo-sided tripartite family (alpha < 1/2, cubic t):")
    print(f"  {'n':>4} {'alpha':>6} {'parts/side':>12} {'t':>9} "
          f"{'t/n^3':>9} {'target':>9} {'book':>5} {'cap':>7}")
    for n, alpha in [(48, Fraction(2, 5)), (96, Fraction(2, 5)),
                     (120, Fraction(2, 5)), (192, Fraction(9, 20))]:
        r = bt.edwards_generalized(n, alpha)
        t, b, status = check(r)
        target = float(alpha * (1 - alpha) ** 2 / 16)
        parts = "x".join(str(p) for p in r.part_sizes[:3])
        print(f"  {n:>4} {str(alpha):>6} {parts:>12} {t:>9} "
              f"{t / n**3:>9.6f} {target:>9.6f} {b:>5} {float(alpha * n / 2):>7.2f}  {status}")

    print("\nEvery cross edge of the tripartite family has an empty book:")
    r = bt.edwards_generalized(48, Fraction(2, 5))
    cross_books = []
    sizes = r.part_sizes
    starts = [sum(sizes[:i]) for i in range(6)]
    for i in range(3):
        for u in range(starts[i], starts[i] + sizes[i]):
            for v in range(starts[3 + i], starts[3 + i] + sizes[3 + i]):
                cross_books.append(bt.book_size(r.graph, u, v))
    print(f"  n=48, alpha=2/5: {len(cross_books)} cross edges, "
          f"max book among them = {max(cross_books)}")


if __name__ == "__main__":
    main()
