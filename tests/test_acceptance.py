"""End-to-end verification suite.

Each test prints one PASS/FAIL line (run pytest with -s to see them all) and
then asserts, so the suite doubles as a human-readable checklist.  Exact
quantities are compared exactly; density checks use the stated tolerances
with rational arithmetic, never floats.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

import booktri as bt
from conftest import (
    adjacency_sets,
    bipartite_minus_matching,
    brute_triangle_count,
    random_graph,
    random_triangle_free,
    sharp_split_exists,
)


def _line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    # bypass capture so the checklist shows up in any pytest invocation
    print(f"\nACCEPTANCE {num} {name}: {tag}{suffix}", file=sys.__stdout__)


@pytest.fixture(scope="module")
def threshold_scans():
    """Exhaustive scans at e = floor(n^2/4) + 1 for n = 4..8 (shared by 1-2)."""
    scans = {}
    for n in range(4, 9):
        e = n * n // 4 + 1
        scans[n] = bt.extremal_scan(n, e)
    return scans


def test_criterion_1_triangle_minimum(threshold_scans):
    """Exhaustive minimum of t at the threshold edge count equals floor(n/2)."""
    observed = {n: rec.min_t for n, rec in threshold_scans.items()}
    expected = {n: n // 2 for n in observed}
    ok = observed == expected
    _line(1, "min triangles = floor(n/2), n=4..8", ok, f"observed {observed}")
    assert observed == expected


def test_criterion_2_book_minimum(threshold_scans):
    """Exhaustive minimum of the largest book exceeds n/6."""
    observed = {n: rec.min_b for n, rec in threshold_scans.items()}
    floors = {n: n // 6 + 1 for n in observed}
    bad = {n: v for n, v in observed.items() if v < floors[n]}
    _line(2, "min max-book >= floor(n/6)+1, n=4..8", not bad, f"observed {observed}")
    assert not bad


def test_criterion_3_sharp_family_grid():
    """Sharp family over even n in [40, 400], alpha in {0.55, ..., 0.95}.

    Where an attachment split exists: exact edge count, largest book strictly
    under alpha*n/2, and |t/(n^2/4) - alpha(1-alpha)| <= 6/n.  Where none
    exists (pigeonhole: n/2 + 1 attachments cannot split into two parts both
    below the cap), theorem1_sharp must refuse with ParameterError; the paper
    calls the family sharp only asymptotically, so no fixed n is promised.
    """
    failures = []
    refused = []
    constructible = passed = 0
    for num in range(55, 100, 5):
        alpha = Fraction(num, 100)
        for n in range(40, 401, 2):
            exists = sharp_split_exists(n, alpha)
            constructible += exists
            try:
                rep = bt.theorem1_sharp(n, alpha)
            except bt.ParameterError as exc:
                if exists:
                    failures.append((n, str(alpha), f"construction refused: {exc}"))
                else:
                    refused.append((n, str(alpha)))
                continue
            except Exception as exc:
                failures.append((n, str(alpha), f"unexpected {type(exc).__name__}: {exc}"))
                continue
            if not exists:
                failures.append((n, str(alpha), "graph returned where no split fits the cap"))
                continue
            if rep.e != n * n // 4 + 1:
                failures.append((n, str(alpha), f"e={rep.e}"))
                continue
            b = bt.max_book(rep.graph)
            if not b < alpha * n / 2:
                failures.append((n, str(alpha), f"b={b} >= {alpha * n / 2}"))
                continue
            t = bt.triangle_count(rep.graph)
            err = abs(Fraction(t, n * n // 4) - alpha * (1 - alpha))
            if err > Fraction(6, n):
                failures.append((n, str(alpha), f"density error {float(err):.4f}"))
                continue
            passed += 1
    ok = not failures
    _line(3, "sharp family: e exact, book under cap, density within 6/n", ok,
          f"{passed}/{constructible} constructible points pass; "
          f"refused as documented: {refused}; failures: {failures}")
    assert not failures, failures


def test_criterion_4_cubic_family_grid():
    """Two-sided tripartite family at n in {48, 96, 192}, alpha in
    {0.35, 0.40, 0.45}: book under cap and |t/n^3 - a(1-a)^2/16| <= 2/n."""
    failures = []
    for n in (48, 96, 192):
        for num in (35, 40, 45):
            alpha = Fraction(num, 100)
            rep = bt.edwards_generalized(n, alpha)
            b = bt.max_book(rep.graph)
            if not b < alpha * n / 2:
                failures.append((n, str(alpha), f"b={b}"))
                continue
            t = bt.triangle_count(rep.graph)
            err = abs(Fraction(t, n**3) - alpha * (1 - alpha) ** 2 / 16)
            if err > Fraction(2, n):
                failures.append((n, str(alpha), f"density error {float(err):.5f}"))
    _line(4, "cubic family: book under cap, density within 2/n", not failures,
          f"failures: {failures}")
    assert not failures, failures


def test_criterion_5_stability_and_rewire():
    """10^4 triangle-free graphs, n in [5, 64]: the max-degree split never
    exceeds the deficit, and the rewire is simple, bipartite, and lands at
    e + internal_x <= floor(n^2/4).  Zero violations allowed."""
    rng = random.Random(20240917)
    violations = 0
    trials = 10**4
    for trial in range(trials):
        n = rng.randint(5, 64)
        if trial % 10 < 7:
            g = random_triangle_free(rng, n, rng.uniform(0.05, 0.6))
        else:
            a = rng.randint(2, n - 2)
            g = bipartite_minus_matching(rng, a, n - a)
        report = bt.stability_partition(g)
        cap = g.n * g.n // 4
        out = bt.bipartize_rewire(g)
        y = report.partition.y_mask
        bipartite = all(((y >> u) & 1) != ((y >> v) & 1) for u, v in out.edges())
        good = (
            report.deficit_k >= 0
            and report.internal_y == 0
            and report.internal_x + report.internal_y <= report.deficit_k
            and out.m == g.m + report.internal_x
            and out.m <= cap
            and len(list(out.edges())) == len(list(g.edges())) + report.internal_x
            and bipartite
        )
        if not good:
            violations += 1
    _line(5, "stability split + rewire on 10^4 triangle-free graphs",
          violations == 0, f"{violations} violations in {trials}")
    assert violations == 0


def test_criterion_6_handshake_and_oracle():
    """10^4 random graphs, n <= 32: book sizes sum to 3t and the codegree
    route agrees with explicit triple enumeration.  Zero violations."""
    rng = random.Random(777)
    violations = 0
    trials = 10**4
    for _ in range(trials):
        n = rng.randint(1, 32)
        g = random_graph(rng, n, rng.random())
        t_fast = bt.triangle_count(g)
        t_slow = brute_triangle_count(g)
        hand = sum(bt.book_profile(g).values())
        if t_fast != t_slow or hand != 3 * t_fast:
            violations += 1
    _line(6, "handshake sum = 3t and codegree = triple oracle on 10^4 graphs",
          violations == 0, f"{violations} violations in {trials}")
    assert violations == 0


def test_criterion_7_local_max_cut_contract():
    """10^3 random graphs, n <= 64: at the returned partition every vertex
    has cross-degree >= same-side degree, within m improving passes."""
    rng = random.Random(4242)
    violations = 0
    trials = 10**3
    for _ in range(trials):
        n = rng.randint(2, 64)
        g = random_graph(rng, n, rng.random())
        part = bt.local_max_cut(g)  # asserts its own bound of m improving passes
        adj, side = adjacency_sets(g), [(part.y_mask >> v) & 1 for v in range(n)]
        for v in range(n):
            same = sum(1 for w in adj[v] if side[w] == side[v])
            if len(adj[v]) - same < same:
                violations += 1
                break
    _line(7, "local max-cut degree contract on 10^3 graphs",
          violations == 0, f"{violations} violations in {trials}")
    assert violations == 0


def test_criterion_8_search_consistency():
    """Annealing at (6, 10, cap 7, budget 10^6) attains the exhaustive
    minimum t = 3, and identical seeds give byte-identical records."""
    exact = bt.extremal_scan(6, 10)
    params = bt.AnnealParams(book_cap=7, budget=10**6, seed=1)
    first = bt.anneal_min_triangles(6, 10, params)
    second = bt.anneal_min_triangles(6, 10, params)
    bytes_a = json.dumps(first.to_json_dict(), sort_keys=True).encode()
    bytes_b = json.dumps(second.to_json_dict(), sort_keys=True).encode()
    ok = first.min_t == exact.min_t == 3 and bytes_a == bytes_b
    _line(8, "anneal reaches exhaustive minimum; runs byte-reproducible", ok,
          f"anneal min_t={first.min_t}, exact={exact.min_t}, "
          f"identical={bytes_a == bytes_b}")
    assert first.min_t == exact.min_t == 3
    assert bytes_a == bytes_b
