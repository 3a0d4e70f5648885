import dataclasses
import hashlib
import json
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import booktri as bt
from booktri.constructions import _report
from conftest import brute_max_book, brute_triangle_count, sharp_split_exists


def test_rademacher_known_values():
    r = bt.rademacher_extremal(10)
    assert (r.e, r.predicted_t, r.predicted_b) == (26, 5, 5)
    r = bt.rademacher_extremal(6)
    assert (r.e, r.predicted_t, r.predicted_b) == (10, 3, 3)


def test_rademacher_odd_n():
    r = bt.rademacher_extremal(7)
    assert r.e == 13
    assert brute_triangle_count(r.graph) == 3
    assert brute_max_book(r.graph) == 3
    assert r.part_sizes == [4, 3]


def test_rademacher_errors():
    with pytest.raises(bt.ParameterError):
        bt.rademacher_extremal(3)


def test_theorem1_known_values():
    r = bt.theorem1_sharp(20, Fraction(7, 10))
    assert r.part_sizes == [6, 5]
    assert (r.e, r.predicted_t, r.predicted_b) == (101, 30, 6)
    assert brute_triangle_count(r.graph) == 30
    assert brute_max_book(r.graph) == 6
    assert r.predicted_b < Fraction(7, 10) * 20 / 2


def test_theorem1_large_instance():
    r = bt.theorem1_sharp(200, Fraction(7, 10))
    assert r.part_sizes == [69, 32]
    assert r.predicted_t == 2208
    assert r.predicted_b == 69 < 70
    assert r.e == 200 * 200 // 4 + 1
    assert brute_triangle_count(r.graph) == 2208
    assert brute_max_book(r.graph) == 69


def test_theorem1_rebalanced_split():
    # At alpha=11/20, n=42 the classic split (10, 12) would put a book of 12
    # at or above the cap 11.55; the rebalanced split (11, 11) stays below.
    r = bt.theorem1_sharp(42, Fraction(11, 20))
    assert r.part_sizes == [11, 11]
    assert r.e == 42 * 42 // 4 + 1
    assert r.predicted_b < Fraction(11, 20) * 42 / 2
    assert bt.predicted_vs_actual(r)


def test_theorem1_impossible_cap():
    # n=40, alpha=11/20: both attachment counts would need to stay <= 10
    # while summing to 21; no split exists.
    with pytest.raises(bt.ParameterError):
        bt.theorem1_sharp(40, Fraction(11, 20))


def test_theorem1_refusal_matches_closed_form():
    # The docstring's condition: refuse iff 2s < n/2 + 1, s the largest
    # integer strictly below alpha*n/2 (same as alpha*n/2 <= ceil((n/2+1)/2)).
    mismatches = []
    for n in range(8, 401, 2):
        for p in range(51, 100):
            alpha = Fraction(p, 100)
            predicted = not sharp_split_exists(n, alpha)
            assert predicted == (alpha * n / 2 <= -(-(n // 2 + 1) // 2))
            try:
                r = bt.theorem1_sharp(n, alpha)
                refused = False
                assert r.e == r.graph.m
            except bt.ParameterError:
                refused = True
            if refused != predicted:
                mismatches.append((n, p, predicted))
    assert not mismatches, mismatches


def test_theorem1_errors():
    with pytest.raises(bt.ParameterError):
        bt.theorem1_sharp(20, Fraction(2, 5))  # alpha below range
    with pytest.raises(bt.ParameterError):
        bt.theorem1_sharp(21, Fraction(7, 10))  # odd n
    with pytest.raises(bt.ParameterError):
        bt.theorem1_sharp(6, Fraction(7, 10))  # n too small
    with pytest.raises(bt.ParameterError):
        bt.theorem1_sharp(20, 0.7)  # floats refused


def test_edwards_known_values():
    r = bt.edwards_generalized(120, Fraction(2, 5))
    assert r.part_sizes == [23, 19, 18, 23, 19, 18]
    assert r.predicted_t == 2 * 23 * 19 * 18 == 15732
    assert r.predicted_b == 23 < 24
    assert brute_max_book(r.graph) == 23
    density = r.predicted_t / 120**3
    assert abs(density - float(Fraction(2, 5) * Fraction(9, 25) / 16)) < 2 / 120


def test_edwards_carries_one_edge_below_threshold():
    # the two-sided tripartite family always lands exactly on floor(n^2/4)
    for n, alpha in [(120, Fraction(2, 5)), (49, Fraction(3, 7)), (30, Fraction(2, 5))]:
        r = bt.edwards_generalized(n, alpha)
        assert r.e == n * n // 4


def test_edwards_cross_edges_have_empty_books():
    r = bt.edwards_generalized(24, Fraction(103, 300))
    sizes = r.part_sizes
    bounds = []
    start = 0
    for s in sizes:
        bounds.append(range(start, start + s))
        start += s
    g = r.graph
    for i in range(3):
        for u in bounds[i]:
            for v in bounds[3 + i]:
                assert g.has_edge(u, v)
                assert bt.book_size(g, u, v) == 0


def test_edwards_refusal_matches_closed_form():
    # The docstring's condition: refuse iff ceil(n/2) > 3s, s the largest
    # integer strictly below alpha*n/2; every built graph keeps b < alpha*n/2.
    mismatches = []
    refusals = 0
    for n in range(24, 401):
        for p in range(34, 50):
            alpha = Fraction(p, 100)
            cap = alpha * n / 2
            s = -(-cap.numerator // cap.denominator) - 1
            predicted = (n + 1) // 2 > 3 * s
            try:
                r = bt.edwards_generalized(n, alpha)
                refused = False
                assert max(r.part_sizes) < cap
                assert r.e == r.graph.m
            except bt.ParameterError:
                refused = True
            refusals += refused
            if refused != predicted:
                mismatches.append((n, p, predicted))
    assert not mismatches, mismatches
    assert refusals == 164


def test_edwards_errors():
    with pytest.raises(bt.ParameterError):
        bt.edwards_generalized(120, Fraction(1, 4))
    with pytest.raises(bt.ParameterError):
        bt.edwards_generalized(10, Fraction(2, 5))
    with pytest.raises(bt.ParameterError):
        bt.edwards_generalized(100, Fraction(17, 50))  # parts 16,17,17: b = alpha*n/2
    with pytest.raises(bt.ParameterError):
        bt.edwards_generalized(26, Fraction(7, 20))  # b = 5 > 4.55
    # refused by the vertex cap before any part row is built
    with pytest.raises(bt.GraphSizeError):
        bt.edwards_generalized(10**10, "2/5")


def test_predicted_vs_actual():
    assert bt.predicted_vs_actual(bt.rademacher_extremal(10))
    for n in range(4, 8):  # at n = 4 the rest of the big side has weight 0
        assert bt.predicted_vs_actual(bt.rademacher_extremal(n))
    assert bt.predicted_vs_actual(bt.theorem1_sharp(20, Fraction(7, 10)))
    good = bt.edwards_generalized(48, Fraction(2, 5))
    assert bt.predicted_vs_actual(good)
    corrupted = dataclasses.replace(good, predicted_t=good.predicted_t + 1)
    assert not bt.predicted_vs_actual(corrupted)


def test_edge_count_exactness():
    for n in range(4, 60):
        assert bt.rademacher_extremal(n).e == n * n // 4 + 1
    for n in range(8, 80, 2):
        for num in (11, 14, 17):
            alpha = Fraction(num, 20)
            try:
                r = bt.theorem1_sharp(n, alpha)
            except bt.ParameterError:
                continue
            assert r.e == n * n // 4 + 1


def test_hypothesis_compliance_grids():
    for n in (48, 96, 192):
        for num in (35, 40, 45):
            alpha = Fraction(num, 100)
            r = bt.edwards_generalized(n, alpha)
            assert r.predicted_b < alpha * n / 2
    for n in range(40, 200, 2):
        for num in (60, 70, 80, 90):
            alpha = Fraction(num, 100)
            r = bt.theorem1_sharp(n, alpha)
            assert r.predicted_b < alpha * n / 2


def test_report_json_dict():
    d = bt.rademacher_extremal(10).to_json_dict()
    assert d["e"] == 26 and d["measured_t"] == 5 and d["measured_b"] == 5
    assert d["alpha"] is None
    assert bt.from_graph6(d["graph6"]) == bt.rademacher_extremal(10).graph
    d = bt.theorem1_sharp(20, "7/10").to_json_dict()
    assert d["alpha"] == "7/10" and d["predicted_t"] == d["measured_t"] == 30


@st.composite
def blowups(draw):
    """A pattern on k <= 6 parts, possibly edgeless, with weights 0..4
    (empty parts allowed) summing to at least 1."""
    k = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
    pattern = [
        (j, i) if draw(st.booleans()) else (i, j)  # either orientation of each edge
        for i, j in combinations(range(k), 2)
        if draw(st.booleans())
    ]
    return weights, pattern


@settings(deadline=None)
@given(blowups())
def test_blowup_closed_forms_match_brute_force(case):
    weights, pattern = case
    r = _report("pattern", sum(weights), None, weights, weights, pattern)
    assert r.e == r.graph.m
    assert r.predicted_t == brute_triangle_count(r.graph)
    assert r.predicted_b == brute_max_book(r.graph)
    starts = list(accumulate(weights, initial=0))
    pairwise = bt.Graph(sum(weights))
    for i, j in pattern:
        for u in range(starts[i], starts[i + 1]):
            for v in range(starts[j], starts[j + 1]):
                pairwise.add_edge(u, v)
    assert r.graph == pairwise


# sha256 of the canonical JSON of each report, taken before the codegree
# kernel replaced triangle_count + max_book and the per-bit graph6 encoder
FAMILY_REPORT_PINS = {
    ("theorem1", 400, "7/10"): "21fe8d63631a3fc9b38fa3078f2fc95ee9181eba5a9ba34d6e1ad0485a54c10e",
    ("edwards", 384, "2/5"): "18791428697cf030b768761ed66d3467dc65908d232643bfca8e8b4220dfd7cc",
    ("rademacher", 1024, None): "fc6ac5f8f60002c9fa9672378a84a7d8c44ceaeb5c5fb17f4664a57d9484f6ca",
}


@pytest.mark.parametrize("kind,n,alpha", sorted(FAMILY_REPORT_PINS, key=str))
def test_family_report_golden_pins(kind, n, alpha):
    build = {
        "theorem1": lambda: bt.theorem1_sharp(n, alpha),
        "edwards": lambda: bt.edwards_generalized(n, alpha),
        "rademacher": lambda: bt.rademacher_extremal(n),
    }[kind]
    blob = json.dumps(build().to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("ascii")).hexdigest() == FAMILY_REPORT_PINS[(kind, n, alpha)]
