"""Shared brute-force oracles and random graph generators.

The oracles deliberately avoid the library's bitset code paths: adjacency is
rebuilt as plain Python sets and triangles are counted by explicit vertex
triples, so tests compare two independent routes to the same quantity.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

import booktri as bt


def adjacency_sets(g: bt.Graph) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_triangle_count(g: bt.Graph) -> int:
    """Triangle count by explicit triple enumeration (the slow oracle)."""
    adj = adjacency_sets(g)
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )


def brute_book_sizes(g: bt.Graph) -> dict[tuple[int, int], int]:
    """Per-edge common-neighbor counts via set intersections."""
    adj = adjacency_sets(g)
    return {(u, v): len(adj[u] & adj[v]) for u, v in g.edges()}


def brute_max_book(g: bt.Graph) -> int:
    sizes = brute_book_sizes(g)
    return max(sizes.values()) if sizes else 0


def random_graph(rng: random.Random, n: int, p: float) -> bt.Graph:
    g = bt.new_graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_triangle_free(rng: random.Random, n: int, p: float) -> bt.Graph:
    """Random graph cleaned by one greedy pass: any edge that still has a
    common neighbor when visited is deleted.  Deletions never create common
    neighbors, so the survivors form a triangle-free graph."""
    adj = [set() for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
                edges.append((u, v))
    for u, v in edges:
        if v in adj[u] and adj[u] & adj[v]:
            adj[u].discard(v)
            adj[v].discard(u)
    g = bt.new_graph(n)
    for u in range(n):
        for v in adj[u]:
            if v > u:
                g.add_edge(u, v)
    return g


def bipartite_minus_matching(rng: random.Random, a: int, b: int) -> bt.Graph:
    g = bt.complete_bipartite(a, b)
    k = rng.randint(0, min(a, b))
    rows = rng.sample(range(a), k)
    cols = rng.sample(range(b), k)
    for i, j in zip(rows, cols):
        g.remove_edge(i, a + j)
    return g


def cycle(n: int) -> bt.Graph:
    return bt.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> bt.Graph:
    return bt.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> bt.Graph:
    return bt.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def sharp_split_exists(n: int, alpha: Fraction) -> bool:
    """Whether the one-vertex rewiring of K_{n/2,n/2} fits under the cap.

    The rewired vertex takes a + b = n/2 + 1 attachments and its largest
    book is max(a, b), which must stay strictly below alpha*n/2.  With s the
    largest integer strictly below alpha*n/2, a split exists iff 2s >= n/2 + 1.
    """
    cap = alpha * n / 2
    s = -(-cap.numerator // cap.denominator) - 1
    return 2 * s >= n // 2 + 1


def anneal_reference(n: int, e: int, params: bt.AnnealParams) -> bt.FrontierRecord:
    """The annealer as it was before its incremental rewrite: every proposal
    applies the swap to the graph, recounts t and b from scratch with the
    set-based oracles above, and undoes the swap if it is rejected.  Same
    draws in the same order, so it must return the same record."""
    search = bt.search
    slots_list = search.edge_slots(n)
    slots = len(slots_list)
    if not 0 <= e <= slots:
        raise bt.ParameterError(f"edge count {e} outside 0..{slots} for n={n}")
    rng = np.random.Generator(np.random.PCG64(params.seed))

    if params.init is not None:
        if params.init.n != n or params.init.m != e:
            raise bt.ParameterError("init does not match (n, e)")
        g = params.init.copy()
        if brute_max_book(g) >= params.book_cap:
            raise bt.ParameterError("init violates book cap")
    else:
        g = None
        for _ in range(200):
            chosen = rng.choice(slots, size=e, replace=False)
            cand = bt.new_graph(n)
            for idx in chosen:
                cand.add_edge(*slots_list[int(idx)])
            if brute_max_book(cand) < params.book_cap:
                g = cand
                break
        if g is None:
            raise bt.ParameterError("no feasible random start")

    index = {s: i for i, s in enumerate(slots_list)}
    present = [index[ed] for ed in g.edges()]
    present_pos = {s: i for i, s in enumerate(present)}
    absent = [i for i in range(slots) if i not in present_pos]
    absent_pos = {s: i for i, s in enumerate(absent)}

    def remove_from(pool, pos, slot):
        i = pos.pop(slot)
        last = pool.pop()
        if i < len(pool):
            pool[i] = last
            pos[last] = i

    def push(pool, pos, slot):
        pos[slot] = len(pool)
        pool.append(slot)

    def stats():
        return brute_triangle_count(g), brute_max_book(g)

    best_by_b = {}

    def record_state(t, b):
        if b not in best_by_b or t < best_by_b[b][0]:
            best_by_b[b] = (t, bt.to_graph6(g))

    cur_t, cur_b = stats()
    record_state(cur_t, cur_b)
    temp = params.t0
    steps = params.budget if present and absent else 0
    for _ in range(steps):
        rem_slot = present[int(rng.integers(0, len(present)))]
        add_slot = absent[int(rng.integers(0, len(absent)))]
        g.remove_edge(*slots_list[rem_slot])
        g.add_edge(*slots_list[add_slot])
        nxt_t, nxt_b = stats()
        accept = False
        if nxt_b < params.book_cap:
            delta = nxt_t - cur_t
            accept = delta <= 0 or rng.random() < math.exp(-delta / temp)
        if accept:
            remove_from(present, present_pos, rem_slot)
            push(present, present_pos, add_slot)
            remove_from(absent, absent_pos, add_slot)
            push(absent, absent_pos, rem_slot)
            cur_t, cur_b = nxt_t, nxt_b
            record_state(cur_t, cur_b)
        else:
            g.remove_edge(*slots_list[add_slot])
            g.add_edge(*slots_list[rem_slot])
        temp *= params.decay

    frontier = bt.pareto_min((b, t) for b, (t, _) in best_by_b.items())
    return bt.FrontierRecord(
        n=n,
        e=e,
        mode="heuristic",
        min_t=min(t for _, t in frontier),
        min_b=min(b for b, _ in frontier),
        pareto=frontier,
        witnesses=[best_by_b[b][1] for b, _ in frontier],
        scanned=steps + 1,
        rng=search.RNG_ALGORITHM,
        seed=params.seed,
        params={
            "book_cap": params.book_cap,
            "budget": params.budget,
            "t0": params.t0,
            "decay": params.decay,
        },
    )
