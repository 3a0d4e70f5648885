"""anneal: capped annealing and the alpha sweep.

Three shapes whose spread of n separates per-proposal overhead from
per-edge work: (6,10) under cap 7 from the program's own random start,
(12,37) under cap 12 from a random start made here, and (40,401) under cap 14
from the rewired-vertex graph at alpha = 7/10.  Then ``alpha_sweep(40, ...)``
at four alphas above 1/2, each of which runs exactly one anneal of a known
budget.  It loads ``_graph_stats``, the validated edge updates and
``to_graph6`` per improvement.  Run seeds derive from the workload seed.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
import oracle
from ops import Op, Workload

# short runs, so a run repeats each of them often (see clock.py)
BUDGETS = {6: 25_000, 12: 20_000, 40: 5_000}
SWEEP_BUDGET = 1_500
# alphas above 1/2 where the rewired-vertex family exists at n=40, so each
# alpha anneals exactly once (theorem1_sharp refuses 11/20 at n=40)
SWEEP_ALPHAS = ("3/5", "5/8", "13/20", "7/10", "3/4", "4/5", "17/20", "7/8", "9/10", "19/20")


def _anneal_op(n: int, e: int, cap: int, seed: int, start) -> Op:
    budget = BUDGETS[n]
    edges = None if start is None else gen.edge_pairs(start)

    def run(api):
        init = None if edges is None else api.from_edge_list(n, edges)
        params = api.AnnealParams(book_cap=cap, budget=budget, seed=seed, init=init)
        return api.anneal_min_triangles(n, e, params)

    def check(record) -> bool:
        return (
            record.scanned == budget + 1
            and record.seed == seed
            and oracle.frontier_ok(record, n, e, cap)
        )

    return Op(kind=f"anneal.n{n}", work=budget, run=run, check=check)


def _sweep_op(alphas: list[str], seed: int) -> Op:
    n, e = 40, 40 * 40 // 4 + 1

    def check(entries) -> bool:
        if [str(s.alpha) for s in entries] != alphas:
            return False
        for s in entries:
            cap = oracle.strict_cap(n, Fraction(s.alpha))
            if s.b_cap != cap or s.source not in ("theorem1_sharp", "anneal"):
                return False
            a = oracle.decode_graph6(s.graph6)
            t, b = oracle.stats(a)
            if a.shape[0] != n or int(a.sum()) // 2 != e or b >= cap or t != s.best_t:
                return False
        return True

    return Op(
        kind="anneal.sweep",
        work=len(alphas) * SWEEP_BUDGET,
        run=lambda api: api.alpha_sweep(n, alphas, seed=seed, budget=SWEEP_BUDGET),
        check=check,
    )


def build(seed: int, workdir: Path, workers: int) -> Workload:
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=4)]
    start12 = gen.random_fixed_edges(rng, 12, 37)
    start40 = gen.rewired_bipartite(40, 13, 8)  # theorem1_sharp(40, 7/10)
    alphas = sorted(rng.choice(SWEEP_ALPHAS, size=4, replace=False).tolist(), key=Fraction)
    return Workload(
        ops=[
            _anneal_op(6, 10, 7, seeds[0], None),
            _anneal_op(12, 37, 12, seeds[1], start12),
            _anneal_op(40, 401, 14, seeds[2], start40),
            _sweep_op(alphas, seeds[3]),
        ],
        warm={"seed": seeds[0], "start12": gen.edge_pairs(start12), "alpha": alphas[0]},
    )


def warmup(api, warm: dict) -> None:
    """Each call once, at the smallest shape and a short budget."""
    api.from_edge_list(12, [tuple(p) for p in warm["start12"]])
    params = api.AnnealParams(book_cap=7, budget=100, seed=warm["seed"])
    api.anneal_min_triangles(6, 10, params)
    api.alpha_sweep(40, [warm["alpha"]], seed=warm["seed"], budget=100)


def layer_metrics(w: Workload, summary, outputs, extras) -> dict:
    name = "search.anneal_min_triangles"
    out = {}
    for n in BUDGETS:
        at_n = lambda a, n=n: a["n"] == n  # noqa: E731
        out[f"search.anneal.proposals_per_s.n{n}"] = (
            summary.total(name, "proposals", at_n) / summary.seconds(name, at_n))
    records = [r for r in outputs if hasattr(r, "min_t")]
    entries = [s for r in outputs if isinstance(r, list) for s in r]
    out["search.anneal.min_t_sum"] = (
        sum(r.min_t for r in records) + sum(s.best_t for s in entries))
    out["search.alpha_sweep.s_per_alpha"] = (
        summary.seconds("search.alpha_sweep") / summary.total("search.alpha_sweep", "alphas"))
    return out
