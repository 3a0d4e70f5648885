"""batch: many small graphs at a fixed per-call cost.

5,000 graphs with n spread evenly over [5, 64].  70% are triangle-free (half
C5 blow-ups thinned at random, half complete bipartite minus a matching): decode,
``stability_partition``, ``bipartize_rewire``, encode.  30% are G(n, p) with p
spread evenly over [0.05, 0.95]: decode, ``analyze_report``, ``local_max_cut``.
Inputs rotate between graph6, edge-list text and ``from_edge_list``.  The same
codec, analytics and partition code as ``dense`` runs here at small n, so a
kernel that wins there but adds per-call conversion shows its cost here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import gen
import oracle
from ops import Op, Workload, decode

COUNT = 5_000
FORMATS = ("g6", "el", "list")


def _encode(a: np.ndarray, fmt: str):
    if fmt == "g6":
        return gen.to_graph6(a)
    if fmt == "el":
        return gen.to_edge_list_text(a)
    return a.shape[0], gen.edge_pairs(a)


def _op(a: np.ndarray, triangle_free: bool, fmt: str) -> Op:
    data = _encode(a, fmt)
    if triangle_free:
        def run(api):
            g = decode(api, fmt, data)
            report = api.stability_partition(g)
            return report, api.to_graph6(api.bipartize_rewire(g))

        def check(out) -> bool:
            return oracle.stability_ok(a, oracle.stability_fields(out[0]), out[1])
    else:
        def run(api):
            g = decode(api, fmt, data)
            return api.analyze_report(g), api.local_max_cut(g)

        def check(out) -> bool:
            return out[0] == oracle.analyze_report(a) and oracle.cut_ok(a, out[1])

    kind = "tf" if triangle_free else "gnp"
    return Op(kind=f"{kind}.n{a.shape[0]}.{fmt}", work=1, run=run, check=check)


def _spread(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """k values covering [lo, hi) evenly, in random order (stratified)."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def build(seed: int, workdir: Path, workers: int) -> Workload:
    rng = np.random.default_rng(seed)
    ns = rng.permutation(5 + np.arange(COUNT) % 60)
    n_tf = COUNT * 7 // 10
    kinds = rng.permutation(np.arange(COUNT) < n_tf)  # True: triangle-free
    ps = iter(_spread(rng, 0.05, 0.95, COUNT - n_tf))
    keeps = iter(_spread(rng, 0.3, 1.0, n_tf))
    ops, graphs = [], []
    for i, (n, tf) in enumerate(zip(ns.tolist(), kinds.tolist())):
        if not tf:
            a = gen.gnp(rng, n, next(ps))
        elif i % 2:
            a = gen.c5_blowup(rng, rng.multinomial(n - 5, [0.2] * 5) + 1, keep=next(keeps))
        else:
            next(keeps)
            side = int(rng.integers(2, n - 1))
            a = gen.bipartite_minus_matching(rng, side, n - side)
        ops.append(_op(a, tf, FORMATS[i % 3]))
        graphs.append((n, tf, a))

    def smallest(pred) -> np.ndarray:
        return min((g for g in graphs if pred(g)), key=lambda g: g[0])[2]

    tiny = smallest(lambda g: True)
    warm = {
        "el": gen.to_edge_list_text(tiny),
        "edges": [tiny.shape[0], gen.edge_pairs(tiny)],
        "tf": gen.to_graph6(smallest(lambda g: g[1])).decode("ascii"),
        "gnp": gen.to_graph6(smallest(lambda g: not g[1])).decode("ascii"),
    }
    return Workload(ops=ops, warm=warm)


def warmup(api, warm: dict) -> None:
    """Each call once, on the smallest input of its kind."""
    api.from_edge_list_text(warm["el"])
    n, edges = warm["edges"]
    api.from_edge_list(n, [tuple(e) for e in edges])
    g = api.from_graph6(warm["tf"].encode("ascii"))
    api.stability_partition(g)
    api.to_graph6(api.bipartize_rewire(g))
    g = api.from_graph6(warm["gnp"].encode("ascii"))
    api.analyze_report(g)
    api.local_max_cut(g)


def _median_us(summary, name: str) -> float:
    values = sorted(summary.durations(name))
    return 1e6 * values[len(values) // 2] if values else 0.0


def layer_metrics(w: Workload, summary, outputs, extras) -> dict:
    metrics = {
        f"{name}.us_per_call.batch": _median_us(summary, name)
        for name in ("analytics.analyze_report", "codec.from_graph6",
                     "partition.stability_partition", "partition.bipartize_rewire",
                     "partition.local_max_cut")
    }
    for layer in ("analytics", "codec", "graph"):
        metrics[f"{layer}.share.batch"] = summary.self_s[layer] / summary.round_s
    return metrics
