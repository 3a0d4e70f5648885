"""scan: exhaustive (b, t) frontiers.

Every e in 0..21 at n=7 on one worker, plus (8,7) and (8,21) on a pool of
min(2, cpus).  It is the only workload that runs the mask-successor loop,
the numpy chunk kernel and the process pool; low and high e stress the
successor's carry path differently.  It calls no analytics, codec or
partition code, so kernel changes there should leave it unchanged.

The scan's inputs are fixed by definition, so the seed changes nothing here;
the op order is fixed too, because it moves the process's peak memory.  Every
record's digest is pinned in scan_pins.json: scan output must never change
across performance work.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracle
from ops import Op, Workload

PINS = json.loads((Path(__file__).parent / "scan_pins.json").read_text(encoding="ascii"))


def _op(n: int, e: int, workers: int) -> Op:
    total = oracle.scan_total(n, e)
    pin = PINS[f"{n},{e}"]

    def check(record) -> bool:
        return (
            record.scanned == total
            and oracle.record_digest(record) == pin
            and oracle.frontier_ok(record, n, e)
        )

    return Op(
        kind=f"scan.n{n}.e{e}.w{workers}",
        work=total,
        run=lambda api: api.extremal_scan(n, e, threads=workers),
        check=check,
    )


def build(seed: int, workdir: Path, workers: int) -> Workload:
    specs = [(7, e, 1) for e in range(22)] + [(8, 7, workers), (8, 21, workers)]
    return Workload(
        ops=[_op(*spec) for spec in specs],
        warm={"n": 7, "e": 0},
        # the n=8 inputs again on one worker, to price the pool
        extras=[_op(8, 7, 1), _op(8, 21, 1)],
    )


def warmup(api, warm: dict) -> None:
    api.extremal_scan(warm["n"], warm["e"], threads=1)


def layer_metrics(w: Workload, summary, outputs, extras) -> dict:
    name = "search.extremal_scan"
    n7 = lambda a: a["n"] == 7  # noqa: E731
    n8 = lambda a: a["n"] == 8  # noqa: E731
    pooled = summary.seconds(name, n8)
    return {
        "search.extremal_scan.graphs_per_s.w1":
            summary.total(name, "graphs", n7) / summary.seconds(name, n7),
        "search.extremal_scan.graphs_per_s.w2":
            summary.total(name, "graphs", n8) / pooled,
        "search.extremal_scan.pool_speedup": extras.seconds(name) / pooled,
        "search.extremal_scan.frontier_points":
            sum(len(r.pareto) for r in outputs if hasattr(r, "pareto")),
    }
