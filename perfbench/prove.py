"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/prove.py --workloads scan,batch --seeds 1-10
    python3 perfbench/prove.py --seeds 1-10 --holdout 1001 --write perfbench/baseline.json

Runs are sequential (never in parallel, which would perturb the timings),
each exactly as the benchmark command runs it.  For every end-to-end metric it
prints the median and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to a third of the metric's bound from BENCHMARK.json.  ``--holdout``
adds one run per workload on an unseen seed; ``--write`` stores everything as
the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--holdout", type=int, default=None)
    p.add_argument("--write", default=None)
    args = p.parse_args()

    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s, "
                  f"correct={runs[-1]['correct']}", flush=True)
        stats = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "values": values}
            flag = "" if spread < metric["bound"] / 3 or name == "setup_s" else "  WIDE"
            print(f"  {name:14s} median {med:14.6g}  spread {spread:7.4f}  "
                  f"(bound/3 {metric['bound'] / 3:.4f}){flag}")
        record["workloads"][workload] = {
            "metrics": stats,
            "all_correct": all(r["correct"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
        }
        if args.holdout is not None:
            held = run_once(workload, args.holdout, seconds, 0)
            record["workloads"][workload]["holdout"] = {
                "seed": args.holdout,
                "metrics": {k: v["value"] for k, v in held["metrics"].items()},
            }
            print(f"  holdout seed {args.holdout}: work_per_s "
                  f"{held['metrics']['work_per_s']['value']:.6g}")
    if args.write:
        out = json.loads((HERE / "out" / f"{args.workloads.split(',')[0]}-seed"
                          f"{args.seeds[-1]}-trace0.json").read_text(encoding="ascii"))
        record["env"] = out["env"]
        Path(args.write).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
