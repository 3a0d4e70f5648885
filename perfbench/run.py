"""Benchmark for booktri: four seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The program is imported from ``src/`` next to
this directory, never from an installed copy; without it the benchmark exits
with code 2.  Workloads (see ``wl_<name>.py``):

  scan    exhaustive scans at n=7 (1 worker) and n=8 (pool of min(2, cpus))
  anneal  capped annealing at (6,10), (12,37), (40,401) plus an alpha sweep
  dense   decode/analyze/encode at n=400 and 1024, the extremal families, the
          stability split on C5 blow-ups, and the CLI on the same inputs
  batch   about 5,000 small graphs through the codec, analytics and partition

An untraced run (``--trace 0``) repeats whole rounds of the workload's
operations until about ``--seconds`` have passed (at least twice), checks
every output against independent oracles after its round, and reports the
end-to-end metrics from each op's median over its repeats.  Times are in
reference seconds, which take the host's changing
speed out (see clock.py); each run's record under ``perfbench/out/`` also
holds the raw wall-clock figures.  A traced run (``--trace 1``) alternates
plain rounds with rounds that put a span around every call into booktri,
writes the last traced round's spans to ``perfbench/out/`` and reports the
per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Metric names and units are those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from clock import REFERENCE_S, Sampler, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("scan", "anneal", "dense", "batch")
LAYERS = ("graph", "codec", "analytics", "constructions", "partition", "search", "cli", "bench")
SETUP_PROBES = 5


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception(exc)).rstrip()


class Round:
    """One pass over a workload's ops: raw per-op wall times, the same in
    reference seconds (see clock.py), and the outputs until checked."""

    def __init__(self, wall: float, outputs: list, latencies: list[float], norm: list[float]):
        self.wall = wall
        self.outputs = outputs
        self.latencies = latencies
        self.norm = norm


def run_round(ops, api, tracer=None, tag="") -> Round:
    outputs, latencies = [], []
    sampler = Sampler()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        sampler.before(i)
        if tracer:
            tracer.op = f"{tag}{i}"
            span = tracer.begin("bench.op")
        start = time.perf_counter()
        try:
            out = op.run(api)
        except Exception as exc:  # a failed op is counted, not fatal
            out = Raised(exc)
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.end(span)
        outputs.append(out)
    sampler.finish(len(ops))
    wall = time.perf_counter() - t0
    if tracer:
        tracer.op = None
    return Round(wall, outputs, latencies, sampler.normalize(latencies))


class Tally:
    """Checks each round's outputs as soon as the round ends, outside the
    timed region, so outputs never pile up across rounds.  An op fails if it
    raised or its output fails the op's check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_ops: set[int] = set()

    def add(self, ops, rnd: Round) -> None:
        for i, (op, out) in enumerate(zip(ops, rnd.outputs)):
            self.attempted += 1
            if not self._ok(op, out):
                self.failed += 1
                self.failed_ops.add(i)

    @staticmethod
    def _ok(op, out) -> bool:
        if isinstance(out, Raised):
            print(f"op {op.kind} raised:\n{out.text}", file=sys.stderr)
            return False
        try:
            ok = bool(op.check(out))
        except Exception:
            print(f"check of {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return False
        if not ok:
            print(f"op {op.kind}: output failed its check", file=sys.stderr)
        return ok


def repeat_rounds(seconds: float, *runners) -> list[list[Round]]:
    """Whole rounds from each runner in turn, until about ``seconds`` of
    rounds have run (stopping at the boundary nearest to it), at least twice."""
    rounds = [[] for _ in runners]
    spent = 0.0
    while len(rounds[0]) < 2 or spent + last / 2 < seconds:
        last = 0.0
        for runner, done in zip(runners, rounds):
            gc.collect()
            done.append(runner())
            last += done[-1].wall
        spent += last
    return rounds


def scales(rnd: Round, tag: str) -> dict[str, float]:
    """Op id -> factor from that op's wall seconds to reference seconds."""
    return {f"{tag}{i}": n / t for i, (t, n) in enumerate(zip(rnd.latencies, rnd.norm)) if t}


def typical(rounds: list[Round], raw: bool = False) -> list[float]:
    """Each op's median over its repeats, in reference seconds (or raw)."""
    return [statistics.median(ts) for ts in
            zip(*(r.latencies if raw else r.norm for r in rounds))]


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def environment(workers: int) -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind, size = (_read(base + f) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    head = _read(str(ROOT / ".git" / "HEAD"))
    sha = "unknown"
    if head and head.startswith("ref:"):
        sha = (_read(str(ROOT / ".git" / head.split()[1])) or "unknown").strip()
    elif head:
        sha = head.strip()
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "scan_workers": workers,
    }


def scan_workers() -> int:
    """Pool size for the n=8 scans; never more than the CPUs available."""
    return min(2, os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def measure_setup(workload: str, warm_path: Path) -> list[tuple[float, float]]:
    """Fresh interpreter to ready: import booktri and warm up every function
    the workload calls, once each on its smallest input (loading that input is
    subtracted).  Returns (wall seconds, reference seconds) per probe; the
    host's speed is the median of reference samples taken around the probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        speeds = [reference() for _ in range(3)]
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-probe", str(warm_path)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = probe["ready"] - t0 - probe["load_s"]
        speeds += [reference() for _ in range(3)]
        samples.append((raw, raw * REFERENCE_S / statistics.median(speeds)))
    return samples


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def emit(metrics: dict, units: dict, tally: Tally, extra: dict, stem: str) -> None:
    """Print every metric by name with its unit, keep the run's record under
    out/, and end with the one-line JSON result."""
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print("env " + json.dumps(extra["env"], sort_keys=True))
    with open(OUT / f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump({**extra, "result": result}, fh, indent=2)
    print(json.dumps(result))


def run_workload(args, bt, cli, wl) -> int:
    import numpy as np

    from tracing import Api, Summary, Tracer, common_metrics

    spec = load_spec()
    workers = scan_workers()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = wl.build(args.seed, workdir, workers)
        warm_path = workdir / "warm.json"
        warm_path.write_text(json.dumps(w.warm), encoding="ascii")
        setup = [] if args.trace else measure_setup(args.workload, warm_path)
        api = Api(bt, cli)
        wl.warmup(api, w.warm)
        gc.collect()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = {"env": environment(workers), "workload": args.workload,
                 "seed": args.seed, "seconds": args.seconds}

        tally = Tally()

        def plain_round() -> Round:
            rnd = run_round(w.ops, api)
            tally.add(w.ops, rnd)
            rnd.outputs = None
            return rnd

        if not args.trace:
            (rounds,) = repeat_rounds(args.seconds, plain_round)
            rss = peak_rss_mb()
            work = sum(op.work for i, op in enumerate(w.ops) if i not in tally.failed_ops)

            def timing(lat: list[float]) -> dict:
                return {
                    "work_per_s": work / sum(lat),
                    "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
                    "op_p99_ms": 1e3 * float(np.percentile(lat, 99)),
                }

            norm = typical(rounds)
            metrics = {
                **timing(norm),
                "setup_s": statistics.median(s for _, s in setup),
                "peak_rss_mb": rss,
                "ops_ok_ratio": 1 - tally.failed / tally.attempted,
            }
            wall = {**timing(typical(rounds, raw=True)),
                    "setup_s": statistics.median(s for s, _ in setup)}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            print(f"op latency samples = {len(w.ops)} ops x {len(rounds)} repeats; "
                  f"ops_failed_ratio = {tally.failed / tally.attempted:.6g}")
            print("wall-clock " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
            extra.update(rounds=[r.wall for r in rounds], setup_samples=setup,
                         wall_clock_metrics=wall,
                         op_ms={op.kind: 1e3 * t for op, t in zip(w.ops, norm)})
            emit(metrics, units, tally, extra, stem)
            return 0

        # Plain and traced rounds alternate, so the overhead ratio compares
        # like with like; per-layer figures come from the last traced round.
        last = {}

        def traced_round() -> Round:
            last.clear()
            last["tracer"] = tracer = Tracer()
            rnd = run_round(w.ops, Api(bt, cli, tracer), tracer, tag="r.")
            tally.add(w.ops, rnd)
            last["outputs"], rnd.outputs = rnd.outputs, None
            return rnd

        plain, traced = repeat_rounds(args.seconds, plain_round, traced_round)
        tracer = last["tracer"]
        summary = Summary(tracer.spans, scales(traced[-1], "r."))
        extras = Summary([])
        if w.extras:
            first = len(tracer.spans)
            rnd = run_round(w.extras, Api(bt, cli, tracer), tracer, tag="x.")
            tally.add(w.extras, rnd)
            extras = Summary(tracer.spans[first:], scales(rnd, "x."))
        tracer.write(OUT / f"{stem}.spans.jsonl")

        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = dict.fromkeys(units, 0.0)
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = 1e3 * summary.self_s[layer]
        metrics["bench.trace_overhead_ratio"] = sum(typical(traced)) / sum(typical(plain))
        metrics["bench.ops_per_round"] = len(w.ops)
        metrics.update(common_metrics(summary))
        layer = wl.layer_metrics(w, summary, last["outputs"], extras)
        unknown = set(layer) - set(units)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        metrics.update(layer)
        extra.update(rounds=[r.wall for r in plain], traced_rounds=[r.wall for r in traced])
        emit(metrics, units, tally, extra, stem)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_probe(args, bt, cli, wl) -> int:
    """The child side of measure_setup."""
    from tracing import Api

    t0 = time.perf_counter()
    with open(args.setup_probe, encoding="ascii") as fh:
        warm = json.load(fh)
    load_s = time.perf_counter() - t0
    wl.warmup(Api(bt, cli), warm)
    print(json.dumps({"ready": time.time(), "load_s": load_s}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table and one JSON line."""
    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric in spec[section]:
            entry = result["metrics"][metric["name"]]
            combined["metrics"][f"{name}.{metric['name']}"] = entry
            rows.append((name, metric["name"], entry["value"], entry["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:7s} {metric:52s} {value:14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "booktri" / "__init__.py").is_file():
        print(f"error: booktri source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import booktri
    import booktri.cli

    wl = importlib.import_module(f"wl_{args.workload}")
    if args.setup_probe:
        return setup_probe(args, booktri, booktri.cli, wl)
    OUT.mkdir(exist_ok=True)
    return run_workload(args, booktri, booktri.cli, wl)


if __name__ == "__main__":
    sys.exit(main())
