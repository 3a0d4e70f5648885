"""Spans around every call the benchmark makes into booktri.

Workloads reach the program only through an ``Api``.  Untraced, each of its
attributes is the library function itself, so untraced runs pay nothing.
Traced, each is wrapped in a span named ``<layer>.<function>``, where the
layer is the booktri module that defines the function.  Spans stay in memory
until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Api attribute -> dotted path under booktri ("cli.main" is the CLI entry).
FUNCTIONS = {
    "from_graph6": "from_graph6",
    "to_graph6": "to_graph6",
    "from_edge_list_text": "from_edge_list_text",
    "from_edge_list": "from_edge_list",
    "analyze_report": "analyze_report",
    "theorem1_sharp": "theorem1_sharp",
    "edwards_generalized": "edwards_generalized",
    "rademacher_extremal": "rademacher_extremal",
    "predicted_vs_actual": "predicted_vs_actual",
    "report_json": "ConstructionReport.to_json_dict",
    "stability_partition": "stability_partition",
    "bipartize_rewire": "bipartize_rewire",
    "local_max_cut": "local_max_cut",
    "extremal_scan": "extremal_scan",
    "AnnealParams": "AnnealParams",
    "anneal_min_triangles": "anneal_min_triangles",
    "alpha_sweep": "alpha_sweep",
    "cli_main": "cli.main",
}


def _attrs(name: str, args, kwargs, result) -> dict:
    """Counts a span carries, read off its arguments and result."""
    if name == "codec.from_graph6":
        return {"bytes": len(args[0]), "edges": result.m}
    if name == "codec.from_edge_list_text":
        return {"bytes": len(args[0]), "lines": args[0].count("\n"), "edges": result.m}
    if name == "codec.to_graph6":
        return {"bytes": len(result), "edges": args[0].m}
    if name == "graph.from_edge_list":
        return {"edges": result.m}
    if name.startswith(("analytics.", "partition.")):
        return {"edges": args[0].m}
    if name == "search.extremal_scan":
        return {"n": args[0], "graphs": result.scanned, "workers": kwargs.get("threads", 1)}
    if name == "search.anneal_min_triangles":
        return {"n": args[0], "proposals": result.scanned - 1}
    if name == "search.alpha_sweep":
        return {"alphas": len(result)}
    if name == "cli.main":
        return {"command": args[0][0]}
    return {}


class Tracer:
    """In-memory span recorder.  A span is [id, name, start, end, parent, op,
    attrs]; spans of one benchmark operation share ``op``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = None

    def begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self.op, {}]
        self.spans.append(span)
        self._open.append(span[0])
        span[2] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            span[6] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, t0, t1, parent, op, attrs in self.spans:
                row = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "op": op, **attrs}
                fh.write(json.dumps(row) + "\n")


class Api:
    """The benchmark's only door into booktri (methods take the instance as
    their first argument)."""

    def __init__(self, bt, cli, tracer: Tracer | None = None):
        for attr, path in FUNCTIONS.items():
            owner, _, leaf = path.rpartition(".")
            fn = cli.main if owner == "cli" else getattr(getattr(bt, owner) if owner else bt, leaf)
            if tracer is not None:
                fn = tracer.wrap(f"{fn.__module__.rpartition('.')[2]}.{leaf}", fn)
            setattr(self, attr, fn)


class Summary:
    """Totals over finished spans.  A layer's self time is the time its spans
    cover minus the time their child spans cover.  ``scale`` maps an op id to
    the factor that turns its wall seconds into reference seconds."""

    def __init__(self, spans, scale: dict | None = None):
        scale = scale or {}
        dur = {sid: (t1 - t0) * scale.get(op, 1.0) for sid, _, t0, t1, _, op, _ in spans}
        child = defaultdict(float)
        for sid, _, _, _, parent, _, _ in spans:
            if parent is not None:
                child[parent] += dur[sid]
        self.self_s = defaultdict(float)
        self.by_name = defaultdict(list)
        self.by_op = defaultdict(list)
        for sid, name, _, _, _, op, attrs in spans:
            self.self_s[name.partition(".")[0]] += dur[sid] - child[sid]
            self.by_name[name].append((dur[sid], attrs))
            self.by_op[op].append((name, dur[sid]))
        # time inside the ops (the reference samples between them excluded)
        self.round_s = self.seconds("bench.op")

    def seconds(self, name: str, where=None) -> float:
        return sum(d for d, a in self.by_name[name] if where is None or where(a))

    def total(self, name: str, key: str, where=None) -> int:
        return sum(a.get(key, 0) for _, a in self.by_name[name] if where is None or where(a))

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def durations(self, name: str) -> list[float]:
        return [d for d, _ in self.by_name[name]]


def common_metrics(s: Summary) -> dict:
    """Per-layer metrics every workload reports (0 where it has no such call)."""

    def rate(name: str, key: str) -> float:
        seconds = s.seconds(name)
        return s.total(name, key) / seconds if seconds else 0.0

    analytics = [n for n in s.by_name if n.startswith("analytics.")]
    return {
        "analytics.edges_visited": sum(s.total(n, "edges") for n in analytics),
        "codec.from_edge_list_text.lines_per_s": rate("codec.from_edge_list_text", "lines"),
        "codec.bytes_decoded": s.total("codec.from_graph6", "bytes")
        + s.total("codec.from_edge_list_text", "bytes"),
        "codec.bytes_encoded": s.total("codec.to_graph6", "bytes"),
        "graph.from_edge_list.edges_per_s": rate("graph.from_edge_list", "edges"),
    }
