"""dense: large-graph kernels.

G(n, 1/2) at n=400 and 1024, each supplied as graph6 and as edge-list text:
decode, ``analyze_report``, encode.  The extremal families
(``theorem1_sharp(400, a)`` over the criterion-3 alphas, ``edwards_generalized``
at n in {192, 384}, ``rademacher_extremal(1024)``): build,
``predicted_vs_actual``, ``to_json_dict``.  The stability split and rewire on
two C5 blow-ups of about 1000 vertices, which are triangle-free and leave
edges inside X.  Then ``booktri.cli.main`` in-process on some of the same
inputs, with files in a scratch directory.  This is where a dense backend or
a single codegree kernel should win.  Work is edges of every graph read or
built.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
import oracle
from ops import Op, Workload, decode

THEOREM1_ALPHAS = [Fraction(k, 100) for k in range(55, 100, 5)]
EDWARDS = [(n, Fraction(k, 100)) for n in (192, 384) for k in (35, 40, 45)]


def _analyze_op(key: str, a: np.ndarray, fmt: str, data) -> Op:
    expect = oracle.analyze_report(a)
    encoded = gen.to_graph6(a).decode("ascii")

    def run(api):
        g = decode(api, fmt, data)
        return api.analyze_report(g), api.to_graph6(g)

    return Op(kind=f"analyze.{key}.{fmt}", work=expect["m"], run=run,
              check=lambda out: out[0] == expect and out[1] == encoded)


def _family_op(kind: str, n: int, alpha: Fraction | None) -> Op:
    def run(api):
        if kind == "theorem1":
            report = api.theorem1_sharp(n, alpha)
        elif kind == "edwards":
            report = api.edwards_generalized(n, alpha)
        else:
            report = api.rademacher_extremal(n)
        return api.predicted_vs_actual(report), api.report_json(report)

    return Op(kind=f"family.{kind}.{n}.{alpha}", work=oracle.family_edges(kind, n), run=run,
              check=lambda out: out[0] is True and oracle.construction_ok(out[1], kind, n, alpha))


def _stability_op(key: str, a: np.ndarray, fmt: str, data) -> Op:
    def run(api):
        g = decode(api, fmt, data)
        report = api.stability_partition(g)
        return report, api.to_graph6(api.bipartize_rewire(g))

    return Op(kind=f"stability.{key}.{fmt}", work=int(a.sum()) // 2, run=run,
              check=lambda out: oracle.stability_ok(a, oracle.stability_fields(out[0]), out[1]))


def _cli_op(kind: str, argv: list[str], outputs: list[Path], check, work: int, ref: int,
            skip=()) -> Op:
    """``ref`` indexes the library op doing the same work; its spans, minus
    ``skip``, are the library chain the CLI's overhead is measured against."""

    def run(api):
        rc = api.cli_main(argv)
        return rc, [p.read_text(encoding="ascii") for p in outputs]

    return Op(kind=f"cli.{kind}.r{ref}", work=work, run=run,
              check=lambda out: out[0] == 0 and check(*out[1]),
              info={"cli": kind, "ref": ref, "skip": skip})


def build(seed: int, workdir: Path, workers: int) -> Workload:
    rng = np.random.default_rng(seed)
    g400, g1024 = gen.gnp(rng, 400, 0.5), gen.gnp(rng, 1024, 0.5)
    # fixed totals, random part sizes: the size sets the memory the run needs
    c5a, c5b = (gen.c5_blowup(rng, 180 + rng.multinomial(total - 900, [0.2] * 5))
                for total in (980, 1020))
    forms = {}
    for key, a in (("g400", g400), ("g1024", g1024), ("c5a", c5a), ("c5b", c5b)):
        forms[key] = (gen.to_graph6(a), gen.to_edge_list_text(a))

    ops = [_analyze_op(key, a, fmt, forms[key][fmt == "el"])
           for key, a in (("g400", g400), ("g1024", g1024)) for fmt in ("g6", "el")]
    ops += [_family_op("theorem1", 400, alpha) for alpha in THEOREM1_ALPHAS]
    ops += [_family_op("edwards", n, alpha) for n, alpha in EDWARDS]
    ops.append(_family_op("rademacher", 1024, None))
    ops.append(_stability_op("c5a", c5a, "g6", forms["c5a"][0]))
    ops.append(_stability_op("c5b", c5b, "el", forms["c5b"][1]))
    index = {op.kind: i for i, op in enumerate(ops)}

    files = {name: workdir / name for name in ("g400.g6", "g400.el", "c5a.g6")}
    files["g400.g6"].write_bytes(forms["g400"][0])
    files["g400.el"].write_text(forms["g400"][1], encoding="ascii")
    files["c5a.g6"].write_bytes(forms["c5a"][0])
    expect400 = oracle.analyze_report(g400)

    def out(name: str) -> Path:
        return workdir / f"cli-{name}"

    for fmt in ("g6", "el"):
        ops.append(_cli_op(
            "analyze", ["analyze", str(files[f"g400.{fmt}"]), "--out", str(out(f"{fmt}.json"))],
            [out(f"{fmt}.json")], lambda text: json.loads(text) == expect400,
            expect400["m"], index[f"analyze.g400.{fmt}"], skip=("codec.to_graph6",)))
    ops.append(_cli_op(
        "stability",
        ["stability", str(files["c5a.g6"]), "--rewire", "--rewire-out", str(out("rw.g6")),
         "--out", str(out("st.json"))],
        [out("st.json"), out("rw.g6")],
        lambda st, rw: oracle.stability_ok(c5a, json.loads(st), rw),
        int(c5a.sum()) // 2, index["stability.c5a.g6"]))
    t1_alpha = THEOREM1_ALPHAS[int(rng.integers(len(THEOREM1_ALPHAS)))]
    ed_n, ed_alpha = EDWARDS[3 + int(rng.integers(3))]  # an n=384 member
    for kind, n, alpha in (("theorem1", 400, t1_alpha), ("edwards", ed_n, ed_alpha)):
        ops.append(_cli_op(
            "construct",
            ["construct", kind, "--n", str(n), "--alpha", str(alpha), "--out",
             str(out(f"{kind}.json"))],
            [out(f"{kind}.json")],
            lambda text, kind=kind, n=n, alpha=alpha:
                oracle.construction_ok(json.loads(text), kind, n, alpha),
            ops[index[f"family.{kind}.{n}.{alpha}"]].work,
            index[f"family.{kind}.{n}.{alpha}"]))

    warm = {
        "g6": forms["g400"][0].decode("ascii"),
        "el": forms["g400"][1],
        "c5": forms["c5a"][0].decode("ascii"),
        "alpha": str(THEOREM1_ALPHAS[0]),
        "edwards": [EDWARDS[0][0], str(EDWARDS[0][1])],
        "cli": ["analyze", str(files["g400.g6"]), "--out", str(out("warm.json"))],
    }
    return Workload(ops=ops, warm=warm)


def warmup(api, warm: dict) -> None:
    """Each call once, on its smallest input in the workload."""
    g = api.from_graph6(warm["g6"].encode("ascii"))
    api.from_edge_list_text(warm["el"])
    api.analyze_report(g)
    api.to_graph6(g)
    api.theorem1_sharp(400, Fraction(warm["alpha"]))
    api.rademacher_extremal(1024)
    n, alpha = warm["edwards"]
    report = api.edwards_generalized(n, Fraction(alpha))
    api.predicted_vs_actual(report)
    api.report_json(report)
    c5 = api.from_graph6(warm["c5"].encode("ascii"))
    api.stability_partition(c5)
    api.bipartize_rewire(c5)
    api.cli_main(warm["cli"])


def layer_metrics(w: Workload, summary, outputs, extras) -> dict:
    overhead: dict[str, list[float]] = {}
    for i, op in enumerate(w.ops):
        if "cli" not in op.info:
            continue
        cli = sum(d for name, d in summary.by_op[f"r.{i}"] if name == "cli.main")
        chain = sum(d for name, d in summary.by_op[f"r.{op.info['ref']}"]
                    if name != "bench.op" and name not in op.info["skip"])
        overhead.setdefault(op.info["cli"], []).append(cli - chain)
    builds = ("constructions.theorem1_sharp", "constructions.edwards_generalized",
              "constructions.rademacher_extremal")
    stab = summary.durations("partition.stability_partition")
    metrics = {
        "analytics.analyze_report.edges_per_s.dense":
            summary.total("analytics.analyze_report", "edges")
            / summary.seconds("analytics.analyze_report"),
        "analytics.share.dense": summary.self_s["analytics"] / summary.round_s,
        "codec.from_graph6.mb_per_s.dense":
            summary.total("codec.from_graph6", "bytes") / 1e6
            / summary.seconds("codec.from_graph6"),
        "codec.to_graph6.mb_per_s.dense":
            summary.total("codec.to_graph6", "bytes") / 1e6
            / summary.seconds("codec.to_graph6"),
        "codec.share.dense": summary.self_s["codec"] / summary.round_s,
        "constructions.build_ms": 1e3 * sum(summary.seconds(b) for b in builds),
        "constructions.predicted_vs_actual_ms":
            1e3 * summary.seconds("constructions.predicted_vs_actual"),
        "constructions.reports": sum(summary.calls(b) for b in builds),
        "partition.stability_partition.ms_per_call.dense": 1e3 * sum(stab) / len(stab),
    }
    for kind, values in overhead.items():
        metrics[f"cli.overhead_ms.{kind}"] = 1e3 * sum(values) / len(values)
    return metrics
