import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import booktri as bt
from booktri import cli
from booktri.cli import main
from booktri.constructions import FAMILIES
from conftest import anneal_reference, complete, cycle, edge_list_like, graph6_like


@pytest.fixture()
def graph_files(tmp_path):
    files = {}
    for name, g in {
        "K5": complete(5),
        "C5": cycle(5),
        "K3": complete(3),
        "K44": bt.complete_bipartite(4, 4),
    }.items():
        p = tmp_path / f"{name}.g6"
        p.write_text(bt.to_graph6(g))
        files[name] = str(p)
    bad = tmp_path / "corrupt.g6"
    bad.write_text("D?")
    files["corrupt"] = str(bad)
    el = tmp_path / "tri.el"
    el.write_text("# n 4\n0 1\n1 2\n0 2\n")
    files["tri_el"] = str(el)
    return files


def test_analyze_k5(graph_files, capsys):
    assert main(["analyze", graph_files["K5"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["t"] == 10 and report["b"] == 3
    assert report == bt.analyze_report(complete(5))


def test_analyze_edge_list(graph_files, capsys):
    assert main(["analyze", graph_files["tri_el"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 4 and report["t"] == 1


def test_analyze_rademacher_file(tmp_path, capsys):
    p = tmp_path / "rad10.g6"
    p.write_text(bt.to_graph6(bt.rademacher_extremal(10).graph))
    assert main(["analyze", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["t"] == 5 and report["b"] == 5


def test_analyze_corrupt_exits_2(graph_files, capsys):
    assert main(["analyze", graph_files["corrupt"]]) == 2
    assert "byte" in capsys.readouterr().err


def test_analyze_non_ascii_edge_list_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.el"
    p.write_bytes(b"# n 4\n0 1\n1 \xe9\n")
    assert main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err == "parse error: line 3: non-ASCII byte 0xe9\n"


@pytest.mark.parametrize("text,count", [("# n -3\n", -3), ("# n 2000\n0 3000\n", 2000)])
def test_analyze_edge_list_bad_count_exits_1(tmp_path, capsys, text, count):
    """A header count outside 1..1024 is refused as a count, whatever the
    edges, never as a vertex outside it."""
    p = tmp_path / "bad.el"
    p.write_text(text)
    assert main(["analyze", str(p)]) == 1
    assert capsys.readouterr().err == f"error: vertex count {count} outside 1..1024\n"


@pytest.mark.parametrize("name", ["dir.g6", "missing.g6", "file.el/inner.el"])
def test_analyze_unreadable_path_exits_1(tmp_path, capsys, name):
    (tmp_path / "dir.g6").mkdir()
    (tmp_path / "file.el").write_text("0 1\n")
    assert main(["analyze", str(tmp_path / name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# each command with the output flag under test and the library call that does
# its work (for construct, the builder in its family table row); "@in.g6" is a
# triangle-free input
_OUT_COMMANDS = [
    (["analyze", "@in.g6", "--out"], "analyze_report"),
    (["construct", "rademacher", "--n", "10", "--out"], "rademacher_extremal"),
    (["construct", "theorem1", "--n", "40", "--alpha", "7/10", "--graph-out"], "theorem1_sharp"),
    (["frontier", "--n", "12", "--e", "37", "--mode", "anneal", "--book-cap", "12",
      "--seed", "1", "--budget", "300000", "--out"], "anneal_min_triangles"),
    (["frontier", "--n", "6", "--e", "10", "--mode", "exhaustive", "--out"], "extremal_scan"),
    (["sweep", "--n", "40", "--alphas", "7/10", "--seed", "1", "--out"], "alpha_sweep"),
    (["stability", "@in.g6", "--out"], "stability_partition"),
    (["stability", "@in.g6", "--rewire", "--rewire-out"], "stability_partition"),
]


@pytest.mark.parametrize("target", [
    "missing/out.json",
    "dir",
    "file.el/out.json",
    pytest.param("locked/out.json", marks=pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0, reason="root may write anywhere")),
])
@pytest.mark.parametrize("argv,worker", [
    pytest.param(argv, worker, id=worker + argv[-1]) for argv, worker in _OUT_COMMANDS
])
def test_bad_output_path_exits_before_work(tmp_path, capsys, monkeypatch, argv, worker, target):
    """An output path that cannot be written ends the command with open()'s
    own one-line error before the work starts, and creates nothing."""
    def worker_ran(*args, **kwargs):
        raise AssertionError(f"{worker} ran before its output path was checked")

    if argv[0] == "construct":
        monkeypatch.setitem(FAMILIES, argv[1], (worker_ran, FAMILIES[argv[1]][1]))
    else:
        monkeypatch.setattr(cli, worker, worker_ran)
    (tmp_path / "in.g6").write_text(bt.to_graph6(cycle(5)))
    (tmp_path / "dir").mkdir()
    (tmp_path / "file.el").write_text("0 1\n")
    (tmp_path / "locked").mkdir(mode=0o500)
    before = sorted(tmp_path.rglob("*"))
    path = str(tmp_path / target)
    with pytest.raises(OSError) as late:
        open(path, "w")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert main(argv + [path]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {late.value}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_command_leaves_output_paths_alone(tmp_path, capsys):
    """A command that fails after its output paths pass the check neither
    creates a new output file nor truncates an existing one."""
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for out in (new, old):
        argv = ["frontier", "--n", "6", "--e", "10", "--mode", "anneal", "--book-cap", "0",
                "--seed", "1", "--out", str(out)]
        assert main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
    triangle = tmp_path / "k3.g6"
    triangle.write_text(bt.to_graph6(complete(3)))
    argv = ["stability", str(triangle), "--rewire", "--rewire-out", str(new), "--out", str(old)]
    assert main(argv) == cli.EXIT_HYPOTHESIS
    assert not new.exists() and old.read_text() == "kept\n"


@pytest.mark.parametrize(
    "exc,code,prefix",
    [
        (bt.GraphSizeError("n"), 1, "error"),
        (bt.ParameterError("p"), 1, "error"),
        (bt.Graph6ParseError("g", 3), 2, "parse error"),
        (bt.EdgeListParseError("l", 4), 2, "parse error"),
        (bt.LoopError("loop"), 2, "parse error"),
        (bt.NotTriangleFreeError((0, 1, 2)), 3, "hypothesis violation"),
        (bt.ExplosionGuardError("x"), 4, "guard"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_error_exit_code_mapping(monkeypatch, capsys, exc, code, prefix):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_analyze", fail)
    assert exc.exit_code == code
    assert main(["analyze", "any.g6"]) == code
    assert capsys.readouterr().err == f"{prefix}: {exc}\n"


def test_g6_read_is_bounded(tmp_path, capsys):
    """The longest .g6 a 1024-vertex graph needs (header, string, CRLF) is
    read; one byte more is refused before it is parsed."""
    longest = b">>graph6<<" + bt.to_graph6(cycle(1024)).encode("ascii") + b"\r\n"
    assert len(longest) == cli._G6_LIMIT == 87_312
    fits, over = tmp_path / "fits.g6", tmp_path / "over.g6"
    fits.write_bytes(longest)
    over.write_bytes(longest + b"\n")
    assert main(["analyze", str(fits)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["n"], report["m"]) == (1024, 1024)
    for command in (["analyze"], ["stability"]):
        assert main(command + [str(over)]) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1
        assert err.startswith("parse error: ") and "87312 bytes" in err


def test_el_read_is_bounded(tmp_path, capsys):
    """An edge list of every pair at n = 1024, padded with a comment to the
    limit, is read; one byte more is refused before it is parsed."""
    lines = [f"{u} {v}\r\n" for u in range(1024) for v in range(u + 1, 1024)]
    body = "# n 1024\r\n" + "".join(lines)
    assert cli._EL_LIMIT == len("# n 1024\r\n") + len(lines) * len("1023 1022\r\n") == 5_761_546
    longest = (body + "#" * (cli._EL_LIMIT - len(body) - 2) + "\r\n").encode("ascii")
    assert len(longest) == cli._EL_LIMIT
    fits, over = tmp_path / "fits.el", tmp_path / "over.el"
    fits.write_bytes(longest)
    over.write_bytes(longest + b"\n")
    assert main(["analyze", str(fits)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["n"], report["m"]) == (1024, len(lines))
    for command in (["analyze"], ["stability"]):
        assert main(command + [str(over)]) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1
        assert err.startswith("parse error: ") and "5761546 bytes" in err


_EXIT_CODES = (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_PARSE, cli.EXIT_HYPOTHESIS, cli.EXIT_GUARD)


def _as_bytes(text) -> bytes:
    return text if isinstance(text, bytes) else text.encode("latin-1")


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        st.tuples(st.just("el"), st.one_of(edge_list_like().map(_as_bytes), st.binary(max_size=40))),
        st.tuples(st.just("g6"), st.one_of(graph6_like(), st.binary(max_size=24))),
    ),
    st.sampled_from(["json", "csv"]),
)
def test_analyze_fuzzed_file_exit_codes(tmp_path, capsys, file, fmt):
    """A fuzzed .el or .g6 file ends with a documented exit code and, on
    failure, exactly one labelled stderr line and no traceback, whether it
    is analyzed or split (with and without the rewire)."""
    ext, data = file
    path = tmp_path / f"fuzz.{ext}"
    path.write_bytes(data)
    for command in (["analyze"], ["stability"], ["stability", "--rewire"]):
        code = main(command + [str(path), "--format", fmt])
        out, err = capsys.readouterr()
        assert code in _EXIT_CODES, command
        if code == cli.EXIT_OK:
            assert out and not err, command
        else:
            assert err.startswith(f"{cli._LABELS[code]}: ") and err.count("\n") == 1, command
            assert "Traceback" not in err


_ALPHAS = ["2/5", "7/10", "1/2", "0.5", "1/0", "-3/5", "", "7/20,3/5"]


def _flag(name, values):
    """--name with one drawn value, or (one time in four) no --name at all."""
    given_flag = values.map(lambda v: [f"--{name}", str(v)])
    return st.integers(0, 3).flatmap(lambda k: given_flag if k else st.just([]))


# --init files for the (6, 10) anneal under --book-cap 3, as "@name" stand-ins
# for paths in a temporary directory: E}lG is a feasible start (b=2), E}ow
# breaks the cap (b=3), then a graph on 7 vertices, one with 9 edges, and an
# unknown extension
_INIT_FILES = {
    "start.g6": "E}lG",
    "over_cap.g6": "E}ow",
    "wrong_n.g6": bt.to_graph6(bt.rademacher_extremal(7).graph),
    "wrong_m.el": "# n 6\n" + "".join(f"{u} {v}\n" for u, v in bt.complete_bipartite(3, 3).edges()),
    "init.txt": "E}lG",
}
_INITS = ["@" + name for name in _INIT_FILES] + ["@missing.g6", "@dir.g6"]
# "@dir.g6" is a directory, and "@missing.g6" has no file
_OUTS = ["@out.txt", "@dir.g6", "@missing/out.txt"]


@st.composite
def _search_argv(draw):
    """construct, frontier or sweep with valid and invalid flag values; n of
    10**9 and more must be refused before anything of that size is built.
    The anneal branch fuzzes the start, temperature and output flags of a
    (6, 10) run, where a feasible --init exists."""
    command = draw(st.sampled_from(["construct", "frontier", "sweep", "anneal"]))
    n = draw(st.sampled_from([-1, 0, 1, 3, 6, 12, 24, 40, 1025, 10**9, 10**10]))
    alpha = _flag("alpha", st.sampled_from(_ALPHAS))
    seed = _flag("seed", st.sampled_from([-1, 0, 1, 7, 2**64 - 1, 2**64]))
    budget = _flag("budget", st.integers(-1, 200))
    out = draw(_flag("out", st.sampled_from(_OUTS)))  # no flag: stdout
    if command == "construct":
        kind = draw(st.sampled_from(["rademacher", "theorem1", "edwards"]))
        return ["construct", kind, "--n", str(n)] + draw(alpha) + out
    if command == "sweep":
        alphas = draw(st.sampled_from(_ALPHAS))
        return ["sweep", "--n", str(n), f"--alphas={alphas}"] + draw(seed) + draw(budget) + out
    if command == "anneal":
        return (
            ["frontier", "--n", "6", "--e", "10", "--mode", "anneal", "--book-cap", "3"]
            + ["--seed", "1", "--budget", "50"]
            + draw(_flag("t0", st.sampled_from(["2.0", "0", "-1", "nan", "inf", "1e-300"])))
            + draw(_flag("decay", st.sampled_from(["0.9995", "0.5", "0", "1", "-0.1", "nan"])))
            + draw(_flag("init", st.sampled_from(_INITS)))
            + out
        )
    mode = draw(st.sampled_from(["exhaustive", "anneal"]))
    e = draw(st.sampled_from([-1, 0, 1, 7, 10, 37, 145, 401]))
    return (
        ["frontier", "--n", str(n), "--e", str(e), "--mode", mode]
        + draw(seed)
        + draw(_flag("book-cap", st.integers(-2, 12)))
        + draw(budget)
        + out
    )


@pytest.fixture()
def search_files(tmp_path):
    """The directory that "@name" arguments point into."""
    for name, text in _INIT_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "dir.g6").mkdir()
    return tmp_path


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_search_argv(), st.sampled_from(["json", "csv"]))
# each of these once allocated without bound, or spent 37 s before refusing
@example(["frontier", "--mode", "anneal", "--n", "1000000000", "--e", "1",
          "--book-cap", "5", "--seed", "1"], "json")
@example(["construct", "edwards", "--n", "10000000000", "--alpha", "2/5"], "json")
@example(["sweep", "--n", "10000000000", "--alphas=7/20,3/5", "--seed", "1"], "csv")
@example(["frontier", "--n", "400", "--e", "40001", "--mode", "anneal",
          "--book-cap", "0", "--seed", "1"], "json")
@example(["frontier", "--n", "6", "--e", "10", "--mode", "anneal", "--book-cap", "3",
          "--seed", "1", "--budget", "50", "--init", "@start.g6", "--out", "@out.txt"], "json")
@example(["frontier", "--n", "6", "--e", "10", "--mode", "anneal", "--book-cap", "3",
          "--seed", "1", "--init", "@over_cap.g6", "--t0", "nan"], "csv")
@example(["frontier", "--n", "6", "--e", "10", "--mode", "anneal", "--book-cap", "3",
          "--seed", "1", "--init", "@init.txt", "--out", "@dir.g6"], "json")
@example(["sweep", "--n", "40", "--alphas=7/20", "--seed", "1", "--out", "@missing/out.txt"], "csv")
# these once exited 0: only an alpha with an annealing run checked them
@example(["sweep", "--n", "40", "--alphas=2/5", "--seed", "1", "--budget", "0"], "csv")
@example(["sweep", "--n", "40", "--alphas=2/5", "--seed", "-1"], "json")
def test_search_fuzzed_flags_exit_codes(search_files, capsys, argv, fmt):
    """Fuzzed construct/frontier/sweep flags end, in process, with a
    documented exit code; a failure prints one labelled line (after
    argparse's usage block, if any) and no traceback.  A sweep over fewer
    than one vertex, or with a seed outside 0..2^64-1 or a budget below 1,
    never succeeds, whatever its alphas."""
    result = search_files / "out.txt"
    result.unlink(missing_ok=True)
    argv = [str(search_files / a[1:]) if a.startswith("@") else a for a in argv]
    code = main(argv + ["--format", fmt])
    out, err = capsys.readouterr()
    assert code in _EXIT_CODES
    assert "Traceback" not in err
    if argv[0] == "sweep":
        knobs = dict(zip(argv[4::2], argv[5::2]))  # the flags after --alphas=
        bad_seed = not 0 <= int(knobs.get("--seed", 0)) < 2**64
        if int(argv[2]) < 1 or bad_seed or int(knobs.get("--budget", 1)) < 1:
            assert code != cli.EXIT_OK
    if code == cli.EXIT_OK:
        assert out or result.read_text()
    else:
        usage, _, last = err.rstrip("\n").rpartition("\n")
        assert last.startswith(f"{cli._LABELS[code]}: ")
        assert not usage or usage.startswith("usage: ")


@pytest.mark.parametrize("n", ["-1", "0"])
def test_sweep_rejects_nonpositive_n(capsys, n):
    argv = ["sweep", "--n", n, "--alphas", "7/10,2/5", "--seed", "1", "--format", "csv"]
    assert main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: vertex count {n} outside 1..1024\n"


def test_analyze_unknown_extension(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("whatever")
    assert main(["analyze", str(p)]) == 1


def test_construct_theorem1(capsys):
    assert main(["construct", "theorem1", "--n", "20", "--alpha", "7/10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["measured_t"] == 30 and report["measured_b"] == 6
    assert report["e"] == 101


def test_construct_rademacher(capsys):
    assert main(["construct", "rademacher", "--n", "12"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["predicted_t"] == 6 and report["predicted_b"] == 6
    assert report["measured_t"] == 6 and report["measured_b"] == 6


def test_construct_self_check_failure_exits_3(monkeypatch, capsys):
    good = bt.rademacher_extremal(12)
    bad = dataclasses.replace(good, predicted_b=good.predicted_b + 1)
    monkeypatch.setitem(FAMILIES, "rademacher", (lambda n: bad, False))
    assert main(["construct", "rademacher", "--n", "12"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["measured_b"] == good.predicted_b
    assert captured.err == "self-check failed: predictions disagree with measurements\n"


def test_construct_edwards_param_error(capsys):
    assert main(["construct", "edwards", "--n", "10", "--alpha", "2/5"]) == 1
    assert "error" in capsys.readouterr().err


def test_construct_requires_alpha(capsys):
    """The families that take alpha refuse to run without it, with one exact
    line (rademacher takes none: test_construct_rademacher runs it bare)."""
    for kind, n in (("theorem1", "20"), ("edwards", "48")):
        assert main(["construct", kind, "--n", n]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: construct {kind} requires --alpha p/q\n")


def test_construct_usage_lists_the_family_table(capsys):
    with pytest.raises(SystemExit) as done:
        main(["construct", "--help"])
    assert done.value.code == 0
    # argparse wraps the usage, so read its whole block up to the blank line
    usage = capsys.readouterr().out.partition("\n\n")[0]
    assert usage.startswith("usage: booktri construct ")
    assert "{rademacher,theorem1,edwards}" in usage


def test_a_new_table_row_reaches_construct_and_sweep(monkeypatch, capsys):
    """One row added to the family table is a construct kind and a sweep
    source with no other edit.  At (40, 1/2) no real family fits the cap of
    10; the new row's report, the tripartite graph at alpha 2/5 (b = 7),
    does, and its builder's name is the sweep's source."""
    def prism_at_two_fifths(n, alpha):
        return bt.edwards_generalized(n, "2/5")

    assert bt.alpha_sweep(40, ["1/2"], seed=1)[0].source == "none"
    monkeypatch.setitem(FAMILIES, "prism", (prism_at_two_fifths, True))
    assert main(["construct", "prism", "--n", "40", "--alpha", "1/2"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["kind"], report["alpha"], report["measured_b"]) == ("edwards", "2/5", 7)
    (entry,) = bt.alpha_sweep(40, ["1/2"], seed=1)
    assert (entry.source, entry.b_cap, entry.best_t) == ("prism_at_two_fifths", 10, 588)


def test_construct_rejects_decimal_alpha(capsys):
    assert main(["construct", "theorem1", "--n", "20", "--alpha", "0.7"]) == 1


def test_construct_graph_out(tmp_path, capsys):
    g6_path = tmp_path / "out.g6"
    assert main([
        "construct", "edwards", "--n", "48", "--alpha", "2/5",
        "--graph-out", str(g6_path), "--out", str(tmp_path / "rep.json"),
    ]) == 0
    g = bt.from_graph6(g6_path.read_text().strip())
    assert g.n == 48
    report = json.loads((tmp_path / "rep.json").read_text())
    assert g6_path.read_bytes() == (report["graph6"] + "\n").encode("ascii")


def test_frontier_exhaustive(tmp_path, capsys):
    out = tmp_path / "rec.json"
    assert main(["frontier", "--n", "6", "--e", "10", "--mode", "exhaustive",
                 "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["min_t"] == 3 and record["min_b"] == 2
    summary = capsys.readouterr().err
    assert "n=6 e=10 min_t=3 min_b=2" in summary


def test_frontier_guard_exits_4(capsys):
    assert main(["frontier", "--n", "9", "--e", "21", "--mode", "exhaustive"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("guard: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["-1", "0"])
def test_frontier_exhaustive_rejects_nonpositive_n(n, capsys):
    assert main(["frontier", "--n", n, "--e", "0", "--mode", "exhaustive"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_frontier_anneal_requires_seed(capsys):
    assert main(["frontier", "--n", "6", "--e", "10", "--mode", "anneal",
                 "--book-cap", "7"]) == 1


def test_frontier_anneal_empty_class_rejected(capsys):
    # every 30-vertex graph with 226 edges has a book of at least 6, so the
    # cap b < 6 leaves nothing to walk on; the run must refuse, not hang
    assert main(["frontier", "--n", "30", "--e", "226", "--mode", "anneal",
                 "--book-cap", "6", "--seed", "1", "--budget", "100"]) == 1
    assert "no feasible random start" in capsys.readouterr().err


@pytest.mark.parametrize("t0", ["0", "-1", "nan", "inf"])
def test_frontier_anneal_rejects_bad_t0(t0, capsys):
    # t0 = 0 used to divide by zero at the first uphill move, and t0 < 0
    # accepted every feasible uphill move
    assert main(["frontier", "--n", "6", "--e", "10", "--mode", "anneal",
                 "--book-cap", "7", "--seed", "1", "--t0", t0, "--budget", "50"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: t0 ") and err.count("\n") == 1


def test_frontier_anneal_rejects_cap_below_one(capsys):
    # no graph has a largest book below 0, so cap 0 leaves an empty class;
    # it is refused at once rather than after 200 random starts
    assert main(["frontier", "--n", "6", "--e", "10", "--mode", "anneal",
                 "--book-cap", "0", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: book cap must be >= 1, got 0\n"


def test_frontier_anneal_temperature_underflow(tmp_path):
    # at decay 0.5 the temperature reaches 0.0 after about 1,075 proposals;
    # uphill moves are then refused (this used to raise ZeroDivisionError)
    out = tmp_path / "rec.json"
    assert main(["frontier", "--n", "6", "--e", "10", "--mode", "anneal",
                 "--book-cap", "7", "--seed", "1", "--decay", "0.5",
                 "--budget", "5000", "--out", str(out)]) == 0
    params = bt.AnnealParams(book_cap=7, budget=5000, seed=1, decay=0.5)
    assert json.loads(out.read_text()) == anneal_reference(6, 10, params).to_json_dict()


def test_frontier_anneal_reproducible(tmp_path):
    args = ["frontier", "--n", "6", "--e", "10", "--mode", "anneal",
            "--book-cap", "7", "--seed", "1", "--budget", "5000"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    record = json.loads(a.read_text())
    assert record["mode"] == "heuristic" and record["rng"] == "numpy-pcg64"


def test_frontier_threads_is_a_usage_error(capsys, monkeypatch):
    # the scan runs on one thread: --threads is gone and BOOKTRI_THREADS is
    # not read, even when it holds no number
    argv = ["frontier", "--n", "6", "--e", "10", "--mode", "exhaustive"]
    assert main(argv + ["--threads", "2"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    usage, _, last = err.rstrip("\n").rpartition("\n")
    assert out == "" and "Traceback" not in err
    assert usage.startswith("usage: booktri ")
    assert last == "error: unrecognized arguments: --threads 2"
    monkeypatch.setenv("BOOKTRI_THREADS", "many")
    assert main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["min_t"] == 3


def test_sweep_requires_seed(capsys):
    assert main(["sweep", "--n", "40", "--alphas", "2/5"]) == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("alphas", ["", ",,", ","])
def test_sweep_refuses_empty_alphas(capsys, alphas, fmt):
    """An --alphas list that names no alpha is a usage error, not an empty
    result (it printed [] or a bare CSV header and exited 0)."""
    argv = ["sweep", "--n", "40", f"--alphas={alphas}", "--seed", "1", "--format", fmt]
    assert main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: sweep --alphas names no rational p/q: {alphas!r}\n"


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "40", "--alphas", "7/20,2/5,9/10", "--seed", "1",
                 "--budget", "500", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,b_cap,t,source"
    # the tripartite family refuses (40, 7/20): its parts 6,7,7 put b at the cap
    assert lines[1] == "7/20,7,,none"
    assert lines[2].split(",")[3] == "edwards_generalized"


def test_stability_c5(graph_files, capsys):
    assert main(["stability", graph_files["C5"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 1 and report["internal_x"] == 1


def test_stability_triangle_exits_3(graph_files, capsys):
    assert main(["stability", graph_files["K3"]]) == 3
    assert "witness 0 1 2" in capsys.readouterr().err


def test_stability_rewire_identity(graph_files, tmp_path, capsys):
    out = tmp_path / "rw.g6"
    assert main(["stability", graph_files["K44"], "--rewire",
                 "--rewire-out", str(out), "--out", str(tmp_path / "rep.json")]) == 0
    assert bt.from_graph6(out.read_text().strip()) == bt.complete_bipartite(4, 4)


def test_rewire_out_implies_rewire(graph_files, tmp_path, capsys):
    """--rewire-out alone writes the rewire that --rewire --rewire-out writes,
    with the same report on stdout."""
    alone, both = tmp_path / "alone.g6", tmp_path / "both.g6"
    assert main(["stability", graph_files["C5"], "--rewire-out", str(alone)]) == 0
    report = capsys.readouterr().out
    assert main(["stability", graph_files["C5"], "--rewire", "--rewire-out", str(both)]) == 0
    assert capsys.readouterr().out == report
    expected = bt.to_graph6(bt.bipartize_rewire(cycle(5))) + "\n"
    assert alone.read_text() == both.read_text() == expected
    # and its path is checked before any work, as --rewire's is
    assert main(["stability", graph_files["C5"], "--rewire-out", str(tmp_path / "no" / "rw.g6")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_outputs_match_library_serialization(graph_files, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["analyze", graph_files["K5"], "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == bt.analyze_report(complete(5))


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "booktri.cli", "construct", "rademacher", "--n", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["measured_t"] == 5


GOLDEN = Path(__file__).parent / "golden"

# stdout of each command, byte for byte.  The anneal and sweep outputs follow
# numpy's PCG64 stream, so a change here means the random draws drifted.
# Alpha 7/20 at n=40 is left out on purpose: edwards_generalized refuses it,
# and the in-class tripartite family that would serve it is still to come.
GOLDEN_COMMANDS = {
    "frontier_anneal_6_10_cap7_seed1.json":
        "frontier --n 6 --e 10 --mode anneal --book-cap 7 --seed 1 --format json",
    "frontier_anneal_6_10_cap7_seed1.csv":
        "frontier --n 6 --e 10 --mode anneal --book-cap 7 --seed 1 --format csv",
    "frontier_anneal_12_37_cap12_seed1.json":
        "frontier --n 12 --e 37 --mode anneal --book-cap 12 --seed 1 --format json",
    "frontier_anneal_12_37_cap12_seed1.csv":
        "frontier --n 12 --e 37 --mode anneal --book-cap 12 --seed 1 --format csv",
    "sweep_40_seed1.csv": "sweep --n 40 --alphas 2/5,3/5,9/10 --seed 1 --format csv",
    "sweep_40_seed1.json": "sweep --n 40 --alphas 2/5,3/5,9/10 --seed 1 --format json",
    # the CRLF copy of p4.el, with a comment line, reads as the same graph
    "analyze_p4_crlf_el.json": "analyze {golden}/p4_crlf.el",
    # above one row block of the book kernel: Edwards' graph at n = 192 has 6
    # distinct rows, so these read the twin-class product
    "construct_edwards_192_2_5.json": "construct edwards --n 192 --alpha 2/5",
    "analyze_edwards_192_2_5_g6.json": "analyze {golden}/edwards_192_2_5.g6",
    # a C5 blow-up on 200 vertices (parts 38, 45, 33, 47, 37, labelled at
    # random): 5 distinct rows, so the class product; its max-degree split
    # leaves the 1,406 edges between two parts inside X
    "analyze_c5_blowup_200_g6.json": "analyze {golden}/c5_blowup_200.g6",
    "stability_rewire_c5_blowup_200_g6.json":
        "stability {golden}/c5_blowup_200.g6 --rewire --format json",
    "stability_rewire_c5_blowup_200_g6.csv":
        "stability {golden}/c5_blowup_200.g6 --rewire --format csv",
}
for _fmt in ("json", "csv"):
    GOLDEN_COMMANDS.update({
        f"construct_rademacher_10.{_fmt}": f"construct rademacher --n 10 --format {_fmt}",
        f"construct_theorem1_40_7_10.{_fmt}":
            f"construct theorem1 --n 40 --alpha 7/10 --format {_fmt}",
        f"construct_edwards_48_2_5.{_fmt}": f"construct edwards --n 48 --alpha 2/5 --format {_fmt}",
        f"frontier_exhaustive_6_10.{_fmt}": f"frontier --n 6 --e 10 --mode exhaustive --format {_fmt}",
        # nine popcount classes of the high half-mask, each its own block
        f"frontier_exhaustive_7_13.{_fmt}": f"frontier --n 7 --e 13 --mode exhaustive --format {_fmt}",
    })
# the committed triangle-free corpus; with no --rewire-out the rewired
# graph6 line follows the report on stdout
for _graph in ("c5_blowup_3_5_2_4_6", "p4", "k5_5_minus_matching"):
    for _ext in ("g6", "el"):
        _input = f"{{golden}}/{_graph}.{_ext}"
        GOLDEN_COMMANDS[f"analyze_{_graph}_{_ext}.json"] = f"analyze {_input}"
        for _fmt in ("json", "csv"):
            GOLDEN_COMMANDS[f"stability_rewire_{_graph}_{_ext}.{_fmt}"] = (
                f"stability {_input} --rewire --format {_fmt}"
            )


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_cli_golden_bytes(name, capsys):
    argv = [arg.format(golden=GOLDEN) for arg in GOLDEN_COMMANDS[name].split()]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("ascii") == (GOLDEN / name).read_bytes()


def test_cli_golden_stability_witness_above_one_block(capsys):
    """Edwards' graph at n = 192 is not triangle-free: stability exits 3
    with the witness the class product's first triangle gives, and prints
    nothing on stdout."""
    argv = ["stability", str(GOLDEN / "edwards_192_2_5.g6")]
    assert main(argv) == cli.EXIT_HYPOTHESIS
    out, err = capsys.readouterr()
    assert out == ""
    assert err.encode("ascii") == (GOLDEN / "stability_edwards_192_2_5_g6.err").read_bytes()


def test_cli_golden_crlf_matches_lf():
    assert (GOLDEN / "analyze_p4_crlf_el.json").read_bytes() == (
        GOLDEN / "analyze_p4_el.json"
    ).read_bytes()
