"""Command-line front end.

Subcommands map one-to-one onto library operations; outputs are the same
JSON/CSV the library serializes, so a subcommand never computes anything the
API would not.  Exit codes: 0 success, 1 usage, 2 parse, 3 hypothesis
violation or self-check failure, 4 resource guard.  Progress/summary chatter
goes to stderr, never into result files.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from .analytics import analyze_report
from .codec import _HEADER, from_edge_list_text, from_graph6, to_graph6
from .constructions import FAMILIES
from .errors import BooktriError
from .graph import MAX_VERTICES, Graph
from .partition import _rewire, stability_partition
from .search import (
    AnnealParams,
    alpha_sweep,
    anneal_min_triangles,
    extremal_scan,
    sweep_to_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_GUARD = 4

# the one-line message prefix for each exit code of a BooktriError
_LABELS = {
    EXIT_USAGE: "error",
    EXIT_PARSE: "parse error",
    EXIT_HYPOTHESIS: "hypothesis violation",
    EXIT_GUARD: "guard",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# the longest .g6 file of a graph booktri can hold: the ">>graph6<<" header,
# the graph6 string for n = MAX_VERTICES (4 count bytes, one byte per 6 of the
# C(n, 2) edge bits) and a CRLF
_G6_LIMIT = len(_HEADER) + 4 + math.ceil(math.comb(MAX_VERTICES, 2) / 6) + 2
# the longest duplicate-free .el file: the "# n" line, then all C(n, 2) pairs
# at n = MAX_VERTICES, each on a CRLF line as long as "1023 1022"
_EL_LINE = len(f"{MAX_VERTICES - 1} {MAX_VERTICES - 2}\r\n")
_EL_LIMIT = len(f"# n {MAX_VERTICES}\r\n") + math.comb(MAX_VERTICES, 2) * _EL_LINE


def _read_bounded(path: str, limit: int, what: str) -> bytes:
    """The bytes of path, refused before any parse if there are over limit."""
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise BooktriError(
            f"{path}: longer than {limit} bytes, the most {what} "
            f"of at most {MAX_VERTICES} vertices needs"
        )
    return data


def _load_graph(path: str) -> Graph:
    if path.endswith(".g6"):
        return from_graph6(_read_bounded(path, _G6_LIMIT, "a graph6 file"))
    if path.endswith(".el"):
        return from_edge_list_text(_read_bounded(path, _EL_LIMIT, "a duplicate-free edge list"))
    raise _UsageError(f"cannot detect format of {path!r}: expected .g6 or .el")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str | None) -> None:
    """Raise now the OSError that writing path would raise once the work is
    done (a directory, a missing parent, no write permission), without
    creating or truncating anything."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _kv_csv(d: dict) -> str:
    lines = []
    for k, v in d.items():
        if isinstance(v, dict):
            for kk, vv in v.items():
                lines.append(f"{k}_{kk},{vv}")
        elif isinstance(v, list):
            lines.append(f"{k},{' '.join(str(x) for x in v)}")
        else:
            lines.append(f"{k},{'' if v is None else v}")
    return "\n".join(lines) + "\n"


def _dump(obj: dict | list, fmt: str, out: str | None, csv: str | None = None) -> None:
    """Write obj as JSON, or else csv, falling back to obj's key,value lines."""
    if fmt == "json":
        _emit(json.dumps(obj, indent=2) + "\n", out)
    else:
        _emit(_kv_csv(obj) if csv is None else csv, out)


def _cmd_analyze(args) -> int:
    g = _load_graph(args.input)
    _dump(analyze_report(g), args.format, args.out)
    return EXIT_OK


def _cmd_construct(args) -> int:
    build, takes_alpha = FAMILIES[args.kind]
    if takes_alpha and args.alpha is None:
        raise _UsageError(f"construct {args.kind} requires --alpha p/q")
    report = build(args.n, args.alpha) if takes_alpha else build(args.n)  # it parses alpha
    d = report.to_json_dict()  # measures (t, b) once, for the report and the check
    _dump(d, args.format, args.out)
    if args.graph_out:
        _emit(d["graph6"] + "\n", args.graph_out)
    if (d["measured_t"], d["measured_b"]) != (d["predicted_t"], d["predicted_b"]):
        print("self-check failed: predictions disagree with measurements", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _cmd_frontier(args) -> int:
    if args.mode == "exhaustive":
        record = extremal_scan(args.n, args.e)
    else:
        if args.seed is None:
            raise _UsageError("frontier --mode anneal requires --seed")
        if args.book_cap is None:
            raise _UsageError("frontier --mode anneal requires --book-cap")
        init = _load_graph(args.init) if args.init else None
        record = anneal_min_triangles(
            args.n,
            args.e,
            AnnealParams(
                book_cap=args.book_cap,
                budget=args.budget,
                seed=args.seed,
                init=init,
                t0=args.t0,
                decay=args.decay,
            ),
        )
    _dump(record.to_json_dict(), args.format, args.out, record.to_csv())
    print(
        f"n={record.n} e={record.e} min_t={record.min_t} min_b={record.min_b} "
        f"scanned={record.scanned}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.seed is None:
        raise _UsageError("sweep requires --seed")
    alphas = [a for a in args.alphas.split(",") if a]
    if not alphas:
        raise _UsageError(f"sweep --alphas names no rational p/q: {args.alphas!r}")
    entries = alpha_sweep(args.n, alphas, seed=args.seed, budget=args.budget)
    _dump([s.to_json_dict() for s in entries], args.format, args.out, sweep_to_csv(entries))
    return EXIT_OK


def _cmd_stability(args) -> int:
    g = _load_graph(args.input)
    report = stability_partition(g)
    _dump(report.to_json_dict(), args.format, args.out)
    if args.rewire or args.rewire_out:
        _emit(to_graph6(_rewire(g, report)) + "\n", args.rewire_out)
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="booktri", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("analyze", help="triangle/book report for a graph file")
    sp.add_argument("input", help="graph file (.g6 or .el)")
    common(sp)
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("construct", help="generate an extremal construction")
    sp.add_argument("kind", choices=tuple(FAMILIES))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", default=None, help="rational p/q (never a decimal)")
    sp.add_argument("--graph-out", default=None, help="also write bare graph6 here")
    common(sp)
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("frontier", help="scan the (b, t) frontier at fixed edges")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--mode", choices=("exhaustive", "anneal"), required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--book-cap", type=int, default=None,
                    help="strict upper bound on the largest book (anneal)")
    sp.add_argument("--budget", type=int, default=100000)
    sp.add_argument("--init", default=None, help="feasible starting graph file")
    sp.add_argument("--t0", type=float, default=2.0)
    sp.add_argument("--decay", type=float, default=0.9995)
    common(sp)
    sp.set_defaults(fn=_cmd_frontier)

    sp = sub.add_parser("sweep", help="best known t under caps alpha*n/2")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alphas", required=True, help="comma-separated rationals p/q")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--budget", type=int, default=20000)
    common(sp)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("stability", help="max-degree split of a triangle-free graph")
    sp.add_argument("input", help="graph file (.g6 or .el)")
    sp.add_argument("--rewire", action="store_true",
                    help="also emit the bipartized graph as graph6")
    sp.add_argument("--rewire-out", default=None, help="write that graph6 here (implies --rewire)")
    common(sp)
    sp.set_defaults(fn=_cmd_stability)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out)
        _check_out(getattr(args, "graph_out", None))
        _check_out(getattr(args, "rewire_out", None))
        return args.fn(args)
    except BooktriError as exc:
        print(f"{_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (_UsageError, OSError) as exc:  # OSError: a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
