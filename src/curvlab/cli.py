"""curvlab command line: curvature, connectivity, matching, regularity,
corpus scans, and counterexample searches.

Graph specs are either a path to a graph6/sparse6 or edge-list file, or a
generator string such as "hypercube:4", "paley:13", "zxk:3" (the integer
line times K_3).  Exit codes: 0 clean, 1 a scan worker process ended
without its results, 2 a proved statement failed on some graph (an
implementation bug), 3 bad input or a usage error.

A command imports the modules it runs when it runs.  At module level are
only what the parser needs and `emit_report` and `print_json`, so `--help`,
a usage error and the commands that read no curvature (`connectivity`,
`matching`, `regularity`) run without loading numpy or the checkers.

A curvlab process runs numpy's BLAS on one thread: it sets
OPENBLAS_NUM_THREADS to 1 before numpy can load, unless the caller has set
it.  A scan already runs one forked worker per usable CPU
(`workers.for_each`), and every matrix the kernel hands BLAS is one
vertex's form, at most about 30 x 30 on the corpora scanned, so OpenBLAS's
thread pool gains nothing and would cost each process that loads numpy
some 60-70 ms to start.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial

from .formats import FormatError, iter_graph6_file, parse_edge_list, parse_integer, parse_real
from .graph import Graph, GraphError, NeighborOracle
from .reports import FORMATS, THEOREM_IDS, Report, emit_report, encode, print_json

# one BLAS thread: scans already run one forked worker per usable CPU
# (`workers.for_each`), and every BLAS call is on a matrix of at most about
# 30 x 30.  No import above loads numpy, so this precedes it in every command
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_VIOLATION = 2
EXIT_INPUT = 3


def _load_graph_spec(text: str) -> Graph | NeighborOracle:
    """A path to a graph file or a generator string.  A file is read up to
    its first non-blank line; an edge list, whose first non-blank line
    starts with a digit, is then read whole, and of a graph6/sparse6 file
    only that line, its first graph, is parsed."""
    if not os.path.exists(text):
        from .generators import generate, parse_family_spec

        return generate(parse_family_spec(text))
    # a non-ASCII byte survives decoding, so the parser can name its line
    with open(text, "r", encoding="ascii", errors="surrogateescape") as fh:
        read = []
        for raw in fh:
            read.append(raw)
            if raw.strip():
                break
        # the lines up to the first non-blank one, which holds the graph,
        # as str.splitlines splits them: \v, \f and \x1c-\x1e end a line too
        lines = "".join(read).splitlines()
        head = lines[: next((i + 1 for i, line in enumerate(lines) if line.strip()), 0)]
        if head and head[-1].strip()[0].isdigit():
            return parse_edge_list("".join(read) + fh.read())
    graphs = iter_graph6_file(head)
    if not graphs:
        raise FormatError(f"no graphs in {text}")
    return graphs[0][1]


def _parse_vertex(text: str | None, g: Graph | NeighborOracle, spec: str):
    """A vertex of g given as text: an integer in 0..n-1 for a finite graph,
    an integer for `line` and a pair i,c with 0 <= c < k for `zxk:k`.  An
    infinite family's vertex defaults to 0 or (0, 0)."""
    from .generators import parse_family_spec

    if isinstance(g, Graph):
        arity, bound, form = 1, g.n, f"an integer in 0..{g.n - 1}"
    elif parse_family_spec(spec).kind == "integer_line":
        arity, bound, form = 1, None, "an integer"
    else:
        k = parse_family_spec(spec).args[0]
        arity, bound, form = 2, k, f"a pair i,c of integers with 0 <= c < {k}"
    try:
        parts = (0,) * arity if text is None else tuple(map(parse_integer, text.split(",")))
    except ValueError:
        parts = ()
    if len(parts) != arity or (bound is not None and not 0 <= parts[-1] < bound):
        raise GraphError(f"vertex {text!r} is not a vertex of {spec}: expected {form}")
    return parts[0] if arity == 1 else parts


def cmd_curvature(args) -> int:
    from .curvature import bakry_emery_curvature, graph_curvature

    g = _load_graph_spec(args.graph)
    dim = args.dimension
    if isinstance(g, Graph) and args.vertex is None:
        [(kmin, ks)] = graph_curvature([g], dim)
        print_json(
            {"K": kmin, "dimension": dim, "per_vertex": {str(v): K for v, K in enumerate(ks)}}
        )
        return EXIT_OK
    x = _parse_vertex(args.vertex, g, args.graph)
    print_json({"vertex": str(x), "K": bakry_emery_curvature(g, x, dim).K, "dimension": dim})
    return EXIT_OK


def cmd_connectivity(args) -> int:
    from .cuts import classify_min_cuts, edge_connectivity

    g = _require_finite(_load_graph_spec(args.graph))
    lam, cert = edge_connectivity(g)
    payload = {
        "lambda": lam,
        "cut": None
        if cert is None
        else {"side_L": sorted(cert.side_L), "edges": list(cert.cut_edges)},
    }
    if args.classify_cuts:
        witness = classify_min_cuts(g, (lam, cert))
        payload["stars_only"] = witness is None
        payload["non_star_cut"] = None if witness is None else {"side_L": sorted(witness.side_L)}
    print_json(payload)
    return EXIT_OK


def cmd_matching(args) -> int:
    from .matching import maximum_matching

    g = _require_finite(_load_graph_spec(args.graph))
    m = maximum_matching(g)
    print_json({"size": m.size, "perfect": m.is_perfect, "edges": list(m.edges)})
    return EXIT_OK


def cmd_regularity(args) -> int:
    from .regularity import detect_regularity

    g = _require_finite(_load_graph_spec(args.graph))
    print_json(detect_regularity(g))
    return EXIT_OK


def cmd_check(args) -> int:
    import tempfile

    from .theorems import corpus, scan

    graphs = corpus(args.source)
    ids = THEOREM_IDS
    if args.theorems is not None:  # '' names one theorem id, '', which scan rejects
        ids = tuple(t.strip() for t in args.theorems.split(","))
    violations: list[str] = []
    total_graphs = verdicts = applicable = held = 0
    # the report is spooled as the scan goes and reaches its destination only
    # once the scan has ended, so a scan that fails writes nothing; the
    # escaped bytes of an undecodable file name in a graph id pass the spool,
    # and the destination accepts or refuses them as it would without it
    with tempfile.TemporaryFile("w+", encoding="utf-8", errors="surrogateescape") as spool:
        report = Report(args.format, spool, args.out)

        def take(chunk: list[tuple[list, int, int, list[str]]]) -> None:
            nonlocal total_graphs, verdicts, applicable, held
            for rows, graph_applicable, graph_held, lines in chunk:
                emit_report(report, rows)
                total_graphs += 1
                verdicts += len(rows)
                applicable += graph_applicable
                held += graph_held
                violations.extend(lines)

        scan(graphs, ids, partial(_checked_chunk, args.format), take)
        emit_report(report)
    print(
        f"\nchecked {verdicts} verdicts on {total_graphs} graphs: "
        f"{applicable} applicable, {held} held, {len(violations)} violations",
        file=sys.stderr,
    )
    for line in violations:
        print(line, file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


def _checked_chunk(fmt: str, pairs) -> list[tuple[list, int, int, list[str]]]:
    """What `cmd_check` keeps of each graph of a chunk's scan, made in the
    process that scans the chunk: its report rows in format `fmt`, its
    applicable and held counts and its VIOLATION lines."""
    out = []
    for _, verdicts in pairs:
        applicable = sum(v.applicable for v in verdicts)
        held = sum(bool(v.applicable and v.holds) for v in verdicts)
        lines = [
            f"VIOLATION {v.theorem} on {v.graph_id}: {v.evidence}" for v in verdicts if v.violated
        ]
        out.append((encode(verdicts, fmt), applicable, held, lines))
    return out


def cmd_conjecture(args) -> int:
    from .theorems import conjecture_scan

    print_json(conjecture_scan(args.max_n))
    return EXIT_OK


def cmd_beta1(args) -> int:
    from .theorems import beta1_search

    del args
    print_json(beta1_search())
    return EXIT_OK


def _require_finite(g) -> Graph:
    if not isinstance(g, Graph):
        raise GraphError("this command needs a finite graph, got an infinite family")
    return g


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Bakry-Emery curvature, connectivity, and matching toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="vertex or whole-graph curvature")
    p.add_argument("graph")
    p.add_argument("--vertex", help="vertex id: 0..n-1, an integer for line, i,c for zxk:k")
    p.add_argument(
        "--dimension", type=parse_real, default=math.inf, help="dimension parameter N (default inf)"
    )
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("connectivity", help="edge connectivity with certificate")
    p.add_argument("graph")
    p.add_argument("--classify-cuts", action="store_true")
    p.set_defaults(fn=cmd_connectivity)

    p = sub.add_parser("matching", help="maximum matching")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_matching)

    p = sub.add_parser("regularity", help="regularity class detection")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_regularity)

    p = sub.add_parser("check", help="run theorem checkers over a corpus")
    p.add_argument("--source", required=True, help="file path, gen:spec;spec, or exhaustive:N")
    p.add_argument("--theorems", help=f"comma list from {','.join(THEOREM_IDS)}")
    p.add_argument("--format", default="json", choices=FORMATS)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("conjecture", help="tabulate (delta, lambda) over nonneg-curvature graphs")
    p.add_argument("--max-n", type=parse_integer, default=8, dest="max_n")
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("beta1-search", help="beta=1 connectivity-drop witnesses")
    p.set_defaults(fn=cmd_beta1)
    return parser


def _attach_vertex_values(argv: list[str]) -> list[str]:
    """Join `--vertex -4,2` into `--vertex=-4,2`: argparse reads a separate
    value that starts with a minus sign and is not a plain number as an
    option and rejects the pair."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--vertex" and tok.startswith("-") and tok[1:2].isdigit():
            out[-1] = f"--vertex={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_vertex_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        # a scan raises WorkerError; `workers` and the pickle it imports
        # stay out of the start-up that `check --help` times
        from .workers import WorkerError

        if not isinstance(exc, WorkerError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
