"""Theorem checkers, corpus scanning, and counterexample searches.

Each checker turns one proved statement into a predicate over finite
graphs: an applicability test (the hypotheses) and a conclusion test.  A
verdict that is applicable but does not hold indicates an implementation
bug somewhere in the pipeline, never new mathematics, and the scanner
reports it with full evidence.  A corpus scan (`scan`) reads the
(gid, Graph) pairs of a `corpus` in chunks, on every usable CPU, and hands
a summary of each chunk's graphs and verdicts on in corpus order; it
shares one `GraphFacts` between the checkers on a graph and fills the
curvature of a chunk with one kernel call on the chunk's list of connected
graphs.  `curvlab check` and `conjecture_scan` count what those summaries
hold.

Checker ids:
  T1.1  regular + even order + nonnegative curvature  => perfect matching
  T1.2  regular + even order + (d-1)-edge-connected   => perfect matching
  T1.3  nonnegative curvature => edge-connectivity >= min degree - 1
  T1.4  amply regular, beta >= 2 => d-edge-connected with star-only
        minimum cuts (quadrangle excepted)
  C1.6  amply regular, beta >= 2, even order => perfect matching
  T2.4  amply regular (d, alpha, 2), d < alpha(alpha+3)/2 => diamond-free
  T2.5  closed-form amply-regular curvature matches the eigensolver
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .cuts import CutCertificate, classify_min_cuts, edge_connectivity
# the benchmark's traced run wraps bakry_emery_curvature under this module's name
from .curvature import bakry_emery_curvature, graph_curvature  # noqa: F401
from .enumeration import MAX_ENUMERATION_N, connected_graphs_upto
from .formats import FormatError, iter_graph6_file, parse_integer
from .generators import generate, parse_family_spec
from .graph import Graph, GraphError, girth, is_connected
from .matching import Matching, maximum_matching
from .regularity import (
    RegularityClass,
    arg_curvature_formula,
    bcn_check,
    detect_regularity,
    local_graph_spectrum,
)
from .reports import THEOREM_IDS
from .workers import for_each

R = TypeVar("R")

CURVATURE_TOL = 1e-8

# A corpus scan buffers graphs up to this many vertices in all and runs the
# curvature kernel once on the list of their connected graphs; a larger
# graph makes a chunk of its own.
_CHUNK_VERTICES = 256


def nonnegatively_curved(kmin: float) -> bool:
    """The sign rule of every curvature hypothesis: K >= -CURVATURE_TOL."""
    return kmin >= -CURVATURE_TOL


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    graph_id: str
    applicable: bool
    holds: bool | None
    evidence: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def violated(self) -> bool:
        return self.applicable and self.holds is False


class _Chunk:
    """The connected graphs of one chunk of a scan, whose curvature one
    kernel call fills on first read."""

    def __init__(self):
        self.graphs: list[Graph] = []

    @cached_property
    def curvature(self) -> list[tuple[float, tuple[float, ...]]]:
        return graph_curvature(self.graphs)


class GraphFacts:
    """The per-graph quantities the checkers share, each computed on first
    use and then kept, so a scan computes each at most once per graph.

    A connected graph joins the `chunk` it is given, and its `curvature` is
    the chunk's at its `index`, so the first read on any graph of the chunk
    fills them all.  Without a chunk, or if it is not connected, the graph
    is a chunk of one.
    """

    def __init__(self, g: Graph, chunk: _Chunk | None = None):
        self.g = g
        if chunk is None or not self.connected:
            chunk = _Chunk()
        self.chunk, self.index = chunk, len(chunk.graphs)
        chunk.graphs.append(g)

    @cached_property
    def connected(self) -> bool:
        return self.g.n > 0 and is_connected(self.g)

    @cached_property
    def regularity(self) -> RegularityClass:
        return detect_regularity(self.g)

    @property
    def curvature(self) -> tuple[float, tuple[float, ...]]:
        return self.chunk.curvature[self.index]

    @cached_property
    def connectivity(self) -> tuple[int, CutCertificate | None]:
        return edge_connectivity(self.g)

    @cached_property
    def failed_cut_check(self) -> str | None:
        """The check that the certificate of `connectivity` fails, or None:
        a certificate exists unless g has one vertex, its value is lambda,
        and `CutCertificate.verify` recomputes it from its side."""
        lam, cut = self.connectivity
        if cut is None:
            return None if self.g.n == 1 else "cut certificate missing"
        if cut.value != lam:
            return "cut certificate value != lambda"
        return None if cut.verify(self.g) else "cut certificate fails CutCertificate.verify"

    @cached_property
    def matching(self) -> Matching:
        return maximum_matching(self.g)

    @cached_property
    def failed_matching_check(self) -> str | None:
        """The check that `matching` fails, or None: `Matching.verify`
        finds disjoint edges of g and the right `is_perfect`."""
        return None if self.matching.verify(self.g) else "matching fails Matching.verify"


def check_theorem(
    g: Graph, theorem_id: str, graph_id: str = "?", facts: GraphFacts | None = None
) -> TheoremVerdict:
    """Evaluate one checker on a finite graph.

    `facts` carries the per-graph quantities shared with the other checkers
    on the same graph; without it they are computed here.  Disconnected
    graphs are never applicable; evidence carries the quantities the
    conclusion was decided on (curvature values, cut certificates,
    matchings, witnesses) so it can be re-verified.  Before deciding,
    T1.3 and T1.4 check their cut certificate (`failed_cut_check`) and
    T1.1, T1.2 and C1.6 their matching (`failed_matching_check`), each
    once per graph; a failed check fails the verdict, and its evidence
    names the check under "failed_check".
    """
    if theorem_id not in THEOREM_IDS:
        raise GraphError(f"unknown theorem id {theorem_id!r}")
    facts = GraphFacts(g) if facts is None else facts
    verdict = partial(TheoremVerdict, theorem_id, graph_id)  # (applicable, holds, evidence)
    if not facts.connected:
        return verdict(False, None, {"reason": "not connected"})

    if theorem_id == "T1.3":
        kmin, _ = facts.curvature
        if not nonnegatively_curved(kmin):
            return verdict(False, None, {"K": kmin, "reason": "negative curvature"})
        lam, cert = facts.connectivity
        delta = min(g.degree(v) for v in range(g.n))
        evidence = {"K": kmin, "lambda": lam, "delta": delta, "cut": cert}
        return _decided(verdict, lam >= delta - 1, evidence, facts.failed_cut_check)

    if theorem_id == "T2.4":
        return verdict(*bcn_check(g, facts.regularity))

    reg = facts.regularity
    if theorem_id in ("T1.1", "T1.2"):
        if not reg.is_regular or g.n % 2 != 0:
            return verdict(False, None, {"reason": "not regular with even order"})
        if theorem_id == "T1.1":
            kmin, _ = facts.curvature
            if not nonnegatively_curved(kmin):
                return verdict(False, None, {"K": kmin, "reason": "negative curvature"})
            evidence: dict = {"K": kmin}
        else:
            lam, _ = facts.connectivity
            if lam < reg.d - 1:
                reason = "not (d-1)-edge-connected"
                return verdict(False, None, {"lambda": lam, "d": reg.d, "reason": reason})
            evidence = {"lambda": lam, "d": reg.d}
        evidence["matching"] = facts.matching
        return _decided(verdict, facts.matching.is_perfect, evidence, facts.failed_matching_check)

    if theorem_id == "T1.4":
        if not reg.is_amply_regular or reg.beta < 2:
            return verdict(False, None, {"reason": "not amply regular with beta >= 2"})
        lam, cert = facts.connectivity
        quadrangle = g.n == 4 and reg.d == 2
        evidence = {"lambda": lam, "d": reg.d, "cut": cert, "quadrangle": quadrangle}
        failed = facts.failed_cut_check
        if not failed and lam == reg.d and not quadrangle:
            witness = classify_min_cuts(g, facts.connectivity)
            evidence["stars_only"] = witness is None
            evidence["non_star_cut"] = witness
            failed = witness and _failed_witness_check(g, lam, witness)
        # the cuts are classified when lambda = d, except on the quadrangle
        return _decided(verdict, evidence.get("stars_only", lam == reg.d), evidence, failed)

    if theorem_id == "C1.6":
        if not reg.is_amply_regular or reg.beta < 2 or g.n % 2 != 0:
            reason = "not amply regular with beta >= 2 and even order"
            return verdict(False, None, {"reason": reason})
        evidence = {"matching": facts.matching}
        return _decided(verdict, facts.matching.is_perfect, evidence, facts.failed_matching_check)

    # T2.5: closed-form curvature against the eigensolver, every vertex
    if not reg.is_amply_regular:
        return verdict(False, None, {"reason": "not amply regular"})
    _, ks = facts.curvature
    worst = 0.0
    for x, spectrum in enumerate(local_graph_spectrum(g)):
        formula = arg_curvature_formula(reg.d, reg.alpha, reg.beta, spectrum)
        worst = max(worst, abs(formula - ks[x]))
    return verdict(True, worst <= 1e-8, {"max_abs_difference": worst})


def _decided(
    verdict: Callable[..., TheoremVerdict], holds: bool, evidence: dict, failed: str | None
) -> TheoremVerdict:
    """The applicable verdict that `holds` on `evidence`, unless a check of
    the evidence `failed`: then it does not hold, and the evidence names
    the check under "failed_check"."""
    if failed:
        return verdict(True, False, {**evidence, "failed_check": failed})
    return verdict(True, holds, evidence)


def _failed_witness_check(g: Graph, lam: int, witness: CutCertificate) -> str | None:
    """The check that T1.4's non-star `witness` fails, or None: its value is
    lambda and each of its sides has at least two vertices."""
    if witness.value != lam:
        return "non-star cut value != lambda"
    if not 2 <= len(witness.side_L) <= g.n - 2:
        return "non-star cut side of fewer than 2 vertices"
    return None


def corpus(text: str) -> Iterator[tuple[str, Graph]]:
    """The (gid, Graph) pairs of a corpus, from its CLI form: a graph6/sparse6
    file path, "gen:spec1;spec2" or "exhaustive:N".  The form is checked at
    once; the graphs are read when the iterator is."""
    if text.startswith("gen:"):
        specs = [spec for t in text[4:].split(";") if (spec := t.strip())]
        if not specs:
            raise GraphError(f"corpus source {text!r}: no generator spec")
        return _generated(specs)
    if text.startswith("exhaustive:"):
        try:
            max_n = parse_integer(text[len("exhaustive:") :])
        except ValueError:
            max_n = 0
        if not 1 <= max_n <= MAX_ENUMERATION_N:
            raise GraphError(
                f"corpus source {text!r}: N must be an integer in 1..{MAX_ENUMERATION_N}"
            )
        return connected_graphs_upto(max_n)
    return _read_file(text)


def _generated(specs: list[str]) -> Iterator[tuple[str, Graph]]:
    for spec in specs:
        g = generate(parse_family_spec(spec))
        if not isinstance(g, Graph):
            raise GraphError(f"spec {spec!r} is an infinite family; scan needs finite graphs")
        yield spec, g


def _read_file(path: str) -> Iterator[tuple[str, Graph]]:
    # a non-ASCII byte survives decoding, so the parser can name its line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        graphs = iter_graph6_file(fh)
    if not graphs:
        raise FormatError(f"no graphs in {path}")
    for lineno, g in graphs:
        yield f"{os.path.basename(path)}:{lineno}", g


def _chunks(graphs: Iterable[tuple[str, Graph]]) -> Iterator[list[tuple[str, Graph]]]:
    """The (gid, Graph) pairs in runs of up to `_CHUNK_VERTICES` vertices in
    all, in the order given; a larger graph makes a run of its own.  A run
    is yielded once the graph that closes it has been read."""
    chunk: list[tuple[str, Graph]] = []
    size = 0
    for gid, g in graphs:
        if chunk and size + g.n > _CHUNK_VERTICES:
            yield chunk
            chunk, size = [], 0
        chunk.append((gid, g))
        size += g.n
    if chunk:
        yield chunk


def _checked_ids(theorem_ids: Sequence[str]) -> tuple[str, ...]:
    """The ids as a tuple, once each is known to be a checker's, and given once."""
    theorem_ids = tuple(theorem_ids)
    for i, tid in enumerate(theorem_ids):
        if tid not in THEOREM_IDS:
            raise GraphError(f"unknown theorem id {tid!r}")
        if tid in theorem_ids[:i]:
            raise GraphError(f"theorem id {tid!r} is given more than once")
    return theorem_ids


def scan(
    graphs: Iterable[tuple[str, Graph]],
    theorem_ids: Sequence[str],
    summarize: Callable[[list[tuple[Graph, list[TheoremVerdict]]]], R],
    take: Callable[[R], None],
) -> None:
    """Run checkers over (gid, Graph) pairs on every usable CPU: `summarize`
    each chunk's list of (graph, verdicts) pairs, in corpus order and in the
    order of `theorem_ids`, and pass the summaries to `take` in corpus order.

    The ids are checked before the first graph is read.  `workers.for_each`
    spreads the runs of `_chunks` over the CPUs: `summarize` runs in the
    process that owns the chunk and returns what `pickle` can write, and
    `take` runs in this one.  The checkers on one graph share one
    `GraphFacts`, so each per-graph quantity is computed at most once, and
    the first curvature read in a chunk fills the whole chunk.  A corpus is
    walked in every worker process, so it must come out the same each time
    it is read; the corpora of `corpus` do.
    """
    theorem_ids = _checked_ids(theorem_ids)
    for_each(_chunks(graphs), partial(_scan_chunk, theorem_ids, summarize), take)


def _scan_chunk(
    theorem_ids: tuple[str, ...],
    summarize: Callable[[list[tuple[Graph, list[TheoremVerdict]]]], R],
    pairs: list[tuple[str, Graph]],
) -> R:
    """`summarize` of one chunk's (graph, verdicts) pairs.  The facts of
    every graph join one `_Chunk` before any verdict is made."""
    chunk = _Chunk()
    facts = [GraphFacts(g, chunk) for _, g in pairs]
    return summarize(
        [
            (g, [check_theorem(g, tid, gid, f) for tid in theorem_ids])
            for (gid, g), f in zip(pairs, facts)
        ]
    )


def conjecture_scan(max_n: int) -> dict:
    """Connected graphs with 2 <= n <= max_n and nonnegative curvature (the
    applicable T1.3 verdicts of a scan), counted by minimum degree delta and
    edge-connectivity lambda, as `curvlab conjecture` prints them.

    `boundary_cases` lists the graphs with lambda = delta - 1; none are
    known, and finding one would refute the strengthening of the
    connectivity bound to delta for finite graphs.  Exploratory: no
    pass/fail semantics.
    """
    if not 1 <= max_n <= MAX_ENUMERATION_N:
        raise GraphError(f"conjecture scan needs max_n in 1..{MAX_ENUMERATION_N}, got {max_n}")
    table: dict[str, int] = {}
    boundary = []

    def take(rows: list[tuple[str, int, int, int]]) -> None:
        for gid, n, delta, lam in rows:
            key = f"delta={delta},lambda={lam}"
            table[key] = table.get(key, 0) + 1
            if lam == delta - 1:
                boundary.append({"graph": gid, "n": n, "delta": delta, "lambda": lam})

    # a single vertex has lambda = 0 by convention: trivial
    graphs = ((gid, g) for gid, g in connected_graphs_upto(max_n) if g.n >= 2)
    scan(graphs, ("T1.3",), _t13_rows, take)
    return {
        "max_n": max_n,
        "nonnegative_curvature_graphs": sum(table.values()),
        "table": table,
        "boundary_cases": boundary,
    }


def _t13_rows(pairs: list[tuple[Graph, list[TheoremVerdict]]]) -> list[tuple[str, int, int, int]]:
    """(gid, n, delta, lambda) of each graph whose one verdict, T1.3's, is
    applicable: what `conjecture_scan` tabulates."""
    return [
        (t13.graph_id, g.n, t13.evidence["delta"], t13.evidence["lambda"])
        for g, [t13] in pairs
        if t13.applicable
    ]


def beta1_search() -> list[dict]:
    """Cubic amply regular graphs with beta = 1 whose connectivity drops
    below the degree.

    Examines the spliced double-Petersen construction (the constructive
    witness that star-cut rigidity fails at beta = 1) and the Petersen
    graph, and returns those with lambda < d, as `curvlab beta1-search`
    prints them.
    """
    findings = []
    for gid in ("beta1_counterexample", "petersen"):
        g = generate(gid)
        reg = detect_regularity(g)
        if not reg.is_amply_regular or reg.beta != 1:
            continue
        lam, _ = edge_connectivity(g)
        if lam < reg.d:
            findings.append(
                {
                    "graph": gid,
                    "n": g.n,
                    "d": reg.d,
                    "alpha": reg.alpha,
                    "beta": reg.beta,
                    "lambda": lam,
                    "girth": girth(g),
                }
            )
    return findings
