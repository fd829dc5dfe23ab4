"""Output checks for `curvlab check` reports, computed apart from curvlab.

Every check takes the parsed JSON report (a list of verdict records) and
the workload's `Corpus`, and returns a list of problems, empty when the
report passes.  The expected values come from networkx, from OEIS counts
and from curvature values in the literature; certificates are re-verified
on the benchmark's own copy of each graph.  No check compares against a
saved copy of an earlier report.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import networkx as nx

from workloads import Corpus

THEOREM_IDS = ("T1.1", "T1.2", "T1.3", "T1.4", "C1.6", "T2.4", "T2.5")
# OEIS A001349: connected graphs on n = 1, 2, ... unlabelled vertices
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117, 261080)
K_TOL = 1e-8
SUMMARY = re.compile(
    r"checked (\d+) verdicts on (\d+) graphs: (\d+) applicable, (\d+) held, (\d+) violations"
)


def check_exit(returncode: int) -> list[str]:
    return [] if returncode == 0 else [f"exit code {returncode}, expected 0"]


def check_coverage(records: list[dict], corpus: Corpus) -> list[str]:
    """One verdict per checker for every corpus graph, in corpus order."""
    expected = [(gid, tid) for gid in corpus.ids for tid in THEOREM_IDS]
    got = [(r["graph"], r["theorem"]) for r in records]
    if got == expected:
        return []
    missing = set(expected) - set(got)
    extra = set(got) - set(expected)
    return [
        f"report has {len(got)} verdicts for {len(expected)} expected; "
        f"missing {sorted(missing)[:3]}, unexpected {sorted(extra)[:3]}"
        + ("" if missing or extra else ", order differs")
    ]


def check_summary(records: list[dict], stderr: str) -> list[str]:
    """The stderr summary line agrees with the report."""
    m = SUMMARY.search(stderr)
    if m is None:
        return ["no summary line on stderr"]
    checked, graphs, applicable, held, violations = map(int, m.groups())
    want = (
        len(records),
        len({r["graph"] for r in records}),
        sum(1 for r in records if r["applicable"]),
        sum(1 for r in records if r["applicable"] and r["holds"]),
        sum(1 for r in records if r["applicable"] and r["holds"] is False),
    )
    got = (checked, graphs, applicable, held, violations)
    return [] if got == want else [f"summary line reads {got}, report gives {want}"]


def check_holds(records: list[dict]) -> list[str]:
    """Every applicable checker holds: these are theorems."""
    return [
        f"{r['theorem']} on {r['graph']}: applicable but holds={r['holds']}"
        for r in records
        if r["applicable"] and r["holds"] is not True
    ]


def check_graph_counts(records: list[dict], max_n: int) -> list[str]:
    """Connected graphs per order, from the exhaustive ids, against A001349."""
    per_n = Counter()
    for gid in {r["graph"] for r in records}:
        m = re.fullmatch(r"n(\d+)#\d+", gid)
        if m is None:
            return [f"graph id {gid!r} is not of the form n<N>#<i>"]
        per_n[int(m.group(1))] += 1
    got = tuple(per_n[n] for n in range(1, max(max_n, *per_n, 1) + 1))
    want = A001349[:max_n]
    return [] if got == want else [f"connected graphs per n {got}, OEIS A001349 {want}"]


def check_enumeration(corpus: Corpus) -> list[str]:
    """curvlab's enumeration is the atlas's connected graphs, one per class."""
    atlas = connected_atlas(corpus.max_n)
    buckets: dict[tuple, list[nx.Graph]] = {}
    for g in atlas:
        buckets.setdefault(_iso_key(g), []).append(g)
    problems = []
    for gid in corpus.ids:
        g = corpus.graphs[gid]
        bucket = buckets.get(_iso_key(g), [])
        match = next((j for j, h in enumerate(bucket) if nx.is_isomorphic(g, h)), None)
        if match is None:
            problems.append(f"enumerated graph {gid} is missing from the atlas or repeated")
        else:
            bucket.pop(match)
    left = sum(len(b) for b in buckets.values())
    if left:
        problems.append(f"{left} connected atlas graphs are missing from the enumeration")
    return problems


def check_applicable(records: list[dict], corpus: Corpus) -> list[str]:
    """Applicability of T1.2, T1.4 and C1.6 against an independent regular
    and amply regular test: per order over the atlas for the exhaustive
    workload, per graph for the others."""
    got = {(r["graph"], r["theorem"]): r["applicable"] for r in records}
    if corpus.max_n:
        want_n = Counter()
        for g in connected_atlas(corpus.max_n):
            for tid, ok in independent_applicability(g).items():
                want_n[tid, len(g)] += ok
        got_n = Counter()
        for (gid, tid), ok in got.items():
            if tid in ("T1.2", "T1.4", "C1.6") and ok:
                got_n[tid, int(gid[1:].split("#")[0])] += 1
        return [
            f"{tid} applicable on {got_n[tid, n]} graphs with n={n}, atlas gives {want_n[tid, n]}"
            for tid in ("T1.2", "T1.4", "C1.6")
            for n in range(1, corpus.max_n + 1)
            if got_n[tid, n] != want_n[tid, n]
        ]
    problems = []
    for gid in corpus.ids:
        for tid, ok in independent_applicability(corpus.graphs[gid]).items():
            if got.get((gid, tid)) != ok:
                problems.append(f"{tid} on {gid}: applicable={got.get((gid, tid))}, expected {ok}")
    return problems


def check_lambda(records: list[dict], corpus: Corpus) -> list[str]:
    """Every reported lambda is networkx's edge connectivity of the graph."""
    problems, cache = [], {}
    for r in records:
        lam = r["evidence"].get("lambda")
        if lam is None:
            continue
        gid = r["graph"]
        if gid not in cache:
            g = corpus.graphs[gid]
            cache[gid] = nx.edge_connectivity(g) if len(g) > 1 else 0
        if lam != cache[gid]:
            problems.append(f"{r['theorem']} on {gid}: lambda {lam}, networkx gives {cache[gid]}")
    return problems


def check_cuts(records: list[dict], corpus: Corpus) -> list[str]:
    """Every cut certificate cuts exactly `value` edges of the graph, and a
    minimum cut's value is the reported lambda."""
    problems = []
    for r in records:
        ev = r["evidence"]
        for key in ("cut", "non_star_cut"):
            cut = ev.get(key)
            if cut is None:
                continue
            where = f"{r['theorem']} {key} on {r['graph']}"
            g = corpus.graphs[r["graph"]]
            side = set(cut["side_L"])
            if not side or not side < set(g):
                problems.append(f"{where}: side_L is not a proper nonempty vertex subset")
                continue
            crossing = {frozenset(e) for e in g.edges() if (e[0] in side) != (e[1] in side)}
            listed = [frozenset(e) for e in cut["cut_edges"]]
            if set(listed) != crossing or len(listed) != len(crossing):
                problems.append(f"{where}: cut_edges are not the edges leaving side_L")
            if cut["value"] != len(crossing):
                problems.append(f"{where}: value {cut['value']}, side_L cuts {len(crossing)} edges")
            if ev.get("lambda") is not None and cut["value"] != ev["lambda"]:
                problems.append(f"{where}: value {cut['value']} differs from lambda {ev['lambda']}")
    return problems


def check_matchings(records: list[dict], corpus: Corpus) -> list[str]:
    """Every reported matching is a perfect matching of the graph."""
    problems = []
    for r in records:
        m = r["evidence"].get("matching")
        if m is None:
            continue
        where = f"{r['theorem']} on {r['graph']}"
        g = corpus.graphs[r["graph"]]
        covered = [v for e in m["edges"] for v in e]
        if not all(g.has_edge(u, v) for u, v in m["edges"]):
            problems.append(f"{where}: matching uses a non-edge")
        elif len(covered) != len(set(covered)) or set(covered) != set(g):
            problems.append(f"{where}: matching is not perfect")
        elif m["is_perfect"] is not True:
            problems.append(f"{where}: perfect matching reported as not perfect")
    return problems


def check_curvature(records: list[dict], corpus: Corpus) -> list[str]:
    """Curvature K matches the literature wherever a value is known."""
    reported: dict[str, list[float]] = {}
    for r in records:
        k = r["evidence"].get("K")
        if k is not None:
            reported.setdefault(r["graph"], []).append(float(k))
    problems = []
    for gid, want in corpus.expected_K.items():
        values = reported.get(gid)
        if not values:
            problems.append(f"{gid}: no curvature reported, literature gives {want}")
        elif any(not math.isclose(k, want, rel_tol=0.0, abs_tol=K_TOL) for k in values):
            problems.append(f"{gid}: K {values}, literature gives {want}")
    return problems


def check_t14_lambda(records: list[dict], corpus: Corpus) -> list[str]:
    """T1.4 reports lambda = d on every applicable graph."""
    problems = []
    for r in records:
        if r["theorem"] != "T1.4" or not r["applicable"]:
            continue
        g = corpus.graphs[r["graph"]]
        d = g.degree(next(iter(g)))
        ev = r["evidence"]
        if ev.get("lambda") != d or ev.get("d") != d:
            problems.append(
                f"T1.4 on {r['graph']}: lambda {ev.get('lambda')} and d {ev.get('d')}, "
                f"degree is {d}"
            )
    return problems


def run_checks(records: list[dict], corpus: Corpus, stderr: str) -> dict[str, list[str]]:
    """All report checks by name; a name maps to its problems."""
    results = {
        "coverage": check_coverage(records, corpus),
        "summary": check_summary(records, stderr),
        "holds": check_holds(records),
    }
    if results["coverage"]:
        return results  # the per-graph checks below need every graph present
    if corpus.max_n:
        results["graph_counts"] = check_graph_counts(records, corpus.max_n)
        results["enumeration"] = check_enumeration(corpus)
    results["applicable"] = check_applicable(records, corpus)
    results["lambda"] = check_lambda(records, corpus)
    results["cuts"] = check_cuts(records, corpus)
    results["matchings"] = check_matchings(records, corpus)
    results["curvature"] = check_curvature(records, corpus)
    results["t14_lambda"] = check_t14_lambda(records, corpus)
    return results


# --- independent graph tests


def connected_atlas(max_n: int) -> list[nx.Graph]:
    return [
        g
        for g in nx.graph_atlas_g()
        if 1 <= len(g) <= max_n and nx.is_connected(g)
    ]


def _iso_key(g: nx.Graph) -> tuple:
    return (
        len(g),
        g.number_of_edges(),
        tuple(sorted(d for _, d in g.degree())),
        tuple(sorted(nx.triangles(g).values())),
    )


def amply_parameters(g: nx.Graph) -> tuple[int, int, int] | None:
    """(d, alpha, beta) when g is amply regular, else None.

    Amply regular as curvlab defines it: d-regular with d >= 1, every
    adjacent pair with alpha common neighbours, every pair at distance two
    with beta common neighbours, and at least one pair at distance two (so
    complete graphs are excluded).
    """
    degrees = {deg for _, deg in g.degree()}
    if len(degrees) != 1 or 0 in degrees:
        return None
    (d,) = degrees
    nbrs = {v: set(g[v]) for v in g}
    alphas = {len(nbrs[u] & nbrs[v]) for u, v in g.edges()}
    betas = set()
    for u in g:
        two = {w for v in nbrs[u] for w in nbrs[v]} - nbrs[u] - {u}
        betas.update(len(nbrs[u] & nbrs[w]) for w in two)
    if len(alphas) != 1 or len(betas) != 1:
        return None
    return d, alphas.pop(), betas.pop()


def independent_applicability(g: nx.Graph) -> dict[str, bool]:
    """Whether the hypotheses of T1.2, T1.4 and C1.6 hold on a connected graph."""
    n = len(g)
    degrees = {deg for _, deg in g.degree()}
    regular_even = len(degrees) == 1 and n % 2 == 0
    t12 = regular_even and nx.edge_connectivity(g) >= next(iter(degrees)) - 1
    amply = amply_parameters(g)
    beta2 = amply is not None and amply[2] >= 2
    return {"T1.2": t12, "T1.4": beta2, "C1.6": beta2 and n % 2 == 0}
