"""Acceptance suite: one test per criterion, one printed line per criterion.

Each criterion pins its tolerance; shared heavy computations (the
exhaustive n <= 8 sweep) are cached at module scope so criteria can run
independently or together.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import pytest

from curvlab.curvature import bakry_emery_curvature, check_cd, graph_curvature
from curvlab.cuts import edge_connectivity, classify_min_cuts, min_cut_bruteforce
from curvlab.enumeration import connected_graphs_upto
from curvlab.formats import parse_graph6, write_graph6
from curvlab.generators import (
    beta1_counterexample,
    complete_graph,
    cycle_graph,
    hypercube,
    integer_line,
    line_times_complete,
    petersen,
)
from curvlab.graph import ball, is_connected
from curvlab.local_ops import gamma_at, gamma2_at, laplacian_at, ph_sides
from curvlab.matching import matching_bruteforce, maximum_matching, tutte_violation
from curvlab.regularity import (
    arg_curvature_formula,
    contains_induced_diamond,
    corollary2_gap,
    detect_regularity,
    diamond_bruteforce,
    lemma1_gap,
    local_graph_spectrum,
)
from curvlab.reports import render
from curvlab.theorems import beta1_search, corpus
from conftest import amply_corpus, mixed_corpus, partition_minima, random_graph, scan_pairs

TOL = 1e-8


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {status} - {detail}")


@lru_cache(maxsize=1)
def exhaustive_sweep():
    """Per-graph data over all connected graphs on <= 8 vertices:
    (graph_id, graph, K_BE or None when some vertex is below -TOL)."""
    graphs = list(connected_graphs_upto(8))
    curvatures = graph_curvature([g for _, g in graphs])
    return [
        (gid, g, kmin if kmin >= -TOL else None)
        for (gid, g), (kmin, _) in zip(graphs, curvatures)
    ]


def test_criterion_01_curvature_ground_truths():
    worst = 0.0
    for x in (0, 3, -7):
        worst = max(worst, abs(bakry_emery_curvature(integer_line(), x).K))
    for k in range(1, 6):
        o = line_times_complete(k)
        for x in ((0, 0), (2, k - 1)):
            worst = max(worst, abs(bakry_emery_curvature(o, x).K))
    assert worst <= TOL, worst
    cube_values = []
    for d in range(1, 7):
        [(value, _)] = graph_curvature([hypercube(d)])
        assert value > 0
        cube_values.append(value)
        assert value == pytest.approx(2.0, abs=TOL)
    report(
        1,
        True,
        f"line and ZxK_k curvature 0 within {worst:.1e}; "
        f"Q_1..Q_6 curvature positive, all equal 2 within 1e-8",
    )


def test_criterion_02_closed_form_cross_check():
    worst = 0.0
    where = ""
    for name, g in sorted(amply_corpus().items()):
        reg = detect_regularity(g)
        assert reg.is_amply_regular, name
        for x, spectrum in enumerate(local_graph_spectrum(g)):
            formula = arg_curvature_formula(reg.d, reg.alpha, reg.beta, spectrum)
            diff = abs(formula - bakry_emery_curvature(g, x).K)
            if diff > worst:
                worst, where = diff, f"{name}:{x}"
    ok = worst <= 1e-8
    report(2, ok, f"closed form vs eigensolver, max |diff| {worst:.2e} at {where}")
    assert ok


def test_criterion_03_two_sphere_identity():
    rng = random.Random(530)
    graphs = []
    while len(graphs) < 50:
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.2, 0.35, 0.5, 0.7]))
        if g.m:
            graphs.append(g)
    worst = 0.0
    for g in graphs:
        for _ in range(20):
            f = {v: rng.uniform(-2.0, 2.0) for v in range(g.n)}
            for x in range(g.n):
                lhs, _ = ph_sides(g, f, x, 0.0)
                d = g.degree(x)
                predicted = (
                    lhs
                    + ((3.0 - d) / 2.0) * gamma_at(g, f, f, x)
                    + 0.5 * laplacian_at(g, f, x) ** 2
                )
                actual = gamma2_at(g, f, f, x)
                rel = abs(actual - predicted) / (1.0 + abs(actual))
                worst = max(worst, rel)
    ok = worst <= 1e-9
    report(3, ok, f"iterated-gradient identity on 50 graphs x 20 f, worst rel err {worst:.2e}")
    assert ok


def test_criterion_04_duality_and_witness():
    checked = 0
    for name, g in sorted(mixed_corpus().items()):
        for x in range(g.n):
            rep = bakry_emery_curvature(g, x)
            holds_below, _ = check_cd(g, x, math.inf, rep.K - 1e-6)
            assert holds_below, (name, x)
            holds_above, witness = check_cd(g, x, math.inf, rep.K + 1e-6)
            assert not holds_above, (name, x)
            lhs, rhs = ph_sides(g, witness, x, rep.K + 1e-6)
            assert lhs < rhs, (name, x)
            checked += 1
    report(4, True, f"CD holds at K-1e-6 and witness violates at K+1e-6 on {checked} vertices")


def test_criterion_05_connectivity_bound_exhaustive():
    violations = []
    nonneg = 0
    for gid, g, kmin in exhaustive_sweep():
        if kmin is None or g.n < 2:
            continue
        nonneg += 1
        lam, _ = edge_connectivity(g)
        delta = min(g.degree(v) for v in range(g.n))
        if lam < delta - 1:
            violations.append((gid, lam, delta))
    ok = not violations
    report(
        5,
        ok,
        f"all {nonneg} nonneg-curvature connected graphs on <= 8 vertices "
        f"have connectivity >= delta-1; {len(violations)} violations",
    )
    assert ok, violations


def test_criterion_06_matching_theorems():
    failures = []
    checked_t11 = checked_c16 = 0
    named = sorted(mixed_corpus().items())
    swept = [(gid, g, kmin) for gid, g, kmin in exhaustive_sweep()]
    everything = [(gid, g, None) for gid, g in named] + swept
    for gid, g, kmin in everything:
        if g.n % 2 or g.n == 0 or not is_connected(g):
            continue
        reg = detect_regularity(g)
        if reg.is_regular and reg.d > 0:
            k = kmin
            if k is None:
                [(value, _)] = graph_curvature([g])
                k = value if value >= -TOL else None
            if k is not None:
                checked_t11 += 1
                if not maximum_matching(g).is_perfect:
                    failures.append(("T1.1", gid))
        if reg.is_amply_regular and reg.beta >= 2:
            checked_c16 += 1
            if not maximum_matching(g).is_perfect:
                failures.append(("C1.6", gid))
    ok = not failures
    report(
        6,
        ok,
        f"perfect matchings found for {checked_t11} nonneg-curvature regular and "
        f"{checked_c16} amply-regular (beta>=2) even graphs; {len(failures)} failures",
    )
    assert ok, failures


def test_criterion_07_star_cut_rigidity():
    failures = []
    checked = 0
    for name, g in sorted(amply_corpus().items()):
        reg = detect_regularity(g)
        if not (reg.is_amply_regular and reg.beta >= 2):
            continue
        checked += 1
        lam, cert = edge_connectivity(g)
        if lam != reg.d:
            failures.append((name, "lambda", lam, reg.d))
            continue
        quadrangle = g.n == 4 and reg.d == 2
        witness = classify_min_cuts(g, (lam, cert))
        if quadrangle:
            # the quadrangle exception: exhibit its non-star minimum cuts
            value, cuts = min_cut_bruteforce(g)
            non_star = [c for c in cuts if 2 <= len(c.side_L) <= g.n - 2]
            if value != 2 or len(non_star) != 2 or witness is None:
                failures.append((name, "quadrangle-exception"))
        elif witness is not None:
            failures.append((name, "non-star minimum cut", witness))
    ok = not failures
    report(
        7,
        ok,
        f"{checked} amply regular graphs (beta>=2): connectivity = d and min cuts "
        f"are vertex stars except the quadrangle's two exhibited pair cuts",
    )
    assert ok, failures


def test_criterion_08_partition_inequality_exact():
    # the exact minima over every X in S1, every A in S2 and every real eps,
    # at every non-isolated vertex; the package's gaps recount each minimum
    # at a split that attains it
    vertices = masks = loose = 0
    worst_lemma = worst_cor = math.inf
    mismatches = []
    for name, g in sorted(mixed_corpus().items()):
        reg = detect_regularity(g)
        [(_, ks)] = graph_curvature([g])
        for x in range(g.n):
            if not g.adjacency[x]:
                continue
            K = ks[x]
            low = partition_minima(g, x, K, reg)
            vertices += 1
            masks += low.masks
            worst_lemma = min(worst_lemma, low.lemma1)
            _, bmap = ball(g, x)
            if abs(lemma1_gap(g, bmap, low.X, low.eps, K) - low.lemma1) > 1e-10:
                mismatches.append((name, x, "lemma1"))
            if low.corollary2 is not None:
                worst_cor = min(worst_cor, low.corollary2)
                gap = corollary2_gap(g, bmap, reg, low.X2, low.A, K)
                if abs(gap - low.corollary2) > 1e-10:
                    mismatches.append((name, x, "corollary2"))
            # a curvature too large by 1e-3 must break Lemma 1 somewhere
            loose += partition_minima(g, x, K + 1e-3, reg).lemma1 < -1e-9
    ok = worst_lemma >= -1e-9 and worst_cor >= -1e-9 and not mismatches
    report(
        8,
        ok,
        f"partition inequalities at K_BE(x), exact over {masks} sets X (every "
        f"A, every eps) at {vertices} vertices: min gaps {worst_lemma:.2e} (general) / "
        f"{worst_cor:.2e} (edge-regular); {loose} vertices fail at K + 1e-3",
    )
    assert ok, mismatches
    assert (vertices, masks, loose) == (337, 40874, 307)


def test_criterion_09_oracle_equivalences():
    rng = random.Random(909)
    mismatches = []

    cut_checked = 0
    diamond_checked = 0
    for gid, g, _ in exhaustive_sweep():
        if g.n > 7:
            continue
        diamond_checked += 1
        if (contains_induced_diamond(g) is not None) != diamond_bruteforce(g):
            mismatches.append(("diamond", gid))
        if g.n < 2:
            continue
        cut_checked += 1
        if edge_connectivity(g)[0] != min_cut_bruteforce(g)[0]:
            mismatches.append(("cut", gid))
    for _ in range(200):
        g = random_graph(rng, rng.randint(8, 10), rng.choice([0.25, 0.5, 0.75]))
        if not is_connected(g):
            continue
        cut_checked += 1
        if edge_connectivity(g)[0] != min_cut_bruteforce(g)[0]:
            mismatches.append(("cut", g.adjacency))

    match_checked = 0
    while match_checked < 300:
        g = random_graph(rng, rng.randint(1, 13), rng.choice([0.15, 0.3, 0.5]))
        if g.m > 20:
            continue
        match_checked += 1
        if maximum_matching(g).size != matching_bruteforce(g):
            mismatches.append(("matching", g.adjacency))

    tutte_checked = 0
    while tutte_checked < 250:
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6]))
        tutte_checked += 1
        if (tutte_violation(g) is None) != maximum_matching(g).is_perfect:
            mismatches.append(("tutte", g.adjacency))

    for _ in range(250):
        g = random_graph(rng, rng.randint(4, 12), rng.choice([0.25, 0.5, 0.7]))
        diamond_checked += 1
        if (contains_induced_diamond(g) is not None) != diamond_bruteforce(g):
            mismatches.append(("diamond", g.adjacency))

    ok = not mismatches
    report(
        9,
        ok,
        f"oracle agreement: {cut_checked} cut, {match_checked} matching, "
        f"{tutte_checked} tutte, {diamond_checked} diamond comparisons, "
        f"{len(mismatches)} discrepancies",
    )
    assert ok, mismatches[:3]


def test_criterion_10_beta1_boundary():
    findings = beta1_search()
    ok = any(
        f["graph"] == "beta1_counterexample"
        and (f["d"], f["alpha"], f["beta"], f["lambda"]) == (3, 0, 1, 2)
        for f in findings
    )
    g = beta1_counterexample()
    reg = detect_regularity(g)
    ok = ok and (reg.kind, reg.d, reg.alpha, reg.beta) == ("amply_regular", 3, 0, 1)
    ok = ok and edge_connectivity(g)[0] == 2
    report(
        10,
        ok,
        "double-Petersen splice is amply regular (3,0,1) with edge-connectivity 2",
    )
    assert ok


def test_criterion_11_formats_and_determinism():
    graphs = [g for _, g in connected_graphs_upto(7)]
    graphs += [petersen(), hypercube(4), complete_graph(6), cycle_graph(9), beta1_counterexample()]
    assert len(graphs) >= 1000
    bad = 0
    for g in graphs[:1000]:
        line = write_graph6(g)
        back = parse_graph6(line)
        if back != g or write_graph6(back) != line:
            bad += 1

    text = "gen:petersen;hypercube:4;paley:13;cycle:4"
    renders = {
        render([v for _, vs in scan_pairs(corpus(text), ("T1.3", "T1.4", "T2.5")) for v in vs])
        for _ in range(3)
    }
    ok = bad == 0 and len(renders) == 1
    report(
        11,
        ok,
        f"graph6 round-trip byte-identical on 1000 graphs ({bad} failures); "
        f"scan JSON identical across 3 runs",
    )
    assert ok


def test_exhaustive_scan_all_checkers_clean():
    # full-theorem sweep on <= 7 vertices: any applicable-but-failed verdict
    # is an implementation bug by construction
    verdicts = [v for _, vs in scan_pairs(corpus("exhaustive:7")) for v in vs]
    violations = [v for v in verdicts if v.violated]
    ok = not violations
    report(0, ok, f"bonus sweep: {len(verdicts)} verdicts on n<=7, {len(violations)} violations")
    assert ok, violations[:3]
