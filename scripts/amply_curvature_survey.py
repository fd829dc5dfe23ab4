#!/usr/bin/env python3
"""Survey curvature signs over the amply regular corpus.

Exploratory: records (parameters, curvature, sign) for each corpus graph.
No amply regular graph with beta > 1 and non-positive curvature is known;
this table is data, not a pass/fail check.

Usage: python scripts/amply_curvature_survey.py [--csv out.csv]
"""

import argparse
import csv
import os
import sys

# one BLAS thread unless the caller has set it, as the curvlab command line
# runs it: every matrix the kernel hands BLAS is one vertex's form, too small
# for OpenBLAS's thread pool to gain anything.  It must precede numpy's import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from curvlab.curvature import graph_curvature  # noqa: E402
from curvlab.generators import generate  # noqa: E402
from curvlab.regularity import detect_regularity  # noqa: E402
from curvlab.theorems import CURVATURE_TOL, nonnegatively_curved  # noqa: E402

CORPUS = [
    "cycle:4",
    "kbip:3,3",
    "kbip:4,4",
    "hypercube:2",
    "hypercube:3",
    "hypercube:4",
    "hypercube:5",
    "hypercube:6",
    "triangular:5",
    "triangular:6",
    "triangular:7",
    "hamming2:3",
    "hamming2:4",
    "hamming2:5",
    "paley:13",
    "paley:17",
    "petersen",
    "beta1",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", help="also write rows to this CSV path")
    args = parser.parse_args()

    rows = []
    for spec in CORPUS:
        g = generate(spec)
        reg = detect_regularity(g)
        if not reg.is_amply_regular:
            continue
        [(value, _)] = graph_curvature([g])
        # "-" exactly where the checkers' sign rule says negative
        sign = "+" if value > CURVATURE_TOL else ("0" if nonnegatively_curved(value) else "-")
        rows.append(
            {
                "graph": spec,
                "n": g.n,
                "d": reg.d,
                "alpha": reg.alpha,
                "beta": reg.beta,
                "K": round(value, 9),
                "sign": sign,
            }
        )

    width = max(len(r["graph"]) for r in rows)
    print(f"{'graph':<{width}}  {'n':>3} {'d':>2} {'a':>2} {'b':>2}  {'K':>10}  sign")
    for r in rows:
        print(
            f"{r['graph']:<{width}}  {r['n']:>3} {r['d']:>2} {r['alpha']:>2} "
            f"{r['beta']:>2}  {r['K']:>10}  {r['sign']}"
        )
    beta_gt1 = [r for r in rows if r["beta"] > 1]
    nonpos = [r for r in beta_gt1 if r["sign"] != "+"]
    print(
        f"\n{len(beta_gt1)} graphs with beta > 1; "
        f"{len(nonpos)} of them with non-positive curvature"
    )

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
