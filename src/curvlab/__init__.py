"""Curvature, connectivity, and matching laboratory for locally finite graphs."""

from .curvature import (
    CurvatureReport,
    bakry_emery_curvature,
    bakry_emery_curvature_bisect,
    check_cd,
    curvature_form,
    graph_curvature,
    min_eigenpair,
    schur_reduce,
)
from .cuts import (
    CutCertificate,
    classify_min_cuts,
    edge_connectivity,
    min_cut_bruteforce,
    restricted_edge_connectivity,
)
from .enumeration import all_graphs, connected_graphs, connected_graphs_upto, is_isomorphic
from .formats import parse_edge_list, parse_graph6, write_edge_list, write_graph6
from .generators import FamilySpec, generate, parse_family_spec
from .graph import (
    BallMap,
    Graph,
    GraphError,
    NeighborOracle,
    ball,
    from_edge_list,
)
from .local_ops import gamma2_at, gamma_at, laplacian_at, ph_sides
from .matching import Matching, matching_bruteforce, maximum_matching, tutte_violation
from .regularity import (
    RegularityClass,
    arg_curvature_formula,
    bcn_check,
    corollary2_gap,
    detect_regularity,
    lemma1_gap,
    local_graph_spectrum,
)
from .reports import Report, emit_report, render
from .theorems import (
    TheoremVerdict,
    beta1_search,
    check_theorem,
    conjecture_scan,
    corpus,
    scan,
)

__version__ = "0.1.0"
