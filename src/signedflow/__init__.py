"""Exact counting of nowhere-zero flows on signed graphs.

The oracle module counts the flows over one group with a frontier transfer
matrix; the engine computes, in one frontier pass over the subset expansion
that deletion-contraction unrolls to, the polynomial family giving the same
counts for every finite abelian group with a fixed 2-rank.
"""

from .engine import (
    QuasiPolynomialFit,
    double_sum_solutions,
    fit_quasipolynomial,
    flow_polynomial,
    flow_polynomial_family,
    nonzero_sum_count,
)
from .graph import (
    Edge,
    Orientation,
    SignedGraph,
    connected_components,
    contract_edge,
    cycle_sign,
    default_orientation,
    delete_edge,
    graph_fingerprint,
    graph_to_text,
    is_edge_cut,
    make_edge_positive,
    parse_graph_text,
    reverse_edge,
    signatures_equivalent,
    switch,
)
from .groups import (
    FiniteAbelianGroup,
    abelian_groups_of_order,
    abelian_groups_up_to,
    group_pairs_same_invariants,
    parse_group_spec,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    count_group_flows,
    count_integer_nflows,
    verify_flow,
)
from .polynomial import Poly, interpolate

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "Edge",
    "FiniteAbelianGroup",
    "Orientation",
    "Poly",
    "QuasiPolynomialFit",
    "SignedGraph",
    "abelian_groups_of_order",
    "abelian_groups_up_to",
    "connected_components",
    "contract_edge",
    "count_group_flows",
    "count_integer_nflows",
    "cycle_sign",
    "default_orientation",
    "delete_edge",
    "double_sum_solutions",
    "fit_quasipolynomial",
    "flow_polynomial",
    "flow_polynomial_family",
    "graph_fingerprint",
    "graph_to_text",
    "group_pairs_same_invariants",
    "interpolate",
    "is_edge_cut",
    "make_edge_positive",
    "nonzero_sum_count",
    "parse_graph_text",
    "parse_group_spec",
    "reverse_edge",
    "signatures_equivalent",
    "switch",
    "verify_flow",
]
