"""Exact counting of nowhere-zero flows on signed graphs.

The oracle module counts the flows over one group with a frontier transfer
matrix; the engine computes, in one frontier pass over the subset expansion
that deletion-contraction unrolls to, the polynomial family giving the same
counts for every finite abelian group with a fixed 2-rank.

Each public name is imported from its module on first use (PEP 562), so
``import signedflow.cli`` loads only what the command it runs needs: a
``count`` never loads the engine or the polynomial module.
"""

# public name -> the module of this package that defines it
_MODULE_OF = {
    "BudgetExceededError": "values",
    "DEFAULT_BUDGET": "values",
    "Edge": "graph",
    "FiniteAbelianGroup": "groups",
    "Orientation": "graph",
    "Poly": "polynomial",
    "QuasiPolynomialFit": "engine",
    "SignedGraph": "graph",
    "abelian_groups_of_order": "groups",
    "abelian_groups_up_to": "groups",
    "connected_components": "graph",
    "contract_edge": "graph",
    "count_group_flows": "oracle",
    "count_integer_nflows": "oracle",
    "default_orientation": "graph",
    "delete_edge": "graph",
    "double_sum_solutions": "engine",
    "fit_quasipolynomial": "engine",
    "flow_polynomial": "engine",
    "flow_polynomial_family": "engine",
    "graph_fingerprint": "graph",
    "graph_to_text": "graph",
    "group_pairs_same_invariants": "groups",
    "interpolate": "polynomial",
    "is_edge_cut": "graph",
    "make_edge_positive": "graph",
    "nonzero_sum_count": "engine",
    "parse_graph_text": "graph",
    "parse_group_spec": "groups",
    "signatures_equivalent": "graph",
    "switch": "graph",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
