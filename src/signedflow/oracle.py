"""Brute-force ground truth for flow counting.

Exhaustive depth-first enumeration with per-vertex pruning; exactness over
speed, with a search-size guard instead of silent long runs.  Counts are
plain Python ints, so they never overflow.
"""

from __future__ import annotations

from .graph import Edge, Orientation, SignedGraph, default_orientation, drop_edgeless_vertices
from .groups import FiniteAbelianGroup, GroupElement

DEFAULT_BUDGET = 10**8

FlowAssignment = dict[int, GroupElement]


class BudgetExceededError(Exception):
    """The estimated search size exceeds the leaf-visit budget."""

    def __init__(self, message: str, estimated_leaves: int | None = None):
        super().__init__(message)
        self.estimated_leaves = estimated_leaves


def _check_budget(leaves: int, budget: int) -> None:
    if leaves > budget:
        raise BudgetExceededError(
            f"estimated search size {leaves} leaf visits exceeds budget {budget}",
            estimated_leaves=leaves,
        )


def _completion_schedule(g: SignedGraph) -> list[tuple[int, ...]]:
    """For each edge id, the vertices whose incident edges are then all assigned."""
    last = [-1] * g.num_vertices
    for i, e in enumerate(g.edges):
        last[e.u] = max(last[e.u], i)
        last[e.v] = max(last[e.v], i)
    checks: list[list[int]] = [[] for _ in range(g.num_edges)]
    for v, i in enumerate(last):
        if i >= 0:
            checks[i].append(v)
    return [tuple(c) for c in checks]


def verify_flow(
    g: SignedGraph,
    tau: Orientation,
    gamma: FiniteAbelianGroup,
    phi: FlowAssignment,
) -> bool:
    """Whether phi satisfies Kirchhoff's law at every vertex.

    At each vertex the tau-weighted values of all incident half-edges must
    sum to zero; a loop contributes both of its half-edges.  The nowhere-zero
    condition is not checked here.
    """
    if set(phi) != set(range(g.num_edges)):
        raise ValueError("flow assignment must cover every edge id exactly")
    if len(tau.taus) != g.num_edges:
        raise ValueError("orientation does not match the graph's edge count")
    sums = [gamma.zero()] * g.num_vertices
    for i, e in enumerate(g.edges):
        value = phi[i]
        t0, t1 = tau.taus[i]
        sums[e.u] = gamma.add(sums[e.u], value if t0 == 1 else gamma.negate(value))
        sums[e.v] = gamma.add(sums[e.v], value if t1 == 1 else gamma.negate(value))
    return all(not any(s) for s in sums)


def _count_flows(
    g: SignedGraph, tau: Orientation, gamma: FiniteAbelianGroup, values: list[int]
) -> int:
    """Number of assignments of ``values`` to the edges of g that satisfy
    Kirchhoff's law at every vertex; the oracle's only enumerator.

    ``values`` are element indices of ``gamma`` (see ``index_table``) and may
    repeat.  Edges are assigned in id order; a branch is cut as soon as every
    edge at some vertex has a value and its sum is nonzero.  Row s of the
    addition table is built the first time a vertex sum s is extended, so
    table work never outgrows the search.
    """
    m = g.num_edges
    if m == 0:
        return 1
    scaled: dict[int, list[int]] = {}

    def times(k: int) -> list[int]:
        """Index of k * x for every value x."""
        if k not in scaled:
            table = gamma.index_table(0, k)
            scaled[k] = [table[x] for x in values]
        return scaled[k]

    # per value, what the edge adds at u (and at v); a loop adds tau0*x + tau1*x
    # at its one vertex: 0 if positive, +-2x if negative
    plan = [
        (e.u, times(t0 + t1), None) if e.is_loop()
        else (e.u, list(zip(times(t0), times(t1))), e.v)
        for e, (t0, t1) in zip(g.edges, tau.taus)
    ]
    checks = _completion_schedule(g)
    # every row refers to these int objects rather than holding its own copies
    ids = list(range(gamma.order))
    rows: list[list[int] | None] = [None] * gamma.order
    sums = [0] * g.num_vertices

    def row(s: int) -> list[int]:
        rows[s] = [ids[x] for x in gamma.index_table(s, 1)]
        return rows[s]

    def rec(i: int) -> int:
        if i == m:
            return 1
        u, step, v = plan[i]
        chk = checks[i]
        su = sums[u]
        row_u = rows[su] or row(su)
        total = 0
        if v is None:
            for a in step:
                sums[u] = row_u[a]
                ok = True
                for w in chk:
                    if sums[w]:
                        ok = False
                        break
                if ok:
                    total += rec(i + 1)
        else:
            sv = sums[v]
            row_v = rows[sv] or row(sv)
            for a, b in step:
                sums[u] = row_u[a]
                sums[v] = row_v[b]
                ok = True
                for w in chk:
                    if sums[w]:
                        ok = False
                        break
                if ok:
                    total += rec(i + 1)
            sums[v] = sv
        sums[u] = su
        return total

    return rec(0)


def count_group_flows(
    g: SignedGraph,
    gamma: FiniteAbelianGroup,
    *,
    tau: Orientation | None = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of nowhere-zero flows with values in ``gamma``.

    Enumerates all (order-1)^m nowhere-zero assignments in edge-id order
    with per-vertex pruning.  The count does not depend on the orientation;
    ``tau`` exists so tests can check exactly that.  Edgeless vertices are
    dropped first, so the search never holds a list per declared vertex.
    """
    if tau is None:
        tau = default_orientation(g)
    if g.num_edges == 0:
        return 1
    _check_budget((gamma.order - 1) ** g.num_edges, budget)
    return _count_flows(drop_edgeless_vertices(g), tau, gamma, list(range(1, gamma.order)))


def count_integer_nflows(g: SignedGraph, n: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of Z-valued flows using only values k with 0 < |k| < n.

    Counted as flows in Z_N with values +-1..+-(n-1) mod N, where
    N = (n-1) * (largest half-edge degree) + 1: every vertex sum s has
    |s| <= (n-1) * (half-edge degree) < N, so s = 0 exactly when s = 0 mod N.
    Edgeless vertices are dropped first, as in :func:`count_group_flows`.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if g.num_edges == 0:
        return 1
    _check_budget((2 * n - 2) ** g.num_edges, budget)
    g = drop_edgeless_vertices(g)
    half_degree = [0] * g.num_vertices
    for e in g.edges:
        half_degree[e.u] += 1
        half_degree[e.v] += 1
    order = (n - 1) * max(half_degree) + 1
    values = [k % order for a in range(1, n) for k in (a, -a)]
    tau = default_orientation(g)
    return _count_flows(g, tau, FiniteAbelianGroup((order,)), values)


def count_double_sum_solutions(
    t: int, gamma: FiniteAbelianGroup, *, budget: int = DEFAULT_BUDGET
) -> int:
    """Solutions of 2*x_1 + ... + 2*x_t = 0 with every x_i nonzero, by
    enumeration; t = 0 has the single empty solution.

    These are the nowhere-zero flows on one vertex with t negative loops,
    each of which adds +-2*x_i there.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return count_group_flows(SignedGraph(1, (Edge(0, 0, -1),) * t), gamma, budget=budget)
