"""Ground truth for flow counting, independent of deletion-contraction.

One enumerator counts assignments edge by edge with a frontier transfer
matrix: partial assignments that leave the same sums at the vertices still
open are counted together, and the last edge at a vertex takes only the
values that make its sum zero.  Exactness over speed, with a search-size
guard instead of silent long runs.  Counts are plain Python ints, so they
never overflow.
"""

from __future__ import annotations

from collections import Counter

from .graph import (
    Edge,
    Orientation,
    SignedGraph,
    default_orientation,
    drop_edgeless_vertices,
    frontier_order,
)
from .groups import FiniteAbelianGroup, GroupElement

DEFAULT_BUDGET = 10**8

FlowAssignment = dict[int, GroupElement]


class BudgetExceededError(Exception):
    """The number of nowhere-zero assignments to search exceeds the budget."""

    def __init__(self, message: str, estimated_leaves: int | None = None):
        super().__init__(message)
        self.estimated_leaves = estimated_leaves


def _check_budget(leaves: int, budget: int) -> None:
    if leaves > budget:
        raise BudgetExceededError(
            f"estimated search size {leaves} nowhere-zero assignments exceeds budget {budget}",
            estimated_leaves=leaves,
        )


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
    repeat.  A frontier transfer-matrix count: edges are taken in
    :func:`frontier_order`, and a vertex is open from its first edge to its
    last.  A state holds the sums at the open vertices and maps to the
    number of partial assignments that reach it.  The edge that closes a
    vertex is forced: only values whose contribution there negates the
    vertex's sum survive, and they are looked up, not looped over.

    A state is one int whose base-``order`` digits are the sums, one digit
    slot per open vertex.  A closed vertex's digit is 0 in every surviving
    state, so its slot passes unchanged to the next vertex opened.  Row s of
    the addition table is built the first time a sum s is extended.
    """
    r = gamma.order
    scaled: dict[int, list[int]] = {}

    def times(k: int) -> list[int]:
        """Index of k * x for every value x."""
        if k not in scaled:
            table = gamma.index_table(0, k)
            scaled[k] = [table[x] for x in values]
        return scaled[k]

    # every row refers to these int objects rather than holding its own copies
    ids = list(range(r))
    rows: list[list[int] | None] = [None] * r

    def row(s: int) -> list[int]:
        rows[s] = [ids[x] for x in gamma.index_table(s, 1)]
        return rows[s]

    neg = gamma.index_table(0, -1)
    order = frontier_order(g)
    last = [-1] * g.num_vertices
    for pos, i in enumerate(order):
        e = g.edges[i]
        last[e.u] = last[e.v] = pos
    slot = [-1] * g.num_vertices
    free: list[int] = []
    width = 0
    states = {0: 1}
    for pos, i in enumerate(order):
        (u, v, _), (t0, t1) = g.edges[i], tau.taus[i]
        for w in (u, v):
            if slot[w] < 0:
                if free:
                    slot[w] = free.pop()
                else:
                    slot[w] = width
                    width += 1
        pu, pv = r ** slot[u], r ** slot[v]
        closes_u, closes_v = last[u] == pos, last[v] == pos
        if closes_u:
            free.append(slot[u])
        if closes_v and v != u:
            free.append(slot[v])
        new: dict[int, int] = {}
        get = new.get
        if u == v:
            # a loop adds tau0*x + tau1*x at its one vertex
            steps = Counter(times(t0 + t1))
            if closes_u:
                for s, c in states.items():
                    su = s // pu % r
                    k = steps.get(neg[su])
                    if k:
                        key = s - su * pu
                        new[key] = get(key, 0) + c * k
            else:
                for s, c in states.items():
                    su = s // pu % r
                    row_u = rows[su] or row(su)
                    base = s - su * pu
                    for a, k in steps.items():
                        key = base + row_u[a] * pu
                        new[key] = get(key, 0) + c * k
        elif closes_u and closes_v:
            pairs = Counter(zip(times(t0), times(t1)))
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                k = pairs.get((neg[su], neg[sv]))
                if k:
                    key = s - su * pu - sv * pv
                    new[key] = get(key, 0) + c * k
        elif closes_u or closes_v:
            # swap the ends so that u closes and v stays open
            if closes_v:
                pu, pv, t0, t1 = pv, pu, t1, t0
            forced: dict[int, list[tuple[int, int]]] = {}
            for (a, b), k in Counter(zip(times(t0), times(t1))).items():
                forced.setdefault(a, []).append((b, k))
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                steps_v = forced.get(neg[su])
                if steps_v:
                    row_v = rows[sv] or row(sv)
                    base = s - su * pu - sv * pv
                    for b, k in steps_v:
                        key = base + row_v[b] * pv
                        new[key] = get(key, 0) + c * k
        else:
            pair_items = list(Counter(zip(times(t0), times(t1))).items())
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                row_u = rows[su] or row(su)
                row_v = rows[sv] or row(sv)
                base = s - su * pu - sv * pv
                for (a, b), k in pair_items:
                    key = base + row_u[a] * pu + row_v[b] * pv
                    new[key] = get(key, 0) + c * k
        states = new
    return states.get(0, 0)


def count_group_flows(
    g: SignedGraph,
    gamma: FiniteAbelianGroup,
    *,
    tau: Orientation | None = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of nowhere-zero flows with values in ``gamma``.

    Counts all (order-1)^m nowhere-zero assignments with the frontier
    transfer matrix of ``_count_flows``; the budget bounds (order-1)^m.  The
    count does not depend on the orientation; ``tau`` exists so tests can
    check exactly that.  Edgeless vertices are dropped first, so the count
    never holds a list per declared vertex.
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
