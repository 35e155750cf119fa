"""Ground truth for flow counting, independent of deletion-contraction.

One enumerator counts assignments edge by edge with a frontier transfer
matrix: partial assignments that leave the same sums at the vertices still
open are counted together, and the last edge at a vertex takes only the
values that make its sum zero.  Exactness over speed, with a budget on the
transfer-matrix steps, bounded before the count starts, instead of silent
long runs.  Counts are plain Python ints, so they never overflow.
"""

from __future__ import annotations

from collections import Counter

from .graph import (
    Edge,
    Orientation,
    SignedGraph,
    _as_int,
    default_orientation,
    drop_edgeless_vertices,
    frontier_order,
)
from .groups import FiniteAbelianGroup, GroupElement

DEFAULT_BUDGET = 10**8

FlowAssignment = dict[int, GroupElement]


class BudgetExceededError(Exception):
    """The transfer-matrix steps a count may take exceed the budget."""


def verify_flow(
    g: SignedGraph,
    tau: Orientation,
    gamma: FiniteAbelianGroup,
    phi: FlowAssignment,
) -> bool:
    """Whether phi satisfies Kirchhoff's law at every vertex.

    At each vertex the tau-weighted values of all incident half-edges must
    sum to zero; a loop contributes both of its half-edges.  The nowhere-zero
    condition is not checked here; an orientation that does not fit ``g`` is
    a ``ValueError``.
    """
    if set(phi) != set(range(g.num_edges)):
        raise ValueError("flow assignment must cover every edge id exactly")
    if not tau.satisfies(g):
        raise ValueError("orientation does not fit the graph's edges and signs")
    sums = [gamma.zero()] * g.num_vertices
    for i, e in enumerate(g.edges):
        value = phi[i]
        t0, t1 = tau.taus[i]
        sums[e.u] = gamma.add(sums[e.u], value if t0 == 1 else gamma.negate(value))
        sums[e.v] = gamma.add(sums[e.v], value if t1 == 1 else gamma.negate(value))
    return all(not any(s) for s in sums)


def _count_flows(
    g: SignedGraph, tau: Orientation, gamma: FiniteAbelianGroup, values: tuple[range, ...], budget: int
) -> int:
    """Number of assignments of ``values`` to the edges of g that satisfy
    Kirchhoff's law at every vertex; the oracle's only enumerator.

    ``values`` are ranges of element indices of ``gamma`` (see
    ``index_table``); an index in two ranges is two values.  A frontier
    transfer-matrix count: edges are taken in :func:`frontier_order`, and a
    vertex is open from its first edge to its last.  A state holds the sums
    at the open vertices, as the base-``order`` digits of one int, and maps
    to the number of partial assignments that reach it.  The edge that
    closes a vertex is forced: the value whose contribution there negates
    the vertex's sum is looked up, not looped over.

    Edgeless vertices are dropped first.  Before any table is built, one
    planning pass gives each edge its record: the place values of its ends'
    digit slots (a closed vertex's digit is 0 in every surviving state, so
    its slot passes to the next vertex opened), its tau values and how many
    ends it closes, a closing end first.  The same pass bounds the steps (a
    state extended by a value, or a table entry): 4 * order + len(values)
    for the fixed tables; at each edge, (states before it) * (1 if it
    closes an end, else len(values)), 2 * (order + len(values)) for value
    tables and order per addition-table row, one per sum at an end it
    leaves open.  There are at most min(order^open, previous bound * fanout)
    states.  Past ``budget`` steps, ``BudgetExceededError`` is raised.  The
    count then only reads the records.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    g = drop_edgeless_vertices(g)
    if not g.edges:
        return 1
    r, num_values = gamma.order, sum(map(len, values))
    order = frontier_order(g)
    last = [-1] * g.num_vertices
    for pos, i in enumerate(order):
        e = g.edges[i]
        last[e.u] = last[e.v] = pos
    plan: list[tuple[int, int, int, int, int]] = []
    slot = [-1] * g.num_vertices
    free: list[int] = []
    num_open, steps, bound = 0, 4 * r + num_values, 1
    for pos, i in enumerate(order):
        (u, v, _), (t0, t1) = g.edges[i], tau.taus[i]
        ends = (u,) if u == v else (u, v)
        closes = sum(last[w] == pos for w in ends)
        fanout = 1 if closes else num_values
        steps += bound * fanout + 2 * (r + num_values) + min(bound * (len(ends) - closes), r) * r
        if steps > budget:
            raise BudgetExceededError(
                f"up to {steps} transfer-matrix steps by edge {pos + 1} of {len(order)} "
                f"with {num_open} vertices open exceed budget {budget}"
            )
        for w in ends:
            if slot[w] < 0:
                slot[w] = free.pop() if free else num_open
                num_open += 1
        for w in ends:
            if last[w] == pos:
                free.append(slot[w])
                num_open -= 1
        bound = min(bound * fanout, r**num_open)
        if last[u] != pos:  # v closes, or neither end does
            u, v, t0, t1 = v, u, t1, t0
        plan.append((r ** slot[u], r ** slot[v], t0, t1, closes))

    scaled: dict[int, list[int]] = {}

    def times(k: int) -> list[int]:
        """Index of k * x for every value x."""
        if k not in scaled:
            table = gamma.index_table(0, k)
            scaled[k] = [table[x] for part in values for x in part]
        return scaled[k]

    neg = gamma.index_table(0, -1)
    # every row refers to these int objects rather than holding its own copies
    ids = list(range(r))
    mult = [0] * r
    for p in values:
        mult[p.start : p.stop] = [m + 1 for m in mult[p.start : p.stop]]
    rows: list[list[int] | None] = [None] * r

    def row(s: int) -> list[int]:
        rows[s] = [ids[x] for x in gamma.index_table(s, 1)]
        return rows[s]

    states = {0: 1}
    for pu, pv, t0, t1, closes in plan:
        new: dict[int, int] = {}
        get = new.get
        if pu == pv:
            # a loop adds tau0*x + tau1*x at its one vertex
            adds = Counter(times(t0 + t1))
            if closes:
                for s, c in states.items():
                    su = s // pu % r
                    k = adds.get(neg[su])
                    if k:
                        key = s - su * pu
                        new[key] = get(key, 0) + c * k
            else:
                for s, c in states.items():
                    su = s // pu % r
                    row_u = rows[su] or row(su)
                    base = s - su * pu
                    for a, k in adds.items():
                        key = base + row_u[a] * pu
                        new[key] = get(key, 0) + c * k
        elif closes:
            # u closes: the forced value x has tau0*x = -su; it is
            # mult[x_of[su]] values, and adds tau1*x = b_of[su] at v
            x_of = neg if t0 == 1 else ids
            b_of = neg if t0 == t1 else ids
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                k = mult[x_of[su]]
                # when v closes too, tau1*x must negate its sum
                if k and (closes == 1 or neg[b_of[su]] == sv):
                    key = s - su * pu - sv * pv
                    if closes == 1:
                        key += (rows[sv] or row(sv))[b_of[su]] * pv
                    new[key] = get(key, 0) + c * k
        else:
            ta, tb = times(t0), times(t1)
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                row_u = rows[su] or row(su)
                row_v = rows[sv] or row(sv)
                base = s - su * pu - sv * pv
                for a, b in zip(ta, tb):
                    key = base + row_u[a] * pu + row_v[b] * pv
                    new[key] = get(key, 0) + c
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

    Counts the assignments of nonzero elements with the frontier transfer
    matrix of ``_count_flows``, which also bounds its steps by ``budget``.
    The count does not depend on the orientation; ``tau`` exists so tests
    can check exactly that; one that does not fit ``g`` is a ``ValueError``.
    """
    if tau is None:
        tau = default_orientation(g)
    elif not tau.satisfies(g):
        raise ValueError("orientation does not fit the graph's edges and signs")
    return _count_flows(g, tau, gamma, (range(1, gamma.order),), budget)


def count_integer_nflows(g: SignedGraph, n: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of Z-valued flows using only values k with 0 < |k| < n.

    Counted as flows in Z_N with values +-1..+-(n-1) mod N, where
    N = (n-1) * (largest half-edge degree) + 1: every vertex sum s has
    |s| <= (n-1) * (half-edge degree) < N, so s = 0 exactly when s = 0 mod N.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    half_degree = Counter(w for e in g.edges for w in (e.u, e.v))
    order = (n - 1) * max(half_degree.values(), default=0) + 1
    # -a is order - a for 0 < a < n, as order >= n once there is an edge
    values = (range(1, n), range(order - n + 1, order))
    return _count_flows(g, default_orientation(g), FiniteAbelianGroup((order,)), values, budget)


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
