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
    default_orientation,
    frontier_walk,
)
from .groups import FiniteAbelianGroup, GroupElement
from .values import _as_int

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
    transfer-matrix count along :func:`frontier_walk`: a state holds the
    sums at the open vertices, as the base-``order`` digits of one int (the
    walk's slots are the digit places), and maps to the number of partial
    assignments that reach it.  The edge that closes a vertex is forced:
    the value whose contribution there negates the vertex's sum is looked
    up, not looped over.  A closed vertex's digit is 0 in every surviving
    state, so its slot can pass to the next vertex opened.  The same lookup
    is made one edge early: the vertex's next-to-last edge keeps only the
    sums there that its last edge can negate, since the last edge would
    drop every other state anyway.  This check reads only the tables the
    closing edge reads (``mult`` with ``neg`` or ``ids``, or a loop's tally
    of its k * x), so the step bound below and the memory are unchanged.

    The walk leaves out edgeless vertices, so an edgeless graph gives an
    empty walk, which counts 1.  Otherwise, before any table is built, one
    planning pass over the walk gives each edge its record: the place
    values of its ends' slots, its tau values and how many ends it closes,
    a closing end first, and for each end whose next-to-last edge it is,
    the factor its last edge adds x with there (tau at that end, or
    tau0 + tau1 for a loop).  The same pass bounds the steps (a
    state extended by a value, or a table entry): 4 * order + len(values)
    for the fixed tables; at each edge, (states before it) * (1 if it
    closes an end, else len(values)), 2 * (order + len(values)) for value
    tables and order per addition-table row, one per sum at an end it
    leaves open.  There are at most min(order^open, previous bound * fanout)
    states.  Past ``budget`` steps, ``BudgetExceededError`` is raised.  The
    count then only reads the records.
    """
    budget = _as_int(budget, "budget", least=0)
    walk = frontier_walk(g)
    if not walk:
        return 1
    r, num_values = gamma.order, sum(map(len, values))
    plan: list[tuple[int, int, int, int, int]] = []
    # per edge and end (u, v), the factor of the end's last edge there if this
    # is the end's next-to-last edge: tau at that end, tau0 + tau1 for a loop
    ahead: list[list[int | None]] = []
    # per open slot that has had an edge: (position, end) of its latest edge
    latest: dict[int, tuple[int, int]] = {}
    num_open, steps, bound = 0, 4 * r + num_values, 1
    for pos, (i, su, sv, opened, freed) in enumerate(walk):
        t0, t1 = tau.taus[i]
        closes = len(freed)
        fanout = 1 if closes else num_values
        steps += bound * fanout + 2 * (r + num_values) + min(bound * ((su != sv) + 1 - closes), r) * r
        if steps > budget:
            raise BudgetExceededError(
                f"up to {steps} transfer-matrix steps by edge {pos + 1} of {len(walk)} "
                f"with {num_open} vertices open exceed budget {budget}"
            )
        num_open += len(opened) - closes
        bound = min(bound * fanout, r**num_open)
        for w in freed:
            if w in latest:
                prev, end = latest.pop(w)
                ahead[prev][end] = t0 + t1 if su == sv else t0 if w == su else t1
        if su not in freed:  # v closes, or neither end does
            su, sv, t0, t1 = sv, su, t1, t0
        for end, w in ((1, sv), (0, su)):  # a loop's one end is u
            if w not in freed:
                latest[w] = pos, end
        plan.append((r**su, r**sv, t0, t1, closes))
        ahead.append([None, None])

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

    tallies: dict[int, Counter] = {}

    def tally(k: int) -> Counter:
        """How many values x give each k * x."""
        if k not in tallies:
            tallies[k] = Counter(times(k))
        return tallies[k]

    def closable(k: int | None) -> tuple[list[int] | None, list[int] | Counter | None]:
        """``(via, look)`` for a vertex whose last edge adds k * x there: a
        new digit d there survives iff ``look[via[d]]``, the number of values
        with which that edge negates d; ``k is None`` checks nothing."""
        if k is None:
            return None, None
        if k in (1, -1):
            return neg if k == 1 else ids, mult
        return neg, tally(k)

    states = {0: 1}
    for (pu, pv, t0, t1, closes), (cu, cv) in zip(plan, ahead):
        new: dict[int, int] = {}
        get = new.get
        via_u, look_u = closable(cu)
        via_v, look_v = closable(cv)
        if pu == pv:
            # a loop adds tau0*x + tau1*x at its one vertex
            adds = tally(t0 + t1)
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
                        du = row_u[a]
                        if cu is None or look_u[via_u[du]]:
                            key = base + du * pu
                            new[key] = get(key, 0) + c * k
        elif closes:
            # u closes: the forced value x has tau0*x = -su; it is
            # mult[x_of[su]] values, and adds tau1*x = b_of[su] at v
            x_of = neg if t0 == 1 else ids
            b_of = neg if t0 == t1 else ids
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                k = mult[x_of[su]]
                if not k:
                    continue
                key = s - su * pu - sv * pv
                if closes == 1:
                    dv = (rows[sv] or row(sv))[b_of[su]]
                    if cv is not None and not look_v[via_v[dv]]:
                        continue
                    key += dv * pv
                elif neg[b_of[su]] != sv:  # v closes too: tau1*x must negate its sum
                    continue
                new[key] = get(key, 0) + c * k
        else:
            ta, tb = times(t0), times(t1)
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                row_u = rows[su] or row(su)
                row_v = rows[sv] or row(sv)
                base = s - su * pu - sv * pv
                for a, b in zip(ta, tb):
                    du, dv = row_u[a], row_v[b]
                    if (cu is None or look_u[via_u[du]]) and (cv is None or look_v[via_v[dv]]):
                        key = base + du * pu + dv * pv
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
    n = _as_int(n, "n", least=1)
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
    t = _as_int(t, "t", least=0)
    return count_group_flows(SignedGraph(1, (Edge(0, 0, -1),) * t), gamma, budget=budget)
