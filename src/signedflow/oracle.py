"""Ground truth for flow counting, independent of deletion-contraction.

One enumerator counts assignments edge by edge with a frontier transfer
matrix: partial assignments that leave the same sums at the vertices still
open are counted together, and the last edge at a vertex takes only the
values that make its sum zero.  Only an edge with tau0 = tau1 changes the
total of the vertex sums, by 2 * tau0 * x, so after the last such edge
before the walk next leaves no vertex open, the total of the open sums
must be 0.  The count first switches, which negates some vertices' sums
and keeps every count, so that this edge comes as early as any switching
can put it, and there admits only the values that bring the total to 0.
The 2-torsion of the group, the paper's epsilon_2, shows here: 2x = -T
has 0 or 2^d solutions in a group of 2-rank d, so over Z_2^d nothing is
dropped.  Exactness over speed, with a budget on the transfer-matrix
steps, bounded before the count starts, instead of silent long runs.
Counts are plain Python ints, so they never overflow.
"""

from collections import Counter
from math import prod

from .graph import (
    Orientation,
    SignedGraph,
    _edge_name,
    _forest,
    default_orientation,
    frontier_walk,
)
from .groups import FiniteAbelianGroup
from .values import DEFAULT_BUDGET, BudgetExceededError, _as_int


def _forest_switched(g: SignedGraph, walk: list, tau: Orientation) -> list[tuple[int, int]]:
    """tau at each edge of ``walk``, in walk order, switched so that every
    edge of a spanning forest grown over the walk from its end has
    tau0 = -tau1: the forest of ``graph._forest``, with each edge's sign
    taken as -tau0 * tau1 from tau, which need not fit the graph's signs.

    Switching negates tau at every half-edge of a vertex, which negates
    that vertex's sum, so the flows and every count stay the same, for any
    tau.  An edge with tau0 = tau1 adds 2 * tau0 * x to the total of the
    vertex sums (a loop adds tau0 * x + tau1 * x at its one vertex), and
    every other edge adds 0.  Grown from the end, the forest leaves out an
    edge only when later edges close a cycle with it; if that cycle is
    balanced, the edge gets tau0 = -tau1, so a component's last edge with
    tau0 = tau1 is as early in the walk as any switching can put it.
    """
    forest = _forest(g, [i for i, *_ in reversed(walk)], [-t0 * t1 for t0, t1 in tau.taus])
    flip = {w: f for w, (_, f) in forest.items()}
    return [(tau.taus[i][0] * flip.get(g.edges[i].u, 1), tau.taus[i][1] * flip.get(g.edges[i].v, 1))
            for i, *_ in walk]


# The last plan made, as ((g, tau), plan): one tuple, so that it is
# replaced in one step and a reader never pairs one key with another plan.
_last_plan: tuple = ((None, None), None)


def _plan(g: SignedGraph, tau: Orientation) -> list[tuple]:
    """The part of a count that does not depend on the group: one record
    per edge of g under tau, in walk order.

    One backward pass over :func:`frontier_walk`, with each edge's tau
    from :func:`_forest_switched`, makes each edge's record whole, ``(edge
    id, slot of u, slot of v, k_u, k_v, ends it closes, vertices it leaves
    open, vertices open after it, ahead at u, ahead at v, forced)``, a
    closing end first: the edge adds k_u * x at u and k_v * x at v.  The
    open count after it is the walk's own.  A loop's second end is the
    phantom slot, one place past the walk's last slot, whose sum is always
    0: the loop adds 0 * x there and (tau0 + tau1) * x at its vertex, and
    the phantom end closes when the vertex does.  Ahead at an end is the
    factor the end's last edge adds x with there if this is its
    next-to-last edge, else None: seen from the walk's end, the last edge
    comes first and leaves its factor under the slot it frees, and the
    next edge met there takes it unless that edge frees the slot too.

    The edges that leave no vertex open cut the walk into stretches.  A
    vertex opened in a stretch closes in it, with sum 0 in a flow, so the
    sums at a stretch's vertices total 0 at its end, whatever the edge
    order.  Only an edge with tau0 = tau1 changes that total, so after a
    stretch's last such edge the open sums must already total 0.  Forced
    is True at that edge in each stretch where it is not the stretch's
    last edge: the first such edge met back from the stretch's last.

    Only the last plan is kept, keyed by the value of ``(g, tau)``, so the
    counts of one graph over many groups or many n plan it once.  The plan
    is read, never changed.
    """
    global _last_plan
    key, plan = _last_plan
    if key == (g, tau):
        return plan
    walk = frontier_walk(g)
    phantom = 1 + max((max(step[1:3]) for step in walk), default=0)
    plan: list[tuple] = []
    # per slot freed later in the walk: the factor its vertex's last edge adds x with,
    # for the vertex's next-to-last edge to take
    ahead: dict[int, int] = {}
    # from a stretch's last edge back to its last edge with tau0 = tau1
    seek = False
    switched = _forest_switched(g, walk, tau)
    for (i, su, sv, _, freed, num_open), (t0, t1) in zip(reversed(walk), reversed(switched)):
        closes, opens = len(freed), len({su, sv}) - len(freed)
        if su == sv:  # a loop: its second end is the phantom, closing with its vertex
            sv, t0, t1, closes = phantom, t0 + t1, 0, 2 * closes
        elif su not in freed:  # v closes, or neither end does
            su, sv, t0, t1 = sv, su, t1, t0
        cu = None if su in freed else ahead.pop(su, None)
        cv = None if sv in freed else ahead.pop(sv, None)
        for w in freed:  # this is the last edge at w
            ahead[w] = t0 if w == su else t1
        seek = seek or not num_open
        forced = bool(seek and t0 + t1 and num_open)  # unless this is the stretch's last edge
        seek = seek and not t0 + t1
        plan.append((i, su, sv, t0, t1, closes, opens, num_open, cu, cv, forced))
    plan.reverse()
    _last_plan = (g, tau), plan
    return plan


def _count_flows(
    g: SignedGraph, tau: Orientation, gamma: FiniteAbelianGroup, values: tuple[range, ...], budget: int
) -> int:
    """Number of assignments of ``values`` to the edges of g that satisfy
    Kirchhoff's law at every vertex; the oracle's only enumerator.

    ``values`` are ranges of element indices of ``gamma`` (see
    ``index_table``); an index in two ranges is two values.  They must be
    closed under negation, -x as often as x, as the nonzero elements and
    +-1..+-(n-1) are: then as many values x have k * x = -d as have
    k * x = d, so one tally of the values by k * x, per factor k, gives
    every lookup below.

    A frontier transfer-matrix count along :func:`frontier_walk`: a state
    holds the sums at the open vertices, as the base-``order`` digits of
    one int (the walk's slots are the digit places), and maps to the
    number of partial assignments that reach it.  A closed vertex's digit
    is 0 in every surviving state, so its slot can pass to the next vertex
    opened.

    Every edge has two ends, each a slot with a factor k (see :func:`_plan`;
    a loop's second end is a phantom slot whose digit stays 0 and whose k
    is 0), and one of two steps, both read by the sum d at u that a value
    negates there: the values x with k_u * x = -d are looked up, and they
    all add the same k_v * x at v.  An edge that closes an end is forced:
    d is the sum at u, and if v closes too, k_v * x must negate v's sum.
    An edge that closes no end pairs each state with every d that some
    value negates, weighted by the number of such values.  The same lookup
    is made one edge early: an end's next-to-last edge keeps only the sums
    there that its last edge can negate, since the last edge would drop
    every other state anyway.

    Each edge's tau comes from :func:`_forest_switched`, so a stretch's
    last edge with tau0 = tau1 (see :func:`_plan`) is as early as any
    switching can put it.  There, unless it is the stretch's last edge,
    the total T of a state's open sums (the charge, summed from its digits
    one residue at a time) must become 0: an edge that closes no end takes
    only the values with (k_u + k_v) * x = -T, and one that closes an end
    keeps a new state only if its charge is 0.

    The walk leaves out edgeless vertices, so an edgeless graph gives an
    empty walk, which counts 1.  Otherwise the count reads the records of
    :func:`_plan`, which does not depend on the group, and before any table
    is built adds up its own bound on the steps (a state extended by a
    value, or a table entry): 4 * order + len(values) for the fixed tables;
    at each edge, (states before it) * (1 if it closes an end, else
    len(values)), 2 * (order + len(values)) for value tables and order per
    addition-table row, one per sum at a vertex it leaves open.  There are
    at most min(order^open, previous bound * fanout) states.  Past
    ``budget`` steps, ``BudgetExceededError`` is raised.
    """
    budget = _as_int(budget, "budget", least=0)
    plan = _plan(g, tau)
    if not plan:
        return 1
    # a range's length is stop - start: len() fails past sys.maxsize
    r, num_values = gamma.order, sum(p.stop - p.start for p in values)
    num_open, steps, bound = 0, 4 * r + num_values, 1
    for i, _, _, _, _, closes, opens, after, *_ in plan:
        fanout = 1 if closes else num_values
        steps += bound * fanout + 2 * (r + num_values) + min(bound * opens, r) * r
        if steps > budget:
            raise BudgetExceededError(
                f"up to {steps} transfer-matrix steps by {_edge_name(g, i)} with {num_open} "
                f"{'vertex' if num_open == 1 else 'vertices'} open exceed budget {budget}"
            )
        bound, num_open = min(bound * fanout, r**after), after

    neg = gamma.index_table(0, -1)
    # every row refers to these int objects rather than holding its own copies
    ids = list(range(r))
    mult = [0] * r
    for p in values:
        mult[p.start : p.stop] = [m + 1 for m in mult[p.start : p.stop]]
    # row 0 is ids, so a state whose sum is 0 at an end builds no row
    rows: list[list[int] | None] = [ids] + [None] * (r - 1)

    def row(s: int) -> list[int]:
        rows[s] = [ids[x] for x in gamma.index_table(s, 1)]
        return rows[s]

    # by k: the index of k * a for each element a, and how many values x
    # give each k * x, as many as give -k * x (the values are closed under
    # negation); a tally for k = None checks nothing
    tables, tallies = {1: ids, -1: neg}, {1: mult, -1: mult}

    def table(k: int) -> list[int]:
        if k not in tables:
            tables[k] = gamma.index_table(0, k)
        return tables[k]

    def tally(k: int | None) -> list[int] | None:
        if k is not None and k not in tallies:
            by_element, counts = table(k), [0] * r
            for part in values:
                for x in part:
                    counts[by_element[x]] += 1
            tallies[k] = counts
        return tallies.get(k)

    # (place value, modulus) of each residue in an element's index
    radix = [(prod(gamma.moduli[k + 1 :]), m) for k, m in enumerate(gamma.moduli)]

    def charge(s: int) -> int:
        """Index of the sum of the digits of s, the total of the open
        vertices' sums, one residue at a time."""
        total = 0
        for place, m in radix:
            digits, residue = s // place, 0
            while digits:
                residue += digits % m
                digits //= r
            total += residue % m * place
        return total

    states = {0: 1}
    for _, slot_u, slot_v, k_u, k_v, closes, _, _, cu, cv, force in plan:
        pu, pv = r**slot_u, r**slot_v
        new: dict[int, int] = {}
        get = new.get
        look_u, look_v = tally(cu), tally(cv)
        # look[d] values x have k_u * x = -d, and each adds k_v * x =
        # b_of[d] at v (x = -k_u * d off a loop, where k_u = +-1, and a
        # loop's phantom end has k_v = 0)
        look, b_of = tally(k_u), table(-k_u * k_v)
        if closes:  # u closes: d is its sum
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                k = look[su]
                if not k:
                    continue
                key = s - su * pu - sv * pv
                if closes == 1:
                    dv = (rows[sv] or row(sv))[b_of[su]]
                    if cv is not None and not look_v[dv]:
                        continue
                    key += dv * pv
                elif neg[b_of[su]] != sv:  # v closes too: k_v * x must negate its sum
                    continue
                if not force or not charge(key):
                    new[key] = get(key, 0) + c * k
        else:
            # one move per d: it adds -d at u, b_of[d] at v and
            # -(1 + k_u * k_v) * d to the charge, for look[d] values
            sums = [d for d in ids if look[d]]
            moves = [(neg[d], b_of[d], look[d]) for d in sums]
            if force:  # a state of charge T takes the moves that add -T to it
                solve: dict[int, list] = {}
                adds = table(1 + k_u * k_v)
                for d, move in zip(sums, moves):
                    solve.setdefault(adds[d], []).append(move)
            for s, c in states.items():
                su, sv = s // pu % r, s // pv % r
                row_u = rows[su] or row(su)
                row_v = rows[sv] or row(sv)
                base = s - su * pu - sv * pv
                for a, b, k in solve.get(charge(s), ()) if force else moves:
                    du, dv = row_u[a], row_v[b]
                    if (cu is None or look_u[du]) and (cv is None or look_v[dv]):
                        key = base + du * pu + dv * pv
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

