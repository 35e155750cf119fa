"""Closed-form solution counts and the deletion-contraction flow polynomial.

For a fixed 2-rank d, the number of nowhere-zero flows over any abelian
group of order 2^d * n is a polynomial f_d in n.  d enters only through
q = 2^d, so one pass computes the bivariate polynomial F(q, n) with exact
integer coefficients and every f_d is F(2^d, n).

Unrolling deletion-contraction over every edge gives the subset expansion
of Beck and Zaslavsky (2006):

    F(q, n) = sum over edge sets A of (-1)^|E - A| q^k(A) n^(k(A) - u(A)),

where k(A) is the cycle rank of (V, A) and u(A) its number of unbalanced
components.  The engine sums it in one iterative pass over the whole
graph along ``graph.frontier_walk``, keeping only what the remaining
edges can still see: the open vertices, split into blocks by the
contracted edges (the edges in A), each vertex with its sign parity
relative to its block and each block with an unbalanced flag.  The sum is
multiplicative over components, and the walk finishes one component
before it starts the next, so a disconnected graph needs no split.  No
minor is built, nothing recurses and nothing is memoised, so the cost
follows the frontier width, not the edge order.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb

from .graph import SignedGraph, frontier_walk
# unused here; perfbench/tracing.py wraps these names on this module, and
# each name it wraps must resolve
from .graph import connected_components, contract_edge, delete_edge, graph_fingerprint, make_edge_positive  # noqa: F401
from .polynomial import Poly, _as_exact, interpolate
from .values import Record, _as_int

# F(q, n) as {(i, j): c} for the terms c * n^i * q^j, zero terms omitted.
_Bivariate = dict[tuple[int, int], int]


def _at_q(f: _Bivariate, d: int) -> Poly:
    """F(2^d, n)."""
    coeffs = [0] * (max((i for i, _ in f), default=-1) + 1)
    for (i, j), c in f.items():
        coeffs[i] += c << d * j
    return Poly(coeffs)


def _qn_minus_1_power(k: int) -> _Bivariate:
    """(q*n - 1)^k by the binomial theorem."""
    return {(i, i): comb(k, i) * (-1) ** (k - i) for i in range(k + 1)}


def _negative_loops(t: int) -> _Bivariate:
    """Solutions of 2*x_1 + ... + 2*x_t = 0 with all x_i nonzero, over any
    abelian group of order q*n whose 2-torsion has order q.

    Doubling maps the group onto a subgroup of order n with kernel of size
    q, so a solution with exactly s nonzero images lifts in q^s (q-1)^(t-s)
    ways, and the images solve y_1 + ... + y_s = 0 in N_s(n) ways.  With
    N_0 = 1, N_1 = 0 and N_s(m) = (m-1)^(s-1) - N_(s-1)(m), induction gives
    N_s(m) = ((m-1)^s + (-1)^s (m-1)) / m, and the binomial theorem sums
    C(t, s) q^s (q-1)^(t-s) N_s(n) over s to
    ((q*n - 1)^t + (-1)^t (n - 1)) / n.
    """
    out = {(i - 1, j): c for (i, j), c in _qn_minus_1_power(t).items() if i}
    out[0, 0] = (-1) ** t
    return out


def nonzero_sum_count(s: int, order: int | None = None) -> Poly | int:
    """Number of solutions of x_1 + ... + x_s = 0 with all x_i nonzero, in
    an abelian group of order m.

    Returned as a polynomial in m when ``order`` is None, otherwise
    evaluated at the given order.  It is the negative-loop count at q = 1,
    where doubling is a bijection: ((m-1)^s + (-1)^s (m-1)) / m, which is 1
    for the empty equation (s = 0).
    """
    s = _as_int(s, "s", least=0)
    p = _at_q(_negative_loops(s), 0)
    return p if order is None else p(_as_int(order, "order", least=1))


def double_sum_solutions(t: int, d: int) -> Poly:
    """Number of solutions of 2*x_1 + ... + 2*x_t = 0 with all x_i nonzero,
    as a polynomial in n, over any abelian group of 2-rank d and order 2^d*n.

    This is the negative-loop count evaluated at q = 2^d.
    """
    t, d = _as_int(t, "t", least=0), _as_int(d, "d", least=0)
    return _at_q(_negative_loops(t), d)


def flow_polynomial(g: SignedGraph, d: int, *, cache: object = None) -> Poly:
    """The polynomial f with f(n) = number of nowhere-zero flows over every
    abelian group of 2-rank d and order 2^d * n.

    Computes F(q, n), the subset expansion of the module docstring, in one
    pass over the whole graph, and returns F(2^d, n).  For several d,
    :func:`flow_polynomial_family` computes F once.

    ``cache`` is accepted and unused, only because the benchmark's
    exactness check (``perfbench/checks.py``) passes ``cache={}``.
    """
    d = _as_int(d, "d", least=0)
    return _at_q(_frontier_sum(g), d)


def _frontier_sum(g: SignedGraph) -> _Bivariate:
    """F(q, n) of ``g``, in one pass.

    The edges are taken along :func:`frontier_walk`, which leaves out the
    edgeless vertices: each is a factor 1, so the vertices counted are those
    the walk opens, and an empty walk sums to 1.  Each connected
    component's edges are contiguous there and no vertex is open between
    two components, so a disconnected graph is summed as it is: F is
    multiplicative over components.  A state is a tuple
    with one label per slot: its block number times 4, plus 2 if the block
    is unbalanced, plus its parity.  Switching at the vertices of parity 1
    makes every contracted edge of a block positive.  A block is named
    after the slot of its member that leaves last (ties go to the lower
    slot), and that member has parity 0, so equal states meet in one entry
    and a block's name is freed only when the block closes.  No later edge
    can make an unbalanced block balanced, so its parities are all 0.  A
    free slot p holds ``p << 2``, a balanced block of its own, which is
    what a vertex is when it opens.

    The sign (-1)^|E - A| of the subset expansion is split as
    (-1)^|E| (-1)^|A|: deleting an edge keeps a term as it is, contracting
    it negates the term.  A state maps to the sum of the terms
    q^k n^(k - u) of the edge sets that reach it, u counting the blocks
    that closed unbalanced.  That sum is packed into one int with the
    coefficient of (k, u) as a signed digit of ``width`` bits at position
    k + ``room`` * u, so adding two sums is one int addition, k + 1 is a
    shift by ``width`` and u + 1 a shift by ``width * room``.  Every
    coefficient sums at most 2^|E| terms of +-1, so a digit never
    overflows, and k <= |E| - |V| + c < ``room`` for c components, counted
    as the times no vertex is open after an edge.

    A loop is an edge with both ends at one slot: in A it adds a cycle, and
    a negative one unbalances its block.  A positive loop changes no state,
    so the P positive loops give a factor (1 - X)^P with X = 2^width.
    """
    walk = frontier_walk(g)
    if not walk:
        return {(0, 0): 1}
    m = g.num_edges
    width = (m + 9) // 8 * 8  # whole bytes, and |digit| <= 2^m < 2^(width - 1)
    x = 1 << width
    open_now = vertices = components = 0
    for _, _, _, opened, freed in walk:
        vertices += len(opened)
        open_now += len(opened) - len(freed)
        components += not open_now
    room = m - vertices + components + 1
    level = width * room

    # every slot is free at the start, and again after the last edge
    slots = 1 + max(max(su, sv) for _, su, sv, _, _ in walk)
    start = tuple(p << 2 for p in range(slots))
    # ranks the vertices in the slots by when they leave, ties to the lower slot
    leave = [0] * slots
    states = {start: 1}
    positive = 0
    for i, su, sv, opened, freed in walk:
        for p, last in opened:
            leave[p] = last * slots - p
        negative = g.edges[i].sign < 0
        if su == sv and not negative:
            positive += 1
        else:
            states = _contract(states, su, sv, negative, width, leave)
        if freed:
            states = _close(states, freed, level)
    total = states.get(start, 0) * (1 - x) ** positive

    # read the signed digits back: bias each by half a digit so none borrows
    size = total.bit_length() // width + 2
    half = 1 << width - 1
    raw = (total + half * ((1 << width * size) - 1) // (x - 1)).to_bytes(width * size // 8, "little")
    step = width // 8
    sign = (-1) ** m
    out: _Bivariate = {}
    for p in range(size):
        c = int.from_bytes(raw[p * step:(p + 1) * step], "little") - half
        if c:
            u, k = divmod(p, room)
            out[k - u, k] = sign * c
    return out


def _contract(states: dict[tuple[int, ...], int], sa: int, sb: int, negative: bool,
              width: int, leave: list[int]) -> dict[tuple[int, ...], int]:
    """Each state with the edge between slots ``sa`` and ``sb`` deleted (as
    it is) and contracted (negated); ``leave`` ranks the slots' vertices by
    when they leave.  See :func:`_frontier_sum`."""
    out: dict[tuple[int, ...], int] = {}
    for s, c in states.items():
        out[s] = out.get(s, 0) + c
        la, lb = s[sa], s[sb]
        ba, bb = la >> 2, lb >> 2
        if ba == bb:
            # a cycle in one block; a negative one unbalances the block
            c <<= width
            if (la ^ lb ^ negative) & 1 and not la & 2:
                s = tuple(ba << 2 | 2 if l >> 2 == ba else l for l in s)
        else:
            # the block whose name leaves later keeps it, and the other joins
            keep, join = (ba, bb) if leave[ba] > leave[bb] else (bb, ba)
            if (la | lb) & 2:
                s = tuple(keep << 2 | 2 if l >> 2 == ba or l >> 2 == bb else l for l in s)
            else:
                # its parities flipped if the edge is negative after switching
                odd = (la ^ lb ^ negative) & 1
                s = tuple(keep << 2 | (l ^ odd) & 1 if l >> 2 == join else l for l in s)
        out[s] = out.get(s, 0) - c
    return out


def _close(states: dict[tuple[int, ...], int], freed: tuple[int, ...],
           level: int) -> dict[tuple[int, ...], int]:
    """Each state with the slots ``freed`` free again.  A block's name
    leaves last, so freeing it closes the block, and u grows by 1 if the
    block is unbalanced."""
    out: dict[tuple[int, ...], int] = {}
    for s, c in states.items():
        if not c:
            continue
        s = list(s)
        for p in freed:
            if s[p] == p << 2 | 2:
                c <<= level
            s[p] = p << 2
        key = tuple(s)
        out[key] = out.get(key, 0) + c
    return out


def flow_polynomial_family(g: SignedGraph, d_max: int) -> dict[int, Poly]:
    """``{d: f_d}`` for d = 0..d_max, from one F(q, n): f_d is F(2^d, n),
    see :func:`flow_polynomial`."""
    d_max = _as_int(d_max, "d_max", least=0)
    f = _frontier_sum(g)
    return {d: _at_q(f, d) for d in range(d_max + 1)}


class QuasiPolynomialFit(Record):
    """Per-parity interpolation of integer-flow counts.

    ``validated`` means the held-out largest sample of each parity class is
    reproduced exactly; coefficients may be rational.
    """

    __slots__ = ("p_even", "p_odd", "validated", "sample_range")

    def __init__(self, p_even: Poly, p_odd: Poly, validated: bool,
                 sample_range: tuple[int, int]) -> None:
        self.p_even = p_even
        self.p_odd = p_odd
        self.validated = validated
        self.sample_range = sample_range

    def polynomial_for(self, n: int) -> Poly:
        return self.p_even if n % 2 == 0 else self.p_odd


def fit_quasipolynomial(samples: Iterable[tuple[int, int]]) -> QuasiPolynomialFit:
    """Fit one exact polynomial per parity class to counts sampled at
    consecutive n = 1..n_max (n_max >= 6).

    Each class is interpolated through all but its largest sample; the fit
    is validated when the held-out counts are reproduced exactly.  All
    arithmetic is rational, never floating point.
    """
    pts = sorted((_as_int(n, "sample n"), _as_exact(c)) for n, c in samples)
    if not pts or [n for n, _ in pts] != list(range(1, len(pts) + 1)):
        raise ValueError("samples must cover consecutive n = 1..n_max exactly once")
    n_max = pts[-1][0]
    if n_max < 6:
        raise ValueError(f"need samples up to at least n = 6, got n_max = {n_max}")

    fitted: dict[int, Poly] = {}
    validated = True
    for parity in (0, 1):
        cls = [(n, c) for n, c in pts if n % 2 == parity]
        held_out = cls[-1]
        p = interpolate(cls[:-1])
        if p(held_out[0]) != held_out[1]:
            validated = False
        fitted[parity] = p
    return QuasiPolynomialFit(
        p_even=fitted[0],
        p_odd=fitted[1],
        validated=validated,
        sample_range=(1, n_max),
    )
