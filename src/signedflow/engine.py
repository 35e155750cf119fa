"""Closed-form solution counts and the deletion-contraction flow polynomial.

For a fixed 2-rank d, the number of nowhere-zero flows over any abelian
group of order 2^d * n is a polynomial f_d in n.  d enters only through
q = 2^d, so one pass computes the bivariate polynomial F(q, n) with exact
integer coefficients and every f_d is F(2^d, n).

Unrolling deletion-contraction over every edge gives the subset expansion
of Beck and Zaslavsky (2006):

    F(q, n) = sum over edge sets A of (-1)^|E - A| q^k(A) n^(k(A) - u(A)),

where k(A) is the cycle rank of (V, A) and u(A) its number of unbalanced
components.  The engine sums it in one iterative pass over the edges in
``graph.frontier_order``, keeping only what the remaining edges can still
see: the open vertices, split into blocks by the contracted edges (the
edges in A), each vertex with its sign parity relative to its block and
each block with an unbalanced flag.  No minor is built and nothing
recurses, so the cost follows the frontier width, not the edge order.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from .graph import (
    SignedGraph,
    _as_int,
    connected_components,
    drop_edgeless_vertices,
    frontier_order,
    graph_fingerprint,
)
# unused here; perfbench/tracing.py wraps these names on this module
from .graph import contract_edge, delete_edge, make_edge_positive  # noqa: F401
from .polynomial import Poly, _as_exact, interpolate
from .values import Record

# F(q, n) as {(i, j): c} for the terms c * n^i * q^j, zero terms omitted.
# Memoised values are shared between callers, so they are never mutated.
_Bivariate = dict[tuple[int, int], int]


def _mul(a: _Bivariate, b: _Bivariate) -> _Bivariate:
    out: _Bivariate = {}
    for (i, j), c in a.items():
        for (k, l), e in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * e
    return {k: c for k, c in out.items() if c}


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
    evaluated at the given order.  The count is
    sum_{i=1..s-1} (-1)^(i-1) (m-1)^(s-i) for s >= 1.  The empty equation
    (s = 0) has exactly one solution; the sum convention alone would drop
    it, but the enumeration oracle pins it at 1.  The polynomial is the
    negative-loop count at q = 1, where doubling is a bijection.
    """
    s = _as_int(s, "s")
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if order is not None:
        order = _as_int(order, "order")
        if s == 0:
            return 1
        return sum((-1) ** (i - 1) * (order - 1) ** (s - i) for i in range(1, s))
    return _at_q(_negative_loops(s), 0)


def double_sum_solutions(t: int, d: int) -> Poly:
    """Number of solutions of 2*x_1 + ... + 2*x_t = 0 with all x_i nonzero,
    as a polynomial in n, over any abelian group of 2-rank d and order 2^d*n.

    This is the negative-loop count evaluated at q = 2^d.
    """
    t, d = _as_int(t, "t"), _as_int(d, "d")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    return _at_q(_negative_loops(t), d)


def flow_polynomial(g: SignedGraph, d: int, *, cache: dict[SignedGraph, _Bivariate] | None = None) -> Poly:
    """The polynomial f with f(n) = number of nowhere-zero flows over every
    abelian group of 2-rank d and order 2^d * n.

    Computes F(q, n), the product over the connected components of their
    subset expansions (see the module docstring), each summed in one pass
    over its edges in frontier order, and returns F(2^d, n).  Edgeless
    vertices are dropped first: each is a factor 1.

    ``cache`` maps a graph, without its edgeless vertices, to its F (None
    means a fresh dict).  Entries carry no d, so a cache may be shared
    across calls and across values of d.
    """
    d = _as_int(d, "d")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    return _at_q(_flow_poly_at_entry(g, cache), d)


def _flow_poly_at_entry(g: SignedGraph, cache: dict[SignedGraph, _Bivariate] | None) -> _Bivariate:
    """F(q, n) of ``g``, looked up in or stored to ``cache``."""
    g = drop_edgeless_vertices(g)
    cache = {} if cache is None else cache
    result = cache.get(g)
    if result is None:
        parts = [_component_poly(comp) for comp in connected_components(g)]
        result = parts.pop() if parts else {(0, 0): 1}
        for f in parts:
            result = _mul(result, f)
        cache[g] = result
    return result


def _component_poly(g: SignedGraph) -> _Bivariate:
    """F(q, n) of a connected graph with at least one edge.

    A state is a tuple with one label per open vertex, in the order the
    vertices opened: its block number times 4, plus 2 if the block is
    unbalanced, plus its parity.  Switching at the vertices of parity 1
    makes every contracted edge of a block positive.  States are canonical,
    so equal states meet in one entry: blocks are numbered by first
    appearance, and a block's first vertex has parity 0.

    The sign (-1)^|E - A| of the subset expansion is split as
    (-1)^|E| (-1)^|A|: deleting an edge keeps a term as it is, contracting
    it negates the term.  A state maps to the sum of the terms
    q^k n^(k - u) of the edge sets that reach it, u counting the blocks
    that closed unbalanced.  That sum is packed into one int with the
    coefficient of (k, u) as a signed digit of ``width`` bits at position
    k + ``room`` * u, so adding two sums is one int addition, k + 1 is a
    shift by ``width`` and u + 1 a shift by ``width * room``.  Every
    coefficient sums at most 2^|E| terms of +-1, so a digit never
    overflows, and k <= |E| - |V| + 1 < ``room``.

    Loops never join blocks.  A positive loop in A adds a cycle and leaves
    balance alone, so the P positive loops give a factor (1 - X)^P with
    X = 2^width, that is k + s with sign (-1)^s in C(P, s) ways.  The t
    negative loops at a vertex act once, when it opens as a block of its
    own: with none of them in A it stays balanced, with s >= 1 of them k
    grows by s and it is unbalanced, giving weight (1 - X)^t - 1.
    """
    negative = [0] * g.num_vertices  # negative loops at each vertex
    positive = 0
    edges = []
    for i in frontier_order(g):
        e = g.edges[i]
        if e.u != e.v:
            edges.append(e)
        elif e.sign > 0:
            positive += 1
        else:
            negative[e.u] += 1
    m = g.num_edges
    width = (m + 9) // 8 * 8  # whole bytes, and |digit| <= 2^m < 2^(width - 1)
    x = 1 << width
    room = m - g.num_vertices + 2
    level = width * room

    states: dict[tuple[int, ...], int] = {(): 1}
    if not edges:  # one vertex with loops only: it opens and closes
        states = _close(_open(states, (1 - x) ** negative[0] - 1), [0], level)
    last = {}
    for i, e in enumerate(edges):
        last[e.u] = last[e.v] = i
    slots: list[int] = []  # the open vertices, in the order they opened
    for i, (a, b, sign) in enumerate(edges):
        for v in (a, b):
            if v not in slots:
                slots.append(v)
                states = _open(states, (1 - x) ** negative[v] - 1)
        states = _contract(states, slots.index(a), slots.index(b), sign < 0, width)
        closing = sorted((slots.index(v) for v in {a, b} if last[v] == i), reverse=True)
        for slot in closing:
            del slots[slot]
        if closing:
            states = _close(states, closing, level)
    total = states.get((), 0) * (1 - x) ** positive

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


def _open(states: dict[tuple[int, ...], int], unbalanced: int) -> dict[tuple[int, ...], int]:
    """Each state with one more open vertex, a block of its own: balanced,
    or unbalanced with weight ``unbalanced`` (its negative loops in A)."""
    out = {}
    for s, c in states.items():
        label = (max(s) >> 2) + 1 << 2 if s else 0
        out[s + (label,)] = c
        if unbalanced:
            out[s + (label | 2,)] = c * unbalanced
    return out


def _contract(states: dict[tuple[int, ...], int], sa: int, sb: int, negative: bool,
              width: int) -> dict[tuple[int, ...], int]:
    """Each state with the edge between slots ``sa`` and ``sb`` deleted (as
    it is) and contracted (negated); see :func:`_component_poly`."""
    out: dict[tuple[int, ...], int] = {}
    for s, c in states.items():
        out[s] = out.get(s, 0) + c
        la, lb = s[sa], s[sb]
        ba, bb = la >> 2, lb >> 2
        odd = (la ^ lb ^ negative) & 1  # the edge is negative after switching
        if ba == bb:
            # a cycle in one block; a negative one unbalances the block
            c <<= width
            if odd and not la & 2:
                s = tuple(l | 2 if l >> 2 == ba else l for l in s)
        else:
            # the later block joins the earlier one, its parities flipped
            # to make the edge positive; later block numbers move down
            lo, hi = (ba, bb) if ba < bb else (bb, ba)
            unbalanced = (la | lb) & 2
            s = tuple((lo << 2) | unbalanced | (l ^ odd) & 1 if l >> 2 == hi
                      else l | unbalanced if l >> 2 == lo
                      else l - 4 if l >> 2 > hi else l
                      for l in s)
        out[s] = out.get(s, 0) - c
    return out


def _close(states: dict[tuple[int, ...], int], closing: list[int],
           level: int) -> dict[tuple[int, ...], int]:
    """Each state without the vertices at the slots ``closing`` (in
    decreasing order), canonical again.  A block that loses its last vertex
    closes, and u grows by 1 if it is unbalanced."""
    out: dict[tuple[int, ...], int] = {}
    for s, c in states.items():
        if not c:
            continue
        rest = list(s)
        for slot in closing:
            label = rest.pop(slot)
            # the block's other vertices share its label up to parity
            if label & 2 and label not in rest and label ^ 1 not in rest:
                c <<= level
        first: dict[int, int] = {}  # old block -> new label of its first vertex
        for i, l in enumerate(rest):
            f = first.get(l >> 2)
            if f is None:
                f = first[l >> 2] = (len(first) << 2) | (l & 3)
            rest[i] = (f & ~1) | (l ^ f) & 1
        key = tuple(rest)
        out[key] = out.get(key, 0) + c
    return out


class FlowPolynomialFamily(Record):
    """Polynomials f_d for d = 0..d_max, tied to the graph they were computed from."""

    __slots__ = ("entries", "graph_fingerprint")

    def __init__(self, entries: dict[int, Poly], graph_fingerprint: str) -> None:
        self.entries = entries
        self.graph_fingerprint = graph_fingerprint


def flow_polynomial_family(
    g: SignedGraph, d_max: int, *, cache: dict[SignedGraph, _Bivariate] | None = None
) -> FlowPolynomialFamily:
    """f_0..f_d_max from one F(q, n): f_d is F(2^d, n), see
    :func:`flow_polynomial`."""
    d_max = _as_int(d_max, "d_max")
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    f = _flow_poly_at_entry(g, cache)
    entries = {d: _at_q(f, d) for d in range(d_max + 1)}
    return FlowPolynomialFamily(entries=entries, graph_fingerprint=graph_fingerprint(g))


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
        if len(cls) < 3:
            raise ValueError(f"need at least 3 samples of parity {parity}, got {len(cls)}")
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
