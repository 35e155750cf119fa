"""Closed-form solution counts and the deletion-contraction flow polynomial.

For a fixed 2-rank d, the number of nowhere-zero flows over any abelian
group of order 2^d * n is a polynomial f_d in n.  d enters only through
q = 2^d, so one recursion computes the bivariate polynomial F(q, n) with
exact integer coefficients and every f_d is F(2^d, n).  Positive loops are
stripped with a factor (q*n - 1)^k; a vertex with one half-edge makes F zero,
and an edge at a vertex with two half-edges is contracted with no deletion
branch; other positive non-loop edges go by the usual deletion-contraction
rule, and what remains (vertices carrying only negative loops) is counted by
an explicit formula.  The recursion is always memoised on the normalized
edge list.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from .graph import (
    SignedGraph,
    _as_int,
    _derived,
    connected_components,
    contract_edge,
    delete_edge,
    drop_edgeless_vertices,
    graph_fingerprint,
    make_edge_positive,
)
from .polynomial import Poly, _as_exact, interpolate
from .values import Record

CacheKey = tuple[int, tuple[tuple[int, int, int], ...]]

# F(q, n) as {(i, j): c} for the terms c * n^i * q^j, zero terms omitted.
# Memoised values are shared between callers, so they are never mutated.
_Bivariate = dict[tuple[int, int], int]


def _sub(a: _Bivariate, b: _Bivariate) -> _Bivariate:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def _mul(a: _Bivariate, b: _Bivariate) -> _Bivariate:
    out: _Bivariate = {}
    for (i, j), c in a.items():
        for (k, l), e in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * e
    return {k: c for k, c in out.items() if c}


def _at_q(f: _Bivariate, q: int) -> Poly:
    coeffs = [0] * (max((i for i, _ in f), default=-1) + 1)
    for (i, j), c in f.items():
        coeffs[i] += c * q**j
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
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if order is not None:
        order = _as_int(order, "order")
        if s == 0:
            return 1
        return sum((-1) ** (i - 1) * (order - 1) ** (s - i) for i in range(1, s))
    return _at_q(_negative_loops(s), 1)


def double_sum_solutions(t: int, d: int) -> Poly:
    """Number of solutions of 2*x_1 + ... + 2*x_t = 0 with all x_i nonzero,
    as a polynomial in n, over any abelian group of 2-rank d and order 2^d*n.

    This is the recursion's negative-loop count evaluated at q = 2^d.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    return _at_q(_negative_loops(t), 2**d)


def _cache_key(g: SignedGraph) -> CacheKey:
    # an Edge compares and hashes like the plain tuple (u, v, sign)
    edges = tuple(sorted(e if e.u <= e.v else (e.v, e.u, e.sign) for e in g.edges))
    return (g.num_vertices, edges)


def flow_polynomial(g: SignedGraph, d: int, *, cache: dict[CacheKey, _Bivariate] | None = None) -> Poly:
    """The polynomial f with f(n) = number of nowhere-zero flows over every
    abelian group of 2-rank d and order 2^d * n.

    Structural recursion on F(q, n): multiply over connected components;
    strip the k positive loops of a component with a factor (q*n - 1)^k;
    then, in a component with two or more vertices, F is 0 if some vertex
    has one half-edge (Kirchhoff forces that edge to 0), F(g) = F(g/e) for
    the lowest-id edge e at the first vertex with two half-edges (g - e has
    a vertex with one half-edge), and otherwise deletion-contraction applies
    at the lowest-id non-loop edge; edges are switched positive before they
    are contracted.  When only negative loops remain, count them in closed
    form.  The result is F(2^d, n).  Edgeless vertices are dropped first.

    The recursion is always memoised; ``cache`` only supplies the storage
    (None means a fresh dict).  Entries are keyed on the exact normalized
    edge list and carry no d, so a cache may be shared across calls and
    across values of d.
    """
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    return _at_q(_flow_poly_at_entry(g, cache), 2**d)


def _flow_poly_at_entry(g: SignedGraph, cache: dict[CacheKey, _Bivariate] | None) -> _Bivariate:
    """F(q, n) of ``g`` without its edgeless vertices: each is a factor 1."""
    return _flow_poly(drop_edgeless_vertices(g), {} if cache is None else cache)


def _flow_poly(g: SignedGraph, cache: dict[CacheKey, _Bivariate]) -> _Bivariate:
    key = _cache_key(g)
    hit = cache.get(key)
    if hit is not None:
        return hit

    comps = connected_components(g)
    if len(comps) > 1:
        result: _Bivariate = {(0, 0): 1}
        for comp in comps:
            result = _mul(result, _flow_poly(comp, cache))
    else:
        result = _flow_poly_connected(g, cache)

    cache[key] = result
    return result


def _flow_poly_connected(g: SignedGraph, cache: dict[CacheKey, _Bivariate]) -> _Bivariate:
    positive_loops = 0
    non_loop = None
    degree = [0] * g.num_vertices  # half-edges at each vertex
    for i, (u, v, sign) in enumerate(g.edges):
        degree[u] += 1
        degree[v] += 1
        if u == v:
            positive_loops += sign == 1
        elif non_loop is None:
            non_loop = i

    if positive_loops:
        # each flow extends by any of the q*n - 1 nonzero values on each loop
        rest = tuple(e for e in g.edges if not (e.is_loop() and e.sign == 1))
        return _mul(_qn_minus_1_power(positive_loops),
                    _flow_poly(_derived(g.num_vertices, rest), cache))

    if non_loop is not None:
        if 1 in degree:
            # Kirchhoff at a vertex with one half-edge forces that edge to 0
            return {}
        if 2 in degree:
            # series rule: both half-edges at v lie on non-loop edges (g is
            # connected with two or more vertices), and deleting one of them
            # leaves v a single half-edge, so F(g) = F(g/e) - 0
            v = degree.index(2)
            e = next(i for i, (a, b, _) in enumerate(g.edges) if a == v or b == v)
            return _flow_poly(contract_edge(make_edge_positive(g, e), e), cache)
        h = make_edge_positive(g, non_loop)
        contracted = _flow_poly(contract_edge(h, non_loop), cache)
        deleted = _flow_poly(delete_edge(h, non_loop), cache)
        return _sub(contracted, deleted)

    # only negative loops remain, all at one vertex (the component is
    # connected); Kirchhoff there reads 2*x_1 + ... + 2*x_t = 0
    return _negative_loops(len(g.edges))


class FlowPolynomialFamily(Record):
    """Polynomials f_d for d = 0..d_max, tied to the graph they were computed from."""

    __slots__ = ("entries", "graph_fingerprint")

    def __init__(self, entries: dict[int, Poly], graph_fingerprint: str) -> None:
        self.entries = entries
        self.graph_fingerprint = graph_fingerprint


def flow_polynomial_family(
    g: SignedGraph, d_max: int, *, cache: dict[CacheKey, _Bivariate] | None = None
) -> FlowPolynomialFamily:
    """f_0..f_d_max from one memoised recursion: f_d is F(2^d, n), see
    :func:`flow_polynomial`."""
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    f = _flow_poly_at_entry(g, cache)
    entries = {d: _at_q(f, 2**d) for d in range(d_max + 1)}
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
