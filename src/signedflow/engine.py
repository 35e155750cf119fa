"""Closed-form solution counts and the deletion-contraction flow polynomial.

For a fixed 2-rank d, the number of nowhere-zero flows over any abelian
group of order 2^d * n is a polynomial in n.  This module computes that
polynomial exactly: positive loops and positive non-loop edges are removed
by the usual loop/deletion-contraction rules, and what remains (vertices
carrying only negative loops) is counted by an explicit formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .graph import (
    SignedGraph,
    connected_components,
    contract_edge,
    delete_edge,
    graph_fingerprint,
    make_edge_positive,
)
from .polynomial import Poly, interpolate

CacheKey = tuple[int, int, tuple[tuple[int, int, int], ...]]


def nonzero_sum_count(s: int, order: int | None = None) -> Poly | int:
    """Number of solutions of x_1 + ... + x_s = 0 with all x_i nonzero, in
    an abelian group of order m.

    Returned as a polynomial in m when ``order`` is None, otherwise
    evaluated at the given order.  The count is
    sum_{i=1..s-1} (-1)^(i-1) (m-1)^(s-i) for s >= 1.  The empty equation
    (s = 0) has exactly one solution; the sum convention alone would drop
    it, but the enumeration oracle pins it at 1.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if order is not None:
        if s == 0:
            return 1
        return sum((-1) ** (i - 1) * (order - 1) ** (s - i) for i in range(1, s))
    if s == 0:
        return Poly((1,))
    m_minus_1 = Poly((-1, 1))
    total = Poly()
    for i in range(1, s):
        total = total + (-1) ** (i - 1) * m_minus_1 ** (s - i)
    return total


def double_sum_solutions(t: int, d: int) -> Poly:
    """Number of solutions of 2*x_1 + ... + 2*x_t = 0 with all x_i nonzero,
    as a polynomial in n, over any abelian group of 2-rank d and order 2^d*n.

    Doubling maps the group onto a subgroup of order n with kernel of size
    2^d, so each solution with exactly s nonzero images lifts in
    (2^d)^s * (2^d - 1)^(t-s) ways; summing over s gives the count.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    q = 2**d
    total = Poly()
    for s in range(t + 1):
        lifts = comb(t, s) * q**s * (q - 1) ** (t - s)
        total = total + lifts * nonzero_sum_count(s)
    return total


def _cache_key(g: SignedGraph, d: int) -> CacheKey:
    edges = tuple(sorted((min(e.u, e.v), max(e.u, e.v), e.sign) for e in g.edges))
    return (d, g.num_vertices, edges)


def flow_polynomial(g: SignedGraph, d: int, *, cache: dict[CacheKey, Poly] | None = None) -> Poly:
    """The polynomial f with f(n) = number of nowhere-zero flows over every
    abelian group of 2-rank d and order 2^d * n.

    Structural recursion: multiply over connected components; strip positive
    loops with a factor (2^d*n - 1) each; apply deletion-contraction at the
    lowest-id non-loop edge (switched positive first); when only negative
    loops remain, count them with :func:`double_sum_solutions`.

    ``cache`` may be any dict and is keyed on the exact normalized edge
    list, so it is safe to share across calls and across values of d.
    """
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    return _flow_poly(g, d, cache)


def _flow_poly(g: SignedGraph, d: int, cache: dict[CacheKey, Poly] | None) -> Poly:
    key = None
    if cache is not None:
        key = _cache_key(g, d)
        hit = cache.get(key)
        if hit is not None:
            return hit

    comps = connected_components(g)
    if len(comps) > 1:
        result = Poly((1,))
        for comp in comps:
            result = result * _flow_poly(comp, d, cache)
    else:
        result = _flow_poly_connected(g, d, cache)

    if cache is not None:
        cache[key] = result
    return result


def _flow_poly_connected(g: SignedGraph, d: int, cache: dict[CacheKey, Poly] | None) -> Poly:
    positive_loops = 0
    non_loop = None
    for i, e in enumerate(g.edges):
        if e.is_loop():
            positive_loops += e.sign == 1
        elif non_loop is None:
            non_loop = i

    if positive_loops:
        # each flow extends by any of the 2^d*n - 1 nonzero values on each loop
        rest = tuple(e for e in g.edges if not (e.is_loop() and e.sign == 1))
        return Poly((-1, 2**d)) ** positive_loops * _flow_poly(
            SignedGraph(g.num_vertices, rest), d, cache
        )

    if non_loop is not None:
        h = make_edge_positive(g, non_loop)
        contracted = _flow_poly(contract_edge(h, non_loop), d, cache)
        deleted = _flow_poly(delete_edge(h, non_loop), d, cache)
        return contracted - deleted

    # only negative loops remain; Kirchhoff at each vertex reads 2*x_1 + ... + 2*x_t = 0
    loops_at = [0] * g.num_vertices
    for e in g.edges:
        loops_at[e.u] += 1
    result = Poly((1,))
    for t in loops_at:
        result = result * double_sum_solutions(t, d)
    return result


@dataclass
class FlowPolynomialFamily:
    """Polynomials f_d for d = 0..d_max, tied to the graph they were computed from."""

    entries: dict[int, Poly]
    graph_fingerprint: str


def flow_polynomial_family(
    g: SignedGraph, d_max: int, *, cache: dict[CacheKey, Poly] | None = None
) -> FlowPolynomialFamily:
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    entries = {d: flow_polynomial(g, d, cache=cache) for d in range(d_max + 1)}
    return FlowPolynomialFamily(entries=entries, graph_fingerprint=graph_fingerprint(g))


@dataclass
class QuasiPolynomialFit:
    """Per-parity interpolation of integer-flow counts.

    ``validated`` means the held-out largest sample of each parity class is
    reproduced exactly; coefficients may be rational.
    """

    p_even: Poly
    p_odd: Poly
    validated: bool
    sample_range: tuple[int, int]

    def polynomial_for(self, n: int) -> Poly:
        return self.p_even if n % 2 == 0 else self.p_odd


def fit_quasipolynomial(samples: Iterable[tuple[int, int]]) -> QuasiPolynomialFit:
    """Fit one exact polynomial per parity class to counts sampled at
    consecutive n = 1..n_max (n_max >= 6).

    Each class is interpolated through all but its largest sample; the fit
    is validated when the held-out counts are reproduced exactly.  All
    arithmetic is rational, never floating point.
    """
    pts = sorted((int(n), c) for n, c in samples)
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
