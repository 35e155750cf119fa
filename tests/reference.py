"""Reference code for the tests: library functions that no command runs.

Each checks a claim of the paper against the package: Kirchhoff's law at
every vertex (``verify_flow``), orientation independence of the count
(``reverse_edge``), switching invariance of cycle signs (``cycle_sign``),
the negative-loop lemma of Beck and Zaslavsky (2006) by enumeration
(``count_double_sum_solutions``), and f_d(n) = f_0(2^d * n) on balanced
graphs (``scale_argument``).  A former method keeps its body and takes its
instance as the first parameter, still named ``self``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from signedflow import (
    DEFAULT_BUDGET,
    Edge,
    FiniteAbelianGroup,
    Orientation,
    Poly,
    QuasiPolynomialFit,
    SignedGraph,
    count_group_flows,
)
from signedflow.graph import _check_edge_ids
from signedflow.groups import GroupElement
from signedflow.polynomial import Coeff
from signedflow.values import _as_int

FlowAssignment = dict[int, GroupElement]


def reverse_edge(o: Orientation, edge_id: int) -> Orientation:
    """Negate both tau values of one edge; validity is preserved."""
    edge_id = _as_int(edge_id, "edge id", below=len(o.taus))
    taus = list(o.taus)
    t0, t1 = taus[edge_id]
    taus[edge_id] = (-t0, -t1)
    return Orientation(tuple(taus))


def cycle_sign(g: SignedGraph, cycle: Iterable[int]) -> int:
    """Product of the signs of the given edges, each counted once."""
    sign = 1
    for i in _check_edge_ids(g, cycle):
        sign *= g.edges[i].sign
    return sign


def zero(self: FiniteAbelianGroup) -> GroupElement:
    return (0,) * len(self.moduli)


def is_zero(self: FiniteAbelianGroup, a: GroupElement) -> bool:
    return not any(self._check(a))


def nonzero_elements(self: FiniteAbelianGroup) -> Iterator[GroupElement]:
    identity = zero(self)
    return (a for a in self.elements() if a != identity)


def index_of(self: FiniteAbelianGroup, a: GroupElement) -> int:
    """Position of ``a`` in ``elements()`` (mixed-radix value); zero maps to 0."""
    a = self._check(a)
    i = 0
    for r, m in zip(a, self.moduli):
        i = i * m + r
    return i


def is_integral(self: Poly) -> bool:
    return all(isinstance(c, int) for c in self.coeffs)


def scale_argument(self: Poly, k: Coeff) -> Poly:
    """The polynomial p(k*n): coefficient i is multiplied by k**i."""
    return Poly(tuple(c * k**i for i, c in enumerate(self.coeffs)))


def polynomial_for(self: QuasiPolynomialFit, n: int) -> Poly:
    return self.p_even if n % 2 == 0 else self.p_odd


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
    sums = [zero(gamma)] * g.num_vertices
    for i, e in enumerate(g.edges):
        value = phi[i]
        t0, t1 = tau.taus[i]
        sums[e.u] = gamma.add(sums[e.u], value if t0 == 1 else gamma.negate(value))
        sums[e.v] = gamma.add(sums[e.v], value if t1 == 1 else gamma.negate(value))
    return all(not any(s) for s in sums)


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
