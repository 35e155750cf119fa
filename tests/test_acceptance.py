"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
are produced.  Every check is exact; the time limits are asserted too.
"""

import random
import time
from contextlib import contextmanager

from signedflow import (
    FiniteAbelianGroup,
    SignedGraph,
    abelian_groups_up_to,
    contract_edge,
    count_group_flows,
    count_integer_nflows,
    default_orientation,
    delete_edge,
    fit_quasipolynomial,
    flow_polynomial,
    group_pairs_same_invariants,
    switch,
)
from signedflow.engine import double_sum_solutions
from signedflow.graph import drop_edgeless_vertices

from corpusgen import (
    BARBELL,
    DIGON_PM,
    NEG_LOOP,
    POS_LOOP,
    THETA_PPM,
    TRIANGLE,
    TWO_NEG_LOOPS,
    acceptance_corpus,
    cyclomatic_number,
    k4_with_signs,
    random_signed_graph,
)
from reference import count_double_sum_solutions, polynomial_for, reverse_edge, scale_argument

CORPUS = acceptance_corpus()


@contextmanager
def criterion(num: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} took {elapsed:.1f}s, limit {limit_seconds:.0f}s"
    )
    print(f"[criterion {num}] {name}: PASS ({elapsed:.2f}s, limit {limit_seconds:.0f}s)")


def test_criterion_1_negative_loop_law():
    with criterion(1, "negative-loop law on all groups of order <= 32", 1.0):
        for gamma in abelian_groups_up_to(32):
            assert count_group_flows(NEG_LOOP, gamma) == 2**gamma.two_rank - 1


def test_criterion_2_positive_loop_law():
    with criterion(2, "positive-loop law on all groups of order <= 32", 1.0):
        for gamma in abelian_groups_up_to(32):
            assert count_group_flows(POS_LOOP, gamma) == gamma.order - 1


def test_criterion_3_equal_counts_for_equal_invariants():
    with criterion(3, "same (order, 2-rank) gives the same count", 300.0):
        assert len(CORPUS) >= 30
        z9 = FiniteAbelianGroup((9,))
        z33 = FiniteAbelianGroup((3, 3))
        for graph in CORPUS:
            assert count_group_flows(graph, z9) == count_group_flows(graph, z33)
        z8z2 = FiniteAbelianGroup((8, 2))
        z4z4 = FiniteAbelianGroup((4, 4))
        small = [graph for graph in CORPUS if graph.num_edges <= 3]
        assert small
        for graph in small:
            assert count_group_flows(graph, z8z2) == count_group_flows(graph, z4z4)


def test_criterion_4_polynomial_matches_oracle():
    with criterion(4, "flow polynomial equals brute force on all groups <= 9", 300.0):
        gammas = abelian_groups_up_to(9)
        for graph in CORPUS:
            polys = {}
            for gamma in gammas:
                d = gamma.two_rank
                if d not in polys:
                    polys[d] = flow_polynomial(graph, d)
                n = gamma.order // 2**d
                assert polys[d](n) == count_group_flows(graph, gamma), (
                    graph, gamma.moduli,
                )


def test_criterion_5_lemma_closed_form():
    with criterion(5, "closed form for 2x_1+...+2x_t = 0 vs enumeration", 60.0):
        boundary = double_sum_solutions(1, 1)(1)
        assert boundary == 1 == count_double_sum_solutions(1, FiniteAbelianGroup((2,)))
        for gamma in abelian_groups_up_to(16):
            d = gamma.two_rank
            n = gamma.order // 2**d
            for t in range(5):
                assert double_sum_solutions(t, d)(n) == count_double_sum_solutions(t, gamma)


def test_criterion_6_deletion_contraction_identities():
    with criterion(6, "deletion-contraction on 200 random triples", 300.0):
        rng = random.Random(20260810)
        groups = abelian_groups_up_to(6)
        checked = 0
        loop_checks = 0
        while checked < 200:
            graph = random_signed_graph(rng, max_vertices=4, max_edges=5)
            if checked % 3 == 0:
                v = rng.randrange(graph.num_vertices)
                graph = SignedGraph(graph.num_vertices, graph.edges + ((v, v, 1),))
            candidates = [
                i
                for i, e in enumerate(graph.edges)
                if not e.is_loop() and e.sign == 1
            ]
            if not candidates:
                u = rng.randrange(graph.num_vertices)
                w = (u + 1) % graph.num_vertices if graph.num_vertices > 1 else u
                if u == w:
                    continue
                graph = SignedGraph(graph.num_vertices, graph.edges + ((u, w, 1),))
                candidates = [graph.num_edges - 1]
            gamma = rng.choice(groups)
            e = rng.choice(candidates)
            whole = count_group_flows(graph, gamma)
            assert whole == count_group_flows(
                contract_edge(graph, e), gamma
            ) - count_group_flows(delete_edge(graph, e), gamma)
            for i, edge in enumerate(graph.edges):
                if edge.is_loop() and edge.sign == 1:
                    assert whole == (gamma.order - 1) * count_group_flows(
                        delete_edge(graph, i), gamma
                    )
                    loop_checks += 1
                    break
            checked += 1
        assert checked == 200
        assert loop_checks >= 50


def test_criterion_7_invariance_suite():
    with criterion(7, "switching / orientation / edge-order invariances", 120.0):
        groups = abelian_groups_up_to(6)
        for graph in CORPUS:
            switches = [{0}, {0, 1}]
            for gamma in groups:
                base = count_group_flows(graph, gamma)
                for x in switches:
                    assert count_group_flows(switch(graph, x), gamma) == base
                tau = default_orientation(graph)
                for i in range(graph.num_edges):
                    assert count_group_flows(graph, gamma, tau=reverse_edge(tau, i)) == base
        for graph in CORPUS:
            reversed_graph = SignedGraph(graph.num_vertices, tuple(reversed(graph.edges)))
            for d in range(3):
                f = flow_polynomial(graph, d)
                assert flow_polynomial(switch(graph, {0}), d) == f
                assert flow_polynomial(reversed_graph, d) == f


def test_criterion_8_balanced_specialization():
    with criterion(8, "all-positive graphs depend only on the group order", 60.0):
        balanced = [
            graph for graph in CORPUS if all(e.sign == 1 for e in graph.edges)
        ]
        assert len(balanced) >= 10
        for graph in balanced:
            f0 = flow_polynomial(graph, 0)
            for d in range(1, 4):
                assert flow_polynomial(graph, d) == scale_argument(f0, 2**d)
        k4 = k4_with_signs([1] * 6)
        f0 = flow_polynomial(k4, 0)
        for n in range(2, 8):
            assert f0(n) == count_group_flows(k4, FiniteAbelianGroup((n,)))


def test_criterion_9_integer_flow_quasipolynomials():
    with criterion(9, "integer-flow fits validate on held-out samples", 300.0):
        graphs = [POS_LOOP, NEG_LOOP, TWO_NEG_LOOPS, BARBELL, TRIANGLE, DIGON_PM, THETA_PPM]
        assert len(graphs) >= 5
        period_two_seen = False
        for graph in graphs:
            assert cyclomatic_number(graph) <= 3
            samples = [(n, count_integer_nflows(graph, n)) for n in range(1, 11)]
            fit = fit_quasipolynomial(samples)
            assert fit.validated, graph
            for n, count in samples:
                assert polynomial_for(fit, n)(n) == count
            if fit.p_even != fit.p_odd:
                period_two_seen = True
        assert period_two_seen


def balanced_components(graph: SignedGraph) -> int:
    """Components with no negative cycle: those whose vertices take parities
    that differ exactly across the negative edges."""
    parity: dict[int, int] = {}
    adjacent: dict[int, list[tuple[int, int]]] = {}
    for e in graph.edges:
        adjacent.setdefault(e.u, []).append((e.v, e.sign == -1))
        adjacent.setdefault(e.v, []).append((e.u, e.sign == -1))
    balanced = 0
    for start in range(graph.num_vertices):
        if start in parity:
            continue
        parity[start], stack, ok = 0, [start], True
        while stack:
            w = stack.pop()
            for x, odd in adjacent.get(w, ()):
                if x not in parity:
                    parity[x] = parity[w] ^ odd
                    stack.append(x)
                elif parity[x] != parity[w] ^ odd:
                    ok = False
        balanced += ok
    return balanced


def test_integer_flow_degree_is_the_corank():
    # Beck and Zaslavsky (JCTB 2006): the integral n-flow count is a
    # quasi-polynomial of period at most 2, and both parity classes have
    # degree xi = m - |V| + b, with b the balanced components once edgeless
    # vertices are dropped; a class of degree xi needs xi + 2 samples
    checked = 0
    for graph in CORPUS:
        core = drop_edgeless_vertices(graph)
        xi = core.num_edges - core.num_vertices + balanced_components(core)
        samples = [(n, count_integer_nflows(graph, n)) for n in range(1, max(6, 2 * xi + 5) + 1)]
        if not any(count for _, count in samples):
            continue
        fit = fit_quasipolynomial(samples)
        assert fit.validated, graph
        assert (fit.p_even.degree, fit.p_odd.degree) == (xi, xi), graph
        checked += 1
    assert checked == 90
