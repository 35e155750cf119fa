import itertools
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signedflow import (
    Edge,
    FiniteAbelianGroup,
    Poly,
    SignedGraph,
    abelian_groups_up_to,
    count_group_flows,
    count_integer_nflows,
    double_sum_solutions,
    fit_quasipolynomial,
    flow_polynomial,
    flow_polynomial_family,
    nonzero_sum_count,
    switch,
)
import signedflow.engine as engine
from signedflow.engine import _frontier_sum
from signedflow.graph import frontier_walk

from corpusgen import (
    BARBELL,
    DIGON_PM,
    EDGELESS,
    NEG_LOOP,
    POS_LOOP,
    THETA_PPM,
    TRIANGLE,
    TRIANGLE_ONE_NEG,
    TWO_NEG_LOOPS,
    VERTEXLESS,
    acceptance_corpus,
    disjoint_union,
    g,
    k4_with_signs,
    loop_and_multi_edge_graphs,
    signed_graphs,
)
from reference import (
    count_double_sum_solutions,
    is_integral,
    nonzero_elements,
    polynomial_for,
    scale_argument,
    zero,
)


def brute_nonzero_sum(s: int, m: int) -> int:
    """All-nonzero solutions of x_1 + ... + x_s = 0 in Z_m, by filtering."""
    if s == 0:
        return 1
    return sum(
        1 for xs in itertools.product(range(1, m), repeat=s) if sum(xs) % m == 0
    )


class TestNonzeroSumCount:
    def test_single_variable_has_no_solution(self):
        assert nonzero_sum_count(1, 5) == 0
        assert nonzero_sum_count(1) == Poly()

    def test_pairs_are_value_and_inverse(self):
        assert nonzero_sum_count(2, 5) == 4

    def test_three_variables_in_z3(self):
        assert nonzero_sum_count(3, 3) == 2

    def test_empty_equation(self):
        assert nonzero_sum_count(0, 9) == 1
        assert nonzero_sum_count(0) == Poly((1,))

    def test_matches_enumeration_over_cyclic_groups(self):
        for m in range(2, 8):
            for s in range(5):
                assert nonzero_sum_count(s, m) == brute_nonzero_sum(s, m)

    def test_count_depends_only_on_order(self):
        # same count over Z8, Z4xZ2 and Z2^3: enumerate each directly
        for moduli in [(8,), (4, 2), (2, 2, 2)]:
            gamma = FiniteAbelianGroup(moduli)
            for s in range(4):
                nonzero = list(nonzero_elements(gamma))
                direct = 0
                for xs in itertools.product(nonzero, repeat=s):
                    acc = zero(gamma)
                    for x in xs:
                        acc = gamma.add(acc, x)
                    direct += acc == zero(gamma)
                assert nonzero_sum_count(s, 8) == direct

    def test_symbolic_matches_concrete(self):
        for s in range(6):
            p = nonzero_sum_count(s)
            for m in range(1, 8):
                assert p(m) == nonzero_sum_count(s, m)

    def test_recurrence(self):
        m_minus_1 = Poly((-1, 1))
        for s in range(2, 7):
            assert nonzero_sum_count(s) == m_minus_1 ** (s - 1) - nonzero_sum_count(s - 1)

    def test_negative_s_raises(self):
        with pytest.raises(ValueError):
            nonzero_sum_count(-1)

    @pytest.mark.parametrize("s, order", [(2, 0), (3, -2)])
    def test_order_below_one_is_refused(self, s, order):
        with pytest.raises(ValueError, match=f"order must be at least 1, got {order}"):
            nonzero_sum_count(s, order)

    @pytest.mark.parametrize("order", [None, 5])
    def test_float_s_is_refused(self, order):
        with pytest.raises(ValueError, match="s must be an integer"):
            nonzero_sum_count(2.0, order)

    @pytest.mark.parametrize("order", [5.5, 5.0, "5"])
    def test_non_integer_order_is_refused(self, order):
        with pytest.raises(ValueError, match="order must be an integer"):
            nonzero_sum_count(3, order)


class TestDoubleSumSolutions:
    def test_no_variables(self):
        for d in range(4):
            assert double_sum_solutions(0, d) == Poly((1,))

    def test_single_variable_counts_involutions(self):
        for d in range(4):
            assert double_sum_solutions(1, d) == Poly((2**d - 1,))

    def test_two_variables_rank_one(self):
        assert double_sum_solutions(2, 1) == Poly((-3, 4))

    def test_boundary_case_z2(self):
        assert double_sum_solutions(1, 1)(1) == 1
        assert double_sum_solutions(1, 1)(1) == count_double_sum_solutions(
            1, FiniteAbelianGroup((2,))
        )

    def test_matches_oracle_up_to_order_16(self):
        for gamma in abelian_groups_up_to(16):
            d = gamma.two_rank
            n = gamma.order // 2**d
            for t in range(5):
                assert double_sum_solutions(t, d)(n) == count_double_sum_solutions(t, gamma)

    def test_rank_zero_reduces_to_plain_sums(self):
        for t in range(5):
            assert double_sum_solutions(t, 0) == nonzero_sum_count(t)

    def test_float_arguments_are_refused(self):
        with pytest.raises(ValueError, match="t must be an integer"):
            double_sum_solutions(2.0, 1)
        with pytest.raises(ValueError, match="d must be an integer"):
            double_sum_solutions(2, 1.0)


ORDER9_GROUPS = abelian_groups_up_to(9)


def prism(k: int, order: str) -> SignedGraph:
    """C_k x K2 with fixed signs: outer cycle 0..k-1, inner cycle k..2k-1 and
    rungs i -- k+i, listed cycle by cycle or one rung at a time."""
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    rng = random.Random(k)
    sign = {p: rng.choice((1, -1)) for p in outer + inner + rungs}
    pairs = (outer + inner + rungs if order == "cycle"
             else [p for i in range(k) for p in (rungs[i], outer[i], inner[i])])
    return SignedGraph.from_edges(2 * k, [(u, v, sign[u, v]) for u, v in pairs])


def oracle_agrees(graph: SignedGraph) -> bool:
    polys: dict[int, Poly] = {}
    for gamma in ORDER9_GROUPS:
        d = gamma.two_rank
        if d not in polys:
            polys[d] = flow_polynomial(graph, d)
        n = gamma.order // 2**d
        if polys[d](n) != count_group_flows(graph, gamma):
            return False
    return True


def subset_expansion(graph: SignedGraph) -> dict[tuple[int, int], int]:
    """F(q, n) = sum over edge sets A of (-1)^|E - A| q^k(A) n^(k(A) - u(A)),
    as {(i, j): c} for the terms c * n^i * q^j.

    k(A) is the cycle rank of (V, A) and u(A) its number of unbalanced
    components (Beck and Zaslavsky 2006).  Union-find keeps each vertex's
    sign parity relative to its root: an edge inside one component adds a
    cycle, negative when the parities and the sign disagree.
    """
    out: dict[tuple[int, int], int] = {}
    m = graph.num_edges
    for mask in range(1 << m):
        root, parity, unbalanced = list(range(graph.num_vertices)), [0] * graph.num_vertices, set()

        def find(v):
            p = 0
            while root[v] != v:
                p ^= parity[v]
                v = root[v]
            return v, p

        k = size = 0
        for i, (u, v, sign) in enumerate(graph.edges):
            if not mask >> i & 1:
                continue
            size += 1
            (ru, pu), (rv, pv) = find(u), find(v)
            odd = pu ^ pv ^ (sign == -1)
            if ru == rv:
                k += 1
                if odd:
                    unbalanced.add(ru)
            else:
                root[rv], parity[rv] = ru, odd
                if rv in unbalanced:
                    unbalanced.add(ru)
        u = len({find(r)[0] for r in unbalanced})
        key = (k - u, k)
        out[key] = out.get(key, 0) + (-1) ** (m - size)
    return {key: c for key, c in out.items() if c}


def check_frontier_states(states, leave) -> None:
    """Each block is named after the slot of a member of parity 0 that
    leaves no earlier than any other member, and a block that is
    unbalanced holds parity 0 at every member."""
    for s in states:
        for q, label in enumerate(s):
            name = label >> 2
            assert s[name] >> 2 == name and not s[name] & 1
            assert label & 2 == s[name] & 2
            assert not (label & 2 and label & 1)
            assert leave[name] >= leave[q]


class TestFrontierStates:
    def test_blocks_are_named_after_the_member_that_leaves_last(self, monkeypatch):
        contract = engine._contract

        def checked(states, sa, sb, negative, width, leave, moves):
            out = contract(states, sa, sb, negative, width, leave, moves)
            check_frontier_states(states, leave)
            check_frontier_states(out, leave)
            return out

        monkeypatch.setattr(engine, "_contract", checked)
        for graph in acceptance_corpus() + [prism(5, "cycle"), prism(4, "rung")]:
            _frontier_sum(graph)

    def test_digit_room_follows_the_cycle_rank(self):
        # room is m - |V| + c + 1 digits, 2 on a cycle; were it m + 1, each
        # packed sum of the 5,000-cycle would hold 5,001 digits and the pass
        # would peak near 18 MB
        n = 5000
        cycle = SignedGraph(n, [(i, (i + 1) % n, -1 if i == 0 else 1) for i in range(n)])
        tracemalloc.start()
        try:
            assert _frontier_sum(cycle) == {(0, 0): -1, (0, 1): 1}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSubsetExpansion:
    """The engine's bivariate F(q, n), compared exactly for every q and n at once."""

    def test_matches_on_the_acceptance_corpus(self):
        for graph in acceptance_corpus():
            assert _frontier_sum(graph) == subset_expansion(graph)

    @given(loop_and_multi_edge_graphs(max_edges=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_on_loop_and_multi_edge_heavy_graphs(self, graph):
        assert _frontier_sum(graph) == subset_expansion(graph)

    @given(signed_graphs(max_vertices=6, max_edges=9))
    @settings(max_examples=60, deadline=None)
    def test_matches_on_random_graphs(self, graph):
        assert _frontier_sum(graph) == subset_expansion(graph)


@st.composite
def graphs_in_any_edge_order(draw):
    """A graph of one to three parts side by side, and an order of its edge
    ids in which the parts' edges may interleave."""
    parts = draw(st.lists(signed_graphs(max_vertices=3, max_edges=4), min_size=1, max_size=3))
    graph = disjoint_union(parts)
    return graph, draw(st.permutations(range(graph.num_edges)))


class TestAnyEdgeOrder:
    """Both counters give the same answer whatever order the walk takes the
    edges in.  ``frontier_walk`` looks ``frontier_order`` up by name, so a
    patch of it reorders the walk."""

    # a positive loop at 0 and two parallel edges 1 - 2, walked as 1 - 2,
    # loop, 1 - 2: no vertex is open after the loop, yet the graph has two
    # components, not three
    @example((g(3, (1, 2, 1), (0, 0, 1), (1, 2, 1)), [0, 1, 2]))
    @given(graphs_in_any_edge_order())
    @settings(max_examples=60, deadline=None)
    def test_counts_do_not_depend_on_the_edge_order(self, graph_and_order):
        graph, order = graph_and_order
        groups = [FiniteAbelianGroup(moduli) for moduli in ((3,), (4,), (2, 2), (5,))]
        counts = ([count_group_flows(graph, gamma) for gamma in groups],
                  [count_integer_nflows(graph, n) for n in range(1, 5)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("signedflow.graph.frontier_order", lambda _: order)
            # the oracle keeps the plan of its last graph, made in the default order
            patch.setattr("signedflow.oracle._last_plan", ((None, None), None))
            assert [step[0] for step in frontier_walk(graph)] == order
            assert _frontier_sum(graph) == subset_expansion(graph)
            assert ([count_group_flows(graph, gamma) for gamma in groups],
                    [count_integer_nflows(graph, n) for n in range(1, 5)]) == counts


class TestFlowPolynomial:
    def test_negative_loop(self):
        for d in range(4):
            assert flow_polynomial(NEG_LOOP, d) == Poly((2**d - 1,))

    def test_positive_loop(self):
        for d in range(4):
            assert flow_polynomial(POS_LOOP, d) == Poly((-1, 2**d))

    def test_many_positive_loops(self):
        # binomial expansion of (2^d*n - 1)^1200
        graph = SignedGraph(1, ((0, 0, 1),) * 1200)
        for d in range(2):
            expected = Poly(comb(1200, i) * 2 ** (d * i) * (-1) ** (1200 - i) for i in range(1201))
            assert flow_polynomial(graph, d) == expected

    def test_many_negative_loops(self):
        # lift each solution of the doubled equation through the kernel of doubling
        t = 120
        graph = SignedGraph(1, ((0, 0, -1),) * t)
        for d in range(3):
            q = 2**d
            f = flow_polynomial(graph, d)
            for n in (1, 2, 3, 7):
                expected = sum(comb(t, s) * q**s * (q - 1) ** (t - s) * nonzero_sum_count(s, n)
                               for s in range(t + 1))
                assert f(n) == expected

    def test_parallel_class(self):
        # balanced, so f_d(n) = f_0(2^d*n), and f_0 counts x_1 + ... + x_300 = 0
        graph = SignedGraph(2, ((0, 1, 1),) * 300)
        family = flow_polynomial_family(graph, 3)
        for d in range(4):
            assert family[d] == scale_argument(nonzero_sum_count(300), 2**d)

    def test_all_positive_triangle(self):
        for d in range(3):
            assert flow_polynomial(TRIANGLE, d) == Poly((-1, 2**d))

    def test_two_negative_loops_at_rank_one(self):
        assert flow_polynomial(TWO_NEG_LOOPS, 1) == Poly((-3, 4))
        assert flow_polynomial(TWO_NEG_LOOPS, 1)(2) == count_group_flows(
            TWO_NEG_LOOPS, FiniteAbelianGroup((4,))
        )

    def test_edgeless_graphs(self):
        for d in range(3):
            assert flow_polynomial(EDGELESS, d) == Poly((1,))
            assert flow_polynomial(VERTEXLESS, d) == Poly((1,))

    def test_negative_d_raises(self):
        with pytest.raises(ValueError):
            flow_polynomial(NEG_LOOP, -1)

    def test_float_d_is_refused(self):
        with pytest.raises(ValueError, match="d must be an integer"):
            flow_polynomial(NEG_LOOP, 1.0)

    @pytest.mark.parametrize(
        "graph",
        [
            NEG_LOOP, POS_LOOP, DIGON_PM, THETA_PPM, TRIANGLE, TRIANGLE_ONE_NEG,
            BARBELL, TWO_NEG_LOOPS,
            g(3, (0, 1, 1), (1, 2, -1), (0, 2, -1), (1, 1, -1)),
            g(4, (0, 1, 1), (1, 2, 1), (2, 3, -1), (0, 3, 1), (0, 2, -1)),
            k4_with_signs([-1, 1, 1, 1, 1, 1]),
            k4_with_signs([-1] * 6),
            # K4 with edges 0-1 (negative) and 2-3 (positive) subdivided
            g(6, (0, 4, 1), (4, 1, -1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1),
              (2, 5, -1), (5, 3, -1)),
            # K4 with a pendant path 3-4-5
            g(6, *k4_with_signs([-1, 1, 1, 1, 1, 1]).edges, (3, 4, 1), (4, 5, -1)),
            # a negative triangle, a negative loop, an isolated vertex and a
            # +- digon, the components' edges interleaved
            g(7, (5, 6, 1), (0, 2, 1), (3, 3, -1), (0, 1, -1), (5, 6, -1), (1, 2, 1)),
        ],
    )
    def test_agrees_with_oracle_on_groups_up_to_order_9(self, graph):
        assert oracle_agrees(graph)

    @given(loop_and_multi_edge_graphs())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_oracle_on_loop_and_multi_edge_heavy_graphs(self, graph):
        family = flow_polynomial_family(graph, 2)
        for gamma in abelian_groups_up_to(6):
            d = gamma.two_rank
            assert family[d](gamma.order // 2**d) == count_group_flows(graph, gamma)

    def test_coefficients_are_exact_integers(self):
        for graph in [BARBELL, TRIANGLE_ONE_NEG, k4_with_signs([-1] * 6)]:
            for d in range(3):
                assert is_integral(flow_polynomial(graph, d))

    def test_edge_order_does_not_matter(self):
        for graph in [TRIANGLE_ONE_NEG, BARBELL, THETA_PPM, k4_with_signs([-1, 1, -1, 1, 1, 1])]:
            reversed_graph = SignedGraph(graph.num_vertices, tuple(reversed(graph.edges)))
            for d in range(3):
                assert flow_polynomial(graph, d) == flow_polynomial(reversed_graph, d)

    @given(signed_graphs(max_vertices=4, max_edges=5), st.integers(0, 2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_switching_invariance(self, graph, d, data):
        if graph.num_vertices:
            x = data.draw(st.sets(st.integers(0, graph.num_vertices - 1)))
        else:
            x = set()
        assert flow_polynomial(graph, d) == flow_polynomial(switch(graph, x), d)

    @given(signed_graphs(max_vertices=4, max_edges=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_subdividing_an_edge_keeps_every_f_d(self, graph, data):
        non_loops = [i for i, e in enumerate(graph.edges) if not e.is_loop()]
        assume(non_loops)
        i = data.draw(st.sampled_from(non_loops))
        e = graph.edges[i]
        s = data.draw(st.sampled_from((1, -1)))
        w = graph.num_vertices
        halves = (Edge(e.u, w, s), Edge(w, e.v, s * e.sign))
        subdivided = SignedGraph(w + 1, graph.edges[:i] + halves + graph.edges[i + 1 :])
        assert flow_polynomial_family(subdivided, 2) == flow_polynomial_family(graph, 2)

    @given(signed_graphs(max_vertices=4, max_edges=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_pendant_edge_makes_every_f_d_zero(self, graph, data):
        assume(graph.num_vertices)
        v = data.draw(st.integers(0, graph.num_vertices - 1))
        s = data.draw(st.sampled_from((1, -1)))
        pendant = SignedGraph(graph.num_vertices + 1, graph.edges + (Edge(v, graph.num_vertices, s),))
        assert all(p.is_zero() for p in flow_polynomial_family(pendant, 3).values())

    def test_prism_edge_orders_agree(self):
        cycle = flow_polynomial_family(prism(8, "cycle"), 3)
        assert cycle == flow_polynomial_family(prism(8, "rung"), 3)
        assert not cycle[0].is_zero()

    def test_long_prism_in_cycle_order(self):
        # C40 x K2: the frontier order keeps a few vertices open whatever the
        # listing, so the cycle-by-cycle listing costs no more than rung order
        cycle = flow_polynomial_family(prism(40, "cycle"), 2)
        assert cycle == flow_polynomial_family(prism(40, "rung"), 2)
        assert not cycle[0].is_zero()

    def test_balanced_graphs_depend_only_on_group_order(self):
        for graph in [POS_LOOP, TRIANGLE, g(2, (0, 1, 1), (0, 1, 1), (0, 1, 1)), k4_with_signs([1] * 6)]:
            f0 = flow_polynomial(graph, 0)
            for d in range(1, 4):
                assert flow_polynomial(graph, d) == scale_argument(f0, 2**d)

    def test_cache_gives_identical_results(self):
        # the keyword is accepted for callers that still pass it, and unused
        cache: dict = {}
        for graph in [BARBELL, TRIANGLE_ONE_NEG, k4_with_signs([-1] + [1] * 5), NEG_LOOP]:
            family = flow_polynomial_family(graph, 4)
            for d, p in family.items():
                assert flow_polynomial(graph, d, cache=cache) == p == flow_polynomial(graph, d)
        assert not cache


class TestFlowPolynomialFamily:
    def test_entries_cover_requested_range(self):
        family = flow_polynomial_family(NEG_LOOP, 3)
        assert family == {0: Poly(), 1: Poly((1,)), 2: Poly((3,)), 3: Poly((7,))}
        assert list(family) == [0, 1, 2, 3]

    def test_edgeless_family_is_constant_one(self):
        family = flow_polynomial_family(EDGELESS, 2)
        assert family == {0: Poly((1,)), 1: Poly((1,)), 2: Poly((1,))}

    def test_negative_d_max_raises(self):
        with pytest.raises(ValueError):
            flow_polynomial_family(NEG_LOOP, -1)

    def test_float_d_max_is_refused(self):
        with pytest.raises(ValueError, match="d_max must be an integer"):
            flow_polynomial_family(NEG_LOOP, 2.0)

    def test_isolated_vertices_are_ignored(self):
        digon = g(2, (0, 1, 1), (0, 1, -1))
        padded = SignedGraph(10**6, (Edge(0, 999_999, 1), Edge(0, 999_999, -1)))
        family = flow_polynomial_family(padded, 3)
        assert family == flow_polynomial_family(digon, 3)
        assert flow_polynomial(padded, 2) == family[2]


class TestDisjointComponents:
    """The walk sums every component in one pass; F is multiplicative."""

    def test_forty_copies_give_the_fortieth_power(self):
        part = g(2, (0, 1, 1), (0, 1, -1), (0, 0, -1))
        one = flow_polynomial_family(part, 3)
        assert not one[0].is_zero()
        family = flow_polynomial_family(disjoint_union([part] * 40), 3)
        assert family == {d: p ** 40 for d, p in one.items()}

    @given(st.lists(signed_graphs(max_vertices=4, max_edges=4), min_size=2, max_size=4), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_union_is_the_product_of_its_parts(self, parts, rng):
        expected = {d: Poly((1,)) for d in range(3)}
        for part in parts:
            for d, p in flow_polynomial_family(part, 2).items():
                expected[d] = expected[d] * p
        assert flow_polynomial_family(disjoint_union(parts, rng), 2) == expected


class TestFitQuasipolynomial:
    def test_positive_loop_is_linear(self):
        samples = [(n, count_integer_nflows(POS_LOOP, n)) for n in range(1, 9)]
        assert [c for _, c in samples] == [0, 2, 4, 6, 8, 10, 12, 14]
        fit = fit_quasipolynomial(samples)
        assert fit.validated
        assert fit.p_even == fit.p_odd == Poly((-2, 2))
        assert fit.sample_range == (1, 8)

    def test_negative_loop_fits_zero(self):
        samples = [(n, count_integer_nflows(NEG_LOOP, n)) for n in range(1, 7)]
        fit = fit_quasipolynomial(samples)
        assert fit.validated
        assert fit.p_even.is_zero() and fit.p_odd.is_zero()

    def test_barbell_has_genuine_period_two(self):
        samples = [(n, count_integer_nflows(BARBELL, n)) for n in range(1, 11)]
        fit = fit_quasipolynomial(samples)
        assert fit.validated
        assert fit.p_even != fit.p_odd
        assert fit.p_odd == Poly((-1, 1))
        assert fit.p_even == Poly((-2, 1))
        assert polynomial_for(fit, 4) == fit.p_even
        assert polynomial_for(fit, 7) == fit.p_odd

    def test_non_consecutive_samples_raise(self):
        with pytest.raises(ValueError):
            fit_quasipolynomial([(n, 0) for n in range(2, 9)])

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            fit_quasipolynomial([(n, 0) for n in range(1, 6)])

    def test_float_n_is_refused(self):
        with pytest.raises(ValueError, match="sample n must be an integer"):
            fit_quasipolynomial([(float(n), n - 1) for n in range(1, 9)])

    @pytest.mark.parametrize("where", [1, 8])  # interpolated, held out
    def test_float_count_is_refused(self, where):
        samples = [(n, float(n - 1) if n == where else n - 1) for n in range(1, 9)]
        with pytest.raises(TypeError):
            fit_quasipolynomial(samples)
