import itertools
import re
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedflow import (
    FiniteAbelianGroup,
    Orientation,
    SignedGraph,
    abelian_groups_up_to,
    contract_edge,
    count_group_flows,
    count_integer_nflows,
    default_orientation,
    delete_edge,
    flow_polynomial,
    make_edge_positive,
    nonzero_sum_count,
    switch,
)
from signedflow.graph import frontier_walk
from signedflow.oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _count_flows,
    _forest_switched,
    _plan,
)

from corpusgen import (
    BARBELL,
    DIGON_PM,
    DIGON_PP,
    EDGELESS,
    NEG_LOOP,
    POS_EDGE,
    POS_LOOP,
    THETA_PPM,
    TRIANGLE,
    TRIANGLE_ONE_NEG,
    TWO_NEG_LOOPS,
    ZOO,
    disjoint_union,
    g,
    k4_with_signs,
    loop_and_multi_edge_graphs,
    signed_graphs,
)
from reference import (
    count_double_sum_solutions,
    is_zero,
    nonzero_elements,
    reverse_edge,
    verify_flow,
    zero,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
K4GROUP = FiniteAbelianGroup((2, 2))
TRIVIAL = FiniteAbelianGroup(())
K8 = g(8, *((u, v, 1) for u, v in itertools.combinations(range(8), 2)))

SMALL_GROUPS = abelian_groups_up_to(6)


def product_reference(graph: SignedGraph, gamma: FiniteAbelianGroup, tau: Orientation) -> int:
    """Nowhere-zero flows by trying every assignment, sums built by group
    arithmetic: tau(e, slot) * x at each half-edge."""
    count = 0
    for xs in itertools.product(list(nonzero_elements(gamma)), repeat=graph.num_edges):
        sums = [zero(gamma)] * graph.num_vertices
        for x, e, taus in zip(xs, graph.edges, tau.taus):
            for w, t in zip((e.u, e.v), taus):
                sums[w] = gamma.add(sums[w], x if t == 1 else gamma.negate(x))
        count += all(is_zero(gamma, s) for s in sums)
    return count


def integer_product_reference(graph: SignedGraph, n: int) -> int:
    """Integer n-flows by trying every assignment of +-1..+-(n-1), with
    tau = +1 at u and -sign at v; a loop then adds (1 - sign) * x."""
    values = [k for a in range(1, n) for k in (a, -a)]
    count = 0
    for xs in itertools.product(values, repeat=graph.num_edges):
        sums = [0] * graph.num_vertices
        for x, e in zip(xs, graph.edges):
            sums[e.u] += x
            sums[e.v] -= e.sign * x
        count += not any(sums)
    return count


def flipped_orientation(graph: SignedGraph, flips: list[bool]) -> Orientation:
    """The default orientation with the edges marked in ``flips`` reversed."""
    return Orientation(tuple(
        (-t0, -t1) if flip else (t0, t1) for (t0, t1), flip in zip(default_orientation(graph).taus, flips)
    ))


class TestVerifyFlow:
    def test_edgeless_graph_accepts_the_empty_flow(self):
        assert verify_flow(EDGELESS, default_orientation(EDGELESS), Z4, {})

    def test_negative_loop_with_order_two_value(self):
        # both half-edges toward the vertex: the sums are 2+2 = 0 in Z4
        tau = Orientation(((1, 1),))
        assert verify_flow(NEG_LOOP, tau, Z4, {0: (2,)})
        assert not verify_flow(NEG_LOOP, tau, Z4, {0: (1,)})

    def test_single_positive_edge_never_balances(self):
        graph = g(2, (0, 1, 1))
        assert not verify_flow(graph, default_orientation(graph), Z4, {0: (1,)})

    def test_constructed_circulation_verifies(self):
        tau = default_orientation(TRIANGLE)
        # one unit around the cycle: edge 2 runs opposite to 0 and 1
        assert verify_flow(TRIANGLE, tau, Z5, {0: (1,), 1: (4,), 2: (1,)})

    def test_partial_assignment_raises(self):
        with pytest.raises(ValueError):
            verify_flow(TRIANGLE, default_orientation(TRIANGLE), Z4, {0: (1,)})

    def test_orientation_against_an_edge_sign_is_refused(self):
        # both tau values +1 fit a negative edge, not the positive ones here
        with pytest.raises(ValueError, match="does not fit the graph's edges and signs"):
            verify_flow(DIGON_PP, Orientation(((1, 1), (1, 1))), Z3, {0: (1,), 1: (2,)})

    def test_float_residues_are_refused(self):
        tau = default_orientation(TRIANGLE)
        with pytest.raises(ValueError, match="residue must be an integer, got 1.0"):
            verify_flow(TRIANGLE, tau, Z5, {0: (1.0,), 1: (4,), 2: (1,)})


class TestCountGroupFlows:
    def test_negative_loop_counts_involutions(self):
        assert count_group_flows(NEG_LOOP, K4GROUP) == 3
        assert count_group_flows(NEG_LOOP, Z4) == 1
        assert count_group_flows(NEG_LOOP, Z3) == 0

    def test_positive_loop_counts_nonzero_elements(self):
        assert count_group_flows(POS_LOOP, Z5) == 4

    def test_mixed_digon_forces_an_involution(self):
        assert count_group_flows(DIGON_PM, Z4) == 1

    def test_edgeless_graph_has_one_flow(self):
        assert count_group_flows(EDGELESS, Z5) == 1
        assert count_group_flows(SignedGraph(0), Z5) == 1

    def test_trivial_group(self):
        assert count_group_flows(POS_LOOP, TRIVIAL) == 0
        assert count_group_flows(EDGELESS, TRIVIAL) == 1

    def test_group_order_above_512(self):
        big = FiniteAbelianGroup((600,))
        assert count_group_flows(NEG_LOOP, big) == 1
        assert count_group_flows(POS_LOOP, big) == 599

    def test_order_above_512_matches_the_engine(self):
        gamma = FiniteAbelianGroup((23, 23))
        assert count_group_flows(DIGON_PM, gamma) == flow_polynomial(DIGON_PM, 0)(529)

    def test_matches_naive_enumeration(self):
        # re-count by filtering verify_flow over every nowhere-zero assignment
        for graph in [DIGON_PM, TRIANGLE_ONE_NEG, BARBELL]:
            for gamma in [Z3, Z4, K4GROUP]:
                tau = default_orientation(graph)
                nonzero = list(nonzero_elements(gamma))
                naive = sum(
                    1
                    for values in itertools.product(nonzero, repeat=graph.num_edges)
                    if verify_flow(graph, tau, gamma, dict(enumerate(values)))
                )
                assert count_group_flows(graph, gamma) == naive

    @given(
        signed_graphs(max_vertices=3, max_edges=4),
        st.sampled_from(abelian_groups_up_to(4)),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_product_reference_on_random_graphs(self, graph, gamma, data):
        flips = data.draw(st.lists(st.booleans(), min_size=graph.num_edges, max_size=graph.num_edges))
        tau = flipped_orientation(graph, flips)
        assert count_group_flows(graph, gamma, tau=tau) == product_reference(graph, gamma, tau)

    @given(loop_and_multi_edge_graphs(max_vertices=6, max_edges=10),
           st.sampled_from(SMALL_GROUPS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabeling_and_edge_order_do_not_matter(self, graph, gamma, data):
        relabel = data.draw(st.permutations(range(graph.num_vertices)))
        order = data.draw(st.permutations(range(graph.num_edges)))
        shuffled = SignedGraph.from_edges(
            graph.num_vertices,
            [(relabel[graph.edges[i].u], relabel[graph.edges[i].v], graph.edges[i].sign) for i in order],
        )
        assert count_group_flows(shuffled, gamma) == count_group_flows(graph, gamma)

    def test_orientation_against_an_edge_sign_is_refused(self):
        # tau0 * tau1 = 1 would make the positive loop a negative one (1 flow, not 3)
        with pytest.raises(ValueError, match="orientation"):
            count_group_flows(POS_LOOP, Z4, tau=Orientation(((1, 1),)))

    def test_orientation_shorter_than_the_edge_list_is_refused(self):
        tau = default_orientation(POS_EDGE)
        with pytest.raises(ValueError, match="orientation"):
            count_group_flows(DIGON_PP, Z4, tau=tau)

    def test_twelve_hundred_parallel_edges(self):
        # one frame per edge would exceed Python's recursion limit here, and the
        # 2^1200 nowhere-zero assignments fit the default budget: two vertices are open
        graph = SignedGraph(2, ((0, 1, 1),) * 1200)
        assert count_group_flows(graph, Z3) == nonzero_sum_count(1200, 3)


class TestOrientationAndSwitchingInvariance:
    def test_single_edge_reversals_keep_the_count(self):
        graphs = [
            DIGON_PM,
            TRIANGLE_ONE_NEG,
            BARBELL,
            THETA_PPM,
            g(3, (0, 1, 1), (1, 2, -1), (0, 2, 1), (1, 1, -1), (0, 1, -1)),
        ]
        groups = abelian_groups_up_to(8)
        for graph in graphs:
            for gamma in groups:
                base = count_group_flows(graph, gamma)
                tau = default_orientation(graph)
                for i in range(graph.num_edges):
                    assert count_group_flows(graph, gamma, tau=reverse_edge(tau, i)) == base

    def test_switching_keeps_the_count(self):
        for graph in [TRIANGLE_ONE_NEG, BARBELL, THETA_PPM]:
            for gamma in SMALL_GROUPS:
                base = count_group_flows(graph, gamma)
                for bits in range(2 ** graph.num_vertices):
                    x = {v for v in range(graph.num_vertices) if bits >> v & 1}
                    assert count_group_flows(switch(graph, x), gamma) == base


class TestDeletionContraction:
    @pytest.mark.parametrize("graph", [DIGON_PM, TRIANGLE, TRIANGLE_ONE_NEG, THETA_PPM])
    @pytest.mark.parametrize("gamma", [Z3, Z4, K4GROUP])
    def test_identity_on_positive_non_loop_edges(self, graph, gamma):
        for i, e in enumerate(graph.edges):
            if e.is_loop() or e.sign != 1:
                continue
            whole = count_group_flows(graph, gamma)
            contracted = count_group_flows(contract_edge(graph, i), gamma)
            deleted = count_group_flows(delete_edge(graph, i), gamma)
            assert whole == contracted - deleted

    def test_positive_loop_factor(self):
        graph = g(2, (0, 0, 1), (0, 1, 1), (0, 1, -1))
        for gamma in SMALL_GROUPS:
            assert count_group_flows(graph, gamma) == (gamma.order - 1) * count_group_flows(
                delete_edge(graph, 0), gamma
            )

    @given(signed_graphs(max_vertices=4, max_edges=4), st.sampled_from(SMALL_GROUPS))
    @settings(max_examples=40, deadline=None)
    def test_identity_on_random_graphs(self, graph, gamma):
        for i, e in enumerate(graph.edges):
            if e.is_loop():
                continue
            h = make_edge_positive(graph, i)
            assert count_group_flows(h, gamma) == count_group_flows(graph, gamma)
            assert count_group_flows(h, gamma) == count_group_flows(
                contract_edge(h, i), gamma
            ) - count_group_flows(delete_edge(h, i), gamma)
            break


class TestMultiplicativity:
    def test_disjoint_union_multiplies(self):
        left = TRIANGLE_ONE_NEG
        right = NEG_LOOP
        union = g(4, *[(e.u, e.v, e.sign) for e in left.edges], (3, 3, -1))
        for gamma in SMALL_GROUPS:
            assert count_group_flows(union, gamma) == count_group_flows(
                left, gamma
            ) * count_group_flows(right, gamma)


class TestIntegerFlows:
    def test_n1_has_no_values(self):
        assert count_integer_nflows(POS_LOOP, 1) == 0
        assert count_integer_nflows(EDGELESS, 1) == 1

    def test_float_n_is_refused(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            count_integer_nflows(POS_LOOP, 3.0)

    def test_positive_loop_uses_all_values(self):
        assert count_integer_nflows(POS_LOOP, 4) == 6

    def test_negative_loop_has_no_integer_flows(self):
        for n in range(1, 7):
            assert count_integer_nflows(NEG_LOOP, n) == 0

    def test_barbell_counts(self):
        # x on one loop forces -x on the other and -2x on the bridge
        assert [count_integer_nflows(BARBELL, n) for n in range(1, 7)] == [0, 0, 2, 2, 4, 4]

    def test_invalid_n_raises(self):
        with pytest.raises(ValueError):
            count_integer_nflows(POS_LOOP, 0)

    def test_isolated_vertices_are_ignored(self):
        padded = g(10**6, (0, 0, -1), (999_999, 999_999, -1), (0, 999_999, 1))
        assert [count_integer_nflows(padded, n) for n in range(1, 7)] == [0, 0, 2, 2, 4, 4]
        tau = Orientation(((1, 1), (-1, -1), (1, -1)))
        for gamma in (Z3, Z4, K4GROUP):
            assert count_group_flows(padded, gamma, tau=tau) == count_group_flows(BARBELL, gamma)

    @pytest.mark.parametrize(
        "graph",
        [
            POS_EDGE,
            BARBELL,
            THETA_PPM,
            TRIANGLE_ONE_NEG,
            # the sum at the loop vertex can reach (n-1) * (half-edge degree)
            g(1, (0, 0, -1), (0, 0, -1), (0, 0, -1)),
            g(1, (0, 0, -1), (0, 0, -1), (0, 0, -1), (0, 0, 1)),
            g(2, (0, 0, -1), (0, 0, -1), (0, 1, -1), (1, 1, 1), (1, 1, -1)),
        ],
    )
    def test_matches_product_reference(self, graph):
        for n in range(1, 5):
            assert count_integer_nflows(graph, n) == integer_product_reference(graph, n)


def value_set_reference(graph: SignedGraph, tau: Orientation, r: int, values: tuple[range, ...]) -> int:
    """Assignments of residues mod r from ``values`` (a residue in two ranges
    is two values) whose tau-weighted sums vanish mod r at every vertex:
    each assignment of distinct residues whose sums vanish counts the
    product of their multiplicities."""
    mult = Counter(x for part in values for x in part)
    count = 0
    for xs in itertools.product(mult, repeat=graph.num_edges):
        sums = [0] * graph.num_vertices
        for x, e, (t0, t1) in zip(xs, graph.edges, tau.taus):
            sums[e.u] += t0 * x
            sums[e.v] += t1 * x
        if all(t % r == 0 for t in sums):
            count += prod(mult[x] for x in xs)
    return count


def closed_under_negation(r: int, values: tuple[range, ...]) -> tuple[range, ...]:
    """``values`` and the negative mod r of each of them, as every caller of
    the count passes: a residue is then as many values as its negative."""
    return values + tuple(range(-x % r, -x % r + 1) for part in values for x in part)


def closes_at_its_next_edge(walk, pos: int, slot: int) -> bool:
    """Whether the next edge after ``pos`` at ``slot`` closes that slot's vertex."""
    for _, su, sv, _, freed, _ in walk[pos + 1:]:
        if slot in (su, sv):
            return slot in freed
    return False


def closing_shapes(graph: SignedGraph) -> set[str]:
    """The ways of closing a vertex that the walk of ``graph`` takes."""
    walk = frontier_walk(graph)
    shapes = set()
    for pos, (i, su, sv, _, freed, _) in enumerate(walk):
        if su == sv and freed:
            shapes.add("last edge a positive loop" if graph.edges[i].sign == 1 else "last edge a negative loop")
        if len(freed) == 2:
            shapes.add("one edge closes both ends")
        if su != sv and all(closes_at_its_next_edge(walk, pos, w) for w in (su, sv)):
            shapes.add("next-to-last at both ends")
        if su == sv and not freed and closes_at_its_next_edge(walk, pos, su):
            shapes.add("next-to-last edge a loop")
    return shapes


class TestEarlyClosingCheck:
    """A vertex's next-to-last edge keeps only the sums its last edge can
    negate; each way a vertex can close, against brute force."""

    @pytest.mark.parametrize(
        "graph, shape",
        [
            (g(2, (0, 1, 1), (0, 1, -1), (1, 1, 1)), "last edge a positive loop"),
            (g(2, (0, 1, 1), (0, 1, 1), (1, 1, -1)), "last edge a negative loop"),
            (g(2, (0, 1, 1), (0, 1, -1), (0, 1, 1)), "next-to-last at both ends"),
            (g(3, (0, 1, 1), (1, 2, -1), (0, 1, 1), (1, 2, 1)), "next-to-last at both ends"),
            (DIGON_PM, "one edge closes both ends"),
            (g(2, (0, 1, 1), (0, 1, 1), (1, 1, -1), (1, 1, 1)), "next-to-last edge a loop"),
        ],
    )
    def test_each_way_to_close_matches_brute_force(self, graph, shape):
        assert shape in closing_shapes(graph)
        for n in range(1, 5):
            assert count_integer_nflows(graph, n) == integer_product_reference(graph, n)
        tau = default_orientation(graph)
        for gamma in (Z3, Z4, K4GROUP, Z5):
            assert count_group_flows(graph, gamma) == product_reference(graph, gamma, tau)
        # value sets closed under negation, as every caller's are, one with a
        # residue in two ranges: with them the sign of an end's factor enters
        # no lookup, as the flipped orientation checks; only the relative sign
        # of an edge's two ends does (b_of, adds), set by the graphs' signs
        flipped = flipped_orientation(graph, [True] * graph.num_edges)
        for r in (3, 4, 5):
            for values in ((range(1, 2),), (range(1, 3), range(2, 3))):
                values = closed_under_negation(r, values)
                for t in (tau, flipped):
                    assert _count_flows(graph, t, FiniteAbelianGroup((r,)), values, DEFAULT_BUDGET) == (
                        value_set_reference(graph, t, r, values)
                    )

    @given(signed_graphs(max_vertices=3, max_edges=5), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_integer_counts_match_brute_force_on_random_graphs(self, graph, n):
        assert count_integer_nflows(graph, n) == integer_product_reference(graph, n)

    @given(signed_graphs(max_vertices=3, max_edges=4), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_value_sets_closed_under_negation_on_random_graphs(self, graph, r, data):
        bounds = [sorted(data.draw(st.lists(st.integers(0, r), min_size=2, max_size=2))) for _ in range(2)]
        values = closed_under_negation(r, tuple(range(lo, hi) for lo, hi in bounds))
        flips = data.draw(st.lists(st.booleans(), min_size=graph.num_edges, max_size=graph.num_edges))
        tau = flipped_orientation(graph, flips)
        assert _count_flows(graph, tau, FiniteAbelianGroup((r,)), values, DEFAULT_BUDGET) == (
            value_set_reference(graph, tau, r, values)
        )

    def test_positive_k5(self):
        k5 = g(5, *((u, v, 1) for u, v in itertools.combinations(range(5), 2)))
        assert [count_integer_nflows(k5, n) for n in range(2, 6)] == [24, 576, 6096, 36784]


@st.composite
def multi_component_graphs(draw, max_edges: int = 6):
    """Two or three parts side by side, each with an edge, plus up to two
    isolated vertices, with vertices and edges in random order.  Parts of
    at most three vertices often carry loops of both signs and parallel
    edges."""
    k = draw(st.integers(2, 3))
    part = signed_graphs(max_vertices=3, max_edges=max_edges // k).filter(lambda h: h.num_edges)
    union = disjoint_union([draw(part) for _ in range(k)] + [g(1)] * draw(st.integers(0, 2)))
    relabel = draw(st.permutations(range(union.num_vertices)))
    order = draw(st.permutations(union.edges))
    return SignedGraph.from_edges(union.num_vertices, [(relabel[u], relabel[v], s) for u, v, s in order])


@st.composite
def any_taus(draw, graph: SignedGraph):
    """An orientation drawn half-edge by half-edge, whether or not it fits
    the signs."""
    pm = st.sampled_from((1, -1))
    return Orientation(tuple((draw(pm), draw(pm)) for _ in graph.edges))


def last_charged(walk, taus) -> list[int]:
    """Per component of the walk, the position of its last edge with
    tau0 = tau1, or -1."""
    out, last = [], -1
    for pos, ((*_, num_open), (t0, t1)) in enumerate(zip(walk, taus)):
        last = pos if t0 == t1 else last
        if not num_open:
            out.append(last)
            last = -1
    return out


def forcing_shapes(graph: SignedGraph) -> set[str]:
    """The kinds of edge at which the count of ``graph`` forces the total of
    the open sums: a component's last edge with tau0 = tau1 after switching,
    where that is not the component's last edge."""
    walk = frontier_walk(graph)
    last = iter(last_charged(walk, _forest_switched(graph, walk, default_orientation(graph))))
    shapes = set()
    for pos, (*_, num_open) in enumerate(walk):
        if not num_open:
            forced = next(last)
            if 0 <= forced < pos:
                _, su, sv, _, closes, _ = walk[forced]
                shapes.add("a loop that closes its vertex" if su == sv and closes
                           else "a loop" if su == sv else "an edge that closes no end")
    return shapes


class TestChargeLaw:
    """Only edges with tau0 = tau1 change the total of the vertex sums, so
    after a component's last such edge that total must be 0.  The count
    switches so that edge comes as early as it can and forces the total
    there; each count still matches brute force."""

    @pytest.mark.parametrize(
        "graph, shape",
        [
            (g(3, (0, 1, 1), (1, 1, -1), (1, 1, -1), (0, 2, 1), (2, 2, 1)), "a loop that closes its vertex"),
            (BARBELL, "a loop"),
            (g(2, (0, 0, -1), (0, 1, 1), (0, 1, 1)), "a loop"),
            (TRIANGLE_ONE_NEG, "an edge that closes no end"),
            (THETA_PPM, "an edge that closes no end"),
        ],
    )
    def test_each_way_to_force_matches_brute_force(self, graph, shape):
        assert shape in forcing_shapes(graph)
        for n in range(1, 5):
            assert count_integer_nflows(graph, n) == integer_product_reference(graph, n)
        tau = default_orientation(graph)
        for gamma in (Z2, Z3, Z4, K4GROUP, Z5):
            assert count_group_flows(graph, gamma) == product_reference(graph, gamma, tau)
        # on the first graph, the forced loop keeps a state only if the edge
        # into its vertex carries 0, so the value sets include 0
        flipped = flipped_orientation(graph, [True] * graph.num_edges)
        for r in (3, 4, 5, 6):
            for values in ((range(1, 2),), (range(0, 3), range(2, 3))):
                values = closed_under_negation(r, values)
                for t in (tau, flipped):
                    assert _count_flows(graph, t, FiniteAbelianGroup((r,)), values, DEFAULT_BUDGET) == (
                        value_set_reference(graph, t, r, values)
                    )

    @given(multi_component_graphs(), st.sampled_from([Z2, Z3, Z4, K4GROUP]), st.data())
    @settings(max_examples=50, deadline=None)
    def test_group_counts_match_brute_force(self, graph, gamma, data):
        tau = default_orientation(graph)
        for i in data.draw(st.lists(st.integers(0, graph.num_edges - 1), max_size=4)):
            tau = reverse_edge(tau, i)
        assert count_group_flows(graph, gamma, tau=tau) == product_reference(graph, gamma, tau)

    @given(multi_component_graphs(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_integer_counts_match_brute_force(self, graph, n):
        assert count_integer_nflows(graph, n) == integer_product_reference(graph, n)

    @given(multi_component_graphs(max_edges=5), st.integers(2, 6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_value_ranges_and_any_tau_match_brute_force(self, graph, r, data):
        lo, hi = sorted(data.draw(st.lists(st.integers(0, r), min_size=2, max_size=2)))
        extra = data.draw(st.integers(0, r - 1))
        values = closed_under_negation(r, (range(lo, hi), range(extra, extra + data.draw(st.integers(0, 1)))))
        tau = data.draw(any_taus(graph))
        assert _count_flows(graph, tau, FiniteAbelianGroup((r,)), values, DEFAULT_BUDGET) == (
            value_set_reference(graph, tau, r, values)
        )

    @given(multi_component_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_reverse_walk_forest_gets_opposite_taus(self, graph, data):
        walk = frontier_walk(graph)
        tau = data.draw(any_taus(graph))
        switched = _forest_switched(graph, walk, tau)
        # a switching: each vertex's half-edges all keep tau or all negate it
        flips: dict[int, set[int]] = {}
        for (i, *_), new in zip(walk, switched):
            for w, t, t_new in zip(graph.edges[i][:2], tau.taus[i], new):
                flips.setdefault(w, set()).add(t * t_new)
        assert all(len(f) == 1 for f in flips.values())
        # the forest grown from the walk's end, by plain component labels
        label = {w: w for w in range(graph.num_vertices)}
        for pos in reversed(range(len(walk))):
            u, v, _ = graph.edges[walk[pos][0]]
            if label[u] != label[v]:
                old = label[u]
                label = {w: label[v] if c == old else c for w, c in label.items()}
                assert switched[pos][0] == -switched[pos][1]

    @given(multi_component_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_switching_ends_the_charge_earlier(self, graph, data):
        walk = frontier_walk(graph)
        tau = data.draw(any_taus(graph))
        best = last_charged(walk, _forest_switched(graph, walk, tau))
        for bits in range(2 ** graph.num_vertices):
            taus = []
            for i, *_ in walk:
                u, v, _ = graph.edges[i]
                t0, t1 = tau.taus[i]
                taus.append((-t0 if bits >> u & 1 else t0, -t1 if bits >> v & 1 else t1))
            assert all(a <= b for a, b in zip(best, last_charged(walk, taus)))

    @given(multi_component_graphs(), st.sampled_from([Z3, Z4, K4GROUP, Z5]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_counting_under_the_switched_tau_keeps_the_count(self, graph, gamma, data):
        walk = frontier_walk(graph)
        tau = data.draw(any_taus(graph))
        by_edge = dict(zip((i for i, *_ in walk), _forest_switched(graph, walk, tau)))
        switched = Orientation(by_edge[i] for i in range(graph.num_edges))
        values = (range(1, gamma.order),)
        assert _count_flows(graph, switched, gamma, values, DEFAULT_BUDGET) == (
            _count_flows(graph, tau, gamma, values, DEFAULT_BUDGET)
        )


class TestDoubleSumOracle:
    def test_empty_equation(self):
        assert count_double_sum_solutions(0, Z5) == 1

    def test_single_variable_in_z2(self):
        assert count_double_sum_solutions(1, Z2) == 1

    def test_two_variables_in_z4(self):
        assert count_double_sum_solutions(2, Z4) == 5

    def test_matches_direct_filter(self):
        for gamma in [Z3, Z4, K4GROUP]:
            for t in range(4):
                identity = zero(gamma)
                direct = 0
                for xs in itertools.product(list(nonzero_elements(gamma)), repeat=t):
                    acc = identity
                    for x in xs:
                        acc = gamma.add(acc, gamma.double(x))
                    direct += acc == identity
                assert count_double_sum_solutions(t, gamma) == direct

    def test_negative_t_raises(self):
        with pytest.raises(ValueError):
            count_double_sum_solutions(-1, Z2)

    def test_float_t_is_refused(self):
        with pytest.raises(ValueError, match="t must be an integer"):
            count_double_sum_solutions(2.0, Z4)


class TestEqualInvariantsEqualCounts:
    def test_same_invariants_give_same_counts(self):
        from signedflow import group_pairs_same_invariants

        graphs = [NEG_LOOP, POS_LOOP, DIGON_PM, TRIANGLE_ONE_NEG, BARBELL, TWO_NEG_LOOPS]
        for left, right in group_pairs_same_invariants(abelian_groups_up_to(16)):
            for graph in graphs:
                assert count_group_flows(graph, left) == count_group_flows(graph, right)


class TestValuesClosedUnderNegation:
    def test_every_caller_passes_each_value_as_often_as_its_negative(self, monkeypatch):
        # the count reads one tally per factor k for both k * x = d and
        # k * x = -d, which holds only for value sets closed under negation
        calls = []

        def recorded(graph, tau, gamma, values, budget):
            calls.append((gamma, values))
            return _count_flows(graph, tau, gamma, values, budget)

        monkeypatch.setattr("signedflow.oracle._count_flows", recorded)
        groups = abelian_groups_up_to(16)
        for gamma in groups:
            count_group_flows(TRIANGLE, gamma)
        # largest half-degree 1 (both ranges are 1..n-1 at N = n), 2 and 4
        k5 = g(5, *((u, v, 1) for u, v in itertools.combinations(range(5), 2)))
        for graph in (POS_EDGE, TRIANGLE, k5):
            for n in range(1, 9):
                count_integer_nflows(graph, n)
        assert len(calls) == len(groups) + 3 * 8
        for gamma, values in calls:
            mult = Counter(x for part in values for x in part)
            neg = gamma.index_table(0, -1)
            assert all(mult[x] == mult[neg[x]] for x in range(gamma.order)), (gamma, values)


class TestKeptPlan:
    def test_each_count_matches_a_count_with_no_plan_kept(self, monkeypatch):
        a = k4_with_signs([1, -1, 1, 1, -1, 1])
        b = k4_with_signs([1, 1, 1, 1, 1, 1])
        tau = default_orientation(a)
        copy = g(4, *((e.u, e.v, e.sign) for e in a.edges))
        assert copy == a and copy is not a
        steps = [(a, tau), (b, default_orientation(b)), (a, tau),
                 (copy, Orientation(tau.taus)), (a, reverse_edge(tau, 0))]
        gamma = FiniteAbelianGroup((4, 2))
        fresh = []
        for graph, t in steps:
            monkeypatch.setattr("signedflow.oracle._last_plan", ((None, None), None))
            fresh.append((count_group_flows(graph, gamma, tau=t), _plan(graph, t)))
        monkeypatch.setattr("signedflow.oracle._last_plan", ((None, None), None))
        assert [(count_group_flows(graph, gamma, tau=t), _plan(graph, t)) for graph, t in steps] == fresh
        # B's plan and A's under the reversed edge differ from A's, so a plan
        # kept under the wrong key would show
        assert fresh[1][1] != fresh[0][1] != fresh[4][1]
        assert [count for count, _ in fresh] == [114, 210, 114, 114, 114]


class TestBudget:
    def test_group_budget_guard(self):
        # 4*11 + 10 table entries up front; the first edge adds 10 steps, 2*(11 + 10)
        # value-table entries and two addition-table rows of 11
        message = "up to 128 transfer-matrix steps by edge 0 (0 1 +)"
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            count_group_flows(TRIANGLE, FiniteAbelianGroup((11,)), budget=10)

    def test_integer_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            count_integer_nflows(TRIANGLE, 100, budget=1000)

    def test_negative_budget_is_a_value_error(self):
        with pytest.raises(ValueError, match="budget"):
            count_group_flows(TRIANGLE, Z3, budget=-5)
        with pytest.raises(ValueError, match="budget"):
            count_integer_nflows(EDGELESS, 2, budget=-1)

    def test_float_budget_is_refused(self):
        with pytest.raises(ValueError, match="budget must be an integer"):
            count_group_flows(TRIANGLE, Z3, budget=1e9)

    def test_positive_k8_over_z5_fits_the_default_budget(self):
        assert count_group_flows(K8, Z5) == flow_polynomial(K8, 0)(5)

    def test_refusal_names_the_edge_and_the_open_vertices(self):
        with pytest.raises(BudgetExceededError, match=re.escape("by edge 10 (1 5 +) with 6 vertices open")):
            count_group_flows(K8, FiniteAbelianGroup((16,)))

    def test_table_entries_count_against_the_budget(self):
        # both edges are forced, but the tables hold an entry per group element
        path = g(3, (0, 1, 1), (1, 2, 1))
        with pytest.raises(BudgetExceededError, match=re.escape("by edge 1 (1 2 +) with 1 vertex open")):
            count_group_flows(path, FiniteAbelianGroup((10**7,)))

    def test_addition_rows_count_against_the_budget(self):
        # the second edge closes vertex 0 and may build a row of 1000 entries for
        # each of up to 999 sums at vertex 1
        digon_and_loop = g(2, (0, 1, 1), (0, 1, 1), (1, 1, -1))
        with pytest.raises(BudgetExceededError, match=re.escape("by edge 1 (0 1 +) with 2 vertices open")):
            count_group_flows(digon_and_loop, FiniteAbelianGroup((1000,)), budget=10**5)

    @pytest.mark.parametrize("count", [
        lambda: count_group_flows(POS_EDGE, FiniteAbelianGroup((2**63 + 1,))),
        lambda: count_integer_nflows(POS_EDGE, 2**64),
    ], ids=["group-of-order-2^63+1", "integer-2^64-flows"])
    def test_more_values_than_sys_maxsize_are_a_refusal(self, count):
        # len() of a range longer than sys.maxsize raises OverflowError
        message = "by edge 0 (0 1 +) with 0 vertices open exceed budget"
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            count()

    @pytest.mark.parametrize("moduli", [(100,), (2, 50)])
    @pytest.mark.parametrize("graph", [DIGON_PM, TWO_NEG_LOOPS, TRIANGLE_ONE_NEG],
                             ids=["pm-digon", "two-neg-loops", "triangle-one-neg"])
    def test_no_row_is_built_where_the_bound_charges_none(self, monkeypatch, graph, moduli):
        # each edge here starts from sums of 0 or closes every end it has, so
        # the bound charges no addition-table row for a nonzero sum
        calls = []
        index_table = FiniteAbelianGroup.index_table

        def recording(self, shift, scale):
            calls.append((shift, scale))
            return index_table(self, shift, scale)

        monkeypatch.setattr(FiniteAbelianGroup, "index_table", recording)
        assert count_group_flows(graph, FiniteAbelianGroup(moduli)) > 0
        assert calls and [(shift, scale) for shift, scale in calls if scale == 1 and shift] == []

    def test_double_sum_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            count_double_sum_solutions(8, FiniteAbelianGroup((16,)), budget=100)

    def test_counts_are_python_ints(self):
        assert isinstance(count_group_flows(TRIANGLE, Z5), int)


K4_TWO_NEG = g(4, (0, 1, -1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, -1), (2, 3, 1))
# each edge's first end is its later one, so an edge that closes one end closes v
TRIANGLE_REVERSED = g(3, (1, 0, 1), (2, 0, -1), (2, 1, 1))


class TestPinnedOutcomes:
    """Counts and refusal messages as the oracle gives them; moduli count
    group flows, an int n counts integer n-flows.  The kinds of edge in
    frontier order are named after the graph: L loop, . closes no end,
    1 closes one end, 2 closes both (a loop's one end is 1)."""

    @pytest.mark.parametrize(
        "graph, over, budget, expected",
        [
            pytest.param(POS_LOOP, (5,), None, 4, id="pos-loop-L1"),
            pytest.param(TWO_NEG_LOOPS, (4, 2), None, 25, id="two-neg-loops-L.-L1"),
            pytest.param(BARBELL, (4,), None, 4, id="barbell-L.-L.-2"),
            pytest.param(THETA_PPM, (6,), None, 4, id="theta-.-.-2"),
            pytest.param(TRIANGLE, (11,), 342, 10, id="triangle-.-1-2-at-its-bound"),
            pytest.param(TRIANGLE_REVERSED, (6,), 152, 1, id="reversed-triangle-at-its-bound"),
            pytest.param(K4_TWO_NEG, (3, 3), None, 0, id="signed-k4"),
            pytest.param(BARBELL, 5, None, 4, id="integer-barbell"),
            pytest.param(K4_TWO_NEG, 4, 1448, 0, id="integer-signed-k4-at-its-bound"),
            pytest.param(
                TRIANGLE, (11,), 10,
                "up to 128 transfer-matrix steps by edge 0 (0 1 +) with 0 vertices open exceed budget 10",
                id="refused-at-the-first-edge",
            ),
            pytest.param(
                TRIANGLE, (11,), 150,
                "up to 290 transfer-matrix steps by edge 1 (0 2 +) with 2 vertices open exceed budget 150",
                id="refused-at-a-middle-edge",
            ),
            pytest.param(
                TRIANGLE, (11,), 341,
                "up to 342 transfer-matrix steps by edge 2 (1 2 +) with 2 vertices open exceed budget 341",
                id="refused-at-the-last-edge",
            ),
            pytest.param(
                BARBELL, (4,), 60,
                "up to 75 transfer-matrix steps by edge 1 (1 1 -) with 1 vertex open exceed budget 60",
                id="refused-after-a-loop",
            ),
            pytest.param(
                K4_TWO_NEG, 4, 1000,
                "up to 1316 transfer-matrix steps by edge 4 (1 3 -) with 3 vertices open exceed budget 1000",
                id="integer-refused-at-a-middle-edge",
            ),
            pytest.param(
                K4_TWO_NEG, 4, 1447,
                "up to 1448 transfer-matrix steps by edge 5 (2 3 +) with 2 vertices open exceed budget 1447",
                id="integer-refused-at-the-last-edge",
            ),
            pytest.param(
                g(3, (0, 1, 1), (1, 2, 1)), (10**7,), None,
                "up to 139999997 transfer-matrix steps by edge 1 (1 2 +) with 1 vertex open "
                "exceed budget 100000000",
                id="path-over-a-large-group",
            ),
        ],
    )
    def test_count_or_refusal(self, graph, over, budget, expected):
        kwargs = {} if budget is None else {"budget": budget}
        try:
            if isinstance(over, int):
                outcome = count_integer_nflows(graph, over, **kwargs)
            else:
                outcome = count_group_flows(graph, FiniteAbelianGroup(over), **kwargs)
        except BudgetExceededError as exc:
            outcome = str(exc)
        assert outcome == expected


class TestOrientationIndependenceOfZoo:
    @pytest.mark.parametrize("graph", [gr for gr in ZOO if gr.num_edges <= 4])
    def test_small_groups(self, graph):
        for gamma in [Z3, K4GROUP]:
            base = count_group_flows(graph, gamma)
            tau = default_orientation(graph)
            for i in range(graph.num_edges):
                assert count_group_flows(graph, gamma, tau=reverse_edge(tau, i)) == base
