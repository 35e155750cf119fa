import hashlib
import itertools
import re
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedflow import (
    Edge,
    Orientation,
    SignedGraph,
    connected_components,
    contract_edge,
    default_orientation,
    delete_edge,
    graph_fingerprint,
    graph_to_text,
    is_edge_cut,
    make_edge_positive,
    parse_graph_text,
    signatures_equivalent,
    switch,
)

from signedflow.graph import _forest, drop_edgeless_vertices, frontier_order, frontier_walk

from corpusgen import (
    DIGON_PM,
    DIGON_PP,
    NEG_LOOP,
    POS_LOOP,
    TRIANGLE,
    ZOO,
    disjoint_union,
    g,
    signed_graphs,
)
from reference import cycle_sign, reverse_edge


def brute_force_is_edge_cut(graph: SignedGraph, ids) -> bool:
    """Independent oracle: try every vertex subset X and compare delta(X)."""
    want = frozenset(ids)
    for bits in range(2 ** graph.num_vertices):
        x = {v for v in range(graph.num_vertices) if bits >> v & 1}
        delta = frozenset(
            i for i, e in enumerate(graph.edges) if (e.u in x) != (e.v in x)
        )
        if delta == want:
            return True
    return False


class TestConstruction:
    def test_rejects_bad_endpoint(self):
        with pytest.raises(ValueError):
            SignedGraph.from_edges(2, [(0, 2, 1)])

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            SignedGraph.from_edges(2, [(0, 1, 0)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            SignedGraph(-1)

    def test_empty_graphs_are_valid(self):
        assert SignedGraph(0).num_edges == 0
        assert SignedGraph(3).num_vertices == 3

    def test_rejects_float_vertex_count(self):
        with pytest.raises(ValueError, match="num_vertices must be an integer"):
            SignedGraph(2.5, ((0, 1, 1),))

    def test_rejects_float_endpoint(self):
        with pytest.raises(ValueError, match="edge 0 endpoint must be an integer"):
            SignedGraph(2, ((0.0, 1, 1),))

    def test_rejects_float_sign(self):
        with pytest.raises(ValueError, match="edge 1 sign must be an integer"):
            SignedGraph.from_edges(2, [(0, 1, 1), (0, 1, -1.0)])

    def test_rejects_float_tau(self):
        with pytest.raises(ValueError, match="tau must be an integer"):
            Orientation(((1.0, -1),))

    def test_rejects_tau_outside_plus_minus_one(self):
        with pytest.raises(ValueError) as exc:
            Orientation(((2, 1),))
        assert str(exc.value) == "edge 0: tau values must be +1 or -1, got (2, 1)"

    def test_integer_types_become_ints(self):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        graph = SignedGraph(Index(2), [(Index(0), Index(1), Index(-1))])
        assert graph == SignedGraph(2, [(0, 1, -1)])
        assert all(type(x) is int for x in (graph.num_vertices, *graph.edges[0]))
        assert Orientation([(Index(1), Index(1))]).taus == ((1, 1),)


class TestDefaultOrientation:
    def test_positive_edge_points_u_to_v(self):
        o = default_orientation(g(2, (0, 1, 1)))
        assert o.taus == ((-1, 1),)

    def test_negative_edge_has_both_halves_outward(self):
        o = default_orientation(g(2, (0, 1, -1)))
        assert o.taus == ((-1, -1),)

    def test_edgeless_graph_has_empty_orientation(self):
        assert default_orientation(SignedGraph(3)).taus == ()

    @given(signed_graphs())
    def test_axiom_holds_on_every_graph(self, graph):
        assert default_orientation(graph).satisfies(graph)

    def test_reverse_edge_preserves_validity(self):
        graph = DIGON_PM
        o = default_orientation(graph)
        for i in range(graph.num_edges):
            assert reverse_edge(o, i).satisfies(graph)
        with pytest.raises(ValueError):
            reverse_edge(o, 5)

    def test_reverse_edge_refuses_a_float_id(self):
        with pytest.raises(ValueError, match="edge id must be an integer"):
            reverse_edge(default_orientation(DIGON_PM), 0.0)


class TestSwitch:
    def test_empty_and_full_sets_are_identity(self):
        for graph in ZOO:
            assert switch(graph, set()) == graph
            assert switch(graph, range(graph.num_vertices)) == graph

    def test_single_negative_edge_becomes_positive(self):
        assert switch(g(2, (0, 1, -1)), {0}) == g(2, (0, 1, 1))

    def test_loop_sign_never_changes(self):
        assert switch(NEG_LOOP, {0}) == NEG_LOOP

    def test_invalid_vertex_raises(self):
        with pytest.raises(ValueError):
            switch(NEG_LOOP, {1})

    def test_float_vertex_is_refused(self):
        with pytest.raises(ValueError, match="vertex must be an integer"):
            switch(TRIANGLE, [1.0])

    def test_involution(self):
        graph = g(3, (0, 1, 1), (1, 2, -1), (0, 2, 1), (1, 1, -1))
        assert switch(switch(graph, {1}), {1}) == graph


class TestIsEdgeCut:
    def test_empty_set_is_a_cut(self):
        for graph in ZOO:
            assert is_edge_cut(graph, ())

    def test_single_triangle_edge_is_not_a_cut(self):
        assert brute_force_is_edge_cut(TRIANGLE, {0}) is False
        assert is_edge_cut(TRIANGLE, {0}) is False

    def test_two_triangle_edges_are_a_cut(self):
        assert is_edge_cut(TRIANGLE, {0, 1})

    def test_loop_never_lies_in_a_cut(self):
        graph = g(1, (0, 0, 1))
        assert is_edge_cut(graph, {0}) is False

    def test_invalid_edge_id_raises(self):
        with pytest.raises(ValueError):
            is_edge_cut(TRIANGLE, {7})

    @given(signed_graphs(max_vertices=4, max_edges=5), st.data())
    @settings(max_examples=60)
    def test_matches_brute_force(self, graph, data):
        if graph.num_edges == 0:
            ids = frozenset()
        else:
            ids = frozenset(
                data.draw(st.sets(st.integers(0, graph.num_edges - 1)))
            )
        assert is_edge_cut(graph, ids) == brute_force_is_edge_cut(graph, ids)


class TestSignaturesEquivalent:
    def test_reflexive(self):
        for graph in ZOO:
            assert signatures_equivalent(graph, graph)

    def test_any_switching_is_equivalent(self):
        graph = g(3, (0, 1, -1), (1, 2, 1), (0, 2, -1), (2, 2, -1))
        for bits in range(8):
            x = {v for v in range(3) if bits >> v & 1}
            assert signatures_equivalent(graph, switch(graph, x))

    def test_positive_and_negative_loop_differ(self):
        assert signatures_equivalent(POS_LOOP, NEG_LOOP) is False

    def test_underlying_mismatch_raises(self):
        with pytest.raises(ValueError):
            signatures_equivalent(POS_LOOP, g(2, (0, 1, 1)))

    def test_endpoints_in_either_order_are_the_same_edge(self):
        graph = g(3, (0, 1, -1), (1, 2, 1), (0, 2, 1), (2, 2, -1))
        swapped = g(3, (1, 0, -1), (2, 1, 1), (0, 2, 1), (2, 2, -1))
        assert signatures_equivalent(graph, swapped)
        assert signatures_equivalent(swapped, switch(graph, {1}))
        # a balanced triangle against the unbalanced one
        assert not signatures_equivalent(swapped, g(3, (0, 1, 1), (2, 1, 1), (0, 2, 1), (2, 2, -1)))

    def test_symmetric_and_transitive_on_small_instances(self):
        base = g(3, (0, 1, 1), (1, 2, 1), (0, 2, 1))
        variants = [
            SignedGraph.from_edges(3, [(e.u, e.v, s) for e, s in zip(base.edges, signs)])
            for signs in itertools.product((1, -1), repeat=3)
        ]
        for a, b in itertools.product(variants, repeat=2):
            assert signatures_equivalent(a, b) == signatures_equivalent(b, a)
        for a, b, c in itertools.product(variants, repeat=3):
            if signatures_equivalent(a, b) and signatures_equivalent(b, c):
                assert signatures_equivalent(a, c)


def closed_walk_edge_sets(graph: SignedGraph):
    """All nonempty connected even-degree edge subsets (supports of closed walks)."""
    out = []
    for r in range(1, graph.num_edges + 1):
        for ids in itertools.combinations(range(graph.num_edges), r):
            deg = Counter()
            for i in ids:
                e = graph.edges[i]
                deg[e.u] += 1
                deg[e.v] += 1
            if any(d % 2 for d in deg.values()):
                continue
            verts = sorted(deg)
            root = verts[0]
            seen = {root}
            frontier = [root]
            while frontier:
                w = frontier.pop()
                for i in ids:
                    e = graph.edges[i]
                    if e.u == w and e.v not in seen:
                        seen.add(e.v)
                        frontier.append(e.v)
                    elif e.v == w and e.u not in seen:
                        seen.add(e.u)
                        frontier.append(e.u)
            if seen == set(verts):
                out.append(ids)
    return out


class TestCycleSign:
    def test_all_positive_cycle(self):
        assert cycle_sign(TRIANGLE, {0, 1, 2}) == 1

    def test_one_negative_edge_flips_the_cycle(self):
        assert cycle_sign(g(3, (0, 1, -1), (1, 2, 1), (0, 2, 1)), {0, 1, 2}) == -1

    def test_negative_loop_is_a_negative_cycle(self):
        assert cycle_sign(NEG_LOOP, {0}) == -1

    def test_invalid_edge_raises(self):
        with pytest.raises(ValueError):
            cycle_sign(NEG_LOOP, {3})

    def test_switching_preserves_all_cycle_signs(self):
        graphs = [
            TRIANGLE,
            g(3, (0, 1, -1), (1, 2, 1), (0, 2, 1), (1, 1, -1), (0, 1, 1)),
            g(2, (0, 1, 1), (0, 1, -1), (0, 0, -1), (1, 1, 1)),
            g(4, (0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1), (0, 2, 1)),
        ]
        for graph in graphs:
            cycles = closed_walk_edge_sets(graph)
            assert cycles
            for bits in range(2 ** graph.num_vertices):
                x = {v for v in range(graph.num_vertices) if bits >> v & 1}
                switched = switch(graph, x)
                for cyc in cycles:
                    assert cycle_sign(graph, cyc) == cycle_sign(switched, cyc)


class TestDeleteEdge:
    def test_removes_exactly_one_edge(self):
        for graph in ZOO:
            for i in range(graph.num_edges):
                assert delete_edge(graph, i).num_edges == graph.num_edges - 1

    def test_only_edge_leaves_vertices_behind(self):
        assert delete_edge(g(2, (0, 1, 1)), 0) == SignedGraph(2)

    def test_parallel_edge_survives_with_its_own_sign(self):
        assert delete_edge(DIGON_PM, 0) == g(2, (0, 1, -1))

    def test_ids_redensify_in_order(self):
        graph = g(3, (0, 1, 1), (1, 2, -1), (0, 2, 1))
        assert delete_edge(graph, 1) == g(3, (0, 1, 1), (0, 2, 1))

    def test_invalid_id_raises(self):
        with pytest.raises(ValueError):
            delete_edge(NEG_LOOP, 1)

    def test_float_id_is_refused(self):
        with pytest.raises(ValueError, match="edge id must be an integer"):
            delete_edge(NEG_LOOP, 0.0)


class TestContractEdge:
    def test_positive_digon_becomes_positive_loop(self):
        assert contract_edge(DIGON_PP, 0) == POS_LOOP

    def test_mixed_digon_becomes_negative_loop(self):
        assert contract_edge(DIGON_PM, 0) == NEG_LOOP

    def test_triangle_becomes_digon(self):
        assert contract_edge(TRIANGLE, 0) == g(2, (0, 1, 1), (0, 1, 1))

    def test_merged_vertex_keeps_smaller_index(self):
        graph = g(4, (1, 3, 1), (0, 2, -1), (3, 2, 1))
        got = contract_edge(graph, 0)
        assert got == g(3, (0, 2, -1), (1, 2, 1))

    def test_edges_below_the_merged_vertex_are_kept(self):
        graph = g(5, (0, 2, -1), (3, 1, 1), (4, 0, 1), (1, 1, -1), (3, 3, 1))
        got = contract_edge(graph, 1)
        assert got == g(4, (0, 2, -1), (3, 0, 1), (1, 1, -1), (1, 1, 1))
        assert got.edges[0] is graph.edges[0] and got.edges[2] is graph.edges[3]

    def test_loop_and_negative_preconditions(self):
        with pytest.raises(ValueError):
            contract_edge(POS_LOOP, 0)
        with pytest.raises(ValueError):
            contract_edge(g(2, (0, 1, -1)), 0)

    def test_reduces_edge_count_by_one(self):
        graph = g(3, (0, 1, 1), (1, 2, 1), (0, 2, -1), (1, 1, -1))
        assert contract_edge(graph, 0).num_edges == graph.num_edges - 1


class TestMakeEdgePositive:
    def test_positive_edge_is_untouched(self):
        graph = g(2, (0, 1, 1))
        assert make_edge_positive(graph, 0) is graph

    def test_path_switches_only_at_lower_endpoint(self):
        path = g(3, (0, 1, -1), (1, 2, 1))
        assert make_edge_positive(path, 0) == g(3, (0, 1, 1), (1, 2, 1))

    def test_negative_digon_stays_a_negative_cycle(self):
        # the digon whose cycle is negative carries signs {+, -}; switching
        # at an endpoint flips both parallel edges
        out = make_edge_positive(DIGON_PM, 1)
        assert out == g(2, (0, 1, -1), (0, 1, 1))
        assert out.edges[1].sign == 1
        assert cycle_sign(out, {0, 1}) == cycle_sign(DIGON_PM, {0, 1}) == -1
        assert signatures_equivalent(out, DIGON_PM)

    def test_loop_raises(self):
        with pytest.raises(ValueError):
            make_edge_positive(NEG_LOOP, 0)

    @given(signed_graphs())
    @settings(max_examples=50)
    def test_result_is_equivalent_and_positive(self, graph):
        for i, e in enumerate(graph.edges):
            if e.is_loop():
                continue
            out = make_edge_positive(graph, i)
            assert out.edges[i].sign == 1
            assert signatures_equivalent(graph, out)


def reachability_components(graph: SignedGraph) -> list[SignedGraph]:
    """Independent reference: each vertex's reachable set, grown edge by edge
    until it stops growing; then each set relabeled in vertex order."""
    parts = []
    for v in range(graph.num_vertices):
        if any(v in part for part in parts):
            continue
        part, grown = {v}, True
        while grown:
            grown = False
            for e in graph.edges:
                if (e.u in part) != (e.v in part):
                    part |= {e.u, e.v}
                    grown = True
        parts.append(part)
    out = []
    for part in parts:  # in order of smallest vertex, as v ascends
        label = {w: i for i, w in enumerate(sorted(part))}
        out.append(g(len(part), *((label[e.u], label[e.v], e.sign) for e in graph.edges if e.u in part)))
    return out


class TestConnectedComponents:
    @given(signed_graphs(max_vertices=7, max_edges=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_reachability(self, graph):
        comps = connected_components(graph)
        assert comps == reachability_components(graph)
        if len(comps) == 1:
            assert comps[0] is graph

    def test_splits_disjoint_pieces(self):
        graph = g(5, (0, 2, 1), (1, 3, -1), (1, 1, -1))
        comps = connected_components(graph)
        assert comps == [
            g(2, (0, 1, 1)),
            g(2, (0, 1, -1), (0, 0, -1)),
            g(1),
        ]

    def test_edge_order_is_preserved(self):
        graph = g(4, (2, 3, -1), (0, 1, 1), (2, 3, 1))
        comps = connected_components(graph)
        assert comps[1] == g(2, (0, 1, -1), (0, 1, 1))

    def test_vertexless_graph_has_no_components(self):
        assert connected_components(SignedGraph(0)) == []

    def test_connected_graph_is_its_own_component(self):
        for graph in (TRIANGLE, NEG_LOOP, g(1)):
            assert connected_components(graph)[0] is graph

    def test_interleaved_split_keeps_order_and_labels(self):
        graph = g(6, (4, 2, 1), (0, 3, -1), (5, 4, -1), (3, 3, 1), (2, 5, 1))
        assert connected_components(graph) == [
            g(2, (0, 1, -1), (1, 1, 1)),
            g(1),
            g(3, (1, 0, 1), (2, 1, -1), (0, 2, 1)),
        ]


class TestDropEdgelessVertices:
    def test_relabels_in_order_and_keeps_edge_order(self):
        graph = g(6, (4, 1, -1), (4, 4, 1), (1, 3, 1))
        assert drop_edgeless_vertices(graph) == g(3, (2, 0, -1), (2, 2, 1), (0, 1, 1))

    def test_graph_without_edgeless_vertices_is_returned_itself(self):
        for graph in (TRIANGLE, NEG_LOOP, g(0)):
            assert drop_edgeless_vertices(graph) is graph
        assert drop_edgeless_vertices(g(3)) == g(0)


class TestForest:
    @given(signed_graphs(max_vertices=7, max_edges=10), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_a_spanning_forest_in_the_given_order_switched_positive(self, graph, rng):
        order = list(range(graph.num_edges))
        rng.shuffle(order)
        signs = [rng.choice((1, -1)) for _ in order]
        forest = _forest(graph, order, signs)
        # grown by plain component labels: an edge that joins two of them is
        # a forest edge, positive once the forest's signs are switched in
        label = {w: w for w in range(graph.num_vertices)}
        flip = {w: f for w, (_, f) in forest.items()}
        joins = 0
        for i in order:
            u, v, _ = graph.edges[i]
            if label[u] != label[v]:
                old = label[u]
                label = {w: label[v] if c == old else c for w, c in label.items()}
                assert flip.get(u, 1) * signs[i] * flip.get(v, 1) == 1
                joins += 1
        assert len(forest) == joins  # one vertex per forest edge is not a root
        root = {w: forest[w][0] if w in forest else w for w in label}
        assert all(r not in forest for r in root.values())
        assert all((root[a] == root[b]) == (label[a] == label[b]) for a in label for b in label)

    def test_only_vertices_with_an_edge_appear(self):
        # the loop closes no tree; of two trees of one vertex, u's goes under v's
        assert _forest(g(10**9, (5, 7, 1), (7, 7, 1)), [1, 0], [-1, 1]) == {5: (7, -1)}


def open_vertex_peak(graph: SignedGraph, order: list[int]) -> int:
    """Most vertices that have some but not all of their edges processed."""
    last = {}
    for pos, i in enumerate(order):
        for w in (graph.edges[i].u, graph.edges[i].v):
            last[w] = pos
    open_now: set[int] = set()
    peak = 0
    for pos, i in enumerate(order):
        e = graph.edges[i]
        open_now |= {e.u, e.v}
        peak = max(peak, len(open_now))
        open_now -= {w for w in (e.u, e.v) if last[w] == pos}
    return peak


class TestFrontierOrder:
    def test_path_listed_out_of_order_is_walked_from_an_end(self):
        path = g(4, (2, 3, 1), (0, 1, -1), (1, 2, 1))
        assert frontier_order(path) == [1, 2, 0]

    def test_search_starts_at_a_vertex_of_least_degree(self):
        # vertex 2 has degree 1 (the others 3 and 2), so it is numbered first
        graph = g(3, (0, 1, 1), (0, 0, -1), (1, 2, 1))
        assert frontier_order(graph) == [2, 0, 1]

    def test_each_component_gets_its_own_search(self):
        # two digons listed interleaved come out one after the other
        graph = g(4, (0, 1, 1), (2, 3, 1), (0, 1, -1), (2, 3, -1))
        assert frontier_order(graph) == [0, 2, 1, 3]

    def test_empty_graphs(self):
        assert frontier_order(g(0)) == []
        assert frontier_order(g(3)) == []

    @given(signed_graphs(max_vertices=6, max_edges=8))
    @settings(max_examples=40, deadline=None)
    def test_is_a_permutation_of_the_edge_ids(self, graph):
        assert sorted(frontier_order(graph)) == list(range(graph.num_edges))

    def test_prism_listed_cycle_by_cycle_keeps_few_vertices_open(self):
        k = 10
        pairs = ([(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
                 + [(i, k + i) for i in range(k)])
        prism = SignedGraph.from_edges(2 * k, [(u, v, 1) for u, v in pairs])
        assert open_vertex_peak(prism, list(range(prism.num_edges))) == 2 * k
        assert open_vertex_peak(prism, frontier_order(prism)) <= 6


class TestFrontierWalk:
    @given(signed_graphs(max_vertices=7, max_edges=10), st.none() | st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_each_vertex_holds_its_own_slot_from_its_first_edge_to_its_last(self, graph, rng):
        order = frontier_order(graph)
        with pytest.MonkeyPatch.context() as patch:
            if rng is not None:  # the walk takes the edges in a shuffled order instead
                rng.shuffle(order)
                patch.setattr("signedflow.graph.frontier_order", lambda _: order)
            walk = frontier_walk(graph)
        assert [step[0] for step in walk] == order
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for pos, i in enumerate(order):
            for w in (graph.edges[i].u, graph.edges[i].v):
                first.setdefault(w, pos)
                last[w] = pos
        holder: dict[int, int] = {}  # slot -> the open vertex in it
        leaves: dict[int, int] = {}  # slot -> the leave position it opened with
        for pos, (i, su, sv, opened, freed, num_open) in enumerate(walk):
            u, v, _ = graph.edges[i]
            slot = {u: su, v: sv}
            for w in slot:
                if first[w] == pos:
                    assert slot[w] not in holder
                    holder[slot[w]] = w
                assert holder[slot[w]] == w
            assert sorted(opened) == sorted((slot[w], last[w]) for w in slot if first[w] == pos)
            leaves.update(opened)
            assert sorted(freed) == sorted(slot[w] for w in slot if last[w] == pos)
            for p in freed:
                del holder[p]
                assert leaves.pop(p) == pos  # freed right after the position it opened with
            assert num_open == len(holder)  # the open count, recounted
        assert not holder and not leaves
        used = {p for _, su, sv, *_ in walk for p in (su, sv)}
        assert used == set(range(open_vertex_peak(graph, order)))

    @given(signed_graphs(max_vertices=5, max_edges=7), st.integers(0, 4), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_edgeless_vertices_change_nothing(self, graph, extra, rng):
        # the graph's vertices spread, in order, among extra isolated ones
        label = sorted(rng.sample(range(graph.num_vertices + extra), graph.num_vertices))
        padded = g(graph.num_vertices + extra,
                   *((label[e.u], label[e.v], e.sign) for e in graph.edges))
        assert drop_edgeless_vertices(padded) == drop_edgeless_vertices(graph)
        assert frontier_walk(padded) == frontier_walk(drop_edgeless_vertices(padded))
        assert frontier_walk(padded) == frontier_walk(graph)

    @given(st.lists(signed_graphs(max_vertices=4, max_edges=5), min_size=1, max_size=4), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_the_open_count_drops_to_zero_once_per_component(self, parts, rng):
        # The frontier order finishes one component before it starts the
        # next (another order need not).  Vertices seen before a time no
        # vertex is open have no later edge, so the stretches between such
        # times are vertex-disjoint, and there are as many as components
        # exactly when each stretch is one component.
        graph = disjoint_union(parts, rng)  # the components' edges interleave
        walk = frontier_walk(graph)
        closed_at = [pos for pos, step in enumerate(walk) if not step[5]]
        assert len(closed_at) == len(connected_components(drop_edgeless_vertices(graph)))
        assert not walk or closed_at[-1] == len(walk) - 1


def _rewrites(graph: SignedGraph):
    """Every graph the rewrites derive from ``graph`` in one step."""
    yield from connected_components(graph)
    yield drop_edgeless_vertices(graph)
    yield switch(graph, range(0, graph.num_vertices, 2))
    for i, e in enumerate(graph.edges):
        yield delete_edge(graph, i)
        if not e.is_loop():
            yield make_edge_positive(graph, i)
            if e.sign == 1:
                yield contract_edge(graph, i)


@given(signed_graphs())
@settings(max_examples=100)
def test_rewrites_give_graphs_the_constructor_accepts(graph):
    for r in _rewrites(graph):
        assert r == SignedGraph(r.num_vertices, r.edges)
        assert all(type(e) is Edge for e in r.edges)


class TestTextFormat:
    @given(signed_graphs(max_vertices=10**12, max_edges=6))
    @settings(max_examples=200)
    def test_round_trip(self, graph):
        assert parse_graph_text(graph_to_text(graph)) == graph

    def test_comments_and_blanks_are_ignored(self):
        text = "# a loop\n\nvertices 1\n  # inline comment line\nedge 0 0 -\n"
        assert parse_graph_text(text) == NEG_LOOP

    def test_edge_ids_follow_file_order(self):
        text = "vertices 2\nedge 0 1 -\nedge 0 1 +\n"
        assert parse_graph_text(text).edges == (Edge(0, 1, -1), Edge(0, 1, 1))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "edge 0 1 +\n",
            "vertices -1\n",
            "vertices two\n",
            "vertices 2\nedge 0 1 ?\n",
            "vertices 2\nedge 0 1\n",
            "vertices 2\nedge 0 5 +\n",
            "vertices 1\nloop 0 0 +\n",
        ],
    )
    def test_bad_inputs_raise(self, text):
        with pytest.raises(ValueError):
            parse_graph_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vertices 1_0\n", "line 1: vertex count must be an integer, got '1_0'"),
            ("vertices \uff19\n", "line 1: vertex count must be an integer, got '\uff19'"),
            ("vertices +-1\n", "line 1: vertex count must be an integer, got '+-1'"),
            ("vertices -1\n", "line 1: vertex count must be nonnegative, got -1"),
            ("vertices 10\n# nine\nedge 0 \uff19 +\n",
             "line 3: endpoint must be an integer, got '\uff19'"),
            ("vertices 10\nedge 1_0 0 +\n", "line 2: endpoint must be an integer, got '1_0'"),
            ("vertices 2\nedge 0 5 +\n", "edge 0 endpoint must be in 0..1, got 5"),
        ],
    )
    def test_integers_are_ascii_decimal_digits(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_graph_text(text)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_lines_end_at_lf_crlf_or_cr(self, newline):
        lines = ["# a loop", "vertices 1", "edge 0 0 -", "edge 0 0 *", ""]
        assert parse_graph_text(newline.join(lines[:3] + [""])) == NEG_LOOP
        with pytest.raises(ValueError, match=r"^line 4: sign must be '\+' or '-', got '\*'$"):
            parse_graph_text(newline.join(lines))

    # each of these ends a line for str.splitlines, and none does in a file
    @pytest.mark.parametrize("filler", ["\f", "\v", "\x1c\x1d\x1e", "# caf\x85 note",
                                        "# caf\u2028 note\u2029"],
                             ids=["form-feed", "vertical-tab", "separators", "NEL", "LS-PS"])
    def test_no_other_character_ends_a_line(self, filler):
        assert parse_graph_text(f"{filler}\nvertices 1\nedge 0 0 -\n") == NEG_LOOP
        with pytest.raises(ValueError, match=r"^line 3: sign must be '\+' or '-', got 'x'$"):
            parse_graph_text(f"vertices 2\n{filler}\nedge 0 1 x\n")

    def test_a_sign_before_the_digits_is_read(self):
        assert parse_graph_text("vertices +2\nedge -0 +1 +\n") == g(2, (0, 1, 1))

    def test_fingerprint_distinguishes_signs(self):
        assert graph_fingerprint(POS_LOOP) != graph_fingerprint(NEG_LOOP)
        assert graph_fingerprint(POS_LOOP) == graph_fingerprint(g(1, (0, 0, 1)))

    # graph_fingerprint takes CPython's own SHA-256 (_sha2, or _sha256 before
    # 3.12); with both blocked it falls back to hashlib's
    @pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")])
    @given(signed_graphs(max_vertices=6, max_edges=9))
    def test_fingerprint_is_the_sha256_of_the_text(self, blocked, graph):
        expected = hashlib.sha256(graph_to_text(graph).encode("ascii")).hexdigest()
        with mock.patch.dict(sys.modules, dict.fromkeys(blocked)):
            assert graph_fingerprint(graph) == expected
