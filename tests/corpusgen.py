"""Deterministic graph corpora and strategies shared by the test modules."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from signedflow import SignedGraph


def g(num_vertices: int, *triples) -> SignedGraph:
    return SignedGraph.from_edges(num_vertices, triples)


# A small zoo of named graphs used all over the suite.
EDGELESS = g(2)
VERTEXLESS = g(0)
POS_LOOP = g(1, (0, 0, 1))
NEG_LOOP = g(1, (0, 0, -1))
TWO_NEG_LOOPS = g(1, (0, 0, -1), (0, 0, -1))
POS_EDGE = g(2, (0, 1, 1))
NEG_EDGE = g(2, (0, 1, -1))
DIGON_PP = g(2, (0, 1, 1), (0, 1, 1))
DIGON_PM = g(2, (0, 1, 1), (0, 1, -1))
DIGON_MM = g(2, (0, 1, -1), (0, 1, -1))
THETA_PPM = g(2, (0, 1, 1), (0, 1, 1), (0, 1, -1))
TRIANGLE = g(3, (0, 1, 1), (0, 2, 1), (1, 2, 1))
TRIANGLE_ONE_NEG = g(3, (0, 1, -1), (0, 2, 1), (1, 2, 1))
# two negative loops joined by a positive edge; its integer-flow count has
# genuine period 2
BARBELL = g(2, (0, 0, -1), (1, 1, -1), (0, 1, 1))

ZOO = [
    EDGELESS, VERTEXLESS, POS_LOOP, NEG_LOOP, TWO_NEG_LOOPS, POS_EDGE,
    NEG_EDGE, DIGON_PP, DIGON_PM, DIGON_MM, THETA_PPM, TRIANGLE,
    TRIANGLE_ONE_NEG, BARBELL,
]


def small_signed_graphs(max_edges: int = 4) -> list[SignedGraph]:
    """Every signed multigraph on 3 vertices with at most ``max_edges``
    edges, deduplicated under vertex relabeling.

    Graphs on fewer vertices occur padded with isolated vertices, which
    leaves all flow counts unchanged.
    """
    pairs = [(u, v) for u in range(3) for v in range(u, 3)]
    types = [(u, v, s) for (u, v) in pairs for s in (1, -1)]
    perms = list(itertools.permutations(range(3)))
    seen: set = set()
    out = []
    for k in range(max_edges + 1):
        for combo in itertools.combinations_with_replacement(types, k):
            key = min(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v]), s) for (u, v, s) in combo))
                for p in perms
            )
            if key in seen:
                continue
            seen.add(key)
            out.append(SignedGraph.from_edges(3, combo))
    return out


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4_with_signs(signs) -> SignedGraph:
    return SignedGraph.from_edges(4, [(u, v, s) for (u, v), s in zip(K4_EDGES, signs)])


def k4_signature_classes() -> list[SignedGraph]:
    """K4 with three pairwise inequivalent signatures (all positive, one
    negative edge, all negative); their negative-cycle sets differ."""
    return [
        k4_with_signs([1] * 6),
        k4_with_signs([-1] + [1] * 5),
        k4_with_signs([-1] * 6),
    ]


def acceptance_corpus() -> list[SignedGraph]:
    return small_signed_graphs() + k4_signature_classes()


def cyclomatic_number(graph: SignedGraph) -> int:
    from signedflow import connected_components

    return graph.num_edges - graph.num_vertices + len(connected_components(graph))


def random_signed_graph(rng: random.Random, max_vertices: int = 4, max_edges: int = 5) -> SignedGraph:
    nv = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    triples = [
        (rng.randrange(nv), rng.randrange(nv), rng.choice((1, -1))) for _ in range(m)
    ]
    return SignedGraph.from_edges(nv, triples)


@st.composite
def signed_graphs(draw, max_vertices: int = 4, max_edges: int = 5):
    nv = draw(st.integers(min_value=0, max_value=max_vertices))
    if nv == 0:
        return SignedGraph(0)
    m = draw(st.integers(min_value=0, max_value=max_edges))
    triples = [
        (
            draw(st.integers(0, nv - 1)),
            draw(st.integers(0, nv - 1)),
            draw(st.sampled_from((1, -1))),
        )
        for _ in range(m)
    ]
    return SignedGraph.from_edges(nv, triples)


def disjoint_union(parts, rng: random.Random | None = None) -> SignedGraph:
    """The parts side by side, vertices numbered part after part; edges in
    part order, or shuffled by ``rng`` so that the parts' edges interleave."""
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset, sign) for u, v, sign in part.edges]
        offset += part.num_vertices
    if rng is not None:
        rng.shuffle(edges)
    return SignedGraph.from_edges(offset, edges)


@st.composite
def vertex_subsets(draw, graph: SignedGraph):
    if graph.num_vertices == 0:
        return frozenset()
    return frozenset(
        draw(st.sets(st.integers(0, graph.num_vertices - 1), max_size=graph.num_vertices))
    )


@st.composite
def loop_and_multi_edge_graphs(draw, min_vertices: int = 4, max_vertices: int = 8, max_edges: int = 14):
    """Graphs whose edges fall on a few vertex pairs, so most edges are
    loops or parallel to another edge.

    The pairs form a random spanning tree with up to two extra pairs and up
    to three loop vertices.  Each pair carries a class of up to four edges
    with drawn signs; classes are kept while they fit in ``max_edges``.
    """
    nv = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    pairs += draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=2))
    pairs += [(v, v) for v in draw(st.lists(st.integers(0, nv - 1), max_size=3))]
    triples: list[tuple[int, int, int]] = []
    for u, v in pairs:
        signs = draw(st.lists(st.sampled_from((1, -1)), max_size=4))
        if len(triples) + len(signs) <= max_edges:
            triples += [(u, v, s) for s in signs]
    return SignedGraph.from_edges(nv, triples)
