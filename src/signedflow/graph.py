"""Signed multigraphs: half-edge orientations, switching, and minor rewrites.

Graphs and orientations are immutable values (``values.Value``: compared,
hashed, copied and pickled by their fields), so sharing across threads is
safe.  A graph is checked once, where it enters (``SignedGraph``,
``from_edges``, ``parse_graph_text``); rewrites preserve validity, so the
graphs they derive are not checked again, and a rewrite that changes nothing
may return its input.

Two walks over a graph serve the rest of the package: the breadth-first
numbering inside :func:`frontier_order`, which schedules both counters,
and one spanning forest, :func:`_forest`, switched positive, which gives
the components, edge cuts, the engine's corank and the oracle's switching.
Only :func:`frontier_walk` drops edgeless vertices; the forest never holds
one, so no caller of it allocates per declared vertex.
"""

import sys
from collections import namedtuple
from collections.abc import Iterable

from .values import Value, _as_int, _int_text


class Edge(namedtuple("Edge", "u v sign")):
    """Undirected signed edge; slot 0 is the half-edge at ``u``, slot 1 at ``v``."""

    __slots__ = ()

    def is_loop(self) -> bool:
        return self.u == self.v


class SignedGraph(Value):
    """Multigraph with a sign in {+1, -1} on every edge.

    Loops and parallel edges are allowed, as are edgeless and vertexless
    graphs.  Edge ids are positions in ``edges`` and stay dense (0..m-1)
    under deletion and contraction.  Instances are immutable and compare
    and hash by ``(num_vertices, edges)``.
    """

    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int, int]] = ()) -> None:
        n = _as_int(num_vertices, "num_vertices", least=0)
        checked = []
        for i, e in enumerate(edges):
            u, v, sign = e
            end = f"edge {i} endpoint"
            edge = Edge(_as_int(u, end, below=n), _as_int(v, end, below=n),
                        _as_int(sign, f"edge {i} sign"))
            if edge.sign not in (1, -1):
                raise ValueError(f"edge {i} has sign {edge.sign!r}, expected +1 or -1")
            checked.append(edge)
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges", tuple(checked))

    @classmethod
    def from_edges(
        cls, num_vertices: int, triples: Iterable[tuple[int, int, int]]
    ) -> "SignedGraph":
        return cls(num_vertices, triples)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


class Orientation(Value):
    """Direction of every half-edge: ``taus[e]`` holds tau at slot 0 and slot 1.

    An orientation of a graph is valid when tau(e,0) * tau(e,1) == -sign(e)
    for every edge; +1 means the half-edge points toward its endpoint.
    Instances are immutable and compare and hash by ``taus``.
    """

    __slots__ = ("taus",)

    def __init__(self, taus: Iterable[tuple[int, int]]) -> None:
        checked = []
        for i, t in enumerate(taus):
            t0, t1 = (_as_int(x, f"edge {i}: tau") for x in t)
            if t0 not in (1, -1) or t1 not in (1, -1):
                raise ValueError(f"edge {i}: tau values must be +1 or -1, got {(t0, t1)}")
            checked.append((t0, t1))
        object.__setattr__(self, "taus", tuple(checked))

    def satisfies(self, g: SignedGraph) -> bool:
        return len(self.taus) == g.num_edges and all(
            t0 * t1 == -e.sign for (t0, t1), e in zip(self.taus, g.edges)
        )


def default_orientation(g: SignedGraph) -> Orientation:
    """Canonical orientation: tau(e,0) = -1 and tau(e,1) = sign(e).

    A positive edge then points u -> v like an ordinary digraph arc; a
    negative edge has both half-edges directed away from their endpoints.
    """
    return Orientation(tuple((-1, e.sign) for e in g.edges))


def _derived(num_vertices: int, edges: tuple[Edge, ...]) -> SignedGraph:
    """A rewrite's result, built without the constructor's checks: every
    ``SignedGraph`` passed them or was derived from one that did, and every
    rewrite keeps endpoints in range, signs in {+1, -1} and edges ``Edge``."""
    out = object.__new__(SignedGraph)
    object.__setattr__(out, "num_vertices", num_vertices)
    object.__setattr__(out, "edges", edges)
    return out


def _edge_name(g: SignedGraph, edge_id: int) -> str:
    """Edge ``edge_id`` of ``g`` as a refusal names it, by its id and its
    line of the graph file: ``edge 128 (0 65 +)``."""
    e = g.edges[edge_id]
    return f"edge {edge_id} ({e.u} {e.v} {'+' if e.sign == 1 else '-'})"


def _check_edge_id(g: SignedGraph, edge_id: int) -> int:
    return _as_int(edge_id, "edge id", below=g.num_edges)


def _check_edge_ids(g: SignedGraph, ids: Iterable[int]) -> frozenset[int]:
    return frozenset(_check_edge_id(g, i) for i in ids)


def switch(g: SignedGraph, x: Iterable[int]) -> SignedGraph:
    """Negate the sign of every edge with exactly one endpoint in ``x``.

    Loops lie in no edge-cut and are never affected.
    """
    xs = frozenset(_as_int(v, "vertex", below=g.num_vertices) for v in x)
    edges = tuple(
        Edge(e.u, e.v, -e.sign if (e.u in xs) != (e.v in xs) else e.sign)
        for e in g.edges
    )
    return _derived(g.num_vertices, edges)


def is_edge_cut(g: SignedGraph, d: Iterable[int]) -> bool:
    """Whether ``d`` equals delta(X) for some vertex subset X.

    With the edges in ``d`` signed -1 and the others +1, ``d`` is delta(X)
    exactly when switching at X makes every edge positive, so exactly when
    every edge is positive after switching a spanning forest
    (:func:`_forest`) positive.  A loop keeps its sign under switching, so
    any ``d`` containing a loop fails.  The forest is kept per vertex with
    an edge, so nothing is allocated per declared vertex.
    """
    ids = _check_edge_ids(g, d)
    signs = [-1 if i in ids else 1 for i in range(g.num_edges)]
    flip = {w: f for w, (_, f) in _forest(g, range(g.num_edges), signs).items()}
    return all(flip.get(e.u, 1) * flip.get(e.v, 1) == signs[i] for i, e in enumerate(g.edges))


def signatures_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Whether two signatures of the same underlying graph differ by an edge-cut.

    Edge i of one graph must join the same two vertices as edge i of the
    other, in either order, since an edge is undirected.
    """
    same_underlying = (
        g1.num_vertices == g2.num_vertices
        and g1.num_edges == g2.num_edges
        and all({a.u, a.v} == {b.u, b.v} for a, b in zip(g1.edges, g2.edges))
    )
    if not same_underlying:
        raise ValueError("graphs have different underlying vertex/edge structure")
    diff = {i for i, (a, b) in enumerate(zip(g1.edges, g2.edges)) if a.sign != b.sign}
    return is_edge_cut(g1, diff)


def delete_edge(g: SignedGraph, edge_id: int) -> SignedGraph:
    """Remove one edge; later edge ids shift down by one, vertices unchanged."""
    edge_id = _check_edge_id(g, edge_id)
    return _derived(g.num_vertices, g.edges[:edge_id] + g.edges[edge_id + 1 :])


def contract_edge(g: SignedGraph, edge_id: int) -> SignedGraph:
    """Merge the endpoints of a positive non-loop edge and drop the edge.

    The merged vertex takes the smaller endpoint index and higher-indexed
    vertices shift down, so the result is deterministic.  Parallel edges
    between the endpoints become loops and keep their signs.
    """
    edge_id = _check_edge_id(g, edge_id)
    e = g.edges[edge_id]
    if e.is_loop():
        raise ValueError(f"edge {edge_id} is a loop and cannot be contracted")
    if e.sign != 1:
        raise ValueError(
            f"edge {edge_id} is negative; switch to an equivalent signature first"
        )
    a, b = min(e.u, e.v), max(e.u, e.v)
    # b merges into a and the vertices above b shift down; edges below b stay
    edges = tuple(
        f if f.u < b and f.v < b
        else Edge(a if f.u == b else f.u - (f.u > b), a if f.v == b else f.v - (f.v > b), f.sign)
        for f in g.edges[:edge_id] + g.edges[edge_id + 1 :]
    )
    return _derived(g.num_vertices - 1, edges)


def make_edge_positive(g: SignedGraph, edge_id: int) -> SignedGraph:
    """Switch, if needed, so the given non-loop edge gets sign +1.

    Switching happens at the lower-indexed endpoint; the result is always
    signature-equivalent to the input.  A negative loop cannot be repaired
    this way since loops lie in no edge-cut.
    """
    edge_id = _check_edge_id(g, edge_id)
    e = g.edges[edge_id]
    if e.is_loop():
        raise ValueError(f"edge {edge_id} is a loop; its sign is switching-invariant")
    if e.sign == 1:
        return g
    return switch(g, {min(e.u, e.v)})


def drop_edgeless_vertices(g: SignedGraph) -> SignedGraph:
    """``g`` without its edgeless vertices, the others relabeled densely in
    order and the edge order kept; ``g`` itself when every vertex has an edge.

    No flow count depends on an edgeless vertex, so :func:`frontier_walk`,
    which the engine and the oracle follow, calls this first and then never
    allocates per declared vertex; no other caller in the package does.
    """
    used = sorted({w for e in g.edges for w in (e.u, e.v)})
    if len(used) == g.num_vertices:
        return g
    label = {v: i for i, v in enumerate(used)}
    return _derived(len(used), tuple(Edge(label[e.u], label[e.v], e.sign) for e in g.edges))


def _forest(
    g: SignedGraph, order: Iterable[int], signs: list[int]
) -> dict[int, tuple[int, int]]:
    """A spanning forest of the edges ``order`` lists, grown over them in
    that order, and the switching that makes each of its edges positive
    under ``signs`` (a sign per edge id): for each vertex that is not its
    tree's root, that root and the sign switching puts at the vertex.

    The one spanning forest of the package.  Its roots name the components
    (:func:`connected_components`), its size is |V| - c for the vertices
    with an edge (the engine's corank bound), and switching it positive
    decides edge cuts (:func:`is_edge_cut`) and the oracle's taus.  An edge
    joins two trees or closes a cycle; the smaller tree goes under the
    larger, so no vertex is deeper than log2 of its tree's size (else a
    star's tree can gain a level per edge).  Only vertices with an edge in
    ``order`` appear, so nothing is allocated per declared vertex.
    """
    up: dict[int, tuple[int, int]] = {}  # vertex -> (parent, its sign relative to the parent)
    size: dict[int, int] = {}

    def find(w: int) -> tuple[int, int]:
        f = 1
        while w in up:
            w, step = up[w]
            f *= step
        return w, f

    for i in order:
        (a, fa), (b, fb) = find(g.edges[i].u), find(g.edges[i].v)
        if a != b:  # a forest edge: switch a's tree so that the edge is positive
            if size.get(a, 1) > size.get(b, 1):
                a, b = b, a
            up[a] = b, signs[i] * fa * fb
            size[b] = size.get(a, 1) + size.get(b, 1)
    return {w: find(w) for w in up}


def frontier_order(g: SignedGraph) -> list[int]:
    """Edge ids of ``g`` in an order that keeps few vertices half done.

    Vertices are numbered breadth-first, each search starting from an
    unnumbered vertex of least degree (a loop counts twice, ties go to the
    lower id).  Edges are then sorted by the number of their later
    endpoint, ties kept in id order.  Processing edges in this order, a
    vertex is open from its first edge to its last, and the open vertices
    stay near a BFS layer rather than spreading over the whole graph.

    >>> frontier_order(SignedGraph.from_edges(4, [(2, 3, 1), (0, 1, -1), (1, 2, 1)]))
    [1, 2, 0]
    """
    adjacent: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for u, v, _ in g.edges:  # a loop is listed twice at its vertex
        adjacent[u].append(v)
        adjacent[v].append(u)
    number = [-1] * g.num_vertices
    numbered = 0
    for root in sorted(range(g.num_vertices), key=list(map(len, adjacent)).__getitem__):
        if number[root] >= 0:
            continue
        number[root] = numbered
        numbered += 1
        queue = [root]
        for w in queue:  # the queue grows while it is read
            for x in adjacent[w]:
                if number[x] < 0:
                    number[x] = numbered
                    numbered += 1
                    queue.append(x)
    return sorted(range(g.num_edges), key=lambda i: max(number[g.edges[i].u], number[g.edges[i].v]))


def frontier_walk(
    g: SignedGraph,
) -> list[tuple[int, int, int, tuple[tuple[int, int], ...], tuple[int, ...], int]]:
    """The edges of ``g`` in :func:`frontier_order`, each with the slots its
    ends hold while open: ``(edge id, slot of u, slot of v, slots opened at
    this edge, slots freed after it, vertices open after it)``.  Each
    opened slot comes as ``(slot, position)``, the position in the walk of
    its vertex's last edge.

    A vertex takes a slot at its first edge and frees it after its last; a
    new vertex takes the slot freed most recently, else a new one, so there
    are as many slots as vertices ever open at once.  The engine and the
    oracle both follow this one schedule.  Edgeless vertices are dropped
    first (the edge ids stay): they hold no slot, nothing is allocated per
    declared vertex, and an edgeless graph gives an empty walk.

    >>> frontier_walk(SignedGraph.from_edges(3, [(1, 2, 1), (0, 1, -1), (2, 2, 1)]))
    [(1, 0, 1, ((0, 0), (1, 1)), (0,), 1), (0, 1, 0, ((0, 2),), (1,), 1), (2, 0, 0, (), (0,), 0)]
    """
    g = drop_edgeless_vertices(g)
    order = frontier_order(g)
    last = [-1] * g.num_vertices
    for pos, i in enumerate(order):
        last[g.edges[i].u] = last[g.edges[i].v] = pos
    slot = [-1] * g.num_vertices
    free: list[int] = []
    walk = []
    used = 0
    for pos, i in enumerate(order):
        u, v, _ = g.edges[i]
        ends = (u,) if u == v else (u, v)
        opened = []
        for w in ends:
            if slot[w] < 0:
                if not free:  # every slot is held: add one
                    free, used = [used], used + 1
                slot[w] = free.pop()
                opened.append((slot[w], last[w]))
        freed = tuple(slot[w] for w in ends if last[w] == pos)
        free.extend(freed)
        walk.append((i, slot[u], slot[v], tuple(opened), freed, used - len(free)))
    return walk


def connected_components(g: SignedGraph) -> list[SignedGraph]:
    """Split into vertex-disjoint components, each densely relabeled.

    A component is named by its root in :func:`_forest`.  Components are
    ordered by their smallest original vertex; isolated vertices form
    singleton components.  Edge order is preserved within each component.
    A connected graph gives ``[g]``, the input itself.
    """
    forest = _forest(g, range(g.num_edges), [1] * g.num_edges)
    root = [forest[v][0] if v in forest else v for v in range(g.num_vertices)]
    comp: dict[int, int] = {}  # root -> component, in order of smallest vertex
    label, sizes = [], []
    for r in root:
        c = comp.setdefault(r, len(sizes))
        if c == len(sizes):
            sizes.append(0)
        label.append(sizes[c])
        sizes[c] += 1
    if len(sizes) == 1:
        return [g]
    edges: list[list[Edge]] = [[] for _ in sizes]
    for e in g.edges:
        edges[comp[root[e.u]]].append(Edge(label[e.u], label[e.v], e.sign))
    return [_derived(n, tuple(es)) for n, es in zip(sizes, edges)]


def parse_graph_text(text: str) -> SignedGraph:
    """Parse the plain-text graph format.

    Line 1 (ignoring blanks and ``#`` comments) is ``vertices N``; each
    following line is ``edge u v +`` or ``edge u v -`` with 0-based vertex
    indices.  N, u and v are ASCII decimal digits (see ``values._int_text``).
    Edge ids are assigned in file order.  A refusal of a line names it.
    Lines end at LF, CR LF or CR, as universal newlines read them, and
    nowhere else: a form feed, U+0085 or U+2028, where ``str.splitlines``
    would also end a line, is whitespace or comment text.
    """
    num_vertices: int | None = None
    triples: list[tuple[int, int, int]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if num_vertices is None:
                if len(fields) != 2 or fields[0] != "vertices":
                    raise ValueError(f"expected 'vertices N', got {line!r}")
                num_vertices = _int_text(fields[1], "vertex count", least=0)
                continue
            if len(fields) != 4 or fields[0] != "edge":
                raise ValueError(f"expected 'edge u v <+|->', got {line!r}")
            if fields[3] not in ("+", "-"):
                raise ValueError(f"sign must be '+' or '-', got {fields[3]!r}")
            triples.append((_int_text(fields[1], "endpoint"), _int_text(fields[2], "endpoint"),
                            1 if fields[3] == "+" else -1))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if num_vertices is None:
        raise ValueError("missing 'vertices N' line")
    return SignedGraph.from_edges(num_vertices, triples)


def graph_to_text(g: SignedGraph) -> str:
    """Serialize to the plain-text format; inverse of :func:`parse_graph_text`."""
    lines = [f"vertices {g.num_vertices}"]
    lines.extend(f"edge {e.u} {e.v} {'+' if e.sign == 1 else '-'}" for e in g.edges)
    return "\n".join(lines) + "\n"


def graph_fingerprint(g: SignedGraph) -> str:
    """Stable digest of the graph's canonical text form."""
    # CPython's own SHA-256, which loads in no time, where hashlib loads
    # OpenSSL (about 3 ms) for this one small digest; only poly needs it.
    # Its module is chosen by version, as a failed import searches sys.path
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256  # a build without it

    return sha256(graph_to_text(g).encode("ascii")).hexdigest()
