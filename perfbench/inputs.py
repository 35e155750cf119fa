"""Seeded workload inputs: graph files and the CLI commands that use them.

Everything here is independent of the program under test.  A graph is a
vertex count plus a list of ``(u, v, sign)`` triples, written in the
program's plain-text file format.  The same seed always gives the same
files and commands.

The seed never changes a graph's switching class, so every output has one
exact expected value for all seeds (perfbench/expected/):

- ``poly-dc`` applies a random switching to each fixed base signature and
  keeps vertex labels and edge order.  The engine then meets different
  signed minors, and f_d does not change.  Drawing whole new signatures
  instead changed the memo size of one prism by 2x between seeds, which
  would swamp any bound on wall time.
- the other workloads apply a random vertex relabeling and endpoint order
  per edge, keeping the edge order and every edge's sign.  Flow counts are
  invariant under both, and the oracle does the same work on every seed.
  A switching is left out here: it changes which edges are negative, and
  the oracle negates a value once more for every negative edge, so one
  switching of the ``count`` digon costs twice the ``negate`` calls of
  another.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Every command gets this budget explicitly, far above any search here, so
# that nothing is refused whether the program estimates the search size up
# front or counts it live.
BUDGET = "10000000000"

Triples = list[tuple[int, int, int]]


@dataclass(frozen=True)
class GraphSpec:
    name: str
    num_vertices: int
    edges: Triples

    def text(self) -> str:
        lines = [f"# {self.name}", f"vertices {self.num_vertices}"]
        lines += [f"edge {u} {v} {'+' if s == 1 else '-'}" for u, v, s in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``signedflow <argv...> --json``."""

    name: str
    graph: GraphSpec
    args: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.args[0]


def _signs(rng: random.Random, m: int) -> list[int]:
    return [rng.choice((1, -1)) for _ in range(m)]


def _signed(pairs: list[tuple[int, int]], signs: list[int]) -> Triples:
    return [(u, v, s) for (u, v), s in zip(pairs, signs)]


def complete_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def prism_pairs(k: int, order: str) -> list[tuple[int, int]]:
    """C_k x K2: outer cycle 0..k-1, inner cycle k..2k-1, rungs i -- k+i.

    ``cycle`` lists the outer cycle, then the inner cycle, then the rungs;
    ``rung`` walks around the prism one rung at a time.  The two orders
    give the same graph but very different deletion-contraction work.
    """
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    if order == "cycle":
        return outer + inner + rungs
    if order == "rung":
        return [p for i in range(k) for p in (rungs[i], outer[i], inner[i])]
    raise ValueError(f"unknown prism edge order {order!r}")


def petersen_pairs() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def multiloop(rng: random.Random) -> GraphSpec:
    """5 vertices: a 5-cycle of 4-fold parallel classes with mixed signs
    (20 edges), 6 negative loops and 150 positive loops.  Unbalanced and
    connected, so every f_d has degree 176 - 5 = 171."""
    pairs = [(i, (i + 1) % 5) for i in range(5) for _ in range(4)]
    signs = _signs(rng, len(pairs))
    # both signs in every class, so each class is genuinely mixed
    for c in range(5):
        signs[4 * c], signs[4 * c + 1] = 1, -1
    edges = _signed(pairs, signs)
    edges += [(v, v, -1) for v in (0, 1, 2, 3, 4, 0)]
    edges += [(v, v, 1) for v in range(5) for _ in range(30)]
    return GraphSpec("multiloop", 5, edges)


def relabeled(spec: GraphSpec, rng: random.Random) -> GraphSpec:
    """A random vertex relabeling and endpoint order of ``spec``, keeping
    the edge order and signs.  Flow counts and oracle work are unchanged."""
    perm = list(range(spec.num_vertices))
    rng.shuffle(perm)
    edges = []
    for u, v, s in spec.edges:
        a, b = perm[u], perm[v]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b, s))
    return GraphSpec(spec.name, spec.num_vertices, edges)


def _poly(g: GraphSpec) -> Command:
    return Command(f"poly/{g.name}", g, ("poly", "--d-max", "3"))


def _verify(g: GraphSpec, max_order: int) -> Command:
    return Command(f"verify/{g.name}", g, ("verify", "--max-order", str(max_order), "--budget", BUDGET))


def _intflow(g: GraphSpec, n_max: int, fit: bool) -> Command:
    args = ("intflow", "--n-max", str(n_max), "--budget", BUDGET) + (("--fit",) if fit else ())
    return Command(f"intflow/{g.name}", g, args)


def _count(g: GraphSpec, group: str) -> Command:
    return Command(f"count/{g.name}@{group}", g, ("count", "--group", group, "--budget", BUDGET))


def _switched(spec: GraphSpec, rng: random.Random) -> GraphSpec:
    """A random switching of ``spec``; vertex labels and edge order stay."""
    side = [rng.random() < 0.5 for _ in range(spec.num_vertices)]
    edges = [(u, v, -s if side[u] != side[v] else s) for u, v, s in spec.edges]
    return GraphSpec(spec.name, spec.num_vertices, edges)


# Fixed base signatures.  The stored expected outputs depend on them, so a
# change here needs perfbench/expected.py to be run again.
_BASE = random.Random("perfbench base signatures")
PRISM5_SIGNS = dict(zip(prism_pairs(5, "cycle"), _signs(_BASE, 15)))
POLY_GRAPHS = [
    GraphSpec("prism5-cycle", 10, [(u, v, PRISM5_SIGNS[u, v]) for u, v in prism_pairs(5, "cycle")]),
    # the same signed graph, edges listed rung by rung
    GraphSpec("prism5-rung", 10, [(u, v, PRISM5_SIGNS[u, v]) for u, v in prism_pairs(5, "rung")]),
    GraphSpec("prism7-rung", 14, _signed(prism_pairs(7, "rung"), _signs(_BASE, 21))),
    GraphSpec("petersen", 10, _signed(petersen_pairs(), _signs(_BASE, 15))),
    GraphSpec("k6", 6, _signed(complete_pairs(6), _signs(_BASE, 15))),
    GraphSpec("k7", 7, _signed(complete_pairs(7), _signs(_BASE, 21))),
    multiloop(_BASE),
]
K5_SIGNED = GraphSpec("k5-signed", 5, _signed(complete_pairs(5), _signs(_BASE, 10)))


def poly_dc(rng: random.Random) -> list[Command]:
    return [_poly(_switched(g, rng)) for g in POLY_GRAPHS]


K4_ONE_NEG = GraphSpec("k4-one-neg", 4, _signed(complete_pairs(4), [-1, 1, 1, 1, 1, 1]))
K4_ALL_NEG = GraphSpec("k4-all-neg", 4, _signed(complete_pairs(4), [-1] * 6))
BARBELL = GraphSpec("barbell", 2, [(0, 0, -1), (1, 1, -1), (0, 1, 1)])
K5 = GraphSpec("k5", 5, _signed(complete_pairs(5), [1] * 10))
PRISM3 = GraphSpec("prism3", 6, _signed(prism_pairs(3, "rung"), [1, -1, 1, 1, 1, -1, 1, -1, 1]))
PRISM4 = GraphSpec("prism4", 8, _signed(prism_pairs(4, "rung"), [1, 1, -1, 1, -1, 1, 1, 1, 1, -1, 1, 1]))
DIGON = GraphSpec("digon-pm", 2, [(0, 1, 1), (0, 1, -1)])
TRIANGLE = GraphSpec("triangle-one-neg", 3, [(0, 1, -1), (0, 2, 1), (1, 2, 1)])


def verify_groups(rng: random.Random) -> list[Command]:
    return [
        _verify(relabeled(K5_SIGNED, rng), 7),
        _verify(relabeled(PRISM3, rng), 8),
        _verify(relabeled(PRISM4, rng), 6),
        _verify(relabeled(K4_ONE_NEG, rng), 16),
    ]


def intflow_fit(rng: random.Random) -> list[Command]:
    return [
        _intflow(relabeled(BARBELL, rng), 30, True),
        _intflow(relabeled(K4_ALL_NEG, rng), 11, True),
        _intflow(relabeled(K4_ONE_NEG, rng), 11, True),
        _intflow(relabeled(K5, rng), 5, False),
    ]


def count_wide(rng: random.Random) -> list[Command]:
    return [
        _count(relabeled(DIGON, rng), "23,23"),
        _count(relabeled(TRIANGLE, rng), "512"),
    ]


WORKLOADS = {
    "poly-dc": poly_dc,
    "verify-groups": verify_groups,
    "intflow-fit": intflow_fit,
    "count-wide": count_wide,
}

# The one command timed for setup_s: start-up, import and argument parsing,
# plus a trivial switch on a 1-vertex graph.
SETUP_COMMAND = Command("switch/one-vertex", GraphSpec("one-vertex", 1, []), ("switch", "--vertices", "0"))


def commands_for(workload: str, seed: int) -> list[Command]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
