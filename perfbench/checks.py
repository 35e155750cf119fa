"""Exactness gate for CLI outputs.

Every output is compared with the stored expected ``results`` of its
command (perfbench/expected/<workload>.json).  The seed never changes a
graph's switching class, so one expected value serves every seed; only
``graph_fingerprint``, which hashes the labelled graph, is recomputed here
from the generated input.

On top of that, :func:`spot_checks` recomputes a few values with the
program's oracle and engine on the inputs of the current seed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from inputs import Command, GraphSpec

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Largest expected oracle search (see search_size) in the per-seed check,
# which keeps that check well under a second.
SPOT_CHECK_MAX_NODES = 2e5


def canonical_text(spec: GraphSpec) -> str:
    """The program's canonical text form of a graph (no comment line)."""
    lines = [f"vertices {spec.num_vertices}"]
    lines += [f"edge {u} {v} {'+' if s == 1 else '-'}" for u, v, s in spec.edges]
    return "\n".join(lines) + "\n"


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> dict[str, dict]:
    with open(expected_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def comparable_results(command: Command, results: dict) -> dict:
    """``results`` without the seed-dependent graph fingerprint."""
    if command.subcommand == "poly":
        return {k: v for k, v in results.items() if k != "graph_fingerprint"}
    return results


def parse_report(command: Command, code: int, stdout: str, stderr: str) -> dict:
    """The JSON report of a successful command; ValueError otherwise."""
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise ValueError(f"{command.name}: exit code {code}: {tail[0]}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{command.name}: output is not JSON: {exc}") from None
    if report.get("status") != "ok":
        raise ValueError(f"{command.name}: status {report.get('status')!r}: {report.get('message')}")
    return report


def check_output(command: Command, code: int, stdout: str, stderr: str,
                 expected: dict[str, dict]) -> str | None:
    """None if the command's output is exactly right, else what is wrong."""
    try:
        results = parse_report(command, code, stdout, stderr)["results"]
    except ValueError as exc:
        return str(exc)
    if command.subcommand == "poly":
        want = hashlib.sha256(canonical_text(command.graph).encode("ascii")).hexdigest()
        if results.get("graph_fingerprint") != want:
            return f"{command.name}: graph_fingerprint differs from the input's digest"
    if command.subcommand == "verify" and results.get("all_pass") is not True:
        return f"{command.name}: verify did not report all_pass"
    if command.name not in expected:
        return f"{command.name}: no stored expected results"
    if canonical_json(comparable_results(command, results)) != canonical_json(expected[command.name]):
        return f"{command.name}: results differ from the stored expected results"
    return None


def _coeff(c) -> Fraction:
    return Fraction(c) if isinstance(c, str) else Fraction(c, 1)


def _evaluate(coeffs: list, n: int) -> Fraction:
    return sum((_coeff(c) * n**i for i, c in enumerate(coeffs)), Fraction(0))


def _graph(sf, spec: GraphSpec):
    return sf.SignedGraph.from_edges(spec.num_vertices, spec.edges)


def _bfs_order(spec: GraphSpec) -> GraphSpec:
    """The same graph with edges sorted so that vertices, taken in BFS
    order, have all their edges assigned early."""
    adjacent: dict[int, list[int]] = {v: [] for v in range(spec.num_vertices)}
    for u, v, _ in spec.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    pos: dict[int, int] = {}
    for root in range(spec.num_vertices):
        queue = [root] if root not in pos else []
        for w in queue:
            if w not in pos:
                pos[w] = len(pos)
                queue.extend(adjacent[w])
    edges = sorted(spec.edges, key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])))
    return GraphSpec(spec.name, spec.num_vertices, edges)


def search_size(spec: GraphSpec, order: int) -> float:
    """Expected number of nodes in the oracle's search: after edge i, about
    (order-1)^(i+1) assignments, of which a share 1/order survives each
    vertex whose edges are all assigned."""
    last = {}
    for i, (u, v, _) in enumerate(spec.edges):
        last[u] = last[v] = i
    completed_at = [0] * len(spec.edges)
    for i in last.values():
        completed_at[i] += 1
    size, completed = 0.0, 0
    for i in range(len(spec.edges)):
        completed += completed_at[i]
        size += (order - 1) ** (i + 1) / order**completed
    return size


def poly_against_oracle(sf, spec: GraphSpec, results: dict, orders: tuple[int, ...],
                        max_nodes: float) -> tuple[list[str], list[str]]:
    """Each f_d at every group of the given orders, against the oracle.

    The count does not depend on edge order, so the oracle gets whichever
    of the file order and a BFS order has the smaller expected search;
    groups whose search would exceed ``max_nodes`` are skipped.  Positive
    loops are taken off first and put back as a factor (order - 1)^k: a
    positive loop adds x - x = 0 at its vertex, so it can carry any nonzero
    value independently of the rest.  Returns (errors, skipped groups).
    """
    errors, skipped = [], []
    polys = {p["d"]: p["coeffs"] for p in results["polynomials"]}
    loops = [e for e in spec.edges if e[0] == e[1] and e[2] == 1]
    rest = GraphSpec(spec.name, spec.num_vertices, [e for e in spec.edges if e not in loops])
    for order in orders:
        best = min((rest, _bfs_order(rest)), key=lambda x: search_size(x, order))
        size = search_size(best, order)
        g = _graph(sf, best)
        for gamma in sf.abelian_groups_of_order(order):
            d = gamma.two_rank
            if d not in polys:
                continue
            if size > max_nodes:
                skipped.append(f"poly/{spec.name} over {gamma.label()}")
                continue
            n = order // 2**d
            oracle = sf.count_group_flows(g, gamma, budget=10**30) * (order - 1) ** len(loops)
            if _evaluate(polys[d], n) != oracle:
                errors.append(f"poly/{spec.name}: f_{d}({n}) differs from the oracle over {gamma.label()}")
    return errors, skipped


def count_against_engine(sf, spec: GraphSpec, results: dict) -> list[str]:
    gamma = sf.parse_group_spec(results["group"]["spec"])
    d = gamma.two_rank
    n = gamma.order // 2**d
    f = sf.flow_polynomial(_graph(sf, spec), d, cache={})
    if f(n) != results["count"]:
        return [f"count/{spec.name}: oracle count {results['count']} != f_{d}({n}) = {f(n)}"]
    return []


def fit_reproduces_counts(spec: GraphSpec, results: dict) -> list[str]:
    if "fit" not in results:
        return []
    fit = results["fit"]
    errors = []
    for row in results["counts"]:
        p = fit["p_even"] if row["n"] % 2 == 0 else fit["p_odd"]
        if _evaluate(p["coeffs"], row["n"]) != row["count"]:
            errors.append(f"intflow/{spec.name}: fit misses the count at n={row['n']}")
    if not fit["validated"]:
        errors.append(f"intflow/{spec.name}: fit not validated")
    return errors


def spot_checks(sf, commands: list[Command], stdouts: list[str]) -> list[str]:
    """Per-seed checks with the program's own oracle and engine.

    - poly: f_0 and f_1 at orders 2 and 3 (Z2, Z3) against the oracle,
      where that search is small (all graphs but the multiloop one);
    - count: the oracle's count against f_d(n) from the engine;
    - intflow --fit: the fitted quasipolynomial reproduces every count.
    """
    errors = []
    for command, stdout in zip(commands, stdouts):
        results = json.loads(stdout)["results"]
        spec = command.graph
        if command.subcommand == "poly":
            errors += poly_against_oracle(sf, spec, results, (2, 3), SPOT_CHECK_MAX_NODES)[0]
        elif command.subcommand == "count":
            errors += count_against_engine(sf, spec, results)
        elif command.subcommand == "intflow":
            errors += fit_reproduces_counts(spec, results)
    return errors
