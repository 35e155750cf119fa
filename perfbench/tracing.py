"""Outside-in tracing of one in-process CLI pass.

A :class:`Tracer` installs timing wrappers on the names each calling module
looks up (``signedflow.engine.contract_edge``, ``Poly.__mul__``, ...), runs
commands through ``signedflow.cli.main`` and removes the wrappers again.
No file of the program changes.

Every wrapped call becomes a span: name, start, end, parent span and the
index of the command it belongs to.  Spans live in compact arrays while the
pass runs and are written out once, at the end of the run.  A span's self
time is its duration minus the time covered by its child spans; a layer's
self time is the sum over its spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  A name's prefix up to the first dot is
# its layer.  Each attribute is the one the caller looks up, so the wrapper
# sits exactly on a layer boundary.  graph_fingerprint and
# default_orientation have no metric of their own; wrapping them keeps
# their time out of the engine's and the oracle's self time.
WRAPPED_FUNCTIONS = [
    ("signedflow.cli", "main", "cli.main"),
    ("signedflow.cli", "parse_graph_text", "graph.parse_graph_text"),
    ("signedflow.engine", "connected_components", "graph.connected_components"),
    ("signedflow.engine", "contract_edge", "graph.contract_edge"),
    ("signedflow.engine", "delete_edge", "graph.delete_edge"),
    ("signedflow.engine", "make_edge_positive", "graph.make_edge_positive"),
    ("signedflow.engine", "graph_fingerprint", "graph.graph_fingerprint"),
    ("signedflow.oracle", "default_orientation", "graph.default_orientation"),
    ("signedflow.engine", "flow_polynomial_family", "engine.flow_polynomial_family"),
    ("signedflow.engine", "flow_polynomial", "engine.flow_polynomial"),
    ("signedflow.engine", "fit_quasipolynomial", "engine.fit_quasipolynomial"),
    ("signedflow.engine", "double_sum_solutions", "engine.double_sum_solutions"),
    ("signedflow.engine", "nonzero_sum_count", "engine.nonzero_sum_count"),
    ("signedflow.engine", "interpolate", "polynomial.interpolate"),
    ("signedflow.oracle", "count_group_flows", "oracle.count_group_flows"),
    ("signedflow.oracle", "count_integer_nflows", "oracle.count_integer_nflows"),
    ("signedflow.cli", "abelian_groups_up_to", "groups.abelian_groups_up_to"),
    ("signedflow.cli", "group_pairs_same_invariants", "groups.group_pairs_same_invariants"),
]

# (module, class, method, span name); special methods are looked up on the
# class, so the wrapper replaces the class attribute.
WRAPPED_METHODS = [
    ("signedflow.polynomial", "Poly", m, f"polynomial.Poly.{m}")
    for m in ("__add__", "__sub__", "__mul__", "__rmul__", "__pow__", "__neg__", "__call__")
] + [
    ("signedflow.groups", "FiniteAbelianGroup", m, f"groups.FiniteAbelianGroup.{m}")
    for m in ("add", "negate", "double", "elements")
]


class Tracer:
    """Spans and boundary counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("H")
        self.parent: array = array("i")
        self.command: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.current_command = 0
        self._stack: list[int] = []
        # engine.memo_entries: final len(cache) per (command, cache object)
        self.cache_sizes: dict[tuple[int, int], int] = {}
        # sum of len(components) over calls that split into several
        self.split_components = 0
        self.bound_leaves = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_of, parent, command, start, end = (
            self.name_of, self.parent, self.command, self.start, self.end)

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            command.append(self.current_command)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # boundary counters, read from arguments and results --------------------

    def _after_engine(self, args, kwargs, out) -> None:
        cache = kwargs.get("cache")
        if cache is not None:
            self.cache_sizes[(self.current_command, id(cache))] = len(cache)

    def _after_components(self, args, kwargs, out) -> None:
        if len(out) > 1:
            self.split_components += len(out)

    def _after_group_flows(self, args, kwargs, out) -> None:
        g, gamma = args[0], args[1]
        self.bound_leaves += (gamma.order - 1) ** g.num_edges

    def _after_integer_flows(self, args, kwargs, out) -> None:
        g, n = args[0], args[1]
        self.bound_leaves += (2 * n - 2) ** g.num_edges

    def install(self, modules: dict) -> None:
        hooks = {
            "engine.flow_polynomial": self._after_engine,
            "engine.flow_polynomial_family": self._after_engine,
            "graph.connected_components": self._after_components,
            "oracle.count_group_flows": self._after_group_flows,
            "oracle.count_integer_nflows": self._after_integer_flows,
        }
        targets = [(modules[m], attr, name) for m, attr, name in WRAPPED_FUNCTIONS]
        targets += [(getattr(modules[m], cls), attr, name) for m, cls, attr, name in WRAPPED_METHODS]
        for owner, attr, name in targets:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # analysis ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: number of spans, total duration and total self time."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            d = end[i] - start[i]
            calls[name] += 1
            total[name] += d
            self_time[name] += d - child[i]
        return calls, total, self_time

    def write(self, path, commands: list[str]) -> None:
        """One JSON header line, then the raw span arrays in header order."""
        arrays = [("name", self.name_of), ("parent", self.parent), ("command", self.command),
                  ("start", self.start), ("end", self.end)]
        header = {
            "names": self.names,
            "commands": commands,
            "spans": len(self.start),
            "arrays": [[key, a.typecode, a.itemsize] for key, a in arrays],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in arrays:
                a.tofile(fh)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    calls, total, self_time = tracer.totals()

    def layer(prefix: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    nodes = calls["graph.connected_components"]
    recursive_calls = (calls["engine.flow_polynomial"] + tracer.split_components
                       + calls["graph.delete_edge"] + calls["graph.contract_edge"])
    oracle_s = layer("oracle", total)
    return {
        "cli.self_s": self_time["cli.main"],
        "graph.parse_s": total["graph.parse_graph_text"],
        "graph.components_calls": nodes,
        "graph.components_s": total["graph.connected_components"],
        "graph.contract_calls": calls["graph.contract_edge"],
        "graph.contract_s": total["graph.contract_edge"],
        "graph.delete_calls": calls["graph.delete_edge"],
        "graph.delete_s": total["graph.delete_edge"],
        "graph.switch_calls": calls["graph.make_edge_positive"],
        "graph.switch_s": total["graph.make_edge_positive"],
        "engine.self_s": layer("engine", self_time),
        "engine.nodes": nodes,
        "engine.memo_entries": sum(tracer.cache_sizes.values()),
        "engine.memo_hit_ratio": 1 - nodes / recursive_calls if recursive_calls else 0.0,
        "engine.leaf_calls": calls["engine.double_sum_solutions"],
        "engine.fit_s": total["engine.fit_quasipolynomial"],
        "polynomial.ops": int(layer("polynomial", calls)),
        "polynomial.self_s": layer("polynomial", self_time),
        "oracle.calls": int(layer("oracle", calls)),
        "oracle.self_s": layer("oracle", self_time),
        "oracle.bound_leaves": tracer.bound_leaves,
        "oracle.bound_leaves_per_s": tracer.bound_leaves / oracle_s if oracle_s else 0.0,
        "groups.calls": int(layer("groups", calls)),
        "groups.self_s": layer("groups", self_time),
    }
