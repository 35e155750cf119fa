"""Command-line front end: count, poly, verify, equiv, switch, intflow.

Reports are printed either as human-readable lines or, with --json, as a
deterministic JSON document (sorted keys, exact decimal integers only).

Exit codes: 0 success / all-pass, 1 verification mismatch, 2 input error,
3 search budget exceeded, 4 internal error or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine, oracle
from .graph import SignedGraph, graph_to_text, parse_graph_text, signatures_equivalent, switch
from .groups import FiniteAbelianGroup, abelian_groups_up_to, group_pairs_same_invariants, parse_group_spec
from .polynomial import Poly
from .values import _as_int, _int_text

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load_graph(path: str) -> SignedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read graph file {path!r}: {exc}") from None
    try:
        return parse_graph_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_vertex_list(text: str) -> set[int]:
    tokens = text.split(",") if text.strip() else []
    return {_int_text(tok.strip(), "vertex") for tok in tokens}


def _int_option(text: str) -> int:
    """An option's integer, read as the integers of a graph file are."""
    try:
        return _int_text(text, "value")
    except ValueError as exc:  # argparse words a ValueError its own way
        raise argparse.ArgumentTypeError(str(exc)) from None


def _coeff_json(c) -> int | str:
    if isinstance(c, int):
        return c
    from fractions import Fraction  # only a fit has rational coefficients

    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    raise TypeError(f"unexpected coefficient type {type(c)!r}")


def _poly_json(p: Poly) -> dict:
    return {"coeffs": [_coeff_json(c) for c in p.coeff_list()], "text": str(p)}


def _inputs_of(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("command", "json") and v is not None}


def _group_json(g: FiniteAbelianGroup) -> dict:
    return {"spec": g.spec(), "label": g.label(), "order": g.order, "two_rank": g.two_rank}


def _cmd_count(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args.graph)
    gamma = parse_group_spec(args.group)
    n = oracle.count_group_flows(g, gamma, budget=args.budget)
    results = {"count": n, "group": _group_json(gamma),
               "num_vertices": g.num_vertices, "num_edges": g.num_edges}
    human = [
        f"graph: {g.num_vertices} vertices, {g.num_edges} edges",
        f"group: {gamma.label()} (order {gamma.order}, 2-rank {gamma.two_rank})",
        f"nowhere-zero flows: {n}",
    ]
    return results, human, EXIT_OK


def _cmd_poly(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args.graph)
    _as_int(args.d_max, "d-max", least=0)
    family = engine.flow_polynomial_family(g, args.d_max, cache={})
    polys = [{"d": d, **_poly_json(p)} for d, p in sorted(family.entries.items())]
    results = {"d_max": args.d_max, "polynomials": polys,
               "graph_fingerprint": family.graph_fingerprint}
    human = [f"graph: {g.num_vertices} vertices, {g.num_edges} edges"]
    for entry in polys:
        human.append(f"f_{entry['d']}(n) = {entry['text']}    coeffs {entry['coeffs']}")
    return results, human, EXIT_OK


def _cmd_verify(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args.graph)
    _as_int(args.max_order, "max-order", least=1)
    gammas = abelian_groups_up_to(args.max_order)
    family = engine.flow_polynomial_family(g, max(gamma.two_rank for gamma in gammas), cache={})
    group_rows = []
    human = []
    all_pass = True
    counts: dict[FiniteAbelianGroup, int] = {}
    for gamma in gammas:
        d = gamma.two_rank
        n = gamma.order // 2**d
        expected = family.entries[d](n)
        actual = counts[gamma] = oracle.count_group_flows(g, gamma, budget=args.budget)
        ok = expected == actual
        all_pass = all_pass and ok
        group_rows.append({"group": _group_json(gamma), "n": n,
                           "oracle": actual, "polynomial": expected,
                           "pass": ok})
        human.append(
            f"{gamma.label()} (order {gamma.order}, d={d}, n={n}): "
            f"oracle={actual} poly={expected} {'PASS' if ok else 'FAIL'}"
        )
    pair_rows = []
    for left, right in group_pairs_same_invariants(args.max_order):
        # every group of a pair has order <= max_order, so it was counted above
        cl, cr = counts[left], counts[right]
        ok = cl == cr
        all_pass = all_pass and ok
        pair_rows.append({"left": _group_json(left), "right": _group_json(right),
                          "left_count": cl, "right_count": cr, "pass": ok})
        human.append(
            f"pair {left.label()} / {right.label()}: {cl} vs {cr} {'PASS' if ok else 'FAIL'}"
        )
    summary = (
        f"verified {len(group_rows)} groups and {len(pair_rows)} pairs: "
        f"{'all PASS' if all_pass else 'FAILURES found'}"
    )
    human.append(summary)
    results = {"groups": group_rows, "pairs": pair_rows, "all_pass": all_pass}
    return results, human, EXIT_OK if all_pass else EXIT_MISMATCH


def _cmd_equiv(args) -> tuple[dict, list[str], int]:
    g1 = _load_graph(args.graph)
    g2 = _load_graph(args.other)
    verdict = signatures_equivalent(g1, g2)
    results = {"equivalent": verdict}
    human = [f"equivalent: {'yes' if verdict else 'no'}"]
    return results, human, EXIT_OK


def _cmd_switch(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args.graph)
    xs = _parse_vertex_list(args.vertices)
    out = switch(g, xs)
    text = graph_to_text(out)
    results = {"graph_text": text, "switched_at": sorted(xs)}
    human = [text.rstrip("\n")]
    return results, human, EXIT_OK


def _cmd_intflow(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args.graph)
    _as_int(args.n_max, "n-max", least=1)
    counts = [(n, oracle.count_integer_nflows(g, n, budget=args.budget))
              for n in range(1, args.n_max + 1)]
    results: dict = {"counts": [{"n": n, "count": c} for n, c in counts]}
    human = [f"n={n}: {c}" for n, c in counts]
    if args.fit:
        fit = engine.fit_quasipolynomial(counts)
        results["fit"] = {
            "p_even": _poly_json(fit.p_even),
            "p_odd": _poly_json(fit.p_odd),
            "validated": fit.validated,
            "sample_range": list(fit.sample_range),
        }
        human.append(f"fit even n: {fit.p_even}    coeffs {_poly_json(fit.p_even)['coeffs']}")
        human.append(f"fit odd n:  {fit.p_odd}    coeffs {_poly_json(fit.p_odd)['coeffs']}")
        human.append(f"fit validated: {'yes' if fit.validated else 'no'}")
    return results, human, EXIT_OK


_HANDLERS = {
    "count": _cmd_count,
    "poly": _cmd_poly,
    "verify": _cmd_verify,
    "equiv": _cmd_equiv,
    "switch": _cmd_switch,
    "intflow": _cmd_intflow,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedflow",
        description="Count nowhere-zero flows on signed graphs over finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, budget=False):
        sp.add_argument("--graph", required=True, help="graph file (vertices/edge lines)")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        if budget:
            sp.add_argument("--budget", type=_int_option, default=oracle.DEFAULT_BUDGET,
                            help="most transfer-matrix steps a count may take")

    sp = sub.add_parser("count", help="count nowhere-zero flows over one group")
    common(sp, budget=True)
    sp.add_argument("--group", required=True, help="comma-separated moduli, e.g. 4,2")

    sp = sub.add_parser("poly", help="flow polynomials f_0..f_dmax")
    common(sp)
    sp.add_argument("--d-max", type=_int_option, default=2, dest="d_max")

    sp = sub.add_parser("verify", help="check polynomials against brute force on all groups")
    common(sp, budget=True)
    sp.add_argument("--max-order", type=_int_option, default=8, dest="max_order")

    sp = sub.add_parser("equiv", help="test signature equivalence of two graphs")
    common(sp)
    sp.add_argument("--other", required=True, help="second graph file")

    sp = sub.add_parser("switch", help="negate signs across the cut at a vertex set")
    common(sp)
    sp.add_argument("--vertices", required=True,
                    help="comma-separated vertex indices (may be empty)")

    sp = sub.add_parser("intflow", help="integer nowhere-zero n-flow counts")
    common(sp, budget=True)
    sp.add_argument("--n-max", type=_int_option, default=8, dest="n_max")
    sp.add_argument("--fit", action="store_true",
                    help="fit per-parity polynomials to the counts")

    return parser


def _print_report(command: str, inputs: dict, results: dict, as_json: bool,
                  human: list[str], message: str | None) -> None:
    """Print the report and flush it; a message makes it an error report."""
    if as_json:
        status = "ok" if message is None else "error"
        report = {"command": command, "inputs": inputs, "results": results, "status": status}
        if message is not None:
            report["message"] = message
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in human:
            print(line)
        if message is not None:
            print(f"error: {message}", file=sys.stderr)
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    inputs = _inputs_of(args)
    results, human, message = {}, [], None
    try:
        results, human, code = _HANDLERS[args.command](args)
    except oracle.BudgetExceededError as exc:
        message, code = str(exc), EXIT_BUDGET
    except ValueError as exc:
        message, code = str(exc), EXIT_INPUT
    except Exception as exc:
        # anything else is a fault of the program: report it in one line,
        # never as a traceback or as the mismatch code
        message, code = f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    try:
        _print_report(args.command, inputs, results, args.json, human, message)
    except OSError as exc:  # a closed pipe or a full disk
        try:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
        except OSError:
            pass
        return EXIT_INTERNAL
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
