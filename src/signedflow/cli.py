"""Command-line front end: count, poly, verify, equiv, switch, intflow.

Reports are printed either as human-readable lines or, with --json, as a
deterministic JSON document (sorted keys, exact decimal integers only).

Options are read by one table, ``_OPTIONS``, rather than by argparse,
whose import and parser building took about 4 ms of every command's
start-up; a refusal is then an input error like any other, and a JSON
report under --json.

Exit codes: 0 success / all-pass, 1 verification mismatch, 2 input error,
3 search budget exceeded, 4 internal error or a report that cannot be written.
"""

from __future__ import annotations

import json
import sys

from . import engine, oracle
from .graph import (SignedGraph, graph_fingerprint, graph_to_text, parse_graph_text,
                    signatures_equivalent, switch)
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


def _coeff_json(c) -> int | str:
    if isinstance(c, int):
        return c
    from fractions import Fraction  # only a fit has rational coefficients

    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    raise TypeError(f"unexpected coefficient type {type(c)!r}")


def _poly_json(p: Poly) -> dict:
    return {"coeffs": [_coeff_json(c) for c in p.coeff_list()], "text": str(p)}


def _group_json(g: FiniteAbelianGroup) -> dict:
    return {"spec": g.spec(), "label": g.label(), "order": g.order, "two_rank": g.two_rank}


def _cmd_count(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args["graph"])
    gamma = parse_group_spec(args["group"])
    n = oracle.count_group_flows(g, gamma, budget=args["budget"])
    results = {"count": n, "group": _group_json(gamma),
               "num_vertices": g.num_vertices, "num_edges": g.num_edges}
    human = [
        f"graph: {g.num_vertices} vertices, {g.num_edges} edges",
        f"group: {gamma.label()} (order {gamma.order}, 2-rank {gamma.two_rank})",
        f"nowhere-zero flows: {n}",
    ]
    return results, human, EXIT_OK


def _cmd_poly(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args["graph"])
    _as_int(args["d_max"], "d-max", least=0)
    family = engine.flow_polynomial_family(g, args["d_max"])
    polys = [{"d": d, **_poly_json(p)} for d, p in family.items()]
    results = {"d_max": args["d_max"], "polynomials": polys,
               "graph_fingerprint": graph_fingerprint(g)}
    human = [f"graph: {g.num_vertices} vertices, {g.num_edges} edges"]
    for entry in polys:
        human.append(f"f_{entry['d']}(n) = {entry['text']}    coeffs {entry['coeffs']}")
    return results, human, EXIT_OK


def _cmd_verify(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args["graph"])
    _as_int(args["max_order"], "max-order", least=1)
    gammas = abelian_groups_up_to(args["max_order"])
    family = engine.flow_polynomial_family(g, max(gamma.two_rank for gamma in gammas))
    group_rows = []
    human = []
    all_pass = True
    counts: dict[FiniteAbelianGroup, int] = {}
    for gamma in gammas:
        d = gamma.two_rank
        n = gamma.order // 2**d
        expected = family[d](n)
        actual = counts[gamma] = oracle.count_group_flows(g, gamma, budget=args["budget"])
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
    for left, right in group_pairs_same_invariants(gammas):
        # every group of a pair is in gammas, so it was counted above
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
    g1 = _load_graph(args["graph"])
    g2 = _load_graph(args["other"])
    verdict = signatures_equivalent(g1, g2)
    results = {"equivalent": verdict}
    human = [f"equivalent: {'yes' if verdict else 'no'}"]
    return results, human, EXIT_OK


def _cmd_switch(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args["graph"])
    xs = _parse_vertex_list(args["vertices"])
    out = switch(g, xs)
    text = graph_to_text(out)
    results = {"graph_text": text, "switched_at": sorted(xs)}
    human = [text.rstrip("\n")]
    return results, human, EXIT_OK


def _cmd_intflow(args) -> tuple[dict, list[str], int]:
    g = _load_graph(args["graph"])
    _as_int(args["n_max"], "n-max", least=1)
    counts = [(n, oracle.count_integer_nflows(g, n, budget=args["budget"]))
              for n in range(1, args["n_max"] + 1)]
    results: dict = {"counts": [{"n": n, "count": c} for n, c in counts]}
    human = [f"n={n}: {c}" for n, c in counts]
    if args["fit"]:
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


# Each command's options: name -> (dest, reader, default).  The reader is
# None for text, _int_text for an integer and bool for a flag, which takes no
# value; a default of None marks a required option.  The parsed options,
# without json, are the report's "inputs".
_COMMON = {"--graph": ("graph", None, None), "--json": ("json", bool, False)}
_BUDGET = {"--budget": ("budget", _int_text, oracle.DEFAULT_BUDGET)}
_OPTIONS = {
    "count": {**_COMMON, **_BUDGET, "--group": ("group", None, None)},
    "poly": {**_COMMON, "--d-max": ("d_max", _int_text, 2)},
    "verify": {**_COMMON, **_BUDGET, "--max-order": ("max_order", _int_text, 8)},
    "equiv": {**_COMMON, "--other": ("other", None, None)},
    "switch": {**_COMMON, "--vertices": ("vertices", None, None)},
    "intflow": {**_COMMON, **_BUDGET, "--n-max": ("n_max", _int_text, 8),
                "--fit": ("fit", bool, False)},
}


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its options, read by ``_OPTIONS``.  An option is
    ``--name value`` or ``--name=value``, the last of a repeated option
    wins, and names are exact.  Every refusal is a ``ValueError``."""
    command = argv[0] if argv else ""
    table = _OPTIONS.get(command)
    if table is None:
        raise ValueError(f"command must be one of {', '.join(_OPTIONS)}, got {command!r}")
    opts = {dest: default for dest, _, default in table.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in table:
            raise ValueError(f"{command} has no option {name!r}")
        dest, reader, _ = table[name]
        if reader is bool:
            if eq:
                raise ValueError(f"{name} takes no value")
            opts[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{name} needs a value")
        opts[dest] = value if reader is None else reader(value, name[2:])
    missing = [name for name, (dest, _, _) in table.items() if opts[dest] is None]
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")
    return command, opts


def _usage() -> str:
    """What --help prints: one line per command, built from ``_OPTIONS``."""
    lines = ["usage: signedflow COMMAND --option VALUE|--option=VALUE ...  ([...] may be left out)"]
    for command, table in _OPTIONS.items():
        words = [f"{name} {dest.upper()}" if default is None else f"[{name}]" if reader is bool
                 else f"[{name} {default}]" for name, (dest, reader, default) in table.items()]
        lines.append(f"  {command:<8} {' '.join(words)}")
    return "\n".join(lines)


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
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # an exact count may have any number of digits
    argv = sys.argv[1:] if argv is None else argv
    command, inputs, results, human, message = argv[0] if argv else None, {}, {}, [], None
    as_json = "--json" in argv
    try:
        if "-h" in argv or "--help" in argv:
            human, code, as_json = [_usage()], EXIT_OK, False
        else:
            command, args = _parse(argv)
            inputs = {k: v for k, v in args.items() if k != "json"}
            results, human, code = _HANDLERS[command](args)
    except oracle.BudgetExceededError as exc:
        message, code = str(exc), EXIT_BUDGET
    except ValueError as exc:
        message, code = str(exc), EXIT_INPUT
    except Exception as exc:
        # anything else is a fault of the program: report it in one line,
        # never as a traceback or as the mismatch code
        message, code = f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    try:
        _print_report(command, inputs, results, as_json, human, message)
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
