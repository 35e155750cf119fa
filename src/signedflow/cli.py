"""Command-line front end: count, poly, verify, equiv, switch, intflow.

Reports are printed either as human-readable lines or, with --json, as a
deterministic JSON document (sorted keys, exact decimal integers only).

A command's process loads only the modules it runs.  Each command is one
entry of ``_COMMANDS``: its handler and its options.  The options are read
by that table, not by argparse, whose import and parser building took about
4 ms of every command's start-up; a refusal is then an input error like any
other, and a JSON report under --json.  JSON reports are written by
``_json_text``, not by the json module (about 2 ms to import).  Each
counter is imported inside the handlers that run it: the engine, and the
polynomial module with it, by poly, verify and intflow --fit, and the
oracle by count, verify and intflow.  So switch and equiv load neither
counter, and poly loads no oracle.

Exit codes: 0 success / all-pass, 1 verification mismatch, 2 input error,
3 search budget exceeded (or a graph too wide for the engine, or a poly
--d-max whose polynomials would be too large), 4 internal error or a
report that cannot be written, 130 interrupted (Ctrl-C); the report keeps
what was counted before it.
"""

import os
import sys

from .graph import (SignedGraph, graph_fingerprint, graph_to_text, parse_graph_text,
                    signatures_equivalent, switch)
from .groups import FiniteAbelianGroup, abelian_groups_of_order, group_pairs_same_invariants, parse_group_spec
# perfbench/tracing.py wraps abelian_groups_up_to, unused here, and
# group_pairs_same_invariants on this module, and each name it wraps must
# resolve; so groups is imported with this module, not inside the handlers
# as the counters are
from .groups import abelian_groups_up_to  # noqa: F401
from .values import DEFAULT_BUDGET, BudgetExceededError, _as_int, _int_list, _int_text

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process that Ctrl-C ended


def _load_graph(path: str) -> SignedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # a leading byte-order mark is dropped, as utf-8-sig would drop it,
            # without loading that codec's module in every command
            text = fh.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read graph file {path!r}: {exc}") from None
    try:
        return parse_graph_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _coeff_json(c) -> int | str:
    """An int as it is, a Fraction (only a fit has them) as its text, ``p/q``."""
    return c if isinstance(c, int) else str(c)


def _poly_json(p) -> dict:
    return {"coeffs": [_coeff_json(c) for c in p.coeff_list()], "text": str(p)}


def _group_json(g: FiniteAbelianGroup) -> dict:
    return {"spec": g.spec(), "label": g.label(), "order": g.order, "two_rank": g.two_rank}


def _counted(label: str, count, g: SignedGraph, size, budget: int) -> int:
    """``count(g, size, budget=budget)``, one count of verify's groups or of
    intflow's n; a refusal names which one it was."""
    try:
        return count(g, size, budget=budget)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{label}: {exc}") from None


def _cmd_count(g: SignedGraph, args, results: dict, human: list[str]) -> int:
    gamma = parse_group_spec(args["group"])
    from . import oracle

    n = oracle.count_group_flows(g, gamma, budget=args["budget"])
    results.update(count=n, group=_group_json(gamma),
                   num_vertices=g.num_vertices, num_edges=g.num_edges)
    human.extend([
        f"graph: {g.num_vertices} vertices, {g.num_edges} edges",
        f"group: {gamma.label()} (order {gamma.order}, 2-rank {gamma.two_rank})",
        f"nowhere-zero flows: {n}",
    ])
    return EXIT_OK


def _cmd_poly(g: SignedGraph, args, results: dict, human: list[str]) -> int:
    _as_int(args["d_max"], "d-max", least=0)
    from . import engine

    family = engine.flow_polynomial_family(g, args["d_max"])
    polys = [{"d": d, **_poly_json(p)} for d, p in family.items()]
    results.update(d_max=args["d_max"], polynomials=polys, graph_fingerprint=graph_fingerprint(g))
    if not args["json"]:  # each line writes every coefficient out once more
        human.append(f"graph: {g.num_vertices} vertices, {g.num_edges} edges")
        human.extend(f"f_{entry['d']}(n) = {entry['text']}    coeffs {entry['coeffs']}" for entry in polys)
    return EXIT_OK


def _cmd_verify(g: SignedGraph, args, results: dict, human: list[str]) -> int:
    max_order = _as_int(args["max_order"], "max-order", least=1)
    from . import engine, oracle

    # the largest 2-rank of a group of order at most max_order, that of Z2^d
    family = engine.flow_polynomial_family(g, max_order.bit_length() - 1)
    # filled as the counts are made, so that a refusal's report keeps them
    group_rows = results["groups"] = []
    counts: dict[FiniteAbelianGroup, int] = {}
    # the groups are listed one order at a time, so none past a refusal is
    # listed at all
    for gamma in (gamma for order in range(1, max_order + 1) for gamma in abelian_groups_of_order(order)):
        d = gamma.two_rank
        n = gamma.order // 2**d
        expected = family[d](n)
        actual = counts[gamma] = _counted(gamma.label(), oracle.count_group_flows, g, gamma,
                                          args["budget"])
        ok = expected == actual
        group_rows.append({"group": _group_json(gamma), "n": n,
                           "oracle": actual, "polynomial": expected,
                           "pass": ok})
        human.append(
            f"{gamma.label()} (order {gamma.order}, d={d}, n={n}): "
            f"oracle={actual} poly={expected} {'PASS' if ok else 'FAIL'}"
        )
    pair_rows = []
    # the groups counted, in the order they were counted
    for left, right in group_pairs_same_invariants(counts):
        cl, cr = counts[left], counts[right]
        ok = cl == cr
        pair_rows.append({"left": _group_json(left), "right": _group_json(right),
                          "left_count": cl, "right_count": cr, "pass": ok})
        human.append(
            f"pair {left.label()} / {right.label()}: {cl} vs {cr} {'PASS' if ok else 'FAIL'}"
        )
    all_pass = all(row["pass"] for row in group_rows + pair_rows)
    summary = (
        f"verified {len(group_rows)} groups and {len(pair_rows)} pairs: "
        f"{'all PASS' if all_pass else 'FAILURES found'}"
    )
    human.append(summary)
    results.update(pairs=pair_rows, all_pass=all_pass)
    return EXIT_OK if all_pass else EXIT_MISMATCH


def _cmd_equiv(g: SignedGraph, args, results: dict, human: list[str]) -> int:
    verdict = signatures_equivalent(g, _load_graph(args["other"]))
    results["equivalent"] = verdict
    human.append(f"equivalent: {'yes' if verdict else 'no'}")
    return EXIT_OK


def _cmd_switch(g: SignedGraph, args, results: dict, human: list[str]) -> int:
    xs = set(_int_list(args["vertices"], "vertex"))
    out = switch(g, xs)
    text = graph_to_text(out)
    results.update(graph_text=text, switched_at=sorted(xs))
    human.append(text.rstrip("\n"))
    return EXIT_OK


def _cmd_intflow(g: SignedGraph, args, results: dict, human: list[str]) -> int:
    _as_int(args["n_max"], "n-max", least=1)
    from . import oracle

    if args["fit"]:  # refused before any count is made
        from . import engine

        _as_int(args["n_max"], "n-max with --fit", least=engine._FIT_MIN_N)
    # filled as the counts are made, so that a refusal's report keeps them
    rows = results["counts"] = []
    for n in range(1, args["n_max"] + 1):
        count = _counted(f"n = {n}", oracle.count_integer_nflows, g, n, args["budget"])
        rows.append({"n": n, "count": count})
        human.append(f"n={n}: {count}")
    if args["fit"]:
        fit = engine.fit_quasipolynomial((row["n"], row["count"]) for row in rows)
        even, odd = _poly_json(fit.p_even), _poly_json(fit.p_odd)
        results["fit"] = {"p_even": even, "p_odd": odd, "validated": fit.validated,
                          "sample_range": list(fit.sample_range)}
        human.append(f"fit even n: {even['text']}    coeffs {even['coeffs']}")
        human.append(f"fit odd n:  {odd['text']}    coeffs {odd['coeffs']}")
        human.append(f"fit validated: {'yes' if fit.validated else 'no'}")
    return EXIT_OK


# Each command: (handler, options).  main loads the graph named by --graph,
# which every command takes, and calls the handler with it, the parsed
# options and the results and human lines that main owns and reports; the
# handler fills them and returns its exit code, and what it filled before a
# refusal or an interrupt stays reported.  Options: name -> (dest, reader,
# default).  The reader is None for text, _int_text for an integer and bool
# for a flag, which takes no value; a default of None marks a required
# option.  The parsed options, without json, are the report's "inputs".
_COMMON = {"--graph": ("graph", None, None), "--json": ("json", bool, False)}
_BUDGET = {"--budget": ("budget", _int_text, DEFAULT_BUDGET)}
_COMMANDS = {
    "count": (_cmd_count, {**_COMMON, **_BUDGET, "--group": ("group", None, None)}),
    "poly": (_cmd_poly, {**_COMMON, "--d-max": ("d_max", _int_text, 2)}),
    "verify": (_cmd_verify, {**_COMMON, **_BUDGET, "--max-order": ("max_order", _int_text, 8)}),
    "equiv": (_cmd_equiv, {**_COMMON, "--other": ("other", None, None)}),
    "switch": (_cmd_switch, {**_COMMON, "--vertices": ("vertices", None, None)}),
    "intflow": (_cmd_intflow, {**_COMMON, **_BUDGET, "--n-max": ("n_max", _int_text, 8),
                               "--fit": ("fit", bool, False)}),
}


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its options, read by ``_COMMANDS``.  An option is
    ``--name value`` or ``--name=value``, the last of a repeated option
    wins, and names are exact.  Every refusal is a ``ValueError``."""
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        raise ValueError(f"command must be one of {', '.join(_COMMANDS)}, got {command!r}")
    table = _COMMANDS[command][1]
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
    """What --help prints: one line per command, built from ``_COMMANDS``."""
    lines = ["usage: signedflow COMMAND --option VALUE|--option=VALUE ...  ([...] may be left out)"]
    for command, (_, table) in _COMMANDS.items():
        words = [f"{name} {dest.upper()}" if default is None else f"[{name}]" if reader is bool
                 else f"[{name} {default}]" for name, (dest, reader, default) in table.items()]
        lines.append(f"  {command:<8} {' '.join(words)}")
    return "\n".join(lines)


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for the types a report
    holds: dicts with text keys, lists, tuples, ints, text, bools and None.
    Any other type, a float among them, is a ``TypeError``."""
    # json.dumps escapes text with this function; taking it from _json loads
    # none of the json package, and only a --json report loads _json at all
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter built without json's C part
        from json.encoder import py_encode_basestring_ascii as quote

    def text(value, indent: str) -> str:
        if isinstance(value, str):
            return quote(value)
        if value is None or value is True or value is False:
            return "null" if value is None else "true" if value else "false"
        if isinstance(value, int):
            return int.__repr__(value)
        inner = indent + "  "
        if isinstance(value, (list, tuple)):
            parts, brackets = [text(item, inner) for item in value], "[]"
        elif isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts = [f"{quote(key)}: {text(value[key], inner)}" for key in sorted(value)]
            brackets = "{}"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not parts:
            return brackets
        return brackets[0] + inner + ("," + inner).join(parts) + indent + brackets[1]

    return text(value, "\n")


def _report_text(command: str, inputs: dict, results: dict, as_json: bool,
                 human: list[str], message: str | None) -> tuple[str, str]:
    """The report's text for stdout and for stderr; a message makes it an
    error report."""
    if as_json:
        status = "ok" if message is None else "error"
        report = {"command": command, "inputs": inputs, "results": results, "status": status}
        if message is not None:
            report["message"] = message
        return _json_text(report) + "\n", ""
    err = "" if message is None else f"error: {message}\n"
    return "".join(f"{line}\n" for line in human), err


def _internal_error(exc: Exception) -> str:
    return f"internal error: {type(exc).__name__}: {exc}"


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
            code = _COMMANDS[command][0](_load_graph(args["graph"]), args, results, human)
    except KeyboardInterrupt:
        message, code = "interrupted", EXIT_INTERRUPTED
    except BudgetExceededError as exc:
        message, code = str(exc), EXIT_BUDGET
    except ValueError as exc:
        message, code = str(exc), EXIT_INPUT
    except Exception as exc:
        # anything else is a fault of the program: report it in one line,
        # never as a traceback or as the mismatch code
        message, code = _internal_error(exc), EXIT_INTERNAL
    # the whole text is built before any of it is written, so a report that
    # cannot be built prints nothing but its error
    try:
        out, err = _report_text(command, inputs, results, as_json, human, message)
    except Exception as exc:
        out, err, code = "", f"error: {_internal_error(exc)}\n", EXIT_INTERNAL
    try:
        if out:
            _stream("stdout").write(out)
        if err:
            _stream("stderr").write(err)
        if sys.stdout is not None:
            sys.stdout.flush()
    except (OSError, ValueError) as exc:  # a closed pipe, a full disk or a closed file
        _say(f"error: cannot write the report: {exc}\n")
        return EXIT_INTERNAL
    return code


def _stream(name: str):
    """``sys.stdout`` or ``sys.stderr``.  Python sets it to None when the
    process starts with that file descriptor closed, and such a stream
    cannot be written."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


def _say(line: str) -> None:
    """Write ``line`` to stderr if it can be written at all."""
    try:
        _stream("stderr").write(line)
    except (OSError, ValueError):
        pass


def run() -> None:
    failed = None
    try:
        code = main()
    except KeyboardInterrupt:
        # Ctrl-C while the report was built or written
        failed, code = "interrupted", EXIT_INTERRUPTED
    except Exception as exc:
        # main failed while reporting another fault, say with a MemoryError;
        # only the name is kept, so the exception and the frames it holds are
        # freed when this block ends, before anything is written
        failed, code = f"internal error: {type(exc).__name__}", EXIT_INTERNAL
    if failed is not None:
        _say(f"error: {failed}\n")
    # The process ends here, without the interpreter's shutdown: its
    # collection over every object still alive (most of them made by site's
    # imports) and its teardown of the modules took about 9 ms of every
    # command.  Of what the shutdown does, the program needs only the flush
    # of the streams, done here; it registers no atexit handler.  A stream
    # that cannot be flushed lost part of the report.  An interrupted
    # command flushes no more of its report: into a full pipe, that flush
    # would block again.
    for stream in (sys.stderr,) if code == EXIT_INTERRUPTED else (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):
                code = EXIT_INTERNAL
    os._exit(code)


if __name__ == "__main__":
    run()
