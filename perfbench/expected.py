#!/usr/bin/env python3
"""Write perfbench/expected/<workload>.json: the exact ``results`` of every
benchmark command, taken from the CLI at the current commit.

    python3 perfbench/expected.py [WORKLOAD ...]

Run it from the root of a checkout, only when the inputs in inputs.py
change.  Before writing, the new values are cross-checked:

- they must be the same for seeds 0 and 1 (the seed never changes a
  switching class, so no output may depend on it);
- poly: every f_d against the oracle over every group of order at most 4
  (Z1, Z2, Z3, Z4, Z2 x Z2) where that search is feasible, and the two edge
  orders of prism5 agree;
- verify: all_pass;
- count: the oracle's count against f_d(n) from the engine;
- intflow --fit: the fit reproduces every count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import inputs

SRC = Path.cwd() / "src"
GRAPH = Path.cwd() / "perfbench" / "out" / "graphs" / "expected.txt"


def cli_results(command: inputs.Command) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    GRAPH.parent.mkdir(parents=True, exist_ok=True)
    GRAPH.write_text(command.graph.text(), encoding="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "signedflow.cli", *command.args, "--graph", str(GRAPH), "--json"],
        capture_output=True, text=True, env=env, check=False)
    report = checks.parse_report(command, proc.returncode, proc.stdout, proc.stderr)
    return checks.comparable_results(command, report["results"])


# Largest expected oracle search (checks.search_size) in the cross-check;
# about 15 s per group.
MAX_NODES = 2e7


def cross_check(sf, commands: list[inputs.Command], results: dict[str, dict]) -> list[str]:
    errors = []
    for command in commands:
        r = results[command.name]
        if command.subcommand == "poly":
            errs, skipped = checks.poly_against_oracle(sf, command.graph, r, (1, 2, 3, 4), MAX_NODES)
            errors += errs
            for name in skipped:
                print(f"not cross-checked, search too large: {name}")
        elif command.subcommand == "verify" and r["all_pass"] is not True:
            errors.append(f"{command.name}: not all_pass")
        elif command.subcommand == "count":
            errors += checks.count_against_engine(sf, command.graph, r)
        elif command.subcommand == "intflow":
            errors += checks.fit_reproduces_counts(command.graph, r)
    if "poly/prism5-cycle" in results and results["poly/prism5-cycle"] != results["poly/prism5-rung"]:
        errors.append("prism5 gives different polynomials in cycle and rung order")
    return errors


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import signedflow as sf

    status = 0
    for workload in argv or sorted(inputs.WORKLOADS):
        runs = []
        for seed in (0, 1):
            commands = inputs.commands_for(workload, seed)
            runs.append({c.name: cli_results(c) for c in commands})
        errors = [] if runs[0] == runs[1] else [f"{workload}: results depend on the seed"]
        errors += cross_check(sf, inputs.commands_for(workload, 0), runs[0])
        if errors:
            print("\n".join(errors), file=sys.stderr)
            status = 1
            continue
        path = checks.expected_path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(runs[0], sort_keys=True, indent=1) + "\n", encoding="ascii")
        print(f"wrote {path} ({len(runs[0])} commands, cross-checked)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
