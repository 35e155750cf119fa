#!/usr/bin/env python3
"""End-to-end benchmark of the ``signedflow`` CLI, with a traced run per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload poly-dc --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

``--trace 0`` runs the CLI the way a user does: one process per command,
started one after another by this script (a closed loop with one client),
never two at a time.  ``--trace 1`` instead calls
``signedflow.cli.main`` in this process, alternating untraced passes with
passes under timing wrappers (tracing.py), and reports per-layer metrics.

Each run makes its inputs from ``--seed``, runs one untimed warm-up pass,
measures for about ``--seconds`` seconds, checks every output exactly
(checks.py) and prints a human report on stderr.  The last line on stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of BENCHMARK.json, or its ``per_layer`` metrics with
``--trace 1``).  The exit code is 0 only when every command succeeded with
exactly the expected output.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from speed import speed_factor, time_reference
from tracing import Tracer, layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_PROBES = 15
# A run must end well inside the three minutes a run may take.
RUN_DEADLINE_S = 170.0

PROGRAM_MODULES = ("signedflow.cli", "signedflow.engine", "signedflow.oracle",
                   "signedflow.polynomial", "signedflow.groups")


class RunAborted(Exception):
    """The run's deadline passed; the result is not printed."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Commands run and run-level checks made, and what failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(error)

    def record_check(self, errors: list[str]) -> None:
        """One run-level check, failed if it found any error."""
        self.attempted += 1
        if errors:
            self.failures.append("; ".join(errors))


class CliRunner:
    """Starts one CLI process at a time and reaps it with its resource usage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.reference_s: list[float] = []
        # Children cache bytecode, as a default install does, whatever the
        # caller's environment says; the warm-up pass writes the cache.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, argv: list[str]) -> Sample:
        """Time the reference loop, then run ``signedflow <argv>`` as its own process."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunAborted("run deadline passed")
        self.reference_s.append(time_reference())
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "signedflow.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=ROOT)
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        if proc.returncode < 0 and time.monotonic() >= self.deadline:
            raise RunAborted("run deadline passed while a command ran")
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode, out.decode("utf-8", "replace"),
                      b"".join(err).decode("utf-8", "replace"))


def cli_args(command: inputs.Command, graph: Path) -> list[str]:
    return [*command.args, "--graph", str(graph), "--json"]


def _write_graphs(workload: str, commands: list[inputs.Command]) -> list[Path]:
    folder = OUT / "graphs" / workload
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, command in enumerate(commands):
        path = folder / f"{i}-{command.graph.name}.txt"
        path.write_text(command.graph.text(), encoding="ascii")
        paths.append(path)
    return paths


def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(name) for name in PROGRAM_MODULES}
    where = Path(modules["signedflow.cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported signedflow from {where}, not from {SRC}")
    return importlib.import_module("signedflow"), modules


def _passes_fit(elapsed: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, ends in time."""
    return elapsed + elapsed / passes <= seconds


@dataclass
class Setup:
    commands: list[inputs.Command]
    graphs: list[Path]
    expected: dict[str, dict]
    runner: CliRunner
    tally: Tally


def _prepare(workload: str, seed: int) -> Setup:
    commands = inputs.commands_for(workload, seed)
    return Setup(commands, _write_graphs(workload, commands),
                 checks.load_expected(workload),
                 CliRunner(time.monotonic() + RUN_DEADLINE_S), Tally())


def _cli_pass(s: Setup, before_each=None) -> list[Sample]:
    samples = []
    for command, graph in zip(s.commands, s.graphs):
        if before_each is not None:
            before_each()
        sample = s.runner.run(cli_args(command, graph))
        s.tally.record(checks.check_output(command, sample.code, sample.stdout,
                                           sample.stderr, s.expected))
        samples.append(sample)
    return samples


def _spot_checks(s: Setup, stdouts: list[str]) -> None:
    if s.tally.failures:
        return  # outputs already wrong; the spot checks assume valid reports
    sf, _ = _import_program()
    s.tally.record_check(checks.spot_checks(sf, s.commands, stdouts))


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Setup, list[str]]:
    s = _prepare(workload, seed)
    warm = _cli_pass(s)

    probe_graph = OUT / "graphs" / "setup-one-vertex.txt"
    probe_graph.write_text(inputs.SETUP_COMMAND.graph.text(), encoding="ascii")
    probe_expected = {inputs.SETUP_COMMAND.name: {"graph_text": "vertices 1\n", "switched_at": [0]}}
    probes: list[float] = []

    def probe() -> None:
        sample = s.runner.run(cli_args(inputs.SETUP_COMMAND, probe_graph))
        s.tally.record(checks.check_output(inputs.SETUP_COMMAND, sample.code, sample.stdout,
                                           sample.stderr, probe_expected))
        probes.append(sample.wall_s)

    # Set-up probes are spread over the timed window: before each command,
    # every probe that is due runs, so they see the same machine as the passes.
    def probe_if_due() -> None:
        while len(probes) < SETUP_PROBES and time.perf_counter() - t0 >= len(probes) * seconds / SETUP_PROBES:
            probe()

    passes: list[list[Sample]] = []
    t0 = time.perf_counter()
    while True:
        passes.append(_cli_pass(s, probe_if_due))
        if not _passes_fit(time.perf_counter() - t0, len(passes), seconds):
            break
    while len(probes) < SETUP_PROBES:
        probe()
    _spot_checks(s, [x.stdout for x in warm])

    # Times are minima: on a shared machine, contention only ever adds time,
    # and it comes in spells of several seconds that shift a median between
    # runs by 20-40%.  Spells of minutes move the minima too, so they are
    # scaled to the machine's reference speed (speed.py, perfbench/README.md).
    per_command = list(zip(*passes))
    measured = {
        "wall_s": sum(min(x.wall_s for x in c) for c in per_command),
        "cpu_s": sum(min(x.cpu_s for x in c) for c in per_command),
        "setup_s": min(probes),
    }
    speed = speed_factor(s.runner.reference_s)
    values = {name: value * speed for name, value in measured.items()}
    values["peak_rss_mb"] = max(statistics.median([x.rss_mb for x in c]) for c in per_command)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"samples-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"commands": [c.name for c in s.commands], "setup_s": probes,
                   "reference_s": s.runner.reference_s, "speed_factor": speed,
                   "passes": [[[x.wall_s, x.cpu_s, x.rss_mb] for x in p] for p in passes]}, fh)
    notes = [
        f"{len(passes)} timed passes of {len(s.commands)} commands after 1 warm-up pass; "
        f"{SETUP_PROBES} set-up probes spread over the timed window",
        "wall_s, cpu_s: sum over commands of the fastest timed run; "
        "peak_rss_mb: largest per-command median max-RSS; setup_s: fastest probe",
        f"times scaled by speed factor {speed:.4f} from {len(s.runner.reference_s)} reference loops; "
        "as measured: " + ", ".join(f"{k} {v:.6g} s" for k, v in measured.items()),
    ]
    return values, s, notes


def _in_process(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed command, not a failed benchmark
        return -1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def _in_process_pass(s: Setup, modules: dict, reference: list[str],
                     tracer: Tracer | None) -> float:
    argvs = [cli_args(c, g) for c, g in zip(s.commands, s.graphs)]
    cli = modules["signedflow.cli"]
    if tracer is not None:
        tracer.install(modules)
    try:
        outputs = []
        t0 = time.perf_counter()
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.current_command = i
            outputs.append(_in_process(cli.main, argv))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    kind = "traced" if tracer is not None else "untraced"
    for command, (code, out), ref in zip(s.commands, outputs, reference):
        if code != 0:
            s.tally.record(f"{command.name} ({kind}, in-process): exit code {code}: {out[-200:]}")
        elif out != ref:
            s.tally.record(f"{command.name} ({kind}, in-process): output not byte-identical to the CLI's")
        else:
            s.tally.record(None)
    return wall


def measure_layers(workload: str, seed: int, seconds: float,
                   per_layer: list[dict]) -> tuple[dict, Setup, list[str]]:
    s = _prepare(workload, seed)
    reference = [x.stdout for x in _cli_pass(s)]
    _, modules = _import_program()
    untraced, traced, rows = [], [], []
    tracer = None
    t0 = time.perf_counter()
    while True:
        if time.monotonic() > s.runner.deadline:
            raise RunAborted("run deadline passed")
        untraced.append(_in_process_pass(s, modules, reference, None))
        tracer = Tracer()
        traced.append(_in_process_pass(s, modules, reference, tracer))
        rows.append(layer_metrics(tracer))
        if not _passes_fit(time.perf_counter() - t0, len(traced), seconds):
            break
    _spot_checks(s, reference)

    counts = [m["name"] for m in per_layer if m["unit"] == "count"]
    s.tally.record_check([f"self-check: {name} differs between traced passes"
                          for name in counts if len({row[name] for row in rows}) != 1])
    s.tally.record_check([f"self-check: engine.nodes {row['engine.nodes']} != "
                          f"engine.memo_entries {row['engine.memo_entries']}"
                          for row in rows if row["engine.nodes"] != row["engine.memo_entries"]])
    values = {name: statistics.median([row[name] for row in rows]) for name in rows[0]}
    values["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)

    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{workload}.bin"
    tracer.write(spans, [c.name for c in s.commands])
    notes = [
        f"{len(traced)} traced and {len(untraced)} untraced in-process passes after 1 CLI warm-up pass",
        f"times: median over traced passes; {len(tracer)} spans of the last pass in {spans.relative_to(ROOT)}",
    ]
    return values, s, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    if trace:
        metrics = spec["per_layer"]
        values, s, notes = measure_layers(workload, seed, seconds, metrics)
    else:
        metrics = spec["end_to_end"]
        values, s, notes = measure_end_to_end(workload, seed, seconds)

    failed = len(s.tally.failures)
    report = [f"{workload} (seed {seed}, trace {int(trace)}):"] + [f"  {n}" for n in notes]
    for m in metrics:
        report.append(f"  {m['name']:28s} {values[m['name']]:>16.6g} {m['unit']}")
    report.append(f"  {'fail_ratio':28s} {failed}/{s.tally.attempted} commands and checks failed")
    report += [f"  FAILED: {msg}" for msg in s.tally.failures]
    print("\n".join(report), file=sys.stderr, flush=True)
    return {
        "correct": failed == 0,
        "attempted": s.tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "signedflow" / "cli.py").is_file():
        print(f"error: no signedflow sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    names = sorted(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        except RunAborted as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
