"""What a CLI process imports: every command pays for the modules that
``import signedflow.cli`` loads, so heavy ones are loaded only by the
commands that use them.

The checks compare ``sys.modules`` before and after each step in a fresh
interpreter, because what ``site`` loads at start-up differs between
machines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedflow

SRC = Path(signedflow.__file__).resolve().parent.parent

# dataclasses pulls in inspect, ast, dis and tokenize; fractions pulls in decimal
HEAVY = {"dataclasses", "inspect", "hashlib", "fractions", "decimal"}

CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
added = {}
import signedflow.cli as cli
added["import"] = sorted(set(sys.modules) - before)
for step, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, step
    added[step] = sorted(set(sys.modules) - before)
print(json.dumps(added))
"""


@pytest.fixture(scope="module")
def added(tmp_path_factory):
    graph = tmp_path_factory.mktemp("startup") / "digon.txt"
    graph.write_text("vertices 2\nedge 0 1 +\nedge 0 1 +\n")
    g = ["--graph", str(graph), "--json"]
    steps = [
        ("count", ["count", *g, "--group", "3"]),
        ("intflow", ["intflow", *g, "--n-max", "6"]),
        ("verify", ["verify", *g, "--max-order", "4"]),
        ("poly", ["poly", *g]),
        ("fit", ["intflow", *g, "--n-max", "6", "--fit"]),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(steps)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return {step: set(mods) for step, mods in json.loads(out).items()}


def test_heavy_modules_load_only_where_used(added):
    assert "signedflow.cli" in added["import"]
    assert not added["import"] & HEAVY
    assert not added["count"] & HEAVY
    assert not added["intflow"] & HEAVY
    assert "fractions" in added["fit"] - added["verify"]
    assert "hashlib" not in added["fit"]
    assert not added["poly"] & HEAVY


def test_import_loads_no_argparse(added):
    assert not added["import"] & {"argparse", "gettext"}


def test_verify_loads_no_hashlib(added):
    # nor does poly: graph_fingerprint takes CPython's own SHA-256
    assert not added["verify"] & HEAVY
    assert not added["poly"] & HEAVY
