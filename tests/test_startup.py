"""What a CLI process imports: every command pays for the modules that
``import signedflow.cli`` loads, so each command loads only what it runs.

The checks compare ``sys.modules`` before and after each step in a fresh
interpreter started with ``-S``: ``site`` preloads different modules on
different machines (a ``.pth`` file that loads ``certifi`` brings in about
100, ``typing`` and ``re`` among them), and without it nothing the program
loads is hidden.  The child uses only modules that the interpreter has
loaded before ``site`` would run.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedflow

SRC = Path(signedflow.__file__).resolve().parent.parent

# json, typing, re and enum each take milliseconds; dataclasses pulls in inspect,
# ast, dis and tokenize; hashlib loads OpenSSL; fractions pulls in decimal
HEAVY = {"json", "typing", "re", "enum", "decimal", "fractions", "hashlib", "argparse",
         "dataclasses", "inspect"}
ENGINE = {"signedflow.engine", "signedflow.polynomial"}

# Each argument is one step, its name and its argv joined by newlines; the
# child prints one line per step: its name, then every module loaded since
# before the import, separated by blanks.
CHILD = """
import io, sys
before = set(sys.modules)
import signedflow.cli as cli
print("import", *sorted(set(sys.modules) - before))
for step in sys.argv[1:]:
    name, *argv = step.split("\\n")
    sys.stdout = io.StringIO()
    code = cli.main(argv)
    sys.stdout = sys.__stdout__
    assert code == 0, name
    print(name, *sorted(set(sys.modules) - before))
"""


@pytest.fixture(scope="module")
def added(tmp_path_factory):
    """Modules added by the import and by each step.  count, switch, equiv
    and intflow run one after another in one process; poly, verify and
    each intflow --fit run in a process of their own."""
    folder = tmp_path_factory.mktemp("startup")
    graph = folder / "digon.txt"
    graph.write_text("vertices 2\nedge 0 1 +\nedge 0 1 +\n")
    # five negative loops and a positive one: a fit with halves in p_odd
    loops = folder / "loops.txt"
    loops.write_text("vertices 1\n" + "edge 0 0 -\n" * 5 + "edge 0 0 +\n")
    g = ["--graph", str(graph), "--json"]
    light = [
        ("count", ["count", *g, "--group", "3"]),
        ("switch", ["switch", *g, "--vertices", "0"]),
        ("equiv", ["equiv", *g, "--other", str(graph)]),
        ("intflow", ["intflow", *g, "--n-max", "6"]),
    ]
    runs = [light, [("poly", ["poly", *g])], [("verify", ["verify", *g, "--max-order", "4"])],
            [("fit", ["intflow", *g, "--n-max", "6", "--fit"])],
            [("rational-fit", ["intflow", "--graph", str(loops), "--json", "--n-max", "9", "--fit"])]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    added = {}
    for steps in runs:
        out = subprocess.run([sys.executable, "-S", "-c", CHILD,
                              *("\n".join([name, *argv]) for name, argv in steps)],
                             env=env, capture_output=True, text=True, check=True).stdout
        for line in out.splitlines():
            name, *modules = line.split(" ")
            added[name] = set(modules)
    return added


def test_heavy_modules_load_only_where_used(added):
    assert "signedflow.cli" in added["import"]
    assert not added["import"] & HEAVY
    for step in ("count", "switch", "equiv", "intflow", "poly", "verify"):
        assert not added[step] & HEAVY, step
    # an integral fit is exact in ints; only a rational coefficient needs a Fraction
    assert "fractions" not in added["fit"]
    assert "fractions" in added["rational-fit"]


def test_import_loads_no_argparse(added):
    assert not added["import"] & {"argparse", "gettext"}


def test_verify_loads_no_hashlib(added):
    # nor does poly: graph_fingerprint takes CPython's own SHA-256
    assert "hashlib" not in added["verify"] | added["poly"] | added["fit"]


@pytest.mark.parametrize("step", ["import", "count", "switch", "equiv", "intflow"])
def test_commands_without_polynomials_load_no_engine(added, step):
    assert not added[step] & ENGINE


@pytest.mark.parametrize("step", ["poly", "verify", "fit"])
def test_commands_with_polynomials_load_the_engine(added, step):
    assert added[step] >= ENGINE


def test_public_names_resolve_to_their_modules():
    # the package imports each name from its module on first use
    for name, module in signedflow._MODULE_OF.items():
        defining = importlib.import_module(f"signedflow.{module}")
        assert getattr(signedflow, name) is getattr(defining, name)
    assert signedflow.__all__ == sorted(signedflow._MODULE_OF)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        signedflow.no_such_name


def test_the_engine_loads_no_oracle():
    # the oracle checks the engine, so loading the engine must not run it
    child = ("import sys; before = set(sys.modules); import signedflow.engine; "
             "print(*sorted(m for m in set(sys.modules) - before if m.startswith('signedflow')))")
    out = subprocess.run([sys.executable, "-S", "-c", child], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["signedflow", "signedflow.engine", "signedflow.graph",
                           "signedflow.polynomial", "signedflow.values"]
