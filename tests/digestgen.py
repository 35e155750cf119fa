"""Output digests of every command on ``acceptance_corpus()``.

Each graph of the corpus runs every command line below through
``cli.main``, in human and in ``--json`` mode, and each run is kept as a
short digest of its exit code, stdout and stderr.  The digests are
committed in ``output_digests.txt`` beside this file, and
``test_output_digests.py`` checks that every run still gives them.  A
change that is meant to change an output reruns this script and says which
runs changed and why:

    PYTHONPATH=src python tests/digestgen.py

Each graph is written to ``g.txt`` in the working directory, so that a
report's ``inputs.graph`` is the same wherever the runs take place;
``equiv`` compares it with ``other.txt``, the graph with its first edge's
sign flipped (the graph itself when it has no edge), so both answers occur.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from signedflow import SignedGraph, cli
from signedflow.graph import graph_to_text

from corpusgen import acceptance_corpus

DIGESTS = Path(__file__).with_name("output_digests.txt")

# every command at least once; the two budgets refuse 568 of the count runs
# and 52 of the verify runs, so refusal texts are covered too
COMMAND_LINES = [
    "count --group 2,4",
    "count --group 5 --budget 120",
    "poly --d-max 3",
    "verify --max-order 12 --budget 1200",
    "intflow --n-max 6 --fit",
    "switch --vertices 0,2",
    "equiv --other other.txt",
]
MODES = ["human", "json"]
HEADER = """\
# The first 12 hex digits of SHA-256 over each run's exit code, stdout and
# stderr, written by tests/digestgen.py; one line per graph of
# acceptance_corpus(), one digest per command line and mode, in this order:
"""


def runs():
    """(command line, mode) in the order of each graph's digests."""
    return [(line, mode) for line in COMMAND_LINES for mode in MODES]


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:12]


def _flipped(g: SignedGraph) -> SignedGraph:
    edges = [(e.u, e.v, e.sign) for e in g.edges]
    if edges:
        u, v, sign = edges[0]
        edges[0] = (u, v, -sign)
    return SignedGraph.from_edges(g.num_vertices, edges)


def graph_digests(g: SignedGraph) -> list[str]:
    """The digests of one graph's runs, run in the working directory."""
    Path("g.txt").write_text(graph_to_text(g))
    Path("other.txt").write_text(graph_to_text(_flipped(g)))
    out = []
    for line, mode in runs():
        argv = line.split() + ["--graph", "g.txt"] + (["--json"] if mode == "json" else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out.append(digest(code, stdout.getvalue(), stderr.getvalue()))
    return out


def corpus_digests() -> list[list[str]]:
    """Every graph's digests, each graph's runs in a fresh directory."""
    here = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as folder:
            os.chdir(folder)
            return [graph_digests(g) for g in acceptance_corpus()]
    finally:
        os.chdir(here)


def file_text(digests: list[list[str]]) -> str:
    head = HEADER + "".join(f"# {line} ({mode})\n" for line, mode in runs())
    return head + "".join(f"{i} {' '.join(row)}\n" for i, row in enumerate(digests))


def read_digests(text: str) -> tuple[list[str], dict[int, list[str]]]:
    """The header's run names and each graph's digests, from the file's text."""
    lines = text.splitlines()[HEADER.count("\n"):]
    names = [line[2:] for line in lines if line.startswith("# ")]
    rows = {int(index): row for index, *row in (line.split() for line in lines if line[0] != "#")}
    return names, rows


if __name__ == "__main__":
    DIGESTS.write_text(file_text(corpus_digests()))
    sys.stdout.write(f"wrote {DIGESTS}\n")
