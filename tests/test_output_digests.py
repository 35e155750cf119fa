"""Every command's output on ``acceptance_corpus()`` against the digests
committed in ``output_digests.txt``: stdout, stderr and the exit code of
each run are byte-identical, or the test names the runs that changed.
A change meant to change an output reruns ``digestgen.py``."""

from digestgen import DIGESTS, corpus_digests, read_digests, runs


def test_every_run_gives_its_committed_digest():
    names, committed = read_digests(DIGESTS.read_text())
    assert names == [f"{line} ({mode})" for line, mode in runs()], "the command lines changed"
    actual = corpus_digests()
    assert sorted(committed) == list(range(len(actual))), "the corpus changed"
    changed = [f"graph {i}: {name}" for i, row in enumerate(actual)
               for name, old, new in zip(names, committed[i], row) if old != new]
    assert not changed, f"{len(changed)} runs changed their output: " + "; ".join(changed[:10])
