"""How fast the shared machine runs Python during a run.

On a shared 2-core VM, one and the same Python loop runs up to 40% slower
in spells that last minutes, so a whole 25 s run can fall inside
one, and the fastest run of a CLI command then moves with the spell.
:func:`time_reference` times fixed interpreter work of the kind the CLI does
(calls, small tuples, modular arithmetic, list and dict lookups) that does
not depend on the program under test.  The runner times it before every
CLI command; :func:`speed_factor` turns those times into the factor that
scales a measured time to the machine's reference speed.
"""

from __future__ import annotations

import statistics
import time

# One reference loop takes about this long on that VM when nothing slows it.
# A time measured while the reference loop took t seconds is reported as
# time * REFERENCE_S / t: the seconds it would have taken at reference speed.
REFERENCE_S = 0.040
REFERENCE_ITERATIONS = 40_000


def _step(a: tuple[int, int], b: tuple[int, int], m: tuple[int, int]) -> tuple[int, int]:
    return tuple((x + y) % q for x, y, q in zip(a, b, m))


def reference_loop() -> int:
    """Fixed interpreter work; returns a checksum so nothing is skipped."""
    m = (23, 29)
    table = [[(i * j) % 31 for j in range(31)] for i in range(31)]
    seen: dict[tuple[int, int], int] = {}
    acc = (0, 0)
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        acc = _step(acc, (i % 23, (7 * i) % 29), m)
        total += table[acc[0] % 31][acc[1] % 31]
        seen[acc] = seen.get(acc, 0) + 1
    return total + len(seen)


def time_reference() -> float:
    """Wall seconds of one :func:`reference_loop` in this process."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def speed_factor(reference_times: list[float]) -> float:
    """REFERENCE_S over the 10th percentile of the run's reference times.

    The benchmark reports the fastest run of each command, so it compares
    with the machine's faster moments too.  The 10th percentile, rather
    than the minimum, ignores the odd 40 ms reading taken in a dip too short
    for a whole command to profit from.  Over ten runs spread across slow
    spells on that VM, this cut the spread of ``wall_s`` from 0.11-0.19 to
    0.04-0.06.
    """
    return REFERENCE_S / statistics.quantiles(reference_times, n=10)[0]
