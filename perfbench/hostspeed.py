"""The host's current speed, read from a fixed pure-Python kernel.

On a shared host the same solve can take 1.4x longer from one minute to
the next, for every process alike, so timings from two runs differ by
more than any change to the program would.  :class:`HostSpeed` runs
:func:`kernel` between timed calls, at most once every
``INTERVAL_S``, and :attr:`HostSpeed.scale` turns a measured time into
the time at the host's nominal speed: ``measured * scale``.

The kernel imports nothing from the program, so a change to the program
cannot move it.  It does what the solver's hot paths do -- tuple-keyed
dict indexes, small objects, set membership and a two-way join -- so the
host's slow phases slow it by about as much.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

#: Median seconds of one :func:`kernel` call at the nominal speed of the
#: 2-vCPU host where the benchmark's bounds were set.
NOMINAL_S = 0.006

#: Least wall time between two kernel calls; a call costs about
#: ``NOMINAL_S``, so sampling adds about 2% to a run.
INTERVAL_S = 0.25

#: Nodes of the kernel's graph: big enough that its dict and set outgrow
#: the fastest caches, as the solver's instances do.
NODES = 1500


class _Edge:
    __slots__ = ("source", "target")

    def __init__(self, source: int, target: int):
        self.source = source
        self.target = target


def kernel() -> float:
    """Seconds one fixed join takes now."""
    started = perf_counter()
    edges = [_Edge(node, (node * 7 + 3) % NODES) for node in range(NODES)]
    edges += [_Edge(node, (node * 11 + 5) % NODES) for node in range(NODES)]
    index = {}
    for edge in edges:
        index.setdefault((edge.source, "out"), []).append(edge)
    paths = set()
    for edge in edges:
        for after in index.get((edge.target, "out"), ()):
            paths.add((edge.source, after.target))
    sorted(paths)
    return perf_counter() - started


class HostSpeed:
    """Kernel samples taken over one measurement."""

    def __init__(self):
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Run the kernel if ``INTERVAL_S`` has passed since the last run."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel())
            self._last = perf_counter()

    @property
    def scale(self) -> float:
        """``NOMINAL_S`` over the median kernel time; 1 without samples."""
        if not self.samples:
            return 1.0
        return NOMINAL_S / statistics.median(self.samples)
