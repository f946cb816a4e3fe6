"""The three closed-loop workloads: one client, one process, no pool.

A workload is built from its seed (input generation and warm-up).
:meth:`prepare` makes the per-measurement state (a fresh cache
directory, a freshly solved session), and :func:`measure` then drives
:meth:`step`, which performs one unit of client work.  Only the calls
into the program go through :meth:`Measurement.call`, the timed region;
building source instances and checking outputs against the oracles
happen outside it.
"""

from __future__ import annotations

import resource
import shutil
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro
from repro.engine import ResultCache

import hostspeed
import inputs
import oracles

#: Every op type that reports a p90 gets at least this many samples.
MIN_SAMPLES = 100

#: ``core-ladder`` makes at least this many ladder passes.  A pass takes
#: 10-17 s on a 2-vCPU host, so without a floor a run fits only 2 or 3,
#: and the median of so few ladders follows the host's slow phases.
MIN_PASSES = 4

#: ``edit-stream`` compares the whole maintained core with its oracle
#: on every this-many-th edit (a canonical fingerprint of 600 atoms
#: costs about as much as an ``apply``); the answers, on every edit.
CORE_CHECK_EVERY = 10


class Measurement:
    """Latency samples, op counts and oracle verdicts of one measurement.

    ``main`` and ``side`` are a workload's two op types (see the
    workload docstrings); ``units`` counts its unit of useful work, and
    ``busy_s`` sums the time of every timed call.  ``live`` is entered
    around each timed call: the traced run records spans only there.
    ``host`` samples the host's speed between timed calls.
    ``peak_rss_mb`` is the process's peak resident set when the run
    first has its minimum samples: the same work on every host, where
    the peak at the end would grow with the requests a fast host fits
    into ``closure-requests``' cache.
    """

    def __init__(self, live=nullcontext):
        self.live = live
        self.samples: Dict[str, List[float]] = {"main": [], "side": []}
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.errors: Dict[str, int] = {}
        self.units = 0
        self.busy_s = 0.0
        self.steps = 0
        self.host = hostspeed.HostSpeed()
        self.peak_rss_mb: Optional[float] = None

    def call(self, kind: str, function: Callable):
        """Time one call into the program; ``(result, failed)``."""
        error = None
        with self.live():
            started = perf_counter()
            try:
                result = function()
            except Exception as exc:  # a failed op is data, not a crash
                result, error = None, exc
            seconds = perf_counter() - started
        self.host.sample()
        self.samples[kind].append(seconds)
        self.busy_s += seconds
        self.attempted += 1
        if error is not None:
            self.fail(type(error).__name__)
        return result, error is not None

    def latencies(self, kind: str, calls_per_op: int = 1) -> List[float]:
        """Op latencies of ``kind``: each run of ``calls_per_op``
        consecutive calls is one op, and its latency is their sum."""
        samples = self.samples[kind]
        return [
            sum(samples[start:start + calls_per_op])
            for start in range(0, len(samples), calls_per_op)
        ]

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def verdict(self, ok: bool) -> bool:
        if not ok:
            self.mismatched += 1
            self.fail("oracle mismatch")
        return ok


class CoreLadder:
    """Default ``solve()``, no cache, over two size ladders.

    One step is a pass over every rung: the anchored setting at
    ``ANCHORED_RUNGS`` rows (``main``) and scaled Example 2.1 at
    ``EXAMPLE_RUNGS`` pairs (``side``).  One op is one ladder, so its
    latency sums the solves of its rungs in one pass.  Units are source
    rows of correct solves.
    """

    name = "core-ladder"
    calls_per_op = {
        "main": len(inputs.ANCHORED_RUNGS), "side": len(inputs.EXAMPLE_RUNGS)
    }

    def __init__(self, seed: int):
        rng = inputs.rng_for(seed, self.name)
        anchored = inputs.anchored_setting()
        example = inputs.example_setting()
        self.cases = [
            ("main", anchored, {"R": inputs.anchored_rows(rng, rows)})
            for rows in inputs.ANCHORED_RUNGS
        ] + [
            ("side", example, inputs.example_rows(rng, pairs))
            for pairs in inputs.EXAMPLE_RUNGS
        ]
        self._expected: Dict[int, str] = {}
        warm = inputs.rng_for(seed, "warm-up")
        repro.solve(anchored, inputs.instance_of({"R": inputs.anchored_rows(warm, 10)}))
        repro.solve(example, inputs.instance_of(inputs.example_rows(warm, 10)))

    def prepare(self) -> None:
        pass

    def enough(self, measurement: Measurement) -> bool:
        return measurement.steps >= MIN_PASSES

    def _expected_fingerprint(self, index: int) -> str:
        if index not in self._expected:
            kind, _, relations = self.cases[index]
            expected = (
                oracles.anchored_core(relations["R"]) if kind == "main"
                else oracles.example_core(relations)
            )
            self._expected[index] = oracles.fingerprint(expected)
        return self._expected[index]

    def step(self, measurement: Measurement) -> None:
        for index, (kind, setting, relations) in enumerate(self.cases):
            source = inputs.instance_of(relations)
            result, failed = measurement.call(
                kind, lambda: repro.solve(setting, source)
            )
            if not failed and measurement.verdict(
                oracles.fingerprint(result.core_solution)
                == self._expected_fingerprint(index)
            ):
                measurement.units += len(source)

    def close(self) -> None:
        pass


class ClosureRequests:
    """Default ``solve()`` through one ``ResultCache`` on transitive
    closure.  One step is one request, alternately a first-time DAG
    (``main``) and a repeat of a uniformly chosen earlier one
    (``side``).  Units are correct responses."""

    name = "closure-requests"
    calls_per_op = {"main": 1, "side": 1}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.setting = inputs.closure_setting()
        self.sources: List[List[inputs.Row]] = []
        self._expected: List[str] = []
        self._cache_dir: Optional[str] = None
        warm = inputs.rng_for(seed, "warm-up")
        repro.solve(self.setting, inputs.instance_of({"E": inputs.dag_rows(warm)}))

    def _source(self, index: int) -> List[inputs.Row]:
        while len(self.sources) <= index:
            rng = inputs.rng_for(self.seed, f"dag-{len(self.sources)}")
            self.sources.append(inputs.dag_rows(rng))
        return self.sources[index]

    def _expected_fingerprint(self, index: int) -> str:
        while len(self._expected) <= index:
            edges = self._source(len(self._expected))
            self._expected.append(oracles.fingerprint(oracles.closure_core(edges)))
        return self._expected[index]

    def prepare(self) -> None:
        self.close()
        self._cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        self.cache = ResultCache(self._cache_dir)
        self.schedule = inputs.rng_for(self.seed, "schedule")
        self.issued = 0

    def enough(self, measurement: Measurement) -> bool:
        return min(map(len, measurement.samples.values())) >= MIN_SAMPLES

    def step(self, measurement: Measurement) -> None:
        if measurement.steps % 2:
            index, kind = self.schedule.randrange(self.issued), "side"
        else:
            index, kind = self.issued, "main"
            self.issued += 1
        source = inputs.instance_of({"E": self._source(index)})
        cache = self.cache
        result, failed = measurement.call(
            kind, lambda: repro.solve(self.setting, source, cache=cache)
        )
        if not failed and measurement.verdict(
            oracles.fingerprint(result.core_solution)
            == self._expected_fingerprint(index)
        ):
            measurement.units += 1

    def close(self) -> None:
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None


class EditStream:
    """A ``DeltaSession`` on the anchored setting under 1%-swap edits.

    One step is one edit: ``apply`` (``main``) of a delete-2/insert-2
    delta, then the three UCQs of ``oracles.EDIT_QUERIES`` answered on
    the maintained core (``side``).  Units are applied edits whose core
    check, when due, passed.  The session's initial solve is set-up.
    """

    name = "edit-stream"
    calls_per_op = {"main": 1, "side": 1}

    def __init__(self, seed: int):
        self.seed = seed
        self.setting = inputs.anchored_setting()
        self.initial = inputs.anchored_rows(
            inputs.rng_for(seed, self.name), inputs.EDIT_ROWS
        )
        self.queries = [repro.parse_query(text) for text in oracles.EDIT_QUERIES]
        self.session = None

    def prepare(self) -> None:
        self.session = None
        self.rows = list(self.initial)
        self.edits = inputs.rng_for(self.seed, "edits")
        self.applied = 0
        self.session = repro.DeltaSession(
            self.setting, inputs.instance_of({"R": self.rows})
        )
        for query in self.queries:
            repro.ucq_certain_answers(
                self.setting,
                self.session.source,
                query,
                solution=self.session.result.core_solution,
            )

    def enough(self, measurement: Measurement) -> bool:
        return len(measurement.samples["main"]) >= MIN_SAMPLES

    def _delta(self):
        victims = self.edits.sample(sorted(self.rows), inputs.EDIT_SWAP)
        fresh = inputs.anchored_rows(self.edits, inputs.EDIT_SWAP)
        self.rows = sorted(set(self.rows) - set(victims)) + fresh
        return repro.SourceDelta(
            insertions=inputs.instance_of({"R": fresh}),
            deletions=inputs.instance_of({"R": victims}),
        )

    def step(self, measurement: Measurement) -> None:
        delta = self._delta()
        session = self.session
        result, failed = measurement.call("main", lambda: session.apply(delta))
        if failed:
            return
        self.applied += 1
        if self.applied % CORE_CHECK_EVERY or measurement.verdict(
            oracles.fingerprint(result.core_solution)
            == oracles.fingerprint(oracles.anchored_core(self.rows))
        ):
            measurement.units += 1
        core, source = result.core_solution, session.source
        for query, expected in zip(self.queries, oracles.edit_answers(self.rows)):
            answers, failed = measurement.call(
                "side",
                lambda: repro.ucq_certain_answers(
                    self.setting, source, query, solution=core
                ),
            )
            if not failed:
                measurement.verdict(oracles.same_answers(answers, expected))

    def close(self) -> None:
        self.session = None


NAMES = (CoreLadder.name, ClosureRequests.name, EditStream.name)


def build(name: str, seed: int, workdir: Path):
    """The workload called ``name``, generated and warmed up."""
    if name == ClosureRequests.name:
        return ClosureRequests(seed, workdir)
    return {CoreLadder.name: CoreLadder, EditStream.name: EditStream}[name](seed)


def measure(
    workload,
    *,
    seconds: Optional[float] = None,
    steps: Optional[int] = None,
    live=nullcontext,
) -> Measurement:
    """Run ``steps`` steps, or steps until ``seconds`` have passed and
    every op type has its minimum sample count.  Call
    ``workload.prepare()`` first."""
    measurement = Measurement(live)
    started = perf_counter()
    while True:
        if measurement.peak_rss_mb is None and workload.enough(measurement):
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            measurement.peak_rss_mb = peak_kib / 1024
        if steps is not None:
            if measurement.steps >= steps:
                break
        elif perf_counter() - started >= seconds and workload.enough(measurement):
            break
        workload.step(measurement)
        measurement.steps += 1
    return measurement
