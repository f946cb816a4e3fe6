"""Timing wrappers for the traced run, installed from outside the program.

:func:`install` resolves each layer boundary by dotted name at run time
(``"repro.chase.standard:standard_chase"``,
``"repro.core.instance:Instance.copy"``), wraps it, and rebinds the
wrapper wherever the original is reachable: the defining module or
class, every loaded ``repro`` module that imported it by name, and any
module-level dict that holds it (``solve``'s engine tables).  A target
that no longer exists is reported as absent, never as a crash.

Spans are kept in memory as parallel arrays -- name, start, end,
parent, busy -- and written out when the run ends.  Self time is a
span's busy time minus the busy time of its direct children.  A span
around a generator (the compiled-plan matcher) is busy only while the
generator runs, so its consumer's work between resumes is not charged
to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

#: Layer boundaries: span name -> targets (``module:qualname``).
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "exchange.solve": ("repro.exchange.solve:solve",),
    "chase": (
        "repro.chase.standard:standard_chase",
        "repro.chase.seminaive:seminaive_chase",
        "repro.chase.sharding:sharded_chase",
    ),
    "homomorphism.core": (
        "repro.homomorphism.blocks:blockwise_core",
        "repro.homomorphism.core_computation:core",
        "repro.homomorphism.parallel:partitioned_core",
        "repro.incremental.core:incremental_core",
    ),
    "logic.match": ("repro.logic.plans:CompiledPattern.matches",),
    "core.copy": ("repro.core.instance:Instance.copy",),
    "core.canonical": ("repro.core.instance:Instance.canonical",),
    "engine.fingerprint": (
        "repro.engine.fingerprint:solve_key",
        "repro.engine.fingerprint:fingerprint_instance",
    ),
    "engine.cache_get": ("repro.engine.cache:ResultCache.get",),
    "engine.cache_put": ("repro.engine.cache:ResultCache.put",),
    "incremental.apply": ("repro.incremental.session:DeltaSession.apply",),
    "answering.query": ("repro.answering.naive:ucq_certain_answers",),
}


class Recorder:
    """In-memory span store with online self-time accounting."""

    def __init__(self, names):
        self.names = list(names)
        self.ids = {name: index for index, name in enumerate(self.names)}
        self.active = False
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        # Open spans: [index, name id, child busy seconds].
        self.stack: List[list] = []
        count = len(self.names)
        self.calls = [0] * count
        self.self_s = [0.0] * count
        self.inclusive_s = [0.0] * count
        self._depth = [0] * count

    def open(self, name_id: int) -> list:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.busy.append(0.0)
        self.calls[name_id] += 1
        return [index, name_id, 0.0]

    def resume(self, frame: list) -> float:
        self.stack.append(frame)
        self._depth[frame[1]] += 1
        return perf_counter()

    def suspend(self, frame: list, resumed: float) -> None:
        now = perf_counter()
        ran = now - resumed
        self.stack.pop()
        index, name_id, children = frame
        self._depth[name_id] -= 1
        self.busy[index] += ran
        self.end[index] = now
        self.self_s[name_id] += ran - children
        frame[2] = 0.0
        if not self._depth[name_id]:
            # Outermost span of its name: recursion is not double counted.
            self.inclusive_s[name_id] += ran
        if self.stack:
            self.stack[-1][2] += ran

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, busy."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_s\tend_s\tparent\tbusy_s\n")
            base = self.start[0] if len(self.start) else 0.0
            for index in range(len(self.name)):
                handle.write(
                    f"{self.names[self.name[index]]}\t"
                    f"{self.start[index] - base:.9f}\t"
                    f"{self.end[index] - base:.9f}\t"
                    f"{self.parent[index]}\t{self.busy[index]:.9f}\n"
                )

    def totals(self) -> Dict[str, dict]:
        return {
            name: {
                "calls": self.calls[index],
                "self_s": self.self_s[index],
                "inclusive_s": self.inclusive_s[index],
            }
            for index, name in enumerate(self.names)
        }


def _wrap(function, recorder: Recorder, name_id: int):
    if inspect.isgeneratorfunction(function):

        @functools.wraps(function)
        def traced_generator(*args, **kwargs):
            if not recorder.active:
                yield from function(*args, **kwargs)
                return
            frame = recorder.open(name_id)
            inner = function(*args, **kwargs)
            try:
                while True:
                    resumed = recorder.resume(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.suspend(frame, resumed)
                    yield item
            finally:
                inner.close()

        return traced_generator

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not recorder.active:
            return function(*args, **kwargs)
        frame = recorder.open(name_id)
        resumed = recorder.resume(frame)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.suspend(frame, resumed)

    return traced


def _resolve(target: str):
    """``(owner, attribute, function)`` for ``module:qualname``, or None."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = (
        owner.__dict__.get(attribute) if isinstance(owner, type)
        else getattr(owner, attribute, None)
    )
    if not callable(function):
        return None
    return owner, attribute, function


def _rebind_sites(original, replacement) -> List[Tuple[object, object]]:
    """Replace every module-level reference to ``original`` in the loaded
    ``repro`` modules; returns undo records ``(container, key)``."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                undo.append((namespace, key))
            elif type(value) is dict:
                for inner_key, inner in list(value.items()):
                    if inner is original:
                        value[inner_key] = replacement
                        undo.append((value, inner_key))
    return undo


class Installation:
    """The installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self, recorder: Recorder, absent: List[str]):
        self.recorder = recorder
        self.absent = absent
        self._undo: List[Tuple[dict, object, object]] = []

    def remove(self) -> None:
        for container, key, original in reversed(self._undo):
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original
        self._undo.clear()

    @contextmanager
    def live(self) -> Iterator[None]:
        """Record inside only: the timed calls into the program."""
        self.recorder.active = True
        try:
            yield
        finally:
            self.recorder.active = False


def install(boundaries: Dict[str, Tuple[str, ...]] = BOUNDARIES) -> Installation:
    """Wrap every resolvable boundary; unresolvable ones are listed in
    ``Installation.absent``."""
    recorder = Recorder(boundaries)
    installation = Installation(recorder, [])
    for name, targets in boundaries.items():
        for target in targets:
            found = _resolve(target)
            if found is None:
                installation.absent.append(target)
                continue
            owner, attribute, function = found
            wrapper = _wrap(function, recorder, recorder.ids[name])
            if isinstance(owner, type):
                setattr(owner, attribute, wrapper)
                installation._undo.append((owner, attribute, function))
            else:
                for container, key in _rebind_sites(function, wrapper):
                    installation._undo.append((container, key, function))
    return installation
