"""Independent correctness oracles for the benchmark workloads.

Each oracle derives the expected output from the source rows alone --
no chase, no core computation -- and the benchmark compares it with the
program's output by fp/v1 fingerprint, outside the timed region.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro import Atom, Const, Instance, Null, RelationSymbol
from repro.engine import fingerprint_answers, fingerprint_instance

from inputs import Row

_A, _B, _C = (RelationSymbol(name, 2) for name in "ABC")
_E, _F, _G = (RelationSymbol(name, 2) for name in "EFG")
_T = RelationSymbol("T", 2)


class _Nulls:
    """Fresh nulls for an expected instance (their names do not matter:
    canonical fingerprints are invariant under null renaming)."""

    def __init__(self):
        self.next = 0

    def __call__(self) -> Null:
        self.next += 1
        return Null(self.next)


def anchored_core(rows: Iterable[Row]) -> Instance:
    """The core for value-disjoint ``R`` rows: ``A(x,z), B(z,y), C(y,w)``
    per row -- nothing folds, because every null hangs off a constant
    that no other row mentions."""
    fresh = _Nulls()
    expected = Instance()
    for left, right in rows:
        z, w = fresh(), fresh()
        expected.add(Atom(_A, (Const(left), z)))
        expected.add(Atom(_B, (z, Const(right))))
        expected.add(Atom(_C, (Const(right), w)))
    return expected


def example_core(relations: Dict[str, Sequence[Row]]) -> Instance:
    """The core of scaled Example 2.1.

    ``E(x,y)`` per ``M`` row; for each ``N``-key ``x`` one ``F(x,z2)``
    (d4 merges them) and ``G(z2,z3)``; and ``E(x,z1)`` only when ``x``
    has no ``M`` row (otherwise it folds onto ``E(x,y)``).
    """
    fresh = _Nulls()
    expected = Instance()
    m_keys = set()
    for left, right in relations["M"]:
        expected.add(Atom(_E, (Const(left), Const(right))))
        m_keys.add(left)
    for key in sorted({left for left, _ in relations["N"]}):
        z2, z3 = fresh(), fresh()
        expected.add(Atom(_F, (Const(key), z2)))
        expected.add(Atom(_G, (z2, z3)))
        if key not in m_keys:
            expected.add(Atom(_E, (Const(key), fresh())))
    return expected


def closure_pairs(edges: Iterable[Row]) -> Set[Row]:
    """All pairs (a, b) with b reachable from a by one or more edges (BFS)."""
    successors: Dict[str, List[str]] = defaultdict(list)
    for left, right in edges:
        successors[left].append(right)
    pairs: Set[Row] = set()
    for start in list(successors):
        seen: Set[str] = set()
        frontier = list(successors[start])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(successors.get(node, ()))
        pairs.update((start, node) for node in seen)
    return pairs


def closure_core(edges: Iterable[Row]) -> Instance:
    """The (null-free, hence its own core) transitive closure ``T``."""
    return Instance(
        Atom(_T, (Const(left), Const(right)))
        for left, right in closure_pairs(edges)
    )


#: The three UCQs of the ``edit-stream`` workload, answered on the
#: maintained core after every edit.
EDIT_QUERIES = (
    "Q(x,y) :- A(x,z), B(z,y)",
    "Q(y) :- B(z,y), C(y,w)",
    "Q(x) :- A(x,z) ; Q(x) :- C(x,w)",
)


def edit_answers(rows: Iterable[Row]) -> Tuple[FrozenSet[tuple], ...]:
    """Expected certain answers of :data:`EDIT_QUERIES` from the rows."""
    rows = list(rows)
    joined = frozenset((Const(s), Const(t)) for s, t in rows)
    targets = frozenset((Const(t),) for _, t in rows)
    either = frozenset((Const(s),) for s, _ in rows) | targets
    return joined, targets, either


def fingerprint(atoms: Iterable[Atom]) -> str:
    """fp/v1 canonical fingerprint of an output or an oracle.

    The atoms are copied into a fresh instance first, so a check never
    warms the memoized fingerprints of the program's own instances.
    Null-free instances skip the (costly, and for them trivial)
    canonical renaming.
    """
    instance = Instance(atoms)
    return fingerprint_instance(instance, canonical=bool(instance.nulls()))


def same_answers(actual: Iterable[tuple], expected: Iterable[tuple]) -> bool:
    """fp/v1 fingerprint equality of two answer sets."""
    return fingerprint_answers(actual) == fingerprint_answers(expected)
