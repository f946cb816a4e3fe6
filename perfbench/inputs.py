"""Seeded input generators for the three benchmark workloads.

Every input is a pure function of the ``--seed`` argument: the program
under test receives only the settings and source instances built here.
Rows are plain tuples of constant names; :func:`instance_of` turns them
into a fresh :class:`repro.Instance` per request, so no request inherits
memoized state from an earlier one.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro import Atom, Const, DataExchangeSetting, Instance, RelationSymbol, Schema

Row = Tuple[str, str]

#: Rung sizes of the ``core-ladder`` workload.
ANCHORED_RUNGS = (50, 100, 200, 400)
EXAMPLE_RUNGS = (50, 100, 200)

#: Shape of one ``closure-requests`` source: a random forward DAG.
DAG_NODES = 100
DAG_EDGES = 200

#: Source size and edit size of the ``edit-stream`` workload.
EDIT_ROWS = 200
EDIT_SWAP = 2


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent deterministic stream per (seed, purpose)."""
    return random.Random(f"perfbench/{seed}/{purpose}")


def anchored_setting() -> DataExchangeSetting:
    """``R(x,y) -> ∃z A(x,z)∧B(z,y)`` and ``B(z,y) -> ∃w C(y,w)``."""
    return DataExchangeSetting.from_strings(
        Schema.of(R=2),
        Schema.of(A=2, B=2, C=2),
        ["R(x,y) -> exists z . A(x,z) & B(z,y)"],
        ["B(z,y) -> exists w . C(y,w)"],
    )


def example_setting() -> DataExchangeSetting:
    """Example 2.1 of the paper (d1-d4)."""
    return DataExchangeSetting.from_strings(
        Schema.of(M=2, N=2),
        Schema.of(E=2, F=2, G=2),
        [
            "M(x1,x2) -> E(x1,x2)",
            "N(x,y) -> exists z1, z2 . E(x,z1) & F(x,z2)",
        ],
        [
            "F(y,x) -> exists z . G(x,z)",
            "F(x,y) & F(x,z) -> y = z",
        ],
    )


def closure_setting() -> DataExchangeSetting:
    """Full tgds only: ``E(x,y) -> T(x,y)``, ``T(x,y)∧T(y,z) -> T(x,z)``."""
    return DataExchangeSetting.from_strings(
        Schema.of(E=2),
        Schema.of(T=2),
        ["E(x,y) -> T(x,y)"],
        ["T(x,y) & T(y,z) -> T(x,z)"],
    )


def instance_of(relations: Dict[str, Sequence[Row]]) -> Instance:
    """A fresh source instance holding ``relations`` (name -> rows)."""
    instance = Instance()
    for name, rows in relations.items():
        symbol = RelationSymbol(name, 2)
        for left, right in rows:
            instance.add(Atom(symbol, (Const(left), Const(right))))
    return instance


def anchored_rows(rng: random.Random, count: int) -> List[Row]:
    """``count`` value-disjoint ``R`` rows with random constant names."""
    idents = rng.sample(range(10**9), 2 * count)
    return [
        (f"s{idents[2 * index]}", f"t{idents[2 * index + 1]}")
        for index in range(count)
    ]


def example_rows(rng: random.Random, pairs: int) -> Dict[str, List[Row]]:
    """Scaled Example 2.1: ``pairs`` M rows, 2·``pairs`` N rows over a
    pool of ``pairs`` constants (duplicates collapse, as in a set)."""
    pool = [f"c{ident}" for ident in rng.sample(range(10**9), max(2, pairs))]
    m_rows = {(rng.choice(pool), rng.choice(pool)) for _ in range(pairs)}
    n_rows = {(rng.choice(pool), rng.choice(pool)) for _ in range(2 * pairs)}
    return {"M": sorted(m_rows), "N": sorted(n_rows)}


def dag_rows(
    rng: random.Random, nodes: int = DAG_NODES, edges: int = DAG_EDGES
) -> List[Row]:
    """A random forward DAG: ``edges`` distinct edges i -> j, i < j,
    over ``nodes`` randomly named nodes."""
    names = [f"v{ident}" for ident in rng.sample(range(10**9), nodes)]
    chosen = set()
    while len(chosen) < edges:
        low, high = sorted(rng.sample(range(nodes), 2))
        chosen.add((names[low], names[high]))
    return sorted(chosen)
