"""Size-ladder regressions: the core stays exact well past small inputs.

These rungs are sized past the interpreter's recursion limit.  The
blockwise core searches one block at a time and must finish them all,
and the join executor must match whole-instance patterns of more than
10,000 atoms (it keeps an explicit stack, not one frame per atom).
"""

import pytest

import repro.obs as obs
from repro import DeltaSession, SourceDelta
from repro.core import Atom, Const, Instance, Schema
from repro.core.schema import RelationSymbol
from repro.dependencies import Tgd
from repro.engine import fingerprint_instance
from repro.exchange.setting import DataExchangeSetting
from repro.exchange.solve import solve
from repro.generators import example_2_1_scaled_source, example_2_1_setting
from repro.homomorphism import (
    has_homomorphism,
    hom_equivalent,
    is_core,
    retracts_to,
)
from repro.homomorphism.search import canonical_pattern
from repro.logic.matching import first_match


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def _anchored_setting():
    return DataExchangeSetting.from_strings(
        Schema.of(R=2),
        Schema.of(A=2, B=2, C=2),
        ["R(x,y) -> exists z . A(x,z) & B(z,y)"],
        ["B(z,y) -> exists w . C(y,w)"],
    )


def _anchored_source(rows):
    r = RelationSymbol("R", 2)
    return Instance(
        Atom(r, (Const(f"s{i}"), Const(f"t{i}"))) for i in range(rows)
    )


def _fp(instance):
    return fingerprint_instance(instance, canonical=True)


@pytest.mark.parametrize("rows", [400, 1600])
def test_anchored_solve(rows):
    result = solve(_anchored_setting(), _anchored_source(rows))
    assert len(result.core_solution) == 3 * rows
    assert is_core(result.core_solution)


def test_example_2_1_at_800_pairs():
    source = example_2_1_scaled_source(800, seed=1)
    result = solve(example_2_1_setting(), source)
    assert result.cwa_solution_exists
    assert retracts_to(result.canonical_solution, result.core_solution)


def test_delta_session_full_resolve_at_400_rows():
    # Example 2.1 with d2 written as a first-order premise: every apply
    # re-solves from scratch, and the folds of the scaled instance cross
    # blocks.
    setting = example_2_1_setting()
    d2 = Tgd.parse("(exists y . N(x, y)) -> exists z1, z2 . E(x,z1) & F(x,z2)")
    setting = DataExchangeSetting(
        setting.source_schema,
        setting.target_schema,
        [setting.st_dependencies[0], d2],
        setting.target_dependencies,
    )
    source = example_2_1_scaled_source(400, seed=2)
    session = DeltaSession(setting, source)
    result = session.apply(SourceDelta(deletions=[sorted(source)[0]]))
    assert obs.counter("incremental.full_fallbacks").value == 1
    batch = solve(setting, session.source, engine="seminaive")
    assert _fp(result.core_solution) == _fp(batch.core_solution)
    assert is_core(result.core_solution)


@pytest.fixture(scope="module")
def anchored_3400():
    """The anchored canonical solution at 3,400 rows (10,200 atoms)."""
    result = solve(_anchored_setting(), _anchored_source(3400))
    assert len(result.canonical_solution) == 10200
    return result


def test_has_homomorphism_on_10200_atoms(anchored_3400):
    instance = anchored_3400.canonical_solution
    assert has_homomorphism(instance, instance)


def test_first_match_of_10200_atom_pattern(anchored_3400):
    instance = anchored_3400.canonical_solution
    pattern, back = canonical_pattern(instance)
    substitution = first_match(pattern, instance)
    assert substitution is not None
    assert set(substitution) == set(back)


def test_hom_equivalent_to_core_on_10200_atoms(anchored_3400):
    assert hom_equivalent(
        anchored_3400.canonical_solution, anchored_3400.core_solution
    )
