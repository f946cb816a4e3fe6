"""Tests for the semi-naive chase engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import satisfies_all, standard_chase
from repro.chase.seminaive import seminaive_chase
from repro.core import Atom, Const, Instance, RelationSymbol
from repro.dependencies import parse_dependencies
from repro.homomorphism import hom_equivalent
from repro.logic import parse_instance

M = RelationSymbol("M", 2)
N = RelationSymbol("N", 2)


class TestAgreementWithStandard:
    def test_simple_tgd(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        source = parse_instance("E('a','b'), E('b','c')")
        semi = seminaive_chase(source, deps)
        full = standard_chase(source, deps)
        assert semi.successful and full.successful
        assert hom_equivalent(semi.instance, full.instance)

    def test_recursive_full_tgd(self):
        deps = parse_dependencies(
            ["E(x, y) -> R(x, y)", "R(x, y) & E(y, z) -> R(x, z)"]
        )
        atoms = ", ".join(f"E('v{i}','v{i+1}')" for i in range(8))
        source = parse_instance(atoms)
        semi = seminaive_chase(source, deps)
        full = standard_chase(source, deps)
        assert semi.successful
        # Transitive closure of a path: n(n+1)/2 pairs.
        assert semi.instance.count_of("R") == 8 * 9 // 2
        assert semi.instance.atoms_of("R") == full.instance.atoms_of("R")

    def test_egd_merging(self):
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "G(x, y) -> F(x, y)",
                "F(x, y) & F(x, z) -> y = z",
            ]
        )
        source = parse_instance("E('a','b'), G('a','c')")
        semi = seminaive_chase(source, deps)
        assert semi.successful
        assert semi.instance.atoms_of("F") == frozenset(
            {Atom(RelationSymbol("F", 2), (Const("a"), Const("c")))}
        )

    def test_egd_failure(self):
        deps = parse_dependencies(["F(x, y) & F(x, z) -> y = z"])
        source = parse_instance("F('a','b'), F('a','c')")
        assert seminaive_chase(source, deps).failed

    def test_divergence(self):
        deps = parse_dependencies(["E(x, y) -> exists z . E(y, z)"])
        outcome = seminaive_chase(
            parse_instance("E('a','b')"), deps, max_steps=40
        )
        assert outcome.diverged

    def test_merge_reactivates_matches(self):
        """After an egd merge, the rewritten atoms must re-seed the
        delta: the H-rule fires on the merged F-atom."""
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "G(x, y) -> F(x, y)",
                "F(x, y) & F(x, z) -> y = z",
                "F(x, y) & K(y) -> H(x)",
            ]
        )
        source = parse_instance("E('a','b'), G('a','c'), K('c')")
        outcome = seminaive_chase(source, deps)
        assert outcome.successful
        assert outcome.instance.count_of("H") == 1

    def test_example_2_1(self, setting_2_1, source_2_1):
        deps = list(setting_2_1.all_dependencies)
        semi = seminaive_chase(source_2_1, deps)
        full = standard_chase(source_2_1, deps)
        assert semi.successful
        assert satisfies_all(semi.instance, deps)
        assert hom_equivalent(semi.instance, full.instance)

    def test_trace(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        outcome = seminaive_chase(
            parse_instance("E('a','b')"), deps, trace=True
        )
        assert len(outcome.trace) == 1


@st.composite
def random_sources(draw):
    pool = [Const(name) for name in "abcd"]
    atoms = []
    for relation in (M, N):
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                max_size=4,
            )
        )
        atoms.extend(Atom(relation, pair) for pair in pairs)
    return Instance(atoms)


DEPS = parse_dependencies(
    [
        "M(x, y) -> E(x, y)",
        "N(x, y) -> exists z1, z2 . E(x, z1) & F(x, z2)",
        "F(y, x) -> exists z . G(x, z)",
        "F(x, y) & F(x, z) -> y = z",
    ]
)


@given(random_sources())
@settings(max_examples=25, deadline=None)
def test_seminaive_agrees_with_standard_on_random_inputs(source):
    semi = seminaive_chase(source, DEPS)
    full = standard_chase(source, DEPS)
    assert semi.status == full.status
    if semi.successful:
        assert satisfies_all(semi.instance, DEPS)
        assert hom_equivalent(semi.instance, full.instance)


def test_egd_violations_are_listed_per_batch_not_per_merge(monkeypatch):
    """A chase with many merges lists each egd's violations a few
    times, not once per merge, and still reaches the standard result."""
    from repro.dependencies.egd import Egd

    deps = parse_dependencies(
        ["M(x, y) -> exists z . F(x, z) & G(z, y)", "F(x, y) & F(x, z) -> y = z"]
    )
    source = parse_instance(
        ", ".join(f"M('k{i}', 'v{j}')" for i in range(5) for j in range(6))
    )
    listed = []
    original = Egd.violations

    def counting(self, instance):
        listed.append(1)
        return original(self, instance)

    monkeypatch.setattr(Egd, "violations", counting)
    outcome = seminaive_chase(source, deps)
    assert outcome.steps - 30 == 25  # 30 firings, then 5 x 5 merges
    # One scan per chase round plus one per batch; one per merge is 25+.
    assert len(listed) <= 5
    assert hom_equivalent(outcome.instance, standard_chase(source, deps).instance)
