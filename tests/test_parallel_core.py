"""Tests for the pooled core: value components minimized on the Executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.chase import standard_chase
from repro.core import Atom, Const, Instance, Null, RelationSymbol, isomorphic
from repro.engine import Executor, fingerprint_instance
from repro.homomorphism import blockwise_core, core, is_core
from repro.generators import disjoint_scaled_sources, example_2_1_setting

E = RelationSymbol("E", 2)


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def _fp(instance):
    return fingerprint_instance(instance, canonical=True)


def _canonical_solution(copies=3, pairs=8, seed=11):
    setting = example_2_1_setting()
    source = disjoint_scaled_sources(copies, pairs, seed=seed)
    outcome = standard_chase(source, list(setting.all_dependencies))
    assert outcome.successful
    return outcome.instance.reduct(setting.target_schema)


def _pooled(instance):
    with Executor(workers=2) as executor:
        return blockwise_core(instance, executor)


class TestPartitionedCore:
    def test_matches_blockwise_on_multi_component(self):
        canonical = _canonical_solution()
        assert len(canonical.components()) > 1
        assert _fp(_pooled(canonical)) == _fp(blockwise_core(canonical))

    def test_result_is_core(self):
        canonical = _canonical_solution(copies=2, pairs=6, seed=3)
        assert is_core(_pooled(canonical))

    def test_parity_with_executor(self):
        canonical = _canonical_solution(copies=4, pairs=6, seed=5)
        serial = blockwise_core(canonical)
        assert obs.counter("core.blocks_parallel").value == 0
        parallel = _pooled(canonical)
        assert _fp(parallel) == _fp(serial)
        assert obs.counter("core.blocks_parallel").value > 0

    def test_ground_instance_unchanged(self):
        inst = Instance(
            [Atom(E, (Const("a"), Const("b"))), Atom(E, (Const("c"), Const("d")))]
        )
        assert _pooled(inst) == inst

    def test_empty_instance(self):
        assert len(_pooled(Instance())) == 0

    def test_single_component_falls_back(self):
        inst = Instance(
            [Atom(E, (Const("a"), Null(0))), Atom(E, (Const("a"), Const("b")))]
        )
        result = _pooled(inst)
        assert isomorphic(result, core(inst))
        assert obs.counter("core.blocks_parallel").value == 0

    def test_all_null_component_falls_back_and_stays_exact(self):
        # Two isomorphic all-null components: the union's core is a
        # single atom (one component folds onto the other), which only
        # the in-process pass can see -- the guard must keep it there.
        inst = Instance(
            [Atom(E, (Null(0), Null(1))), Atom(E, (Null(2), Null(3)))]
        )
        result = _pooled(inst)
        assert len(result) == 1
        assert isomorphic(result, core(inst))
        assert obs.counter("core.blocks_parallel").value == 0

    def test_mixed_anchored_and_null_component_falls_back(self):
        inst = Instance(
            [
                Atom(E, (Const("a"), Null(0))),
                Atom(E, (Null(1), Null(2))),
            ]
        )
        result = _pooled(inst)
        assert isomorphic(result, core(inst))
        assert obs.counter("core.blocks_parallel").value == 0


@pytest.fixture(scope="module")
def shared_executor():
    with Executor(workers=2) as executor:
        yield executor


def small_multi_component_instances():
    """Unions of two value-disjoint random halves, every atom anchored."""

    def build(pairs):
        left, right = pairs
        inst = Instance()
        for index, value in left:
            inst.add(Atom(E, (Const(f"a{index % 2}"), value)))
        for index, value in right:
            inst.add(
                Atom(
                    E,
                    (
                        Const(f"b{index % 2}"),
                        Const(value.name.replace("a", "b"))
                        if isinstance(value, Const)
                        else Null(value.ident + 10),
                    ),
                )
            )
        return inst

    half = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.one_of(
                st.sampled_from([Const("a0"), Const("a1")]),
                st.integers(min_value=0, max_value=3).map(Null),
            ),
        ),
        max_size=5,
    )
    return st.tuples(half, half).map(build)


@given(small_multi_component_instances())
@settings(max_examples=60, deadline=None)
def test_partitioned_core_equals_global_core(shared_executor, inst):
    # The pooled route (value components minimized on the Executor)
    # must agree with the global core on multi-component instances.
    assert isomorphic(blockwise_core(inst, shared_executor), core(inst))
