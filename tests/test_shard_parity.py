"""Fingerprint parity: sharded/pooled runs vs serial runs.

The partitioned chase and the pooled core must be invisible in the
results: the same fp/v1 canonical fingerprints as the sequential paths,
on the paper examples and on random weakly acyclic settings (hypothesis).
Style follows ``tests/test_plan_parity.py`` -- one workload, two paths,
fingerprints compared.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core import Const, Instance
from repro.engine import Executor, fingerprint_instance
from repro.exchange.solve import solve
from repro.generators import (
    disjoint_scaled_sources,
    example_2_1_setting,
    random_source_for,
    random_weakly_acyclic_setting,
)


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def _fp(instance):
    return fingerprint_instance(instance, canonical=True)


def _assert_result_parity(serial, other):
    assert (serial.canonical_solution is None) == (
        other.canonical_solution is None
    )
    if serial.canonical_solution is not None:
        assert _fp(serial.canonical_solution) == _fp(other.canonical_solution)
        assert _fp(serial.core_solution) == _fp(other.core_solution)


def _disjoint_random_source(setting, seed):
    """Two value-disjoint random halves of a source (>= 2 components)."""
    union = Instance()
    for prefix_index in range(2):
        half = random_source_for(setting, seed=seed + prefix_index)
        renaming = {
            value: Const(f"p{prefix_index}_{value.name}")
            for value in half.active_domain()
        }
        union.add_all(half.rename_values(renaming))
    return union


class TestSolveParity:
    def test_sharded_solve_matches_serial(self):
        setting = example_2_1_setting()
        source = disjoint_scaled_sources(4, 8, seed=13)
        serial = solve(setting, source, shard="off")
        sharded = solve(setting, source, shard="on")
        _assert_result_parity(serial, sharded)

    def test_sharded_solve_matches_serial_with_pool(self):
        setting = example_2_1_setting()
        source = disjoint_scaled_sources(3, 8, seed=17)
        serial = solve(setting, source, shard="off")
        with Executor(workers=4) as executor:
            sharded = solve(setting, source, executor=executor)
        _assert_result_parity(serial, sharded)
        assert obs.gauge("chase.shards").value == 3

    def test_auto_without_executor_is_serial(self):
        setting = example_2_1_setting()
        source = disjoint_scaled_sources(2, 6, seed=19)
        solve(setting, source)  # shard="auto", no executor
        assert obs.counter("chase.shard_chases").value == 0

    def test_empty_source(self):
        setting = example_2_1_setting()
        serial = solve(setting, Instance(), shard="off")
        sharded = solve(setting, Instance(), shard="on")
        _assert_result_parity(serial, sharded)
        assert len(sharded.core_solution) == 0


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_random_settings_parity(seed):
    setting = random_weakly_acyclic_setting(seed)
    source = _disjoint_random_source(setting, seed)
    serial = solve(setting, source, shard="off")
    sharded = solve(setting, source, shard="on")
    _assert_result_parity(serial, sharded)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_random_settings_parity_with_egds(seed):
    setting = random_weakly_acyclic_setting(
        seed, egd_probability=1.0, levels=2
    )
    source = _disjoint_random_source(setting, seed + 1)
    serial = solve(setting, source, shard="off")
    sharded = solve(setting, source, shard="on")
    _assert_result_parity(serial, sharded)
