"""The benchmark's own checks: every oracle agrees with ``solve()`` at
small sizes, the traced run's wrappers install and remove cleanly, and
the host-speed scale is the nominal over the median kernel time.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402


def _solved_fingerprint(setting, relations):
    result = repro.solve(setting, inputs.instance_of(relations))
    return oracles.fingerprint(result.core_solution)


@pytest.mark.parametrize("rows", [1, 5, 20])
def test_anchored_oracle_matches_solve(rows):
    relations = {"R": inputs.anchored_rows(inputs.rng_for(rows, "test"), rows)}
    assert _solved_fingerprint(inputs.anchored_setting(), relations) == (
        oracles.fingerprint(oracles.anchored_core(relations["R"]))
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("pairs", [3, 8, 20])
def test_example_oracle_matches_solve(seed, pairs):
    relations = inputs.example_rows(inputs.rng_for(seed, "test"), pairs)
    assert _solved_fingerprint(inputs.example_setting(), relations) == (
        oracles.fingerprint(oracles.example_core(relations))
    )


@pytest.mark.parametrize("seed", range(4))
def test_closure_oracle_matches_solve(seed):
    edges = inputs.dag_rows(inputs.rng_for(seed, "test"), nodes=15, edges=25)
    assert _solved_fingerprint(inputs.closure_setting(), {"E": edges}) == (
        oracles.fingerprint(oracles.closure_core(edges))
    )


def test_closure_pairs_by_hand():
    assert oracles.closure_pairs([("a", "b"), ("b", "c"), ("d", "c")]) == {
        ("a", "b"), ("a", "c"), ("b", "c"), ("d", "c"),
    }


def test_edit_answers_match_ucq_answers_on_a_session():
    setting = inputs.anchored_setting()
    rng = inputs.rng_for(0, "test")
    rows = inputs.anchored_rows(rng, 10)
    session = repro.DeltaSession(setting, inputs.instance_of({"R": rows}))
    queries = [repro.parse_query(text) for text in oracles.EDIT_QUERIES]
    for _ in range(3):
        victims, fresh = rows[:2], inputs.anchored_rows(rng, 2)
        rows = rows[2:] + fresh
        result = session.apply(repro.SourceDelta(
            insertions=inputs.instance_of({"R": fresh}),
            deletions=inputs.instance_of({"R": victims}),
        ))
        for query, expected in zip(queries, oracles.edit_answers(rows)):
            answers = repro.ucq_certain_answers(
                setting, session.source, query, solution=result.core_solution
            )
            assert oracles.same_answers(answers, expected)


def test_tracing_records_layers_and_restores_originals():
    original = repro.solve
    installation = tracing.install()
    try:
        assert repro.solve is not original
        with installation.live():
            repro.solve(
                inputs.example_setting(),
                inputs.instance_of(inputs.example_rows(inputs.rng_for(1, "t"), 5)),
            )
    finally:
        installation.remove()
    assert repro.solve is original
    totals = installation.recorder.totals()
    assert installation.absent == []
    assert totals["exchange.solve"]["calls"] == 1
    assert totals["chase"]["calls"] >= 1
    assert totals["homomorphism.core"]["calls"] >= 1
    assert totals["logic.match"]["calls"] >= 1
    solve_s = totals["exchange.solve"]["inclusive_s"]
    assert 0 < totals["homomorphism.core"]["inclusive_s"] <= solve_s
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(
        solve_s, rel=1e-6
    )


def test_tracing_reports_a_missing_boundary_as_absent():
    installation = tracing.install({"gone": ("repro.nowhere:missing",)})
    installation.remove()
    assert installation.absent == ["repro.nowhere:missing"]


def test_host_scale_is_nominal_over_median_kernel_time():
    host = hostspeed.HostSpeed()
    assert host.scale == 1.0
    host.sample()
    host.sample()  # within INTERVAL_S of the first: skipped
    assert len(host.samples) == 1 and host.samples[0] > 0
    host.samples = [0.002, 0.004, 0.1]
    assert host.scale == pytest.approx(hostspeed.NOMINAL_S / 0.004)
