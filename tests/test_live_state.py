"""A ``DeltaSession``'s live state, checked three ways.

* Against the whole-instance oracle (:mod:`tests.delta_oracle`): per
  edit, the same core, clean hint, deletion cones and ledger.
* Snapshot isolation: the instances a result hands out are the
  caller's to mutate.
* Work bounds, counted rather than timed: an edit makes the same number
  of whole-instance copies on 200 rows as on 1,600, never rebuilds the
  block index, and its cone visits as many ledger steps after 500 edits
  as after 5.
"""

import random

import pytest

import repro.obs as obs
from repro.core import Atom, Const, Instance, RelationSymbol, Schema
from repro.exchange.setting import DataExchangeSetting
from repro.homomorphism import blocks
from repro.incremental import DeltaSession, SourceDelta

from .delta_oracle import WholeInstanceSession, forward_cone
from .test_edit_cost import (
    anchored_scenario,
    example_2_1_scenario,
    merging_scenario,
)

R = RelationSymbol("R", 2)


def folding_scenario():
    """Blocks that fold onto ground atoms and across blocks.

    ``S(x)`` derives a block ``E(x,w)`` that folds onto a ground
    ``E(x,y)`` from ``M`` (a fold into constants) or onto the
    ``E(x,z)`` of an ``R`` row's block (a crossing fold, which reruns a
    pass that skipped clean blocks).  Each edit deletes one source atom
    and inserts one or two.
    """
    S, M = RelationSymbol("S", 1), RelationSymbol("M", 2)
    setting = DataExchangeSetting.from_strings(
        Schema.of(R=2, S=1, M=2),
        Schema.of(E=2, F=2),
        [
            "R(x,y) -> exists z . E(x,z) & F(z,y)",
            "S(x) -> exists w . E(x,w)",
            "M(x,y) -> E(x,y)",
        ],
        [],
    )
    rng = random.Random(15)
    xs = [Const(f"k{i}") for i in range(5)]
    ys = [Const(f"l{i}") for i in range(4)]

    def random_atom():
        relation = rng.choice([R, R, S, S, M])
        if relation is S:
            return Atom(S, (rng.choice(xs),))
        return Atom(relation, (rng.choice(xs), rng.choice(ys)))

    def edit(index, source):
        victims = [rng.choice(sorted(source))]
        fresh = [random_atom() for _ in range(rng.randint(1, 2))]
        return SourceDelta(insertions=Instance(fresh), deletions=Instance(victims))

    return setting, Instance(random_atom() for _ in range(14)), edit


def rederiving_scenario():
    """Facts with two derivations, so deletions re-derive them and later
    cones meet facts whose producer is newer than some of their
    consumers.  Each edit deletes one or two source atoms and inserts
    two."""
    S = RelationSymbol("S", 1)
    setting = DataExchangeSetting.from_strings(
        Schema.of(R=2, S=1),
        Schema.of(T=1, U=2, V=2),
        ["R(x,y) -> T(x)", "S(x) -> T(x)"],
        ["T(x) -> exists w . U(x,w)", "U(x,w) & T(x) -> exists v . V(w,v)"],
    )
    rng = random.Random(7)
    xs = [Const(f"k{i}") for i in range(4)]

    def random_atom():
        if rng.random() < 0.5:
            return Atom(S, (rng.choice(xs),))
        return Atom(R, (rng.choice(xs), Const(f"l{rng.randrange(3)}")))

    def edit(index, source):
        victims = rng.sample(sorted(source), min(len(source), rng.randint(1, 2)))
        return SourceDelta(
            insertions=Instance(random_atom() for _ in range(2)),
            deletions=Instance(victims),
        )

    return setting, Instance(random_atom() for _ in range(8)), edit


def _hint(live):
    """The owned-atom sets of a live core's clean blocks."""
    return {frozenset(live._owned[root]) for root in live._clean}


def _capture_cones(ledger):
    """Record every cone ``ledger`` computes."""
    cones = []
    compute = ledger.downstream_cone

    def recorded(roots):
        cone = compute(roots)
        cones.append(cone)
        return cone

    ledger.downstream_cone = recorded
    return cones


class TestOracleParity:
    @pytest.mark.parametrize(
        "scenario",
        [
            anchored_scenario,
            example_2_1_scenario,
            merging_scenario,
            folding_scenario,
            rederiving_scenario,
        ],
    )
    def test_each_edit_matches_the_whole_instance_oracle(
        self, scenario, monkeypatch
    ):
        # Every block fold sees the same instance on both paths.
        seen = []
        fold = blocks._fold_block

        def recorded(current, owned, least=False):
            seen.append((tuple(owned), frozenset(current)))
            return fold(current, owned, least)

        monkeypatch.setattr(blocks, "_fold_block", recorded)
        setting, source, edit = scenario()
        live = DeltaSession(setting, source)
        live_folds, seen[:] = list(seen), []
        oracle = WholeInstanceSession(setting, source)
        assert seen == live_folds
        live_cones = _capture_cones(live.ledger)
        oracle_cones = _capture_cones(oracle.ledger)
        fallbacks = obs.counter("incremental.core_fallbacks")
        crossings = 0
        for index in range(31):
            assert set(live.result.core_solution) == set(
                oracle.result.core_solution
            )
            assert _hint(live._live) == oracle._clean
            assert live_cones == oracle_cones
            assert live.ledger.to_payload() == oracle.ledger.to_payload()
            if index == 30:
                break
            delta = edit(index, live.source)
            before = fallbacks.value
            seen.clear()
            live.apply(delta)
            crossings += fallbacks.value - before
            live_folds, seen[:] = list(seen), []
            oracle.apply(delta)
            assert seen == live_folds
        if scenario is folding_scenario:
            assert crossings >= 1
            assert any(step.kind == "retract" for step in live.ledger.steps)
        if scenario in (anchored_scenario, rederiving_scenario):
            assert any(live_cones)


class TestSnapshots:
    def test_mutating_results_does_not_change_later_applies(self):
        setting, source, edit = anchored_scenario()
        vandalized = DeltaSession(setting, source)
        untouched = DeltaSession(setting, source)
        junk = Atom(R, (Const("junk"), Const("junk")))
        earlier = []
        for index in range(52):
            delta = edit(index, untouched.source)
            result = vandalized.apply(delta)
            expected = untouched.apply(delta)
            for name in ("core_solution", "canonical_solution", "source"):
                assert set(getattr(result, name)) == set(getattr(expected, name))
            if index < 2:
                earlier.append((result, _state(result)))
                continue
            for snapshot in (
                result.core_solution,
                result.canonical_solution,
                result.source,
            ):
                for item in sorted(snapshot)[:3]:
                    snapshot.discard(item)
                snapshot.add(junk)
        for result, state in earlier:
            assert _state(result) == state


def _state(result):
    return tuple(
        sorted(instance)
        for instance in (result.core_solution, result.canonical_solution, result.source)
    )


class TestWorkBounds:
    def _edit_work(self, rows, monkeypatch):
        """Copies, reducts and regrouped atoms of one 2-row swap."""
        setting, _, _ = anchored_scenario()
        session = DeltaSession(
            setting,
            Instance(Atom(R, (Const(f"s{i}"), Const(f"t{i}"))) for i in range(rows)),
        )
        work = {"copy": 0, "reduct": 0, "grouped": 0}

        def counted(name):
            original = getattr(Instance, name)

            def wrapper(*args, **kwargs):
                work[name] += 1
                return original(*args, **kwargs)

            return wrapper

        def forbidden(instance):
            raise AssertionError("an apply rebuilt the whole block index")

        group = blocks._group

        def grouped(atoms):
            atoms = list(atoms)
            work["grouped"] += len(atoms)
            return group(atoms)

        delta = SourceDelta(
            deletions=Instance(sorted(session.source)[:2]),
            insertions=Instance(
                Atom(R, (Const(f"u{k}"), Const(f"v{k}"))) for k in range(2)
            ),
        )
        with monkeypatch.context() as patch:
            patch.setattr(Instance, "copy", counted("copy"))
            patch.setattr(Instance, "reduct", counted("reduct"))
            patch.setattr(blocks, "_blocks", forbidden)
            patch.setattr(blocks, "_group", grouped)
            session.apply(delta)
        return work

    def test_copies_do_not_depend_on_instance_size(self, monkeypatch):
        small = self._edit_work(200, monkeypatch)
        large = self._edit_work(1600, monkeypatch)
        assert small == large
        # The result's source and core snapshots; its canonical snapshot.
        assert (small["copy"], small["reduct"]) == (2, 1)
        assert 0 < small["grouped"] <= 12

    def test_cone_work_does_not_grow_with_history(self):
        setting, source, edit = anchored_scenario()
        session = DeltaSession(setting, source)
        visits = []
        for index in range(501):
            delta = edit(index, session.source)
            if index in (5, 500):
                roots = sorted(delta.deletions)
                visits.append(_cone_visits(session.ledger, roots))
            session.apply(delta)
        assert len(session.ledger) > 3000
        assert 0 < visits[1] <= visits[0]


class _CountingSteps(list):
    """A step list that counts the steps read from it."""

    visits = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.visits += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.visits += 1
            yield item


def _cone_visits(ledger, roots):
    """How many steps the cone of ``roots`` reads; checks the cone too."""
    steps = ledger._steps
    ledger._steps = _CountingSteps(steps)
    try:
        cone = ledger.downstream_cone(roots)
        visits = ledger._steps.visits
    finally:
        ledger._steps = steps
    assert cone == forward_cone(ledger, roots)
    assert len(cone) > len(roots)
    return visits
