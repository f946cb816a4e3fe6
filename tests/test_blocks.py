"""Tests for Gaifman blocks and the blockwise core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Atom, Const, Instance, Null, RelationSymbol, isomorphic
from repro.core.atoms import _term_sort_key
from repro.generators import random_source_for, random_weakly_acyclic_setting
from repro.homomorphism import core, fold_step, is_core
from repro.homomorphism.blocks import (
    LiveCore,
    _blocks,
    _find_fold,
    _least_match,
    _pattern,
    block_statistics,
    blockwise_core,
    null_blocks,
)
from repro.logic import parse_instance
from repro.logic.matching import match

E = RelationSymbol("E", 2)


class TestBlocks:
    def test_disjoint_nulls_separate_blocks(self):
        inst = parse_instance("E('a', #1), E('b', #2)")
        blocks = null_blocks(inst)
        assert len(blocks) == 2
        assert {frozenset({Null(1)}), frozenset({Null(2)})} == set(blocks)

    def test_cooccurrence_merges(self):
        inst = parse_instance("E(#1, #2), E(#2, #3), E('a', #4)")
        blocks = null_blocks(inst)
        assert frozenset({Null(1), Null(2), Null(3)}) in blocks
        assert frozenset({Null(4)}) in blocks

    def test_ground_instance_has_no_blocks(self):
        assert null_blocks(parse_instance("E('a','b')")) == []

    def test_block_atoms(self):
        # The ground atom is owned by no block.
        inst = parse_instance("E(#1, #2), E('a', 'b'), E('a', #3)")
        assert _blocks(inst) == [
            [Atom(E, (Null(1), Null(2)))],
            [Atom(E, (Const("a"), Null(3)))],
        ]

    def test_statistics(self):
        inst = parse_instance("E(#1, #2), E('a', #3)")
        stats = block_statistics(inst)
        assert stats["blocks"] == 2
        assert stats["largest"] == 2

    def test_statistics_empty(self):
        assert block_statistics(Instance())["blocks"] == 0


class TestBlockwiseCore:
    def test_agrees_on_paper_example(self, setting_2_1, source_2_1):
        canonical = setting_2_1.canonical_universal_solution(source_2_1)
        assert isomorphic(blockwise_core(canonical), core(canonical))

    def test_simple_fold(self):
        inst = parse_instance("E('a', #1), E('a', 'b')")
        assert blockwise_core(inst) == parse_instance("E('a', 'b')")

    def test_cross_block_fold(self):
        # #1's block folds onto #2's block (or vice versa).
        inst = parse_instance("E('a', #1), E('a', #2), E(#2, 'b')")
        folded = blockwise_core(inst)
        assert len(folded) == 2
        assert isomorphic(folded, core(inst))

    def test_ground_instance_untouched(self):
        inst = parse_instance("E('a','b'), E('b','c')")
        assert blockwise_core(inst) == inst

    def test_result_is_core(self):
        inst = parse_instance(
            "E('a', #1), E(#1, #2), E('a', 'b'), E('b', 'c'), E('q', #3)"
        )
        assert is_core(blockwise_core(inst))
        assert not is_core(inst)

    def test_crossing_fold_empties_the_hint_and_reruns(self):
        import repro.obs as obs

        # #3's block stays clean; the added E('a', #2) unmarks #1's
        # block, which then folds onto #2's: a crossing fold, in a pass
        # that skipped #3's block, so the pass reruns with no skips.
        live = LiveCore()
        blockwise_core(parse_instance("E('a', #1), E('c', #3)"), live=live)
        assert _hint(live) == {
            frozenset({Atom(E, (Const("a"), Null(1)))}),
            frozenset({Atom(E, (Const("c"), Null(3)))}),
        }
        obs.reset()
        live.stage([Atom(E, (Const("a"), Null(2)))], [])
        inst = parse_instance("E('a', #1), E('a', #2), E('c', #3)")
        assert len(blockwise_core(inst, live=live)) == 2
        assert obs.counter("incremental.core_fallbacks").value == 1
        assert obs.counter("incremental.blocks_skipped").value == 1
        assert _hint(live) == set()
        obs.reset()

    def test_hint_records_unfoldable_blocks_and_skips_them(self):
        import repro.obs as obs

        obs.reset()
        inst = parse_instance("E('a', #1), E('b', #2), E('b', 'c')")
        live = LiveCore()
        assert blockwise_core(inst, live=live) == parse_instance(
            "E('a', #1), E('b', 'c')"
        )
        assert _hint(live) == {frozenset({Atom(E, (Const("a"), Null(1)))})}
        blockwise_core(inst, live=live)
        assert obs.counter("incremental.blocks_skipped").value == 1
        obs.reset()


def _hint(live):
    """The owned-atom sets of a live core's clean blocks."""
    return {frozenset(live._owned[root]) for root in live._clean}


class TestMinimizeBlock:
    def test_input_instance_is_never_mutated(self):
        inst = parse_instance("E('a', #1), E('a', 'b')")
        snapshot = set(inst.sorted_atoms())
        assert blockwise_core(inst) == parse_instance("E('a', 'b')")
        assert not is_core(inst)
        assert set(inst.sorted_atoms()) == snapshot

    def test_returns_none_when_block_is_minimal(self):
        inst = parse_instance("E('a', #1)")
        assert _find_fold(inst, _blocks(inst)[0]) is None
        assert inst == parse_instance("E('a', #1)")


def small_instances():
    values = st.one_of(
        st.sampled_from([Const("a"), Const("b")]),
        st.integers(min_value=0, max_value=3).map(Null),
    )
    return st.lists(
        st.tuples(values, values).map(lambda pair: Atom(E, pair)),
        max_size=7,
    ).map(Instance)


def random_canonicals():
    """Canonical solutions of random weakly acyclic settings (or empty)."""

    def build(seed):
        setting = random_weakly_acyclic_setting(seed)
        source = random_source_for(setting, seed=seed + 200)
        canonical = setting.canonical_universal_solution(source)
        return canonical if canonical is not None else Instance()

    return st.integers(min_value=0, max_value=10_000).map(build)


@given(st.one_of(small_instances(), random_canonicals()))
@settings(max_examples=80, deadline=None)
def test_blockwise_core_equals_global_core(inst):
    result = blockwise_core(inst)
    assert isomorphic(result, core(inst))
    assert fold_step(result) is None


@given(st.one_of(small_instances(), random_canonicals()))
@settings(max_examples=80, deadline=None)
def test_least_match_is_the_least_of_all_matches(inst):
    """The depth-first least match equals the minimum over every match,
    with each owned atom of each block dropped in turn."""
    for owned in _blocks(inst):
        pattern, back = _pattern(owned)
        variables = sorted(back, key=back.__getitem__)
        for atom in owned:
            inst.discard(atom)
            expected = min(
                match(pattern, inst),
                key=lambda found: [_term_sort_key(found[v]) for v in variables],
                default=None,
            )
            got = _least_match(pattern, variables, inst)
            inst.add(atom)
            assert (got is None) == (expected is None)
            if got is not None:
                assert {v: got[v] for v in variables} == {
                    v: expected[v] for v in variables
                }
