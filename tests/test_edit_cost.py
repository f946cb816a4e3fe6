"""The primitives an incremental apply leans on, checked against oracles.

``Instance.copy``/``reduct`` clone index buckets instead of re-adding
atoms, atoms cache their order key, ``canonical()`` short-cuts null-free
instances, the provenance ledger sorts only fresh facts, and the live core's
touch test (``blocks._Touch``) probes an index instead of scanning all
pairs.  None of these may change a result, an iteration order, a
fingerprint or a ledger record; the tests below pin each against the
straightforward construction it replaces.
"""

import itertools
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Atom,
    Const,
    Instance,
    Null,
    RelationSymbol,
    Schema,
    Variable,
)
from repro.core.atoms import _term_sort_key
from repro.engine import fingerprint_instance, fingerprint_ledger
from repro.exchange.setting import DataExchangeSetting
from repro.generators import example_2_1_scaled_source, example_2_1_setting
from repro.homomorphism.blocks import _Touch
from repro.incremental import DeltaSession, SourceDelta
from repro.obs.provenance import ProvenanceLedger, Step

from .delta_oracle import drop_touched_oracle
from .test_blocks import random_canonicals

E = RelationSymbol("E", 2)
E1 = RelationSymbol("E", 1)  # same name as E, other arity
F = RelationSymbol("F", 2)
G = RelationSymbol("G", 1)

VALUES = st.one_of(
    st.sampled_from([Const("a"), Const("b")]),
    st.integers(min_value=0, max_value=3).map(Null),
)


def _atoms(relations=(E, E1, F, G)):
    return st.sampled_from(relations).flatmap(
        lambda relation: st.tuples(
            *([VALUES] * relation.arity)
        ).map(lambda args: Atom(relation, args))
    )


def _with_history(atoms, noise):
    """``atoms`` added one by one around ``noise`` that is then removed,
    so bucket orders differ from a fresh build's."""
    inst = Instance()
    for item in noise + atoms:
        inst.add(item)
    for item in noise:
        if item not in atoms:
            inst.discard(item)
    return inst


def mixed_instances():
    """Small instances over E/2, E/1 (one name, two arities), F/2, G/1."""
    return st.builds(
        _with_history,
        st.lists(_atoms(), max_size=24),
        st.lists(_atoms(), max_size=8),
    )


def _layout(instance):
    """The four indexes, with each iterated set as a list in its order."""
    return (
        list(instance._atoms),
        {name: list(bucket) for name, bucket in instance._by_relation.items()},
        {key: list(bucket) for key, bucket in instance._by_position.items()},
        {name: set(bucket) for name, bucket in instance._by_tuple.items()},
    )


def _rebuilt(atoms):
    """An instance built by ``add`` per atom, in the given order."""
    return Instance(list(atoms))


class TestClones:
    @given(st.one_of(mixed_instances(), random_canonicals()))
    @settings(max_examples=80, deadline=None)
    def test_copy_equals_fresh_build(self, inst):
        assert _layout(inst.copy()) == _layout(_rebuilt(inst))

    def test_copy_keeps_order_of_crowded_buckets(self):
        # One constant shared by 300 atoms inserted out of order, some
        # removed again: each bucket's order differs from the atom set's.
        atoms = [Atom(E, (Const("a"), Null(i))) for i in range(300)]
        inst = _with_history(atoms[::-1], atoms[::7])
        for item in atoms[::11]:
            inst.discard(item)
        expected = _layout(_rebuilt(inst))
        assert _layout(inst.copy()) == expected
        assert _layout(inst.reduct(Schema.of(E=2))) == expected

    @given(
        st.one_of(mixed_instances(), random_canonicals()),
        st.sampled_from(
            [
                Schema.of(E=2),
                Schema.of(E=1),
                Schema.of(E=2, F=2),
                Schema.of(F=2, G=1),
                Schema.of(A=2, B=2, C=2),
                Schema(),
            ]
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_reduct_equals_fresh_build(self, inst, schema):
        expected = _rebuilt(item for item in inst if item.relation in schema)
        assert _layout(inst.reduct(schema)) == _layout(expected)

    def test_reduct_of_mixed_name_keeps_one_arity(self):
        inst = Instance(
            [
                Atom(E, (Const("a"), Null(0))),
                Atom(E1, (Const("a"),)),
                Atom(F, (Const("a"), Const("b"))),
            ]
        )
        assert inst.reduct(Schema.of(E=1)).sorted_atoms() == [
            Atom(E1, (Const("a"),))
        ]
        assert inst.reduct(Schema.of(E=2, F=2)).sorted_atoms() == [
            Atom(E, (Const("a"), Null(0))),
            Atom(F, (Const("a"), Const("b"))),
        ]

    @given(mixed_instances(), st.lists(_atoms(), max_size=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_copies_share_no_bucket(self, inst, extra, data):
        before = _layout(inst)
        duplicate = inst.copy()
        for item in extra:
            duplicate.add(item)
        for item in data.draw(st.lists(st.sampled_from(list(inst) or [None]))):
            if item is not None:
                duplicate.discard(item)
        assert _layout(inst) == before
        kept = _layout(duplicate)
        for item in extra:
            inst.add(item)
        for item in list(inst)[:2]:
            inst.discard(item)
        assert _layout(duplicate) == kept


class TestAtomOrder:
    @given(st.lists(_atoms(), max_size=20), st.lists(_atoms(), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_cached_key_order_equals_uncached(self, left, right):
        def uncached(item):
            return (
                item.relation.name,
                tuple(_term_sort_key(arg) for arg in item.args),
            )

        assert sorted(left + right) == sorted(left + right, key=uncached)
        for first, second in zip(left, right):
            assert (first < second) == (uncached(first) < uncached(second))

    def test_variables_order_after_values(self):
        x = Atom(E, (Variable("x"), Const("a")))
        ground = Atom(E, (Null(9), Const("a")))
        assert ground < x and not x < ground
        assert sorted([x, ground]) == [ground, x]


class TestCanonical:
    GROUND = Instance(
        [
            Atom(E, (Const("a"), Const("b"))),
            Atom(E, (Const("b"), Const("c"))),
            Atom(F, (Const("a"), Const("c"))),
        ]
    )
    NULLS = Instance(
        [
            Atom(E, (Const("a"), Null(5))),
            Atom(F, (Null(5), Null(2))),
            Atom(F, (Null(2), Const("b"))),
            Atom(E, (Null(9), Null(9))),
        ]
    )

    def test_null_free_instance_is_its_own_canonical_form(self):
        inst = self.GROUND.copy()
        assert inst.canonical() is inst
        assert inst._canonical_cache is inst

    def test_copy_of_null_free_canonical_points_at_itself(self):
        inst = self.GROUND.copy()
        inst.canonical()
        duplicate = inst.copy()
        assert duplicate.canonical() is duplicate
        inst.add(Atom(E, (Const("z"), Const("z"))))
        assert duplicate.canonical() is duplicate
        assert inst.canonical() is inst
        assert len(duplicate) == 3 and len(inst) == 4

    def test_fingerprints_pinned(self):
        # Values produced before null-free instances short-cut canonical().
        ground = "3f7fd949e3bd7c9037e29e1feb104e2b7c90d7eaf8e158170ada2962f627ccc5"
        nulls = "c62b28dea60eed3707f152a64767755765c2888f309036494df73d34c9047f1a"
        assert fingerprint_instance(self.GROUND.copy()) == ground
        assert fingerprint_instance(self.GROUND.copy(), canonical=False) == ground
        assert fingerprint_instance(self.NULLS.copy()) == nulls

    @given(st.one_of(mixed_instances(), random_canonicals()))
    @settings(max_examples=60, deadline=None)
    def test_canonical_is_idempotent_and_isomorphic(self, inst):
        from repro.core import isomorphic

        form = inst.canonical()
        assert isomorphic(form, inst)
        assert Instance(list(form)).canonical() == form
        assert sorted(form.nulls()) == [Null(i) for i in range(len(form.nulls()))]


# ----------------------------------------------------------------------
# The indexed touch test against the all-pairs scan it replaced
# ----------------------------------------------------------------------


def _touched(clean, added):
    touch = _Touch()
    for owned in clean:
        touch.add(owned, owned)
    return set(clean) - touch.hit(added)


class TestDropTouched:
    @given(
        st.lists(st.lists(_atoms(), min_size=1, max_size=4), max_size=8),
        st.lists(_atoms(), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_index_keeps_what_all_pairs_keeps(self, blocks, added):
        clean = {frozenset(block) for block in blocks}
        assert _touched(clean, added) == drop_touched_oracle(clean, added)

    def test_constant_free_owned_atom_checks_its_whole_relation(self):
        owned = frozenset([Atom(E, (Null(0), Null(1)))])
        other = frozenset([Atom(F, (Null(0), Null(1)))])
        added = [Atom(E, (Const("q"), Const("r")))]
        assert _touched({owned, other}, added) == {other}

    @given(random_canonicals(), st.lists(_atoms((E, F)), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_on_canonical_solution_blocks(self, canonical, added):
        from repro.homomorphism.blocks import _blocks

        clean = {frozenset(owned) for owned in _blocks(canonical.copy())}
        added = added + list(itertools.islice(canonical, 3))
        assert _touched(clean, added) == drop_touched_oracle(clean, added)


# ----------------------------------------------------------------------
# Cross-process checks (each child gets its own PYTHONHASHSEED)
# ----------------------------------------------------------------------


def _run_under_hash_seed(seed, script, stdin=None):
    import repro

    src_dir = repro.__file__.rsplit("/repro/", 1)[0]
    completed = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {src_dir!r})\n" + script],
        input=stdin,
        capture_output=True,
        env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return completed.stdout


_PICKLE_OBJECTS = """
import pickle
from repro.core import Atom, Const, Null, RelationSymbol, Variable
R = RelationSymbol("R", 2)
objects = [
    Atom(R, (Const("a"), Null(3))),
    Atom(R, (Variable("x"), Const("b"))),
    R,
    Variable("x"),
]
"""


class TestPickleAcrossHashSeeds:
    def test_round_trip_under_another_hash_seed(self):
        dumped = _run_under_hash_seed(
            "0",
            _PICKLE_OBJECTS + "sys.stdout.buffer.write(pickle.dumps(objects))",
        )
        checked = _run_under_hash_seed(
            "1",
            _PICKLE_OBJECTS
            + """
from repro.core import Instance
loaded = pickle.loads(sys.stdin.buffer.read())
for fresh, back in zip(objects, loaded):
    assert back == fresh and fresh == back, (back, fresh)
    assert hash(back) == hash(fresh)
    assert back in {fresh} and fresh in {back}
assert loaded[0] in Instance([objects[0]])
assert objects[0] in Instance([loaded[0]])
print("ok")
""",
            stdin=dumped,
        )
        assert checked.strip() == b"ok"

    def test_atom_pickle_carries_no_hash_or_order_key(self):
        item = Atom(E, (Const("a"), Null(1)))
        assert item < Atom(E, (Const("b"), Null(1)))  # fills the key cache
        constructor, args = item.__reduce__()
        assert constructor is Atom and args == (E, item.args)
        assert pickle.loads(pickle.dumps(item)) == item


# ----------------------------------------------------------------------
# Ledgers of edit streams: the rewritten primitives against the originals
# ----------------------------------------------------------------------


def copy_oracle(self):
    """``Instance.copy`` by re-adding every atom."""
    result = Instance(self._atoms)
    result._fingerprints = dict(self._fingerprints)
    cached = self._canonical_cache
    result._canonical_cache = result if cached is self else cached
    return result


def reduct_oracle(self, schema):
    """``Instance.reduct`` by re-adding every kept atom."""
    return Instance(item for item in self._atoms if item.relation in schema)


def record_source_oracle(self, atoms):
    """``ProvenanceLedger.record_source`` sorting before it filters."""
    fresh = tuple(
        item
        for item in sorted(atoms)
        if item not in self._producers or item in self._deleted
    )
    if not fresh:
        return
    step = self._append(Step(len(self._steps), "source", added=fresh))
    for item in fresh:
        self._produce(item, step.index)


def record_merge_oracle(self, via, egd, old, new):
    """``ProvenanceLedger.record_merge`` sorting before it filters."""
    rewrites = tuple(
        (item, item.rename_values({old: new}))
        for item in sorted(self._chase_state)
        if old in item.args
    )
    step = self._append(
        Step(
            len(self._steps),
            "egd",
            via=via,
            dependency=getattr(egd, "name", "") or "",
            merged=(old, new),
            rewrites=rewrites,
        )
    )
    for before, after in rewrites:
        self._live.discard(before)
        self._chase_state.discard(before)
        self._produce(after, step.index)
    self._merges += 1


def anchored_scenario():
    """The anchored setting on 40 rows; each edit deletes two rows and
    inserts two fresh ones."""
    R = RelationSymbol("R", 2)
    setting = DataExchangeSetting.from_strings(
        Schema.of(R=2),
        Schema.of(A=2, B=2, C=2),
        ["R(x,y) -> exists z . A(x,z) & B(z,y)"],
        ["B(z,y) -> exists w . C(y,w)"],
    )
    rng = random.Random(2007)

    def edit(index, source):
        victims = rng.sample(sorted(source), 2)
        fresh = [
            Atom(R, (Const(f"u{index}_{k}"), Const(f"v{index}_{k}")))
            for k in range(2)
        ]
        return SourceDelta(insertions=Instance(fresh), deletions=Instance(victims))

    source = Instance(
        Atom(R, (Const(f"s{i}"), Const(f"t{i}"))) for i in range(40)
    )
    return setting, source, edit


def example_2_1_scenario():
    """Example 2.1 (egds, so no deletions); each edit inserts one atom."""
    rng = random.Random(2007)
    setting = example_2_1_setting()
    source = example_2_1_scaled_source(6, seed=3)
    pool = sorted({v for a in source for v in a.args}, key=lambda c: c.name)
    M, N = setting.source_schema["M"], setting.source_schema["N"]

    def edit(index, _source):
        relation = rng.choice([M, N])
        pick = [rng.choice(pool), Const(f"x{index}")]
        rng.shuffle(pick)
        return SourceDelta(insertions=Instance([Atom(relation, tuple(pick))]))

    return setting, source, edit


def merging_scenario():
    """Inserts whose firings each clash with an egd, so every edit
    records a merge rewriting two or three facts (Example 2.1's edits
    never fire a tgd whose conclusion clashes)."""
    M = RelationSymbol("M", 2)
    setting = DataExchangeSetting.from_strings(
        Schema.of(M=2),
        Schema.of(F=2, G=2),
        ["M(x,y) -> exists z . F(x,z) & G(z,y)"],
        ["F(x,y) & F(x,z) -> y = z"],
    )
    rng = random.Random(2007)

    def edit(index, _source):
        item = Atom(M, (Const(f"a{rng.randrange(6)}"), Const(f"y{index}")))
        return SourceDelta(insertions=Instance([item]))

    source = Instance(
        Atom(M, (Const(f"a{i % 4}"), Const(f"b{i}"))) for i in range(12)
    )
    return setting, source, edit


def run_stream(scenario, edits=30):
    """A session after ``edits`` edits of ``scenario``."""
    setting, source, edit = scenario()
    session = DeltaSession(setting, source)
    for index in range(edits):
        session.apply(edit(index, session.source))
    return session


def _anchored_stream():
    """30 delete-two/insert-two edits on 40 rows of the anchored setting."""
    return fingerprint_ledger(run_stream(anchored_scenario).ledger)


def _example_2_1_stream():
    """30 single-atom inserts on Example 2.1."""
    return fingerprint_ledger(run_stream(example_2_1_scenario).ledger)


def _merging_stream():
    """30 inserts on the clashing-egd setting, each recording a merge."""
    session = run_stream(merging_scenario)
    assert session.ledger._merges >= 30
    return fingerprint_ledger(session.ledger)


def _join_chase():
    """A from-scratch chase whose tgd joins two atoms, so one seed fact
    completes to several triggers (the streams above never do)."""
    from repro.chase.seminaive import seminaive_chase
    from repro.dependencies.base import parse_dependency
    from repro.obs.provenance import recording

    E = RelationSymbol("E", 2)
    rng = random.Random(2007)
    graph = Instance(
        Atom(E, (Const(f"n{rng.randrange(12)}"), Const(f"n{rng.randrange(12)}")))
        for _ in range(30)
    )
    with recording() as ledger:
        seminaive_chase(
            graph, [parse_dependency("E(x,y) & E(y,z) -> exists w . P(x,w) & Q(w,z)")]
        )
    return fingerprint_ledger(ledger)


class TestLedgerParity:
    """Ledger records name nulls, and the null numbering follows set
    order, so both runs of a stream happen in this process (one hash
    seed) and only the patched primitives differ between them."""

    @pytest.fixture
    def original_primitives(self, monkeypatch):
        def install():
            monkeypatch.setattr(Instance, "copy", copy_oracle)
            monkeypatch.setattr(Instance, "reduct", reduct_oracle)
            monkeypatch.setattr(
                ProvenanceLedger, "record_source", record_source_oracle
            )
            monkeypatch.setattr(
                ProvenanceLedger, "record_merge", record_merge_oracle
            )

        return install

    @pytest.mark.parametrize(
        "stream", [_anchored_stream, _example_2_1_stream, _merging_stream]
    )
    def test_edit_stream_ledger_equals_original(
        self, stream, original_primitives
    ):
        rewritten = stream()
        original_primitives()
        assert stream() == rewritten


class TestLedgerAcrossHashSeeds:
    """The chase fires in binding order, egds merge their least
    violation first and the live core folds onto the least match, so an
    edit stream's ledger -- null numbering, merges and retract records
    included -- does not depend on ``PYTHONHASHSEED``."""

    def test_edit_stream_ledgers_agree_under_hash_seeds_0_and_99(self):
        import tests

        root = tests.__file__.rsplit("/tests/", 1)[0]
        script = (
            f"sys.path.insert(0, {root!r})\n"
            "from tests.test_edit_cost import (\n"
            "    _anchored_stream, _example_2_1_stream, _merging_stream,\n"
            "    _join_chase)\n"
            "for stream in (_anchored_stream, _example_2_1_stream, "
            "_merging_stream, _join_chase):\n"
            "    print(stream())\n"
        )
        seed_0 = _run_under_hash_seed("0", script).split()
        seed_99 = _run_under_hash_seed("99", script).split()
        assert len(seed_0) == 4
        assert seed_0 == seed_99
        here = [
            _anchored_stream(),
            _example_2_1_stream(),
            _merging_stream(),
            _join_chase(),
        ]
        assert [digest.decode() for digest in seed_0] == here
