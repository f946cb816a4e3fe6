"""Test oracle for the live state of a ``DeltaSession``.

:class:`WholeInstanceSession` is a :class:`~repro.incremental.DeltaSession`
whose apply makes the whole-instance passes that the live chase state,
block index, core and ledger consumer index replaced:

* the continuation chase runs on a copy of the chase state, after the
  whole state has been offered to the ledger as source facts;
* re-derivation seeds come from a scan of the chase state;
* the canonical solution is the reduct of the chase, diffed against the
  previous one as frozensets;
* the clean hint is a set of owned-atom frozensets, and every added atom
  is tested against every clean owned atom (:func:`drop_touched_oracle`);
* the core pass copies the canonical solution, rebuilds its block index
  and skips the blocks whose owned set is clean (:func:`core_with_hint`);
* deletion cones come from one forward pass over every ledger step
  (:func:`forward_cone`).

Both paths fold onto the least match (``blocks._fold_block(..., least=True)``),
so comparing them does not depend on set iteration order.
"""

from typing import FrozenSet, Iterable, List, Set, Tuple

from repro.chase.result import ChaseStatus
from repro.chase.seminaive import seminaive_chase
from repro.core.atoms import Atom
from repro.core.errors import ChaseDivergence
from repro.core.instance import Instance
from repro.core.terms import Null, NullFactory
from repro.exchange.solve import ExchangeResult
from repro.homomorphism import blocks
from repro.incremental import DeltaSession
from repro.obs import counter
from repro.obs.provenance import ProvenanceLedger, recording

Hint = Set[FrozenSet[Atom]]


def forward_cone(ledger: ProvenanceLedger, roots: Iterable[Atom]) -> Set[Atom]:
    """The downstream cone by one forward pass over every step."""
    cone = set(roots)
    if not cone:
        return cone
    for step in ledger.steps:
        if step.kind == "tgd":
            if any(parent in cone for parent in step.parents):
                cone.update(step.added)
        elif step.kind == "egd":
            for before, after in step.rewrites:
                if before in cone:
                    cone.add(after)
    return cone


class ScanLedger(ProvenanceLedger):
    """A ledger whose cones come from :func:`forward_cone`."""

    def downstream_cone(self, roots):
        return forward_cone(self, roots)


def drop_touched_oracle(clean: Hint, added: Iterable[Atom]) -> Hint:
    """Keep the owned sets no added atom can be a fold image of (all pairs)."""
    added = list(added)

    def may_image(candidate, owned):
        return candidate.relation == owned.relation and all(
            isinstance(owned_arg, Null) or candidate_arg == owned_arg
            for candidate_arg, owned_arg in zip(candidate.args, owned.args)
        )

    return {
        owned
        for owned in clean
        if not any(may_image(c, atom) for atom in owned for c in added)
    }


def core_with_hint(instance: Instance, clean: Hint) -> Instance:
    """The core of ``instance``, skipping the blocks whose owned set is
    in ``clean``; ``clean`` is refreshed in place to this pass's
    unfoldable blocks (emptied by a crossing fold, and a pass that
    skipped blocks and saw one reruns with no skips)."""
    current = instance.copy()
    crossed = skipped = False
    unfoldable: List[FrozenSet[Atom]] = []
    for owned in blocks._blocks(current):
        key = frozenset(owned)
        if key in clean:
            counter("incremental.blocks_skipped").inc()
            unfoldable.append(key)
            skipped = True
            continue
        counter("incremental.blocks_reminimized").inc()
        folded, block_crossed = blocks._fold_block(current, owned, True)
        crossed = crossed or block_crossed
        if not folded:
            unfoldable.append(key)
    clean.clear()
    if not crossed:
        clean.update(unfoldable)
    if crossed and skipped:
        counter("incremental.core_fallbacks").inc()
        return core_with_hint(instance, clean)
    return current


def rederivation_seeds_scan(session: DeltaSession, cone) -> List[Atom]:
    """The chase atoms sharing a value with the cone, by a full scan."""
    values = {value for atom in cone for value in atom.args}
    seeds = [
        atom
        for atom in session._chase
        if any(value in values for value in atom.args)
    ]
    cone_relations = {atom.relation for atom in cone}
    for tgd in session._frontier_free:
        if cone_relations & tgd.conclusion_relations():
            for relation in tgd.premise_relations():
                seeds.extend(session._chase.atoms_of(relation))
    return seeds


class WholeInstanceSession(DeltaSession):
    """A ``DeltaSession`` that recomputes its apply tail from whole instances."""

    def __init__(self, setting, source, **options):
        self._clean: Hint = set()
        self._canonical_atoms: FrozenSet[Atom] = frozenset()
        options.setdefault("ledger", ScanLedger())
        super().__init__(setting, source, **options)

    def apply(self, delta):
        counter("incremental.applies").inc()
        insertions, deletions = delta.effective(self.source)
        if not insertions and not deletions:
            return self.result
        new_source = self.source.copy()
        for atom in deletions:
            new_source.discard(atom)
        for atom in insertions:
            new_source.add(atom)
        self.setting.validate_source(new_source)
        if self._needs_full(deletions):
            counter("incremental.full_fallbacks").inc()
            self.ledger.clear()
            self.source = new_source
            self._factory = NullFactory.above(new_source.active_domain())
            return self._solve_initial()
        cone: Tuple[Atom, ...] = ()
        seeds: List[Atom] = []
        if deletions:
            cone = tuple(sorted(self.ledger.downstream_cone(deletions)))
            removed = [a for a in cone if self._chase.discard(a)]
            self.ledger.record_deletion("incremental", removed)
            seeds = rederivation_seeds_scan(self, cone)
        for atom in insertions:
            self._chase.add(atom)
        initial = sorted(set(insertions).union(seeds))
        self.ledger.record_source(self._chase)
        with recording(self.ledger):
            outcome = seminaive_chase(
                self._chase,
                self._dependencies,
                max_steps=self.max_steps,
                null_factory=self._factory,
                initial_delta=initial,
            )
        self.source = new_source
        return self._finish(outcome, since=0)

    def _finish(self, outcome, *, since):
        if outcome.status is ChaseStatus.DIVERGED:
            self._failed = True
            raise ChaseDivergence(outcome.steps, outcome.reason)
        self._chase = outcome.instance
        if outcome.status is ChaseStatus.FAILURE:
            self._failed = True
            self._canonical_atoms = frozenset()
            self._clean.clear()
            self.result = ExchangeResult(
                self.setting, self.source.copy(), None, None, outcome.steps
            )
            return self.result
        self._failed = False
        canonical = self._chase.reduct(self.setting.target_schema)
        new_atoms = frozenset(canonical)
        if since is None:
            self._clean.clear()
        else:
            self._clean = drop_touched_oracle(
                self._clean, new_atoms - self._canonical_atoms
            )
        with recording(self.ledger):
            core_instance = core_with_hint(canonical, self._clean)
        self._canonical_atoms = new_atoms
        self.result = ExchangeResult(
            self.setting, self.source.copy(), canonical, core_instance, outcome.steps
        )
        return self.result
