"""The core, computed block by block in place.

The *Gaifman blocks* of an instance are the connected components of its
nulls under co-occurrence in an atom.  Every atom that carries a null
has all its nulls in one block and is *owned* by that block; ground
atoms are owned by none and never drop (homomorphisms fix constants).
A *block fold* maps one block's nulls, and nothing else, so that the
block's owned atoms land in the instance minus one of them.

:func:`blockwise_core` copies its input once, indexes every block's
owned atoms in one pass, and folds each block in place, in block order,
until it no longer folds: drop one owned atom, search for the block's
pattern in the live instance (:func:`~repro.logic.matching.first_match`),
put the atom back, and on a match discard the owned atoms outside the
image.  For canonical solutions of weakly acyclic settings the blocks
are small, which is what makes the core polynomial (Prop. 6.6; FKP,
"getting to the core").  The result is exactly the core, with no
closing global check:

* If h is a proper endomorphism, then h restricted to some single block
  (identity elsewhere) is also proper: were every restriction onto,
  every block's owned atoms would lie in their own image and h would be
  onto.  So an instance is a core iff no block folds.
* A block fold removes only atoms owned by that block -- its images are
  already present -- so no other block's owned set changes and the
  instance only shrinks.  A block that stops folding at its turn never
  folds later, and one pass in block order reaches a fixpoint.

The folding :func:`~repro.homomorphism.core_computation.core` is the
test oracle.  Two variations ride on the same pass.

**Pool.**  With a parallel ``executor``, the value components go to the
pool when every component carries a constant.  A homomorphism maps each
component into a single component, and a constant pins that image to
the component itself, so the core is the union of the components'
cores.  An all-null component could fold into any other, so then the
pass runs in-process; so it does while a provenance ledger records
(retractions cannot cross the process boundary).

**Live core.**  A :class:`LiveCore` keeps the block index and the
core of a changing canonical solution between passes
(:class:`~repro.incremental.DeltaSession`).  Each pass then folds only
the blocks not marked *clean*: a block is clean when it was unfoldable
at its turn and neither the diff changed its owned atoms nor an added
atom could be a fold image of one of them.  A fold of a clean block at
its new turn, composed with the folds the recording pass made before
that block's turn, is a fold at its recorded turn -- unless one of
those folds mapped a null into another block.  So a *crossing* fold
clears every mark, and a pass that skipped blocks and saw one reruns
with no skips (``incremental.core_fallbacks``).
"""

from __future__ import annotations

import time
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..core.atoms import Atom, _term_sort_key
from ..core.instance import Instance
from ..core.terms import Null, Value, Variable
from ..logic.matching import attributed, first_match
from ..obs import attribution, counter, span
from ..obs.provenance import active_ledger
from .core_computation import _FOLDS, _RETRACTS

_SKIPPED = counter("incremental.blocks_skipped")
_REMINIMIZED = counter("incremental.blocks_reminimized")
_CORE_FALLBACKS = counter("incremental.core_fallbacks")


def _group(atoms: Collection[Atom]) -> Dict[Null, List[Atom]]:
    """Block -> its sorted owned atoms, keyed by the block's least null."""
    parent: Dict[Null, Null] = {}

    def find(item: Null) -> Null:
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    for atom in atoms:
        nulls = [value for value in atom.args if isinstance(value, Null)]
        for item in nulls:
            parent.setdefault(item, item)
        for other in nulls[1:]:
            left, right = find(nulls[0]), find(other)
            if left != right:
                # The smaller root wins: a root is its block's least null.
                if right < left:
                    left, right = right, left
                parent[right] = left
    owned: Dict[Null, List[Atom]] = {}
    for atom in atoms:
        for value in atom.args:
            if isinstance(value, Null):
                owned.setdefault(find(value), []).append(atom)
                break
    for group in owned.values():
        group.sort()
    return owned


def _blocks(instance: Instance) -> List[List[Atom]]:
    """Every block's sorted owned atoms, ordered by the block's least null."""
    owned = _group(instance)
    return [owned[root] for root in sorted(owned)]


def null_blocks(instance: Instance) -> List[FrozenSet[Null]]:
    """Connected components of nulls under atom co-occurrence.

    Deterministic order (by smallest null identifier per block).
    """
    return [
        frozenset(item for atom in owned for item in atom.nulls)
        for owned in _blocks(instance)
    ]


def block_statistics(instance: Instance) -> Dict[str, float]:
    """Block census for diagnostics and benchmarks."""
    blocks = null_blocks(instance)
    if not blocks:
        return {"blocks": 0, "largest": 0, "average": 0.0}
    sizes = [len(block) for block in blocks]
    return {
        "blocks": len(blocks),
        "largest": max(sizes),
        "average": sum(sizes) / len(sizes),
    }


def _pattern(owned: List[Atom]) -> Tuple[Tuple[Atom, ...], Dict]:
    """The owned atoms with the block's nulls as variables.

    Every null of an owned atom belongs to the block; other values stay
    rigid, so a match extended by the identity is an endomorphism.
    """
    to_variable: Dict[Null, Variable] = {}
    for atom in owned:
        for value in atom.args:
            if isinstance(value, Null) and value not in to_variable:
                to_variable[value] = Variable(f"_b{value.ident}")
    pattern = tuple(
        Atom(atom.relation, tuple(to_variable.get(v, v) for v in atom.args))
        for atom in owned
    )
    return pattern, {variable: item for item, variable in to_variable.items()}


def _find_fold(
    current: Instance, owned: List[Atom], least: bool = False
) -> Optional[Dict[Null, Value]]:
    """A block fold of ``owned`` in ``current``, or None.

    Drops each owned atom in turn, searches, and puts it back, so
    ``current`` ends as it began.  The fold is the first match found,
    or with ``least`` the least one in null order (:func:`_least_match`):
    then the choice depends only on the instance's content, not on the
    iteration order of its index buckets.
    """
    pattern, back = _pattern(owned)
    for atom in owned:
        current.discard(atom)
        _RETRACTS.inc()
        with attributed("hom"):
            found = first_match(pattern, current)
            if found is not None and least:
                found = _least_match(
                    pattern, sorted(back, key=back.__getitem__), current
                )
        current.add(atom)
        if found is not None:
            _FOLDS.inc()
            return {back[variable]: value for variable, value in found.items()}
    return None


def _least_match(
    pattern: Tuple[Atom, ...], variables: List[Variable], current: Instance
) -> Optional[Dict[Variable, Value]]:
    """The least match of ``pattern`` in ``current``, comparing matches
    by their values at ``variables`` in turn (every variable of
    ``pattern``, each in at least one atom).

    A depth-first search that binds ``variables`` in order and tries
    each one's candidates in ascending value order, so the first
    complete match it reaches is the least; it stops there.  A
    candidate occurs in a fact of every atom mentioning the variable
    that agrees with the atom's constants and bound variables, which
    at an atom's last variable is exactly its membership test.
    """
    mentions = {
        variable: [atom for atom in pattern if variable in atom.args]
        for variable in variables
    }
    binding: Dict[Variable, Value] = {}

    def candidates(variable: Variable) -> List[Value]:
        values: Optional[Set[Value]] = None
        for atom in mentions[variable]:
            name = atom.relation.name
            facts = current.probe_relation(name)
            for position, term in enumerate(atom.args):
                fixed = binding.get(term) if isinstance(term, Variable) else term
                if fixed is not None:
                    facts = current.probe_position(name, position, fixed)
                    break
            found: Set[Value] = set()
            for fact in facts:
                value = _agreeing(atom, fact, variable, binding)
                if value is not None:
                    found.add(value)
            values = found if values is None else values & found
            if not values:
                return []
        return sorted(values, key=_term_sort_key)

    stack = [iter(candidates(variables[0]))]
    while stack:
        variable = variables[len(stack) - 1]
        value = next(stack[-1], None)
        if value is None:
            stack.pop()
            binding.pop(variable, None)
            continue
        binding[variable] = value
        if len(stack) == len(variables):
            return binding
        stack.append(iter(candidates(variables[len(stack)])))
    return None


def _agreeing(
    atom: Atom, fact: Atom, variable: Variable, binding: Dict[Variable, Value]
) -> Optional[Value]:
    """The value ``fact`` gives ``variable`` if it agrees with ``atom``
    at every constant and bound position, else None."""
    value = None
    for term, given in zip(atom.args, fact.args):
        if term == variable:
            if value is None:
                value = given
            elif value != given:
                return None
        elif isinstance(term, Variable):
            bound = binding.get(term)
            if bound is not None and bound != given:
                return None
        elif term != given:
            return None
    return value


def _fold_block(
    current: Instance, owned: List[Atom], least: bool = False
) -> Tuple[bool, bool]:
    """Fold one block in place until it stops; ``(folded, crossed)``."""
    folded = crossed = False
    while owned:
        mapping = _find_fold(current, owned, least)
        if mapping is None:
            break
        # The mapping's keys are exactly the block's nulls.
        crossed = crossed or any(
            isinstance(value, Null) and value not in mapping
            for value in mapping.values()
        )
        images = {atom.rename_values(mapping) for atom in owned}
        dropped = [atom for atom in owned if atom not in images]
        for atom in dropped:
            current.discard(atom)
        ledger = active_ledger()
        if ledger is not None:
            ledger.record_retraction("blockwise", dropped, mapping)
        owned = [atom for atom in owned if atom in images]
        folded = True
    return folded, crossed


def _minimize(current: Instance, blocks: List[List[Atom]]) -> None:
    """Fold every block of ``current`` in place, in block order."""
    for owned in blocks:
        _fold_block(current, owned)


class _Touch:
    """The owned atoms of the clean blocks, by constant skeleton.

    A block fold maps only the block's nulls, so an image of an owned
    atom shares its relation and its constant positions.  Each owned
    atom is filed under its first constant cell ``(relation, position,
    value)``, or under its relation when it has no constant, so
    :meth:`hit` tests an added atom only against the owned atoms that
    agree with it there.
    """

    def __init__(self):
        self._cells: Dict[tuple, Set[Tuple[Atom, Hashable]]] = {}

    @staticmethod
    def _cell(atom: Atom) -> tuple:
        for position, value in enumerate(atom.args):
            if not isinstance(value, Null):
                return (atom.relation, position, value)
        return (atom.relation,)

    def add(self, key: Hashable, owned: Iterable[Atom]) -> None:
        for atom in owned:
            self._cells.setdefault(self._cell(atom), set()).add((atom, key))

    def remove(self, key: Hashable, owned: Iterable[Atom]) -> None:
        for atom in owned:
            cell = self._cell(atom)
            entries = self._cells[cell]
            entries.discard((atom, key))
            if not entries:
                del self._cells[cell]

    def clear(self) -> None:
        self._cells.clear()

    def hit(self, added: Iterable[Atom]) -> Set[Hashable]:
        """The keys owning an atom some ``added`` atom could be an image of."""
        keys: Set[Hashable] = set()
        cells = self._cells
        for candidate in added:
            relation = candidate.relation
            probes = [(relation,)]
            probes.extend(
                (relation, position, value)
                for position, value in enumerate(candidate.args)
            )
            for cell in probes:
                for atom, key in cells.get(cell, ()):
                    if key not in keys and _may_image(candidate, atom):
                        keys.add(key)
        return keys


def _may_image(candidate: Atom, owned: Atom) -> bool:
    """Does ``candidate`` agree with ``owned`` at every constant position?"""
    return all(
        isinstance(owned_arg, Null) or candidate_arg == owned_arg
        for candidate_arg, owned_arg in zip(candidate.args, owned.args)
    )


class LiveCore:
    """The core of a changing canonical solution, kept between passes.

    Holds the live ``core`` (the canonical solution minus the atoms the
    last pass dropped) and the block index: ``_root`` maps each null to
    its block's least null, ``_owned`` each block to its sorted owned
    atoms in the canonical solution.  Every block is *clean* (skipped by
    the next pass; its owned atoms are filed in ``_touch``) or *dirty*.
    :meth:`stage` applies a canonical-solution diff;
    :func:`blockwise_core` then runs the pass.  A fresh or
    :meth:`reset` state is built from the instance of the next pass.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Forget everything: the next pass starts from scratch."""
        self.core: Optional[Instance] = None
        self._root: Dict[Null, Null] = {}
        self._owned: Dict[Null, List[Atom]] = {}
        self._clean: Set[Null] = set()
        self._dirty: Set[Null] = set()
        self._touch = _Touch()

    def nulls(self) -> int:
        """How many nulls the canonical solution holds."""
        return len(self._root)

    def __contains__(self, atom: Atom) -> bool:
        """Is ``atom`` in the canonical solution this state describes?"""
        for value in atom.args:
            if isinstance(value, Null):
                root = self._root.get(value)
                return root is not None and atom in self._owned[root]
        return atom in self.core

    def stage(self, added: Iterable[Atom], removed: Iterable[Atom]) -> None:
        """Move to the canonical solution plus ``added`` minus ``removed``.

        Unmarks every clean block an added atom could be a fold image of,
        and regroups the blocks that own a removed atom or share a null
        with an added one; the regrouped blocks are dirty.
        """
        added, removed = list(added), list(removed)
        for root in self._touch.hit(added):
            self._unmark(root)
        region: Set[Atom] = set()
        for atom in added + removed:
            for value in atom.args:
                root = self._root.get(value) if isinstance(value, Null) else None
                if root is not None and root in self._owned:
                    self._unmark(root)
                    self._dirty.discard(root)
                    region.update(self._owned.pop(root))
        for atom in region:
            for value in atom.args:
                self._root.pop(value, None)
        for atom in removed:
            self.core.discard(atom)
            region.discard(atom)
        for atom in added:
            self.core.add(atom)
            if atom.nulls:
                region.add(atom)
        self._file(_group(region))

    def _file(self, groups: Dict[Null, List[Atom]]) -> None:
        """Index freshly grouped blocks, all dirty."""
        for root, owned in groups.items():
            self._owned[root] = owned
            self._dirty.add(root)
            for atom in owned:
                for value in atom.args:
                    if isinstance(value, Null):
                        self._root[value] = root

    def _unmark(self, root: Null) -> None:
        if root in self._clean:
            self._clean.discard(root)
            self._touch.remove(root, self._owned[root])
            self._dirty.add(root)

    def minimize(self, instance: Instance) -> Instance:
        """One pass (see :func:`blockwise_core`); a snapshot of the core."""
        if self.core is None:
            self.core = instance.copy()
            self._file(_group(self.core))
        skipped = len(self._clean)
        _SKIPPED.inc(skipped)
        if self._fold_dirty() and skipped:
            _CORE_FALLBACKS.inc()
            self._fold_dirty()
        return self.core.copy()

    def _fold_dirty(self) -> bool:
        """Restore and fold the dirty blocks in least-null order; crossed?"""
        order = sorted(self._dirty)
        core = self.core
        for root in order:
            core.add_all(atom for atom in self._owned[root] if atom not in core)
        crossed = False
        folded: Set[Null] = set()
        for root in order:
            _REMINIMIZED.inc()
            did, block_crossed = _fold_block(self.core, self._owned[root], True)
            crossed = crossed or block_crossed
            if did:
                folded.add(root)
        if crossed:
            self._clean.clear()
            self._touch.clear()
            self._dirty = set(self._owned)
            return True
        for root in order:
            if root not in folded:
                self._clean.add(root)
                self._touch.add(root, self._owned[root])
        self._dirty = folded
        return False


def _minimize_components(
    components: Tuple[Instance, ...]
) -> Tuple[Instance, ...]:
    """Worker task: minimize each value component of one group in place."""
    for component in components:
        started = time.perf_counter()
        size = len(component)
        blocks = _blocks(component)
        counter("core.blocks_parallel").inc(len(blocks))
        _minimize(component, blocks)
        if attribution.enabled():
            attribution.record_component(
                "core.partition",
                size=size,
                steps=size - len(component),
                seconds=time.perf_counter() - started,
            )
    return components


def _group_components(
    components: List[Instance], groups: int
) -> List[Tuple[Instance, ...]]:
    """At most ``groups`` contiguous groups of roughly equal atom count.

    Contiguous assignment keeps the layout deterministic; balancing by
    atom count (not component count) evens out skewed instances.
    """
    groups = max(1, min(groups, len(components)))
    target = sum(len(component) for component in components) / groups
    out: List[Tuple[Instance, ...]] = []
    bucket: List[Instance] = []
    weight = 0
    for component in components:
        bucket.append(component)
        weight += len(component)
        if weight >= target and len(out) < groups - 1:
            out.append(tuple(bucket))
            bucket, weight = [], 0
    if bucket:
        out.append(tuple(bucket))
    return out


def _core_on_pool(instance: Instance, executor) -> Optional[Instance]:
    """The core from per-component minimization on the pool, or None
    when the guard fails or there is nothing to spread."""
    components = instance.components()
    if not all(any(atom.constants for atom in c) for c in components):
        return None
    result, foldable = Instance(), []
    for component in components:
        if component.nulls():
            foldable.append(component)
        else:
            result.add_all(component)
    if len(foldable) < 2:
        return None
    groups = _group_components(foldable, executor.workers * 2)
    for group in executor.map_tasks(
        _minimize_components,
        [(group,) for group in groups],
        label="core.partition",
    ):
        for component in group:
            result.add_all(component)
    return result


def blockwise_core(
    instance: Instance,
    executor=None,
    *,
    live: Optional[LiveCore] = None,
) -> Instance:
    """The core of ``instance`` (exact; see the module docstring).

    ``executor`` is a :class:`repro.engine.Executor` or None.  With
    ``live``, the pass folds only the state's dirty blocks of the
    canonical solution it was staged to; ``instance`` must be that
    canonical solution, and is read only when the state is empty.
    ``instance`` itself is never modified, and the returned core is
    independent of both.
    """
    with span("core.blockwise"):
        if live is not None:
            return live.minimize(instance)
        if executor is not None and executor.parallel and active_ledger() is None:
            pooled = _core_on_pool(instance, executor)
            if pooled is not None:
                return pooled
        current = instance.copy()
        _minimize(current, _blocks(current))
        return current


def _maps_into(source: Instance, target: Instance) -> bool:
    """True iff a homomorphism ``source → target`` exists.

    Searched block by block: the blocks share no nulls, so independent
    per-block matches combine into one homomorphism.
    """
    return all(atom in target for atom in source if not atom.nulls) and all(
        first_match(_pattern(owned)[0], target) is not None
        for owned in _blocks(source)
    )


def is_core(instance: Instance) -> bool:
    """True iff the instance equals its own core: no block folds."""
    working = instance.copy()
    return all(
        _find_fold(working, owned) is None for owned in _blocks(working)
    )


def retracts_to(instance: Instance, candidate: Instance) -> bool:
    """True iff ``candidate`` is the (unique) core of ``instance``.

    Requires candidate ⊆ instance, a homomorphism instance → candidate,
    and candidate being a core itself.
    """
    return (
        candidate.issubset(instance)
        and _maps_into(instance, candidate)
        and is_core(candidate)
    )
