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

**Skip hint.**  ``clean`` holds owned-atom sets an earlier pass found
unfoldable at their turn; blocks owning exactly such a set are skipped,
and on return ``clean`` holds the owned sets of this pass's unfoldable
blocks.  The caller drops every set that a newly added atom could be a
fold image of (:class:`~repro.incremental.DeltaSession`).  A fold of a
kept set at its new turn, composed with the folds the recording pass
made before that set's turn, is a fold at its recorded turn -- unless
one of those folds mapped a null into another block.  So a *crossing*
fold empties the hint, and a pass that skipped blocks and saw one
reruns with no skips (``incremental.core_fallbacks``).
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Null, Value, Variable
from ..logic.matching import attributed, first_match
from ..obs import attribution, counter, span
from ..obs.provenance import active_ledger
from .core_computation import _FOLDS, _RETRACTS

_SKIPPED = counter("incremental.blocks_skipped")
_REMINIMIZED = counter("incremental.blocks_reminimized")
_CORE_FALLBACKS = counter("incremental.core_fallbacks")


def _blocks(instance: Instance) -> List[List[Atom]]:
    """Every block's sorted owned atoms, ordered by the block's least null."""
    parent: Dict[Null, Null] = {}

    def find(item: Null) -> Null:
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    for atom in instance:
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
    for atom in instance:
        for value in atom.args:
            if isinstance(value, Null):
                owned.setdefault(find(value), []).append(atom)
                break
    return [sorted(owned[root]) for root in sorted(owned)]


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
    current: Instance, owned: List[Atom]
) -> Optional[Dict[Null, Value]]:
    """A block fold of ``owned`` in ``current``, or None.

    Drops each owned atom in turn, searches, and puts it back, so
    ``current`` ends as it began.
    """
    pattern, back = _pattern(owned)
    for atom in owned:
        current.discard(atom)
        _RETRACTS.inc()
        with attributed("hom"):
            found = first_match(pattern, current)
        current.add(atom)
        if found is not None:
            _FOLDS.inc()
            return {back[variable]: value for variable, value in found.items()}
    return None


def _fold_block(current: Instance, owned: List[Atom]) -> Tuple[bool, bool]:
    """Fold one block in place until it stops; ``(folded, crossed)``."""
    folded = crossed = False
    while owned:
        mapping = _find_fold(current, owned)
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


def _minimize(
    current: Instance,
    blocks: List[List[Atom]],
    clean: Optional[Set[FrozenSet[Atom]]] = None,
) -> Tuple[bool, bool]:
    """Fold every block of ``current`` in place; ``(crossed, skipped)``.

    With ``clean``, skips the blocks it lists and refreshes it in place
    (see the module docstring).
    """
    crossed = skipped = False
    unfoldable: List[FrozenSet[Atom]] = []
    for owned in blocks:
        if clean is not None:
            key = frozenset(owned)
            if key in clean:
                _SKIPPED.inc()
                unfoldable.append(key)
                skipped = True
                continue
            _REMINIMIZED.inc()
        folded, block_crossed = _fold_block(current, owned)
        crossed = crossed or block_crossed
        if clean is not None and not folded:
            unfoldable.append(key)
    if clean is not None:
        clean.clear()
        if not crossed:
            clean.update(unfoldable)
    return crossed, skipped


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
    clean: Optional[Set[FrozenSet[Atom]]] = None,
) -> Instance:
    """The core of ``instance`` (exact; see the module docstring).

    ``executor`` is a :class:`repro.engine.Executor` or None; ``clean``
    is the incremental skip hint, refreshed in place.  ``instance``
    itself is never modified.
    """
    with span("core.blockwise"):
        if (
            clean is None
            and executor is not None
            and executor.parallel
            and active_ledger() is None
        ):
            pooled = _core_on_pool(instance, executor)
            if pooled is not None:
                return pooled
        current = instance.copy()
        crossed, skipped = _minimize(current, _blocks(current), clean)
        if crossed and skipped:
            _CORE_FALLBACKS.inc()
            return blockwise_core(instance, clean=clean)
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
