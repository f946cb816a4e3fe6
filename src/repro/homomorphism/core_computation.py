"""Core computation by endomorphism folding.

The *core* of an instance I (Hell-Nešetřil, reference [9] of the paper) is
a subinstance J ⊆ I with a homomorphism I → J such that no proper
subinstance of J admits a homomorphism from J.  Every finite instance has
a core, unique up to renaming of nulls.

Algorithm
---------
Repeatedly look for an atom A that can be *folded away*: a homomorphism
from I into I ∖ {A}.  If one exists, replace I by its image (a proper
subinstance missing A) and continue; when no atom can be folded away, I is
its own core:

* if I were not a core there would be a proper endomorphism h with
  h(I) ⊊ I, so some atom A ∈ I ∖ h(I) could be folded away;
* constants are fixed by homomorphisms, so atoms containing only
  constants can never be dropped -- the search skips them.

This is simple and exact, but every search matches a pattern of the
whole instance, so it serves only as the test oracle; the program
computes the core block by block
(:func:`repro.homomorphism.blocks.blockwise_core`).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.atoms import Atom
from ..core.instance import Instance
from ..obs import counter, span
from ..obs.provenance import active_ledger
from .search import canonical_pattern, homomorphism_via_pattern

# Prefetched handles (counters survive ``repro.obs.reset``): fold_step
# runs once per retained atom per fold round, so per-call registry
# lookups would add up on large canonical solutions.
_RETRACTS = counter("core.retract_attempts")
_FOLDS = counter("core.folds")


def _foldable_atoms(instance: Instance) -> List[Atom]:
    """Atoms that could possibly be dropped: those containing a null."""
    return [item for item in instance.sorted_atoms() if item.nulls]


def fold_step(instance: Instance) -> Optional[Instance]:
    """One folding step: return a proper retract of ``instance``, or None.

    Tries to drop each null-containing atom; on success returns the
    *image* of the found homomorphism (which may drop several atoms at
    once, accelerating convergence).

    The canonical pattern of ``instance`` is computed once and reused
    for every retract attempt (each attempt then hits the plan cache),
    and instead of copying the instance per attempt a single working
    copy is mutated -- drop the atom, search, put it back -- so a round
    over n atoms costs one copy, not n.
    """
    foldable = _foldable_atoms(instance)
    if not foldable:
        return None
    pattern, back = canonical_pattern(instance)
    working = instance.copy()
    for item in foldable:
        working.discard(item)
        _RETRACTS.inc()
        mapping = homomorphism_via_pattern(pattern, back, working)
        working.add(item)
        if mapping is not None:
            _FOLDS.inc()
            image = instance.rename_values(mapping)
            ledger = active_ledger()
            if ledger is not None:
                ledger.record_retraction(
                    "folding", set(instance) - set(image), mapping
                )
            return image
    return None


def core(instance: Instance) -> Instance:
    """The core of ``instance`` (up to renaming of nulls, deterministic).

    >>> from repro.logic import parse_instance
    >>> inst = parse_instance("E('a', #1), E('a', 'b')")
    >>> core(inst)
    Instance({E(a, b)})
    """
    with span("core.folding"):
        current = instance.copy()
        while True:
            folded = fold_step(current)
            if folded is None:
                return current
            current = folded
