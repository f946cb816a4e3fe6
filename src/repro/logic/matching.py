"""Matching conjunctions of relational atoms.

One matcher powers the whole library:

* evaluating tgd and egd premises during the chase,
* evaluating conjunctive queries,
* finding homomorphisms (an instance is matched as the canonical query of
  itself, cf. Chandra-Merlin, reference [3] of the paper).

The matcher enumerates all substitutions ``θ`` of the pattern variables by
values of the instance such that every pattern atom ``A`` satisfies
``θ(A) ∈ I`` and every inequality ``s ≠ t`` satisfies ``θ(s) ≠ θ(t)``.

``match()`` has one route: :func:`repro.logic.plans.plan_for` compiles
each distinct (pattern, inequalities, pre-bound variables) triple once
-- static fail-first join order, slot arrays, index-probe programs,
O(1) ground probes -- and :meth:`repro.logic.plans.CompiledPattern
.matches` executes it.  The executor always counts candidates and
backtracks; inside an :class:`attributed` block ``match()`` flushes
those counts into the block's counter pair.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..core.atoms import Atom, Substitution
from ..core.instance import Instance
from ..core.terms import Term, Value, Variable
from ..obs import Counter, counter
from . import plans

Inequality = Tuple[Term, Term]

# Telemetry attribution.  The matcher serves several masters (chase
# premise evaluation, query evaluation, homomorphism search), so its
# counts are published per call site: an ``attributed`` block installs a
# counter pair (``<scope>.candidates`` / ``<scope>.backtracks``) that
# match() flushes the executor's counts into.  Outside any block the
# counts are dropped.
#
# The registry is a bounded LRU of *handles*: the counters themselves
# live in the repro.obs registry; evicting a handle here only means the
# next use of that scope re-fetches it.  Long-running multi-scenario
# processes (one scope per scenario name, say) therefore cannot grow
# this dict without limit.
_SCOPE_LIMIT = 64
_SCOPE_COUNTERS: "OrderedDict[str, Tuple[Counter, Counter]]" = OrderedDict()

#: The counter pair of the innermost ``attributed`` block, or None.
_ACTIVE_COUNTERS: Optional[Tuple[Counter, Counter]] = None


def _scope_counters(scope: str) -> Tuple[Counter, Counter]:
    pair = _SCOPE_COUNTERS.get(scope)
    if pair is None:
        pair = (counter(scope + ".candidates"), counter(scope + ".backtracks"))
        _SCOPE_COUNTERS[scope] = pair
        if len(_SCOPE_COUNTERS) > _SCOPE_LIMIT:
            _SCOPE_COUNTERS.popitem(last=False)
    else:
        _SCOPE_COUNTERS.move_to_end(scope)
    return pair


class attributed:
    """Count matcher work under ``scope`` within the block.

    A hand-rolled context manager (not ``@contextmanager``) because it
    wraps individual homomorphism searches -- core folding enters it
    once per retract attempt.
    """

    __slots__ = ("_scope", "_previous")

    def __init__(self, scope: str):
        self._scope = scope

    def __enter__(self) -> None:
        global _ACTIVE_COUNTERS
        self._previous = _ACTIVE_COUNTERS
        _ACTIVE_COUNTERS = _scope_counters(self._scope)

    def __exit__(self, *exc_info) -> bool:
        global _ACTIVE_COUNTERS
        _ACTIVE_COUNTERS = self._previous
        return False


def match(
    patterns: Sequence[Atom],
    instance: Instance,
    *,
    initial: Optional[Substitution] = None,
    inequalities: Sequence[Inequality] = (),
) -> Iterator[Substitution]:
    """Enumerate all substitutions matching ``patterns`` inside ``instance``.

    ``initial`` pre-binds some variables (used when chasing: the premise
    variables are matched, then the conclusion is matched with them fixed).
    ``inequalities`` are checked as soon as both sides become bound, so
    they prune the search rather than filter afterwards.

    Yields complete substitutions covering every variable of ``patterns``
    (plus whatever ``initial`` already bound).
    """
    bound: Dict[Variable, Value] = {}
    if initial is not None:
        for variable, term in initial.items():
            if not isinstance(term, Value):
                raise TypeError(
                    f"initial substitution must map to values, got {term!r}"
                )
            bound[variable] = term

    plan = plans.plan_for(patterns, inequalities, bound)
    counters = _ACTIVE_COUNTERS
    if counters is None:
        yield from plan.matches(instance, bound)
        return
    counts = [0, 0]
    try:
        yield from plan.matches(instance, bound, counts)
    finally:
        # Flushed exactly once, also when the consumer stops early
        # (generator close) -- first_match and exists_match do.
        if counts[0]:
            candidate_counter, backtrack_counter = counters
            candidate_counter.value += counts[0]
            backtrack_counter.value += counts[1]


def exists_match(
    patterns: Sequence[Atom],
    instance: Instance,
    *,
    initial: Optional[Substitution] = None,
    inequalities: Sequence[Inequality] = (),
) -> bool:
    """True if at least one match exists (short-circuits)."""
    for _ in match(
        patterns, instance, initial=initial, inequalities=inequalities
    ):
        return True
    return False


def first_match(
    patterns: Sequence[Atom],
    instance: Instance,
    *,
    initial: Optional[Substitution] = None,
    inequalities: Sequence[Inequality] = (),
) -> Optional[Substitution]:
    """The first match found, or None."""
    for result in match(
        patterns, instance, initial=initial, inequalities=inequalities
    ):
        return result
    return None
