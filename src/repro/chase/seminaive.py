"""Semi-naive standard chase: delta-driven trigger discovery.

The batched engine in :mod:`repro.chase.standard` re-enumerates *all*
premise matches on every pass; on long chases most of those matches are
old news.  This engine applies the classic semi-naive idea from Datalog
evaluation: a premise match can be *new* only if it uses at least one
atom added (or rewritten) since the previous pass, so each pass seeds
the matcher from the delta:

    for every premise atom position p of a tgd,
        for every delta atom unifiable with p,
            complete the match against the full instance.

Egd applications rewrite atoms; rewritten atoms re-enter the delta so
matches they enable are found again.  The engine produces a valid
standard chase sequence (every firing is checked against the current
instance), hence for weakly acyclic settings its result is a canonical
universal solution, hom-equivalent to the batched engine's.

``seminaive_chase`` mirrors :func:`repro.chase.standard.standard_chase`'s
signature and verdicts; the benchmark module ``bench_seminaive.py``
races the two.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.atoms import Atom, Substitution, _term_sort_key
from ..core.instance import Instance
from ..core.terms import NullFactory, Value
from ..dependencies.base import Dependency, split_dependencies
from ..dependencies.egd import Egd
from ..dependencies.tgd import Tgd
from ..logic.matching import match
from ..obs import attribution, counter, gauge, span, span_stats
from ..obs.provenance import active_ledger
from .result import ChaseOutcome, ChaseStatus, ChaseStep

DEFAULT_MAX_STEPS = 200_000


def _unify_seed(pattern: Atom, fact: Atom) -> Optional[Dict]:
    """Bindings from matching one premise atom against one delta fact."""
    if pattern.relation != fact.relation:
        return None
    bound: Dict = {}
    for pattern_arg, fact_arg in zip(pattern.args, fact.args):
        if isinstance(pattern_arg, Value):
            if pattern_arg != fact_arg:
                return None
        else:
            known = bound.get(pattern_arg)
            if known is None:
                bound[pattern_arg] = fact_arg
            elif known != fact_arg:
                return None
    return bound


def _seed_decomposition(tgd: Tgd) -> Optional[Tuple]:
    """Per-tgd delta-join plan, computed once per chase run.

    For every premise-atom position ``p`` the pair ``(pattern_p, rest_p)``
    where ``rest_p`` is the premise without position ``p``.  The same
    tuple objects are reused across every pass, so the completion join
    for each seed position compiles exactly once and every later pass is
    a pure plan-cache hit (keyed by the seed atom's bound-variable set).
    Returns None for FO premises, which have no atom list to seed from.
    """
    if tgd.premise_atoms is None:
        return None
    atoms = tgd.premise_atoms
    return tuple(
        (atoms[i], atoms[:i] + atoms[i + 1 :]) for i in range(len(atoms))
    )


def _delta_matches(
    tgd: Tgd,
    instance: Instance,
    delta: Sequence[Atom],
    seeds: Optional[Tuple] = None,
) -> List[Substitution]:
    """Premise matches of ``tgd`` that use at least one delta atom.

    Deduplicated across seed positions (a match touching two delta atoms
    would otherwise be found twice) and sorted by binding, so the firing
    order -- and with it the null numbering -- depends only on the
    instance's content, never on set iteration order.  ``seeds`` is the
    precomputed :func:`_seed_decomposition`; omitted, it is derived on
    the fly.
    """
    variables = tuple(tgd.frontier) + tuple(tgd.premise_only)
    found: Dict[Tuple[Value, ...], Substitution] = {}
    if tgd.premise_atoms is None:
        # FO premise (s-t tgd): fires only off source atoms; if the
        # delta contains any premise relation, fall back to a full scan.
        relations = {r.name for r in tgd.premise_relations()}
        if any(fact.relation.name in relations for fact in delta):
            for completed in tgd.premise_matches(instance):
                found.setdefault(completed.as_tuple(variables), completed)
    else:
        if seeds is None:
            seeds = _seed_decomposition(tgd)
        for pattern, rest in seeds:
            for fact in delta:
                bound = _unify_seed(pattern, fact)
                if bound is None:
                    continue
                initial = Substitution(bound)
                for completed in match(rest, instance, initial=initial):
                    found.setdefault(completed.as_tuple(variables), completed)
    if len(found) < 2:
        return list(found.values())
    return [found[key] for key in sorted(found, key=_binding_order)]


def _binding_order(binding: Tuple[Value, ...]) -> Tuple:
    return tuple(map(_term_sort_key, binding))


def seminaive_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: bool = False,
    null_factory: Optional[NullFactory] = None,
    initial_delta: Optional[Sequence[Atom]] = None,
    in_place: bool = False,
) -> ChaseOutcome:
    """Standard chase with semi-naive trigger discovery.

    Same contract as :func:`repro.chase.standard.standard_chase`.  Every
    round fires each tgd's triggers in binding order, whatever the order
    of the delta, so the chase -- null numbering and provenance records
    included -- is a function of the input's content, independent of
    ``PYTHONHASHSEED``.

    ``initial_delta`` seeds the first delta round with a subset of the
    instance instead of all of it -- the incremental re-solve path
    (:mod:`repro.incremental`) passes just the edited atoms (plus the
    re-derivation frontier) so a continuation chase only inspects
    triggers that can involve them.  Only those atoms can then be new
    to an active provenance ledger: the rest of the instance is the
    state an earlier recorded chase left.  ``None`` (the default) keeps
    the from-scratch behavior.  Egds are still checked globally every
    round, so an edit that enables a merge is never missed.

    ``in_place`` chases ``instance`` itself instead of a copy (the
    outcome's instance is then ``instance``) and leaves the
    ``instance.nulls`` gauge, which needs a pass over the instance, to
    the caller.
    """
    tgds, egds = split_dependencies(list(dependencies))
    # Delta-join decompositions, once per run: each (seed, rest) pair
    # keeps its identity across passes so completions hit the plan cache.
    seed_plans = {id(tgd): _seed_decomposition(tgd) for tgd in tgds}
    current = instance if in_place else instance.copy()
    factory = null_factory or current.null_factory()
    steps = 0
    nulls_created = 0
    log: List[ChaseStep] = []
    delta: List[Atom] = (
        list(current)
        if initial_delta is None
        else [item for item in initial_delta if item in current]
    )
    started = time.perf_counter()
    firings = counter("chase.tgd_firings")
    merges = counter("chase.egd_merges")
    null_count = counter("chase.nulls_created")
    ledger = active_ledger()  # None by default: recording is opt-in
    if ledger is not None:
        ledger.record_source(current if initial_delta is None else delta)
    peak_atoms = len(current)

    def finish(status: ChaseStatus, reason: str = "") -> ChaseOutcome:
        gauge("chase.steps_to_fixpoint").set(steps)
        if not in_place:
            gauge("instance.nulls").set(len(current.nulls()))
        gauge("chase.peak_atoms").set(max(peak_atoms, len(current)))
        gauge("chase.instance_size").set(len(current))
        return ChaseOutcome(
            status,
            current,
            steps,
            log,
            reason,
            elapsed_seconds=time.perf_counter() - started,
            nulls_created=nulls_created,
            rounds=round_index,
        )

    def out_of_budget() -> ChaseOutcome:
        return finish(
            ChaseStatus.DIVERGED,
            f"semi-naive chase exceeded {max_steps} steps",
        )

    with span("chase.seminaive"):
        # Phase timing only (egds vs tgds), once per outer iteration --
        # same overhead-budget reasoning as the batched engine.
        egd_stats = span_stats("egds") if egds else None
        tgd_stats = span_stats("tgds")
        attributing = attribution.enabled()
        round_index = 0
        while True:
            # Egd fixpoint first; rewritten atoms re-enter the delta.
            if egd_stats is not None:
                pass_started = time.perf_counter()
                merges_before = steps
                failed, steps, merged_atoms = _egd_fixpoint(
                    current,
                    egds,
                    steps,
                    max_steps,
                    log if trace else None,
                    ledger,
                    round_index=round_index if attributing else None,
                )
                egd_stats.record(time.perf_counter() - pass_started)
                merges.inc(steps - merges_before)
                if failed == "failed":
                    return finish(
                        ChaseStatus.FAILURE,
                        "an egd equated two distinct constants",
                    )
                if failed == "budget":
                    return out_of_budget()
                delta.extend(merged_atoms)
            elif steps >= max_steps:
                return out_of_budget()

            if not delta:
                return finish(ChaseStatus.SUCCESS)

            new_delta: List[Atom] = []
            pass_started = time.perf_counter()
            try:
                for tgd in tgds:
                    dep_started = time.perf_counter() if attributing else 0.0
                    dep_firings = 0
                    dep_nulls = 0
                    triggers = _delta_matches(
                        tgd, current, delta, seed_plans[id(tgd)]
                    )
                    for premise_match in triggers:
                        if steps >= max_steps:
                            return out_of_budget()
                        if tgd.conclusion_holds(current, premise_match):
                            continue
                        witnesses = factory.fresh_tuple(len(tgd.existential))
                        added = tgd.conclusion_atoms_under(
                            premise_match, witnesses
                        )
                        fresh = [atom for atom in added if current.add(atom)]
                        new_delta.extend(fresh)
                        steps += 1
                        firings.inc()
                        dep_firings += 1
                        dep_nulls += len(witnesses)
                        nulls_created += len(witnesses)
                        null_count.inc(len(witnesses))
                        if ledger is not None:
                            ledger.record_firing(
                                "seminaive",
                                tgd,
                                premise_match,
                                fresh,
                                witnesses,
                            )
                        if trace:
                            binding = tuple(
                                (variable.name, premise_match[variable])
                                for variable in tgd.frontier + tgd.premise_only
                            )
                            log.append(
                                ChaseStep(
                                    "tgd", tgd, binding=binding, added=fresh
                                )
                            )
                    if attributing and (triggers or dep_firings):
                        attribution.record_dependency(
                            attribution.dep_label(tgd),
                            round_index=round_index,
                            triggers=len(triggers),
                            firings=dep_firings,
                            nulls=dep_nulls,
                            seconds=time.perf_counter() - dep_started,
                        )
            finally:
                tgd_stats.record(time.perf_counter() - pass_started)
            peak_atoms = max(peak_atoms, len(current))
            attribution.beat(
                engine="seminaive",
                round_index=round_index,
                steps=steps,
                instance_size=len(current),
                nulls_created=nulls_created,
            )
            round_index += 1
            delta = new_delta


def _egd_fixpoint(
    instance: Instance,
    egds: Sequence[Egd],
    steps: int,
    max_steps: int,
    log: Optional[List[ChaseStep]],
    ledger=None,
    round_index: Optional[int] = None,
) -> Tuple[str, int, List[Atom]]:
    """Apply egds to fixpoint; returns (verdict, steps, rewritten atoms).

    Verdict is "ok", "failed" or "budget".  Rewritten atoms are those
    containing the surviving value of any merge -- a superset of the
    atoms whose shape changed, which is what delta correctness needs.
    Each scan lists the violations of the first violated egd once and
    merges them in sorted order; the egds are scanned again when the
    batch is used up.  ``round_index`` is non-None only under attributed
    execution and switches on per-egd timing and merge attribution.
    """
    attributing = round_index is not None
    rewritten: List[Atom] = []
    while True:
        if steps >= max_steps:
            return "budget", steps, rewritten
        batch = None
        dep_started = time.perf_counter() if attributing else 0.0
        for egd in egds:
            # Every violation of the first violated egd, least first: which
            # merge happens first must not depend on set iteration order.
            pairs = sorted(egd.violations(instance), key=_binding_order)
            if pairs:
                batch = (egd, pairs)
                break
            if attributing:
                now = time.perf_counter()
                attribution.record_dependency(
                    attribution.dep_label(egd),
                    round_index=round_index,
                    seconds=now - dep_started,
                )
                dep_started = now
        if batch is None:
            return "ok", steps, rewritten
        egd, pairs = batch
        merged: Dict[Value, Value] = {}
        for left, right in pairs:
            # A merge maps the instance onto its image, so a pair renamed
            # by this batch's earlier merges still violates the egd --
            # unless the renaming already equated it.
            left, right = _renamed(merged, left), _renamed(merged, right)
            if left == right:
                continue
            if steps >= max_steps:
                return "budget", steps, rewritten
            direction = Egd.merge_direction(left, right)
            if direction is None:
                return "failed", steps, rewritten
            old, new = direction
            instance.replace_value(old, new)
            merged[old] = new
            steps += 1
            if attributing:
                now = time.perf_counter()
                attribution.record_dependency(
                    attribution.dep_label(egd),
                    round_index=round_index,
                    triggers=1,
                    merges=1,
                    seconds=now - dep_started,
                )
                dep_started = now
            if ledger is not None:
                ledger.record_merge("seminaive", egd, old, new)
            if log is not None:
                log.append(ChaseStep("egd", egd, merged=(old, new)))
            for atom in instance:
                if new in atom.args:
                    rewritten.append(atom)


def _renamed(merged: Dict[Value, Value], value: Value) -> Value:
    """``value`` after the merges recorded in ``merged`` (old -> new)."""
    while value in merged:
        value = merged[value]
    return value
