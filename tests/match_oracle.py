"""Test oracles for the compiled join executor.

:func:`match_interpreted` is the interpreted backtracking matcher the
compiled plans of :mod:`repro.logic.plans` replaced: at each search node
it picks the *most constrained* remaining atom -- the one with the
fewest candidate instance atoms given the current partial substitution
-- using the instance's (relation, position, value) index.  The parity
suite asserts that ``match()`` enumerates the same substitution sets.

:func:`greedy_join_order` is the quadratic greedy loop the plan
compiler's heap order must reproduce exactly.
"""

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.atoms import Atom, Substitution
from repro.core.instance import Instance
from repro.core.terms import Term, Value, Variable

Inequality = Tuple[Term, Term]


def _candidate_count(pattern: Atom, instance: Instance, bound: Dict[Variable, Value]) -> int:
    """Upper bound on the number of instance atoms matching ``pattern``."""
    best = instance.count_of(pattern.relation)
    for position, arg in enumerate(pattern.args):
        if isinstance(arg, Value):
            value = arg
        elif isinstance(arg, Variable) and arg in bound:
            value = bound[arg]
        else:
            continue
        count = instance.count_with(pattern.relation, position, value)
        if count < best:
            best = count
    return best


def _candidates(pattern: Atom, instance: Instance, bound: Dict[Variable, Value]) -> Iterable[Atom]:
    """Instance atoms that could match ``pattern`` under ``bound``."""
    best_key: Optional[Tuple[int, Value]] = None
    best_count = instance.count_of(pattern.relation)
    for position, arg in enumerate(pattern.args):
        if isinstance(arg, Value):
            value = arg
        elif isinstance(arg, Variable) and arg in bound:
            value = bound[arg]
        else:
            continue
        count = instance.count_with(pattern.relation, position, value)
        if count < best_count:
            best_count = count
            best_key = (position, value)
    if best_key is None:
        return instance.atoms_of(pattern.relation)
    return instance.atoms_with(pattern.relation, best_key[0], best_key[1])


def _unify(pattern: Atom, fact: Atom, bound: Dict[Variable, Value]) -> Optional[List[Tuple[Variable, Value]]]:
    """Try to match ``pattern`` against ``fact``; return new bindings or None."""
    new_bindings: List[Tuple[Variable, Value]] = []
    local: Dict[Variable, Value] = {}
    for pattern_arg, fact_arg in zip(pattern.args, fact.args):
        if isinstance(pattern_arg, Value):
            if pattern_arg != fact_arg:
                return None
        else:
            current = bound.get(pattern_arg, local.get(pattern_arg))
            if current is None:
                local[pattern_arg] = fact_arg
                new_bindings.append((pattern_arg, fact_arg))
            elif current != fact_arg:
                return None
    return new_bindings


def _resolve(term: Term, bound: Dict[Variable, Value]) -> Optional[Value]:
    if isinstance(term, Value):
        return term
    return bound.get(term)


def _inequalities_hold(
    inequalities: Sequence[Inequality], bound: Dict[Variable, Value]
) -> bool:
    """True unless some inequality is *violated* by fully bound terms."""
    for left, right in inequalities:
        left_value = _resolve(left, bound)
        right_value = _resolve(right, bound)
        if left_value is not None and right_value is not None:
            if left_value == right_value:
                return False
    return True


def _search(
    remaining: List[Atom],
    instance: Instance,
    bound: Dict[Variable, Value],
    inequalities: Sequence[Inequality],
) -> Iterator[Dict[Variable, Value]]:
    """The plain (uncounted) backtracking search."""
    if not remaining:
        yield dict(bound)
        return
    # Fail-first: most constrained atom next.
    index = min(
        range(len(remaining)),
        key=lambda i: _candidate_count(remaining[i], instance, bound),
    )
    pattern = remaining.pop(index)
    try:
        for fact in _candidates(pattern, instance, bound):
            new_bindings = _unify(pattern, fact, bound)
            if new_bindings is None:
                continue
            for variable, value in new_bindings:
                bound[variable] = value
            if _inequalities_hold(inequalities, bound):
                yield from _search(remaining, instance, bound, inequalities)
            for variable, _ in new_bindings:
                del bound[variable]
    finally:
        remaining.insert(index, pattern)


def match_interpreted(
    patterns: Sequence[Atom],
    instance: Instance,
    *,
    initial: Optional[Substitution] = None,
    inequalities: Sequence[Inequality] = (),
) -> Iterator[Substitution]:
    """The interpreted reference matcher, bypassing compiled plans.

    Same contract as :func:`match`.  The parity suite diffs the two;
    keep this path semantically frozen.
    """
    bound: Dict[Variable, Value] = {}
    if initial is not None:
        for variable, term in initial.items():
            if not isinstance(term, Value):
                raise TypeError(
                    f"initial substitution must map to values, got {term!r}"
                )
            bound[variable] = term
    if not _inequalities_hold(inequalities, bound):
        return
    for result in _search(list(patterns), instance, bound, inequalities):
        yield Substitution(result)


def greedy_join_order(
    patterns: Sequence[Atom], initial_keys: FrozenSet[Variable]
) -> List[int]:
    """Rescore every remaining atom at every pick; the smallest
    ``(-n_fixed, new_vars, arity, index)`` wins."""
    remaining = list(range(len(patterns)))
    bound = set(initial_keys)
    order: List[int] = []
    while remaining:
        best_index = None
        best_score = None
        for i in remaining:
            pattern = patterns[i]
            n_fixed = 0
            new_vars = set()
            for term in pattern.args:
                if isinstance(term, Value):
                    n_fixed += 1
                elif term in bound:
                    n_fixed += 1
                else:
                    new_vars.add(term)
            score = (-n_fixed, len(new_vars), len(pattern.args), i)
            if best_score is None or score < best_score:
                best_score = score
                best_index = i
        remaining.remove(best_index)
        order.append(best_index)
        for term in patterns[best_index].args:
            if isinstance(term, Variable):
                bound.add(term)
    return order
