"""End-to-end data exchange driver.

``solve`` runs a complete exchange: chase, canonical universal solution,
core (= minimal CWA-solution), existence verdicts -- everything Section 6
associates with "computing a CWA-solution".  The result object carries
enough to answer queries afterwards without re-chasing.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import ChaseDivergence, ReproError
from ..core.instance import Instance
from ..chase.result import ChaseStatus
from ..chase.seminaive import seminaive_chase
from ..chase.sharding import sharded_chase
from ..chase.standard import DEFAULT_MAX_STEPS, standard_chase
from ..homomorphism.blocks import blockwise_core
from ..io import instance_from_payload, instance_to_payload
from ..obs import counter, gauge, span
from .setting import DataExchangeSetting

CHASE_ENGINES = {
    "standard": standard_chase,
    "seminaive": seminaive_chase,
}

#: ``shard`` argument values accepted by :func:`solve`.
SHARD_MODES = ("auto", "on", "off")


class ExchangeResult:
    """Outcome of one data exchange run.

    Attributes
    ----------
    setting, source:
        The inputs.
    canonical_solution:
        The standard-chase result restricted to τ, or None when the
        chase failed (no solution exists).
    core_solution:
        ``Core_D(S)`` -- by Theorem 5.1 the minimal CWA-solution -- or
        None when no solution exists.
    chase_steps:
        Number of chase steps performed.
    """

    __slots__ = ("setting", "source", "canonical_solution", "core_solution", "chase_steps")

    def __init__(self, setting, source, canonical_solution, core_solution, chase_steps):
        self.setting: DataExchangeSetting = setting
        self.source: Instance = source
        self.canonical_solution: Optional[Instance] = canonical_solution
        self.core_solution: Optional[Instance] = core_solution
        self.chase_steps: int = chase_steps

    @property
    def cwa_solution_exists(self) -> bool:
        """Corollary 5.2: iff a universal solution exists."""
        return self.core_solution is not None

    @property
    def cwa_solution(self) -> Optional[Instance]:
        """The CWA-solution this run produces: the core (Theorem 5.1)."""
        return self.core_solution

    def __repr__(self) -> str:
        if not self.cwa_solution_exists:
            return "ExchangeResult(no solution)"
        return (
            f"ExchangeResult(|canonical|={len(self.canonical_solution)}, "
            f"|core|={len(self.core_solution)}, steps={self.chase_steps})"
        )


def solve(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    compute_core: bool = True,
    engine: str = "standard",
    cache=None,
    executor=None,
    shard: str = "auto",
) -> ExchangeResult:
    """Run the data exchange for ``source`` under ``setting``.

    This is the polynomial-time procedure of Proposition 6.6 for weakly
    acyclic settings: standard chase (polynomially many steps), then the
    core.  For non-weakly-acyclic settings the chase may diverge, in
    which case :class:`ChaseDivergence` propagates -- the Existence
    problem is undecidable in general (Theorem 6.2), so no budget-free
    procedure can exist.

    ``engine`` selects the trigger-discovery strategy ("standard" =
    batched rescans, "seminaive" = delta-driven); both produce
    hom-equivalent canonical solutions and identical cores.  The core
    is :func:`repro.homomorphism.blocks.blockwise_core`.

    ``cache``: a :class:`repro.engine.ResultCache`; hits skip the chase
    and core computation entirely.  The key covers the setting, the
    source (up to isomorphism), ``max_steps`` and ``engine``; chase
    *failures* are cached (they are definitive verdicts), divergence is
    not (a larger budget might succeed).

    ``executor``: a :class:`repro.engine.Executor` (or None).  A
    parallel one minimizes value components of the canonical solution
    on its pool.  ``shard`` controls the partitioned chase: ``"on"``
    shards whenever the static analysis allows, ``"off"`` never, and
    ``"auto"`` (the default) shards exactly when a parallel executor is
    supplied.  Every mode produces results with the same fp/v1
    canonical fingerprints as a serial run, so cache entries are shared
    across modes.
    """
    setting.validate_source(source)
    try:
        chase = CHASE_ENGINES[engine]
    except KeyError:
        raise ReproError(
            f"unknown chase engine {engine!r}; pick one of "
            f"{sorted(CHASE_ENGINES)}"
        ) from None
    if shard not in SHARD_MODES:
        raise ReproError(
            f"unknown shard mode {shard!r}; pick one of {SHARD_MODES}"
        )
    use_shard = shard == "on" or (
        shard == "auto" and executor is not None and executor.parallel
    )
    key = None
    if cache is not None:
        from ..engine.fingerprint import solve_key  # lazy: engine is optional

        key = solve_key(
            setting,
            source,
            max_steps=max_steps,
            engine=engine,
        )
        hit = cache.get("solve", key)
        if hit is not None:
            result = _result_from_payload(setting, source, hit)
            if result is not None:
                if result.core_solution is None and compute_core and (
                    result.canonical_solution is not None
                ):
                    # Cached by a compute_core=False caller: finish the
                    # job from the cached canonical and upgrade the entry.
                    with span("solve.core_from_cache"):
                        result.core_solution = blockwise_core(
                            result.canonical_solution, executor
                        )
                    cache.put("solve", key, _result_to_payload(result))
                counter("solve.cache_hits").inc()
                return result
    with span("solve"):
        if use_shard:
            outcome = sharded_chase(
                source,
                list(setting.all_dependencies),
                executor=executor,
                engine=engine,
                max_steps=max_steps,
            )
        else:
            outcome = chase(
                source, list(setting.all_dependencies), max_steps=max_steps
            )
        if outcome.status is ChaseStatus.DIVERGED:
            raise ChaseDivergence(outcome.steps, outcome.reason)
        if outcome.status is ChaseStatus.FAILURE:
            result = ExchangeResult(setting, source, None, None, outcome.steps)
        else:
            canonical = outcome.instance.reduct(setting.target_schema)
            gauge("instance.nulls").set(len(canonical.nulls()))
            core_instance = (
                blockwise_core(canonical, executor) if compute_core else None
            )
            result = ExchangeResult(
                setting, source, canonical, core_instance, outcome.steps
            )
    if cache is not None:
        cache.put("solve", key, _result_to_payload(result))
    return result


def _result_to_payload(result: ExchangeResult) -> dict:
    """JSON-serializable form of an :class:`ExchangeResult` (sans inputs)."""
    return {
        "status": "solved" if result.canonical_solution is not None else "failed",
        "chase_steps": result.chase_steps,
        "canonical": (
            instance_to_payload(result.canonical_solution)
            if result.canonical_solution is not None
            else None
        ),
        "core": (
            instance_to_payload(result.core_solution)
            if result.core_solution is not None
            else None
        ),
    }


def _result_from_payload(
    setting: DataExchangeSetting, source: Instance, payload: dict
) -> Optional[ExchangeResult]:
    """Rebuild a cached result; None when the payload is unusable."""
    try:
        canonical = (
            instance_from_payload(payload["canonical"], setting.target_schema)
            if payload.get("canonical") is not None
            else None
        )
        core_instance = (
            instance_from_payload(payload["core"], setting.target_schema)
            if payload.get("core") is not None
            else None
        )
        steps = int(payload["chase_steps"])
    except (ReproError, KeyError, TypeError, ValueError):
        return None
    return ExchangeResult(setting, source, canonical, core_instance, steps)


def existence_of_cwa_solutions(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """The Existence-of-CWA-Solutions(D) decision problem (Section 6).

    PTIME for weakly acyclic settings (Proposition 6.6), undecidable in
    general (Theorem 6.2) -- the step budget makes this a semi-decision
    procedure outside the weakly acyclic class.
    """
    result = solve(setting, source, max_steps=max_steps, compute_core=False)
    return result.canonical_solution is not None
