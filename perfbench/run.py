"""End-to-end and per-layer benchmark of the repro solver.

Run from the repository root::

    python3 perfbench/run.py --workload core-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Full records (named metrics, oracle verdicts, program
counters, machine facts) go to ``.perfbench_out/``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

#: ``PYTHONHASHSEED`` of every benchmark process.
HASH_SEED = "0"

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Steps of the traced run, fixed so that its counts repeat exactly for
#: a seed: ladder passes, requests, edits.
TRACE_STEPS = {"core-ladder": 1, "closure-requests": 100, "edit-stream": 60}

#: Printed under their issue-facing names and recorded, but left out of
#: the result line: on a shared host a run's p90 follows the share of
#: time the host spent in its slow state, not the program (README,
#: "Host-speed scaling").
TAILS = ("main_p90_s", "side_p90_s")

#: Issue-facing names of the generic end-to-end metrics, per workload.
NAMED = {
    "core-ladder": {
        "throughput_per_s": ("solve_rows_per_s", "rows/s"),
        "main_mean_s": ("anchored_ladder_mean_s", "s"),
        "main_p90_s": ("anchored_ladder_p90_s", "s"),
        "side_mean_s": ("example_ladder_mean_s", "s"),
        "side_p90_s": ("example_ladder_p90_s", "s"),
    },
    "closure-requests": {
        "throughput_per_s": ("requests_per_s", "requests/s"),
        "main_mean_s": ("solve_mean_s", "s"),
        "main_p90_s": ("solve_p90_s", "s"),
        "side_mean_s": ("repeat_mean_s", "s"),
        "side_p90_s": ("repeat_p90_s", "s"),
    },
    "edit-stream": {
        "throughput_per_s": ("edits_per_s", "edits/s"),
        "main_mean_s": ("apply_mean_s", "s"),
        "main_p90_s": ("apply_p90_s", "s"),
        "side_mean_s": ("query_mean_s", "s"),
        "side_p90_s": ("query_p90_s", "s"),
    },
}


def percentile(samples, share: float) -> float:
    """Linear-interpolation percentile (``quantiles(method="inclusive")``)."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def machine_facts(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git;
    "unknown" where the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over the program's sources, identifying the measured code
    where no commit is available."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup_probe(args) -> None:
    """One set-up in this (fresh) process: import, inputs, warm-up and
    the per-measurement state, then exit."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT)
    workload.prepare()
    workload.close()


def timed_setups(args) -> list:
    """Wall seconds of ``SETUP_PROBES`` fresh-process set-ups."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - started)
    return times


def end_to_end(workload, measurement, setups, scale: float) -> dict:
    """End-to-end metrics, with every time -- timed calls and set-up
    probes -- multiplied by ``scale`` (the host-speed scale, or 1 for the
    times as measured)."""
    main, side = (
        [seconds * scale for seconds in measurement.latencies(
            kind, workload.calls_per_op[kind]
        )]
        for kind in ("main", "side")
    )
    return {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "peak_rss_mb": (measurement.peak_rss_mb, "MB"),
        "success_share": (
            1 - measurement.failed / measurement.attempted, "share"
        ),
        "throughput_per_s": (
            measurement.units / (measurement.busy_s * scale), "1/s"
        ),
        "main_mean_s": (statistics.fmean(main), "s"),
        "main_p90_s": (percentile(main, 0.9), "s"),
        "side_mean_s": (statistics.fmean(side), "s"),
        "side_p90_s": (percentile(side, 0.9), "s"),
    }


def named_metrics(workload: str, metrics: dict, measurement) -> dict:
    """The end-to-end metrics under their workload-specific names."""
    named = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_share": (measurement.failed / measurement.attempted, "share"),
    }
    for generic, (name, unit) in NAMED[workload].items():
        named[name] = (metrics[generic][0], unit)
    return named


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 where nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def per_layer(totals: dict, counters: dict, traced, untraced) -> dict:
    """Per-layer metrics from span totals and program counters."""

    def count(name):
        return counters.get(name, 0)

    chase, core = totals["chase"], totals["homomorphism.core"]
    attempts, folds = count("core.retract_attempts"), count("core.folds")
    plan_hits, compiled = count("plan.cache_hits"), count("plan.compilations")
    hits, misses = count("engine.cache.hits"), count("engine.cache.misses")
    skipped = count("incremental.blocks_skipped")
    reminimized = count("incremental.blocks_reminimized")
    blocks = skipped + count("incremental.blocks_replayed") + reminimized
    return {
        "chase.self_s": (chase["self_s"], "s"),
        "chase.inclusive_s": (chase["inclusive_s"], "s"),
        "chase.inclusive_share": (_ratio(chase["inclusive_s"], traced.busy_s), "share"),
        "chase.calls": (chase["calls"], "count"),
        "chase.tgd_firings": (count("chase.tgd_firings"), "count"),
        "chase.nulls_created": (count("chase.nulls_created"), "count"),
        "chase.egd_merges": (count("chase.egd_merges"), "count"),
        "homomorphism.core_self_s": (core["self_s"], "s"),
        "homomorphism.core_inclusive_s": (core["inclusive_s"], "s"),
        "homomorphism.core_inclusive_share": (
            _ratio(core["inclusive_s"], traced.busy_s), "share"
        ),
        "homomorphism.retract_attempts": (attempts, "count"),
        "homomorphism.folds": (folds, "count"),
        "homomorphism.fold_ratio": (_ratio(folds, attempts), "ratio"),
        "homomorphism.searches": (count("hom.searches"), "count"),
        "homomorphism.candidates": (count("hom.candidates"), "count"),
        "homomorphism.backtracks": (count("hom.backtracks"), "count"),
        "logic.match_s": (totals["logic.match"]["inclusive_s"], "s"),
        "logic.match_calls": (totals["logic.match"]["calls"], "count"),
        "logic.plan_compilations": (compiled, "count"),
        "logic.plan_hit_ratio": (_ratio(plan_hits, plan_hits + compiled), "ratio"),
        "core.instance_copies": (totals["core.copy"]["calls"], "count"),
        "core.copy_s": (totals["core.copy"]["inclusive_s"], "s"),
        "core.canonical_s": (totals["core.canonical"]["inclusive_s"], "s"),
        "engine.fingerprint_s": (totals["engine.fingerprint"]["inclusive_s"], "s"),
        "engine.cache_get_s": (totals["engine.cache_get"]["inclusive_s"], "s"),
        "engine.cache_put_s": (totals["engine.cache_put"]["inclusive_s"], "s"),
        "engine.cache_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "incremental.apply_self_s": (totals["incremental.apply"]["self_s"], "s"),
        "incremental.skip_ratio": (_ratio(skipped, blocks), "ratio"),
        "incremental.blocks_reminimized": (reminimized, "count"),
        "incremental.full_fallbacks": (count("incremental.full_fallbacks"), "count"),
        "incremental.core_fallbacks": (count("incremental.core_fallbacks"), "count"),
        "answering.query_self_s": (totals["answering.query"]["self_s"], "s"),
        "exchange.solve_self_s": (totals["exchange.solve"]["self_s"], "s"),
        "obs.trace_overhead": (traced.busy_s / untraced.busy_s - 1, "ratio"),
    }


def run_one(args) -> int:
    import repro.obs as obs
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    facts = machine_facts(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = timed_setups(args) if not args.trace else []
    workload = workloads.build(args.workload, args.seed, OUT)
    record = {"facts": facts}
    try:
        if not args.trace:
            workload.prepare()
            obs.reset()
            measurement = workloads.measure(workload, seconds=args.seconds)
            record["counters"] = obs.snapshot()["counters"]
            host = measurement.host
            metrics = end_to_end(workload, measurement, setups, host.scale)
            record["unscaled"] = end_to_end(workload, measurement, setups, 1.0)
            record["host"] = {"scale": host.scale, "kernel_s": host.samples}
            record["setup_probes_s"] = setups
            record["named"] = named_metrics(args.workload, metrics, measurement)
            shown = record["named"]
        else:
            steps = TRACE_STEPS[args.workload]
            workload.prepare()
            untraced = workloads.measure(workload, steps=steps)
            installation = tracing.install()
            try:
                workload.prepare()
                obs.reset()
                measurement = workloads.measure(
                    workload, steps=steps, live=installation.live
                )
                counters = obs.snapshot()["counters"]
            finally:
                installation.remove()
            totals = installation.recorder.totals()
            metrics = per_layer(totals, counters, measurement, untraced)
            installation.recorder.write(OUT / f"{stem}.spans.tsv")
            record.update(
                counters=counters, spans=totals, absent=installation.absent
            )
            shown = metrics
            for target in installation.absent:
                print(f"absent {target}")
    finally:
        workload.close()
    record.update(
        metrics=metrics,
        attempted=measurement.attempted,
        failed=measurement.failed,
        mismatched=measurement.mismatched,
        errors=measurement.errors,
        steps=measurement.steps,
        samples=measurement.samples,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    print(" ".join(f"{key}={value}" for key, value in facts.items()))
    if "host" in record:
        scale, kernels = record["host"]["scale"], len(record["host"]["kernel_s"])
        print(f"host scale {scale:.4f} from {kernels} kernel runs")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    errors = ", ".join(f"{kind} x{n}" for kind, n in sorted(measurement.errors.items()))
    print(
        f"oracle {measurement.attempted - measurement.failed} ok, "
        f"{measurement.mismatched} mismatched, "
        f"{measurement.failed} failed ({errors or 'none'})"
    )
    print(json.dumps({
        "correct": measurement.mismatched == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in TAILS
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints the metric and oracle
    lines of each."""
    import workloads

    status = 0
    for name in workloads.NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(f"== {name}")
        if done.returncode:
            print(f"failed with exit status {done.returncode}")
            status = 1
            continue
        print("\n".join(done.stdout.splitlines()[:-1]))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TRACE_STEPS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order steers the chase and the hom search: fix it,
        # so that runs differ only in their inputs.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    import repro  # noqa: F401  -- fail fast, before any probe, without the sources

    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
