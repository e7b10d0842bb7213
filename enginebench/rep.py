"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, as a user's CLI call
would start the engine, so no process-wide memo table or thread executor
carries over from an earlier repetition.  It imports the engine, resolves
the backend, prepares the inputs, makes one timed ``run_batch`` call and
writes what it measured as one JSON object to ``--out``.

Modes:

* ``check`` — the output-check pass at ``jobs=1``: the ``run_pipeline``
  name that ``repro.engine.core`` imports is wrapped to capture each case's
  input and final network, which are then compared with the cache-free
  oracle after the timed call;
* ``timed`` — a plain run; it supplies every end-to-end number;
* ``traced`` — a run with the layer wrappers of :mod:`spans` installed;
  the spans are written to ``--spans`` when the run ends;
* ``setup`` — set-up only: it records ``setup_s`` and exits before the
  ``run_batch`` call.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import resource
import sys
import time
from pathlib import Path


def _rusage_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _capture_pipeline(core, captured: list) -> None:
    """Wrap ``repro.engine.core.run_pipeline`` to keep (input, final) pairs."""
    original = core.run_pipeline

    def capture(xag, *args, **kwargs):
        before = xag.clone()
        result = original(xag, *args, **kwargs)
        captured.append((before, result.final))
        return result

    core.run_pipeline = capture


def _oracle_problems(reports, captured) -> dict:
    """Case name → output-check problem (``None`` when the case passes)."""
    from repro.testing.oracle import find_counterexample
    problems = {}
    finished = [report for report in reports if report.error is None]
    aligned = len(finished) == len(captured)
    pairs = dict(zip((report.name for report in finished), captured)) \
        if aligned else {}
    for report in reports:
        if report.error is not None:
            problems[report.name] = f"error: {report.error}"
        elif report.verified is not True:
            problems[report.name] = f"verified is {report.verified}"
        elif report.name not in pairs:
            problems[report.name] = "input/final network not captured"
        elif report.ands_after > report.ands_before:
            problems[report.name] = (f"ANDs grew {report.ands_before} -> "
                                     f"{report.ands_after}")
        else:
            before, final = pairs[report.name]
            if final.num_ands != report.ands_after:
                problems[report.name] = "report disagrees with final network"
            elif find_counterexample(before, final) is not None:
                problems[report.name] = "oracle found a counterexample"
            else:
                problems[report.name] = None
    return problems


def _batch_record(batch) -> dict:
    """Counters of the batch report that the parent turns into metrics."""
    database = batch.database_stats
    cut = batch.cut_cache_stats
    rounds = [stats for report in batch.reports for stats in report.rounds]
    return {
        "jobs": batch.jobs,
        "workers": batch.workers,
        "backend": batch.backend,
        "warm_start_loaded": batch.warm_start_loaded,
        "plan_misses": int(cut.get("plan_misses", 0)),
        "stored_plans": int(cut.get("stored_plans", 0)),
        "plan_hit_rate": cut.get("plan_hit_rate", 0.0),
        "function_hit_rate": cut.get("function_hit_rate", 0.0),
        "cone_store_hits": int(cut.get("cone_hash_hits", 0)),
        "classification_calls": int(database.get("classification_hits", 0)
                                    + database.get("classification_misses", 0)),
        "synthesis_calls": int(database.get("synthesis_calls", 0)),
        "stored_recipes": int(database.get("stored_recipes", 0)),
        "rounds": len(rounds),
        "select_s": sum(stats.select_seconds for stats in rounds),
        "apply_s": sum(stats.apply_seconds for stats in rounds),
        "verify_s": sum(stats.verify_seconds for stats in rounds),
        "candidates": sum(stats.candidates_evaluated for stats in rounds),
        "rewrites_applied": sum(stats.rewrites_applied for stats in rounds),
        "resimulated_nodes": sum(stats.nodes_resimulated for stats in rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "check", "timed", "traced"),
                        required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--bundle", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's CLOCK_MONOTONIC stamp at spawn")
    args = parser.parse_args(argv)

    import workloads
    from repro import kernels
    from repro.engine import core, parallel

    workload = workloads.WORKLOADS[args.workload]
    backend = kernels.resolve_backend("auto")
    config = workloads.engine_config(workload, args.seed, args.work_dir,
                                     backend, check=args.mode == "check",
                                     bundle=args.bundle)
    captured: list = []
    if args.mode == "check":
        _capture_pipeline(core, captured)
    tracer = None
    if args.mode == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()

    # CLOCK_MONOTONIC is system-wide, so this compares with the parent's stamp
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.mode == "setup":
        args.out.write_text(json.dumps({"setup_s": ready - args.spawned_at}))
        return 0
    children_cpu = _children_cpu()
    start = time.perf_counter()
    batch = core.run_batch(config)
    wall = time.perf_counter() - start
    worker_cpu = _children_cpu() - children_cpu

    if tracer is not None:
        tracer.uninstall()
        tracer.write(str(args.spans))
    record = {
        "mode": args.mode,
        "wall_s": wall,
        "setup_s": ready - args.spawned_at,
        "peak_rss_mb": (_rusage_mb(resource.RUSAGE_SELF)
                        + _rusage_mb(resource.RUSAGE_CHILDREN)),
        "worker_cpu_s": worker_cpu,
        "batch": _batch_record(batch),
        "cases": [{
            "name": report.name,
            "ands_before": report.ands_before,
            "ands_after": report.ands_after,
            "depth_after": report.depth_after,
            "rounds": len(report.rounds),
            "verified": report.verified,
            "error": report.error,
            "case_s": report.total_seconds,
            "build_s": report.build_seconds,
        } for report in batch.reports],
        "missing_targets": tracer.missing if tracer is not None else [],
        "counters": dict(tracer.counters) if tracer is not None else {},
        "provenance": {
            "nproc": workloads.nproc(),
            "jobs": batch.jobs,
            "start_method": (parallel.start_method()
                             or multiprocessing.get_start_method()),
            "backend": batch.backend,
            "python": platform.python_version(),
            "numpy": _numpy_version(),
        },
    }
    if args.mode == "check":
        record["problems"] = _oracle_problems(batch.reports, captured)
    args.out.write_text(json.dumps(record))
    return 0


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
