"""Engine benchmark: md5-cold, md5-warm and control-pool through ``run_batch``.

Usage, from the repository root::

    python3 enginebench/run.py --workload md5-cold --seed 0 --seconds 25 --trace 0

One run of a workload is:

1. an output-check pass at ``jobs=1`` (``rep.py --mode check``): every
   case's final network is compared with its input by the cache-free
   oracle, and must not have more ANDs; for ``md5-warm`` this pass also
   writes the warm-start bundle the timed repetitions read;
2. repetitions of the workload, each in a fresh interpreter, until
   ``--seconds`` have passed.  With ``--trace 0`` they are plain runs and
   give the end-to-end metrics (medians over the repetitions), and
   set-up-only repetitions top the set-up samples up to
   :data:`SETUP_SAMPLES`; with ``--trace 1`` each plain repetition is
   followed by one with the layer wrappers of ``spans.py`` installed, which
   gives the per-layer metrics.

Every repetition must reproduce the check pass's (ANDs, depth, verified)
per case, and the deterministic counters (the fingerprint) must not drift
between repetitions.  The metric names and units are those declared in
``BENCHMARK.json``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a run ends (or fails) within this many seconds of its start.
TIME_LIMIT_S = 170.0

#: set-up samples per run: plain repetitions, topped up by set-up-only ones.
SETUP_SAMPLES = 5

#: per-case results every repetition must share with the check pass.
PINNED = ("ands_after", "depth_after", "verified")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """The repetitions of one workload run, in one scratch directory."""

    def __init__(self, workload: str, seed: int, work_dir: Path,
                 deadline: float) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.bundle = work_dir / "warm-start.json"
        self._count = 0

    def rep(self, mode: str) -> Dict:
        """Run ``rep.py`` once in a fresh interpreter; return its record."""
        self._count += 1
        out = self.work_dir / f"rep-{self._count}.json"
        span_file = self.work_dir / f"spans-{self._count}.jsonl"
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", self.workload.name, "--seed", str(self.seed),
                   "--mode", mode, "--work-dir", str(self.work_dir),
                   "--out", str(out)]
        if mode == "traced":
            command += ["--spans", str(span_file)]
        if self.workload.warm:
            command += ["--bundle", str(self.bundle)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
            str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        spawned_at = _now()
        command += ["--spawned-at", repr(spawned_at)]
        process = subprocess.Popen(command, cwd=ROOT, env=env,
                                   stdout=sys.stderr, start_new_session=True)
        try:
            code = process.wait(timeout=max(1.0, self.deadline - _now()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the repetition's session holds its pool workers too
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if code is None:
            raise RuntimeError(f"{mode} repetition passed the "
                               f"{TIME_LIMIT_S:.0f} s limit")
        if code != 0:
            raise RuntimeError(f"{mode} repetition exited with code {code}")
        record = json.loads(out.read_text())
        if mode == "traced":
            with open(span_file) as handle:
                record["layers"] = spans.summarise(
                    [json.loads(line) for line in handle])
        return record


def fingerprint(record: Dict, pooled: bool) -> Dict:
    """Deterministic counters of a repetition (identical on every rerun).

    The pool's cache traffic depends on which worker learns an entry first,
    so plan misses, classifications and syntheses are exempt there.
    """
    batch = record["batch"]
    keys = ["candidates", "rewrites_applied"]
    if not pooled:
        keys = ["plan_misses", "classification_calls", "synthesis_calls"] + keys
    result = {key: batch[key] for key in keys}
    result["cases"] = [[case["name"], case["ands_after"], case["depth_after"],
                        case["rounds"]] for case in record["cases"]]
    return result


def failed_cases(record: Dict, check: Dict, warm: bool) -> List[str]:
    """Failures of one repetition's cases against the check pass."""
    expected = {case["name"]: case for case in check["cases"]}
    seen = {case["name"]: case for case in record["cases"]}
    failures = []
    for name, reference in expected.items():
        case = seen.get(name)
        if case is None:
            failures.append(f"{name}: missing from the repetition")
        elif case["error"] is not None:
            failures.append(f"{name}: {case['error']}")
        elif case["verified"] is not True:
            failures.append(f"{name}: verified is {case['verified']}")
        elif check["problems"].get(name) is not None:
            failures.append(f"{name}: check pass: {check['problems'][name]}")
        elif warm and not record["batch"]["warm_start_loaded"]:
            failures.append(f"{name}: warm-start bundle not loaded")
        elif any(case[key] != reference[key] for key in PINNED):
            failures.append(f"{name}: ({case['ands_after']}, "
                            f"{case['depth_after']}) differs from the check "
                            f"pass ({reference['ands_after']}, "
                            f"{reference['depth_after']})")
    return failures


def end_to_end_metrics(timed: List[Dict], setups: List[float]
                       ) -> Dict[str, float]:
    """Medians over the plain repetitions (and all set-up samples)."""
    def median(values) -> float:
        return statistics.median(list(values))

    def total(record: Dict, key: str) -> int:
        return sum(case[key] for case in record["cases"])

    return {
        "wall_s": median(r["wall_s"] for r in timed),
        "ands_per_s": median(total(r, "ands_before") / r["wall_s"]
                             for r in timed),
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
        "ands_after": median(total(r, "ands_after") for r in timed),
        "depth_after": median(total(r, "depth_after") for r in timed),
    }


def layer_metrics(record: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    batch = record["batch"]
    layers = record["layers"]
    wall = record["wall_s"]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    case_s = sum(case["case_s"] for case in record["cases"])
    metrics = {
        "engine.build_s": sum(case["build_s"] for case in record["cases"]),
        "engine.pool.workers": batch["workers"],
        "engine.pool.busy_frac": share(case_s, batch["workers"] * wall),
        "engine.pool.case_s": case_s,
        "engine.pool.worker_cpu_s": record["worker_cpu_s"],
        "engine.pool.dup_plan_frac": share(
            max(0, batch["plan_misses"] - batch["stored_plans"]),
            batch["plan_misses"]),
        "engine.pool.dup_synth_frac": share(
            max(0, batch["synthesis_calls"] - batch["stored_recipes"]),
            batch["synthesis_calls"]),
        "rewriting.select_s": batch["select_s"],
        "rewriting.apply_s": batch["apply_s"],
        "rewriting.verify_s": batch["verify_s"],
        "rewriting.rounds": batch["rounds"],
        "rewriting.candidates": batch["candidates"],
        "rewriting.rewrites_applied": batch["rewrites_applied"],
        "rewriting.accept_ratio": share(batch["rewrites_applied"],
                                        batch["candidates"]),
        "cuts.function_hit_rate": batch["function_hit_rate"],
        "cuts.cone_store_hits": batch["cone_store_hits"],
        "cuts.plan_hit_rate": batch["plan_hit_rate"],
        "cuts.plan_misses": batch["plan_misses"],
        "kernels.cones_simulated": record["counters"].get(
            "kernels.cones_simulated", 0),
        "xag.resimulated_nodes": batch["resimulated_nodes"],
        "trace.coverage_frac": share(sum(entry["self_s"]
                                         for entry in layers.values()), wall),
    }
    for span in spans.LAYER_TARGETS:
        entry = layers.get(span, {"self_s": 0.0, "calls": 0})
        metrics[f"{span}_s"] = entry["self_s"]
        metrics[f"{span}_calls"] = entry["calls"]
    return metrics


def per_layer_metrics(timed: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Medians of the traced repetitions' layer metrics, plus overhead."""
    per_rep = [layer_metrics(record) for record in traced]
    metrics = {name: statistics.median(rep[name] for rep in per_rep)
               for name in per_rep[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in timed) - 1.0)
    return metrics


def _git_sha() -> str:
    """Commit of the benchmarked sources ("unknown" outside a git checkout)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _declared_metrics(trace: bool) -> List[Dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"enginebench: no engine sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))

    started = _now()
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="enginebench-", dir=build_dir))
    try:
        run = Run(args.workload, args.seed, work_dir,
                  deadline=started + TIME_LIMIT_S)
        check = run.rep("check")
        timed: List[Dict] = []
        traced: List[Dict] = []
        measure_start = _now()
        while True:
            timed.append(run.rep("timed"))
            if args.trace:
                traced.append(run.rep("traced"))
            if _now() - measure_start >= args.seconds:
                break
        setups = [record["setup_s"] for record in timed]
        if not args.trace:
            setups += [run.rep("setup")["setup_s"]
                       for _ in range(SETUP_SAMPLES - len(setups))]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    workload = run.workload
    reps = timed + traced
    failures = [failure for record in reps
                for failure in failed_cases(record, check, workload.warm)]
    attempted = len(check["cases"]) * len(reps)
    prints = [fingerprint(record, workload.pooled) for record in reps]
    drift = [index for index, print_ in enumerate(prints)
             if print_ != prints[0]]
    values = (per_layer_metrics(timed, traced) if args.trace
              else end_to_end_metrics(timed, setups))
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]} for entry in declared}

    provenance = dict(check["provenance"], jobs=timed[0]["provenance"]["jobs"],
                      git_sha=_git_sha(), seed=args.seed)
    print(f"enginebench {workload.name}: seed {args.seed}, "
          f"{len(timed)} plain + {len(traced)} traced repetitions")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    problems = {name: problem for name, problem in check["problems"].items()
                if problem is not None}
    print(f"check pass: {len(check['cases'])} cases, "
          f"{len(problems)} failing the output check {problems or ''}")
    for label, records in (("plain", timed), ("traced", traced)):
        if records:
            print(f"{label} repetitions wall_s: " + " ".join(
                f"{record['wall_s']:.4f}" for record in records))
    print("setup_s samples: " + " ".join(f"{value:.4f}" for value in setups))
    print("fingerprint " + json.dumps(prints[0]))
    if drift:
        print(f"fingerprint DRIFT in repetitions {drift}: "
              + json.dumps([prints[index] for index in drift]))
    if args.trace:
        missing = sorted({target for record in traced
                          for target in record["missing_targets"]})
        print(f"missing wrapper targets (zero calls): {missing or 'none'}")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, entry in metrics.items():
        print(f"{name:<36} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{'error_rate':<36} {len(failures) / attempted:>14.6g} ratio "
          f"({len(failures)} failed / {attempted} attempted)")
    print(json.dumps({"correct": not failures and not drift,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
