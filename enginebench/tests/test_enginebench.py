"""Tests of the engine benchmark itself (not of the engine).

Run from the repository root with ``python3 -m pytest enginebench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import rep
import run
import spans
import workloads
from repro.circuits.epfl import epfl_benchmark_map
from repro.engine.core import EngineConfig, run_batch
from repro.xag import serialize
from repro.xag.structhash import graph_hash

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    outer = tracer.open("outer")          # 0 .. 10
    clock.now = 1.0
    inner = tracer.open("inner")          # 1 .. 4
    clock.now = 2.0
    leaf = tracer.open("leaf")            # 2 .. 3
    clock.now = 3.0
    tracer.close(leaf)
    clock.now = 4.0
    tracer.close(inner)
    clock.now = 6.0
    second = tracer.open("inner")         # 6 .. 8
    clock.now = 8.0
    tracer.close(second)
    clock.now = 10.0
    tracer.close(outer)
    summary = spans.summarise(tracer.spans)
    assert summary["outer"] == {"self_s": 5.0, "calls": 1}
    assert summary["inner"] == {"self_s": 4.0, "calls": 2}
    assert summary["leaf"] == {"self_s": 1.0, "calls": 1}


def test_overlapping_children_are_subtracted_once():
    spans_ = [["parent", 0.0, 10.0, -1],
              ["child", 1.0, 5.0, 0],
              ["child", 3.0, 7.0, 0]]
    assert spans.summarise(spans_)["parent"]["self_s"] == 4.0


def test_wrappers_record_spans_and_restore(tmp_path):
    class Layer:
        def work(self, items):
            return len(items)

    module = type(sys)("fake_layer")
    module.Layer = Layer
    sys.modules["fake_layer"] = module
    try:
        tracer = spans.Tracer()
        tracer.install({"fake.work": ("fake_layer:Layer.work",),
                        "fake.gone": ("fake_layer:Layer.removed",
                                      "no_such_module:thing")})
        assert Layer().work([1, 2, 3]) == 3
        assert tracer.missing == ["fake_layer:Layer.removed",
                                  "no_such_module:thing"]
        summary = spans.summarise(tracer.spans)
        assert summary["fake.work"]["calls"] == 1
        assert "fake.gone" not in summary
        tracer.write(str(tmp_path / "spans.jsonl"))
        lines = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert [json.loads(line)[0] for line in lines] == ["fake.work"]
        tracer.uninstall()
        Layer().work([])
        assert len(tracer.spans) == 1
    finally:
        del sys.modules["fake_layer"]


def test_every_layer_target_resolves():
    from repro import kernels
    tracer = spans.Tracer()
    with kernels.use_backend("auto"):
        tracer.install()
        tracer.uninstall()
    expected = [] if kernels.active_backend().accelerated else \
        ["kernels:ACTIVE.simulate_cones"]
    assert tracer.missing == expected


def test_seed_zero_regenerates_the_registry_circuits():
    registry = epfl_benchmark_map()
    circuits = workloads.synthetic_control(0)
    assert len(circuits) == 5
    for name, xag in circuits.items():
        reference = registry[name[:-len("_s0")]].build()
        assert graph_hash(xag) == graph_hash(reference)


def test_corpus_round_trip_keeps_the_circuits(tmp_path):
    names = workloads.write_control_corpus(0, tmp_path)
    circuits = workloads.synthetic_control(0)
    for name in names:
        loaded = serialize.load(tmp_path / f"{name}.json")
        assert graph_hash(loaded) == graph_hash(circuits[name])


def test_nonzero_seed_changes_circuits_but_not_interfaces():
    base = workloads.synthetic_control(0)
    for seed in (1, 7):
        varied = workloads.synthetic_control(seed)
        for name, xag in varied.items():
            reference = base[name.replace(f"_s{seed}", "_s0")]
            assert graph_hash(xag) != graph_hash(reference)
            assert (xag.num_pis, xag.num_pos) == \
                (reference.num_pis, reference.num_pos)


def test_traced_run_matches_untraced_run():
    config = EngineConfig(suites=("epfl",), circuits=["int2float", "alu_ctrl"],
                          objective="mc", max_rounds=None, par_grain=1)
    plain = run_batch(config)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_batch(config)
    finally:
        tracer.uninstall()
    assert tracer.missing == [] or tracer.missing == \
        ["kernels:ACTIVE.simulate_cones"]
    summary = spans.summarise(tracer.spans)
    assert summary["affine.classify"]["calls"] > 0
    assert summary["cuts.enumerate"]["calls"] > 0

    def as_record(batch):
        return {"batch": rep._batch_record(batch),
                "cases": [{"name": r.name, "ands_after": r.ands_after,
                           "depth_after": r.depth_after,
                           "rounds": len(r.rounds)} for r in batch.reports]}

    assert run.fingerprint(as_record(traced), pooled=False) == \
        run.fingerprint(as_record(plain), pooled=False)


def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "wall_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 80.0,
        "worker_cpu_s": 0.0, "counters": {},
        "layers": {"cuts.enumerate": {"self_s": 0.5, "calls": 3}},
        "batch": {key: 1 for key in (
            "workers", "plan_misses", "stored_plans", "synthesis_calls",
            "stored_recipes", "select_s", "apply_s", "verify_s", "rounds",
            "candidates", "rewrites_applied", "function_hit_rate",
            "cone_store_hits", "plan_hit_rate", "resimulated_nodes")},
        "cases": [{"ands_before": 10, "ands_after": 5, "depth_after": 2,
                   "case_s": 1.5, "build_s": 0.1}],
    }
    assert set(run.end_to_end_metrics([record], [0.5])) == \
        {entry["name"] for entry in declared["end_to_end"]}
    assert set(run.per_layer_metrics([record], [record])) == \
        {entry["name"] for entry in declared["per_layer"]}
    assert declared["paths"] == ["enginebench"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_failed_cases_against_the_check_pass():
    check = {"cases": [{"name": "a", "ands_after": 5, "depth_after": 2,
                        "verified": True}],
             "problems": {"a": None}}
    good = {"batch": {"warm_start_loaded": True},
            "cases": [{"name": "a", "ands_after": 5, "depth_after": 2,
                       "verified": True, "error": None}]}
    assert run.failed_cases(good, check, warm=True) == []
    worse = json.loads(json.dumps(good))
    worse["cases"][0]["ands_after"] = 6
    assert len(run.failed_cases(worse, check, warm=False)) == 1
    cold = json.loads(json.dumps(good))
    cold["batch"]["warm_start_loaded"] = False
    assert len(run.failed_cases(cold, check, warm=True)) == 1
    flagged = dict(check, problems={"a": "oracle found a counterexample"})
    assert len(run.failed_cases(good, flagged, warm=False)) == 1


def test_control_pool_traced_run_end_to_end():
    result = subprocess.run(
        [sys.executable, str(ROOT / "enginebench" / "run.py"),
         "--workload", "control-pool", "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    metrics = last["metrics"]
    assert metrics["engine.pool.workers"]["value"] == workloads.nproc()
    assert metrics["engine.pool.delta_install_calls"]["value"] > 0
    assert "fingerprint" in result.stdout
    assert '"ands_after"' not in result.stdout.splitlines()[-1]


def test_fails_without_engine_sources(tmp_path):
    (tmp_path / "enginebench").mkdir()
    for path in (ROOT / "enginebench").glob("*.py"):
        (tmp_path / "enginebench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    result = subprocess.run(
        [sys.executable, "enginebench/run.py", "--workload", "md5-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_config_is_sequential_and_cold(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config = workloads.engine_config(workload, 0, tmp_path, "python",
                                     check=True, bundle=tmp_path / "b.json")
    assert config.jobs == 1
    assert config.warm_start is None
    assert config.max_rounds is None and config.par_grain == 1
