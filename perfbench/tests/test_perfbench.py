"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout::

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from probes import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that must be non-zero on the workload that drives
#: their layer.
DRIVEN = {
    "fsm_sweep": ["core.busy_s", "analysis.solve_calls", "runner.pool_start_s",
                  "cache.put_calls", "telemetry.span_records"],
    "service_sweep": ["service.journal_appends", "service.workers_spawned",
                      "service.lease_to_start_p50_ms", "net.requests",
                      "net.polls", "cache.hit_ratio"],
    "validity_map": ["analysis.chain_solves", "batch.busy_s",
                     "batch.points_per_dispatch", "batch.sim_us_per_host_s"],
    "testbed_table2": ["testbed.busy_s", "engine.events",
                       "engine.events_per_s", "runner.queue_wait_p50_ms"],
}


def _bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace:
        for name in DRIVEN[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for value in result["metrics"].values():
            assert value["value"] > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_perturbed_result_fails_the_check(tmp_path):
    checker = run.Checker("fsm_sweep", 3, "tiny", tmp_path)
    points = json.loads(json.dumps(checker.points))
    checker.check({"points": points, "derived": None})
    assert checker.correct
    result = points[sorted(points)[0]]
    if "points" in result:  # a model curve
        result["points"][0]["tau"] += 1e-15
    else:
        result["successes"] += 1
    checker.check({"points": points, "derived": None})
    assert not checker.correct
    assert "1 results differ" in checker.problems[0]


def test_command_exits_nonzero_on_mismatch(monkeypatch, capsys):
    real = run.reference

    def perturbed(*args, **kwargs):
        points = real(*args, **kwargs)
        key = sorted(points)[-1]
        points[key] = dict(points[key], perturbed=True)
        return points

    monkeypatch.setattr(run, "reference", perturbed)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    code = run.main(["--workload", "testbed_table2", "--seed", "3",
                     "--seconds", "0", "--scale", "tiny"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False


def test_committed_digest_pins_the_default_seed(tmp_path):
    checker = run.Checker("fsm_sweep", 1, "full", tmp_path)
    assert checker.digest is not None and not checker.points
    checker.check({"points": {}, "derived": None})
    assert not checker.correct


def test_validity_model_is_pinned(tmp_path):
    checker = run.Checker("validity_map", 3, "tiny", tmp_path)
    row = {"num_stations": 5, "model_collision_probability": 0.25,
           "model_throughput": 0.6}
    checker.check({"points": checker.points, "derived": {"rows": [row]}})
    assert any("model at N=5" in p for p in checker.problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("fsm_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans(tmp_path):
    tracer = Tracer(tmp_path)
    inner = tracer.wrap(lambda: sum(range(20000)), "core", "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "runner", "outer")
    outer()
    inners = [r for r in tracer.records if r["op"] == "inner"]
    [outer_span] = [r for r in tracer.records if r["op"] == "outer"]
    assert len(inners) == 3
    covered = sum(r["dur"] for r in inners)
    assert outer_span["self"] == pytest.approx(outer_span["dur"] - covered)
