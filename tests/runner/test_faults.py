"""The runner's fault-tolerance contract, locked in.

Four recovery paths, each exercised through deterministic fault
injection (:mod:`repro.runner.faults`) and each required to produce
results *bit-identical* to a clean serial run — a retried task reuses
its exact ``SeedSpec``, so recovery must never change the numbers:

- an ordinary task failure is retried with backoff (``raise`` mode);
- a worker killed without cleanup (``exit`` mode → BrokenProcessPool)
  triggers a pool rebuild, or degradation to serial when the rebuild
  budget is exhausted;
- a hung task (``hang`` mode) is killed by the per-task timeout and
  retried;
- a task that keeps failing leaves a structured failure record in
  partial mode instead of aborting the sweep.
"""

import json
import multiprocessing
import multiprocessing.process
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import CsmaConfig, ScenarioConfig
from repro.experiments.sweeps import sweep_configuration
from repro.runner import (
    ExperimentRunner,
    RunnerConfig,
    RunnerTaskError,
    SeedSpec,
    Task,
    TaskKind,
    require_complete,
    scenario_to_jsonable,
)
from repro.runner.faults import FaultPlan, parse_plan, plan_from_env
from repro.service.signals import ShutdownRequested

COUNTS = (2, 3, 5)
SIM_TIME_US = 2e5


def _sweep(runner, seed=1):
    return sweep_configuration(
        "1901 CA1",
        CsmaConfig.default_1901(),
        station_counts=COUNTS,
        sim_time_us=SIM_TIME_US,
        repetitions=2,
        seed=seed,
        runner=runner,
    )


def _arm(monkeypatch, tmp_path, spec):
    marker_dir = tmp_path / "fault-markers"
    monkeypatch.setenv("REPRO_FAULT_INJECT", spec)
    monkeypatch.setenv("REPRO_FAULT_DIR", str(marker_dir))
    return marker_dir


def _simulate_task(num_stations=2):
    scenario = ScenarioConfig.homogeneous(
        num_stations=num_stations, sim_time_us=1e5
    )
    return Task(
        kind=TaskKind.SIMULATE,
        payload={"scenario": scenario_to_jsonable(scenario)},
        seed=SeedSpec(root_seed=1),
    )


@pytest.fixture(scope="module")
def clean_serial():
    """The uninjected serial reference every recovery must reproduce."""
    return _sweep(ExperimentRunner(max_workers=1))


class TestCrashRecovery:
    def test_crash_retry_is_bit_identical(
        self, monkeypatch, tmp_path, clean_serial
    ):
        marker_dir = _arm(monkeypatch, tmp_path, "raise:times=2")
        runner = ExperimentRunner(
            max_workers=4, retries=2, backoff_base_s=0.01
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.retried >= 2
        assert runner.counters.failed == 0
        assert len(list(marker_dir.glob("slot-*"))) == 2
        retried = runner.trace.of_kind("retried")
        assert len(retried) == runner.counters.retried
        assert all(e.error for e in retried)

    def test_serial_path_retries_too(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "raise:times=2")
        runner = ExperimentRunner(
            max_workers=1, retries=1, backoff_base_s=0.01
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.retried == 2

    def test_without_retries_the_crash_aborts(self, monkeypatch, tmp_path):
        _arm(monkeypatch, tmp_path, "raise:times=1")
        runner = ExperimentRunner(max_workers=1, retries=0)
        with pytest.raises(RunnerTaskError) as excinfo:
            _sweep(runner)
        assert excinfo.value.failures[0].error_type == "InjectedFault"
        # Counter finalization survives the mid-sweep abort.
        assert runner.counters.failed == 1
        assert runner.counters.wall_time_s > 0


class TestBrokenPoolRecovery:
    def test_dead_worker_rebuilds_pool(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "exit:times=1")
        runner = ExperimentRunner(
            max_workers=2, retries=2, backoff_base_s=0.01
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.pool_rebuilds >= 1
        assert runner.counters.retried >= 1
        assert runner.counters.failed == 0
        assert runner.trace.of_kind("pool_rebuild")

    def test_exhausted_rebuild_budget_degrades_to_serial(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "exit:times=1")
        runner = ExperimentRunner(
            max_workers=2, retries=2, max_pool_rebuilds=0,
            backoff_base_s=0.01,
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.degraded_serial == 1
        assert runner.counters.pool_rebuilds == 0
        assert runner.trace.of_kind("degrade_serial")


class TestShutdownMidSpawn:
    def test_worker_started_but_unregistered_is_terminated(
        self, monkeypatch
    ):
        """A shutdown landing between a pool worker's ``start()`` and
        the pool registering its pid must not leave that worker alive:
        interpreter exit would join it forever."""
        original_start = multiprocessing.process.BaseProcess.start
        fired = []

        def start_then_interrupt(process):
            original_start(process)
            if not fired:
                fired.append(process)
                raise ShutdownRequested(15)

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", start_then_interrupt
        )
        before = set(multiprocessing.active_children())
        runner = ExperimentRunner(max_workers=2, retries=0)
        try:
            with pytest.raises(ShutdownRequested):
                runner.run([_simulate_task(2), _simulate_task(3)])
            assert fired
            survivors = []
            for child in multiprocessing.active_children():
                if child in before:
                    continue
                child.join(timeout=10)
                if child.is_alive():
                    survivors.append(child)
            assert survivors == []
        finally:
            for child in multiprocessing.active_children():
                if child not in before:
                    child.kill()
                    child.join(timeout=10)

    def test_worker_unknown_to_multiprocessing_exits_with_parent(self):
        """A shutdown landing right after the fork, before ``start()``
        records the child, leaves a worker no registry knows.  It must
        exit with its parent rather than hold the parent's stdout and
        stderr open forever."""
        script = """
import multiprocessing.popen_fork as popen_fork
from repro.core.config import ScenarioConfig
from repro.runner import (
    ExperimentRunner, SeedSpec, Task, TaskKind, scenario_to_jsonable,
)
from repro.service.signals import ShutdownRequested

launch = popen_fork.Popen._launch

def launch_then_interrupt(self, process_obj):
    launch(self, process_obj)  # the child never returns from here
    popen_fork.Popen._launch = launch
    print(self.pid, flush=True)
    raise ShutdownRequested(15)

popen_fork.Popen._launch = launch_then_interrupt
scenario = ScenarioConfig.homogeneous(num_stations=2, sim_time_us=1e5)
task = Task(
    kind=TaskKind.SIMULATE,
    payload={"scenario": scenario_to_jsonable(scenario)},
    seed=SeedSpec(root_seed=1),
)
try:
    ExperimentRunner(max_workers=2, retries=0).run([task, task])
except ShutdownRequested:
    print("interrupted", flush=True)
"""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
        except subprocess.TimeoutExpired as exc:
            # The output read so far (bytes) names the orphan's pid.
            for word in (exc.stdout or b"").split():
                if word.isdigit():
                    try:
                        os.kill(int(word), signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            pytest.fail("an orphaned pool worker held the pipes open")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[1:] == ["interrupted"]


class TestTimeout:
    def test_hung_task_is_killed_and_retried(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "hang:times=1,seconds=60")
        runner = ExperimentRunner(
            max_workers=2, retries=1, task_timeout_s=2.0,
            backoff_base_s=0.01,
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.timeouts == 1
        assert runner.counters.failed == 0
        assert runner.trace.of_kind("timeout")

    def test_permanent_hang_records_timed_out_failure(
        self, monkeypatch, tmp_path
    ):
        _arm(monkeypatch, tmp_path, "hang:times=1,seconds=60")
        runner = ExperimentRunner(
            max_workers=2, retries=0, task_timeout_s=1.5,
            on_failure="partial",
        )
        results = runner.run([_simulate_task(2), _simulate_task(3)])
        assert results.count(None) == 1
        assert len(runner.failures) == 1
        assert runner.failures[0].timed_out
        assert runner.failures[0].error_type == "TimeoutError"


class TestPartialResults:
    BAD = Task(kind="no-such-kind", payload={})

    def test_partial_mode_returns_survivors_and_failure_records(self):
        runner = ExperimentRunner(
            max_workers=1, retries=1, on_failure="partial",
            backoff_base_s=0.01,
        )
        results = runner.run([_simulate_task(), self.BAD])
        assert results[0] is not None and results[1] is None
        failure = runner.failures[0]
        assert failure.task_index == 1
        assert failure.attempts == 2  # first try + one retry
        assert failure.error_type == "ValueError"
        assert runner.counters.failed == 1
        assert runner.counters.executed == 1
        with pytest.raises(RunnerTaskError):
            require_complete(results, runner.failures)

    def test_partial_mode_in_pool(self):
        runner = ExperimentRunner(
            max_workers=2, retries=1, on_failure="partial",
            backoff_base_s=0.01,
        )
        results = runner.run(
            [_simulate_task(2), self.BAD, _simulate_task(3)]
        )
        assert [entry is not None for entry in results] == [
            True, False, True,
        ]
        assert runner.counters.failed == 1

    def test_raise_mode_keeps_counters_truthful(self):
        runner = ExperimentRunner(max_workers=1, retries=0)
        with pytest.raises(RunnerTaskError):
            runner.run([self.BAD, _simulate_task()])
        assert runner.counters.failed == 1
        assert runner.counters.executed == 0
        assert runner.counters.wall_time_s > 0


class TestTelemetry:
    def test_jsonl_trace_records_lifecycle(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "raise:times=1")
        trace_path = tmp_path / "trace.jsonl"
        runner = ExperimentRunner(
            max_workers=2, retries=1, backoff_base_s=0.01,
            trace_path=trace_path,
        )
        assert _sweep(runner) == clean_serial
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "retried" in kinds
        finished = [e for e in events if e["event"] == "finished"]
        assert len(finished) == runner.counters.executed
        assert all("worker_pid" in e and "t_s" in e for e in finished)
        # Queued + finished + failure accounting covers every point.
        queued = [e for e in events if e["event"] == "queued"]
        assert len(queued) == runner.counters.points_total

    def test_trace_appends_across_runs(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        runner = ExperimentRunner(max_workers=1, trace_path=trace_path)
        runner.run([_simulate_task(2)])
        first = len(trace_path.read_text().splitlines())
        runner.run([_simulate_task(3)])
        assert len(trace_path.read_text().splitlines()) > first


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": -1},
            {"retries": -1},
            {"task_timeout_s": 0.0},
            {"task_timeout_s": -5.0},
            {"backoff_base_s": -0.1},
            {"on_failure": "explode"},
            {"max_pool_rebuilds": -1},
        ],
    )
    def test_bad_config_fails_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            RunnerConfig(**kwargs)
        with pytest.raises(ValueError):
            ExperimentRunner(**kwargs)

    def test_good_config_constructs(self):
        config = RunnerConfig(
            max_workers=0, retries=3, task_timeout_s=10.0,
            on_failure="partial",
        )
        assert config.resolved_workers() >= 1
        assert config.backoff_s(1) == config.backoff_base_s
        assert config.backoff_s(100) == config.backoff_max_s


class TestFaultPlanParsing:
    def test_parse_modes_and_options(self):
        assert parse_plan("raise") == FaultPlan(mode="raise")
        assert parse_plan("exit:times=3") == FaultPlan(mode="exit", times=3)
        assert parse_plan("hang:seconds=1.5,times=2") == FaultPlan(
            mode="hang", hang_s=1.5, times=2
        )

    @pytest.mark.parametrize(
        "spec", ["boom", "raise:times=0", "hang:seconds=0", "raise:nope=1"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_plan(spec)

    def test_no_marker_dir_disables_injection(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise")
        monkeypatch.delenv("REPRO_FAULT_DIR", raising=False)
        assert plan_from_env() is None

    def test_injection_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        assert plan_from_env() is None
