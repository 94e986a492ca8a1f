"""Persistent local workers and the event-driven scheduling loop.

The orchestrator keeps at most ``max_workers`` worker processes, hands
each one lease at a time over its pipe, and wakes on their "done" bytes
instead of polling.  These tests pin what that buys and what it must
not cost: worker reuse, per-lease crash isolation, prompt wakeups, one
cache lookup per pending task, and no worker left behind — after a
clean exit, a drain, or an orchestrator killed mid-sweep.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.config import ScenarioConfig
from repro.runner import ExperimentRunner, SeedSpec, Task, TaskKind
from repro.runner.cache import ResultCache, cache_key
from repro.runner.serialize import scenario_to_jsonable
from repro.service import (
    Orchestrator,
    ServiceConfig,
    TaskState,
    build_submission,
    fold_journal,
    write_submission,
)
from repro.service.faults import KILL_EXIT_CODE
from repro.service.journal import read_journal
from repro.service.leases import read_heartbeat_pid
from repro.service.orchestrator import ServicePaths, request_drain

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
SIM_TIME_US = 5e4

SERVE_SNIPPET = (
    "import sys\n"
    "from repro.service import Orchestrator, ServiceConfig\n"
    "config = ServiceConfig(service_dir=sys.argv[1], max_workers=2,\n"
    "                       poll_interval_s=0.01)\n"
    "Orchestrator(config).serve(exit_when_idle=True)\n"
)


def _tasks(count):
    out = []
    for i in range(count):
        scenario = ScenarioConfig.homogeneous(
            num_stations=2 + i % 3, sim_time_us=SIM_TIME_US, seed=1
        )
        out.append(
            Task(
                kind=TaskKind.SIMULATE,
                payload={"scenario": scenario_to_jsonable(scenario)},
                seed=SeedSpec(root_seed=1, point_index=i, repetition=0),
            )
        )
    return out


def _submit(service_dir, tasks):
    write_submission(ServicePaths(service_dir).inbox, build_submission(tasks))


def _config(service_dir, **overrides):
    overrides.setdefault("max_workers", 2)
    overrides.setdefault("poll_interval_s", 0.01)
    return ServiceConfig(service_dir=service_dir, **overrides)


def _serve(service_dir, **overrides):
    return Orchestrator(_config(service_dir, **overrides)).serve(
        exit_when_idle=True
    )


def _records(service_dir, event):
    records, _ = read_journal(ServicePaths(service_dir).journal)
    return [r for r in records if r["event"] == event]


def _assert_bit_identical(service_dir, tasks):
    state = fold_journal(service_dir)
    assert state.counts()[TaskState.COMPLETED] == len(tasks)
    cache = ResultCache(ServicePaths(service_dir).cache)
    for task, want in zip(tasks, ExperimentRunner().run(tasks)):
        assert cache.get(cache_key(task.describe())) == want


class TestPersistentWorkers:
    def test_sweep_reuses_at_most_max_workers_pids(self, tmp_path):
        tasks = _tasks(20)
        _submit(tmp_path / "svc", tasks)
        _serve(tmp_path / "svc")
        completed = _records(tmp_path / "svc", "task_completed")
        assert len(completed) == len(tasks)
        pids = {r["worker_pid"] for r in completed}
        assert None not in pids
        assert len(pids) <= 2

    def test_dead_worker_fails_only_its_lease_and_is_replaced(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "exit:times=1")
        monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
        tasks = _tasks(6)
        _submit(tmp_path / "svc", tasks)
        state = _serve(tmp_path / "svc")
        failed = _records(tmp_path / "svc", "task_failed")
        assert len(failed) == 1
        assert failed[0]["error_type"] == "WorkerDied"
        dead_pid = failed[0]["worker_pid"]
        retried = failed[0]["task_id"]
        attempts = {tid: rec.attempts for tid, rec in state.tasks.items()}
        assert attempts.pop(retried) == 1
        assert set(attempts.values()) == {0}
        assert len(_records(tmp_path / "svc", "lease_granted")) == 7
        completed = _records(tmp_path / "svc", "task_completed")
        pids = {r["worker_pid"] for r in completed}
        assert dead_pid not in pids
        retry = [r for r in completed if r["task_id"] == retried]
        assert retry and retry[0]["worker_pid"] != dead_pid
        assert len(pids) <= 2
        _assert_bit_identical(tmp_path / "svc", tasks)

    def test_finished_lease_wakes_the_loop(self, tmp_path):
        # Waiting a full poll interval per collection would take about
        # three intervals for 6 tasks on 2 workers.
        tasks = _tasks(6)
        _submit(tmp_path / "svc", tasks)
        started = time.monotonic()
        state = _serve(tmp_path / "svc", poll_interval_s=2.0)
        assert time.monotonic() - started < 2 * 2.0
        assert state.counts()[TaskState.COMPLETED] == len(tasks)

    def test_admissions_from_other_threads_wake_the_loop(self, tmp_path):
        # Three front-end threads admit at once while the loop sits in
        # an idle wait far longer than the sweep; 4 workers > cores.
        sdir = tmp_path / "svc"
        tasks = _tasks(12)
        orchestrator = Orchestrator(
            _config(sdir, max_workers=4, poll_interval_s=5.0)
        )
        loop = threading.Thread(target=orchestrator.serve)
        loop.start()
        deadline = time.monotonic() + 30
        while not ServicePaths(sdir).pid_file.exists():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.5)  # past the first pass, into the idle wait
        started = time.monotonic()
        admitters = [
            threading.Thread(
                target=orchestrator.admit_submission,
                args=(build_submission(tasks[k::3]),),
            )
            for k in range(3)
        ]
        for admitter in admitters:
            admitter.start()
        for admitter in admitters:
            admitter.join(timeout=30)
        while time.monotonic() - started < 30:
            with orchestrator.lock:
                done = orchestrator.state.counts()[TaskState.COMPLETED]
            if done == len(tasks):
                break
            time.sleep(0.01)
        elapsed = time.monotonic() - started
        request_drain(sdir)
        orchestrator._wake()  # the marker is seen on the next pass
        loop.join(timeout=30)
        assert not loop.is_alive()
        assert elapsed < 2.5
        pids = {
            r["worker_pid"] for r in _records(sdir, "task_completed")
        }
        assert len(pids) <= 4
        _assert_bit_identical(sdir, tasks)

    def test_cache_checked_once_per_pending_task(self, tmp_path, monkeypatch):
        calls = []
        original = ResultCache.get

        def counting_get(self, key):
            calls.append(key)
            return original(self, key)

        monkeypatch.setattr(ResultCache, "get", counting_get)
        tasks = _tasks(8)
        _submit(tmp_path / "svc", tasks)
        # One worker keeps most tasks pending for many loop passes.
        state = _serve(tmp_path / "svc", max_workers=1)
        assert state.counts()[TaskState.COMPLETED] == len(tasks)
        assert 0 < len(calls) <= len(tasks)


class TestNoWorkerLeftBehind:
    def test_no_children_after_idle_exit(self, tmp_path):
        before = set(multiprocessing.active_children())
        _submit(tmp_path / "svc", _tasks(4))
        _serve(tmp_path / "svc")
        assert set(multiprocessing.active_children()) <= before

    def test_no_children_after_drain(self, tmp_path):
        before = set(multiprocessing.active_children())
        sdir = tmp_path / "svc"
        _submit(sdir, _tasks(8))
        orchestrator = Orchestrator(_config(sdir, max_workers=2))
        loop = threading.Thread(target=orchestrator.serve)
        loop.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with orchestrator.lock:
                if orchestrator.state.counts()[TaskState.COMPLETED]:
                    break
            time.sleep(0.01)
        request_drain(sdir)
        loop.join(timeout=60)
        assert not loop.is_alive()
        assert _records(sdir, "drain_start")
        assert set(multiprocessing.active_children()) <= before


def _live_service_pids(service_dir):
    """Non-zombie processes whose command line names ``service_dir``
    (the orchestrator and every worker forked from it)."""
    needle = str(service_dir).encode()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if needle in cmdline and stat.rsplit(")", 1)[1].split()[0] != "Z":
            pids.append(int(entry.name))
    return pids


def _serve_subprocess(service_dir, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    # Output goes to a file, not a pipe: a pipe would make the parent
    # wait for every orphan that inherited it.
    with open(Path(service_dir).parent / "serve.log", "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-c", SERVE_SNIPPET, str(service_dir)],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    return proc.wait(timeout=300)


@pytest.mark.skipif(
    not Path("/proc/self/cmdline").exists(), reason="needs procfs"
)
class TestOrphanSafety:
    @pytest.mark.parametrize("point", ["lease_grant", "result_commit"])
    def test_killed_incarnation_leaves_no_worker(self, tmp_path, point):
        sdir = tmp_path / "svc"
        tasks = _tasks(4)
        _submit(sdir, tasks)
        code = _serve_subprocess(
            sdir,
            {
                "REPRO_SERVICE_KILL": f"{point}:times=1",
                "REPRO_SERVICE_KILL_DIR": str(tmp_path / "kills"),
            },
        )
        assert code == KILL_EXIT_CODE
        lease_pids = {
            read_heartbeat_pid(hb)
            for hb in ServicePaths(sdir).leases.glob("*.hb")
        }
        if point == "result_commit":
            # Killed between a worker's report and its journal record:
            # that worker's heartbeat file names it.
            assert lease_pids
        deadline = time.monotonic() + 15.0
        while _live_service_pids(sdir) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_service_pids(sdir) == []
        assert _serve_subprocess(sdir) == 0
        _assert_bit_identical(sdir, tasks)
