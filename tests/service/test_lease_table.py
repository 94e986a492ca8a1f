"""A late commit from another holder closes the task for good.

A remote host goes silent, its lease is reclaimed, and the task is
leased again: to a local worker, or (after a restart) to a worker the
new incarnation adopted.  Then the first host commits after all.  The
commit must end *every* lease on the task: the task stays COMPLETED in
memory and in the journal, with one ``task_completed`` and nothing
after it — the current holder's outcome is ignored, it does not fail
the task and the task is never leased again.

These tests drive the :class:`Orchestrator` methods directly (no serve
loop), with a short lease TTL so the reclaim happens quickly.
"""

import time

import pytest

from repro.core.config import ScenarioConfig
from repro.runner import SeedSpec, Task, TaskKind
from repro.runner.cache import cache_key
from repro.runner.serialize import scenario_to_jsonable
from repro.runner.tasks import run_task
from repro.service import (
    Orchestrator,
    ServiceConfig,
    TaskState,
    build_submission,
    fold_journal,
)
from repro.service.journal import read_journal
from repro.service.leases import heartbeat_path
from repro.service.worker import outcome_path

TTL_S = 0.5
#: Long enough that the local worker is still running when the late
#: remote commit arrives (about half a second of simulation).
SIM_TIME_US = 4e7

#: The current holder is still running when the late commit arrives,
#: or has already published its outcome (which the commit removes).
worker_done_first = pytest.mark.parametrize(
    "done_first", [False, True], ids=["worker_running", "worker_done"]
)


def _task():
    scenario = ScenarioConfig.homogeneous(
        num_stations=3, sim_time_us=SIM_TIME_US, seed=1
    )
    return Task(
        kind=TaskKind.SIMULATE,
        payload={"scenario": scenario_to_jsonable(scenario)},
        seed=SeedSpec(root_seed=1, point_index=0, repetition=0),
    )


def _orchestrator(service_dir):
    return Orchestrator(
        ServiceConfig(
            service_dir=service_dir,
            max_workers=1,
            lease_ttl_s=TTL_S,
            heartbeat_interval_s=0.05,
            poll_interval_s=0.01,
            sync_journal=False,
        )
    )


def _reclaimed_remote_lease(orch, task):
    """Lease ``task`` to remote host w1, then reclaim it for silence."""
    orch.admit_submission(build_submission([task]))
    task_id = cache_key(task.describe())
    shard = orch.remote_claim("w1")
    assert shard["task_id"] == task_id
    time.sleep(TTL_S * 1.5)
    with orch.lock:
        orch._watchdog()
    assert orch.state.tasks[task_id].state == TaskState.PENDING
    assert orch.lease_holders() == {}
    return task_id


def _wait_for(path):
    deadline = time.monotonic() + 30.0
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def _run_loop(orch, seconds):
    """The serve loop's bookkeeping passes, until ``seconds`` have passed
    and every local worker is idle (or a minute runs out)."""
    start = time.monotonic()
    while time.monotonic() - start < 60.0:
        with orch.lock:
            orch._watchdog()
            orch._collect_finished()
            orch._dispatch_pending()
            busy = any(w.task_id is not None for w in orch._workers)
        if not busy and time.monotonic() - start >= seconds:
            return
        time.sleep(0.02)


def _stop(orch):
    for worker in list(orch._workers):
        orch._retire(worker)
    orch.journal.close()


def _assert_completed_once(orch, task_id, grants, files_gone=True):
    records, _ = read_journal(orch.paths.journal)
    events = [r["event"] for r in records if r.get("task_id") == task_id]
    assert orch.state.tasks[task_id].state == TaskState.COMPLETED
    folded = fold_journal(orch.paths.journal)
    assert folded.tasks[task_id].state == TaskState.COMPLETED
    assert {k: r.state for k, r in orch.state.tasks.items()} == {
        k: r.state for k, r in folded.tasks.items()
    }
    assert events.count("task_completed") == 1, events
    after = events[events.index("task_completed") + 1:]
    assert "task_failed" not in after, events
    assert "lease_granted" not in after, events
    assert events.count("lease_granted") == grants, events
    assert orch.lease_holders() == {}
    if files_gone:
        assert not heartbeat_path(orch.paths.leases, task_id).exists()
        assert not outcome_path(orch.paths.outcomes, task_id).exists()


@worker_done_first
def test_late_remote_commit_while_leased_locally(tmp_path, done_first):
    task = _task()
    result = run_task(task)["result"]
    orch = _orchestrator(tmp_path / "svc")
    try:
        task_id = _reclaimed_remote_lease(orch, task)
        with orch.lock:
            orch._dispatch_pending()
        assert orch.lease_holders() == {task_id: None}
        (worker,) = orch._workers
        assert worker.task_id == task_id
        if done_first:
            assert worker.conn.poll(30.0)  # published, not yet collected

        assert orch.remote_complete(task_id, "w1", result) == "committed"
        _run_loop(orch, seconds=TTL_S * 3)

        _assert_completed_once(orch, task_id, grants=2)
        # The local worker finished, was freed, and is still the one
        # worker: its outcome neither failed nor re-leased the task.
        assert orch._workers == [worker]
        assert worker.task_id is None and worker.proc.is_alive()
        assert orch.state.tasks[task_id].attempts == 0
    finally:
        _stop(orch)


@worker_done_first
def test_late_remote_commit_while_adopted_lease_watched(tmp_path, done_first):
    task = _task()
    result = run_task(task)["result"]
    first = _orchestrator(tmp_path / "svc")
    second = None
    try:
        task_id = _reclaimed_remote_lease(first, task)
        with first.lock:
            first._dispatch_pending()
        _wait_for(heartbeat_path(first.paths.leases, task_id))
        # The first incarnation dies here; its worker runs on.
        first.journal.close()

        second = _orchestrator(tmp_path / "svc")
        with second.lock:
            second._recover_leases()
        assert second.lease_holders() == {task_id: None}  # adopted
        if done_first:  # published, not yet collected
            _wait_for(outcome_path(second.paths.outcomes, task_id))

        assert second.remote_complete(task_id, "w1", result) == "committed"
        _run_loop(second, seconds=TTL_S * 3)

        # The adopted worker belongs to the first incarnation, which
        # owns (and here leaves behind) the files it writes.
        _assert_completed_once(second, task_id, grants=2, files_gone=False)
        assert second._workers == []
        assert second.state.tasks[task_id].attempts == 0
    finally:
        if second is not None:
            _stop(second)
        for worker in list(first._workers):
            first._retire(worker)
