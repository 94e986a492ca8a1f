"""The durable sweep orchestrator: the service's supervising process.

One :class:`Orchestrator` owns one *service directory* — journal,
inbox, leases, outcomes, quarantine, checkpoints, result cache,
telemetry — and runs the scheduling loop: admit submissions from the
inbox, dedupe against the content-addressed result cache, lease pending
tasks to at most ``max_workers`` persistent worker processes (one lease
per worker at a time, so a crash fails only its own lease), watch their
heartbeats, collect their outcome envelopes, retry deterministically,
quarantine poison, and drain cleanly on request.

The loop is event-driven: it blocks in
:func:`multiprocessing.connection.wait` on the workers' pipes and
sentinels and on a self-pipe that HTTP-originated work writes to, so a
finished lease or a new submission is acted on at once.
``poll_interval_s`` only bounds an idle wait, which is when inbox
files, the ``DRAIN`` marker and watchdog deadlines are noticed.

Crash-safety discipline (the tentpole invariant):

1. **Journal first.**  Every state transition is a durable journal
   record *before* it takes effect.  ``kill -9`` between the record and
   the effect is recovered by replaying the journal: the restarted
   orchestrator re-derives the effect from the record.
2. **Effects are idempotent.**  Re-granting a lease that never reached
   a worker re-runs the task bit-identically (same
   :class:`~repro.runner.seeding.SeedSpec`); re-committing a result the
   cache already holds dedupes on the cache key; re-writing an outcome
   is an atomic replace of identical bytes.
3. **One commit point.**  A task is *done* when ``task_completed`` is
   journaled.  The result is written to the cache immediately before
   (the ``result_commit`` kill window): dying between the two leaves a
   cached result and a pending task, and the next dispatch completes it
   from the cache without recomputation — converging on the same bits.

Recovery of leases is adopt-or-reclaim: a lease whose worker is alive
with a fresh heartbeat is *adopted* (the new orchestrator watches its
outcome file — a worker outlives the orchestrator that forked it
until it publishes its current outcome, then exits on its pipe's EOF);
anything else is reclaimed without consuming an attempt (a dead
orchestrator is not evidence against the task).

All leases live in one table, whoever holds them: one of our own
workers, an adopted pid, or a remote host over HTTP.  The holder only
decides how liveness is judged (heartbeat file and pid, or the time
since the last heartbeat PUT) and how the task is shipped (the
worker's pipe, or the claim response); grant, commit, failure and
reclaim each have one code path.  A commit drops the task's lease
whoever holds it.  So when a reclaimed remote host commits late while
the task is leased again, the task is done: the current holder's
later outcome is ignored, its worker is simply free again, and the
task is never failed or leased after its ``task_completed``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import signal as _signal
import socket
import threading
import time
from multiprocessing.connection import wait as _wait_ready
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from ..runner.cache import ResultCache, cache_key, result_checksum
from ..runner.telemetry import TraceRecorder
from ..telemetry.openmetrics import write_openmetrics
from ..telemetry.spans import SpanRecorder
from .faults import maybe_kill
from .journal import JOURNAL_FILENAME, JournalWriter
from .leases import (
    LEASES_DIRNAME,
    classify_lease,
    heartbeat_path,
    pid_alive,
    read_heartbeat_pid,
)
from .quarantine import QUARANTINE_DIRNAME, write_quarantine_record
from .signals import handle_signals
from .state import ServiceState, SubmitRecord, TaskState, fold_journal
from .submit import (
    INBOX_DIRNAME,
    REJECTED_DIRNAME,
    read_submission,
)
from .worker import (
    OUTCOMES_DIRNAME,
    outcome_path,
    read_outcome,
    task_from_description,
    worker_loop,
)

__all__ = [
    "DRAIN_MARKER",
    "Orchestrator",
    "ServiceConfig",
    "ServicePaths",
    "request_drain",
]

#: Cross-process drain request: ``repro-plc drain`` touches this file,
#: the serve loop sees it and shuts down cleanly.
DRAIN_MARKER = "DRAIN"

#: Pid file of the running orchestrator (presence + live pid = serving).
PID_FILENAME = "serve.pid"


@dataclasses.dataclass(frozen=True)
class ServicePaths:
    """The on-disk layout of one service directory."""

    root: Path

    def __post_init__(self) -> None:
        # Accept plain strings everywhere a service dir is named.
        object.__setattr__(self, "root", Path(self.root))

    @property
    def journal(self) -> Path:
        return self.root / JOURNAL_FILENAME

    @property
    def inbox(self) -> Path:
        return self.root / INBOX_DIRNAME

    @property
    def rejected(self) -> Path:
        return self.root / REJECTED_DIRNAME

    @property
    def leases(self) -> Path:
        return self.root / LEASES_DIRNAME

    @property
    def outcomes(self) -> Path:
        return self.root / OUTCOMES_DIRNAME

    @property
    def quarantine(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    @property
    def cache(self) -> Path:
        return self.root / "cache"

    @property
    def telemetry(self) -> Path:
        return self.root / "telemetry"

    @property
    def drain_marker(self) -> Path:
        return self.root / DRAIN_MARKER

    @property
    def pid_file(self) -> Path:
        return self.root / PID_FILENAME


def request_drain(service_dir: Union[str, Path]) -> Path:
    """Ask the orchestrator owning ``service_dir`` to drain and stop."""
    marker = ServicePaths(Path(service_dir)).drain_marker
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text(str(time.time()), encoding="utf-8")
    return marker


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one orchestrator incarnation.

    Nothing here may change task *results* — only scheduling, safety
    margins, and disk layout.  The determinism contract (task identity
    = cache key of the description, retries replay the same seed) is
    what makes every knob safe to tune between incarnations.
    """

    service_dir: Union[str, Path]
    #: Persistent local worker processes, forked on first dispatch
    #: (``0`` = pure remote: only HTTP worker hosts execute).
    max_workers: int = 2
    #: Deterministic retries before quarantine: a task failing
    #: ``max_retries + 1`` attempts is poison, not unlucky.
    max_retries: int = 2
    #: Heartbeat silence tolerated before a lease is stale.
    lease_ttl_s: float = 10.0
    #: How often workers touch their heartbeat file.
    heartbeat_interval_s: float = 1.0
    #: Hard per-attempt wall-clock limit (``None`` = unlimited).
    task_timeout_s: Optional[float] = None
    #: Admission control: a submission that would push pending+leased
    #: past this depth is rejected (backpressure, not silent loss).
    max_queue_depth: int = 10000
    #: Upper bound on one idle wait of the scheduling loop.  Worker
    #: reports and HTTP-originated work wake it at once; inbox files,
    #: the DRAIN marker and watchdog deadlines are seen within this.
    poll_interval_s: float = 0.05
    #: Checkpoint cadence for long simulate/collision points
    #: (``None`` = only the runner defaults).
    checkpoint_every_us: Optional[float] = None
    #: fsync every journal append (only tests may turn this off).
    sync_journal: bool = True
    #: Seconds a drain waits for in-flight workers before terminating
    #: them (their leases are released; no attempt is consumed).
    drain_timeout_s: float = 10.0
    #: With ``exit_when_idle``: seconds the service must stay idle
    #: before exiting.  ``0`` exits on the first idle poll (the PR 9
    #: behaviour); the HTTP front end uses a grace so a freshly started
    #: server doesn't exit before its first remote submission arrives.
    idle_grace_s: float = 0.0


@dataclasses.dataclass
class _Worker:
    """One persistent local worker process and our end of its pipe."""

    proc: multiprocessing.Process
    conn: Any
    #: The task it runs: the handle of its pending "done" wakeup.
    #: ``None`` = idle; a busy worker is never handed a second task.
    task_id: Optional[str] = None


@dataclasses.dataclass
class _Lease:
    """One leased task, whoever holds it.

    The holder is our own persistent ``worker``, a remote host's
    ``worker_id``, or neither: a lease *adopted* from a previous
    incarnation, whose pid is known only from its heartbeat file.
    """

    task_id: str
    attempt: int
    granted_monotonic: float
    span_id: Optional[str] = None
    task_index: Optional[int] = None
    worker: Optional[_Worker] = None
    worker_id: Optional[str] = None
    #: When a remote holder last PUT a heartbeat.
    last_beat_monotonic: float = 0.0

    @property
    def adopted(self) -> bool:
        return self.worker is None and self.worker_id is None


class Orchestrator:
    """Supervise one service directory.  See the module docstring."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.paths = ServicePaths(Path(config.service_dir))
        self.paths.root.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.paths.cache)
        self.journal = JournalWriter(
            self.paths.journal, sync=config.sync_journal
        )
        #: Folded journal state — kept current by this incarnation.
        self.state: ServiceState = fold_journal(self.paths.journal)
        self.trace = TraceRecorder()
        self.spans = SpanRecorder(run_id=self.trace.run_id)
        #: Every held lease — local, adopted or remote — by task id.
        self._leases: Dict[str, _Lease] = {}
        self._workers: List[_Worker] = []
        #: Pending tasks already looked up in the cache and missed: such
        #: a task can only complete through ``_commit``, which journals
        #: it itself.
        self._cache_missed: Set[str] = set()
        #: Self-pipe, open while ``serve`` runs: writing a byte cuts the
        #: loop's current wait short.
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        #: Serializes every state mutation between the scheduling loop
        #: and the HTTP handler threads.  The journal keeps exactly one
        #: *process* writer; within that process, this lock keeps one
        #: *writer at a time* — an RLock so handler paths can call the
        #: same helpers the loop uses.
        self.lock = threading.RLock()
        #: Set while a drain is in progress — the HTTP layer answers
        #: 503 + Retry-After to new submissions and claims.
        self.draining = False
        #: Set once the journal is closed; every mutating HTTP route
        #: refuses after this point.
        self.closed = False
        #: The signal that triggered the drain, if any (``repro-plc
        #: serve`` exits ``128 + signum`` so supervisors see SIGTERM
        #: drains as 143, per convention).
        self.shutdown_signum: Optional[int] = None
        #: Per-task failure history for quarantine forensics, rebuilt
        #: from the journal so a restart doesn't forget attempts.
        self._failures: Dict[str, List[Dict[str, Any]]] = {}
        self._next_task_index = 0
        self._task_indices: Dict[str, int] = {}
        self._sweep_span: Optional[str] = None
        self._seed_failure_history()

    # -- recovery ----------------------------------------------------------

    def _seed_failure_history(self) -> None:
        from .journal import read_journal

        records, _ = read_journal(self.paths.journal)
        for record in records:
            if record.get("event") == "task_failed":
                self._failures.setdefault(record["task_id"], []).append(
                    {
                        "attempt": record.get("attempt"),
                        "error": record.get("error"),
                        "error_type": record.get("error_type"),
                        "epoch_s": record.get("epoch_s"),
                        "worker_pid": record.get("worker_pid"),
                    }
                )
        self._next_task_index = len(self.state.tasks)

    def _recover_leases(self) -> None:
        """Adopt-or-reclaim every lease the previous incarnation held."""
        for record in self.state.by_state(TaskState.LEASED):
            lease = self._leases[record.task_id] = _Lease(
                task_id=record.task_id,
                attempt=record.attempts,
                granted_monotonic=time.monotonic(),
            )
            hb = heartbeat_path(self.paths.leases, record.task_id)
            pid = read_heartbeat_pid(hb)
            if (
                pid_alive(pid)
                and classify_lease(
                    hb,
                    self.config.lease_ttl_s,
                    elapsed_s=0.0,
                    task_timeout_s=None,
                )
                == "live"
            ):
                # The worker survived its orchestrator.  Adopt: watch
                # its outcome file like any other lease.
                continue
            self._release(
                lease,
                "lease_reclaimed",
                "orchestrator restart",
                worker_pid=pid,
            )

    # -- serve loop --------------------------------------------------------

    def serve(self, exit_when_idle: bool = False) -> ServiceState:
        """Run the scheduling loop until drained (or idle, if asked).

        ``exit_when_idle=True`` returns once the inbox is empty and no
        task is pending or leased — the mode tests, CI smoke, and
        one-shot batch deployments use.  Without it the loop runs until
        a drain request (SIGTERM/SIGINT or the ``DRAIN`` marker).
        """
        cfg = self.config
        self.paths.pid_file.parent.mkdir(parents=True, exist_ok=True)
        self.paths.pid_file.write_text(str(os.getpid()), encoding="utf-8")
        resumed = self.state.records > 0
        self.state.incarnations.append(
            self.journal.append(
                "service_resume" if resumed else "service_start",
                pid=os.getpid(),
                run_id=self.trace.run_id,
                tasks=len(self.state.tasks),
                corrupt_records=self.state.corrupt_records,
            )
        )
        self._sweep_span = self.spans.start(
            "service", workers=cfg.max_workers, resumed=resumed
        )
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.trace.record_run_start(
            detail=f"service tasks={len(self.state.tasks)}",
            span_id=self._sweep_span,
        )
        with self.lock:
            self._recover_leases()
        drained = False
        idle_since: Optional[float] = None
        try:
            with handle_signals(mode="flag") as shutdown:
                while True:
                    if shutdown.is_set() or self.paths.drain_marker.exists():
                        drained = True
                        self.shutdown_signum = shutdown.signum
                        self._drain()
                        break
                    with self.lock:
                        self._scan_inbox()
                        self._watchdog()
                        self._collect_finished()
                        self._dispatch_pending()
                        idle = (
                            not self.lease_holders()
                            and not self.state.by_state(TaskState.PENDING)
                            and not self.state.by_state(TaskState.LEASED)
                            and not list(self.paths.inbox.glob("*.json"))
                        )
                    if exit_when_idle and idle:
                        now = time.monotonic()
                        if idle_since is None:
                            idle_since = now
                        if now - idle_since >= cfg.idle_grace_s:
                            break
                    elif not idle:
                        idle_since = None
                    self._wait(cfg.poll_interval_s)
        finally:
            # Truthful shutdown telemetry even on an unexpected error:
            # spans close, the trace flushes, the journal records the
            # stop — the restart path depends on none of this, but the
            # operator's status view does.
            with self.lock:
                self.draining = True
                if not drained:
                    self._release_leases(terminate=False)
                # An idle worker exits on its pipe's EOF.  One still
                # running a lease (only after an unexpected error) is not
                # waited for: its outcome is adopted on restart.
                for worker in list(self._workers):
                    self._retire(worker, join=worker.task_id is None)
                self.state.incarnations.append(
                    self.journal.append(
                        "service_stop",
                        pid=os.getpid(),
                        drained=drained,
                        counts=self.state.counts(),
                    )
                )
            self.trace.record(
                "run_end",
                span_id=self._sweep_span,
                detail=f"counts={self.state.counts()}",
            )
            for open_id in self.spans.open_spans():
                if open_id != self._sweep_span:
                    self.spans.end(open_id, status="aborted")
            self.spans.end(self._sweep_span)
            self._flush_telemetry()
            with self.lock:
                self.closed = True
                self.journal.close()
                self._wake_r.close()
                self._wake_w.close()
            try:
                self.paths.pid_file.unlink()
            except OSError:
                pass
            try:
                self.paths.drain_marker.unlink()
            except OSError:
                pass
        return self.state

    # -- inbox / admission -------------------------------------------------

    def _scan_inbox(self) -> None:
        inbox = self.paths.inbox
        if not inbox.is_dir():
            return
        for path in sorted(inbox.glob("*.json")):
            submission = read_submission(path)
            if submission is None:
                self._reject(path, None, "malformed submission")
                continue
            submit_id = submission.get("submit_id") or path.stem
            verdict = self.admit_submission(submission, submit_id=submit_id)
            if not verdict["accepted"]:
                self._reject(path, submit_id, verdict["reason"])
                continue
            try:
                path.unlink()
            except OSError:
                pass

    def admit_submission(
        self, submission: Dict[str, Any], submit_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Admission control + enqueue for one validated submission.

        The single accept/reject decision both input channels share:
        the inbox scan calls it for dropped files, the HTTP front end
        (``POST /v1/sweeps``) calls it directly — so a sweep is
        admitted by exactly the same rules, journal records, and dedupe
        regardless of how it arrived.  Idempotent by construction: task
        identity is :func:`~repro.runner.cache.cache_key` of each
        description, so a duplicated or retried submission dedupes
        instead of double-enqueueing.  Returns a verdict dict
        (``accepted``, ``submit_id``, and either ``task_count`` /
        ``deduped`` / ``new`` or ``reason``).
        """
        with self.lock:
            descriptions = submission["tasks"]
            if submit_id is None:
                from .submit import submission_id

                submit_id = submission.get("submit_id") or submission_id(
                    descriptions
                )
            new: List[Any] = []
            deduped = 0
            for description in descriptions:
                task_id = cache_key(description)
                known = self.state.tasks.get(task_id)
                if known is not None and known.state != TaskState.QUARANTINED:
                    deduped += 1
                    continue
                new.append((task_id, description))
            depth = self.state.queue_depth
            if depth + len(new) > self.config.max_queue_depth:
                reason = (
                    f"queue depth {depth} + {len(new)} new tasks "
                    f"exceeds limit {self.config.max_queue_depth}"
                )
                self.journal.append(
                    "sweep_rejected", submit_id=submit_id, reason=reason
                )
                self.state.submits[submit_id] = SubmitRecord(
                    submit_id=submit_id,
                    accepted=False,
                    reason=reason,
                )
                return {
                    "accepted": False,
                    "submit_id": submit_id,
                    "reason": reason,
                }
            self.journal.append(
                "sweep_accepted",
                submit_id=submit_id,
                label=submission.get("label"),
                task_count=len(descriptions),
                deduped=deduped,
            )
            self.state.submits[submit_id] = SubmitRecord(
                submit_id=submit_id,
                accepted=True,
                label=submission.get("label"),
                task_count=len(descriptions),
                deduped=deduped,
            )
            for task_id, description in new:
                self.journal.append(
                    "task_enqueued",
                    task_id=task_id,
                    submit_id=submit_id,
                    task=description,
                )
                record = self.state.tasks.get(task_id)
                if record is None:
                    from .state import TaskRecord

                    record = self.state.tasks[task_id] = TaskRecord(
                        task_id=task_id
                    )
                record.state = TaskState.PENDING
                record.description = description
                record.submit_id = submit_id
                self.trace.record(
                    "queued",
                    task_index=self._task_index(task_id),
                    kind=description.get("kind"),
                    span_id=self._sweep_span,
                )
            self._wake()
            return {
                "accepted": True,
                "submit_id": submit_id,
                "task_count": len(descriptions),
                "deduped": deduped,
                "new": len(new),
            }

    def _reject(
        self, path: Path, submit_id: Optional[str], reason: str
    ) -> None:
        if submit_id is None or submit_id not in self.state.submits:
            # admit_submission journals depth rejections itself; only
            # pre-admission failures (malformed file) land here.
            self.journal.append(
                "sweep_rejected", submit_id=submit_id, reason=reason
            )
            self.state.submits[submit_id or path.stem] = SubmitRecord(
                submit_id=submit_id or path.stem,
                accepted=False,
                reason=reason,
            )
        self.paths.rejected.mkdir(parents=True, exist_ok=True)
        target = self.paths.rejected / path.name
        try:
            shutil.move(str(path), str(target))
            # Correlation ids alongside the reason so `repro-plc
            # report` can tie the rejection to this incarnation's span
            # tree (first line stays the bare reason for humans).
            target.with_suffix(".reason.txt").write_text(
                f"{reason}\n"
                f"run_id: {self.trace.run_id}\n"
                f"span_id: {self._sweep_span}\n",
                encoding="utf-8",
            )
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------

    def _task_index(self, task_id: str) -> int:
        """Stable per-task slot number for trace events (top view)."""
        index = self._task_indices.get(task_id)
        if index is None:
            index = self._task_indices[task_id] = self._next_task_index
            self._next_task_index += 1
        return index

    def _build_task(
        self, task_id: str, description: Optional[Dict[str, Any]]
    ):
        runtime: Dict[str, Any] = {
            "checkpoint_dir": str(self.paths.checkpoints / task_id),
            "resume": True,
            "telemetry": {
                "run_id": self.trace.run_id,
                "parent_span_id": self._sweep_span,
            },
        }
        if self.config.checkpoint_every_us is not None:
            runtime["checkpoint_every_us"] = self.config.checkpoint_every_us
        return task_from_description(description, runtime=runtime)

    def _complete_from_cache(self, record: Any) -> bool:
        """Complete a pending task whose result the cache already holds.

        Completed by a previous incarnation (or a prior sweep): the
        ``result_commit`` crash window closes here.  Each pending task is
        looked up once per incarnation; see ``_cache_missed``.
        """
        task_id = record.task_id
        if task_id in self._cache_missed:
            return False
        cached = self.cache.get(task_id)
        if cached is None:
            self._cache_missed.add(task_id)
            return False
        self.journal.append(
            "task_completed",
            task_id=task_id,
            source="cache",
            result_sha256=result_checksum(cached),
        )
        record.state = TaskState.COMPLETED
        record.completed_from = "cache"
        self.trace.record(
            "cache_hit",
            task_index=self._task_index(task_id),
            kind=record.kind,
            span_id=self._sweep_span,
        )
        return True

    def _idle_worker(self) -> _Worker:
        """A live idle worker, forking a new one when none is free."""
        for worker in list(self._workers):
            if worker.task_id is None:
                if worker.proc.is_alive():
                    return worker
                self._retire(worker)
        conn, child = multiprocessing.Pipe()
        proc = multiprocessing.Process(
            target=worker_loop,
            args=(child, [w.conn for w in self._workers] + [conn]),
            name=f"service-worker-{len(self._workers)}",
        )
        proc.start()
        child.close()
        worker = _Worker(proc=proc, conn=conn)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker, join: bool = True) -> None:
        """Drop a worker; closing its pipe tells a live one to exit."""
        self._workers.remove(worker)
        worker.conn.close()
        if join:
            worker.proc.join(timeout=5.0)

    def _dispatch_pending(self) -> None:
        # Busy workers (even one finishing a task another holder already
        # committed) and adopted leases fill the max_workers slots.
        busy = sum(w.task_id is not None for w in self._workers) + sum(
            lease.adopted for lease in self._leases.values()
        )
        for record in self.state.by_state(TaskState.PENDING):
            if record.description is None:
                continue  # cannot rebuild; journal damage, leave visible
            if self._complete_from_cache(record):
                continue
            # Capacity check after the cache fast-path: a full (or
            # zero-local-worker) service still completes cached points
            # immediately — and ``max_workers=0`` is the pure-remote
            # mode where only HTTP worker hosts execute.
            if busy >= self.config.max_workers:
                continue
            busy += 1
            worker = self._idle_worker()
            self._grant(record, worker=worker)
            task_id = record.task_id
            task = self._build_task(task_id, record.description)
            hb = heartbeat_path(self.paths.leases, task_id)
            out = outcome_path(self.paths.outcomes, task_id)
            worker.task_id = task_id
            try:
                worker.conn.send(
                    (task, str(hb), str(out), self.config.heartbeat_interval_s)
                )
            except OSError:
                pass  # died since the liveness check; its sentinel says so

    def _grant(
        self,
        record: Any,
        worker: Optional[_Worker] = None,
        worker_id: Optional[str] = None,
    ) -> _Lease:
        """Lease a pending task to our ``worker`` or remote ``worker_id``.

        The one path that journals ``lease_granted``; the caller ships
        the task (the worker's pipe, or the claim response).
        """
        task_id = record.task_id
        attempt = record.attempts
        remote = {} if worker_id is None else {"worker": worker_id}
        span_id = self.spans.start(
            "point",
            parent_id=self._sweep_span,
            task_id=task_id,
            kind=record.kind,
            attempt=attempt,
            **remote,
        )
        self.journal.append(
            "lease_granted",
            task_id=task_id,
            lease_id=f"{worker_id or os.getpid()}-{self.journal.seq}",
            ttl_s=self.config.lease_ttl_s,
            attempt=attempt,
            **remote,
        )
        record.state = TaskState.LEASED
        maybe_kill("lease_grant")
        self._remove_lease_files(task_id)
        now = time.monotonic()
        lease = self._leases[task_id] = _Lease(
            task_id=task_id,
            attempt=attempt,
            granted_monotonic=now,
            span_id=span_id,
            task_index=self._task_index(task_id),
            worker=worker,
            worker_id=worker_id,
            last_beat_monotonic=now,
        )
        self.trace.record(
            "started",
            task_index=lease.task_index,
            kind=record.kind,
            attempt=attempt,
            span_id=span_id,
            parent_id=self._sweep_span,
        )
        return lease

    def _wake(self) -> None:
        """Cut the scheduling loop's current wait short."""
        if self._wake_w is None:
            return  # not serving yet: the first pass sees everything
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # a wakeup is already pending, or the loop has ended

    def _wait(self, timeout: float) -> None:
        """Block until a worker reports or dies, a wakeup arrives, or
        ``timeout`` passes."""
        ready_on: List[Any] = [self._wake_r]
        for worker in self._workers:
            ready_on.append(worker.proc.sentinel)
            if worker.task_id is not None:
                ready_on.append(worker.conn)
        _wait_ready(ready_on, timeout)
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass  # drained

    # -- collection / watchdog ---------------------------------------------

    def _collect_finished(self) -> None:
        for worker in list(self._workers):
            done = False
            if worker.task_id is not None:
                try:
                    if worker.conn.poll():
                        worker.conn.recv_bytes()
                        done = True
                except (EOFError, OSError):
                    pass  # died mid-lease; the liveness check follows
            if not done and worker.proc.is_alive():
                continue
            task_id, worker.task_id = worker.task_id, None
            if not done:
                self._retire(worker)
            if task_id is None:
                continue
            lease = self._leases.get(task_id)
            if lease is None:
                # Another holder committed this task first: the worker
                # is free again and whatever it left behind is ignored.
                self._remove_lease_files(task_id)
                continue
            outcome = read_outcome(
                outcome_path(self.paths.outcomes, task_id)
            )
            if outcome is not None:
                self._settle(lease, outcome)
            else:
                # Crashed, OOM-killed, or kill -9'd mid-lease.
                self._fail(
                    lease,
                    error=(
                        "worker exited without outcome "
                        f"(exitcode={worker.proc.exitcode})"
                    ),
                    error_type="WorkerDied",
                    worker_pid=worker.proc.pid,
                )
        for lease in list(self._leases.values()):
            if lease.adopted:  # only its outcome file to watch
                outcome = read_outcome(
                    outcome_path(self.paths.outcomes, lease.task_id)
                )
                if outcome is not None:
                    self._settle(lease, outcome)

    def _liveness(self, lease: _Lease, now: float) -> str:
        """The watchdog's verdict: ``live``/``dead``/``stale``/``overrun``.

        A remote pid means nothing on this host, so a remote lease is
        judged by the time since its last heartbeat PUT alone; a local
        or adopted one by :func:`classify_lease` on its heartbeat file.
        """
        cfg = self.config
        elapsed_s = now - lease.granted_monotonic
        if lease.worker_id is None:
            return classify_lease(
                heartbeat_path(self.paths.leases, lease.task_id),
                cfg.lease_ttl_s,
                elapsed_s=elapsed_s,
                task_timeout_s=cfg.task_timeout_s,
            )
        if cfg.task_timeout_s is not None and elapsed_s > cfg.task_timeout_s:
            return "overrun"
        if now - lease.last_beat_monotonic > cfg.lease_ttl_s:
            return "dead"
        return "live"

    def _watchdog(self) -> None:
        now = time.monotonic()
        for lease in list(self._leases.values()):
            worker = lease.worker
            if worker is not None and not worker.proc.is_alive():
                continue  # _collect_finished handles dead workers
            verdict = self._liveness(lease, now)
            if verdict == "live":
                continue
            task_id = lease.task_id
            if lease.worker_id is not None:
                # Reclaim WITHOUT consuming a retry attempt: losing
                # contact (partition, host crash) is not evidence
                # against the task.  A merely partitioned host may still
                # commit later; remote_complete accepts that commit.
                silent_s = now - lease.last_beat_monotonic
                self._release(
                    lease,
                    "lease_reclaimed",
                    f"watchdog: remote {verdict} (silent {silent_s:.1f}s)",
                    worker=lease.worker_id,
                )
                continue
            # Don't race a worker that published its outcome and is
            # merely slow to exit.
            if read_outcome(outcome_path(self.paths.outcomes, task_id)):
                continue
            hb = heartbeat_path(self.paths.leases, task_id)
            pid = (
                worker.proc.pid
                if worker is not None
                else read_heartbeat_pid(hb)
            )
            # Our own worker is never reused once its lease is lost.
            if (
                verdict in ("stale", "overrun") or worker is not None
            ) and pid_alive(pid):
                try:
                    os.kill(pid, _signal.SIGKILL)
                except OSError:
                    pass
            if worker is None:
                # Adopted orphan went dead/stale: reclaim without
                # consuming an attempt — we never saw it fail, we only
                # lost contact.
                self._release(
                    lease,
                    "lease_reclaimed",
                    f"watchdog: {verdict}",
                    worker_pid=pid,
                )
                continue
            self._retire(worker)
            self._fail(
                lease,
                error=f"watchdog reclaim: {verdict} lease",
                error_type="Watchdog",
                worker_pid=pid,
            )

    def _settle(self, lease: _Lease, outcome: Dict[str, Any]) -> None:
        if outcome.get("ok"):
            envelope = outcome.get("envelope") or {}
            result = envelope.get("result")
            if isinstance(result, dict):
                self._commit(
                    lease.task_id,
                    result,
                    worker_pid=envelope.get("worker_pid"),
                    elapsed_s=envelope.get("elapsed_s"),
                    spans=envelope.get("spans"),
                )
                return
            outcome = {
                "ok": False,
                "error": "worker outcome carried no result dict",
                "error_type": "BadOutcome",
            }
        self._fail(
            lease,
            error=str(outcome.get("error", "unknown")),
            error_type=str(outcome.get("error_type", "Unknown")),
            traceback_text=outcome.get("traceback"),
            worker_pid=(
                lease.worker.proc.pid if lease.worker is not None else None
            ),
        )

    def _commit(
        self,
        task_id: str,
        result: Dict[str, Any],
        worker_id: Optional[str] = None,
        worker_pid: Optional[int] = None,
        elapsed_s: Optional[float] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        """Commit a worker's result and drop the task's lease.

        The one path that journals ``task_completed`` from a worker.
        Commit order is the ``result_commit`` crash window: ``cache.put``
        → kill point → journal.  The task's lease is dropped whoever
        holds it, so no later report from another holder can reopen it.
        """
        record = self.state.tasks[task_id]
        self.cache.put(task_id, result, record.description or {})
        maybe_kill("result_commit")
        self.journal.append(
            "task_completed",
            task_id=task_id,
            source="worker",
            result_sha256=result_checksum(result),
            worker=worker_id,
            worker_pid=worker_pid,
            elapsed_s=elapsed_s,
        )
        record.state = TaskState.COMPLETED
        record.completed_from = "worker"
        record.lease = None
        lease = self._leases.pop(task_id, None)
        if spans:
            self.spans.adopt(spans)
        self.trace.record(
            "finished",
            task_index=self._task_index(task_id),
            kind=record.kind,
            attempt=lease.attempt if lease else record.attempts,
            duration_s=elapsed_s,
            worker_pid=worker_pid,
            span_id=lease.span_id if lease else None,
        )
        if lease and lease.span_id:
            self.spans.end(lease.span_id, status="ok")
        self._remove_lease_files(task_id)

    def _fail(
        self,
        lease: _Lease,
        *,
        error: str,
        error_type: str,
        traceback_text: Optional[str] = None,
        worker_pid: Optional[int] = None,
        worker_id: Optional[str] = None,
    ) -> None:
        """One failed attempt: drop the lease, journal, retry-or-quarantine."""
        task_id = lease.task_id
        del self._leases[task_id]
        record = self.state.tasks[task_id]
        attempt = record.attempts + 1
        self.journal.append(
            "task_failed",
            task_id=task_id,
            attempt=attempt,
            error=error,
            error_type=error_type,
            worker_pid=worker_pid,
            worker=worker_id,
        )
        record.attempts = attempt
        record.last_error = error
        record.last_error_type = error_type
        record.lease = None
        self._failures.setdefault(task_id, []).append(
            {
                "attempt": attempt,
                "error": error,
                "error_type": error_type,
                "traceback": traceback_text,
                "epoch_s": time.time(),
                "worker_pid": worker_pid,
                "worker": worker_id,
            }
        )
        self._remove_lease_files(task_id)
        if lease.span_id:
            self.spans.end(lease.span_id, status="error")
        if attempt > self.config.max_retries:
            record_path = write_quarantine_record(
                self.paths.quarantine,
                task_id,
                record.description or {},
                self._failures[task_id],
                run_id=self.trace.run_id,
                span_id=lease.span_id,
            )
            self.journal.append(
                "task_quarantined",
                task_id=task_id,
                attempts=attempt,
                record_path=str(record_path),
            )
            record.state = TaskState.QUARANTINED
            record.quarantine_record = str(record_path)
            self.trace.record(
                "failed",
                task_index=lease.task_index,
                kind=record.kind,
                attempt=attempt,
                error=f"{error_type}: {error}",
                span_id=lease.span_id,
            )
        else:
            record.state = TaskState.PENDING
            self.trace.record(
                "retried",
                task_index=lease.task_index,
                kind=record.kind,
                attempt=attempt,
                error=f"{error_type}: {error}",
                span_id=lease.span_id,
            )

    def _release(
        self, lease: _Lease, event: str, reason: str, **fields: Any
    ) -> None:
        """End a lease WITHOUT consuming an attempt (``event`` is
        ``lease_reclaimed`` or ``lease_released``): a lost contact or a
        stop is not evidence against the task, which goes back to
        PENDING."""
        task_id = lease.task_id
        del self._leases[task_id]
        self.journal.append(event, task_id=task_id, reason=reason, **fields)
        record = self.state.tasks.get(task_id)
        if record is not None and record.state == TaskState.LEASED:
            record.state = TaskState.PENDING
            record.lease = None
        self._remove_lease_files(task_id)
        if lease.span_id:
            self.spans.end(lease.span_id, status="aborted")

    # -- remote sharding (the HTTP worker protocol) ------------------------

    def lease_holders(self) -> Dict[str, Optional[str]]:
        """Task id → remote worker id of every held lease (``None`` for
        a local or adopted one)."""
        with self.lock:
            return {
                task_id: lease.worker_id
                for task_id, lease in self._leases.items()
            }

    def remote_claim(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Lease one pending task to a remote worker host; ``None`` when
        nothing is claimable.

        Same grant, cache fast-path (an already-cached pending task is
        completed here, never shipped) and attempt accounting as a local
        lease.  The returned shard carries the full task description —
        the remote host rebuilds the :class:`~repro.runner.tasks.Task`
        with its exact :class:`~repro.runner.seeding.SeedSpec`, so where
        a task runs can never change its bits.
        """
        with self.lock:
            if self.draining or self.closed:
                return None
            self._wake()
            for record in self.state.by_state(TaskState.PENDING):
                if record.description is None:
                    continue
                if self._complete_from_cache(record):
                    continue
                lease = self._grant(record, worker_id=worker_id)
                return {
                    "task_id": record.task_id,
                    "task": record.description,
                    "attempt": lease.attempt,
                    "lease_ttl_s": self.config.lease_ttl_s,
                    "heartbeat_interval_s": self.config.heartbeat_interval_s,
                }
            return None

    def remote_heartbeat(self, task_id: str, worker_id: str) -> bool:
        """Refresh a remote lease; ``False`` when the lease is gone.

        ``False`` tells the worker its lease was reclaimed (it was
        silent past the TTL, or the server restarted).  The worker may
        still finish and commit — the commit converges idempotently —
        but it must not rely on exclusivity.
        """
        with self.lock:
            lease = self._leases.get(task_id)
            if lease is None or lease.worker_id != worker_id:
                return False
            lease.last_beat_monotonic = time.monotonic()
            return True

    def remote_complete(
        self,
        task_id: str,
        worker_id: str,
        result: Dict[str, Any],
        elapsed_s: Optional[float] = None,
        worker_pid: Optional[int] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> str:
        """Commit a remote result: ``committed`` / ``duplicate`` /
        ``unknown``.

        A partition between the commit and the worker seeing the ack
        converges on redelivery: the retried request finds the task
        COMPLETED and is answered ``duplicate`` — same bits, no
        recomputation.  Commits are accepted even when the lease was
        reclaimed meanwhile, and even when the task is leased again to
        another holder (task identity is the cache key; a correct
        result is a correct result regardless of who held the lease).
        """
        with self.lock:
            if self.closed:
                return "unknown"
            record = self.state.tasks.get(task_id)
            if record is None:
                return "unknown"
            if record.state == TaskState.COMPLETED:
                return "duplicate"
            self._wake()
            self._commit(
                task_id,
                result,
                worker_id=worker_id,
                worker_pid=worker_pid,
                elapsed_s=elapsed_s,
                spans=spans,
            )
            return "committed"

    def remote_fail(
        self,
        task_id: str,
        worker_id: str,
        error: str,
        error_type: str = "RemoteWorkerError",
        traceback_text: Optional[str] = None,
    ) -> str:
        """Record a remote attempt failure: ``failed`` / ``ignored``.

        Only the current lease holder's report consumes an attempt — a
        stale worker whose lease was already reclaimed (its failure may
        have *been* the partition) is ignored, preserving the
        reclaim-does-not-consume-an-attempt invariant.
        """
        with self.lock:
            if self.closed:
                return "ignored"
            lease = self._leases.get(task_id)
            if lease is None or lease.worker_id != worker_id:
                return "ignored"
            self._wake()
            self._fail(
                lease,
                error=error,
                error_type=error_type,
                traceback_text=traceback_text,
                worker_id=worker_id,
            )
            return "failed"

    # -- drain / shutdown --------------------------------------------------

    def _drain(self) -> None:
        """Stop dispatching; settle or release what's in flight.

        Remote leases get the same courtesy as local workers: the drain
        window lets in-flight hosts commit their results (the HTTP
        result route stays open while ``draining`` — only *new*
        submissions and claims are refused with 503); leases still held
        at the deadline are released without consuming an attempt.
        """
        with self.lock:
            self.draining = True
            remote = sum(
                lease.worker_id is not None for lease in self._leases.values()
            )
            self.journal.append(
                "drain_start",
                pid=os.getpid(),
                inflight=len(self._leases) - remote,
                remote=remote,
            )
        deadline = time.monotonic() + self.config.drain_timeout_s
        while True:
            with self.lock:
                self._collect_finished()
                if not self._leases:
                    break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._wait(min(self.config.poll_interval_s, remaining))
        with self.lock:
            self._release_leases(terminate=True)

    def _release_leases(self, terminate: bool) -> None:
        # Every busy worker stops, including one whose task another
        # holder already committed (it holds no lease any more).
        for worker in self._workers if terminate else ():
            if worker.task_id is not None and worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=2.0)
        for lease in list(self._leases.values()):
            self._release(
                lease,
                "lease_released",
                "drain" if terminate else "shutdown",
                worker=lease.worker_id,
            )

    # -- helpers -----------------------------------------------------------

    def _remove_lease_files(self, task_id: str) -> None:
        for path in (
            heartbeat_path(self.paths.leases, task_id),
            outcome_path(self.paths.outcomes, task_id),
        ):
            try:
                path.unlink()
            except OSError:
                pass

    def _flush_telemetry(self) -> None:
        telemetry = self.paths.telemetry
        try:
            telemetry.mkdir(parents=True, exist_ok=True)
            self.trace.flush_jsonl(telemetry / "trace.jsonl")
            self.spans.flush_jsonl(telemetry / "spans.jsonl")
            write_openmetrics(
                telemetry / "metrics.prom", run_id=self.trace.run_id
            )
        except OSError:
            pass
