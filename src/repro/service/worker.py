"""Service worker processes: persistent, with per-lease crash isolation.

The orchestrator keeps at most ``max_workers`` long-lived worker
processes, forked on first dispatch.  Each runs :func:`worker_loop`:
receive one leased task over its own pipe, run :func:`worker_main` for
it, answer one "done" byte, wait for the next.  A worker pays its
imports (scipy for the model curves) once, not once per task.

Crash isolation stays per lease: a worker holds at most one lease, so a
segfaulting or OOM-killed point fails that lease alone, and the
watchdog's ``SIGKILL`` on the lease holder's pid touches no other task.
The orchestrator replaces a dead worker on its next dispatch.  A worker
exits on EOF from its pipe — the orchestrator closed it, or died — so
an orphan lives at most until it publishes its current outcome.

The pipe only wakes the scheduler.  A lease's entire observable output
is one file: the *outcome envelope* at ``outcomes/<task_id>.json``,
written atomically (temp + fsync + rename) before the "done" byte::

    {"ok": true,  "envelope": {... run_task envelope ...}}
    {"ok": false, "error": "...", "error_type": "KeyError",
     "traceback": "..."}

Atomic write means the orchestrator (or its restarted successor —
workers can outlive the orchestrator that forked them) either sees a
complete, parseable outcome or no outcome at all; there is no torn
state to reason about.  Execution itself is
:func:`repro.runner.tasks.run_task` — the same entry the pool runner
uses — so checkpoint resume, telemetry spans, and the
``REPRO_FAULT_INJECT`` hook all work in service workers unchanged.
"""

from __future__ import annotations

import json
import traceback
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from ..checkpoint.integrity import atomic_write_text
from ..runner.seeding import SeedSpec
from ..runner.tasks import Task
from .leases import HeartbeatWriter

__all__ = [
    "OUTCOMES_DIRNAME",
    "outcome_path",
    "read_outcome",
    "task_from_description",
    "worker_loop",
    "worker_main",
    "write_outcome",
]

#: Outcome-envelope directory inside a service directory.
OUTCOMES_DIRNAME = "outcomes"


def outcome_path(
    outcomes_dir: Union[str, Path], task_id: str
) -> Path:
    return Path(outcomes_dir) / f"{task_id}.json"


def task_from_description(
    description: Dict[str, Any],
    runtime: Optional[Dict[str, Any]] = None,
) -> Task:
    """Rebuild a :class:`Task` from its journaled ``describe()`` dict.

    The inverse of :meth:`Task.describe` — the property that lets a
    restarted orchestrator reconstruct its whole queue from the journal
    alone, with cache keys (and therefore result identity) unchanged.
    """
    seed = description.get("seed")
    return Task(
        kind=description["kind"],
        payload=description["payload"],
        seed=SeedSpec.from_jsonable(seed) if seed else None,
        runtime=runtime,
    )


def write_outcome(path: Union[str, Path], outcome: Dict[str, Any]) -> None:
    """Atomically publish a worker's outcome envelope."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(str(path), json.dumps(outcome))


def read_outcome(
    path: Union[str, Path],
) -> Optional[Dict[str, Any]]:
    """The outcome at ``path``, or ``None`` if absent/unparseable."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        outcome = json.loads(raw)
    except json.JSONDecodeError:
        return None
    if not isinstance(outcome, dict) or "ok" not in outcome:
        return None
    return outcome


def worker_main(
    task: Task,
    hb_path: str,
    out_path: str,
    heartbeat_interval_s: float = 1.0,
) -> None:
    """Run one lease: heartbeat, execute, publish the outcome.

    Never raises — every failure mode (including task kinds that throw
    on malformed payloads) becomes an ``ok: false`` outcome the
    orchestrator turns into a ``task_failed`` journal record.  Failure
    modes that *can't* run this code (segfault, OOM, ``SIGKILL``)
    leave no outcome file, which is exactly the signal the watchdog's
    dead/stale verdicts translate into a reclaim.
    """
    from ..runner.tasks import run_task

    beat = HeartbeatWriter(hb_path, interval_s=heartbeat_interval_s)
    beat.start()
    try:
        try:
            envelope = run_task(task)
            outcome: Dict[str, Any] = {"ok": True, "envelope": envelope}
        except BaseException as exc:
            outcome = {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(),
            }
        write_outcome(out_path, outcome)
    finally:
        beat.stop()


def worker_loop(conn: Any, inherited: Iterable[Any] = ()) -> None:
    """Persistent worker process target: run leases until EOF.

    Each message on ``conn`` is one ``(task, hb_path, out_path,
    heartbeat_interval_s)`` lease for :func:`worker_main`; one byte
    back says its outcome is published and the worker is free.
    ``inherited`` are the orchestrator's ends of every worker pipe,
    copied by the fork; closing them here lets EOF reach each worker
    as soon as the orchestrator's own end goes.
    """
    for other in inherited:
        other.close()
    while True:
        try:
            lease = conn.recv()
        except (EOFError, OSError):
            return
        worker_main(*lease)
        try:
            conn.send_bytes(b"\x01")
        except OSError:
            return
