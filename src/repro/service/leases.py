"""Lease heartbeats and the watchdog's liveness classification.

A lease is the orchestrator's claim record that one worker process owns
one task right now.  The durable half lives in the journal
(``lease_granted`` / ``lease_reclaimed`` / ``lease_released``); this
module is the *volatile* half: a per-task heartbeat file that the
worker's daemon thread touches every few seconds, and the read side the
orchestrator's watchdog uses to decide whether a lease is still backed
by a living, progressing process.

The heartbeat file (``leases/<task_id>.hb``) holds the worker's pid as
text; its **mtime** is the heartbeat.  Touching an existing file is one
``os.utime`` — no write amplification, atomic by construction, and a
reader never sees a torn heartbeat (the pid is written once, before the
lease is considered granted).

Watchdog verdicts (:func:`classify_lease`):

``live``
    Process exists and the heartbeat is fresh — leave it alone.
``dead``
    The worker pid no longer exists (crashed, OOM-killed, ``kill -9``).
    Reclaim immediately; there is nobody to wait for.
``stale``
    The pid exists but the heartbeat stopped (worker wedged — stuck in
    a syscall, deadlocked, or the heartbeat thread died with the GIL
    held).  Kill the process, then reclaim.
``overrun``
    Heartbeats are arriving but the task has exceeded its hard
    ``task_timeout``.  A wedged simulation loop heartbeats forever; the
    timeout is the backstop.  Kill, then reclaim.

Reclaimed tasks are retried with the exact same
:class:`~repro.runner.seeding.SeedSpec` (the PR 2 bit-identical-retry
guarantee), so a reclaim never changes the sweep's numbers — only its
wall-clock.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Optional, Union

__all__ = [
    "LEASES_DIRNAME",
    "HeartbeatWriter",
    "classify_lease",
    "heartbeat_age_s",
    "heartbeat_path",
    "pid_alive",
    "read_heartbeat_pid",
    "write_heartbeat",
]

#: Heartbeat directory inside a service directory.
LEASES_DIRNAME = "leases"


def heartbeat_path(
    leases_dir: Union[str, Path], task_id: str
) -> Path:
    return Path(leases_dir) / f"{task_id}.hb"


def write_heartbeat(path: Union[str, Path], pid: int) -> None:
    """Create/refresh the heartbeat: pid as content, *now* as mtime."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        try:
            os.utime(path, None)
            return
        except OSError:
            pass
    path.write_text(str(pid), encoding="utf-8")


def read_heartbeat_pid(path: Union[str, Path]) -> Optional[int]:
    """The pid recorded in the heartbeat file, or ``None``."""
    try:
        return int(Path(path).read_text(encoding="utf-8").strip())
    except (OSError, ValueError):
        return None


def heartbeat_age_s(
    path: Union[str, Path], now: Optional[float] = None
) -> Optional[float]:
    """Seconds since the last heartbeat touch, or ``None`` if missing."""
    try:
        mtime = Path(path).stat().st_mtime
    except OSError:
        return None
    return max(0.0, (time.time() if now is None else now) - mtime)


def pid_alive(pid: Optional[int]) -> bool:
    """True when ``pid`` names an existing process we may signal."""
    if not pid or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        # Exists but owned by someone else — still alive.
        return True
    except OSError:
        return False
    return True


def classify_lease(
    hb_path: Union[str, Path],
    lease_ttl_s: float,
    elapsed_s: float,
    task_timeout_s: Optional[float] = None,
    now: Optional[float] = None,
) -> str:
    """Watchdog verdict for one leased task: live/dead/stale/overrun.

    ``elapsed_s`` is how long the lease has been held (from the grant
    timestamp the orchestrator tracks); ``lease_ttl_s`` is the maximum
    tolerated heartbeat silence.  A missing heartbeat file within the
    TTL of the grant is still ``live`` — the worker may not have
    started the task yet; after the TTL with no file, it is ``dead``
    (the task never reached a worker, the ``lease_grant`` kill-point
    case).
    """
    if task_timeout_s is not None and elapsed_s > task_timeout_s:
        return "overrun"
    age = heartbeat_age_s(hb_path, now=now)
    if age is None:
        return "live" if elapsed_s <= lease_ttl_s else "dead"
    pid = read_heartbeat_pid(hb_path)
    if not pid_alive(pid):
        return "dead"
    if age > lease_ttl_s:
        return "stale"
    return "live"


class HeartbeatWriter:
    """Daemon thread touching a worker's heartbeat file periodically.

    Started inside the worker process when it takes a lease (so the
    pid in the file is the worker's own), stopped once the lease's
    outcome is published.  A
    daemon thread keeps the beat alive through long simulation steps
    that never return to Python — the exact wedge the ``stale`` verdict
    exists for is a *dead* heartbeat thread, which only happens when
    the whole process is beyond saving anyway.
    """

    def __init__(
        self, path: Union[str, Path], interval_s: float = 1.0
    ) -> None:
        self.path = Path(path)
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="service-heartbeat", daemon=True
        )

    def start(self) -> "HeartbeatWriter":
        write_heartbeat(self.path, os.getpid())
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                write_heartbeat(self.path, os.getpid())
            except OSError:
                # The orchestrator may have reclaimed and removed the
                # lease dir out from under us; dying loudly here would
                # abort a task that might still commit usefully.
                pass

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self.interval_s + 1.0)

    def __enter__(self) -> "HeartbeatWriter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
