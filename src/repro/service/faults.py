"""Deterministic orchestrator kill points for the crash-recovery suite.

The durable-orchestrator guarantee — ``kill -9`` at any instant loses
nothing — is only worth claiming if the test suite can place the kill
*at* the instants that matter: right after a journal append becomes
durable, between granting a lease and handing it to a worker, between
committing a result to the cache and journaling the completion.  This
module provides those kill points, mirroring the conventions of
:mod:`repro.runner.faults` (environment-controlled, one-shot via an
``O_EXCL`` claim directory, zero cost when disabled):

``REPRO_SERVICE_KILL``
    ``point[:times=N]`` — which kill point fires, and how many times
    (default 1).  Registered points:

    - ``journal_append`` — after a journal record is written and
      fsynced (the record must survive; the transition it describes
      has not been acted on yet);
    - ``lease_grant`` — after the ``lease_granted`` record is durable
      but before the task is sent to its (already running, idle)
      worker: a lease no worker ever started, the watchdog-reclaim
      case, and an idle worker that must exit on its pipe's EOF;
    - ``result_commit`` — after the result is written to the content-
      addressed cache but before ``task_completed`` is journaled (the
      re-run must dedupe against the cache, not recompute).

``REPRO_SERVICE_KILL_DIR``
    Claim-marker directory shared across orchestrator incarnations;
    required for injection to be active (same fail-safe as the runner
    hook: without one-shot coordination, a restart would die at the
    same point forever and the sweep could never finish).

The kill is ``os._exit`` — no ``atexit``, no ``finally`` blocks, no
flushes — the closest a test can get to ``kill -9`` from inside.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Optional

__all__ = [
    "ENV_SERVICE_KILL",
    "ENV_SERVICE_KILL_DIR",
    "ENV_NET_FAULT",
    "ENV_NET_FAULT_DIR",
    "KILL_EXIT_CODE",
    "KILL_POINTS",
    "NET_FAULT_MODES",
    "maybe_kill",
    "maybe_net_fault",
    "parse_net_fault",
]

ENV_SERVICE_KILL = "REPRO_SERVICE_KILL"
ENV_SERVICE_KILL_DIR = "REPRO_SERVICE_KILL_DIR"

#: Deterministic network fault plan for the HTTP layer
#: (:mod:`repro.service.net`): ``mode[:times=N][,role=R][,delay_s=S]``.
ENV_NET_FAULT = "REPRO_NET_FAULT"
ENV_NET_FAULT_DIR = "REPRO_NET_FAULT_DIR"

#: Registered network fault modes, injected at the HTTP boundary:
#:
#: - ``drop`` — the request is *processed* but its response is lost
#:   (client raises before reading the reply; server processes then
#:   closes without answering) — the lost-ack case that proves
#:   idempotent redelivery converges;
#: - ``delay`` — the exchange is stalled ``delay_s`` seconds (default
#:   0.5) before proceeding normally — exercises timeouts and retries;
#: - ``duplicate`` — the same request is delivered twice — proves
#:   content-hash dedupe and duplicate-commit tolerance;
#: - ``partition`` — the request never reaches the other side (client
#:   raises before sending; server closes the connection unread).
NET_FAULT_MODES = ("drop", "delay", "duplicate", "partition")

#: Exit status of an injected orchestrator kill — distinct from the
#: worker fault code (117) so postmortems can tell who died.
KILL_EXIT_CODE = 113

#: The registered kill points; ``maybe_kill`` rejects unknown names so
#: a typo in a test fails loudly instead of never firing.
KILL_POINTS = ("journal_append", "lease_grant", "result_commit")


def _parse(spec: str) -> Optional[tuple]:
    point, _, rest = spec.strip().partition(":")
    times = 1
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or key.strip() != "times":
                raise ValueError(
                    f"malformed kill option {item!r} in {spec!r}"
                )
            times = int(value)
    if point not in KILL_POINTS:
        raise ValueError(
            f"unknown kill point {point!r}; registered: {KILL_POINTS}"
        )
    if times < 1:
        raise ValueError("times must be >= 1")
    return point, times


def maybe_kill(
    point: str, environ: Optional[Mapping[str, str]] = None
) -> None:
    """Die via ``os._exit`` if ``point`` is armed and unclaimed.

    No-op (one dict lookup) unless ``REPRO_SERVICE_KILL`` is set.
    Each armed kill fires at most ``times`` times across all
    orchestrator incarnations sharing the claim directory, so the
    restarted orchestrator runs the same code path clean.
    """
    assert point in KILL_POINTS, f"unregistered kill point {point!r}"
    environ = os.environ if environ is None else environ
    spec = environ.get(ENV_SERVICE_KILL)
    if not spec:
        return
    claim_dir = environ.get(ENV_SERVICE_KILL_DIR)
    if not claim_dir:
        return
    armed_point, times = _parse(spec)
    if armed_point != point:
        return
    if not _claim(Path(claim_dir), point, times):
        return
    os._exit(KILL_EXIT_CODE)


def parse_net_fault(spec: str) -> tuple:
    """Parse ``mode[:times=N][,role=R][,delay_s=S]`` → (mode, times,
    role, delay_s).

    ``role`` restricts the fault to one injection side (``server``,
    ``client``, or ``worker``); ``None`` (default) fires on whichever
    side claims a slot first.  Unknown modes and malformed options
    raise — a typo in a test must fail loudly, not silently never fire.
    """
    mode, _, rest = spec.strip().partition(":")
    times = 1
    role: Optional[str] = None
    delay_s = 0.5
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(
                    f"malformed net-fault option {item!r} in {spec!r}"
                )
            if key == "times":
                times = int(value)
            elif key == "role":
                role = value.strip()
            elif key == "delay_s":
                delay_s = float(value)
            else:
                raise ValueError(
                    f"unknown net-fault option {key!r} in {spec!r}"
                )
    if mode not in NET_FAULT_MODES:
        raise ValueError(
            f"unknown net fault mode {mode!r}; registered: {NET_FAULT_MODES}"
        )
    if times < 1:
        raise ValueError("times must be >= 1")
    return mode, times, role, delay_s


def maybe_net_fault(
    role: str, environ: Optional[Mapping[str, str]] = None
) -> Optional[tuple]:
    """Claim one armed network fault for ``role``; ``(mode, delay_s)``
    or ``None``.

    The caller — the HTTP request path of :mod:`repro.service.net`, on
    either side of the wire — decides what the claimed mode *means* at
    its boundary; this function only does the deterministic arming:
    environment-controlled, at most ``times`` firings across every
    process sharing the ``REPRO_NET_FAULT_DIR`` claim directory (the
    same ``O_EXCL`` slot discipline as the kill points, so a retried
    request after a claimed fault goes through clean).
    """
    environ = os.environ if environ is None else environ
    spec = environ.get(ENV_NET_FAULT)
    if not spec:
        return None
    claim_dir = environ.get(ENV_NET_FAULT_DIR)
    if not claim_dir:
        return None
    mode, times, armed_role, delay_s = parse_net_fault(spec)
    if armed_role is not None and armed_role != role:
        return None
    if not _claim(Path(claim_dir), f"net-{mode}", times):
        return None
    return mode, delay_s


def _claim(marker_dir: Path, point: str, times: int) -> bool:
    """Take one of ``times`` one-shot slots for ``point``, atomically."""
    marker_dir.mkdir(parents=True, exist_ok=True)
    for k in range(times):
        slot = marker_dir / f"kill-{point}-{k}"
        try:
            with open(slot, "x", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            return True
        except FileExistsError:
            continue
    return False
