"""Timing probes around the public entry points of each layer.

The benchmark never edits ``src/``.  A traced run instead replaces a
few public functions and methods with wrappers that time the call and
hand it on unchanged.  Each wrapper records one span:

    {"layer", "op", "pid", "t0", "dur", "self", ...extra}

``t0`` is ``time.perf_counter()``, one monotonic clock shared by the
benchmark process and the worker processes it forks, so spans from
different processes line up.  ``self`` is the span's duration minus the
time its direct child spans (in the same thread) cover.

Spans stay in memory.  The benchmark process writes them out when it
finishes; a forked worker writes its spans when its outermost span
ends, because worker processes leave through ``os._exit`` and run no
exit hooks.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "install"]


class Tracer:
    """Collects spans and counters of one process tree."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child starts with the parent's buffers; drop them so
        # every span is written exactly once, by the process that made it.
        self.records: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def flush(self) -> None:
        lines = [json.dumps(record) for record in self.records]
        lines += [
            json.dumps({"counter": name, "value": value})
            for name, value in self.counters.items()
        ]
        self.records = []
        self.counters = {}
        if not lines:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def wrap(
        self,
        fn: Callable,
        layer: str,
        op: str,
        note: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``note(result, *args, **kwargs)`` may add fields to the span;
        it sees ``result=None`` when the call raised.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            result = None
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                record = {
                    "layer": layer,
                    "op": op,
                    "pid": os.getpid(),
                    "t0": t0,
                    "dur": dur,
                    "self": dur - frame[0],
                }
                if not ok:
                    record["error"] = True
                if note is not None:
                    record.update(note(result, *args, **kwargs))
                tracer.records.append(record)
                if not stack and os.getpid() != tracer.main_pid:
                    tracer.flush()

        return wrapper


class _EventCounter:
    """Engine monitor (``Environment.set_monitor``) counting events."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def event_begin(self, event: Any) -> None:
        self._tracer.count("engine.events")

    def event_end(self, event: Any) -> None:
        pass


def _sim_note(tracer, finished, sim, *args, **kwargs):
    return {"sim_us": sim.scenario.sim_time_us} if finished else {}


def _kernel_note(tracer, results, kernel, *args, **kwargs):
    return {
        "points": kernel.batch_size,
        "sim_us": float(sum(s.sim_time_us for s in kernel.scenarios)),
    }


def _testbed_note(tracer, testbed, *args, **kwargs):
    if testbed is not None:
        testbed.env.set_monitor(_EventCounter(tracer))
    return {}


def _get_note(tracer, result, *args, **kwargs):
    return {"hit": result is not None}


def _worker_note(tracer, result, task, hb_path, out_path, *args, **kwargs):
    return {"task_id": Path(out_path).stem}


def _http_note(tracer, result, method, url, *args, **kwargs):
    note: Dict[str, Any] = {"method": method, "path": url.split("/", 3)[-1]}
    if result is not None:
        note["status"] = result[0]
    return note


#: (module, attribute path, layer, op, note) of every probed entry point.
PROBES = (
    ("repro.analysis.model", "Model1901.solve", "analysis", "solve", None),
    ("repro.analysis.bianchi", "Bianchi80211Model.solve", "analysis", "solve", None),
    ("repro.analysis.markov", "StationChain.solve", "analysis", "chain_solve", None),
    ("repro.core.simulator", "SlotSimulator.advance", "core", "advance", _sim_note),
    ("repro.batch.kernel", "BatchSlotKernel.run", "batch", "dispatch", _kernel_note),
    ("repro.checkpoint.slotsim", "run_simulate_with_checkpoints", "checkpoint", "drive", None),
    ("repro.experiments.testbed", "build_testbed", "testbed", "build", _testbed_note),
    ("repro.experiments.testbed", "Testbed.run_until", "testbed", "run_until", None),
    ("repro.experiments.procedures", "run_collision_test", "testbed", "collision_test", None),
    ("repro.runner.tasks", "run_task", "runner", "attempt", None),
    ("repro.runner.runner", "ExperimentRunner.run", "runner", "run", None),
    ("repro.runner.batch", "BatchRunner.run_points", "runner", "run_points", None),
    ("repro.runner.cache", "ResultCache.get", "cache", "get", _get_note),
    ("repro.runner.cache", "ResultCache.put", "cache", "put", None),
    ("repro.service.journal", "JournalWriter.append", "service", "journal_append", None),
    ("repro.service.worker", "worker_main", "service", "worker", _worker_note),
    ("repro.service.net.wire", "http_json", "net", "request", _http_note),
    ("repro.validity.harness", "build_validity_map", "validity", "map", None),
)


def install(tracer: Tracer) -> None:
    """Replace every probed entry point with a timing wrapper.

    A probed module is patched as soon as it is imported, so tracing
    moves no import earlier than the program makes it (worker processes
    import some layers lazily, and that cost belongs to the run).  The
    hook is inherited by forked workers.  Call before the workload
    builds its runner or service.
    """
    pending: Dict[str, List[tuple]] = {}
    for probe in PROBES:
        pending.setdefault(probe[0], []).append(probe)

    def patch(module: Any) -> None:
        for _, path, layer, op, note in pending.pop(module.__name__, ()):
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            bound = functools.partial(note, tracer) if note else None
            wrapped = tracer.wrap(original, layer, op, bound)
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            # Modules that already imported the function by name.
            for other in list(sys.modules.values()):
                if getattr(other, attr, None) is original and getattr(
                    other, "__name__", ""
                ).startswith("repro."):
                    setattr(other, attr, wrapped)

    for name in list(pending):
        if name in sys.modules:
            patch(sys.modules[name])
    sys.meta_path.insert(0, _PatchOnImport(pending, patch))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after a pending module executes."""

    def __init__(self, pending: Dict[str, Any], patch: Callable) -> None:
        self._pending = pending
        self._patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname not in self._pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module
        patch = self._patch

        def exec_and_patch(module: Any) -> None:
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec
