"""The benchmark's workloads and their reference results.

Each workload is a closed loop: one caller hands a fixed task set to a
public entry point of the program and waits for every result
(``first``), then hands it an overlapping second task set
(``second``).  A workload runs in its own fresh interpreter
(``rep.py``); ``setup`` is everything from there to ready.

Outputs are ``{"points": {cache_key: result}, "derived": ...}``.
``points`` is compared with a serial, uncached
:class:`~repro.runner.ExperimentRunner` computing the same tasks
(:func:`reference`); ``derived`` holds what the entry point builds
from the points (table rows, the validity map) and is pinned, with the
points, by the committed digest of the default seed.
"""

from __future__ import annotations

import hashlib
import json
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

__all__ = [
    "SCALES",
    "WORKERS",
    "WORKLOADS",
    "Workload",
    "digest",
    "mismatches",
    "reference",
]

#: Worker processes of the system under test (``nproc`` of the
#: 2-CPU reference machine).
WORKERS = 2

#: Client poll interval of ``SweepClient.run_sweep`` (default 0.5 s,
#: which would quantize a sweep of a few seconds).
POLL_S = 0.02

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: keeps the benchmark's own tests fast.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "fsm_sweep": {
            "counts": range(2, 8), "more_counts": range(2, 9),
            "sim_time_us": 1.5e7, "reps": 2,
        },
        "service_sweep": {
            "counts": range(2, 5), "more_counts": range(2, 8),
            "sim_time_us": 3e5, "reps": 4,
        },
        "validity_map": {
            "counts": (50,), "regimes": None, "sim_time_us": 1e6,
        },
        "testbed_table2": {
            "counts": range(1, 8), "more_counts": range(1, 10),
            "duration_us": 1e7,
        },
    },
    "tiny": {
        "fsm_sweep": {
            "counts": range(2, 4), "more_counts": range(2, 5),
            "sim_time_us": 1e5, "reps": 1,
        },
        "service_sweep": {
            "counts": range(2, 3), "more_counts": range(2, 4),
            "sim_time_us": 1e5, "reps": 1,
        },
        "validity_map": {
            "counts": (5,), "regimes": ("saturated",), "sim_time_us": 1e5,
        },
        "testbed_table2": {
            "counts": range(1, 3), "more_counts": range(1, 4),
            "duration_us": 5e5,
        },
    },
}


def _keyed(tasks: Sequence[Any], results: Sequence[Any]) -> Dict[str, Any]:
    from repro.runner import cache_key

    return {cache_key(t.describe()): r for t, r in zip(tasks, results)}


def _cache_entries(cache_dir: Path) -> Dict[str, Any]:
    """Every result the program committed to a result cache dir."""
    from repro.runner import ResultCache

    cache = ResultCache(cache_dir)
    return {p.stem: cache.get(p.stem) for p in cache.entry_paths()}


class Workload:
    """One workload; subclasses fill in the four phases."""

    name = ""
    why = ""
    #: Execution slots: worker processes, or 1 for in-process work.
    slots = WORKERS

    def __init__(self, seed: int, scale: str, rep_dir: Path, traced: bool):
        self.seed = seed
        self.size = SCALES[scale][self.name]
        self.dir = Path(rep_dir)
        self.traced = traced
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def first(self) -> None:
        raise NotImplementedError

    def second(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever ``setup`` started."""

    def outputs(self) -> Dict[str, Any]:
        raise NotImplementedError

    def telemetry_dir(self) -> Path:
        """Where the program writes its own telemetry in a traced run."""
        return self.dir / "telemetry"

    def reference_tasks(self) -> List[Any]:
        """The distinct tasks whose results ``outputs`` must hold."""
        raise NotImplementedError


class FsmSweep(Workload):
    name = "fsm_sweep"
    why = (
        "long standard-sweep points through ExperimentRunner(2): the "
        "scalar slot FSM does the work; FSM speed-ups show here"
    )

    def _tasks(self, counts: Sequence[int]) -> List[Any]:
        from repro.service import standard_sweep_tasks

        return standard_sweep_tasks(
            counts,
            sim_time_us=self.size["sim_time_us"],
            repetitions=self.size["reps"],
            seed=self.seed,
        )

    def _task_sets(self) -> List[List[Any]]:
        return [self._tasks(self.size["counts"]),
                self._tasks(self.size["more_counts"])]

    def setup(self) -> None:
        from repro.runner import ExperimentRunner

        self.tasks = self._task_sets()
        self.runner = ExperimentRunner(
            max_workers=WORKERS,
            cache_dir=self.dir / "cache",
            telemetry_dir=self.telemetry_dir() if self.traced else None,
        )
        self.results: List[Any] = []

    def _run(self, tasks: List[Any]) -> None:
        self.attempted += len(tasks)
        self.results.append(self.runner.run(tasks))
        self.failed = len(self.runner.failures)

    def first(self) -> None:
        self._run(self.tasks[0])

    def second(self) -> None:
        self._run(self.tasks[1])

    def outputs(self) -> Dict[str, Any]:
        points: Dict[str, Any] = {}
        for tasks, results in zip(self.tasks, self.results):
            points.update(_keyed(tasks, results))
        return {"points": points, "derived": None}

    def reference_tasks(self) -> List[Any]:
        first, second = self._task_sets()
        return _distinct(first + second)


class ServiceSweep(FsmSweep):
    name = "service_sweep"
    why = (
        "short points through SweepClient -> serve_http -> Orchestrator "
        "with 2 leased workers, then an overlapping resubmit: per-task "
        "fixed costs dominate"
    )

    def setup(self) -> None:
        from contextlib import ExitStack

        from repro.service import Orchestrator, ServiceConfig
        from repro.service.net import SweepClient, serve_http

        self.tasks = self._task_sets()
        self.results = []
        self.orchestrator = Orchestrator(
            ServiceConfig(service_dir=self.dir / "service",
                          max_workers=WORKERS)
        )
        self._stack = ExitStack()
        server = self._stack.enter_context(
            serve_http(self.orchestrator, "127.0.0.1:0")
        )
        self._serve = threading.Thread(
            target=self.orchestrator.serve, name="orchestrator"
        )
        self._serve.start()
        self.client = SweepClient(server.url)

    def _run(self, tasks: List[Any]) -> None:
        self.attempted += len(tasks)
        out = self.client.run_sweep(tasks, poll_s=POLL_S, timeout_s=150)
        if out["source"] != "remote":
            raise RuntimeError(f"service unreachable: {out.get('reason')}")
        self.results.append(out["results"])

    def teardown(self) -> None:
        from repro.service import request_drain
        from repro.service.state import TaskState

        request_drain(self.dir / "service")
        self._serve.join(timeout=60)
        self._stack.close()
        if self._serve.is_alive():
            raise RuntimeError("orchestrator did not drain")
        counts = self.orchestrator.state.counts()
        self.failed = counts[TaskState.QUARANTINED] + _refused(
            self.telemetry_dir() / "http_access.jsonl"
        )

    def telemetry_dir(self) -> Path:
        return self.dir / "service" / "telemetry"

    def outputs(self) -> Dict[str, Any]:
        out = super().outputs()
        # What the client fetched must be what the service committed;
        # a served result that differs is replaced by a marker no
        # reference holds, so the check fails on it.
        committed = _cache_entries(self.dir / "service" / "cache")
        for key, result in out["points"].items():
            if committed.get(key) != result:
                out["points"][key] = {"differs_from_committed": key}
        return out


def _refused(access_log: Path) -> int:
    refused = 0
    if access_log.is_file():
        for line in access_log.read_text(encoding="utf-8").splitlines():
            if json.loads(line).get("status") in (429, 503):
                refused += 1
    return refused


class _Captured(Exception):
    """Raised by :class:`_CaptureRunner` to stop a sweep once it is known."""

    def __init__(self, items: List[Any]) -> None:
        super().__init__("captured")
        self.items = items


class _CaptureRunner:
    """Stands in for a runner: records what it is asked to run, runs nothing."""

    def run(self, tasks):
        raise _Captured(list(tasks))

    def run_points(self, pairs):
        raise _Captured(list(pairs))


class Validity(Workload):
    name = "validity_map"
    why = (
        "build_validity_map over 4 regimes at N=50 on BatchRunner with "
        "the markov model, then again from the cache: analysis and batch "
        "do the work"
    )
    slots = 1

    def _build(self, runner: Any) -> Any:
        from repro.validity.harness import build_validity_map

        return build_validity_map(
            counts=self.size["counts"],
            regimes=self.size["regimes"],
            sim_time_us=self.size["sim_time_us"],
            seed=self.seed,
            runner=runner,
        )

    def setup(self) -> None:
        from repro.runner import BatchRunner
        import repro.validity.harness  # noqa: F401  (the model loads on first use)

        self.runner = BatchRunner(
            cache_dir=self.dir / "cache",
            telemetry_dir=self.telemetry_dir() if self.traced else None,
        )
        self.maps: List[Any] = []

    def _run(self) -> None:
        self.maps.append(self._build(self.runner).as_dict())
        self.attempted += sum(row["repetitions"] for row in self.maps[-1]["rows"])

    first = _run
    second = _run  # the same map again: points cached, model re-solved

    def outputs(self) -> Dict[str, Any]:
        if any(m != self.maps[0] for m in self.maps):
            raise RuntimeError("the resubmitted validity map differs")
        return {"points": _cache_entries(self.dir / "cache"),
                "derived": self.maps[0]}

    def reference_tasks(self) -> List[Any]:
        from repro.runner import SeedSpec, Task, TaskKind
        from repro.runner.serialize import scenario_to_jsonable

        try:
            self._build(_CaptureRunner())
        except _Captured as captured:
            pairs = captured.items
        return _distinct(
            Task(
                kind=TaskKind.SIMULATE,
                payload={
                    "scenario": scenario_to_jsonable(scenario),
                    "record_winners": False,
                },
                seed=SeedSpec.from_jsonable(spec.as_jsonable()),
            )
            for scenario, spec in pairs
        )


class Table2(Workload):
    name = "testbed_table2"
    why = (
        "table2_data N=1..7 through ExperimentRunner(2), then N=1..9: "
        "the only workload for engine/mac/hpav/phy; 7 uneven tasks show "
        "the tail"
    )

    def _table(self, counts: Sequence[int], runner: Any) -> Any:
        from repro.experiments.collision_probability import table2_data

        return table2_data(
            counts, duration_us=self.size["duration_us"], seed=self.seed,
            runner=runner,
        )

    def setup(self) -> None:
        from repro.runner import ExperimentRunner
        import repro.experiments.collision_probability  # noqa: F401

        self.runner = ExperimentRunner(
            max_workers=WORKERS,
            cache_dir=self.dir / "cache",
            telemetry_dir=self.telemetry_dir() if self.traced else None,
        )
        self.tables: List[Any] = []

    def _run(self, counts: Sequence[int]) -> None:
        self.attempted += len(counts)
        self.tables.append(self._table(counts, self.runner))
        self.failed = len(self.runner.failures)

    def first(self) -> None:
        self._run(self.size["counts"])

    def second(self) -> None:
        self._run(self.size["more_counts"])

    def outputs(self) -> Dict[str, Any]:
        derived = [
            [[r.num_stations, r.sum_collided, r.sum_acked] for r in table]
            for table in self.tables
        ]
        return {"points": _cache_entries(self.dir / "cache"),
                "derived": derived}

    def reference_tasks(self) -> List[Any]:
        tasks: List[Any] = []
        for counts in (self.size["counts"], self.size["more_counts"]):
            try:
                self._table(counts, _CaptureRunner())
            except _Captured as captured:
                tasks += captured.items
        return _distinct(tasks)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (FsmSweep, ServiceSweep, Validity, Table2)
}


def _distinct(tasks) -> List[Any]:
    from repro.runner import cache_key

    seen: Dict[str, Any] = {}
    for task in tasks:
        seen.setdefault(cache_key(task.describe()), task)
    return list(seen.values())


def _serial_uncached(tasks: List[Any]) -> List[Any]:
    from repro.runner import ExperimentRunner

    return ExperimentRunner(max_workers=1).run(tasks)


def reference(name: str, seed: int, scale: str, scratch: Path) -> Dict[str, Any]:
    """``points`` of ``name`` from a serial, uncached ExperimentRunner.

    The tasks are split into ``WORKERS`` interleaved shards, each run by
    its own serial runner in its own process, only to save wall time.
    """
    workload = WORKLOADS[name](seed, scale, scratch, traced=False)
    tasks = workload.reference_tasks()
    shards = [tasks[i::WORKERS] for i in range(WORKERS)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_serial_uncached, shards))
    points: Dict[str, Any] = {}
    for shard, shard_results in zip(shards, results):
        points.update(_keyed(shard, shard_results))
    return points


def digest(outputs: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON of a workload's outputs."""
    from repro.runner import canonical_json

    return hashlib.sha256(canonical_json(outputs).encode("utf-8")).hexdigest()


def mismatches(points: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
    """Cache keys whose result differs from (or is missing in) ``ref``."""
    from repro.runner import canonical_json

    keys = sorted(set(points) | set(ref))
    return [
        k for k in keys
        if k not in points or k not in ref
        or canonical_json(points[k]) != canonical_json(ref[k])
    ]
