"""Per-layer metrics of one traced repetition.

Two sources, both read after the repetition ends:

- the benchmark's own spans (``probes.py``), in ``REP_DIR/trace``;
- the files the program writes anyway: its span and trace JSONL, the
  HTTP access log and the service journal.

Every metric covers both submissions of the repetition, except
``trace.attributed_share``, which covers the first (``sweep_s``).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["layer_metrics", "percentile"]

#: The spans that wrap one slot's unit of work.  Their self time is the
#: glue no named layer accounts for.
CONTAINERS = {("runner", "attempt"), ("service", "worker"), ("validity", "map")}


def percentile(values: List[float], pct: int) -> float:
    """Inclusive percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _jsonl(path: Path) -> Iterable[Dict[str, Any]]:
    if path.is_file():
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    yield json.loads(line)


def _load_probes(rep_dir: Path) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
    spans: List[Dict[str, Any]] = []
    counters: Dict[str, float] = defaultdict(float)
    for path in sorted((rep_dir / "trace").glob("spans-*.jsonl")):
        for record in _jsonl(path):
            if "counter" in record:
                counters[record["counter"]] += record["value"]
            else:
                spans.append(record)
    return spans, counters


def _program_spans(path: Path) -> Dict[str, Dict[str, Any]]:
    """The program's paired span records, folded to one dict per span."""
    spans: Dict[str, Dict[str, Any]] = {}
    for record in _jsonl(path):
        span = spans.setdefault(record["span_id"], {"name": record["name"]})
        if record["event"] == "span_start":
            span["start"] = record["epoch_s"]
            span["parent"] = record.get("parent_id")
            span["attrs"] = record.get("attrs", {})
        elif record["event"] == "span_end":
            span["dur"] = record["duration_s"]
    return {k: s for k, s in spans.items() if "start" in s and "dur" in s}


def _runner_metrics(spans: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Dispatch, queue wait, pool start and idle from sweep/point/attempt spans.

    A point span opens when the runner queues the task, so the point
    minus its attempts is queue wait plus dispatch; ``dispatch`` is
    what is left after the queue wait (the first attempt's start).
    """
    attempts: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    points: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span_id, span in spans.items():
        if span["name"] == "attempt":
            attempts[span["parent"]].append(span)
        elif span["name"] == "point":
            points[span["parent"]].append(dict(span, id=span_id))
    dispatch = 0.0
    waits: List[float] = []
    pool_start = idle = 0.0
    for sweep_id, sweep in spans.items():
        if sweep["name"] != "sweep":
            continue
        ran = []
        for point in points[sweep_id]:
            tried = attempts[point["id"]]
            if not tried:
                continue
            ran += tried
            wait = min(a["start"] for a in tried) - point["start"]
            waits.append(wait)
            dispatch += point["dur"] - wait - sum(a["dur"] for a in tried)
        if ran:
            first = min(a["start"] for a in ran)
            end = sweep["start"] + sweep["dur"]
            pool_start += first - sweep["start"]
            workers = sweep["attrs"].get("workers", 1)
            idle += workers * (end - first) - sum(a["dur"] for a in ran)
    return {
        "runner.dispatch_overhead_s": dispatch,
        "runner.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "runner.queue_wait_p90_ms": percentile(waits, 90) * 1e3,
        "runner.pool_start_s": pool_start,
        "runner.worker_idle_s": idle,
    }


def _service_metrics(
    rep_dir: Path, probes: List[Dict[str, Any]], clock_offset: float
) -> Dict[str, float]:
    """Lease, start and completion times from the journal and worker spans."""
    leased: Dict[str, float] = {}
    lease_to_start: List[float] = []
    overhead: List[float] = []
    spawned = 0
    workers = {
        s["task_id"]: s for s in probes if (s["layer"], s["op"]) == ("service", "worker")
    }
    attempt_s = {
        s["pid"]: s["dur"] for s in probes if (s["layer"], s["op"]) == ("runner", "attempt")
    }
    for record in _jsonl(rep_dir / "service" / "journal.jsonl"):
        event = record.get("event")
        if event == "lease_granted":
            spawned += 1
            leased[record["task_id"]] = record["epoch_s"]
            worker = workers.get(record["task_id"])
            if worker is not None:
                start = worker["t0"] + clock_offset
                lease_to_start.append(start - record["epoch_s"])
        elif event == "task_completed" and record.get("source") == "worker":
            granted = leased.get(record["task_id"])
            worker = workers.get(record["task_id"])
            if granted is not None and worker is not None:
                busy = attempt_s.get(worker["pid"], 0.0)
                overhead.append(record["epoch_s"] - granted - busy)
    return {
        "service.lease_to_start_p50_ms": percentile(lease_to_start, 50) * 1e3,
        "service.task_overhead_p50_ms": percentile(overhead, 50) * 1e3,
        "service.task_overhead_p90_ms": percentile(overhead, 90) * 1e3,
        "service.workers_spawned": spawned,
    }


def _net_metrics(rep_dir: Path, requests: List[Dict[str, Any]]) -> Dict[str, float]:
    """Client round trips from the probes; polls and 304s from the access log."""
    access = list(_jsonl(rep_dir / "service" / "telemetry" / "http_access.jsonl"))
    polls = [
        r for r in access
        if r["method"] == "GET" and r["path"].startswith("/v1/sweeps/")
    ]
    not_modified = sum(1 for r in polls if r["status"] == 304)
    rtts = [r["dur"] for r in requests]
    return {
        "net.requests": len(access),
        "net.rtt_p50_ms": percentile(rtts, 50) * 1e3,
        "net.rtt_p90_ms": percentile(rtts, 90) * 1e3,
        "net.polls": len(polls),
        "net.not_modified_ratio": not_modified / len(polls) if polls else 0.0,
        "net.retries": sum(1 for r in requests if r.get("error")),
    }


def _attributed_share(
    probes: List[Dict[str, Any]], main_pid: int, result: Dict[str, Any]
) -> float:
    """Share of ``sweep_s`` x slots not spent in container glue.

    Slot time is either inside a named layer's span, or a named wait
    (pool start, queue wait, idle or lease wait: a slot with no task).
    What is left is the self time of the container spans.
    """
    t0, t1 = result["windows"]["first"]
    in_slot = (lambda s: s["pid"] == main_pid) if result["slots"] == 1 else (
        lambda s: s["pid"] != main_pid
    )
    glue = sum(
        s["self"] for s in probes
        if (s["layer"], s["op"]) in CONTAINERS and t0 <= s["t0"] < t1 and in_slot(s)
    )
    capacity = result["slots"] * (t1 - t0)
    return max(0.0, 1.0 - glue / capacity)


def layer_metrics(rep_dir: Path, result: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition in ``rep_dir``."""
    rep_dir = Path(rep_dir)
    probes, counters = _load_probes(rep_dir)
    by_op: Dict[Tuple[str, str], List[Dict[str, Any]]] = defaultdict(list)
    busy: Dict[str, float] = defaultdict(float)
    for span in probes:
        by_op[span["layer"], span["op"]].append(span)
        busy[span["layer"]] += span["self"]

    def durations_ms(layer: str, op: str) -> List[float]:
        return [s["dur"] * 1e3 for s in by_op[layer, op]]

    core_sim_us = sum(s.get("sim_us", 0.0) for s in by_op["core", "advance"])
    dispatches = by_op["batch", "dispatch"]
    batch_sim_us = sum(s["sim_us"] for s in dispatches)
    run_until_s = sum(s["dur"] for s in by_op["testbed", "run_until"])
    events = counters.get("engine.events", 0)
    gets = by_op["cache", "get"]
    puts = durations_ms("cache", "put")
    appends = durations_ms("service", "journal_append")

    telemetry_dirs = [rep_dir / "telemetry", rep_dir / "service" / "telemetry"]
    span_files = [d / "spans.jsonl" for d in telemetry_dirs]
    metrics: Dict[str, float] = {
        "analysis.solve_calls": len(by_op["analysis", "solve"]),
        "analysis.chain_solves": len(by_op["analysis", "chain_solve"]),
        "analysis.busy_s": busy["analysis"],
        "core.busy_s": busy["core"],
        "core.sim_us_per_host_s": core_sim_us / busy["core"] if busy["core"] else 0.0,
        "batch.busy_s": busy["batch"],
        "batch.points_per_dispatch": (
            sum(s["points"] for s in dispatches) / len(dispatches) if dispatches else 0.0
        ),
        "batch.sim_us_per_host_s": batch_sim_us / busy["batch"] if busy["batch"] else 0.0,
        "testbed.busy_s": busy["testbed"],
        "engine.events": events,
        "engine.events_per_s": events / run_until_s if run_until_s else 0.0,
        "cache.put_calls": len(puts),
        "cache.put_p50_ms": percentile(puts, 50),
        "cache.put_p90_ms": percentile(puts, 90),
        "cache.get_calls": len(gets),
        "cache.get_p50_ms": percentile([s["dur"] * 1e3 for s in gets], 50),
        "cache.hit_ratio": sum(1 for s in gets if s["hit"]) / len(gets) if gets else 0.0,
        "service.journal_appends": len(appends),
        "service.journal_append_p50_ms": percentile(appends, 50),
        "service.journal_append_p90_ms": percentile(appends, 90),
        "telemetry.span_records": sum(1 for f in span_files for _ in _jsonl(f)),
        "telemetry.jsonl_bytes": sum(
            p.stat().st_size for d in telemetry_dirs if d.is_dir() for p in d.glob("*.jsonl")
        ),
        "trace.attributed_share": _attributed_share(probes, result["main_pid"], result),
    }
    metrics.update(_runner_metrics(_program_spans(rep_dir / "telemetry" / "spans.jsonl")))
    metrics.update(_service_metrics(rep_dir, probes, result["clock_offset"]))
    metrics.update(_net_metrics(rep_dir, by_op["net", "request"]))
    return metrics


def layer_busy(rep_dir: Path) -> Dict[str, float]:
    """Self seconds per layer over the whole repetition, all processes."""
    probes, _ = _load_probes(Path(rep_dir))
    busy: Dict[str, float] = defaultdict(float)
    for span in probes:
        busy[span["layer"]] += span["self"]
    return dict(sorted(busy.items()))
