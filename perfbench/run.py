"""The repository's benchmark: one workload, one seed, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fsm_sweep --seed 1 --seconds 20 --trace 0

Workloads: ``fsm_sweep``, ``service_sweep``, ``validity_map``,
``testbed_table2`` (see ``workloads.py`` and ``README.md``).

Each repetition is a fresh interpreter (``rep.py``) that sets the
workload up, submits its task set, waits for every result, then
submits an overlapping second task set.  Repetitions run until one
more would pass ``--seconds`` (at least two run).  ``--trace 0`` reports the end-to-end
metrics, medians over the repetitions.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones, plus the tracing overhead.

Every repetition's results are checked against a serial, uncached
``ExperimentRunner`` computing the same tasks (or, for the default
seed, against the committed digest in ``digests.json``).  A mismatch
prints ``"correct": false`` and exits 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import POLL_S, WORKERS, WORKLOADS, digest, mismatches, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Wall-clock budget of one run; the driver allows 180 s.
RUN_BUDGET_S = 170.0

#: Untraced repetitions per run, however long they take.
MIN_REPS = 2

#: Set-up samples per run (extra set-up-only repetitions fill the gap).
SETUP_SAMPLES = 3


def _blas_threads(nproc: int) -> int:
    """Cap the BLAS pool at ``nproc`` for this process and its children."""
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(nproc, int(current)) if current.isdigit() else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (fsync cost depends on it)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


class Run:
    """One benchmark invocation: repetitions, checks and metrics."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.started = time.perf_counter()
        self.reps = 0
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def remaining_s(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def launch(self, trace: bool, setup_only: bool = False) -> Dict[str, Any]:
        """Run ``rep.py`` once; returns its result with ``setup_s`` added."""
        self.reps += 1
        rep_dir = self.work / f"rep-{self.reps}"
        rep_dir.mkdir(parents=True)
        cmd = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--scale", self.args.scale, "--dir", str(rep_dir),
            "--trace", "1" if trace else "0",
        ] + (["--setup-only"] if setup_only else [])
        log = rep_dir / "stderr.log"
        t0 = time.perf_counter()
        with log.open("w") as err:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, env=self.env,
                cwd=str(ROOT), text=True,
            )
            try:
                ready, _, _ = select.select(
                    [proc.stdout], [], [], max(1.0, self.remaining_s())
                )
                line = proc.stdout.readline() if ready else ""
                setup_s = time.perf_counter() - t0
                code = proc.wait(timeout=max(1.0, self.remaining_s()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(
                f"repetition failed (exit {code}):\n{log.read_text()[-4000:]}"
            )
        if setup_only:
            return {"setup_s": setup_s}
        result = json.loads((rep_dir / "result.json").read_text())
        result["setup_s"] = setup_s
        result["dir"] = rep_dir
        return result


class Checker:
    """Compares every repetition's outputs with the reference."""

    def __init__(self, workload: str, seed: int, scale: str, scratch: Path) -> None:
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.model = digests.get("validity_model", {})
        self.digest: Optional[str] = None
        self.points: Dict[str, Any] = {}
        if scale == "full" and seed == digests.get("default_seed"):
            self.digest = digests.get("full", {}).get(workload)
        if self.digest is None:
            self.points = reference(workload, seed, scale, scratch)
        self.problems: List[str] = []

    def check(self, outputs: Dict[str, Any]) -> None:
        if self.digest is not None:
            if digest(outputs) != self.digest:
                self.problems.append("outputs differ from the committed digest")
        else:
            bad = mismatches(outputs["points"], self.points)
            if bad:
                self.problems.append(f"{len(bad)} results differ, e.g. {bad[0]}")
        derived = outputs.get("derived")
        if isinstance(derived, dict) and "rows" in derived:
            for row in derived["rows"]:
                want = self.model.get(str(row["num_stations"]))
                got = [row["model_collision_probability"], row["model_throughput"]]
                if want != got:
                    self.problems.append(
                        f"model at N={row['num_stations']}: {got} != {want}"
                    )

    @property
    def correct(self) -> bool:
        return not self.problems


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _repetitions(args: argparse.Namespace, run: Run, checker: Checker):
    """Run repetitions until one more would pass ``--seconds``.

    With ``--trace 1`` untraced and traced repetitions alternate.
    Returns the untraced and the traced results.
    """
    measuring = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    while True:
        trace_next = bool(args.trace) and len(traced) < len(plain)
        result = run.launch(trace=trace_next)
        checker.check(result.pop("outputs"))
        (traced if trace_next else plain).append(result)
        elapsed = time.perf_counter() - measuring
        rep_s = elapsed / (len(plain) + len(traced))
        enough = len(plain) >= MIN_REPS and (not args.trace or traced)
        if enough and elapsed + rep_s > args.seconds:
            return plain, traced


def _per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]]):
    from layers import layer_busy, layer_metrics

    per_rep = [layer_metrics(r["dir"], r) for r in traced]
    metrics = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
    metrics["trace.overhead_ratio"] = (
        _median([r["sweep_s"] for r in traced])
        / _median([r["sweep_s"] for r in plain]) - 1.0
    )
    busy = layer_busy(traced[-1]["dir"])
    print("# layer self seconds, last traced repetition: "
          + json.dumps({k: round(v, 4) for k, v in busy.items()}))
    return metrics


def _environment(nproc: int, blas: int, work: Path) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": blas,
        "work_fs": _fs_type(work),
        "poll_s": POLL_S,
        "workers": WORKERS,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    nproc = len(os.sched_getaffinity(0))
    blas = _blas_threads(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = ROOT / ".bench_work" / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        checker = Checker(args.workload, args.seed, args.scale, work / "reference")
        plain, traced = _repetitions(args, run, checker)
        setups = [r["setup_s"] for r in plain]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(run.launch(trace=False, setup_only=True)["setup_s"])
        attempted = sum(r["attempted"] for r in plain + traced)
        failed = sum(r["failed"] for r in plain + traced)
        if args.trace:
            metrics = _per_layer(plain, traced)
            metrics["failed_ratio"] = failed / attempted
        else:
            metrics = {
                name: _median([r[name] for r in plain])
                for name in ("sweep_s", "resubmit_s", "cpu_s", "peak_rss_mb")
            }
            metrics["setup_s"] = _median(setups)

        environment = _environment(nproc, blas, work)
        environment["repetitions"] = {"untraced": len(plain), "traced": len(traced)}
        environment["setup_samples"] = 0 if args.trace else len(setups)
        print("# env " + json.dumps(environment, sort_keys=True))
        for problem in checker.problems:
            print(f"# MISMATCH {problem}")
        for name, value in metrics.items():
            print(f"# {name} = {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": checker.correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }))
        return 0 if checker.correct and failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
