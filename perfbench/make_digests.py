"""Regenerate ``digests.json``: the pinned outputs of the default seed.

Usage, from the root of a checkout::

    python3 perfbench/make_digests.py

For each workload it runs one full-size repetition with the default
seed, checks every result against a serial, uncached
``ExperimentRunner`` computing the same tasks, and records the sha256
of the checked outputs.  It also records the markov model's
predictions at every station count a validity map uses; they do not
depend on the seed.  Run it only when a workload's definition changes:
the digests pin the program's numbers, so a change to them is a change
to the program's results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

DEFAULT_SEED = 1


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.analysis.model import Model1901

    import workloads

    counts = sorted({n for scale in workloads.SCALES.values()
                     for n in scale["validity_map"]["counts"]})
    model = Model1901(method="markov")
    digests = {
        "default_seed": DEFAULT_SEED,
        "validity_model": {
            str(n): [p.collision_probability, p.normalized_throughput]
            for n, p in ((n, model.solve(n)) for n in counts)
        },
        "full": {},
    }
    work = run.ROOT / ".bench_work" / "digests"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in workloads.WORKLOADS:
            args = argparse.Namespace(workload=name, seed=DEFAULT_SEED, scale="full")
            reference = workloads.reference(name, DEFAULT_SEED, "full", work / name / "ref")
            outputs = run.Run(args, work / name).launch(trace=False)["outputs"]
            bad = workloads.mismatches(outputs["points"], reference)
            if bad:
                print(f"{name}: {len(bad)} results differ from the reference",
                      file=sys.stderr)
                return 1
            digests["full"][name] = workloads.digest(outputs)
            print(f"{name}: {len(reference)} results checked")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
