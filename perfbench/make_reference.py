#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``, the correctness reference.

    python3 perfbench/make_reference.py

Runs every workload once per seed in ``SEEDS`` at the benchmark scale and
stores, per curve, the mean and the between-seed standard deviation of
every point (zero for the deterministic analytic curves, which must agree
across seeds).  Preset checks that fail on a seed are recorded under that
seed.  Regenerate only when the expected curves change on purpose, and say
why in the change.
"""

import json
import sys
from pathlib import Path

import run  # perfbench/run.py: sets the thread environment first

run.use_checkout_sources()

import numpy as np  # noqa: E402

from perfbench import checks, workloads  # noqa: E402

SEEDS = list(range(1000, 1020))


def reference_for(workload: str, seeds) -> dict:
    from femtoshare import experiments

    per_seed, failures = [], {}
    for seed in seeds:
        specs = workloads.specs(workload, seed, run.OUT / "reference" / workload)
        summaries = [experiments.run(spec) for spec in specs]
        per_seed.append(checks.read_curves(checks.read_outputs(summaries)))
        failed = checks.failed(checks.summary_checks(summaries, advisory=False)
                               + checks.summary_checks(summaries, advisory=True))
        if failed:
            failures[str(seed)] = failed
        print(f"{workload} seed {seed}: {len(failed)} preset checks failed",
              file=sys.stderr, flush=True)
    curves = {}
    for name in per_seed[0]:
        values = np.array([c[name]["value"] for c in per_seed])
        simulated = bool(workloads.SIMULATED_CURVE.search(name))
        if not simulated and np.ptp(values, axis=0).max() > 0.0:
            raise RuntimeError(f"analytic curve {name} differs between seeds")
        curves[name] = {
            "x": per_seed[0][name]["x"],
            "mean": values.mean(axis=0).tolist(),
            "sd": values.std(axis=0, ddof=1).tolist() if simulated
            else [0.0] * values.shape[1],
        }
    return {"curves": curves, "preset_check_failures": failures}


def main() -> int:
    ref = {"scale": workloads.BENCH.name, "seeds": SEEDS,
           "workloads": {w: reference_for(w, SEEDS) for w in workloads.WORKLOADS}}
    Path(checks.REFERENCE).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
