#!/usr/bin/env python3
"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/report.py

For each workload this runs ``perfbench/run.py`` with ``--trace 0`` (the
end-to-end block) and with ``--trace 1`` (the per-layer block, which holds
the tracing overhead ``trace.overhead_s``), at seed ``SEED`` and the
``run_seconds`` of ``BENCHMARK.json``, and prints the metrics workload by
workload.  Everything, with the environment block, is written to
``.bench_out/report.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out" / "report.json"
SEED = 1
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seconds: float, trace: int):
    """The result object, the environment block and the failed-check lines
    of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    lines = out.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    notes = [line for line in lines if line.startswith(("FAILED ", "ADVISORY "))]
    return json.loads(lines[-1]), env, notes


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"seed": SEED, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain, env, notes = run_once(workload, seconds, 0)
        traced, _, _ = run_once(workload, seconds, 1)
        report["env"] = env
        report["workloads"][workload] = {
            "end_to_end": plain, "per_layer": traced, "check_notes": notes}
        print(f"== {workload}  (correct: {plain['correct'] and traced['correct']}, "
              f"checks failed: {plain['failed']}/{plain['attempted']})")
        for line in notes:
            print(f"  {line}")
        for block in (plain, traced):
            for name, m in block["metrics"].items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print("env " + json.dumps(report.get("env")))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
