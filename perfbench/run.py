#!/usr/bin/env python3
"""One benchmark run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: it imports ``femtoshare`` from the
checkout's ``src/`` and nowhere else, and writes only under ``.bench_out/``
(the curve files of a run go to a directory of its own, removed at the end).
Each pass runs the workload's presets once through
``femtoshare.experiments.run`` in this process (``jobs=1``); passes repeat
until ``--seconds`` have gone by, so a run lasts at most one pass longer.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``setup_s`` -- median over fresh interpreters of the time from start until
  the first preset call is ready (imports, quadrature rules, contexts).  The
  set-up probes are spread over the measured window, between passes;
* ``run_s`` -- mean wall time of one pass: the time of all passes over
  their number.  The host's speed switches between a fast and a slow state
  every few seconds, so a median of a few passes jumps between the two; the
  mean weighs each state by the time spent in it and is the steadier
  figure;
* ``peak_rss_mb`` -- peak resident memory of this process;
* ``checks_passed_share`` -- correctness checks passed over checks run.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``perfbench.tracing`` (medians over traced passes),
with the tracing overhead as mean traced minus mean untraced pass time;
the spans of
the last traced pass go to ``.bench_out/<workload>/spans.csv``.  The
quadrature metrics come from one traced set-up probe instead: quadrature
rules are cached, so only a fresh interpreter's set-up builds them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (counts of correctness checks; see
``perfbench.checks``) and ``metrics``.
"""

import os

# BLAS/OpenMP pools at one thread each, so numpy cannot oversubscribe the
# cores.  Set before numpy is first imported; set-up probes inherit it.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("checks_passed_share", "share")]


def use_checkout_sources() -> None:
    """Make ``femtoshare`` importable from this checkout only."""
    package = SRC / "femtoshare"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {package}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import femtoshare

    if Path(femtoshare.__file__).resolve().parent != package:
        sys.exit(f"perfbench: femtoshare came from {femtoshare.__file__}")


def prepare(workload: str, seed: int, scale, out_dir: Path) -> list:
    """Everything before the first preset call: imports, specs, contexts."""
    from femtoshare.analysis import BoundContext
    from perfbench import workloads

    specs = workloads.specs(workload, seed, out_dir, scale)
    for spec in specs:
        BoundContext.from_params(spec.params())
    return specs


def probe_setup(args, trace: bool) -> tuple[float, dict | None]:
    """Time a fresh interpreter through :func:`prepare`; with ``trace``,
    also return the per-layer metrics of its traced set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", str(int(trace)), "--scale", args.scale]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            # Read the rest through the same buffered stream: readline may
            # already hold it, and communicate() would read past that buffer.
            rest = proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return seconds, json.loads(rest) if trace else None


@dataclass
class Pass:
    seconds: float
    summaries: list
    outputs: dict
    layers: dict | None   # per-layer metrics when traced


def measure(specs, seconds: float, trace: bool, probe, probes: int, spans: Path):
    """Run passes until ``seconds`` have gone by; with ``trace``, alternate
    untraced and traced passes, at least one of each, and write the spans of
    the last traced pass to ``spans``.  Between passes, call ``probe`` (a
    set-up probe) as often as keeps ``probes`` calls spread evenly over the
    window; return the passes and the probe results."""
    from femtoshare import experiments
    from perfbench import checks, tracing

    passes, probed = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            summaries = [experiments.run(spec) for spec in specs]
            dt = time.perf_counter() - t0
        layers = tracer.metrics() if traced else None
        passes.append(Pass(dt, summaries, checks.read_outputs(summaries), layers))
        if traced:
            last_tracer = tracer
        elapsed = time.perf_counter() - start
        while len(probed) < probes * min(1.0, elapsed / seconds if seconds else 1.0):
            probed.append(probe())
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            break
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        last_tracer.write(spans)
    return passes, probed


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    from femtoshare import _kernels

    return {
        "kernel_backend": "numba" if _kernels.USE_NUMBA else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "thread_env": THREAD_ENV,
        "src_femtoshare_lines": sum(
            len(p.read_text().splitlines()) for p in (SRC / "femtoshare").rglob("*.py")),
    }


def mean_seconds(passes: list[Pass]) -> float:
    return sum(p.seconds for p in passes) / len(passes)


def layer_metrics(passes: list[Pass], setup_layers: dict) -> dict:
    from perfbench.tracing import PER_LAYER

    traced = [p for p in passes if p.layers is not None]
    plain = [p for p in passes if p.layers is None]
    metrics = {name: statistics.median(p.layers[name] for p in traced)
               for name in traced[0].layers}
    for name in ("quadrature.make_rule.calls", "quadrature.make_rule.s"):
        metrics[name] = setup_layers[name]
    metrics["trace.run_s"] = mean_seconds(traced)
    metrics["trace.untraced_run_s"] = mean_seconds(plain)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}


def parse_args(argv):
    from perfbench.workloads import SCALES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="taken modulo 2**63: numpy seeds must be non-negative")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="bench",
                    help="'tiny' is for the harness's own tests; it has no reference")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    use_checkout_sources()
    from perfbench import checks, workloads

    args = parse_args(argv)
    scale = workloads.SCALES[args.scale]
    if args.probe_setup:
        from perfbench import tracing

        with tracing.Tracer() if args.trace else contextlib.nullcontext() as tracer:
            prepare(args.workload, args.seed, scale, OUT / args.workload)
        print("ready", flush=True)
        if tracer is not None:
            print(json.dumps(tracer.metrics()))
        return 0
    args.seed %= 2**63
    if args.trace:
        _, setup_layers = probe_setup(args, trace=True)
    OUT.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        specs = prepare(args.workload, args.seed, scale, out_dir)
        passes, setup_samples = measure(
            specs, args.seconds, bool(args.trace),
            probe=lambda: probe_setup(args, trace=False)[0],
            probes=0 if args.trace else scale.setup_samples,
            spans=OUT / args.workload / "spans.csv")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    first = passes[0]
    curves = checks.read_curves(first.outputs)
    results = checks.finite_check(curves)
    results += checks.summary_checks(first.summaries, advisory=False)
    advisory = checks.failed(checks.summary_checks(first.summaries, advisory=True))
    if scale is workloads.BENCH:
        results += checks.reference_checks(curves, checks.load_reference(args.workload))
    results += checks.repeat_check(first.outputs, [p.outputs for p in passes[1:]])
    failures = checks.failed(results)

    if args.trace:
        metrics = layer_metrics(passes, setup_layers)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": mean_seconds(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks_passed_share": (len(results) - len(failures)) / len(results),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print("env " + json.dumps(environment()))
    print(f"workload {args.workload}: {len(passes)} passes, "
          f"{len(results)} checks, {len(failures)} failed, "
          f"{len(advisory)} advisory preset checks failed")
    for line in failures:
        print(f"FAILED {line}")
    for line in advisory:
        print(f"ADVISORY {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
