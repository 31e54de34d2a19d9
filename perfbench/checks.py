"""Correctness gate of the benchmark.

A pass is correct when

* it wrote at least one curve and every number in its curves is finite;
* every check in every preset summary passes, except the few that were
  seen to fail at the benchmark's reduced scale on seeds of a correct
  program (``workloads.ADVISORY_CHECK``).  Those are reported as advisory
  only; the reference check below gates the same simulated curves with an
  honest standard error instead;
* every analytic curve matches ``reference.json`` to a relative
  tolerance of ``ANALYTIC_RTOL`` (the curves are deterministic; the slack
  covers float summation order only);
* every simulated point lies within ``POINT_SIGMAS`` standard errors of the
  reference mean, and each simulated curve's mean deviation within
  ``CURVE_SIGMAS`` standard errors of that mean (a systematic shift shows
  there first).  The standard error is the spread between the reference
  seeds, which includes the drop-geometry variance the binomial error
  ignores.  A legitimate change to the random streams passes; a kernel
  that scales the interference by 0.7 does not;
* every later pass of a run reproduces the first pass's files byte for
  byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from perfbench.workloads import ADVISORY_CHECK, SIMULATED_CURVE

REFERENCE = Path(__file__).with_name("reference.json")
ANALYTIC_RTOL = 1e-6
ANALYTIC_ATOL = 1e-12
POINT_SIGMAS = 6.0
CURVE_SIGMAS = 5.0


def read_outputs(summaries) -> dict[str, bytes]:
    """Raw bytes of every curve file a pass wrote, by path."""
    return {path: Path(path).read_bytes()
            for summary in summaries for path in summary["curves"]}


def read_curves(outputs: dict[str, bytes]) -> dict[str, dict]:
    """Curves named by file stem, parsed from :func:`read_outputs`."""
    curves = {}
    for path, data in outputs.items():
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        curves[Path(path).stem] = {
            key: [float(r[key]) for r in rows] for key in ("x", "value", "std_err")}
    return curves


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return {"seeds": ref["seeds"], **ref["workloads"][workload]}


def summary_checks(summaries, advisory: bool) -> list[tuple[str, bool, str]]:
    """The gated, or else the advisory, preset summary checks."""
    return [(f"{s['preset']}:{c['name']}", c["passed"], c["detail"])
            for s in summaries for c in s["checks"]
            if bool(ADVISORY_CHECK.search(c["name"])) == advisory]


def finite_check(curves: dict) -> list[tuple[str, bool, str]]:
    bad = sorted(name for name, c in curves.items()
                 if not all(np.isfinite(c[key]).all() for key in c))
    return [("curves_finite", bool(curves) and not bad,
             f"{len(curves)} curves, not finite: {bad}")]


def _curve_check(name, got, ref, n_ref) -> tuple[bool, str]:
    x, ref_x = np.array(got["x"]), np.array(ref["x"])
    if x.shape != ref_x.shape or not np.allclose(x, ref_x, rtol=ANALYTIC_RTOL,
                                                 atol=ANALYTIC_ATOL):
        return False, "x grid differs from the reference"
    value, mean = np.array(got["value"]), np.array(ref["mean"])
    if not SIMULATED_CURVE.search(name):
        ok = np.allclose(value, mean, rtol=ANALYTIC_RTOL, atol=ANALYTIC_ATOL)
        worst = float((np.abs(value - mean) / np.maximum(np.abs(mean), ANALYTIC_ATOL)).max())
        return bool(ok), f"max relative deviation = {worst:.3e}"
    # A fresh run minus the mean of n_ref runs has variance sd^2 (1 + 1/n_ref);
    # the run's own binomial error stands in where the reference spread is 0.
    se = np.maximum(np.array(ref["sd"]) * math.sqrt(1.0 + 1.0 / n_ref),
                    np.array(got["std_err"]))
    dev = value - mean
    z = np.divide(dev, se, out=np.where(dev == 0.0, 0.0, np.copysign(np.inf, dev)),
                  where=se > 0.0)
    shift = float(z.sum() / math.sqrt(z.size))
    worst = float(np.abs(z).max())
    ok = worst <= POINT_SIGMAS and abs(shift) <= CURVE_SIGMAS
    return ok, f"max |z| = {worst:.2f}, curve shift sum(z)/sqrt(n) = {shift:+.2f}"


def reference_checks(curves: dict, reference: dict) -> list[tuple[str, bool, str]]:
    out = []
    n_ref = len(reference["seeds"])
    for name in sorted(set(curves) | set(reference["curves"])):
        if name not in curves or name not in reference["curves"]:
            out.append((f"reference:{name}", False, "curve missing on one side"))
            continue
        out.append((f"reference:{name}",
                    *_curve_check(name, curves[name], reference["curves"][name], n_ref)))
    return out


def repeat_check(first: dict[str, bytes], later: list[dict[str, bytes]]):
    if not later:
        return []
    same = all(outputs == first for outputs in later)
    return [("repeat_identical", same, f"{len(later)} later passes compared")]


def failed(checks) -> list[str]:
    return [f"{name}: {detail}" for name, ok, detail in checks if not ok]

