"""Spans and counters recorded around the package's layer entry points.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces each
entry point, for the duration of a ``with`` block, by a wrapper installed
where the caller looks the name up (a module global, or a classmethod on
its class), and puts the originals back on exit.  Each call becomes one
span ``[id, parent_id, layer, start, end, error]`` kept in memory; the
per-layer metrics are derived from the spans after the run.  A layer's
self time is its span time minus the time its direct child spans cover.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

# Name and unit of every per-layer metric, in report order.
PER_LAYER = [
    ("quadrature.make_rule.calls", "count"),
    ("quadrature.make_rule.s", "s"),
    ("analysis.context.calls", "count"),
    ("analysis.context.s", "s"),
    ("analysis.femto_bound.calls", "count"),
    ("analysis.femto_bound.s", "s"),
    ("analysis.macro_bound.calls", "count"),
    ("analysis.macro_bound.s", "s"),
    ("regulation.table_build.calls", "count"),
    ("regulation.table_build.s", "s"),
    ("regulation.decide.calls", "count"),
    ("regulation.decide.s", "s"),
    ("regulation.floor.calls", "count"),
    ("regulation.floor.s", "s"),
    ("regulation.floor.infeasible", "count"),
    ("regulation.ceiling.calls", "count"),
    ("regulation.ceiling.s", "s"),
    ("regulation.rb_access.calls", "count"),
    ("regulation.rb_access.s", "s"),
    ("regulation.min_distance.calls", "count"),
    ("regulation.min_distance.s", "s"),
    ("regulation.floor_approx.calls", "count"),
    ("regulation.floor_approx.s", "s"),
    ("regulation.bound_evals_per_decide", "count"),
    ("montecarlo.estimate_op.calls", "count"),
    ("montecarlo.estimate_op.self_s", "s"),
    ("montecarlo.estimate_ase.calls", "count"),
    ("montecarlo.estimate_ase.self_s", "s"),
    ("montecarlo.drop_faps.calls", "count"),
    ("montecarlo.drop_faps.s", "s"),
    ("montecarlo.faps_per_drop", "count"),
    ("montecarlo.trials", "count"),
    ("montecarlo.trials_per_s", "1/s"),
    ("kernels.outage_count.calls", "count"),
    ("kernels.outage_count.s", "s"),
    ("kernels.pairs", "count"),
    ("kernels.active_ratio", "ratio"),
    ("kernels.ns_per_pair", "ns"),
    ("kernels.bytes_computed", "bytes"),
    ("experiments.run.s", "s"),
    ("experiments.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
]

ID, PARENT, LAYER, START, END, ERROR = range(6)


def targets():
    """``(owner, attribute, layer)`` for every wrapped entry point.

    A name is patched in each module that looks it up, so e.g. the femto
    bound is wrapped both where ``experiments`` calls it and where the
    floor solver in ``regulation`` does.
    """
    from femtoshare import _kernels, analysis, experiments, montecarlo, regulation

    return [
        (_kernels, "outage_count", "kernels.outage_count"),
        (montecarlo, "drop_faps", "montecarlo.drop_faps"),
        (montecarlo, "decide", "regulation.decide"),
        (regulation, "decide", "regulation.decide"),
        (regulation, "power_floor_exact_dbm", "regulation.floor"),
        (regulation, "power_ceiling_dbm", "regulation.ceiling"),
        (regulation, "rb_access_probability", "regulation.rb_access"),
        (regulation, "femto_outage_lower_bound", "analysis.femto_bound"),
        (regulation, "macro_outage_lower_bound", "analysis.macro_bound"),
        (regulation.RegulationTable, "build", "regulation.table_build"),
        (analysis.BoundContext, "from_params", "analysis.context"),
        (analysis, "make_rule", "quadrature.make_rule"),
        (experiments, "run", "experiments.run"),
        (experiments, "estimate_op", "montecarlo.estimate_op"),
        (experiments, "estimate_ase", "montecarlo.estimate_ase"),
        (experiments, "femto_outage_lower_bound", "analysis.femto_bound"),
        (experiments, "macro_outage_lower_bound", "analysis.macro_bound"),
        (experiments, "min_deployment_distance", "regulation.min_distance"),
        (experiments, "power_floor_exact_dbm", "regulation.floor"),
        (experiments, "power_floor_approx_dbm", "regulation.floor_approx"),
        (experiments, "power_ceiling_dbm", "regulation.ceiling"),
        (experiments, "rb_access_probability", "regulation.rb_access"),
    ]


class Tracer:
    """Context manager that records spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.kernel_pairs = 0
        self.kernel_active_pairs = 0
        self.kernel_bytes = 0
        self.kernel_trials = 0
        self.faps_dropped = 0

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, layer in targets():
                self._install(owner, attr, layer)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, owner, attr, layer) -> None:
        original = vars(owner)[attr]
        before = after = None
        if layer == "kernels.outage_count":
            before = self._kernel_inputs(original)
        elif layer == "montecarlo.drop_faps":
            after = self._count_faps
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, layer, before, after))
        else:
            wrapped = self._wrap(original, layer, before, after)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [len(spans), stack[-1] if stack else -1, layer, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _kernel_inputs(self, kernel):
        signature = inspect.signature(getattr(kernel, "py_func", kernel))

        def record(args, kwargs):
            a = signature.bind(*args, **kwargs).arguments
            masks, rb, skip = a["masks"], a["rb"], int(a["skip"])
            active = int(masks.sum(axis=0)[rb].sum())
            if skip >= 0:
                active -= int(masks[skip, rb].sum())
            self.kernel_pairs += a["hq"].size
            self.kernel_active_pairs += active
            self.kernel_trials += a["sig"].shape[0]
            self.kernel_bytes += sum(v.nbytes for v in a.values()
                                     if isinstance(v, np.ndarray))

        return record

    def _count_faps(self, drop) -> None:
        self.faps_dropped += drop.n_faps

    # -- derived metrics -----------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as CSV, one row per call."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "layer", "start_s", "end_s", "error"])
            for rec in self.spans:
                out.writerow([rec[ID], rec[PARENT], rec[LAYER], repr(rec[START]),
                              repr(rec[END]), rec[ERROR] or ""])

    def _has_ancestor(self, rec, layer) -> bool:
        parent = rec[PARENT]
        while parent >= 0:
            up = self.spans[parent]
            if up[LAYER] == layer:
                return True
            parent = up[PARENT]
        return False

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far; of the ``trace.*``
        metrics only the span count, which sets the tracing overhead."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for rec in spans:
            layer, dur = rec[LAYER], rec[END] - rec[START]
            calls[layer] += 1
            self_s[layer] += dur - covered[rec[ID]]
            if not self._has_ancestor(rec, layer):
                total[layer] += dur
        decides = calls["regulation.decide"]
        bound_evals_in_decide = sum(
            1 for rec in spans
            if rec[LAYER] in ("analysis.femto_bound", "analysis.macro_bound")
            and self._has_ancestor(rec, "regulation.decide"))
        pinned = sum(
            1 for rec in spans
            if rec[LAYER] == "regulation.floor" and rec[ERROR] == "InfeasibleError"
            and rec[PARENT] >= 0 and spans[rec[PARENT]][LAYER] == "regulation.decide")
        mc_s = total["montecarlo.estimate_op"] + total["montecarlo.estimate_ase"]
        out = {}
        for layer in ("quadrature.make_rule", "analysis.context", "analysis.femto_bound",
                      "analysis.macro_bound", "regulation.table_build",
                      "regulation.decide", "regulation.floor", "regulation.ceiling",
                      "regulation.rb_access", "regulation.min_distance",
                      "regulation.floor_approx", "montecarlo.drop_faps",
                      "kernels.outage_count"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = total[layer]
        out["regulation.floor.infeasible"] = pinned
        out["regulation.bound_evals_per_decide"] = (
            bound_evals_in_decide / decides if decides else 0.0)
        for layer in ("montecarlo.estimate_op", "montecarlo.estimate_ase"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        drops = calls["montecarlo.drop_faps"]
        out["montecarlo.faps_per_drop"] = self.faps_dropped / drops if drops else 0.0
        out["montecarlo.trials"] = self.kernel_trials
        out["montecarlo.trials_per_s"] = self.kernel_trials / mc_s if mc_s else 0.0
        pairs = self.kernel_pairs
        out["kernels.pairs"] = pairs
        out["kernels.active_ratio"] = self.kernel_active_pairs / pairs if pairs else 0.0
        out["kernels.ns_per_pair"] = (
            1e9 * total["kernels.outage_count"] / pairs if pairs else 0.0)
        out["kernels.bytes_computed"] = self.kernel_bytes
        out["experiments.run.s"] = total["experiments.run"]
        out["experiments.self_s"] = self_s["experiments.run"]
        out["trace.spans"] = len(spans)
        return out
