"""Experiment presets and the command-line front end.

Each preset reproduces one reference figure at desk scale and emits one
CSV per curve (columns ``x,value,std_err,n``; analytic curves carry zero
``std_err``/``n``), plus a JSON summary with bound-ordering and
monotonicity checks.  The process exits nonzero when a summary check
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    BoundContext,
    femto_outage_lower_bound,
    macro_outage_lower_bound,
)
from .model import COUNT_FIELDS, PARAM_FIELDS, NetworkParams, load_scenario
from .montecarlo import estimate_ase, estimate_op
from .regulation import (
    RegulationTable,
    min_deployment_distance,
    min_serving_power_dbm,
    power_ceiling_dbm,
    power_floor_approx_dbm,
    power_floor_exact_dbm,
    rb_access_probability,  # noqa: F401  (perfbench.tracing wraps this name here)
)

__all__ = ["ExperimentSpec", "Curve", "run", "main", "PRESETS"]

_DEFAULT_OP_GRID = np.arange(400.0, 1001.0, 100.0)
_DEFAULT_NF = (30.0, 100.0)
_DEFAULT_ASE_NF = (10.0, 30.0, 60.0, 100.0)
_DEFAULT_XI = (10.0, 15.0)


@dataclass(frozen=True)
class Curve:
    name: str
    x: np.ndarray
    value: np.ndarray
    std_err: np.ndarray
    n: np.ndarray

    @classmethod
    def analytic(cls, name, x, value) -> "Curve":
        x = np.asarray(x, dtype=float)
        return cls(name, x, np.asarray(value, dtype=float),
                   np.zeros_like(x), np.zeros_like(x))

    @classmethod
    def simulated(cls, name, x, results) -> "Curve":
        x = np.asarray(x, dtype=float)
        return cls(
            name, x,
            np.array([r.op_estimate for r in results]),
            np.array([r.std_err for r in results]),
            np.array([float(r.n_trials) for r in results]),
        )


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run."""

    preset: str = "fig1"
    overrides: dict = field(default_factory=dict)
    sweep: tuple[str, tuple[float, ...]] | None = None
    n_drops: int | None = None
    n_trials: int | None = None
    seed: int = 0
    out_dir: Path = Path("results")
    nf_values: tuple[float, ...] | None = None
    xi_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.sweep is not None:
            _, grid = self.sweep
            if len(grid) == 0:
                raise ValueError("sweep grid must be non-empty")
            if len(grid) > 1 and not all(a < b for a, b in zip(grid, grid[1:])):
                raise ValueError("sweep grid must be strictly increasing")

    def params(self, **extra) -> NetworkParams:
        """Scenario of the overrides updated by ``extra``.  A given ``n_f``
        sets the intensity, so a preset's N_F replaces the ``lambda_f`` of
        a scenario file."""
        merged = {**self.overrides, **extra}
        n_f = merged.pop("n_f", None)
        if n_f is None:
            return NetworkParams(**merged)
        merged.pop("lambda_f", None)
        return NetworkParams.from_expected_fap_count(n_f, **merged)

    def scale(self, drops_default: int, trials_default: int) -> tuple[int, int]:
        return (drops_default if self.n_drops is None else self.n_drops,
                trials_default if self.n_trials is None else self.n_trials)


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _ordering_check(name: str, bound: Curve, sim: Curve) -> dict:
    """Lower bound must not exceed the estimate plus three standard errors
    (up to float rounding of the bound itself)."""
    slack = sim.value + 3.0 * sim.std_err - bound.value
    worst = float(slack.min())
    return _check(name, worst >= -1e-9,
                  f"min(sim + 3*se - bound) = {worst:+.5f}")


def _monotone_check(name: str, curve: Curve, direction: str) -> dict:
    diffs = np.diff(curve.value)
    if not diffs.size:
        return _check(name, True, "fewer than two points")
    if direction == "decreasing":
        ok = bool(np.all(diffs <= 1e-12))
        worst = float(diffs.max())
    else:
        ok = bool(np.all(diffs >= -1e-12))
        worst = float(diffs.min())
    return _check(name, ok, f"worst step: {worst:+.3e}")


# -- presets -----------------------------------------------------------------


def _op_vs_distance(spec: ExperimentSpec, mode: str, label: str):
    """Shared engine of the OP-versus-distance figures."""
    drops, trials = spec.scale(100, 1000)
    nf_values = spec.nf_values or _DEFAULT_NF
    curves, checks = [], []
    for nf in nf_values:
        params = spec.params(n_f=nf)
        ctx = BoundContext.from_params(params)
        if mode == "validation":
            grid = _DEFAULT_OP_GRID
        else:
            # 2% inside the feasibility boundary: the window degenerates to
            # the cap right at it and the outage target has no headroom
            d_min = min_deployment_distance(ctx)
            grid = np.linspace(d_min * 1.02, params.r_m, 7)
        tag = f"nf{nf:g}"
        sims = {}
        for tier in ("femto", "macro"):
            res = estimate_op(params, tier, grid, drops, trials, spec.seed, mode=mode)
            sims[tier] = Curve.simulated(f"{label}_op_{tier}_sim_{tag}", grid, res)
            curves.append(sims[tier])
        if mode == "validation":
            fb = femto_outage_lower_bound(ctx, grid).p_total_lb
            mb = macro_outage_lower_bound(ctx, grid)
            bf = Curve.analytic(f"{label}_op_femto_bound_{tag}", grid, fb)
            bm = Curve.analytic(f"{label}_op_macro_bound_{tag}", grid, mb)
            curves += [bf, bm]
            checks.append(_ordering_check(f"ordering_femto_{tag}", bf, sims["femto"]))
            checks.append(_ordering_check(f"ordering_macro_{tag}", bm, sims["macro"]))
            checks.append(_monotone_check(f"femto_bound_decreasing_{tag}", bf, "decreasing"))
            checks.append(_monotone_check(f"macro_bound_increasing_{tag}", bm, "increasing"))
        else:
            for tier, eps in (("femto", params.eps_f), ("macro", params.eps_m)):
                c = sims[tier]
                worst = float((c.value - (eps + 2.0 * c.std_err)).max())
                checks.append(_check(
                    f"regulated_{tier}_op_within_eps_{tag}", worst <= 0.0,
                    f"max(op - (eps + 2*se)) = {worst:+.5f}"))
    return curves, checks


def preset_fig1(spec: ExperimentSpec):
    """Outage probability versus victim distance, interferer powers drawn
    i.i.d. lognormal, tagged femtocell at the power cap."""
    return _op_vs_distance(spec, "validation", "fig1")


def preset_fig2(spec: ExperimentSpec):
    """Outage probability versus expected femtocell count at 400 m / 800 m."""
    drops, trials = spec.scale(100, 1000)
    nf_grid = np.array(spec.nf_values or (1.0, 10.0, 30.0, 60.0, 100.0))
    curves, checks = [], []
    for d in (400.0, 800.0):
        tag = f"d{d:g}"
        for tier in ("femto", "macro"):
            res = []
            for pt, nf in enumerate(nf_grid):
                params = spec.params(n_f=float(nf))
                res += estimate_op(params, tier, [d], drops, trials, spec.seed,
                                   point_offset=pt)
            sim = Curve.simulated(f"fig2_op_{tier}_sim_{tag}", nf_grid, res)
            bounds = []
            for nf in nf_grid:
                ctx = BoundContext.from_params(spec.params(n_f=float(nf)))
                if tier == "femto":
                    bounds.append(femto_outage_lower_bound(ctx, d).p_total_lb)
                else:
                    bounds.append(macro_outage_lower_bound(ctx, d))
            bound = Curve.analytic(f"fig2_op_{tier}_bound_{tag}", nf_grid, bounds)
            curves += [sim, bound]
            checks.append(_ordering_check(f"ordering_{tier}_{tag}", bound, sim))
            checks.append(_monotone_check(
                f"{tier}_bound_nondecreasing_in_nf_{tag}", bound, "increasing"))
    return curves, checks


def preset_fig3(spec: ExperimentSpec):
    """Minimum deployment distance versus the femtocell power cap.  Each
    curve leaves out the caps below its cell-edge minimum power, which no
    power distribution can span."""
    power_grid = np.arange(10.0, 23.01, 1.0)
    xi_values = spec.xi_values or _DEFAULT_XI
    curves, checks = [], []
    per_xi = {}
    for xi in xi_values:
        top = spec.params(xi_db=float(xi), p_f_max_total_dbm=float(power_grid[-1]))
        edge_min = min_serving_power_dbm(BoundContext.from_params(top))
        caps, d_min = [], []
        for p_tot in power_grid:
            params = spec.params(xi_db=float(xi), p_f_max_total_dbm=float(p_tot))
            if params.p_f_max_subcarrier_dbm >= edge_min:
                caps.append(p_tot)
                d_min.append(min_deployment_distance(BoundContext.from_params(params)))
        c = Curve.analytic(f"fig3_dmin_xi{xi:g}", caps, d_min)
        curves.append(c)
        per_xi[xi] = c
        checks.append(_monotone_check(f"dmin_decreasing_in_cap_xi{xi:g}", c, "decreasing"))
    if 10.0 in per_xi and 15.0 in per_xi:
        # compared over the caps both curves hold
        c10, c15 = per_xi[10.0], per_xi[15.0]
        _, i, j = np.intersect1d(c10.x, c15.x, return_indices=True)
        gap = float((c10.value[i] - c15.value[j]).min())
        checks.append(_check("dmin_smaller_at_higher_wall_loss", gap > 0.0,
                             f"min(dmin(10dB) - dmin(15dB)) = {gap:.2f} m"))
    return curves, checks


def preset_fig4(spec: ExperimentSpec):
    """Power ceiling and exact/approximate power floors versus distance."""
    grid = np.arange(400.0, 1001.0, 50.0)
    curves, checks = [], []
    for nf in spec.nf_values or _DEFAULT_NF:
        params = spec.params(n_f=nf)
        ctx = BoundContext.from_params(params)
        tag = f"nf{nf:g}"
        to_total = 10.0 * math.log10(params.n_subcarriers)
        ceil = [power_ceiling_dbm(ctx, float(d)) + to_total for d in grid]
        fl_ex = [power_floor_exact_dbm(ctx, float(d)) + to_total for d in grid]
        fl_ap = [power_floor_approx_dbm(ctx, float(d)) + to_total for d in grid]
        c1 = Curve.analytic(f"fig4_power_ceiling_{tag}", grid, ceil)
        c2 = Curve.analytic(f"fig4_power_floor_exact_{tag}", grid, fl_ex)
        c3 = Curve.analytic(f"fig4_power_floor_approx_{tag}", grid, fl_ap)
        # without femtocells the ceiling is infinite: no curve to draw
        drawn = [c1, c2, c3] if params.lambda_f > 0 else [c2, c3]
        curves += drawn
        for c in drawn:
            checks.append(_monotone_check(f"{c.name}_decreasing", c, "decreasing"))
        if nf == 30.0:
            gap = float(np.abs(c2.value - c3.value).max())
            checks.append(_check("floor_exact_close_to_approx_nf30", gap <= 0.5,
                                 f"max |exact - approx| = {gap:.3f} dB"))
            window = float((c1.value - c2.value).min())
            checks.append(_check("window_open_everywhere_nf30", window >= 0.0,
                                 f"min(ceiling - floor) = {window:.2f} dB"))
        if nf == 100.0:
            window = float((c1.value - c2.value).max())
            checks.append(_check("window_closed_everywhere_nf100", window < 0.0,
                                 f"max(ceiling - floor) = {window:.2f} dB"))
    return curves, checks


def preset_fig5(spec: ExperimentSpec):
    """Outage probability under the self-regulation strategy."""
    return _op_vs_distance(spec, "regulated", "fig5")


def preset_fig6(spec: ExperimentSpec):
    """Assigned transmit power and RB access probability versus distance."""
    curves, checks = [], []
    for nf in spec.nf_values or _DEFAULT_NF:
        params = spec.params(n_f=nf)
        ctx = BoundContext.from_params(params)
        table = RegulationTable.build(ctx)
        grid = np.linspace(table.d_min_deploy * 1.001, params.r_m, 25)  # fig6: curves only
        tx, prob, _ = table.query(grid)
        to_total = 10.0 * math.log10(params.n_subcarriers)
        tag = f"nf{nf:g}"
        cp = Curve.analytic(f"fig6_tx_power_{tag}", grid, tx + to_total)
        cr = Curve.analytic(f"fig6_tx_prob_{tag}", grid, prob)
        curves += [cp, cr]
        checks.append(_monotone_check(f"tx_power_decreasing_{tag}", cp, "decreasing"))
        checks.append(_check(f"tx_prob_in_unit_interval_{tag}",
                             bool(np.all((prob > 0) & (prob <= 1))),
                             f"rho = {table.rho:.4f}"))
    return curves, checks


def preset_fig7(spec: ExperimentSpec):
    """Area spectral efficiency versus femtocell count under regulation."""
    drops, trials = spec.scale(40, 200)
    nf_grid = np.array(spec.nf_values or _DEFAULT_ASE_NF)
    curves, checks = [], []
    for xi in spec.xi_values or _DEFAULT_XI:
        rows = []
        for pt, nf in enumerate(nf_grid):
            params = spec.params(n_f=float(nf), xi_db=float(xi))
            rows.append(estimate_ase(params, drops, trials, seed=spec.seed + pt))
        tag = f"xi{xi:g}"
        for comp in ("ase_f", "ase_m", "ase_total"):
            vals = np.array([getattr(r, comp) for r in rows])
            curves.append(Curve.analytic(f"fig7_{comp}_{tag}", nf_grid, vals))
        ase_m = np.array([r.ase_m for r in rows])
        spread = float(ase_m.max() - ase_m.min()) / float(ase_m.max())
        checks.append(_check(f"macro_ase_stable_{tag}", spread < 0.10,
                             f"relative spread = {spread:.3f}"))
        total = np.array([r.ase_total for r in rows])
        if xi == 15.0:
            ok = bool(np.all(np.diff(total) >= -1e-9 * total.max()))
            checks.append(_check("total_ase_nondecreasing_xi15", ok,
                                 f"totals = {np.array2string(total, precision=3)}"))
        if xi == 10.0:
            name = "total_ase_peaks_then_declines_xi10"
            if total.size < 3:
                # a peak inside the range needs a point on either side of it
                checks.append(_check(name, True, "fewer than three points"))
            else:
                k = int(np.argmax(total))
                ok = 0 < k < len(total) - 1 or (k > 0 and total[-1] < total[k])
                checks.append(_check(name, ok,
                                     f"totals = {np.array2string(total, precision=3)}"))
    return curves, checks


def preset_custom(spec: ExperimentSpec):
    """OP-versus-distance curves for each value of a swept parameter."""
    drops, trials = spec.scale(20, 200)
    grid = np.arange(400.0, 1001.0, 200.0)
    sweeps = [(None, None)] if spec.sweep is None else \
        [(spec.sweep[0], v) for v in spec.sweep[1]]
    curves, checks = [], []
    for name, value in sweeps:
        extra = {} if name is None else {name: value}
        params = spec.params(**extra)
        tag = "base" if name is None else f"{name}{value:g}"
        ctx = BoundContext.from_params(params)
        fb = femto_outage_lower_bound(ctx, grid).p_total_lb
        mb = macro_outage_lower_bound(ctx, grid)
        bf = Curve.analytic(f"custom_op_femto_bound_{tag}", grid, fb)
        bm = Curve.analytic(f"custom_op_macro_bound_{tag}", grid, mb)
        curves += [bf, bm]
        for tier, bound in (("femto", bf), ("macro", bm)):
            res = estimate_op(params, tier, grid, drops, trials, spec.seed)
            sim = Curve.simulated(f"custom_op_{tier}_sim_{tag}", grid, res)
            curves.append(sim)
            checks.append(_ordering_check(f"ordering_{tier}_{tag}", bound, sim))
    return curves, checks


PRESETS = {
    "fig1": preset_fig1,
    "fig2": preset_fig2,
    "fig3": preset_fig3,
    "fig4": preset_fig4,
    "fig5": preset_fig5,
    "fig6": preset_fig6,
    "fig7": preset_fig7,
    "custom": preset_custom,
}


def run(spec: ExperimentSpec) -> dict:
    """Execute a preset: write one CSV per curve plus a JSON summary.

    Returns the summary dict; ``summary["passed"]`` reflects all checks.
    """
    if spec.preset not in PRESETS:
        raise ValueError(f"unknown preset {spec.preset!r}")
    t0 = time.perf_counter()
    curves, checks = PRESETS[spec.preset](spec)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for c in curves:
        path = out / f"{c.name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("x,value,std_err,n\n")
            for row in zip(c.x, c.value, c.std_err, c.n):
                fh.write("%.17g,%.17g,%.17g,%d\n" % (row[0], row[1], row[2], int(row[3])))
        files.append(str(path))
    summary = {
        "preset": spec.preset,
        "seed": spec.seed,
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "curves": files,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    with open(out / f"{spec.preset}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="femtoshare",
        description="Spectrum-sharing macro/femto downlink experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a figure preset or a custom sweep")
    runp.add_argument("preset", choices=sorted(PRESETS))
    runp.add_argument("--config", type=Path, default=None,
                      help="scenario JSON overriding the built-in defaults")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--drops", type=int, default=None)
    runp.add_argument("--trials", type=int, default=None)
    runp.add_argument("--out", type=Path, default=Path("results"))
    runp.add_argument("--nf", type=float, action="append", default=None,
                      help="expected femtocell count (repeatable)")
    runp.add_argument("--xi", type=float, action="append", default=None,
                      help="wall-partition loss in dB (repeatable)")
    runp.add_argument("--sweep", nargs="+", default=None, metavar=("FIELD", "VALUE"),
                      help="custom preset: parameter name followed by values")
    return ap


def _sweep_value(name: str, text: str):
    """One sweep value: an integer for a count field, else a float."""
    value = float(text)
    if name not in COUNT_FIELDS:
        return value
    if not value.is_integer():
        raise ValueError(f"sweep values of {name} must be integers, got {text!r}")
    return int(value)


def _spec_from_args(args) -> ExperimentSpec:
    """The run's spec from the parsed flags; raises ValueError (OSError for
    an unreadable config) on bad input.  Only the flags and the config are
    checked here: a scenario with no admissible power is refused by the
    library, when the preset reaches it."""
    sims = ("fig1", "fig2", "fig5", "fig7", "custom")   # the simulated presets
    for flag, value, takers in (("--xi", args.xi, ("fig3", "fig7")),
                                ("--nf", args.nf, set(PRESETS) - {"fig3", "custom"}),
                                ("--sweep", args.sweep, ("custom",)),
                                ("--drops", args.drops, sims), ("--trials", args.trials, sims)):
        if value is not None and args.preset not in takers:
            raise ValueError(f"{args.preset} does not take {flag}")
    for flag, count in (("--drops", args.drops), ("--trials", args.trials)):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be a positive count")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    overrides = {}
    if args.config is not None:
        loaded = load_scenario(args.config)
        base = NetworkParams()
        overrides = {name: getattr(loaded, name) for name in PARAM_FIELDS
                     if getattr(loaded, name) != getattr(base, name)}
    sweep = None
    if args.sweep is not None:
        name = args.sweep[0].lower()
        if name not in PARAM_FIELDS and name != "n_f":
            raise ValueError(f"unknown sweep field {args.sweep[0]!r}")
        sweep = (name, tuple(_sweep_value(name, v) for v in args.sweep[1:]))
    return ExperimentSpec(
        preset=args.preset,
        overrides=overrides,
        sweep=sweep,
        n_drops=args.drops,
        n_trials=args.trials,
        seed=args.seed,
        out_dir=args.out,
        nf_values=tuple(args.nf) if args.nf else None,
        xi_values=tuple(args.xi) if args.xi else None,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        summary = run(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for c in summary["checks"]:
        state = "pass" if c["passed"] else "FAIL"
        print(f"[{state}] {c['name']}: {c['detail']}")
    print(f"{len(summary['curves'])} curves -> {spec.out_dir} "
          f"({summary['elapsed_s']} s)")
    return 0 if summary["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
