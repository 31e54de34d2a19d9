"""Decentralized femtocell self-regulation.

A femtocell a distance ``d`` from the macro base station needs at least a
distance-dependent floor of transmit power to protect its own downlink
from macro interference, and at most a distance-dependent ceiling to
protect macro users.  When the window closes, the femtocell keeps the
floor power but transmits in each resource block only with a reduced
probability chosen so the thinned interferer field still meets the macro
outage constraint at the cell edge.  The ceiling is in closed form: the
macro bound sees the power spread and ``d`` through one void level only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (  # the public bounds stay importable from this module
    BoundContext,
    _distances,
    _femto_bound,
    _ln_moment,
    _macro_void_bound,
    _power_floor_macro_only_dbm,
    femto_outage_lower_bound,  # noqa: F401
    macro_outage_lower_bound,  # noqa: F401
)
from .model import DB_TO_LN, _fap_power_ln, dbm_to_mw

__all__ = [
    "InfeasibleError",
    "RegulationDecision",
    "RegulationTable",
    "min_serving_power_dbm",
    "min_deployment_distance",
    "power_floor_approx_dbm",
    "power_floor_exact_dbm",
    "power_ceiling_dbm",
    "rb_access_probability",
    "decide",
    "WINDOW_FLOOR_MARGIN_DB",
]

# Root tolerance in dB; far tighter than the 1e-3 dB the regulation
# round-trip properties require.  The relative term is four ulps.
_XTOL_DB = 1e-9
_RTOL = 4.0 * np.finfo(float).eps
_MAXITER = 200
# Tolerance in ln x of the macro void level; the ceiling moves by about
# 17 dB / sqrt(radicand) per unit of ln x.
_XTOL_LN = 1e-12
# Tolerance of the window-to-thinned onset distance, in meters.
_ONSET_XTOL_M = 1e-6
# Distances per femto-bound evaluation in the floor solve.  The bound holds
# about eight (n, 12, 12) float64 temporaries: 0.3 MB at 32 distances, but
# 1.8 MB for a whole table grid, which would raise peak memory.
_FLOOR_BLOCK = 32
# Distances of a regulation table's grid.
_TABLE_POINTS = 192

# Back-off above the window's power floor.  The floor is calibrated
# against a lower bound of the femto outage, so transmitting exactly at it
# leaves the realized outage above the target by the bound's gap (~0.004
# at the reference scenario's outer distances); half a dB covers that gap
# while staying ~0.8 dB under the level where the macro edge constraint
# tightens.  Rule-b (thinned) power is pinned to the floor itself.
WINDOW_FLOOR_MARGIN_DB = 0.5


class InfeasibleError(ValueError):
    """No admissible power satisfies the requested outage constraint."""


@dataclass(frozen=True)
class RegulationDecision:
    """Decisions over an array of distances, each field of the shape of the
    distances.  The window is open where ``p_lb_dbm <= p_ub_dbm`` and closed
    (thinned) where not; an excluded distance reads ``transmit_prob == 0``
    with NaN powers."""

    p_lb_dbm: np.ndarray
    p_ub_dbm: np.ndarray
    transmit_prob: np.ndarray
    tx_power_dbm: np.ndarray


def _bracketed_root(f, lo, hi, f_lo, f_hi, d=None, xtol=_XTOL_DB):
    """Roots of the non-increasing ``f`` in ``[lo[i], hi[i]]`` by Chandrupatla's
    method (inverse quadratic interpolation with a bisection safeguard; *Adv.
    Eng. Software* 28(3), 1997) in lockstep, each element's iterates
    depending on its own values only.  ``f(x, idx)`` evaluates elements
    ``idx``; ``f_lo`` and ``f_hi`` are its values at the ends.  Returns both
    evaluated ends ``(pos, neg)`` of the final brackets, ``f(pos) >= 0 >
    f(neg)`` (0 counts as >= 0), closer than ``xtol + _RTOL·|x|``; where
    ``f_lo < 0`` or ``f_hi >= 0`` that end is both.  Raises ValueError where
    f is NaN, naming the element's distance ``d[i]`` if given, and
    RuntimeError after ``_MAXITER`` steps."""
    x1, x2, f1, f2 = (np.array(a, dtype=float, ndmin=1)
                      for a in np.broadcast_arrays(lo, hi, f_lo, f_hi))
    lo_far, hi_far = f1 < 0.0, f2 >= 0.0
    x1, x2 = np.where(hi_far & ~lo_far, x2, x1), np.where(lo_far, x1, x2)
    pos, neg = x1.copy(), x2.copy()
    # x1 is the newest point, x2 the bracket's other end, x3 the one dropped;
    # fx holds the newest values, at first NaN where either end's value is
    x3, f3, fx, t, idx = x2, f2, f1 - f2, np.full(x1.size, 0.5), np.arange(x1.size)
    for step in range(_MAXITER + 1):
        if np.isnan(fx).any():
            at = "" if d is None else \
                f" at d={np.broadcast_to(d, pos.shape)[idx][np.isnan(fx)][0]:.6g} m"
            raise ValueError("outage bound is NaN" + at)
        tol = xtol + _RTOL * np.abs(np.where(np.abs(f1) < np.abs(f2), x1, x2))
        dx = np.abs(x2 - x1)
        keep = dx >= tol
        x1, x2, x3, f1, f2, f3, t, tol, dx, idx = (
            a[keep] for a in (x1, x2, x3, f1, f2, f3, t, tol, dx, idx))
        if not idx.size:
            return pos, neg
        if step == _MAXITER:
            break
        t = np.clip(t, 0.5 * tol / dx, 1.0 - 0.5 * tol / dx)
        x = x1 + t * (x2 - x1)
        fx = f(x, idx)
        same = (fx >= 0.0) == (f1 >= 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
        pos[idx], neg[idx] = np.where(f1 >= 0.0, x1, x2), np.where(f1 >= 0.0, x2, x1)
        # inverse quadratic interpolation where the three points allow it
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
    raise RuntimeError(f"root solve did not converge in {_MAXITER} steps")


def power_floor_approx_dbm(ctx: BoundContext, d):
    """Closed-form power floor: macro interference treated as the only
    outage source; elementwise over an array ``d``.  Non-increasing in
    ``d``; equals the cap at the minimum deployment distance and the edge
    minimum power at ``r_m``."""
    return _power_floor_macro_only_dbm(ctx, _distances(d))


def min_serving_power_dbm(ctx: BoundContext) -> float:
    """Smallest per-subcarrier power letting a cell-edge femtocell meet its
    outage constraint against macro interference alone."""
    return power_floor_approx_dbm(ctx, ctx.params.r_m)


def min_deployment_distance(ctx: BoundContext) -> float:
    """Closest admissible femtocell distance from the MBS: nearer than
    this, even the capped power misses the femto outage constraint."""
    p = ctx.params
    # Invert the macro-only outage in distance at the power cap:
    # floor(d) = floor(r_m) * (r_m/d)^alpha_fm in linear power
    ratio_db = min_serving_power_dbm(ctx) - p.p_f_max_subcarrier_dbm
    return p.r_m * 10.0 ** (ratio_db / (10.0 * p.alpha_fm))


def _floor_exact_dbm(ctx: BoundContext, d: np.ndarray):
    """Exact power floors over an array of distances, and the mask of the
    distances where the floor lies at or below the per-subcarrier cap.
    Elsewhere the floor reads the cap."""
    p = ctx.params
    cap = p.p_f_max_subcarrier_dbm

    def excess(p_dbm, idx):
        p_mw = dbm_to_mw(p_dbm)
        out = np.empty(idx.size)
        for s in range(0, idx.size, _FLOOR_BLOCK):
            blk = slice(s, s + _FLOOR_BLOCK)
            out[blk] = _femto_bound(ctx, d[idx[blk]], p_mw[blk])[2]
        return out - p.eps_f

    lo = power_floor_approx_dbm(ctx, d)  # excess >= 0 there
    at_cap = excess(np.full(d.shape, cap), np.arange(d.size))
    floor = np.full(d.shape, cap)
    solve = np.flatnonzero(lo < cap)
    # the end where the femto bound lies under eps_f; the cap where none does
    floor[solve] = _bracketed_root(lambda x, i: excess(x, solve[i]), lo[solve], cap,
                                   excess(lo[solve], solve), at_cap[solve], d[solve])[1]
    return floor, at_cap <= 0.0


def power_floor_exact_dbm(ctx: BoundContext, d: float) -> float:
    """Power floor from the full femto outage lower bound (macro plus
    femto interference), found by a bracketed root solve in dBm.

    Raises :class:`InfeasibleError` when no root lies at or below the
    per-subcarrier power cap.
    """
    floor, feasible = _floor_exact_dbm(ctx, np.array([_distances(d)]))
    if not feasible[0]:
        raise InfeasibleError(
            f"femto outage constraint unreachable at d={d:.1f} m within the power cap")
    return float(floor[0])


def _void_level_ln(ctx: BoundContext) -> float:
    """Log of the void level x* where the macro bound reaches ``eps_m``, -inf
    at ``eps_m`` = 0.  Bracket: 1 - exp(-y) <= y below; above, the bound is
    at least 1 - exp(-min_k b_tilde_k x)."""
    eps, b = ctx.params.eps_m, ctx.macro_b_tilde
    if eps == 0.0:   # only a void field meets a zero target
        return -math.inf

    def excess(ln_x, i=None):   # non-increasing in ln x
        return eps - _macro_void_bound(ctx, b * np.exp(ln_x)[..., None])

    _, weights = ctx.hermite
    ends = np.log([eps / np.sum(weights / math.sqrt(math.pi) * b), -math.log1p(-eps) / b.min()])
    return float(_bracketed_root(excess, *ends, *excess(ends), xtol=_XTOL_LN)[0][0])


def power_ceiling_dbm(ctx: BoundContext, d):
    """Largest admissible maximum FAP power at range ``d``, elementwise over
    an array ``d``: interferer powers spread between the fixed edge minimum
    and this ceiling drive the macro outage bound exactly to its constraint.

    The bound sees ``d`` and the spread only through x = lambda_f E[P^(2/alpha)]
    (d^alpha_m / P_m)^(2/alpha), which the constraint fixes at x* for every d;
    ln E[P^(2/alpha)] is quadratic in the ceiling, which is its upper root.
    The root may fall below the minimum power or exceed the cap; without
    femtocells it is ``inf``.  Raises :class:`InfeasibleError`, naming the
    first such distance, where there is no real root (a tail in ``d``).
    """
    d = _distances(d)
    if ctx.params.lambda_f <= 0:   # no FAP can break the macro constraint
        return math.inf if np.ndim(d) == 0 else np.full(d.shape, math.inf)
    out = _ceiling_dbm(ctx, _void_level_ln(ctx), d)
    return float(out) if np.ndim(out) == 0 else out


def _ceiling_dbm(ctx: BoundContext, ln_x: float, d):
    """:func:`power_ceiling_dbm` at ``d`` from the log ``ln_x`` of the void level; lambda_f > 0."""
    p = ctx.params
    a, c, m0 = p.alpha_mf, DB_TO_LN, min_serving_power_dbm(ctx)
    ln_moment = ln_x - math.log(p.lambda_f) \
        - 2.0 / a * (p.alpha_m * np.log(d) - math.log(ctx.p_m_mw))
    # ln E[P^(2/a)] = (c/a)(m0 + M) + c^2 (M - m0)^2 / (18 a^2) = ln_moment
    radicand = 1.0 + 2.0 * (ln_moment - 2.0 * c * m0 / a) / 9.0
    if (radicand < 0.0).any():
        raise InfeasibleError("macro outage constraint unreachable at "
                              f"d={np.extract(radicand < 0.0, d)[0]:.1f} m for any power ceiling")
    return m0 + 9.0 * a / c * (np.sqrt(radicand) - 1.0)


def rb_access_probability(ctx: BoundContext) -> float:
    """Per-resource-block transmission probability of the self-regulation
    strategy.

    Returns 1.0 while the power window stays open everywhere (no femtocells,
    or the ceiling at the cell edge, where it is tightest, clears the floor);
    otherwise the closed-form thinning factor that lets every access point
    keep the floor power with the macro edge constraint intact.
    """
    p = ctx.params
    ceiling_edge = power_ceiling_dbm(ctx, p.r_m)
    floor_edge = min_serving_power_dbm(ctx)
    if ceiling_edge >= floor_edge:
        return 1.0

    def ln_moment(max_dbm):   # of the interfering power, as in the macro bound
        loc, scale = _fap_power_ln(floor_edge, max_dbm)
        return _ln_moment(loc, scale**2, p.alpha_mf)

    return min(math.exp(ln_moment(ceiling_edge) - ln_moment(p.p_f_max_subcarrier_dbm)), 1.0)


def decide(ctx: BoundContext, d) -> RegulationDecision:
    """Self-regulation decisions for femtocells ``d`` meters from the MBS,
    elementwise over an array ``d``: the exact power floor and the window
    top.  Inside an open window the transmit power is the floor plus
    ``WINDOW_FLOOR_MARGIN_DB``, capped at the window top; where the window
    is closed it is the floor itself, with RB thinning to
    :func:`rb_access_probability`.  Nearer than
    :func:`min_deployment_distance` a femtocell is excluded."""
    d = np.asarray(_distances(d))
    deployed = d >= min_deployment_distance(ctx)
    lb, ub = np.full(d.shape, math.nan), np.full(d.shape, math.nan)
    # In the boundary sliver just above the minimum deployment distance the
    # exact floor peeks over the cap; it is pinned to the cap there.
    lb[deployed] = _floor_exact_dbm(ctx, d[deployed])[0]
    ub[deployed] = np.minimum(power_ceiling_dbm(ctx, d[deployed]),
                              ctx.params.p_f_max_subcarrier_dbm)
    thinned = lb > ub
    prob = np.where(deployed, 1.0, 0.0)
    if thinned.any():
        prob[thinned] = rb_access_probability(ctx)
    tx = np.where(lb <= ub, np.minimum(lb + WINDOW_FLOOR_MARGIN_DB, ub), lb)
    return RegulationDecision(lb, ub, prob, tx)


@dataclass(frozen=True)
class RegulationTable:
    """Vectorized view of :func:`decide` over a distance grid.

    Power curves are smooth and monotone, so the simulator interpolates
    them; the window-to-thinned switch is resolved to a single onset
    distance instead of being interpolated.
    """

    d_min_deploy: float
    d_thinned_onset: float          # inf when the window never closes
    rho: float
    grid: np.ndarray
    tx_power_dbm: np.ndarray

    def query(self, d):
        """Transmit power (dBm), RB access probability, and deployment
        mask for an array of distances."""
        d = np.asarray(d, dtype=float)
        deployed = d >= self.d_min_deploy
        tx = np.interp(d, self.grid, self.tx_power_dbm)
        prob = np.where(d >= self.d_thinned_onset, self.rho, 1.0)
        tx = np.where(deployed, tx, np.nan)
        prob = np.where(deployed, prob, 0.0)
        return tx, prob, deployed

    @classmethod
    def build(cls, ctx: BoundContext, d_max: float | None = None) -> "RegulationTable":
        if d_max is None:
            d_max = ctx.params.r_m
        d_min = min_deployment_distance(ctx)
        grid = np.geomspace(d_min, max(d_max, d_min * 1.001), _TABLE_POINTS)
        dec = decide(ctx, grid)
        thinned = dec.p_lb_dbm > dec.p_ub_dbm
        rho = float(dec.transmit_prob[thinned][0]) if thinned.any() else rb_access_probability(ctx)
        if not thinned.any():
            onset = math.inf
        elif thinned[0]:
            onset = d_min
        else:
            # Between the grid's last open and first closed point, the root of
            # eps_f less the femto bound at the window top, of the sign of
            # decide()'s ub - lb: the bound does not rise with power and the
            # floor is its solve's bracket end above the root, so the floor
            # passes the top where the bound there passes eps_f; at the cap it
            # cannot.  The onset is the closed end, so decide() thins there.
            eps_f, cap = ctx.params.eps_f, ctx.params.p_f_max_subcarrier_dbm
            ln_x = _void_level_ln(ctx)

            def margin(x, i=None):
                top = np.minimum(_ceiling_dbm(ctx, ln_x, x), cap)
                return np.where(top == cap, eps_f, eps_f - _femto_bound(ctx, x, dbm_to_mw(top))[2])

            k = int(np.argmax(thinned))
            cell = grid[k - 1:k + 1]
            onset = float(_bracketed_root(margin, *cell, *margin(cell), grid[k],
                                          _ONSET_XTOL_M)[1][0])
        return cls(d_min, onset, rho, grid, dec.tx_power_dbm)
