"""Closed-form downlink outage-probability lower bounds.

Femto-tier outage splits into a macro-interference-only term (exact up to
the exponential-lognormal composite fit) and a composite term covering
outages that additionally need femto-tier interference; the latter is a
dominant-interferer bound over the planar Poisson field of access points,
evaluated with a Gauss-Laguerre x Gauss-Hermite double sum.  Macro-tier
outage uses the analogous single Gauss-Hermite sum.
"""

from __future__ import annotations

import math
import functools
from dataclasses import dataclass, field

import numpy as np

from .model import (
    LinkSet,
    LognormalDist,
    NetworkParams,
    build_links,
    dbm_to_mw,
    fap_power_distribution,
    mw_to_dbm,
)

__all__ = [
    "BoundContext",
    "FemtoOutageBreakdown",
    "femto_outage_lower_bound",
    "macro_outage_lower_bound",
]

# Exponent x such that exp(x) overflows float64; used to cap dominant
# interferer counts whose void probability is already exactly 0.
_EXP_CAP = 700.0
_TINY = np.finfo(float).tiny   # smallest positive normal float64
# Nodes of each of the bounds' Gauss-Laguerre and Gauss-Hermite rules.
_QUADRATURE_ORDER = 12
# A context's derived values: set when it is built, not arguments.
_derived = functools.partial(field, init=False, repr=False, compare=False)


@functools.lru_cache(maxsize=None)
def make_rule(kind: str, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(nodes, weights)`` of the ``order``-point Gauss rule for
    ``kind`` ``"laguerre"`` (weight e^-x on [0, inf)) or ``"hermite"``
    (weight e^-x^2 on the real line); cached.

    The nodes are the eigenvalues of the Jacobi matrix of the family's
    three-term recurrence (Golub & Welsch, Math. Comp. 23, 1969). Each weight
    is ``mu0 / sum_k p_k(x)**2`` over the orthonormal polynomials, run by the
    same recurrence: unlike ``mu0 * v[0]**2`` from the eigenvectors, it keeps
    its relative accuracy for tail weights far below 1e-16.
    """
    k = np.arange(1.0, order)
    if kind == "laguerre":
        diag, off, mu0 = 2.0 * np.arange(order) + 1.0, k, 1.0
    elif kind == "hermite":
        diag, off, mu0 = np.zeros(order), np.sqrt(k / 2.0), math.sqrt(math.pi)
    else:
        raise ValueError(f"unknown rule kind: {kind!r}")
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    prev, cur, total = np.zeros(order), np.ones(order), np.ones(order)
    for j in range(order - 1):   # prev starts at 0, so off[-1] drops out at j = 0
        prev, cur = cur, ((nodes - diag[j]) * cur - off[j - 1] * prev) / off[j]
        total += cur**2
    weights = mu0 / total
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class FemtoOutageBreakdown:
    """Femto outage lower bound and its two components.

    ``p_total_lb`` is ``p_macro_only + p_composite`` clamped into [0, 1];
    deep inside the exclusion zone the raw sum can numerically exceed 1.
    """

    p_macro_only: float
    p_composite: float
    p_total_lb: float


@dataclass(frozen=True)
class BoundContext:
    """Everything the bound evaluations need, precomputed and immutable.

    ``params`` is the only field a context takes: every other value is
    derived from it when the context is built, so a copy made by
    ``dataclasses.replace(ctx, params=...)`` is rebuilt for the new
    scenario, and two contexts are equal, and hash alike, exactly when
    their scenarios are.

    ``links`` carry the channel model: each link's fixed loss, antenna gain
    and composite lognormal fit of (Rayleigh power x shadowing).
    ``fap_power`` is the per-subcarrier transmit-power distribution of
    interfering access points (lognormal over mW), spanning [macro-edge
    minimum power, per-subcarrier cap]; the tagged femtocell serves at the
    cap.  ``laguerre`` and ``hermite`` are the ``(nodes, weights)`` of the
    bounds' quadrature rules.  Raises ValueError where the cap lies below
    the edge minimum power.
    """

    params: NetworkParams
    links: LinkSet = _derived()
    fap_power: LognormalDist = _derived()
    laguerre: tuple[np.ndarray, np.ndarray] = _derived()
    hermite: tuple[np.ndarray, np.ndarray] = _derived()
    # serving over macro-indoor composite channel ratio
    ratio_dist: LognormalDist = _derived()
    # per-Hermite-node coefficient of the macro bound's void exponent,
    # before the intensity, interfering-power and distance factors
    macro_b_tilde: np.ndarray = _derived()

    def __post_init__(self):
        p, links = self.params, build_links(self.params)
        derive = functools.partial(object.__setattr__, self)   # the class is frozen
        derive("links", links)
        derive("laguerre", make_rule("laguerre", _QUADRATURE_ORDER))
        derive("hermite", make_rule("hermite", _QUADRATURE_ORDER))
        sig, intf = links.serving_fap_to_indoor.composite, links.macro_to_indoor.composite
        derive("ratio_dist", LognormalDist(sig.loc - intf.loc, math.hypot(sig.scale, intf.scale)))
        edge_min = _power_floor_macro_only_dbm(self, p.r_m)
        cap = p.p_f_max_subcarrier_dbm
        if edge_min > cap:
            raise ValueError(
                f"the per-subcarrier power cap, {cap:.2f} dBm, lies below the "
                f"cell-edge minimum power, {edge_min:.2f} dBm")
        derive("fap_power", fap_power_distribution(edge_min, cap))
        sig, intf = links.macro_to_outdoor, links.fap_to_outdoor
        a = intf.alpha
        nodes, _ = self.hermite
        # interferer over signal, both at unit power and 1 m
        geo = (p.gamma_m * intf.mean_rx_mw(1.0, 1.0) / sig.mean_rx_mw(1.0, 1.0)) ** (2.0 / a)
        derive("macro_b_tilde", math.pi * geo * np.exp(_ln_moment(
            intf.composite.loc - sig.composite.loc
            - math.sqrt(2.0) * sig.composite.scale * nodes,
            intf.composite.scale**2, a)))

    @classmethod
    def from_params(cls, params: NetworkParams) -> "BoundContext":
        """The context of scenario ``params``; the same as ``cls(params)``."""
        return cls(params)

    # -- frequently used linear quantities ---------------------------------

    @property
    def p_f_serving_dbm(self) -> float:
        """The tagged femtocell's per-subcarrier power: the cap."""
        return self.params.p_f_max_subcarrier_dbm

    @property
    def p_m_mw(self) -> float:
        """MBS per-subcarrier power, mW."""
        return float(dbm_to_mw(self.params.p_m_subcarrier_dbm))

    @property
    def p_serving_mw(self) -> float:
        return float(dbm_to_mw(self.p_f_serving_dbm))


def _distances(d):
    """``d`` as a float, or a float array for an array ``d``; raises
    ValueError unless every distance is finite and positive."""
    arr = np.asarray(d, dtype=float)
    if not ((arr > 0) & (arr < math.inf)).all():   # NaN fails both
        raise ValueError("distance must be finite and positive")
    return float(arr) if arr.ndim == 0 else arr


def _macro_only_budget(ctx: BoundContext, d):
    """Macro-only link budget at range ``d``, mW: gamma_f times the mean
    macro interference at ``d`` over the mean serving signal per mW at the
    cell edge r_f.  Over the serving power it is the channel-ratio level
    below which macro interference alone causes a femto outage for the
    worst-case cell-edge UE; over the ratio's ``eps_f`` quantile it is the
    macro-only floor."""
    p, links = ctx.params, ctx.links
    return p.gamma_f * links.macro_to_indoor.mean_rx_mw(ctx.p_m_mw, d) \
        / links.serving_fap_to_indoor.mean_rx_mw(1.0, p.r_f)


def _power_floor_macro_only_dbm(ctx: BoundContext, d):
    """Per-subcarrier serving power making the macro-only femto outage
    equal ``eps_f`` at range ``d`` (closed form); elementwise over an array
    ``d``."""
    eps = ctx.params.eps_f
    if not (0 < eps < 1):
        raise ValueError("outage target must lie in (0, 1)")
    out = mw_to_dbm(_macro_only_budget(ctx, d) / ctx.ratio_dist.quantile(eps))
    return float(out) if np.ndim(out) == 0 else out


def _ln_moment(loc, var, a):
    """Log of E[X^(2/a)] for a lognormal X of natural-log location ``loc``
    and variance ``var``; elementwise."""
    return 2.0 * loc / a + 2.0 * var / a**2


def _dominant_interferer_rate(link, power: LognormalDist, gamma: float) -> float:
    """Spatial coefficient of the expected dominant-interferer count seen
    by a UE over interfering ``link`` from access points of transmit-power
    distribution ``power`` with SIR target ``gamma``: multiply by the FAP
    intensity and the power margin raised to -2/alpha to get a mean
    count."""
    a = link.alpha
    comp = link.composite
    geo = (gamma * link.mean_rx_mw(1.0, 1.0)) ** (2.0 / a)
    return math.pi * geo * math.exp(
        _ln_moment(comp.loc + power.loc, comp.scale**2 + power.scale**2, a))


def _rx_ln_loc(link, p_mw, d):
    """Natural-log location of the composite-faded power (mW) received
    over ``link`` from a transmitter of power ``p_mw`` at range ``d``."""
    return link.composite.loc + np.log(link.mean_rx_mw(p_mw, d))


def _femto_composite_term(ctx: BoundContext, d, p_serving_mw):
    """Double quadrature sum for the femto-plus-macro interference term,
    one value per (distance, serving power in mW) pair of the broadcast
    arrays ``d`` and ``p_serving_mw``.

    Evaluated in log space; where the quadrature node puts the signal
    sample at or below the macro-interference threshold the bracketed
    void-probability factor is taken as 1 (its limit from above).  One product
    sums the Laguerre axis, before the Hermite axis takes its ``exp(-chi)``.
    """
    p = ctx.params
    if p.lambda_f == 0.0:
        return np.zeros(np.broadcast_shapes(np.shape(d), np.shape(p_serving_mw)))
    sig, intf = ctx.links.serving_fap_to_indoor, ctx.links.macro_to_indoor
    # chi along axes (..., Hermite node); the sum's terms along (..., Laguerre, Hermite)
    mu_s = _rx_ln_loc(sig, p_serving_mw, p.r_f)[..., None]
    sc_s = sig.composite.scale
    mu_i = _rx_ln_loc(intf, ctx.p_m_mw, d)[..., None]
    sc_i = intf.composite.scale
    ln_gamma = math.log(p.gamma_f)
    rate = _dominant_interferer_rate(ctx.links.interfering_fap_to_indoor, ctx.fap_power,
                                     p.gamma_f) * p.lambda_f

    a_n, w_n = ctx.laguerre
    b_m, v_m = ctx.hermite

    ln_z = math.sqrt(2.0) * sc_i * b_m + mu_i + ln_gamma
    chi = (ln_z - mu_s) ** 2 / (2.0 * sc_s**2)
    root = np.sqrt(a_n[:, None] + chi[..., None, :])
    ln_w = mu_s[..., None] + math.sqrt(2.0) * sc_s * root
    diff = ln_z[..., None, :] - ln_w
    # log(signal - threshold); the clamp keeps it finite where the signal
    # is not above the threshold, where the bracket is 1 anyway
    ln_base = ln_w + np.log(-np.expm1(np.minimum(diff, -_TINY)))
    exponent = np.minimum(math.log(rate) - (2.0 / p.alpha_ff) * ln_base, _EXP_CAP)
    bracket = np.where(diff < 0.0, -np.expm1(-np.exp(exponent)), 1.0)
    laguerre_sum = w_n @ (bracket / root)
    return np.sum(v_m * np.exp(-chi) * laguerre_sum, axis=-1) / (2.0 * math.pi)


def _femto_bound(ctx: BoundContext, d, p_serving_mw):
    """Macro-only term, composite term, and their sum clamped to 1, for
    the broadcast arrays of distances and serving powers (mW)."""
    budget = _macro_only_budget(ctx, d)
    p_macro = ctx.ratio_dist.cdf(budget / p_serving_mw)
    p_comp = _femto_composite_term(ctx, d, p_serving_mw)
    return p_macro, p_comp, np.minimum(p_macro + p_comp, 1.0)


def femto_outage_lower_bound(ctx: BoundContext, d):
    """Lower bound of the femto downlink outage probability at range ``d``.

    Returns a :class:`FemtoOutageBreakdown`; with an array ``d`` the fields
    hold arrays.
    """
    d_arr = np.atleast_1d(_distances(d))
    p_macro, p_comp, p_total = _femto_bound(ctx, d_arr, ctx.p_serving_mw)
    if np.ndim(d) == 0:
        return FemtoOutageBreakdown(float(p_macro[0]), float(p_comp[0]), float(p_total[0]))
    return FemtoOutageBreakdown(p_macro, p_comp, p_total)


def _macro_bound(ctx: BoundContext, d, power_loc, power_scale):
    """Macro outage bound for broadcast arrays of distances and of the
    natural-log location and scale of the interfering-power lognormal."""
    p = ctx.params
    a = p.alpha_mf
    power_factor = np.exp(_ln_moment(power_loc, power_scale**2, a))
    dist_factor = (np.asarray(d) ** p.alpha_m / ctx.p_m_mw) ** (2.0 / a)
    return _macro_void_bound(ctx, ctx.macro_b_tilde * p.lambda_f * power_factor[..., None]
                             * dist_factor[..., None])


def _macro_void_bound(ctx: BoundContext, void_exp):
    """Macro bound 1 - sum_k (w_k / sqrt(pi)) exp(-b_tilde_k x) from the void
    exponents ``b_tilde_k * x`` along the last axis; non-decreasing in x."""
    _, weights = ctx.hermite
    out = 1.0 - np.sum(weights / math.sqrt(math.pi) * np.exp(-np.minimum(void_exp, _EXP_CAP)),
                       axis=-1)
    return np.clip(out, 0.0, 1.0)   # the weight sum is 1 only to machine precision


def macro_outage_lower_bound(ctx: BoundContext, d):
    """Lower bound of the macro downlink outage probability at range ``d``,
    every access point of the context's intensity transmitting in the
    resource block.  Non-decreasing in ``d``, the intensity, and the
    interferer power statistics.
    """
    out = _macro_bound(ctx, _distances(d), ctx.fap_power.loc, ctx.fap_power.scale)
    return float(out) if np.ndim(out) == 0 else out
