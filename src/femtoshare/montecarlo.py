"""Ground-truth simulator for the spectrum-sharing downlink.

Femtocell positions follow a Poisson point process over a disc large
enough that truncation is immaterial for victims anywhere inside the
macrocell (``DROP_REGION_FACTOR`` times the cell radius).  Fading and
shadowing are drawn per trial and per link: Rayleigh power (unit-mean
exponential) times lognormal shadowing, sampled separately rather than
through the composite lognormal fit used by the analytic bounds.

Victim placement: the outage probability at range ``d`` is isotropic, so
each trial the victim sits at a fresh uniform azimuth on the radius-``d``
circle; this is an unbiased estimator of the same quantity with far less
drop-geometry variance than a fixed victim.  :func:`_ring` makes every
uniform-azimuth placement: the victims, and the access points of a drop.

A drop meets its victims in three steps.  A builder draws a batch of victims
-- :func:`_femto_ues` for indoor UEs served by a femtocell, :func:`_macro_ues`
for outdoor UEs served by the MBS -- with their positions, faded signal, fixed
interference and RBs.  The caller then draws the (trial, FAP) fading over
their interfering link, and :func:`_victim_outages`, the only caller of the
numpy outage kernel in :mod:`femtoshare._kernels`, counts the outages from the
kernel operands the drop builds once.  A drop without access points takes the
same path: the kernel's sum over no access points is zero.
:func:`estimate_ase` draws a drop's tagged femtocells' edge UEs in one call.

Drops run on a pool of threads as wide as the CPUs this process may use,
capped by a memory budget for the drops' (trial, FAP) arrays.  Each drop
draws from its own ``(seed, point_offset, drop)`` stream and the per-drop
results are combined in drop order, so every estimate is the same, bit for
bit, on any CPU count.  :func:`estimate_op` shares a drop's field and
fading draw among all the points of its curve (common random numbers):
each point's estimate keeps its distribution, and only the points correlate.

A running drop keeps its two (trial, FAP) arrays -- the fading draw and
the kernel's path gains -- in a :class:`_Workspace`.
:func:`_map_drops` allocates one per pool thread in the calling thread
before the pool starts, hands each running drop one that no other running
drop holds, and drops them all when it returns or raises.  Reusing them
spares every drop the fresh pages, and the page faults, of new arrays.
Workspace memory is an anonymous map of its own, so none of it stays
resident in a malloc heap or a pool thread's arena after its release.
"""

from __future__ import annotations

import math
import mmap
import os
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .analysis import BoundContext, _distances
from .model import DB_TO_LN, NetworkParams, dbm_to_mw
from .regulation import RegulationTable, decide

__all__ = [
    "FemtoDrop",
    "SimResult",
    "drop_faps",
    "estimate_op",
    "estimate_ase",
]

# Interferers closer than this to a victim are clamped to this path
# distance: the power law diverges at 0 and sub-meter proximity has
# negligible probability under the scenario intensities.
MIN_INTERFERER_DISTANCE_M = 1.0
# Radius of the FAP drop region, in cell radii.
DROP_REGION_FACTOR = 3.0
# In-cell femtocells per drop whose edge UEs the ASE estimate samples.
TAGGED_FAPS_PER_DROP = 24


@dataclass(frozen=True)
class FemtoDrop:
    """One realization of interfering femtocell access points.

    ``fap_rb_masks`` has one row per FAP and one column per resource
    block; an entry marks the FAP transmitting in that RB.
    """

    fap_positions: np.ndarray    # (n, 2) meters, MBS at the origin
    fap_powers_mw: np.ndarray    # (n,) per-subcarrier transmit power
    fap_rb_masks: np.ndarray     # (n, n_rb) bool

    @property
    def n_faps(self) -> int:
        return self.fap_positions.shape[0]

    def distances_to_mbs(self) -> np.ndarray:
        return np.hypot(self.fap_positions[:, 0], self.fap_positions[:, 1])

    # cached_property stores into the instance __dict__, which a frozen dataclass allows
    @cached_property
    def kernel_operands(self) -> tuple[np.ndarray, bool]:
        """The outage kernel's ``fap_rows`` and ``every_rb``, built once per drop."""
        px, py = self.fap_positions.T
        return (np.stack([px, py, px * px + py * py, np.ones_like(px)]),
                bool(self.fap_rb_masks.all()))

    def p_coef(self, link) -> np.ndarray:
        """Each FAP's mean power at 1 m over ``link``, built once per link."""
        cache = self.__dict__.setdefault("_p_coefs", {})
        if link not in cache:
            cache[link] = link.mean_rx_mw(self.fap_powers_mw, 1.0)
        return cache[link]


@dataclass(frozen=True)
class SimResult:
    """Pooled Monte-Carlo estimate with its binomial standard error."""

    op_estimate: float
    std_err: float
    n_trials: int
    ase_f: float | None = None
    ase_m: float | None = None
    ase_total: float | None = None


def _pooled(outages: int, n: int) -> tuple[float, float]:
    p = outages / n
    return p, math.sqrt(p * (1.0 - p) / n)


def _ring(rng: np.random.Generator, cx, cy, radius, n: int):
    """x and y of ``n`` points at uniform azimuths on the circle of
    ``radius`` about ``(cx, cy)``, each a scalar or one per point."""
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return cx + radius * np.cos(theta), cy + radius * np.sin(theta)


def drop_faps(
    ctx: BoundContext,
    rng: np.random.Generator,
    regulation: RegulationTable | None = None,
) -> FemtoDrop:
    """Sample one FAP field of the context's scenario: Poisson count at
    its intensity, positions uniform over the disc of radius
    ``DROP_REGION_FACTOR`` times the cell radius.

    With a ``regulation`` table the field covers only the annulus outside
    its minimum deployment distance, and the table sets each FAP's power
    and thins its RB usage by distance; without one, powers are i.i.d.
    draws from the context's ``fap_power`` and every FAP uses every RB.
    """
    params = ctx.params
    region = DROP_REGION_FACTOR * params.r_m
    min_radius = 0.0 if regulation is None else regulation.d_min_deploy
    if min_radius >= region:
        raise ValueError("the minimum deployment distance must lie inside the region")
    area = math.pi * (region**2 - min_radius**2)
    n = int(rng.poisson(params.lambda_f * area))
    # uniform over the annulus via inverse-CDF radius sampling
    radius = np.sqrt(min_radius**2 + rng.random(n) * (region**2 - min_radius**2))
    pos = np.column_stack(_ring(rng, 0.0, 0.0, radius, n))
    if regulation is not None:
        tx_dbm, prob, deployed = regulation.query(radius)
        pos, tx_dbm, prob = pos[deployed], tx_dbm[deployed], prob[deployed]
        n = pos.shape[0]
        # rng.random((n, n_rb)) < prob[:, None] in 64-row blocks, stored RB-major
        masks = np.empty((params.n_rb, n), dtype=bool).T
        block = np.empty((min(n, 64), params.n_rb))
        for i in range(0, n, 64):
            masks[i:i + 64] = rng.random(out=block[:n - i]) < prob[i:i + 64, None]
        powers = dbm_to_mw(tx_dbm)
    else:
        powers = ctx.fap_power.sample(rng, n)
        masks = np.ones((n, params.n_rb), dtype=bool)
    return FemtoDrop(pos, powers, masks)


# -- one drop against a batch of victims ----------------------------------


def _hq(rng: np.random.Generator, link, out, shadow):
    """Fill ``out`` with Rayleigh-power fading times lognormal shadowing on
    ``link``, drawn from the stream positions of ``exponential`` then
    ``lognormal`` (to 1 ulp); ``shadow``, of the same shape, is scratch."""
    rng.standard_exponential(out=out)
    rng.standard_normal(out=shadow)
    shadow *= DB_TO_LN * link.sigma_db
    shadow += DB_TO_LN * link.mu_db
    out *= np.exp(shadow, out=shadow)
    return out


def _received(rng: np.random.Generator, link, p_mw, d, n: int):
    """Faded power (mW) that ``n`` UEs receive over ``link`` from a
    transmitter of power ``p_mw`` at range ``d``."""
    hq = _hq(rng, link, np.empty(n), np.empty(n))
    return link.mean_rx_mw(p_mw, d) * hq


# A batch of victims: UE t sits at (ux[t], uy[t]) in RB rb[t] with faded
# signal sig[t] and fixed (non-FAP) interference fixed[t], both in mW, and
# is in outage below SIR gamma; the FAPs reach it over link.
_Victims = namedtuple("_Victims", "link gamma ux uy sig fixed rb")


def _fading(rng: np.random.Generator, link, ws: _Workspace, n_trials: int, drop: FemtoDrop):
    """The (trial, FAP) fading over ``link`` from the FAPs of ``drop``, drawn
    into ``ws``, and the workspace's other array, scratch for the kernel."""
    hq, gain = ws.arrays(n_trials, drop.n_faps)
    return _hq(rng, link, hq, gain), gain


def _victim_outages(v: _Victims, drop: FemtoDrop, hq, gain, skip: int = -1) -> int:
    """Outage count of the victims ``v`` against one drop, with ``hq[t, i]``
    the fading from FAP ``i`` to victim ``t``; FAP ``skip`` (the victims'
    own serving FAP) is left out of the sum.  A victim with no interference
    at all is not in outage.  ``gain`` is overwritten; ``hq`` is not."""
    return int(_kernels.outage_count(
        v.sig, v.fixed, hq, drop.p_coef(v.link), *drop.kernel_operands, v.ux, v.uy,
        v.link.alpha / 2.0, drop.fap_rb_masks, v.rb, v.gamma, MIN_INTERFERER_DISTANCE_M**2,
        skip, gain))


def _femto_ues(params: NetworkParams, links, ux, uy, d_mbs, p_mw, rb_masks,
               rng: np.random.Generator, rb_prob: float = 1.0) -> _Victims:
    """The :data:`_Victims` of indoor UEs at ``(ux, uy)``, each at the edge of
    a femtocell ``d_mbs`` from the MBS that serves it at power ``p_mw`` (a
    scalar, or one per UE).  ``rb_masks`` holds one row per femtocell, the UEs
    falling to its rows in equal runs, each UE's RB uniform over its row's.
    With ``rb_prob`` below 1 one drawn mask keeps each RB with that probability."""
    n = ux.shape[0]
    sig = _received(rng, links.serving_fap_to_indoor, p_mw, params.r_f, n)
    fixed = _received(rng, links.macro_to_indoor, dbm_to_mw(params.p_m_subcarrier_dbm),
                      d_mbs, n)
    if rb_prob < 1.0:
        mask = rng.random(params.n_rb) < rb_prob
        while not mask.any():
            mask = rng.random(params.n_rb) < rb_prob
        rb_masks = rb_masks & mask
    # an index into the UE's own femtocell's run of active RBs, drawn from
    # the stream as rng.choice draws one
    rbs, count = np.nonzero(rb_masks)[1], np.count_nonzero(rb_masks, axis=1)
    run = n // len(rb_masks)
    rb = rbs[np.repeat(np.cumsum(count) - count, run) + rng.integers(np.repeat(count, run))]
    return _Victims(links.interfering_fap_to_indoor, params.gamma_f, ux, uy, sig, fixed, rb)


def _macro_ues(params: NetworkParams, links, r, n: int, rng: np.random.Generator):
    """The :data:`_Victims` of ``n`` outdoor UEs, each at a uniform azimuth at
    range ``r`` (a scalar, or one per UE) from the MBS that serves it, in any RB."""
    ux, uy = _ring(rng, 0.0, 0.0, r, n)
    sig = _received(rng, links.macro_to_outdoor, dbm_to_mw(params.p_m_subcarrier_dbm), r, n)
    return _Victims(links.fap_to_outdoor, params.gamma_m, ux, uy, sig, np.zeros(n),
                    rng.choice(np.arange(params.n_rb), size=n))


# -- batched estimation ------------------------------------------------------


# Memory the running drops' workspaces may take in all.  A workspace holds
# about 16 MB at 1000 trials and 900 expected FAPs, so one thread per CPU
# would peak near 1.0 GB on 64 CPUs.
_POOL_BUDGET_BYTES = 256 * 2**20
# (trial, FAP) float64 arrays in one drop's workspace, both alive at once:
# the fading draw and the kernel's path gains (the path-gain array holds
# the draw's shadowing first).
_LIVE_TRIAL_FAP_ARRAYS = 2


def _workspace_pairs(n_trials: int, n_faps: float) -> int:
    """(trial, FAP) pairs per array of a workspace for ``n_trials`` victims
    and ``n_faps`` expected FAPs: the Poisson FAP count rarely passes its
    mean plus four standard deviations (4e-5 of drops at a mean of 900)."""
    return n_trials * math.ceil(n_faps + 4.0 * math.sqrt(n_faps))


def _mapped_buffer(pairs: int) -> np.ndarray:
    """``(_LIVE_TRIAL_FAP_ARRAYS, pairs)`` float64 in an anonymous memory map
    of its own, unmapped when the last view of it goes.  Unlike a malloc
    heap or arena, it keeps no pages resident after its release, whichever
    thread allocated it."""
    size = _LIVE_TRIAL_FAP_ARRAYS * pairs
    buf = np.frombuffer(mmap.mmap(-1, max(1, 8 * size)), dtype=np.float64, count=size)
    return buf.reshape(_LIVE_TRIAL_FAP_ARRAYS, pairs)


class _Workspace:
    """The (trial, FAP) float64 arrays of one running drop, reused by the
    drops that run after it on the same workspace."""

    def __init__(self, n_trials: int, n_faps: float):
        self._buf = _mapped_buffer(_workspace_pairs(n_trials, n_faps))

    def arrays(self, n_trials: int, n_faps: int) -> list:
        """The workspace's arrays, as C-contiguous ``(n_trials, n_faps)``
        views.  A drop with more pairs than they hold gets larger ones,
        which the workspace keeps."""
        pairs = n_trials * n_faps
        if pairs > self._buf.shape[1]:
            self._buf = _mapped_buffer(_workspace_pairs(n_trials, n_faps))
        return [row[:pairs].reshape(n_trials, n_faps) for row in self._buf]


def _drop_rng(seed: int, point: int, drop_idx: int) -> np.random.Generator:
    """Independent stream per (point offset, drop): scheduling-invariant."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, point, drop_idx))))


def _map_drops(fn, n_drops: int, n_trials: int, n_faps: float) -> list:
    """``[fn(k, ws) for k in range(n_drops)]``, run on a pool of threads as
    wide as the CPUs this process may use (serially where that is one), but
    no wider than keeps the drops' workspaces within ``_POOL_BUDGET_BYTES``,
    for ``n_trials`` victims and ``n_faps`` expected FAPs per drop.

    One :class:`_Workspace` per thread is allocated before the pool starts,
    and every running drop gets one as ``ws`` that no other running drop
    holds.  Each drop draws from its own stream and numpy releases the
    GIL in its random fills and array loops, so drops overlap; results come
    back in drop order.  The pool and the workspaces live for this call
    only, so no thread outlives it.  If a drop raises, or the caller is
    interrupted, the drops not yet started are cancelled before the
    exception propagates.
    """
    ws_bytes = _workspace_pairs(n_trials, n_faps) * 8 * _LIVE_TRIAL_FAP_ARRAYS
    width = min(_usable_cpus(), n_drops, max(1, _POOL_BUDGET_BYTES // max(1, ws_bytes)))
    # made here, not in the pool threads, so that at most width exist
    free = [_Workspace(n_trials, n_faps) for _ in range(width)]
    try:
        if width <= 1:
            return [fn(k, free[0]) for k in range(n_drops)]
        # imported here, so that runs without drops skip its 0.6 MB (logging included)
        from concurrent.futures import ThreadPoolExecutor

        def run(k: int):
            # list.pop and list.append are atomic, and no more than width
            # drops run at once, so a workspace is always free here
            ws = free.pop()
            try:
                return fn(k, ws)
            finally:
                free.append(ws)

        pool = ThreadPoolExecutor(max_workers=width,
                                  thread_name_prefix="femtoshare-drop")
        try:
            return list(pool.map(run, range(n_drops)))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    finally:
        free.clear()   # a traceback that holds this frame keeps no workspace


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def estimate_op(
    params: NetworkParams,
    tier: str,
    distances,
    n_drops: int = 100,
    n_trials: int = 1000,
    seed: int = 0,
    mode: str = "validation",
    point_offset: int = 0,
) -> list[SimResult]:
    """Empirical downlink outage probability per victim distance.

    ``tier`` is ``"femto"`` (indoor UE at the edge of a femtocell at that
    range) or ``"macro"`` (outdoor UE).  ``mode="validation"`` draws
    interferer powers i.i.d. from the scenario lognormal; ``"regulated"``
    runs the self-regulation strategy per FAP (and sets the femto victim's
    serving power the same way).  Every point reads the same drops and
    fading draws, from the streams of ``(seed, point_offset, drop)``; the
    first point's victims are drawn first, so a one-point call reproduces
    the first point of any curve at the same ``seed`` and ``point_offset``
    bit for bit, and calls at distinct offsets are independent.
    """
    if tier not in ("femto", "macro"):
        raise ValueError("tier must be 'femto' or 'macro'")
    if mode not in ("validation", "regulated"):
        raise ValueError("mode must be 'validation' or 'regulated'")
    if n_drops < 1 or n_trials < 1:
        raise ValueError("n_drops and n_trials must be >= 1")
    distances = np.atleast_1d(_distances(distances))
    ctx = BoundContext.from_params(params)
    region = DROP_REGION_FACTOR * params.r_m
    links = ctx.links
    regulation = RegulationTable.build(ctx, d_max=region) if mode == "regulated" else None
    if mode == "regulated" and tier == "femto":
        dec = decide(ctx, distances)
        excluded = dec.transmit_prob == 0.0
        if excluded.any():
            raise ValueError(
                f"femtocells cannot be deployed at d={distances[excluded][0]:.1f} m "
                f"(< {regulation.d_min_deploy:.1f} m)")
        serving = list(zip(dbm_to_mw(dec.tx_power_dbm).tolist(),
                           dec.transmit_prob.tolist()))
    else:
        serving = [(ctx.p_serving_mw, 1.0)] * len(distances)
    every_rb = np.ones((1, params.n_rb), dtype=bool)

    def victims(j: int, rng: np.random.Generator) -> _Victims:
        d = float(distances[j])
        if tier == "macro":
            return _macro_ues(params, links, d, n_trials, rng)
        p_mw, prob = serving[j]
        return _femto_ues(params, links, *_ring(rng, 0.0, 0.0, d, n_trials), d, p_mw,
                          every_rb, rng, rb_prob=prob)

    # one task per drop: its field and its one fading draw serve every point
    def drop_outages(k: int, ws: _Workspace) -> list[int]:
        rng = _drop_rng(seed, point_offset, k)
        drop = drop_faps(ctx, rng, regulation=regulation)
        first = victims(0, rng)
        hq, gain = _fading(rng, first.link, ws, n_trials, drop)
        batches = [first] + [victims(j, rng) for j in range(1, len(distances))]
        return [_victim_outages(v, drop, hq, gain) for v in batches]

    counts = _map_drops(drop_outages, n_drops, n_trials, params.lambda_f * math.pi * region**2)
    return [SimResult(*_pooled(sum(point), n_drops * n_trials), n_drops * n_trials)
            for point in zip(*counts)]


def estimate_ase(
    params: NetworkParams,
    n_drops: int = 40,
    n_trials: int = 200,
    seed: int = 0,
) -> SimResult:
    """Area spectral efficiency (b/s/Hz/m^2) under self-regulation.

    Per drop, the femto term averages per-RB transmission density times
    conditional success over ``TAGGED_FAPS_PER_DROP`` tagged in-cell
    femtocells (all of them when fewer); the macro term averages success
    over macro UEs placed uniformly in the cell.  ``op_estimate`` reports
    the pooled macro outage probability.

    The tagged femtocells' edge UEs are drawn in one batch per drop, each at
    its own femtocell's position, power and RBs, and share one fading draw
    less their FAP's column.  Each term keeps its distribution, so the estimate
    stays unbiased; only the stream order changes, and one drop's terms correlate.
    """
    if n_drops < 1 or n_trials < 1:
        raise ValueError("n_drops and n_trials must be >= 1")
    ctx = BoundContext.from_params(params)
    links = ctx.links
    region = DROP_REGION_FACTOR * params.r_m
    regulation = RegulationTable.build(ctx, d_max=region)
    cell_area = math.pi * params.r_m**2
    se_f = math.log2(1.0 + params.gamma_f)
    se_m = math.log2(1.0 + params.gamma_m)

    def drop_terms(k: int, ws: _Workspace) -> tuple[float, int]:
        rng = _drop_rng(seed, 0, k)
        drop = drop_faps(ctx, rng, regulation=regulation)
        in_cell = np.flatnonzero(drop.distances_to_mbs() <= params.r_m)
        # femto side: the edge UEs of a tagged subsample, each conditional
        # on its FAP transmitting; unbiased via the count ratio
        density_success = 0.0
        if in_cell.size:
            n_tag = min(TAGGED_FAPS_PER_DROP, in_cell.size)
            tagged = rng.choice(in_cell, size=n_tag, replace=False)
            hq, gain = _fading(rng, links.interfering_fap_to_indoor, ws, n_trials, drop)
            # one batch of n_trials edge UEs per tagged femtocell that transmits
            masks = drop.fap_rb_masks[tagged]
            keep = masks.any(axis=1)
            live, masks = tagged[keep], masks[keep]
            if live.size:
                x, y = drop.fap_positions[live].repeat(n_trials, axis=0).T
                # UEs of one femtocell share their access point's macro path loss
                batch = _femto_ues(params, links, *_ring(rng, x, y, params.r_f, x.size),
                                   np.maximum(np.hypot(x, y), 1.0),
                                   drop.fap_powers_mw[live].repeat(n_trials), masks, rng)
                active = np.count_nonzero(masks, axis=1).tolist()
                for i, (j, n_active) in enumerate(zip(live.tolist(), active)):
                    s = slice(i * n_trials, (i + 1) * n_trials)
                    v = _Victims(batch.link, batch.gamma, *(a[s] for a in batch[2:]))
                    outages = _victim_outages(v, drop, hq, gain, skip=j)
                    density_success += n_active / params.n_rb * ((n_trials - outages) / n_trials)
            density_success *= in_cell.size / n_tag
        # macro side: victims placed uniformly in the cell, with fading of their own
        radius = np.maximum(params.r_m * np.sqrt(rng.random(n_trials)), 1.0)
        v = _macro_ues(params, links, radius, n_trials, rng)
        return density_success, n_trials - _victim_outages(
            v, drop, *_fading(rng, v.link, ws, n_trials, drop))

    # accumulate in drop order, so the sums do not depend on the thread count
    ase_f_acc, ase_m_acc, mue_outages = 0.0, 0.0, 0
    for density_success, succ_m in _map_drops(drop_terms, n_drops, n_trials,
                                              params.lambda_f * math.pi * region**2):
        ase_f_acc += density_success / cell_area * se_f
        ase_m_acc += params.mue_density * (succ_m / n_trials) * se_m
        mue_outages += n_trials - succ_m
    ase_f = ase_f_acc / n_drops
    ase_m = ase_m_acc / n_drops
    p, se = _pooled(mue_outages, n_drops * n_trials)
    return SimResult(p, se, n_drops * n_trials, ase_f=ase_f, ase_m=ase_m,
                     ase_total=ase_f + ase_m)

