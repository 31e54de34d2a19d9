import concurrent.futures
import dataclasses
import gc
import inspect
import itertools
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from femtoshare import _kernels, montecarlo
from femtoshare.analysis import BoundContext, femto_outage_lower_bound
from femtoshare.model import DB_TO_LN, NetworkParams, build_links, dbm_to_mw, mw_to_dbm
from femtoshare.montecarlo import FemtoDrop, drop_faps, estimate_ase, estimate_op
from femtoshare.regulation import RegulationTable

from conftest import UnitDraws


class TestDropFaps:
    def test_zero_intensity_always_empty(self):
        ctx = BoundContext.from_params(NetworkParams(lambda_f=0.0))
        table = RegulationTable.build(ctx, d_max=1000.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert drop_faps(ctx, rng).n_faps == 0
            assert drop_faps(ctx, rng, regulation=table).n_faps == 0

    def test_poisson_count_statistics(self, params30, ctx30):
        rng = np.random.default_rng(42)
        counts = np.array([drop_faps(ctx30, rng).n_faps for _ in range(10_000)])
        region = montecarlo.DROP_REGION_FACTOR * params30.r_m
        expected = params30.lambda_f * math.pi * region**2   # 270
        mean = counts.mean()
        # mean within 3 standard errors of the expected count
        assert abs(mean - expected) <= 3.0 * math.sqrt(expected) / 100.0
        # Poisson dispersion: variance tracks the mean
        assert counts.var() == pytest.approx(mean, rel=0.10)

    def test_positions_inside_region(self, params30, ctx30):
        rng = np.random.default_rng(3)
        drop = drop_faps(ctx30, rng)
        assert np.all(drop.distances_to_mbs()
                      <= montecarlo.DROP_REGION_FACTOR * params30.r_m)

    def test_annulus_exclusion(self, params100, ctx100):
        rng = np.random.default_rng(4)
        table = RegulationTable.build(
            ctx100, d_max=montecarlo.DROP_REGION_FACTOR * params100.r_m)
        drop = drop_faps(ctx100, rng, regulation=table)
        assert np.all(drop.distances_to_mbs() >= table.d_min_deploy)
        assert np.all(mw_to_dbm(drop.fap_powers_mw)
                      <= params100.p_f_max_subcarrier_dbm + 1e-9)

    def test_deployment_distance_outside_the_region_raises(self, params30, ctx30):
        # A table of another scenario: with 40 dB less MBS power a 100 m
        # cell keeps the 1000 m cell's edge power, but its 300 m drop region
        # lies inside the 1000 m cell's minimum deployment distance.
        table = RegulationTable.build(ctx30)
        small = BoundContext.from_params(dataclasses.replace(
            params30, r_m=100.0, p_m_total_dbm=params30.p_m_total_dbm - 40.0))
        assert table.d_min_deploy >= montecarlo.DROP_REGION_FACTOR * small.params.r_m
        with pytest.raises(ValueError, match="minimum deployment distance must lie "
                                             "inside the region"):
            drop_faps(small, np.random.default_rng(0), regulation=table)

    def test_deterministic_given_seed(self, ctx30):
        a = drop_faps(ctx30, np.random.default_rng(9))
        b = drop_faps(ctx30, np.random.default_rng(9))
        np.testing.assert_array_equal(a.fap_positions, b.fap_positions)
        np.testing.assert_array_equal(a.fap_powers_mw, b.fap_powers_mw)

    def test_a_regulated_drop_draws_its_rb_usage_in_small_blocks(self, params100, ctx100):
        # About 900 FAPs and 100 RBs: their uniforms as one float64 matrix
        # would take about 700 KB; the drop's own arrays take under 200 KB.
        table = RegulationTable.build(ctx100)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            drop = drop_faps(ctx100, rng, regulation=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drop.n_faps > 600
        assert peak < 256 * 1024, peak


def _with_targets(params, gamma):
    """``params`` with both SIR targets set to the linear value ``gamma``."""
    g_db = 10.0 * math.log10(gamma)
    return dataclasses.replace(params, gamma_f_db=g_db, gamma_m_db=g_db)


def _assert_flips_at(sir, outages_at):
    """One victim is in outage just above its SIR as target, not just below."""
    assert outages_at(sir * (1.0 - 1e-12)) == 0
    assert outages_at(sir * (1.0 + 1e-12)) == 1


def _one_victim(params, drop, tier, d, serving_dbm=None):
    """Outage count of a single victim at (d, 0), with every gain at 1."""
    links, rng, ws = build_links(params), UnitDraws(), montecarlo._Workspace(1, drop.n_faps)
    if tier == "macro":
        v = montecarlo._macro_ues(params, links, d, 1, rng)
    else:
        v = montecarlo._femto_ues(
            params, links, *montecarlo._ring(rng, 0.0, 0.0, d, 1), d,
            float(dbm_to_mw(serving_dbm)), np.ones((1, params.n_rb), bool), rng)
    return montecarlo._victim_outages(v, drop, *montecarlo._fading(rng, v.link, ws, 1, drop))


_EMPTY = FemtoDrop(np.empty((0, 2)), np.empty(0), np.ones((0, 100), bool))


class TestSingleDrawSamplers:
    """One victim and one unit draw of every gain, through the victim-batch
    path, checked against hand-computed SIRs."""

    def test_fue_deterministic_single_interferer(self, params30):
        p = params30
        links = build_links(p)
        d = 800.0
        interferer = np.array([[d + 30.0, 0.0]])   # 30 m from the victim
        drop = FemtoDrop(interferer, dbm_to_mw([-10.0]), np.ones((1, 100), bool))
        serving_dbm = -7.79
        sig = dbm_to_mw(serving_dbm) * links.serving_fap_to_indoor.gain \
            / (10**3.7 * 30.0**3)
        i_mbs = dbm_to_mw(p.p_m_subcarrier_dbm) * links.macro_to_indoor.gain \
            / (links.macro_to_indoor.phi * d**4)
        i_fap = dbm_to_mw(-10.0) * links.interfering_fap_to_indoor.gain \
            / (links.interfering_fap_to_indoor.phi * 30.0**4)
        _assert_flips_at(sig / (i_mbs + i_fap), lambda g: _one_victim(
            _with_targets(p, g), drop, "femto", d, serving_dbm))

    def test_mue_deterministic_single_interferer(self, params30):
        p = params30
        links = build_links(p)
        d = 600.0
        drop = FemtoDrop(np.array([[d + 50.0, 0.0]]), dbm_to_mw([-12.0]),
                         np.ones((1, 100), bool))
        sig = dbm_to_mw(p.p_m_subcarrier_dbm) * links.macro_to_outdoor.gain \
            / (links.macro_to_outdoor.phi * d**4)
        i_fap = dbm_to_mw(-12.0) * links.fap_to_outdoor.gain \
            / (links.fap_to_outdoor.phi * 50.0**4)
        _assert_flips_at(sig / i_fap, lambda g: _one_victim(
            _with_targets(p, g), drop, "macro", d))

    def test_proximity_clamp(self, params30):
        # interferer on top of the victim clamps to the 1 m path distance
        p = params30
        links = build_links(p)
        drop = FemtoDrop(np.array([[700.0, 0.0]]), dbm_to_mw([-10.0]),
                         np.ones((1, 100), bool))
        sig = dbm_to_mw(p.p_m_subcarrier_dbm) * links.macro_to_outdoor.gain \
            / (links.macro_to_outdoor.phi * 700.0**4)
        i_fap = dbm_to_mw(-10.0) * links.fap_to_outdoor.gain / links.fap_to_outdoor.phi
        _assert_flips_at(sig / i_fap, lambda g: _one_victim(
            _with_targets(p, g), drop, "macro", 700.0))

    def test_rb_mask_respected(self, params30):
        # the interferer transmits in every RB but RB 3
        p = params30
        links = build_links(p)
        masks = np.ones((1, 100), bool)
        masks[0, 3] = False
        drop = FemtoDrop(np.array([[500.0, 100.0]]), dbm_to_mw([0.0]), masks)
        sig = np.array([1e-12])
        i_fap = dbm_to_mw(0.0) * links.fap_to_outdoor.gain \
            / (links.fap_to_outdoor.phi * 100.0**4)

        def outages(gamma, rb):
            v = montecarlo._Victims(links.fap_to_outdoor, _with_targets(p, gamma).gamma_m,
                                    np.array([500.0]), np.array([0.0]), sig, np.zeros(1),
                                    np.array([rb]))
            return montecarlo._victim_outages(v, drop, np.ones((1, 1)), np.empty((1, 1)))

        _assert_flips_at(sig[0] / i_fap, lambda g: outages(g, 2))
        assert outages(sig[0] / i_fap * 1e6, 3) == 0

    def test_mue_empty_drop_non_outage(self, params30):
        assert _one_victim(_with_targets(params30, 1e30), _EMPTY, "macro", 500.0) == 0

    def test_an_empty_serving_rb_mask_is_redrawn(self, params30):
        # The serving femtocell transmits in each RB with probability 0.5.
        # Its first mask is empty; its second holds RBs 3 and 7, and the
        # victim's RB comes from those two only.  The one interferer
        # transmits in RB 3 alone, so the victim meets it there.
        p = _with_targets(params30, 1e30)
        first, second = np.full(p.n_rb, 0.9), np.full(p.n_rb, 0.9)
        second[[3, 7]] = 0.1
        masks = np.zeros((1, p.n_rb), bool)
        masks[0, 3] = True
        drop = FemtoDrop(np.array([[600.0, 0.0]]), dbm_to_mw([-10.0]), masks)
        rng = UnitDraws(random=[first, second])
        v = montecarlo._femto_ues(
            p, build_links(p), np.array([500.0]), np.array([0.0]), 500.0,
            float(dbm_to_mw(-7.79)), np.ones((1, p.n_rb), bool), rng, rb_prob=0.5)
        # the RB index was drawn below 2, over RBs 3 and 7 in that order
        assert [b.tolist() for b in rng.bounds] == [[2]]
        assert v.rb.tolist() == [3]
        assert montecarlo._victim_outages(v, drop, np.ones((1, 1)), np.empty((1, 1))) == 1

    def test_fue_infinite_sir_guard(self):
        # MBS power low enough to underflow to zero milliwatts and an empty
        # drop leave no interference at all: no outage at any target
        params = NetworkParams(lambda_f=0.0, p_m_total_dbm=-3300.0)
        assert dbm_to_mw(params.p_m_subcarrier_dbm) == 0.0
        assert _one_victim(_with_targets(params, 1e30), _EMPTY, "femto", 500.0,
                           -7.79) == 0


@pytest.mark.parametrize("tier", ["femto", "macro"])
def test_ue_gain_leaves_outage_counts_unchanged(tier):
    # the UE antenna gain scales signal and interference alike
    estimates = {
        g_u_dbi: [r.op_estimate for r in estimate_op(
            NetworkParams.from_expected_fap_count(100, g_u_dbi=g_u_dbi), tier,
            [400.0, 700.0, 1000.0], n_drops=4, n_trials=50, seed=5)]
        for g_u_dbi in (0.0, -3.0, 5.0)}
    assert estimates[-3.0] == estimates[0.0] == estimates[5.0]
    assert any(estimates[0.0])


_LINK_NAMES = ("macro_to_outdoor", "serving_fap_to_indoor", "fap_to_outdoor",
               "macro_to_indoor", "interfering_fap_to_indoor")


@pytest.mark.parametrize("name", _LINK_NAMES)
def test_fading_draw_takes_the_exponential_then_lognormal_stream(name):
    # _hq fills its caller's array with what exponential(size) then
    # lognormal(mu, sigma, size) would draw, from the same stream positions,
    # up to 1 ulp of exp and the product
    scenario = getattr(build_links(NetworkParams()), name)
    for link in (scenario, dataclasses.replace(scenario, mu_db=-2.5)):
        size = (40, 57)
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        out, shadow = np.full(size, np.nan), np.full(size, np.nan)
        got = montecarlo._hq(rng, link, out, shadow)
        assert got is out
        want = ref.exponential(size=size)
        want *= ref.lognormal(DB_TO_LN * link.mu_db, DB_TO_LN * link.sigma_db, size)
        np.testing.assert_array_equal(rng.random(4), ref.random(4))
        np.testing.assert_allclose(got, want, rtol=4.5e-16, atol=0.0)


class TestKernels:
    # Each test runs at both: 2.0 is the scenario's (alpha = 4), which numpy's
    # power computes by its square fast path; 1.5 takes its general path.
    _HALF_ALPHAS = (1.5, 2.0)

    def _case(self, seed, half_alpha, n_trials=64, n_fap=17, p_scale=1e-6, skip=2,
              all_active=False):
        rng = np.random.default_rng(seed)
        sig = rng.exponential(size=n_trials)
        fixed = rng.exponential(size=n_trials) * 1e-3
        hq = rng.exponential(size=(n_trials, n_fap))
        # powers rescaled so that a 1 km path gain weighs as much as at 2.0
        p_coef = rng.exponential(size=n_fap) * p_scale * 1e6 ** (half_alpha - 2.0)
        px, py = rng.normal(0, 800, n_fap), rng.normal(0, 800, n_fap)
        ux, uy = rng.normal(0, 500, n_trials), rng.normal(0, 500, n_trials)
        masks = rng.random((n_fap, 8)) < 0.6
        if all_active:
            masks[:] = True
        rb = rng.integers(0, 8, n_trials)
        return (sig, fixed, hq, p_coef, px, py, ux, uy, half_alpha, masks,
                rb.astype(np.int64), 3.0, 1.0, skip, np.empty_like(hq))

    @staticmethod
    def _kernel_args(args):
        """``args`` of the reference with ``px, py`` replaced by the drop's
        operands, which a drop builds from ``px``, ``py`` and ``masks``."""
        px, py, masks = args[4], args[5], args[9]
        drop = FemtoDrop(np.column_stack([px, py]), np.ones(px.size), masks)
        return [*args[:4], *drop.kernel_operands, *args[6:]]

    @classmethod
    def _count(cls, args):
        # NaN in the scratch array reaches the count unless the kernel
        # writes every element of it before it reads it
        args[-1].fill(np.nan)
        return _kernels.outage_count(*cls._kernel_args(args))

    @staticmethod
    def _reference_interference(sig, fixed, hq, p_coef, px, py, ux, uy, ha, masks,
                                rb, gamma, md2, skip, gain):
        interf = []
        for t in range(sig.shape[0]):
            acc = fixed[t]
            for i in range(px.shape[0]):
                if i == skip or not masks[i, rb[t]]:
                    continue
                d2 = max((px[i] - ux[t]) ** 2 + (py[i] - uy[t]) ** 2, md2)
                acc += p_coef[i] * hq[t, i] * d2 ** (-ha)
            interf.append(acc)
        return np.array(interf)

    @classmethod
    def _reference_count(cls, *args):
        interf = cls._reference_interference(*args)
        sig, gamma = args[0], args[11]
        return int(np.count_nonzero((interf > 0) & (sig < gamma * interf)))

    def test_against_python_reference_over_seeds(self):
        for half_alpha, seed in itertools.product(self._HALF_ALPHAS, range(5)):
            args = self._case(seed, half_alpha)
            assert self._count(args) == self._reference_count(*args)
            # At p_scale=1e9 the access points interfere as much as the fixed
            # term does, so the per-FAP sum decides the outages.
            loud = self._case(seed, half_alpha, p_scale=1e9)
            assert self._count(loud) == self._reference_count(*loud)

    def test_against_python_reference(self):
        for half_alpha in self._HALF_ALPHAS:
            args = self._case(123, half_alpha, n_trials=20, n_fap=5)
            assert self._count(args) == self._reference_count(*args)

    @pytest.mark.parametrize("n_fap, skip", [(0, -1), (1, 0)])
    def test_no_access_point_in_the_sum(self, n_fap, skip):
        # An empty field, and a lone access point that is the skipped one:
        # only the fixed term counts, and a victim without it is not in
        # outage.  The fixed term is as loud as the signal here.
        for half_alpha in self._HALF_ALPHAS:
            args = list(self._case(11, half_alpha, n_fap=n_fap, p_scale=1e12, skip=skip))
            args[1] = args[1] * 1e3
            args[1][::4] = 0.0
            count = self._reference_count(*args)
            assert 0 < count < 48
            if n_fap:   # the access point would add outages if it were not skipped
                assert self._reference_count(*args[:13], -1, args[14]) > count
            assert self._count(args) == count

    @pytest.mark.parametrize("skip", [-1, 2])
    @pytest.mark.parametrize("all_active", [False, True])
    def test_against_python_reference_with_interference(self, skip, all_active):
        # Loud access points: their sum, not the fixed term, decides outages.
        # In this case skipping access point 2 and masking RBs each change
        # the count.  all_active takes the numpy path without the mask gather.
        for half_alpha in self._HALF_ALPHAS:
            args = self._case(7, half_alpha, p_scale=1e9, skip=skip,
                              all_active=all_active)
            count = self._reference_count(*args)
            assert 0 < count < 64
            silent = list(args)
            silent[3] = np.zeros_like(args[3])
            assert count > self._reference_count(*silent)
            assert self._count(args) == count

    @pytest.mark.parametrize("skip", [-1, 2])
    def test_an_all_active_call_allocates_nothing_fap_sized(self, skip):
        # With the drop's operands built, the path gains in ``gain`` are the
        # call's only FAP-sized array; a (4, FAP) float64 stack would take 160 KB.
        args = self._kernel_args(self._case(5, 2.0, n_trials=16, n_fap=5000, skip=skip,
                                            all_active=True))
        tracemalloc.start()
        try:
            _kernels.outage_count(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5000, peak

    def _near_miss_case(self, half_alpha, on_fap):
        # Access points 2.5-3 km from the origin and victims within 3 m of
        # one, where |u|^2 + |p|^2 - 2 u.p cancels the most.  With
        # ``on_fap`` each victim sits exactly on one, where the product can
        # round d2 to 0 or below and only the clamp at min_d2 keeps the
        # count.  Each victim's signal sits 1e-6 above or below its outage
        # threshold, against the interference summed from differences.
        rng = np.random.default_rng(31)
        args = list(self._case(31, half_alpha, n_trials=48, n_fap=40, p_scale=1e9,
                               skip=-1))
        r, phi = rng.uniform(2500.0, 3000.0, 40), rng.uniform(0.0, 2.0 * np.pi, 40)
        px, py = r * np.cos(phi), r * np.sin(phi)
        near = rng.integers(0, 40, 48)
        off = 0.0 if on_fap else rng.uniform(0.0, 3.0, 48)
        theta = rng.uniform(0.0, 2.0 * np.pi, 48)
        args[4:8] = px, py, px[near] + off * np.cos(theta), py[near] + off * np.sin(theta)
        side = np.where(np.arange(48) % 2 == 0, 1.0 - 1e-6, 1.0 + 1e-6)
        args[0] = args[11] * self._reference_interference(*args) * side
        return args

    @pytest.mark.parametrize("on_fap", [False, True])
    def test_far_field_near_misses_against_python_reference(self, on_fap):
        for half_alpha in self._HALF_ALPHAS:
            args = self._near_miss_case(half_alpha, on_fap)
            assert self._reference_count(*args) == 24
            assert self._count(args) == 24


class TestEstimateOp:
    def test_vanishing_target_kills_outage(self, params30):
        params = dataclasses.replace(params30, gamma_f_db=-400.0, gamma_m_db=-400.0)
        for tier in ("femto", "macro"):
            res = estimate_op(params, tier, [500.0], n_drops=3, n_trials=100, seed=0)
            assert res[0].op_estimate == 0.0

    def test_macro_outage_grows_with_distance(self, params30):
        res = estimate_op(params30, "macro", [400.0, 800.0],
                          n_drops=30, n_trials=400, seed=2)
        assert res[1].op_estimate > res[0].op_estimate

    def test_bit_identical_reruns(self, params30):
        a = estimate_op(params30, "femto", [700.0], n_drops=5, n_trials=200, seed=7)
        b = estimate_op(params30, "femto", [700.0], n_drops=5, n_trials=200, seed=7)
        assert a == b

    @pytest.mark.parametrize("mode", ["validation", "regulated"])
    @pytest.mark.parametrize("tier", ["femto", "macro"])
    def test_a_one_point_call_is_the_first_point_of_any_curve(self, params30, tier, mode):
        # a drop draws the first point's victims before its fading, so the
        # points after it leave the first point's draws where they are
        def first(*grid):
            return estimate_op(params30, tier, [700.0, *grid], n_drops=4, n_trials=50,
                               seed=3, mode=mode, point_offset=2)[0]

        assert first() == first(500.0) == first(1000.0, 600.0)

    def test_std_err_formula(self, params30):
        res = estimate_op(params30, "macro", [800.0], n_drops=5, n_trials=100, seed=1)[0]
        p = res.op_estimate
        assert res.std_err == pytest.approx(math.sqrt(p * (1 - p) / res.n_trials), rel=1e-12)

    def test_femto_outage_insensitive_to_intensity(self):
        # double-wall insulation keeps the femto tier nearly unaffected by
        # the interferer count
        ops = []
        for nf in (1.0, 100.0):
            params = NetworkParams.from_expected_fap_count(nf)
            res = estimate_op(params, "femto", [600.0], n_drops=40,
                              n_trials=500, seed=5)[0]
            ops.append(res.op_estimate)
        assert abs(ops[1] - ops[0]) <= 0.03

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("tier", ["femto", "macro"])
    def test_rejects_a_non_finite_distance(self, params30, tier, bad):
        with pytest.raises(ValueError, match="distance must be finite and positive"):
            estimate_op(params30, tier, [500.0, bad], n_drops=1, n_trials=10)

    def test_regulated_femto_rejects_excluded_distance(self, params30):
        # the message names the excluded distance, also behind a deployed one
        for distances in ([300.0], [500.0, 300.0]):
            with pytest.raises(ValueError, match=r"cannot be deployed at d=300\.0 m"):
                estimate_op(params30, "femto", distances, n_drops=2, n_trials=10,
                            seed=0, mode="regulated")

    def test_bound_ordering_spot_check(self, params30, ctx30):
        d = 800.0
        res = estimate_op(params30, "femto", [d], n_drops=40, n_trials=500, seed=13)[0]
        bound = femto_outage_lower_bound(ctx30, d).p_total_lb
        assert bound <= res.op_estimate + 3 * res.std_err


class TestEstimateAse:
    def test_zero_intensity(self):
        params = NetworkParams(lambda_f=0.0)
        res = estimate_ase(params, n_drops=3, n_trials=50, seed=0)
        assert res.ase_f == 0.0
        assert res.ase_total == res.ase_m > 0.0

    def test_deterministic(self, params30):
        a = estimate_ase(params30, n_drops=3, n_trials=50, seed=4)
        b = estimate_ase(params30, n_drops=3, n_trials=50, seed=4)
        assert a == b

    def test_magnitude_sanity(self, params100):
        # macro term bounded by full-success density x spectral efficiency
        res = estimate_ase(params100, n_drops=6, n_trials=80, seed=1)
        lam_m = params100.mue_density
        cap_m = lam_m * math.log2(1.0 + params100.gamma_m)
        assert 0.0 < res.ase_m <= cap_m
        assert res.ase_f > 0.0
        assert res.ase_total == pytest.approx(res.ase_f + res.ase_m, rel=1e-12)


# Outage counts of a small run per (mode, tier), at 700 m and 1000 m, and
# (ase_f, ase_m, macro outages) of estimate_ase at N_F = 30 and 100.  They
# pin the random-stream layout: which draws each drop makes, and in what
# order.  A change that alters them changes every simulated curve; it must
# update these values and say why in CHANGES.md.  The 700 m column is each
# curve's first point, drawn as a one-point call at 700 m would draw it.
_PINNED_COUNTS = {
    ("validation", "femto"): [8, 1],
    ("validation", "macro"): [36, 61],
    ("regulated", "femto"): [33, 29],
    ("regulated", "macro"): [37, 35],
}
# At N_F = 100 the window is closed at both distances (rho = 0.1454), so
# the regulated femto victims also draw their serving femtocell's RBs.
_PINNED_THINNED_FEMTO = [37, 29]
_PINNED_ASE = {
    30.0: (3.087122226371871e-05, 5.975800365806534e-05, 7),
    100.0: (1.3075198865510064e-05, 6.139520923773836e-05, 5),
}


def test_random_stream_layout_is_pinned():
    params = NetworkParams.from_expected_fap_count(30)
    for (mode, tier), counts in _PINNED_COUNTS.items():
        res = estimate_op(params, tier, [700.0, 1000.0], n_drops=6, n_trials=50,
                          seed=11, mode=mode)
        assert [r.n_trials for r in res] == [300, 300]
        assert [round(r.op_estimate * r.n_trials) for r in res] == counts, (mode, tier)
    res = estimate_op(NetworkParams.from_expected_fap_count(100), "femto", [700.0, 1000.0],
                      n_drops=6, n_trials=50, seed=11, mode="regulated")
    assert [round(r.op_estimate * r.n_trials) for r in res] == _PINNED_THINNED_FEMTO
    for nf, (ase_f, ase_m, outages) in _PINNED_ASE.items():
        res = estimate_ase(NetworkParams.from_expected_fap_count(nf), n_drops=4,
                           n_trials=20, seed=11)
        assert res.n_trials == 80
        assert round(res.op_estimate * res.n_trials) == outages
        assert res.ase_f == pytest.approx(ase_f, rel=1e-12)
        assert res.ase_m == pytest.approx(ase_m, rel=1e-12)


def _fading_draws(monkeypatch, estimate):
    """Shapes of the (trial, FAP) fading draws that ``estimate()`` makes,
    and the ``skip`` of each kernel call."""
    draws, skips = [], []
    hq, kernel = montecarlo._hq, _kernels.outage_count

    def drawing(rng, link, out, shadow):
        if out.ndim == 2:
            draws.append(out.shape)
        return hq(rng, link, out, shadow)

    def counting(*args):
        skips.append(args[13])
        return kernel(*args)

    monkeypatch.setattr(montecarlo, "_hq", drawing)
    monkeypatch.setattr(_kernels, "outage_count", counting)
    estimate()
    return draws, skips


def _kernel_calls(monkeypatch):
    """The arguments of every kernel call from now on, by parameter name."""
    calls, kernel = [], _kernels.outage_count

    def recording(*args):
        calls.append(inspect.signature(kernel).bind(*args).arguments)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "outage_count", recording)
    return calls


def test_an_ase_drop_draws_its_fading_twice(monkeypatch, params30):
    # Drop 0 of seed 0 holds 30 in-cell FAPs, so 24 are tagged.  Their edge
    # UEs share one draw over the indoor link; the uniform MUEs draw their own.
    draws, skips = _fading_draws(monkeypatch, lambda: estimate_ase(
        params30, n_drops=1, n_trials=20, seed=0))
    assert len([s for s in skips if s >= 0]) == 24 and skips[-1] == -1
    assert len(draws) == 2
    assert draws[0] == draws[1] and draws[0][0] == 20


def test_an_ase_batch_keeps_each_victim_with_its_own_femtocell(monkeypatch, params30):
    # One regulated drop: FAP 0 transmits in RB 7 alone, its neighbour FAP 1
    # in RBs 20-59, FAP 2 in no RB (tagged, but it has no victims), FAP 3 in
    # every other RB; FAP 4 lies outside the cell.  Every victim of the one
    # batch must lie r_f from the FAP whose column its kernel call skips, in
    # an RB that FAP transmits in.
    n_rb = params30.n_rb
    pos = np.array([[300.0, 0.0], [340.0, 0.0], [-500.0, 200.0], [0.0, -800.0],
                    [2500.0, 0.0]])
    masks = np.zeros((n_rb, 5), bool).T   # RB-major, as a regulated drop's
    masks[0, 7] = True
    masks[1, 20:60] = True
    masks[3, 1::2] = True
    masks[4] = True
    drop = FemtoDrop(pos, dbm_to_mw(np.array([-8.0, -9.0, -10.0, -11.0, -12.0])), masks)
    monkeypatch.setattr(montecarlo, "drop_faps", lambda ctx, rng, regulation: drop)
    calls = _kernel_calls(monkeypatch)
    estimate_ase(params30, n_drops=1, n_trials=50, seed=3)
    tags = [c for c in calls if c["skip"] >= 0]
    assert sorted(c["skip"] for c in tags) == [0, 1, 3]
    for c in tags:
        own = c["skip"]
        assert c["masks"] is masks and c["ux"].size == 50
        np.testing.assert_allclose(np.hypot(c["ux"] - pos[own, 0], c["uy"] - pos[own, 1]),
                                   params30.r_f, rtol=1e-9)
        assert masks[own, c["rb"]].all()


@pytest.mark.parametrize("tier", ["femto", "macro"])
def test_an_op_drop_draws_its_fading_once(monkeypatch, params30, tier):
    # one draw per drop serves both points: one kernel call per (drop, point)
    draws, skips = _fading_draws(monkeypatch, lambda: estimate_op(
        params30, tier, [500.0, 800.0], n_drops=3, n_trials=20, seed=0))
    assert len(draws) == 3 and skips == [-1] * 6
    assert all(n_trials == 20 for n_trials, _ in draws)


@pytest.mark.parametrize("tier", ["femto", "macro"])
def test_an_op_drop_hands_every_point_its_one_draw(monkeypatch, params30, tier):
    # serial drops, so a drop's kernel calls come together, in point order
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    calls = _kernel_calls(monkeypatch)
    grid = [500.0, 800.0, 1000.0]
    estimate_op(params30, tier, grid, n_drops=3, n_trials=20, seed=0)
    assert len(calls) == 9
    for k in range(3):
        drop_calls = calls[3 * k:3 * k + 3]
        assert all(c["hq"] is drop_calls[0]["hq"] for c in drop_calls)
        for d, c in zip(grid, drop_calls):
            np.testing.assert_allclose(np.hypot(c["ux"], c["uy"]), d, rtol=1e-12)


_ESTIMATES = """
import femtoshare as fs

params = fs.NetworkParams.from_expected_fap_count(30)
out = {}
for mode in ("validation", "regulated"):
    for tier in ("femto", "macro"):
        out[mode, tier] = fs.estimate_op(params, tier, [700.0, 1000.0], n_drops=6,
                                         n_trials=50, seed=11, mode=mode)
out["ase"] = fs.estimate_ase(params, n_drops=8, n_trials=20, seed=11)
"""

_PINNED = """
import os
os.sched_setaffinity(0, {%d})
assert len(os.sched_getaffinity(0)) == 1
""" + _ESTIMATES

_THREAD_COUNTS = """
import threading
import femtoshare as fs

params = fs.NetworkParams.from_expected_fap_count(30)
out = [threading.active_count()]
fs.estimate_op(params, "macro", [800.0], n_drops=4, n_trials=20, seed=1)
out.append(threading.active_count())
fs.estimate_ase(params, n_drops=3, n_trials=20, seed=1)
out.append(threading.active_count())
"""


def _run_python(script):
    """Run ``script`` in a fresh interpreter and return its ``out``."""
    env = dict(os.environ)
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script += "\nimport pickle, sys\nsys.stdout.write(pickle.dumps(out).hex())\n"
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return pickle.loads(bytes.fromhex(done.stdout))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity control and at least two CPUs")
def test_results_do_not_depend_on_cpu_count(monkeypatch):
    # In process the drops run on more threads than there are CPUs, with a
    # short switch interval; pinned to one CPU, a subprocess runs them
    # serially.  The estimates must agree bit for bit.
    threads = set()
    original = montecarlo.drop_faps

    def recording_drop_faps(*args, **kwargs):
        threads.add(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "drop_faps", recording_drop_faps)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
    scope = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        exec(_ESTIMATES, scope)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 2   # the drops did run on a pool
    cpu = min(os.sched_getaffinity(0))
    assert _run_python(_PINNED % cpu) == scope["out"]


def test_no_drop_thread_outlives_an_estimate():
    # a fresh interpreter, so that no thread left by an earlier call hides
    # one left by this one
    counts = _run_python(_THREAD_COUNTS)
    assert counts == [counts[0]] * 3


def _track_workspaces(monkeypatch):
    """Every workspace montecarlo allocates from now on, and those alive."""
    made, alive = [], weakref.WeakSet()

    class Tracked(montecarlo._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(threading.get_ident())
            alive.add(self)

    monkeypatch.setattr(montecarlo, "_Workspace", Tracked)
    return made, alive


def test_running_drops_never_share_a_workspace(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    made, alive = _track_workspaces(monkeypatch)
    lock = threading.Lock()
    holders = {}    # id of a workspace -> the drop running on it
    clashes, overlap = [], []

    def drop(k, ws):
        with lock:
            if id(ws) in holders:
                clashes.append((holders[id(ws)], k))
            holders[id(ws)] = k
            overlap.append(len(holders))
        time.sleep(0.0005)
        with lock:
            del holders[id(ws)]
        return k

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert montecarlo._map_drops(drop, 400, 10, 50.0) == list(range(400))
    finally:
        sys.setswitchinterval(interval)
    assert not clashes
    assert max(overlap) > 1   # the drops did run at the same time
    # one workspace per pool thread, all made by the calling thread
    assert made == [threading.get_ident()] * 4
    gc.collect()
    assert not alive


def test_a_workspace_grows_for_a_drop_with_more_faps():
    ws = montecarlo._Workspace(10, 4.0)
    small = ws.arrays(10, 5)
    large = ws.arrays(10, 400)
    assert [a.shape for a in large] == [(10, 400)] * 2
    assert all(a.flags.c_contiguous and a.dtype == np.float64 for a in large)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(large, 2))
    assert not np.shares_memory(small[0], large[0])
    # the larger arrays are kept for the drops that follow
    assert np.shares_memory(ws.arrays(10, 300)[0], large[0])


def test_a_failing_drop_cancels_the_drops_not_yet_started(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    made, alive = _track_workspaces(monkeypatch)
    started = []

    def drop(k, ws):
        started.append(k)
        if k == 0:
            raise ValueError("drop 0 failed")
        time.sleep(0.005)
        return k

    before = threading.active_count()
    with pytest.raises(ValueError, match="drop 0 failed"):
        montecarlo._map_drops(drop, 4000, 1, 1.0)
    # the four threads had started a few drops each, not the 4000 queued
    assert len(started) < 100
    assert threading.active_count() == before
    # and the four workspaces went with them
    assert len(made) == 4
    gc.collect()
    assert not alive


_FAULTS = """
import math, resource
import femtoshare as fs
from femtoshare import montecarlo

montecarlo._usable_cpus = lambda: 2
params = fs.NetworkParams.from_expected_fap_count(100)
n_drops, n_trials = 40, 80


def minor_faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fs.estimate_op(params, "macro", [800.0], n_drops=n_drops, n_trials=n_trials, seed=1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


minor_faults()
region = montecarlo.DROP_REGION_FACTOR * params.r_m
out = (minor_faults(), n_drops * n_trials * params.lambda_f * math.pi * region**2)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts of getrusage are Linux's")
def test_drops_reuse_their_memory():
    # Two threads, each drop drawing 80 x about 900 (trial, FAP) pairs.
    # Arrays allocated afresh for every drop fault in their pages every time
    # (3 to 7 faults per 1000 pairs); reused workspaces fault in once.
    faults, pairs = _run_python(_FAULTS)
    assert faults < pairs / 1000, (faults, pairs)


@pytest.mark.parametrize("n_trials, width", [(80, 64), (1000, 16)])
def test_pool_width_is_capped_by_the_drop_working_set(monkeypatch, n_trials, width):
    # 64 usable CPUs, but the pool is only asked for its width: two real
    # threads run the drops, and every drop is an empty field
    widths = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers=2, **kwargs)

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "drop_faps", lambda *a, **k: _EMPTY)
    params = NetworkParams.from_expected_fap_count(100)
    estimate_op(params, "macro", [500.0], n_drops=64, n_trials=n_trials, seed=1)
    # about 900 expected FAPs in the drop region: a workspace of two arrays
    # for 1000 trials and 1020 FAPs (four standard deviations over) holds
    # 16.3 MB, so 16 fit in 256 MiB
    assert widths == [width]
