import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import femtoshare
from femtoshare import regulation
from femtoshare.analysis import (
    BoundContext,
    _femto_bound,
    femto_outage_lower_bound,
    macro_outage_lower_bound,
)
from femtoshare.model import DB_TO_LN, NetworkParams, dbm_to_mw
from femtoshare.regulation import (
    InfeasibleError,
    RegulationTable,
    decide,
    min_deployment_distance,
    min_serving_power_dbm,
    power_ceiling_dbm,
    power_floor_approx_dbm,
    power_floor_exact_dbm,
    rb_access_probability,
)

from conftest import macro_bound_at, with_intensity


def _femto_bound_at(ctx, d, p_dbm):
    """Femto bound's (macro-only, composite, total) terms for a tagged
    femtocell serving at ``p_dbm``."""
    return [float(x) for x in _femto_bound(ctx, d, dbm_to_mw(p_dbm))]


class TestMinServingPower:
    def test_round_trip_defining_equation(self, ctx30):
        p_min = min_serving_power_dbm(ctx30)
        op = _femto_bound_at(ctx30, ctx30.params.r_m, p_min)[0]
        assert op == pytest.approx(ctx30.params.eps_f, abs=1e-9)

    def test_relaxed_constraint_lowers_power(self, params30):
        loose = BoundContext.from_params(dataclasses.replace(params30, eps_f=0.9))
        tight = BoundContext.from_params(dataclasses.replace(params30, eps_f=0.1))
        assert min_serving_power_dbm(loose) < min_serving_power_dbm(tight) - 20.0

    def test_below_subcarrier_cap(self, ctx30):
        p_min = min_serving_power_dbm(ctx30)
        assert math.isfinite(p_min)
        assert p_min < ctx30.params.p_f_max_subcarrier_dbm


class TestMinDeploymentDistance:
    def test_reference_scenario_value(self, ctx30):
        assert min_deployment_distance(ctx30) == pytest.approx(384.0, abs=10.0)

    def test_higher_wall_loss_moves_closer(self, params30):
        d10 = min_deployment_distance(BoundContext.from_params(params30))
        d15 = min_deployment_distance(
            BoundContext.from_params(dataclasses.replace(params30, xi_db=15.0)))
        assert d15 < d10

    def test_cap_scaling_closed_form(self, params30):
        base = min_deployment_distance(BoundContext.from_params(params30))
        up10 = min_deployment_distance(BoundContext.from_params(
            dataclasses.replace(params30, p_f_max_total_dbm=params30.p_f_max_total_dbm + 10.0)))
        assert up10 / base == pytest.approx(
            10.0 ** (-10.0 / (10.0 * params30.alpha_fm)), rel=1e-9)


class TestPowerFloors:
    def test_approx_at_edge_equals_min_power(self, ctx30):
        assert power_floor_approx_dbm(ctx30, ctx30.params.r_m) == pytest.approx(
            min_serving_power_dbm(ctx30), abs=1e-9)

    def test_approx_at_min_distance_equals_cap(self, ctx30):
        d_min = min_deployment_distance(ctx30)
        assert power_floor_approx_dbm(ctx30, d_min) == pytest.approx(
            ctx30.params.p_f_max_subcarrier_dbm, abs=1e-6)

    def test_floors_non_increasing(self, ctx30):
        d_min = min_deployment_distance(ctx30)
        grid = np.linspace(d_min * 1.02, ctx30.params.r_m, 9)
        approx = [power_floor_approx_dbm(ctx30, float(d)) for d in grid]
        exact = [power_floor_exact_dbm(ctx30, float(d)) for d in grid]
        assert np.all(np.diff(approx) < 0)
        assert np.all(np.diff(exact) < 0)

    def test_exact_floor_round_trip_and_gap(self, ctx30):
        d_min = min_deployment_distance(ctx30)
        for d in np.linspace(d_min * 1.02, ctx30.params.r_m, 7):
            exact = power_floor_exact_dbm(ctx30, float(d))
            approx = power_floor_approx_dbm(ctx30, float(d))
            assert exact >= approx - 1e-12
            assert abs(exact - approx) <= 0.5     # near-overlap of the two floors
            op = _femto_bound_at(ctx30, float(d), exact)[2]
            assert op == pytest.approx(ctx30.params.eps_f, abs=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_approx_floor_rejects_a_non_finite_distance(self, ctx30, bad):
        with pytest.raises(ValueError, match="distance must be finite and positive"):
            power_floor_approx_dbm(ctx30, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("solve", [power_floor_exact_dbm, power_ceiling_dbm, decide])
    def test_solvers_reject_a_non_finite_distance(self, ctx30, solve, bad):
        # matched on the message: InfeasibleError is a ValueError too
        with pytest.raises(ValueError, match="distance must be finite and positive"):
            solve(ctx30, bad)

    def test_approx_floor_is_elementwise(self, ctx30):
        grid = np.linspace(min_deployment_distance(ctx30), ctx30.params.r_m, 7)
        floors = power_floor_approx_dbm(ctx30, grid)
        assert floors.shape == grid.shape
        for d, floor in zip(grid, floors):
            assert floor == pytest.approx(power_floor_approx_dbm(ctx30, float(d)), rel=1e-15)
        with pytest.raises(ValueError, match="distance must be finite and positive"):
            power_floor_approx_dbm(ctx30, np.array([500.0, math.nan]))

    def test_exact_floor_infeasible_too_close(self, ctx30):
        with pytest.raises(InfeasibleError):
            power_floor_exact_dbm(ctx30, 300.0)

    def test_nan_bound_raises_naming_the_distance(self, ctx30, monkeypatch):
        # a NaN femto bound is neither feasible nor infeasible, not even at the cap
        bound = regulation._femto_bound

        def nan_total(*args):
            p_macro, p_comp, _ = bound(*args)
            return p_macro, p_comp, np.full(np.shape(p_comp), np.nan)

        monkeypatch.setattr(regulation, "_femto_bound", nan_total)
        for solve in (power_floor_exact_dbm, decide):
            with pytest.raises(ValueError, match="NaN at d=600 m"):
                solve(ctx30, 600.0)


class TestBracketedRoot:
    """The lockstep root solver on closed-form functions."""

    @staticmethod
    def _solve(f, lo, hi):
        lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
        idx = np.arange(lo.size)
        return regulation._bracketed_root(f, lo, hi, f(lo, idx), f(hi, idx), lo)

    def test_cube_roots_over_mixed_brackets(self):
        # brackets from 1e-3 to 1e4 wide around roots spread over 1e-1..1e3
        roots = np.geomspace(0.1, 1000.0, 25)
        lo = roots - np.geomspace(1e-3, 10.0, 25)
        hi = roots + np.geomspace(1e4, 1e-3, 25)
        pos, neg = self._solve(lambda x, i: roots[i] ** 3 - x ** 3, lo, hi)
        tol = regulation._XTOL_DB + regulation._RTOL * roots
        assert np.all(roots ** 3 - pos ** 3 >= 0.0) and np.all(roots ** 3 - neg ** 3 < 0.0)
        assert np.all(np.abs(pos - neg) < tol)
        assert np.all(np.abs(neg - roots) < tol)

    def test_few_evaluations_per_element(self):
        # bisection halves [lo, hi] 10 dB wide to 1e-9 dB in about 35 steps
        roots = np.linspace(-20.0, 10.0, 31)
        seen = np.zeros(roots.size, dtype=int)

        def f(x, i):
            np.add.at(seen, i, 1)
            return np.tanh(0.3 * (roots[i] - x)) + 0.1 * (roots[i] - x)

        pos, neg = self._solve(f, roots - 3.0, roots + 7.0)
        assert np.all(np.abs(neg - roots) < 2e-9)
        assert (seen - 2).max() <= 12      # less the two bracket ends

    def test_zero_counts_as_nonnegative(self):
        # f is exactly 0 over [1, 2]: the root is the plateau's far end
        def f(x, i):
            return np.where(x < 1.0, 1.0 - x, np.where(x <= 2.0, 0.0, 2.0 - x))

        pos, neg = self._solve(f, np.zeros(3), np.array([3.0, 5.0, 9.0]))
        assert np.all(f(pos, None) == 0.0) and np.all(f(neg, None) < 0.0)
        assert np.all((pos <= 2.0) & (neg > 2.0) & (neg - pos < 1e-8))

    def test_batch_matches_scalar_bit_for_bit(self):
        roots = np.linspace(0.3, 7.0, 40)

        def f(x, i):
            return np.exp(-x) - np.exp(-roots[i])

        lo, hi = roots - np.linspace(0.1, 0.3, 40), roots + np.linspace(2.0, 0.2, 40)
        pos, neg = self._solve(f, lo, hi)
        for k in range(roots.size):
            one = self._solve(lambda x, i: f(x, i + k), lo[k:k + 1], hi[k:k + 1])
            assert (one[0][0], one[1][0]) == (pos[k], neg[k])

    def test_starting_end_on_the_far_side(self):
        # f < 0 already at lo; f >= 0 still at hi; a root at 5
        def f(x, i):
            return np.select([i == 0, i == 1], [-1.0, 1.0], 5.0 - x)

        pos, neg = self._solve(f, [0.0, 0.0, 0.0], [1.0, 1.0, 10.0])
        assert list(pos[:2]) == [0.0, 1.0] and list(neg[:2]) == [0.0, 1.0]
        assert neg[2] == pytest.approx(5.0, abs=1e-8)

    def test_nan_raises_naming_the_distance(self):
        def f(x, i):
            return np.where(x > 0.5, np.nan, 1.0 - x)

        with pytest.raises(ValueError, match=r"NaN at d=0 m"):
            self._solve(f, [0.0], [2.0])


class TestBoundEvaluations:
    """Femto-bound calls and distance-points of the regulation solves."""

    @pytest.fixture
    def counted(self, monkeypatch):
        count = {"calls": 0, "points": 0}
        bound = regulation._femto_bound

        def counting(ctx, d, p_mw):
            count["calls"] += 1
            count["points"] += np.size(d)
            return bound(ctx, d, p_mw)

        monkeypatch.setattr(regulation, "_femto_bound", counting)
        return count

    @pytest.mark.parametrize("d", [420.0, 600.0, 1000.0])
    def test_scalar_floor(self, ctx30, counted, d):
        power_floor_exact_dbm(ctx30, d)
        assert counted["calls"] <= 12    # 32-35 by bisection

    def test_table_build(self, counted):
        ctx60 = BoundContext.from_params(
            NetworkParams.from_expected_fap_count(60.0, xi_db=10.0))
        RegulationTable.build(ctx60, d_max=3000.0)
        # bisection with a 32-point block onset search evaluated 12,308
        assert counted["points"] <= 12308 / 3


class TestSolversAgainstBrent:
    """The array root solver against a scalar Brent solve on the public bounds."""

    @pytest.mark.parametrize("d", [420.0, 600.0, 850.0, 1000.0])
    def test_exact_floor(self, ctx30, d):
        p = ctx30.params

        def excess(p_dbm):
            return _femto_bound_at(ctx30, d, p_dbm)[2] - p.eps_f

        ref = brentq(excess, power_floor_approx_dbm(ctx30, d), p.p_f_max_subcarrier_dbm,
                     xtol=1e-12)
        assert power_floor_exact_dbm(ctx30, d) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("ctx_name", ["ctx30", "ctx100"])
    @pytest.mark.parametrize("d", [420.0, 600.0, 850.0, 1000.0])
    def test_ceiling(self, request, ctx_name, d):
        ctx = request.getfixturevalue(ctx_name)
        p = ctx.params
        min_dbm = min_serving_power_dbm(ctx)

        def excess(max_dbm):
            return macro_bound_at(ctx, d, *sorted((min_dbm, max_dbm))) - p.eps_m

        lo = min_dbm - 9.0 * p.alpha_mf / DB_TO_LN + 1e-6
        ref = brentq(excess, lo, p.p_f_max_subcarrier_dbm + 60.0, xtol=1e-12)
        assert power_ceiling_dbm(ctx, d) == pytest.approx(ref, abs=1e-8)

    def test_ceiling_over_drawn_scenarios(self, params30):
        # scenarios drawn from the scenario sweep's ranges; Brent solves on
        # the branch right of the moment's vertex, where the bound rises
        # with the ceiling, and no sign change there means infeasible
        rng = np.random.default_rng(24)
        solved = infeasible = scenarios = 0
        while scenarios < 24:
            draw = dict(
                lambda_f=rng.uniform(1.0, 500.0) / (math.pi * params30.r_m**2),
                xi_db=rng.uniform(0.0, 20.0), p_f_max_total_dbm=rng.uniform(10.0, 30.0),
                eps_f=rng.uniform(0.01, 0.3), eps_m=rng.uniform(0.01, 0.3),
                gamma_f_db=rng.uniform(0.0, 15.0), gamma_m_db=rng.uniform(0.0, 15.0),
                sigma_ff_db=rng.uniform(4.0, 12.0), sigma_mf_db=rng.uniform(4.0, 12.0),
                alpha_ff=rng.uniform(3.0, 4.5), alpha_mf=rng.uniform(3.0, 4.5))
            try:
                ctx = BoundContext.from_params(dataclasses.replace(params30, **draw))
            except ValueError:   # the cap lies below the edge minimum power
                continue
            scenarios += 1
            p = ctx.params
            min_dbm = min_serving_power_dbm(ctx)
            vertex = min_dbm - 9.0 * p.alpha_mf / DB_TO_LN
            for d in (100.0, 400.0, 1000.0, 3000.0):
                def excess(max_dbm):
                    return macro_bound_at(ctx, d, *sorted((min_dbm, max_dbm))) - p.eps_m

                lo, hi = vertex + 1e-6, min_dbm + 300.0
                if excess(lo) * excess(hi) > 0.0:
                    infeasible += 1
                    with pytest.raises(InfeasibleError):
                        power_ceiling_dbm(ctx, d)
                    continue
                solved += 1
                ref = brentq(excess, lo, hi, xtol=1e-12)
                assert power_ceiling_dbm(ctx, d) == pytest.approx(ref, abs=1e-8)
        assert solved and infeasible


class TestPowerCeiling:
    def test_defining_equation_round_trip(self, ctx30):
        p = ctx30.params
        for d in (500.0, 1000.0):
            ub = power_ceiling_dbm(ctx30, d)
            lo, hi = sorted((min_serving_power_dbm(ctx30), ub))
            op = macro_bound_at(ctx30, d, lo, hi)
            assert op == pytest.approx(p.eps_m, abs=1e-9)

    def test_non_increasing_in_distance_and_intensity(self, ctx30, params30):
        grid = np.linspace(400.0, 1000.0, 7)
        ubs = [power_ceiling_dbm(ctx30, float(d)) for d in grid]
        assert np.all(np.diff(ubs) < 0)
        assert ubs[-1] == pytest.approx(
            min(ubs), rel=0), "edge ceiling is the binding one"
        denser = BoundContext.from_params(dataclasses.replace(params30, lambda_f=2 * params30.lambda_f))
        assert power_ceiling_dbm(denser, 800.0) < power_ceiling_dbm(ctx30, 800.0)

    def test_window_relations_match_density(self, ctx30, ctx100):
        # sparse field: ceiling clears the exact floor everywhere; dense
        # field: it falls below the floor at every distance past the
        # deployment minimum
        grid = np.linspace(400.0, 1000.0, 7)
        for d in grid:
            assert power_ceiling_dbm(ctx30, float(d)) >= power_floor_exact_dbm(ctx30, float(d))
            assert power_ceiling_dbm(ctx100, float(d)) < power_floor_exact_dbm(ctx100, float(d))

    def test_ceiling_may_fall_below_min_power(self, ctx100):
        # the root sits below the fixed minimum for dense fields; only the
        # squared spread enters, so the bound extends smoothly there
        ub = power_ceiling_dbm(ctx100, ctx100.params.r_m)
        assert ub < min_serving_power_dbm(ctx100)

    def test_nan_bound_raises_naming_the_distance(self, ctx30, monkeypatch):
        # a NaN macro bound is not an unreachable constraint; the void level
        # it is NaN at serves every distance, so the error names none
        bound = regulation._macro_void_bound
        monkeypatch.setattr(regulation, "_macro_void_bound",
                            lambda *args: np.full(np.shape(bound(*args)), np.nan))
        for solve in (power_ceiling_dbm, decide):
            with pytest.raises(ValueError, match="outage bound is NaN") as raised:
                solve(ctx30, 600.0)
            assert not isinstance(raised.value, InfeasibleError)

    def test_infeasible_when_branch_minimum_exceeds_target(self, params30):
        dense = BoundContext.from_params(
            dataclasses.replace(params30, lambda_f=params30.lambda_f * 1e4))
        # only a void field meets a zero target: no ceiling at any distance
        zero_target = BoundContext.from_params(dataclasses.replace(params30, eps_m=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no log of the zero target
            for ctx in (dense, zero_target):
                with pytest.raises(InfeasibleError):
                    power_ceiling_dbm(ctx, params30.r_m)
            with pytest.raises(InfeasibleError, match="at d=50.0 m"):
                power_ceiling_dbm(zero_target, np.array([50.0, 400.0]))

    def test_closed_form_at_a_solved_void_level_is_the_ceiling(self):
        # the onset search's window top is the ceiling, bit for bit
        ctx = BoundContext.from_params(NetworkParams.from_expected_fap_count(30.0, xi_db=10.0))
        d = np.linspace(min_deployment_distance(ctx), 3.0 * ctx.params.r_m, 3001)
        np.testing.assert_array_equal(
            regulation._ceiling_dbm(ctx, regulation._void_level_ln(ctx), d),
            power_ceiling_dbm(ctx, d))

    def test_ceiling_is_elementwise(self, ctx30, ctx100):
        grid = np.geomspace(50.0, 1000.0, 9)
        for ctx in (ctx30, ctx100):
            ceilings = power_ceiling_dbm(ctx, grid)
            assert ceilings.shape == grid.shape
            scalars = [power_ceiling_dbm(ctx, float(d)) for d in grid]
            assert all(type(c) is float for c in scalars)
            assert ceilings.tolist() == scalars
        assert power_ceiling_dbm(with_intensity(ctx30, 0.0), grid).tolist() == [math.inf] * 9
        # the first infeasible distance is the one named
        d_far = np.array([600.0, 7000.0, 8000.0])
        with pytest.raises(InfeasibleError, match="at d=7000.0 m"):
            power_ceiling_dbm(ctx100, d_far)
        with pytest.raises(ValueError, match="distance must be finite and positive"):
            power_ceiling_dbm(ctx30, np.array([500.0, math.nan]))


class TestAccessProbability:
    def test_sparse_field_never_thins(self, ctx30):
        assert rb_access_probability(ctx30) == 1.0

    def test_dense_field_reference_value(self, ctx100):
        rho = rb_access_probability(ctx100)
        assert rho == pytest.approx(0.15, abs=0.03)

    def test_thinned_density_round_trip(self, ctx100):
        p = ctx100.params
        rho = rb_access_probability(ctx100)
        cap = p.p_f_max_subcarrier_dbm
        op = macro_bound_at(with_intensity(ctx100, rho * p.lambda_f), p.r_m,
                             min_serving_power_dbm(ctx100), cap)
        assert op == pytest.approx(p.eps_m, abs=1e-6)

    def test_matches_defining_property_formula(self, ctx100):
        # the closed-form thinning factor equals the ratio implied by the
        # lognormal power-moment factors of ceiling-vs-cap ranges
        p = ctx100.params
        rho = rb_access_probability(ctx100)
        u = power_ceiling_dbm(ctx100, p.r_m)
        lo = min_serving_power_dbm(ctx100)
        cap = p.p_f_max_subcarrier_dbm
        a = p.alpha_mf
        from femtoshare.model import DB_TO_LN as z

        def s(max_dbm):
            mu = 0.5 * (lo + max_dbm)
            var = (max_dbm - lo) ** 2 / 36.0
            return 2 * z * mu / a + 2 * z**2 * var / a**2

        assert rho == pytest.approx(math.exp(s(u) - s(cap)), rel=1e-12)


class TestDecide:
    def test_too_close_is_excluded(self, ctx30):
        dec = decide(ctx30, 300.0)
        assert dec.transmit_prob == 0.0
        assert np.isnan([dec.p_lb_dbm, dec.p_ub_dbm, dec.tx_power_dbm]).all()

    def test_sparse_field_opens_window(self, ctx30):
        dec = decide(ctx30, 600.0)
        assert dec.transmit_prob == 1.0
        assert dec.p_lb_dbm <= dec.p_ub_dbm
        # floor plus the fixed margin, inside the window
        from femtoshare.regulation import WINDOW_FLOOR_MARGIN_DB
        assert float(dec.tx_power_dbm) == pytest.approx(
            min(float(dec.p_lb_dbm) + WINDOW_FLOOR_MARGIN_DB, float(dec.p_ub_dbm)), abs=1e-12)

    def test_dense_field_thins(self, ctx100):
        dec = decide(ctx100, 600.0)
        assert dec.p_lb_dbm > dec.p_ub_dbm
        assert float(dec.transmit_prob) == pytest.approx(0.15, abs=0.03)
        assert dec.tx_power_dbm == dec.p_lb_dbm

    def test_window_powers_respect_both_bounds(self, ctx30):
        p = ctx30.params
        d = 700.0
        dec = decide(ctx30, d)
        lb, ub = float(dec.p_lb_dbm), float(dec.p_ub_dbm)
        assert lb <= ub
        # the floor, the midpoint and the top of the window
        for tx in (lb, 0.5 * (lb + ub), ub):
            femto = _femto_bound_at(ctx30, d, tx)[2]
            assert femto <= p.eps_f + 1e-9
            lo, hi = sorted((min_serving_power_dbm(ctx30), tx))
            macro = macro_bound_at(ctx30, d, lo, hi)
            assert macro <= p.eps_m + 1e-9

    def test_cap_clamp_just_above_min_distance(self, ctx30):
        d = min_deployment_distance(ctx30) * 1.0001
        dec = decide(ctx30, d)
        assert dec.transmit_prob > 0.0   # deployed
        assert dec.tx_power_dbm <= ctx30.params.p_f_max_subcarrier_dbm + 1e-12

    def test_closed_window_can_keep_every_rb(self, ctx30):
        # at N_F=30, xi=10 dB the window is closed at 1500 m, yet rho is 1:
        # thinning is read from the window, not from transmit_prob < 1
        dec = decide(ctx30, 1500.0)
        assert dec.p_lb_dbm > dec.p_ub_dbm
        assert dec.transmit_prob == 1.0
        assert dec.tx_power_dbm == dec.p_lb_dbm

    @pytest.mark.parametrize("nf, d", [
        (30.0, [300.0, 450.0, 600.0, 900.0, 1500.0]),
        (60.0, [300.0, 500.0, 656.0, 700.0, 1317.0, 3000.0]),
        (100.0, [200.0, 400.0, 600.0, 1000.0])])
    def test_array_is_the_per_distance_decisions(self, nf, d):
        # the first distance is excluded in each scenario
        ctx = BoundContext.from_params(NetworkParams.from_expected_fap_count(nf, xi_db=10.0))
        dec = decide(ctx, np.array(d).reshape(-1, 1))
        assert dec.transmit_prob[0, 0] == 0.0
        for name in ("p_lb_dbm", "p_ub_dbm", "transmit_prob", "tx_power_dbm"):
            got = getattr(dec, name)
            assert got.shape == (len(d), 1)
            one_by_one = [getattr(decide(ctx, di), name) for di in d]
            np.testing.assert_array_equal(got[:, 0], one_by_one)

    def test_bad_arguments(self, ctx30):
        with pytest.raises(ValueError):
            decide(ctx30, -5.0)


class TestRegulationTable:
    @pytest.fixture(scope="class")
    def ctx60(self):
        # the window closes part-way out: onset ~656 m, rho ~0.242
        return BoundContext.from_params(
            NetworkParams.from_expected_fap_count(60.0, xi_db=10.0))

    def test_matches_direct_decisions(self, ctx30, ctx100, ctx60):
        # at every grid node: window everywhere, thinned everywhere, and a
        # window that closes part-way out
        for ctx, d_max, modes in ((ctx30, None, {False}),
                                  (ctx100, None, {True}),
                                  (ctx60, 3000.0, {False, True})):
            table = RegulationTable.build(ctx, d_max=d_max)
            tx, prob, deployed = table.query(table.grid)
            assert deployed.all()
            seen = set()
            for i, d in enumerate(table.grid):
                dec = decide(ctx, float(d))
                thinned = bool(dec.p_lb_dbm > dec.p_ub_dbm)
                seen.add(thinned)
                assert table.tx_power_dbm[i] == pytest.approx(float(dec.tx_power_dbm), abs=1e-6)
                assert tx[i] == pytest.approx(float(dec.tx_power_dbm), abs=1e-6)
                assert thinned == (d >= table.d_thinned_onset)
                assert prob[i] == dec.transmit_prob
            assert seen == modes

    def test_onset_is_the_mode_switch(self, ctx60):
        assert RegulationTable.build(ctx60, d_max=3000.0).rho == pytest.approx(0.242, abs=1e-3)
        # fig7's scenarios whose window closes part-way out, and the onsets
        # a 32-point block search found to 1e-6 m
        for nf, xi, expected in ((30.0, 10.0, 1317.4059774070565),
                                 (60.0, 10.0, 656.0386414692383),
                                 (60.0, 15.0, 2028.0051753299942),
                                 (100.0, 15.0, 1250.2643971136463)):
            ctx = BoundContext.from_params(NetworkParams.from_expected_fap_count(nf, xi_db=xi))
            onset = RegulationTable.build(ctx, d_max=3000.0).d_thinned_onset
            assert onset == pytest.approx(expected, abs=2e-6)
            dec = decide(ctx, [onset, onset * (1.0 - 1e-6)])
            assert dec.p_lb_dbm[0] > dec.p_ub_dbm[0]
            assert dec.p_lb_dbm[1] <= dec.p_ub_dbm[1]

    def test_an_onset_search_solves_the_void_level_once(self, monkeypatch):
        # decide's ceiling and rb_access_probability solve it once each, the
        # onset search once more; one solve per search step made 7 here
        ctx = BoundContext.from_params(NetworkParams.from_expected_fap_count(30.0, xi_db=10.0))
        solves, solve = [], regulation._void_level_ln
        monkeypatch.setattr(regulation, "_void_level_ln",
                            lambda c: solves.append(c) or solve(c))
        table = RegulationTable.build(ctx, d_max=3.0 * ctx.params.r_m)
        assert table.d_min_deploy < table.d_thinned_onset < math.inf
        assert len(solves) <= 3

    @pytest.mark.parametrize("xi", [10.0, 15.0])
    def test_an_interior_onset_is_the_first_thinned_distance(self, xi):
        # fig7's scenarios and N_F = 45: decide thins at the onset and keeps
        # the window open just inside the solve's tolerance of it
        interior = 0
        for nf in (10.0, 30.0, 45.0, 60.0, 100.0):
            ctx = BoundContext.from_params(NetworkParams.from_expected_fap_count(nf, xi_db=xi))
            table = RegulationTable.build(ctx, d_max=3000.0)
            onset = table.d_thinned_onset
            if math.isinf(onset) or onset == table.d_min_deploy:
                continue
            interior += 1
            dec = decide(ctx, [onset, onset - 2.0 * regulation._ONSET_XTOL_M])
            assert dec.p_lb_dbm[0] > dec.p_ub_dbm[0], (nf, xi)
            assert dec.p_lb_dbm[1] <= dec.p_ub_dbm[1], (nf, xi)
        assert interior >= 2

    def test_table_is_decide_on_its_grid(self, ctx30, ctx100, ctx60):
        for ctx, d_max in ((ctx30, None), (ctx100, None), (ctx60, 3000.0)):
            table = RegulationTable.build(ctx, d_max=d_max)
            np.testing.assert_array_equal(table.tx_power_dbm,
                                          decide(ctx, table.grid).tx_power_dbm)
            assert table.rho == rb_access_probability(ctx)

    def test_excluded_region(self, ctx100):
        table = RegulationTable.build(ctx100)
        tx, prob, deployed = table.query(np.array([100.0, 500.0]))
        assert not deployed[0] and deployed[1]
        assert prob[0] == 0.0 and math.isnan(tx[0])

    def test_onset_separates_modes(self, ctx30, ctx100):
        sparse = RegulationTable.build(ctx30)
        assert math.isinf(sparse.d_thinned_onset)
        dense = RegulationTable.build(ctx100)
        assert dense.d_thinned_onset == dense.d_min_deploy  # thinned everywhere
        assert dense.rho == pytest.approx(0.145, abs=0.01)

    def test_zero_intensity_is_an_open_window(self):
        # no femtocells interfere: no thinning anywhere, and the table's
        # powers are the decisions' (an open window topped by the cap)
        ctx = BoundContext.from_params(NetworkParams(lambda_f=0.0))
        assert rb_access_probability(ctx) == 1.0
        assert power_ceiling_dbm(ctx, 500.0) == math.inf
        table = RegulationTable.build(ctx, d_max=3000.0)
        assert math.isinf(table.d_thinned_onset)
        assert table.rho == 1.0
        d = table.grid[[0, 60, 130, -1]]
        tx, prob, deployed = table.query(d)
        assert deployed.all() and (prob == 1.0).all()
        for i, di in enumerate(d):
            dec = decide(ctx, float(di))
            assert dec.p_lb_dbm <= dec.p_ub_dbm
            assert tx[i] == pytest.approx(float(dec.tx_power_dbm), abs=1e-6)


_SCIPY_FREE = """
import math, sys
import femtoshare as fs

params = fs.NetworkParams.from_expected_fap_count(60.0)
ctx = fs.BoundContext.from_params(params)
table = fs.RegulationTable.build(ctx, d_max=3000.0)
assert table.d_min_deploy < table.d_thinned_onset < math.inf
dist = fs.LognormalDist(0.7, 1.3)
dist.cdf([0.5, 2.0])
dist.quantile([0.1, 0.9])
fs.estimate_op(params, "femto", [800.0], n_drops=2, n_trials=20, seed=1)
assert fs.estimate_ase(params, n_drops=2, n_trials=20, seed=1).ase_f > 0.0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numba")))
"""


def test_package_runs_without_scipy():
    # a fresh interpreter: this test module imports scipy as an oracle; the
    # bounds, the regulation and both estimators import neither it nor numba
    env = dict(os.environ)
    src = str(Path(femtoshare.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    assert done.stdout.strip() == "[]"


def test_ue_gain_leaves_bounds_and_regulation_unchanged():
    # the UE antenna gain scales signal and interference alike, so no
    # bound, distance, power or table may depend on it; the table's powers
    # are floor roots, each within the solver's tolerance of the true one
    d = np.linspace(400.0, 1000.0, 7)

    def outputs(g_u_dbi):
        ctx = BoundContext.from_params(
            NetworkParams.from_expected_fap_count(100, g_u_dbi=g_u_dbi))
        closed = np.concatenate([
            femto_outage_lower_bound(ctx, d).p_total_lb, macro_outage_lower_bound(ctx, d),
            [min_deployment_distance(ctx), power_ceiling_dbm(ctx, 700.0)]])
        return closed, RegulationTable.build(ctx).tx_power_dbm

    ref_closed, ref_table = outputs(0.0)
    for g_u_dbi in (-3.0, 5.0):
        closed, table = outputs(g_u_dbi)
        np.testing.assert_allclose(closed, ref_closed, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(table, ref_table, rtol=0.0, atol=regulation._XTOL_DB)
