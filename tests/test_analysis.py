import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from femtoshare import analysis
from femtoshare.analysis import (
    _EXP_CAP,
    BoundContext,
    _dominant_interferer_rate,
    _femto_bound,
    _femto_composite_term,
    _rx_ln_loc,
    femto_outage_lower_bound,
    macro_outage_lower_bound,
)
from femtoshare.model import DB_TO_LN, NetworkParams, dbm_to_mw, fap_power_distribution

from conftest import fue_rate, macro_bound_at, with_intensity


def _macro_only(ctx, d):
    """The femto bound's macro-interference-only term."""
    return femto_outage_lower_bound(ctx, d).p_macro_only


def _mue_rate(ctx, power=None):
    """Dominant-interferer coefficient for an outdoor macro UE, with
    interfering powers drawn from ``power`` (by default the context's)."""
    return _dominant_interferer_rate(ctx.links.fap_to_outdoor,
                                     ctx.fap_power if power is None else power,
                                     ctx.params.gamma_m)


def test_macro_only_edge_value_meets_constraint(ctx30):
    # serving at the cap >= the edge minimum power, so the edge outage sits
    # at or below the constraint
    assert _macro_only(ctx30, ctx30.params.r_m) <= ctx30.params.eps_f


def test_macro_only_vanishes_far_away(ctx30):
    assert _macro_only(ctx30, 1e7) < 1e-12


def test_macro_only_monotone(ctx30):
    d = np.linspace(200.0, 1500.0, 40)
    vals = _macro_only(ctx30, d)
    assert np.all(np.diff(vals) < 0)
    lower_power = dbm_to_mw(ctx30.p_f_serving_dbm - 3.0)
    assert _femto_bound(ctx30, 800.0, lower_power)[0] > _macro_only(ctx30, 800.0)


def test_macro_only_domain_error(ctx30):
    with pytest.raises(ValueError):
        _macro_only(ctx30, 0.0)


@pytest.mark.parametrize("d", [math.nan, [500.0, math.nan], math.inf, [400.0, math.inf]],
                         ids=["scalar", "array", "inf", "array-inf"])
@pytest.mark.parametrize("bound", [femto_outage_lower_bound, macro_outage_lower_bound])
def test_bounds_reject_a_nan_distance(ctx30, bound, d):
    with pytest.raises(ValueError, match="distance must be finite and positive"):
        bound(ctx30, d)


def test_context_rejects_a_cap_below_the_edge_minimum_power():
    # 5 dBm in all is -25.79 dBm per subcarrier, under the -24.41 dBm that
    # a cell-edge femtocell needs against macro interference alone
    with pytest.raises(ValueError, match="power cap, -25.79 dBm, lies below the "
                                         "cell-edge minimum power, -24.41 dBm"):
        BoundContext.from_params(NetworkParams(p_f_max_total_dbm=5.0))


class TestContextIsItsScenario:
    def test_replaced_scenario_rebuilds_every_derived_value(self, ctx30, params30):
        xi15 = dataclasses.replace(params30, xi_db=15.0)
        replaced = dataclasses.replace(ctx30, params=xi15)
        fresh = BoundContext.from_params(xi15)
        assert replaced.links == fresh.links
        assert replaced.fap_power == fresh.fap_power
        assert replaced.links != ctx30.links
        d = np.array([400.0, 700.0, 1000.0])
        assert np.array_equal(femto_outage_lower_bound(replaced, d).p_total_lb,
                              femto_outage_lower_bound(fresh, d).p_total_lb)
        assert np.array_equal(macro_outage_lower_bound(replaced, d),
                              macro_outage_lower_bound(fresh, d))

    def test_replaced_scenario_meets_the_cap_check(self, ctx30):
        with pytest.raises(ValueError, match="power cap, -25.79 dBm, lies below the "
                                             "cell-edge minimum power, -24.41 dBm"):
            dataclasses.replace(ctx30, params=dataclasses.replace(
                ctx30.params, p_f_max_total_dbm=5.0))

    @pytest.mark.parametrize("name", ["links", "fap_power", "p_f_serving_dbm", "laguerre",
                                      "hermite", "ratio_dist", "macro_b_tilde"])
    def test_derived_values_cannot_be_replaced(self, ctx30, name):
        with pytest.raises((TypeError, ValueError)):
            dataclasses.replace(ctx30, **{name: getattr(ctx30, name)})

    def test_equal_scenarios_give_equal_contexts(self, ctx30, ctx100, params30):
        twin = BoundContext.from_params(dataclasses.replace(params30))
        assert twin is not ctx30
        assert twin == ctx30
        assert hash(twin) == hash(ctx30)
        assert ctx100 != ctx30
        assert len({ctx30, twin, ctx100}) == 2


def test_macro_only_against_sampled_channels(ctx30):
    # sampling oracle: draw the Rayleigh-power and shadowing factors
    # separately on both links and compare the outage fraction
    d = 400.0
    p = ctx30.params
    links = ctx30.links
    rng = np.random.default_rng(321)
    n = 1_000_000
    sig = ctx30.p_serving_mw * links.serving_fap_to_indoor.gain \
        / (links.serving_fap_to_indoor.phi * p.r_f**p.alpha_f)
    sig = sig * rng.exponential(size=n) * rng.lognormal(0.0, DB_TO_LN * p.sigma_f_db, n)
    intf = ctx30.p_m_mw * links.macro_to_indoor.gain \
        / (links.macro_to_indoor.phi * d**p.alpha_fm)
    intf = intf * rng.exponential(size=n) * rng.lognormal(0.0, DB_TO_LN * p.sigma_fm_db, n)
    emp = float(np.mean(sig < p.gamma_f * intf))
    assert _macro_only(ctx30, d) == pytest.approx(emp, abs=0.01)


class TestFemtoLowerBound:
    def test_zero_intensity_collapses_to_macro_term(self, ctx30):
        bd = femto_outage_lower_bound(with_intensity(ctx30, 0.0), 700.0)
        assert bd.p_composite == 0.0
        assert bd.p_total_lb == bd.p_macro_only

    def test_breakdown_adds_up(self, ctx30):
        bd = femto_outage_lower_bound(ctx30, 600.0)
        assert bd.p_total_lb == pytest.approx(bd.p_macro_only + bd.p_composite, rel=1e-12)
        assert bd.p_composite > 0

    def test_stays_in_unit_interval_under_extremes(self, ctx30):
        # the composite term saturates at the mass of the no-macro-outage
        # branch, so even absurd intensities keep the sum a probability
        for lam in (1e-3, 1e-1, 1.0):
            for d in (10.0, 50.0, 385.0, 1000.0):
                bd = femto_outage_lower_bound(with_intensity(ctx30, lam), d)
                total = min(bd.p_macro_only + bd.p_composite, 1.0)
                assert bd.p_total_lb == pytest.approx(total, abs=1e-15)
                assert 0.0 <= bd.p_total_lb <= 1.0

    def test_monotone_in_distance_and_intensity(self, ctx30, ctx100):
        d = np.linspace(400.0, 1000.0, 13)
        total = femto_outage_lower_bound(ctx30, d).p_total_lb
        assert np.all(np.diff(total) < 0)
        t30 = femto_outage_lower_bound(ctx30, 800.0).p_total_lb
        t100 = femto_outage_lower_bound(ctx100, 800.0).p_total_lb
        assert t100 >= t30

    def test_quadrature_order_robustness(self, params30, monkeypatch):
        base = BoundContext.from_params(params30)
        monkeypatch.setattr(analysis, "_QUADRATURE_ORDER", 24)
        fine = BoundContext.from_params(params30)
        assert len(fine.laguerre[0]) == len(fine.hermite[0]) == 24
        for d in (400.0, 550.0, 700.0, 850.0, 1000.0):
            a = femto_outage_lower_bound(base, d).p_total_lb
            b = femto_outage_lower_bound(fine, d).p_total_lb
            assert a == pytest.approx(b, abs=1e-4)

    def test_bound_does_not_exceed_sampled_outage(self, ctx30, params30):
        # the simulator is the oracle for the bound direction
        from femtoshare.montecarlo import estimate_op

        d = 800.0
        res = estimate_op(params30, "femto", [d], n_drops=40, n_trials=500, seed=11)[0]
        bound = femto_outage_lower_bound(ctx30, d).p_total_lb
        assert bound <= res.op_estimate + 3.0 * res.std_err


class TestMacroLowerBound:
    def test_zero_intensity_is_exact_zero(self, ctx30):
        assert macro_outage_lower_bound(with_intensity(ctx30, 0.0), 500.0) < 1e-12

    def test_monotonicities(self, ctx30, params30):
        d = np.linspace(300.0, 1000.0, 15)
        vals = macro_outage_lower_bound(ctx30, d)
        assert np.all(np.diff(vals) > 0)
        denser = with_intensity(ctx30, 2 * params30.lambda_f)
        assert macro_outage_lower_bound(denser, 800.0) > macro_outage_lower_bound(ctx30, 800.0)
        hot = macro_bound_at(ctx30, 800.0, -20.0, -4.0)
        cold = macro_bound_at(ctx30, 800.0, -24.0, -8.0)
        assert hot > cold
        wide = macro_bound_at(ctx30, 800.0, -30.0, -4.0)     # same mean, larger spread
        narrow = macro_bound_at(ctx30, 800.0, -22.0, -12.0)
        assert wide > narrow

    def test_private_bound_takes_a_float_distance(self, ctx30):
        # as _femto_bound does; the public bound passes an array
        loc, scale = ctx30.fap_power.loc, ctx30.fap_power.scale
        got = analysis._macro_bound(ctx30, 800.0, loc, scale)
        assert got == macro_outage_lower_bound(ctx30, 800.0)

    def test_against_adaptive_integration(self, ctx30):
        # adaptive oracle on the signal-power integral behind the Hermite sum
        def oracle(ctx, d, lam):
            p = ctx.params
            kappa = _mue_rate(ctx)
            link = ctx.links.macro_to_outdoor
            mu_s = link.composite.loc + math.log(
                ctx.p_m_mw * link.gain / (link.phi * d**p.alpha_m))
            sc_s = link.composite.scale

            def f(z):
                expo = -(2.0 * math.sqrt(2.0) * sc_s * z + 2.0 * mu_s) / p.alpha_mf
                return math.exp(-kappa * lam * math.exp(expo)) \
                    * math.exp(-z * z) / math.sqrt(math.pi)

            val, err = sp_integrate.quad(f, -10.0, 10.0, epsabs=1e-15, epsrel=1e-13, limit=400)
            assert err < 1e-12
            return 1.0 - val

        lam = ctx30.params.lambda_f
        got = macro_outage_lower_bound(ctx30, 400.0)
        assert got == pytest.approx(oracle(ctx30, 400.0, lam), rel=1e-6)
        for d in (550.0, 700.0, 850.0, 1000.0):
            assert macro_outage_lower_bound(ctx30, d) == pytest.approx(
                oracle(ctx30, d, lam), rel=1e-5)


class TestDominantInterfererRates:
    def test_gamma_homogeneity(self, params30):
        # fixed interferer power statistics isolate the target's exponent
        power = fap_power_distribution(-24.0, -8.0)
        ctx = BoundContext.from_params(params30)
        doubled = BoundContext.from_params(dataclasses.replace(
            params30, gamma_f_db=params30.gamma_f_db + 10.0 * math.log10(2.0)))
        ratio = fue_rate(doubled, power) / fue_rate(ctx, power)
        assert ratio == pytest.approx(2.0 ** (2.0 / params30.alpha_ff), rel=1e-9)

    def test_fixed_power_closed_form(self, params30):
        # degenerate interferer power: the moment factor reduces to a plain
        # power of the constant, leaving the hand-computed expression
        ctx = BoundContext.from_params(params30)
        p = params30
        link = ctx.links.interfering_fap_to_indoor
        comp = link.composite
        a = p.alpha_ff
        power_mw = float(dbm_to_mw(-10.0))
        expected = math.pi * (link.gain * p.gamma_f / link.phi) ** (2 / a) \
            * power_mw ** (2 / a) * math.exp(2 * comp.loc / a + 2 * comp.scale**2 / a**2)
        assert fue_rate(ctx, fap_power_distribution(-10.0, -10.0)) == pytest.approx(
            expected, rel=1e-12)

    def test_power_moment_against_sampling(self, ctx100):
        # E[(P*H*Q)^(2/alpha)] via the lognormal moment formula vs the
        # sampled mean of the lognormal product
        p = ctx100.params
        a = p.alpha_mf
        rng = np.random.default_rng(77)
        n = 1_000_000
        pw = ctx100.fap_power.sample(rng, n)
        comp = ctx100.links.fap_to_outdoor.composite
        hq_fit = comp.sample(rng, n)
        emp = float(np.mean((pw * hq_fit) ** (2.0 / a)))
        analytic = math.exp(2 * (comp.loc + ctx100.fap_power.loc) / a
                            + 2 * (comp.scale**2 + ctx100.fap_power.scale**2) / a**2)
        assert analytic == pytest.approx(emp, rel=0.02)
        # against the separately-sampled physical channel the composite fit
        # overstates this fractional moment by ~4%
        h = rng.exponential(size=n)
        q = rng.lognormal(0.0, DB_TO_LN * p.sigma_mf_db, n)
        emp_true = float(np.mean((pw * h * q) ** (2.0 / a)))
        assert analytic == pytest.approx(emp_true, rel=0.06)

    def test_both_rates_positive_and_increasing_in_power_mean(self, ctx30):
        hotter = fap_power_distribution(-20.0, -4.0)
        assert fue_rate(ctx30) > 0
        assert _mue_rate(ctx30) > 0
        assert fue_rate(ctx30, hotter) > fue_rate(ctx30)
        assert _mue_rate(ctx30, hotter) > _mue_rate(ctx30)


def test_printed_form_matches_coefficient_form(ctx30):
    # the distance-explicit Hermite sum and the dominant-interferer
    # coefficient form are the same expression rearranged
    p = ctx30.params
    kappa = _mue_rate(ctx30)
    b_m, v_m = ctx30.hermite
    link = ctx30.links.macro_to_outdoor
    for d in (400.0, 700.0, 1000.0):
        mu_s = link.composite.loc + math.log(
            ctx30.p_m_mw * link.gain / (link.phi * d**p.alpha_m))
        sc_s = link.composite.scale
        expo = -(2.0 * math.sqrt(2.0) * sc_s * b_m + 2.0 * mu_s) / p.alpha_mf
        alt = 1.0 - float(np.sum(v_m / math.sqrt(math.pi)
                                 * np.exp(-kappa * p.lambda_f * np.exp(expo))))
        assert macro_outage_lower_bound(ctx30, d) == pytest.approx(alt, rel=1e-12, abs=1e-15)


def _composite_reference(ctx, d, p_serving_mw):
    """The composite term as one dense (..., Laguerre, Hermite) sum, in the
    form it had before the sum was reordered; also whether each node's
    signal lies above its threshold, and each node's unclamped exponent."""
    d, p_serving_mw = np.broadcast_arrays(d, p_serving_mw)
    p = ctx.params
    if p.lambda_f == 0.0:
        return np.zeros(d.shape), None, None
    sig, intf = ctx.links.serving_fap_to_indoor, ctx.links.macro_to_indoor
    # axes (..., Laguerre node, Hermite node)
    mu_s = _rx_ln_loc(sig, p_serving_mw, p.r_f)[..., None, None]
    sc_s = sig.composite.scale
    mu_i = _rx_ln_loc(intf, ctx.p_m_mw, d)[..., None, None]
    sc_i = intf.composite.scale
    ln_gamma = math.log(p.gamma_f)
    rate = _dominant_interferer_rate(ctx.links.interfering_fap_to_indoor, ctx.fap_power,
                                     p.gamma_f) * p.lambda_f

    a_n, w_n = (x[:, None] for x in ctx.laguerre)
    b_m, v_m = (x[None, :] for x in ctx.hermite)

    ln_z = math.sqrt(2.0) * sc_i * b_m + mu_i + ln_gamma
    chi = (ln_z - mu_s) ** 2 / (2.0 * sc_s**2)
    ln_w = mu_s + np.sqrt(2.0 * a_n + 2.0 * chi) * sc_s
    diff = ln_z - ln_w
    signal_above = diff < 0.0
    # log(signal - threshold), defined only where the base is positive
    ln_base = np.where(signal_above,
                       ln_w + np.log1p(-np.exp(np.where(signal_above, diff, -1.0))),
                       0.0)
    exponent = np.minimum(math.log(rate) - (2.0 / p.alpha_ff) * ln_base, _EXP_CAP)
    bracket = np.where(signal_above, -np.expm1(-np.exp(exponent)), 1.0)
    dens = np.exp(-chi) / (2.0 * math.pi * np.sqrt(a_n + chi))
    value = np.sum(w_n * v_m * bracket * dens, axis=(-2, -1))
    return value, signal_above, math.log(rate) - (2.0 / p.alpha_ff) * ln_base


def _assert_composite_matches_reference(ctx, d, p_serving_mw):
    got = _femto_composite_term(ctx, d, p_serving_mw)
    ref, above, exponent = _composite_reference(ctx, d, p_serving_mw)
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    return above, exponent


# ROADMAP item 14's scenario ranges; every scenario field the composite term reads
_SCENARIO = st.fixed_dictionaries({
    "n_f": st.floats(0.0, 500.0),
    "xi_db": st.floats(0.0, 20.0),
    "p_f_max_total_dbm": st.floats(10.0, 30.0),
    "eps_f": st.floats(0.01, 0.3),
    "gamma_f_db": st.floats(0.0, 15.0),
    "gamma_m_db": st.floats(0.0, 15.0),
    "sigma_ff_db": st.floats(4.0, 12.0),
    "sigma_mf_db": st.floats(4.0, 12.0),
    "alpha_ff": st.floats(3.0, 4.5),
    "alpha_mf": st.floats(3.0, 4.5),
})


@given(_SCENARIO,
       st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=6),
       st.floats(-300.0, 3.0))
@example({"n_f": 0.0, "xi_db": 10.0, "p_f_max_total_dbm": 23.0, "eps_f": 0.1,
          "gamma_f_db": 10.0, "gamma_m_db": 5.0, "sigma_ff_db": 12.0, "sigma_mf_db": 10.0,
          "alpha_ff": 4.0, "alpha_mf": 4.0}, [400.0, 1000.0], -0.8)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_composite_sum_against_the_dense_sum(scenario, d, log10_p_serving_mw):
    scenario = dict(scenario)
    try:
        ctx = BoundContext.from_params(
            NetworkParams.from_expected_fap_count(scenario.pop("n_f"), **scenario))
    except ValueError:   # a cap below the edge minimum power: no context
        return
    _assert_composite_matches_reference(ctx, np.array(d), 10.0**log10_p_serving_mw)
    # a serving power per distance, and the scalar form
    _assert_composite_matches_reference(ctx, np.array(d), np.geomspace(1e-9, 1.0, len(d)))
    _assert_composite_matches_reference(ctx, d[0], 10.0**log10_p_serving_mw)


def test_composite_sum_at_the_threshold_and_the_cap(monkeypatch):
    # ln w >= ln z at every node, with equality only at a zero Laguerre node,
    # so only rounding puts a signal at or below its threshold: with zero
    # nodes and a faint signal, some points have no node above it
    rule = analysis.make_rule
    monkeypatch.setattr(analysis, "make_rule", lambda kind, order: (
        (np.zeros(order), rule(kind, order)[1]) if kind == "laguerre" else rule(kind, order)))
    params = NetworkParams.from_expected_fap_count(30.0, alpha_ff=3.0)
    above, _ = _assert_composite_matches_reference(
        BoundContext.from_params(params), np.geomspace(1.0, 5000.0, 60), 1e-10)
    assert not above.any(axis=(-2, -1)).all()
    # a field so dense that nodes above their threshold meet the cap
    monkeypatch.undo()
    dense = BoundContext.from_params(dataclasses.replace(params, lambda_f=1e300))
    above, exponent = _assert_composite_matches_reference(dense, np.array([400.0, 3000.0]), 1e-3)
    assert (above & (exponent > _EXP_CAP)).any()
