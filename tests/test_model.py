import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from femtoshare.model import (
    DB_TO_LN,
    LognormalDist,
    NetworkParams,
    build_links,
    composite_fading_shadowing,
    dbm_to_mw,
    fap_power_distribution,
    load_scenario,
    mw_to_dbm,
    per_subcarrier_power,
)
from femtoshare.montecarlo import _received

from conftest import UnitDraws


def test_db_to_ln_constant():
    assert DB_TO_LN == pytest.approx(0.1 * math.log(10.0), rel=0, abs=0)


@given(st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_dbm_mw_round_trip(p_dbm):
    assert mw_to_dbm(dbm_to_mw(p_dbm)) == pytest.approx(p_dbm, rel=1e-12, abs=1e-12)


def test_per_subcarrier_power():
    assert per_subcarrier_power(23.0, 1200) == pytest.approx(-7.79, abs=0.005)
    assert per_subcarrier_power(43.0, 1200) == pytest.approx(12.21, abs=0.005)
    assert per_subcarrier_power(-3.5, 1) == -3.5
    with pytest.raises(ValueError):
        per_subcarrier_power(10.0, 0)


class TestPropagation:
    def test_macro_link_fixed_loss(self):
        links = build_links(NetworkParams())
        # direct evaluation of the fixed-loss formula at f_c = 2000 MHz
        expected = 10 ** (-7.1) * 2000.0**3
        assert links.macro_to_outdoor.phi == pytest.approx(expected, rel=1e-12)
        assert 10.0 * math.log10(expected) == pytest.approx(28.03, abs=0.01)

    def test_indoor_link_fixed_loss(self):
        links = build_links(NetworkParams())
        assert links.serving_fap_to_indoor.phi == pytest.approx(10**3.7, rel=1e-12)

    def test_loss_at_unit_distance_is_phi(self):
        # the simulator's received power at 1 m, with unit fading and
        # shadowing, is the transmitted power times the gain over phi
        links = build_links(NetworkParams())
        for link in (links.macro_to_outdoor, links.serving_fap_to_indoor,
                     links.fap_to_outdoor, links.macro_to_indoor,
                     links.interfering_fap_to_indoor):
            got = _received(UnitDraws(), link, 1.0, 1.0, 1)
            assert got[0] == pytest.approx(link.gain / link.phi, rel=1e-15)

    def test_links_carry_transmit_times_ue_gain(self):
        params = NetworkParams(g_m_dbi=14.1, g_f_dbi=2.0, g_u_dbi=-1.5)
        links = build_links(params)
        g_m, g_f, g_u = (float(dbm_to_mw(g)) for g in (14.1, 2.0, -1.5))
        for name, g_tx in (("macro_to_outdoor", g_m), ("serving_fap_to_indoor", g_f),
                           ("fap_to_outdoor", g_f), ("macro_to_indoor", g_m),
                           ("interfering_fap_to_indoor", g_f)):
            link = getattr(links, name)
            assert link.gain == pytest.approx(g_tx * g_u, rel=1e-15)
            assert link.mean_rx_mw(2.0, 50.0) == pytest.approx(
                2.0 * g_tx * g_u / (link.phi * 50.0**link.alpha), rel=1e-15)

    def test_wall_loss_consistency(self):
        params = NetworkParams(xi_db=10.0)
        links = build_links(params)
        xi = 10.0  # linear
        phi_m = links.macro_to_outdoor.phi
        phi_f = links.serving_fap_to_indoor.phi
        assert links.macro_to_indoor.phi / phi_m == pytest.approx(xi, rel=1e-12)
        assert links.fap_to_outdoor.phi / phi_f == pytest.approx(xi, rel=1e-12)
        assert links.interfering_fap_to_indoor.phi / phi_f == pytest.approx(xi**2, rel=1e-12)


class TestCompositeFit:
    def test_reference_values(self):
        dist = composite_fading_shadowing(0.0, 4.0)
        assert dist.loc == pytest.approx(DB_TO_LN * -2.5, rel=1e-12)
        assert dist.loc == pytest.approx(-0.57565, abs=1e-5)
        assert dist.scale == pytest.approx(DB_TO_LN * math.sqrt(4.0**2 + 5.57**2), rel=1e-12)
        assert dist.scale == pytest.approx(1.5790, abs=1e-4)

    def test_shadowing_free_case(self):
        dist = composite_fading_shadowing(0.0, 0.0)
        assert dist.loc == pytest.approx(-0.57565, abs=1e-5)
        assert dist.scale == pytest.approx(DB_TO_LN * 5.57, rel=1e-12)

    def test_fit_against_sampled_product(self):
        # sampling oracle: the -2.5 dB / 5.57 dB constants are a log-domain
        # moment fit (-2.5 dB ~ -Euler-gamma nats, 5.57 dB ~ sqrt(pi^2/6)
        # nats), so the fit must match the sampled mean and variance of
        # ln(H*Q) and track the product's CDF; its *linear* mean is not
        # matched (the lognormal tail is heavier than the exponential's).
        rng = np.random.default_rng(987)
        n = 1_000_000
        sigma_db = 4.0
        h = rng.exponential(size=n)
        q = rng.lognormal(0.0, DB_TO_LN * sigma_db, size=n)
        log_prod = np.log(h * q)
        fit = composite_fading_shadowing(0.0, sigma_db)
        assert fit.loc == pytest.approx(float(np.mean(log_prod)), abs=6e-3)
        assert fit.scale**2 == pytest.approx(float(np.var(log_prod)), rel=0.02)
        # pointwise CDF agreement of the fit (measured ~0.035 worst-case at
        # this sigma; the skewed log of the exponential factor caps it)
        for p in (0.1, 0.5, 0.9):
            emp = float(np.mean(h * q <= fit.quantile(p)))
            assert emp == pytest.approx(p, abs=0.05)

    @given(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_strictly_increasing_in_sigma(self, sigma_db, bump):
        a = composite_fading_shadowing(0.0, sigma_db)
        b = composite_fading_shadowing(0.0, sigma_db + bump)
        assert b.scale > a.scale

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            composite_fading_shadowing(0.0, -1.0)


class TestFapPowerDistribution:
    def test_degenerate_range(self):
        dist = fap_power_distribution(-7.79, -7.79)
        assert dist.scale == 0.0
        rng = np.random.default_rng(1)
        x = dist.sample(rng, 100)
        np.testing.assert_allclose(x, math.exp(dist.loc), rtol=1e-12)

    def test_three_sigma_rule(self):
        dist = fap_power_distribution(-19.79, -7.79)
        assert dist.loc == pytest.approx(DB_TO_LN * -13.79, rel=1e-12)
        assert dist.scale == pytest.approx(DB_TO_LN * 2.0, rel=1e-12)

    def test_sampled_range_coverage(self):
        dist = fap_power_distribution(-19.79, -7.79)
        rng = np.random.default_rng(5)
        p_dbm = 10.0 * np.log10(dist.sample(rng, 1_000_000))
        frac = np.mean((p_dbm >= -19.79) & (p_dbm <= -7.79))
        assert frac == pytest.approx(0.9973, abs=5e-4)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            fap_power_distribution(-5.0, -6.0)


class TestLognormalDist:
    def test_cdf_at_median(self):
        dist = LognormalDist(0.7, 1.3)
        assert dist.cdf(math.exp(dist.loc)) == pytest.approx(0.5, rel=1e-12)

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=4.0),
        st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantile_cdf_inverse(self, loc, scale, k):
        dist = LognormalDist(loc, scale)
        x = math.exp(loc + k * scale)  # spans six scales around the median
        assert dist.quantile(dist.cdf(x)) == pytest.approx(x, rel=1e-9)

    def test_cdf_and_quantile_against_scipy(self):
        # scipy's normal CDF and quantile are the oracles; the package
        # computes them with math.erfc and statistics.NormalDist
        loc, scale = 0.7, 1.3
        dist = LognormalDist(loc, scale)
        z = np.linspace(-8.0, 8.0, 1601)
        x = np.exp(loc + scale * z)
        np.testing.assert_allclose(dist.cdf(x), ndtr((np.log(x) - loc) / scale),
                                   rtol=1e-13)
        p = ndtr(z)
        np.testing.assert_allclose(dist.quantile(p), np.exp(loc + scale * ndtri(p)),
                                   rtol=1e-13)
        assert dist.cdf(float(x[400])) == pytest.approx(float(ndtr(-4.0)), rel=1e-13)
        assert dist.quantile(0.1) == pytest.approx(
            math.exp(loc + scale * float(ndtri(0.1))), rel=1e-13)

    def test_quantile_domain(self):
        dist = LognormalDist(0.0, 1.0)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                dist.quantile(bad)


class TestNetworkParams:
    def test_expected_count_consistency(self, params30):
        assert params30.n_f == pytest.approx(
            params30.lambda_f * math.pi * params30.r_m**2, rel=1e-9)

    def test_per_subcarrier_consistency(self, params30):
        assert params30.p_m_subcarrier_dbm == pytest.approx(
            params30.p_m_total_dbm - 10 * math.log10(1200), rel=1e-12)
        assert params30.p_f_max_subcarrier_dbm == pytest.approx(-7.79, abs=0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(r_f=1200.0)
        with pytest.raises(ValueError):
            NetworkParams(eps_m=1.0)
        with pytest.raises(ValueError):
            NetworkParams(lambda_f=-1e-6)
        with pytest.raises(ValueError):
            NetworkParams(n_subcarriers=1201)
        with pytest.raises(ValueError):
            NetworkParams(alpha_ff=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(NetworkParams)
                                      if f.type == "float"])
    def test_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NetworkParams(**{name: bad})

    @pytest.mark.parametrize("name", ["n_subcarriers", "n_rb", "subcarriers_per_rb",
                                      "n_mue_per_cell"])
    def test_rejects_a_float_count(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            NetworkParams(**{name: float(getattr(NetworkParams(), name))})

    GAINS = {"gamma_m": "gamma_m_db", "gamma_f": "gamma_f_db"}

    def test_linear_gains_computed_once(self):
        p = NetworkParams(gamma_m_db=4.1, gamma_f_db=7.3)
        for name, db_field in self.GAINS.items():
            value = getattr(p, name)
            assert value == float(dbm_to_mw(getattr(p, db_field)))
            # a cached value is the same object on every access
            assert getattr(p, name) is value
        changed = dataclasses.replace(p, gamma_f_db=12.0)
        assert changed.gamma_f == float(dbm_to_mw(12.0))
        assert p.gamma_f == float(dbm_to_mw(7.3))

    def test_cached_gains_leave_equality_hash_and_pickle_alone(self):
        warm = NetworkParams.from_expected_fap_count(30)
        for name in self.GAINS:
            getattr(warm, name)
        cold = NetworkParams.from_expected_fap_count(30)
        assert warm == cold and hash(warm) == hash(cold)
        for p in (warm, cold):
            back = pickle.loads(pickle.dumps(p))
            assert back == p and hash(back) == hash(p)
            for name in self.GAINS:
                assert getattr(back, name) == getattr(p, name)


class TestScenarioFile:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert load_scenario(path) == NetworkParams()

    def test_round_trip(self, tmp_path, params100):
        # a file with every field, plus the n_f they imply, loads back whole
        params = dataclasses.replace(params100, xi_db=15.0)
        data = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**data, "n_f": params.n_f}))
        assert load_scenario(path) == params

    def test_n_f_key(self, tmp_path):
        path = tmp_path / "nf.json"
        path.write_text(json.dumps({"n_f": 60}))
        assert load_scenario(path).n_f == pytest.approx(60.0, rel=1e-12)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_inconsistent_n_f_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"n_f": 60, "lambda_f": 1e-9}))
        with pytest.raises(ValueError):
            load_scenario(path)
