import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from femtoshare.quadrature import Kind, make_rule


def test_one_point_laguerre():
    rule = make_rule(Kind.LAGUERRE, 1)
    assert rule.nodes[0] == pytest.approx(1.0, rel=1e-14)
    assert rule.weights[0] == pytest.approx(1.0, rel=1e-14)


def test_two_point_closed_forms():
    # closed-form 2-point rules frozen from the Jacobi-matrix construction
    lag = make_rule(Kind.LAGUERRE, 2)
    np.testing.assert_allclose(np.sort(lag.nodes), [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-12)
    np.testing.assert_allclose(np.sort(lag.weights)[::-1],
                               [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], rtol=1e-12)
    herm = make_rule(Kind.HERMITE, 2)
    np.testing.assert_allclose(np.sort(herm.nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-12)
    np.testing.assert_allclose(herm.weights, [math.sqrt(math.pi) / 2] * 2, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 8, 12, 24, 48, 64])
@pytest.mark.parametrize("kind", [Kind.LAGUERRE, Kind.HERMITE])
def test_weight_sums_and_positivity(kind, order):
    rule = make_rule(kind, order)
    assert len(rule.nodes) == len(rule.weights) == order
    assert np.all(rule.weights > 0)
    total = 1.0 if kind is Kind.LAGUERRE else math.sqrt(math.pi)
    assert float(rule.weights.sum()) == pytest.approx(total, abs=1e-12 * max(1.0, total))


def _moment(kind: Kind, k: int) -> float:
    if kind is Kind.LAGUERRE:
        return float(math.factorial(k))
    if k % 2 == 1:
        return 0.0
    return float(gamma_fn((k + 1) / 2.0))


@pytest.mark.parametrize("order", [2, 5, 12, 31])
@pytest.mark.parametrize("kind", [Kind.LAGUERRE, Kind.HERMITE])
def test_monomial_exactness_to_degree_2k_minus_1(kind, order):
    rule = make_rule(kind, order)
    for k in range(2 * order):
        got = float(np.dot(rule.weights, rule.nodes.astype(float) ** k))
        want = _moment(kind, k)
        if want == 0.0:
            assert abs(got) < 1e-9 * _moment(kind, k + 1 if k + 1 < 2 * order else k - 1)
        else:
            assert got == pytest.approx(want, rel=1e-9)


def test_orders_against_reference_tables():
    # independent oracle: numpy's companion-matrix tables, up to the top order
    for order in (2, 5, 12, 24, 31, 48, 64):
        lag = make_rule(Kind.LAGUERRE, order)
        x, w = np.polynomial.laguerre.laggauss(order)
        np.testing.assert_allclose(lag.nodes, x, rtol=1e-10)
        np.testing.assert_allclose(lag.weights, w, rtol=1e-9)
        herm = make_rule(Kind.HERMITE, order)
        x, w = np.polynomial.hermite.hermgauss(order)
        np.testing.assert_allclose(herm.nodes, x, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(herm.weights, w, rtol=1e-9)


def test_integrate_reference_values():
    herm12 = make_rule(Kind.HERMITE, 12)
    assert herm12.weights @ np.ones_like(herm12.nodes) == pytest.approx(
        math.sqrt(math.pi), abs=1e-12)
    assert herm12.weights @ herm12.nodes**2 == pytest.approx(
        math.sqrt(math.pi) / 2, rel=1e-9)
    lag12 = make_rule(Kind.LAGUERRE, 12)
    assert lag12.weights @ lag12.nodes == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("order", [0, 65, -3])
def test_order_bounds(order):
    with pytest.raises(ValueError):
        make_rule(Kind.LAGUERRE, order)


def test_rules_are_cached_and_frozen():
    a = make_rule(Kind.HERMITE, 12)
    b = make_rule(Kind.HERMITE, 12)
    assert a is b
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0
