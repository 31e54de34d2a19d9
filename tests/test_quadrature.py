import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from femtoshare.analysis import make_rule

LAGUERRE, HERMITE = "laguerre", "hermite"
# the case ids keep the names these cases have always run under
KINDS = pytest.mark.parametrize("kind", [LAGUERRE, HERMITE], ids=["Kind.LAGUERRE", "Kind.HERMITE"])


def test_one_point_laguerre():
    nodes, weights = make_rule(LAGUERRE, 1)
    assert nodes[0] == pytest.approx(1.0, rel=1e-14)
    assert weights[0] == pytest.approx(1.0, rel=1e-14)


def test_two_point_closed_forms():
    # closed-form 2-point rules frozen from the Jacobi-matrix construction
    nodes, weights = make_rule(LAGUERRE, 2)
    np.testing.assert_allclose(np.sort(nodes), [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-12)
    np.testing.assert_allclose(np.sort(weights)[::-1],
                               [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], rtol=1e-12)
    nodes, weights = make_rule(HERMITE, 2)
    np.testing.assert_allclose(np.sort(nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-12)
    np.testing.assert_allclose(weights, [math.sqrt(math.pi) / 2] * 2, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 8, 12, 24, 48, 64])
@KINDS
def test_weight_sums_and_positivity(kind, order):
    nodes, weights = make_rule(kind, order)
    assert len(nodes) == len(weights) == order
    assert np.all(weights > 0)
    total = 1.0 if kind == LAGUERRE else math.sqrt(math.pi)
    assert float(weights.sum()) == pytest.approx(total, abs=1e-12 * max(1.0, total))


def _moment(kind: str, k: int) -> float:
    if kind == LAGUERRE:
        return float(math.factorial(k))
    if k % 2 == 1:
        return 0.0
    return float(gamma_fn((k + 1) / 2.0))


@pytest.mark.parametrize("order", [2, 5, 12, 31])
@KINDS
def test_monomial_exactness_to_degree_2k_minus_1(kind, order):
    nodes, weights = make_rule(kind, order)
    for k in range(2 * order):
        got = float(np.dot(weights, nodes ** k))
        want = _moment(kind, k)
        if want == 0.0:
            assert abs(got) < 1e-9 * _moment(kind, k + 1 if k + 1 < 2 * order else k - 1)
        else:
            assert got == pytest.approx(want, rel=1e-9)


def test_orders_against_reference_tables():
    # independent oracle: numpy's companion-matrix tables, up to order 64
    for order in (2, 5, 12, 24, 31, 48, 64):
        nodes, weights = make_rule(LAGUERRE, order)
        x, w = np.polynomial.laguerre.laggauss(order)
        np.testing.assert_allclose(nodes, x, rtol=1e-10)
        np.testing.assert_allclose(weights, w, rtol=1e-9)
        nodes, weights = make_rule(HERMITE, order)
        x, w = np.polynomial.hermite.hermgauss(order)
        np.testing.assert_allclose(nodes, x, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(weights, w, rtol=1e-9)


def test_integrate_reference_values():
    nodes, weights = make_rule(HERMITE, 12)
    assert weights @ np.ones_like(nodes) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert weights @ nodes**2 == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-9)
    nodes, weights = make_rule(LAGUERRE, 12)
    assert weights @ nodes == pytest.approx(1.0, abs=1e-10)


def test_rules_are_cached_and_frozen():
    a = make_rule(HERMITE, 12)
    b = make_rule(HERMITE, 12)
    assert a is b
    nodes, weights = a
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0
