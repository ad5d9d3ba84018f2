import numpy as np
import pytest

from oracles import gauss_legendre_reference
from txaccel.errors import InvalidArgumentError
from txaccel.quadrature import gauss_legendre, gauss_legendre_halves

ALL_ORDERS = list(range(4, 53, 4))
EVEN_ORDERS = list(range(2, 65, 2))


def test_order_2_closed_form():
    nodes, weights = gauss_legendre(2)
    np.testing.assert_allclose(nodes, [-0.5773502691896258, 0.5773502691896258],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights, [1.0, 1.0], rtol=0, atol=1e-15)


def test_order_4_reference_values():
    # Frozen from Newton iteration cross-checked against the moment
    # equations sum(w * x^k) = 2/(k+1) for even k.
    nodes, weights = gauss_legendre(4)
    np.testing.assert_allclose(
        nodes,
        [-0.8611363115940526, -0.3399810435848563,
         0.3399810435848563, 0.8611363115940526],
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        weights,
        [0.3478548451374538, 0.6521451548625461,
         0.6521451548625461, 0.3478548451374538],
        rtol=0, atol=1e-15)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_weights_sum_to_two(order):
    _, weights = gauss_legendre(order)
    assert abs(weights.sum() - 2.0) < 1e-13


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_moment_exactness(order):
    # Exact for polynomials up to degree 2N-1: even moments hit 2/(k+1),
    # odd moments vanish.
    nodes, weights = gauss_legendre(order)
    for k in range(0, 2 * order):
        moment = np.sum(weights * nodes ** k)
        expected = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(moment - expected) < 1e-12, (order, k)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_symmetry_is_exact(order):
    nodes, weights = gauss_legendre(order)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])


@pytest.mark.parametrize("order", ALL_ORDERS + [2, 64])
def test_node_structure(order):
    nodes, weights = gauss_legendre(order)
    assert len(nodes) == len(weights) == order
    assert np.all(np.diff(nodes) > 0)
    assert np.all(nodes > -1) and np.all(nodes < 1)
    assert np.all(nodes != 0.0)
    assert np.all(weights > 0)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_against_numpy_leggauss(order):
    nodes, weights = gauss_legendre(order)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(order)
    np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-14)


@pytest.mark.parametrize("order", [3, 5, 0, -2, 66, 1])
def test_rejects_bad_orders(order):
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(order)


def test_rejects_non_integer():
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(4.0)


def test_cached_order_still_rejects_float():
    # 4.0 == 4 and both hash alike, so a memo keyed on the argument and
    # consulted before the check would serve 4.0 the rule of order 4.
    gauss_legendre(4)
    gauss_legendre(order=4)
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(4.0)
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(order=4.0)


def test_deterministic():
    a_nodes, a_weights = gauss_legendre(32)
    b_nodes, b_weights = gauss_legendre(32)
    assert np.array_equal(a_nodes, b_nodes)
    assert np.array_equal(a_weights, b_weights)


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("orders", [
    EVEN_ORDERS,                  # one batch of every order
    EVEN_ORDERS[::-1],
    [52, 4, 30, 64, 2, 18, 4],    # a mixed subset, one order twice
    ALL_ORDERS,                   # the default grid's orders
], ids=["all", "all-descending", "mixed", "default-grid"])
def test_batched_rules_are_the_per_order_newton_rules(orders):
    # Each order stops at its own max |dx| < 1e-15; one more or one fewer
    # Newton step moves the bits of most orders.
    rules = gauss_legendre_halves(orders)
    assert len(rules) == len(orders)
    for order, (mu, w) in zip(orders, rules):
        nodes, weights = gauss_legendre_reference(order)
        assert same_bits(mu, nodes[order // 2:]), order
        assert same_bits(w, weights[order // 2:]), order


@pytest.mark.parametrize("order", EVEN_ORDERS)
def test_single_order_is_the_per_order_newton_rule(order):
    nodes, weights = gauss_legendre_reference(order)
    [(mu, w)] = gauss_legendre_halves([order])
    assert same_bits(mu, nodes[order // 2:])
    assert same_bits(w, weights[order // 2:])
    got_nodes, got_weights = gauss_legendre(order)
    assert same_bits(got_nodes, nodes)
    assert same_bits(got_weights, weights)


def test_no_orders_give_no_rules():
    assert gauss_legendre_halves([]) == []


@pytest.mark.parametrize("orders", [[4, 3], [66], [4, 4.0], [0]])
def test_batched_rules_reject_bad_orders(orders):
    with pytest.raises(InvalidArgumentError):
        gauss_legendre_halves(orders)
