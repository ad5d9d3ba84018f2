import numpy as np
import pytest

from txaccel.errors import InvalidArgumentError
from txaccel.quadrature import gauss_legendre

ALL_ORDERS = list(range(4, 53, 4))


def test_order_2_closed_form():
    q = gauss_legendre(2)
    np.testing.assert_allclose(q.nodes, [-0.5773502691896258, 0.5773502691896258],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(q.weights, [1.0, 1.0], rtol=0, atol=1e-15)


def test_order_4_reference_values():
    # Frozen from Newton iteration cross-checked against the moment
    # equations sum(w * x^k) = 2/(k+1) for even k.
    q = gauss_legendre(4)
    np.testing.assert_allclose(
        q.nodes,
        [-0.8611363115940526, -0.3399810435848563,
         0.3399810435848563, 0.8611363115940526],
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        q.weights,
        [0.3478548451374538, 0.6521451548625461,
         0.6521451548625461, 0.3478548451374538],
        rtol=0, atol=1e-15)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_weights_sum_to_two(order):
    q = gauss_legendre(order)
    assert abs(q.weights.sum() - 2.0) < 1e-13


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_moment_exactness(order):
    # Exact for polynomials up to degree 2N-1: even moments hit 2/(k+1),
    # odd moments vanish.
    q = gauss_legendre(order)
    for k in range(0, 2 * order):
        moment = np.sum(q.weights * q.nodes ** k)
        expected = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(moment - expected) < 1e-12, (order, k)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_symmetry_is_exact(order):
    q = gauss_legendre(order)
    assert np.array_equal(q.nodes, -q.nodes[::-1])
    assert np.array_equal(q.weights, q.weights[::-1])


@pytest.mark.parametrize("order", ALL_ORDERS + [2, 64])
def test_node_structure(order):
    q = gauss_legendre(order)
    assert len(q.nodes) == order
    assert np.all(np.diff(q.nodes) > 0)
    assert np.all(q.nodes > -1) and np.all(q.nodes < 1)
    assert np.all(q.nodes != 0.0)
    assert np.all(q.weights > 0)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_against_numpy_leggauss(order):
    q = gauss_legendre(order)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    np.testing.assert_allclose(q.nodes, nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(q.weights, weights, rtol=0, atol=1e-14)


@pytest.mark.parametrize("order", [3, 5, 0, -2, 66, 1])
def test_rejects_bad_orders(order):
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(order)


def test_rejects_non_integer():
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(4.0)


def test_cached_order_still_rejects_float():
    # 4.0 == 4 and both hash alike, so a cache consulted before the
    # argument check would return the cached rule of order 4.
    gauss_legendre(4)
    gauss_legendre(order=4)
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(4.0)
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(order=4.0)


def test_cached_arrays_are_read_only():
    q = gauss_legendre(8)
    with pytest.raises(ValueError):
        q.nodes[0] = 0.0
    with pytest.raises(ValueError):
        q.weights[0] = 0.0
    assert gauss_legendre(8) is q


def test_deterministic():
    a = gauss_legendre(32)
    b = gauss_legendre(32)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
