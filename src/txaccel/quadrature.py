"""Gauss-Legendre quadrature on [-1, 1] for even orders.

The nodes are the direction cosines of the angular discretization and the
weights integrate polynomials up to degree 2N-1 exactly.  Roots are found
by Newton iteration on the Legendre polynomial P_N starting from the
asymptotic guess cos(pi*(m - 1/4)/(N + 1/2)); weights come from the closed
form w = 2 / ((1 - x^2) * P_N'(x)^2).

Each call computes its rule afresh: a grid asks for each order once.
"""

import numpy as np

from .errors import InvalidArgumentError

MIN_ORDER = 2
MAX_ORDER = 64

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def _legendre_and_derivative(n, x):
    """Evaluate P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(order: int):
    """Nodes and weights of the Gauss-Legendre rule of the given even
    order, as numpy's ``leggauss`` returns them.

    The nodes are strictly increasing and symmetric about 0 (no zero node
    for an even order); the weights are positive, symmetric, and sum to 2.
    Raises InvalidArgumentError for non-integer or odd orders and orders
    outside [2, 64].  Deterministic; no randomness involved.
    """
    if not isinstance(order, (int, np.integer)):
        raise InvalidArgumentError(f"order must be an integer, got {order!r}")
    if order % 2 != 0 or not (MIN_ORDER <= order <= MAX_ORDER):
        raise InvalidArgumentError(
            f"order must be even and in [{MIN_ORDER}, {MAX_ORDER}], got {order}"
        )
    order = int(order)
    # Positive half only; the other half is the exact mirror, which keeps
    # the symmetry invariants exact in floating point.
    half = order // 2
    m = np.arange(1, half + 1)
    x = np.cos(np.pi * (m - 0.25) / (order + 0.5))

    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_and_derivative(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break

    _, dp = _legendre_and_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    # x is descending (largest root first); assemble ascending full set.
    pos = x[::-1]
    wpos = w[::-1]
    nodes = np.concatenate([-pos[::-1], pos])
    weights = np.concatenate([wpos[::-1], wpos])
    return nodes, weights
