"""Gauss-Legendre quadrature on [-1, 1] for even orders.

The nodes are the direction cosines of the angular discretization and the
weights integrate polynomials up to degree 2N-1 exactly.  Roots are found
by Newton iteration on the Legendre polynomial P_N starting from the
asymptotic guess cos(pi*(m - 1/4)/(N + 1/2)); weights come from the closed
form w = 2 / ((1 - x^2) * P_N'(x)^2).

`gauss_legendre_halves` finds the rules of many orders in one Newton
sweep: the positive roots of every order sit in one array, one three-term
recurrence up to the largest order evaluates P_N and P_{N-1} of each root
at its own N, and each order stops on its own test, max |dx| < 1e-15, so
its roots are those of a Newton loop run on that order alone.
`gauss_legendre` is the one-order case, mirrored into the full rule.
Each call computes its rules afresh: a grid asks for its orders once.
"""

import numpy as np

from .errors import InvalidArgumentError

MIN_ORDER = 2
MAX_ORDER = 64

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def _check_order(order):
    if not isinstance(order, (int, np.integer)):
        raise InvalidArgumentError(f"order must be an integer, got {order!r}")
    if order % 2 != 0 or not (MIN_ORDER <= order <= MAX_ORDER):
        raise InvalidArgumentError(
            f"order must be even and in [{MIN_ORDER}, {MAX_ORDER}], got {order}"
        )


def _legendre_and_derivative(n, x):
    """Evaluate P_n(x) and P_n'(x) of each root x at its own order n, by
    the three-term recurrence; n must be non-increasing along x."""
    top = int(n[0])
    # The roots of order >= k are a prefix of x, active[k] long.
    active = np.searchsorted(-n, -np.arange(top + 2), side="right")
    p_n = np.empty_like(x)
    p_nm1 = np.empty_like(x)
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, top + 1):
        a, b = active[k], active[k + 1]
        p_prev, p = p, ((2 * k - 1) * x[:a] * p[:a] - (k - 1) * p_prev[:a]) / k
        if b < a:  # the roots of order k: keep their P_k and P_{k-1}
            p_n[b:a] = p[b:]
            p_nm1[b:a] = p_prev[b:a]
    dp = n * (x * p_n - p_nm1) / (x * x - 1.0)
    return p_n, dp


def gauss_legendre_halves(orders):
    """The positive halves (mu, w) of the Gauss-Legendre rules of the
    given even orders, one pair per order in the order given, nodes
    increasing.

    Each pair is bit-equal to the positive half of ``gauss_legendre`` at
    that order.  Raises InvalidArgumentError as ``gauss_legendre`` does.
    """
    for order in orders:
        _check_order(order)
    distinct = sorted({int(order) for order in orders}, reverse=True)
    if not distinct:
        return []
    sizes = np.array(distinct) // 2
    n = np.repeat(distinct, sizes)
    m = np.concatenate([np.arange(1, size + 1) for size in sizes])
    x = np.cos(np.pi * (m - 0.25) / (n + 0.5))

    # Only the orders still iterating are swept: live holds their roots'
    # indices into x, grouped by order, largest first.
    live = np.arange(x.size)
    live_sizes = sizes
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_and_derivative(n[live], x[live])
        dx = p / dp
        x[live] -= dx
        starts = np.cumsum(live_sizes) - live_sizes
        converged = np.maximum.reduceat(np.abs(dx), starts) < _NEWTON_TOL
        if converged.all():
            break
        live = live[np.repeat(~converged, live_sizes)]
        live_sizes = live_sizes[~converged]

    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    # Within an order x is descending (largest root first).
    ends = np.cumsum(sizes)
    rules = {order: (x[end - size:end][::-1].copy(),
                     w[end - size:end][::-1].copy())
             for order, size, end in zip(distinct, sizes, ends)}
    return [rules[int(order)] for order in orders]


def gauss_legendre(order: int):
    """Nodes and weights of the Gauss-Legendre rule of the given even
    order, as numpy's ``leggauss`` returns them.

    The nodes are strictly increasing and symmetric about 0 (no zero node
    for an even order); the weights are positive, symmetric, and sum to 2.
    Raises InvalidArgumentError for non-integer or odd orders and orders
    outside [2, 64].  Deterministic; no randomness involved.
    """
    # Positive half only; the other half is the exact mirror, which keeps
    # the symmetry invariants exact in floating point.
    [(mu, w)] = gauss_legendre_halves([order])
    nodes = np.concatenate([-mu[::-1], mu])
    weights = np.concatenate([w[::-1], w])
    return nodes, weights
