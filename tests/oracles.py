"""Independent reference solutions used to check the package.

The scalar accelerator route is the per-window reference for
``run_benchmark`` and the fitness: one Python call per window, one
relative error and one strict comparison per (sequence, position).  The
scalar formula interpreter at the end is the reference semantics of the
formula language: a recursion over the tree, one window at a time, that
``kernels.evaluate_program`` must reproduce bit for bit, and
``random_formula`` draws the random formulas such checks run on.

``gauss_legendre_reference`` is the per-order Newton loop that
``quadrature.gauss_legendre_halves`` batches: its rules must come back
bit for bit.  ``write_dataset_reference`` writes a dataset row by row
through ``csv.writer``, the bytes ``sequences.write_dataset`` must match.

Diamond-difference discrete ordinates on a uniform spatial mesh, solved
for the scattering source with GMRES (Saad & Schultz 1986), then
Richardson-extrapolated to zero mesh width from three refinement levels.
On a uniform mesh the transport sweep of one ordinate is a first-order
linear recurrence over the cells, so each sweep is one
``scipy.signal.lfilter`` call.  The quadrature comes from numpy's
leggauss, so this path shares nothing with the package solver beyond the
problem definition.  The same Q/2 isotropic source convention applies.
"""

import csv
import math
from typing import NamedTuple

import numpy as np
from scipy.signal import lfilter
from scipy.sparse.linalg import LinearOperator, gmres

from txaccel.trees import (
    CLAMP,
    DIV_GUARD,
    DIV_PROTECTED_VALUE,
    Formula,
    random_tree,
)


def _dd_sweep(mu, w, sigma_t, h, q):
    """Diamond-difference sweep of every ordinate from vacuum boundaries.

    ``q`` is the isotropic angular source per cell.  Returns the cell
    scalar flux and the scalar flux on the midplane edge (n_cells even).
    """
    n_cells = q.shape[0]
    center = n_cells // 2
    phi = np.zeros(n_cells)
    phi_center = 0.0
    for mu_m, w_m in zip(mu, w):
        # psi_out = alpha * psi_in + beta * q_i along the sweep direction.
        a = abs(mu_m) / h
        alpha = (a - 0.5 * sigma_t) / (a + 0.5 * sigma_t)
        beta = 1.0 / (a + 0.5 * sigma_t)
        if mu_m > 0.0:
            out = lfilter([beta], [1.0, -alpha], q)
            inc = np.concatenate(([0.0], out[:-1]))
            phi_center += w_m * out[center - 1]
        else:
            out = lfilter([beta], [1.0, -alpha], q[::-1])[::-1]
            inc = np.concatenate((out[1:], [0.0]))
            phi_center += w_m * out[center]
        phi += w_m * 0.5 * (inc + out)
    return phi, phi_center


def _dd_solve(mu, w, sigma_t, sigma_s, q_angular, length, n_cells, tol):
    """Diamond-difference system solved for the scattering source.

    The cell fluxes solve (I - S) phi = b, where S sweeps the scattering
    source 0.5 * sigma_s * phi and b sweeps the fixed source.  Returns
    (center edge scalar flux, GMRES info).  n_cells must be even so the
    slab midplane is a mesh edge.
    """
    h = length / n_cells

    def scattered(phi):
        return phi - _dd_sweep(mu, w, sigma_t, h, 0.5 * sigma_s * phi)[0]

    b = _dd_sweep(mu, w, sigma_t, h, np.full(n_cells, 0.5 * q_angular))[0]
    operator = LinearOperator((n_cells, n_cells), matvec=scattered,
                              dtype=np.float64)
    phi, info = gmres(operator, b, rtol=tol, atol=0.0, restart=100,
                      maxiter=100)
    q = 0.5 * (sigma_s * phi + q_angular)
    return _dd_sweep(mu, w, sigma_t, h, q)[1], info


def dd_center_flux(c, width, order, n_cells, sigma_t=1.0, source=1.0,
                   tol=1e-13):
    """Center scalar flux from one diamond-difference solve."""
    mu, w = np.polynomial.legendre.leggauss(order)
    value, info = _dd_solve(mu, w, float(sigma_t), float(c * sigma_t),
                            float(source), float(width / sigma_t),
                            int(n_cells), float(tol))
    if info != 0:
        raise RuntimeError(f"diamond difference: GMRES did not converge "
                           f"(info={info}, c={c}, width={width}, N={order})")
    return value


def mesh_refined_center_flux(c, width, order, sigma_t=1.0, source=1.0,
                             cells_per_mfp=24, min_cells=96):
    """Mesh-converged center flux via two Richardson levels over h, h/2, h/4.

    Also returns the spread between the final and the single-level
    extrapolant as a self-check on the remaining truncation error.
    """
    n0 = max(min_cells, int(np.ceil(cells_per_mfp * width)))
    n0 += n0 % 2
    f = [dd_center_flux(c, width, order, n0 * k, sigma_t, source)
         for k in (1, 2, 4)]
    r1_coarse = (4.0 * f[1] - f[0]) / 3.0
    r1_fine = (4.0 * f[2] - f[1]) / 3.0
    r2 = (16.0 * r1_fine - r1_coarse) / 15.0
    return r2, abs(r2 - r1_fine)


def pure_absorber_center_flux(width, order, sigma_t=1.0, source=1.0):
    """Closed-form center flux for c=0: each ordinate is a single linear
    ODE, integrated directly over the quadrature."""
    mu, w = np.polynomial.legendre.leggauss(order)
    half = width / sigma_t / 2.0
    psi = 0.5 * source / sigma_t * (1.0 - np.exp(-sigma_t * half / np.abs(mu)))
    return float(np.sum(w * psi))


# ---------------------------------------------------------------------------
# Quadrature and dataset file references
# ---------------------------------------------------------------------------

def _legendre_and_derivative(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, all x at one n."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre_reference(order):
    """Nodes and weights of the even-order rule from a Newton loop on this
    order alone, stopped at its own max |dx| < 1e-15."""
    half = order // 2
    m = np.arange(1, half + 1)
    x = np.cos(np.pi * (m - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    pos, wpos = x[::-1], w[::-1]
    return (np.concatenate([-pos[::-1], pos]),
            np.concatenate([wpos[::-1], wpos]))


def write_dataset_reference(path, sequences):
    """A dataset CSV written one row at a time through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence_id", "c", "width_mfp", "order",
                         "center_flux"])
        for seq in sequences:
            for order, value in zip(seq.orders, seq.values.tolist()):
                writer.writerow([seq.id, f"{seq.c:.17g}",
                                 f"{seq.width_mfp:.17g}", order,
                                 f"{value:.17g}"])


# ---------------------------------------------------------------------------
# Scalar accelerator route
# ---------------------------------------------------------------------------

INVALID = math.inf
GUARD = 1e-10
TINY_DENOMINATOR = 1e-300


def is_invalid(value):
    return not math.isfinite(value)


def aitken(s_n, s_nm1, s_nm2):
    """Delta-squared value of three terms, INVALID on a flat second difference."""
    d2 = s_n - 2.0 * s_nm1 + s_nm2
    if abs(d2) < GUARD * max(1.0, abs(s_n)):
        return INVALID
    d1 = s_n - s_nm1
    return s_n - d1 * d1 / d2


def wynn_epsilon(terms, target_column, tiny=1e-300):
    """Most recent entry of an even column of the epsilon table over
    ``terms`` (oldest first), built by the cross rule
    e_{k+1}^(n) = e_{k-1}^(n+1) + 1 / (e_k^(n+1) - e_k^(n)).  An inverted
    difference below ``tiny`` in magnitude yields INVALID."""
    terms = [float(t) for t in terms]
    if target_column % 2 != 0 or target_column < 0:
        raise ValueError(f"target_column must be even and >= 0, got {target_column}")
    if target_column > len(terms) - 1:
        raise ValueError(f"column {target_column} needs at least "
                         f"{target_column + 1} terms, got {len(terms)}")
    prev = [0.0] * (len(terms) + 1)
    curr = terms
    for _ in range(target_column):
        nxt = []
        for n in range(len(curr) - 1):
            diff = curr[n + 1] - curr[n]
            if abs(diff) < tiny:
                return INVALID
            nxt.append(prev[n + 1] + 1.0 / diff)
        prev, curr = curr, nxt
    return curr[-1]


def wynn_column2(s_n, s_nm1, s_nm2):
    """Column 2 of the table over (S_{n-2}, S_{n-1}, S_n) behind the
    delta-squared rule's second-difference guard."""
    if abs(s_n - 2.0 * s_nm1 + s_nm2) < GUARD * max(1.0, abs(s_n)):
        return INVALID
    return wynn_epsilon((s_nm2, s_nm1, s_n), 2)


def evolved_formula(window):
    """The built-in evolved accelerator on one window, newest term first."""
    s_n, s_nm1, s_nm2 = window[0], window[1], window[2]
    if abs(s_nm1) < GUARD:
        return INVALID
    ratio = s_n / s_nm1
    stretched = 2.0 * s_n - 4.0 * s_nm1 + s_nm2
    if abs(stretched) < GUARD or abs(ratio) < GUARD:
        return INVALID
    numerator = s_n * s_nm2 - s_n * s_n - s_nm1 * s_nm1
    return numerator / (stretched * ratio)


#: Scalar transforms of one window (s_n, s_nm1, s_nm2, s_nm3), by method.
SCALAR_METHODS = {
    "aitken": lambda w: aitken(w[0], w[1], w[2]),
    "wynn": lambda w: wynn_column2(w[0], w[1], w[2]),
    "evolved": evolved_formula,
}


def relative_error(curr, prev):
    """|curr - prev| / |curr|, or +inf when |curr| < 1e-300."""
    if abs(curr) < TINY_DENOMINATOR:
        return math.inf
    return abs(curr - prev) / abs(curr)


def success_at(formula_err, raw_err):
    """Strict success: ties fail and +inf never wins."""
    return formula_err < raw_err


def window_at(seq, order):
    """The four terms ending at ``order``, newest first."""
    i = seq.orders.index(order)
    if i < 3:
        raise ValueError(f"order {order} has only {i} predecessors")
    v = seq.values
    return (float(v[i]), float(v[i - 1]), float(v[i - 2]), float(v[i - 3]))


def scalar_scores(transform, seq, orders):
    """Per order of ``seq``: (win, invalid, error) of ``transform``'s value
    at that order against its value at the previous order."""
    out = []
    for order in orders:
        i = seq.orders.index(order)
        curr = transform(window_at(seq, order))
        prev = transform(window_at(seq, seq.orders[i - 1]))
        if is_invalid(curr) or is_invalid(prev):
            err, invalid = INVALID, True
        else:
            err = relative_error(curr, prev)
            invalid = is_invalid(err)
        raw = relative_error(seq.values[i], seq.values[i - 1])
        out.append((success_at(err, raw), invalid, err))
    return out


def scalar_benchmark(sequences, transforms, orders, bins=10):
    """run_benchmark's totals and grid through the scalar route: name ->
    (wins, losses, invalids, grid_wins, grid_counts)."""
    out = {}
    for name, transform in transforms.items():
        wins = invalids = 0
        grid_wins = np.zeros((len(orders), bins))
        grid_counts = np.zeros((len(orders), bins))
        for seq in sequences:
            c_bin = min(int(seq.c * bins), bins - 1)
            for k, (win, invalid, _) in enumerate(scalar_scores(transform, seq, orders)):
                wins += win
                invalids += invalid
                grid_counts[k, c_bin] += 1
                grid_wins[k, c_bin] += win
        total = len(sequences) * len(orders)
        out[name] = (wins, total - wins, invalids, grid_wins, grid_counts)
    return out


# ---------------------------------------------------------------------------
# Scalar formula interpreter
#
# The recursion below is the reference semantics of a formula tree; the
# kernel runs the same operation sequence over whole window batches and is
# checked bitwise against it.
# ---------------------------------------------------------------------------


class Window(NamedTuple):
    """The four most recent sequence terms, newest first."""

    s_n: float
    s_nm1: float
    s_nm2: float
    s_nm3: float


_WINDOW_INDEX = {"Sn": 0, "Snm1": 1, "Snm2": 2, "Snm3": 3}


def _guard_overflow(v: float) -> float:
    if v == float("inf"):
        return CLAMP
    if v == float("-inf"):
        return -CLAMP
    return v


def protected_div(a: float, b: float) -> float:
    if abs(b) < DIV_GUARD:
        return DIV_PROTECTED_VALUE
    return _guard_overflow(a / b)


def eval_tree(node, window, p: float) -> float:
    """Recursive closure-safe evaluation; the result is finite whenever
    the window and p are.

    Add and mul call numpy's ufuncs, which keep the first operand's NaN
    where NaNs of both signs meet; Python's and numpy's scalar ``+`` and
    ``*`` keep the second's.  Overflow is clamped, so it does not warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _eval_node(node, window, p)


def _eval_node(node, window, p):
    kind = node.kind
    idx = _WINDOW_INDEX.get(kind)
    if idx is not None:
        return float(window[idx])
    if kind == "p":
        return float(p)
    if kind == "const":
        return float(node.value)
    if kind == "d2":
        return _guard_overflow(
            np.add(window[0] - np.multiply(2.0, window[1]), window[2]))
    if kind == "sq":
        a = _eval_node(node.children[0], window, p)
        v = np.multiply(a, a)
        return CLAMP if v > CLAMP else v
    a = _eval_node(node.children[0], window, p)
    b = _eval_node(node.children[1], window, p)
    if kind == "add":
        return _guard_overflow(np.add(a, b))
    if kind == "sub":
        return _guard_overflow(a - b)
    if kind == "mul":
        v = np.multiply(a, b)
        if v > CLAMP:
            return CLAMP
        if v < -CLAMP:
            return -CLAMP
        return v
    return protected_div(a, b)


def eval_formula(f, window) -> float:
    num = eval_tree(f.numerator, window, f.p)
    den = eval_tree(f.denominator, window, f.p)
    return protected_div(num, den)


def random_formula(max_depth: int, method: str, rng, p: float = 0.0) -> Formula:
    """A formula of two random trees, numerator first, drawn by
    ``trees.random_tree`` with ``method`` "grow" or "full"."""
    num = random_tree(max_depth, method, rng)
    den = random_tree(max_depth, method, rng)
    return Formula(num, den, p)
