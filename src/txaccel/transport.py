"""Analytic discrete-ordinates solution of the steady, mono-energetic,
isotropically scattering unit slab with a uniform source and vacuum
boundaries.

The unit slab has total cross section sigma_t = 1 and a uniform isotropic
source Q = 1 (a total emission density; each direction receives Q/2), so
a width in mean free paths (mfp) is also the slab length.  It is the only
slab solved: in optical depth sigma_t x any other is this one with every
angular flux scaled by Q / sigma_t, so for a width w in mfp
    phi(sigma_t, Q, c, w) = (Q / sigma_t) phi(1, 1, c, w).

The angle-discretized system
    mu_m dpsi_m/dx + psi_m = (c / 2) sum_j w_j psi_j + 1/2
is solved exactly in space by the half-range analytical discrete-ordinates
(ADO) method (Barichello & Siewert, JQSRT 62 (1999) 665).  The symmetric
Gauss-Legendre quadrature pairs each direction mu with -mu, so the
homogeneous modes psi(x, +-mu) = Phi+-(nu, mu) exp(-x / nu) come from a
symmetric positive-definite eigenproblem of size N/2 on the positive
nodes; the particular solution is the constant 1 / (2 (1 - c)) in every
direction, which makes the infinite-medium scalar flux 1 / (1 - c).  The
only discretization is angular, so sweeping the quadrature order N yields
clean convergence sequences of the center scalar flux
phi(L/2) = sum_m w_m psi_m(L/2).

The slab is mirror symmetric about its center, so the modes decaying from
the far face carry the same coefficients as those decaying from the near
face, and the vacuum condition at x = 0 alone is an N/2 x N/2 system.  Every
exponential is exp(-distance / nu) <= 1 whatever the slab thickness.

There is one solve path, `_center_fluxes`, which takes the positive half
(mu, w) of one quadrature rule and a list of c values and widths.  The
eigenmodes depend only on (N, c), so one stacked `eigh` covers every c of
the order; each width is then one stacked boundary system over every c,
solved once for the whole stack.  A grid gets the rules of all its orders
from one Newton sweep (`gauss_legendre_halves`) and solves each (N, c)
eigenproblem exactly once; `solve_sn` is the case of one rule, one c and
one width.  The self-checks (a positive eigenvalue and a bounded rounding
error) hold for every solve.

The rounding check is screened by a closed-form upper bound on each
2-norm condition number.  With D = diag(sqrt w), M = diag(mu),
Nu = diag(nu), E = diag(e), e = exp(-L / nu), and Y the orthonormal
eigenvectors from `eigh`, the boundary matrix is
    B = 1/2 D^-1 [M^-1 Y (I + E) + Y Nu^-1 (I - E)]
      = 1/2 D^-1 Y (G + H) (I + E),
where G = Y^T M^-1 Y has the eigenvalues 1/mu and H = diag(h),
h = tanh(L / 2 nu) / nu >= 0.  Weyl's inequality bounds the eigenvalues
of G + H, so
    cond(B) <= sqrt(w_max / w_min) (1/mu_min + max h) / (1/mu_max + min h)
               max(1 + e) / min(1 + e),
from numbers the solve already holds.  Each c whose rounding check the
bound passes, with a small margin, is cleared; the singular values of the
other c values' matrices decide, as `np.linalg.cond` would.  Every pass or
fail and every reported condition number is therefore the SVD's, and on
the default grid no SVD runs.

The same bound shows that B is never near singular, so there is no
separate limit on its condition number.  By Weyl, nu >= mu_min, so
0 <= h <= 1 / mu_min and 1 <= 1 + e <= 2, and in exact arithmetic
    cond(B) <= 4 sqrt(w_max / w_min) mu_max / mu_min,
which is 858 at N = 64.  A solve with cond(B) above 1e12 would fail
the rounding check anyway: the center flux is at most 2 psi_p, so its
bound would exceed 2.2e-4.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidConfigError, NumericalFailureError
from .quadrature import MAX_ORDER as MAX_SN_ORDER, gauss_legendre_halves
from .sequences import Sequence

MIN_SN_ORDER = 4

#: Largest accepted bound on the center flux's relative rounding error.
_ROUNDING_TOL = 1e-10
_EPS = float(np.finfo(float).eps)

#: Factor on the closed-form condition bound before it screens a c.  It
#: covers the gap, of order 1e-15 relative, between the computed boundary
#: matrix and its exact factored form.  (Over orders 4-64, c up to 0.99999
#: and widths 0.01 to inf the bound alone is at least 1.87 times cond_2.)
_BOUND_MARGIN = 1.25


def _check_order(order, error=InvalidArgumentError):
    if not isinstance(order, (int, np.integer)) or order % 2 != 0 or not (
            MIN_SN_ORDER <= order <= MAX_SN_ORDER):
        raise error(
            f"order must be even and in [{MIN_SN_ORDER}, {MAX_SN_ORDER}], "
            f"got {order}"
        )


def _first_failure(passed):
    """Index of the first False in a boolean array, or None."""
    failed = np.flatnonzero(~passed)
    return int(failed[0]) if failed.size else None


def _condition_bound(mu, w, nu, width, decay):
    """Upper bound on the 2-norm condition number of each boundary matrix
    of a stack, from the factorization B = 1/2 D^-1 Y (G + H) (I + E) of
    the module docstring; decay is exp(-width / nu)."""
    h = np.tanh(0.5 * width / nu) / nu
    return (np.sqrt(w.max() / w.min())
            * (1.0 / mu.min() + h.max(axis=1))
            / (1.0 / mu.max() + h.min(axis=1))
            * (1.0 + decay.max(axis=1)) / (1.0 + decay.min(axis=1)))


def _svd_condition(stack):
    """2-norm condition numbers of a stack: largest over smallest singular
    value, the formula numpy's cond uses."""
    s = np.linalg.svd(stack, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return s[:, 0] / s[:, -1]


def _solve_center(boundary, psi, width, nu, w_u):
    """Center fluxes of a stack of boundary systems with particular
    angular fluxes psi."""
    coeff = np.linalg.solve(
        boundary, np.repeat(-psi[:, None, None], boundary.shape[-1], axis=1))
    coeff *= np.exp(-0.5 * width / nu[:, :, None])
    return 2.0 * psi + 2.0 * np.matmul(w_u, coeff)[:, 0, 0]


def _rounding_bound(condition, psi, center):
    """The boundary solve's rounding error, up to condition * eps relative
    to the particular flux 2 psi, as a share of the center flux it cancels
    to."""
    return condition * _EPS * 2.0 * psi / np.abs(center)


def _center_fluxes(mu, w, cs, widths):
    """Center fluxes of one quadrature rule, given by its positive nodes
    mu and their weights w: a (C, W) array over the scattering ratios cs
    and the widths (in mean free paths).

    One eigen-solve covers every c; each width is one stacked boundary
    solve over every c.  Raises NumericalFailureError, with order, c and
    width in its diagnostics, at the first self-check that trips: a
    non-positive eigenvalue (reported with the first width); otherwise,
    width by width and c by c, a rounding error bound above 1e-10
    relative to the center flux.  The boundary matrices are products of
    nonsingular factors (module docstring), so the solve itself cannot
    fail.
    """
    order = 2 * len(mu)
    root_w = np.sqrt(w)
    v = mu * root_w
    cs = np.asarray(cs, dtype=float)
    # Symmetric positive definite: diag(mu^2) plus a non-negative rank-one
    # term, so no entry cancels even as c -> 1.  Eigenvalues nu^2.
    matrix = (cs / (1.0 - cs))[:, None, None] * np.outer(v, v)
    matrix += np.diag(mu * mu)
    eta, u = np.linalg.eigh(matrix)
    eta_min = eta.min(axis=1)
    k = _first_failure(eta_min > 0.0)
    if k is not None:
        raise NumericalFailureError(
            f"half-range eigenvalue {eta_min[k]:.3e} is not positive",
            {"eta_min": float(eta_min[k]), "order": order, "c": float(cs[k]),
             "width": widths[0]},
        )
    nu = np.sqrt(eta)
    u /= (root_w * mu)[:, None]
    odd = mu[:, None] * u
    odd /= nu[:, None, :]
    w_u = np.matmul(w, u)[:, None, :]
    phi_plus = u + odd
    phi_plus *= 0.5
    phi_minus = u  # u is not read again
    phi_minus -= odd
    phi_minus *= 0.5
    del matrix, odd  # the width loop reads neither; frees 2 stacks for it
    psi_particular = 0.5 / (1.0 - cs)

    fluxes = np.empty((len(cs), len(widths)))
    for j, width in enumerate(widths):
        # Mirror symmetry: the far-face coefficients equal the near-face
        # ones, so the vacuum condition at x = 0 alone fixes them.
        decay = np.exp(-width / nu)
        boundary = phi_minus * decay[:, None, :]
        boundary += phi_plus
        center = _solve_center(boundary, psi_particular, width, nu, w_u)
        # Screen: the scaled bound clears each c whose rounding check it
        # passes.  The SVD decides the others.
        condition = _condition_bound(mu, w, nu, width, decay)
        condition *= _BOUND_MARGIN
        error_bound = _rounding_bound(condition, psi_particular, center)
        unclear = ~(error_bound <= _ROUNDING_TOL)
        if unclear.any():
            condition[unclear] = _svd_condition(boundary[unclear])
            error_bound = _rounding_bound(condition, psi_particular, center)
            k = _first_failure(error_bound <= _ROUNDING_TOL)
            if k is not None:
                raise NumericalFailureError(
                    f"rounding error bound {error_bound[k]:.3e} of the center "
                    f"flux exceeds {_ROUNDING_TOL:.0e}",
                    {"error_bound": float(error_bound[k]),
                     "condition": float(condition[k]), "order": order,
                     "c": float(cs[k]), "width": width},
                )
        fluxes[:, j] = center
    return fluxes


def solve_sn(c: float, width: float, order: int) -> float:
    """Exact angle-discretized center flux of the unit slab with
    scattering ratio c and width in mean free paths, at one quadrature
    order.

    Raises InvalidArgumentError for c outside [0, 1) (c >= 1 has no
    bounded particular solution), a width that is not > 0 (NaN included)
    and unsupported orders, and NumericalFailureError when an internal
    self-check trips (a non-positive eigenvalue, or a rounding error bound
    above 1e-10 relative to the center flux).
    """
    if not 0.0 <= c < 1.0:
        raise InvalidArgumentError(f"c must be in [0, 1), got {c}")
    if not width > 0.0:
        raise InvalidArgumentError(f"width must be > 0, got {width}")
    _check_order(order)
    [(mu, w)] = gauss_legendre_halves([order])
    return float(_center_fluxes(mu, w, [c], [width])[0, 0])


def _at_order(exc, order):
    """exc, annotated with the order whose solve raised it."""
    return NumericalFailureError(
        f"order {order}: {exc}", dict(exc.diagnostics, failing_order=order))


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

DEFAULT_WIDTHS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
DEFAULT_ORDERS = tuple(range(4, 53, 4))

@dataclass(frozen=True)
class DatasetConfig:
    """Grid of (c, width) pairs of the unit slab swept over a fixed list
    of orders.

    The c grid is log-spaced with both endpoints pinned exactly.  Any bad
    field raises InvalidConfigError; a bad order with solve_sn's message.
    """

    c_min: float = 0.001
    c_max: float = 0.999
    c_count: int = 40
    widths: tuple = DEFAULT_WIDTHS
    orders: tuple = DEFAULT_ORDERS

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(float(w) for w in self.widths))
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        if not (0.0 < self.c_min <= self.c_max < 1.0):
            raise InvalidConfigError(
                f"need 0 < c_min <= c_max < 1, got [{self.c_min}, {self.c_max}]"
            )
        if self.c_count < 1 or (self.c_count < 2 and self.c_min != self.c_max):
            raise InvalidConfigError(f"c_count {self.c_count} too small for range")
        if len(self.widths) == 0 or not all(w > 0 for w in self.widths):
            raise InvalidConfigError("widths must be positive and non-empty")
        if len(self.orders) == 0:
            raise InvalidConfigError("orders must be non-empty")
        for order in self.orders:
            _check_order(order, InvalidConfigError)
        if any(b <= a for a, b in zip(self.orders, self.orders[1:])):
            raise InvalidConfigError("orders must be strictly increasing")

    def c_values(self) -> np.ndarray:
        grid = np.geomspace(self.c_min, self.c_max, self.c_count)
        grid[0], grid[-1] = self.c_min, self.c_max
        return grid

    @property
    def grid_size(self) -> int:
        return self.c_count * len(self.widths)


def generate_grid(config: DatasetConfig) -> list:
    """All sequences of the configured grid, in c-major order.

    One Newton sweep gives the rules of every order; each order is then
    one `_center_fluxes` call over every (c, width).  On a numerical
    failure the error names the first failing solve by lowest order, then
    width, then c, and carries its `failing_order`.
    """
    cs = config.c_values()
    columns = []
    for order, (mu, w) in zip(config.orders,
                              gauss_legendre_halves(config.orders)):
        try:
            columns.append(_center_fluxes(mu, w, cs, config.widths))
        except NumericalFailureError as exc:
            raise _at_order(exc, order) from exc
    values = np.stack(columns, axis=-1)  # (c, width, order)
    return [Sequence(id=f"s{i * len(config.widths) + j:03d}", c=float(c),
                     width_mfp=width, orders=config.orders, values=values[i, j])
            for i, c in enumerate(cs) for j, width in enumerate(config.widths)]


def width_text(width: float) -> str:
    """The shortest text that reads back as ``width``, with an integral
    width written without ".0" (so 1 and 1.23456789, not 1.0 and 1.23457)."""
    return repr(float(width)).removesuffix(".0")


def dataset_metadata(config: DatasetConfig, seed: int, version: str) -> dict:
    """The sidecar's description of a grid of the unit slab (sigma_t = 1,
    source 1); ``seed`` is recorded only, as no value of the grid depends
    on it."""
    return {
        "c_min": config.c_min,
        "c_max": config.c_max,
        "c_count": config.c_count,
        "c_spacing": "log",
        "widths_mfp": ",".join(map(width_text, config.widths)),
        "orders": ",".join(str(n) for n in config.orders),
        "sigma_t": 1.0,
        "source": 1.0,
        "seed": seed,
        "sequence_count": config.grid_size,
        "artifact_version": version,
    }
