"""Analytic discrete-ordinates solution of the steady, mono-energetic,
isotropically scattering slab with a uniform source and vacuum boundaries.

The angle-discretized system
    mu_m dpsi_m/dx + sigma_t psi_m = (sigma_s / 2) sum_j w_j psi_j + Q/2
is solved exactly in space by the half-range analytical discrete-ordinates
(ADO) method (Barichello & Siewert, JQSRT 62 (1999) 665).  The symmetric
Gauss-Legendre quadrature pairs each direction mu with -mu, so the
homogeneous modes psi(x, +-mu) = Phi+-(nu, mu) exp(-x / nu) come from a
symmetric positive-definite eigenproblem of size N/2 on the positive
nodes; the particular solution is the constant Q / (2 sigma_t (1 - c)) in
every direction.  The only discretization is angular, so sweeping the
quadrature order N yields clean convergence sequences of the center
scalar flux phi(L/2) = sum_m w_m psi_m(L/2).

The uniform isotropic source Q is a total emission density; each
direction receives Q/2, which makes the infinite-medium scalar flux
Q / (sigma_t (1 - c)).

The slab is mirror symmetric about its center, so the modes decaying from
the far face carry the same coefficients as those decaying from the near
face, and the vacuum condition at x = 0 alone is an N/2 x N/2 system.  Every
exponential is exp(-distance / nu) <= 1 whatever the slab thickness.

The eigenmodes depend only on (N, sigma_t, c), not on the slab width, so
they are computed once per c and shared by every width of that c; the
boundary system, its conditioning check and the rounding bound stay per
solve.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidConfigError,
    NumericalFailureError,
    UnsupportedProblemError,
)
from .quadrature import gauss_legendre
from .sequences import Sequence

MIN_SN_ORDER = 4
MAX_SN_ORDER = 64

#: Boundary systems with a condition number above this abort the solve.
MAX_BOUNDARY_CONDITION = 1e12

#: Largest accepted bound on the center flux's relative rounding error.
_ROUNDING_TOL = 1e-10
_EPS = float(np.finfo(float).eps)

#: Eigenmode sets kept for reuse.  Grids are solved c-major, so this holds
#: every order of one c with room to spare.
_EIGENMODE_CACHE_SIZE = 64


@dataclass(frozen=True)
class SlabProblem:
    """Homogeneous slab: total cross section, scattering ratio c,
    width in mean free paths, and uniform isotropic source."""

    sigma_t: float = 1.0
    scattering_ratio: float = 0.0
    width: float = 1.0
    source: float = 1.0

    def __post_init__(self):
        if self.scattering_ratio >= 1.0:
            raise UnsupportedProblemError(
                f"scattering ratio c={self.scattering_ratio} >= 1 has no "
                "bounded particular solution"
            )
        if self.scattering_ratio < 0.0:
            raise InvalidArgumentError(f"c must be >= 0, got {self.scattering_ratio}")
        if self.sigma_t <= 0.0:
            raise InvalidArgumentError(f"sigma_t must be > 0, got {self.sigma_t}")
        if self.width <= 0.0:
            raise InvalidArgumentError(f"width must be > 0, got {self.width}")
        if self.source < 0.0:
            raise InvalidArgumentError(f"source must be >= 0, got {self.source}")

    @property
    def infinite_medium_flux(self) -> float:
        return self.source / (self.sigma_t * (1.0 - self.scattering_ratio))


@dataclass(frozen=True)
class SnSolution:
    problem: SlabProblem
    order: int
    center_scalar_flux: float


@lru_cache(maxsize=_EIGENMODE_CACHE_SIZE)
def _eigenmodes(order: int, sigma_t: float, c: float):
    """Half-range eigenmodes of the angle-discretized system, read-only.

    Returns the decay lengths nu (n = order/2 of them), the mode values
    Phi+ and Phi- on the n positive nodes (one column per mode) and each
    mode's weighted sum w . U, where U = Phi+ + Phi-.  They do not depend
    on the slab width, so every width of one (order, sigma_t, c) shares one
    eigen-solve.  Raises NumericalFailureError (with order and c, but no
    width) if an eigenvalue is not positive; a raised error is not cached.
    """
    quad = gauss_legendre(order)
    half = order // 2
    mu, w = quad.nodes[half:], quad.weights[half:]
    root_w = np.sqrt(w)
    v = mu * root_w
    # Symmetric positive definite: diag(mu^2) plus a non-negative rank-one
    # term, so no entry cancels even as c -> 1.  Eigenvalues (sigma_t nu)^2.
    eta, y = np.linalg.eigh(np.diag(mu * mu) + (c / (1.0 - c)) * np.outer(v, v))
    eta_min = float(np.min(eta))
    if not eta_min > 0.0:
        raise NumericalFailureError(
            f"half-range eigenvalue {eta_min:.3e} is not positive",
            {"eta_min": eta_min, "order": order, "c": c},
        )
    sigma_nu = np.sqrt(eta)
    u = y / (root_w * mu)[:, None]
    odd = mu[:, None] * u / sigma_nu
    modes = (sigma_nu / sigma_t, 0.5 * (u + odd), 0.5 * (u - odd), w @ u)
    for array in modes:
        array.flags.writeable = False
    return modes


def solve_sn(problem: SlabProblem, order: int) -> SnSolution:
    """Exact angle-discretized center flux for one quadrature order.

    Raises InvalidArgumentError for unsupported orders,
    UnsupportedProblemError for c >= 1 (at problem construction), and
    NumericalFailureError when an internal self-check trips (a
    non-positive eigenvalue, an ill-conditioned boundary system, or a
    rounding error bound above 1e-10 relative to the center flux).
    """
    if not isinstance(order, (int, np.integer)) or order % 2 != 0 or not (
            MIN_SN_ORDER <= order <= MAX_SN_ORDER):
        raise InvalidArgumentError(
            f"order must be even and in [{MIN_SN_ORDER}, {MAX_SN_ORDER}], "
            f"got {order}"
        )
    order = int(order)
    sigma_t = problem.sigma_t
    c = problem.scattering_ratio
    length = problem.width / sigma_t  # width given in mean free paths
    try:
        nu, phi_plus, phi_minus, w_u = _eigenmodes(order, float(sigma_t), float(c))
    except NumericalFailureError as exc:
        raise NumericalFailureError(
            str(exc), dict(exc.diagnostics, width=problem.width)) from exc
    psi_particular = 0.5 * problem.source / (sigma_t - c * sigma_t)

    # Mirror symmetry: the far-face coefficients equal the near-face ones,
    # so the vacuum condition at x = 0 alone fixes them.
    boundary = phi_plus + phi_minus * np.exp(-length / nu)
    condition = float(np.linalg.cond(boundary))
    if not np.isfinite(condition) or condition > MAX_BOUNDARY_CONDITION:
        raise NumericalFailureError(
            f"boundary system condition number {condition:.3e} exceeds "
            f"{MAX_BOUNDARY_CONDITION:.0e}",
            {"condition": condition, "order": order, "c": c,
             "width": problem.width},
        )
    coeff = np.linalg.solve(boundary, np.full(order // 2, -psi_particular))
    center = 2.0 * psi_particular + 2.0 * (
        w_u @ (coeff * np.exp(-0.5 * length / nu)))

    # The solve's rounding error, up to cond * eps relative to the
    # particular flux 2 psi_p, as a share of the center flux it cancels to.
    error_bound = float(condition * _EPS * 2.0 * psi_particular / abs(center)
                        if psi_particular else 0.0)
    if not error_bound <= _ROUNDING_TOL:
        raise NumericalFailureError(
            f"rounding error bound {error_bound:.3e} of the center flux "
            f"exceeds {_ROUNDING_TOL:.0e}",
            {"error_bound": error_bound, "condition": condition,
             "order": order, "c": c, "width": problem.width},
        )
    return SnSolution(problem=problem, order=order,
                      center_scalar_flux=float(center))


def generate_sequence(problem: SlabProblem, orders, seq_id: str = "seq") -> Sequence:
    """Center-flux sequence over strictly increasing quadrature orders."""
    orders = tuple(int(n) for n in orders)
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise InvalidArgumentError("orders must be strictly increasing")
    values = np.empty(len(orders))
    for i, order in enumerate(orders):
        try:
            values[i] = solve_sn(problem, order).center_scalar_flux
        except NumericalFailureError as exc:
            raise NumericalFailureError(
                f"order {order}: {exc}", dict(exc.diagnostics, failing_order=order)
            ) from exc
    return Sequence(id=seq_id, c=problem.scattering_ratio,
                    width_mfp=problem.width, orders=orders, values=values)


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

DEFAULT_WIDTHS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
DEFAULT_ORDERS = tuple(range(4, 53, 4))
REFERENCE_SEQUENCE_COUNT = 240


@dataclass(frozen=True)
class DatasetConfig:
    """Grid of (c, width) pairs swept over a fixed list of orders.

    The c grid is log-spaced with both endpoints pinned exactly; set
    ``jitter`` to resample each interior c log-uniformly within its grid
    bin (the only use the seed has).
    """

    c_min: float = 0.001
    c_max: float = 0.999
    c_count: int = 40
    widths: tuple = DEFAULT_WIDTHS
    orders: tuple = DEFAULT_ORDERS
    sigma_t: float = 1.0
    source: float = 1.0
    jitter: bool = False

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(float(w) for w in self.widths))
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        if not (0.0 < self.c_min <= self.c_max < 1.0):
            raise InvalidConfigError(
                f"need 0 < c_min <= c_max < 1, got [{self.c_min}, {self.c_max}]"
            )
        if self.c_count < 1 or (self.c_count < 2 and self.c_min != self.c_max):
            raise InvalidConfigError(f"c_count {self.c_count} too small for range")
        if len(self.widths) == 0 or any(w <= 0 for w in self.widths):
            raise InvalidConfigError("widths must be positive and non-empty")
        if len(self.orders) == 0:
            raise InvalidConfigError("orders must be non-empty")

    def c_values(self, rng_seed: int = 0) -> np.ndarray:
        grid = np.geomspace(self.c_min, self.c_max, self.c_count)
        grid[0], grid[-1] = self.c_min, self.c_max
        if self.jitter and self.c_count > 2:
            rng = np.random.default_rng(rng_seed)
            log = np.log(grid)
            lo = 0.5 * (log[:-1] + log[1:])
            jittered = rng.uniform(np.r_[log[0], lo], np.r_[lo, log[-1]])
            grid = np.exp(jittered)
            grid[0], grid[-1] = self.c_min, self.c_max
        return grid

    @property
    def grid_size(self) -> int:
        return self.c_count * len(self.widths)


def generate_grid(config: DatasetConfig, rng_seed: int = 0) -> list:
    """All sequences of the configured grid, in c-major order.

    Solves run serially, one c at a time, so all widths of one c reuse
    that c's eigenmodes.
    """
    sequences = []
    for c in config.c_values(rng_seed):
        for width in config.widths:
            problem = SlabProblem(sigma_t=config.sigma_t,
                                  scattering_ratio=float(c), width=width,
                                  source=config.source)
            sequences.append(generate_sequence(
                problem, config.orders, seq_id=f"s{len(sequences):03d}"))
    return sequences


def generate_dataset(config: DatasetConfig = None, rng_seed: int = 0) -> list:
    """The 240-sequence benchmark dataset on the documented default grid.

    Raises InvalidConfigError when the grid product is not 240; use
    generate_grid directly for reduced-scale datasets.
    """
    if config is None:
        config = DatasetConfig()
    if config.grid_size != REFERENCE_SEQUENCE_COUNT:
        raise InvalidConfigError(
            f"dataset grid must contain exactly {REFERENCE_SEQUENCE_COUNT} "
            f"(c, width) pairs, got {config.c_count} x {len(config.widths)} "
            f"= {config.grid_size}"
        )
    return generate_grid(config, rng_seed=rng_seed)


def dataset_metadata(config: DatasetConfig, rng_seed: int, version: str) -> dict:
    return {
        "c_min": config.c_min,
        "c_max": config.c_max,
        "c_count": config.c_count,
        "c_spacing": "jittered-log" if config.jitter else "log",
        "widths_mfp": ",".join(f"{w:g}" for w in config.widths),
        "orders": ",".join(str(n) for n in config.orders),
        "sigma_t": config.sigma_t,
        "source": config.source,
        "seed": rng_seed,
        "sequence_count": config.grid_size,
        "artifact_version": version,
    }
