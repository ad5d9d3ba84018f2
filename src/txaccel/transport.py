"""Analytic discrete-ordinates solution of the steady, mono-energetic,
isotropically scattering slab with a uniform source and vacuum boundaries.

The angle-discretized system
    mu_m dpsi_m/dx + sigma_t psi_m = (sigma_s / 2) sum_j w_j psi_j + Q/2
is solved exactly in space: eigen-decomposition of the first-order system
matrix gives the homogeneous modes, the particular solution is the
constant Q / (2 sigma_t (1 - c)) in every direction, and the vacuum
boundary conditions fix the modal coefficients.  The only discretization
is angular, so sweeping the quadrature order N yields clean convergence
sequences of the center scalar flux phi(L/2) = sum_m w_m psi_m(L/2).

The uniform isotropic source Q is a total emission density; each
direction receives Q/2, which makes the infinite-medium scalar flux
Q / (sigma_t (1 - c)).

Growing eigenmodes are anchored at the far face (their coefficients
multiply exp(lambda (x - L))) so every exponential stays <= 1 in
magnitude regardless of slab thickness.

The eigenmodes depend only on (N, sigma_t, c), not on the slab width, so
they are computed once per c and shared by every width of that c; the
boundary system, its conditioning check and the symmetry check stay per
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

_EIG_TOL = 1e-10
_SYMMETRY_TOL = 1e-10

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
    """Quadrature nodes and weights and the real eigenvalues and
    eigenvectors of the angle-discretized system matrix, all read-only.

    They do not depend on the slab width, so every width of one
    (order, sigma_t, c) shares one eigen-solve.  Raises
    NumericalFailureError (with order and c, but no width) on complex or
    unpaired eigenvalues; a raised error is not cached.
    """
    quad = gauss_legendre(order)
    mu, w = quad.nodes, quad.weights
    sigma_s = c * sigma_t

    m_matrix = (-sigma_t * np.eye(order) + 0.5 * sigma_s * np.outer(
        np.ones(order), w)) / mu[:, None]
    eigvals, eigvecs = np.linalg.eig(m_matrix)

    imag_residual = float(np.max(np.abs(np.imag(eigvals))))
    if imag_residual > _EIG_TOL:
        raise NumericalFailureError(
            f"complex eigenvalues (imaginary residual {imag_residual:.3e})",
            {"imag_residual": imag_residual, "order": order, "c": c},
        )
    lam = np.real(eigvals)
    vecs = np.real(eigvecs)

    # Symmetric quadrature makes the spectrum come in +- pairs.
    lam_sorted = np.sort(lam)
    pairing = float(np.max(np.abs(lam_sorted + lam_sorted[::-1])))
    if pairing > _EIG_TOL * max(1.0, float(np.max(np.abs(lam)))):
        raise NumericalFailureError(
            f"eigenvalues not paired +- (residual {pairing:.3e})",
            {"pairing_residual": pairing, "order": order, "c": c},
        )
    lam.flags.writeable = False
    vecs.flags.writeable = False
    return mu, w, lam, vecs


class _ModalSolution:
    """Eigen-expansion of one solve, able to evaluate phi anywhere."""

    def __init__(self, problem: SlabProblem, order: int):
        sigma_t = problem.sigma_t
        sigma_s = problem.scattering_ratio * sigma_t
        length = problem.width / sigma_t  # width given in mean free paths
        try:
            mu, w, lam, vecs = _eigenmodes(order, float(sigma_t),
                                           float(problem.scattering_ratio))
        except NumericalFailureError as exc:
            raise NumericalFailureError(
                str(exc), dict(exc.diagnostics, width=problem.width)) from exc

        psi_particular = 0.5 * problem.source / (sigma_t - sigma_s)

        # Vacuum boundaries: incoming flux zero on both faces.  Decaying
        # modes are anchored at x=0, growing modes at x=L.
        boundary = np.empty((order, order))
        rhs = np.full(order, -psi_particular)
        # Select exponents before exponentiating; all arguments are <= 0.
        e_left = np.exp(np.where(lam < 0.0, 0.0, -lam * length))
        e_right = np.exp(np.where(lam < 0.0, lam * length, 0.0))
        incoming_left = mu > 0.0
        boundary[incoming_left] = vecs[incoming_left] * e_left
        boundary[~incoming_left] = vecs[~incoming_left] * e_right

        condition = float(np.linalg.cond(boundary))
        if not np.isfinite(condition) or condition > MAX_BOUNDARY_CONDITION:
            raise NumericalFailureError(
                f"boundary system condition number {condition:.3e} exceeds "
                f"{MAX_BOUNDARY_CONDITION:.0e}",
                {"condition": condition, "order": order,
                 "c": problem.scattering_ratio, "width": problem.width},
            )
        coeff = np.linalg.solve(boundary, rhs)

        self.problem = problem
        self.order = order
        self.weights = w
        self.lam = lam
        self.vecs = vecs
        self.coeff = coeff
        self.length = length
        self.psi_particular = psi_particular

    def scalar_flux(self, x: float) -> float:
        modal = np.exp(np.where(self.lam < 0.0, self.lam * x,
                                self.lam * (x - self.length)))
        psi = self.vecs @ (self.coeff * modal) + self.psi_particular
        return float(self.weights @ psi)


def solve_sn(problem: SlabProblem, order: int) -> SnSolution:
    """Exact angle-discretized center flux for one quadrature order.

    Raises InvalidArgumentError for unsupported orders,
    UnsupportedProblemError for c >= 1 (at problem construction), and
    NumericalFailureError when an internal self-check trips
    (complex/unpaired eigenvalues, ill-conditioned boundary system,
    broken left-right symmetry).
    """
    if not isinstance(order, (int, np.integer)) or order % 2 != 0 or not (
            MIN_SN_ORDER <= order <= MAX_SN_ORDER):
        raise InvalidArgumentError(
            f"order must be even and in [{MIN_SN_ORDER}, {MAX_SN_ORDER}], "
            f"got {order}"
        )
    modal = _ModalSolution(problem, int(order))
    half = modal.length / 2.0
    center = modal.scalar_flux(half)

    # The problem is mirror symmetric about the center plane.
    delta = modal.length / 100.0
    left = modal.scalar_flux(half - delta)
    right = modal.scalar_flux(half + delta)
    asymmetry = abs(left - right) / max(1.0, abs(left), abs(right))
    if asymmetry > _SYMMETRY_TOL:
        raise NumericalFailureError(
            f"center symmetry self-check failed (relative asymmetry "
            f"{asymmetry:.3e})",
            {"asymmetry": asymmetry, "order": order,
             "c": problem.scattering_ratio, "width": problem.width},
        )
    return SnSolution(problem=problem, order=int(order),
                      center_scalar_flux=center)


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
