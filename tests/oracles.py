"""Independent reference solutions used to check the analytic solver.

Diamond-difference discrete ordinates on a uniform spatial mesh, solved
for the scattering source with GMRES (Saad & Schultz 1986), then
Richardson-extrapolated to zero mesh width from three refinement levels.
On a uniform mesh the transport sweep of one ordinate is a first-order
linear recurrence over the cells, so each sweep is one
``scipy.signal.lfilter`` call.  The quadrature comes from numpy's
leggauss, so this path shares nothing with the package solver beyond the
problem definition.  The same Q/2 isotropic source convention applies.
"""

import numpy as np
from scipy.signal import lfilter
from scipy.sparse.linalg import LinearOperator, gmres


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
