"""Orthonormal spectral basis built from sines by Gram-Schmidt.

Raw sine modes s_k(rho) = sin(k*pi*rho/p) satisfy the Dirichlet conditions
but are not orthogonal under the weighted inner product

    (u, v) = 4*pi * int_0^p rho * u(rho) * v(rho) drho,

which is the natural product here because it turns the prescribed-norm
constraint 4*pi*int(rho*phi^2) = Q0 into a plain sum of squared
coefficients. Gram-Schmidt in mode order produces psi_j =
sum_{k<=j} G[j,k] * s_k with (psi_i, psi_j) = delta_ij. It is computed as
the inverse Cholesky factor: with W[j,k] = (s_j, s_k) = L @ L.T, G = inv(L)
(Trefethen & Bau, Numerical Linear Algebra, Lectures 8 and 23). The
lower-triangular G is the basis' defining data, so first and second
derivatives of any expansion are available analytically through the
sine/cosine series rather than by numerical differentiation.

Off the quadrature grid an expansion is summed as the sine series
sum_k c_k sin(k*x), x = pi*rho/p, with c = coeffs @ G, by Clenshaw's
recurrence b_k = c_k + 2*cos(x)*b_{k+1} - b_{k+2}: the series is
sin(x)*b_1, and the cosine series of the derivative is cos(x)*b_1 - b_2
(Press et al., Numerical Recipes, 3rd ed., Sec. 5.4). That takes one sine
and one cosine per point instead of an m-column table of each. Its
rounding error grows with m toward rho = 0 and rho = p, where cos(x) is
near +-1. Relative to sum_k |c_k|*(k*pi/p)^j for derivative j it reached
8.3e-13 over 40 random expansions at m = 180, and about 1e-15 on
converged profiles.

Two Galerkin matrices are precomputed on the shared quadrature grid:

    K[i,j] = int rho * psi_i' * psi_j' drho      (stiffness)
    C[i,j] = int psi_i * psi_j / rho drho        (centrifugal, n-independent)

All inner products use the grid, including C, which has no elementary
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureGrid
from .validation import check_coeffs, check_positive_int, readonly

__all__ = ["SpectralBasis", "build_basis", "evaluate", "evaluate_derivatives"]

_PIVOT_TOL = 1e-12
_TOO_COARSE = "quadrature grid too coarse to keep the sine modes independent"


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormalized sine basis with precomputed Galerkin matrices.

    gs_matrix is lower triangular: psi_j = sum_k gs_matrix[j, k] * s_k. It is
    Gram-Schmidt in mode order, computed as the inverse Cholesky factor of
    the raw modes' Gram matrix, so its diagonal is positive.
    psi_nodes / dpsi_nodes / d2psi_nodes sample psi_j and its first two
    derivatives at the quadrature nodes (row j = function j); they are
    derived from gs_matrix and stored for fast functional evaluation.
    """

    m: int
    gs_matrix: np.ndarray
    k_matrix: np.ndarray
    c_matrix: np.ndarray
    grid: QuadratureGrid
    p: float
    psi_nodes: np.ndarray
    dpsi_nodes: np.ndarray
    d2psi_nodes: np.ndarray
    orthonormality_residual: float


def _inverse_cholesky(w_gram):
    """Lower-triangular G with G @ w_gram @ G.T = I, as G = inv(L), w_gram = L @ L.T.

    This is Gram-Schmidt of the identity in mode order under the metric
    w_gram, and diag(L) are its pivots. Raises when the factorization fails
    or a pivot falls below the independence threshold, which happens only
    when the quadrature grid is too coarse to keep the sine modes distinct.
    """
    try:
        low = np.linalg.cholesky(w_gram)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Gram-Schmidt pivot not positive ({exc}); {_TOO_COARSE}") from exc
    pivots = np.diag(low)
    raw_norms = np.sqrt(np.diag(w_gram))
    small = np.flatnonzero(~(pivots > _PIVOT_TOL * raw_norms))
    if small.size:
        j = small[0]
        raise RuntimeError(
            f"Gram-Schmidt pivot {pivots[j]:.3e} below {_PIVOT_TOL:.0e} * "
            f"{raw_norms[j]:.3e} at mode {j + 1}; {_TOO_COARSE}"
        )
    return np.linalg.inv(low)


def build_basis(params, m, grid):
    """Orthonormalize the first m sine modes and assemble K and C.

    Requires the grid to resolve mode m: at least 6 nodes per wavelength,
    i.e. len(nodes) >= 3*m.
    """
    m = check_positive_int("m", m)
    if grid.p != params.p:
        raise ValueError(f"grid radius {grid.p} does not match params.p {params.p}")
    nodes_per_wavelength = 2.0 * grid.nodes.size / m
    if nodes_per_wavelength < 6.0:
        raise ValueError(
            f"grid too coarse for basis size m={m}: {nodes_per_wavelength:.2f} "
            "nodes per wavelength of the highest mode (need >= 6)"
        )

    # One sine and one cosine table; the k and k^2 factors of the derivatives
    # go onto the m x m factors, which keeps the m x nodes temporaries few.
    freq = np.arange(1, m + 1) * (np.pi / params.p)
    arg = freq[:, None] * grid.nodes[None, :]
    s = np.sin(arg)
    c = np.cos(arg)
    w_rho = grid.weights * grid.nodes
    w_gram = 4.0 * np.pi * (s * w_rho) @ s.T

    g = _inverse_cholesky(w_gram)
    resid = np.max(np.abs(g @ w_gram @ g.T - np.eye(m)))

    k_raw = np.outer(freq, freq) * ((c * w_rho) @ c.T)
    c_raw = (s * (grid.weights / grid.nodes)) @ s.T
    k_mat = g @ k_raw @ g.T
    c_mat = g @ c_raw @ g.T
    k_mat = 0.5 * (k_mat + k_mat.T)
    c_mat = 0.5 * (c_mat + c_mat.T)

    return SpectralBasis(
        m=m,
        gs_matrix=readonly(g),
        k_matrix=readonly(k_mat),
        c_matrix=readonly(c_mat),
        grid=grid,
        p=params.p,
        psi_nodes=readonly(g @ s),
        dpsi_nodes=readonly((g * freq) @ c),
        d2psi_nodes=readonly((g * -(freq**2)) @ s),
        orthonormality_residual=float(resid),
    )


def _sine_coeffs(basis, coeffs):
    a = check_coeffs("coeffs", coeffs, basis.m)
    return a @ basis.gs_matrix


def _radii(basis, rho):
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all((rho_arr >= 0.0) & (rho_arr <= basis.p)):
        raise ValueError(f"rho outside [0, {basis.p}]")
    return rho_arr


def _clenshaw(coeffs, two_cos):
    """(b_1, b_2) of b_k = coeffs[k-1] + two_cos * b_{k+1} - b_{k+2}, b_{m+1} = b_{m+2} = 0.

    coeffs may carry trailing axes (one series per column), which broadcast
    against two_cos. With two_cos = 2*cos(x), sum_k coeffs[k-1]*sin(k*x) is
    sin(x)*b_1 and sum_k coeffs[k-1]*cos(k*x) is cos(x)*b_1 - b_2.
    """
    shape = np.broadcast_shapes(coeffs.shape[1:], two_cos.shape)
    b1, b2, new = np.zeros(shape), np.zeros(shape), np.empty(shape)
    for ck in coeffs[::-1]:
        np.multiply(two_cos, b1, out=new)
        new += ck
        new -= b2
        b1, b2, new = new, b1, b2
    return b1, b2


def evaluate(basis, coeffs, rho):
    """Profile value phi(rho) = sum_j coeffs[j] * psi_j(rho).

    rho may be a scalar or ndarray in the closed interval [0, p]. The
    Dirichlet endpoints return exactly 0.
    """
    rho_arr = _radii(basis, rho)
    x = rho_arr * (np.pi / basis.p)
    b1, _ = _clenshaw(_sine_coeffs(basis, coeffs), 2.0 * np.cos(x))
    values = np.sin(x) * b1
    values[(rho_arr == 0.0) | (rho_arr == basis.p)] = 0.0
    return values if np.ndim(rho) else float(values[0])


def evaluate_derivatives(basis, coeffs, rho):
    """First and second radial derivatives (phi_rho, phi_rhorho) at rho.

    rho may be a scalar or ndarray in the closed interval [0, p]; at the
    endpoints the values are the limits of the differentiated sine series.
    """
    rho_arr = _radii(basis, rho)
    c = _sine_coeffs(basis, coeffs)
    freq = np.arange(1, basis.m + 1) * (np.pi / basis.p)
    x = rho_arr * (np.pi / basis.p)
    cos_x = np.cos(x)
    # one recurrence for the cosine series of phi_rho and the sine series of phi_rhorho
    b1, b2 = _clenshaw(np.stack((c * freq, -c * freq**2), axis=1)[..., None], 2.0 * cos_x)
    d1 = cos_x * b1[0] - b2[0]
    d2 = np.sin(x) * b1[1]
    if np.ndim(rho):
        return d1, d2
    return float(d1[0]), float(d2[0])
