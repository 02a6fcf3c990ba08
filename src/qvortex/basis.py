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


def _sine_tables(m, p, rho):
    """Rows k = 1..m of sin(k*pi*rho/p), its derivative, and 2nd derivative."""
    k = np.arange(1, m + 1)
    freq = k[:, None] * (np.pi / p)
    arg = freq * rho[None, :]
    s = np.sin(arg)
    ds = freq * np.cos(arg)
    d2s = -(freq**2) * np.sin(arg)
    return s, ds, d2s


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

    s, ds, d2s = _sine_tables(m, params.p, grid.nodes)
    w_rho = grid.weights * grid.nodes
    w_gram = 4.0 * np.pi * (s * w_rho) @ s.T

    g = _inverse_cholesky(w_gram)
    resid = np.max(np.abs(g @ w_gram @ g.T - np.eye(m)))

    k_raw = (ds * w_rho) @ ds.T
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
        dpsi_nodes=readonly(g @ ds),
        d2psi_nodes=readonly(g @ d2s),
        orthonormality_residual=float(resid),
    )


def _sine_coeffs(basis, coeffs):
    a = check_coeffs("coeffs", coeffs, basis.m)
    return a @ basis.gs_matrix


def _radii(basis, rho):
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho_arr < 0.0) or np.any(rho_arr > basis.p):
        raise ValueError(f"rho outside [0, {basis.p}]")
    return rho_arr


def evaluate(basis, coeffs, rho):
    """Profile value phi(rho) = sum_j coeffs[j] * psi_j(rho).

    rho may be a scalar or ndarray in the closed interval [0, p]. The
    Dirichlet endpoints return exactly 0.
    """
    rho_arr = _radii(basis, rho)
    c = _sine_coeffs(basis, coeffs)
    k = np.arange(1, basis.m + 1)
    values = np.sin(rho_arr[:, None] * (k * (np.pi / basis.p))[None, :]) @ c
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
    arg = rho_arr[:, None] * freq[None, :]
    d1 = np.cos(arg) @ (c * freq)
    d2 = -np.sin(arg) @ (c * freq**2)
    if np.ndim(rho):
        return d1, d2
    return float(d1[0]), float(d2[0])
