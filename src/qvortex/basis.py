"""Raw sine basis with its Gram, stiffness and centrifugal matrices.

A profile is the sine series phi = sum_k c_k s_k, s_k(rho) = sin(k*pi*rho/p),
and its raw coefficients c are the solver's coordinates. Under the weighted
inner product (u, v) = 4*pi * int_0^p rho*u*v drho the prescribed norm
4*pi*int(rho*phi^2) = Q0 reads c.W.c = Q0, W[j,k] = (s_j, s_k). The Cholesky
factorization W = L @ L.T guards against a grid too coarse to keep the modes
independent: diag(L) are the pivots of Gram-Schmidt in mode order (Trefethen
& Bau, Numerical Linear Algebra, Lectures 8 and 23). Derivatives of an
expansion are summed analytically from the sine/cosine series.

Off the quadrature grid an expansion is summed as the sine series
sum_k c_k sin(k*x), x = pi*rho/p, on a uniform grid rho_i = i*p/J (the
solver's output profile and the finite-difference oracle's grid). There phi
is a type-I discrete sine transform and phi' a cosine transform, so
evaluate_uniform takes all J + 1 values of phi, and
evaluate_uniform_derivatives those of phi' and phi'', from one real FFT of
length 2J (Press et al., Numerical Recipes, 3rd ed., Sec. 12.4).

Three Galerkin matrices are precomputed on the shared quadrature grid:

    W[i,j] = 4*pi * int rho * s_i * s_j drho   (Gram, the norm's metric)
    K[i,j] = int rho * s_i' * s_j' drho        (stiffness)
    C[i,j] = int s_i * s_j / rho drho          (centrifugal, n-independent)

All inner products use the grid, including C, which has no elementary
closed form. The basis keeps one trigonometric table at the nodes:
cos(l*x) for l = 0..2m and sin(l*x) for l = 0..m, (3m + 2) x N doubles
(559 KB at m = 60, 8.9 MB at m = 240), of which only the rows l <= 8 are
evaluated directly and the rest follow by the doubling recurrences
cos((t+k)x) = 2*cos(t*x)*cos(k*x) - cos((t-k)*x) and its sine analogue.
By sin(j*x)*sin(k*x) = [cos((j-k)*x) - cos((j+k)*x)]/2 and
cos(j*x)*cos(k*x) = [cos((j-k)*x) + cos((j+k)*x)]/2, any weighted product
of two sine modes, or of two cosine modes, is a Toeplitz minus (plus) Hankel
matrix of the cosine moments M_l = sum_i v_i*cos(l*x_i) of the weights v
(Olver & Townsend, SIAM Rev. 55 (2013) 462). So W and K come from the
moments of w*rho and C from those of w/rho, one (2m + 1) x N x 2 product
and no m x N x m product, and the solver's Hessian comes from the moments
of its curvature weights. The derivatives of the basis functions are not
tabulated: an expansion's phi' and phi'' at the nodes are
sum_k c_k*f_k*cos(k*x) and -sum_k c_k*f_k^2*sin(k*x), f_k = k*pi/p, summed
on the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .quadrature import QuadratureGrid
from .validation import check_coeffs, check_positive_int, freeze

__all__ = [
    "SpectralBasis",
    "build_basis",
    "evaluate_uniform",
    "evaluate_uniform_derivatives",
]

_DIRECT_ROWS = 8  # rows of the trigonometric tables taken from np.cos / np.sin
_PIVOT_TOL = 1e-12
_TOO_COARSE = "quadrature grid too coarse to keep the sine modes independent"


@dataclass(frozen=True)
class SpectralBasis:
    """Sine basis with precomputed Galerkin matrices W, K and C.

    w_cholesky is the lower Cholesky factor L of W = L @ L.T, and
    pivot_ratio = min_j L_jj / sqrt(W_jj) the share of the most nearly
    dependent mode that is independent of the lower ones.
    sin_nodes[k - 1] = sin(k*pi*rho/p), k = 1..m, and cos_nodes[l] =
    cos(l*pi*rho/p), l = 0..2m, are the tables at the nodes: phi =
    c @ sin_nodes there, the moments of cos_nodes give every weighted product
    of two sine modes, and the two tables give the derivatives of an expansion.
    """

    m: int
    w_matrix: np.ndarray
    k_matrix: np.ndarray
    c_matrix: np.ndarray
    grid: QuadratureGrid
    p: float
    sin_nodes: np.ndarray
    cos_nodes: np.ndarray
    w_cholesky: np.ndarray
    pivot_ratio: float

    @cached_property
    def w_cholesky_inverse(self):
        """L^-1, W = L @ L.T: takes a gradient in c to orthonormal coordinates,
        and L^-T.L^-1 applies W^-1.

        Formed on first use by one solve, as numpy has no triangular solver.
        """
        return freeze(np.linalg.solve(self.w_cholesky, np.eye(self.m)))

    @cached_property
    def ground_modes(self):
        """The solver's linear ground modes of this basis, by n^2, filled as cold solves need them."""
        return {}


def _checked_cholesky(w_gram):
    """(L, min_j L_jj / sqrt(w_gram_jj)) for the Cholesky factor w_gram = L @ L.T.

    Raises when the factorization fails or a pivot falls below the
    independence threshold, which happens only when the quadrature grid is
    too coarse to keep the sine modes distinct.
    """
    try:
        low = np.linalg.cholesky(w_gram)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Cholesky pivot not positive ({exc}); {_TOO_COARSE}") from exc
    pivots = np.diag(low)
    raw_norms = np.sqrt(np.diag(w_gram))
    small = np.flatnonzero(~(pivots > _PIVOT_TOL * raw_norms))
    if small.size:
        j = small[0]
        raise RuntimeError(
            f"Cholesky pivot {pivots[j]:.3e} below {_PIVOT_TOL:.0e} * "
            f"{raw_norms[j]:.3e} at mode {j + 1}; {_TOO_COARSE}"
        )
    return low, float(np.min(pivots / raw_norms))


@lru_cache(maxsize=8)
def _product_indices(m):
    """Indices |j - k| and j + k of the m x m sine-mode products, modes from 1.

    By sin(j*x)*sin(k*x) = [cos((j-k)*x) - cos((j+k)*x)]/2 and
    cos(j*x)*cos(k*x) = [cos((j-k)*x) + cos((j+k)*x)]/2, a weighted product
    of two modes gathers two cosine moments with them: the Galerkin
    matrices in build_basis and the solver's Hessian both do. They depend
    on m alone, so they are built once per basis size.
    """
    j = np.arange(1, m + 1)
    diff, total = np.abs(j[:, None] - j[None, :]), j[:, None] + j[None, :]
    diff.setflags(write=False)
    total.setflags(write=False)
    return diff, total


def _trig_tables(x, m):
    """(cos(l*x) for l = 0..2m, sin(l*x) for l = 0..m), one row per l.

    Rows l <= _DIRECT_ROWS are taken from np.cos and np.sin. With rows
    0..t known, rows t+1..2t follow as one block from
    cos((t+k)x) = 2*cos(t*x)*cos(k*x) - cos((t-k)*x) and
    sin((t+k)x) = 2*sin(t*x)*cos(k*x) - sin((t-k)*x), k = 1..t, so t
    doubles per block. Against np.cos and np.sin the rows are off by at most
    3.7e-14 (cosine) and 1.9e-14 (sine) at m = 60 on 384 nodes, and by
    2.7e-13 and 8.2e-14 at m = 240 on 1536 nodes.
    """
    cos_table = np.empty((2 * m + 1, x.size))
    sin_table = np.empty((m + 1, x.size))
    t = min(_DIRECT_ROWS, 2 * m)
    arg = np.multiply(np.arange(t + 1)[:, None], x, out=cos_table[: t + 1])
    np.sin(arg[: min(t, m) + 1], out=sin_table[: min(t, m) + 1])
    np.cos(arg, out=arg)
    for table, rows in ((cos_table, 2 * m), (sin_table, m)):
        top = t
        while top < rows:
            k = min(top, rows - top)
            block = table[top + 1 : top + k + 1]
            np.multiply(2.0 * table[top], cos_table[1 : k + 1], out=block)
            block -= table[top - k : top][::-1]
            top += k
    return cos_table, sin_table


def build_basis(params, m, grid):
    """W, K and C of the first m sine modes, whose independence _checked_cholesky checks.

    Requires the grid to resolve mode m: at least 6 nodes per wavelength,
    i.e. len(nodes) >= 3*m. W, K and C are gathered from the cosine moments
    of w*rho and w/rho with the index pair of _product_indices. A basis of
    modes (rho/p)*sin(k*x) keeps this assembly: the factor rho/p turns each
    sine-sine product into moments of the weights times rho^2/p^2 (the
    cross terms of its derivatives, sin*cos, into sine moments); a mode
    outside the sine family, such as a corner mode chi, adds one row and
    column by a direct O(m*N) product.
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

    freq = np.arange(1, m + 1) * (np.pi / params.p)
    cos_table, sin_table = _trig_tables(grid.nodes * (np.pi / params.p), m)
    # half the cosine moments of w*rho (for W and K) and of w/rho (for C)
    half = 0.5 * grid.weights
    m_rho, m_inv = np.stack((half * grid.nodes, half / grid.nodes)) @ cos_table.T
    diff, total = _product_indices(m)
    near, far = m_rho[diff], m_rho[total]
    w_gram = (4.0 * np.pi) * (near - far)
    w_cholesky, pivot_ratio = _checked_cholesky(w_gram)
    return SpectralBasis(
        m=m,
        w_matrix=freeze(w_gram),
        k_matrix=freeze(np.outer(freq, freq) * (near + far)),
        c_matrix=freeze(m_inv[diff] - m_inv[total]),
        grid=grid,
        p=params.p,
        sin_nodes=freeze(sin_table[1:]),
        cos_nodes=freeze(cos_table),
        w_cholesky=freeze(w_cholesky),
        pivot_ratio=pivot_ratio,
    )


def _uniform_transform(rows, intervals):
    """Real FFT, of length 2*intervals, of series coefficients placed at indices 1..m.

    rows is one coefficient vector or a stack of them (last axis k = 1..m).
    At x_i = pi*i/intervals the transform is sum_k row_k*exp(-1j*k*x_i): its
    real part is the cosine series and minus its imaginary part the sine
    series. Modes k >= 2*intervals alias onto k mod 2*intervals and are
    folded there first.
    """
    intervals = check_positive_int("intervals", intervals)
    length = 2 * intervals
    m = rows.shape[-1]
    padded = np.zeros(rows.shape[:-1] + (-(-(m + 1) // length) * length,))
    padded[..., 1 : m + 1] = rows
    if padded.shape[-1] > length:
        padded = padded.reshape(rows.shape[:-1] + (-1, length)).sum(axis=-2)
    return np.fft.rfft(padded)


def evaluate_uniform(basis, coeffs, intervals):
    """Profile phi at the intervals + 1 radii rho_i = i*p/intervals, by one FFT.

    phi is minus the imaginary part of the transform of the coefficients (a
    type-I discrete sine transform). Both ends are exactly 0.
    """
    values = -_uniform_transform(check_coeffs("coeffs", coeffs, basis.m), intervals).imag
    values[0] = values[-1] = 0.0
    return values


def evaluate_uniform_derivatives(basis, coeffs, intervals):
    """(phi_rho, phi_rhorho) at the radii of evaluate_uniform, by one two-row FFT.

    With f_k = k*pi/p, phi_rho = sum_k c_k*f_k*cos(k*x) is the real part of
    the transform of c*f and phi_rhorho = -sum_k c_k*f_k^2*sin(k*x) the
    imaginary part of that of c*f^2. At the ends they are the series' limits:
    phi_rhorho is exactly 0, phi_rho is sum_k c_k*f_k at rho = 0 and
    sum_k (-1)^k*c_k*f_k at rho = p.
    """
    c = check_coeffs("coeffs", coeffs, basis.m)
    freq = np.arange(1, basis.m + 1) * (np.pi / basis.p)
    first, second = _uniform_transform(np.stack((c * freq, c * freq**2)), intervals)
    return first.real, second.imag
