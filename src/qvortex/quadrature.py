"""Composite Gauss-Legendre quadrature on (0, p).

One fixed grid serves every integral in the package: weights rho*drho,
weights drho/rho, and plain drho. Gauss nodes are strictly interior to each
panel, so integrands carrying 1/rho or 1/rho^2 factors are always evaluated
at nonzero arguments; no special endpoint rule is needed because every
basis function vanishes linearly at rho = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .validation import check_positive, check_positive_int, readonly

__all__ = ["QuadratureGrid", "build_grid"]

ORDER_PER_PANEL_MIN = 2  # fewest Gauss points per panel build_grid accepts


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights of a composite Gauss-Legendre rule on (0, p)."""

    nodes: np.ndarray
    weights: np.ndarray
    p: float


@lru_cache(maxsize=8)
def _gauss_legendre(order):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    return tuple(readonly(arr) for arr in np.polynomial.legendre.leggauss(order))


def build_grid(p, panels=48, order_per_panel=8):
    """Composite Gauss-Legendre grid over `panels` uniform panels of [0, p].

    order_per_panel >= ORDER_PER_PANEL_MIN Gauss points per panel integrate
    polynomials of degree <= 2*order_per_panel - 1 exactly on each panel.
    """
    p = check_positive("p", p)
    panels = check_positive_int("panels", panels)
    order = check_positive_int("order_per_panel", order_per_panel, minimum=ORDER_PER_PANEL_MIN)

    ref_nodes, ref_weights = _gauss_legendre(order)
    width = p / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + 0.5 * width * (ref_nodes[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * width * ref_weights, (panels, order)).ravel()
    return QuadratureGrid(nodes=readonly(nodes), weights=readonly(weights), p=p)

