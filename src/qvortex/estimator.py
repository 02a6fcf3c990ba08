"""Estimator-style front end following the scikit-learn conventions.

QVortexSolver packages the whole pipeline (quadrature grid, orthonormal
basis, constrained solve) behind the familiar fit/predict surface so it
composes with ecosystem tooling: constructor arguments are stored verbatim,
get_params/set_params follow the scikit-learn protocol (so sklearn.base.clone
and parameter sweeps work without this package importing sklearn), fitted
state lives in trailing-underscore attributes, and predict maps radii to
profile values of the fitted soliton.

Example
-------
>>> from qvortex import QVortexSolver
>>> solver = QVortexSolver(q0=100.0, n=1).fit()
>>> solver.omega_sq_            # doctest: +SKIP
0.4287...
>>> solver.predict([5.0, 10.0]) # doctest: +SKIP
array([...])
"""

from __future__ import annotations

import inspect

import numpy as np

from .basis import build_basis, evaluate
from .model import ModelParams, theory_bounds
from .quadrature import build_grid
from .solver import SolveConfig, minimize_on_sphere

__all__ = ["QVortexSolver", "NotFittedError"]


class NotFittedError(ValueError, AttributeError):
    """Raised when predict or solution attributes are used before fit."""


class QVortexSolver:
    """Compute one spinning-soliton ground state at a prescribed norm.

    Parameters (all stored verbatim; validation happens in fit)
    ----------
    lam, a_pot, b : potential coefficients, with b > a_pot^2/4
    n             : winding number, |n| >= 1
    p             : disk radius
    q0            : prescribed reduced norm
    basis_size    : number of orthonormalized sine modes
    quad_panels, quad_order : composite Gauss rule resolution
    grad_tol, max_iter, restarts, initial_guess, rng_seed :
        forwarded to SolveConfig

    Attributes set by fit
    ---------------------
    coeffs_, omega_sq_, phi_max_, residual_error_, iterations_, converged_,
    grad_norm_, solution_ (the full VortexSolution), basis_, model_params_,
    bounds_ (TheoryBounds for the fitted parameters)
    """

    def __init__(
        self,
        lam=1.0,
        a_pot=2.0,
        b=1.1,
        n=1,
        p=20.0,
        q0=100.0,
        basis_size=60,
        quad_panels=48,
        quad_order=8,
        grad_tol=1e-8,
        max_iter=20000,
        restarts=2,
        initial_guess="ring_bump",
        rng_seed=0,
    ):
        self.lam = lam
        self.a_pot = a_pot
        self.b = b
        self.n = n
        self.p = p
        self.q0 = q0
        self.basis_size = basis_size
        self.quad_panels = quad_panels
        self.quad_order = quad_order
        self.grad_tol = grad_tol
        self.max_iter = max_iter
        self.restarts = restarts
        self.initial_guess = initial_guess
        self.rng_seed = rng_seed

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        """Constructor parameters as a dict (scikit-learn protocol)."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set constructor parameters; unknown names raise ValueError."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for QVortexSolver; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def fit(self, X=None, y=None):
        """Solve the constrained minimization; returns self.

        X and y are accepted and ignored for pipeline compatibility: the
        problem is fully specified by the constructor parameters.
        """
        params = ModelParams(lam=self.lam, a_pot=self.a_pot, b=self.b, n=self.n, p=self.p)
        grid = build_grid(params.p, self.quad_panels, self.quad_order)
        basis = build_basis(params, self.basis_size, grid)
        config = SolveConfig(
            q0=self.q0,
            grad_tol=self.grad_tol,
            max_iter=self.max_iter,
            initial_guess=self.initial_guess,
            restarts=self.restarts,
            rng_seed=self.rng_seed,
        )
        solution = minimize_on_sphere(basis, params, config)
        self.model_params_ = params
        self.basis_ = basis
        self.solution_ = solution
        self.coeffs_ = solution.coeffs
        self.omega_sq_ = solution.omega_sq
        self.phi_max_ = solution.phi_max
        self.residual_error_ = solution.residual_error
        self.iterations_ = solution.iterations
        self.converged_ = solution.converged
        self.grad_norm_ = solution.grad_norm
        self.bounds_ = theory_bounds(params)
        return self

    def _check_fitted(self):
        if not hasattr(self, "solution_"):
            raise NotFittedError(
                "this QVortexSolver instance is not fitted yet; call fit() first"
            )

    def predict(self, rho):
        """Profile values phi(rho) of the fitted soliton at the given radii."""
        self._check_fitted()
        rho = np.asarray(rho, dtype=float)
        return evaluate(self.basis_, self.coeffs_, rho)

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"QVortexSolver({args})"
