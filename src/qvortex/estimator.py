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
from dataclasses import fields

import numpy as np

from .basis import build_basis, evaluate
from .model import BENCHMARK_Q0, ModelParams, theory_bounds
from .quadrature import build_grid
from .solver import SolveConfig, minimize_on_sphere

__all__ = ["QVortexSolver", "NotFittedError"]

_GRID_DEFAULTS = inspect.signature(build_grid).parameters

# The flat configuration of the pipeline, shared by this estimator and the
# command line: the fields of ModelParams, the discretization, and the
# numeric options of SolveConfig (q0 has no default; start_coeffs is not a
# number). Defaults are taken from where they are declared: the dataclasses
# and build_grid's signature.
PIPELINE_DEFAULTS = {
    **{f.name: f.default for f in fields(ModelParams)},
    "basis_size": 60,
    "quad_panels": _GRID_DEFAULTS["panels"].default,
    "quad_order": _GRID_DEFAULTS["order_per_panel"].default,
    **{f.name: f.default for f in fields(SolveConfig) if isinstance(f.default, (int, float))},
}

_PARAMS = {**PIPELINE_DEFAULTS, "q0": BENCHMARK_Q0}


def split_config(values):
    """ModelParams and the SolveConfig keyword arguments of a flat key mapping."""
    params = ModelParams(**{f.name: values[f.name] for f in fields(ModelParams)})
    solve = {f.name: values[f.name] for f in fields(SolveConfig) if f.name in values}
    return params, solve


class NotFittedError(ValueError, AttributeError):
    """Raised when predict or solution attributes are used before fit."""


class QVortexSolver:
    """Compute one spinning-soliton ground state at a prescribed norm.

    Parameters (keyword-only, all stored verbatim; validation happens in fit)
    ----------
    lam, a_pot, b, n, p :
        the fields of ModelParams, with its defaults
    basis_size, quad_panels, quad_order :
        number of orthonormalized sine modes and the composite Gauss rule
    grad_tol, max_iter, restarts, rng_seed :
        forwarded to SolveConfig, with its defaults
    q0 : prescribed reduced norm (default BENCHMARK_Q0 = 100.0)

    The solve starts from SolveConfig's default start, the ring bump.

    Attributes set by fit
    ---------------------
    coeffs_, omega_sq_, phi_max_, residual_error_, iterations_, converged_,
    grad_norm_, solution_ (the full VortexSolution), basis_, model_params_,
    bounds_ (TheoryBounds for the fitted parameters)
    """

    def __init__(self, **params):
        unknown = sorted(set(params) - set(_PARAMS))
        if unknown:
            raise TypeError(f"QVortexSolver got unexpected parameters {unknown}")
        for name, default in _PARAMS.items():
            setattr(self, name, params.get(name, default))

    __init__.__signature__ = inspect.Signature(
        [inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        + [
            inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY, default=default)
            for name, default in _PARAMS.items()
        ]
    )

    def get_params(self, deep=True):
        """Constructor parameters as a dict (scikit-learn protocol)."""
        return {name: getattr(self, name) for name in _PARAMS}

    def set_params(self, **params):
        """Set constructor parameters; unknown names raise ValueError."""
        for name, value in params.items():
            if name not in _PARAMS:
                raise ValueError(
                    f"invalid parameter {name!r} for QVortexSolver; "
                    f"valid parameters are {sorted(_PARAMS)}"
                )
            setattr(self, name, value)
        return self

    def fit(self, X=None, y=None):
        """Solve the constrained minimization; returns self.

        X and y are accepted and ignored for pipeline compatibility: the
        problem is fully specified by the constructor parameters.
        """
        params, solve = split_config(self.get_params())
        grid = build_grid(params.p, self.quad_panels, self.quad_order)
        basis = build_basis(params, self.basis_size, grid)
        solution = minimize_on_sphere(basis, params, SolveConfig(**solve))
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
