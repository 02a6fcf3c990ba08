import inspect

import numpy as np
import pytest

from qvortex import ModelParams, NotFittedError, QVortexSolver, SolveConfig
from qvortex.cli import CONFIG_DEFAULTS


@pytest.fixture(scope="module")
def fitted():
    return QVortexSolver(q0=100.0).fit()


class TestParamsProtocol:
    def test_get_params_round_trip(self):
        est = QVortexSolver(q0=50.0, n=2)
        params = est.get_params()
        assert params["q0"] == 50.0 and params["n"] == 2
        clone = QVortexSolver(**params)
        assert clone.get_params() == params

    def test_set_params_chains_and_validates(self):
        est = QVortexSolver()
        assert est.set_params(q0=7.0).q0 == 7.0
        with pytest.raises(ValueError, match="invalid parameter"):
            est.set_params(qq0=1.0)
        with pytest.raises(TypeError, match="qq0"):
            QVortexSolver(qq0=1.0)

    def test_cli_and_estimator_share_keys_and_defaults(self):
        est_defaults = QVortexSolver().get_params()
        assert list(inspect.signature(QVortexSolver).parameters) == list(est_defaults)
        assert set(CONFIG_DEFAULTS) == set(est_defaults) - {"q0", "initial_guess"} | {
            "output_dir"
        }
        model, solve = ModelParams(), SolveConfig(q0=1.0)
        for name, default in est_defaults.items():
            if name in CONFIG_DEFAULTS:
                assert CONFIG_DEFAULTS[name] == default, name
            for source in (model, solve):
                if hasattr(source, name) and name != "q0":
                    assert getattr(source, name) == default, name

    def test_sklearn_clone_compatibility(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = QVortexSolver(q0=42.0, basis_size=30)
        clone = sklearn_base.clone(est)
        assert clone is not est
        assert clone.get_params() == est.get_params()


class TestFitPredict:
    def test_fit_sets_solution_attributes(self, fitted):
        assert fitted.converged_
        assert fitted.omega_sq_ == pytest.approx(0.4287, abs=0.02)
        assert fitted.phi_max_ == pytest.approx(0.9963, rel=0.02)
        assert fitted.coeffs_.shape == (60,)
        assert fitted.bounds_.omega_sq_max == pytest.approx(2.2)

    def test_fit_returns_self(self):
        est = QVortexSolver(q0=1.0, basis_size=20, quad_panels=16, quad_order=6)
        assert est.fit() is est

    def test_predict_matches_solution_profile(self, fitted):
        rho = np.linspace(0.0, 20.0, 11)
        values = fitted.predict(rho)
        assert values[0] == 0.0 and values[-1] == 0.0
        assert np.max(np.abs(values)) <= fitted.phi_max_ * (1.0 + 1e-12)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            QVortexSolver().predict(1.0)

    def test_invalid_parameters_surface_at_fit_time(self):
        est = QVortexSolver(b=0.9)  # stored verbatim, rejected on fit
        with pytest.raises(ValueError, match="a_pot"):
            est.fit()

    def test_custom_initial_guess_rejected(self):
        # SolveConfig needs custom_coeffs for "custom"; the estimator has none
        with pytest.raises(ValueError, match=r"custom.*\('ring_bump', 'trapezoid'\)"):
            QVortexSolver(initial_guess="custom").fit()

    def test_repr_round_trips_parameters(self):
        est = QVortexSolver(q0=5.0)
        assert "q0=5.0" in repr(est)
