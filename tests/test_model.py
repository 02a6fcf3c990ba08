import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvortex import (
    ModelParams,
    decay_rate,
    p_star_bound,
    potential,
    potential_derivative,
    theory_bounds,
)

PARAMS = ModelParams()  # lam=1, a_pot=2, b=1.1, n=1, p=20


class TestModelParams:
    def test_defaults_valid(self):
        assert PARAMS.lam == 1.0 and PARAMS.n == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"b": 0.9, "a_pot": 2.0},  # b <= a_pot^2/4
            {"b": 1.0, "a_pot": 2.0},  # boundary is excluded
            {"lam": 0.0},
            {"lam": -1.0},
            {"a_pot": 0.0},
            {"n": 0},
            {"n": 1.5},
            {"p": 0.0},
            {"p": -3.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_b_violation_message_names_the_constraint(self):
        with pytest.raises(ValueError, match="a_pot\\^2/4"):
            ModelParams(b=0.9, a_pot=2.0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PARAMS.b = 2.0

    def test_every_accepted_set_has_finite_bounds(self):
        # a set whose window is empty in doubles, or whose bounds are not
        # finite in doubles, is rejected; every accepted set has finite
        # bounds and p_star = 8*(1 + n^2)/(lam*a_pot^2) + 172/105, the
        # midpoint's closed form. Taken from the midpoint's double, p_star
        # raised at 63 of the scan's sets and was not finite at 41 more; the
        # last set's window is a few ulps wide, and c = b - omega_sq/(2*lam)
        # came out as ulp(b) = 1.9e-6 against the true a_pot^2/8 = 5.8e-7
        sets = [(lam, a_pot, b)
                for lam in np.geomspace(1e-320, 1e300, 63).tolist()
                for a_pot in np.geomspace(1e-320, 1e3, 400).tolist()
                for b in (1.0, 1.1, 3.0, 1e10)]
        sets.append((0.9999946131373971, 0.002154434269241402, 1e10))
        rejected = Counter()
        accepted = 0
        for lam, a_pot, b in sets:
            try:
                params = ModelParams(lam=lam, a_pot=a_pot, b=b)
            except ValueError as exc:
                rejected[str(exc).split(":")[0]] += 1
                continue
            bounds = theory_bounds(params)
            assert all(math.isfinite(v) for v in vars(bounds).values())
            exact = 16 / (Fraction(lam) * Fraction(a_pot) ** 2) + Fraction(172, 105)
            assert bounds.p_star == pytest.approx(float(exact), rel=1e-13)
            accepted += 1
        assert accepted == 2287
        assert rejected == {
            "b > a_pot^2/4 violated": 756,
            "the window 2*lam*(b - a_pot^2/4) < omega^2 < 2*lam*b is empty in double precision":
                97698,
            "the closed-form bounds are not finite in double precision": 60,
        }


class TestPotential:
    def test_zero_field(self):
        assert potential(0.0, PARAMS) == 0.0

    def test_unit_field(self):
        assert potential(1.0, PARAMS) == pytest.approx(0.1, abs=1e-15)

    def test_at_amplitude_ceiling(self):
        phi = math.sqrt(4.0 / 3.0)
        expected = (4.0 / 3.0) ** 3 - 2.0 * (4.0 / 3.0) ** 2 + 1.1 * (4.0 / 3.0)
        assert expected == pytest.approx(0.2814814814814815, abs=1e-12)
        assert potential(phi, PARAMS) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(-3.0, 3.0))
    def test_even_function(self, phi):
        assert potential(-phi, PARAMS) == potential(phi, PARAMS)

    def test_derivative_zero_and_unit(self):
        assert potential_derivative(0.0, PARAMS) == 0.0
        assert potential_derivative(1.0, PARAMS) == pytest.approx(0.2, abs=1e-14)

    @given(st.floats(-2.0, 2.0))
    def test_derivative_matches_finite_differences(self, phi):
        h = 1e-6
        fd = (potential(phi + h, PARAMS) - potential(phi - h, PARAMS)) / (2.0 * h)
        assert potential_derivative(phi, PARAMS) == pytest.approx(
            fd, rel=1e-6, abs=1e-8
        )


class TestTheoryBounds:
    def test_window_edges(self):
        bounds = theory_bounds(PARAMS)
        assert bounds.omega_sq_min == pytest.approx(0.2, abs=1e-14)
        assert bounds.omega_sq_max == pytest.approx(2.2, abs=1e-14)

    def test_necessary_bound(self):
        bounds = theory_bounds(PARAMS)
        expected = 2.0 * (1.1 - 4.0 / 3.0) + 1.0 / 400.0
        assert bounds.omega_sq_necessary == pytest.approx(expected, abs=1e-14)

    def test_ceiling_and_threshold(self):
        bounds = theory_bounds(PARAMS)
        assert bounds.phi_max_ceiling == pytest.approx(1.1547005383792515, abs=1e-12)
        assert bounds.phi_max_ceiling**2 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert bounds.q0_threshold == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_window_ordering(self):
        bounds = theory_bounds(PARAMS)
        assert bounds.omega_sq_min < bounds.omega_sq_max
        assert bounds.omega_sq_necessary < bounds.omega_sq_max + 1.0 / 400.0

    @given(st.integers(1, 4), st.integers(1, 5))
    def test_threshold_linear_in_winding(self, k, n):
        one = theory_bounds(ModelParams(n=n)).q0_threshold
        many = theory_bounds(ModelParams(n=k * n)).q0_threshold
        assert many == pytest.approx(k * one, rel=1e-12)

    def test_deterministic(self):
        assert theory_bounds(PARAMS) == theory_bounds(ModelParams())


def trapezoid_action(params, p, omega_sq, cells=400_000):
    """Action of p_star_bound's trapezoid trial profile, by the midpoint rule.

    int rho*(phi'^2/2 + n^2 phi^2/(2 rho^2) + U(phi) - omega_sq*phi^2/2)
    over (0, p), phi = t*min(rho, 1, p - rho) with t^2 = a_pot/2.
    """
    t = math.sqrt(params.a_pot / 2.0)
    h = p / cells
    rho = (np.arange(cells) + 0.5) * h
    phi = t * np.minimum(np.minimum(rho, 1.0), p - rho)
    dphi = np.where(rho < 1.0, t, np.where(rho > p - 1.0, -t, 0.0))
    density = rho * (
        0.5 * dphi**2
        + 0.5 * params.n**2 * phi**2 / rho**2
        + potential(phi, params)
        - 0.5 * omega_sq * phi**2
    )
    return float(density.sum() * h)


class TestPStar:
    def test_midpoint_convention_value(self):
        # exact-fraction evaluation of the documented recipe at the window
        # midpoint omega_sq = 1.2: A = 1/4, B = 191/210, C = 1/2
        t2 = Fraction(1)
        c = Fraction(11, 10) - Fraction(6, 10)
        bracket = t2**3 - 2 * t2**2 + c * t2
        coef_a = -bracket / 2
        coef_b = t2 / 2 - bracket - (Fraction(2, 5) * t2**2 - t2**3 / 7 - c * t2 / 3)
        expected = float((coef_b + Fraction(1, 2)) / coef_a)
        assert expected == pytest.approx(float(Fraction(592, 105)), rel=1e-15)
        bounds = theory_bounds(PARAMS)
        assert bounds.p_star_omega_sq == pytest.approx(1.2, abs=1e-14)
        assert bounds.p_star == pytest.approx(expected, rel=1e-15)

    def test_coefficients_match_a_symbolic_derivation(self):
        # the trial action integrated piece by piece: the inner ramp (bounded
        # in p), the plateau [1, p-1], and the outer ramp in s = p - rho
        # without its O(1/p) centrifugal part; U - omega_sq*phi^2/2 is
        # lam*(phi^6 - a*phi^4 + c*phi^2) with c = b - omega_sq/(2*lam)
        sp = pytest.importorskip("sympy")
        p, rho, s, lam, a, n = sp.symbols("p rho s lam a n", positive=True)
        c = sp.Symbol("c", real=True)
        t = sp.sqrt(a / 2)

        def well(phi):
            return lam * (phi**6 - a * phi**4 + c * phi**2)

        inner = sp.integrate(rho * (t**2 / 2 + well(t * rho)) + n**2 * t**2 * rho / 2,
                             (rho, 0, 1))
        plateau = sp.integrate(rho * well(t) + n**2 * t**2 / (2 * rho), (rho, 1, p - 1))
        outer = sp.integrate((p - s) * (t**2 / 2 + well(t * s)), (s, 0, 1))
        action = sp.expand(inner + plateau + outer)
        coef_c = action.coeff(sp.log(p - 1))
        poly = sp.Poly(sp.expand(action - coef_c * sp.log(p - 1)), p)
        coef_a, coef_b = -poly.coeff_monomial(p**2), poly.coeff_monomial(p)
        assert poly.degree() == 2
        assert sp.expand(coef_a - a * lam * (a**2 - 4 * c) / 16) == 0
        assert sp.expand(coef_b - a * (39 * a**2 * lam - 140 * c * lam + 105) / 420) == 0
        assert sp.expand(coef_c - a * n**2 / 4) == 0
        ratio = (coef_b + coef_c) / coef_a
        for omega_sq in (0.8, 1.2, 1.6):
            c_value = PARAMS.b - omega_sq / (2.0 * PARAMS.lam)
            values = {lam: PARAMS.lam, a: PARAMS.a_pot, c: c_value, n: PARAMS.n}
            assert float(ratio.subs(values)) == pytest.approx(
                p_star_bound(PARAMS, omega_sq), rel=1e-15
            )

    def test_depends_on_evaluation_frequency(self):
        # the bound blows up toward the lower window edge and shrinks toward
        # the upper edge; near omega_sq ~ 0.467 it passes through ~17.45
        assert p_star_bound(PARAMS, 0.467126) == pytest.approx(17.448, abs=0.01)
        assert p_star_bound(PARAMS, 0.25) > p_star_bound(PARAMS, 1.2) > p_star_bound(
            PARAMS, 2.1
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("omega_sq", [0.8, 1.2, 1.6])
    def test_trial_action_is_negative_at_the_bound(self, n, omega_sq):
        # at n=1, omega_sq=1.2 the action is -1.77 at p_star = 5.638; at the
        # formula's former value 2.362 it was +1.26
        params = ModelParams(n=n)
        assert trapezoid_action(params, p_star_bound(params, omega_sq), omega_sq) <= 0.0

    def test_rejected_at_or_below_lower_edge(self):
        with pytest.raises(ValueError):
            p_star_bound(PARAMS, 0.2)
        with pytest.raises(ValueError):
            p_star_bound(PARAMS, 0.1)


class TestDecayRate:
    def test_boundary_of_validity_rejected(self):
        edge = 2.0 * 1.1 + 1.0 / 400.0
        with pytest.raises(ValueError):
            decay_rate(edge, PARAMS)

    def test_reference_rates(self):
        assert decay_rate(0.4287, PARAMS) == pytest.approx(
            math.sqrt(0.0025 + 2.2 - 0.4287), rel=1e-14
        )
        assert decay_rate(0.4287, PARAMS) == pytest.approx(1.3318, abs=1e-4)
        n2 = ModelParams(n=2)
        assert decay_rate(0.5351, n2) == pytest.approx(
            math.sqrt(0.01 + 2.2 - 0.5351), rel=1e-14
        )
        assert decay_rate(0.5351, n2) == pytest.approx(1.2942, abs=1e-4)

