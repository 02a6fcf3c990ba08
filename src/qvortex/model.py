"""Physical model: sextic potential, parameters, and closed-form bounds.

The field theory is a complex scalar with self-interaction

    U(phi) = lam * (phi^6 - a_pot*phi^4 + b*phi^2),    b > a_pot^2/4,

reduced to a radial profile phi(rho) on the disk (0, p) with Dirichlet
conditions phi(0) = phi(p) = 0 and integer winding number n. Several
quantities that constrain any nontrivial solution have closed forms and are
collected in TheoryBounds:

* the open frequency window 2*lam*(b - a_pot^2/4) < omega^2 < 2*lam*b in
  which ring solitons exist on a large enough disk,
* a sharper necessary lower bound 2*lam*(b - a_pot^2/3) + n^2/p^2 < omega^2,
* the uniform amplitude ceiling phi^2 < 2*a_pot/3 and the exponential tail
  decay at rate decay_rate, both valid below the decay edge
  omega^2 < 2*lam*b + n^2/p^2 (decay_edge),
* the prescribed-norm threshold Q0 > pi*|n|/(a_pot*lam) required whenever
  omega^2 < 2*lam*b,
* a sufficient disk radius p_star derived from a trapezoidal trial profile
  (see p_star_bound).

Each is written once, here, and solver.check_solution judges a solution
against all of them but p_star, which bounds the disk, not the solution.
They are verifiers, never fitting knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .validation import check_finite, check_positive

__all__ = [
    "BENCHMARK_Q0",
    "ModelParams",
    "TheoryBounds",
    "potential",
    "potential_derivative",
    "theory_bounds",
    "decay_edge",
    "decay_rate",
    "p_star_bound",
]

# The prescribed reduced norm of the benchmark point: the default of the
# solve entry points, the norm of Table 2, and the norm at which verify
# checks the gradient, the bounds and the FD oracle.
BENCHMARK_Q0 = 100.0


@dataclass(frozen=True)
class ModelParams:
    """Immutable physical parameter set.

    lam   : coupling strength, > 0
    a_pot : quartic coefficient of the potential, > 0
    b     : quadratic coefficient, > a_pot^2/4, by enough that the window edges differ in doubles
    n     : winding number, |n| >= 1
    p     : disk radius, > 0

    A set whose theory_bounds are not all finite in doubles is rejected too.
    """

    lam: float = 1.0
    a_pot: float = 2.0
    b: float = 1.1
    n: int = 1
    p: float = 20.0

    def __post_init__(self):
        object.__setattr__(self, "lam", check_positive("lam", self.lam))
        object.__setattr__(self, "a_pot", check_positive("a_pot", self.a_pot))
        object.__setattr__(self, "b", check_positive("b", self.b))
        object.__setattr__(self, "p", check_positive("p", self.p))
        n = int(self.n)
        if n != self.n or n == 0:
            raise ValueError(f"n must be a nonzero integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        if not self.b > self.a_pot**2 / 4.0:
            raise ValueError(
                f"b > a_pot^2/4 violated: b={self.b}, a_pot^2/4={self.a_pot ** 2 / 4.0}"
            )
        if not 2.0 * self.lam * (self.b - self.a_pot**2 / 4.0) < 2.0 * self.lam * self.b:
            raise ValueError(f"the window 2*lam*(b - a_pot^2/4) < omega^2 < 2*lam*b is empty in "
                             f"double precision: lam={self.lam}, a_pot={self.a_pot}, b={self.b}")
        bounds = vars(theory_bounds(self))
        if not all(math.isfinite(v) for v in bounds.values()):
            raise ValueError(f"the closed-form bounds are not finite in double precision: "
                             f"lam={self.lam}, a_pot={self.a_pot}, b={self.b}, {bounds}")


@dataclass(frozen=True)
class TheoryBounds:
    """Closed-form bounds implied by a ModelParams instance.

    omega_sq_min       : lower edge of the existence window, 2*lam*(b - a_pot^2/4)
    omega_sq_max       : upper edge, 2*lam*b
    omega_sq_necessary : necessary lower bound 2*lam*(b - a_pot^2/3) + n^2/p^2
    phi_max_ceiling    : uniform amplitude ceiling sqrt(2*a_pot/3)
    q0_threshold       : prescribed-norm threshold pi*|n|/(a_pot*lam)
    p_star             : sufficient disk radius from the trapezoid trial profile,
                         evaluated at p_star_omega_sq, the midpoint of the
                         window (p_star_bound takes any other frequency)
    """

    omega_sq_min: float
    omega_sq_max: float
    omega_sq_necessary: float
    phi_max_ceiling: float
    q0_threshold: float
    p_star: float
    p_star_omega_sq: float


def potential(phi, params):
    """Sextic potential U(phi) = lam*(phi^6 - a_pot*phi^4 + b*phi^2).

    Accepts a scalar or ndarray phi; total function, no domain errors.
    """
    p2 = phi * phi
    return params.lam * p2 * (p2 * p2 - params.a_pot * p2 + params.b)


def potential_derivative(phi, params):
    """U'(phi) = lam*(6*phi^5 - 4*a_pot*phi^3 + 2*b*phi)."""
    p2 = phi * phi
    return params.lam * phi * (6.0 * p2 * p2 - 4.0 * params.a_pot * p2 + 2.0 * params.b)


def decay_edge(params):
    """2*lam*b + n^2/p^2: below it the tail decays exponentially and the
    amplitude ceiling holds; at or above it neither estimate applies."""
    return 2.0 * params.lam * params.b + params.n**2 / params.p**2


def decay_rate(omega_sq, params):
    """Exponential tail rate sigma = sqrt(n^2/p^2 + 2*lam*b - omega^2).

    Valid only below decay_edge; raises ValueError when the radicand is
    non-positive (the decay estimate is then inapplicable).
    """
    omega_sq = check_finite("omega_sq", omega_sq)
    edge = decay_edge(params)
    if omega_sq >= edge:
        raise ValueError(
            f"decay rate undefined: omega_sq = {omega_sq} is not below "
            f"2*lam*b + n^2/p^2 = {edge}"
        )
    return math.sqrt(edge - omega_sq)


def p_star_bound(params, omega_sq=None):
    """Sufficient disk radius for a trapezoidal trial profile to go subcritical.

    The trial profile ramps linearly to height t over [0, 1], stays flat on
    [1, p-1], and ramps back down over [p-1, p]. With t^2 = a_pot/2 and
    c = b - omega_sq/(2*lam), its action
    int rho*(phi'^2/2 + n^2 phi^2/(2 rho^2) + U(phi) - omega_sq*phi^2/2) drho
    is -A*p^2 + B*p + C*log(p) plus terms bounded in p, with

        A = (lam*a_pot/4) * (omega_sq/(2*lam) - (b - a_pot^2/4))
          = lam*a_pot*(a_pot^2 - 4*c)/16
        B = t^2/2 - lam*[t^6 - a_pot*t^4 + c*t^2]
            + lam*[t^6/7 - (a_pot/5)*t^4 + (c/3)*t^2]
          = a_pot*(39*lam*a_pot^2 - 140*lam*c + 105)/420
        C = n^2 * t^2 / 2 = a_pot*n^2/4

    The plateau gives -A*p^2 and its -lam*[...] share of B (int rho drho =
    p^2/2 - p there), the outer ramp the gradient's t^2/2 and the second
    bracket, and the centrifugal term on the plateau C*log(p - 1). Bounding
    log(p) < p folds C into the linear term, and this function returns
    (B + C)/A, each divided by a_pot first so that no power of a_pot above
    the second is formed. The slack C*(p - log(p)) left there must cover the
    bounded terms (the ramps' constants and the outer ramp's centrifugal
    part); a test checks by quadrature that the trial action at the returned
    radius is negative for n = 1, 2, 3 across the window.
    A > 0 requires omega_sq above the lower window edge; below it the
    construction fails and ValueError is raised.

    omega_sq None (the default) is the midpoint of the window, where
    c = a_pot^2/8 exactly; taken from the midpoint's double, c would be the
    difference of two numbers near b, and off by ulp(b) where the window is
    a few ulps wide.
    """
    lam, a = params.lam, params.a_pot
    if omega_sq is None:
        c = a * a / 8.0
    else:
        c = params.b - check_finite("omega_sq", omega_sq) / (2.0 * lam)
    gap = a * a - 4.0 * c  # 16*A/(lam*a_pot); lam*gap could underflow to 0, so divide by each
    if not gap > 0.0:
        raise ValueError(
            f"p_star undefined: omega_sq = {omega_sq} is not above the lower "
            f"window edge 2*lam*(b - a_pot^2/4) = {2.0 * lam * (params.b - a * a / 4.0)}"
        )
    coef_b = (39.0 * lam * a * a - 140.0 * lam * c + 105.0) / 420.0
    return 16.0 * (coef_b + params.n**2 / 4.0) / lam / gap


def theory_bounds(params):
    """Compute all closed-form bounds for a parameter set.

    p_star depends on a frequency; by convention it is evaluated at the
    midpoint of the existence window. p_star_bound evaluates it at any
    other frequency.
    """
    lam, a, b = params.lam, params.a_pot, params.b
    omega_sq_min = 2.0 * lam * (b - a * a / 4.0)
    omega_sq_max = 2.0 * lam * b
    omega_sq_necessary = 2.0 * lam * (b - a * a / 3.0) + params.n**2 / params.p**2
    omega_sq = 0.5 * (omega_sq_min + omega_sq_max)
    return TheoryBounds(
        omega_sq_min=omega_sq_min,
        omega_sq_max=omega_sq_max,
        omega_sq_necessary=omega_sq_necessary,
        phi_max_ceiling=math.sqrt(2.0 * a / 3.0),
        q0_threshold=math.pi * abs(params.n) / (a * lam),
        p_star=p_star_bound(params),
        p_star_omega_sq=omega_sq,
    )

