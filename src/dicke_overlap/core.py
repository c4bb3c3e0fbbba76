"""Model parameters, critical coupling/temperature, the order parameter, and
the two numpy-free numerical pieces the front end needs: the quadrature
settings (``QuadratureSpec``) and bisection (``find_root``).

Units: hbar = k_B = 1 throughout; frequencies, couplings and temperatures
are dimensionless.  The Hamiltonian is

    H = omega a'a + omega0 J_z + (lambda/sqrt(N)) (a' + a)(J+ + J-),

with J_z = sum_i sigma_i^z / 2 and J+- = sum_i sigma_i^+-.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .errors import BracketError, InvalidParameterError, NumericalError


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget and relative tolerance for the quadratures."""

    max_nodes: int = 200_000
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.max_nodes < 64:
            raise InvalidParameterError(f"max_nodes must be >= 64, got {self.max_nodes}")
        if not (0.0 < self.rel_tol <= 1e-3):
            raise InvalidParameterError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")


def find_root(f, bracket, rel_width=1e-12, max_iter=200):
    """Bisection root of a continuous sign-changing f on ``bracket``.

    Deterministic; iterates until the bracket width is below
    ``rel_width * max(|lo|, |hi|, 1)``.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InvalidParameterError(f"bracket must satisfy lo < hi, got {bracket}")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(
            f"no sign change on bracket [{lo}, {hi}]", bracket=(lo, hi), values=(flo, fhi)
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_width * max(abs(lo), abs(hi), 1.0):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise NumericalError(
        f"bisection did not reach relative width {rel_width} in {max_iter} iterations",
        bracket=(lo, hi),
    )


class PhaseLabel(enum.Enum):
    NORMAL = "normal"
    SUPERRADIANT = "superradiant"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ModelParams:
    """Dicke-model parameters: field frequency, level splitting, coupling, atom count."""

    omega: float
    omega0: float
    coupling: float
    n_atoms: int

    def __post_init__(self):
        # one rule for NaN, +-inf and |x| above ~1.3e154, whose square overflows
        for name in ("omega", "omega0", "coupling"):
            value = float(getattr(self, name))
            if not math.isfinite(value * value):
                raise InvalidParameterError(f"{name} must have a finite square, got {value}")
        if not (self.omega > 0 and self.omega0 > 0):
            raise InvalidParameterError(
                f"frequencies must be positive, got omega={self.omega}, omega0={self.omega0}"
            )
        if self.coupling < 0:
            raise InvalidParameterError(f"coupling must be >= 0, got {self.coupling}")
        if int(self.n_atoms) != self.n_atoms or self.n_atoms < 1:
            raise InvalidParameterError(f"n_atoms must be a positive integer, got {self.n_atoms}")

    @property
    def critical(self) -> float:
        return critical_coupling(self.omega, self.omega0)


def check_beta(params: ModelParams, beta):
    """Reject a beta that is not positive and finite, or whose product with omega overflows."""
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidParameterError(f"beta must be positive and finite, got {beta}")
    if not math.isfinite(beta * max(params.omega, params.omega0)):
        raise InvalidParameterError("beta * max(omega, omega0) must be finite")


def critical_coupling(omega, omega0):
    """Normal/superradiant boundary coupling sqrt(omega * omega0) / 2."""
    if not (omega > 0 and omega0 > 0):
        raise InvalidParameterError(
            f"frequencies must be positive, got omega={omega}, omega0={omega0}"
        )
    return math.sqrt(omega * omega0) / 2.0


# Default search bracket for the inverse critical temperature.  Its upper end
# grows to cover the root when the small-coupling asymptote lies above it.
BETA_BRACKET = (1e-6, 1e3)


def _beta_c_residual(beta, params):
    # beta - (omega0 / 2 lambda^2) * tanh(beta omega / 2) / tanh(beta omega0 / 2)
    return beta - (params.omega0 / (2.0 * params.coupling**2)) * (
        math.tanh(beta * params.omega / 2.0) / math.tanh(beta * params.omega0 / 2.0)
    )


# cached: a finite-T sweep asks for it in every row of a coupling, and its
# phase label asks again
@functools.lru_cache(maxsize=64)
def critical_temperature(params: ModelParams):
    """Critical temperature from the self-consistency relation

        beta_c = (omega0 / 2 lambda^2) tanh(beta_c omega / 2) / tanh(beta_c omega0 / 2),

    solved by bisection on beta.  The bracket is ``BETA_BRACKET`` with its
    upper end raised, where it lies lower, to twice the asymptote
    omega0 / (2 lambda^2) times max(1, omega / omega0): the tanh ratio is
    at most that maximum, so the residual is positive there.  Returns None
    at lambda = 0 and when that upper end overflows (lambda below ~1e-154),
    and, as before, for couplings so strong (above ~700 at omega = omega0 =
    1) that the root lies below the bracket's lower end.

    For omega = omega0 the tanh factors cancel and the root is exactly
    beta_c = omega0 / (2 lambda^2), i.e. T_c = 2 lambda^2 / omega0.  Note
    this relation yields a finite T_c for every lambda > 0, including
    lambda below the zero-temperature boundary; see
    ``critical_temperature_tanh_form`` for the variant that closes at the
    T = 0 transition point.
    """
    square = params.coupling**2
    if square == 0.0:
        return None
    ratio = max(1.0, params.omega / params.omega0)
    lo, hi = BETA_BRACKET[0], max(BETA_BRACKET[1], params.omega0 / square * ratio)
    if not math.isfinite(hi):
        return None
    f = lambda beta: _beta_c_residual(beta, params)
    if f(lo) * f(hi) > 0:
        return None
    return 1.0 / find_root(f, (lo, hi))


def reduced_critical_temperature(params: ModelParams):
    """The resonant-case critical line T_c = 2 lambda^2 / omega0 (exact for omega = omega0)."""
    return 2.0 * params.coupling**2 / params.omega0


def critical_temperature_tanh_form(params: ModelParams):
    """Alternative critical-temperature relation

        tanh(beta_c omega0 / 2) = omega omega0 / (4 lambda^2) = (lambda_c / lambda)^2,

    which has a solution only above the zero-temperature boundary
    (lambda > lambda_c) and gives T_c -> 0 as lambda -> lambda_c+.
    Returns None for lambda <= lambda_c.  Exposed for comparison with
    ``critical_temperature``; the two relations disagree except in the
    lambda >> lambda_c regime.
    """
    # min before squaring: (lambda_c / lambda)^2 overflows for lambda below ~1e-154
    mu = min(params.critical / params.coupling, 1.0) ** 2 if params.coupling > 0 else 1.0
    if mu >= 1.0:
        return None
    beta_c = 2.0 * math.atanh(mu) / params.omega0
    return 1.0 / beta_c


def order_parameter_zero_t(params: ModelParams):
    """Ground-state <J_z>/N:  -1/2 below the critical coupling, -lambda_c^2/(2 lambda^2) above."""
    lc = params.critical
    if params.coupling <= lc:
        return -0.5
    return -(lc**2) / (2.0 * params.coupling**2)


def phase_zero_t(params: ModelParams) -> PhaseLabel:
    return PhaseLabel.NORMAL if params.coupling < params.critical else PhaseLabel.SUPERRADIANT


def phase_finite_t(params: ModelParams, temperature) -> PhaseLabel:
    """Phase at temperature T > 0: superradiant below the critical line for lambda > lambda_c."""
    if temperature <= 0:
        return phase_zero_t(params)
    if params.coupling <= params.critical:
        return PhaseLabel.NORMAL
    tc = critical_temperature(params)
    if tc is not None and temperature < tc:
        return PhaseLabel.SUPERRADIANT
    return PhaseLabel.NORMAL
