"""Model parameters, critical coupling/temperature, the order parameter, and
the numpy-free numerical pieces the front end and the zero-temperature
layers need: the quadrature settings (``QuadratureSpec``), bisection
(``find_root``) and golden-section maximization (``golden_max``).

Units: hbar = k_B = 1 throughout; frequencies, couplings and temperatures
are dimensionless.  The Hamiltonian is

    H = omega a'a + omega0 J_z + (lambda/sqrt(N)) (a' + a)(J+ + J-),

with J_z = sum_i sigma_i^z / 2 and J+- = sum_i sigma_i^+-.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
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


def find_root(f, bracket):
    """Bisection root of a continuous sign-changing f on ``bracket``.

    Deterministic; iterates, at most 200 times, until the bracket width is
    below 1e-12 max(|lo|, |hi|, 1).
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(abs(lo), abs(hi), 1.0):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise NumericalError(
        "bisection did not reach relative width 1e-12 in 200 iterations",
        bracket=(lo, hi),
    )


def golden_max(f, lo, hi, tol=1e-11):
    """Golden-section maximization of a unimodal f on [lo, hi].

    Stops when the bracket is narrower than ``tol * max(1, |lo|, |hi|)``.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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
        # subnormal frequencies lose digits; 1/lambda_c, 1/mu overflow
        if min(self.omega, self.omega0, self.critical, self.mu) < sys.float_info.min:
            raise InvalidParameterError(
                f"omega = {self.omega!r}, omega0 = {self.omega0!r}, lambda_c = {self.critical!r} "
                f"and mu = {self.mu!r} must be normal doubles"
            )

    @property
    def critical(self) -> float:
        return critical_coupling(self.omega, self.omega0)

    @property
    def mu(self) -> float:
        """min(lambda_c / lambda, 1)^2, 1 at lambda = 0: below 1 only in the superradiant phase."""
        # min before squaring: (lambda_c / lambda)^2 overflows for lambda below ~1e-154
        return min(self.critical / self.coupling, 1.0) ** 2 if self.coupling > 0 else 1.0


def check_beta(params: ModelParams, beta):
    """Reject a beta that is not positive and finite, or whose product with omega overflows."""
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidParameterError(f"beta must be positive and finite, got {beta}")
    if not math.isfinite(beta * max(params.omega, params.omega0)):
        raise InvalidParameterError("beta * max(omega, omega0) must be finite")


def reject_critical(params: ModelParams):
    """Reject a coupling at lambda_c, where the zero-temperature model is singular."""
    # lambda_c = sqrt(omega omega0)/2 is itself rounded, so couplings within
    # a few ulps of it cannot be told apart from it
    if abs(params.coupling / params.critical - 1.0) <= 8.0 * math.ulp(1.0):
        raise InvalidParameterError(
            f"lambda = {params.coupling!r} is lambda_c to rounding, where the soft mode is at "
            "zero, so the excitation energies and the effective ground state are undefined"
        )


def critical_coupling(omega, omega0):
    """Normal/superradiant boundary coupling sqrt(omega * omega0) / 2."""
    if not (omega > 0 and omega0 > 0):
        raise InvalidParameterError(
            f"frequencies must be positive, got omega={omega}, omega0={omega0}"
        )
    return math.sqrt(omega * omega0) / 2.0


def _log_tanh(u):
    """ln tanh(e^u) for any finite u, without overflow or underflow."""
    y = math.exp(min(u, 20.0))  # tanh(e^20) is 1.0
    # below 1e-8, ln tanh(y) = u - y^2/3 + ... is u to rounding
    return math.log(math.tanh(y)) if y > 1e-8 else u


# cached: a finite-T sweep asks for it in every row of a coupling, and its
# phase label asks again
@functools.lru_cache(maxsize=64)
def critical_temperature(params: ModelParams):
    """Critical temperature from the self-consistency relation

        beta_c = (omega0 / 2 lambda^2) tanh(beta_c omega / 2) / tanh(beta_c omega0 / 2),

    i.e. s = R(beta_c) with s = 2 lambda^2 beta_c / omega0 and R the tanh
    ratio.  R is monotone from omega / omega0 (beta -> 0) to 1 (beta -> oo),
    so ``find_root`` bisects the increasing ln s - ln R on its exact bracket
    between 0 and ln omega - ln omega0; where rounding gives an end the
    wrong sign, R has saturated there and that end is the root.  T_c =
    (2 lambda^2 / omega0) / s then holds to 1e-11 relative at every
    coupling, and exactly at omega = omega0 (the bracket is s = 1).
    Returns None at lambda = 0 and where omega0 / (2 lambda^2) overflows.

    The relation gives a finite T_c for every lambda > 0, below the
    zero-temperature boundary too; ``critical_temperature_tanh_form`` is the
    variant that closes at the T = 0 transition point.
    """
    square = params.coupling**2
    if square == 0.0 or not math.isfinite(params.omega0 / (2.0 * square)):
        return None
    log_ratio = math.log(params.omega) - math.log(params.omega0)
    # ln(beta omega0 / 2) at s = 1, where beta = omega0 / (2 lambda^2)
    base = 2.0 * (math.log(params.omega0) - math.log(2.0 * params.coupling))

    def residual(log_s):  # ln s - ln R, increasing in ln s
        u = base + log_s
        return log_s - _log_tanh(u + log_ratio) + _log_tanh(u)

    lo, hi = sorted((0.0, log_ratio))
    if residual(lo) >= 0.0:
        log_s = lo
    elif residual(hi) <= 0.0:
        log_s = hi
    else:
        log_s = find_root(residual, (lo, hi))
    return reduced_critical_temperature(params) * math.exp(-log_s)


def reduced_critical_temperature(params: ModelParams):
    """The resonant-case critical line T_c = 2 lambda^2 / omega0 (exact for omega = omega0)."""
    return 2.0 * params.coupling**2 / params.omega0


def critical_temperature_tanh_form(params: ModelParams):
    """Alternative critical-temperature relation

        tanh(beta_c omega0 / 2) = omega omega0 / (4 lambda^2) = mu,

    which has a solution only above the zero-temperature boundary
    (mu < 1) and gives T_c -> 0 as lambda -> lambda_c+.
    Returns None for lambda <= lambda_c.  Exposed for comparison with
    ``critical_temperature``; the two relations disagree except in the
    lambda >> lambda_c regime.
    """
    mu = params.mu
    if mu >= 1.0:
        return None
    beta_c = 2.0 * math.atanh(mu) / params.omega0
    return 1.0 / beta_c


def order_parameter_zero_t(params: ModelParams):
    """Ground-state <J_z>/N = -mu/2: -1/2 up to lambda_c, -lambda_c^2/(2 lambda^2) above it."""
    return -params.mu / 2.0


def phase_zero_t(params: ModelParams) -> PhaseLabel:
    """Superradiant exactly where mu < 1 (lambda > lambda_c)."""
    return PhaseLabel.SUPERRADIANT if params.mu < 1.0 else PhaseLabel.NORMAL


def phase_finite_t(params: ModelParams, temperature) -> PhaseLabel:
    """Phase at temperature T > 0: superradiant where mu < 1 and T lies below the critical line."""
    if temperature <= 0:
        return phase_zero_t(params)
    tc = critical_temperature(params) if params.mu < 1.0 else None
    return PhaseLabel.SUPERRADIANT if tc is not None and temperature < tc else PhaseLabel.NORMAL
