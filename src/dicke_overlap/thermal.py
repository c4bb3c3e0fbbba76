"""Finite-temperature partition function, overlap, and collective moments.

Everything here rests on the small-beta factorization
Tr[exp(-beta H)] ~ Tr[exp(-beta H0) exp(-beta HI)] with H0 = omega a'a,
followed by an exact rewriting of the photon trace as a Gaussian
integral.  With

    eps(x) = sqrt(omega0^2/4 + x^2 lambda^2 coth(beta omega / 2) / N)

the partition function becomes

    z = sqrt(1/2pi)/(1 - e^(-beta omega))
        * Integral dx e^(-x^2/2) [2 cosh(beta eps(x))]^N

and the overlap with the separable reference state diag(a, 1-a)^(x N)
replaces the per-atom factor 2 cosh(beta eps) by

    f(x) = cosh(beta eps) + (1 - 2a) omega0 / (2 eps) * sinh(beta eps).

(The per-atom expansion gives the cosh term *without* a factor 2: the
lambda = 0 closed form and the beta -> 0 limit Tr[rho rho_s] = 2^-N both
force it.  A variant with the doubled cosh term is exposed through
``doubled_cosh=True`` for comparison; it returns 1 identically at
a = 1/2.)

Integrands are handled entirely in log space and integrated over
adaptive windows around the maxima of the log-integrand: below the
critical temperature the weight is bimodal with peaks far from the
origin, where naive fixed-node quadrature sees nothing.

Validity: the factorization error is O(beta^3); results at large beta
(low temperature, T below ~0.1 in the resonant units) are qualitative
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams
from .errors import InternalConsistencyError, InvalidParameterError
from .numerics import QuadratureSpec, log_integral, weighted_average
from .witness import MomentSet

DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class ThermalPoint:
    params: ModelParams
    beta: float

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InvalidParameterError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.beta * max(self.params.omega, self.params.omega0)):
            raise InvalidParameterError("beta * max(omega, omega0) must be finite")


def _log2cosh(y):
    y = np.abs(y)
    return y + np.log1p(np.exp(-2.0 * y))


def _epsilon_factory(point: ThermalPoint):
    p = point.params
    coth = 1.0 / math.tanh(point.beta * p.omega / 2.0)
    scale = p.coupling**2 * coth / p.n_atoms
    return lambda x: np.sqrt(p.omega0**2 / 4.0 + scale * np.asarray(x) ** 2)


def _log_weight_factory(point: ThermalPoint):
    eps = _epsilon_factory(point)
    n, beta = point.params.n_atoms, point.beta
    return lambda x: -0.5 * np.asarray(x) ** 2 + n * _log2cosh(beta * eps(x))


def log_partition(point: ThermalPoint, quad: QuadratureSpec = DEFAULT_QUAD):
    """ln z for the factorized thermal state (photon prefactor included)."""
    p = point.params
    log_i = log_integral(_log_weight_factory(point), quad)
    return (
        -0.5 * math.log(2.0 * math.pi)
        + log_i
        - math.log(-math.expm1(-point.beta * p.omega))
    )


def _sigma_z_factory(point: ThermalPoint):
    eps = _epsilon_factory(point)
    omega0, beta = point.params.omega0, point.beta
    return lambda x: -(omega0 / (2.0 * eps(x))) * np.tanh(beta * eps(x))


def thermal_jz(point: ThermalPoint, quad: QuadratureSpec = DEFAULT_QUAD):
    """<J_z>/N: half the weighted average of the conditional <sigma_z>."""
    (avg_sz,) = weighted_average(_log_weight_factory(point), [_sigma_z_factory(point)], quad)
    return 0.5 * avg_sz


def overlap_finite_t(
    point: ThermalPoint, a, quad: QuadratureSpec = DEFAULT_QUAD, doubled_cosh=False
):
    """Overlap with the reference state diag(a, 1-a)^(x N) at inverse temperature beta.

    Typically a = 1/2 + thermal_jz(point).  Computed as the ratio of two
    windowed log-space integrals; the photon prefactors cancel against z.
    """
    if not 0.0 <= a <= 1.0:
        raise InvalidParameterError(f"a must lie in [0, 1], got {a}")
    p = point.params
    eps = _epsilon_factory(point)
    beta, n = point.beta, p.n_atoms

    def log_f_atom(x):
        e = eps(x)
        y = beta * e
        c = (1.0 - 2.0 * a) * p.omega0 / (2.0 * e)
        decay = np.exp(-2.0 * y)
        if doubled_cosh:
            arg = (1.0 + 0.5 * c) + (1.0 - 0.5 * c) * decay
            shift = 0.0
        else:
            arg = (1.0 + c) + (1.0 - c) * decay
            shift = -math.log(2.0)
        if np.any(arg <= 0.0):
            raise InternalConsistencyError(
                "nonpositive per-atom overlap factor; a outside [0,1]?"
            )
        return y + shift + np.log(arg)

    log_numerator = log_integral(
        lambda x: -0.5 * np.asarray(x) ** 2 + n * log_f_atom(x), quad
    )
    log_denominator = log_integral(_log_weight_factory(point), quad)
    return float(np.exp(log_numerator - log_denominator))


def matched_a(point: ThermalPoint, quad: QuadratureSpec = DEFAULT_QUAD):
    """The <J_z>-matched reference parameter a = 1/2 + <J_z>/N."""
    return min(max(0.5 + thermal_jz(point, quad), 0.0), 1.0)


def thermal_moments(point: ThermalPoint, quad: QuadratureSpec = DEFAULT_QUAD) -> MomentSet:
    """Collective moments under the conditional-decoupling picture.

    Given the Gaussian variable x the atoms are independent with

        <sigma_z>_x = -(omega0 / 2 eps) tanh(beta eps)
        <sigma_x>_x = -(lambda x sqrt(coth(beta omega/2)) / (sqrt(N) eps))
                       tanh(beta eps)
        <sigma_y>_x = 0

    so <J_a> = (N/2) E[<sigma_a>_x] and
    <J_a^2> = N/4 + (N(N-1)/4) E[<sigma_a>_x^2].  The <sigma_x> integrand
    is odd, so <J_x> = 0 identically.
    """
    p = point.params
    n, beta = p.n_atoms, point.beta
    eps = _epsilon_factory(point)
    sz = _sigma_z_factory(point)
    coth = 1.0 / math.tanh(beta * p.omega / 2.0)
    sx_scale = p.coupling**2 * coth / n

    def sz2(x):
        return sz(x) ** 2

    def sx2(x):
        e = eps(x)
        return sx_scale * np.asarray(x) ** 2 / e**2 * np.tanh(beta * e) ** 2

    avg_sz, avg_sz2, avg_sx2 = weighted_average(
        _log_weight_factory(point), [sz, sz2, sx2], quad
    )
    pair = (n - 1) / (4.0 * n)
    first = (0.0, 0.0, 0.5 * avg_sz)
    second = (
        1.0 / (4 * n) + pair * avg_sx2,
        1.0 / (4 * n),
        1.0 / (4 * n) + pair * avg_sz2,
    )
    return MomentSet(n_atoms=n, first=first, second=second)
