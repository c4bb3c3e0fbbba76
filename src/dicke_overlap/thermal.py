"""Finite-temperature partition function, overlap, and collective moments.

Everything here rests on the small-beta factorization
Tr[exp(-beta H)] ~ Tr[exp(-beta H0) exp(-beta HI)] with H0 = omega a'a,
followed by an exact rewriting of the photon trace as a Gaussian
integral.  With eps(x) = sqrt(omega0^2/4 + x^2 lambda^2 coth(beta omega/2) / N)
and the one per-atom factor

    f_a(x) = cosh(beta eps) + (1 - 2a) omega0 / (2 eps) * sinh(beta eps),

let I(a) = Integral dx e^(-x^2/2) [2 f_a(x)]^N.  The partition function is
z = sqrt(1/2pi) I(1/2) / (1 - e^(-beta omega)), and the overlap with the
separable reference state diag(a, 1-a)^(x N) is Delta = I(a) / (2^N I(1/2)),
so Delta(a = 1/2) = 2^-N at every temperature.  (The cosh term carries no
factor 2: the lambda = 0 closed form and the beta -> 0 limit
Tr[rho rho_s] = 2^-N both force it; a doubled cosh would force Delta = 1 at
a = 1/2.)  Each point integrates the partition weight once: ln z, <J_z>,
the moments and the overlap's denominator all read that one integral.

Integrands are handled entirely in log space and integrated by the
trapezoid rule on the nodes of a scan that finds the maxima of the
log-integrand: below the critical temperature the weight is bimodal with
peaks far from the origin, where naive fixed-node quadrature sees nothing.
The weight is entire in x and the moment integrands are analytic in a
strip about the real axis, so the rule converges geometrically.

Validity: the factorization error is O(beta^3); results at large beta
(low temperature, T below ~0.1 in the resonant units) are qualitative
only.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, check_beta
from .errors import InternalConsistencyError, InvalidParameterError, NumericalError
from .numerics import QuadratureSpec, integrate, log_integral
from .witness import MomentSet

DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class ThermalPoint:
    params: ModelParams
    beta: float

    def __post_init__(self):
        check_beta(self.params, self.beta)


def _epsilon_factory(point: ThermalPoint):
    """eps as a function of x^2, and its x^2 coefficient lambda^2 coth(beta omega / 2) / N."""
    p = point.params
    coth = 1.0 / math.tanh(point.beta * p.omega / 2.0)
    scale = p.coupling**2 * coth / p.n_atoms
    return lambda x2: np.sqrt(p.omega0**2 / 4.0 + scale * x2), scale


def _log_weight_factory(point: ThermalPoint, a=0.5):
    """ln of the integrand of I(a): -x^2/2 + N [y + log1p(c + (1 - c) e^(-2y))]
    with y = beta eps and c = (1 - 2a) omega0 / (2 eps).  Even in x."""
    eps, _ = _epsilon_factory(point)
    n, beta, omega0 = point.params.n_atoms, point.beta, point.params.omega0

    def log_weight(x):
        x2 = np.asarray(x) ** 2
        e = eps(x2)
        y = beta * e
        c = (1.0 - 2.0 * a) * omega0 / (2.0 * e)
        t = c + (1.0 - c) * np.exp(-2.0 * y)
        if (t <= -1.0).any():
            raise InternalConsistencyError("nonpositive per-atom overlap factor; a outside [0,1]?")
        return -0.5 * x2 + n * (y + np.log1p(t))

    return log_weight


def _moment_integrands(point: ThermalPoint):
    """<sigma_z>_x, <sigma_z>_x^2 and <sigma_x>_x^2 as functions of x; each is even in x."""
    p, beta = point.params, point.beta
    eps, sx_scale = _epsilon_factory(point)

    def sz(x):
        e = eps(np.asarray(x) ** 2)
        return -(p.omega0 / (2.0 * e)) * np.tanh(beta * e)

    def sz2(x):
        return sz(x) ** 2

    def sx2(x):
        x2 = np.asarray(x) ** 2
        e = eps(x2)
        return sx_scale * x2 / e**2 * np.tanh(beta * e) ** 2

    return sz, sz2, sx2


@functools.lru_cache(maxsize=64)
def _partition(point: ThermalPoint, quad: QuadratureSpec):
    """ln I(1/2) and the weighted averages of <sigma_z>_x, <sigma_z>_x^2, <sigma_x>_x^2."""
    log_i, averages = integrate(
        _log_weight_factory(point), _moment_integrands(point), quad, even=True
    )
    return (log_i, *averages)


def log_partition(point: ThermalPoint, quad: QuadratureSpec = DEFAULT_QUAD):
    """ln z for the factorized thermal state (photon prefactor included)."""
    return (
        -0.5 * math.log(2.0 * math.pi)
        + _partition(point, quad)[0]
        - math.log(-math.expm1(-point.beta * point.params.omega))
    )


def thermal_jz(point: ThermalPoint, quad: QuadratureSpec = DEFAULT_QUAD):
    """<J_z>/N: half the weighted average of the conditional <sigma_z>."""
    return 0.5 * _partition(point, quad)[1]


def overlap_finite_t(point: ThermalPoint, a, quad: QuadratureSpec = DEFAULT_QUAD):
    """Overlap with the reference state diag(a, 1-a)^(x N) at inverse temperature beta.

    The functional is the trace Tr[rho_A rho_s] = sum_n a^n (1-a)^(N-n) P(n),
    with P(n) the probability of n up spins: the one whose per-level weights
    are ``SeparableState.trace_log_weights`` (``zerotemp.overlap_zero_t``
    reports the overlap of the J_z distributions, with an extra C(N,n)).
    Typically a = 1/2 + thermal_jz(point).  Computed as
    I(a) / (2^N I(1/2)) in log space; raises ``NumericalError``
    (``log_delta`` in its details) when the overlap lies below the
    smallest normal double.
    """
    if not 0.0 <= a <= 1.0:
        raise InvalidParameterError(f"a must lie in [0, 1], got {a}")
    log_delta = (
        log_integral(_log_weight_factory(point, a), quad, even=True)
        - point.params.n_atoms * math.log(2.0)
        - _partition(point, quad)[0]
    )
    if log_delta < math.log(sys.float_info.min):
        raise NumericalError("thermal overlap underflows the double range", log_delta=log_delta)
    return math.exp(log_delta)


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
    n = point.params.n_atoms
    _, avg_sz, avg_sz2, avg_sx2 = _partition(point, quad)
    pair = (n - 1) / (4.0 * n)
    first = (0.0, 0.0, 0.5 * avg_sz)
    second = (
        1.0 / (4 * n) + pair * avg_sx2,
        1.0 / (4 * n),
        1.0 / (4 * n) + pair * avg_sz2,
    )
    return MomentSet(n_atoms=n, first=first, second=second)
