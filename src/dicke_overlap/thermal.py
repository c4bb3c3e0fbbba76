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
strip about the real axis, so the rule converges geometrically.  A grid of
points is integrated in batches (``precompute``), from one batched body
built from per-point parameter columns, into a memo that holds that one
grid; a reader takes a held point's numbers and integrates any other point
alone, storing nothing, so code that reads a point several times should
precompute it.  A point's numbers are the same bit for bit in any batch.

Validity: the factorization error is O(beta^3); results at large beta
(low temperature, T below ~0.1 in the resonant units) are qualitative
only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, check_beta
from .errors import InternalConsistencyError, InvalidParameterError, NumericalError
from .numerics import QuadratureSpec, integrate_batch

DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class ThermalPoint:
    params: ModelParams
    beta: float

    def __post_init__(self):
        check_beta(self.params, self.beta)


def _columns(points, a):
    """Per-point parameters, one row per point, for the batched bodies.

    The columns are N, beta, omega0^2 / 4, the x^2 coefficient of eps^2,
    lambda^2 coth(beta omega / 2) / N, and (1 - 2a) omega0, with ``a`` one
    value per point.  A body reads its rows' columns as
    ``columns[rows].T[..., None]``, each of shape (len(rows), 1).
    """
    columns = []
    for point, a_point in zip(points, a):
        p = point.params
        coth = 1.0 / math.tanh(point.beta * p.omega / 2.0)
        scale = p.coupling**2 * coth / p.n_atoms
        tilt = (1.0 - 2.0 * a_point) * p.omega0
        columns.append((p.n_atoms, point.beta, p.omega0**2 / 4.0, scale, tilt))
    return np.array(columns, dtype=float)


def _log_weight(points, a):
    """Batched ln of the integrand of I(a) at each point, ``a`` one value per point:
    -x^2/2 + N [y + log1p(c + (1 - c) e^(-2y))] with y = beta eps and
    c = (1 - 2a) omega0 / (2 eps).  Even in x."""
    columns = _columns(points, a)

    def log_weight(x, rows):
        n, beta, quarter, scale, tilt = columns[rows].T[..., None]
        x2 = x**2
        e = np.sqrt(quarter + scale * x2)
        y = beta * e
        c = tilt / (2.0 * e)
        t = np.exp(-2.0 * y)
        t *= 1.0 - c
        t += c
        if (t <= -1.0).any():
            raise InternalConsistencyError("nonpositive per-atom overlap factor; a outside [0,1]?")
        y += np.log1p(t)
        y *= n
        y -= 0.5 * x2
        return y

    return log_weight


def _moments(points):
    """Batched <sigma_z>_x, <sigma_z>_x^2 and <sigma_x>_x^2 at each point; each is even in x."""
    columns = _columns(points, [0.0] * len(points))  # a = 0: the last column is omega0

    def sz(x, rows):
        _, beta, quarter, scale, omega0 = columns[rows].T[..., None]
        e = np.sqrt(quarter + scale * x**2)
        return -(omega0 / (2.0 * e)) * np.tanh(beta * e)

    def sz2(x, rows):
        return sz(x, rows) ** 2

    def sx2(x, rows):
        _, beta, quarter, scale, _ = columns[rows].T[..., None]
        x2 = x**2
        e = np.sqrt(quarter + scale * x2)
        return scale * x2 / e**2 * np.tanh(beta * e) ** 2

    return sz, sz2, sx2


def _one_point(body):
    """The batched ``body`` of one point as a function of x alone."""
    row = np.zeros(1, dtype=int)
    return lambda x: body(np.asarray(x), row)[0]


def _log_weight_factory(point: ThermalPoint, a=0.5):
    """ln of the integrand of I(a) at one point, as a function of x: a view of ``_log_weight``."""
    return _one_point(_log_weight([point], [a]))


# Points per batched quadrature, whose node arrays are held at once.  The
# 176-point finite-T witness command of the benchmark peaked at 30.5-30.7 MB
# RSS with 16 points per batch, as with 4 or 8, and at 34.5 MB with all 176.
_BATCH_POINTS = 16
# The grid of the last ``precompute``, its only writer; readers store nothing.
# (point, quad) -> (ln I(1/2), <sigma_z>, <sigma_z>^2, <sigma_x>^2 averages),
# and (point, quad, a) -> ln I(a)
_MEMO = {}


def _partitions(points, quad):
    """ln I(1/2) and its three weighted averages at each of ``points``, in one batch."""
    weights = _log_weight(points, [0.5] * len(points))
    results = integrate_batch(weights, _moments(points), len(points), quad)
    return [(log_i, *averages) for log_i, averages in results]


def _numerators(points, a, quad):
    """ln I(a) at each of ``points``, ``a`` one value per point, in one batch."""
    results = integrate_batch(_log_weight(points, a), (), len(points), quad)
    return [log_i for log_i, _ in results]


def precompute(points, quad: QuadratureSpec = DEFAULT_QUAD, *, overlap=False):
    """Hold ``points`` in the memo, integrated in batches of at most ``_BATCH_POINTS``.

    Drops the grid held before.  For each point the partition integral
    ln I(1/2) and its three weighted averages and, with ``overlap``, the
    overlap numerator ln I(a) at a = ``matched_a(point, quad)``, each
    bit-identical to the point computed alone.  The readers below integrate
    a point not held once per call; a held one they only look up.
    """
    _MEMO.clear()
    points = list(dict.fromkeys(points))
    for start in range(0, len(points), _BATCH_POINTS):
        batch = points[start : start + _BATCH_POINTS]
        _MEMO.update(zip([(p, quad) for p in batch], _partitions(batch, quad)))
        if overlap:
            a = [matched_a(p, quad) for p in batch]
            keys = [(p, quad, a_p) for p, a_p in zip(batch, a)]
            _MEMO.update(zip(keys, _numerators(batch, a, quad)))


def _partition(point: ThermalPoint, quad: QuadratureSpec):
    """ln I(1/2) and the weighted averages of <sigma_z>_x, <sigma_z>_x^2, <sigma_x>_x^2."""
    return _MEMO.get((point, quad)) or _partitions([point], quad)[0]


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
    key = (point, quad, a)
    log_i = _MEMO[key] if key in _MEMO else _numerators([point], [a], quad)[0]
    log_delta = (
        log_i
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
    # imported here: sweep-finite-t reads no moments, and its process need
    # not compile the witness module
    from .witness import MomentSet

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
