import math

import mpmath
import numpy as np
import pytest

from dicke_overlap import core
from dicke_overlap.core import ModelParams
from dicke_overlap.errors import InvalidParameterError


def test_critical_coupling_values():
    assert core.critical_coupling(1, 1) == 0.5
    assert core.critical_coupling(4, 1) == 1.0
    assert core.critical_coupling(2, 2) == 1.0


def test_critical_coupling_symmetric():
    for omega, omega0 in [(1, 2), (0.3, 4.7), (2.5, 0.1)]:
        assert core.critical_coupling(omega, omega0) == core.critical_coupling(omega0, omega)


def test_critical_coupling_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        core.critical_coupling(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        core.critical_coupling(1.0, -2.0)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        ModelParams(1, 1, -0.1, 4)
    with pytest.raises(InvalidParameterError):
        ModelParams(1, 1, 0.5, 0)
    with pytest.raises(InvalidParameterError):
        ModelParams(-1, 1, 0.5, 4)
    # NaN, inf, and finite values whose square overflows
    for omega, omega0, coupling in [(1, 1, math.nan), (1, 1, math.inf), (math.inf, 1, 0.5),
                                    (1, math.nan, 0.5), (1, 1e200, 0.5), (1, 1, 2e154)]:
        with pytest.raises(InvalidParameterError):
            ModelParams(omega, omega0, coupling, 4)
    assert ModelParams(1e150, 1e150, 1e150, 4).coupling == 1e150


def test_critical_temperature_resonant():
    # omega = omega0: the tanh ratio cancels, T_c = 2 lambda^2 / omega0 exactly
    assert abs(core.critical_temperature(ModelParams(1, 1, 1.0, 10)) - 2.0) < 1e-10
    assert abs(core.critical_temperature(ModelParams(1, 1, 0.7, 10)) - 0.98) < 1e-10
    for lam in (0.1, 0.3, 0.5, 0.9, 1.3):
        p = ModelParams(1, 1, lam, 10)
        assert abs(core.critical_temperature(p) - 2 * lam**2) < 1e-10


def _printed_residual(beta, p):
    # beta - (omega0 / 2 lambda^2) tanh(beta omega / 2) / tanh(beta omega0 / 2)
    return beta - (p.omega0 / (2 * p.coupling**2)) * (
        math.tanh(beta * p.omega / 2) / math.tanh(beta * p.omega0 / 2)
    )


def test_critical_temperature_off_resonance_residual():
    # derived check: the returned root must zero the printed relation, and a
    # sign-change scan on a beta grid brackets the same root
    p = ModelParams(2, 1, 1.0, 10)
    tc = core.critical_temperature(p)
    beta_c = 1.0 / tc
    assert abs(_printed_residual(beta_c, p)) < 1e-10
    grid = np.linspace(1e-4, 10.0, 4001)
    res = [_printed_residual(b, p) for b in grid]
    signs = np.sign(res)
    crossings = np.flatnonzero(np.diff(signs) != 0)
    assert len(crossings) == 1
    assert grid[crossings[0]] <= beta_c <= grid[crossings[0] + 1]


# omega / omega0 and lambda of the 50-digit check; 708 is where the old
# heuristic bracket lost the resonant root
_RATIOS = (1e-4, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e4)
_COUPLINGS = (1e-3, 0.01, 0.3, 1.0, 30.0, 700.0, 708.0, 1e3, 1e5, 1e10)


def _mp_critical_temperature(omega, coupling):
    # omega0 = 1: bisect x = ln s in 50 digits on [0, ln omega], s = 2 lambda^2 beta_c
    with mpmath.workdps(50):
        w, b0 = mpmath.mpf(omega), 1 / (2 * mpmath.mpf(coupling) ** 2)

        def residual(x):
            beta = b0 * mpmath.exp(x)
            return x - mpmath.log(mpmath.tanh(beta * w / 2) / mpmath.tanh(beta / 2))

        lo, hi = sorted((mpmath.mpf(0), mpmath.log(w)))
        for _ in range(200 if lo < hi else 0):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if residual(mid) < 0 else (lo, mid)
        return float(2 * mpmath.mpf(coupling) ** 2 / mpmath.exp((lo + hi) / 2))


@pytest.mark.parametrize("omega", _RATIOS)
def test_critical_temperature_matches_50_digit_root(omega):
    for coupling in _COUPLINGS:
        params = ModelParams(omega, 1.0, coupling, 10)
        tc = core.critical_temperature(params)
        if omega == 1.0:
            assert tc == core.reduced_critical_temperature(params) == 2.0 * coupling**2
        expected = _mp_critical_temperature(omega, coupling)
        assert abs(tc - expected) <= 1e-11 * expected, (omega, coupling, tc, expected)


def test_critical_temperature_no_root():
    assert core.critical_temperature(ModelParams(1, 1, 0.0, 5)) is None


@pytest.mark.parametrize("coupling", [1e-150, 1e-160, 1e-200, 4e-286])
@pytest.mark.parametrize("omega0", [1.0, 3.0])
def test_critical_temperatures_at_tiny_couplings(coupling, omega0):
    # (lambda_c / lambda)^2 overflows below ~1e-154, and lambda^2 underflows
    # below ~1.5e-162: the tanh form answers as at lambda = 0 for all four.
    # For the self-consistent relation omega0 / (2 lambda^2) is finite at
    # 1e-150: there both tanh are 1.0 and the root is that asymptote.  It
    # overflows at 1e-160 and below, which answer as at lambda = 0
    params = ModelParams(1.0, omega0, coupling, 5)
    tc = core.critical_temperature(params)
    if coupling == 1e-150:
        assert abs(tc - 2.0 * coupling**2 / omega0) <= 1e-12 * tc
    else:
        assert tc is None
    assert core.critical_temperature_tanh_form(params) is None


@pytest.mark.parametrize("coupling", [1e-3, 0.01, 0.02])
def test_critical_temperature_at_small_couplings(coupling):
    # beta_c = 1 / (2 lambda^2) lies above 1e3 for lambda below ~0.0224
    tc = core.critical_temperature(ModelParams(1.0, 1.0, coupling, 10))
    assert abs(tc - 2.0 * coupling**2) <= 1e-12 * 2.0 * coupling**2


def test_critical_temperature_small_coupling_off_resonance():
    # omega = 2 omega0 puts the tanh ratio above 1 below beta ~ 20; at
    # lambda = 0.01 the root, near 5000, still zeroes the relation to the
    # bisection's relative width
    params = ModelParams(2.0, 1.0, 0.01, 10)
    beta_c = 1.0 / core.critical_temperature(params)
    assert beta_c > 1e3
    assert abs(_printed_residual(beta_c, params)) <= 1e-12 * beta_c


def test_tanh_form_only_above_critical():
    assert core.critical_temperature_tanh_form(ModelParams(1, 1, 0.4, 5)) is None
    assert core.critical_temperature_tanh_form(ModelParams(1, 1, 0.5, 5)) is None
    p = ModelParams(1, 1, 1.0, 5)
    tc = core.critical_temperature_tanh_form(p)
    # residual of tanh(beta omega0/2) = (lambda_c/lambda)^2
    assert abs(math.tanh(1.0 / (2 * tc)) - 0.25) < 1e-12


def test_order_parameter_branches():
    assert core.order_parameter_zero_t(ModelParams(1, 1, 0.4, 10)) == -0.5
    assert core.order_parameter_zero_t(ModelParams(1, 1, 1.0, 10)) == -0.125
    # continuity at the critical coupling
    lc = 0.5
    below = core.order_parameter_zero_t(ModelParams(1, 1, lc, 10))
    above = core.order_parameter_zero_t(ModelParams(1, 1, lc + 1e-12, 10))
    assert abs(below - above) < 1e-9
    assert below == -0.5


def test_order_parameter_monotone_and_bounded():
    lams = np.linspace(0.0, 3.0, 200)
    vals = [core.order_parameter_zero_t(ModelParams(1, 1, float(l), 10)) for l in lams]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(-0.5 <= v < 0.0 for v in vals)


def test_phase_labels():
    assert core.phase_zero_t(ModelParams(1, 1, 0.49, 5)) is core.PhaseLabel.NORMAL
    assert core.phase_zero_t(ModelParams(1, 1, 0.51, 5)) is core.PhaseLabel.SUPERRADIANT
    # finite T: normal above the critical line, superradiant below
    p = ModelParams(1, 1, 1.0, 5)  # T_c = 2
    assert core.phase_finite_t(p, 1.5) is core.PhaseLabel.SUPERRADIANT
    assert core.phase_finite_t(p, 2.5) is core.PhaseLabel.NORMAL
    assert core.phase_finite_t(ModelParams(1, 1, 0.3, 5), 0.5) is core.PhaseLabel.NORMAL
    # mu = 1 at lambda = lambda_c exactly: both labels say normal there
    at_critical = ModelParams(1, 1, 0.5, 5)
    assert at_critical.mu == 1.0
    assert core.phase_zero_t(at_critical) is core.PhaseLabel.NORMAL
    for temp in (0.01, 0.5, 10.0):
        assert core.phase_finite_t(at_critical, temp) is core.PhaseLabel.NORMAL
