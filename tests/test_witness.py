import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dicke_overlap import witness, zerotemp
from dicke_overlap.core import ModelParams
from dicke_overlap.errors import InvalidParameterError
from dicke_overlap.witness import MomentSet, evaluate, evaluate_finite_n
from oracle_helpers import collective_spin_matrices

# production's exact Gaussian ground state and the truncated reference
ZERO_T_BACKENDS = (zerotemp.gaussian_ground_state, zerotemp.effective_ground_state)


def coherent_all_down(n):
    return MomentSet(
        n_atoms=n,
        first=(0.0, 0.0, -0.5),
        second=(1.0 / (4 * n), 1.0 / (4 * n), 0.25),
    )


def dicke_moments(n, m_level):
    """Independent oracle: moments of |j = N/2, m> from collective-spin matrices."""
    jx, jy, jz = collective_spin_matrices(n / 2)
    vec = np.zeros(n + 1)
    vec[m_level + n // 2] = 1.0  # index = n_up = m + N/2
    first = (
        float(vec @ jx @ vec) / n,
        float(np.real(vec @ jy @ vec)) / n,
        float(vec @ jz @ vec) / n,
    )
    second = (
        float(vec @ jx @ jx @ vec) / n**2,
        float(np.real(vec @ jy @ jy @ vec)) / n**2,
        float(vec @ jz @ jz @ vec) / n**2,
    )
    return MomentSet(n_atoms=n, first=first, second=second)


def test_momentset_validation():
    bad_variance = MomentSet(n_atoms=10, first=(0.5, 0.0, 0.0), second=(0.1, 0.1, 0.05))
    with pytest.raises(InvalidParameterError):
        bad_variance.validate()
    too_large = MomentSet(n_atoms=10, first=(0.0, 0.0, 0.0), second=(0.2, 0.2, 0.2))
    with pytest.raises(InvalidParameterError):
        too_large.validate()


@pytest.mark.parametrize("field", ["first", "second"])
def test_momentset_rejects_non_finite_moments(field):
    # a NaN moment fails no comparison, so it used to pass validation and
    # report no violation
    moments = {"first": (0.0, 0.0, -0.5), "second": (0.025, 0.025, 0.25)}
    moments[field] = (np.nan, *moments[field][1:])
    bad = MomentSet(n_atoms=10, **moments)
    for check in (bad.validate, lambda: evaluate(bad), lambda: evaluate_finite_n(bad)):
        with pytest.raises(InvalidParameterError, match="finite"):
            check()


def test_report_shape():
    report = evaluate(coherent_all_down(50))
    kinds = [e.inequality for e in report.entries]
    assert kinds.count("b") == 1
    assert kinds.count("c") == 6
    assert kinds.count("d") == 6
    names = [e.name for e in report.entries]
    assert names[0] == "b"
    assert "c_z_x_y" in names and "d_y_z_x" in names
    assert len(set(names)) == 13


def test_coherent_state_boundary():
    # spin-coherent equality case: the variance-sum inequality sits exactly at 0
    report = evaluate(coherent_all_down(100))
    assert report.lhs("b") == 0.0
    assert not report.entries[0].violated
    # the finite-N forms see no violation anywhere for this separable state
    finite = evaluate_finite_n(coherent_all_down(100))
    assert not finite.any_violation


def test_half_excited_dicke_state_violates():
    n = 100
    m = dicke_moments(n, 0)
    assert abs(m.first[2]) < 1e-14 and abs(m.second[2]) < 1e-14
    report = evaluate(m)
    for alpha, beta, gamma in (("x", "y", "z"), ("y", "x", "z")):
        lhs = report.lhs("c", (alpha, beta, gamma))
        assert abs(lhs - (-0.25)) < 1e-12
    assert report.any_violation
    # the exact finite-N form flags it as well
    assert evaluate_finite_n(m).lhs("c", ("x", "y", "z")) < -1e-3


def test_all_down_dicke_state_is_boundary():
    m = dicke_moments(100, -50)
    report = evaluate(m)
    assert abs(report.lhs("b")) < 1e-14


def test_zero_t_variance_sum_never_violated():
    # the (b) inequality holds across both phases of the ground state
    for solve in ZERO_T_BACKENDS:
        for lam in (0.1, 0.3, 0.48, 0.6, 0.9, 1.3):
            params = ModelParams(1, 1, lam, 100)
            m = zerotemp.collective_moments_zero_t(solve(params), params)
            assert evaluate(m).lhs("b") >= -witness.TOL_WITNESS


def test_zero_t_superradiant_violations_exist():
    for solve in ZERO_T_BACKENDS:
        found = False
        for lam in (0.6, 0.8, 1.0):
            params = ModelParams(1, 1, lam, 100)
            report = evaluate(zerotemp.collective_moments_zero_t(solve(params), params))
            if any(e.violated and e.inequality in ("c", "d") for e in report.entries):
                found = True
        assert found


def test_finite_t_no_violations():
    from dicke_overlap.numerics import QuadratureSpec
    from dicke_overlap.thermal import ThermalPoint, thermal_moments

    quad = QuadratureSpec()
    for lam in (0.3, 0.8, 1.3):
        for temp in (0.6, 1.5, 2.8):
            point = ThermalPoint(ModelParams(1, 1, lam, 100), 1.0 / temp)
            report = evaluate(thermal_moments(point, quad))
            assert not report.any_violation


def test_oracle_momentsets_satisfy_sanity_bound():
    from dicke_overlap import oracle

    params = ModelParams(1, 1, 0.9, 4)
    state = oracle.exact_thermal_state(params, 40, 0.3)
    oracle.exact_moments(state).validate()
    ground = oracle.exact_ground_state(params, oracle.suggested_cutoff(params))
    oracle.exact_moments(ground).validate()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10**6), lam=st.floats(0.0, 1.5), temp=st.floats(0.1, 3.0))
@example(n=10**6, lam=1.5, temp=0.1)
@example(n=2, lam=0.0, temp=3.0)
def test_thermal_moments_satisfy_bound_a(n, lam, temp):
    # given x the atoms are independent with Bloch vector of length
    # tanh(beta eps), so sum_a <J_a^2>/N^2 = (3 + (N - 1) E[tanh^2]) / (4N),
    # at most (N + 2) / (4N); E[tanh^2] is integrated here on its own
    from dicke_overlap import numerics, thermal

    quad = numerics.QuadratureSpec()
    point = thermal.ThermalPoint(ModelParams(1, 1, lam, n), 1.0 / temp)
    moments = thermal.thermal_moments(point, quad)
    scale = lam**2 / math.tanh(0.5 / temp) / n

    def tanh2(x):
        return np.tanh(np.sqrt(0.25 + scale * x**2) / temp) ** 2

    _, (mean_tanh2,) = numerics.integrate(thermal._log_weight_factory(point), [tanh2], quad)
    total = moments.total_second()
    assert total == pytest.approx((3 + (n - 1) * mean_tanh2) / (4 * n), rel=1e-9)
    assert total <= (n + 2) / (4 * n) * (1 + 1e-12)
    moments.validate()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10**4), lam=st.floats(0.0, 1.5))
@example(n=10**4, lam=0.5 * (1 - 1e-8))
@example(n=10**4, lam=0.5 * (1 + 1e-8))
def test_zero_t_moments_satisfy_bound_a(n, lam):
    params = ModelParams(1, 1, lam, n)
    assume(abs(lam / params.critical - 1.0) > 1e-9)
    zerotemp.collective_moments_zero_t(zerotemp.gaussian_ground_state(params), params).validate()


def test_witness_tolerance_distinguishes_noise():
    n = 50
    m = coherent_all_down(n)
    # nudge the z variance by sub-tolerance noise: still no (b) violation
    noisy = MomentSet(
        n_atoms=n,
        first=m.first,
        second=(m.second[0], m.second[1], m.second[2] - 1e-12),
    )
    report = evaluate(noisy)
    assert not report.entries[0].violated
